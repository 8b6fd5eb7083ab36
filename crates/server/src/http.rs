//! Minimal in-tree HTTP/1.1 layer over `std::net`.
//!
//! crates.io is unreachable in this build environment, so the serve path
//! brings its own wire protocol: a strict request parser (request line,
//! headers, `Content-Length` body), a response writer, and a
//! [`HttpServer`] that accepts connections on a dedicated thread and
//! dispatches them to a fixed worker pool. Connections are keep-alive by
//! default (HTTP/1.1 semantics) with a read timeout so an idle client
//! cannot pin a worker, and shutdown is graceful: stop accepting, let
//! every worker finish its in-flight connection, join all threads.
//!
//! Every response leaves in **one** socket write: the head is formatted
//! into a small buffer and sent with the body in a single
//! `write_vectored`, so a cached body still goes out uncopied. Workers
//! set `TCP_NODELAY` (a reply must not wait on Nagle for the client's
//! next request), and with it every `write` becomes its own TCP
//! segment — a head written piece by piece would cost a dozen `send`s
//! and segments per reply. On the way in, one line buffer per
//! connection serves the request line and every header line.
//!
//! The layer covers exactly what a JSON query service needs — it is not
//! a general web server (no chunked encoding, no TLS, no multipart).

use crate::json::Json;
use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

/// Reject request heads (request line + headers) larger than this.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Reject request bodies larger than this.
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Per-connection read timeout: an idle keep-alive client is dropped
/// after this long, freeing its worker.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Room for a response head: the longest status text and content type
/// this module sends, with a 20-digit length, fit in 157 bytes, so
/// formatting one never reallocates.
const HEAD_CAPACITY: usize = 192;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercase (`GET`, `POST`, …).
    pub method: String,
    /// Path component, without the query string (e.g. `/density`).
    pub path: String,
    /// Query parameters, percent-decoded, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    pub fn body_str(&self) -> Result<&str, std::str::Utf8Error> {
        std::str::from_utf8(&self.body)
    }

    fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Response body storage: owned bytes for one-off payloads, shared for
/// cached ones — a cache hit goes to the socket without copying the
/// (potentially multi-kilobyte) encoded payload.
#[derive(Debug, Clone)]
pub enum Body {
    /// Bytes owned by this response.
    Owned(Vec<u8>),
    /// Bytes shared with the query cache (refcounted, never copied).
    Shared(Arc<[u8]>),
}

impl Body {
    /// The bytes to send.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Body::Owned(v) => v,
            Body::Shared(s) => s,
        }
    }
}

/// An HTTP response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 400, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Body,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, value: &Json) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: Body::Owned(value.encode().into_bytes()),
        }
    }

    /// A JSON response from an already-encoded body (the cached-read
    /// path: the cached bytes are shared, not copied, per request).
    pub fn json_body(status: u16, body: Arc<[u8]>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: Body::Shared(body),
        }
    }

    /// A JSON error payload `{"error": msg}` with the given status.
    pub fn error(status: u16, msg: impl Into<String>) -> Self {
        Self::json(status, &Json::obj([("error", Json::from(msg.into()))]))
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: Body::Owned(body.into().into_bytes()),
        }
    }

    /// A Prometheus text-exposition response (the `/metrics` payload).
    pub fn prometheus(body: String) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: Body::Owned(body.into_bytes()),
        }
    }

    /// A response from text that is already serialized JSON (the
    /// `/trace` payload, whose encoder lives in `stkde-obs`).
    pub fn raw_json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: Body::Owned(body.into_bytes()),
        }
    }

    /// Send head and body in one `write_vectored`; only a short write
    /// (a full socket buffer) costs another call, for the rest.
    fn write_to(&self, w: &mut impl Write, close: bool) -> io::Result<()> {
        let body = self.body.as_bytes();
        let mut head = Vec::with_capacity(HEAD_CAPACITY);
        write!(
            head,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            body.len(),
            if close { "close" } else { "keep-alive" },
        )?;
        let mut slices = [IoSlice::new(&head), IoSlice::new(body)];
        let mut pending = &mut slices[..];
        while !pending.is_empty() {
            match w.write_vectored(pending) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut pending, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        w.flush()
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Why reading a request failed.
#[derive(Debug)]
enum ReadError {
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// Transport failure (including read timeout); the connection is
    /// dropped, so the error detail has nowhere to go.
    Io,
    /// The bytes did not form a valid request; the message is sent back
    /// in a 400 before closing.
    Bad(String),
    /// Head or body exceeded the configured limits.
    TooLarge,
}

/// Percent-decode a query component (`%XX` and `+` for space).
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Split a raw query string into decoded key/value pairs.
fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

/// Read one request. `line` is the connection's line buffer, reused for
/// the request line and every header line (cleared before each).
fn read_request(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
) -> Result<Request, ReadError> {
    // Cap the head read *before* buffering: `read_line` on the raw reader
    // would happily grow its String on a newline-free flood, so every head
    // byte goes through a `take` that cuts the peer off at the limit.
    let mut head = (&mut *reader).take(MAX_HEAD_BYTES as u64 + 1);
    line.clear();
    match head.read_line(line) {
        Ok(0) => return Err(ReadError::Closed),
        Ok(_) => {}
        Err(_) => return Err(ReadError::Io),
    }
    if head.limit() == 0 {
        return Err(ReadError::TooLarge);
    }
    let mut parts = line.trim_end().splitn(3, ' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => return Err(ReadError::Bad(format!("malformed request line {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad(format!("unsupported version {version:?}")));
    }
    let (path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut req = Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        query: parse_query(raw_query),
        headers: Vec::new(),
        body: Vec::new(),
    };

    loop {
        line.clear();
        match head.read_line(line) {
            Ok(0) => return Err(ReadError::Bad("connection closed mid-headers".into())),
            Ok(_) => {}
            Err(_) => return Err(ReadError::Io),
        }
        if head.limit() == 0 {
            return Err(ReadError::TooLarge);
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(ReadError::Bad(format!("malformed header {trimmed:?}")));
        };
        req.headers
            .push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if let Some(len) = req.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| ReadError::Bad(format!("bad content-length {len:?}")))?;
        if len > MAX_BODY_BYTES {
            return Err(ReadError::TooLarge);
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).map_err(|_| ReadError::Io)?;
        req.body = body;
    }
    Ok(req)
}

/// The request handler a server dispatches to. Handlers run on worker
/// threads and must be safe to call concurrently.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A running HTTP server: an acceptor thread plus a fixed pool of
/// connection workers.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl HttpServer {
    /// Bind `addr` (port 0 picks an ephemeral port) and start serving
    /// `handler` on `threads` workers.
    pub fn serve(addr: impl ToSocketAddrs, threads: usize, handler: Handler) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let threads = threads.max(1);

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let handler = Arc::clone(&handler);
                let shutdown = Arc::clone(&shutdown);
                std::thread::Builder::new()
                    .name(format!("http-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &handler, &shutdown))
                    .expect("spawn http worker")
            })
            .collect();

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("http-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        match conn {
                            // A send can only fail after shutdown started.
                            Ok(stream) => {
                                if tx.send(stream).is_err() {
                                    break;
                                }
                            }
                            Err(_) => continue,
                        }
                    }
                    // Dropping `tx` here lets every worker drain and exit.
                })
                .expect("spawn http acceptor")
        };

        Ok(Self {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, finish in-flight connections, join every thread.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's `incoming()` with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        // `shutdown()` consumed the handles; if the server is dropped
        // without it, still stop the acceptor so threads do not leak
        // accept work, but do not block on joins in a destructor.
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, handler: &Handler, shutdown: &AtomicBool) {
    loop {
        // Holding the lock only for the recv keeps the pool work-stealing:
        // whichever worker is free picks up the next connection.
        let stream = match rx.lock().recv() {
            Ok(s) => s,
            Err(_) => return, // acceptor gone: shutdown
        };
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        let _ = stream.set_nodelay(true);
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => continue,
        };
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        loop {
            match read_request(&mut reader, &mut line) {
                Ok(req) => {
                    let close = req.wants_close() || shutdown.load(Ordering::SeqCst);
                    // A panicking handler must cost one 500, not a worker:
                    // an unisolated panic would shrink the fixed pool until
                    // the daemon silently stops serving.
                    let resp =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(&req)))
                            .unwrap_or_else(|_| {
                                Response::error(500, "handler panicked; see server stderr")
                            });
                    if resp.write_to(&mut writer, close).is_err() || close {
                        break;
                    }
                }
                Err(ReadError::Closed | ReadError::Io) => break,
                Err(ReadError::Bad(msg)) => {
                    let _ = Response::error(400, msg).write_to(&mut writer, true);
                    break;
                }
                Err(ReadError::TooLarge) => {
                    let _ = Response::error(413, "request too large").write_to(&mut writer, true);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn echo_server(threads: usize) -> HttpServer {
        let handler: Handler = Arc::new(|req: &Request| {
            Response::json(
                200,
                &Json::obj([
                    ("method", Json::from(req.method.as_str())),
                    ("path", Json::from(req.path.as_str())),
                    (
                        "q",
                        Json::obj(
                            req.query
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::from(v.as_str()))),
                        ),
                    ),
                    (
                        "body",
                        Json::from(String::from_utf8_lossy(&req.body).into_owned()),
                    ),
                    ("headers", Json::from(req.headers.len())),
                ]),
            )
        });
        HttpServer::serve("127.0.0.1:0", threads, handler).expect("bind")
    }

    /// Accepts every byte and counts the calls that delivered them.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
        /// Start address of every slice handed to `write_vectored`.
        slice_ptrs: Vec<*const u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            for buf in bufs {
                self.slice_ptrs.push(buf.as_ptr());
                self.bytes.extend_from_slice(buf);
            }
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Takes at most `step` bytes per call, and only from the first
    /// non-empty slice (the default `write_vectored`): a socket whose
    /// buffer is nearly full.
    struct TrickleWriter {
        bytes: Vec<u8>,
        step: usize,
    }

    impl Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// One response of every shape the worker sends: owned and shared
    /// bodies, the 400 and 413 error replies, and an empty body.
    fn sample_responses() -> Vec<(Response, bool)> {
        vec![
            (
                Response::json(200, &Json::obj([("density", Json::from(0.25))])),
                false,
            ),
            (
                Response::json_body(200, Arc::from(&br#"{"cached":true}"#[..])),
                false,
            ),
            (Response::error(400, "malformed request line"), true),
            (Response::error(413, "request too large"), true),
            (Response::text(202, ""), false),
        ]
    }

    #[test]
    fn every_response_is_one_write() {
        for (resp, close) in sample_responses() {
            let mut w = CountingWriter::default();
            resp.write_to(&mut w, close).unwrap();
            assert_eq!(w.writes, 1, "status {}", resp.status);
            let text = String::from_utf8(w.bytes).unwrap();
            let body = std::str::from_utf8(resp.body.as_bytes()).unwrap();
            let head = format!(
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
                resp.status,
                status_text(resp.status),
                resp.content_type,
                body.len(),
                if close { "close" } else { "keep-alive" },
            );
            assert_eq!(text, head + body);
            // A cached body reaches the writer as the cache's own bytes.
            if let Body::Shared(shared) = &resp.body {
                assert!(w.slice_ptrs.contains(&shared.as_ptr()));
            }
        }
    }

    #[test]
    fn short_writes_still_send_the_whole_response() {
        for (resp, close) in sample_responses() {
            let mut whole = CountingWriter::default();
            resp.write_to(&mut whole, close).unwrap();
            for step in [1, 3, 7, 64] {
                let mut trickle = TrickleWriter {
                    bytes: Vec::new(),
                    step,
                };
                resp.write_to(&mut trickle, close).unwrap();
                assert_eq!(trickle.bytes, whole.bytes, "step {step}");
            }
        }
    }

    /// Read one keep-alive response off `reader`: its `Connection`
    /// header and its JSON body, framed by `Content-Length`.
    fn read_response(reader: &mut BufReader<TcpStream>) -> (String, Json) {
        let mut len = None;
        let mut connection = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end().to_ascii_lowercase();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.strip_prefix("content-length:") {
                len = Some(v.trim().parse::<usize>().unwrap());
            } else if let Some(v) = line.strip_prefix("connection:") {
                connection = v.trim().to_string();
            }
        }
        let mut body = vec![0u8; len.expect("content-length present")];
        reader.read_exact(&mut body).unwrap();
        (
            connection,
            Json::parse(std::str::from_utf8(&body).unwrap()).unwrap(),
        )
    }

    #[test]
    fn serves_get_with_query_decoding() {
        let server = echo_server(2);
        let client = Client::new(server.addr());
        let (status, body) = client.get("/where?a=1&msg=hello%20world&plus=a+b").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.get("path").unwrap().as_str(), Some("/where"));
        let q = body.get("q").unwrap();
        assert_eq!(q.get("a").unwrap().as_str(), Some("1"));
        assert_eq!(q.get("msg").unwrap().as_str(), Some("hello world"));
        assert_eq!(q.get("plus").unwrap().as_str(), Some("a b"));
        server.shutdown();
    }

    #[test]
    fn serves_post_with_body() {
        let server = echo_server(2);
        let client = Client::new(server.addr());
        let payload = Json::obj([("x", Json::from(1.5))]);
        let (status, body) = client.post_json("/events", &payload).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.get("method").unwrap().as_str(), Some("POST"));
        assert_eq!(body.get("body").unwrap().as_str(), Some(r#"{"x":1.5}"#));
        server.shutdown();
    }

    #[test]
    fn malformed_request_line_gets_400() {
        let server = echo_server(1);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "got {buf:?}");
        server.shutdown();
    }

    #[test]
    fn newline_free_flood_is_cut_off_at_the_head_limit() {
        let server = echo_server(1);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        // Well past MAX_HEAD_BYTES with no newline: the server must answer
        // 413 after at most limit+1 bytes instead of buffering the flood.
        let flood = vec![b'A'; MAX_HEAD_BYTES + 1024];
        let _ = s.write_all(&flood); // may fail once the server stops reading
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut buf = String::new();
        let _ = s.read_to_string(&mut buf);
        assert!(
            buf.starts_with("HTTP/1.1 413"),
            "got {:?}",
            &buf[..buf.len().min(64)]
        );
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let server = echo_server(1);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        // A header-heavy POST with a body, then bodiless GETs on the same
        // connection: the reused line buffer must carry no header, length
        // or body over from one request into the next.
        let filler: String = (0..40)
            .map(|i| format!("X-Filler-{i}: {}\r\n", "v".repeat(i)))
            .collect();
        let payload = r#"{"x":1.5}"#;
        let mut requests = vec![(
            format!(
                "POST /first?a=1 HTTP/1.1\r\nHost: t\r\n{filler}Content-Length: {}\r\n\r\n{payload}",
                payload.len()
            ),
            ("POST", "/first".to_string(), payload, 42),
        )];
        for i in 0..3 {
            requests.push((
                format!("GET /r{i} HTTP/1.1\r\nHost: t\r\n\r\n"),
                ("GET", format!("/r{i}"), "", 1),
            ));
        }
        for (raw, (method, path, body, headers)) in requests {
            s.write_all(raw.as_bytes()).unwrap();
            let (connection, echoed) = read_response(&mut reader);
            assert_eq!(connection, "keep-alive");
            assert_eq!(echoed.get("method").unwrap().as_str(), Some(method));
            assert_eq!(echoed.get("path").unwrap().as_str(), Some(path.as_str()));
            assert_eq!(echoed.get("body").unwrap().as_str(), Some(body));
            assert_eq!(
                echoed.get("headers").unwrap().as_f64(),
                Some(headers as f64)
            );
            let query = echoed.get("q").unwrap();
            assert_eq!(query.get("a").is_some(), method == "POST");
        }
        server.shutdown();
    }

    #[test]
    fn handler_panic_costs_a_500_not_a_worker() {
        let handler: Handler = Arc::new(|req: &Request| {
            if req.path == "/panic" {
                panic!("boom");
            }
            Response::json(200, &Json::Bool(true))
        });
        // One worker: if the panic killed it, the follow-up request would
        // hang or fail instead of answering 200.
        let server = HttpServer::serve("127.0.0.1:0", 1, handler).expect("bind");
        let client = Client::new(server.addr());
        let (status, _) = client.get("/panic").unwrap();
        assert_eq!(status, 500);
        let (status, _) = client.get("/fine").unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_with_concurrent_clients() {
        let server = echo_server(4);
        let addr = server.addr();
        let clients: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let client = Client::new(addr);
                    client.get(&format!("/c{i}")).map(|(status, _)| status)
                })
            })
            .collect();
        for c in clients {
            assert_eq!(c.join().unwrap().unwrap(), 200);
        }
        server.shutdown(); // must not hang
    }
}

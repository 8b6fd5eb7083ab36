//! Minimal in-tree HTTP/1.1 layer over `std::net`.
//!
//! crates.io is unreachable in this build environment, so the serve path
//! brings its own wire protocol: a strict request parser (request line,
//! headers, `Content-Length` body), a response writer, and a
//! [`HttpServer`] whose fixed pool of workers each accept from the one
//! shared listener, so connections no worker has taken yet wait in the
//! kernel's bounded listen backlog. Connections are keep-alive by default
//! (HTTP/1.1 semantics) with a read timeout so an idle client cannot pin a
//! worker, and shutdown is graceful: raise the flag, wake each worker idle
//! in `accept` with a no-op connection, let every worker finish its
//! in-flight connection, join all threads.
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
//! a general web server (no TLS, no multipart, and a chunked request gets
//! a 501).

use crate::json::Json;
use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub(crate) fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    pub(crate) fn body_str(&self) -> Result<&str, std::str::Utf8Error> {
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
    pub(crate) fn as_bytes(&self) -> &[u8] {
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
    pub(crate) fn json(status: u16, value: &Json) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: Body::Owned(value.encode().into_bytes()),
        }
    }

    /// A JSON response from an already-encoded body (the cached-read
    /// path: the cached bytes are shared, not copied, per request).
    pub(crate) fn json_body(status: u16, body: Arc<[u8]>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: Body::Shared(body),
        }
    }

    /// A JSON error payload `{"error": msg}` with the given status.
    pub(crate) fn error(status: u16, msg: impl Into<String>) -> Self {
        Self::json(status, &Json::obj([("error", Json::from(msg.into()))]))
    }

    /// A Prometheus text-exposition response (the `/metrics` payload).
    pub(crate) fn prometheus(body: String) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: Body::Owned(body.into_bytes()),
        }
    }

    /// A response from text that is already serialized JSON (the
    /// `/trace` payload, whose encoder lives in `stkde-obs`).
    pub(crate) fn raw_json(status: u16, body: String) -> Self {
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
        501 => "Not Implemented",
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
    /// The request uses framing this server does not read (a
    /// `Transfer-Encoding`); the message goes back in a 501 before closing.
    Unsupported(&'static str),
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
            b'%' => match (hex_digit(bytes.get(i + 1)), hex_digit(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push((hi << 4) | lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The value of one ASCII hex digit.
fn hex_digit(b: Option<&u8>) -> Option<u8> {
    char::from(*b?).to_digit(16).map(|d| d as u8)
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

    // Only `Content-Length` framing is read: a chunked body left unread
    // would be parsed as the next request.
    if req.header("transfer-encoding").is_some() {
        return Err(ReadError::Unsupported("Transfer-Encoding is not supported"));
    }
    if let Some(raw) = req.header("content-length") {
        // Digits only (`usize::from_str` takes a leading `+`), and every
        // repeat of the header must agree.
        let digits = raw.bytes().all(|b| b.is_ascii_digit());
        let mut repeats = req.headers.iter().filter(|(k, _)| k == "content-length");
        let len: usize = match raw.parse() {
            Ok(len) if digits && repeats.all(|(_, v)| v == raw) => len,
            _ => return Err(ReadError::Bad(format!("bad content-length {raw:?}"))),
        };
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
pub(crate) type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A running HTTP server: a fixed pool of connection workers that each
/// accept from the one shared listener.
pub(crate) struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
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
    pub(crate) fn serve(
        addr: impl ToSocketAddrs,
        threads: usize,
        handler: Handler,
    ) -> io::Result<Self> {
        let listener = Arc::new(TcpListener::bind(addr)?);
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = (0..threads.max(1))
            .map(|i| {
                let listener = Arc::clone(&listener);
                let handler = Arc::clone(&handler);
                let shutdown = Arc::clone(&shutdown);
                std::thread::Builder::new()
                    .name(format!("http-worker-{i}"))
                    .spawn(move || worker_loop(&listener, &handler, &shutdown))
                    .expect("spawn http worker")
            })
            .collect();
        Ok(Self {
            addr,
            shutdown,
            workers,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raise the shutdown flag and wake every worker idle in `accept`
    /// with one no-op connection each. A worker busy on a connection
    /// takes one of them when it next accepts.
    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for _ in &self.workers {
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Stop accepting, finish in-flight connections, join every thread.
    pub(crate) fn shutdown(mut self) {
        self.stop();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        // `shutdown()` drained the handles, so this wakes nobody after
        // it; a server dropped without it still stops its workers, but a
        // destructor does not block on their joins.
        self.stop();
    }
}

/// Accept and serve connections until the shutdown flag is seen. Waiting
/// connections queue in the kernel's bounded listen backlog, not here.
fn worker_loop(listener: &TcpListener, handler: &Handler, shutdown: &AtomicBool) {
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = accepted else {
            continue;
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
                Err(ReadError::Unsupported(msg)) => {
                    let _ = Response::error(501, msg).write_to(&mut writer, true);
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
        let (status, body) = client
            .get("/where?a=1&msg=hello%20world&plus=a+b&sign=%+5&minus=%-f&bad=%4")
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.get("path").unwrap().as_str(), Some("/where"));
        let q = body.get("q").unwrap();
        assert_eq!(q.get("a").unwrap().as_str(), Some("1"));
        assert_eq!(q.get("msg").unwrap().as_str(), Some("hello world"));
        assert_eq!(q.get("plus").unwrap().as_str(), Some("a b"));
        // Only two ASCII hex digits make an escape: `u8::from_str_radix`
        // would read `+5` as 5, and a truncated escape stays literal.
        assert_eq!(q.get("sign").unwrap().as_str(), Some("% 5"));
        assert_eq!(q.get("minus").unwrap().as_str(), Some("%-f"));
        assert_eq!(q.get("bad").unwrap().as_str(), Some("%4"));
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

    /// Send `raw` on a fresh connection and read until the server closes.
    fn exchange(server: &HttpServer, raw: &[u8]) -> String {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(raw).unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        buf
    }

    /// Exactly one response, with this status, and then EOF.
    fn assert_one_response(buf: &str, status: &str) {
        assert!(
            buf.starts_with(&format!("HTTP/1.1 {status}")),
            "got {buf:?}"
        );
        assert_eq!(buf.matches("HTTP/1.1 ").count(), 1, "got {buf:?}");
    }

    #[test]
    fn chunked_body_gets_one_501_and_the_connection_closes() {
        let server = echo_server(1);
        let buf = exchange(
            &server,
            b"POST /events HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              15\r\n{\"x\":1,\"y\":1,\"t\":1}\r\n0\r\n\r\n",
        );
        assert_one_response(&buf, "501 Not Implemented");
        server.shutdown();
    }

    #[test]
    fn content_length_must_be_digits_and_agree() {
        let server = echo_server(1);
        for head in [
            "Content-Length: +2\r\n",
            "Content-Length: 2\r\nContent-Length: 3\r\n",
        ] {
            let raw = format!("POST /e HTTP/1.1\r\n{head}\r\n{{}}");
            assert_one_response(&exchange(&server, raw.as_bytes()), "400");
        }
        // Repeated headers that agree frame the body as usual.
        let raw = "POST /e HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\
                   Connection: close\r\n\r\n{}";
        let buf = exchange(&server, raw.as_bytes());
        assert_one_response(&buf, "200");
        assert!(buf.contains(r#""body":"{}""#), "got {buf:?}");
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
        // Two workers, sixteen one-shot clients at once: the connections no
        // worker is accepting yet wait in the listen backlog until one is
        // free, and each client gets its own answer.
        let server = echo_server(2);
        let addr = server.addr();
        let clients: Vec<_> = (0..16)
            .map(|i| {
                std::thread::spawn(move || {
                    let (status, body) = Client::new(addr).get(&format!("/c{i}")).unwrap();
                    let path = body.get("path").unwrap().as_str().map(str::to_owned);
                    (status, path)
                })
            })
            .collect();
        for (i, c) in clients.into_iter().enumerate() {
            assert_eq!(c.join().unwrap(), (200, Some(format!("/c{i}"))));
        }
        server.shutdown(); // must not hang
    }

    #[test]
    fn shutdown_wakes_workers_idle_in_accept() {
        let server = echo_server(4);
        // Let every worker reach `accept`.
        std::thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        server.shutdown();
        // Each idle worker takes one wake-up connection and exits; none
        // waits for a read timeout or for a client.
        assert!(
            started.elapsed() < READ_TIMEOUT / 5,
            "shutdown took {:?}",
            started.elapsed()
        );
    }
}

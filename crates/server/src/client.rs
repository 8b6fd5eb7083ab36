//! In-tree HTTP client for the density service.
//!
//! One-shot requests over `std::net::TcpStream` (`Connection: close`,
//! read-to-EOF): enough for the example programs, the integration tests,
//! and the CI health probe, without pulling in an HTTP dependency.

use crate::json::{Json, JsonError};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How long a probe waits for connect/read/write before giving up.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The peer's bytes were not a valid HTTP response.
    BadResponse(String),
    /// The response body was not valid JSON.
    Json(JsonError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::BadResponse(msg) => write!(f, "bad response: {msg}"),
            ClientError::Json(e) => write!(f, "bad response body: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<JsonError> for ClientError {
    fn from(e: JsonError) -> Self {
        ClientError::Json(e)
    }
}

/// A client bound to one server address.
#[derive(Debug, Clone, Copy)]
pub struct Client {
    addr: SocketAddr,
}

impl Client {
    /// Client for the given address.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr }
    }

    /// Resolve `host:port` and build a client for it.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::BadResponse("address resolved to nothing".into()))?;
        Ok(Self { addr })
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `GET path` (may include a query string). Returns the status code
    /// and the parsed JSON body (`Null` for an empty body).
    pub fn get(&self, path_and_query: &str) -> Result<(u16, Json), ClientError> {
        self.request("GET", path_and_query, None)
    }

    /// `POST path` with a JSON body.
    pub fn post_json(&self, path: &str, body: &Json) -> Result<(u16, Json), ClientError> {
        self.request("POST", path, Some(body.encode()))
    }

    /// `GET path`, returning the status code and the body as raw text —
    /// for non-JSON endpoints (`/metrics` is Prometheus text).
    pub fn get_text(&self, path_and_query: &str) -> Result<(u16, String), ClientError> {
        let raw = self.request_raw("GET", path_and_query, None)?;
        let (status, body) = split_response(&raw)?;
        let text = std::str::from_utf8(body)
            .map_err(|_| ClientError::BadResponse("non-UTF-8 body".into()))?;
        Ok((status, text.to_string()))
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<String>,
    ) -> Result<(u16, Json), ClientError> {
        let raw = self.request_raw(method, path, body)?;
        parse_response(&raw)
    }

    fn request_raw(
        &self,
        method: &str,
        path: &str,
        body: Option<String>,
    ) -> Result<Vec<u8>, ClientError> {
        let mut stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        // Head and body leave in one write: under Nagle a second small
        // write would wait for the ACK of the first.
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n",
            self.addr
        );
        if let Some(body) = &body {
            request.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ));
        } else {
            request.push_str("\r\n");
        }
        stream.write_all(request.as_bytes())?;

        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        Ok(raw)
    }
}

/// Split a raw HTTP response into status code and body bytes.
fn split_response(raw: &[u8]) -> Result<(u16, &[u8]), ClientError> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| ClientError::BadResponse("no header terminator".into()))?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| ClientError::BadResponse("non-UTF-8 response head".into()))?;
    let status_line = head.lines().next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    let status: u16 = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse()
            .map_err(|_| ClientError::BadResponse(format!("bad status line {status_line:?}")))?,
        _ => {
            return Err(ClientError::BadResponse(format!(
                "bad status line {status_line:?}"
            )))
        }
    };
    Ok((status, &raw[head_end + 4..]))
}

fn parse_response(raw: &[u8]) -> Result<(u16, Json), ClientError> {
    let (status, body) = split_response(raw)?;
    let json = if body.is_empty() {
        Json::Null
    } else {
        let text = std::str::from_utf8(body)
            .map_err(|_| ClientError::BadResponse("non-UTF-8 body".into()))?;
        Json::parse(text)?
    };
    Ok((status, json))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_response_with_json_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{\"ok\":true}";
        let (status, body) = parse_response(raw).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn parses_empty_body_as_null() {
        let (status, body) = parse_response(b"HTTP/1.1 202 Accepted\r\n\r\n").unwrap();
        assert_eq!(status, 202);
        assert_eq!(body, Json::Null);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_err());
        assert!(parse_response(b"BOGUS 200\r\n\r\n").is_err());
    }
}

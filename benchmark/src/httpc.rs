//! The load generator's HTTP/1.1 client: one keep-alive connection.
//!
//! The in-tree `stkde_server::Client` opens a connection per request;
//! a daemon worker serves one connection at a time, so a load generator
//! has to hold exactly as many connections as it has clients and reuse
//! them, which this does.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use stkde_server::json::Json;

/// No request of a healthy run takes this long; one that does is a
/// failure, not a reason to hang the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// The daemon drops a keep-alive connection that stays idle for 5 s. A
/// connection idle for longer than this is reopened before it is used
/// again, so that rule of the daemon's never reads as a failed request.
const REOPEN_AFTER_IDLE: Duration = Duration::from_secs(2);

#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    request: Vec<u8>,
    last_used: Instant,
}

/// A response and when its exchange happened.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// The request was fully written.
    pub sent: Instant,
    /// The response was fully read.
    pub done: Instant,
}

impl Reply {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    pub fn json(&self) -> io::Result<Json> {
        std::str::from_utf8(&self.body)
            .ok()
            .and_then(|text| Json::parse(text).ok())
            .ok_or_else(|| bad("response body is not JSON"))
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        Ok(Self {
            addr,
            reader: BufReader::new(Self::connect(addr)?),
            request: Vec::new(),
            last_used: Instant::now(),
        })
    }

    fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(stream)
    }

    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.exchange("GET", path, None)
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<Reply> {
        self.exchange("POST", path, Some(body))
    }

    fn exchange(&mut self, method: &str, path: &str, body: Option<&[u8]>) -> io::Result<Reply> {
        if self.last_used.elapsed() > REOPEN_AFTER_IDLE {
            // Closing the old stream frees its worker for the new one.
            self.reader = BufReader::new(Self::connect(self.addr)?);
        }
        self.request.clear();
        write!(self.request, "{method} {path} HTTP/1.1\r\nHost: bench\r\n")?;
        if let Some(body) = body {
            write!(self.request, "Content-Length: {}\r\n\r\n", body.len())?;
            self.request.extend_from_slice(body);
        } else {
            self.request.extend_from_slice(b"\r\n");
        }
        self.reader.get_mut().write_all(&self.request)?;
        let sent = Instant::now();

        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the response head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let mut body = vec![0; length.ok_or_else(|| bad("response without Content-Length"))?];
        self.reader.read_exact(&mut body)?;
        self.last_used = Instant::now();
        Ok(Reply {
            status,
            body,
            sent,
            done: Instant::now(),
        })
    }
}

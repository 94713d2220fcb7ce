//! A minimal blocking HTTP/1.1 client: one request per connection, the
//! way the daemon serves them. The request goes out in a single write
//! and the response is read to end of stream, so a request's latency
//! ends with the last response byte.
//!
//! The load generator is the benchmark's own rather than
//! `sprint_serve::http::client`, so a change to the program's client
//! cannot change what the end-to-end run measures.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest the client waits on one response (a rack-1m job takes seconds).
const READ_TIMEOUT: Duration = Duration::from_secs(150);

/// A response: status code and body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

impl Response {
    /// Whether the status is 2xx.
    #[must_use]
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Send one request and read the whole response.
///
/// # Errors
///
/// Transport failures and unparseable responses.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> crate::Result<Response> {
    let mut stream = TcpStream::connect(addr).map_err(crate::ctx("connect"))?;
    stream.set_nodelay(true).map_err(crate::ctx("nodelay"))?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(crate::ctx("read timeout"))?;
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(message.as_bytes())
        .map_err(crate::ctx("write request"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(crate::ctx("read response"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(crate::ctx("response head"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unparseable status line in `{head}`"))?;
    let body = String::from_utf8(raw[split + 4..].to_vec()).map_err(crate::ctx("response body"))?;
    Ok(Response { status, body })
}

/// `GET path`.
///
/// # Errors
///
/// As [`request`].
pub fn get(addr: &str, path: &str) -> crate::Result<Response> {
    request(addr, "GET", path, "")
}

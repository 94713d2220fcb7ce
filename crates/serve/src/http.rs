//! A hand-rolled `std::net` HTTP/1.1 layer: just enough server-side
//! parsing and response writing for the daemon's endpoints, plus a tiny
//! blocking client for tests and benches. The workspace is
//! offline/vendored, so no external server framework is available — and
//! none is needed for a line-oriented request/response protocol.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::error::ServeError;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body (sweep specs are a few KiB; this
/// leaves room for very wide ones without letting a client OOM us).
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target, without the query string.
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers as `(lowercased-name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Whether a boolean query flag is set (`?wait=true`, `?wait=1`, or
    /// bare `?wait`).
    #[must_use]
    pub fn query_flag(&self, name: &str) -> bool {
        self.query
            .iter()
            .any(|(k, v)| k == name && (v == "true" || v == "1" || v.is_empty()))
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for non-UTF-8 bodies.
    pub fn body_text(&self) -> crate::Result<&str> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ServeError::BadRequest("request body is not UTF-8".into()))
    }
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect()
}

/// A failed read while `what`: a read that timed out is the client's
/// stall, a typed 400; anything else is the transport's.
fn read_error(what: &'static str) -> impl FnOnce(std::io::Error) -> ServeError {
    move |e| match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            ServeError::BadRequest(format!("{what}: timed out"))
        }
        _ => ServeError::io(what)(e),
    }
}

/// A request stream that must deliver the whole request by `deadline`:
/// before each read, `limit` bounds how long the read may block to the
/// time left, and a read once it has passed fails with `TimedOut`. So a
/// client that trickles its request byte by byte is cut off as surely as
/// one that stalls.
pub(crate) struct ByDeadline<R> {
    pub(crate) inner: R,
    pub(crate) deadline: Instant,
    pub(crate) limit: fn(&R, Duration) -> std::io::Result<()>,
}

impl<R: Read> Read for ByDeadline<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        (self.limit)(&self.inner, left)?;
        self.inner.read(buf)
    }
}

/// Read one `\n`-terminated line without trusting the peer: bytes are
/// consumed through the `BufRead` buffer and the line is abandoned with
/// a typed 400 the moment it exceeds `limit`, so a client streaming an
/// endless header line cannot grow an unbounded `String` (the plain
/// `read_line` has no such bound).
fn read_line_bounded(
    reader: &mut impl BufRead,
    limit: usize,
    what: &'static str,
) -> crate::Result<String> {
    let mut line = Vec::new();
    loop {
        let (consumed, done) = {
            let buf = reader.fill_buf().map_err(read_error(what))?;
            if buf.is_empty() {
                (0, true)
            } else if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                line.extend_from_slice(&buf[..=pos]);
                (pos + 1, true)
            } else {
                line.extend_from_slice(buf);
                (buf.len(), false)
            }
        };
        reader.consume(consumed);
        if line.len() > limit {
            return Err(ServeError::BadRequest("request head too large".into()));
        }
        if done {
            break;
        }
    }
    String::from_utf8(line).map_err(|_| ServeError::BadRequest(format!("{what}: not valid UTF-8")))
}

/// Read and parse one request from the stream.
///
/// # Errors
///
/// [`ServeError::BadRequest`] for malformed or oversized heads and for
/// a head or body cut short by end of stream,
/// [`ServeError::PayloadTooLarge`] for oversized bodies,
/// [`ServeError::Io`] for transport failures.
pub fn read_request(reader: &mut impl BufRead) -> crate::Result<Request> {
    let line = read_line_bounded(reader, MAX_HEAD_BYTES, "reading request line")?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ServeError::BadRequest("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ServeError::BadRequest("request line has no target".into()))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };

    let mut headers = Vec::new();
    let mut head_bytes = line.len();
    loop {
        let budget = MAX_HEAD_BYTES.saturating_sub(head_bytes);
        let header = read_line_bounded(reader, budget, "reading header")?;
        head_bytes += header.len();
        if header.is_empty() {
            // EOF before the blank line that ends the head.
            return Err(ServeError::BadRequest("truncated request head".into()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }

    let content_length = headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .map(|(_, value)| {
            value
                .parse::<usize>()
                .map_err(|_| ServeError::BadRequest(format!("bad Content-Length `{value}`")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ServeError::PayloadTooLarge {
            bytes: content_length,
            limit: MAX_BODY_BYTES,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ServeError::BadRequest("truncated request body".into())
        } else {
            read_error("reading body")(e)
        }
    })?;
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete response and flush it.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write_response_with_headers(stream, status, content_type, &[], body)
}

/// [`write_response`] with extra response headers (e.g. `Retry-After`
/// on a 429).
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_response_with_headers(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason(status),
        body.len()
    )?;
    for (name, value) in extra {
        write!(stream, "{name}: {value}\r\n")?;
    }
    write!(stream, "Connection: close\r\n\r\n")?;
    stream.write_all(body)?;
    stream.flush()
}

/// Start a Server-Sent Events response: status line and headers only;
/// the caller then streams frames with [`write_sse_frame`].
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_sse_header(stream: &mut impl Write) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}

/// Write one SSE `data:` frame and flush it.
///
/// # Errors
///
/// Propagates transport failures (a disconnected client surfaces here).
pub fn write_sse_frame(stream: &mut impl Write, data: &str) -> std::io::Result<()> {
    write!(stream, "data: {data}\n\n")?;
    stream.flush()
}

/// A minimal blocking HTTP/1.1 client, used by the daemon's tests,
/// the serve smoke bench, and anything else that needs to poke the
/// endpoints without external dependencies.
pub mod client {
    use super::{BufRead, BufReader, Read, ServeError, TcpStream, Write};

    /// Issue one request with `Connection: close` and return
    /// `(status, body)`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for transport failures,
    /// [`ServeError::BadRequest`] for unparseable responses.
    pub fn request(
        addr: &str,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> crate::Result<(u16, String)> {
        let (status, _headers, body) = request_full(addr, method, path, &[], body)?;
        Ok((status, body))
    }

    /// A parsed response: status code, lowercased header pairs, body.
    pub type FullResponse = (u16, Vec<(String, String)>, String);

    /// Issue one request with extra request headers and return
    /// `(status, response-headers, body)`. Header names come back
    /// lowercased.
    ///
    /// # Errors
    ///
    /// As [`request`].
    pub fn request_full(
        addr: &str,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> crate::Result<FullResponse> {
        let mut stream =
            TcpStream::connect(addr).map_err(ServeError::io(format!("connecting to {addr}")))?;
        let payload = body.unwrap_or("");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n",
            payload.len()
        );
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("Connection: close\r\n\r\n");
        stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(payload.as_bytes()))
            .map_err(ServeError::io("writing request"))?;
        stream.flush().map_err(ServeError::io("flushing request"))?;

        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader
            .read_line(&mut status_line)
            .map_err(ServeError::io("reading status line"))?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                ServeError::BadRequest(format!("unparseable status line `{status_line}`"))
            })?;
        let mut response_headers = Vec::new();
        loop {
            let mut header = String::new();
            reader
                .read_line(&mut header)
                .map_err(ServeError::io("reading response header"))?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                response_headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let mut body = String::new();
        reader
            .read_to_string(&mut body)
            .map_err(ServeError::io("reading response body"))?;
        Ok((status, response_headers, body))
    }

    /// Connect to an SSE endpoint and collect up to `frames` `data:`
    /// payloads, giving up after `timeout`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for connection failures; returns however many
    /// frames arrived if the stream ends or times out early.
    pub fn sse_frames(
        addr: &str,
        path: &str,
        frames: usize,
        timeout: std::time::Duration,
    ) -> crate::Result<Vec<String>> {
        let stream =
            TcpStream::connect(addr).map_err(ServeError::io(format!("connecting to {addr}")))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(ServeError::io("setting read timeout"))?;
        let mut writer = stream
            .try_clone()
            .map_err(ServeError::io("cloning stream"))?;
        write!(
            writer,
            "GET {path} HTTP/1.1\r\nHost: {addr}\r\nAccept: text/event-stream\r\n\r\n"
        )
        .map_err(ServeError::io("writing SSE request"))?;
        writer.flush().map_err(ServeError::io("flushing"))?;

        let mut reader = BufReader::new(stream);
        let mut collected = Vec::new();
        let started = std::time::Instant::now();
        while collected.len() < frames && started.elapsed() < timeout {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    if let Some(data) = line.trim_end().strip_prefix("data: ") {
                        collected.push(data.to_string());
                    }
                }
                Err(_) => break,
            }
        }
        Ok(collected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(raw: &str) -> crate::Result<Request> {
        read_request(&mut raw.as_bytes())
    }

    /// A valid `POST /v1/jobs?wait=true` with a job spec body.
    fn submission() -> Vec<u8> {
        let body = r#"{"schema_version":2,"job":{"Run":{"spec":{"benchmark":"svm","policy":"EquilibriumThreshold","agents":40,"epochs":60,"seed":7}}},"deadline_ms":30000}"#;
        format!(
            "POST /v1/jobs?wait=true HTTP/1.1\r\nHost: 127.0.0.1\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// Untrusted bytes must parse or be rejected with a 4xx status.
    fn parses_or_is_a_4xx(bytes: &[u8]) -> Result<(), String> {
        match read_request(&mut &bytes[..]) {
            Err(e) if !(400..500).contains(&e.status()) => Err(format!("{} ({e})", e.status())),
            _ => Ok(()),
        }
    }

    #[test]
    fn every_truncation_of_a_submission_is_a_typed_400() {
        let raw = submission();
        for cut in 0..raw.len() {
            let err = read_request(&mut &raw[..cut]).unwrap_err();
            assert_eq!(err.status(), 400, "cut at {cut}: {err}");
        }
        let whole = read_request(&mut &raw[..]).unwrap();
        assert!(whole.query_flag("wait"));
        assert!(whole.body_text().unwrap().ends_with("30000}"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        fn arbitrary_bytes_parse_or_are_a_4xx(
            bytes in prop::collection::vec(0u8..=255, 0..600),
        ) {
            let verdict = parses_or_is_a_4xx(&bytes);
            prop_assert!(verdict.is_ok(), "{verdict:?} on {:?}", String::from_utf8_lossy(&bytes));
        }

        fn overwritten_submission_bytes_parse_or_are_a_4xx(
            overwrites in prop::collection::vec((0usize..4096, 0u8..=255), 1..4),
        ) {
            let mut bytes = submission();
            for (at, byte) in overwrites {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
            let verdict = parses_or_is_a_4xx(&bytes);
            prop_assert!(verdict.is_ok(), "{verdict:?} on {:?}", String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn a_timed_out_read_is_a_typed_400() {
        /// A peer that sends the head and part of the body, then stalls
        /// past the socket's read timeout.
        struct Stalls(Vec<u8>);
        impl Read for Stalls {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::ErrorKind::TimedOut.into());
                }
                let n = buf.len().min(self.0.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0.drain(..n);
                Ok(n)
            }
        }
        for sent in [
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"job\"",
            "GET /v1",
        ] {
            let mut reader = BufReader::new(Stalls(sent.as_bytes().to_vec()));
            let err = read_request(&mut reader).unwrap_err();
            assert_eq!(err.status(), 400, "{err}");
            assert!(err.to_string().contains("timed out"), "{err}");
        }
    }

    #[test]
    fn a_request_trickled_past_its_deadline_is_a_typed_400() {
        /// A peer that sends one byte of a long body per read, a
        /// millisecond apart, and notes the longest block it was allowed.
        struct Trickles {
            sent: Vec<u8>,
            longest: std::cell::Cell<Duration>,
        }
        impl Read for Trickles {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                std::thread::sleep(Duration::from_millis(1));
                buf[0] = self.sent.remove(0);
                Ok(1)
            }
        }
        let head = "POST /v1/jobs HTTP/1.1\r\nContent-Length: 100000\r\n\r\n";
        let mut sent = head.as_bytes().to_vec();
        sent.resize(head.len() + 100_000, b'a');
        let timed = ByDeadline {
            inner: Trickles {
                sent,
                longest: std::cell::Cell::new(Duration::ZERO),
            },
            deadline: Instant::now() + Duration::from_millis(50),
            limit: |peer, left| {
                peer.longest.set(peer.longest.get().max(left));
                Ok(())
            },
        };
        let mut reader = BufReader::new(timed);
        let started = Instant::now();
        let err = read_request(&mut reader).unwrap_err();
        assert_eq!(err.status(), 400, "{err}");
        assert!(err.to_string().contains("timed out"), "{err}");
        // Every read was bounded by the time left, and the request ended
        // at its deadline, long before the peer would have finished.
        let longest = reader.get_ref().inner.longest.get();
        assert!(longest > Duration::ZERO && longest <= Duration::from_millis(50));
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(reader.get_ref().inner.sent.len() > 90_000);
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let r = roundtrip(
            "POST /v1/jobs?wait=true HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/jobs");
        assert!(r.query_flag("wait"));
        assert!(!r.query_flag("nope"));
        assert_eq!(r.body_text().unwrap(), "{\"a\":1}");
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(roundtrip("\r\n").is_err());
        assert!(roundtrip("GET\r\n\r\n").is_err());
        assert!(roundtrip("GET / HTTP/1.1\r\nContent-Length: zap\r\n\r\n").is_err());
    }

    #[test]
    fn oversized_request_line_is_a_typed_400_not_a_hang() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES + 10));
        let err = roundtrip(&raw).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn oversized_header_block_is_a_typed_400() {
        let raw = format!(
            "GET / HTTP/1.1\r\nx-big: {}\r\n\r\n",
            "b".repeat(MAX_HEAD_BYTES)
        );
        let err = roundtrip(&raw).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
    }

    #[test]
    fn oversized_declared_body_is_a_typed_413() {
        let raw = format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = roundtrip(&raw).unwrap_err();
        assert!(matches!(err, ServeError::PayloadTooLarge { .. }), "{err}");
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn truncated_head_is_a_typed_400() {
        // Connection closes before the blank line that ends the head.
        let err = roundtrip("GET / HTTP/1.1\r\nHost: x\r\n").unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
    }

    #[test]
    fn extra_headers_ride_the_response() {
        let mut out = Vec::new();
        write_response_with_headers(
            &mut out,
            429,
            "application/json",
            &[("Retry-After", "2".to_string())],
            b"{}",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(reason(413) == "Payload Too Large");
    }

    #[test]
    fn response_bytes_are_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, 202, "application/json", b"{\"id\":1}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"), "{text}");
        assert!(text.contains("Content-Length: 8\r\n"));
        assert!(text.ends_with("{\"id\":1}"));
        let mut sse = Vec::new();
        write_sse_header(&mut sse).unwrap();
        write_sse_frame(&mut sse, "{}").unwrap();
        let sse = String::from_utf8(sse).unwrap();
        assert!(sse.contains("text/event-stream"));
        assert!(sse.ends_with("data: {}\n\n"));
    }
}

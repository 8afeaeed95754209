//! A hand-rolled HTTP/1.1 request parser and response writer.
//!
//! The build environment has no crates.io, so — like the in-workspace
//! `rand`/`proptest` shims — the serving layer carries its own
//! HTTP implementation: exactly the slice the Scout endpoints need
//! (request line + headers + `Content-Length` bodies, keep-alive), with
//! hard limits on every dimension an untrusted peer controls.
//!
//! The parser is **total**: any byte stream yields either a parsed
//! [`Request`], a clean end-of-stream (`Ok(None)`), or an [`HttpError`]
//! carrying a 4xx status — never a panic. `tests/http_proptest.rs` drives
//! arbitrary and adversarially-truncated byte streams through it to hold
//! that line.

use std::io::{BufRead, Write};

/// Maximum bytes of request line + headers (the "head").
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Maximum number of header fields.
pub const MAX_HEADERS: usize = 64;
/// Maximum request body size.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (always starts with `/`).
    pub path: String,
    /// Header fields in arrival order, names as sent.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (`Content-Length` framed; chunked is rejected).
    pub body: Vec<u8>,
}

impl Request {
    /// First header named `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Should the connection stay open after this exchange?
    /// HTTP/1.1 semantics: keep-alive unless `Connection: close`.
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(c) if c.eq_ignore_ascii_case("close"))
    }

    /// The body as UTF-8, or a 400 error.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::new(400, "request body is not valid UTF-8"))
    }
}

/// A request-level protocol error; `status` is always 4xx and the message
/// is safe to echo back to the peer.
#[derive(Debug, Clone)]
pub struct HttpError {
    /// The response status to send (4xx).
    pub status: u16,
    /// Human-readable cause.
    pub message: String,
}

impl HttpError {
    /// A new error with the given status and message.
    pub fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

/// Read one request from `r`.
///
/// * `Ok(Some(req))` — a complete request.
/// * `Ok(None)` — the stream ended cleanly before any request byte
///   (the peer closed an idle keep-alive connection).
/// * `Err(e)` — a malformed or over-limit request; `e.status` is the 4xx
///   to answer with before closing.
pub fn read_request(r: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    // Accumulate the head byte-by-byte (the reader is buffered) until the
    // blank-line terminator; tolerate bare-LF line endings.
    let mut head: Vec<u8> = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if head.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::new(400, "connection closed mid-request"));
            }
            Ok(_) => head.push(byte[0]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                if head.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::new(400, "read error mid-request"));
            }
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::new(431, "request head too large"));
        }
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
            break;
        }
    }
    let head = std::str::from_utf8(&head)
        .map_err(|_| HttpError::new(400, "request head is not valid UTF-8"))?;
    let mut lines = head.lines();

    // Request line; tolerate leading blank lines (RFC 7230 robustness).
    let request_line = loop {
        match lines.next() {
            None => return Err(HttpError::new(400, "empty request")),
            Some("") => continue,
            Some(l) => break l,
        }
    };
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "malformed request line"))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "malformed request line"))?;
    if parts.next().is_some() {
        return Err(HttpError::new(400, "malformed request line"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::new(400, "bad method token"));
    }
    if !path.starts_with('/') {
        return Err(HttpError::new(400, "request target must be absolute"));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(505, "only HTTP/1.x is supported"));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the terminator's blank line
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| HttpError::new(400, "malformed header line"))?;
        let k = k.trim();
        if k.is_empty() || !k.bytes().all(|b| b.is_ascii_graphic()) {
            return Err(HttpError::new(400, "malformed header name"));
        }
        headers.push((k.to_string(), v.trim().to_string()));
        if headers.len() > MAX_HEADERS {
            return Err(HttpError::new(431, "too many headers"));
        }
    }

    let req = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::new(501, "chunked bodies are not supported"));
    }
    let len = match req.header("content-length") {
        None => 0usize,
        Some(v) => v
            .trim()
            .parse::<usize>()
            .map_err(|_| HttpError::new(400, "bad content-length"))?,
    };
    if len > MAX_BODY_BYTES {
        return Err(HttpError::new(413, "request body too large"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)
        .map_err(|_| HttpError::new(400, "truncated request body"))?;
    Ok(Some(Request { body, ..req }))
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (e.g. `Retry-After`).
    pub extra_headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// The standard rendering of an [`HttpError`].
    pub fn from_error(e: &HttpError) -> Response {
        let body = obs::json::Obj::new()
            .str("error", &e.message)
            .uint("status", u64::from(e.status))
            .finish();
        Response::json(e.status, body)
    }

    /// Add a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    /// Serialize to the wire. Head and body go out in a single write so
    /// the response is one TCP segment whenever it fits (Nagle + delayed
    /// ACK punish split writes with tens of milliseconds of stall).
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut frame = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )
        .into_bytes();
        for (k, v) in &self.extra_headers {
            frame.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
        }
        frame.extend_from_slice(b"\r\n");
        frame.extend_from_slice(&self.body);
        w.write_all(&frame)?;
        w.flush()
    }
}

/// The reason phrase for a status code.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut Cursor::new(bytes.to_vec()))
    }

    #[test]
    fn parses_a_get() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /v1/route HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.body_str().unwrap(), "abcd");
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let req = parse(b"GET / HTTP/1.1\nHost: x\n\n").unwrap().unwrap();
        assert_eq!(req.header("Host"), Some("x"));
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn truncated_head_is_400() {
        assert_eq!(parse(b"GET / HTTP/1.1\r\nHos").unwrap_err().status, 400);
    }

    #[test]
    fn truncated_body_is_400() {
        let e = parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert_eq!(e.status, 400);
    }

    #[test]
    fn oversized_head_is_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        assert_eq!(parse(&raw).unwrap_err().status, 431);
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            raw.push_str(&format!("h{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert_eq!(parse(raw.as_bytes()).unwrap_err().status, 431);
    }

    #[test]
    fn giant_content_length_is_413() {
        let e = parse(b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n").unwrap_err();
        assert_eq!(e.status, 413);
    }

    #[test]
    fn bad_content_length_is_400() {
        let e = parse(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n").unwrap_err();
        assert_eq!(e.status, 400);
    }

    #[test]
    fn chunked_is_501() {
        let e = parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(e.status, 501);
    }

    #[test]
    fn response_round_trips_through_parser_shape() {
        let mut out = Vec::new();
        Response::json(200, r#"{"ok":true}"#)
            .with_header("Retry-After", "1")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n{\"ok\":true}"));
    }
}

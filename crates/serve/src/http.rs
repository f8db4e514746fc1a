//! A hand-rolled HTTP/1.1 subset: exactly what the service needs.
//!
//! One request per connection (`Connection: close` on every response), a
//! hard cap on header and body bytes, and no chunked encoding — clients
//! send `Content-Length` or nothing. The reader never trusts the peer:
//! oversized heads and bodies fail with a typed error the server maps to
//! `431` / `413`, and a whole request must arrive within
//! [`REQUEST_BUDGET`]: a half-open socket or a peer that trickles its bytes
//! runs out of budget instead of holding a connection handler.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// The time one request may take to arrive, head and body together.
pub const REQUEST_BUDGET: Duration = Duration::from_secs(10);

/// Bytes asked of the socket per read while looking for the end of the
/// head; whatever arrives past the head is the start of the body.
const HEAD_CHUNK: usize = 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target, e.g. `/v1/query`.
    pub target: String,
    /// The body, when a `Content-Length` was sent.
    pub body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Malformed request line or header framing → `400`.
    Malformed(String),
    /// Head (request line and headers) exceeded 16 KiB → `431`.
    HeadTooLarge,
    /// Body exceeded the server's byte cap → `413`.
    BodyTooLarge,
    /// Socket error or EOF mid-request (no response possible).
    Io(io::Error),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// A reader over a socket that fails once its deadline has passed,
/// however the peer spaces its bytes: each read waits at most for what is
/// left of the budget.
pub(crate) struct Budgeted<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
}

impl<'a> Budgeted<'a> {
    /// Reads off `stream` for at most `budget` from now.
    pub(crate) fn new(stream: &'a mut TcpStream, budget: Duration) -> Budgeted<'a> {
        Budgeted {
            stream,
            deadline: Instant::now() + budget,
        }
    }
}

impl Read for Budgeted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request budget spent",
            ));
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads one request off the stream within [`REQUEST_BUDGET`].
///
/// # Errors
/// See [`ReadError`]; the caller maps each variant to a status code.
pub fn read_request(stream: &mut TcpStream, max_body_bytes: usize) -> Result<Request, ReadError> {
    read_request_within(stream, max_body_bytes, REQUEST_BUDGET)
}

/// [`read_request`] with the whole request's time budget as a parameter.
pub(crate) fn read_request_within(
    stream: &mut TcpStream,
    max_body_bytes: usize,
    budget: Duration,
) -> Result<Request, ReadError> {
    let mut reader = Budgeted::new(stream, budget);
    let mut buf = Vec::with_capacity(HEAD_CHUNK);
    let mut chunk = [0u8; HEAD_CHUNK];
    let head_len = loop {
        // The blank line may straddle two reads.
        let from = buf.len().saturating_sub(3);
        let n = reader.read(&mut chunk)?;
        if n == 0 {
            return Err(ReadError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-head",
            )));
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(at) = buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + at + 4;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(ReadError::HeadTooLarge);
        }
    };
    if head_len > MAX_HEAD_BYTES {
        return Err(ReadError::HeadTooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| ReadError::Malformed("request head is not UTF-8".into()))?;

    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ReadError::Malformed("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing request target".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!(
            "unsupported version `{version}`"
        )));
    }

    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed(format!("malformed header `{line}`")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| ReadError::Malformed("bad Content-Length".into()))?;
        }
    }
    if content_length > max_body_bytes {
        return Err(ReadError::BodyTooLarge);
    }

    // Bytes past the declared length belong to no request of this
    // connection (one request per connection).
    let mut body = buf.split_off(head_len);
    body.truncate(content_length);
    let have = body.len();
    body.resize(content_length, 0);
    reader.read_exact(&mut body[have..])?;
    Ok(Request {
        method,
        target,
        body,
    })
}

/// The reason phrase for each status the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// One response, written with `Connection: close` and a `Content-Length`.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra `(name, value)` headers, e.g. `Retry-After`.
    pub headers: Vec<(&'static str, String)>,
    /// The body bytes.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response (the metrics exposition).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds one header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// Writes the response; errors are ignored by callers (the peer may
    /// already be gone, which is its problem, not the server's).
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn write(&self, stream: &mut TcpStream) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    fn round_trip(raw: &[u8], max_body: usize) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let got = read_request(&mut stream, max_body);
        client.join().unwrap();
        got
    }

    #[test]
    fn reads_a_post_with_body() {
        let req = round_trip(
            b"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"\":1}",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/query");
        assert_eq!(req.body, b"{\"\":");
    }

    #[test]
    fn reads_a_bodyless_get() {
        let req = round_trip(b"GET /health HTTP/1.1\r\n\r\n", 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/health");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_bodies_and_garbage() {
        assert!(matches!(
            round_trip(b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n", 10),
            Err(ReadError::BodyTooLarge)
        ));
        assert!(matches!(
            round_trip(b"NOT-HTTP\r\n\r\n", 10),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            round_trip(b"GET / SMTP/3\r\n\r\n", 10),
            Err(ReadError::Malformed(_))
        ));
        // A head of exactly the cap parses; one byte more is 431.
        let padded = |len: usize| {
            let mut raw = b"GET / HTTP/1.1\r\nX: ".to_vec();
            raw.resize(len - 4, b'a');
            raw.extend_from_slice(b"\r\n\r\n");
            raw
        };
        assert!(round_trip(&padded(MAX_HEAD_BYTES), 10).is_ok());
        assert!(matches!(
            round_trip(&padded(MAX_HEAD_BYTES + 1), 10),
            Err(ReadError::HeadTooLarge)
        ));
    }

    #[test]
    fn a_head_split_over_many_small_writes_parses_the_same() {
        let raw = b"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n{\"seed\": 7}";
        let whole = round_trip(raw, 1024).unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            // Three bytes at a time, so the blank line straddles reads.
            for piece in raw.chunks(3) {
                s.write_all(piece).unwrap();
                thread::sleep(Duration::from_millis(1));
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let split = read_request(&mut stream, 1024).unwrap();
        client.join().unwrap();
        assert_eq!(
            (split.method, split.target, split.body),
            (whole.method, whole.target, whole.body)
        );
    }

    #[test]
    fn a_head_and_body_in_one_write_keep_the_body() {
        // Longer than one head read, so the body arrives partly with the
        // head and partly after it.
        let body: Vec<u8> = (0..3 * HEAD_CHUNK).map(|i| b'a' + (i % 26) as u8).collect();
        let mut raw = format!(
            "POST /v1/query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(&body);
        let req = round_trip(&raw, body.len()).unwrap();
        assert_eq!(req.body, body);
    }

    #[test]
    fn a_stalled_peer_runs_out_of_budget() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // One byte every 20 ms: no single read waits long, but the whole
        // head never arrives.
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            for _ in 0..100 {
                if s.write_all(b"G").is_err() {
                    break;
                }
                thread::sleep(Duration::from_millis(20));
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let begun = Instant::now();
        let got = read_request_within(&mut stream, 1024, Duration::from_millis(200));
        let took = begun.elapsed();
        drop(stream);
        client.join().unwrap();
        assert!(matches!(got, Err(ReadError::Io(_))), "{got:?}");
        assert!(
            took >= Duration::from_millis(200) && took < Duration::from_secs(1),
            "the budget bounds the whole request: {took:?}"
        );
    }

    #[test]
    fn response_bytes_are_exact() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            Response::json(503, "{\"error\":\"shed\"}")
                .with_header("Retry-After", "1")
                .write(&mut stream)
                .unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut got = String::new();
        stream.read_to_string(&mut got).unwrap();
        server.join().unwrap();
        assert_eq!(
            got,
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 16\r\nConnection: close\r\nRetry-After: 1\r\n\r\n{\"error\":\"shed\"}"
        );
    }
}

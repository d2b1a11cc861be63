//! HTTP/1.1 client side, for the gates, the CI smoke and the tests that
//! talk to a server over TCP.
//!
//! One copy of the client framing: [`frame`] serializes a request,
//! [`read_response`] reads exactly one `Content-Length`-framed response
//! (keeping over-read bytes for the next pipelined one), [`exchange`] is
//! a one-shot round trip, [`scrape_metrics`] reads `/metrics` and refuses
//! anything but a `200`, and [`spawn_server`] starts a `privim-serve` process
//! and reads its port banner. Header parsing reuses the server's own
//! [`crate::http`] helpers.
//!
//! Tests that deliberately send malformed or partial bytes write them
//! raw and use this module only to read the answer.

use crate::http::{find_head_end, parse_content_length};
use std::ffi::OsStr;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Read timeout on [`exchange`] connections.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(30);

/// One response read off the wire.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Status line and header fields, without the blank line that ends
    /// them.
    pub head: String,
    /// Exactly `Content-Length` bytes of body.
    pub body: String,
}

/// Serialize one request. `headers` go between `Host` and
/// `Content-Length`; `close` adds `Connection: close` (HTTP/1.1 persists
/// without it).
pub fn frame(
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
    close: bool,
) -> Vec<u8> {
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\n");
    if close {
        raw.push_str("Connection: close\r\n");
    }
    for (name, value) in headers {
        raw.push_str(&format!("{name}: {value}\r\n"));
    }
    raw.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    raw.into_bytes()
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Append one `read` worth of bytes to `carry`; EOF is an error, since
/// the caller still needs bytes to finish a response.
fn fill<R: Read>(r: &mut R, carry: &mut Vec<u8>, chunk: &mut [u8], what: &str) -> io::Result<()> {
    loop {
        match r.read(chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("EOF mid-{what}"),
                ))
            }
            Ok(n) => {
                carry.extend_from_slice(&chunk[..n]);
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Read exactly one `Content-Length`-framed response. `carry` holds bytes
/// read past the previous frame (pipelined responses coalesce on the
/// wire): pass the same buffer across calls on one connection, and the
/// bytes past this response stay in it. EOF before the frame completes,
/// a malformed status line and a missing or malformed `Content-Length`
/// are errors.
pub fn read_response<R: Read>(r: &mut R, carry: &mut Vec<u8>) -> io::Result<Response> {
    let mut chunk = [0u8; 8192];
    let head_len = loop {
        if let Some(n) = find_head_end(carry) {
            break n;
        }
        fill(r, carry, &mut chunk, "head")?;
    };
    let head = std::str::from_utf8(&carry[..head_len - 4])
        .map_err(|_| invalid("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .strip_prefix("HTTP/1.")
        .and_then(|rest| rest.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid(format!("malformed status line {status_line:?}")))?;
    let body_len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .ok_or_else(|| invalid("response has no Content-Length"))
        .and_then(|(_, v)| parse_content_length(v.trim()).map_err(|e| invalid(e.message)))?;
    let head = head.to_string();
    while carry.len() < head_len + body_len {
        fill(r, carry, &mut chunk, "body")?;
    }
    let body = String::from_utf8(carry[head_len..head_len + body_len].to_vec())
        .map_err(|_| invalid("response body is not UTF-8"))?;
    carry.drain(..head_len + body_len);
    Ok(Response { status, head, body })
}

/// One-shot exchange with a server on `127.0.0.1:port`: connect, send one
/// `Connection: close` request, read its response.
pub fn exchange(
    port: u16,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> io::Result<Response> {
    let mut stream = TcpStream::connect(("127.0.0.1", port))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(EXCHANGE_TIMEOUT))?;
    stream.write_all(&frame(method, path, headers, body, true))?;
    read_response(&mut stream, &mut Vec::new())
}

/// `GET /metrics`: the exposition text, or an error on an I/O failure or
/// any status but `200` — a gate must never read a failed scrape as a
/// page of zeros.
pub fn scrape_metrics(port: u16) -> io::Result<String> {
    let r = exchange(port, "GET", "/metrics", &[], "")?;
    if r.status != 200 {
        return Err(io::Error::other(format!("/metrics answered {}", r.status)));
    }
    Ok(r.body)
}

/// Start `bin` with `args` (stdout piped) and block until it prints its
/// `serving on port N` banner. Lines before the banner are echoed; a
/// thread drains stdout afterwards so the server never blocks on a full
/// pipe. The child is killed if it exits or prints a bad banner first.
pub fn spawn_server<I, S>(bin: impl AsRef<OsStr>, args: I) -> io::Result<(Child, u16)>
where
    I: IntoIterator<Item = S>,
    S: AsRef<OsStr>,
{
    let bin = bin.as_ref();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| {
            io::Error::new(e.kind(), format!("spawning {}: {e}", bin.to_string_lossy()))
        })?;
    let banner = match child.stdout.take() {
        Some(stdout) => read_banner(BufReader::new(stdout)),
        None => Err(io::Error::other("server stdout was not piped")),
    };
    match banner {
        Ok(port) => Ok((child, port)),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(e)
        }
    }
}

fn read_banner<R: Read + Send + 'static>(mut reader: BufReader<R>) -> io::Result<u16> {
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server exited before printing its port banner",
            ));
        }
        print!("  server: {line}");
        if let Some(rest) = line.strip_prefix("serving on port ") {
            let port = rest
                .split_whitespace()
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| invalid(format!("unparseable banner {line:?}")))?;
            std::thread::spawn(move || io::copy(&mut reader, &mut io::sink()));
            return Ok(port);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out its bytes `step` at a time, like a socket that delivers
    /// a response in pieces.
    struct Dribble<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn ok(body: &str) -> Vec<u8> {
        crate::http::response_frame(200, "application/json", &[], body.as_bytes(), true)
    }

    #[test]
    fn frame_carries_method_headers_and_length() {
        let raw = frame(
            "POST",
            "/v1/embed",
            &[("X-Privim-Tenant", "acme")],
            "{}",
            true,
        );
        let parsed = crate::http::parse_one(&raw)
            .unwrap()
            .expect("complete request");
        assert_eq!(parsed.request.method, "POST");
        assert_eq!(parsed.request.path, "/v1/embed");
        assert_eq!(parsed.request.header("x-privim-tenant"), Some("acme"));
        assert_eq!(parsed.request.body, b"{}");
        assert_eq!(parsed.consumed, raw.len());
        assert!(!parsed.keep_alive);
        assert!(
            crate::http::parse_one(&frame("GET", "/healthz", &[], "", false))
                .unwrap()
                .expect("complete request")
                .keep_alive
        );
    }

    #[test]
    fn two_pipelined_responses_in_one_chunk_read_in_order() {
        let mut wire = ok("{\"a\":1}");
        wire.extend_from_slice(&crate::http::response_frame(
            503,
            "text/plain",
            &[("Retry-After", "5".to_string())],
            b"shed",
            false,
        ));
        let mut r = Dribble {
            bytes: &wire,
            step: wire.len(),
        };
        let mut carry = Vec::new();
        let first = read_response(&mut r, &mut carry).unwrap();
        assert_eq!((first.status, first.body.as_str()), (200, "{\"a\":1}"));
        assert!(
            first.head.contains("Connection: keep-alive"),
            "{}",
            first.head
        );
        assert!(
            !carry.is_empty(),
            "the second response was read in the same chunk"
        );
        let second = read_response(&mut r, &mut carry).unwrap();
        assert_eq!((second.status, second.body.as_str()), (503, "shed"));
        assert!(second.head.contains("Retry-After: 5"), "{}", second.head);
        assert!(carry.is_empty());
    }

    #[test]
    fn response_delivered_one_byte_per_read() {
        let wire = ok("{\"scores\":[]}");
        let mut r = Dribble {
            bytes: &wire,
            step: 1,
        };
        let mut carry = Vec::new();
        let got = read_response(&mut r, &mut carry).unwrap();
        assert_eq!((got.status, got.body.as_str()), (200, "{\"scores\":[]}"));
        assert!(carry.is_empty(), "nothing may be read past the frame");
    }

    #[test]
    fn eof_mid_head_or_mid_body_is_an_error() {
        let wire = ok("{\"scores\":[]}");
        let head_len = find_head_end(&wire).unwrap();
        for cut in [0, head_len / 2, head_len - 1, head_len, wire.len() - 1] {
            let mut r = Dribble {
                bytes: &wire[..cut],
                step: 3,
            };
            let err = read_response(&mut r, &mut Vec::new()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn missing_or_malformed_content_length_is_an_error() {
        for head in [
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nbody",
            "HTTP/1.1 200 OK\r\nContent-Length: -4\r\n\r\nbody",
            "HTTP/1.1 200 OK\r\nContent-Length: 0x4\r\n\r\nbody",
            "HTTP/1.1 200 OK\r\nContent-Length:\r\n\r\nbody",
            "nonsense\r\nContent-Length: 4\r\n\r\nbody",
            "HTTP/1.1 abc OK\r\nContent-Length: 4\r\n\r\nbody",
        ] {
            let mut r = Dribble {
                bytes: head.as_bytes(),
                step: 64,
            };
            let err = read_response(&mut r, &mut Vec::new()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{head:?}");
        }
    }

    #[test]
    fn scraping_a_non_200_is_an_error() {
        // A one-connection server that answers anything with a 503.
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 1024];
            while crate::http::parse_one(&buf).unwrap().is_none() {
                let n = s.read(&mut chunk).unwrap();
                buf.extend_from_slice(&chunk[..n]);
            }
            let frame = crate::http::response_frame(503, "text/plain", &[], b"draining", false);
            s.write_all(&frame).unwrap();
        });
        let err = scrape_metrics(port).unwrap_err();
        assert!(err.to_string().contains("503"), "{err}");
        server.join().unwrap();
    }
}

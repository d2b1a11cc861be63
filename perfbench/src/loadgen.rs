//! Open-loop HTTP/1.1 load generator: one thread per keep-alive
//! connection, at most two of each.
//!
//! Every request has a fixed send time (`due`, an offset from the run's
//! start). A connection's thread writes each request at its due time
//! whether or not earlier responses have arrived, and reads whatever
//! responses are ready in between. Sockets are non-blocking; the thread
//! sleeps in `ppoll` until the next due time or until the socket becomes
//! readable, whichever is first.
//!
//! Latency runs from the *scheduled* send time to the moment the whole
//! response has been read. A server stall therefore shows up as
//! lateness on every request scheduled behind it, instead of silently
//! slowing the arrival rate (coordinated omission).
//!
//! HTTP/1.1 answers pipelined requests in order, so a request's latency
//! includes any time its response waits behind earlier responses on the
//! same connection. Workloads that mix slow and fast requests put them on
//! different connections.

use crate::stats::percentile;
use crate::sys;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// One scheduled request.
pub struct Scheduled {
    /// Send time, as an offset from the start of the run.
    pub due: Duration,
    /// The complete request frame.
    pub bytes: Vec<u8>,
    /// Caller's id for the request (its index in the workload's stream).
    pub tag: usize,
}

/// What came back for one request.
pub struct Outcome {
    /// The request's [`Scheduled::tag`].
    pub tag: usize,
    /// From scheduled send time to the last byte of the response.
    pub latency: Duration,
    /// HTTP status, or 0 when the connection failed or the response did
    /// not arrive before the drain deadline.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

/// Result of one load run.
pub struct LoadReport {
    /// One outcome per scheduled request, in no particular order.
    pub outcomes: Vec<Outcome>,
    /// Largest delay between a request's due time and its write.
    pub sched_lag_max: Duration,
    /// 99th percentile (nearest rank) of the same delay.
    pub sched_lag_p99: Duration,
    /// CPU time this process used during the run.
    pub client_cpu: Duration,
}

/// Drive `conns.len()` (≤ 2) keep-alive connections to `127.0.0.1:port`,
/// each with its own schedule. After the last due time each connection
/// waits up to `drain` for outstanding responses.
pub fn run(port: u16, conns: Vec<Vec<Scheduled>>, drain: Duration) -> LoadReport {
    assert!(
        conns.len() <= 2,
        "the load generator uses at most two connections"
    );
    let cpu0 = sys::process_cpu(None);
    // A short lead so every connection is open before the first due time.
    let t0 = Instant::now() + Duration::from_millis(20);
    let results: Vec<(Vec<Outcome>, Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|reqs| s.spawn(move || drive(port, t0, reqs, drain)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let cpu1 = sys::process_cpu(None);
    let (mut outcomes, mut lags) = (Vec::new(), Vec::new());
    for (o, l) in results {
        outcomes.extend(o);
        lags.extend(l);
    }
    lags.sort_by(f64::total_cmp);
    let lag_at = |p: f64| {
        if lags.is_empty() {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(percentile(&lags, p))
        }
    };
    LoadReport {
        outcomes,
        sched_lag_max: lag_at(100.0),
        sched_lag_p99: lag_at(99.0),
        client_cpu: match (cpu0, cpu1) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => Duration::ZERO,
        },
    }
}

fn since(t0: Instant) -> Duration {
    Instant::now().saturating_duration_since(t0)
}

/// One connection's event loop; returns its outcomes and each request's
/// lag (seconds from due time to write).
fn drive(
    port: u16,
    t0: Instant,
    reqs: Vec<Scheduled>,
    drain: Duration,
) -> (Vec<Outcome>, Vec<f64>) {
    let mut outcomes = Vec::with_capacity(reqs.len());
    let fail = |tag: usize, due: Duration, outcomes: &mut Vec<Outcome>| {
        outcomes.push(Outcome {
            tag,
            latency: since(t0).saturating_sub(due),
            status: 0,
            body: Vec::new(),
        });
    };
    let stream = TcpStream::connect(("127.0.0.1", port)).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
        Ok(s)
    });
    let Ok(mut stream) = stream else {
        for r in &reqs {
            fail(r.tag, r.due, &mut outcomes);
        }
        return (outcomes, Vec::new());
    };
    let fd = stream.as_raw_fd();
    let deadline = reqs.last().map_or(Duration::ZERO, |r| r.due) + drain;

    let mut out: Vec<u8> = Vec::new();
    let mut inbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut outstanding: VecDeque<(usize, Duration)> = VecDeque::new();
    let mut next = 0usize;
    let mut lags = Vec::with_capacity(reqs.len());
    let mut broken = false;

    loop {
        let now = since(t0);
        while next < reqs.len() && reqs[next].due <= now {
            let r = &reqs[next];
            out.extend_from_slice(&r.bytes);
            outstanding.push_back((r.tag, r.due));
            lags.push((now - r.due).as_secs_f64());
            next += 1;
        }
        if !out.is_empty() {
            match stream.write(&out) {
                Ok(n) => {
                    out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => broken = true,
            }
        }
        while !broken {
            match stream.read(&mut chunk) {
                Ok(0) => broken = true,
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => broken = true,
            }
        }
        let recv = since(t0);
        while let Some((status, body, used)) = parse_response(&inbuf) {
            let Some((tag, due)) = outstanding.pop_front() else {
                broken = true; // a response nobody asked for
                break;
            };
            outcomes.push(Outcome {
                tag,
                latency: recv.saturating_sub(due),
                status,
                body: body.to_vec(),
            });
            inbuf.drain(..used);
        }
        let done = next == reqs.len() && outstanding.is_empty();
        if done || broken || recv >= deadline {
            break;
        }
        let wake = if next < reqs.len() {
            reqs[next].due
        } else {
            deadline
        };
        let timeout = wake.saturating_sub(since(t0));
        if !timeout.is_zero() {
            sys::wait(fd, !out.is_empty(), timeout);
        }
    }
    for (tag, due) in outstanding {
        fail(tag, due, &mut outcomes);
    }
    for r in &reqs[next..] {
        fail(r.tag, r.due, &mut outcomes);
    }
    (outcomes, lags)
}

/// Parse one complete `Content-Length`-framed response from the front of
/// `buf`: `(status, body, bytes consumed)`, or `None` if incomplete.
pub fn parse_response(buf: &[u8]) -> Option<(u16, &[u8], usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.split_ascii_whitespace().nth(1)?.parse().ok()?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let end = head_end + len;
    (buf.len() >= end).then(|| (status, &buf[head_end..end], end))
}

/// A request frame for a kept-alive connection.
pub fn frame(method: &str, path: &str, headers: &[(&str, &str)], body: &str) -> Vec<u8> {
    let mut s = format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\n");
    for (k, v) in headers {
        s.push_str(&format!("{k}: {v}\r\n"));
    }
    s.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    s.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_pipelined_responses() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 503 X\r\ncontent-length: 0\r\n\r\n";
        let (s, b, used) = parse_response(two).expect("first");
        assert_eq!((s, b), (200, &b"ok"[..]));
        let (s, b, _) = parse_response(&two[used..]).expect("second");
        assert_eq!((s, b.len()), (503, 0));
        assert!(parse_response(&two[..used - 1]).is_none());
    }

    /// A stub server that answers every request at once, except the
    /// `stall_at`-th, which it holds for `stall` before answering (and
    /// before reading anything further).
    fn stub_server(stall_at: usize, stall: Duration) -> (u16, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let port = listener.local_addr().expect("addr").port();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut served = 0usize;
            loop {
                while let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    buf.drain(..p + 4);
                    if served == stall_at {
                        std::thread::sleep(stall);
                    }
                    served += 1;
                    let _ = s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
                }
                match s.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
            }
        });
        (port, h)
    }

    #[test]
    fn stall_shows_as_lateness_behind_it() {
        let gap = Duration::from_millis(2);
        let stall = Duration::from_millis(100);
        let (port, h) = stub_server(20, stall);
        let reqs: Vec<Scheduled> = (0..150)
            .map(|i| Scheduled {
                due: gap * i as u32,
                bytes: frame("GET", "/x", &[], ""),
                tag: i,
            })
            .collect();
        let mut report = run(port, vec![reqs], Duration::from_secs(5));
        h.join().expect("stub");
        report.outcomes.sort_by_key(|o| o.tag);
        assert_eq!(report.outcomes.len(), 150);
        assert!(report.outcomes.iter().all(|o| o.status == 200));
        let lat = |i: usize| report.outcomes[i].latency;
        // The stalled request waits out the whole stall...
        assert!(
            lat(20) >= Duration::from_millis(95),
            "stalled: {:?}",
            lat(20)
        );
        // ...and a request scheduled 40 ms later is still ~60 ms late,
        // although the server answered it instantly once it got to it.
        assert!(
            lat(40) >= Duration::from_millis(55),
            "behind: {:?}",
            lat(40)
        );
        // Well after the stall the server keeps up again.
        assert!(
            lat(140) < Duration::from_millis(50),
            "after: {:?}",
            lat(140)
        );
        // Writes kept to the schedule while responses were held back: the
        // client's own lag is far below the stall.
        assert!(
            report.sched_lag_max < Duration::from_millis(30),
            "lag {:?}",
            report.sched_lag_max
        );
    }

    #[test]
    fn refused_connection_fails_every_request() {
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").port()
        };
        let reqs = vec![Scheduled {
            due: Duration::ZERO,
            bytes: frame("GET", "/", &[], ""),
            tag: 7,
        }];
        let report = run(port, vec![reqs], Duration::from_millis(100));
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!((report.outcomes[0].tag, report.outcomes[0].status), (7, 0));
    }
}

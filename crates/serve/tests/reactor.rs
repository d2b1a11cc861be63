//! Reactor front-end integration tests over real TCP: keep-alive reuse,
//! pipelined in-order responses, byte-identity with checked-in golden
//! responses, slowloris/idle reaping, queue-full and deadline shedding,
//! and drain-during-keep-alive.
//!
//! These tests read with the framed `client::read_response` (exactly
//! `Content-Length` body bytes) rather than read-to-EOF, because the
//! whole point of keep-alive is that the connection stays open.

mod common;

use privim_serve::client::{frame, read_response, Response};
use privim_serve::{metrics, start, ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn reactor_server(seed: u64, cfg: ServeConfig) -> ServerHandle {
    start(common::test_bundle(seed, 120, None).0, cfg).unwrap()
}

/// A deliberately slow request: an uncached Monte-Carlo spread estimate
/// at the maximum run count keeps a worker busy for a long stretch.
fn slow_influence(close: bool) -> Vec<u8> {
    frame(
        "POST",
        "/v1/influence",
        &[],
        "{\"seeds\": [0, 1], \"runs\": 100000}",
        close,
    )
}

#[test]
fn keepalive_connection_serves_many_requests() {
    let handle = reactor_server(11, ServeConfig::default());
    let port = handle.port();
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();

    let reuse = 8;
    let mut carry = Vec::new();
    let mut bodies = Vec::new();
    for i in 0..reuse {
        stream
            .write_all(&frame(
                "POST",
                "/v1/embed",
                &[],
                &format!("{{\"nodes\": [{i}]}}"),
                false,
            ))
            .unwrap();
        let Response { status, head, body } = read_response(&mut stream, &mut carry).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(
            head.contains("Connection: keep-alive"),
            "persistent response expected: {head}"
        );
        bodies.push(body);
    }
    // All requests traveled one connection: reuse-1 reuses, 1 conn open.
    let text = handle.metrics_text();
    assert_eq!(
        metrics::parse_counter(&text, "privim_keepalive_reuses_total"),
        Some(reuse as u64 - 1)
    );
    assert_eq!(metrics::parse_counter(&text, "privim_open_connections"), Some(1));
    assert_eq!(metrics::parse_counter(&text, "privim_connections_total"), Some(1));

    // A Connection: close request ends the session after its response.
    stream
        .write_all(&frame("GET", "/healthz", &[], "", true))
        .unwrap();
    let Response { status, head, .. } = read_response(&mut stream, &mut carry).unwrap();
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "{head}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close after Connection: close");

    handle.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order_with_identical_bodies() {
    let handle = reactor_server(12, ServeConfig::default());
    let port = handle.port();

    // Reference: the same two requests issued sequentially.
    let sequential: Vec<String> = (0..2)
        .map(|i| {
            let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            s.write_all(&frame(
                "POST",
                "/v1/embed",
                &[],
                &format!("{{\"nodes\": [{}, {}]}}", i, i + 10),
                true,
            ))
            .unwrap();
            read_response(&mut s, &mut Vec::new()).unwrap().body
        })
        .collect();

    // Both requests in ONE write; responses must come back in request
    // order with byte-identical bodies.
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut burst = frame("POST", "/v1/embed", &[], "{\"nodes\": [0, 10]}", false);
    burst.extend_from_slice(&frame("POST", "/v1/embed", &[], "{\"nodes\": [1, 11]}", false));
    stream.write_all(&burst).unwrap();
    let mut carry = Vec::new();
    let Response { status: s0, body: b0, .. } = read_response(&mut stream, &mut carry).unwrap();
    let Response { status: s1, body: b1, .. } = read_response(&mut stream, &mut carry).unwrap();
    assert_eq!((s0, s1), (200, 200));
    assert_eq!(b0, sequential[0], "first pipelined response out of order or diverged");
    assert_eq!(b1, sequential[1], "second pipelined response out of order or diverged");

    let text = handle.metrics_text();
    // Every parse round records its depth: two sequential rounds plus at
    // least one for the burst.
    let observed =
        metrics::parse_counter(&text, "privim_pipeline_depth_bucket{le=\"+Inf\"}").unwrap();
    assert!(observed >= 3, "pipeline depth histogram must record parse rounds: {text}");
    handle.shutdown();
}

#[test]
fn headers_split_across_arbitrary_write_boundaries_still_parse() {
    let handle = reactor_server(13, ServeConfig::default());
    let port = handle.port();
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    stream.set_nodelay(true).unwrap();

    // Dribble the request a byte at a time with pauses, forcing the
    // reactor through many partial-parse rounds (the in-memory analog is
    // covered exhaustively in conn.rs unit tests; this pins the real
    // nonblocking-socket path).
    let raw = frame("POST", "/v1/embed", &[], "{\"nodes\": [3]}", true);
    for chunk in raw.chunks(1) {
        stream.write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let Response { status, body, .. } = read_response(&mut stream, &mut Vec::new()).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("scores"), "{body}");
    handle.shutdown();
}

/// The server's raw `Connection: close` responses to a fixed request
/// sequence (bundle seed 14, fresh server), checked in as golden bytes.
/// They pin status lines, header order, framing and payload bytes across
/// every route, error paths included.
const GOLDEN: [(&str, &str, &str, &[u8]); 7] = [
    ("POST", "/v1/embed", "{\"nodes\": [0, 7, 63, 119]}", include_bytes!("golden/1-embed.http")),
    (
        "POST",
        "/v1/influence",
        "{\"seeds\": [9, 3, 40], \"runs\": 16, \"seed\": 5}",
        include_bytes!("golden/2-influence.http"),
    ),
    ("POST", "/v1/seeds", "{\"k\": 4}", include_bytes!("golden/3-seeds.http")),
    ("GET", "/healthz", "", include_bytes!("golden/4-healthz.http")),
    ("POST", "/v1/embed", "{\"nodes\": [999]}", include_bytes!("golden/5-embed-bad-node.http")),
    ("DELETE", "/v1/embed", "", include_bytes!("golden/6-method-not-allowed.http")),
    ("GET", "/nope", "", include_bytes!("golden/7-no-route.http")),
];

#[test]
fn responses_match_golden_bytes() {
    let handle = reactor_server(14, ServeConfig::default());
    for (method, path, body, golden) in GOLDEN {
        let mut s = TcpStream::connect(("127.0.0.1", handle.port())).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        s.write_all(&frame(method, path, &[], body, true)).unwrap();
        let mut got = Vec::new();
        s.read_to_end(&mut got).unwrap();
        assert_eq!(
            got,
            golden,
            "response to {method} {path} diverged from its golden bytes: got {:?}",
            String::from_utf8_lossy(&got)
        );
    }
    handle.shutdown();
}

#[test]
fn pipelined_burst_beyond_max_pipeline_is_fully_served() {
    // A burst deeper than the pipeline cap lands in one write: the
    // requests past the cap sit in the connection's read buffer with the
    // socket already drained, so serving them depends on the reactor
    // re-running the parser when worker completions free slots — no
    // readable event will ever fire for them.
    let cap = 4usize;
    let n = 3 * cap;
    let handle = reactor_server(
        19,
        ServeConfig {
            max_pipeline: cap,
            ..ServeConfig::default()
        },
    );
    let port = handle.port();

    // Reference bodies from sequential one-shot requests.
    let sequential: Vec<String> = (0..n)
        .map(|i| {
            let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            s.write_all(&frame(
                "POST",
                "/v1/embed",
                &[],
                &format!("{{\"nodes\": [{i}]}}"),
                true,
            ))
            .unwrap();
            read_response(&mut s, &mut Vec::new()).unwrap().body
        })
        .collect();

    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut burst = Vec::new();
    for i in 0..n {
        burst.extend_from_slice(&frame(
            "POST",
            "/v1/embed",
            &[],
            &format!("{{\"nodes\": [{i}]}}"),
            false,
        ));
    }
    stream.write_all(&burst).unwrap();
    let mut carry = Vec::new();
    for (i, expect) in sequential.iter().enumerate() {
        let Response { status, body, .. } = read_response(&mut stream, &mut carry).unwrap();
        assert_eq!(status, 200, "request {i} of the over-cap burst: {body}");
        assert_eq!(&body, expect, "request {i} answered out of order or diverged");
    }
    handle.shutdown();
}

#[test]
fn half_close_after_complete_requests_still_answers_them() {
    // Legal HTTP/1.1: write the requests, shutdown(SHUT_WR), then read.
    let handle = reactor_server(20, ServeConfig::default());
    let port = handle.port();
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut burst = frame("POST", "/v1/embed", &[], "{\"nodes\": [5]}", false);
    burst.extend_from_slice(&frame("GET", "/healthz", &[], "", false));
    stream.write_all(&burst).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    // Whether the FIN lands in the same read batch as the requests is a
    // kernel-level race, so the Connection header may honestly say either
    // close (EOF seen before parse) or keep-alive (EOF seen after); what
    // must hold is that both requests are answered and the connection
    // then closes.
    let mut carry = Vec::new();
    let Response { status: s0, body: b0, .. } = read_response(&mut stream, &mut carry).unwrap();
    assert_eq!(s0, 200, "half-closed request must still be served: {b0}");
    assert!(b0.contains("scores"), "{b0}");
    let Response { status: s1, body: b1, .. } = read_response(&mut stream, &mut carry).unwrap();
    assert_eq!(s1, 200, "{b1}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection must close after the final response");
    handle.shutdown();
}

#[test]
fn half_sent_request_is_reaped_by_the_header_timeout() {
    let handle = reactor_server(
        15,
        ServeConfig {
            header_timeout: Duration::from_millis(300),
            idle_timeout: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    );
    let port = handle.port();

    // A slowloris-style connection: half a request, then silence.
    let mut stalled = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stalled.write_all(b"POST /v1/embed HTTP/1.1\r\nHost: t\r\nContent-Le").unwrap();

    // The server must close it without ever getting a complete request.
    let mut buf = Vec::new();
    stalled.read_to_end(&mut buf).unwrap(); // EOF = server-side close
    assert!(buf.is_empty(), "no response should precede the reap: {buf:?}");
    // The client can see EOF before the reactor has retired the
    // connection from its gauge, so poll the gauge up to a deadline.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut text = handle.metrics_text();
    while metrics::parse_counter(&text, "privim_open_connections") != Some(0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
        text = handle.metrics_text();
    }
    assert!(
        metrics::parse_counter(&text, "privim_header_timeout_closes_total").unwrap() >= 1,
        "reap must be attributed to the header timeout: {text}"
    );
    assert_eq!(metrics::parse_counter(&text, "privim_open_connections"), Some(0));

    // A well-behaved client on the same server is unaffected.
    let mut ok = TcpStream::connect(("127.0.0.1", port)).unwrap();
    ok.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    ok.write_all(&frame("GET", "/healthz", &[], "", true)).unwrap();
    let Response { status, .. } = read_response(&mut ok, &mut Vec::new()).unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn idle_keepalive_connection_is_reaped_by_the_idle_timeout() {
    let handle = reactor_server(
        16,
        ServeConfig {
            idle_timeout: Duration::from_millis(300),
            header_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    );
    let port = handle.port();
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Complete one exchange, then idle: the server must reap the
    // connection once the idle timeout lapses.
    stream.write_all(&frame("GET", "/healthz", &[], "", false)).unwrap();
    let Response { status, head, .. } = read_response(&mut stream, &mut Vec::new()).unwrap();
    assert_eq!(status, 200);
    assert!(head.contains("Connection: keep-alive"), "{head}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap(); // blocks until server closes
    assert!(rest.is_empty());
    let text = handle.metrics_text();
    assert!(
        metrics::parse_counter(&text, "privim_idle_timeout_closes_total").unwrap() >= 1,
        "reap must be attributed to the idle timeout: {text}"
    );
    handle.shutdown();
}

#[test]
fn pipelined_burst_over_queue_cap_sheds_with_503() {
    // One worker + queue cap 1 + a slow first request: it occupies the
    // worker long enough that a pipelined burst must overflow the bounded
    // queue and be shed.
    let handle = reactor_server(
        17,
        ServeConfig {
            workers: 1,
            queue_cap: 1,
            ..ServeConfig::default()
        },
    );
    let port = handle.port();
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();

    let n = 8;
    let mut burst = slow_influence(false);
    for i in 1..n {
        burst.extend_from_slice(&frame(
            "POST",
            "/v1/embed",
            &[],
            &format!("{{\"nodes\": [{i}]}}"),
            false,
        ));
    }
    stream.write_all(&burst).unwrap();

    // Every request gets a response, in order; the overflow ones are 503.
    let mut carry = Vec::new();
    let mut statuses = Vec::new();
    for _ in 0..n {
        statuses.push(read_response(&mut stream, &mut carry).unwrap().status);
    }
    assert_eq!(statuses[0], 200, "the first request was queued, not shed");
    assert!(
        statuses.iter().any(|&s| s == 503),
        "burst of {n} over queue_cap=1 must shed: {statuses:?}"
    );
    // The first queue-full 503 is close-marked, so nothing after it may
    // be a worker-served response — the rest of the batch is shed too.
    let first_shed = statuses.iter().position(|&s| s == 503).unwrap();
    assert!(
        statuses[first_shed..].iter().all(|&s| s == 503),
        "no response may follow a close-marked 503: {statuses:?}"
    );
    let text = handle.metrics_text();
    assert!(metrics::parse_counter(&text, "privim_shed_total").unwrap() >= 1);
    handle.shutdown();
}

#[test]
fn drain_during_keepalive_finishes_in_flight_then_closes() {
    // A slow request keeps the second exchange in flight long enough for
    // the drain to start while the worker still holds it. The spread
    // cache is off so the repeat is computed afresh (and is as slow).
    let handle = reactor_server(
        18,
        ServeConfig {
            cache_cap_per_shard: 0,
            ..ServeConfig::default()
        },
    );
    let port = handle.port();
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();

    // Establish the keep-alive session with one complete exchange.
    stream.write_all(&slow_influence(false)).unwrap();
    let mut carry = Vec::new();
    let Response { status, head, body: first_body } = read_response(&mut stream, &mut carry).unwrap();
    assert_eq!(status, 200);
    assert!(head.contains("Connection: keep-alive"), "{head}");

    // Send the next request and immediately begin the drain: the
    // in-flight request must be answered — with a forced close — and the
    // connection must then end.
    stream.write_all(&slow_influence(false)).unwrap();
    // Let the reactor read + enqueue the request before the drain begins
    // (well inside the time the worker spends computing it).
    std::thread::sleep(Duration::from_millis(60));
    let shutdown = std::thread::spawn(move || handle.shutdown());
    let Response { status, head, body } = read_response(&mut stream, &mut carry).unwrap();
    assert_eq!(status, 200, "in-flight keep-alive request must complete: {body}");
    assert!(
        head.contains("Connection: close"),
        "drain must force close on the final response: {head}"
    );
    assert_eq!(body, first_body, "drain must not change the payload");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(carry.is_empty() && rest.is_empty(), "connection must close after the drained response");
    let drained = shutdown.join().unwrap();
    assert!(drained >= 1, "drained counter must record the in-flight request");
}

#[test]
fn request_queued_past_its_deadline_is_shed() {
    // One worker and a short deadline: a slow request runs first, so the
    // request pipelined behind it waits in the queue longer than the
    // deadline and is refused when a worker finally pops it.
    let handle = reactor_server(
        21,
        ServeConfig {
            workers: 1,
            deadline: Duration::from_millis(60),
            ..ServeConfig::default()
        },
    );
    let mut stream = TcpStream::connect(("127.0.0.1", handle.port())).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut burst = slow_influence(false);
    burst.extend_from_slice(&frame("GET", "/healthz", &[], "", false));
    stream.write_all(&burst).unwrap();

    let mut carry = Vec::new();
    let Response { status: s0, body: b0, .. } = read_response(&mut stream, &mut carry).unwrap();
    assert_eq!(s0, 200, "the slow request was popped in time and served: {b0}");
    let Response { status: s1, head, body: b1 } = read_response(&mut stream, &mut carry).unwrap();
    assert_eq!(s1, 503, "{b1}");
    assert!(b1.contains("shed: deadline exceeded while queued"), "{b1}");
    assert!(head.contains("Connection: close"), "a deadline shed closes: {head}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(carry.is_empty() && rest.is_empty());
    let text = handle.metrics_text();
    assert_eq!(metrics::parse_counter(&text, "privim_shed_total"), Some(1));
    assert_eq!(
        metrics::parse_counter(&text, "privim_requests_total{endpoint=\"healthz\"}"),
        Some(0),
        "a shed request never reaches its handler"
    );
    handle.shutdown();
}

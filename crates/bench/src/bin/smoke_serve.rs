//! `smoke_serve` — the CI serving smoke for a packed bundle.
//!
//! Self-hosts a server in-process on `--bundle`, then over real TCP: one
//! request per endpoint with response assertions, two requests down one
//! kept-alive connection, a `/metrics` check that every request was
//! counted, and a clean-drain check. Panics on any violation.
//!
//! The serving benchmark is `perfbench` (`bash perfbench/run.sh
//! --workload serve-read`), which drives a separate server process.
//!
//! ```text
//! cargo run --release -p privim-bench --bin smoke_serve -- --bundle ci.json
//! ```

use privim_bench::{die, fail, flag_value};
use privim_rt::json::Value;
use privim_serve::client::{exchange, frame, read_response, scrape_metrics};
use privim_serve::metrics::parse_counter;
use privim_serve::{bundle, start, ServeConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bundle_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bundle" => bundle_path = Some(flag_value(&mut it, a)),
            other => die(&format!(
                "unknown flag {other} (usage: smoke_serve --bundle <path>)"
            )),
        }
    }
    let path = bundle_path.unwrap_or_else(|| die("usage: smoke_serve --bundle <path>"));
    let file = std::fs::File::open(path).unwrap_or_else(|e| fail(format!("open {path}: {e}")));
    let b = bundle::load(std::io::BufReader::new(file))
        .unwrap_or_else(|e| fail(format!("load {path}: {e}")));
    let n_nodes = b.graph.num_nodes();
    let cfg = ServeConfig {
        workers: 8,
        ..ServeConfig::default()
    };
    let handle = start(b, cfg).unwrap_or_else(|e| fail(format!("start server: {e}")));
    let port = handle.port();
    println!("serving bundle on port {port} (|V|={n_nodes})");

    let checks: [(&str, &str, &str); 3] = [
        ("embed", "/v1/embed", "{\"nodes\": [0, 1]}"),
        (
            "influence",
            "/v1/influence",
            "{\"seeds\": [0, 1], \"runs\": 16, \"seed\": 3}",
        ),
        ("seeds", "/v1/seeds", "{\"k\": 3}"),
    ];
    for (name, path, body) in checks {
        let r = exchange(port, "POST", path, &[], body).unwrap_or_else(|e| panic!("{name}: {e}"));
        let text = r.body;
        assert_eq!(r.status, 200, "{name}: status {}, body {text}", r.status);
        let v = Value::parse(&text).unwrap_or_else(|e| {
            panic!("{name}: unparseable body {text}: {e}");
        });
        match name {
            "embed" => assert_eq!(
                v.get("scores").and_then(|s| s.as_array()).map(|a| a.len()),
                Some(2),
                "{name}: {text}"
            ),
            "influence" => assert!(
                v.get("spread").and_then(|s| s.as_f64()).unwrap_or(-1.0) >= 2.0,
                "{name}: {text}"
            ),
            _ => assert_eq!(
                v.get("seeds").and_then(|s| s.as_array()).map(|a| a.len()),
                Some(3),
                "{name}: {text}"
            ),
        }
        println!("ok  POST {path}");
    }
    let r = exchange(port, "GET", "/healthz", &[], "").expect("healthz exchange");
    assert_eq!(r.status, 200, "healthz: {}", r.body);
    assert!(r.body.contains("\"ok\""), "healthz: {}", r.body);
    println!("ok  GET /healthz");

    // Two requests down one kept-alive connection (HTTP/1.1 connections
    // persist by default).
    let mut ka = TcpStream::connect(("127.0.0.1", port)).expect("keep-alive connect");
    let _ = ka.set_read_timeout(Some(Duration::from_secs(30)));
    let mut carry = Vec::new();
    for _ in 0..2 {
        ka.write_all(&frame("GET", "/healthz", &[], "", false))
            .expect("keep-alive write");
        let r = read_response(&mut ka, &mut carry).expect("keep-alive response");
        assert_eq!(r.status, 200, "keep-alive healthz");
    }
    drop(ka);
    println!("ok  keep-alive reuse (2 requests, 1 connection)");

    let text = scrape_metrics(port).expect("/metrics scrape");
    for (ep, want) in [("embed", 1), ("influence", 1), ("seeds", 1), ("healthz", 3)] {
        let name = format!("privim_requests_total{{endpoint=\"{ep}\"}}");
        assert_eq!(parse_counter(&text, &name), Some(want), "{name}");
    }
    println!("ok  GET /metrics (all requests accounted)");
    let drained = handle.shutdown();
    println!("ok  shutdown drained cleanly ({drained} in-flight at signal)");
    println!("smoke passed");
}

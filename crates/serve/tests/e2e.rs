//! End-to-end serving tests over real TCP, covering the acceptance
//! criteria: (a) responses bit-identical to direct library calls, for
//! dense and int8 bundles, (b) `/metrics` reflects request counts and
//! the one lazily computed forward pass, (c) shutdown drains in-flight
//! requests, (d) an exhausted tenant gets `429` + `Retry-After` and the
//! budget gauges agree, (e) counters are monotone across a graceful
//! drain. (Queue-full and deadline shedding are covered in
//! `tests/reactor.rs`.)

mod common;

use common::test_bundle;
use privim_gnn::QuantGnnModel;
use privim_im::{celf_exact, ic_spread_estimate};
use privim_rt::json::Value;
use privim_serve::client::{self, exchange};
use privim_serve::{bundle, metrics, start, LedgerConfig, ServeConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn post_json(port: u16, path: &str, body: &str) -> (u16, Value) {
    let r = exchange(port, "POST", path, &[], body).unwrap();
    (r.status, Value::parse(&r.body).unwrap())
}

#[test]
fn responses_are_bit_identical_to_library_calls() {
    let (b, g, model) = test_bundle(1, 120, None);
    let handle = start(b, ServeConfig::default()).unwrap();
    let port = handle.port();

    // /v1/embed vs GnnModel::score_graph — exact f64 equality through
    // the JSON round-trip (the rt writer is exact for finite f64).
    let direct_scores = model.score_graph(&g);
    let (status, v) = post_json(port, "/v1/embed", "{\"nodes\": [0, 7, 63, 119]}");
    assert_eq!(status, 200);
    let rows = v.get("scores").and_then(|s| s.as_array()).unwrap();
    assert_eq!(rows.len(), 4);
    for row in rows {
        let pair = row.as_array().unwrap();
        let node = pair[0].as_usize().unwrap();
        let score = pair[1].as_f64().unwrap();
        assert_eq!(score, direct_scores[node], "node {node}");
    }

    // /v1/influence vs ic_spread_estimate under identical canonical
    // arguments (server sorts + dedups the seed list).
    let (status, v) = post_json(
        port,
        "/v1/influence",
        "{\"seeds\": [9, 3, 3, 40], \"runs\": 32, \"seed\": 5}",
    );
    assert_eq!(status, 200);
    let direct = ic_spread_estimate(&g, &[3, 9, 40], None, 32, 5);
    assert_eq!(v.get("spread").and_then(|s| s.as_f64()), Some(direct));
    assert_eq!(v.get("cached").and_then(|s| s.as_bool()), Some(false));
    // A permuted duplicate of the same query must hit the cache and
    // return the identical value.
    let (_, v2) = post_json(
        port,
        "/v1/influence",
        "{\"seeds\": [40, 9, 3], \"runs\": 32, \"seed\": 5}",
    );
    assert_eq!(v2.get("spread").and_then(|s| s.as_f64()), Some(direct));
    assert_eq!(v2.get("cached").and_then(|s| s.as_bool()), Some(true));

    // /v1/seeds vs celf_exact, twice: the second, smaller k is served
    // from the resumable CELF prefix and must still match exactly.
    for k in [8usize, 3] {
        let reference = celf_exact(&g, k);
        let (status, v) = post_json(port, "/v1/seeds", &format!("{{\"k\": {k}}}"));
        assert_eq!(status, 200);
        let got: Vec<u32> = v
            .get("seeds")
            .and_then(|s| s.as_array())
            .unwrap()
            .iter()
            .map(|x| x.as_usize().unwrap() as u32)
            .collect();
        assert_eq!(got, reference.seeds, "k={k}");
        assert_eq!(
            v.get("spread").and_then(|s| s.as_f64()),
            Some(reference.spread),
            "k={k}"
        );
    }

    // /healthz carries the graph fingerprint of the loaded bundle.
    let r = exchange(port, "GET", "/healthz", &[], "").unwrap();
    assert_eq!(r.status, 200);
    let fp = format!("{:#018x}", bundle::graph_fingerprint(&g));
    assert!(r.body.contains(&fp), "healthz missing fingerprint: {}", r.body);

    handle.shutdown();
}

/// The exact `/v1/embed` body the server must produce for `nodes`, built
/// from directly computed scores.
fn expected_embed_body(scores: &[f64], nodes: &[usize]) -> String {
    let rows = nodes
        .iter()
        .map(|&v| Value::Arr(vec![Value::Num(v as f64), Value::Num(scores[v])]))
        .collect();
    Value::obj(vec![("scores", Value::Arr(rows))]).to_json_string()
}

#[test]
fn int8_bundle_serves_the_quant_model_scores() {
    let (_, g, model) = test_bundle(7, 120, None);
    let q = QuantGnnModel::from_model(&model);
    let privacy = bundle::PrivacyStatement {
        epsilon: Some(2.0),
        delta: 1e-4,
        sigma: 1.5,
        steps: 80,
    };
    let doc = bundle::pack_parts_q8(&q, &privacy, &g, None).to_json_string();
    let b = bundle::load(doc.as_bytes()).unwrap();
    assert!(b.quant.is_some(), "a model_q8 bundle loads its int8 model");
    let quant_scores = q.score_graph(&g);
    assert_ne!(
        quant_scores,
        model.score_graph(&g),
        "int8 and dense scores must differ, or this test cannot tell the paths apart"
    );

    let handle = start(b, ServeConfig::default()).unwrap();
    let nodes = [0usize, 7, 63, 119];
    let r = exchange(handle.port(), "POST", "/v1/embed", &[], "{\"nodes\": [0, 7, 63, 119]}")
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.body, expected_embed_body(&quant_scores, &nodes));
    handle.shutdown();
}

#[test]
fn metrics_reflect_requests_and_one_lazy_forward_pass() {
    let (b, g, model) = test_bundle(2, 120, None);
    let direct = model.score_graph(&g);
    let cfg = ServeConfig {
        workers: 8,
        ..ServeConfig::default()
    };
    let handle = start(b, cfg).unwrap();
    let port = handle.port();

    // Scores are computed on first use, not at startup: a fresh server
    // has run no forward pass.
    let text = client::scrape_metrics(port).unwrap();
    assert_eq!(
        metrics::parse_counter(&text, "privim_batch_forward_passes_total"),
        Some(0),
        "startup must not compute embed scores"
    );

    // 6 embed requests at once: they share the one first-use pass.
    let n = 6;
    let barrier = Arc::new(Barrier::new(n));
    let threads: Vec<_> = (0..n)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let nodes = [i, i + 50];
                barrier.wait();
                let body = format!("{{\"nodes\": [{}, {}]}}", nodes[0], nodes[1]);
                (nodes, exchange(port, "POST", "/v1/embed", &[], &body).unwrap())
            })
        })
        .collect();
    for t in threads {
        let (nodes, r) = t.join().unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.body, expected_embed_body(&direct, &nodes));
    }
    // Later requests are lookups into the same scores.
    let sequential = 3;
    for i in 0..sequential {
        let nodes = [100 + i, 119];
        let body = format!("{{\"nodes\": [{}, {}]}}", nodes[0], nodes[1]);
        let r = exchange(port, "POST", "/v1/embed", &[], &body).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.body, expected_embed_body(&direct, &nodes));
    }

    let text = client::scrape_metrics(port).unwrap();
    let counter = |name: &str| metrics::parse_counter(&text, name);
    assert_eq!(
        counter("privim_requests_total{endpoint=\"embed\"}"),
        Some((n + sequential) as u64)
    );
    assert_eq!(
        counter("privim_batch_forward_passes_total"),
        Some(1),
        "every embed must be served by one forward pass"
    );
    // the 2xx counter covers the embed requests plus the first /metrics
    // read; at minimum the embeds are there
    assert!(counter("privim_responses_total{class=\"2xx\"}").unwrap() >= (n + sequential) as u64);

    // Durability counters are always exposed (zero on a journal-less
    // server) so dashboards can alert on them without a config change.
    assert_eq!(counter("privim_wal_appends_total"), Some(0));
    assert_eq!(counter("privim_wal_append_failures_total"), Some(0));
    assert_eq!(counter("privim_wal_compactions_total"), Some(0));
    assert_eq!(counter("privim_wal_compaction_failures_total"), Some(0));

    handle.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let (b, g, model) = test_bundle(4, 120, None);
    let handle = start(b, ServeConfig::default()).unwrap();
    let port = handle.port();

    // Open a request and transmit only the headers; the body arrives
    // AFTER shutdown is initiated. A draining server must finish it.
    let body = "{\"nodes\": [5]}";
    let mut slow = TcpStream::connect(("127.0.0.1", port)).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    slow.write_all(
        format!(
            "POST /v1/embed HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(150)); // worker is now mid-read

    let finisher = {
        let mut half = slow.try_clone().unwrap();
        let body = body.to_string();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            half.write_all(body.as_bytes()).unwrap();
        })
    };

    // Shutdown while the request is in flight; this blocks until every
    // worker exits, so returning at all proves the drain completed.
    let drained = handle.shutdown();
    finisher.join().unwrap();
    let r = client::read_response(&mut slow, &mut Vec::new()).unwrap();
    assert_eq!(r.status, 200, "in-flight request must complete: {}", r.body);
    let v = Value::parse(&r.body).unwrap();
    let row = v.get("scores").and_then(|s| s.as_array()).unwrap()[0]
        .as_array()
        .unwrap();
    assert_eq!(row[1].as_f64(), Some(model.score_graph(&g)[5]));
    assert!(drained >= 1, "the drained counter must record the request");

    // The listener is gone: a fresh connection cannot complete an
    // exchange any more.
    match TcpStream::connect(("127.0.0.1", port)) {
        Err(_) => {}
        Ok(mut c) => {
            let _ = c.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let _ = c.set_read_timeout(Some(Duration::from_millis(500)));
            let mut buf = String::new();
            assert!(
                c.read_to_string(&mut buf).is_err() || buf.is_empty(),
                "server answered after shutdown: {buf}"
            );
        }
    }
}

#[test]
fn exhausted_tenant_gets_429_with_retry_after_and_correct_gauges() {
    // A tight budget: σ=8 under ε=1 admits a few queries, then refuses.
    let ledger = LedgerConfig {
        epsilon_budget: 1.0,
        delta: 1e-5,
        query_sigma: 8.0,
        retry_after_secs: 45,
    };
    let (b, _, _) = test_bundle(5, 120, Some(ledger));
    let handle = start(b, ServeConfig::default()).unwrap();
    let port = handle.port();
    let tenant_hdr = [("X-Privim-Tenant", "acme")];

    // Drive the tenant to exhaustion. Every granted query must be a 200;
    // the first refusal must be a 429 with Retry-After and a JSON body
    // naming the tenant and the spend.
    let mut granted = 0u64;
    let (retry_head, refusal_body) = loop {
        let r = exchange(port, "POST", "/v1/embed", &tenant_hdr, "{\"nodes\": [1, 2]}").unwrap();
        match r.status {
            200 => {
                granted += 1;
                assert!(granted < 1000, "tight budget never exhausted");
            }
            429 => break (r.head, r.body),
            other => panic!("unexpected status {other}: {}", r.body),
        }
    };
    assert!(granted >= 1, "at least one query must fit in the budget");
    assert!(
        retry_head.contains("Retry-After: 45"),
        "429 must carry Retry-After: {retry_head}"
    );
    let v = Value::parse(&refusal_body).unwrap();
    assert_eq!(v.get("tenant").and_then(|t| t.as_str()), Some("acme"));
    let spent = v.get("epsilon_spent").and_then(|e| e.as_f64()).unwrap();
    assert!(spent > 0.0 && spent <= 1.0, "spent {spent}");

    // Exhaustion is sticky: immediately refused again, on any metered
    // endpoint.
    let r = exchange(port, "POST", "/v1/seeds", &tenant_hdr, "{\"k\": 3}").unwrap();
    assert_eq!(r.status, 429);
    assert!(r.head.contains("Retry-After: 45"));

    // Unmetered requests (no tenant header) still work — and so does a
    // different tenant with its own untouched budget.
    let r = exchange(port, "POST", "/v1/embed", &[], "{\"nodes\": [3]}").unwrap();
    assert_eq!(r.status, 200, "requests without a tenant header are unmetered");
    let other = [("X-Privim-Tenant", "other")];
    let r = exchange(port, "POST", "/v1/embed", &other, "{\"nodes\": [4]}").unwrap();
    assert_eq!(r.status, 200, "tenants have independent budgets");

    // The /metrics gauges agree with what just happened.
    let text = client::scrape_metrics(port).unwrap();
    assert_eq!(
        metrics::parse_counter(&text, "privim_tenant_queries_total{tenant=\"acme\"}"),
        Some(granted)
    );
    assert_eq!(
        metrics::parse_counter(&text, "privim_tenant_queries_total{tenant=\"other\"}"),
        Some(1)
    );
    assert_eq!(
        metrics::parse_gauge(&text, "privim_budget_epsilon_limit"),
        Some(1.0)
    );
    assert!(
        metrics::parse_counter(&text, "privim_budget_denied_total").unwrap() >= 2,
        "both refusals must be counted"
    );
    assert_eq!(
        metrics::parse_counter(&text, "privim_budget_admitted_total"),
        Some(granted + 1)
    );
    let spent_gauge =
        metrics::parse_gauge(&text, "privim_tenant_epsilon_spent{tenant=\"acme\"}").unwrap();
    let remaining =
        metrics::parse_gauge(&text, "privim_tenant_epsilon_remaining{tenant=\"acme\"}").unwrap();
    assert!((spent_gauge - spent).abs() < 1e-12, "{spent_gauge} vs {spent}");
    assert!(remaining >= 0.0 && remaining < 1.0);
    // remaining is what the budget has left of the exposed spend
    assert!((spent_gauge + remaining - 1.0).abs() < 0.6, "remaining must complement spend");
    // the 429s are 4xx-class responses
    assert!(metrics::parse_counter(&text, "privim_responses_total{class=\"4xx\"}").unwrap() >= 2);

    handle.shutdown();
}

#[test]
fn metrics_counters_are_monotone_across_graceful_drain() {
    let (b, _, _) = test_bundle(6, 120, None);
    let handle = start(b, ServeConfig::default()).unwrap();
    let port = handle.port();

    for i in 0..4 {
        let body = format!("{{\"nodes\": [{i}]}}");
        assert_eq!(exchange(port, "POST", "/v1/embed", &[], &body).unwrap().status, 200);
    }
    let before = client::scrape_metrics(port).unwrap();

    // More traffic between the scrape and the drain.
    for _ in 0..2 {
        let body = "{\"seeds\": [2, 5], \"runs\": 16, \"seed\": 3}";
        assert_eq!(exchange(port, "POST", "/v1/influence", &[], body).unwrap().status, 200);
    }
    exchange(port, "GET", "/healthz", &[], "").unwrap();

    let (_drained, after) = handle.drain();

    // Every cumulative series present in the first scrape must be ≥ in
    // the post-drain exposition: draining completes requests, it never
    // resets or loses them. (Gauges — queue depth, cache entries — are
    // exempt; they legitimately move both ways.)
    let monotone = |name: &str| {
        name.contains("_total") || name.contains("_bucket") || name.contains("_sum")
    };
    let mut checked = 0usize;
    for line in before.lines() {
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if !monotone(name) {
            continue;
        }
        let prev: u64 = value.parse().unwrap();
        let now = metrics::parse_counter(&after, name)
            .unwrap_or_else(|| panic!("series {name} vanished across drain"));
        assert!(
            now >= prev,
            "{name} went backwards across drain: {prev} -> {now}"
        );
        checked += 1;
    }
    assert!(
        checked > 20,
        "expected to check many cumulative series, got {checked}"
    );
    // And the requests issued between scrape and drain are visible in
    // the final exposition.
    assert_eq!(
        metrics::parse_counter(&after, "privim_requests_total{endpoint=\"influence\"}"),
        Some(2)
    );
    assert_eq!(
        metrics::parse_counter(&after, "privim_requests_total{endpoint=\"embed\"}"),
        Some(4)
    );
}

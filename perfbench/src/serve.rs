//! The serve workloads: `privim-serve` runs as its own process on a
//! bundle generated from the seed, and the load generator drives it over
//! two keep-alive connections.
//!
//! * `serve-read`: unmetered dense bundle. Connection 0 carries
//!   `/v1/embed` (a full-graph forward pass through the micro-batcher);
//!   connection 1 alternates `/v1/influence` over a small repeating pool
//!   of seed sets (cache hits after the first miss of each) and
//!   `/v1/seeds` with `k` inside the greedy prefix computed at warm-up.
//!   Slow embeds get a connection of their own because HTTP/1.1 answers
//!   pipelined requests in order: on a shared connection every cheap
//!   request would wait behind the embed before it.
//! * `serve-metered`: metered bundle, journal with `--fsync always`.
//!   Every request is `/v1/influence` with a fresh `(seeds, seed)` for one
//!   of [`TENANTS`] tenants, so each one is admitted by the ledger,
//!   journaled and fsync'd, misses the cache, runs Monte-Carlo IC and
//!   inserts into the cache. Both connections carry the same mix.
//!
//! A request's client latency includes any wait behind earlier responses
//! on its connection; `server.<endpoint>.mean_us` (from `/metrics`) is
//! the server-side time alone.

use crate::loadgen::{self, frame, LoadReport, Scheduled};
use crate::report::Outcome;
use crate::server::{self, Server};
use crate::stats::{
    counter_delta, endpoint_mean_us, median, percentile, pipeline_depth_mean, samples_beyond,
    MIN_BEYOND,
};
use privim::ServeArtifact;
use privim_gnn::{GnnConfig, GnnModel};
use privim_graph::{Graph, NodeId};
use privim_im::{celf_exact, ic_spread_estimate, one_step_spread, LazyGreedy};
use privim_rt::json::Value;
use privim_rt::{ChaCha8Rng, Rng, SeedableRng};
use privim_serve::metrics::parse_counter;
use privim_serve::{
    bundle, http, influence_cache_key, wal, FsyncPolicy, LedgerConfig, LedgerState, ShardedLru,
    TenantLedger, WalWriter,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which serve workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Metered,
}

/// Served graph size (Barabási–Albert, m = 3).
const NODES: usize = 160;
/// `serve-read`: offered `/v1/embed` requests per second. Embeds are the
/// majority of the mix, so the median request is an embed.
const EMBED_RATE: f64 = 120.0;
/// `serve-read`: offered `/v1/influence` and `/v1/seeds` requests per
/// second, each.
const CHEAP_RATE: f64 = 40.0;
/// `serve-metered`: offered influence requests per second.
const METERED_RATE: f64 = 80.0;
/// Fewest completions per endpoint per window: leaves ≥ 10 beyond p99.
const MIN_PER_ENDPOINT: f64 = 1000.0;
/// `serve-read` influence pool size (distinct seed sets).
const INFLUENCE_POOL: usize = 8;
/// Monte-Carlo runs per influence query.
const RUNS: usize = 64;
/// Greedy prefix computed at warm-up; `/v1/seeds` asks for `k ≤ KMAX`.
const KMAX: usize = 10;
/// Tenants `serve-metered` spreads its requests over.
const TENANTS: usize = 50;
/// Server spawns before and after the measured windows; `setup_s` is the
/// median spawn-to-healthy time over all of them.
const SPAWNS_BEFORE: usize = 8;
const SPAWNS_AFTER: usize = 7;
/// Ledger noise scale per metered query.
const QUERY_SIGMA: f64 = 8.0;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Ep {
    Embed,
    Influence,
    Seeds,
}

impl Ep {
    const ALL: [Ep; 3] = [Ep::Embed, Ep::Influence, Ep::Seeds];

    fn path(self) -> &'static str {
        match self {
            Ep::Embed => "/v1/embed",
            Ep::Influence => "/v1/influence",
            Ep::Seeds => "/v1/seeds",
        }
    }

    fn name(self) -> &'static str {
        match self {
            Ep::Embed => "embed",
            Ep::Influence => "influence",
            Ep::Seeds => "seeds",
        }
    }
}

/// One generated request, before framing.
struct Req {
    ep: Ep,
    conn: usize,
    due: Duration,
    /// Embed nodes or influence seeds (as sent; the server canonicalises).
    nodes: Vec<NodeId>,
    /// Influence Monte-Carlo seed, or seeds `k`.
    arg: u64,
    tenant: Option<String>,
}

impl Req {
    fn body(&self) -> String {
        let list = |v: &[NodeId]| {
            v.iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        match self.ep {
            Ep::Embed => format!("{{\"nodes\":[{}]}}", list(&self.nodes)),
            Ep::Influence => format!(
                "{{\"seeds\":[{}],\"runs\":{RUNS},\"seed\":{}}}",
                list(&self.nodes),
                self.arg
            ),
            Ep::Seeds => format!("{{\"k\":{}}}", self.arg),
        }
    }

    fn frame(&self) -> Vec<u8> {
        let headers: Vec<(&str, &str)> = match &self.tenant {
            Some(t) => vec![("X-Privim-Tenant", t.as_str())],
            None => Vec::new(),
        };
        frame("POST", self.ep.path(), &headers, &self.body())
    }

    fn canonical_nodes(&self) -> Vec<NodeId> {
        let mut v = self.nodes.clone();
        v.sort_unstable();
        v.dedup();
        v
    }
}

fn random_nodes(rng: &mut ChaCha8Rng, max: usize) -> Vec<NodeId> {
    let len = rng.gen_range(1..max + 1);
    (0..len)
        .map(|_| rng.gen_range(0..NODES) as NodeId)
        .collect()
}

/// Length of one measured window: `seconds`, stretched if needed so the
/// slowest-offered endpoint still gets [`MIN_PER_ENDPOINT`] requests.
fn window_secs(kind: Kind, seconds: f64) -> f64 {
    let slowest = match kind {
        Kind::Read => CHEAP_RATE,
        Kind::Metered => METERED_RATE,
    };
    seconds.max(MIN_PER_ENDPOINT / slowest)
}

/// Due times at `rate` per second over `secs`, from 0.
fn schedule(rate: f64, secs: f64) -> impl Iterator<Item = Duration> {
    let n = (rate * secs).ceil() as u32;
    (0..n).map(move |i| Duration::from_secs_f64(f64::from(i) / rate))
}

/// The request stream of window `window` (0 = untraced, 1 = traced).
fn stream(kind: Kind, seed: u64, window: u64, seconds: f64) -> Vec<Req> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed_f00d);
    let mut out = Vec::new();
    match kind {
        Kind::Read => {
            // The influence pool is the same in every window.
            let pool: Vec<(Vec<NodeId>, u64)> = (0..INFLUENCE_POOL)
                .map(|_| (random_nodes(&mut rng, 3), rng.gen_range(0..1_000_000u64)))
                .collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(window) ^ 0xdead_beef);
            let secs = window_secs(kind, seconds);
            for due in schedule(EMBED_RATE, secs) {
                out.push(Req {
                    ep: Ep::Embed,
                    conn: 0,
                    due,
                    nodes: random_nodes(&mut rng, 4),
                    arg: 0,
                    tenant: None,
                });
            }
            // Influence and seeds alternate on connection 1.
            let half = Duration::from_secs_f64(0.5 / CHEAP_RATE);
            for due in schedule(CHEAP_RATE, secs) {
                let (nodes, mc) = pool[rng.gen_range(0..INFLUENCE_POOL)].clone();
                out.push(Req {
                    ep: Ep::Influence,
                    conn: 1,
                    due,
                    nodes,
                    arg: mc,
                    tenant: None,
                });
                out.push(Req {
                    ep: Ep::Seeds,
                    conn: 1,
                    due: due + half,
                    nodes: Vec::new(),
                    arg: rng.gen_range(1..KMAX as u64 + 1),
                    tenant: None,
                });
            }
        }
        Kind::Metered => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(window) ^ 0xfeed_f00d);
            for (i, due) in schedule(METERED_RATE, window_secs(kind, seconds)).enumerate() {
                out.push(Req {
                    ep: Ep::Influence,
                    conn: i % 2,
                    due,
                    nodes: random_nodes(&mut rng, 3),
                    // Unique per request and window: every query is fresh.
                    arg: (window << 32) | i as u64,
                    tenant: Some(format!("tenant-{:02}", rng.gen_range(0..TENANTS))),
                });
            }
        }
    }
    out
}

/// Most queries any tenant can make in one run (every window, warm-up
/// excluded): sizes the budget so that no tenant is ever refused.
fn max_queries_per_tenant(seconds: f64) -> u64 {
    2 * (METERED_RATE * window_secs(Kind::Metered, seconds)).ceil() as u64
}

/// Bundle + graph + model a run serves, written under `work`.
struct Deployment {
    bundle_path: PathBuf,
    wal_path: PathBuf,
    graph: Arc<Graph>,
    model: GnnModel,
    fingerprint: u64,
}

fn deploy(kind: Kind, seed: u64, seconds: f64, work: &Path) -> Result<Deployment, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = privim_graph::generators::barabasi_albert(NODES, 3, &mut rng).with_uniform_weights(1.0);
    // Serving cost does not depend on trained weights, so the model is
    // freshly initialised rather than trained.
    let artifact = ServeArtifact {
        model: GnnModel::new(GnnConfig::paper_default(), &mut rng),
        epsilon: Some(2.0),
        delta: 1e-4,
        sigma: 1.5,
        steps: 80,
    };
    let mut bytes = Vec::new();
    match kind {
        Kind::Read => bundle::save(&artifact, &g, &mut bytes),
        Kind::Metered => {
            let probe = TenantLedger::new(LedgerState::new(ledger_config(f64::MAX)))
                .map_err(|e| e.to_string())?;
            // Twice the most any tenant can spend in this run.
            let budget = probe.epsilon_spent(2 * max_queries_per_tenant(seconds));
            bundle::save_with_ledger(
                &artifact,
                &g,
                &LedgerState::new(ledger_config(budget)),
                &mut bytes,
            )
        }
    }
    .map_err(|e| e.to_string())?;
    let bundle_path = work.join("bundle.json");
    std::fs::write(&bundle_path, &bytes).map_err(|e| format!("writing bundle: {e}"))?;
    // What the server will see, loaded the way it loads it.
    let b = bundle::load(bytes.as_slice()).map_err(|e| e.to_string())?;
    Ok(Deployment {
        bundle_path,
        wal_path: work.join("journal.wal"),
        graph: b.graph,
        model: b.model,
        fingerprint: b.fingerprint,
    })
}

fn ledger_config(epsilon_budget: f64) -> LedgerConfig {
    LedgerConfig {
        epsilon_budget,
        delta: 1e-5,
        query_sigma: QUERY_SIGMA,
        retry_after_secs: 60,
    }
}

fn server_flags(kind: Kind, d: &Deployment) -> Vec<String> {
    match kind {
        Kind::Read => Vec::new(),
        Kind::Metered => vec![
            "--wal".into(),
            d.wal_path.display().to_string(),
            "--fsync".into(),
            "always".into(),
            // No compaction: the journal then holds every charge, and the
            // drain cross-check can replay it alone.
            "--compact-every".into(),
            "0".into(),
        ],
    }
}

/// One measured window plus the server-side readings around it.
struct Window {
    reqs: Vec<Req>,
    load: LoadReport,
    server_cpu: Duration,
    /// `/metrics` before and after (traced window only).
    scrapes: Option<(String, String)>,
}

fn measure(srv: &Server, reqs: Vec<Req>, scrape: bool) -> Result<Window, String> {
    let mut conns: Vec<Vec<Scheduled>> = vec![Vec::new(), Vec::new()];
    for (tag, r) in reqs.iter().enumerate() {
        conns[r.conn].push(Scheduled {
            due: r.due,
            bytes: r.frame(),
            tag,
        });
    }
    for c in &mut conns {
        c.sort_by_key(|s| s.due);
    }
    let before = if scrape { Some(srv.scrape()?) } else { None };
    let cpu0 = srv.cpu()?;
    let load = loadgen::run(srv.port, conns, Duration::from_secs(20));
    let server_cpu = srv.cpu()?.saturating_sub(cpu0);
    let scrapes = match before {
        Some(b) => Some((b, srv.scrape()?)),
        None => None,
    };
    Ok(Window {
        reqs,
        load,
        server_cpu,
        scrapes,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sorted 2xx latencies (ms), optionally of one endpoint.
fn latencies(w: &Window, ep: Option<Ep>) -> Vec<f64> {
    let mut v: Vec<f64> = w
        .load
        .outcomes
        .iter()
        .filter(|o| (200..300).contains(&o.status))
        .filter(|o| ep.is_none_or(|e| w.reqs[o.tag].ep == e))
        .map(|o| ms(o.latency))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// In-process references for every 2xx body, built lazily and timed.
struct Reference<'a> {
    d: &'a Deployment,
    scores: Option<Vec<f64>>,
    celf: Option<Vec<NodeId>>,
    spreads: BTreeMap<(Vec<NodeId>, u64), f64>,
    ic_time: Duration,
}

impl<'a> Reference<'a> {
    fn new(d: &'a Deployment) -> Self {
        Reference {
            d,
            scores: None,
            celf: None,
            spreads: BTreeMap::new(),
            ic_time: Duration::ZERO,
        }
    }

    fn spread(&mut self, seeds: Vec<NodeId>, mc: u64) -> f64 {
        let g = &self.d.graph;
        let ic_time = &mut self.ic_time;
        *self
            .spreads
            .entry((seeds, mc))
            .or_insert_with_key(|(s, mc)| {
                let t = Instant::now();
                let v = ic_spread_estimate(g, s, None, RUNS, *mc);
                *ic_time += t.elapsed();
                v
            })
    }

    /// Does `body` answer `req` exactly as the library would?
    fn matches(&mut self, req: &Req, body: &[u8]) -> bool {
        let Some(v) = std::str::from_utf8(body)
            .ok()
            .and_then(|t| Value::parse(t).ok())
        else {
            return false;
        };
        match req.ep {
            Ep::Embed => {
                let d = self.d;
                let scores = self
                    .scores
                    .get_or_insert_with(|| d.model.score_graph(&d.graph));
                let Some(rows) = v.get("scores").and_then(Value::as_array) else {
                    return false;
                };
                let want = req.canonical_nodes();
                rows.len() == want.len()
                    && rows.iter().zip(&want).all(|(row, &n)| {
                        let pair = row.as_array().unwrap_or(&[]);
                        pair.len() == 2
                            && pair[0].as_usize() == Some(n as usize)
                            && pair[1].as_f64().map(f64::to_bits)
                                == Some(scores[n as usize].to_bits())
                    })
            }
            Ep::Influence => {
                let want = self.spread(req.canonical_nodes(), req.arg);
                v.get("spread").and_then(Value::as_f64).map(f64::to_bits) == Some(want.to_bits())
                    && v.get("runs").and_then(Value::as_usize) == Some(RUNS)
            }
            Ep::Seeds => {
                let d = self.d;
                let celf = self
                    .celf
                    .get_or_insert_with(|| celf_exact(&d.graph, KMAX).seeds);
                let k = req.arg as usize;
                let Some(got) = v.get("seeds").and_then(Value::as_array) else {
                    return false;
                };
                let prefix = &celf[..k.min(celf.len())];
                let spread = one_step_spread(&d.graph, prefix) as f64;
                got.len() == prefix.len()
                    && got
                        .iter()
                        .zip(prefix)
                        .all(|(g, &s)| g.as_usize() == Some(s as usize))
                    && v.get("spread").and_then(Value::as_f64).map(f64::to_bits)
                        == Some(spread.to_bits())
            }
        }
    }
}

/// Count failures and check every 2xx body; returns 2xx counts per tenant.
fn check_window(
    w: &Window,
    reference: &mut Reference<'_>,
    out: &mut Outcome,
) -> BTreeMap<String, u64> {
    let mut per_tenant = BTreeMap::new();
    out.attempted += w.reqs.len() as u64;
    out.check(
        w.load.outcomes.len() == w.reqs.len(),
        "load generator lost requests",
    );
    let mut first_bad: Option<String> = None;
    for o in &w.load.outcomes {
        let req = &w.reqs[o.tag];
        if !(200..300).contains(&o.status) {
            out.failed += 1;
            continue;
        }
        if let Some(t) = &req.tenant {
            *per_tenant.entry(t.clone()).or_insert(0) += 1;
        }
        if !reference.matches(req, &o.body) && first_bad.is_none() {
            first_bad = Some(format!(
                "{} {} answered {}",
                req.ep.path(),
                req.body(),
                String::from_utf8_lossy(&o.body)
            ));
        }
    }
    if let Some(msg) = first_bad {
        out.problem(format!("response differs from the library: {msg}"));
    }
    for ep in Ep::ALL {
        let n = latencies(w, Some(ep)).len();
        let sent = w.reqs.iter().filter(|r| r.ep == ep).count();
        if sent > 0 && samples_beyond(n, 99.0) < MIN_BEYOND {
            eprintln!(
                "perfbench: {}: {n} completions leave fewer than {MIN_BEYOND} beyond p99",
                ep.name()
            );
        }
    }
    per_tenant
}

pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: &Path,
    work: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(kind, seed, seconds, trace, server_bin, work, &mut out) {
        out.problem(e);
    }
    out
}

fn run_inner(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: &Path,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let d = deploy(kind, seed, seconds, work)?;
    let flags = server_flags(kind, &d);

    // Set-up: spawn-to-healthy, several times; the last one serves.
    let mut ready = Vec::new();
    let launch = |ready: &mut Vec<f64>| -> Result<Server, String> {
        // Every spawn starts from an empty journal.
        let _ = std::fs::remove_file(&d.wal_path);
        let s = server::launch(server_bin, &d.bundle_path, &flags)?;
        ready.push(s.ready_after.as_secs_f64());
        Ok(s)
    };
    for _ in 1..SPAWNS_BEFORE {
        drop(launch(&mut ready)?);
    }
    let srv = launch(&mut ready)?;
    println!("privim-serve pid {} on port {}", srv.pid(), srv.port);

    // Warm-up, untimed: the greedy prefix and one forward pass.
    if kind == Kind::Read {
        for (path, body) in [
            ("/v1/seeds", format!("{{\"k\":{KMAX}}}")),
            ("/v1/embed", "{\"nodes\":[0]}".into()),
        ] {
            let (status, _) = server::request(srv.port, "POST", path, &body)?;
            if status != 200 {
                return Err(format!("warm-up {path} answered {status}"));
            }
        }
    }

    let mut reference = Reference::new(&d);
    let mut tenants: BTreeMap<String, u64> = BTreeMap::new();
    let mut merge = |t: BTreeMap<String, u64>| {
        for (k, v) in t {
            *tenants.entry(k).or_insert(0) += v;
        }
    };

    let untraced = measure(&srv, stream(kind, seed, 0, seconds), false)?;
    merge(check_window(&untraced, &mut reference, out));
    let traced = if trace {
        let w = measure(&srv, stream(kind, seed, 1, seconds), true)?;
        merge(check_window(&w, &mut reference, out));
        Some(w)
    } else {
        None
    };

    let final_metrics = srv.scrape()?;
    if kind == Kind::Metered {
        let denied = parse_counter(&final_metrics, "privim_budget_denied_total");
        out.check(
            denied == Some(0),
            "the ledger refused queries: the budget is too small",
        );
    }
    srv.drain()?;
    if kind == Kind::Metered {
        // Durability: the journal after a drain holds exactly the charges
        // the client saw acknowledged.
        let bytes = std::fs::read(&d.wal_path).map_err(|e| format!("reading journal: {e}"))?;
        let (replayed, stats) = wal::replay(&bytes);
        out.check(
            stats.torn_tail_bytes == 0 && stats.ambiguous_kept == 0,
            "journal is not clean after a drain",
        );
        out.check(
            replayed == tenants,
            "journal replay differs from the client's per-tenant 2xx counts",
        );
    }
    for _ in 0..SPAWNS_AFTER {
        drop(launch(&mut ready)?);
    }

    // End-to-end metrics come from the untraced window.
    let w = &untraced;
    let all = latencies(w, None);
    let ok = all.len().max(1) as f64;
    let m = &mut out.metrics;
    m.set("setup_s", median(&ready));
    m.set("p50_ms", percentile(&all, 50.0));
    m.set("cpu_us_per_op", w.server_cpu.as_secs_f64() * 1e6 / ok);
    println!(
        "{} window: {} requests, p50 {:.4} ms, p99 {:.4} ms, lag p99 {:.3} ms, max {:.3} ms, client cpu {:.1} us/req",
        if kind == Kind::Read { "serve-read" } else { "serve-metered" },
        w.reqs.len(),
        percentile(&all, 50.0),
        percentile(&all, 99.0),
        ms(w.load.sched_lag_p99),
        ms(w.load.sched_lag_max),
        w.load.client_cpu.as_secs_f64() * 1e6 / w.reqs.len().max(1) as f64,
    );
    for ep in Ep::ALL {
        let l = latencies(w, Some(ep));
        if !l.is_empty() {
            println!(
                "  {:<9} n={:<6} p50 {:.4} ms  p99 {:.4} ms",
                ep.name(),
                l.len(),
                percentile(&l, 50.0),
                percentile(&l, 99.0)
            );
        }
    }
    if let Some(t) = &traced {
        per_layer(kind, &d, &untraced, t, &mut reference, work, out)?;
    }
    Ok(())
}

fn per_layer(
    kind: Kind,
    d: &Deployment,
    untraced: &Window,
    w: &Window,
    reference: &mut Reference<'_>,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let (before, after) = w.scrapes.as_ref().ok_or("traced window has no scrapes")?;
    let delta = |name: &str| counter_delta(before, after, name) as f64;
    let reqs = w.reqs.len() as f64;
    let m = &mut out.metrics;
    for ep in Ep::ALL {
        let l = latencies(w, Some(ep));
        if l.is_empty() {
            continue;
        }
        let (p50, p99, mean): (&'static str, &'static str, &'static str) = match ep {
            Ep::Embed => (
                "client.embed.p50_ms",
                "client.embed.p99_ms",
                "server.embed.mean_us",
            ),
            Ep::Influence => (
                "client.influence.p50_ms",
                "client.influence.p99_ms",
                "server.influence.mean_us",
            ),
            Ep::Seeds => (
                "client.seeds.p50_ms",
                "client.seeds.p99_ms",
                "server.seeds.mean_us",
            ),
        };
        m.set(p50, percentile(&l, 50.0));
        m.set(p99, percentile(&l, 99.0));
        m.set(
            mean,
            endpoint_mean_us(before, after, ep.name()).unwrap_or(0.0),
        );
    }
    m.set("client.sched_lag_max_ms", ms(w.load.sched_lag_max));
    m.set("client.sched_lag_p99_ms", ms(w.load.sched_lag_p99));
    m.set(
        "client.cpu_us_per_req",
        w.load.client_cpu.as_secs_f64() * 1e6 / reqs,
    );
    m.set(
        "serve.reactor.wakeups_per_req",
        delta("privim_reactor_wakeups_total") / reqs,
    );
    m.set(
        "serve.conn.keepalive_reuses",
        delta("privim_keepalive_reuses_total"),
    );
    m.set(
        "serve.conn.pipeline_depth_mean",
        pipeline_depth_mean(before, after),
    );
    m.set(
        "serve.queue.depth_peak",
        parse_counter(after, "privim_queue_depth_peak").unwrap_or(0) as f64,
    );
    m.set("serve.shed", delta("privim_shed_total"));
    let passes = delta("privim_batch_forward_passes_total");
    m.set("serve.batch.forward_passes", passes);
    if passes > 0.0 {
        m.set(
            "serve.batch.requests_per_pass",
            delta("privim_batch_batched_requests_total") / passes,
        );
    }
    let (hits, misses) = (
        delta("privim_cache_hits_total"),
        delta("privim_cache_misses_total"),
    );
    if hits + misses > 0.0 {
        m.set("serve.cache.hit_ratio", hits / (hits + misses));
    }
    if kind == Kind::Metered {
        m.set(
            "serve.ledger.admitted",
            delta("privim_budget_admitted_total"),
        );
        m.set("serve.ledger.denied", delta("privim_budget_denied_total"));
        m.set(
            "serve.wal.appends_per_req",
            delta("privim_wal_appends_total") / reqs,
        );
    }
    let p50 = |win: &Window| percentile(&latencies(win, None), 50.0);
    m.set("trace.overhead_pct", (p50(w) / p50(untraced) - 1.0) * 100.0);

    replay(kind, d, w, reference, work, out)
}

/// Replay the traced window's request stream in-process through the
/// layer functions the server calls, timing each layer.
fn replay(
    kind: Kind,
    d: &Deployment,
    w: &Window,
    reference: &mut Reference<'_>,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let frames: Vec<Vec<u8>> = w.reqs.iter().map(Req::frame).collect();
    let t = Instant::now();
    for f in &frames {
        match http::parse_one(f) {
            Ok(Some(p)) if p.consumed == f.len() => {}
            _ => return Err("replayed request frame does not parse".into()),
        }
    }
    let parse_us = t.elapsed().as_secs_f64() * 1e6 / frames.len().max(1) as f64;

    // Spread cache, sized like the server's default.
    let cache: ShardedLru<f64> = ShardedLru::new(8, 256);
    let (mut get_t, mut put_t, mut gets, mut puts) = (Duration::ZERO, Duration::ZERO, 0u32, 0u32);
    for r in w.reqs.iter().filter(|r| r.ep == Ep::Influence) {
        let seeds = r.canonical_nodes();
        let key = influence_cache_key(d.fingerprint, &seeds, RUNS, None, r.arg);
        let t = Instant::now();
        let hit = cache.get(&key);
        get_t += t.elapsed();
        gets += 1;
        if hit.is_none() {
            let v = reference.spread(seeds, r.arg);
            let t = Instant::now();
            cache.put(key, v);
            put_t += t.elapsed();
            puts += 1;
        }
    }
    let ic_calls = reference.spreads.len().max(1) as f64;
    let m = &mut out.metrics;
    m.set("serve.http.parse_us", parse_us);
    m.set(
        "serve.cache.get_us",
        get_t.as_secs_f64() * 1e6 / f64::from(gets.max(1)),
    );
    m.set(
        "serve.cache.put_us",
        put_t.as_secs_f64() * 1e6 / f64::from(puts.max(1)),
    );
    m.set(
        "im.ic_spread_us",
        reference.ic_time.as_secs_f64() * 1e6 / ic_calls,
    );

    match kind {
        Kind::Read => {
            let mut times = Vec::new();
            for _ in 0..5 {
                let t = Instant::now();
                std::hint::black_box(d.model.score_graph(&d.graph));
                times.push(ms(t.elapsed()));
            }
            m.set("gnn.score_graph_ms", median(&times));
            let t = Instant::now();
            let mut greedy = LazyGreedy::new(Arc::clone(&d.graph));
            std::hint::black_box(greedy.extend_to(KMAX));
            m.set("im.lazy_greedy_extend_us", t.elapsed().as_secs_f64() * 1e6);
        }
        Kind::Metered => {
            let ledger = TenantLedger::new(LedgerState::new(ledger_config(f64::MAX)))
                .map_err(|e| e.to_string())?;
            let path = work.join("replay.wal");
            let mut writer =
                WalWriter::open(&path, FsyncPolicy::Always).map_err(|e| e.to_string())?;
            let (mut admit_t, mut fsync_us, mut n) = (Duration::ZERO, Vec::new(), 0u32);
            for r in &w.reqs {
                let Some(tenant) = &r.tenant else { continue };
                let t = Instant::now();
                let admission = ledger.admit(tenant);
                admit_t += t.elapsed();
                n += 1;
                let privim_serve::Admission::Granted { queries, .. } = admission else {
                    return Err("replay ledger refused a query".into());
                };
                let t = Instant::now();
                writer.append(tenant, queries).map_err(|e| e.to_string())?;
                fsync_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            drop(writer);
            let _ = std::fs::remove_file(&path);
            m.set(
                "serve.ledger.admit_us",
                admit_t.as_secs_f64() * 1e6 / f64::from(n.max(1)),
            );
            m.set("serve.wal.append_fsync_us", median(&fsync_us));
        }
    }
    Ok(())
}

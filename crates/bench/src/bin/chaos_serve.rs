//! `chaos_serve` — kill-9 crash-recovery gate for the privim-serve
//! budget journal.
//!
//! Drives a real `privim-serve` process (not an in-process server: the
//! point is surviving the death of the OS process) through a
//! crash/recover cycle:
//!
//! 1. start the server on a metered bundle with a WAL, `--fsync always`;
//! 2. hammer it with metered traffic from concurrent clients, counting
//!    every 2xx-acknowledged charge per tenant;
//! 3. SIGKILL the process mid-traffic — no drain, no snapshot;
//! 4. restart it on the same bundle + journal;
//! 5. assert recovered per-tenant spend covers every acknowledged
//!    charge (`privim_tenant_queries_total{tenant=...} >= acks`), and
//!    that serving resumes and keeps charging on top.
//!
//! The invariant under test is the ledger's one-sided durability
//! contract: a crash may overcharge (unacknowledged in-flight records
//! are kept) but must never undercharge. Exits non-zero on violation.
//!
//! ```text
//! cargo run --release -p privim-bench --bin chaos_serve -- \
//!     --server-bin target/release/privim-serve --bundle chaos.json --smoke
//! ```

use privim_bench::{abort, fail, flag_value, parse_or_die, scrape_counter};
use privim_serve::client::{self, exchange};
use std::collections::BTreeMap;
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{exit, Child};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Flags {
    server_bin: PathBuf,
    bundle: PathBuf,
    wal: Option<PathBuf>,
    tenants: usize,
    kill_after_acks: u64,
    post_acks: u64,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos_serve --server-bin <privim-serve> --bundle <bundle.json>
                   [--wal <path>] [--tenants 3] [--kill-after-acks 25]
                   [--post-acks 6] [--smoke]"
    );
    exit(2)
}

fn parse_flags() -> Flags {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut f = Flags {
        server_bin: PathBuf::from("target/release/privim-serve"),
        bundle: PathBuf::new(),
        wal: None,
        tenants: 3,
        kill_after_acks: 25,
        post_acks: 6,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--server-bin" => f.server_bin = PathBuf::from(flag_value(&mut it, a)),
            "--bundle" => f.bundle = PathBuf::from(flag_value(&mut it, a)),
            "--wal" => f.wal = Some(PathBuf::from(flag_value(&mut it, a))),
            "--tenants" => f.tenants = parse_or_die(flag_value(&mut it, a), a),
            "--kill-after-acks" => f.kill_after_acks = parse_or_die(flag_value(&mut it, a), a),
            "--post-acks" => f.post_acks = parse_or_die(flag_value(&mut it, a), a),
            "--smoke" => f.smoke = true,
            _ => usage(),
        }
    }
    if f.bundle.as_os_str().is_empty() {
        usage()
    }
    if f.smoke {
        f.kill_after_acks = f.kill_after_acks.min(15);
        f.post_acks = f.post_acks.min(4);
    }
    if f.tenants == 0 {
        usage()
    }
    f
}

fn launch(f: &Flags, wal: &Path) -> (Child, u16) {
    let os = OsStr::new;
    let args = [
        os("run"),
        os("--bundle"),
        f.bundle.as_os_str(),
        os("--addr"),
        os("127.0.0.1:0"),
        os("--workers"),
        os("2"),
        os("--wal"),
        wal.as_os_str(),
        os("--fsync"),
        os("always"),
        os("--compact-every"),
        os("0"),
    ];
    client::spawn_server(&f.server_bin, args).unwrap_or_else(|e| fail(e))
}

/// One metered embed request; returns the HTTP status (0 on I/O error —
/// connection errors around the kill are expected, not acks).
fn metered_embed(port: u16, tenant: &str, node: u64) -> u16 {
    let body = format!("{{\"nodes\": [{node}]}}");
    let tenant_hdr = [("X-Privim-Tenant", tenant)];
    exchange(port, "POST", "/v1/embed", &tenant_hdr, &body).map_or(0, |r| r.status)
}

/// Recovered spend of `tenant`; a missing series is an error, since
/// reading it as zero could hide an undercharge.
fn tenant_spend(port: u16, tenant: &str) -> Result<u64, String> {
    scrape_counter(port, &format!("privim_tenant_queries_total{{tenant=\"{tenant}\"}}"))
}

fn main() {
    let f = parse_flags();
    let wal = f
        .wal
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("{}.wal", f.bundle.display())));
    let _ = std::fs::remove_file(&wal);

    println!("chaos_serve: phase 1 — serve and acknowledge charges");
    let (mut child, port) = launch(&f, &wal);

    // Concurrent metered clients; only fully-read 2xx responses count as
    // acknowledged. acks[t] is monotone and updated *before* the driver
    // can observe the threshold, so every counted ack precedes the kill.
    let acks: Arc<Vec<AtomicU64>> = Arc::new((0..f.tenants).map(|_| AtomicU64::new(0)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let acks = Arc::clone(&acks);
            let stop = Arc::clone(&stop);
            let tenants = f.tenants;
            std::thread::spawn(move || {
                let mut i = w as u64;
                while !stop.load(Ordering::Acquire) {
                    let t = (i % tenants as u64) as usize;
                    if metered_embed(port, &format!("tenant-{t}"), i % 7) == 200 {
                        acks[t].fetch_add(1, Ordering::AcqRel);
                    }
                    i += 2;
                }
            })
        })
        .collect();
    let total = |acks: &[AtomicU64]| -> u64 { acks.iter().map(|a| a.load(Ordering::Acquire)).sum() };
    let mut spins = 0u64;
    while total(&acks) < f.kill_after_acks {
        std::thread::sleep(Duration::from_millis(10));
        spins += 1;
        if spins > 6000 {
            abort(
                &mut child,
                format!(
                    "only {} acks after 60s (wanted {}) — server not admitting",
                    total(&acks),
                    f.kill_after_acks
                ),
            );
        }
    }

    println!("chaos_serve: phase 2 — SIGKILL mid-traffic");
    child
        .kill()
        .unwrap_or_else(|e| fail(format!("killing server: {e}")));
    let _ = child.wait();
    stop.store(true, Ordering::Release);
    for w in writers {
        let _ = w.join();
    }
    let acked: BTreeMap<String, u64> = (0..f.tenants)
        .map(|t| (format!("tenant-{t}"), acks[t].load(Ordering::Acquire)))
        .collect();
    let acked_total: u64 = acked.values().sum();
    println!("  {acked_total} charges acknowledged before the kill: {acked:?}");

    println!("chaos_serve: phase 3 — restart on the same bundle + journal");
    let (mut child, port) = launch(&f, &wal);
    let mut violations = 0u64;
    // A tenant with no acknowledged charge has nothing to recover (and
    // no series to read).
    for (tenant, &n) in acked.iter().filter(|(_, &n)| n > 0) {
        let recovered = tenant_spend(port, tenant).unwrap_or_else(|e| abort(&mut child, e));
        let verdict = if recovered >= n { "ok" } else { "UNDERCHARGE" };
        println!("  {tenant}: acked {n}, recovered {recovered} — {verdict}");
        if recovered < n {
            violations += 1;
        }
    }
    if violations > 0 {
        abort(
            &mut child,
            format!("{violations} tenant(s) lost acknowledged charges across kill-9"),
        );
    }

    println!("chaos_serve: phase 4 — serving resumes and keeps charging");
    let before = tenant_spend(port, "tenant-0").unwrap_or_else(|e| abort(&mut child, e));
    let mut post = 0u64;
    let mut attempts = 0u64;
    while post < f.post_acks {
        attempts += 1;
        if attempts > 50 * f.post_acks {
            abort(&mut child, "restarted server stopped admitting metered traffic");
        }
        if metered_embed(port, "tenant-0", attempts % 7) == 200 {
            post += 1;
        }
    }
    let after = tenant_spend(port, "tenant-0").unwrap_or_else(|e| abort(&mut child, e));
    if after < before + post {
        abort(
            &mut child,
            format!("post-restart spend {after} < recovered {before} + {post} new acks"),
        );
    }
    let _ = child.kill();
    let _ = child.wait();
    println!(
        "chaos_serve: PASS — {acked_total} pre-kill acks all recovered; \
         tenant-0 kept charging ({before} -> {after})"
    );
}

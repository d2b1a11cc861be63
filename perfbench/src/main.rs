//! `privim-perfbench` — the repository benchmark.
//!
//! ```text
//! privim-perfbench --server-bin <privim-serve> --workload <train-lastfm|serve-read|serve-metered>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric, then a JSON result object as the last line
//! of stdout. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones (see `report.rs`). `perfbench/run.sh` builds both
//! binaries and runs this with the server path filled in.

mod loadgen;
mod report;
mod serve;
mod server;
mod stats;
mod sys;
mod train;

use std::path::PathBuf;
use std::process::exit;

/// Compute threads (`privim_rt::par`) of the harness and of the server
/// process. Results are bit-identical at any thread count. One thread
/// keeps wall time from depending on whether a shared host grants both
/// cores at once, and leaves the load generator a core on 2-core machines.
pub const COMPUTE_THREADS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: privim-perfbench --server-bin <path> --workload \
         <train-lastfm|serve-read|serve-metered> --seed <n> --seconds <s> --trace <0|1>"
    );
    exit(2)
}

fn bad(flag: &str, val: &str) -> ! {
    usage(&format!("bad value {val:?} for {flag}"))
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        server_bin: PathBuf::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().unwrap_or_else(|_| bad(flag, val)),
            "--seconds" => a.seconds = val.parse().unwrap_or_else(|_| bad(flag, val)),
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(flag, val),
                }
            }
            "--server-bin" => a.server_bin = PathBuf::from(val),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        usage("--seconds must be positive");
    }
    a
}

fn main() {
    let a = parse_args();
    privim_rt::par::set_threads(COMPUTE_THREADS);
    let outcome = match a.workload.as_str() {
        "train-lastfm" => train::run(a.seed, a.seconds, a.trace),
        "serve-read" | "serve-metered" => {
            let kind = if a.workload == "serve-read" {
                serve::Kind::Read
            } else {
                serve::Kind::Metered
            };
            if !a.server_bin.is_file() {
                usage(&format!("no server binary at {:?}", a.server_bin));
            }
            // Scratch space inside the working directory, removed after.
            let work =
                PathBuf::from(".bench_work").join(format!("{}-{}", a.workload, std::process::id()));
            if let Err(e) = std::fs::create_dir_all(&work) {
                eprintln!("perfbench: cannot create {}: {e}", work.display());
                exit(1);
            }
            let o = serve::run(kind, a.seed, a.seconds, a.trace, &a.server_bin, &work);
            let _ = std::fs::remove_dir_all(&work);
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(".bench_work");
            o
        }
        other => usage(&format!("unknown workload {other:?}")),
    };
    if outcome.attempted == 0 {
        for p in &outcome.problems {
            eprintln!("perfbench: {p}");
        }
        eprintln!("perfbench: nothing was measured");
        exit(1);
    }
    outcome.print(a.trace);
}

#![warn(missing_docs)]
//! # privim-bench
//!
//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §4 for the experiment ↔ binary
//! index). Each binary:
//!
//! 1. parses the common flags (`--scale`, `--reps`, `--k`, `--eps`,
//!    `--dataset`, `--out`, `--fast`, `--seed`),
//! 2. generates the calibrated dataset(s),
//! 3. runs the methods and prints the paper's rows/series, and
//! 4. optionally writes machine-readable JSON next to the pretty output.
//!
//! The serving gates (`smoke_serve`, `slowloris_serve`, `chaos_serve`)
//! share its flag parsing ([`flag_value`], [`parse_or_die`]), its exits
//! ([`die`] for usage, [`fail`]/[`abort`] for a gate verdict) and
//! [`scrape_counter`].

use privim::pipeline::PipelineParams;
use privim_graph::datasets::Dataset;
use std::path::PathBuf;

pub mod runner;
pub use runner::{must_run, CellOutcome, CellRunner};

/// Common experiment arguments. Parse with [`ExpArgs::parse_env`].
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Dataset-size multiplier applied on top of each dataset's default
    /// scale (1.0 = the paper's published size, Friendster excepted).
    pub scale: f64,
    /// Replicates per configuration (the paper uses 5).
    pub reps: u64,
    /// Seed-set size `k` (paper: 50).
    pub k: usize,
    /// Privacy budgets to sweep.
    pub eps: Vec<f64>,
    /// Datasets to run (default: the paper's six).
    pub datasets: Vec<Dataset>,
    /// JSON output path.
    pub out: Option<PathBuf>,
    /// Fast mode: smaller graphs and training budgets for smoke runs.
    pub fast: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            scale: 1.0,
            reps: 5,
            k: 50,
            eps: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            datasets: Dataset::MAIN_SIX.to_vec(),
            out: None,
            fast: false,
            seed: 42,
        }
    }
}

impl ExpArgs {
    /// Parse from `std::env::args()`. Unknown flags abort with usage help.
    pub fn parse_env() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&argv)
    }

    /// Parse from an explicit argument list (tests).
    pub fn parse(argv: &[String]) -> Self {
        let mut args = ExpArgs::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => args.scale = parse_or_die(flag_value(&mut it, "--scale"), "--scale"),
                "--reps" => args.reps = parse_or_die(flag_value(&mut it, "--reps"), "--reps"),
                "--k" => args.k = parse_or_die(flag_value(&mut it, "--k"), "--k"),
                "--seed" => args.seed = parse_or_die(flag_value(&mut it, "--seed"), "--seed"),
                "--eps" => {
                    let v = flag_value(&mut it, "--eps");
                    args.eps = v.split(',').map(|s| parse_or_die(s, "--eps")).collect();
                }
                "--dataset" | "--datasets" => {
                    let v = flag_value(&mut it, "--dataset");
                    args.datasets = v
                        .split(',')
                        .map(|s| {
                            Dataset::from_name(s)
                                .unwrap_or_else(|| die(&format!("unknown dataset {s}")))
                        })
                        .collect();
                }
                "--out" => args.out = Some(PathBuf::from(flag_value(&mut it, "--out"))),
                "--fast" => args.fast = true,
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                other => die(&format!("unknown flag {other}\n{USAGE}")),
            }
        }
        args
    }

    /// Effective generation scale for a dataset: its default (full size,
    /// Friendster scaled) times `--scale`, shrunk further in `--fast` mode.
    pub fn dataset_scale(&self, d: Dataset) -> f64 {
        let base = d.default_scale() * self.scale;
        if self.fast {
            base * 0.05
        } else {
            base
        }
    }

    /// Pipeline parameters for a graph, with the `--fast` training budget
    /// reduction applied.
    pub fn pipeline_params(&self, num_nodes: usize) -> PipelineParams {
        let mut p = PipelineParams::paper_defaults(num_nodes);
        if self.fast {
            p.iters = 15;
            p.batch = 8;
            p.hidden = 16;
        }
        p
    }

    /// Write `rows` as pretty JSON to `--out` if given. Writes are atomic
    /// (tmp + rename), so a crash mid-write never leaves a truncated file.
    pub fn write_json<T: privim_rt::json::ToJson + ?Sized>(&self, rows: &T) {
        if let Some(path) = &self.out {
            let json = rows.to_json().to_json_string_pretty();
            privim::results::write_atomic(path, &json)
                .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
            eprintln!("wrote {}", path.display());
        }
    }
}

const USAGE: &str = "common flags:
  --scale <f64>        dataset size multiplier (default 1.0)
  --reps <u64>         replicates per configuration (default 5)
  --k <usize>          seed set size (default 50)
  --eps <list>         comma-separated privacy budgets (default 1..6)
  --dataset <list>     comma-separated dataset names (default the main six)
  --out <path>         write JSON results
  --fast               smoke mode: tiny graphs + short training
  --seed <u64>         base RNG seed (default 42)";

/// Usage error: print `error: {msg}` and exit 2.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Parse a flag's value, or [`die`] naming the flag.
pub fn parse_or_die<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.trim()
        .parse()
        .unwrap_or_else(|_| die(&format!("cannot parse {flag} value {s:?}")))
}

/// The argument after `flag`, or [`die`] when there is none.
pub fn flag_value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> &'a str {
    it.next().unwrap_or_else(|| die(&format!("{flag} needs a value")))
}

/// A gate's verdict: print `FAIL: {msg}` and exit 1 (distinct from the
/// usage exit code 2 of [`die`]).
pub fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// [`fail`], after killing the server process the gate spawned.
pub fn abort(server: &mut std::process::Child, msg: impl std::fmt::Display) -> ! {
    let _ = server.kill();
    let _ = server.wait();
    fail(msg)
}

/// One series from the `/metrics` page of the server on `port`. A failed
/// scrape or a missing series is an error, never a zero that could pass
/// a gate's check vacuously.
pub fn scrape_counter(port: u16, series: &str) -> Result<u64, String> {
    let text = privim_serve::client::scrape_metrics(port)
        .map_err(|e| format!("scraping /metrics: {e}"))?;
    privim_serve::metrics::parse_counter(&text, series)
        .ok_or_else(|| format!("/metrics has no {series}"))
}

/// Print a Markdown-ish table: header row + aligned columns.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(4)))
            .collect();
        println!("| {} |", joined.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&sep);
    for row in rows {
        line(row);
    }
}

/// Mean ± std formatter matching Table II (`93.76 ± 0.73`).
pub fn fmt_mean_std(values: &[f64]) -> String {
    let (m, s) = privim_im::metrics::mean_std(values);
    format!("{m:.2} ± {s:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> ExpArgs {
        ExpArgs::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_match_paper() {
        let a = parse(&[]);
        assert_eq!(a.reps, 5);
        assert_eq!(a.k, 50);
        assert_eq!(a.eps, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.datasets.len(), 6);
    }

    #[test]
    fn parses_lists() {
        let a = parse(&["--eps", "1,4", "--dataset", "lastfm,gowalla", "--fast"]);
        assert_eq!(a.eps, vec![1.0, 4.0]);
        assert_eq!(a.datasets, vec![Dataset::LastFm, Dataset::Gowalla]);
        assert!(a.fast);
    }

    #[test]
    fn fast_mode_shrinks_budget() {
        let a = parse(&["--fast"]);
        let p = a.pipeline_params(10_000);
        assert!(p.iters < 60);
        assert!(a.dataset_scale(Dataset::LastFm) < 0.1);
    }

    #[test]
    fn fmt_mean_std_rounds() {
        assert_eq!(fmt_mean_std(&[1.0, 2.0, 3.0]), "2.00 ± 0.82");
    }
}

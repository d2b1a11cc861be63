//! Metric names, the run outcome, and the result line.

use privim_rt::json::Value;

/// End-to-end metrics, reported by every workload with `--trace 0`. Each
/// workload's "operation" is what its user waits for: a whole
/// `run_method` call for `train-lastfm`, one HTTP request for the serve
/// workloads.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("p50_ms", "ms"), ("cpu_us_per_op", "us")];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("graph.generate_s", "s"),
    ("graph.eval_setup_s", "s"),
    ("sampling.dual_stage_s", "s"),
    ("sampling.container_size", "count"),
    ("sampling.max_occurrence", "count"),
    ("dp.calibrate_sigma_s", "s"),
    ("dp.sigma", "ratio"),
    ("dp.noise_us_per_step", "us"),
    ("trainer.items_s", "s"),
    ("trainer.train_dpgnn_s", "s"),
    ("trainer.samples_per_s", "1/s"),
    ("trainer.clipped_fraction", "ratio"),
    ("trainer.recoveries", "count"),
    ("train.coverage_pct", "%"),
    ("gnn.fwd_bwd_us_per_sample", "us"),
    ("tensor.clip_us_per_sample", "us"),
    ("gnn.score_graph_ms", "ms"),
    ("im.eval_s", "s"),
    ("im.ic_spread_us", "us"),
    ("im.lazy_greedy_extend_us", "us"),
    ("serve.http.parse_us", "us"),
    ("serve.reactor.wakeups_per_req", "count"),
    ("serve.conn.keepalive_reuses", "count"),
    ("serve.conn.pipeline_depth_mean", "count"),
    ("serve.queue.depth_peak", "count"),
    ("serve.shed", "count"),
    ("serve.batch.forward_passes", "count"),
    ("serve.batch.requests_per_pass", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.put_us", "us"),
    ("serve.ledger.admit_us", "us"),
    ("serve.ledger.admitted", "count"),
    ("serve.ledger.denied", "count"),
    ("serve.wal.appends_per_req", "count"),
    ("serve.wal.append_fsync_us", "us"),
    ("server.embed.mean_us", "us"),
    ("server.influence.mean_us", "us"),
    ("server.seeds.mean_us", "us"),
    ("client.embed.p50_ms", "ms"),
    ("client.embed.p99_ms", "ms"),
    ("client.influence.p50_ms", "ms"),
    ("client.influence.p99_ms", "ms"),
    ("client.seeds.p50_ms", "ms"),
    ("client.seeds.p99_ms", "ms"),
    ("client.sched_lag_max_ms", "ms"),
    ("client.sched_lag_p99_ms", "ms"),
    ("client.cpu_us_per_req", "us"),
    ("trace.overhead_pct", "%"),
];

/// Metric values by name, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Set (or overwrite) one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Everything a run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Of those, how many failed (non-2xx, shed, timeout, connection
    /// error, or a training error).
    pub failed: u64,
    pub metrics: Metrics,
    /// Correctness problems; any one makes the run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Record `msg` as a problem unless `ok` (first occurrence only).
    pub fn check(&mut self, ok: bool, msg: &str) {
        if !ok && !self.problems.iter().any(|p| p == msg) {
            self.problems.push(msg.to_string());
        }
    }

    /// Print one line per metric, then the result object as the last
    /// line of stdout. Per-layer metrics a workload left unset are 0.
    pub fn print(mut self, trace: bool) {
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::new();
        for &(name, unit) in names {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    self.problems.push(format!("metric {name} is {v}"));
                    0.0
                }
                None if trace => 0.0,
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            println!("metric {name:<34} {value:>16.6} {unit}");
            fields.push((
                name,
                Value::obj(vec![
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(unit.into())),
                ]),
            ));
        }
        for p in &self.problems {
            eprintln!("perfbench: INCORRECT: {p}");
        }
        let doc = Value::obj(vec![
            ("correct", Value::Bool(self.problems.is_empty())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(fields)),
        ]);
        println!("{}", doc.to_json_string());
    }
}

//! `train-lastfm`: one PrivIM* run at ε = 3, k = 50, paper defaults, on
//! the LastFM-calibrated synthetic graph (Table III / Fig. 5 cell).
//!
//! Untraced, it times whole `run_method` calls. Traced, it rebuilds
//! PrivIM* from the crates' public functions with a span around each
//! call, checks that the composition reproduces `run_method`'s seeds and
//! σ exactly, and replays a fixed batch of per-sample steps to split a
//! DP-SGD step into forward/backward, clipping and noise.

use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::sys;
use privim::trainer::NoiseKind;
use privim::{
    im_loss, run_method, train_dpgnn, DpSgdConfig, EvalSetup, Method, MethodOutput, TrainItem,
};
use privim_dp::accountant::{calibrate_sigma, PrivacyParams};
use privim_dp::mechanisms::gaussian_noise_vec;
use privim_dp::sensitivity::node_sensitivity;
use privim_gnn::{GnnConfig, GnnKind, GnnModel, FEATURE_DIM};
use privim_graph::datasets::Dataset;
use privim_graph::NodeId;
use privim_im::{coverage_ratio, heuristics::score_top_k, one_step_spread};
use privim_rt::{ChaCha8Rng, Rng, SeedableRng};
use privim_sampling::{dual_stage_sampling, DualStageConfig, FreqConfig};
use privim_serve::graph_fingerprint;
use privim_tensor::{GradClip, Tape};
use std::time::{Duration, Instant};

const EPSILON: f64 = 3.0;
/// Generator seed of the LastFM-calibrated graph and its train/test
/// split: the dataset is fixed, as the real LastFM graph is in the paper.
/// `--seed` picks which replicates (DP-SGD randomness) a run trains.
const DATASET_SEED: u64 = 2024;
const K: usize = 50;
/// Set-ups timed before the first training call; one more follows every
/// call, so the `setup_s` median samples the whole run.
const SETUPS_BEFORE: usize = 5;
/// Fewest timed `run_method` calls per run, however short `--seconds`.
const MIN_REPS: usize = 3;
/// Passes over the replay batch; per-sample costs are the median pass.
const REPLAY_PASSES: usize = 5;

fn method() -> Method {
    Method::PrivImStar { epsilon: EPSILON }
}

/// Repeated, timed set-ups (graph generation, then `EvalSetup`: split +
/// CELF reference). Every repetition must rebuild the same graph and
/// reference.
struct SetupTimes {
    fingerprint: u64,
    celf: Vec<NodeId>,
    generate_s: Vec<f64>,
    eval_setup_s: Vec<f64>,
}

impl SetupTimes {
    fn new(setup: &EvalSetup<'_>) -> Self {
        SetupTimes {
            fingerprint: graph_fingerprint(setup.graph),
            celf: setup.celf_seeds.clone(),
            generate_s: Vec::new(),
            eval_setup_s: Vec::new(),
        }
    }

    fn sample(&mut self, out: &mut Outcome) {
        let t0 = Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(DATASET_SEED);
        let g = Dataset::LastFm.generate(&mut rng);
        let generate = t0.elapsed();
        let setup = EvalSetup::paper_defaults(&g, K, &mut rng);
        let eval = t0.elapsed() - generate;
        out.check(
            graph_fingerprint(&g) == self.fingerprint && setup.celf_seeds == self.celf,
            "set-up is not deterministic",
        );
        self.generate_s.push(generate.as_secs_f64());
        self.eval_setup_s.push(eval.as_secs_f64());
    }

    fn total_median(&self) -> f64 {
        let totals: Vec<f64> = self
            .generate_s
            .iter()
            .zip(&self.eval_setup_s)
            .map(|(a, b)| a + b)
            .collect();
        median(&totals)
    }
}

/// Checks every `run_method` output must pass on its own.
fn check_output(o: &MethodOutput, setup: &EvalSetup<'_>, out: &mut Outcome) {
    out.check(
        o.epsilon == Some(EPSILON),
        "reported ε differs from the target",
    );
    out.check(
        o.seeds.len() == K,
        "run_method returned the wrong number of seeds",
    );
    let spread = one_step_spread(setup.graph, &o.seeds) as f64;
    out.check(
        spread.to_bits() == o.spread.to_bits(),
        "reported spread is not the seeds' spread",
    );
    let cr = coverage_ratio(spread, setup.celf_spread);
    out.check(
        cr.to_bits() == o.coverage_ratio.to_bits(),
        "reported coverage does not match",
    );
    out.check(
        o.sigma.is_finite() && o.sigma > 0.0,
        "σ is not a positive number",
    );
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = ChaCha8Rng::seed_from_u64(DATASET_SEED);
    let g = Dataset::LastFm.generate(&mut rng);
    let setup = EvalSetup::paper_defaults(&g, K, &mut rng);
    let mut setups = SetupTimes::new(&setup);
    for _ in 0..SETUPS_BEFORE {
        setups.sample(&mut out);
    }
    // Replicate ids of this run: seed-chosen, distinct across seeds.
    let rep0 = seed.wrapping_mul(1_000);
    if trace {
        traced(&setup, rep0, &setups, &mut out);
    } else {
        untraced(&setup, rep0, &mut setups, seconds, &mut out);
    }
    out
}

fn untraced(
    setup: &EvalSetup<'_>,
    rep0: u64,
    setups: &mut SetupTimes,
    seconds: f64,
    out: &mut Outcome,
) {
    // Untimed warm-up that doubles as a check: the public-function
    // composition of the first replicate, compared below with
    // `run_method`'s.
    let composed = compose(setup, rep0, &mut Spans::default());
    let t_window = Instant::now();
    let (mut times_ms, mut cpu) = (Vec::new(), Duration::ZERO);
    let mut rep = rep0;
    while times_ms.len() < MIN_REPS || t_window.elapsed().as_secs_f64() < seconds {
        out.attempted += 1;
        let cpu0 = sys::process_cpu(None);
        let t = Instant::now();
        let r = run_method(method(), setup, rep);
        let dt = t.elapsed();
        if let (Some(a), Some(b)) = (cpu0, sys::process_cpu(None)) {
            cpu += b.saturating_sub(a);
        }
        match r {
            Ok(o) => {
                times_ms.push(dt.as_secs_f64() * 1e3);
                check_output(&o, setup, out);
                if rep == rep0 {
                    match &composed {
                        Ok(c) => compare(c, &o, out),
                        Err(e) => out.problem(format!("composition: {e}")),
                    }
                }
            }
            Err(e) => {
                out.failed += 1;
                out.problem(format!("run_method rep {rep}: {e}"));
            }
        }
        setups.sample(out);
        rep += 1;
    }
    let mut sorted = times_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let m = &mut out.metrics;
    m.set("setup_s", setups.total_median());
    m.set("p50_ms", percentile(&sorted, 50.0));
    m.set(
        "cpu_us_per_op",
        cpu.as_secs_f64() * 1e6 / times_ms.len().max(1) as f64,
    );
    println!(
        "train-lastfm: {} run_method call(s); train_s = {:.4} s (median); coverage of the first: see --trace 1",
        times_ms.len(),
        percentile(&sorted, 50.0) / 1e3
    );
}

/// In-memory spans around each call into a layer, printed when the run
/// ends. Spans run one after another under the run's root, so each one's
/// self time is its duration.
#[derive(Default)]
pub struct Spans {
    origin: Option<Instant>,
    spans: Vec<(&'static str, Duration, Duration)>,
}

impl Spans {
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let origin = *self.origin.get_or_insert_with(Instant::now);
        let t = Instant::now();
        let v = f();
        self.spans.push((name, t - origin, t.elapsed()));
        v
    }

    pub fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, _, d)| d.as_secs_f64())
            .sum()
    }

    pub fn total(&self) -> Duration {
        self.spans.iter().map(|(_, _, d)| *d).sum()
    }

    pub fn print(&self) {
        for (n, start, d) in &self.spans {
            println!(
                "span {n:<28} start {:>10.3} ms  took {:>10.3} ms",
                start.as_secs_f64() * 1e3,
                d.as_secs_f64() * 1e3
            );
        }
    }
}

/// What the composition produced, for comparison with `run_method`.
pub struct Composed {
    seeds: Vec<NodeId>,
    sigma: f64,
    container_size: usize,
    max_occurrence: u32,
    clipped_fraction: f64,
    recoveries: usize,
    items: Vec<TrainItem>,
    model: GnnModel,
    train_cfg: DpSgdConfig,
}

/// PrivIM* from public functions, mirroring `run_method`'s PrivIM* path
/// call for call (and therefore RNG draw for RNG draw).
pub fn compose(setup: &EvalSetup<'_>, rep: u64, spans: &mut Spans) -> Result<Composed, String> {
    let p = &setup.params;
    let tg = &setup.train_graph.graph;
    let v_train = tg.num_nodes();
    let mut rng = ChaCha8Rng::seed_from_u64(0x9e3779b9u64.wrapping_mul(rep + 1));
    // `PipelineParams::sampling_rate` is private: q = starts / |V_train|, capped at 1.
    let q = (p.expected_starts as f64 / v_train.max(1) as f64).min(1.0);
    let cfg = DualStageConfig {
        stage1: FreqConfig {
            subgraph_size: p.subgraph_size,
            return_prob: p.return_prob,
            decay: p.decay,
            sampling_rate: q,
            walk_len: p.walk_len,
            threshold: p.threshold,
        },
        shrink: p.shrink,
        enable_bes: true,
    };
    let sampled = spans
        .time("dual_stage_sampling", || {
            dual_stage_sampling(tg, &cfg, &mut rng)
        })
        .map_err(|e| e.to_string())?;
    let container = sampled.container;
    if container.is_empty() {
        return Err("empty container: the degenerate-graph fallback is not composed".into());
    }
    let items = spans.time("TrainItem::from_container", || {
        TrainItem::from_container(&container.subgraphs)
    });
    let occurrence_bound = u64::from(p.threshold);
    let privacy = PrivacyParams {
        n_g: occurrence_bound.max(1),
        batch: p.batch as u64,
        container: container.len().max(1) as u64,
        steps: p.iters as u64,
    };
    let sigma = spans.time("calibrate_sigma", || {
        calibrate_sigma(EPSILON, p.delta, &privacy)
    });
    let mut model_rng = ChaCha8Rng::seed_from_u64(rng.gen());
    let mut model = spans.time("GnnModel::new", || {
        GnnModel::new(
            GnnConfig {
                kind: GnnKind::Grat,
                layers: p.layers,
                hidden: p.hidden,
                in_dim: FEATURE_DIM,
            },
            &mut model_rng,
        )
    });
    let train_cfg = DpSgdConfig {
        batch: p.batch,
        iters: p.iters,
        lr: p.lr,
        clip: p.clip,
        sigma,
        occurrence_bound,
        loss: p.loss,
        noise: NoiseKind::Gaussian,
        seed: rng.gen(),
        tail_average: true,
        weight_decay: 0.01,
        max_recoveries: 8,
        fault: None,
    };
    let report = spans
        .time("train_dpgnn", || {
            train_dpgnn(&mut model, &items, &train_cfg)
        })
        .map_err(|e| e.to_string())?;
    let scores = spans.time("score_graph", || model.score_graph(setup.graph));
    let seeds = spans.time("score_top_k+one_step_spread", || {
        let seeds = score_top_k(&scores, setup.k);
        std::hint::black_box(one_step_spread(setup.graph, &seeds));
        seeds
    });
    Ok(Composed {
        seeds,
        sigma,
        container_size: container.len(),
        max_occurrence: container.max_occurrence(),
        clipped_fraction: report.clipped_fraction,
        recoveries: report.recoveries.len(),
        items,
        model,
        train_cfg,
    })
}

fn compare(c: &Composed, o: &MethodOutput, out: &mut Outcome) {
    out.check(
        c.seeds == o.seeds,
        "composed seeds differ from run_method's",
    );
    out.check(
        c.sigma.to_bits() == o.sigma.to_bits(),
        "composed σ differs from run_method's",
    );
    out.check(
        c.container_size == o.container_size && c.max_occurrence == o.max_occurrence,
        "composed container differs from run_method's",
    );
}

fn traced(setup: &EvalSetup<'_>, rep0: u64, setups: &SetupTimes, out: &mut Outcome) {
    // The first call warms the process up; the traced composition and an
    // untraced repeat then run warm, back to back.
    out.attempted += 1;
    let reference = match run_method(method(), setup, rep0) {
        Ok(o) => o,
        Err(e) => {
            out.failed += 1;
            out.problem(format!("run_method: {e}"));
            return;
        }
    };
    check_output(&reference, setup, out);
    let mut spans = Spans::default();
    let c = match compose(setup, rep0, &mut spans) {
        Ok(c) => c,
        Err(e) => {
            out.problem(format!("composition: {e}"));
            return;
        }
    };
    compare(&c, &reference, out);
    spans.print();
    let traced = spans.total();
    let t = Instant::now();
    match run_method(method(), setup, rep0) {
        Ok(again) => out.check(
            again.seeds == reference.seeds,
            "run_method is not deterministic",
        ),
        Err(e) => out.problem(format!("run_method: {e}")),
    }
    let untraced = t.elapsed();
    let (fwd_bwd_us, clip_us, noise_us) = replay(&c);
    let p = &setup.params;
    let train_s = spans.secs("train_dpgnn");
    let m = &mut out.metrics;
    m.set("graph.generate_s", median(&setups.generate_s));
    m.set("graph.eval_setup_s", median(&setups.eval_setup_s));
    m.set("sampling.dual_stage_s", spans.secs("dual_stage_sampling"));
    m.set("sampling.container_size", c.container_size as f64);
    m.set("sampling.max_occurrence", f64::from(c.max_occurrence));
    m.set("dp.calibrate_sigma_s", spans.secs("calibrate_sigma"));
    m.set("dp.sigma", c.sigma);
    m.set("dp.noise_us_per_step", noise_us);
    m.set("trainer.items_s", spans.secs("TrainItem::from_container"));
    m.set("trainer.train_dpgnn_s", train_s);
    m.set(
        "trainer.samples_per_s",
        (p.batch * p.iters) as f64 / train_s,
    );
    m.set("trainer.clipped_fraction", c.clipped_fraction);
    m.set("trainer.recoveries", c.recoveries as f64);
    m.set("train.coverage_pct", reference.coverage_ratio);
    m.set("gnn.fwd_bwd_us_per_sample", fwd_bwd_us);
    m.set("tensor.clip_us_per_sample", clip_us);
    m.set("gnn.score_graph_ms", spans.secs("score_graph") * 1e3);
    m.set("im.eval_s", spans.secs("score_top_k+one_step_spread"));
    m.set(
        "trace.overhead_pct",
        (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0,
    );
    println!(
        "train-lastfm traced: untraced run_method {:.4} s, traced composition {:.4} s",
        untraced.as_secs_f64(),
        traced.as_secs_f64()
    );
}

/// Per-sample forward+backward and clipping over one fixed batch (the
/// first `B` container items), and one step's noise draw over every
/// model parameter: median µs over [`REPLAY_PASSES`] passes.
fn replay(c: &Composed) -> (f64, f64, f64) {
    let cfg = &c.train_cfg;
    let batch = &c.items[..cfg.batch.min(c.items.len())];
    let n_params: usize = c.model.params().iter().map(|p| p.data().len()).sum();
    let sensitivity = node_sensitivity(cfg.clip, cfg.occurrence_bound.max(1));
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let (mut fb, mut cl, mut nz) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPLAY_PASSES {
        let (mut fb_t, mut cl_t) = (Duration::ZERO, Duration::ZERO);
        for item in batch {
            let t = Instant::now();
            let mut grads = Tape::with_scratch(|tape| {
                let (probs, pvars) = c.model.forward(tape, &item.gt, &item.x);
                let loss = im_loss(tape, &item.gt, probs, &cfg.loss);
                let mut g = tape.backward(loss);
                pvars.iter().map(|&v| g.take(v)).collect::<Vec<_>>()
            });
            fb_t += t.elapsed();
            let t = Instant::now();
            std::hint::black_box(GradClip::clip(&mut grads, cfg.clip));
            cl_t += t.elapsed();
        }
        let n = batch.len().max(1) as f64;
        fb.push(fb_t.as_secs_f64() * 1e6 / n);
        cl.push(cl_t.as_secs_f64() * 1e6 / n);
        let t = Instant::now();
        std::hint::black_box(gaussian_noise_vec(
            n_params,
            cfg.sigma,
            sensitivity,
            &mut rng,
        ));
        nz.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (median(&fb), median(&cl), median(&nz))
}

//! Kernel micro-benchmarks: the first point of the perf trajectory.
//!
//! Times the tensor primitives the DP-SGD hot path bottoms out in —
//! `Matrix::matmul` (large and at per-sample paper shapes, including the
//! matrix–vector path), `Matrix::transpose_matmul`, `Matrix::transpose`,
//! the fused GAT/GRAT attention kernel behind `Tape::attention` (forward
//! + backward),
//! `Csr::spmm`, `Csr::spmm_transpose`,
//! the `simd` reductions (`dot`, `sum`), the DP-SGD clip loop and one
//! whole DP-SGD step — in several configurations per kernel:
//!
//! * **naive** — the pre-tiling seed kernel (re-implemented here verbatim),
//! * **per backend** — the current kernel pinned to each SIMD backend the
//!   CPU supports (`scalar` always, then `sse2`/`avx2`/`neon` as detected),
//!   serial (`set_threads(1)`),
//! * **serial** — the current kernel under the default (`PRIVIM_SIMD`
//!   env / auto) backend at 1 thread,
//! * **par4** — the same on the persistent pool at `set_threads(4)`.
//!
//! Before any timing, every kernel's output is asserted *bit-identical*
//! across backends and thread counts (and against its naive reference
//! where one exists) — a benchmark of a wrong kernel is worse than no
//! benchmark. This is the determinism contract of `privim_tensor::simd`
//! (DESIGN.md §14) being re-proved on the bench's own inputs.
//!
//! A final section times the int8-quantized inference matmul
//! (`QuantWeights::matmul`) against the dense `f64` product and reports
//! the quantization error the integer path trades for its speed.
//!
//! All wall-clock reads go through `privim_rt::bench::time_iters` (the
//! workspace's single timing point, per the `wall-clock` lint rule).
//!
//! ```text
//! cargo run --release -p privim-bench --bin bench_kernels              # full, writes BENCH_kernels.json
//! cargo run --release -p privim-bench --bin bench_kernels -- --smoke  # tiny sizes, no file output
//! ```

use privim::{im_loss, train_dpgnn, DpSgdConfig, TrainItem};
use privim_dp::mechanisms::gaussian_noise_vec;
use privim_dp::sensitivity::node_sensitivity;
use privim_gnn::{GnnConfig, GnnModel};
use privim_graph::{generators, induced_subgraph};
use privim_rt::bench::time_iters;
use privim_rt::json::Value;
use privim_rt::{ChaCha8Rng, Rng, SeedableRng};
use privim_sampling::{freq_sampling, FreqConfig};
use privim_tensor::attention::{self, Normalise};
use privim_tensor::{simd, GradClip, Matrix, QuantWeights, SparseMatrix, Tape};

/// Seed-era dense kernel: plain `i → k → j` scalar loop with the zero-skip.
/// Term order per output element is k-ascending, exactly like the blocked
/// kernel — so the two must agree bitwise, not just approximately.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for kx in 0..k {
            let aik = a.get(i, kx);
            // exact zero-skip mirrors the production kernel so the
            // bit-identity assertion is meaningful
            if aik == 0.0 {
                continue;
            }
            let brow = b.row(kx);
            let orow = out.row_mut(i);
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
    out
}

/// Seed-era transpose: the plain double loop. A transpose is a pure
/// permutation, so any implementation is bit-identical by construction.
fn naive_transpose(a: &Matrix) -> Matrix {
    let (m, n) = a.shape();
    let mut out = Matrix::zeros(n, m);
    for i in 0..m {
        for (j, &v) in a.row(i).iter().enumerate() {
            out.row_mut(j)[i] = v;
        }
    }
    out
}

/// Seed-era `S·D` kernel: per output row, gather source rows in CSR
/// column order — the elementwise accumulation order the production spmm
/// preserves (its `axpy` never reassociates across elements).
fn naive_spmm(s: &SparseMatrix, dense: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(s.rows(), dense.cols());
    for r in 0..s.rows() {
        let (cols, vals) = s.row(r);
        let orow = out.row_mut(r);
        for (&c, &v) in cols.iter().zip(vals) {
            for (o, &dv) in orow.iter_mut().zip(dense.row(c as usize)) {
                *o += v * dv;
            }
        }
    }
    out
}

/// Seed-era `Aᵀ·D` kernel: scatter rows of `dense` into the output, source
/// rows ascending — the accumulation order the cached-transpose spmm
/// reproduces.
fn naive_spmm_transpose(s: &SparseMatrix, dense: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(s.cols(), dense.cols());
    for r in 0..s.rows() {
        let (cols, vals) = s.row(r);
        let drow: Vec<f64> = dense.row(r).to_vec();
        for (&c, &v) in cols.iter().zip(vals) {
            let orow = out.row_mut(c as usize);
            for (o, &dv) in orow.iter_mut().zip(&drow) {
                *o += v * dv;
            }
        }
    }
    out
}

/// GRAT attention arcs and the inputs of one attention layer.
struct AttentionCase {
    hw: Matrix,
    a_dst: Matrix,
    a_src: Matrix,
    /// Upstream gradient of the aggregate.
    up: Matrix,
    src: Vec<u32>,
    dst: Vec<u32>,
}

/// `[agg | dhw | d a_dst | d a_src]` flattened into one row, so a case
/// compares every output bit at once.
fn concat_outputs(parts: &[&Matrix]) -> Matrix {
    let data: Vec<f64> = parts.iter().flat_map(|m| m.data().iter().copied()).collect();
    Matrix::from_vec(1, data.len(), data)
}

/// The fused kernel as `Tape::attention` runs it: node-level scores,
/// forward, then backward for the upstream gradient `up` into a zeroed
/// `hw` gradient.
fn fused_attention(c: &AttentionCase) -> Matrix {
    let (src, dst) = (c.src.as_slice(), c.dst.as_slice());
    let (s_dst, s_src) = (c.hw.matmul(&c.a_dst), c.hw.matmul(&c.a_src));
    let f = attention::forward(&c.hw, &s_dst, &s_src, src, dst, Normalise::BySource);
    let mut dhw = Matrix::zeros(c.hw.rows(), c.hw.cols());
    let g = attention::backward(
        &c.hw,
        &c.a_dst,
        &c.a_src,
        src,
        dst,
        Normalise::BySource,
        &f.raw,
        &f.alpha,
        &c.up,
        Some(&mut dhw),
    );
    concat_outputs(&[&f.agg, &dhw, &g.a_dst, &g.a_src])
}

/// Seed-era attention: the eight generic tape ops (gather, matvec, add,
/// leaky ReLU, segment softmax, column broadcast, scatter) with their
/// per-arc `arcs × d` intermediates, forward and reverse sweep, each op
/// running the element operations it ran on the tape.
fn naive_attention(c: &AttentionCase) -> Matrix {
    let (hw, d) = (&c.hw, &c.up);
    let (n, cols) = hw.shape();
    let (src, dst): (&[u32], &[u32]) = (&c.src, &c.dst);
    let arcs = src.len();
    let gather = |idx: &[u32]| {
        let mut out = Matrix::zeros(arcs, cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(hw.row(r as usize));
        }
        out
    };
    let (src_f, dst_f) = (gather(src), gather(dst));
    let raw = dst_f.matmul(&c.a_dst).add(&src_f.matmul(&c.a_src));
    let e = raw.map(|x| if x > 0.0 { x } else { 0.2 * x });
    let (mut seg_max, mut seg_sum) = (vec![f64::NEG_INFINITY; n], vec![0.0f64; n]);
    for (i, &g) in src.iter().enumerate() {
        seg_max[g as usize] = seg_max[g as usize].max(e.get(i, 0));
    }
    let mut alpha = Matrix::zeros(arcs, 1);
    for (i, &g) in src.iter().enumerate() {
        let x = (e.get(i, 0) - seg_max[g as usize]).exp();
        alpha.set(i, 0, x);
        seg_sum[g as usize] += x;
    }
    for (i, &g) in src.iter().enumerate() {
        alpha.set(i, 0, alpha.get(i, 0) / seg_sum[g as usize]);
    }
    let mut msgs = src_f.clone();
    for i in 0..arcs {
        for x in msgs.row_mut(i) {
            *x *= alpha.get(i, 0);
        }
    }
    let mut agg = Matrix::zeros(n, cols);
    for (i, &r) in dst.iter().enumerate() {
        for (o, &m) in agg.row_mut(r as usize).iter_mut().zip(msgs.row(i)) {
            *o += m;
        }
    }
    // reverse sweep
    let mut d_src_f = Matrix::zeros(arcs, cols);
    for (i, &r) in dst.iter().enumerate() {
        for (o, &g) in d_src_f.row_mut(i).iter_mut().zip(d.row(r as usize)) {
            *o += g;
        }
    }
    let mut dalpha = Matrix::zeros(arcs, 1);
    for i in 0..arcs {
        let mut s = 0.0;
        for (&g, &h) in d_src_f.row(i).iter().zip(src_f.row(i)) {
            s += g * h;
        }
        dalpha.set(i, 0, s);
    }
    for i in 0..arcs {
        for x in d_src_f.row_mut(i) {
            *x *= alpha.get(i, 0);
        }
    }
    let mut seg_dot = vec![0.0f64; n];
    for (i, &g) in src.iter().enumerate() {
        seg_dot[g as usize] += dalpha.get(i, 0) * alpha.get(i, 0);
    }
    let mut draw = Matrix::zeros(arcs, 1);
    for (i, &g) in src.iter().enumerate() {
        let ds = alpha.get(i, 0) * (dalpha.get(i, 0) - seg_dot[g as usize]);
        draw.set(i, 0, if raw.get(i, 0) > 0.0 { ds } else { 0.2 * ds });
    }
    let ds_src = draw.scale(1.0);
    d_src_f.add_assign(&ds_src.matmul(&c.a_src.transpose()));
    let g_src = src_f.transpose_matmul(&ds_src);
    let d_dst_f = draw.matmul(&c.a_dst.transpose());
    let g_dst = dst_f.transpose_matmul(&draw);
    let mut dhw = Matrix::zeros(n, cols);
    for (idx, rows) in [(dst, &d_dst_f), (src, &d_src_f)] {
        for (i, &r) in idx.iter().enumerate() {
            for (o, &g) in dhw.row_mut(r as usize).iter_mut().zip(rows.row(i)) {
                *o += g;
            }
        }
    }
    concat_outputs(&[&agg, &dhw, &g_dst, &g_src])
}

/// A fixed synthetic container at the `train-lastfm` shape: up to 137
/// subgraphs of about 38 nodes, sampled by Algorithm 3 from a
/// Barabási–Albert graph.
fn synthetic_container(rng: &mut impl Rng) -> Vec<TrainItem> {
    let g = generators::barabasi_albert(3000, 3, rng).with_uniform_weights(1.0);
    let mut freq = vec![0u32; g.num_nodes()];
    let cfg = FreqConfig::paper_defaults(38, 4, g.num_nodes());
    let sets = freq_sampling(&g, &mut freq, &cfg, rng).unwrap_or_default();
    let subs: Vec<_> = sets
        .iter()
        .take(137)
        .map(|s| induced_subgraph(&g, s))
        .collect();
    TrainItem::from_container(&subs)
}

/// The model's parameters concatenated into one `1 × P` row.
fn flat_params(params: &[Matrix]) -> Matrix {
    let data: Vec<f64> = params.iter().flat_map(|p| p.data().to_vec()).collect();
    Matrix::from_vec(1, data.len(), data)
}

/// One DP-SGD step (Algorithm 2, lines 3–9) composed from public
/// functions, with one forward/backward pass per draw — the trainer before
/// it shared one gradient among a step's repeated draws. Returns the
/// updated parameters.
fn per_draw_step(model: &GnnModel, items: &[TrainItem], cfg: &DpSgdConfig) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let draws: Vec<usize> = (0..cfg.batch)
        .map(|_| rng.gen_range(0..items.len()))
        .collect();
    let mut summed: Vec<Matrix> = model
        .params()
        .iter()
        .map(|p| Matrix::zeros(p.rows(), p.cols()))
        .collect();
    for &i in &draws {
        let item = &items[i];
        let mut grads = Tape::with_scratch(|tape| {
            let (probs, pvars) = model.forward(tape, &item.gt, &item.x);
            let loss = im_loss(tape, &item.gt, probs, &cfg.loss);
            let mut g = tape.backward(loss);
            pvars.iter().map(|&v| g.take(v)).collect::<Vec<_>>()
        });
        GradClip::clip(&mut grads, cfg.clip);
        for (s, g) in summed.iter_mut().zip(&grads) {
            s.add_assign(g);
        }
    }
    let sensitivity = node_sensitivity(cfg.clip, cfg.occurrence_bound);
    for s in summed.iter_mut() {
        let noise = gaussian_noise_vec(s.data().len(), cfg.sigma, sensitivity, &mut rng);
        simd::add_assign(s.data_mut(), &noise);
    }
    let mut params = model.params().to_vec();
    for (p, g) in params.iter_mut().zip(&summed) {
        p.add_scaled_assign(g, -(cfg.lr / cfg.batch as f64));
        simd::scale(p.data_mut(), 1.0 - cfg.weight_decay);
    }
    flat_params(&params)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen::<f64>() - 0.5).collect(),
    )
}

fn assert_bit_identical(name: &str, a: &Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "{name}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data()).collect::<Vec<_>>().into_iter().enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{name}: bit mismatch at flat index {i}: {x:?} vs {y:?}"
        );
    }
}

/// The backends this CPU can actually run: `scalar` always, then every
/// wider backend whose forced resolution sticks.
fn available_backends() -> Vec<(simd::Choice, &'static str)> {
    let mut v: Vec<(simd::Choice, &'static str)> = vec![(simd::Choice::Scalar, "scalar")];
    for (c, n) in [
        (simd::Choice::Sse2, "sse2"),
        (simd::Choice::Avx2, "avx2"),
        (simd::Choice::Neon, "neon"),
    ] {
        simd::set_backend(Some(c));
        if simd::active().name() == n {
            v.push((c, n));
        }
    }
    simd::set_backend(None);
    v
}

struct CaseResult {
    name: String,
    shape: String,
    naive_secs: Option<f64>,
    /// Serial (1-thread) seconds per iteration, per pinned backend.
    backend_secs: Vec<(&'static str, f64)>,
    /// Serial under the default (env/auto) backend resolution.
    serial_secs: f64,
    par4_secs: f64,
    note: Option<&'static str>,
    /// Gradients computed per DP-SGD step (the `dpsgd_step` case only).
    gradients_per_step: Option<f64>,
}

impl CaseResult {
    fn scalar_secs(&self) -> Option<f64> {
        self.backend_secs
            .iter()
            .find(|(n, _)| *n == "scalar")
            .map(|&(_, s)| s)
    }

    fn best_simd_secs(&self) -> Option<f64> {
        self.backend_secs
            .iter()
            .filter(|(n, _)| *n != "scalar")
            .map(|&(_, s)| s)
            .fold(None, |acc: Option<f64>, s| Some(acc.map_or(s, |a| a.min(s))))
    }

    fn to_json(&self) -> Value {
        let speedup_tiling = self.naive_secs.map(|n| n / self.serial_secs);
        let speedup_simd = match (self.scalar_secs(), self.best_simd_secs()) {
            (Some(sc), Some(best)) => Some(sc / best),
            _ => None,
        };
        let mut fields = vec![
            ("kernel", Value::Str(self.name.clone())),
            ("shape", Value::Str(self.shape.clone())),
            (
                "naive_secs_per_iter",
                self.naive_secs.map_or(Value::Null, Value::Num),
            ),
            (
                "backend_secs_per_iter",
                Value::Obj(
                    self.backend_secs
                        .iter()
                        .map(|&(n, s)| (n.to_string(), Value::Num(s)))
                        .collect(),
                ),
            ),
            ("serial_secs_per_iter", Value::Num(self.serial_secs)),
            ("par4_secs_per_iter", Value::Num(self.par4_secs)),
            (
                "speedup_serial_vs_naive",
                speedup_tiling.map_or(Value::Null, Value::Num),
            ),
            (
                "speedup_simd_vs_scalar",
                speedup_simd.map_or(Value::Null, Value::Num),
            ),
            (
                "speedup_par4_vs_serial",
                Value::Num(self.serial_secs / self.par4_secs),
            ),
        ];
        if let Some(g) = self.gradients_per_step {
            fields.push(("gradients_per_step", Value::Num(g)));
        }
        if let Some(note) = self.note {
            fields.push(("note", Value::Str(note.to_string())));
        }
        Value::obj(fields)
    }
}

/// Time `f` under every available SIMD backend (serial), under the
/// default backend serially and at 4 threads, and optionally a naive
/// reference — asserting every configuration bit-identical first.
fn run_case(
    name: &str,
    shape: String,
    iters: u64,
    naive: Option<&dyn Fn() -> Matrix>,
    f: &dyn Fn() -> Matrix,
    note: Option<&'static str>,
) -> CaseResult {
    privim_rt::par::set_threads(1);
    simd::set_backend(Some(simd::Choice::Scalar));
    let scalar_out = f();
    if let Some(naive) = naive {
        assert_bit_identical(name, &naive(), &scalar_out);
    }
    let mut backend_secs: Vec<(&'static str, f64)> = Vec::new();
    for (choice, bname) in available_backends() {
        simd::set_backend(Some(choice));
        assert_bit_identical(name, &f(), &scalar_out);
        backend_secs.push((bname, time_iters(iters, f)));
    }
    simd::set_backend(None);
    privim_rt::par::set_threads(4);
    assert_bit_identical(name, &f(), &scalar_out);

    let naive_secs = naive.map(|naive| {
        privim_rt::par::set_threads(1);
        time_iters(iters, naive)
    });
    privim_rt::par::set_threads(1);
    let serial_secs = time_iters(iters, f);
    privim_rt::par::set_threads(4);
    let par4_secs = time_iters(iters, f);
    privim_rt::par::set_threads(0); // back to auto

    let result = CaseResult {
        name: name.to_string(),
        shape,
        naive_secs,
        backend_secs,
        serial_secs,
        par4_secs,
        note,
        gradients_per_step: None,
    };
    println!(
        "{:<30} {:>11} {:>11} {:>11} {:>11}   x{:.2} simd, x{:.2} par4",
        format!("{name} {}", result.shape),
        result.naive_secs.map_or_else(|| "-".into(), fmt_secs),
        result.scalar_secs().map_or_else(|| "-".into(), fmt_secs),
        fmt_secs(result.serial_secs),
        fmt_secs(result.par4_secs),
        result
            .scalar_secs()
            .zip(result.best_simd_secs())
            .map_or(1.0, |(sc, best)| sc / best),
        result.serial_secs / result.par4_secs,
    );
    result
}

fn fmt_secs(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.1} µs", secs * 1e6)
    } else {
        format!("{:.2} ms", secs * 1e3)
    }
}

/// Int8-quantized inference matmul vs the dense product: per-backend
/// timings (the integer contraction is exact, so bits must match across
/// backends) plus the quantization error against the dense result.
fn run_quant_case(iters: u64, a: &Matrix, b: &Matrix) -> Value {
    let (m, k) = a.shape();
    let n = b.cols();
    let qw = QuantWeights::quantize(b);

    privim_rt::par::set_threads(1);
    simd::set_backend(Some(simd::Choice::Scalar));
    let q_scalar = qw.matmul(a);
    let mut backend_secs: Vec<(&'static str, f64)> = Vec::new();
    for (choice, bname) in available_backends() {
        simd::set_backend(Some(choice));
        assert_bit_identical("quant_matmul", &qw.matmul(a), &q_scalar);
        backend_secs.push((bname, time_iters(iters, &|| qw.matmul(a))));
    }
    simd::set_backend(None);
    let dense_secs = time_iters(iters, &|| a.matmul(b));
    privim_rt::par::set_threads(0);

    let dense = a.matmul(b);
    let mut max_abs = 0.0f64;
    let mut err_sq = 0.0f64;
    let mut ref_sq = 0.0f64;
    for (&q, &d) in q_scalar.data().iter().zip(dense.data()) {
        let e = (q - d).abs();
        max_abs = max_abs.max(e);
        err_sq += e * e;
        ref_sq += d * d;
    }
    let rel_fro = if ref_sq > 0.0 { (err_sq / ref_sq).sqrt() } else { 0.0 };
    let best_int8 = backend_secs
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::INFINITY, f64::min);

    println!(
        "{:<30} {:>11} {:>11} {:>23}   x{:.2} int8 vs dense, rel_err {:.2e}",
        format!("quant_matmul {m}x{k}x{n}"),
        "-",
        fmt_secs(dense_secs),
        fmt_secs(best_int8),
        dense_secs / best_int8,
        rel_fro,
    );
    Value::obj(vec![
        ("kernel", Value::Str("quant_matmul".to_string())),
        ("shape", Value::Str(format!("{m}x{k}x{n}"))),
        (
            "backend_secs_per_iter",
            Value::Obj(
                backend_secs
                    .iter()
                    .map(|&(bn, s)| (bn.to_string(), Value::Num(s)))
                    .collect(),
            ),
        ),
        ("dense_secs_per_iter", Value::Num(dense_secs)),
        ("speedup_int8_vs_dense", Value::Num(dense_secs / best_int8)),
        ("max_abs_error", Value::Num(max_abs)),
        ("rel_frobenius_error", Value::Num(rel_fro)),
        (
            "note",
            Value::Str(
                "int8 path quantizes activations per row on the fly; error bound is \
                 per-column scale/2 per weight element (DESIGN.md §14)"
                    .to_string(),
            ),
        ),
    ])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = it.next().cloned(),
            other => {
                eprintln!("error: unknown flag {other} (flags: --smoke, --out <path>)");
                std::process::exit(2);
            }
        }
    }
    // Smoke mode exists for CI: prove the harness and the bit-identity
    // assertions hold, in well under a second, without touching the
    // checked-in trajectory file.
    let (iters, mm, tr, gn, gm, dc, rv, cm) = if smoke {
        (2u64, 48usize, 64usize, 300usize, 4usize, 8usize, 4096usize, 32usize)
    } else {
        (20, 256, 512, 20_000, 8, 32, 1_000_000, 256)
    };
    if !smoke && out.is_none() {
        out = Some("BENCH_kernels.json".to_string());
    }

    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let a = random_matrix(mm, mm, &mut rng);
    let b = random_matrix(mm, mm, &mut rng);
    let t = random_matrix(tr, tr, &mut rng);
    let g = generators::barabasi_albert(gn, gm, &mut rng);
    let adj = SparseMatrix::from_triplets(
        gn,
        gn,
        (0..gn as u32).flat_map(|u| {
            g.out_neighbors(u)
                .iter()
                .map(move |&v| (u as usize, v as usize, 1.0))
        }),
    );
    let h = random_matrix(gn, dc, &mut rng);
    // spmm_transpose caches its transpose on first use; build it before
    // timing so every configuration measures the product, not the setup.
    let _ = adj.spmm_transpose(&h);
    let xv = random_matrix(1, rv, &mut rng);
    let yv = random_matrix(1, rv, &mut rng);
    let grads: Vec<Matrix> = (0..2).map(|_| random_matrix(cm, cm, &mut rng)).collect();
    // Paper shapes (train-lastfm subgraphs: ~38 nodes, ~75 arcs, 32 hidden),
    // identical in smoke and full runs; tiny, so timed over many iterations.
    let small_iters = if smoke { 2 } else { 20_000 };
    let act = random_matrix(38, 32, &mut rng).map(|x| x.max(0.0));
    let w32 = random_matrix(32, 32, &mut rng);
    let att = random_matrix(113, 32, &mut rng);
    let a_dst = random_matrix(32, 1, &mut rng);
    let dc38 = random_matrix(38, 32, &mut rng);
    // train-lastfm attention shape: 37 nodes, 73 arcs plus one self-loop
    // per node.
    let (mut src, mut dst): (Vec<u32>, Vec<u32>) = (0..73)
        .map(|_| (rng.gen_range(0..37u32), rng.gen_range(0..37u32)))
        .unzip();
    src.extend(0..37u32);
    dst.extend(0..37u32);
    let att_case = AttentionCase {
        hw: random_matrix(37, 32, &mut rng),
        a_dst: random_matrix(32, 1, &mut rng),
        a_src: random_matrix(32, 1, &mut rng),
        up: random_matrix(37, 32, &mut rng),
        src,
        dst,
    };

    println!(
        "{:<30} {:>11} {:>11} {:>11} {:>11}",
        "kernel", "naive", "scalar", "serial", "par4"
    );
    let mut results = vec![
        run_case(
            "matmul",
            format!("{mm}x{mm}x{mm}"),
            iters,
            Some(&|| naive_matmul(&a, &b)),
            &|| a.matmul(&b),
            None,
        ),
        run_case(
            "matmul",
            "38x32x32".to_string(),
            small_iters,
            Some(&|| naive_matmul(&act, &w32)),
            &|| act.matmul(&w32),
            Some("paper shape: one GRAT layer's h·W on relu'd activations (about half zeros)"),
        ),
        run_case(
            "matvec",
            "113x32x1".to_string(),
            small_iters,
            Some(&|| naive_matmul(&att, &a_dst)),
            &|| att.matmul(&a_dst),
            Some("paper shape: a GRAT attention score (arcs x 32)·(32 x 1), one accumulator per row"),
        ),
        run_case(
            "transpose_matmul",
            "32x38·38x32".to_string(),
            small_iters,
            Some(&|| naive_matmul(&naive_transpose(&act), &dc38)),
            &|| act.transpose_matmul(&dc38),
            Some("paper shape: MatMul backward dB = Aᵀ·dC without building Aᵀ; naive = transpose, then the seed matmul"),
        ),
        run_case(
            "attention",
            "37x32, 110 arcs".to_string(),
            small_iters,
            Some(&|| naive_attention(&att_case)),
            &|| fused_attention(&att_case),
            Some(
                "paper shape: one GRAT layer's attention kernel, forward + backward as \
                 Tape::attention runs it (output = agg, dhw, d a_dst, d a_src); naive = the \
                 seed-era eight-op composition with its per-arc intermediates",
            ),
        ),
        run_case(
            "transpose",
            format!("{tr}x{tr}"),
            iters,
            Some(&|| naive_transpose(&t)),
            &|| t.transpose(),
            Some(
                "pure permutation, memory-bound: backends are at parity by design — \
                 there is no arithmetic to vectorize",
            ),
        ),
        run_case(
            "spmm",
            format!("nnz={} x{dc}", adj.nnz()),
            iters,
            Some(&|| naive_spmm(&adj, &h)),
            &|| adj.spmm(&h),
            Some("short rows (x32): gather-bound, SIMD gains are modest by design"),
        ),
        run_case(
            "spmm_transpose",
            format!("nnz={} x{dc}", adj.nnz()),
            iters,
            Some(&|| naive_spmm_transpose(&adj, &h)),
            &|| adj.spmm_transpose(&h),
            Some("short rows (x32): gather-bound, SIMD gains are modest by design"),
        ),
        run_case(
            "dot",
            format!("n={rv}"),
            iters,
            None,
            &|| Matrix::full(1, 1, simd::dot(xv.data(), yv.data())),
            Some(
                "at n=1e6 the stream comes from DRAM: memory-bound, backends near parity (smoke's cache-resident n shows the compute-bound speedup)",
            ),
        ),
        run_case(
            "sum",
            format!("n={rv}"),
            iters,
            None,
            &|| Matrix::full(1, 1, simd::sum(xv.data())),
            Some(
                "at n=1e6 the stream comes from DRAM: memory-bound, backends near parity (smoke's cache-resident n shows the compute-bound speedup)",
            ),
        ),
        run_case(
            "clip_loop",
            format!("2x{cm}x{cm}"),
            iters,
            None,
            &|| {
                // DP-SGD per-step clip: global L2 norm (sumsq reduction)
                // then in-place rescale. The defensive copy is part of
                // every configuration equally.
                let mut g = grads.clone();
                GradClip::clip(&mut g, 1.0);
                g.swap_remove(0)
            },
            Some("includes a per-iteration copy of the gradient list (both columns pay it)"),
        ),
    ];
    // One warmed paper-shape DP-SGD step (3-layer GRAT, 32 hidden, B = 48)
    // on the fixed synthetic container; the per-draw reference must land on
    // the same parameter bits.
    let items = synthetic_container(&mut rng);
    let model = GnnModel::new(GnnConfig::paper_default(), &mut rng);
    let step_cfg = DpSgdConfig {
        batch: 48,
        iters: 1,
        lr: 0.1,
        weight_decay: 0.01,
        tail_average: false,
        seed: 11,
        ..DpSgdConfig::paper_default(1.0, 4)
    };
    let step = || {
        let mut m = model.clone();
        train_dpgnn(&mut m, &items, &step_cfg).unwrap_or_else(|e| {
            eprintln!("error: dpsgd_step: {e}");
            std::process::exit(1);
        });
        flat_params(m.params())
    };
    let gradients_per_step = {
        let mut m = model.clone();
        train_dpgnn(&mut m, &items, &step_cfg).map_or(0.0, |r| r.gradients_computed as f64)
    };
    let mut step_case = run_case(
        "dpsgd_step",
        format!("grat 3x32, B=48 of {} subgraphs", items.len()),
        iters,
        Some(&|| per_draw_step(&model, &items, &step_cfg)),
        &step,
        Some(
            "one train_dpgnn step (iters = 1) from a warm pool; output = the updated \
             parameters; naive = one forward/backward pass per draw, composed from public \
             functions",
        ),
    );
    step_case.gradients_per_step = Some(gradients_per_step);
    println!("{:<30} {gradients_per_step} gradients/step", "");
    results.push(step_case);
    let quant = run_quant_case(iters, &a, &b);

    if let Some(path) = out {
        let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
        let doc = Value::obj(vec![
            ("bench", Value::Str("kernels".to_string())),
            ("iters", Value::Num(iters as f64)),
            ("available_parallelism", Value::Num(cpus as f64)),
            ("simd_backend", Value::Str(simd::active().name().to_string())),
            ("simd_features", Value::Str(simd::detected_features())),
            (
                "note",
                Value::Str(
                    "secs/iter means over fixed iterations; backend_secs_per_iter pins each \
                     SIMD backend serially; par4 = persistent pool at set_threads(4); \
                     speedups are hardware-dependent (see EXPERIMENTS.md)"
                        .to_string(),
                ),
            ),
            (
                "cases",
                Value::Arr(results.iter().map(CaseResult::to_json).collect()),
            ),
            ("quant_matmul", quant),
        ]);
        privim::results::write_atomic(&path, &doc.to_json_string_pretty())
            .unwrap_or_else(|e| {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            });
        eprintln!("wrote {path}");
    }
}

//! Graph attention (GAT/GRAT, Appendix G Eqs. 33–40) as one fused kernel.
//!
//! One attention layer scores every arc `src → dst` of a graph (self-loops
//! included) as `e = leaky_relu(hw[dst]·a_dst + hw[src]·a_src)`, turns the
//! scores into coefficients `α` by a softmax over each target's in-arcs
//! (GAT, Eq. 35) or each source's out-arcs (GRAT, Eq. 39), and aggregates
//! `agg[dst] += α · hw[src]`.
//!
//! [`forward`] is the single copy of that math: the autodiff tape's
//! [`crate::Tape::attention`] op, the dense tape-free inference path and
//! the int8 serving path all call it. It takes the two *node-level* score
//! columns (`hw·a_dst`, `hw·a_src`, `n × 1`) from the caller, so each
//! path keeps its own weight contraction (dense matvec or int8) while
//! sharing everything per arc. A node-level score is bitwise the per-arc
//! score of every arc that touches the node — the same row dotted with
//! the same vector in the same order — so no per-arc gather or matvec is
//! needed.
//!
//! [`backward`] reproduces, float for float, the reverse sweep of the
//! eight generic tape ops (gather, matvec, add, leaky ReLU, segment
//! softmax, column broadcast, scatter) the attention layer used to be
//! built from, without materialising any per-arc `arcs × d` matrix. Every
//! place where that sweep accumulated into a freshly zeroed buffer is
//! written `0.0 + x`, so even the sign of a zero comes out the same.
//!
//! All scratch (per-segment max/sum/dot, per-arc scores) is drawn from the
//! thread-local [`crate::pool`], so a warmed training sample allocates
//! nothing here.

use crate::matrix::Matrix;

/// Negative slope of the leaky ReLU applied to raw attention scores.
pub const LEAKY_SLOPE: f64 = 0.2;

/// Which endpoint's arcs one softmax normalises over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Normalise {
    /// Over each target's in-arcs (GAT, Eq. 35).
    ByTarget,
    /// Over each source's out-arcs (GRAT, Eq. 39).
    BySource,
}

impl Normalise {
    /// The per-arc segment ids the softmax groups by.
    fn segments<'a>(self, src: &'a [u32], dst: &'a [u32]) -> &'a [u32] {
        match self {
            Normalise::ByTarget => dst,
            Normalise::BySource => src,
        }
    }
}

/// Result of [`forward`]: the aggregate plus the per-arc values
/// [`backward`] reads.
pub struct Forward {
    /// `n × d` aggregate `agg[dst] = Σ α · hw[src]`.
    pub agg: Matrix,
    /// `arcs × 1` raw scores before the leaky ReLU.
    pub raw: Matrix,
    /// `arcs × 1` attention coefficients.
    pub alpha: Matrix,
}

/// Attention forward over the arcs `src[i] → dst[i]`. `s_dst` and `s_src`
/// are the `n × 1` node-level scores `hw·a_dst` and `hw·a_src`.
///
/// Softmaxes are stabilised by per-segment max subtraction; arcs are
/// visited in index order in every pass, and the aggregate adds one
/// `hw[src]·α` product per arc with no zero skip.
pub fn forward(
    hw: &Matrix,
    s_dst: &Matrix,
    s_src: &Matrix,
    src: &[u32],
    dst: &[u32],
    normalise: Normalise,
) -> Forward {
    let n = hw.rows();
    let arcs = src.len();
    assert_eq!(dst.len(), arcs, "attention: src/dst length mismatch");
    assert_eq!(s_dst.shape(), (n, 1), "attention: s_dst must be n x 1");
    assert_eq!(s_src.shape(), (n, 1), "attention: s_src must be n x 1");
    let seg = normalise.segments(src, dst);
    let (s_dst, s_src) = (s_dst.data(), s_src.data());

    let mut raw = Matrix::zeros(arcs, 1);
    let mut alpha = Matrix::zeros(arcs, 1);
    let mut seg_max = Matrix::full(n, 1, f64::NEG_INFINITY);
    let mut seg_sum = Matrix::zeros(n, 1);
    {
        let (raw, alpha) = (raw.data_mut(), alpha.data_mut());
        let (seg_max, seg_sum) = (seg_max.data_mut(), seg_sum.data_mut());
        for i in 0..arcs {
            let r = s_dst[dst[i] as usize] + s_src[src[i] as usize];
            raw[i] = r;
            let e = if r > 0.0 { r } else { LEAKY_SLOPE * r };
            alpha[i] = e;
            let g = seg[i] as usize;
            seg_max[g] = seg_max[g].max(e);
        }
        for i in 0..arcs {
            let g = seg[i] as usize;
            let e = (alpha[i] - seg_max[g]).exp();
            alpha[i] = e;
            seg_sum[g] += e;
        }
        for i in 0..arcs {
            alpha[i] /= seg_sum[seg[i] as usize];
        }
    }

    let mut agg = Matrix::zeros(n, hw.cols());
    for (i, &a) in alpha.data().iter().enumerate() {
        let from = hw.row(src[i] as usize);
        for (o, &v) in agg.row_mut(dst[i] as usize).iter_mut().zip(from) {
            *o += v * a;
        }
    }
    Forward { agg, raw, alpha }
}

/// Gradients of the attention vectors, from [`backward`].
pub struct VectorGrads {
    /// `d × 1` gradient of `a_dst`.
    pub a_dst: Matrix,
    /// `d × 1` gradient of `a_src`.
    pub a_src: Matrix,
}

/// Attention backward for the upstream gradient `d` of [`Forward::agg`].
///
/// `dhw`, when given, is accumulated into: first every arc's target-score
/// term in arc order, then every arc's message and source-score term in
/// arc order. Each attention-vector gradient is accumulated per arc in
/// arc order from `0.0`, skipping arcs whose endpoint feature is an
/// exact zero.
pub fn backward(
    hw: &Matrix,
    a_dst: &Matrix,
    a_src: &Matrix,
    src: &[u32],
    dst: &[u32],
    normalise: Normalise,
    fwd_raw: &Matrix,
    fwd_alpha: &Matrix,
    d: &Matrix,
    dhw: Option<&mut Matrix>,
) -> VectorGrads {
    let (n, cols) = hw.shape();
    let arcs = src.len();
    assert_eq!(d.shape(), (n, cols), "attention: upstream gradient shape");
    let seg = normalise.segments(src, dst);
    let (raw, alpha) = (fwd_raw.data(), fwd_alpha.data());

    // dL/dα per arc: the message row dotted with the target's upstream
    // gradient. Four arcs at a time keep four independent add chains in
    // flight; each arc still sums its columns in ascending order.
    let mut dscore = Matrix::zeros(arcs, 1);
    {
        let ds = dscore.data_mut();
        let up = |i: usize| &d.row(dst[i] as usize)[..cols];
        let msg = |i: usize| &hw.row(src[i] as usize)[..cols];
        let quads = arcs / 4 * 4;
        for i in (0..quads).step_by(4) {
            let (u0, u1, u2, u3) = (up(i), up(i + 1), up(i + 2), up(i + 3));
            let (m0, m1, m2, m3) = (msg(i), msg(i + 1), msg(i + 2), msg(i + 3));
            let mut acc = [0.0f64; 4];
            for j in 0..cols {
                acc[0] += (0.0 + u0[j]) * m0[j];
                acc[1] += (0.0 + u1[j]) * m1[j];
                acc[2] += (0.0 + u2[j]) * m2[j];
                acc[3] += (0.0 + u3[j]) * m3[j];
            }
            ds[i..i + 4].copy_from_slice(&acc);
        }
        for (i, out) in ds.iter_mut().enumerate().skip(quads) {
            *out = up(i).iter().zip(msg(i)).fold(0.0, |s, (&g, &h)| s + (0.0 + g) * h);
        }
    }

    // Segment-softmax backward, then the leaky ReLU's: dscore becomes
    // dL/draw in place.
    let mut seg_dot = Matrix::zeros(n, 1);
    {
        let (ds, seg_dot) = (dscore.data_mut(), seg_dot.data_mut());
        for i in 0..arcs {
            seg_dot[seg[i] as usize] += ds[i] * alpha[i];
        }
        for i in 0..arcs {
            let g = alpha[i] * (ds[i] - seg_dot[seg[i] as usize]);
            ds[i] = if raw[i] > 0.0 { g } else { LEAKY_SLOPE * g };
        }
    }
    let draw = dscore.data();

    // Per arc in arc order, one select per column: a zero endpoint
    // feature leaves the sum exactly as a skip would.
    let vector_grad = |ends: &[u32]| {
        let mut g = Matrix::zeros(cols, 1);
        let out = g.data_mut();
        for (i, &e) in ends.iter().enumerate() {
            let dr = draw[i];
            for (o, &h) in out.iter_mut().zip(hw.row(e as usize)) {
                // privim-lint: allow(float-eq, reason = "exact-zero sparsity skip: 0.0 * dr contributes exactly nothing, so skipping only IEEE zeros is lossless")
                *o = if h != 0.0 { *o + h * dr } else { *o };
            }
        }
        g
    };
    let grads = VectorGrads {
        a_dst: vector_grad(dst),
        a_src: vector_grad(src),
    };

    if let Some(dhw) = dhw {
        assert_eq!(dhw.shape(), (n, cols), "attention: dhw shape");
        // An arc's score term is a row of the outer product draw·aᵀ as the
        // zero-skipping matmul into zeros produced it: `0.0 + dr·a`, or
        // zeros when dr is 0.
        let (a_dst, a_src) = (a_dst.data(), a_src.data());
        for i in 0..arcs {
            let dr = draw[i];
            let row = dhw.row_mut(dst[i] as usize);
            // privim-lint: allow(float-eq, reason = "exact-zero sparsity skip: the matmul this reproduces never touched a zero coefficient's output row")
            if dr != 0.0 {
                for (o, &a) in row.iter_mut().zip(a_dst) {
                    *o += 0.0 + dr * a;
                }
            } else {
                for o in row {
                    *o += 0.0;
                }
            }
        }
        for i in 0..arcs {
            let (dr, al) = (draw[i], alpha[i]);
            let up = d.row(dst[i] as usize);
            let row = dhw.row_mut(src[i] as usize);
            // privim-lint: allow(float-eq, reason = "exact-zero sparsity skip: the matmul this reproduces never touched a zero coefficient's output row")
            if dr != 0.0 {
                for ((o, &g), &a) in row.iter_mut().zip(up).zip(a_src) {
                    *o += (0.0 + g) * al + (0.0 + dr * a);
                }
            } else {
                for (o, &g) in row.iter_mut().zip(up) {
                    *o += (0.0 + g) * al + 0.0;
                }
            }
        }
    }
    grads
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arcs() -> (Vec<u32>, Vec<u32>) {
        // 0→1, 0→2, 1→2, 2→0, self-loops on 0–3 (node 3 has nothing
        // else), and two nodes without one: 4 only sends (4→1), 5 only
        // receives (0→5), so a zero sign in 5's gradient slot survives.
        (
            vec![0, 0, 1, 2, 0, 1, 2, 3, 4, 0],
            vec![1, 2, 2, 0, 0, 1, 2, 3, 1, 5],
        )
    }

    /// The eight generic tape ops this kernel replaced (gather, matvec,
    /// add, leaky ReLU, segment softmax, column broadcast, scatter), forward
    /// and reverse sweep, each with the element operations the old op ran.
    /// Returns `(agg, dhw, d a_dst, d a_src)`.
    fn unfused(
        hw: &Matrix,
        a_dst: &Matrix,
        a_src: &Matrix,
        src: &[u32],
        dst: &[u32],
        norm: Normalise,
        d: &Matrix,
        dhw_slot: Option<Matrix>,
    ) -> [Matrix; 4] {
        let (n, c) = hw.shape();
        let arcs = src.len();
        let seg = norm.segments(src, dst);
        let gather = |idx: &[u32]| {
            let mut out = Matrix::zeros(arcs, c);
            for (i, &r) in idx.iter().enumerate() {
                out.row_mut(i).copy_from_slice(hw.row(r as usize));
            }
            out
        };
        let (src_f, dst_f) = (gather(src), gather(dst));
        let raw = dst_f.matmul(a_dst).add(&src_f.matmul(a_src));
        let e = raw.map(|x| if x > 0.0 { x } else { 0.2 * x });
        let mut seg_max = vec![f64::NEG_INFINITY; n];
        for (i, &g) in seg.iter().enumerate() {
            seg_max[g as usize] = seg_max[g as usize].max(e.get(i, 0));
        }
        let mut seg_sum = vec![0.0f64; n];
        let mut ex = vec![0.0f64; arcs];
        for (i, &g) in seg.iter().enumerate() {
            ex[i] = (e.get(i, 0) - seg_max[g as usize]).exp();
            seg_sum[g as usize] += ex[i];
        }
        let alpha = Matrix::col_vector(
            &(0..arcs).map(|i| ex[i] / seg_sum[seg[i] as usize]).collect::<Vec<_>>(),
        );
        let mut msgs = src_f.clone();
        for r in 0..arcs {
            for x in msgs.row_mut(r) {
                *x *= alpha.get(r, 0);
            }
        }
        let mut agg = Matrix::zeros(n, c);
        for (i, &r) in dst.iter().enumerate() {
            for j in 0..c {
                let v = agg.get(r as usize, j) + msgs.get(i, j);
                agg.set(r as usize, j, v);
            }
        }
        // reverse sweep
        let mut dmsgs = Matrix::zeros(arcs, c);
        for (i, &r) in dst.iter().enumerate() {
            for j in 0..c {
                dmsgs.set(i, j, dmsgs.get(i, j) + d.get(r as usize, j));
            }
        }
        let mut dalpha = Matrix::zeros(arcs, 1);
        for i in 0..arcs {
            let mut s = 0.0;
            for j in 0..c {
                s += dmsgs.get(i, j) * src_f.get(i, j);
            }
            dalpha.set(i, 0, s);
        }
        let mut d_src_f = dmsgs;
        for i in 0..arcs {
            for x in d_src_f.row_mut(i) {
                *x *= alpha.get(i, 0);
            }
        }
        let mut seg_dot = vec![0.0f64; n];
        for (i, &g) in seg.iter().enumerate() {
            seg_dot[g as usize] += dalpha.get(i, 0) * alpha.get(i, 0);
        }
        let mut ds = Matrix::zeros(arcs, 1);
        for (i, &g) in seg.iter().enumerate() {
            let y = alpha.get(i, 0);
            ds.set(i, 0, y * (dalpha.get(i, 0) - seg_dot[g as usize]));
        }
        let draw = raw.zip(&ds, |x, g| if x > 0.0 { g } else { 0.2 * g });
        let ds_src = draw.scale(1.0);
        d_src_f.add_assign(&ds_src.matmul(&a_src.transpose()));
        let g_src = src_f.transpose_matmul(&ds_src);
        let d_dst_f = draw.matmul(&a_dst.transpose());
        let g_dst = dst_f.transpose_matmul(&draw);
        let mut dhw = dhw_slot.unwrap_or_else(|| Matrix::zeros(n, c));
        for (idx, rows) in [(dst, &d_dst_f), (src, &d_src_f)] {
            for (i, &r) in idx.iter().enumerate() {
                for j in 0..c {
                    dhw.set(r as usize, j, dhw.get(r as usize, j) + rows.get(i, j));
                }
            }
        }
        [agg, dhw, g_dst, g_src]
    }

    /// Fractional values (so rounding order shows in the bits) with exact
    /// and negative zeros mixed in.
    fn tricky(rows: usize, cols: usize, salt: u64) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| match (i as u64 * 7 + salt) % 9 {
                0 => 0.0,
                1 => -0.0,
                k => (k as f64 - 4.5) / 3.7 + salt as f64 * 0.01,
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn bitwise_matches_the_unfused_eight_op_sweep() {
        let (src, dst) = arcs();
        let hw = tricky(6, 5, 1);
        let (a_dst, a_src) = (tricky(5, 1, 0), tricky(5, 1, 3));
        // an infinite upstream gradient turns into NaN scores that only
        // the zero skips keep out of the attention-vector gradients
        let mut d_inf = tricky(6, 5, 4);
        d_inf.set(1, 2, f64::INFINITY);
        let mut slot = tricky(6, 5, 5);
        slot.row_mut(5).fill(-0.0);
        for (d, norm) in [
            (tricky(6, 5, 4), Normalise::ByTarget),
            (tricky(6, 5, 4), Normalise::BySource),
            (d_inf, Normalise::BySource),
        ] {
            // with and without a pre-written hw slot (GAT's skip connection)
            for slot in [None, Some(slot.clone())] {
                let want = unfused(&hw, &a_dst, &a_src, &src, &dst, norm, &d, slot.clone());
                let s_dst = hw.matmul(&a_dst);
                let s_src = hw.matmul(&a_src);
                let f = forward(&hw, &s_dst, &s_src, &src, &dst, norm);
                let mut dhw = slot.unwrap_or_else(|| Matrix::zeros(6, 5));
                let g = backward(
                    &hw, &a_dst, &a_src, &src, &dst, norm, &f.raw, &f.alpha, &d,
                    Some(&mut dhw),
                );
                let got = [f.agg, dhw, g.a_dst, g.a_src];
                for (k, (w, g)) in want.iter().zip(&got).enumerate() {
                    let wb: Vec<u64> = w.data().iter().map(|x| x.to_bits()).collect();
                    let gb: Vec<u64> = g.data().iter().map(|x| x.to_bits()).collect();
                    assert_eq!(wb, gb, "{norm:?} output {k}");
                }
            }
        }
    }
}

//! Reverse-mode autodiff tape.
//!
//! Eager evaluation: each op computes its value immediately and records the
//! operands, so `backward` is a single reverse sweep. One tape records one
//! forward pass (one per subgraph in DP-SGD — Algorithm 2 needs
//! *per-sample* gradients anyway).
//!
//! The op set is exactly what the five GNNs (Appendix G) and the IM loss
//! (Eq. 5) require; see each constructor's docs for the backward rule.
//! Graph attention is one fused op ([`Tape::attention`], kernel in
//! [`crate::attention`]).
//!
//! Every node records whether a gradient can reach a leaf through it:
//! [`Tape::constant`] inputs (node features) and ops whose operands are
//! all constants carry none, and the reverse sweep never computes an
//! operand gradient that would only land there.
//!
//! ## Allocation reuse
//!
//! Per-sample training builds one tape per subgraph per batch. Two layers
//! keep that from hammering the allocator: every op's value matrix draws
//! its buffer from the thread-local pool in [`crate::pool`] (and returns it
//! on drop), and [`Tape::with_scratch`] hands out a per-thread recycled
//! tape whose node storage keeps its capacity across samples. The scratch
//! tape keeps its node values until the next sample resets it, so the pool
//! is sized to hold that live set plus one backward pass (DESIGN.md §10.3).
//! Because `privim_rt::par` workers are persistent, both warm up once per
//! thread and stay warm for the whole run.

use crate::attention::{self, Normalise};
use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;
use std::cell::RefCell;
use std::sync::Arc;

/// Handle to a tape node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(usize);

#[derive(Clone, Debug)]
enum Op {
    Leaf,
    Constant,
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    AddRowBroadcast(Var, Var),
    Scale(Var, f64),
    AddScalar(Var),
    Relu(Var),
    LeakyRelu(Var, f64),
    Sigmoid(Var),
    Tanh(Var),
    Exp(Var),
    Clamp01(Var),
    OneMinus(Var),
    Sum(Var),
    Mean(Var),
    ConcatCols(Var, Var),
    Spmm(usize, Var),
    GatherRows(Var, Arc<Vec<u32>>),
    MulColBroadcast(Var, Var),
    Attention {
        hw: Var,
        a_dst: Var,
        a_src: Var,
        src: Arc<Vec<u32>>,
        dst: Arc<Vec<u32>>,
        normalise: Normalise,
        /// Per-arc raw scores and coefficients saved for the backward.
        raw: Matrix,
        alpha: Matrix,
    },
}

impl Op {
    /// The tape operands this op's backward differentiates into.
    fn operands(&self) -> [Option<Var>; 3] {
        match *self {
            Op::Leaf | Op::Constant => [None; 3],
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::ConcatCols(a, b)
            | Op::MulColBroadcast(a, b) => [Some(a), Some(b), None],
            Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Exp(a)
            | Op::Clamp01(a)
            | Op::OneMinus(a)
            | Op::Sum(a)
            | Op::Mean(a)
            | Op::Spmm(_, a)
            | Op::GatherRows(a, _) => [Some(a), None, None],
            Op::Attention { hw, a_dst, a_src, .. } => [Some(hw), Some(a_dst), Some(a_src)],
        }
    }
}

struct Node {
    op: Op,
    value: Matrix,
    /// True when a gradient can flow from this node to a leaf.
    grad: bool,
}

/// Gradients of one scalar output with respect to every tape node.
///
/// Gradients are materialised lazily: nodes that never receive gradient
/// mass (or whose gradient was consumed during the sweep) report zeros of
/// the right shape on demand.
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
    shapes: Vec<(usize, usize)>,
}

impl Gradients {
    /// Gradient with respect to `v` (zeros if `v` did not influence the
    /// differentiated scalar). Note: gradients of *interior* nodes are
    /// consumed by the reverse sweep; only leaves retain theirs.
    pub fn wrt(&self, v: Var) -> Matrix {
        match &self.grads[v.0] {
            Some(m) => m.clone(),
            None => Matrix::zeros(self.shapes[v.0].0, self.shapes[v.0].1),
        }
    }

    /// Move the gradient out (avoids a clone when collecting param grads).
    pub fn take(&mut self, v: Var) -> Matrix {
        match self.grads[v.0].take() {
            Some(m) => m,
            None => Matrix::zeros(self.shapes[v.0].0, self.shapes[v.0].1),
        }
    }
}

/// The autodiff tape. See module docs.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    sparse: Vec<Arc<SparseMatrix>>,
}

thread_local! {
    static SCRATCH: RefCell<Tape> = RefCell::new(Tape::new());
}

impl Tape {
    /// Fresh empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Clear all recorded nodes and sparse constants, retaining the node
    /// vector's capacity. Dropped node values return their buffers to the
    /// thread-local matrix pool, so the next forward pass on this thread
    /// re-uses them instead of allocating.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.sparse.clear();
    }

    /// Run `f` on this thread's recycled scratch tape (reset first). The
    /// DP-SGD per-sample loop uses this so repeated forward/backward passes
    /// on a pool worker stop paying a tape allocation per sample. Re-entrant
    /// calls fall back to a fresh tape rather than aliasing the scratch.
    pub fn with_scratch<R>(f: impl FnOnce(&mut Tape) -> R) -> R {
        SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut tape) => {
                tape.reset();
                f(&mut tape)
            }
            Err(_) => f(&mut Tape::new()),
        })
    }

    /// Number of recorded nodes (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        let grad = match op {
            Op::Leaf => true,
            _ => op.operands().iter().flatten().any(|v| self.nodes[v.0].grad),
        };
        self.nodes.push(Node { op, value, grad });
        Var(self.nodes.len() - 1)
    }

    /// Register a parameter matrix. Gradients flow *to* leaves but not
    /// through them.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(Op::Leaf, value)
    }

    /// Register a no-grad input (node features): its gradient is never
    /// computed, nor that of any op whose operands are all constants;
    /// [`Gradients::wrt`] reports zeros for it.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(Op::Constant, value)
    }

    /// Register a sparse constant for use with [`Self::spmm`]. Takes an
    /// `Arc` so repeated forward passes over the same graph share one copy.
    pub fn sparse_const(&mut self, m: impl Into<Arc<SparseMatrix>>) -> usize {
        self.sparse.push(m.into());
        self.sparse.len() - 1
    }

    /// `a × b`. Backward: `dA += dC·Bᵀ`, `dB += Aᵀ·dC` (the latter by
    /// [`Matrix::transpose_matmul`], without building `Aᵀ`).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), v)
    }

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(Op::Add(a, b), v)
    }

    /// Elementwise `a - b` (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push(Op::Sub(a, b), v)
    }

    /// Hadamard product (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).hadamard(self.value(b));
        self.push(Op::Mul(a, b), v)
    }

    /// `(n×d) + (1×d)` row-broadcast add (bias). Backward sums `d` over rows
    /// for the bias operand.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let am = self.value(a);
        let bm = self.value(bias);
        assert_eq!(bm.rows(), 1, "bias must be a row vector");
        assert_eq!(am.cols(), bm.cols(), "bias width mismatch");
        let mut out = am.clone();
        for r in 0..out.rows() {
            crate::simd::add_assign(out.row_mut(r), bm.data());
        }
        self.push(Op::AddRowBroadcast(a, bias), out)
    }

    /// `c · a` for a scalar constant `c`.
    pub fn scale(&mut self, a: Var, c: f64) -> Var {
        let v = self.value(a).scale(c);
        self.push(Op::Scale(a, c), v)
    }

    /// `a + c` elementwise for a scalar constant `c`.
    pub fn add_scalar(&mut self, a: Var, c: f64) -> Var {
        let v = self.value(a).map(|x| x + c);
        self.push(Op::AddScalar(a), v)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(Op::Relu(a), v)
    }

    /// Leaky ReLU with negative slope `alpha` (GAT/GRAT attention scores).
    pub fn leaky_relu(&mut self, a: Var, alpha: f64) -> Var {
        let v = self.value(a).map(|x| if x > 0.0 { x } else { alpha * x });
        self.push(Op::LeakyRelu(a, alpha), v)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(Op::Sigmoid(a), v)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f64::tanh);
        self.push(Op::Tanh(a), v)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f64::exp);
        self.push(Op::Exp(a), v)
    }

    /// Clamp to `[0, 1]` — the paper's probability map φ in Theorem 2.
    /// Subgradient: identity strictly inside, zero outside.
    pub fn clamp01(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.clamp(0.0, 1.0));
        self.push(Op::Clamp01(a), v)
    }

    /// `1 - a` elementwise (the "stays inactive" probabilities of Eq. 4).
    pub fn one_minus(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 - x);
        self.push(Op::OneMinus(a), v)
    }

    /// Sum of all entries → `1×1`.
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Matrix::from_vec(1, 1, vec![self.value(a).sum()]);
        self.push(Op::Sum(a), v)
    }

    /// Mean of all entries → `1×1`.
    pub fn mean(&mut self, a: Var) -> Var {
        let m = self.value(a);
        let n = (m.rows() * m.cols()).max(1) as f64;
        let v = Matrix::from_vec(1, 1, vec![m.sum() / n]);
        self.push(Op::Mean(a), v)
    }

    /// Horizontal concat `[a | b]` (GraphSAGE).
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).concat_cols(self.value(b));
        self.push(Op::ConcatCols(a, b), v)
    }

    /// Sparse × dense product `S · h` where `S` is a registered sparse
    /// constant. Backward: `dH += Sᵀ · d`.
    pub fn spmm(&mut self, sparse_id: usize, h: Var) -> Var {
        let v = self.sparse[sparse_id].spmm(self.value(h));
        self.push(Op::Spmm(sparse_id, h), v)
    }

    /// Row gather: `out[i] = a[idx[i]]` (node → edge endpoint lift).
    /// Backward scatter-adds into the source rows.
    pub fn gather_rows(&mut self, a: Var, idx: Arc<Vec<u32>>) -> Var {
        let am = self.value(a);
        let mut out = Matrix::zeros(idx.len(), am.cols());
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(am.row(r as usize));
        }
        self.push(Op::GatherRows(a, idx), out)
    }

    /// Graph attention over the arcs `src[i] → dst[i]` (GAT/GRAT, see
    /// [`crate::attention`]): node-level scores `hw·a_dst` and `hw·a_src`,
    /// leaky ReLU, a softmax normalised per target or per source, and
    /// `out[dst] += α · hw[src]`. `hw` is `n × d`, `a_dst`/`a_src` are
    /// `d × 1`; the output is `n × d`. Backward accumulates `hw`'s
    /// gradient by scatter (target terms, then message and source terms)
    /// and the attention vectors' per arc.
    pub fn attention(
        &mut self,
        hw: Var,
        a_dst: Var,
        a_src: Var,
        src: Arc<Vec<u32>>,
        dst: Arc<Vec<u32>>,
        normalise: Normalise,
    ) -> Var {
        let h = self.value(hw);
        let s_dst = h.matmul(self.value(a_dst));
        let s_src = h.matmul(self.value(a_src));
        let f = attention::forward(h, &s_dst, &s_src, &src, &dst, normalise);
        let op = Op::Attention {
            hw,
            a_dst,
            a_src,
            src,
            dst,
            normalise,
            raw: f.raw,
            alpha: f.alpha,
        };
        self.push(op, f.agg)
    }

    /// Broadcast a column vector across columns: `out[i][j] = c[i] · a[i][j]`
    /// (attention coefficient × message).
    pub fn mul_col_broadcast(&mut self, c: Var, a: Var) -> Var {
        let cm = self.value(c);
        let am = self.value(a);
        assert_eq!(cm.cols(), 1, "coefficient must be a column vector");
        assert_eq!(cm.rows(), am.rows(), "row mismatch");
        let mut out = am.clone();
        scale_rows(&mut out, cm);
        self.push(Op::MulColBroadcast(c, a), out)
    }

    /// Reverse sweep from `loss` (must be `1×1`). Returns gradients for all
    /// nodes; fetch the ones you registered as parameters.
    pub fn backward(&self, loss: Var) -> Gradients {
        let lm = self.value(loss);
        assert_eq!(lm.shape(), (1, 1), "backward needs a scalar loss");
        let shapes: Vec<(usize, usize)> = self.nodes.iter().map(|n| n.value.shape()).collect();
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        if self.nodes[loss.0].grad {
            grads[loss.0] = Some(Matrix::full(1, 1, 1.0));
        }

        // Accumulate `delta` into `grads[target]`, reusing `delta`'s
        // allocation when the slot is empty.
        fn acc(grads: &mut [Option<Matrix>], target: usize, delta: Matrix) {
            match &mut grads[target] {
                Some(g) => g.add_assign(&delta),
                slot @ None => *slot = Some(delta),
            }
        }
        fn acc_scaled(grads: &mut [Option<Matrix>], target: usize, delta: &Matrix, c: f64) {
            match &mut grads[target] {
                Some(g) => g.add_scaled_assign(delta, c),
                slot @ None => *slot = Some(delta.scale(c)),
            }
        }

        // Only operands a gradient can flow through get one; a node that
        // does not need one never fills its slot, so its backward never
        // runs.
        let needs = |v: &Var| self.nodes[v.0].grad;

        for id in (0..=loss.0).rev() {
            // Interior gradients are consumed (moved out); leaves keep
            // theirs for the caller.
            let is_leaf = matches!(self.nodes[id].op, Op::Leaf);
            let Some(d) = (if is_leaf { None } else { grads[id].take() }) else {
                continue;
            };
            match &self.nodes[id].op {
                Op::Leaf | Op::Constant => {}
                Op::MatMul(a, b) => {
                    if needs(a) {
                        let da = d.matmul(&self.value(*b).transpose());
                        acc(&mut grads, a.0, da);
                    }
                    if needs(b) {
                        let db = self.value(*a).transpose_matmul(&d);
                        acc(&mut grads, b.0, db);
                    }
                }
                Op::Add(a, b) => {
                    if needs(b) {
                        acc_scaled(&mut grads, b.0, &d, 1.0);
                    }
                    if needs(a) {
                        acc(&mut grads, a.0, d);
                    }
                }
                Op::Sub(a, b) => {
                    if needs(b) {
                        acc_scaled(&mut grads, b.0, &d, -1.0);
                    }
                    if needs(a) {
                        acc(&mut grads, a.0, d);
                    }
                }
                Op::Mul(a, b) => {
                    if needs(a) {
                        acc(&mut grads, a.0, d.hadamard(self.value(*b)));
                    }
                    if needs(b) {
                        acc(&mut grads, b.0, d.hadamard(self.value(*a)));
                    }
                }
                Op::AddRowBroadcast(a, bias) => {
                    if needs(bias) {
                        // column sums, rows added in ascending order
                        let mut bsum = Matrix::zeros(1, d.cols());
                        for r in 0..d.rows() {
                            for (o, &g) in bsum.data_mut().iter_mut().zip(d.row(r)) {
                                *o += g;
                            }
                        }
                        acc(&mut grads, bias.0, bsum);
                    }
                    if needs(a) {
                        acc(&mut grads, a.0, d);
                    }
                }
                Op::Scale(a, c) => acc_scaled(&mut grads, a.0, &d, *c),
                Op::AddScalar(a) => acc(&mut grads, a.0, d),
                Op::Relu(a) => {
                    let da = self.value(*a).zip(&d, |x, g| if x > 0.0 { g } else { 0.0 });
                    acc(&mut grads, a.0, da);
                }
                Op::LeakyRelu(a, alpha) => {
                    let al = *alpha;
                    let da = self
                        .value(*a)
                        .zip(&d, |x, g| if x > 0.0 { g } else { al * g });
                    acc(&mut grads, a.0, da);
                }
                Op::Sigmoid(a) => {
                    let da = self.nodes[id].value.zip(&d, |y, g| g * y * (1.0 - y));
                    acc(&mut grads, a.0, da);
                }
                Op::Tanh(a) => {
                    let da = self.nodes[id].value.zip(&d, |y, g| g * (1.0 - y * y));
                    acc(&mut grads, a.0, da);
                }
                Op::Exp(a) => {
                    let da = self.nodes[id].value.hadamard(&d);
                    acc(&mut grads, a.0, da);
                }
                Op::Clamp01(a) => {
                    let da = self
                        .value(*a)
                        .zip(&d, |x, g| if x > 0.0 && x < 1.0 { g } else { 0.0 });
                    acc(&mut grads, a.0, da);
                }
                Op::OneMinus(a) => acc_scaled(&mut grads, a.0, &d, -1.0),
                Op::Sum(a) => {
                    let g = d.get(0, 0);
                    let (r, c) = self.value(*a).shape();
                    acc(&mut grads, a.0, Matrix::full(r, c, g));
                }
                Op::Mean(a) => {
                    let (r, c) = self.value(*a).shape();
                    let g = d.get(0, 0) / ((r * c).max(1) as f64);
                    acc(&mut grads, a.0, Matrix::full(r, c, g));
                }
                Op::ConcatCols(a, b) => {
                    let ac = self.value(*a).cols();
                    if needs(a) {
                        let mut da = Matrix::zeros(d.rows(), ac);
                        for r in 0..d.rows() {
                            da.row_mut(r).copy_from_slice(&d.row(r)[..ac]);
                        }
                        acc(&mut grads, a.0, da);
                    }
                    if needs(b) {
                        let mut db = Matrix::zeros(d.rows(), d.cols() - ac);
                        for r in 0..d.rows() {
                            db.row_mut(r).copy_from_slice(&d.row(r)[ac..]);
                        }
                        acc(&mut grads, b.0, db);
                    }
                }
                Op::Spmm(sid, h) => {
                    let dh = self.sparse[*sid].spmm_transpose(&d);
                    acc(&mut grads, h.0, dh);
                }
                Op::GatherRows(a, idx) => {
                    let (r, c) = self.value(*a).shape();
                    let mut da = match grads[a.0].take() {
                        Some(m) => m,
                        None => Matrix::zeros(r, c),
                    };
                    for (i, &row) in idx.iter().enumerate() {
                        let dst = da.row_mut(row as usize);
                        let src = d.row(i);
                        for j in 0..src.len() {
                            dst[j] += src[j];
                        }
                    }
                    grads[a.0] = Some(da);
                }
                Op::MulColBroadcast(c, a) => {
                    let cm = self.value(*c);
                    if needs(c) {
                        acc(&mut grads, c.0, row_dots(&d, self.value(*a)));
                    }
                    if needs(a) {
                        let mut da = d;
                        scale_rows(&mut da, cm);
                        acc(&mut grads, a.0, da);
                    }
                }
                Op::Attention {
                    hw,
                    a_dst,
                    a_src,
                    src,
                    dst,
                    normalise,
                    raw,
                    alpha,
                } => {
                    // hw's slot is taken (the GAT skip connection's Add has
                    // already written it) or zeroed, then scatter-added.
                    let mut dhw = if needs(hw) {
                        let (r, c) = self.value(*hw).shape();
                        Some(grads[hw.0].take().unwrap_or_else(|| Matrix::zeros(r, c)))
                    } else {
                        None
                    };
                    let vg = attention::backward(
                        self.value(*hw),
                        self.value(*a_dst),
                        self.value(*a_src),
                        src,
                        dst,
                        *normalise,
                        raw,
                        alpha,
                        &d,
                        dhw.as_mut(),
                    );
                    if let Some(m) = dhw {
                        grads[hw.0] = Some(m);
                    }
                    for (v, g) in [(a_src, vg.a_src), (a_dst, vg.a_dst)] {
                        if needs(v) {
                            acc(&mut grads, v.0, g);
                        }
                    }
                }
            }
        }
        Gradients { grads, shapes }
    }
}

/// `m[i][j] *= c[i]` for a column vector `c`.
fn scale_rows(m: &mut Matrix, c: &Matrix) {
    for (i, &cv) in c.data().iter().enumerate() {
        for x in m.row_mut(i) {
            *x *= cv;
        }
    }
}

/// `out[i] = Σ_j d[i][j]·a[i][j]`, each row summed in ascending column
/// order from `0.0`. Four rows run interleaved so their add chains overlap
/// instead of serialising on the adder's latency.
fn row_dots(d: &Matrix, a: &Matrix) -> Matrix {
    let (rows, cols) = a.shape();
    let mut out = Matrix::zeros(rows, 1);
    let quads = rows / 4 * 4;
    for i in (0..quads).step_by(4) {
        let mut acc = [0.0f64; 4];
        for j in 0..cols {
            for (q, s) in acc.iter_mut().enumerate() {
                *s += d.get(i + q, j) * a.get(i + q, j);
            }
        }
        out.data_mut()[i..i + 4].copy_from_slice(&acc);
    }
    for i in quads..rows {
        let mut s = 0.0;
        for j in 0..cols {
            s += d.get(i, j) * a.get(i, j);
        }
        out.set(i, 0, s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_backward_matches_manual() {
        // loss = sum(A×B); dA = 1·Bᵀ, dB = Aᵀ·1
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[3.0], &[4.0]]));
        let c = t.matmul(a, b);
        let l = t.sum(c);
        let g = t.backward(l);
        assert_eq!(g.wrt(a).data(), &[3.0, 4.0]);
        assert_eq!(g.wrt(b).data(), &[1.0, 2.0]);
    }

    #[test]
    fn sigmoid_gradient_at_zero_is_quarter() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[0.0]]));
        let s = t.sigmoid(x);
        let l = t.sum(s);
        let g = t.backward(l);
        assert!((g.wrt(x).get(0, 0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn clamp01_blocks_gradient_outside() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[-0.5, 0.5, 1.5]]));
        let c = t.clamp01(x);
        let l = t.sum(c);
        let g = t.backward(l);
        assert_eq!(g.wrt(x).data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn fanout_accumulates() {
        // loss = sum(x + x) → dx = 2
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0]]));
        let y = t.add(x, x);
        let l = t.sum(y);
        let g = t.backward(l);
        assert_eq!(g.wrt(x).get(0, 0), 2.0);
    }

    #[test]
    fn spmm_backward_is_transpose_product() {
        let mut t = Tape::new();
        let s = SparseMatrix::from_triplets(2, 3, [(0, 1, 2.0), (1, 2, 3.0)]);
        let sid = t.sparse_const(s.clone());
        let h = t.leaf(Matrix::full(3, 1, 1.0));
        let out = t.spmm(sid, h);
        let l = t.sum(out);
        let g = t.backward(l);
        let expect = s.spmm_transpose(&Matrix::full(2, 1, 1.0));
        assert_eq!(g.wrt(h), expect);
    }

    #[test]
    fn gather_gradients_scatter_back() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        let idx = Arc::new(vec![0u32, 0, 2]);
        let gth = t.gather_rows(x, idx.clone());
        let l = t.sum(gth);
        let g = t.backward(l);
        // row 0 gathered twice, row 1 never, row 2 once
        assert_eq!(g.wrt(x).data(), &[2.0, 0.0, 1.0]);
    }

    #[test]
    fn constants_get_no_gradient_and_leave_leaf_gradients_unchanged() {
        // x·w with x a constant: w's gradient is the same as with x a
        // leaf, x's is never computed.
        let x = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        let w = Matrix::from_rows(&[&[0.3], &[-0.7]]);
        let run = |as_const: bool| {
            let mut t = Tape::new();
            let xv = if as_const { t.constant(x.clone()) } else { t.leaf(x.clone()) };
            let wv = t.leaf(w.clone());
            let y = t.matmul(xv, wv);
            let s = t.sigmoid(y);
            let l = t.sum(s);
            let g = t.backward(l);
            (g.wrt(wv), g.wrt(xv))
        };
        let (w_leaf, x_leaf) = run(false);
        let (w_const, x_const) = run(true);
        assert_eq!(w_leaf, w_const);
        assert!(x_leaf.max_abs() > 0.0);
        assert_eq!(x_const, Matrix::zeros(2, 2));
        // a loss built from constants alone has no gradient anywhere
        let mut t = Tape::new();
        let c = t.constant(x.clone());
        let l = t.sum(c);
        assert_eq!(t.backward(l).wrt(c), Matrix::zeros(2, 2));
    }

    #[test]
    fn attention_coefficients_sum_to_one_per_segment() {
        // uniform scores (zero attention vectors): each segment averages
        let mut t = Tape::new();
        let hw = t.leaf(Matrix::from_rows(&[&[1.0], &[3.0]]));
        let a = t.leaf(Matrix::zeros(1, 1));
        let b = t.leaf(Matrix::zeros(1, 1));
        let src = Arc::new(vec![0u32, 1, 0, 1]);
        let dst = Arc::new(vec![1u32, 1, 0, 0]);
        let by_target = t.attention(hw, a, b, src.clone(), dst.clone(), Normalise::ByTarget);
        assert_eq!(t.value(by_target).data(), &[2.0, 2.0]);
        // by source: node 0 splits 1.0 over two out-arcs, node 1 3.0
        let by_source = t.attention(hw, a, b, src, dst, Normalise::BySource);
        assert_eq!(t.value(by_source).data(), &[2.0, 2.0]);
        let l = t.sum(by_source);
        let g = t.backward(l);
        // each source row's coefficients sum to one: d(sum)/dhw = 1
        assert_eq!(g.wrt(hw).data(), &[1.0, 1.0]);
    }

    #[test]
    fn scalar_chain() {
        // loss = mean(2x + 3)
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0, 5.0]]));
        let y = t.scale(x, 2.0);
        let z = t.add_scalar(y, 3.0);
        let l = t.mean(z);
        assert_eq!(t.value(l).get(0, 0), (5.0 + 13.0) / 2.0);
        let g = t.backward(l);
        assert_eq!(g.wrt(x).data(), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_on_non_scalar_panics() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(2, 2));
        t.backward(x);
    }

    #[test]
    fn scratch_tape_is_reset_between_uses() {
        let n1 = Tape::with_scratch(|t| {
            let x = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
            let y = t.relu(x);
            let l = t.sum(y);
            let g = t.backward(l);
            assert_eq!(g.wrt(x).data(), &[1.0, 1.0]);
            t.len()
        });
        let n2 = Tape::with_scratch(|t| {
            assert!(t.is_empty(), "scratch must be reset");
            let x = t.leaf(Matrix::from_rows(&[&[3.0]]));
            let l = t.sum(x);
            let g = t.backward(l);
            assert_eq!(g.wrt(x).get(0, 0), 1.0);
            t.len()
        });
        assert_eq!(n1, 3);
        assert_eq!(n2, 2);
        // re-entrant use falls back to a fresh tape instead of panicking
        Tape::with_scratch(|outer| {
            let x = outer.leaf(Matrix::from_rows(&[&[1.0]]));
            Tape::with_scratch(|inner| {
                assert!(inner.is_empty());
                let y = inner.leaf(Matrix::from_rows(&[&[2.0]]));
                assert_eq!(inner.value(y).get(0, 0), 2.0);
            });
            assert_eq!(outer.value(x).get(0, 0), 1.0);
        });
    }

    #[test]
    fn one_minus_and_mul_compose() {
        // Π(1 - p) loss core: d/dp [ (1-p0)(1-p1) ]
        let mut t = Tape::new();
        let p = t.leaf(Matrix::col_vector(&[0.2, 0.4]));
        let q = t.one_minus(p);
        // product of the two entries via gather + mul
        let i0 = t.gather_rows(q, Arc::new(vec![0u32]));
        let i1 = t.gather_rows(q, Arc::new(vec![1u32]));
        let prod = t.mul(i0, i1);
        let l = t.sum(prod);
        let g = t.backward(l);
        // d/dp0 = -(1-p1) = -0.6; d/dp1 = -(1-p0) = -0.8
        assert!((g.wrt(p).get(0, 0) + 0.6).abs() < 1e-12);
        assert!((g.wrt(p).get(1, 0) + 0.8).abs() < 1e-12);
    }
}

//! The one definition of the five GNN layers and their parameters.
//!
//! [`walk`] runs a model's message-passing layers, and [`readout`] its
//! sigmoid head, over any [`LayerOps`]. [`TapeOps`] records each op on
//! the autodiff tape (training); [`Infer`] runs it tape-free over a
//! [`Weights`] store, which is either the dense `f64` parameter list or
//! the int8 serving model. Training, dense inference and int8 inference
//! therefore execute one op sequence. The only thing a store chooses is
//! how a weight is applied to an activation.
//!
//! [`GnnConfig::layout`] is the one table of each kind's parameters:
//! name, shape, role and initialiser. Model construction, checkpoint
//! validation, quantization and the `model_q8` JSON all read it.

use crate::model::{GnnConfig, GnnKind};
use crate::structures::GraphTensors;
use privim_rt::Rng;
use privim_tensor::attention::{self, Normalise};
use privim_tensor::{init, Matrix, SparseMatrix, Tape, Var};
use std::sync::Arc;

/// What a parameter does. The role decides how an int8 model stores it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    /// Contracted against activations: int8 codes in a quantized model.
    Weight,
    /// Added to every row: kept exact.
    Bias,
    /// GIN's learnable self-weight ε (`1×1`): kept exact, and written as
    /// a bare JSON number in `model_q8`.
    Eps,
}

/// How [`GnnModel::new`](crate::GnnModel::new) draws a parameter.
#[derive(Clone, Copy, Debug)]
enum Init {
    /// Xavier-uniform, then scaled by the gain.
    Xavier(f64),
    /// Every entry the given constant.
    Full(f64),
}

/// One entry of a model's parameter layout.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Param {
    /// Key of the parameter in the `model_q8` JSON.
    pub(crate) name: &'static str,
    pub(crate) role: Role,
    pub(crate) shape: (usize, usize),
    init: Init,
}

impl Param {
    /// Draw the initial value (Xavier draws consume `rng`; constants do
    /// not).
    pub(crate) fn init(&self, rng: &mut impl Rng) -> Matrix {
        let (rows, cols) = self.shape;
        match self.init {
            Init::Xavier(gain) => init::xavier_uniform(rows, cols, rng).scale(gain),
            Init::Full(v) => Matrix::full(rows, cols, v),
        }
    }
}

impl GnnConfig {
    /// The parameter layout: each layer's parameters in order, then the
    /// readout `w_out`, `b_out`. Attention vectors and biases start near
    /// zero and GIN's ε at zero (standard defaults).
    pub(crate) fn layout(&self) -> Vec<Param> {
        use Role::{Bias, Eps, Weight};
        let p = |name, role, shape, init| Param {
            name,
            role,
            shape,
            init,
        };
        let h = self.hidden;
        let xavier = Init::Xavier(1.0);
        let zeros = Init::Full(0.0);
        let mut out = Vec::new();
        for l in 0..self.layers {
            let d = if l == 0 { self.in_dim } else { h };
            match self.kind {
                GnnKind::Gcn => {
                    out.extend([p("w", Weight, (d, h), xavier), p("b", Bias, (1, h), zeros)])
                }
                GnnKind::GraphSage => out.extend([
                    p("w", Weight, (2 * d, h), xavier),
                    p("b", Bias, (1, h), zeros),
                ]),
                GnnKind::Gat | GnnKind::Grat => out.extend([
                    p("w", Weight, (d, h), xavier),
                    p("a_dst", Weight, (h, 1), Init::Xavier(0.1)),
                    p("a_src", Weight, (h, 1), Init::Xavier(0.1)),
                    p("b", Bias, (1, h), zeros),
                ]),
                // Damped first-layer init: GIN's *sum* aggregation sees
                // pre-activations that scale with node degree, so
                // full-gain Xavier saturates the MLP on hubs and kills
                // the ranking signal; a 0.2 gain keeps hub activations
                // in the trainable range (the instability Fig. 9's
                // discussion attributes to GIN shows up here).
                GnnKind::Gin => out.extend([
                    p("w1", Weight, (d, h), Init::Xavier(0.2)),
                    p("b1", Bias, (1, h), zeros),
                    p("w2", Weight, (h, h), xavier),
                    p("b2", Bias, (1, h), zeros),
                    p("eps", Eps, (1, 1), zeros),
                ]),
            }
        }
        // The readout bias starts negative so initial seed probabilities
        // sit near 0.1 instead of 0.5 — with unit IC weights that keeps the
        // loss' diffusion term unsaturated and the hub-seeking gradient
        // alive from step one.
        out.extend([
            p("w_out", Weight, (h, 1), xavier),
            p("b_out", Bias, (1, 1), Init::Full(-2.0)),
        ]);
        out
    }
}

/// The ops a GNN layer is made of. Parameters are named by their index
/// in [`GnnConfig::layout`].
pub(crate) trait LayerOps {
    /// An activation: a tape node, or an owned matrix.
    type H;
    /// `adj · h` for one sparse operator of the graph.
    fn aggregate(&mut self, adj: &Arc<SparseMatrix>, h: &Self::H) -> Self::H;
    /// `h · W` for the weight parameter `w`.
    fn weight(&mut self, h: &Self::H, w: usize) -> Self::H;
    /// `h + b` broadcast over rows, for the bias parameter `b`.
    fn bias(&mut self, h: Self::H, b: usize) -> Self::H;
    fn relu(&mut self, h: Self::H) -> Self::H;
    fn sigmoid(&mut self, h: Self::H) -> Self::H;
    /// `[a | b]`.
    fn concat(&mut self, a: &Self::H, b: &Self::H) -> Self::H;
    /// Attention over `gt`'s arcs with the score vectors `a_dst`, `a_src`
    /// ([`privim_tensor::attention`]), plus `hw` itself when `skip`.
    fn attention(
        &mut self,
        gt: &GraphTensors,
        hw: &Self::H,
        a_dst: usize,
        a_src: usize,
        normalise: Normalise,
        skip: bool,
    ) -> Self::H;
    /// GIN's `neigh + (1 + ε)·h` for the ε parameter `eps`.
    fn gin_combine(&mut self, neigh: Self::H, h: &Self::H, eps: usize) -> Self::H;
}

fn bias_relu<O: LayerOps>(ops: &mut O, h: O::H, b: usize) -> O::H {
    let biased = ops.bias(h, b);
    ops.relu(biased)
}

/// Run the message-passing layers on the input features `x`. Returns the
/// final hidden activations and the index of the first readout
/// parameter (every parameter before it has been read).
pub(crate) fn walk<O: LayerOps>(
    cfg: &GnnConfig,
    gt: &GraphTensors,
    ops: &mut O,
    x: O::H,
) -> (O::H, usize) {
    let mut h = x;
    let mut p = 0usize;
    for _ in 0..cfg.layers {
        let (next, used) = match cfg.kind {
            GnnKind::Gcn => {
                let agg = ops.aggregate(gt.adj_gcn(), &h);
                let lin = ops.weight(&agg, p);
                (bias_relu(ops, lin, p + 1), 2)
            }
            GnnKind::GraphSage => {
                let m = ops.aggregate(gt.adj_mean(), &h);
                let cat = ops.concat(&h, &m);
                let lin = ops.weight(&cat, p);
                (bias_relu(ops, lin, p + 1), 2)
            }
            GnnKind::Gat | GnnKind::Grat => {
                let hw = ops.weight(&h, p);
                // GAT-only skip connection: target-normalised attention
                // averages away the node's own magnitude information
                // (on attribute-poor graphs the degree signal inverts),
                // so GAT gets the standard self-features skip; GRAT's
                // source-normalised attention (Eq. 37-40) preserves
                // magnitude by itself.
                let skip = cfg.kind == GnnKind::Gat;
                let agg = ops.attention(gt, &hw, p + 1, p + 2, cfg.kind.normalise(), skip);
                (bias_relu(ops, agg, p + 3), 4)
            }
            GnnKind::Gin => {
                let neigh = ops.aggregate(gt.adj_sum(), &h);
                let pre = ops.gin_combine(neigh, &h, p + 4);
                let l1 = ops.weight(&pre, p);
                let a1 = bias_relu(ops, l1, p + 1);
                let l2 = ops.weight(&a1, p + 2);
                (bias_relu(ops, l2, p + 3), 5)
            }
        };
        h = next;
        p += used;
    }
    (h, p)
}

/// The sigmoid readout `σ(h · w_out + b_out)`, with `w_out` at index `p`.
pub(crate) fn readout<O: LayerOps>(ops: &mut O, h: O::H, p: usize) -> O::H {
    let logits = ops.weight(&h, p);
    let biased = ops.bias(logits, p + 1);
    ops.sigmoid(biased)
}

/// The training path: every op becomes a tape node. Parameters are the
/// caller's leaves.
pub(crate) struct TapeOps<'t> {
    tape: &'t mut Tape,
    params: &'t [Var],
    /// The one sparse operator this kind aggregates with, registered by
    /// its first layer (attention reads the arc lists instead).
    adj: Option<usize>,
}

impl<'t> TapeOps<'t> {
    pub(crate) fn new(tape: &'t mut Tape, params: &'t [Var]) -> Self {
        TapeOps {
            tape,
            params,
            adj: None,
        }
    }
}

impl LayerOps for TapeOps<'_> {
    type H = Var;

    fn aggregate(&mut self, adj: &Arc<SparseMatrix>, h: &Var) -> Var {
        let tape = &mut *self.tape;
        let id = *self
            .adj
            .get_or_insert_with(|| tape.sparse_const(Arc::clone(adj)));
        tape.spmm(id, *h)
    }

    fn weight(&mut self, h: &Var, w: usize) -> Var {
        self.tape.matmul(*h, self.params[w])
    }

    fn bias(&mut self, h: Var, b: usize) -> Var {
        self.tape.add_row_broadcast(h, self.params[b])
    }

    fn relu(&mut self, h: Var) -> Var {
        self.tape.relu(h)
    }

    fn sigmoid(&mut self, h: Var) -> Var {
        self.tape.sigmoid(h)
    }

    fn concat(&mut self, a: &Var, b: &Var) -> Var {
        self.tape.concat_cols(*a, *b)
    }

    fn attention(
        &mut self,
        gt: &GraphTensors,
        hw: &Var,
        a_dst: usize,
        a_src: usize,
        normalise: Normalise,
        skip: bool,
    ) -> Var {
        let (a_dst, a_src) = (self.params[a_dst], self.params[a_src]);
        let src = Arc::clone(&gt.att_src);
        let dst = Arc::clone(&gt.att_dst);
        let agg = self.tape.attention(*hw, a_dst, a_src, src, dst, normalise);
        if skip {
            self.tape.add(agg, *hw)
        } else {
            agg
        }
    }

    fn gin_combine(&mut self, neigh: Var, h: &Var, eps: usize) -> Var {
        let n = self.tape.value(*h).rows();
        let one_plus_eps = self.tape.add_scalar(self.params[eps], 1.0);
        let eps_col = self.tape.gather_rows(one_plus_eps, Arc::new(vec![0u32; n]));
        let scaled_self = self.tape.mul_col_broadcast(eps_col, *h);
        self.tape.add(neigh, scaled_self)
    }
}

/// A tape-free parameter store: how [`Infer`] applies a weight and reads
/// an exact (bias or ε) parameter.
pub(crate) trait Weights {
    /// `h · W` for the weight parameter `w`.
    fn apply(&self, w: usize, h: &Matrix) -> Matrix;
    /// The exact value of the bias or ε parameter `p`.
    fn exact(&self, p: usize) -> &Matrix;
}

/// The dense store: the `f64` parameter list itself.
impl Weights for [Matrix] {
    fn apply(&self, w: usize, h: &Matrix) -> Matrix {
        h.matmul(&self[w])
    }

    fn exact(&self, p: usize) -> &Matrix {
        &self[p]
    }
}

/// The inference path over a [`Weights`] store. Activations are owned
/// matrices, updated in place where an op maps one to one.
pub(crate) struct Infer<'w, W: ?Sized> {
    weights: &'w W,
}

impl<W: Weights + ?Sized> LayerOps for Infer<'_, W> {
    type H = Matrix;

    fn aggregate(&mut self, adj: &Arc<SparseMatrix>, h: &Matrix) -> Matrix {
        adj.spmm(h)
    }

    fn weight(&mut self, h: &Matrix, w: usize) -> Matrix {
        self.weights.apply(w, h)
    }

    fn bias(&mut self, mut h: Matrix, b: usize) -> Matrix {
        let b = self.weights.exact(b);
        assert_eq!(b.shape(), (1, h.cols()), "bias must be a 1 x cols row");
        for r in 0..h.rows() {
            privim_tensor::simd::add_assign(h.row_mut(r), b.data());
        }
        h
    }

    fn relu(&mut self, mut h: Matrix) -> Matrix {
        h.data_mut().iter_mut().for_each(|x| *x = x.max(0.0));
        h
    }

    fn sigmoid(&mut self, mut h: Matrix) -> Matrix {
        h.data_mut()
            .iter_mut()
            .for_each(|x| *x = 1.0 / (1.0 + (-*x).exp()));
        h
    }

    fn concat(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        a.concat_cols(b)
    }

    fn attention(
        &mut self,
        gt: &GraphTensors,
        hw: &Matrix,
        a_dst: usize,
        a_src: usize,
        normalise: Normalise,
        skip: bool,
    ) -> Matrix {
        let s_dst = self.weights.apply(a_dst, hw);
        let s_src = self.weights.apply(a_src, hw);
        let mut agg =
            attention::forward(hw, &s_dst, &s_src, &gt.att_src, &gt.att_dst, normalise).agg;
        if skip {
            agg.add_assign(hw);
        }
        agg
    }

    fn gin_combine(&mut self, mut neigh: Matrix, h: &Matrix, eps: usize) -> Matrix {
        neigh.add_scaled_assign(h, 1.0 + self.weights.exact(eps).get(0, 0));
        neigh
    }
}

/// Tape-free final hidden activations (the penultimate layer).
pub(crate) fn embed<W: Weights + ?Sized>(
    cfg: &GnnConfig,
    weights: &W,
    gt: &GraphTensors,
    x: &Matrix,
) -> Matrix {
    check_features(cfg, gt, x);
    walk(cfg, gt, &mut Infer { weights }, x.clone()).0
}

/// Tape-free per-node seed probabilities.
pub(crate) fn infer<W: Weights + ?Sized>(
    cfg: &GnnConfig,
    weights: &W,
    gt: &GraphTensors,
    x: &Matrix,
) -> Vec<f64> {
    check_features(cfg, gt, x);
    let mut ops = Infer { weights };
    let (h, p) = walk(cfg, gt, &mut ops, x.clone());
    readout(&mut ops, h, p).data().to_vec()
}

/// The features must have one row per node and `in_dim` columns.
pub(crate) fn check_features(cfg: &GnnConfig, gt: &GraphTensors, x: &Matrix) {
    assert_eq!(x.rows(), gt.n, "feature row count mismatch");
    assert_eq!(x.cols(), cfg.in_dim, "feature dim mismatch");
}

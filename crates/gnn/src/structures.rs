//! Message-passing operators per graph.
//!
//! Building these once per subgraph (they are pure functions of the
//! adjacency) keeps the per-step training cost at the dense math only.
//! Each sparse operator is sorted into CSR on first use, so a graph pays
//! only for the operators its GNN kind and loss read: a GRAT forward pass
//! reads none of them, training adds the loss operator.

use privim_graph::Graph;
use privim_tensor::SparseMatrix;
use std::sync::{Arc, OnceLock};

/// The sparse operators and edge lists a [`crate::GnnModel`] forward pass
/// can need, derived from one graph.
pub struct GraphTensors {
    /// Node count.
    pub n: usize,
    /// In-adjacency copied from the graph (CSR: `in_sources[in_offsets[u]..
    /// in_offsets[u + 1]]` are the sources of `u`'s in-arcs, with weights
    /// in `in_weights`) — the input of every sparse operator below.
    in_offsets: Vec<usize>,
    in_sources: Vec<u32>,
    in_weights: Vec<f64>,
    adj_ic: OnceLock<Arc<SparseMatrix>>,
    adj_loss: OnceLock<Arc<SparseMatrix>>,
    adj_gcn: OnceLock<Arc<SparseMatrix>>,
    adj_mean: OnceLock<Arc<SparseMatrix>>,
    adj_sum: OnceLock<Arc<SparseMatrix>>,
    /// Attention arcs: sources per arc, *including* one self-loop per node
    /// (standard GAT practice so isolated nodes keep a message).
    pub att_src: Arc<Vec<u32>>,
    /// Attention arcs: targets per arc (parallel to `att_src`).
    pub att_dst: Arc<Vec<u32>>,
}

impl GraphTensors {
    /// Copy `g`'s in-adjacency and build its attention arcs; the sparse
    /// operators follow on first use.
    pub fn new(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_sources = Vec::with_capacity(g.num_arcs());
        let mut in_weights = Vec::with_capacity(g.num_arcs());
        in_offsets.push(0);
        for u in 0..n as u32 {
            in_sources.extend_from_slice(g.in_neighbors(u));
            in_weights.extend_from_slice(g.in_weights(u));
            in_offsets.push(in_sources.len());
        }

        // Attention arcs (src -> dst) plus self loops.
        let mut att_src = Vec::with_capacity(g.num_arcs() + n);
        let mut att_dst = Vec::with_capacity(g.num_arcs() + n);
        for (u, v, _) in g.arcs() {
            att_src.push(u);
            att_dst.push(v);
        }
        for v in 0..n as u32 {
            att_src.push(v);
            att_dst.push(v);
        }

        GraphTensors {
            n,
            in_offsets,
            in_sources,
            in_weights,
            adj_ic: OnceLock::new(),
            adj_loss: OnceLock::new(),
            adj_gcn: OnceLock::new(),
            adj_mean: OnceLock::new(),
            adj_sum: OnceLock::new(),
            att_src: Arc::new(att_src),
            att_dst: Arc::new(att_dst),
        }
    }

    /// Sources of `u`'s in-arcs.
    fn in_neighbors(&self, u: usize) -> &[u32] {
        &self.in_sources[self.in_offsets[u]..self.in_offsets[u + 1]]
    }

    /// `(u, v, w_vu)` for every in-arc `v → u`, rows ascending.
    fn in_arcs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |u| {
            let ws = &self.in_weights[self.in_offsets[u]..self.in_offsets[u + 1]];
            self.in_neighbors(u)
                .iter()
                .zip(ws)
                .map(move |(&v, &w)| (u, v as usize, w))
        })
    }

    fn build(&self, triplets: impl Iterator<Item = (usize, usize, f64)>) -> Arc<SparseMatrix> {
        Arc::new(SparseMatrix::from_triplets(self.n, self.n, triplets))
    }

    /// IC-weighted in-adjacency (Eq. 2): row `u` holds `w_vu` for in-arcs
    /// `v → u`. Drives the diffusion upper bound in the loss (Theorem 2).
    pub fn adj_ic(&self) -> &Arc<SparseMatrix> {
        self.adj_ic.get_or_init(|| self.build(self.in_arcs()))
    }

    /// Loss diffusion operator (Theorem 2 / Eq. 5): `adj_ic` plus unit
    /// self-loops, so a seed counts itself as influenced — matching the
    /// evaluation's `|S ∪ N⁺(S)|` coverage semantics.
    pub fn adj_loss(&self) -> &Arc<SparseMatrix> {
        self.adj_loss
            .get_or_init(|| self.build(self.in_arcs().chain((0..self.n).map(|u| (u, u, 1.0)))))
    }

    /// GCN operator (Eq. 31 plus self-loops): `Â[u][v] = 1/√(d̃_u d̃_v)`
    /// over in-arcs and self-loops, `d̃ = in-degree + 1`.
    pub fn adj_gcn(&self) -> &Arc<SparseMatrix> {
        self.adj_gcn.get_or_init(|| {
            let dt: Vec<f64> = (0..self.n)
                .map(|u| (self.in_neighbors(u).len() + 1) as f64)
                .collect();
            let mut gcn = Vec::with_capacity(self.in_sources.len() + self.n);
            for u in 0..self.n {
                gcn.push((u, u, 1.0 / dt[u]));
                for &v in self.in_neighbors(u) {
                    gcn.push((u, v as usize, 1.0 / (dt[u] * dt[v as usize]).sqrt()));
                }
            }
            self.build(gcn.into_iter())
        })
    }

    /// Row-normalised in-adjacency (mean aggregator, GraphSAGE Eq. 29).
    pub fn adj_mean(&self) -> &Arc<SparseMatrix> {
        self.adj_mean.get_or_init(|| {
            self.build(
                self.in_arcs()
                    .map(|(u, v, _)| (u, v, 1.0 / self.in_neighbors(u).len().max(1) as f64)),
            )
        })
    }

    /// How many of the five sparse operators have been built so far.
    #[cfg(test)]
    pub(crate) fn operators_built(&self) -> usize {
        [
            &self.adj_ic,
            &self.adj_loss,
            &self.adj_gcn,
            &self.adj_mean,
            &self.adj_sum,
        ]
        .iter()
        .filter(|op| op.get().is_some())
        .count()
    }

    /// Plain 0/1 in-adjacency (sum aggregator, GIN Eq. 41).
    pub fn adj_sum(&self) -> &Arc<SparseMatrix> {
        self.adj_sum
            .get_or_init(|| self.build(self.in_arcs().map(|(u, v, _)| (u, v, 1.0))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_graph::GraphBuilder;
    use privim_tensor::Matrix;

    fn path() -> Graph {
        // 0 -> 1 -> 2, weights .5/.25
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1, 0.5);
        b.add_edge(1, 2, 0.25);
        b.build()
    }

    #[test]
    fn ic_adjacency_is_in_oriented() {
        let gt = GraphTensors::new(&path());
        let d = gt.adj_ic().to_dense();
        assert_eq!(d.get(1, 0), 0.5); // arc 0->1 lands in row 1
        assert_eq!(d.get(2, 1), 0.25);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn mean_rows_sum_to_one_or_zero() {
        let gt = GraphTensors::new(&path());
        let ones = Matrix::full(3, 1, 1.0);
        let row_sums = gt.adj_mean().spmm(&ones);
        assert_eq!(row_sums.get(0, 0), 0.0); // no in-neighbours
        assert_eq!(row_sums.get(1, 0), 1.0);
        assert_eq!(row_sums.get(2, 0), 1.0);
    }

    #[test]
    fn gcn_has_self_loops() {
        let gt = GraphTensors::new(&path());
        let d = gt.adj_gcn().to_dense();
        for v in 0..3 {
            assert!(d.get(v, v) > 0.0, "self loop missing at {v}");
        }
        // normalisation: entry (1,0) = 1/sqrt(d1*d0) = 1/sqrt(2*1)
        assert!((d.get(1, 0) - 1.0 / 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn attention_arcs_include_self_loops() {
        let g = path();
        let gt = GraphTensors::new(&g);
        assert_eq!(gt.att_src.len(), g.num_arcs() + g.num_nodes());
        // every node appears at least once as a target
        for v in 0..3u32 {
            assert!(gt.att_dst.contains(&v));
        }
    }

    #[test]
    fn operators_are_built_once_on_first_use() {
        let gt = GraphTensors::new(&path());
        assert_eq!(gt.operators_built(), 0);
        let first = Arc::as_ptr(gt.adj_loss());
        assert_eq!(gt.operators_built(), 1);
        assert_eq!(Arc::as_ptr(gt.adj_loss()), first, "rebuilt on second use");
        assert_eq!(gt.operators_built(), 1);
    }

    #[test]
    fn sum_adjacency_counts_in_neighbors() {
        let gt = GraphTensors::new(&path());
        let ones = Matrix::full(3, 1, 1.0);
        let sums = gt.adj_sum().spmm(&ones);
        assert_eq!(sums.data(), &[0.0, 1.0, 1.0]);
    }
}
#[cfg(test)]
mod loss_operator_tests {
    use super::*;
    use privim_graph::GraphBuilder;
    use privim_tensor::Matrix;

    #[test]
    fn adj_loss_adds_unit_self_loops() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1, 0.5);
        let g = b.build();
        let gt = GraphTensors::new(&g);
        let d = gt.adj_loss().to_dense();
        for v in 0..3 {
            assert_eq!(d.get(v, v), 1.0, "self loop at {v}");
        }
        assert_eq!(d.get(1, 0), 0.5);
        // binary seed vector p = e_0: influenced = {0 (self), 1 (via arc, capped)}
        let p = Matrix::col_vector(&[1.0, 0.0, 0.0]);
        let inf = gt.adj_loss().spmm(&p);
        assert_eq!(inf.data(), &[1.0, 0.5, 0.0]);
    }
}

//! Quantized serving models.
//!
//! [`QuantGnnModel`] is an int8 mirror of [`GnnModel`]'s tape-free
//! inference path: every weight block with more than one row is stored as
//! per-column-scaled `i8` codes ([`QuantWeights`]) and contracted by
//! exact integer dot products at serve time — no dequantized matrix is
//! ever materialised. Biases and GIN's ε (all `1×…`) stay dense `f64`;
//! quantizing scalars saves nothing and costs accuracy.
//!
//! The layer loop below is deliberately operation-for-operation aligned
//! with `GnnModel::hidden_features` (it reuses the same crate-private
//! helpers and the same attention kernel,
//! [`privim_tensor::attention::forward`]), so the only divergence between
//! the dense and quantized paths is the weight contraction itself — which
//! keeps the quantization error analysable as a per-matmul perturbation.
//! The int8 contraction quantizes activations per row, so the attention
//! scores are computed once per node, exactly as they would be per arc.

use crate::model::{add_bias, relu, GnnConfig, GnnKind, GnnModel};
use crate::structures::GraphTensors;
use privim_rt::json::Value;
use privim_rt::{PrivimError, PrivimResult};
use privim_tensor::{attention, Matrix, QuantWeights};

/// One quantized message-passing layer (layout follows the architecture).
#[derive(Clone, Debug)]
enum QLayer {
    /// GCN: quantized weight + dense bias.
    Gcn { w: QuantWeights, b: Matrix },
    /// GraphSAGE: quantized (concatenated) weight + dense bias.
    Sage { w: QuantWeights, b: Matrix },
    /// GAT/GRAT: quantized weight and attention vectors + dense bias.
    Att {
        w: QuantWeights,
        a_dst: QuantWeights,
        a_src: QuantWeights,
        b: Matrix,
    },
    /// GIN: two quantized MLP weights, dense biases, scalar ε.
    Gin {
        w1: QuantWeights,
        b1: Matrix,
        w2: QuantWeights,
        b2: Matrix,
        eps: f64,
    },
}

/// Int8-quantized inference model for the serving path. Built from a
/// trained [`GnnModel`] at pack time; bit-identical across every
/// `PRIVIM_SIMD` backend by construction (the integer contraction is
/// exact, so summation order cannot matter).
#[derive(Clone, Debug)]
pub struct QuantGnnModel {
    config: GnnConfig,
    layers: Vec<QLayer>,
    w_out: QuantWeights,
    b_out: Matrix,
}

impl QuantGnnModel {
    /// Quantize a trained model's weights (per-output-column int8);
    /// biases and ε are carried over exactly.
    pub fn from_model(m: &GnnModel) -> QuantGnnModel {
        let config = *m.config();
        let p = m.params();
        let mut pi = 0usize;
        let mut layers = Vec::with_capacity(config.layers);
        for _ in 0..config.layers {
            layers.push(match config.kind {
                GnnKind::Gcn => {
                    let l = QLayer::Gcn {
                        w: QuantWeights::quantize(&p[pi]),
                        b: p[pi + 1].clone(),
                    };
                    pi += 2;
                    l
                }
                GnnKind::GraphSage => {
                    let l = QLayer::Sage {
                        w: QuantWeights::quantize(&p[pi]),
                        b: p[pi + 1].clone(),
                    };
                    pi += 2;
                    l
                }
                GnnKind::Gat | GnnKind::Grat => {
                    let l = QLayer::Att {
                        w: QuantWeights::quantize(&p[pi]),
                        a_dst: QuantWeights::quantize(&p[pi + 1]),
                        a_src: QuantWeights::quantize(&p[pi + 2]),
                        b: p[pi + 3].clone(),
                    };
                    pi += 4;
                    l
                }
                GnnKind::Gin => {
                    let l = QLayer::Gin {
                        w1: QuantWeights::quantize(&p[pi]),
                        b1: p[pi + 1].clone(),
                        w2: QuantWeights::quantize(&p[pi + 2]),
                        b2: p[pi + 3].clone(),
                        eps: p[pi + 4].get(0, 0),
                    };
                    pi += 5;
                    l
                }
            });
        }
        QuantGnnModel {
            config,
            layers,
            w_out: QuantWeights::quantize(&p[pi]),
            b_out: p[pi + 1].clone(),
        }
    }

    /// Architecture configuration.
    pub fn config(&self) -> &GnnConfig {
        &self.config
    }

    /// Per-node seed probabilities — the quantized counterpart of
    /// [`GnnModel::infer`].
    pub fn infer(&self, gt: &GraphTensors, x: &Matrix) -> Vec<f64> {
        let h = self.hidden_features(gt, x);
        let logits = add_bias(&self.w_out.matmul(&h), &self.b_out);
        logits
            .data()
            .iter()
            .map(|&v| 1.0 / (1.0 + (-v).exp()))
            .collect()
    }

    /// The quantized layer loop (mirrors `GnnModel::hidden_features`).
    fn hidden_features(&self, gt: &GraphTensors, x: &Matrix) -> Matrix {
        assert_eq!(x.rows(), gt.n);
        assert_eq!(x.cols(), self.config.in_dim);
        let mut h = x.clone();
        for layer in &self.layers {
            h = match layer {
                QLayer::Gcn { w, b } => relu(&add_bias(&w.matmul(&gt.adj_gcn().spmm(&h)), b)),
                QLayer::Sage { w, b } => {
                    let m = gt.adj_mean().spmm(&h);
                    relu(&add_bias(&w.matmul(&h.concat_cols(&m)), b))
                }
                QLayer::Att { w, a_dst, a_src, b } => {
                    let hw = w.matmul(&h);
                    let (s_dst, s_src) = (a_dst.matmul(&hw), a_src.matmul(&hw));
                    let mut agg = attention::forward(
                        &hw,
                        &s_dst,
                        &s_src,
                        &gt.att_src,
                        &gt.att_dst,
                        self.config.kind.normalise(),
                    )
                    .agg;
                    if self.config.kind == GnnKind::Gat {
                        agg.add_assign(&hw);
                    }
                    relu(&add_bias(&agg, b))
                }
                QLayer::Gin { w1, b1, w2, b2, eps } => {
                    let mut pre = gt.adj_sum().spmm(&h);
                    pre.add_scaled_assign(&h, 1.0 + eps);
                    let a1 = relu(&add_bias(&w1.matmul(&pre), b1));
                    relu(&add_bias(&w2.matmul(&a1), b2))
                }
            };
        }
        h
    }

    /// Reconstruct a dense [`GnnModel`] by dequantizing every weight
    /// block (biases/ε are exact). The result approximates the original
    /// trained model within the per-column quantization step; useful for
    /// consumers that need the dense parameter layout (bundle
    /// compaction, diagnostics).
    pub fn to_dense_model(&self) -> PrivimResult<GnnModel> {
        let mut params = Vec::new();
        for layer in &self.layers {
            match layer {
                QLayer::Gcn { w, b } | QLayer::Sage { w, b } => {
                    params.push(w.dequantize());
                    params.push(b.clone());
                }
                QLayer::Att { w, a_dst, a_src, b } => {
                    params.push(w.dequantize());
                    params.push(a_dst.dequantize());
                    params.push(a_src.dequantize());
                    params.push(b.clone());
                }
                QLayer::Gin { w1, b1, w2, b2, eps } => {
                    params.push(w1.dequantize());
                    params.push(b1.clone());
                    params.push(w2.dequantize());
                    params.push(b2.clone());
                    params.push(Matrix::full(1, 1, *eps));
                }
            }
        }
        params.push(self.w_out.dequantize());
        params.push(self.b_out.clone());
        GnnModel::from_parts(self.config, params)
    }

    /// Convenience: score a raw graph (builds tensors + features).
    pub fn score_graph(&self, g: &privim_graph::Graph) -> Vec<f64> {
        let gt = GraphTensors::new(g);
        let x = crate::features::node_features(g);
        self.infer(&gt, &x)
    }

    /// JSON payload (`{"config", "layers", "w_out", "b_out"}`) for the
    /// serve bundle; the bundle's CRC-32 covers it.
    pub fn to_json(&self) -> Value {
        let layers = self
            .layers
            .iter()
            .map(|l| match l {
                QLayer::Gcn { w, b } | QLayer::Sage { w, b } => {
                    Value::obj(vec![("w", w.to_json()), ("b", b.to_json())])
                }
                QLayer::Att { w, a_dst, a_src, b } => Value::obj(vec![
                    ("w", w.to_json()),
                    ("a_dst", a_dst.to_json()),
                    ("a_src", a_src.to_json()),
                    ("b", b.to_json()),
                ]),
                QLayer::Gin { w1, b1, w2, b2, eps } => Value::obj(vec![
                    ("w1", w1.to_json()),
                    ("b1", b1.to_json()),
                    ("w2", w2.to_json()),
                    ("b2", b2.to_json()),
                    ("eps", Value::Num(*eps)),
                ]),
            })
            .collect();
        Value::obj(vec![
            ("config", self.config.to_json()),
            ("layers", Value::Arr(layers)),
            ("w_out", self.w_out.to_json()),
            ("b_out", self.b_out.to_json()),
        ])
    }

    /// Parse the [`Self::to_json`] form with typed errors on any layout
    /// mismatch.
    pub fn from_json(v: &Value) -> PrivimResult<QuantGnnModel> {
        let bad = |msg: String| PrivimError::Parse(format!("quant model: {msg}"));
        let config = GnnConfig::from_json(
            v.get("config").ok_or_else(|| bad("missing config".into()))?,
        )?;
        let layer_vals = v
            .get("layers")
            .and_then(|x| x.as_array())
            .ok_or_else(|| bad("missing layers".into()))?;
        if layer_vals.len() != config.layers {
            return Err(bad(format!(
                "{} layers for a {}-layer config",
                layer_vals.len(),
                config.layers
            )));
        }
        let qw = |l: &Value, k: &str| {
            l.get(k)
                .ok_or_else(|| bad(format!("layer missing {k}")))
                .and_then(|x| QuantWeights::from_json(x).map_err(bad))
        };
        let dm = |l: &Value, k: &str| {
            l.get(k)
                .ok_or_else(|| bad(format!("layer missing {k}")))
                .and_then(|x| Matrix::from_json(x).map_err(bad))
        };
        let mut layers = Vec::with_capacity(layer_vals.len());
        for l in layer_vals {
            layers.push(match config.kind {
                GnnKind::Gcn => QLayer::Gcn {
                    w: qw(l, "w")?,
                    b: dm(l, "b")?,
                },
                GnnKind::GraphSage => QLayer::Sage {
                    w: qw(l, "w")?,
                    b: dm(l, "b")?,
                },
                GnnKind::Gat | GnnKind::Grat => QLayer::Att {
                    w: qw(l, "w")?,
                    a_dst: qw(l, "a_dst")?,
                    a_src: qw(l, "a_src")?,
                    b: dm(l, "b")?,
                },
                GnnKind::Gin => QLayer::Gin {
                    w1: qw(l, "w1")?,
                    b1: dm(l, "b1")?,
                    w2: qw(l, "w2")?,
                    b2: dm(l, "b2")?,
                    eps: l
                        .get("eps")
                        .and_then(|x| x.as_f64())
                        .ok_or_else(|| bad("layer missing eps".into()))?,
                },
            });
        }
        Ok(QuantGnnModel {
            config,
            layers,
            w_out: qw(v, "w_out")?,
            b_out: dm(v, "b_out")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{node_features, FEATURE_DIM};
    use privim_graph::generators;
    use privim_rt::{ChaCha8Rng, SeedableRng};

    fn setup(kind: GnnKind, seed: u64) -> (GnnModel, GraphTensors, Matrix) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::barabasi_albert(30, 3, &mut rng);
        let gt = GraphTensors::new(&g);
        let x = node_features(&g);
        let cfg = GnnConfig {
            kind,
            layers: 2,
            hidden: 8,
            in_dim: FEATURE_DIM,
        };
        (GnnModel::new(cfg, &mut rng), gt, x)
    }

    #[test]
    fn quantized_inference_tracks_dense_for_every_kind() {
        for kind in GnnKind::ALL {
            let (model, gt, x) = setup(kind, 31);
            let dense = model.infer(&gt, &x);
            let quant = QuantGnnModel::from_model(&model).infer(&gt, &x);
            assert_eq!(dense.len(), quant.len());
            let max_err = dense
                .iter()
                .zip(&quant)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            // probabilities live in [0,1]; int8 weights keep the served
            // scores within a few percent of the dense model
            assert!(max_err < 0.05, "{kind:?}: max prob drift {max_err}");
        }
    }

    #[test]
    fn json_round_trip_preserves_quantized_inference_bitwise() {
        for kind in GnnKind::ALL {
            let (model, gt, x) = setup(kind, 32);
            let q = QuantGnnModel::from_model(&model);
            let rt = QuantGnnModel::from_json(&q.to_json()).unwrap();
            let a = q.infer(&gt, &x);
            let b = rt.infer(&gt, &x);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{kind:?}");
            }
        }
    }

    #[test]
    fn wrong_layer_count_is_a_typed_error() {
        let (model, _, _) = setup(GnnKind::Gcn, 33);
        let q = QuantGnnModel::from_model(&model);
        let text = q.to_json().to_json_string();
        // claim 3 layers while shipping 2 — must be a typed Parse error
        let bumped = text.replacen("\"layers\":2", "\"layers\":3", 1);
        assert_ne!(text, bumped, "config layer field not found");
        let v = Value::parse(&bumped).unwrap();
        assert!(matches!(
            QuantGnnModel::from_json(&v),
            Err(PrivimError::Parse(_))
        ));
    }

    #[test]
    fn quantized_inference_is_backend_invariant() {
        use privim_tensor::simd;
        let (model, gt, x) = setup(GnnKind::Grat, 34);
        let q = QuantGnnModel::from_model(&model);
        simd::set_backend(Some(simd::Choice::Scalar));
        let scalar = q.infer(&gt, &x);
        simd::set_backend(Some(simd::Choice::Auto));
        let auto = q.infer(&gt, &x);
        simd::set_backend(None);
        for (a, b) in scalar.iter().zip(&auto) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

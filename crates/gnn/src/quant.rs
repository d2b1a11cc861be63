//! Quantized serving models.
//!
//! [`QuantGnnModel`] is [`GnnModel`]'s parameter list with every weight
//! stored as per-column-scaled `i8` codes ([`QuantWeights`]) and
//! contracted by exact integer dot products at serve time — no dequantized
//! matrix is ever materialised. Biases and GIN's ε stay exact `f64`;
//! quantizing them saves nothing and costs accuracy. Which parameters are
//! weights is read from the layout table (`GnnConfig::layout`), by role
//! rather than shape.
//!
//! The layer walk is shared by construction: int8 inference is the one
//! tape-free walk of `crate::layers` over an int8 weight store, so the
//! only divergence from the dense path is the weight contraction itself —
//! which keeps the quantization error analysable as a per-matmul
//! perturbation. The int8 contraction quantizes activations per row, so
//! the attention scores are computed once per node, exactly as they
//! would be per arc.

use crate::layers::{self, Role, Weights};
use crate::model::{GnnConfig, GnnModel};
use crate::structures::GraphTensors;
use privim_rt::json::Value;
use privim_rt::{PrivimError, PrivimResult};
use privim_tensor::{Matrix, QuantWeights};

/// One stored parameter of the int8 model.
#[derive(Clone, Debug)]
enum QParam {
    /// A weight ([`Role::Weight`]): per-column int8 codes.
    Int8(QuantWeights),
    /// A bias or ε, carried over exactly.
    Exact(Matrix),
}

impl QParam {
    fn shape(&self) -> (usize, usize) {
        match self {
            QParam::Int8(w) => (w.in_dim(), w.out_dim()),
            QParam::Exact(m) => m.shape(),
        }
    }
}

/// The int8 store: weights contract through [`QuantWeights::matmul`].
impl Weights for [QParam] {
    fn apply(&self, w: usize, h: &Matrix) -> Matrix {
        match &self[w] {
            QParam::Int8(q) => q.matmul(h),
            QParam::Exact(m) => h.matmul(m),
        }
    }

    fn exact(&self, p: usize) -> &Matrix {
        match &self[p] {
            QParam::Exact(m) => m,
            // privim-lint: allow(panic, reason = "every constructor builds the list from the layout table, which stores only Role::Weight parameters as Int8, and the walk reads a bias or eps only at a Bias/Eps index")
            QParam::Int8(_) => unreachable!("parameter {p} is an int8 weight, not a bias"),
        }
    }
}

/// Int8-quantized inference model for the serving path. Built from a
/// trained [`GnnModel`] at pack time; bit-identical across every
/// `PRIVIM_SIMD` backend by construction (the integer contraction is
/// exact, so summation order cannot matter).
#[derive(Clone, Debug)]
pub struct QuantGnnModel {
    config: GnnConfig,
    /// In [`GnnModel::params`] order.
    params: Vec<QParam>,
}

impl QuantGnnModel {
    /// Quantize a trained model's weights (per-output-column int8);
    /// biases and ε are carried over exactly.
    pub fn from_model(m: &GnnModel) -> QuantGnnModel {
        let config = *m.config();
        let params = config
            .layout()
            .iter()
            .zip(m.params())
            .map(|(p, w)| match p.role {
                Role::Weight => QParam::Int8(QuantWeights::quantize(w)),
                Role::Bias | Role::Eps => QParam::Exact(w.clone()),
            })
            .collect();
        QuantGnnModel { config, params }
    }

    /// Architecture configuration.
    pub fn config(&self) -> &GnnConfig {
        &self.config
    }

    /// Per-node seed probabilities — the quantized counterpart of
    /// [`GnnModel::infer`].
    pub fn infer(&self, gt: &GraphTensors, x: &Matrix) -> Vec<f64> {
        layers::infer(&self.config, &self.params[..], gt, x)
    }

    /// Reconstruct a dense [`GnnModel`] by dequantizing every weight
    /// block (biases/ε are exact). The result approximates the original
    /// trained model within the per-column quantization step; useful for
    /// consumers that need the dense parameter layout (bundle
    /// compaction, diagnostics).
    pub fn to_dense_model(&self) -> PrivimResult<GnnModel> {
        let params = self
            .params
            .iter()
            .map(|p| match p {
                QParam::Int8(w) => w.dequantize(),
                QParam::Exact(m) => m.clone(),
            })
            .collect();
        GnnModel::from_parts(self.config, params)
    }

    /// Convenience: score a raw graph (builds tensors + features).
    pub fn score_graph(&self, g: &privim_graph::Graph) -> Vec<f64> {
        let gt = GraphTensors::new(g);
        let x = crate::features::node_features(g);
        self.infer(&gt, &x)
    }

    /// JSON payload (`{"config", "layers", "w_out", "b_out"}`) for the
    /// serve bundle; the bundle's CRC-32 covers it. Each entry of
    /// `layers` is an object keyed by the layer's parameter names.
    pub fn to_json(&self) -> Value {
        let layout = self.config.layout();
        let mut fields = layout.iter().zip(&self.params).map(|(p, q)| {
            let v = match q {
                QParam::Int8(w) => w.to_json(),
                QParam::Exact(m) if p.role == Role::Eps => Value::Num(m.get(0, 0)),
                QParam::Exact(m) => m.to_json(),
            };
            (p.name, v)
        });
        let per_layer = (layout.len() - 2) / self.config.layers;
        let layers = (0..self.config.layers)
            .map(|_| Value::obj(fields.by_ref().take(per_layer).collect()))
            .collect();
        let mut doc = vec![
            ("config", self.config.to_json()),
            ("layers", Value::Arr(layers)),
        ];
        doc.extend(fields);
        Value::obj(doc)
    }

    /// Parse the [`Self::to_json`] form with typed errors on any layout
    /// mismatch.
    pub fn from_json(v: &Value) -> PrivimResult<QuantGnnModel> {
        let bad = |msg: String| PrivimError::Parse(format!("quant model: {msg}"));
        let config = GnnConfig::from_json(
            v.get("config")
                .ok_or_else(|| bad("missing config".into()))?,
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
        let layout = config.layout();
        let per_layer = (layout.len() - 2) / config.layers;
        // The object each parameter is read from: its layer's, or the
        // top level for the readout.
        let homes = layer_vals
            .iter()
            .flat_map(|l| std::iter::repeat_n(l, per_layer))
            .chain([v, v]);
        let params = layout
            .iter()
            .zip(homes)
            .map(|(p, home)| {
                let x = home
                    .get(p.name)
                    .ok_or_else(|| bad(format!("missing {}", p.name)))?;
                let q = match p.role {
                    Role::Weight => QParam::Int8(QuantWeights::from_json(x).map_err(bad)?),
                    Role::Bias => QParam::Exact(Matrix::from_json(x).map_err(bad)?),
                    Role::Eps => QParam::Exact(Matrix::full(
                        1,
                        1,
                        x.as_f64()
                            .ok_or_else(|| bad(format!("non-numeric {}", p.name)))?,
                    )),
                };
                if q.shape() != p.shape {
                    return Err(bad(format!(
                        "{} is {:?}, the config needs {:?}",
                        p.name,
                        q.shape(),
                        p.shape
                    )));
                }
                Ok(q)
            })
            .collect::<PrivimResult<_>>()?;
        Ok(QuantGnnModel { config, params })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{node_features, FEATURE_DIM};
    use crate::model::GnnKind;
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
    fn layout_mismatches_are_typed_errors() {
        let (model, _, _) = setup(GnnKind::Gcn, 33);
        let q = QuantGnnModel::from_model(&model);
        let text = q.to_json().to_json_string();
        // claim 3 layers while shipping 2, or 9 hidden units while the
        // parameters are 8 wide — each must be a typed Parse error, not a
        // model that panics at inference
        for (from, to) in [("\"layers\":2", "\"layers\":3"), ("\"hidden\":8", "\"hidden\":9")] {
            let bumped = text.replacen(from, to, 1);
            assert_ne!(text, bumped, "config field {from} not found");
            let v = Value::parse(&bumped).unwrap();
            assert!(
                matches!(QuantGnnModel::from_json(&v), Err(PrivimError::Parse(_))),
                "{to}"
            );
        }
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

//! Quantized weight storage for the serving path.
//!
//! One format, produced at *pack* time so the serve loop never pays for
//! conversion: **int8** ([`QuantWeights`]), symmetric per-output-column
//! scales over a transposed `i8` weight block. Inference quantizes each
//! activation row on the fly (per-row scale), runs exact integer dot
//! products ([`crate::simd::idot`]), and rescales once per output element —
//! no dequantized weight matrix is ever materialised. Because the integer
//! accumulation is exact, the quantized path is bit-identical across every
//! `PRIVIM_SIMD` backend by construction.
//!
//! Error model: with column scale `s_j = max_i |w_ij| / 127`,
//! dequantized weights satisfy `|ŵ_ij − w_ij| ≤ s_j / 2`, and the matmul
//! additionally rounds each activation row with its own scale — the
//! round-trip and end-to-end bounds are pinned by tests here and in
//! `tests/determinism.rs`.

use crate::matrix::Matrix;
use crate::simd;
use privim_rt::json::{ToJson, Value};

/// Symmetric signed range: quantized codes live in `[-127, 127]` (the
/// code `-128` is never produced, keeping negation exact).
const QMAX: f64 = 127.0;

/// Per-output-column symmetric int8 quantization of a dense weight
/// matrix, stored transposed so each output column is a contiguous `i8`
/// row for [`simd::idot`].
#[derive(Clone, Debug, PartialEq)]
pub struct QuantWeights {
    in_dim: usize,
    out_dim: usize,
    /// Dequantization scale per output column (`len == out_dim`).
    scales: Vec<f64>,
    /// Transposed codes: row `j` holds column `j` of the source matrix
    /// (`len == in_dim * out_dim`).
    qt: Vec<i8>,
}

impl QuantWeights {
    /// Quantize `w` (shape `in_dim × out_dim`). Each output column `j`
    /// gets scale `s_j = max_i |w_ij| / 127` and codes
    /// `round(w_ij / s_j)`; an all-zero column gets scale `0` and zero
    /// codes (dequantizes exactly).
    pub fn quantize(w: &Matrix) -> QuantWeights {
        let (in_dim, out_dim) = w.shape();
        assert!(in_dim < (1 << 16), "idot i32 headroom needs in_dim < 2^16");
        let mut scales = vec![0.0f64; out_dim];
        let mut qt = vec![0i8; in_dim * out_dim];
        for j in 0..out_dim {
            let mut absmax = 0.0f64;
            for i in 0..in_dim {
                absmax = absmax.max(w.get(i, j).abs());
            }
            // `!(absmax > 0)` also routes NaN columns to the zero encoding
            // rather than poisoning every code in the column
            if !(absmax > 0.0) {
                continue;
            }
            let s = absmax / QMAX;
            scales[j] = s;
            let row = &mut qt[j * in_dim..(j + 1) * in_dim];
            for (i, q) in row.iter_mut().enumerate() {
                *q = (w.get(i, j) / s).round().clamp(-QMAX, QMAX) as i8;
            }
        }
        QuantWeights {
            in_dim,
            out_dim,
            scales,
            qt,
        }
    }

    /// Input (contraction) dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Reconstruct the approximate dense matrix
    /// (`ŵ_ij = q_ij · s_j`, so `|ŵ_ij − w_ij| ≤ s_j / 2`).
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.in_dim, self.out_dim);
        for j in 0..self.out_dim {
            let s = self.scales[j];
            let row = &self.qt[j * self.in_dim..(j + 1) * self.in_dim];
            for (i, &q) in row.iter().enumerate() {
                out.set(i, j, q as f64 * s);
            }
        }
        out
    }

    /// `x × ŵ` without materialising `ŵ`: each activation row is
    /// quantized with its own symmetric scale, contracted against the
    /// `i8` columns by exact integer dot products, and rescaled once per
    /// output element. Bit-identical across SIMD backends (integer
    /// accumulation is exact, so summation order cannot matter).
    pub fn matmul(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.cols(),
            self.in_dim,
            "quant matmul {}x{} × {}x{}",
            x.rows(),
            x.cols(),
            self.in_dim,
            self.out_dim
        );
        let mut out = Matrix::zeros(x.rows(), self.out_dim);
        let mut xq = vec![0i8; self.in_dim];
        for r in 0..x.rows() {
            let xrow = x.row(r);
            let absmax = xrow.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            if !(absmax > 0.0) {
                continue; // zero (or non-finite-free empty) row stays zero
            }
            let sa = absmax / QMAX;
            for (q, &v) in xq.iter_mut().zip(xrow) {
                *q = (v / sa).round().clamp(-QMAX, QMAX) as i8;
            }
            let orow = out.row_mut(r);
            for (j, o) in orow.iter_mut().enumerate() {
                let wrow = &self.qt[j * self.in_dim..(j + 1) * self.in_dim];
                let t = simd::idot(&xq, wrow);
                *o = t as f64 * (sa * self.scales[j]);
            }
        }
        out
    }

    /// JSON form: `{"rows", "cols", "scales", "q"}` with the codes as a
    /// flat integer array (row `j` of the transposed block at
    /// `q[j*rows .. (j+1)*rows]`).
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("rows", self.in_dim.to_json()),
            ("cols", self.out_dim.to_json()),
            ("scales", self.scales.as_slice().to_json()),
            ("q", self.qt.as_slice().to_json()),
        ])
    }

    /// Parse the [`Self::to_json`] form.
    pub fn from_json(v: &Value) -> Result<QuantWeights, String> {
        let in_dim = v
            .get("rows")
            .and_then(|x| x.as_usize())
            .ok_or("quant: missing rows")?;
        let out_dim = v
            .get("cols")
            .and_then(|x| x.as_usize())
            .ok_or("quant: missing cols")?;
        let scales: Vec<f64> = v
            .get("scales")
            .and_then(|x| x.as_array())
            .ok_or("quant: missing scales")?
            .iter()
            .map(|x| x.as_f64().ok_or("quant: non-numeric scale".to_string()))
            .collect::<Result<_, _>>()?;
        let qt: Vec<i8> = v
            .get("q")
            .and_then(|x| x.as_array())
            .ok_or("quant: missing q")?
            .iter()
            .map(|x| {
                let f = x.as_f64().ok_or("quant: non-numeric code")?;
                // privim-lint: allow(float-eq, reason = "integrality gate on a parsed code: fract() of a true integer is exactly IEEE 0.0, anything else must be rejected, so exact comparison is the correct predicate")
                if f.fract() != 0.0 || !(-128.0..=127.0).contains(&f) {
                    return Err(format!("quant: code {f} out of i8 range"));
                }
                Ok(f as i8)
            })
            .collect::<Result<_, _>>()?;
        if scales.len() != out_dim || qt.len() != in_dim * out_dim {
            return Err(format!(
                "quant: {} scales / {} codes for {in_dim}x{out_dim}",
                scales.len(),
                qt.len()
            ));
        }
        Ok(QuantWeights {
            in_dim,
            out_dim,
            scales,
            qt,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| ((i * 37 + salt * 11) % 23) as f64 / 7.0 - 1.5)
                .collect(),
        )
    }

    #[test]
    fn dequantize_error_is_within_half_a_step() {
        let w = test_matrix(33, 17, 4);
        let q = QuantWeights::quantize(&w);
        let deq = q.dequantize();
        for j in 0..w.cols() {
            let absmax = (0..w.rows()).fold(0.0f64, |m, i| m.max(w.get(i, j).abs()));
            let bound = absmax / 127.0 * 0.5 + 1e-12;
            for i in 0..w.rows() {
                let err = (deq.get(i, j) - w.get(i, j)).abs();
                assert!(err <= bound, "({i},{j}): err {err} > bound {bound}");
            }
        }
    }

    #[test]
    fn zero_and_single_value_columns_round_trip_exactly() {
        let w = Matrix::from_rows(&[&[0.0, 2.5], &[0.0, -2.5]]);
        let q = QuantWeights::quantize(&w);
        assert_eq!(q.dequantize(), w);
    }

    #[test]
    fn integer_payloads_at_full_scale_are_exact() {
        // absmax exactly 127 per column and per activation row → both
        // scales are exactly 1.0, all codes exact, and the integer path
        // must reproduce the f64 matmul bit-for-bit
        let w = Matrix::from_vec(
            8,
            3,
            (0..24)
                .map(|i| if i < 3 { 127.0 } else { (i as f64 * 31.0) % 127.0 - 63.0 })
                .map(f64::trunc)
                .collect(),
        );
        let mut x = Matrix::from_vec(
            2,
            8,
            (0..16).map(|i| ((i as f64 * 17.0) % 127.0 - 63.0).trunc()).collect(),
        );
        x.set(0, 0, 127.0);
        x.set(1, 0, -127.0);
        let q = QuantWeights::quantize(&w);
        assert_eq!(q.matmul(&x), x.matmul(&w));
    }

    #[test]
    fn quant_matmul_tracks_the_dense_product() {
        let w = test_matrix(32, 16, 1);
        let x = test_matrix(5, 32, 2);
        let got = QuantWeights::quantize(&w).matmul(&x);
        let want = x.matmul(&w);
        let scale = want.max_abs().max(1.0);
        for (g, e) in got.data().iter().zip(want.data()) {
            assert!(
                (g - e).abs() / scale < 0.02,
                "quant drift {g} vs {e} (rel {})",
                (g - e).abs() / scale
            );
        }
    }

    #[test]
    fn quant_matmul_is_backend_invariant() {
        let w = test_matrix(32, 16, 5);
        let x = test_matrix(4, 32, 6);
        let q = QuantWeights::quantize(&w);
        simd::set_backend(Some(simd::Choice::Scalar));
        let scalar = q.matmul(&x);
        simd::set_backend(Some(simd::Choice::Auto));
        let auto = q.matmul(&x);
        simd::set_backend(None);
        for (a, b) in scalar.data().iter().zip(auto.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn quant_json_round_trip_is_exact() {
        let q = QuantWeights::quantize(&test_matrix(9, 4, 7));
        let back = QuantWeights::from_json(&q.to_json()).unwrap();
        assert_eq!(q, back);
        assert!(QuantWeights::from_json(&Value::obj(vec![])).is_err());
    }
}

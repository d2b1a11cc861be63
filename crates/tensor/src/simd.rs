//! SIMD backend for the dense inner loops, under a cross-backend
//! determinism contract.
//!
//! Every kernel here exists in (up to) four implementations — scalar,
//! SSE2, AVX2 on x86-64, NEON on AArch64 — selected at runtime behind one
//! [`Backend`] dispatch (`PRIVIM_SIMD={auto,avx2,sse2,neon,scalar}`, or
//! [`set_backend`] for in-process tests). The contract that makes the
//! selection *invisible to results*:
//!
//! * **Elementwise kernels** ([`axpy`], [`axpy_rows`], [`add_assign`],
//!   [`scale`]) compute each output element from exactly the operations
//!   the scalar loop performs (`y[i] + a * x[i]` — separate IEEE-754
//!   multiply and add, never a fused multiply-add), so lanes only change
//!   *which elements go together through the ALU*, not any element's
//!   value.
//! * **Reductions** ([`sum`], [`dot`], [`sumsq`]) use **fixed-width
//!   virtual lane accumulators**: 4 × `f64` lanes where lane `j`
//!   accumulates elements `j, j+4, j+8, …` in ascending order, a fixed
//!   final combine `(l0 + l2) + (l1 + l3)`, then the `len % 4` tail added
//!   sequentially. The scalar backend materialises the same four
//!   accumulators; SSE2/NEON split them across two 2-lane registers
//!   (`[l0,l1]`,`[l2,l3]`) whose vertical add + horizontal fold produces
//!   the identical combine; AVX2 holds all four in one register and
//!   extracts low/high halves the same way.
//! * **Integer kernels** ([`idot`]) accumulate exactly (i8×i8 products in
//!   i32 never overflow for the dimensions we serve), so any summation
//!   order gives the same bits; SIMD lane layout is unconstrained.
//!
//! Together: results are bit-identical across `PRIVIM_SIMD` settings,
//! thread counts and architectures — pinned by `tests/determinism.rs`.
//!
//! All loads are unaligned-tolerant (`loadu`); the allocation side
//! ([`crate::pool`]) hands out 64-byte-aligned buffers so the unaligned
//! opcodes never actually cross into the slow split-load path.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Requested backend (what the user asked for).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Choice {
    /// Pick the widest backend the CPU supports.
    Auto,
    /// Force the scalar (4-virtual-lane) reference implementation.
    Scalar,
    /// Force SSE2 (falls back to scalar if undetected).
    Sse2,
    /// Force AVX2 (falls back to scalar if undetected).
    Avx2,
    /// Force NEON (falls back to scalar off AArch64).
    Neon,
}

/// Resolved backend (what will actually run). Every variant is only ever
/// returned when the corresponding CPU feature was runtime-detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Portable 4-virtual-lane scalar kernels.
    Scalar,
    /// 2×f64 SSE2 registers (two per virtual accumulator group).
    Sse2,
    /// 4×f64 AVX2 registers.
    Avx2,
    /// 2×f64 NEON registers.
    Neon,
}

impl Backend {
    /// Stable lowercase name (bench metadata, logs).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

/// In-process override set by [`set_backend`]; 0 = none (use the env).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// `PRIVIM_SIMD` parsed once per process (the env cannot change under a
/// running kernel without racing it; tests use [`set_backend`] instead).
static ENV_CHOICE: OnceLock<Choice> = OnceLock::new();

fn encode(c: Choice) -> u8 {
    match c {
        Choice::Auto => 1,
        Choice::Scalar => 2,
        Choice::Sse2 => 3,
        Choice::Avx2 => 4,
        Choice::Neon => 5,
    }
}

/// Override the backend for this process (tests; `None` restores the
/// `PRIVIM_SIMD` env resolution). Takes effect on the next kernel call.
pub fn set_backend(choice: Option<Choice>) {
    OVERRIDE.store(choice.map(encode).unwrap_or(0), Ordering::SeqCst);
}

/// Parse a `PRIVIM_SIMD` value. Unknown strings resolve to `Auto`: the
/// contract makes every backend bit-identical, so a typo can only cost
/// speed, never correctness — and `Auto` is the fast safe default.
fn parse_choice(s: &str) -> Choice {
    match s.to_ascii_lowercase().as_str() {
        "scalar" => Choice::Scalar,
        "sse2" => Choice::Sse2,
        "avx2" => Choice::Avx2,
        "neon" => Choice::Neon,
        _ => Choice::Auto,
    }
}

fn requested() -> Choice {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => Choice::Auto,
        2 => Choice::Scalar,
        3 => Choice::Sse2,
        4 => Choice::Avx2,
        5 => Choice::Neon,
        _ => *ENV_CHOICE.get_or_init(|| {
            std::env::var("PRIVIM_SIMD")
                .map(|v| parse_choice(&v))
                .unwrap_or(Choice::Auto)
        }),
    }
}

/// Resolve the requested backend against what the CPU actually supports.
/// A request the hardware cannot honour degrades to `Scalar` — results
/// are identical either way; only throughput differs.
pub fn active() -> Backend {
    let req = requested();
    #[cfg(target_arch = "x86_64")]
    {
        return match req {
            Choice::Scalar | Choice::Neon => Backend::Scalar,
            Choice::Avx2 => {
                if is_x86_feature_detected!("avx2") {
                    Backend::Avx2
                } else {
                    Backend::Scalar
                }
            }
            Choice::Sse2 => {
                if is_x86_feature_detected!("sse2") {
                    Backend::Sse2
                } else {
                    Backend::Scalar
                }
            }
            Choice::Auto => {
                if is_x86_feature_detected!("avx2") {
                    Backend::Avx2
                } else if is_x86_feature_detected!("sse2") {
                    Backend::Sse2
                } else {
                    Backend::Scalar
                }
            }
        };
    }
    #[cfg(target_arch = "aarch64")]
    {
        return match req {
            Choice::Scalar | Choice::Sse2 | Choice::Avx2 => Backend::Scalar,
            Choice::Neon | Choice::Auto => {
                if std::arch::is_aarch64_feature_detected!("neon") {
                    Backend::Neon
                } else {
                    Backend::Scalar
                }
            }
        };
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = req;
        Backend::Scalar
    }
}

/// Detected-feature summary for bench metadata (independent of the
/// selected backend), e.g. `"avx2+sse2"` or `"none"`.
pub fn detected_features() -> String {
    let mut feats: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if is_x86_feature_detected!("sse2") {
            feats.push("sse2");
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            feats.push("neon");
        }
    }
    if feats.is_empty() {
        "none".to_string()
    } else {
        feats.join("+")
    }
}

// ---------------------------------------------------------------------
// axpy: y[i] += a * x[i]  (elementwise — trivially backend-invariant)
// ---------------------------------------------------------------------

/// `y[i] += a * x[i]`. The matmul/SpMM micro-kernel inner loop.
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    {
        match active() {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path, so the target_feature contract holds; slices are equal-length per the debug_assert and the kernels index strictly below len")
            Backend::Avx2 if is_x86_feature_detected!("avx2") => return unsafe { axpy_avx2(y, a, x) },
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path, so the target_feature contract holds; slices are equal-length per the debug_assert and the kernels index strictly below len")
            Backend::Sse2 if is_x86_feature_detected!("sse2") => return unsafe { axpy_sse2(y, a, x) },
            _ => {}
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if active() == Backend::Neon && std::arch::is_aarch64_feature_detected!("neon") {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_aarch64_feature_detected! on this exact path, so the target_feature contract holds; slices are equal-length per the debug_assert and the kernels index strictly below len")
            return unsafe { axpy_neon(y, a, x) };
        }
    }
    axpy_scalar(y, a, x)
}

fn axpy_scalar(y: &mut [f64], a: f64, x: &[f64]) {
    for (o, &v) in y.iter_mut().zip(x) {
        *o += a * v;
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers must (and per unsafe-audit, do) runtime-detect avx2; all pointer arithmetic stays below the slice lengths asserted equal by every caller")
unsafe fn axpy_avx2(y: &mut [f64], a: f64, x: &[f64]) {
    use std::arch::x86_64::*;
    let n = y.len().min(x.len());
    let n4 = n & !3;
    let av = _mm256_set1_pd(a);
    let yp = y.as_mut_ptr();
    let xp = x.as_ptr();
    let mut i = 0;
    while i < n4 {
        let yv = _mm256_loadu_pd(yp.add(i));
        let xv = _mm256_loadu_pd(xp.add(i));
        // mul then add (no FMA): same two roundings as the scalar loop
        _mm256_storeu_pd(yp.add(i), _mm256_add_pd(yv, _mm256_mul_pd(av, xv)));
        i += 4;
    }
    for j in n4..n {
        y[j] += a * x[j];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers must (and per unsafe-audit, do) runtime-detect sse2; all pointer arithmetic stays below the slice lengths asserted equal by every caller")
unsafe fn axpy_sse2(y: &mut [f64], a: f64, x: &[f64]) {
    use std::arch::x86_64::*;
    let n = y.len().min(x.len());
    let n2 = n & !1;
    let av = _mm_set1_pd(a);
    let yp = y.as_mut_ptr();
    let xp = x.as_ptr();
    let mut i = 0;
    while i < n2 {
        let yv = _mm_loadu_pd(yp.add(i));
        let xv = _mm_loadu_pd(xp.add(i));
        _mm_storeu_pd(yp.add(i), _mm_add_pd(yv, _mm_mul_pd(av, xv)));
        i += 2;
    }
    for j in n2..n {
        y[j] += a * x[j];
    }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers must (and per unsafe-audit, do) runtime-detect neon; all pointer arithmetic stays below the slice lengths asserted equal by every caller")
unsafe fn axpy_neon(y: &mut [f64], a: f64, x: &[f64]) {
    use std::arch::aarch64::*;
    let n = y.len().min(x.len());
    let n2 = n & !1;
    let av = vdupq_n_f64(a);
    let yp = y.as_mut_ptr();
    let xp = x.as_ptr();
    let mut i = 0;
    while i < n2 {
        let yv = vld1q_f64(yp.add(i));
        let xv = vld1q_f64(xp.add(i));
        // vmulq + vaddq, not vfmaq: keep the scalar's two-rounding result
        vst1q_f64(yp.add(i), vaddq_f64(yv, vmulq_f64(av, xv)));
        i += 2;
    }
    for j in n2..n {
        y[j] += a * x[j];
    }
}

// ---------------------------------------------------------------------
// axpy_rows: one output row of a matrix product under one dispatch
// ---------------------------------------------------------------------

/// `y += c_t · x[t·x_stride ..][..y.len()]` over the coefficients
/// `c_t = c[t·c_step]`, `t` ascending, skipping exact-zero `c_t`: one
/// output row of a matrix product. `c_step = 1` walks a row of `A` (for
/// `A·B`); `c_step = A.cols` walks a column (for `Aᵀ·B`). Each element of
/// `y` receives exactly the mul-then-add sequence of one [`axpy`] per
/// nonzero `c_t`; the caller resolves `backend` once per product with
/// [`active`]. Panics if an `x` window runs past the end of `x`.
///
/// Only AVX2 has its own row kernel. SSE2 and NEON are the baselines of
/// their architectures, so the portable loop already compiles to 2-wide
/// vector code there; on x86-64 it measured faster than a loop of
/// [`axpy`]'s SSE2 kernel.
pub fn axpy_rows(
    backend: Backend,
    y: &mut [f64],
    c: &[f64],
    c_step: usize,
    x: &[f64],
    x_stride: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx2 && is_x86_feature_detected!("avx2") {
        // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path, so the target_feature contract holds; every x window is a bounds-checked subslice as long as y")
        return unsafe { axpy_rows_avx2(y, c, c_step, x, x_stride) };
    }
    let _ = backend;
    axpy_rows_scalar(y, c, c_step, x, x_stride)
}

/// The `x` window [`axpy_rows`] pairs with `c_t` (bounds-checked).
#[inline(always)]
fn row_window(x: &[f64], t: usize, stride: usize, len: usize) -> &[f64] {
    &x[t * stride..t * stride + len]
}

fn axpy_rows_scalar(y: &mut [f64], c: &[f64], c_step: usize, x: &[f64], x_stride: usize) {
    for (t, &ct) in c.iter().step_by(c_step).enumerate() {
        // privim-lint: allow(float-eq, reason = "exact-zero sparsity skip: 0.0 * x contributes exactly nothing, so skipping only IEEE zeros is lossless")
        if ct != 0.0 {
            axpy_scalar(y, ct, row_window(x, t, x_stride, y.len()));
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// privim-lint: allow(unsafe, reason = "target_feature fn reached only through axpy_rows's avx2 detection guard; raw loads and stores stay inside y[j..j+16] (j + 16 <= len) and the bounds-checked 16-wide x window")
unsafe fn axpy_rows_avx2(y: &mut [f64], c: &[f64], c_step: usize, x: &[f64], x_stride: usize) {
    use std::arch::x86_64::*;
    let len = y.len();
    let yp = y.as_mut_ptr();
    let mut j = 0;
    // 16 columns at a time stay in four registers across every term: the
    // same per-element mul-then-add sequence as one axpy per term, minus
    // a load and a store of y per term.
    while j + 16 <= len {
        let mut acc = [
            _mm256_loadu_pd(yp.add(j)),
            _mm256_loadu_pd(yp.add(j + 4)),
            _mm256_loadu_pd(yp.add(j + 8)),
            _mm256_loadu_pd(yp.add(j + 12)),
        ];
        for (t, &ct) in c.iter().step_by(c_step).enumerate() {
            // privim-lint: allow(float-eq, reason = "exact-zero sparsity skip: 0.0 * x contributes exactly nothing, so skipping only IEEE zeros is lossless")
            if ct != 0.0 {
                let xp = row_window(x, t, x_stride, len)[j..j + 16].as_ptr();
                let cv = _mm256_set1_pd(ct);
                for (q, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_add_pd(*a, _mm256_mul_pd(cv, _mm256_loadu_pd(xp.add(4 * q))));
                }
            }
        }
        for (q, a) in acc.iter().enumerate() {
            _mm256_storeu_pd(yp.add(j + 4 * q), *a);
        }
        j += 16;
    }
    if j < len {
        let tail = &mut y[j..];
        for (t, &ct) in c.iter().step_by(c_step).enumerate() {
            // privim-lint: allow(float-eq, reason = "exact-zero sparsity skip: 0.0 * x contributes exactly nothing, so skipping only IEEE zeros is lossless")
            if ct != 0.0 {
                axpy_avx2(tail, ct, &row_window(x, t, x_stride, len)[j..]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// add_assign: y[i] += x[i]
// ---------------------------------------------------------------------

/// `y[i] += x[i]` (gradient summation, noise addition).
pub fn add_assign(y: &mut [f64], x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    {
        match active() {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernels never index past the shorter slice")
            Backend::Avx2 if is_x86_feature_detected!("avx2") => return unsafe { add_assign_avx2(y, x) },
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernels never index past the shorter slice")
            Backend::Sse2 if is_x86_feature_detected!("sse2") => return unsafe { add_assign_sse2(y, x) },
            _ => {}
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if active() == Backend::Neon && std::arch::is_aarch64_feature_detected!("neon") {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_aarch64_feature_detected! on this exact path; kernels never index past the shorter slice")
            return unsafe { add_assign_neon(y, x) };
        }
    }
    add_assign_scalar(y, x)
}

fn add_assign_scalar(y: &mut [f64], x: &[f64]) {
    for (o, &v) in y.iter_mut().zip(x) {
        *o += v;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect avx2 per unsafe-audit; indices stay below min(len)")
unsafe fn add_assign_avx2(y: &mut [f64], x: &[f64]) {
    use std::arch::x86_64::*;
    let n = y.len().min(x.len());
    let n4 = n & !3;
    let yp = y.as_mut_ptr();
    let xp = x.as_ptr();
    let mut i = 0;
    while i < n4 {
        _mm256_storeu_pd(
            yp.add(i),
            _mm256_add_pd(_mm256_loadu_pd(yp.add(i)), _mm256_loadu_pd(xp.add(i))),
        );
        i += 4;
    }
    for j in n4..n {
        y[j] += x[j];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect sse2 per unsafe-audit; indices stay below min(len)")
unsafe fn add_assign_sse2(y: &mut [f64], x: &[f64]) {
    use std::arch::x86_64::*;
    let n = y.len().min(x.len());
    let n2 = n & !1;
    let yp = y.as_mut_ptr();
    let xp = x.as_ptr();
    let mut i = 0;
    while i < n2 {
        _mm_storeu_pd(
            yp.add(i),
            _mm_add_pd(_mm_loadu_pd(yp.add(i)), _mm_loadu_pd(xp.add(i))),
        );
        i += 2;
    }
    for j in n2..n {
        y[j] += x[j];
    }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect neon per unsafe-audit; indices stay below min(len)")
unsafe fn add_assign_neon(y: &mut [f64], x: &[f64]) {
    use std::arch::aarch64::*;
    let n = y.len().min(x.len());
    let n2 = n & !1;
    let yp = y.as_mut_ptr();
    let xp = x.as_ptr();
    let mut i = 0;
    while i < n2 {
        vst1q_f64(yp.add(i), vaddq_f64(vld1q_f64(yp.add(i)), vld1q_f64(xp.add(i))));
        i += 2;
    }
    for j in n2..n {
        y[j] += x[j];
    }
}

// ---------------------------------------------------------------------
// scale: y[i] *= a
// ---------------------------------------------------------------------

/// `y[i] *= a` (gradient clipping, weight decay).
pub fn scale(y: &mut [f64], a: f64) {
    #[cfg(target_arch = "x86_64")]
    {
        match active() {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernel indexes strictly below y.len()")
            Backend::Avx2 if is_x86_feature_detected!("avx2") => return unsafe { scale_avx2(y, a) },
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernel indexes strictly below y.len()")
            Backend::Sse2 if is_x86_feature_detected!("sse2") => return unsafe { scale_sse2(y, a) },
            _ => {}
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if active() == Backend::Neon && std::arch::is_aarch64_feature_detected!("neon") {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_aarch64_feature_detected! on this exact path; kernel indexes strictly below y.len()")
            return unsafe { scale_neon(y, a) };
        }
    }
    scale_scalar(y, a)
}

fn scale_scalar(y: &mut [f64], a: f64) {
    for o in y.iter_mut() {
        *o *= a;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect avx2 per unsafe-audit; indices stay below y.len()")
unsafe fn scale_avx2(y: &mut [f64], a: f64) {
    use std::arch::x86_64::*;
    let n = y.len();
    let n4 = n & !3;
    let av = _mm256_set1_pd(a);
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i < n4 {
        _mm256_storeu_pd(yp.add(i), _mm256_mul_pd(_mm256_loadu_pd(yp.add(i)), av));
        i += 4;
    }
    for j in n4..n {
        y[j] *= a;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect sse2 per unsafe-audit; indices stay below y.len()")
unsafe fn scale_sse2(y: &mut [f64], a: f64) {
    use std::arch::x86_64::*;
    let n = y.len();
    let n2 = n & !1;
    let av = _mm_set1_pd(a);
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i < n2 {
        _mm_storeu_pd(yp.add(i), _mm_mul_pd(_mm_loadu_pd(yp.add(i)), av));
        i += 2;
    }
    for j in n2..n {
        y[j] *= a;
    }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect neon per unsafe-audit; indices stay below y.len()")
unsafe fn scale_neon(y: &mut [f64], a: f64) {
    use std::arch::aarch64::*;
    let n = y.len();
    let n2 = n & !1;
    let av = vdupq_n_f64(a);
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i < n2 {
        vst1q_f64(yp.add(i), vmulq_f64(vld1q_f64(yp.add(i)), av));
        i += 2;
    }
    for j in n2..n {
        y[j] *= a;
    }
}

// ---------------------------------------------------------------------
// Reductions: 4-virtual-lane accumulators, fixed combine (l0+l2)+(l1+l3)
// ---------------------------------------------------------------------

/// Sum of all elements under the 4-lane virtual accumulator contract.
pub fn sum(a: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        match active() {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernel indexes strictly below a.len()")
            Backend::Avx2 if is_x86_feature_detected!("avx2") => return unsafe { sum_avx2(a) },
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernel indexes strictly below a.len()")
            Backend::Sse2 if is_x86_feature_detected!("sse2") => return unsafe { sum_sse2(a) },
            _ => {}
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if active() == Backend::Neon && std::arch::is_aarch64_feature_detected!("neon") {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_aarch64_feature_detected! on this exact path; kernel indexes strictly below a.len()")
            return unsafe { sum_neon(a) };
        }
    }
    sum_scalar(a)
}

/// The reference 4-lane reduction every SIMD backend must reproduce.
fn sum_scalar(a: &[f64]) -> f64 {
    let n4 = a.len() & !3;
    let mut l = [0.0f64; 4];
    let mut i = 0;
    while i < n4 {
        l[0] += a[i];
        l[1] += a[i + 1];
        l[2] += a[i + 2];
        l[3] += a[i + 3];
        i += 4;
    }
    let mut t = (l[0] + l[2]) + (l[1] + l[3]);
    for &x in &a[n4..] {
        t += x;
    }
    t
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect avx2 per unsafe-audit; indices stay below a.len()")
unsafe fn sum_avx2(a: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n4 = a.len() & !3;
    let mut acc = _mm256_setzero_pd();
    let p = a.as_ptr();
    let mut i = 0;
    while i < n4 {
        acc = _mm256_add_pd(acc, _mm256_loadu_pd(p.add(i)));
        i += 4;
    }
    let lo = _mm256_castpd256_pd128(acc); // [l0, l1]
    let hi = _mm256_extractf128_pd::<1>(acc); // [l2, l3]
    let v = _mm_add_pd(lo, hi); // [l0+l2, l1+l3]
    let mut t = _mm_cvtsd_f64(v) + _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
    for &x in &a[n4..] {
        t += x;
    }
    t
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect sse2 per unsafe-audit; indices stay below a.len()")
unsafe fn sum_sse2(a: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n4 = a.len() & !3;
    let mut a01 = _mm_setzero_pd(); // lanes 0,1
    let mut a23 = _mm_setzero_pd(); // lanes 2,3
    let p = a.as_ptr();
    let mut i = 0;
    while i < n4 {
        a01 = _mm_add_pd(a01, _mm_loadu_pd(p.add(i)));
        a23 = _mm_add_pd(a23, _mm_loadu_pd(p.add(i + 2)));
        i += 4;
    }
    let v = _mm_add_pd(a01, a23); // [l0+l2, l1+l3]
    let mut t = _mm_cvtsd_f64(v) + _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
    for &x in &a[n4..] {
        t += x;
    }
    t
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect neon per unsafe-audit; indices stay below a.len()")
unsafe fn sum_neon(a: &[f64]) -> f64 {
    use std::arch::aarch64::*;
    let n4 = a.len() & !3;
    let mut a01 = vdupq_n_f64(0.0);
    let mut a23 = vdupq_n_f64(0.0);
    let p = a.as_ptr();
    let mut i = 0;
    while i < n4 {
        a01 = vaddq_f64(a01, vld1q_f64(p.add(i)));
        a23 = vaddq_f64(a23, vld1q_f64(p.add(i + 2)));
        i += 4;
    }
    let v = vaddq_f64(a01, a23);
    let mut t = vgetq_lane_f64::<0>(v) + vgetq_lane_f64::<1>(v);
    for &x in &a[n4..] {
        t += x;
    }
    t
}

/// Dot product `Σ a[i]·b[i]` under the 4-lane contract.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    {
        match active() {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernels never index past the shorter slice")
            Backend::Avx2 if is_x86_feature_detected!("avx2") => return unsafe { dot_avx2(a, b) },
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernels never index past the shorter slice")
            Backend::Sse2 if is_x86_feature_detected!("sse2") => return unsafe { dot_sse2(a, b) },
            _ => {}
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if active() == Backend::Neon && std::arch::is_aarch64_feature_detected!("neon") {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_aarch64_feature_detected! on this exact path; kernels never index past the shorter slice")
            return unsafe { dot_neon(a, b) };
        }
    }
    dot_scalar(a, b)
}

fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let n4 = n & !3;
    let mut l = [0.0f64; 4];
    let mut i = 0;
    while i < n4 {
        l[0] += a[i] * b[i];
        l[1] += a[i + 1] * b[i + 1];
        l[2] += a[i + 2] * b[i + 2];
        l[3] += a[i + 3] * b[i + 3];
        i += 4;
    }
    let mut t = (l[0] + l[2]) + (l[1] + l[3]);
    for j in n4..n {
        t += a[j] * b[j];
    }
    t
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect avx2 per unsafe-audit; indices stay below min(len)")
unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let n4 = n & !3;
    let mut acc = _mm256_setzero_pd();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut i = 0;
    while i < n4 {
        // mul then add (no FMA) to match the scalar lanes bit-for-bit
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i))));
        i += 4;
    }
    let lo = _mm256_castpd256_pd128(acc);
    let hi = _mm256_extractf128_pd::<1>(acc);
    let v = _mm_add_pd(lo, hi);
    let mut t = _mm_cvtsd_f64(v) + _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
    for j in n4..n {
        t += a[j] * b[j];
    }
    t
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect sse2 per unsafe-audit; indices stay below min(len)")
unsafe fn dot_sse2(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let n4 = n & !3;
    let mut a01 = _mm_setzero_pd();
    let mut a23 = _mm_setzero_pd();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut i = 0;
    while i < n4 {
        a01 = _mm_add_pd(a01, _mm_mul_pd(_mm_loadu_pd(pa.add(i)), _mm_loadu_pd(pb.add(i))));
        a23 = _mm_add_pd(a23, _mm_mul_pd(_mm_loadu_pd(pa.add(i + 2)), _mm_loadu_pd(pb.add(i + 2))));
        i += 4;
    }
    let v = _mm_add_pd(a01, a23);
    let mut t = _mm_cvtsd_f64(v) + _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
    for j in n4..n {
        t += a[j] * b[j];
    }
    t
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect neon per unsafe-audit; indices stay below min(len)")
unsafe fn dot_neon(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::aarch64::*;
    let n = a.len().min(b.len());
    let n4 = n & !3;
    let mut a01 = vdupq_n_f64(0.0);
    let mut a23 = vdupq_n_f64(0.0);
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut i = 0;
    while i < n4 {
        a01 = vaddq_f64(a01, vmulq_f64(vld1q_f64(pa.add(i)), vld1q_f64(pb.add(i))));
        a23 = vaddq_f64(a23, vmulq_f64(vld1q_f64(pa.add(i + 2)), vld1q_f64(pb.add(i + 2))));
        i += 4;
    }
    let v = vaddq_f64(a01, a23);
    let mut t = vgetq_lane_f64::<0>(v) + vgetq_lane_f64::<1>(v);
    for j in n4..n {
        t += a[j] * b[j];
    }
    t
}

/// Sum of squares `Σ a[i]²` under the 4-lane contract (the DP-SGD
/// gradient-norm primitive; callers take `.sqrt()`).
pub fn sumsq(a: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        match active() {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernel indexes strictly below a.len()")
            Backend::Avx2 if is_x86_feature_detected!("avx2") => return unsafe { sumsq_avx2(a) },
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernel indexes strictly below a.len()")
            Backend::Sse2 if is_x86_feature_detected!("sse2") => return unsafe { sumsq_sse2(a) },
            _ => {}
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if active() == Backend::Neon && std::arch::is_aarch64_feature_detected!("neon") {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_aarch64_feature_detected! on this exact path; kernel indexes strictly below a.len()")
            return unsafe { sumsq_neon(a) };
        }
    }
    sumsq_scalar(a)
}

fn sumsq_scalar(a: &[f64]) -> f64 {
    let n4 = a.len() & !3;
    let mut l = [0.0f64; 4];
    let mut i = 0;
    while i < n4 {
        l[0] += a[i] * a[i];
        l[1] += a[i + 1] * a[i + 1];
        l[2] += a[i + 2] * a[i + 2];
        l[3] += a[i + 3] * a[i + 3];
        i += 4;
    }
    let mut t = (l[0] + l[2]) + (l[1] + l[3]);
    for &x in &a[n4..] {
        t += x * x;
    }
    t
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect avx2 per unsafe-audit; indices stay below a.len()")
unsafe fn sumsq_avx2(a: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n4 = a.len() & !3;
    let mut acc = _mm256_setzero_pd();
    let p = a.as_ptr();
    let mut i = 0;
    while i < n4 {
        let v = _mm256_loadu_pd(p.add(i));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
        i += 4;
    }
    let lo = _mm256_castpd256_pd128(acc);
    let hi = _mm256_extractf128_pd::<1>(acc);
    let v = _mm_add_pd(lo, hi);
    let mut t = _mm_cvtsd_f64(v) + _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
    for &x in &a[n4..] {
        t += x * x;
    }
    t
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect sse2 per unsafe-audit; indices stay below a.len()")
unsafe fn sumsq_sse2(a: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n4 = a.len() & !3;
    let mut a01 = _mm_setzero_pd();
    let mut a23 = _mm_setzero_pd();
    let p = a.as_ptr();
    let mut i = 0;
    while i < n4 {
        let v0 = _mm_loadu_pd(p.add(i));
        let v1 = _mm_loadu_pd(p.add(i + 2));
        a01 = _mm_add_pd(a01, _mm_mul_pd(v0, v0));
        a23 = _mm_add_pd(a23, _mm_mul_pd(v1, v1));
        i += 4;
    }
    let v = _mm_add_pd(a01, a23);
    let mut t = _mm_cvtsd_f64(v) + _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
    for &x in &a[n4..] {
        t += x * x;
    }
    t
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect neon per unsafe-audit; indices stay below a.len()")
unsafe fn sumsq_neon(a: &[f64]) -> f64 {
    use std::arch::aarch64::*;
    let n4 = a.len() & !3;
    let mut a01 = vdupq_n_f64(0.0);
    let mut a23 = vdupq_n_f64(0.0);
    let p = a.as_ptr();
    let mut i = 0;
    while i < n4 {
        let v0 = vld1q_f64(p.add(i));
        let v1 = vld1q_f64(p.add(i + 2));
        a01 = vaddq_f64(a01, vmulq_f64(v0, v0));
        a23 = vaddq_f64(a23, vmulq_f64(v1, v1));
        i += 4;
    }
    let v = vaddq_f64(a01, a23);
    let mut t = vgetq_lane_f64::<0>(v) + vgetq_lane_f64::<1>(v);
    for &x in &a[n4..] {
        t += x * x;
    }
    t
}

// ---------------------------------------------------------------------
// Integer dot (quantized inference). Exact arithmetic: i8×i8 products
// accumulated in i32 cannot overflow below ~2^16 terms, and integer
// addition is associative — any lane layout gives identical bits.
// ---------------------------------------------------------------------

/// `Σ a[i]·b[i]` over `i8` operands, exact in `i32`.
pub fn idot(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(a.len() < (1 << 16), "i32 accumulator headroom");
    #[cfg(target_arch = "x86_64")]
    {
        if active() == Backend::Avx2 && is_x86_feature_detected!("avx2") {
            // privim-lint: allow(unsafe, reason = "dispatch guard re-checks is_x86_feature_detected! on this exact path; kernel indexes strictly below min(len)")
            return unsafe { idot_avx2(a, b) };
        }
    }
    idot_scalar(a, b)
}

fn idot_scalar(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// privim-lint: allow(unsafe, reason = "target_feature fn: callers runtime-detect avx2 per unsafe-audit; 16-byte loads stay below min(len) and each madd term is ≤ 2·127² so the i32 lanes cannot overflow for len < 2^16")
unsafe fn idot_avx2(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let n16 = n & !15;
    let mut acc = _mm256_setzero_si256();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut i = 0;
    while i < n16 {
        let av = _mm256_cvtepi8_epi16(_mm_loadu_si128(pa.add(i) as *const __m128i));
        let bv = _mm256_cvtepi8_epi16(_mm_loadu_si128(pb.add(i) as *const __m128i));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
        i += 16;
    }
    let lo = _mm256_castsi256_si128(acc);
    let hi = _mm256_extracti128_si256::<1>(acc);
    let v = _mm_add_epi32(lo, hi);
    let v = _mm_add_epi32(v, _mm_shuffle_epi32::<0b_01_00_11_10>(v));
    let v = _mm_add_epi32(v, _mm_shuffle_epi32::<0b_00_00_00_01>(v));
    let mut t = _mm_cvtsi128_si32(v);
    for j in n16..n {
        t += a[j] as i32 * b[j] as i32;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_pat(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64 * 2654435761 + salt * 40503) % 1000) as f64 / 37.0 - 13.0)
            .collect()
    }

    fn backends_under_test() -> Vec<Choice> {
        // Exercise every choice; unsupported ones resolve to scalar, which
        // still checks the dispatcher paths.
        vec![Choice::Scalar, Choice::Sse2, Choice::Avx2, Choice::Neon, Choice::Auto]
    }

    fn with_backend<T>(c: Choice, f: impl FnOnce() -> T) -> T {
        set_backend(Some(c));
        let out = f();
        set_backend(None);
        out
    }

    #[test]
    fn every_backend_is_bit_identical_to_scalar() {
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 65, 257] {
            let a = vec_pat(n, 1);
            let b = vec_pat(n, 2);
            let want_sum = with_backend(Choice::Scalar, || sum(&a));
            let want_dot = with_backend(Choice::Scalar, || dot(&a, &b));
            let want_sq = with_backend(Choice::Scalar, || sumsq(&a));
            let want_axpy = with_backend(Choice::Scalar, || {
                let mut y = b.clone();
                axpy(&mut y, 1.75, &a);
                y
            });
            for c in backends_under_test() {
                assert_eq!(with_backend(c, || sum(&a)).to_bits(), want_sum.to_bits(), "sum {c:?} n={n}");
                assert_eq!(with_backend(c, || dot(&a, &b)).to_bits(), want_dot.to_bits(), "dot {c:?} n={n}");
                assert_eq!(with_backend(c, || sumsq(&a)).to_bits(), want_sq.to_bits(), "sumsq {c:?} n={n}");
                let got = with_backend(c, || {
                    let mut y = b.clone();
                    axpy(&mut y, 1.75, &a);
                    y
                });
                for (g, w) in got.iter().zip(&want_axpy) {
                    assert_eq!(g.to_bits(), w.to_bits(), "axpy {c:?} n={n}");
                }
                let got_add = with_backend(c, || {
                    let mut y = b.clone();
                    add_assign(&mut y, &a);
                    y
                });
                let want_add: Vec<f64> = b.iter().zip(&a).map(|(&x, &y)| x + y).collect();
                for (g, w) in got_add.iter().zip(&want_add) {
                    assert_eq!(g.to_bits(), w.to_bits(), "add_assign {c:?} n={n}");
                }
                let got_scale = with_backend(c, || {
                    let mut y = a.clone();
                    scale(&mut y, 0.3);
                    y
                });
                for (g, &w) in got_scale.iter().zip(&a) {
                    assert_eq!(g.to_bits(), (w * 0.3).to_bits(), "scale {c:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn axpy_rows_matches_one_axpy_per_nonzero_coefficient() {
        // widths around the 16-column register block and the 4/2 lanes
        for n in [1, 2, 3, 4, 5, 8, 15, 16, 17, 31, 32, 33, 48] {
            // coefficients c[0], c[2], … (c_step 2): zeros at t = 0 and 4
            let mut c = vec_pat(12, 3);
            c[0] = 0.0;
            c[8] = 0.0;
            let mut x = vec_pat(6 * n + 3, 4);
            x[4 * n] = f64::NAN; // behind the zero c_4: must never land
            let y0 = vec_pat(n, 5);
            let mut want = y0.clone();
            for (t, &ct) in c.iter().step_by(2).enumerate() {
                if ct != 0.0 {
                    axpy_scalar(&mut want, ct, &x[t * n..(t + 1) * n]);
                }
            }
            assert!(want.iter().all(|v| v.is_finite()));
            for choice in backends_under_test() {
                let got = with_backend(choice, || {
                    let mut y = y0.clone();
                    axpy_rows(active(), &mut y, &c, 2, &x, n);
                    y
                });
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "axpy_rows {choice:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn idot_matches_exact_integer_reference() {
        for n in [0, 1, 15, 16, 17, 31, 32, 100, 257] {
            let a: Vec<i8> = (0..n).map(|i| ((i * 37) % 255) as i8).collect();
            let b: Vec<i8> = (0..n).map(|i| ((i * 91 + 13) % 255) as i8).collect();
            let want: i32 = a.iter().zip(&b).map(|(&x, &y)| x as i32 * y as i32).sum();
            for c in backends_under_test() {
                assert_eq!(with_backend(c, || idot(&a, &b)), want, "{c:?} n={n}");
            }
        }
    }

    #[test]
    fn reduction_uses_the_documented_lane_order_not_sequential_sum() {
        // A vector engineered so sequential summation differs in the last
        // bit from the 4-lane contract — proves we pinned the *contract*,
        // not whatever the compiler emitted.
        let a = vec![1.0, 1e-16, 1e-16, 1e-16, 1.0, 1e-16, 1e-16, 1e-16];
        let lanes = {
            let mut l = [0.0f64; 4];
            for c in a.chunks(4) {
                for (j, &x) in c.iter().enumerate() {
                    l[j] += x;
                }
            }
            (l[0] + l[2]) + (l[1] + l[3])
        };
        assert_eq!(sum(&a).to_bits(), lanes.to_bits());
    }

    #[test]
    fn env_parse_accepts_the_documented_values() {
        assert_eq!(parse_choice("scalar"), Choice::Scalar);
        assert_eq!(parse_choice("AVX2"), Choice::Avx2);
        assert_eq!(parse_choice("sse2"), Choice::Sse2);
        assert_eq!(parse_choice("neon"), Choice::Neon);
        assert_eq!(parse_choice("auto"), Choice::Auto);
        assert_eq!(parse_choice("mystery"), Choice::Auto);
    }

    #[test]
    fn active_resolves_to_a_supported_backend() {
        let b = active();
        #[cfg(target_arch = "x86_64")]
        assert_ne!(b, Backend::Neon);
        #[cfg(target_arch = "aarch64")]
        assert!(matches!(b, Backend::Neon | Backend::Scalar));
        assert!(!b.name().is_empty());
        assert!(!detected_features().is_empty());
    }
}

//! Explicit 4-wide f64 lanes for the likelihood hot paths.
//!
//! Stable Rust has no portable SIMD type yet, so this module provides the
//! small slice of one the navicim kernels need: a `[f64; 4]` wrapper
//! ([`F64x4`]) whose lane-wise operations are written so LLVM reliably
//! auto-vectorizes them (256-bit AVX / 512-bit AVX-512 with
//! `-C target-cpu=native`, 2×128-bit SSE2 otherwise), plus a fast
//! vectorizable exponential ([`exp_fast`]).
//!
//! # The lane-purity contract
//!
//! Every operation on [`F64x4`] is defined *per lane* as exactly the
//! scalar operation on that lane's value — no horizontal reductions, no
//! re-association, no contraction beyond what the scalar code also does.
//! A kernel that processes points in groups of four lanes plus a scalar
//! remainder tail therefore produces bit-identical results for a point
//! regardless of which lane (or the tail) served it, which is what keeps
//! the batched backends invariant under arbitrary batch splits.
//!
//! # `exp_fast` and the ulp gate
//!
//! [`exp_fast`] is a branch-free Cody–Waite + degree-13 Horner
//! exponential. It is **not** bit-identical to [`f64::exp`]; its contract
//! is instead an error bound: at most [`EXP_FAST_MAX_ULP`] ulp from the
//! correctly rounded result for finite inputs with normal results
//! (subnormal results may round with larger relative error; `NaN`, `±inf`
//! and over/underflow behave like `f64::exp`). Digital kernels that adopt
//! it (the GMM evaluation plan, the HMG axis loop) remain bit-identical
//! between their SIMD bodies and scalar tails — both call `exp_fast` —
//! but carry this documented ulp-bounded tolerance relative to a
//! `f64::exp` reference implementation. The property-test suite enforces
//! the bound (`tests/property_tests.rs` and the tests below).

use std::ops::{Add, Div, Mul, Sub};

/// Number of lanes in [`F64x4`].
pub const LANES: usize = 4;

/// Documented accuracy gate for [`exp_fast`]: maximum distance from the
/// correctly rounded `f64::exp`, in units in the last place, for finite
/// inputs with normal (non-subnormal) results.
pub const EXP_FAST_MAX_ULP: u64 = 4;

/// Four f64 lanes with strictly per-lane arithmetic.
///
/// ```
/// use navicim_math::simd::F64x4;
/// let a = F64x4::new([1.0, 2.0, 3.0, 4.0]);
/// let b = F64x4::splat(0.5);
/// assert_eq!((a * b).to_array(), [0.5, 1.0, 1.5, 2.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64x4([f64; 4]);

impl F64x4 {
    /// Builds a vector from its four lane values.
    #[inline(always)]
    pub fn new(lanes: [f64; 4]) -> Self {
        Self(lanes)
    }

    /// Broadcasts one value to all lanes.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Self([v; 4])
    }

    /// Loads four consecutive values from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `s.len() < 4`.
    #[inline(always)]
    pub fn load(s: &[f64]) -> Self {
        Self([s[0], s[1], s[2], s[3]])
    }

    /// Stores the four lanes into a slice.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() < 4`.
    #[inline(always)]
    pub fn store(self, out: &mut [f64]) {
        out[..4].copy_from_slice(&self.0);
    }

    /// The lane values as an array.
    #[inline(always)]
    pub fn to_array(self) -> [f64; 4] {
        self.0
    }

    /// One lane value.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 4`.
    #[inline(always)]
    pub fn lane(self, lane: usize) -> f64 {
        self.0[lane]
    }

    /// Per-lane fused multiply-add: `self * b + c` with a single rounding
    /// per lane ([`f64::mul_add`] semantics — correctly rounded on every
    /// target, hardware FMA or soft fallback).
    #[inline(always)]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        Self([
            self.0[0].mul_add(b.0[0], c.0[0]),
            self.0[1].mul_add(b.0[1], c.0[1]),
            self.0[2].mul_add(b.0[2], c.0[2]),
            self.0[3].mul_add(b.0[3], c.0[3]),
        ])
    }

    /// Per-lane maximum with [`f64::max`] NaN semantics (NaN lanes yield
    /// the other operand).
    #[inline(always)]
    pub fn max(self, o: Self) -> Self {
        Self([
            self.0[0].max(o.0[0]),
            self.0[1].max(o.0[1]),
            self.0[2].max(o.0[2]),
            self.0[3].max(o.0[3]),
        ])
    }

    /// Per-lane [`exp_fast`].
    #[inline(always)]
    pub fn exp(self) -> Self {
        Self([
            exp_fast(self.0[0]),
            exp_fast(self.0[1]),
            exp_fast(self.0[2]),
            exp_fast(self.0[3]),
        ])
    }
}

macro_rules! lane_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for F64x4 {
            type Output = Self;
            #[inline(always)]
            fn $method(self, r: Self) -> Self {
                Self([
                    self.0[0] $op r.0[0],
                    self.0[1] $op r.0[1],
                    self.0[2] $op r.0[2],
                    self.0[3] $op r.0[3],
                ])
            }
        }
    };
}

lane_binop!(Add, add, +);
lane_binop!(Sub, sub, -);
lane_binop!(Mul, mul, *);
lane_binop!(Div, div, /);

/// log2(e), the reduction constant for `exp_fast`.
const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// High part of ln(2) with 20 trailing zero mantissa bits, so
/// `k * LN2_HI` is exact for |k| < 2^20 (Cody–Waite split, musl values).
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// Low part of ln(2): `LN2_HI + LN2_LO` ≈ ln(2) to ~2^-102.
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// Inputs above this map to `+inf` (`exp` overflows at ≈709.78).
const EXP_OVERFLOW: f64 = 710.0;
/// Inputs below this map to `0.0` (`exp` underflows below ≈-745.13).
const EXP_UNDERFLOW: f64 = -746.0;

/// Fast exponential: branch-free argument reduction + degree-13 Horner
/// polynomial, within [`EXP_FAST_MAX_ULP`] ulp of `f64::exp` (see the
/// module docs for the exact contract).
///
/// Written so that mapping it over four lanes auto-vectorizes: the input
/// is clamped into the finite-result window, the core runs unconditionally
/// on every lane, and the overflow/underflow/NaN cases are repaired by
/// per-lane selects at the end.
///
/// ```
/// use navicim_math::simd::exp_fast;
/// assert_eq!(exp_fast(0.0), 1.0);
/// assert_eq!(exp_fast(f64::NEG_INFINITY), 0.0);
/// assert_eq!(exp_fast(f64::INFINITY), f64::INFINITY);
/// assert!(exp_fast(f64::NAN).is_nan());
/// assert!((exp_fast(1.0) - std::f64::consts::E).abs() < 1e-15);
/// ```
#[inline(always)]
pub fn exp_fast(x: f64) -> f64 {
    // Clamp into the window where the core produces a finite result; the
    // clamp propagates NaN, and out-of-window inputs are repaired below.
    let c = x.clamp(EXP_UNDERFLOW, EXP_OVERFLOW);
    // x = k·ln2 + r with k integral and |r| ≤ ln2/2 ≈ 0.3466.
    let kf = (c * LOG2_E).round();
    let r = (-kf).mul_add(LN2_HI, c);
    let r = (-kf).mul_add(LN2_LO, r);
    // exp(r) by a degree-13 Taylor polynomial (truncation < 0.02 ulp on
    // the reduced range), evaluated with Estrin's scheme: Horner's serial
    // fma chain is 13 fma latencies deep, which dominates the kernel when
    // mapped over lanes; Estrin's pairwise tree cuts the critical path to
    // ~5 fma latencies at the cost of three extra multiplies.
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    // Pairs c_i + c_{i+1}·r (coefficients 1/i!).
    let q0 = r.mul_add(1.0, 1.0);
    let q1 = r.mul_add(1.0 / 6.0, 0.5);
    let q2 = r.mul_add(1.0 / 120.0, 1.0 / 24.0);
    let q3 = r.mul_add(1.0 / 5_040.0, 1.0 / 720.0);
    let q4 = r.mul_add(1.0 / 362_880.0, 1.0 / 40_320.0);
    let q5 = r.mul_add(1.0 / 39_916_800.0, 1.0 / 3_628_800.0);
    let q6 = r.mul_add(1.0 / 6_227_020_800.0, 1.0 / 479_001_600.0);
    // Combine pairs with r², quads with r⁴, halves with r⁸.
    let h0 = r2.mul_add(q1, q0);
    let h1 = r2.mul_add(q3, q2);
    let h2 = r2.mul_add(q5, q4);
    let g0 = r4.mul_add(h1, h0);
    let g1 = r4.mul_add(q6, h2);
    let p = r8.mul_add(g1, g0);
    // Scale by 2^k in two exact steps so results down in the subnormal
    // range degrade gracefully instead of the single-step scale flushing
    // to zero. The split and the 2^k construction stay in the float
    // domain: a saturating `as i64` cast does not vectorize (LLVM lowers
    // it to per-lane `cvttsd2si` plus fixups), while floor and the 2^52
    // magic-bias trick below compile to packed instructions. For the
    // clamped range, `floor(kf/2)` equals the arithmetic shift `k >> 1`
    // and adding 2^52 to the small integer `kf + 1023` lands it exactly
    // in the low mantissa bits, so `bits << 52` is the wanted exponent
    // field — bit-identical to the integer construction. NaN reaches
    // here as NaN in both `p` and the scales and propagates through the
    // multiplies.
    const MANTISSA_MAGIC: f64 = 4_503_599_627_370_496.0; // 2^52
    let kf1 = (kf * 0.5).floor();
    let kf2 = kf - kf1;
    let s1 = f64::from_bits(((kf1 + 1023.0) + MANTISSA_MAGIC).to_bits() << 52);
    let s2 = f64::from_bits(((kf2 + 1023.0) + MANTISSA_MAGIC).to_bits() << 52);
    let v = p * s1 * s2;
    // Repair the clamped lanes (NaN fails both comparisons and keeps v).
    let v = if x < EXP_UNDERFLOW { 0.0 } else { v };
    if x > EXP_OVERFLOW {
        f64::INFINITY
    } else {
        v
    }
}

/// Numerically stable `log(Σ exp(x_i))` using [`exp_fast`] for the
/// rescaled exponentials.
///
/// Same structure and edge-case semantics as
/// [`crate::stats::log_sum_exp`] — `max` fold (NaN terms are skipped by
/// the fold; an all-NaN or empty slice yields `-inf`), early `-inf`
/// return, `m + ln Σ exp(x−m)` otherwise — but inherits `exp_fast`'s
/// ulp-bounded tolerance instead of being bit-identical to the `f64::exp`
/// version. A NaN term alongside finite terms still poisons the sum to
/// NaN, exactly as in the reference.
///
/// ```
/// use navicim_math::simd::log_sum_exp_fast;
/// let v = log_sum_exp_fast(&[0.0, 0.0]);
/// assert!((v - std::f64::consts::LN_2).abs() < 1e-14);
/// assert_eq!(log_sum_exp_fast(&[]), f64::NEG_INFINITY);
/// ```
pub fn log_sum_exp_fast(xs: &[f64]) -> f64 {
    // lint: reduction-order max-fold is order-insensitive up to NaN, which callers exclude
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let mut s = 0.0;
    for &x in xs {
        s += exp_fast(x - m);
    }
    m + s.ln()
}

/// Distance between two floats in units in the last place, treating the
/// pair `(a, b)` as points on the integer number line of ordered f64 bit
/// patterns. Equal values (including `-0.0` vs `0.0`) give 0; any
/// comparison involving NaN gives `u64::MAX` unless both are NaN.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        return if a.is_nan() && b.is_nan() {
            0
        } else {
            u64::MAX
        };
    }
    // Map the f64 bit pattern to a monotone integer line.
    fn ordered(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN.wrapping_add(1).wrapping_sub(bits).wrapping_sub(1)
        } else {
            bits
        }
    }
    ordered(a).abs_diff(ordered(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_ops_match_scalar_bitwise() {
        let a = F64x4::new([1.5, -2.25, 1e-300, 3.7e15]);
        let b = F64x4::new([-0.3, 7.125, 4.0e299, -1.1]);
        let c = F64x4::splat(0.875);
        for i in 0..LANES {
            assert_eq!((a + b).lane(i), a.lane(i) + b.lane(i));
            assert_eq!((a - b).lane(i), a.lane(i) - b.lane(i));
            assert_eq!((a * b).lane(i), a.lane(i) * b.lane(i));
            assert_eq!((a / b).lane(i), a.lane(i) / b.lane(i));
            assert_eq!(
                a.mul_add(b, c).lane(i),
                a.lane(i).mul_add(b.lane(i), c.lane(i))
            );
            assert_eq!(a.max(b).lane(i), a.lane(i).max(b.lane(i)));
            assert_eq!(a.exp().lane(i), exp_fast(a.lane(i)));
        }
    }

    #[test]
    fn load_store_roundtrip() {
        let src = [0.1, 0.2, 0.3, 0.4, 0.5];
        let v = F64x4::load(&src);
        assert_eq!(v.to_array(), [0.1, 0.2, 0.3, 0.4]);
        let mut out = [0.0; 4];
        v.store(&mut out);
        assert_eq!(out, [0.1, 0.2, 0.3, 0.4]);
        assert_eq!(F64x4::splat(7.0).lane(3), 7.0);
    }

    #[test]
    fn exp_fast_specials() {
        assert_eq!(exp_fast(0.0), 1.0);
        assert_eq!(exp_fast(-0.0), 1.0);
        assert_eq!(exp_fast(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_fast(f64::INFINITY), f64::INFINITY);
        assert!(exp_fast(f64::NAN).is_nan());
        assert_eq!(exp_fast(-1e4), 0.0);
        assert_eq!(exp_fast(1e4), f64::INFINITY);
        // Overflow threshold: exp overflows just below 709.79.
        assert_eq!(exp_fast(709.9), f64::INFINITY);
        assert!(exp_fast(709.7).is_finite());
    }

    #[test]
    fn exp_fast_within_ulp_gate() {
        // Dense deterministic sweep over the whole finite-result range
        // (the property suite adds randomized coverage).
        let mut worst = 0u64;
        for k in -7400..7100 {
            let x = k as f64 * 0.1;
            let d = ulp_distance(exp_fast(x), x.exp());
            if x.exp().is_normal() {
                worst = worst.max(d);
            }
        }
        assert!(worst <= EXP_FAST_MAX_ULP, "worst ulp distance {worst}");
    }

    #[test]
    fn exp_fast_subnormal_tail_is_sane() {
        // Deep-tail results stay tiny and non-negative even where the
        // ulp gate does not apply.
        for k in 0..40 {
            let x = -744.0 - k as f64 * 0.05;
            let v = exp_fast(x);
            assert!((0.0..1e-300).contains(&v), "exp_fast({x}) = {v}");
        }
    }

    #[test]
    fn lse_fast_tracks_reference_and_keeps_edge_cases() {
        let xs = [-3.2, 0.5, 1.7, -100.0];
        let d = ulp_distance(log_sum_exp_fast(&xs), crate::stats::log_sum_exp(&xs));
        assert!(d <= 8, "lse drift {d} ulp");
        assert_eq!(log_sum_exp_fast(&[f64::NEG_INFINITY; 3]), f64::NEG_INFINITY);
        assert_eq!(log_sum_exp_fast(&[f64::NAN, f64::NAN]), f64::NEG_INFINITY);
        assert!(log_sum_exp_fast(&[f64::NAN, 0.0]).is_nan());
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, 1.0 + f64::EPSILON), 1);
        assert_eq!(ulp_distance(-1.0, -1.0 - f64::EPSILON), 1);
        assert!(ulp_distance(1.0, 2.0) > 1_000_000);
        assert_eq!(ulp_distance(f64::NAN, f64::NAN), 0);
        assert_eq!(ulp_distance(f64::NAN, 1.0), u64::MAX);
        // Across zero: adjacent subnormals of opposite sign are 2 apart.
        let tiny = f64::from_bits(1);
        assert_eq!(ulp_distance(tiny, -tiny), 2);
    }
}

//! Intent-revealing floating-point comparisons (`clippy::float_cmp`) and the
//! checked-math helpers (lint rule N1).
//!
//! A raw `==`/`!=` between floats is denied by `clippy::float_cmp` in CI's
//! runtime-targets clippy step: at the call site a reader cannot tell a
//! deliberate bit-exact sentinel check from a sloppy tolerance. These
//! helpers spell the intent out.
//!
//! * [`exactly`] is a plain `==`. Use it where the compared value is a
//!   sentinel *written by this codebase* (a learning rate initialised to
//!   `0.0`, an integer-valued exponent stored in an `f64`) and introducing
//!   any epsilon would change behavior.
//! * [`approx_eq`] is an absolute-tolerance comparison for genuinely
//!   computed quantities.
//!
//! Similarly, the N1 rule confines NaN/Inf-capable operations (division by
//! a non-literal divisor, `sqrt`, `ln`, …) to the solver's
//! divergence-recovery scope, where the rollback machinery watches for
//! non-finite values. Everywhere else such math must route through the
//! checked helpers here — [`frac`], [`checked_div`], [`checked_sqrt`],
//! [`checked_ln`] — which make the non-finite case an explicit branch
//! instead of a silently propagating NaN. This file is the one sanctioned
//! home for the raw operations (`[rules.N1] helper_files`).

/// Deliberate bit-exact float equality.
///
/// Semantically identical to `a == b`; the name exists so the exactness is
/// visibly intentional. Reserve it for sentinel values this codebase stores
/// itself — never for the result of arithmetic.
///
/// # Example
///
/// ```
/// use sfq_partition::float::exactly;
///
/// assert!(exactly(4.0, 4.0));
/// assert!(!exactly(4.0, 4.0 + f64::EPSILON * 4.0));
/// ```
#[inline]
#[must_use]
#[expect(clippy::float_cmp, reason = "the one sanctioned bit-exact comparison")]
pub fn exactly(a: f64, b: f64) -> bool {
    a == b
}

/// Absolute-tolerance comparison: `|a − b| ≤ tol`.
///
/// Returns `false` when either operand is NaN (any comparison with NaN is
/// false), and `true` for equal infinities (their difference underflows the
/// subtraction to NaN — guarded explicitly).
///
/// # Example
///
/// ```
/// use sfq_partition::float::approx_eq;
///
/// assert!(approx_eq(1.0, 1.0 + 1e-13, 1e-12));
/// assert!(!approx_eq(1.0, 1.1, 1e-12));
/// ```
#[inline]
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    if a == b {
        // Covers equal infinities, where `a - b` would be NaN.
        return true;
    }
    (a - b).abs() <= tol
}

/// Guarded ratio: `n / d`, or `default` when the divisor is (±)0.
///
/// The workhorse for "fraction of a total that may be empty" — histogram
/// fractions, utilizations, per-plane targets. When `d` is nonzero the
/// result is bit-identical to the raw division; only the `d == 0` branch
/// (where raw division would manufacture an Inf or NaN) is redirected. A
/// NaN divisor still propagates — the caller owns genuinely non-finite
/// inputs; this helper only removes the divide-by-zero edge.
///
/// # Example
///
/// ```
/// use sfq_partition::float::frac;
///
/// assert_eq!(frac(6.0, 3.0, 1.0), 2.0);
/// assert_eq!(frac(6.0, 0.0, 1.0), 1.0);
/// ```
#[inline]
#[must_use]
pub fn frac(n: f64, d: f64, default: f64) -> f64 {
    if exactly(d, 0.0) {
        default
    } else {
        n / d
    }
}

/// Division that reports a non-finite result instead of propagating it.
///
/// Returns `None` when `n / d` is NaN or infinite (zero or denormal-tiny
/// divisor, non-finite operands), `Some(n / d)` otherwise.
#[inline]
#[must_use]
pub fn checked_div(n: f64, d: f64) -> Option<f64> {
    let q = n / d;
    q.is_finite().then_some(q)
}

/// Square root that refuses the NaN branch: `None` for negative or NaN
/// input, `Some(x.sqrt())` otherwise (`sqrt` of a non-negative finite
/// value is always finite).
#[inline]
#[must_use]
pub fn checked_sqrt(x: f64) -> Option<f64> {
    (x >= 0.0).then(|| x.sqrt())
}

/// Natural log that refuses the non-finite branches: `None` for zero,
/// negative, or NaN input, where `ln` would return `-Inf` or NaN.
#[inline]
#[must_use]
pub fn checked_ln(x: f64) -> Option<f64> {
    (x > 0.0 && x.is_finite()).then(|| x.ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_is_bit_exact() {
        assert!(exactly(0.0, 0.0));
        assert!(exactly(0.0, -0.0)); // IEEE: +0 == -0
        assert!(!exactly(f64::NAN, f64::NAN));
        assert!(!exactly(1.0, 1.0 + f64::EPSILON));
    }

    #[test]
    fn frac_is_raw_division_except_at_zero() {
        assert!(exactly(frac(1.0, 3.0, 9.9), 1.0 / 3.0));
        assert!(exactly(frac(5.0, 0.0, 9.9), 9.9));
        assert!(exactly(frac(5.0, -0.0, 9.9), 9.9));
        assert!(frac(f64::NAN, 2.0, 0.0).is_nan());
    }

    #[test]
    fn checked_helpers_refuse_the_nonfinite_branches() {
        assert_eq!(checked_div(6.0, 3.0), Some(2.0));
        assert_eq!(checked_div(1.0, 0.0), None);
        assert_eq!(checked_div(f64::NAN, 1.0), None);
        assert_eq!(checked_sqrt(9.0), Some(3.0));
        assert_eq!(checked_sqrt(-1.0), None);
        assert_eq!(checked_sqrt(f64::NAN), None);
        assert_eq!(checked_ln(1.0), Some(0.0));
        assert_eq!(checked_ln(0.0), None);
        assert_eq!(checked_ln(-1.0), None);
        assert_eq!(checked_ln(f64::INFINITY), None);
    }

    #[test]
    fn approx_eq_tolerance_edges() {
        assert!(approx_eq(1.0, 1.0, 0.0));
        assert!(approx_eq(f64::INFINITY, f64::INFINITY, 0.0));
        assert!(!approx_eq(f64::INFINITY, f64::NEG_INFINITY, 1e300));
        assert!(!approx_eq(f64::NAN, 0.0, 1.0));
        assert!(approx_eq(3.0, 3.0 + 5e-13, 1e-12));
    }
}

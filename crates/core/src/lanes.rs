//! Portable explicit-width `f64` lane kernels for the K-plane inner loops.
//!
//! Every hot loop of the fused engine iterates a gate's `K` plane weights.
//! With the row-major layout of PR 1 those loops carried serial dependency
//! chains (one accumulator per quantity) over an odd trip count (`K = 5`,
//! `K = 30`), which blocks both instruction-level parallelism and clean
//! autovectorization. This module fixes the *shape* of that arithmetic:
//!
//! * **Padded K-lanes** — [`WeightMatrix`](crate::WeightMatrix) rows are
//!   stored with stride [`padded`]`(K)` (the next multiple of [`LANE`]),
//!   padding entries pinned to `0.0`. Kernels iterate the padded row in
//!   exact `[f64; LANE]` blocks via `chunks_exact`, which the compiler
//!   lowers to SIMD on every target without nightly `std::simd`.
//! * **Canonical striped fold order** — every row reduction accumulates
//!   element `idx` into stripe accumulator `acc[idx % LANE]` and folds the
//!   stripes as `((acc[0] + acc[1]) + acc[2]) + acc[3]` ([`fold`]). The
//!   padding contributes exact `+0.0` terms (an IEEE-754 no-op against the
//!   `+0.0`-initialized stripes), so the result depends only on the `K`
//!   real entries. Because the order is fixed per row and per chunk, the
//!   exactness suites — serial == parallel (`engine::parallel_map`),
//!   observer-on == observer-off, and the alloc sanitizer (A1) — can pin
//!   the arithmetic bit for bit.
//! * **Chunk boundaries align to lane blocks** — the engine's fixed chunk
//!   layout splits on *gate* boundaries and every row occupies a full number of
//!   lane blocks (`stride % LANE == 0`), so a chunk's flat offset
//!   `start · stride` is always lane-aligned by construction. The engine
//!   debug-asserts this invariant.
//!
//! The kernels themselves live next to their callers (`engine.rs`,
//! `weights.rs`); this module owns the layout constants and the folds so
//! the invariants are auditable in one place.

/// Lane width of every K-plane kernel, in `f64` elements.
///
/// Four doubles = one AVX2 register = two SSE2 registers; the fixed width is
/// part of the numerical contract (it determines the striped fold order), so
/// it is a constant, never derived from the machine.
pub const LANE: usize = 4;

/// The padded row stride for `k` planes: `k` rounded up to a multiple of
/// [`LANE`].
///
/// # Example
///
/// ```
/// use sfq_partition::lanes::{padded, LANE};
///
/// assert_eq!(padded(1), LANE);
/// assert_eq!(padded(4), 4);
/// assert_eq!(padded(5), 8);
/// assert_eq!(padded(30), 32);
/// ```
#[must_use]
pub const fn padded(k: usize) -> usize {
    k.div_ceil(LANE) * LANE
}

/// Canonical cross-stripe fold: `((acc[0] + acc[1]) + acc[2]) + acc[3]`.
///
/// Shared by every striped reduction; changing this tree changes results
/// and is a breaking numerical change.
#[inline]
#[must_use]
pub fn fold(acc: [f64; LANE]) -> f64 {
    ((acc[0] + acc[1]) + acc[2]) + acc[3]
}

/// Infinity norm (largest absolute component) of a slice, computed in lane
/// blocks with a scalar tail.
///
/// `max` is order-independent over finite values, so unlike the sum folds
/// this needs no striping contract: the result is exactly the sequential
/// `fold(0.0, f64::max)` for every input without NaNs (NaN entries are
/// skipped by `f64::max`, matching the sequential spelling).
#[must_use]
pub fn max_abs(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANE];
    let chunks = xs.chunks_exact(LANE);
    let tail = chunks.remainder();
    for c in chunks {
        for j in 0..LANE {
            acc[j] = acc[j].max(c[j].abs());
        }
    }
    let mut m = acc[0].max(acc[1]).max(acc[2]).max(acc[3]);
    for &x in tail {
        m = m.max(x.abs());
    }
    m
}

/// True when every element of `xs` is finite (neither `±Inf` nor NaN).
///
/// Branch-free: `x · 0.0` is `±0.0` for every finite `x` and NaN for `±Inf`
/// and NaN, and a NaN stays NaN through every later addition, so the lane
/// sums end on a zero exactly when the whole slice is finite. The loop has
/// no early exit and no per-element branch, so it compiles to straight
/// vector code — about 4× faster than `xs.iter().all(|x| x.is_finite())`
/// on a cache-resident C1908@K=30 gradient; the answer cannot depend on the
/// order of the additions.
#[must_use]
pub fn all_finite(xs: &[f64]) -> bool {
    let mut acc = [0.0f64; LANE];
    let chunks = xs.chunks_exact(LANE);
    let tail = chunks.remainder();
    for c in chunks {
        for j in 0..LANE {
            acc[j] += c[j] * 0.0;
        }
    }
    let mut s = fold(acc);
    for &x in tail {
        s += x * 0.0;
    }
    !s.is_nan()
}

/// Canonical striped sum of a slice: lane-block accumulators combined with
/// [`fold`], then the scalar tail added left to right.
///
/// This is THE reduction order for f64 sums in the numeric crates (lint
/// rule D4): serial and parallel restarts both use it, so routing a
/// reduction through here keeps the serial == parallel bit-identity
/// guarantee. A raw `.iter().sum::<f64>()` evaluates in a
/// different association order and is a D4 finding outside this module.
#[must_use]
pub fn sum(xs: &[f64]) -> f64 {
    // Spelled directly (not via `sum_with(xs, |x| x)`) so the hot-path
    // call graph stays closure-free: a closure parameter is an
    // unresolvable call (⊤) to sfqlint's A1 rule.
    let mut acc = [0.0f64; LANE];
    let chunks = xs.chunks_exact(LANE);
    let tail = chunks.remainder();
    for c in chunks {
        for j in 0..LANE {
            acc[j] += c[j];
        }
    }
    let mut s = fold(acc);
    for &x in tail {
        s += x;
    }
    s
}

/// [`sum`] with a per-element map applied before accumulation — the
/// striped spelling of `.iter().map(f).sum::<f64>()`, for variance terms
/// and squared norms (`sum_with(xs, |x| x * x)`).
#[must_use]
pub fn sum_with(xs: &[f64], f: impl Fn(f64) -> f64) -> f64 {
    let mut acc = [0.0f64; LANE];
    let chunks = xs.chunks_exact(LANE);
    let tail = chunks.remainder();
    for c in chunks {
        for j in 0..LANE {
            acc[j] += f(c[j]);
        }
    }
    let mut s = fold(acc);
    for &x in tail {
        s += f(x);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_rounds_up_to_lane_multiples() {
        assert_eq!(padded(1), 4);
        assert_eq!(padded(2), 4);
        assert_eq!(padded(3), 4);
        assert_eq!(padded(4), 4);
        assert_eq!(padded(5), 8);
        assert_eq!(padded(8), 8);
        assert_eq!(padded(30), 32);
        assert_eq!(padded(33), 36);
    }

    #[test]
    fn fold_is_the_documented_tree() {
        // Pick values where association order matters in f64.
        let a = [1e16, 1.0, -1e16, 1.0];
        assert_eq!(fold(a), ((a[0] + a[1]) + a[2]) + a[3]);
    }

    #[test]
    fn max_abs_matches_sequential_fold() {
        let xs: Vec<f64> = (0..37).map(|i| ((i * 7919) % 101) as f64 - 50.0).collect();
        let expect = xs.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert_eq!(max_abs(&xs), expect);
        assert_eq!(max_abs(&[]), 0.0);
        assert_eq!(max_abs(&[-3.5]), 3.5);
    }

    #[test]
    fn max_abs_skips_nans_like_sequential_max() {
        let xs = [1.0, f64::NAN, 7.0, f64::NAN, 2.0];
        let expect = xs.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert_eq!(max_abs(&xs), expect);
        assert_eq!(max_abs(&xs), 7.0);
    }

    #[test]
    fn all_finite_matches_the_element_wise_check() {
        let finite: Vec<f64> = (0..37)
            .map(|i| (f64::from(i) - 18.0) * 1e300)
            .chain([f64::MAX, f64::MIN, f64::MIN_POSITIVE, -0.0, 5e-324])
            .collect();
        assert!(all_finite(&finite));
        assert!(all_finite(&[]));
        // One non-finite value anywhere, in a lane block or in the tail,
        // must be caught.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 3, 17, finite.len() - 1] {
                let mut xs = finite.clone();
                xs[at] = bad;
                assert!(!all_finite(&xs), "{bad} at {at}");
                assert_eq!(all_finite(&xs), xs.iter().all(|x| x.is_finite()));
            }
        }
    }

    #[test]
    fn sum_pins_the_striped_association_order() {
        // Two full lane blocks: lane j accumulates xs[j] + xs[j + 4].
        let xs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
        let striped = fold([xs[0] + xs[4], xs[1] + xs[5], xs[2] + xs[6], xs[3] + xs[7]]);
        assert_eq!(sum(&xs), striped);
        // The sequential order gives a DIFFERENT value on this input
        // (3.6 vs 3.6000000000000005) — that difference is exactly what
        // rule D4 guards against.
        let sequential: f64 = xs.iter().sum();
        assert_ne!(sum(&xs), sequential);
        assert_eq!(sum(&[]), 0.0);
        assert_eq!(sum(&[1.5, 2.5]), 4.0);
    }

    #[test]
    fn sum_with_maps_before_accumulating() {
        let xs: Vec<f64> = (0..9).map(f64::from).collect();
        assert_eq!(
            sum_with(&xs, |x| x * x),
            sum(&xs.iter().map(|&x| x * x).collect::<Vec<_>>())
        );
        assert_eq!(sum_with(&[], |x| x + 1.0), 0.0);
    }
}

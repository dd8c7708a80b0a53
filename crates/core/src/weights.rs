//! The relaxed assignment matrix `w ∈ [0,1]^{G×K}`.

use rand::distr::{Distribution, Uniform};
use rand::Rng;

use crate::lanes::{self, LANE};

/// A `G×K` matrix of relaxed assignment weights, stored with padded K-lanes.
///
/// Row `i` is the paper's vector `[w_{i,1}, …, w_{i,K}]`. Algorithm 1
/// initializes every entry uniformly at random and normalizes each row to sum
/// to one ([`WeightMatrix::random`]); the solver then clamps entries to
/// `[0,1]` after every step and finally snaps each row to its argmax.
///
/// # Layout
///
/// Rows are stored contiguously with stride [`lanes::padded`]`(K)` — `K`
/// rounded up to a multiple of [`LANE`] — and the padding entries pinned to
/// exactly `0.0`. The padding lets every kernel iterate rows in fixed
/// `[f64; LANE]` blocks without a remainder loop, and `0.0` padding is an
/// exact no-op in every sum the kernels fold (see the `lanes` module docs).
/// [`WeightMatrix::row`] still returns the length-`K` view;
/// [`WeightMatrix::padded_row`] and [`WeightMatrix::as_slice`] expose the
/// padded storage for kernels and flat buffers sized via
/// [`WeightMatrix::padded_len`].
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use sfq_partition::WeightMatrix;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let w = WeightMatrix::random(3, 4, &mut rng);
/// for i in 0..3 {
///     let sum: f64 = w.row(i).iter().sum();
///     assert!((sum - 1.0).abs() < 1e-12);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightMatrix {
    num_gates: usize,
    num_planes: usize,
    stride: usize,
    data: Vec<f64>,
}

impl WeightMatrix {
    /// Creates a matrix filled with `1/K` (the fully undecided point).
    pub fn uniform(num_gates: usize, num_planes: usize) -> Self {
        assert!(num_planes > 0, "need at least one plane");
        let stride = lanes::padded(num_planes);
        let mut data = vec![0.0; num_gates * stride];
        let fill = crate::float::frac(1.0, num_planes as f64, 0.0);
        for row in data.chunks_exact_mut(stride) {
            for w in &mut row[..num_planes] {
                *w = fill;
            }
        }
        WeightMatrix {
            num_gates,
            num_planes,
            stride,
            data,
        }
    }

    /// Creates a matrix with uniformly random rows, each normalized to sum
    /// to one (Algorithm 1 lines 3–11).
    pub fn random<R: Rng + ?Sized>(num_gates: usize, num_planes: usize, rng: &mut R) -> Self {
        assert!(num_planes > 0, "need at least one plane");
        let dist =
            Uniform::new(0.0f64, 1.0).unwrap_or_else(|_| unreachable!("0..1 is a valid range"));
        let stride = lanes::padded(num_planes);
        let mut data = vec![0.0; num_gates * stride];
        for row in data.chunks_exact_mut(stride) {
            let mut sum = 0.0;
            for w in &mut row[..num_planes] {
                let x = dist.sample(rng).max(1e-12);
                sum += x;
                *w = x;
            }
            for w in &mut row[..num_planes] {
                *w /= sum;
            }
        }
        WeightMatrix {
            num_gates,
            num_planes,
            stride,
            data,
        }
    }

    /// Creates a matrix with uniformly random rows, each given an extra
    /// `spread` of mass on one uniformly chosen plane before normalization.
    ///
    /// Plain random rows have labels `l_i` concentrated around `(K+1)/2`
    /// (a sum of `K` random weights), which starves the outer planes at
    /// large `K`; seeding one plane per row keeps the initial labels spread
    /// over the whole `1..K` range while remaining a random initialization
    /// in the paper's sense. `spread = 0` reduces to [`WeightMatrix::random`].
    ///
    /// # Panics
    ///
    /// Panics if `spread` is negative.
    pub fn random_spread<R: Rng + ?Sized>(
        num_gates: usize,
        num_planes: usize,
        spread: f64,
        rng: &mut R,
    ) -> Self {
        assert!(spread >= 0.0, "spread must be non-negative");
        let mut m = WeightMatrix::random(num_gates, num_planes, rng);
        // Exact: `0.0` is the documented "plain random init" sentinel.
        if crate::float::exactly(spread, 0.0) {
            return m;
        }
        #[allow(clippy::needless_range_loop)] // parallel-array indexing
        for i in 0..num_gates {
            let hot = rng.random_range(0..num_planes);
            let row = m.row_mut(i);
            row[hot] += spread;
            let sum: f64 = row.iter().sum();
            for w in row {
                *w /= sum;
            }
        }
        m
    }

    /// Creates a one-hot matrix from explicit plane labels (0-based).
    ///
    /// # Panics
    ///
    /// Panics if any label is `>= num_planes`.
    pub fn from_labels(labels: &[usize], num_planes: usize) -> Self {
        let stride = lanes::padded(num_planes);
        let mut m = WeightMatrix {
            num_gates: labels.len(),
            num_planes,
            stride,
            data: vec![0.0; labels.len() * stride],
        };
        for (i, &l) in labels.iter().enumerate() {
            assert!(l < num_planes, "label {l} out of range for K={num_planes}");
            m.data[i * stride + l] = 1.0;
        }
        m
    }

    /// Number of gates `G` (rows).
    pub fn num_gates(&self) -> usize {
        self.num_gates
    }

    /// Number of planes `K` (columns).
    pub fn num_planes(&self) -> usize {
        self.num_planes
    }

    /// The padded row stride — [`lanes::padded`]`(K)`, a multiple of
    /// [`LANE`].
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Length of the flat padded buffer, `G · stride`. Step and gradient
    /// buffers that pair with this matrix must use this length, not `G·K`.
    pub fn padded_len(&self) -> usize {
        self.data.len()
    }

    /// Row `i` as a slice of length `K` (the real entries, no padding).
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.stride..i * self.stride + self.num_planes]
    }

    /// Mutable row `i` of length `K` (cannot touch the padding).
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.stride..i * self.stride + self.num_planes]
    }

    /// Row `i` including its zero padding, length [`Self::stride`].
    pub fn padded_row(&self, i: usize) -> &[f64] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    /// Mutable padded row `i`. Callers must leave the padding entries
    /// (`row[K..]`) at exactly `0.0`.
    pub fn padded_row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.stride..(i + 1) * self.stride]
    }

    /// Entry `w[i][k]` with `k` 0-based.
    pub fn get(&self, i: usize, k: usize) -> f64 {
        assert!(k < self.num_planes, "plane index out of range");
        self.data[i * self.stride + k]
    }

    /// Sets entry `w[i][k]` with `k` 0-based.
    pub fn set(&mut self, i: usize, k: usize, value: f64) {
        assert!(k < self.num_planes, "plane index out of range");
        self.data[i * self.stride + k] = value;
    }

    /// The flat padded row-major buffer (stride [`Self::stride`], padding
    /// entries exactly `0.0`).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The flat padded buffer, mutable. Callers must leave every padding
    /// entry (`row[K..stride]`) at exactly `0.0`.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The paper's label `l_i = Σ_k k·w[i][k]` with `k = 1..K`, computed in
    /// the canonical striped fold order (see [`lanes::fold`]); the zero
    /// padding contributes exact `+0.0` terms.
    ///
    /// For a row-stochastic row this is the "expected plane" of gate `i`.
    pub fn label(&self, i: usize) -> f64 {
        let mut acc = [0.0f64; LANE];
        for (k, &w) in self.padded_row(i).iter().enumerate() {
            acc[k % LANE] += (k + 1) as f64 * w;
        }
        lanes::fold(acc)
    }

    /// Writes all labels `l_i` into `out` (length `G`).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != G`.
    pub fn labels_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.num_gates);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.label(i);
        }
    }

    /// Argmax plane (0-based) of row `i`; ties break toward the lower index,
    /// matching a stable `argmax` over `k = 1..K`.
    ///
    /// Scans the padded row in `[f64; LANE]` blocks keeping a per-stripe
    /// running max (strict `>` keeps the earliest index), then combines the
    /// four stripe candidates with a lowest-index tie-break. If the `0.0`
    /// padding wins — every real entry is negative, which cannot happen for
    /// the solver's clamped matrices — it falls back to a scalar scan of the
    /// real prefix. Rows must be finite; the solver checks
    /// [`Self::all_finite`] before snapping.
    pub fn argmax_plane(&self, i: usize) -> usize {
        let row = self.padded_row(i);
        let mut val = [0.0f64; LANE];
        val.copy_from_slice(&row[..LANE]);
        let mut idx = [0usize, 1, 2, 3];
        for (b, block) in row.chunks_exact(LANE).enumerate().skip(1) {
            for j in 0..LANE {
                if block[j] > val[j] {
                    val[j] = block[j];
                    idx[j] = b * LANE + j;
                }
            }
        }
        let mut best_val = val[0];
        let mut best = idx[0];
        for j in 1..LANE {
            // Exact comparison: the tie-break must fire only when the stripe
            // maxima are identical, to pick the lower index.
            if val[j] > best_val || (crate::float::exactly(val[j], best_val) && idx[j] < best) {
                best_val = val[j];
                best = idx[j];
            }
        }
        if best < self.num_planes {
            best
        } else {
            // The zero padding beat every real entry (all negative): redo the
            // scan over the real prefix only.
            let real = &row[..self.num_planes];
            let mut best = 0usize;
            let mut best_val = real[0];
            for (k, &v) in real.iter().enumerate().skip(1) {
                if v > best_val {
                    best = k;
                    best_val = v;
                }
            }
            best
        }
    }

    /// True when every entry is a finite number — the invariant the solver's
    /// divergence-recovery path maintains before snapping to a partition.
    /// Scans the padded buffer with the branch-free [`lanes::all_finite`].
    pub fn all_finite(&self) -> bool {
        lanes::all_finite(&self.data)
    }

    /// Clamps every entry to `[0,1]` (Algorithm 1 lines 21–23).
    pub fn clamp_unit(&mut self) {
        for w in &mut self.data {
            *w = w.clamp(0.0, 1.0);
        }
    }

    /// Checks the operands of a descent step: `src` has this matrix's shape
    /// and `step` its padded length. In debug builds it also checks the
    /// padding invariant: padding entries of `step` must be `±0.0` so
    /// `src − rate·step` leaves the matrix padding at exactly `+0.0`. The
    /// gradient kernels guarantee this.
    fn check_descent_operands(&self, src: &WeightMatrix, step: &[f64]) {
        assert_eq!(src.stride, self.stride);
        assert_eq!(src.data.len(), self.data.len());
        assert_eq!(step.len(), self.data.len());
        debug_assert_eq!(src.num_planes, self.num_planes);
        if cfg!(debug_assertions) && self.stride != self.num_planes {
            for (i, row) in step.chunks_exact(self.stride).enumerate() {
                for &s in &row[self.num_planes..] {
                    debug_assert!(
                        crate::float::exactly(s, 0.0),
                        "step padding must be zero (gate {i})"
                    );
                }
            }
        }
    }

    /// Overwrites this matrix with `src − rate·step`, element-wise clamped
    /// to `[0, 1]` — one projected gradient step taken *from* `src`.
    ///
    /// The solver keeps the pre-step weights in a second matrix and swaps
    /// the two each iteration instead of copying: after the swap `src`
    /// holds the current iterate and `self` the stale one, which this call
    /// overwrites in full. Each entry is `(s − rate·g).clamp(0, 1)`, the
    /// same expression an in-place update applies, so results are
    /// bit-identical to stepping a copy of `src`.
    ///
    /// `step` is a padded buffer of [`Self::padded_len`] elements whose
    /// padding entries are `±0.0` (as the gradient kernels produce); the
    /// update runs over full `[f64; LANE]` blocks and leaves the padding at
    /// exactly `+0.0` (`0.0 − ±0.0` clamps to `+0.0`).
    ///
    /// # Panics
    ///
    /// Panics if `src` has a different shape or `step.len()` differs from
    /// [`Self::padded_len`].
    pub fn descend_from(&mut self, src: &WeightMatrix, step: &[f64], rate: f64) {
        self.check_descent_operands(src, step);
        for ((wb, ob), sb) in self
            .data
            .chunks_exact_mut(LANE)
            .zip(src.data.chunks_exact(LANE))
            .zip(step.chunks_exact(LANE))
        {
            for j in 0..LANE {
                wb[j] = (ob[j] - rate * sb[j]).clamp(0.0, 1.0);
            }
        }
    }

    /// [`Self::descend_from`] plus a count of the entries the `[0, 1]`
    /// projection actually clipped and the infinity norm of `step`.
    ///
    /// The update expression is character-for-character the one in
    /// [`Self::descend_from`], so the resulting matrix is bit-identical —
    /// the telemetry layer relies on this to keep observer-on and
    /// observer-off solves exactly equal (see `solver::tests` and the
    /// `observer_exactness` suite). Only the count and the norm are extra
    /// work, which is why the solver calls this variant solely when an
    /// enabled observer asked for iteration statistics. The norm rides the
    /// descent sweep — the step buffer is already streaming through cache —
    /// so enabled trace sinks don't pay a second O(G·stride) pass per
    /// iteration; max over absolute values is order-free, so the result
    /// equals [`crate::lanes::max_abs`] bit for bit. Padding entries never
    /// clip (`0.0 − ±0.0` is `+0.0`, which the clamp leaves untouched) and
    /// contribute `0.0` to the norm.
    pub fn descend_from_counting(
        &mut self,
        src: &WeightMatrix,
        step: &[f64],
        rate: f64,
    ) -> (usize, f64) {
        self.check_descent_operands(src, step);
        step_counting(&mut self.data, &src.data, step, rate)
    }
}

/// The loop of [`WeightMatrix::descend_from_counting`], over plain slices:
/// as separate arguments the compiler knows `dst` aliases neither `src` nor
/// `step`, which it cannot see through three `Vec`s, and vectorizes the
/// counting loop.
fn step_counting(dst: &mut [f64], src: &[f64], step: &[f64], rate: f64) -> (usize, f64) {
    // Lane-striped accumulators, folded once at the end: a single scalar
    // running max or count would be a loop-carried dependency that blocks
    // the autovectorizer for the whole update loop, and a branch on each
    // clip would mispredict. Max is order-free, so the striped fold equals
    // `lanes::max_abs` (and a sequential fold) bit for bit.
    let mut clipped = [0usize; LANE];
    let mut norm = [0.0f64; LANE];
    for ((wb, ob), sb) in dst
        .chunks_exact_mut(LANE)
        .zip(src.chunks_exact(LANE))
        .zip(step.chunks_exact(LANE))
    {
        for j in 0..LANE {
            let raw = ob[j] - rate * sb[j];
            let projected = raw.clamp(0.0, 1.0);
            // Exact comparison on purpose: a clip is precisely "clamp
            // changed the value" (NaN never reaches here — the solver
            // checks finiteness before stepping).
            clipped[j] += (!crate::float::exactly(raw, projected)) as usize;
            norm[j] = norm[j].max(sb[j].abs());
            wb[j] = projected;
        }
    }
    (clipped.iter().sum::<usize>(), lanes::max_abs(&norm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_rows_are_stochastic() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = WeightMatrix::random(50, 7, &mut rng);
        for i in 0..50 {
            let sum: f64 = w.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(w.row(i).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn stride_is_padded_and_padding_is_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        for k in [1, 2, 4, 5, 7, 8, 30] {
            let w = WeightMatrix::random(9, k, &mut rng);
            assert_eq!(w.stride(), lanes::padded(k));
            assert_eq!(w.padded_len(), 9 * w.stride());
            for i in 0..9 {
                assert_eq!(w.row(i).len(), k);
                assert_eq!(w.padded_row(i).len(), w.stride());
                assert!(w.padded_row(i)[k..]
                    .iter()
                    .all(|&p| crate::float::exactly(p, 0.0)));
            }
        }
    }

    #[test]
    fn uniform_labels_are_midpoint() {
        let w = WeightMatrix::uniform(3, 4);
        // l = (1+2+3+4)/4 = 2.5
        for i in 0..3 {
            assert!((w.label(i) - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn one_hot_label_is_plane_index_plus_one() {
        let w = WeightMatrix::from_labels(&[0, 2, 1], 3);
        assert_eq!(w.label(0), 1.0);
        assert_eq!(w.label(1), 3.0);
        assert_eq!(w.label(2), 2.0);
    }

    #[test]
    fn argmax_breaks_ties_low() {
        let mut w = WeightMatrix::uniform(1, 3);
        assert_eq!(w.argmax_plane(0), 0);
        w.set(0, 2, 0.9);
        assert_eq!(w.argmax_plane(0), 2);
    }

    #[test]
    fn argmax_matches_scalar_scan_across_widths() {
        let mut rng = StdRng::seed_from_u64(17);
        for k in [1, 2, 3, 4, 5, 8, 9, 30, 33] {
            let w = WeightMatrix::random(25, k, &mut rng);
            for i in 0..25 {
                let row = w.row(i);
                let mut best = 0usize;
                let mut best_val = row[0];
                for (kk, &v) in row.iter().enumerate().skip(1) {
                    if v > best_val {
                        best = kk;
                        best_val = v;
                    }
                }
                assert_eq!(w.argmax_plane(i), best, "k={k} gate {i}");
            }
        }
    }

    #[test]
    fn argmax_falls_back_when_all_entries_negative() {
        let mut w = WeightMatrix::uniform(1, 3);
        w.set(0, 0, -3.0);
        w.set(0, 1, -1.0);
        w.set(0, 2, -2.0);
        // The 0.0 padding beats every real entry; the fallback must still
        // pick the largest *real* entry.
        assert_eq!(w.argmax_plane(0), 1);
    }

    /// A padded step for `g` gates over `k` planes: real entries from
    /// `value(i)`, padding entries `pad`.
    fn padded_step(g: usize, k: usize, pad: f64, value: impl Fn(usize) -> f64) -> Vec<f64> {
        let stride = lanes::padded(k);
        (0..g * stride)
            .map(|i| if i % stride < k { value(i) } else { pad })
            .collect()
    }

    #[test]
    fn descend_from_clamps() {
        let src = WeightMatrix::from_labels(&[0], 2);
        let mut w = WeightMatrix::uniform(1, 2);
        // Step pushes entry 0 above 1 and entry 1 below 0 — both clamp.
        // (Padded step: stride is 4 for K=2.)
        w.descend_from(&src, &[-0.5, 0.5, 0.0, 0.0], 1.0);
        assert_eq!(w.row(0), &[1.0, 0.0]);
        assert!(w.padded_row(0)[2..]
            .iter()
            .all(|&p| crate::float::exactly(p, 0.0)));
    }

    #[test]
    fn descend_from_overwrites_with_the_clamped_step_from_the_source() {
        let mut rng = StdRng::seed_from_u64(29);
        let src = WeightMatrix::random(12, 5, &mut rng);
        // The destination's old contents must not leak into the result.
        let mut w = WeightMatrix::random(12, 5, &mut rng);
        let step = padded_step(12, 5, 0.0, |i| ((i % 9) as f64 - 4.0) * 0.15);
        w.descend_from(&src, &step, 0.8);
        for (i, (&got, (&s, &g))) in w
            .as_slice()
            .iter()
            .zip(src.as_slice().iter().zip(&step))
            .enumerate()
        {
            let expect = (s - 0.8 * g).clamp(0.0, 1.0);
            assert_eq!(got.to_bits(), expect.to_bits(), "entry {i}");
        }
    }

    #[test]
    fn descend_from_preserves_zero_padding() {
        let mut rng = StdRng::seed_from_u64(23);
        let src = WeightMatrix::random(8, 5, &mut rng);
        let mut w = src.clone();
        // Negative-zero padding in the step (as a masked gradient kernel can
        // produce) must leave the matrix padding at exactly +0.0.
        let step = padded_step(8, 5, -0.0, |i| 0.3 - (i % 3) as f64 * 0.3);
        w.descend_from(&src, &step, 0.7);
        for i in 0..8 {
            assert!(w.padded_row(i)[5..]
                .iter()
                .all(|&p| p.to_bits() == 0.0f64.to_bits()));
        }
    }

    #[test]
    #[should_panic]
    fn descend_from_rejects_a_source_of_another_shape() {
        let src = WeightMatrix::uniform(4, 5);
        let mut w = WeightMatrix::uniform(8, 2);
        // Same padded length (4·8 == 8·4), different layout.
        let step = vec![0.0; w.padded_len()];
        w.descend_from(&src, &step, 1.0);
    }

    #[test]
    fn descend_from_counting_is_bit_identical_and_counts() {
        let mut rng = StdRng::seed_from_u64(11);
        let src = WeightMatrix::random(30, 5, &mut rng);
        let mut a = WeightMatrix::uniform(30, 5);
        let mut b = WeightMatrix::uniform(30, 5);
        let step = padded_step(30, 5, 0.0, |i| ((i % 7) as f64 - 3.0) * 0.4);
        a.descend_from(&src, &step, 0.9);
        let (clipped, norm) = b.descend_from_counting(&src, &step, 0.9);
        assert_eq!(a, b, "counting variant must not perturb the update");
        // The fused norm must match the lane-blocked kernel bit for bit.
        assert!(crate::float::exactly(norm, crate::lanes::max_abs(&step)));
        // A ±1.2 step on weights in [0,1] clips plenty of entries.
        assert!(clipped > 0);
        let expected = (0..30)
            .flat_map(|i| a.row(i))
            .filter(|w| crate::float::exactly(**w, 0.0) || crate::float::exactly(**w, 1.0))
            .count();
        assert!(
            clipped <= expected,
            "clipped {clipped} vs boundary {expected}"
        );
    }

    #[test]
    fn all_finite_checks_every_real_entry() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut w = WeightMatrix::random(7, 5, &mut rng);
        assert!(w.all_finite());
        w.set(6, 4, f64::INFINITY);
        assert!(!w.all_finite());
        w.set(6, 4, 0.5);
        w.set(0, 0, f64::NAN);
        assert!(!w.all_finite());
    }

    #[test]
    fn labels_into_matches_label() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = WeightMatrix::random(10, 5, &mut rng);
        let mut out = vec![0.0; 10];
        w.labels_into(&mut out);
        for (i, &label) in out.iter().enumerate() {
            assert_eq!(label, w.label(i));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = WeightMatrix::random(5, 3, &mut StdRng::seed_from_u64(9));
        let b = WeightMatrix::random(5, 3, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "label 3 out of range")]
    fn from_labels_rejects_out_of_range() {
        let _ = WeightMatrix::from_labels(&[3], 3);
    }

    #[test]
    fn random_spread_zero_equals_plain_random() {
        let a = WeightMatrix::random(20, 6, &mut StdRng::seed_from_u64(3));
        let b = WeightMatrix::random_spread(20, 6, 0.0, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn random_spread_rows_stay_stochastic() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = WeightMatrix::random_spread(40, 8, 0.5, &mut rng);
        for i in 0..40 {
            let sum: f64 = w.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn random_spread_occupies_outer_planes() {
        // The whole point: with many planes, argmax of plain random rows
        // almost never lands on the extremes, while seeded rows cover the
        // full range.
        let k = 24;
        let g = 400;
        let occupied = |w: &WeightMatrix| {
            let mut seen = vec![false; k];
            for i in 0..g {
                seen[w.argmax_plane(i)] = true;
            }
            seen.iter().filter(|&&s| s).count()
        };
        let seeded = WeightMatrix::random_spread(g, k, 0.5, &mut StdRng::seed_from_u64(1));
        assert_eq!(occupied(&seeded), k, "seeded init covers every plane");
    }

    #[test]
    #[should_panic(expected = "spread must be non-negative")]
    fn random_spread_rejects_negative() {
        let _ = WeightMatrix::random_spread(2, 2, -0.1, &mut StdRng::seed_from_u64(0));
    }
}

//! The paper's relaxed cost function `F = c₁F₁ + c₂F₂ + c₃F₃ + c₄F₄`.
//!
//! * `F₁` (eq. 4) — interconnect cost: `Σ_E |l_i1 − l_i2|^p / N₁` with
//!   `N₁ = |E|(K−1)^p`. The paper fixes `p = 4` "to model the sharp increment
//!   of a connection cost with the increase in distance"; the exponent is a
//!   parameter here so the ablation bench can compare `p ∈ {1,2,4}`.
//! * `F₂` (eq. 5) — variance of the per-plane bias currents `B_k`, normalized
//!   by `N₂ = (K−1)·B̄²` with `B̄ = B_cir/K`.
//! * `F₃` (eq. 6) — variance of the per-plane areas `A_k`, normalized by
//!   `N₃ = (K−1)·Ā²`.
//! * `F₄` (eq. 9) — the modified-Lagrangian term
//!   `Σ_i [(K·w̄_i − 1)² − (1/K)Σ_k (w_ik − w̄_i)²] / N₄`, `N₄ = G(K−1)²`:
//!   the first part enforces row sums of one, the (negative) second part
//!   rewards high row variance, together pushing every row toward a one-hot
//!   vector.
//!
//! Note on `F₄` normalization: eq. 9 prints `F₄` without dividing by `N₄` but
//! defines `N₄` alongside it; consistently with `F₁..F₃` we apply it.

use crate::problem::PartitionProblem;
use crate::weights::WeightMatrix;

/// The tunable constants `c₁..c₄` of eq. 8.
///
/// # Example
///
/// ```
/// use sfq_partition::CostWeights;
///
/// let w = CostWeights::default();
/// assert_eq!(w.c1, 1.0);
/// let custom = CostWeights { c4: 8.0, ..CostWeights::default() };
/// assert_eq!(custom.c4, 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of the interconnect term `F₁`.
    pub c1: f64,
    /// Weight of the bias-variance term `F₂`.
    pub c2: f64,
    /// Weight of the area-variance term `F₃`.
    pub c3: f64,
    /// Weight of the one-hot pressure term `F₄`.
    pub c4: f64,
}

impl Default for CostWeights {
    /// Unit weights, the paper's starting point.
    fn default() -> Self {
        CostWeights {
            c1: 1.0,
            c2: 1.0,
            c3: 1.0,
            c4: 1.0,
        }
    }
}

/// Values of the four cost terms and their weighted total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Interconnect cost `F₁` (normalized, ≥ 0).
    pub f1: f64,
    /// Bias-variance cost `F₂` (normalized, ≥ 0).
    pub f2: f64,
    /// Area-variance cost `F₃` (normalized, ≥ 0).
    pub f3: f64,
    /// One-hot pressure `F₄` (normalized; negative when rows are sharply
    /// peaked, since high row variance *reduces* this term).
    pub f4: f64,
    /// `c₁F₁ + c₂F₂ + c₃F₃ + c₄F₄`.
    pub total: f64,
}

impl CostBreakdown {
    /// True when every term and the total are finite.
    ///
    /// The total alone can mask a non-finite term: a zero weight multiplied
    /// by an infinite term contributes `0·∞ = NaN` only to the total, while
    /// a NaN term with zero weight vanishes from it entirely. The solver's
    /// divergence detection therefore checks the full breakdown.
    pub fn is_finite(&self) -> bool {
        self.f1.is_finite()
            && self.f2.is_finite()
            && self.f3.is_finite()
            && self.f4.is_finite()
            && self.total.is_finite()
    }
}

/// Evaluator for the relaxed cost over a fixed [`PartitionProblem`].
///
/// Construction precomputes the normalization constants `N₁..N₄` and the
/// ideal plane means; evaluation is `O(|E| + G·K)`.
///
/// # Example
///
/// ```
/// use sfq_partition::{CostModel, CostWeights, PartitionProblem, WeightMatrix};
///
/// let p = PartitionProblem::new(vec![1.0, 1.0], vec![1.0, 1.0], vec![(0, 1)], 2)?;
/// let model = CostModel::new(&p, CostWeights::default());
///
/// // Both gates firmly on plane 1 (one-hot rows): no cut, perfect imbalance.
/// let w = WeightMatrix::from_labels(&[0, 0], 2);
/// let cost = model.evaluate(&w);
/// assert_eq!(cost.f1, 0.0);
/// assert!(cost.f2 > 0.0); // all bias on one plane
/// # Ok::<(), sfq_partition::ProblemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    problem: &'a PartitionProblem,
    weights: CostWeights,
    exponent: f64,
    n1: f64,
    n2: f64,
    n3: f64,
    n4: f64,
    ideal_mean_bias: f64,
    ideal_mean_area: f64,
}

impl<'a> CostModel<'a> {
    /// Creates a model with the paper's exponent `p = 4`.
    pub fn new(problem: &'a PartitionProblem, weights: CostWeights) -> Self {
        Self::with_exponent(problem, weights, 4.0)
    }

    /// Creates a model with a custom distance exponent `p ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `exponent < 1`.
    pub fn with_exponent(
        problem: &'a PartitionProblem,
        weights: CostWeights,
        exponent: f64,
    ) -> Self {
        assert!(exponent >= 1.0, "distance exponent must be >= 1");
        let k = problem.num_planes() as f64;
        let g = problem.num_gates() as f64;
        let e = problem.num_edges() as f64;
        let ideal_mean_bias = problem.total_bias() / k;
        let ideal_mean_area = problem.total_area() / k;
        let nz = |x: f64| if x > 0.0 { x } else { 1.0 };
        CostModel {
            problem,
            weights,
            exponent,
            n1: nz(e * (k - 1.0).powf(exponent)),
            n2: nz((k - 1.0) * ideal_mean_bias * ideal_mean_bias),
            n3: nz((k - 1.0) * ideal_mean_area * ideal_mean_area),
            n4: nz(g * (k - 1.0) * (k - 1.0)),
            ideal_mean_bias,
            ideal_mean_area,
        }
    }

    /// The underlying problem.
    pub fn problem(&self) -> &'a PartitionProblem {
        self.problem
    }

    /// The term weights `c₁..c₄`.
    pub fn weights(&self) -> CostWeights {
        self.weights
    }

    /// Replaces the term weights (used by the solver's `c₄` ramp).
    pub fn set_weights(&mut self, weights: CostWeights) {
        self.weights = weights;
    }

    /// The distance exponent `p`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Normalization constants `(N₁, N₂, N₃, N₄)`.
    pub fn normalizations(&self) -> (f64, f64, f64, f64) {
        (self.n1, self.n2, self.n3, self.n4)
    }

    /// The constant ideal plane mean bias `B̄ = B_cir/K` used in `N₂`.
    pub fn ideal_mean_bias(&self) -> f64 {
        self.ideal_mean_bias
    }

    /// The constant ideal plane mean area `Ā = A_cir/K` used in `N₃`.
    pub fn ideal_mean_area(&self) -> f64 {
        self.ideal_mean_area
    }

    /// Weighted per-plane bias sums `B_k = Σ_i b_i·w[i][k]`.
    pub fn plane_bias_sums(&self, w: &WeightMatrix) -> Vec<f64> {
        self.weighted_plane_sums(w, self.problem.bias())
    }

    /// Weighted per-plane area sums `A_k = Σ_i a_i·w[i][k]`.
    pub fn plane_area_sums(&self, w: &WeightMatrix) -> Vec<f64> {
        self.weighted_plane_sums(w, self.problem.area())
    }

    fn weighted_plane_sums(&self, w: &WeightMatrix, q: &[f64]) -> Vec<f64> {
        let k = self.problem.num_planes();
        let mut sums = vec![0.0; k];
        #[allow(clippy::needless_range_loop)] // parallel-array indexing
        for i in 0..self.problem.num_gates() {
            let row = w.row(i);
            let qi = q[i];
            for (s, &wk) in sums.iter_mut().zip(row) {
                *s += qi * wk;
            }
        }
        sums
    }

    /// Evaluates all four terms at `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w`'s dimensions do not match the problem.
    pub fn evaluate(&self, w: &WeightMatrix) -> CostBreakdown {
        let g = self.problem.num_gates();
        let k = self.problem.num_planes();
        assert_eq!(w.num_gates(), g, "weight matrix row count mismatch");
        assert_eq!(w.num_planes(), k, "weight matrix column count mismatch");

        // F1: interconnect.
        let mut labels = vec![0.0; g];
        w.labels_into(&mut labels);
        let mut f1_raw = 0.0;
        for &(u, v) in self.problem.edges() {
            let d = (labels[u as usize] - labels[v as usize]).abs();
            f1_raw += d.powf(self.exponent);
        }
        let f1 = f1_raw / self.n1;

        // F2 / F3: plane-load variances around the *current* means.
        let b_sums = self.plane_bias_sums(w);
        let a_sums = self.plane_area_sums(w);
        let f2 = variance(&b_sums) / self.n2;
        let f3 = variance(&a_sums) / self.n3;

        // F4: one-hot pressure.
        let kf = k as f64;
        let mut f4_raw = 0.0;
        for i in 0..g {
            let row = w.row(i);
            let sum: f64 = row.iter().sum();
            let mean = sum / kf;
            let var: f64 = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / kf;
            let dev = sum - 1.0; // K·w̄ − 1
            f4_raw += dev * dev - var;
        }
        let f4 = f4_raw / self.n4;

        let total = self.weights.c1 * f1
            + self.weights.c2 * f2
            + self.weights.c3 * f3
            + self.weights.c4 * f4;
        CostBreakdown {
            f1,
            f2,
            f3,
            f4,
            total,
        }
    }
}

/// Population variance `(1/K)Σ(x − x̄)²`.
///
/// Shared with the fused engine so both paths assemble `F₂`/`F₃` with the
/// same summation order.
pub(crate) fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    xs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize, k: usize) -> PartitionProblem {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        PartitionProblem::new(vec![1.0; n], vec![10.0; n], edges, k).unwrap()
    }

    #[test]
    fn uniform_matrix_zeroes_f1_f2_f3_f4() {
        // At w = 1/K all labels coincide, plane loads are equal, rows have
        // sum 1 and zero variance: every term is exactly zero.
        let p = chain(6, 3);
        let model = CostModel::new(&p, CostWeights::default());
        let w = WeightMatrix::uniform(6, 3);
        let c = model.evaluate(&w);
        assert_eq!(c.f1, 0.0);
        assert!(c.f2.abs() < 1e-24);
        assert!(c.f3.abs() < 1e-24);
        assert!(c.f4.abs() < 1e-24);
    }

    #[test]
    fn f1_hand_computed_on_two_gates() {
        // K=3, gates on planes 1 and 3: d = 2, F1 = 2^4 / (1·2^4) = 1.
        let p = PartitionProblem::new(vec![1.0, 1.0], vec![1.0, 1.0], vec![(0, 1)], 3).unwrap();
        let model = CostModel::new(&p, CostWeights::default());
        let w = WeightMatrix::from_labels(&[0, 2], 3);
        let c = model.evaluate(&w);
        assert!((c.f1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn f1_respects_exponent() {
        let p = PartitionProblem::new(vec![1.0, 1.0], vec![1.0, 1.0], vec![(0, 1)], 3).unwrap();
        let model = CostModel::with_exponent(&p, CostWeights::default(), 2.0);
        let w = WeightMatrix::from_labels(&[0, 2], 3);
        // d = 2, p = 2: F1 = 4 / (1·(K−1)²) = 4/4 = 1.
        assert!((model.evaluate(&w).f1 - 1.0).abs() < 1e-12);
        // Adjacent planes: d=1 → 1/4.
        let w = WeightMatrix::from_labels(&[0, 1], 3);
        assert!((model.evaluate(&w).f1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn f2_hand_computed() {
        // Two unit-bias gates both on plane 1 of K=2: B = [2, 0], B̄ = 1,
        // var = 1, N2 = (K−1)·1² = 1, F2 = 1/1/... F2 = var/(K ... )
        // F2 = (1/N2)·(1/K)·Σ(B_k−B̄)² where our variance() already divides
        // by K: var([2,0]) = 1. F2 = 1/1 = 1.
        let p = PartitionProblem::new(vec![1.0, 1.0], vec![1.0, 1.0], vec![], 2).unwrap();
        let model = CostModel::new(&p, CostWeights::default());
        let w = WeightMatrix::from_labels(&[0, 0], 2);
        assert!((model.evaluate(&w).f2 - 1.0).abs() < 1e-12);
        // Balanced: F2 = 0.
        let w = WeightMatrix::from_labels(&[0, 1], 2);
        assert!(model.evaluate(&w).f2.abs() < 1e-12);
    }

    #[test]
    fn f4_is_negative_at_one_hot_rows() {
        let p = chain(4, 4);
        let model = CostModel::new(&p, CostWeights::default());
        let w = WeightMatrix::from_labels(&[0, 1, 2, 3], 4);
        let c = model.evaluate(&w);
        // Row sum 1 ⇒ first term 0; variance term negative.
        assert!(c.f4 < 0.0);
        // Hand value: per row −(1/K)(1−1/K) = −(1/4)(3/4) = −0.1875;
        // 4 rows / N4 = 4·(−0.1875)/(4·9) = −0.0208333…
        assert!((c.f4 + 0.75 / 36.0).abs() < 1e-12);
    }

    #[test]
    fn f4_penalizes_row_sum_violation() {
        let p = chain(2, 2);
        let model = CostModel::new(&p, CostWeights::default());
        let mut w = WeightMatrix::uniform(2, 2);
        // Row 0 sums to 2.
        w.set(0, 0, 1.0);
        w.set(0, 1, 1.0);
        let c = model.evaluate(&w);
        assert!(c.f4 > 0.0);
    }

    #[test]
    fn total_combines_weights() {
        let p = chain(4, 2);
        let weights = CostWeights {
            c1: 2.0,
            c2: 3.0,
            c3: 5.0,
            c4: 7.0,
        };
        let model = CostModel::new(&p, weights);
        let w = WeightMatrix::from_labels(&[0, 0, 1, 1], 2);
        let c = model.evaluate(&w);
        let expect = 2.0 * c.f1 + 3.0 * c.f2 + 5.0 * c.f3 + 7.0 * c.f4;
        assert!((c.total - expect).abs() < 1e-12);
    }

    #[test]
    fn normalizations_match_paper() {
        let p = chain(10, 5); // 9 edges
        let model = CostModel::new(&p, CostWeights::default());
        let (n1, n2, n3, n4) = model.normalizations();
        assert_eq!(n1, 9.0 * 4.0f64.powi(4));
        // B̄ = 10/5 = 2 ⇒ N2 = 4·4 = 16.
        assert_eq!(n2, 16.0);
        // Ā = 100/5 = 20 ⇒ N3 = 4·400 = 1600.
        assert_eq!(n3, 1600.0);
        assert_eq!(n4, 10.0 * 16.0);
    }

    #[test]
    fn edgeless_problem_has_zero_f1() {
        let p = PartitionProblem::new(vec![1.0, 1.0], vec![1.0, 1.0], vec![], 2).unwrap();
        let model = CostModel::new(&p, CostWeights::default());
        let w = WeightMatrix::from_labels(&[0, 1], 2);
        assert_eq!(model.evaluate(&w).f1, 0.0);
    }

    #[test]
    fn plane_sums_weighted_by_w() {
        let p = PartitionProblem::new(vec![2.0, 4.0], vec![1.0, 1.0], vec![], 2).unwrap();
        let model = CostModel::new(&p, CostWeights::default());
        let mut w = WeightMatrix::uniform(2, 2);
        w.set(0, 0, 0.75);
        w.set(0, 1, 0.25);
        let b = model.plane_bias_sums(&w);
        assert!((b[0] - (2.0 * 0.75 + 4.0 * 0.5)).abs() < 1e-12);
        assert!((b[1] - (2.0 * 0.25 + 4.0 * 0.5)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn dimension_mismatch_panics() {
        let p = chain(4, 2);
        let model = CostModel::new(&p, CostWeights::default());
        let w = WeightMatrix::uniform(3, 2);
        let _ = model.evaluate(&w);
    }
}

//! Partition quality metrics — the columns of the paper's Tables I–III.
//!
//! * **Locality** — the distance histogram over `E`: how many connections
//!   stay in-plane (`d = 0`), cross one boundary (`d = 1`), etc. The tables
//!   report cumulative fractions `d ≤ 1`, `d ≤ 2` and `d ≤ ⌊K/2⌋`.
//! * **Bias** — `B_k`, `B_max = max_k B_k`, and the compensation current
//!   `I_comp = Σ_k (B_max − B_k)` burned in dummy structures (eq. 11),
//!   reported as a percentage of `B_cir`.
//! * **Area** — `A_k`, `A_max`, and the free space
//!   `A_FS = Σ_k (A_max − A_k)` as a percentage of `A_cir`.

use crate::assign::Partition;
use crate::problem::PartitionProblem;

/// Full quality report for one partition of one problem.
///
/// # Example
///
/// ```
/// use sfq_partition::{Partition, PartitionMetrics, PartitionProblem};
///
/// let p = PartitionProblem::new(vec![1.0; 4], vec![10.0; 4],
///                               vec![(0, 1), (1, 2), (2, 3)], 2)?;
/// let part = Partition::from_labels(vec![0, 0, 1, 1], 2)?;
/// let m = PartitionMetrics::evaluate(&p, &part);
/// assert_eq!(m.distance_histogram, vec![2, 1]); // two in-plane, one cut
/// assert_eq!(m.b_max, 2.0);
/// assert_eq!(m.i_comp_ma, 0.0); // perfectly balanced
/// # Ok::<(), sfq_partition::ProblemError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionMetrics {
    /// Number of planes `K`.
    pub num_planes: usize,
    /// `histogram[d]` = number of connections with plane distance exactly `d`.
    pub distance_histogram: Vec<usize>,
    /// Total number of connections `|E|`.
    pub num_connections: usize,
    /// Per-plane bias currents `B_k` in mA.
    pub plane_bias: Vec<f64>,
    /// `B_cir`: total bias in mA.
    pub b_cir: f64,
    /// `B_max = max_k B_k` in mA.
    pub b_max: f64,
    /// `I_comp = Σ_k (B_max − B_k)` in mA.
    pub i_comp_ma: f64,
    /// `I_comp` as a percentage of `B_cir`.
    pub i_comp_pct: f64,
    /// Per-plane areas `A_k` in µm².
    pub plane_area: Vec<f64>,
    /// `A_cir`: total gate area in µm².
    pub a_cir: f64,
    /// `A_max = max_k A_k` in µm².
    pub a_max: f64,
    /// `A_FS = Σ_k (A_max − A_k)` in µm².
    pub a_fs_um2: f64,
    /// `A_FS` as a percentage of `A_cir`.
    pub a_fs_pct: f64,
}

impl PartitionMetrics {
    /// Evaluates all metrics of `partition` on `problem`.
    ///
    /// # Panics
    ///
    /// Panics if the partition's gate count or plane count differs from the
    /// problem's.
    pub fn evaluate(problem: &PartitionProblem, partition: &Partition) -> Self {
        assert_eq!(
            problem.num_gates(),
            partition.num_gates(),
            "gate count mismatch"
        );
        assert_eq!(
            problem.num_planes(),
            partition.num_planes(),
            "plane count mismatch"
        );
        let k = problem.num_planes();

        let mut distance_histogram = vec![0usize; k];
        for &(u, v) in problem.edges() {
            let d = partition.distance(u as usize, v as usize);
            distance_histogram[d] += 1;
        }

        let mut plane_bias = vec![0.0; k];
        let mut plane_area = vec![0.0; k];
        for i in 0..problem.num_gates() {
            let p = partition.plane_of(i);
            plane_bias[p] += problem.bias()[i];
            plane_area[p] += problem.area()[i];
        }

        let b_cir = problem.total_bias();
        let a_cir = problem.total_area();
        let b_max = plane_bias.iter().copied().fold(0.0, f64::max);
        let a_max = plane_area.iter().copied().fold(0.0, f64::max);
        let i_comp_ma: f64 = plane_bias.iter().map(|&b| b_max - b).sum();
        let a_fs_um2: f64 = plane_area.iter().map(|&a| a_max - a).sum();
        let pct = |x: f64, total: f64| if total > 0.0 { 100.0 * x / total } else { 0.0 };

        PartitionMetrics {
            num_planes: k,
            num_connections: problem.num_edges(),
            distance_histogram,
            plane_bias,
            b_cir,
            b_max,
            i_comp_ma,
            i_comp_pct: pct(i_comp_ma, b_cir),
            plane_area,
            a_cir,
            a_max,
            a_fs_um2,
            a_fs_pct: pct(a_fs_um2, a_cir),
        }
    }

    /// Fraction of connections with plane distance exactly `d`
    /// (0 when there are no connections).
    pub fn fraction(&self, d: usize) -> f64 {
        if self.num_connections == 0 {
            return 0.0;
        }
        let count = self.distance_histogram.get(d).copied().unwrap_or(0);
        crate::float::frac(count as f64, self.num_connections as f64, 0.0)
    }

    /// Fraction of connections with plane distance `≤ d` — the paper's
    /// `d ≤ 1` / `d ≤ 2` / `d ≤ ⌊K/2⌋` columns (1.0 when `d ≥ K−1`; 0 when
    /// there are no connections).
    pub fn cumulative_fraction(&self, d: usize) -> f64 {
        if self.num_connections == 0 {
            return 0.0;
        }
        let count: usize = self
            .distance_histogram
            .iter()
            .take(d.saturating_add(1))
            .sum();
        crate::float::frac(count as f64, self.num_connections as f64, 0.0)
    }

    /// The paper's `d ≤ ⌊K/2⌋` column of Tables II and III.
    pub fn cumulative_fraction_half_k(&self) -> f64 {
        self.cumulative_fraction(self.num_planes / 2)
    }

    /// Fraction of connections between *non-adjacent* planes (`d ≥ 2`) —
    /// the abstract's "30 % of connections are between non-adjacent ground
    /// planes" figure.
    pub fn non_adjacent_fraction(&self) -> f64 {
        if self.num_connections == 0 {
            return 0.0;
        }
        1.0 - self.cumulative_fraction(1)
    }

    /// Number of connections that must cross at least one plane boundary.
    pub fn cut_size(&self) -> usize {
        self.num_connections - self.distance_histogram.first().copied().unwrap_or(0)
    }

    /// Total coupler chains: `Σ_E d(e)` driver/receiver pairs are needed,
    /// one per boundary crossed per connection.
    pub fn total_coupler_pairs(&self) -> usize {
        self.distance_histogram
            .iter()
            .enumerate()
            .map(|(d, &n)| d * n)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> PartitionProblem {
        // 6 gates, chain, non-uniform bias/area.
        PartitionProblem::new(
            vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0],
            vec![10.0, 20.0, 10.0, 20.0, 10.0, 20.0],
            (0..5).map(|i| (i, i + 1)).collect(),
            3,
        )
        .unwrap()
    }

    #[test]
    fn histogram_counts_distances() {
        let p = problem();
        let part = Partition::from_labels(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        let m = PartitionMetrics::evaluate(&p, &part);
        // Edges: (0,1) d0, (1,2) d1, (2,3) d0, (3,4) d1, (4,5) d0.
        assert_eq!(m.distance_histogram, vec![3, 2, 0]);
        assert_eq!(m.cut_size(), 2);
        assert_eq!(m.total_coupler_pairs(), 2);
    }

    #[test]
    fn fractions() {
        let p = problem();
        let part = Partition::from_labels(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        let m = PartitionMetrics::evaluate(&p, &part);
        assert!((m.fraction(0) - 0.6).abs() < 1e-12);
        assert!((m.cumulative_fraction(1) - 1.0).abs() < 1e-12);
        assert_eq!(m.non_adjacent_fraction(), 0.0);
        assert_eq!(m.cumulative_fraction(100), 1.0);
    }

    #[test]
    fn i_comp_matches_eq_11() {
        let p = problem();
        // Planes: {0,1}: b=3, {2,3}: b=3, {4,5}: b=3 — balanced.
        let part = Partition::from_labels(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        let m = PartitionMetrics::evaluate(&p, &part);
        assert_eq!(m.b_max, 3.0);
        assert_eq!(m.i_comp_ma, 0.0);
        assert_eq!(m.i_comp_pct, 0.0);

        // Unbalanced: {0..3}: b=6, {4}: 1, {5}: 2.
        let part = Partition::from_labels(vec![0, 0, 0, 0, 1, 2], 3).unwrap();
        let m = PartitionMetrics::evaluate(&p, &part);
        assert_eq!(m.b_max, 6.0);
        // I_comp = (6−6)+(6−1)+(6−2) = 9; B_cir = 9 → 100 %.
        assert_eq!(m.i_comp_ma, 9.0);
        assert!((m.i_comp_pct - 100.0).abs() < 1e-12);
    }

    #[test]
    fn a_fs_matches_definition() {
        let p = problem();
        let part = Partition::from_labels(vec![0, 0, 0, 0, 1, 2], 3).unwrap();
        let m = PartitionMetrics::evaluate(&p, &part);
        assert_eq!(m.a_max, 60.0);
        // A_FS = 0 + 50 + 40 = 90; A_cir = 90 → 100 %.
        assert_eq!(m.a_fs_um2, 90.0);
        assert!((m.a_fs_pct - 100.0).abs() < 1e-12);
    }

    #[test]
    fn reproduces_paper_ksa4_identity() {
        // Table I KSA4 row self-consistency: K·B_max − B_cir = I_comp·B_cir/100.
        // 5 × 17.50 − 80.089 = 7.411; 7.411/80.089 = 9.25 % (paper: 9.24 %).
        let k = 5.0f64;
        let b_max = 17.50f64;
        let b_cir = 80.089f64;
        let i_comp_pct = 100.0 * (k * b_max - b_cir) / b_cir;
        assert!((i_comp_pct - 9.24).abs() < 0.02);
    }

    #[test]
    fn empty_edges_give_zero_fractions() {
        let p = PartitionProblem::new(vec![1.0, 1.0], vec![1.0, 1.0], vec![], 2).unwrap();
        let part = Partition::from_labels(vec![0, 1], 2).unwrap();
        let m = PartitionMetrics::evaluate(&p, &part);
        assert_eq!(m.fraction(0), 0.0);
        assert_eq!(m.cumulative_fraction(1), 0.0);
        assert_eq!(m.non_adjacent_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "plane count mismatch")]
    fn mismatched_planes_panics() {
        let p = problem();
        let part = Partition::from_labels(vec![0; 6], 2).unwrap();
        let _ = PartitionMetrics::evaluate(&p, &part);
    }
}

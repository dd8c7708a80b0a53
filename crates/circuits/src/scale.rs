//! Million-gate synthetic SFQ-like problems for the scaling frontier.
//!
//! The Table I suite tops out at a few thousand gates — enough to validate
//! the partitioner against the paper, far too small to exercise the cache
//! behaviour the lane kernels are built for. This module generates
//! partition problems at 100k–1M gates directly as the `(bias, area,
//! edges)` arrays the solver consumes, skipping the per-cell name and pin
//! bookkeeping of a full [`Netlist`](sfq_netlist::Netlist) that would
//! dominate memory at that scale.
//!
//! The generator is statistical, not structural: gates are emitted in
//! topological order, each non-source gate draws one or two fan-in arcs
//! (two with probability `avg_fanin − 1`), and each arc reaches back a
//! Pareto-distributed distance `d = ⌈u^(−1/α)⌉` with `α = 2 − rent`. A
//! higher Rent exponent fattens the tail — more long-range wiring, the way
//! real placed netlists leak connections across region boundaries. Bias
//! and area come from the calibrated cell library through the same
//! splitter/DFF/logic mix as [`synthetic`](crate::synthetic), so per-gate
//! averages stay on the suite's ≈0.86 mA target.
//!
//! Everything is deterministic from the spec: same spec, same problem,
//! byte for byte.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfq_cells::{CellKind, CellLibrary};

/// Parameters of a scaling-tier problem.
///
/// # Example
///
/// ```
/// use sfq_circuits::scale::{scale_problem, ScaleSpec};
///
/// let spec = ScaleSpec::new("demo", 10_000, 42);
/// let problem = scale_problem(&spec);
/// assert_eq!(problem.bias.len(), 10_000);
/// assert!(problem.edges.len() > 10_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSpec {
    /// Design name.
    pub name: String,
    /// Number of gates to generate.
    pub num_gates: usize,
    /// RNG seed (same seed => identical problem).
    pub seed: u64,
    /// Mean fan-in per non-source gate, in `[1, 2)`; the arc count is
    /// `≈ avg_fanin · (G − sources)`.
    pub avg_fanin: f64,
    /// Rent exponent in `(0, 1)`: the Pareto tail of connection reach is
    /// `α = 2 − rent`, so larger values mean more long-range wiring.
    pub rent_exponent: f64,
    /// Number of source gates (no fan-in).
    pub num_sources: usize,
}

impl ScaleSpec {
    /// Creates a spec with the suite-calibrated defaults: average fan-in
    /// 1.25 (matching Table I's ≈1.2 connections per gate) and Rent
    /// exponent 0.6, with `max(4, G/50)` sources.
    ///
    /// # Panics
    ///
    /// Panics if `num_gates < 8`.
    pub fn new(name: impl Into<String>, num_gates: usize, seed: u64) -> Self {
        assert!(num_gates >= 8, "scale problems need at least 8 gates");
        ScaleSpec {
            name: name.into(),
            num_gates,
            seed,
            avg_fanin: 1.25,
            rent_exponent: 0.6,
            num_sources: (num_gates / 50).max(4),
        }
    }

    /// Overrides the mean fan-in.
    ///
    /// # Panics
    ///
    /// Panics unless `1.0 <= avg_fanin < 2.0`.
    pub fn with_avg_fanin(mut self, avg_fanin: f64) -> Self {
        assert!(
            (1.0..2.0).contains(&avg_fanin),
            "avg_fanin must be in [1, 2), got {avg_fanin}"
        );
        self.avg_fanin = avg_fanin;
        self
    }

    /// Overrides the Rent exponent.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < rent_exponent < 1.0`.
    pub fn with_rent_exponent(mut self, rent_exponent: f64) -> Self {
        assert!(
            rent_exponent > 0.0 && rent_exponent < 1.0,
            "rent exponent must be in (0, 1), got {rent_exponent}"
        );
        self.rent_exponent = rent_exponent;
        self
    }
}

/// A generated problem in the raw form `PartitionProblem::new` consumes:
/// per-gate bias (mA) and area (µm²) plus directed gate-to-gate arcs with
/// `driver < sink` (topological by construction).
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleProblem {
    /// Per-gate bias current in milliamps.
    pub bias: Vec<f64>,
    /// Per-gate cell area in square microns.
    pub area: Vec<f64>,
    /// Directed connections `(driver, sink)`, `driver < sink`.
    pub edges: Vec<(u32, u32)>,
}

/// Generates the problem described by `spec` with the calibrated library.
///
/// # Panics
///
/// Panics if `spec.num_gates` does not fit the solver's `u32` gate-index
/// space.
#[must_use]
pub fn scale_problem(spec: &ScaleSpec) -> ScaleProblem {
    scale_problem_with_library(spec, &CellLibrary::calibrated())
}

/// Generates the problem described by `spec` against a custom library.
///
/// # Panics
///
/// Panics if `spec.num_gates` does not fit the solver's `u32` gate-index
/// space.
#[must_use]
pub fn scale_problem_with_library(spec: &ScaleSpec, library: &CellLibrary) -> ScaleProblem {
    let g = spec.num_gates;
    assert!(g <= u32::MAX as usize, "gate count must fit in u32");
    let n_src = spec.num_sources.min(g);
    let p_two = spec.avg_fanin - 1.0;
    // Pareto reach: P(d ≥ x) ≈ x^(−α); a higher Rent exponent flattens the
    // tail toward long wires.
    let alpha = 2.0 - spec.rent_exponent;
    let inv_alpha = -1.0 / alpha;

    // Per-kind (bias, area) looked up once; the generator itself never
    // touches the library.
    let cost = |kind: CellKind| {
        (
            library.bias_current(kind).as_milliamps(),
            library.area(kind).as_square_microns(),
        )
    };
    let src_cost = cost(CellKind::Dff);
    let (and2, xor2, or2) = (
        cost(CellKind::And2),
        cost(CellKind::Xor2),
        cost(CellKind::Or2),
    );
    // Each 2-input gate is accompanied by a splitter somewhere upstream in
    // a real SFQ mapping; fold its cost into the gate so the statistical
    // mix stays on the calibrated per-gate averages.
    let split_cost = cost(CellKind::Splitter);
    let (dff, not, jtl) = (
        cost(CellKind::Dff),
        cost(CellKind::Not),
        cost(CellKind::Jtl),
    );

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut bias = Vec::with_capacity(g);
    let mut area = Vec::with_capacity(g);
    let expected_edges = ((g - n_src) as f64 * spec.avg_fanin) as usize;
    let mut edges = Vec::with_capacity(expected_edges + 16);

    let mut n_two = 0usize;
    let mut n_one = 0usize;
    for i in 0..g {
        if i < n_src {
            bias.push(src_cost.0);
            area.push(src_cost.1);
            continue;
        }
        let two_inputs = rng.random::<f64>() < p_two;
        let fanin = if two_inputs { 2 } else { 1 };
        let (b, a) = if two_inputs {
            let (b, a) = match n_two % 3 {
                0 => and2,
                1 => xor2,
                _ => or2,
            };
            n_two += 1;
            (b + split_cost.0, a + split_cost.1)
        } else {
            // Same 12/5/3 DFF/NOT/JTL mix per 20 as the calibrated
            // synthetic filler.
            let (b, a) = match n_one % 20 {
                0..=11 => dff,
                12..=16 => not,
                _ => jtl,
            };
            n_one += 1;
            (b, a)
        };
        bias.push(b);
        area.push(a);

        let mut first: Option<u32> = None;
        for _ in 0..fanin {
            let u = rng.random::<f64>().max(1e-12);
            let reach = u.powf(inv_alpha).ceil() as usize;
            let mut driver = (i - reach.clamp(1, i)) as u32;
            if first == Some(driver) {
                // Both arcs drew the same driver: shift to a neighbour so
                // the arc multiset has no duplicates (i ≥ n_src ≥ 4, so a
                // distinct earlier gate always exists).
                driver = if (driver as usize) + 1 < i {
                    driver + 1
                } else {
                    driver - 1
                };
            }
            first = Some(driver);
            edges.push((driver, i as u32));
        }
    }

    ScaleProblem { bias, area, edges }
}

/// The four scaling tiers of the gates×K frontier (sfqbench's `s1m_k5`
/// workload runs the 1M tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScaleTier {
    /// 1 000 gates — suite-sized anchor point.
    S1k,
    /// 10 000 gates.
    S10k,
    /// 100 000 gates — the speedup acceptance point.
    S100k,
    /// 1 000 000 gates — the frontier.
    S1m,
}

impl ScaleTier {
    /// All tiers, smallest first.
    pub const fn all() -> [ScaleTier; 4] {
        [
            ScaleTier::S1k,
            ScaleTier::S10k,
            ScaleTier::S100k,
            ScaleTier::S1m,
        ]
    }

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            ScaleTier::S1k => "S1K",
            ScaleTier::S10k => "S10K",
            ScaleTier::S100k => "S100K",
            ScaleTier::S1m => "S1M",
        }
    }

    /// Gate count of the tier.
    pub fn num_gates(self) -> usize {
        match self {
            ScaleTier::S1k => 1_000,
            ScaleTier::S10k => 10_000,
            ScaleTier::S100k => 100_000,
            ScaleTier::S1m => 1_000_000,
        }
    }

    /// The tier's canonical spec: calibrated defaults with a seed derived
    /// from the tier name (FNV-1a), so every tier is distinct but
    /// reproducible.
    pub fn spec(self) -> ScaleSpec {
        let seed = self.name().bytes().fold(0xcbf29ce484222325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        });
        ScaleSpec::new(self.name(), self.num_gates(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let spec = ScaleSpec::new("t", 5_000, 9);
        let a = scale_problem(&spec);
        let b = scale_problem(&spec);
        assert_eq!(a, b);
        let c = scale_problem(&ScaleSpec::new("t", 5_000, 10));
        assert_ne!(a.edges, c.edges, "different seeds must rewire");
    }

    #[test]
    fn edges_are_topological_and_duplicate_free_per_gate() {
        let problem = scale_problem(&ScaleSpec::new("t", 20_000, 3));
        let mut prev: Option<(u32, u32)> = None;
        for &(u, v) in &problem.edges {
            assert!(u < v, "arc ({u},{v}) must point forward");
            if let Some((pu, pv)) = prev {
                assert!(
                    pv < v || (pu, pv) != (u, v),
                    "gate {v} drew the same driver twice"
                );
            }
            prev = Some((u, v));
        }
    }

    #[test]
    fn arc_count_tracks_avg_fanin() {
        let g = 50_000;
        for fanin in [1.0, 1.25, 1.75] {
            let spec = ScaleSpec::new("t", g, 1).with_avg_fanin(fanin);
            let problem = scale_problem(&spec);
            let non_src = (g - spec.num_sources) as f64;
            let measured = problem.edges.len() as f64 / non_src;
            assert!(
                (measured - fanin).abs() < 0.02,
                "avg fan-in {measured} strays from target {fanin}"
            );
        }
    }

    #[test]
    fn rent_exponent_controls_reach() {
        let mean_reach = |rent: f64| {
            let spec = ScaleSpec::new("t", 30_000, 5).with_rent_exponent(rent);
            let problem = scale_problem(&spec);
            problem
                .edges
                .iter()
                .map(|&(u, v)| (v - u) as f64)
                .sum::<f64>()
                / problem.edges.len() as f64
        };
        let local = mean_reach(0.2);
        let global = mean_reach(0.9);
        assert!(
            global > 2.0 * local,
            "higher Rent exponent must lengthen wires ({local} vs {global})"
        );
    }

    #[test]
    fn mean_bias_lands_near_calibration_target() {
        let problem = scale_problem(&ScaleSpec::new("t", 50_000, 7));
        let mean = problem.bias.iter().sum::<f64>() / problem.bias.len() as f64;
        assert!(
            (0.70..=1.10).contains(&mean),
            "per-gate bias {mean} strays from the ≈0.86 mA target"
        );
    }

    #[test]
    fn tiers_are_reproducible_and_sized() {
        for tier in [ScaleTier::S1k, ScaleTier::S10k] {
            let spec = tier.spec();
            assert_eq!(spec.num_gates, tier.num_gates());
            let a = scale_problem(&spec);
            assert_eq!(a.bias.len(), tier.num_gates());
            assert_eq!(a, scale_problem(&spec));
        }
        assert_eq!(ScaleTier::all().len(), 4);
        assert_eq!(ScaleTier::S1m.num_gates(), 1_000_000);
    }
}

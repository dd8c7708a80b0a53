//! The partitioning problem instance.

use std::fmt;

use sfq_netlist::{CellId, Netlist};

/// Errors constructing a [`PartitionProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProblemError {
    /// `bias` and `area` must have the same length (one entry per gate).
    MismatchedVectors {
        /// Length of the bias vector.
        bias_len: usize,
        /// Length of the area vector.
        area_len: usize,
    },
    /// The instance has no gates.
    Empty,
    /// Fewer than two planes requested.
    TooFewPlanes {
        /// The offending plane count.
        k: usize,
    },
    /// An edge endpoint is out of range.
    EdgeOutOfRange {
        /// The offending edge.
        edge: (u32, u32),
        /// Number of gates.
        num_gates: usize,
    },
    /// A bias or area entry is negative or non-finite.
    InvalidQuantity {
        /// Gate index of the bad entry.
        gate: usize,
    },
    /// More planes than gates: at least one plane is guaranteed to stay
    /// empty, which degenerates the serial bias chain. Only reported by
    /// [`PartitionProblem::validate`]; construction still permits it for
    /// exploratory use.
    TooManyPlanes {
        /// The requested plane count.
        k: usize,
        /// Number of gates available.
        num_gates: usize,
    },
    /// An edge connects a gate to itself. [`PartitionProblem::new`] drops
    /// self-loops silently; [`PartitionProblem::validate`] reports one that
    /// entered through another path (e.g. deserialization).
    SelfLoop {
        /// The offending gate index.
        gate: u32,
    },
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::MismatchedVectors { bias_len, area_len } => write!(
                f,
                "bias vector has {bias_len} entries but area vector has {area_len}"
            ),
            ProblemError::Empty => write!(f, "problem has no gates"),
            ProblemError::TooFewPlanes { k } => {
                write!(f, "need at least 2 ground planes, got {k}")
            }
            ProblemError::EdgeOutOfRange { edge, num_gates } => write!(
                f,
                "edge ({}, {}) references a gate outside 0..{num_gates}",
                edge.0, edge.1
            ),
            ProblemError::InvalidQuantity { gate } => {
                write!(f, "gate {gate} has a negative or non-finite bias/area")
            }
            ProblemError::TooManyPlanes { k, num_gates } => write!(
                f,
                "{k} planes requested for only {num_gates} gates; at least one \
                 plane would stay empty"
            ),
            ProblemError::SelfLoop { gate } => {
                write!(f, "edge connects gate {gate} to itself")
            }
        }
    }
}

impl std::error::Error for ProblemError {}

/// A ground-plane partitioning instance: per-gate bias currents `b_i` (mA),
/// per-gate areas `a_i` (µm²), the connection set `E`, and the plane count
/// `K`.
///
/// Self-loop edges are dropped at construction (a gate is always co-planar
/// with itself). Parallel edges are kept: each physical driver→sink arc pays
/// its own coupler chain, exactly as in the paper's `E`. The totals `B_cir`
/// and `A_cir` are summed once, at construction.
///
/// # Example
///
/// ```
/// use sfq_partition::PartitionProblem;
///
/// let p = PartitionProblem::new(vec![1.0, 2.0], vec![10.0, 20.0], vec![(0, 1)], 2)?;
/// assert_eq!(p.num_gates(), 2);
/// assert_eq!(p.total_bias(), 3.0);
/// # Ok::<(), sfq_partition::ProblemError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionProblem {
    bias: Vec<f64>,
    area: Vec<f64>,
    edges: Vec<(u32, u32)>,
    k: usize,
    /// `Σ bias` and `Σ area`, summed in gate order.
    total_bias: f64,
    total_area: f64,
    /// Optional mapping from gate index back to the source netlist cell.
    gate_cells: Option<Vec<CellId>>,
}

impl PartitionProblem {
    /// Builds an instance from raw vectors.
    ///
    /// # Errors
    ///
    /// Returns an error if the vectors are inconsistent, empty, contain
    /// negative/non-finite values, `k < 2`, or an edge endpoint is out of
    /// range.
    pub fn new(
        bias: Vec<f64>,
        area: Vec<f64>,
        edges: Vec<(u32, u32)>,
        k: usize,
    ) -> Result<Self, ProblemError> {
        if bias.len() != area.len() {
            return Err(ProblemError::MismatchedVectors {
                bias_len: bias.len(),
                area_len: area.len(),
            });
        }
        if bias.is_empty() {
            return Err(ProblemError::Empty);
        }
        if k < 2 {
            return Err(ProblemError::TooFewPlanes { k });
        }
        for (i, (&b, &a)) in bias.iter().zip(&area).enumerate() {
            if !(b.is_finite() && a.is_finite() && b >= 0.0 && a >= 0.0) {
                return Err(ProblemError::InvalidQuantity { gate: i });
            }
        }
        let n = bias.len();
        if let Some(&edge) = edges
            .iter()
            .find(|&&(u, v)| u as usize >= n || v as usize >= n)
        {
            return Err(ProblemError::EdgeOutOfRange { edge, num_gates: n });
        }
        let mut edges = edges;
        edges.retain(|&(u, v)| u != v);
        Ok(PartitionProblem {
            total_bias: bias.iter().sum(),
            total_area: area.iter().sum(),
            bias,
            area,
            edges,
            k,
            gate_cells: None,
        })
    }

    /// Builds an instance from a netlist, excluding perimeter pads (paper
    /// §III-B3: pads share the common ground).
    ///
    /// Gate index `i` of the problem maps to [`PartitionProblem::gate_cell`]
    /// `i` of the netlist.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist has no non-pad gates or `k < 2`.
    pub fn from_netlist(netlist: &Netlist, k: usize) -> Result<Self, ProblemError> {
        let mut gate_cells = Vec::new();
        let mut index_of = vec![u32::MAX; netlist.num_cells()];
        for (id, cell) in netlist.cells() {
            if !cell.kind.is_pad() {
                index_of[id.index()] = gate_cells.len() as u32;
                gate_cells.push(id);
            }
        }
        let bias: Vec<f64> = gate_cells
            .iter()
            .map(|&id| netlist.bias_of(id).as_milliamps())
            .collect();
        let area: Vec<f64> = gate_cells
            .iter()
            .map(|&id| netlist.area_of(id).as_square_microns())
            .collect();
        let edges: Vec<(u32, u32)> = netlist
            .connections_between_gates()
            .map(|c| (index_of[c.from.index()], index_of[c.to.index()]))
            .collect();
        let mut problem = PartitionProblem::new(bias, area, edges, k)?;
        problem.gate_cells = Some(gate_cells);
        Ok(problem)
    }

    /// Re-checks every instance invariant, including those a constructor
    /// cannot guarantee for values that arrived through other paths
    /// (deserialization, FFI, hand-assembled fixtures).
    ///
    /// Checks, in order: vector-length agreement, non-emptiness, `K ≥ 2`,
    /// `K ≤ G` (a plane with no possible gate degenerates the serial bias
    /// chain), finite non-negative bias/area entries, in-range edge
    /// endpoints, and absence of self-loops.
    ///
    /// [`Solver::try_solve`](crate::Solver::try_solve) runs this before
    /// descending; `solve` does not, preserving its historical permissive
    /// behaviour (e.g. exploratory `K > G` instances).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`ProblemError`].
    pub fn validate(&self) -> Result<(), ProblemError> {
        if self.bias.len() != self.area.len() {
            return Err(ProblemError::MismatchedVectors {
                bias_len: self.bias.len(),
                area_len: self.area.len(),
            });
        }
        if self.bias.is_empty() {
            return Err(ProblemError::Empty);
        }
        if self.k < 2 {
            return Err(ProblemError::TooFewPlanes { k: self.k });
        }
        if self.k > self.bias.len() {
            return Err(ProblemError::TooManyPlanes {
                k: self.k,
                num_gates: self.bias.len(),
            });
        }
        for (i, (&b, &a)) in self.bias.iter().zip(&self.area).enumerate() {
            if !(b.is_finite() && a.is_finite() && b >= 0.0 && a >= 0.0) {
                return Err(ProblemError::InvalidQuantity { gate: i });
            }
        }
        let n = self.bias.len();
        for &(u, v) in &self.edges {
            if u as usize >= n || v as usize >= n {
                return Err(ProblemError::EdgeOutOfRange {
                    edge: (u, v),
                    num_gates: n,
                });
            }
            if u == v {
                return Err(ProblemError::SelfLoop { gate: u });
            }
        }
        Ok(())
    }

    /// Returns a copy of the instance with a different plane count.
    ///
    /// # Errors
    ///
    /// Returns an error if `k < 2`.
    pub fn with_planes(&self, k: usize) -> Result<Self, ProblemError> {
        if k < 2 {
            return Err(ProblemError::TooFewPlanes { k });
        }
        let mut p = self.clone();
        p.k = k;
        Ok(p)
    }

    /// Number of gates `G`.
    pub fn num_gates(&self) -> usize {
        self.bias.len()
    }

    /// Number of ground planes `K`.
    pub fn num_planes(&self) -> usize {
        self.k
    }

    /// Number of connections `|E|`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Per-gate bias currents in mA.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Per-gate areas in µm².
    pub fn area(&self) -> &[f64] {
        &self.area
    }

    /// The connection set `E` as gate-index pairs.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Total bias current `B_cir` in mA.
    pub fn total_bias(&self) -> f64 {
        self.total_bias
    }

    /// Total area `A_cir` in µm².
    pub fn total_area(&self) -> f64 {
        self.total_area
    }

    /// Netlist cell behind gate `i`, if the problem was built from a netlist.
    pub fn gate_cell(&self, i: usize) -> Option<CellId> {
        self.gate_cells.as_ref().map(|v| v[i])
    }

    /// Mapping from gate index to netlist cell, if available.
    pub fn gate_cells(&self) -> Option<&[CellId]> {
        self.gate_cells.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_cells::{CellKind, CellLibrary};

    #[test]
    fn rejects_mismatched_vectors() {
        let err = PartitionProblem::new(vec![1.0], vec![1.0, 2.0], vec![], 2).unwrap_err();
        assert!(matches!(err, ProblemError::MismatchedVectors { .. }));
    }

    #[test]
    fn rejects_empty() {
        let err = PartitionProblem::new(vec![], vec![], vec![], 2).unwrap_err();
        assert_eq!(err, ProblemError::Empty);
    }

    #[test]
    fn rejects_single_plane() {
        let err = PartitionProblem::new(vec![1.0], vec![1.0], vec![], 1).unwrap_err();
        assert_eq!(err, ProblemError::TooFewPlanes { k: 1 });
    }

    #[test]
    fn rejects_bad_edges() {
        let err =
            PartitionProblem::new(vec![1.0, 1.0], vec![1.0, 1.0], vec![(0, 5)], 2).unwrap_err();
        assert!(matches!(err, ProblemError::EdgeOutOfRange { .. }));
    }

    #[test]
    fn rejects_negative_bias() {
        let err = PartitionProblem::new(vec![-1.0], vec![1.0], vec![], 2).unwrap_err();
        assert_eq!(err, ProblemError::InvalidQuantity { gate: 0 });
    }

    #[test]
    fn rejects_nan_area() {
        let err = PartitionProblem::new(vec![1.0], vec![f64::NAN], vec![], 2).unwrap_err();
        assert_eq!(err, ProblemError::InvalidQuantity { gate: 0 });
    }

    #[test]
    fn drops_self_loops_keeps_parallel_edges() {
        let p = PartitionProblem::new(
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![(0, 0), (0, 1), (0, 1)],
            2,
        )
        .unwrap();
        assert_eq!(p.num_edges(), 2);
    }

    #[test]
    fn totals() {
        let p = PartitionProblem::new(vec![1.0, 2.5], vec![10.0, 5.0], vec![], 3).unwrap();
        assert_eq!(p.total_bias(), 3.5);
        assert_eq!(p.total_area(), 15.0);
        assert_eq!(p.num_planes(), 3);
    }

    /// The cached totals are the sums `new` would take afresh, bit for bit,
    /// on seeded random problems and on their `with_planes` copies.
    #[test]
    fn cached_totals_equal_a_fresh_sum() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x70_7a15);
        for trial in 0..200 {
            let n = rng.random_range(1..300usize);
            let scale = 10f64.powi(rng.random_range(-3..7));
            let mut load =
                || -> Vec<f64> { (0..n).map(|_| scale * rng.random_range(0.0..1.0)).collect() };
            let (bias, area) = (load(), load());
            let fresh = |values: &[f64]| values.iter().sum::<f64>().to_bits();
            let (bias_sum, area_sum) = (fresh(&bias), fresh(&area));
            let k = rng.random_range(2..9);
            let p = PartitionProblem::new(bias, area, vec![], k).unwrap();
            for q in [p.with_planes(k + 1).unwrap(), p] {
                assert_eq!(q.total_bias().to_bits(), bias_sum, "trial {trial}");
                assert_eq!(q.total_area().to_bits(), area_sum, "trial {trial}");
            }
        }
    }

    #[test]
    fn from_netlist_excludes_pads() {
        let mut nl = Netlist::new("t", CellLibrary::calibrated());
        let pad = nl.add_cell("p", CellKind::InputPad);
        let a = nl.add_cell("a", CellKind::Dff);
        let b = nl.add_cell("b", CellKind::Dff);
        nl.connect("n0", pad, 0, &[(a, 0)]).unwrap();
        nl.connect("n1", a, 0, &[(b, 0)]).unwrap();
        let p = PartitionProblem::from_netlist(&nl, 2).unwrap();
        assert_eq!(p.num_gates(), 2);
        assert_eq!(p.num_edges(), 1);
        assert_eq!(p.edges()[0], (0, 1));
        assert_eq!(p.gate_cell(0), Some(a));
        assert_eq!(p.gate_cell(1), Some(b));
    }

    #[test]
    fn validate_accepts_constructed_instances() {
        let p = PartitionProblem::new(vec![1.0, 1.0], vec![1.0, 1.0], vec![(0, 1)], 2).unwrap();
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn validate_flags_more_planes_than_gates() {
        // Construction permits K > G (exploratory use); validate flags it.
        let p = PartitionProblem::new(vec![1.0, 1.0], vec![1.0, 1.0], vec![(0, 1)], 5).unwrap();
        assert_eq!(
            p.validate(),
            Err(ProblemError::TooManyPlanes { k: 5, num_gates: 2 })
        );
    }

    #[test]
    fn validate_flags_k_grown_past_gates_via_with_planes() {
        let p = PartitionProblem::new(vec![1.0; 3], vec![1.0; 3], vec![(0, 1)], 2).unwrap();
        let q = p.with_planes(4).unwrap();
        assert!(matches!(
            q.validate(),
            Err(ProblemError::TooManyPlanes { k: 4, .. })
        ));
    }

    #[test]
    fn self_loop_error_displays_gate() {
        let e = ProblemError::SelfLoop { gate: 7 };
        assert!(e.to_string().contains("gate 7"));
    }

    #[test]
    fn with_planes_changes_only_k() {
        let p = PartitionProblem::new(vec![1.0, 1.0], vec![1.0, 1.0], vec![(0, 1)], 2).unwrap();
        let q = p.with_planes(5).unwrap();
        assert_eq!(q.num_planes(), 5);
        assert_eq!(q.num_edges(), 1);
        assert!(p.with_planes(1).is_err());
    }
}

//! The recycling plan proper.

use sfq_cells::{MilliAmps, SquareMicrons};
use sfq_partition::{Partition, PartitionProblem};
use std::fmt;

/// Physical-model knobs for the plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecycleOptions {
    /// Maximum current one bias pad sustains; sets the parallel-feeding
    /// bias-line count the savings are measured against (paper: 100 mA,
    /// citing Ono et al.'s FFT chip with 31 lines for 2.5 A).
    pub bias_pad_limit: MilliAmps,
    /// Dummy-structure area per mA of bypassed current (a chain of shunted
    /// JJ stacks sized for the excess current).
    pub dummy_area_per_ma: SquareMicrons,
    /// Extra whitespace fraction assumed by the floorplan estimate.
    pub whitespace_fraction: f64,
    /// Allow planes that received no gates (they still pass the full supply
    /// current through dummies). Off by default: an empty plane almost
    /// always indicates a degenerate partition.
    pub allow_empty_planes: bool,
}

impl Default for RecycleOptions {
    fn default() -> Self {
        RecycleOptions {
            bias_pad_limit: MilliAmps::new(100.0),
            dummy_area_per_ma: SquareMicrons::new(300.0),
            whitespace_fraction: 0.10,
            allow_empty_planes: false,
        }
    }
}

/// Errors building a plan.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RecycleError {
    /// Partition and problem disagree on gate or plane counts.
    Mismatch {
        /// Description of the disagreement.
        detail: String,
    },
    /// A plane received no gates (see [`RecycleOptions::allow_empty_planes`]).
    EmptyPlane {
        /// 0-based plane index.
        plane: usize,
    },
    /// Rewriting the netlist (coupler or dummy insertion) produced an
    /// invalid connection.
    Rewire {
        /// The underlying netlist error.
        source: sfq_netlist::NetlistError,
    },
}

impl fmt::Display for RecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecycleError::Mismatch { detail } => write!(f, "partition/problem mismatch: {detail}"),
            RecycleError::EmptyPlane { plane } => {
                write!(
                    f,
                    "plane {plane} received no gates; the serial chain degenerates"
                )
            }
            RecycleError::Rewire { source } => {
                write!(f, "netlist rewrite failed: {source}")
            }
        }
    }
}

impl std::error::Error for RecycleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecycleError::Rewire { source } => Some(source),
            _ => None,
        }
    }
}

/// Per-plane slice of the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaneReport {
    /// 0-based plane index (plane 0 receives the external supply).
    pub index: usize,
    /// Gates assigned to the plane.
    pub num_gates: usize,
    /// Circuit bias current `B_k`.
    pub bias: MilliAmps,
    /// Gate area `A_k`.
    pub area: SquareMicrons,
    /// Current bypassed through dummy structures: `B_max − B_k`.
    pub dummy_current: MilliAmps,
    /// Estimated dummy-structure area.
    pub dummy_area: SquareMicrons,
    /// `A_k / A_max` — how full this strip is.
    pub utilization: f64,
}

/// Per-boundary coupler requirements.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryReport {
    /// Boundary between plane `index` and plane `index + 1`.
    pub index: usize,
    /// Driver/receiver pairs that must straddle this boundary: every
    /// connection spanning the boundary contributes one.
    pub coupler_pairs: usize,
}

/// Stacked-strip floorplan estimate (planes are horizontal strips, current
/// flows top to bottom as in the paper's Fig. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    /// Chip width in µm.
    pub chip_width_um: f64,
    /// Chip height in µm (strip height × K).
    pub chip_height_um: f64,
    /// Height of each ground-plane strip in µm.
    pub strip_height_um: f64,
}

/// A complete current-recycling plan (see the crate docs).
#[derive(Debug, Clone, PartialEq)]
pub struct RecyclingPlan {
    planes: Vec<PlaneReport>,
    boundaries: Vec<BoundaryReport>,
    supply_current: MilliAmps,
    i_comp: MilliAmps,
    coupler_pairs_total: usize,
    bias_lines_parallel: usize,
    floorplan: Floorplan,
}

impl RecyclingPlan {
    /// Builds the plan for `partition` on `problem`.
    ///
    /// # Errors
    ///
    /// Returns [`RecycleError::Mismatch`] on dimension mismatch and
    /// [`RecycleError::EmptyPlane`] if a plane is empty and
    /// `options.allow_empty_planes` is false.
    pub fn build(
        problem: &PartitionProblem,
        partition: &Partition,
        options: &RecycleOptions,
    ) -> Result<Self, RecycleError> {
        if problem.num_gates() != partition.num_gates() {
            return Err(RecycleError::Mismatch {
                detail: format!(
                    "problem has {} gates, partition has {}",
                    problem.num_gates(),
                    partition.num_gates()
                ),
            });
        }
        if problem.num_planes() != partition.num_planes() {
            return Err(RecycleError::Mismatch {
                detail: format!(
                    "problem has {} planes, partition has {}",
                    problem.num_planes(),
                    partition.num_planes()
                ),
            });
        }
        let k = problem.num_planes();

        let mut bias = vec![0.0f64; k];
        let mut area = vec![0.0f64; k];
        let mut gates = vec![0usize; k];
        for i in 0..problem.num_gates() {
            let p = partition.plane_of(i);
            bias[p] += problem.bias()[i];
            area[p] += problem.area()[i];
            gates[p] += 1;
        }
        if !options.allow_empty_planes {
            if let Some(p) = gates.iter().position(|&g| g == 0) {
                return Err(RecycleError::EmptyPlane { plane: p });
            }
        }

        let b_max = bias.iter().copied().fold(0.0, f64::max);
        let a_max = area.iter().copied().fold(0.0, f64::max);

        let planes: Vec<PlaneReport> = (0..k)
            .map(|p| {
                let dummy = b_max - bias[p];
                PlaneReport {
                    index: p,
                    num_gates: gates[p],
                    bias: MilliAmps::new(bias[p]),
                    area: SquareMicrons::new(area[p]),
                    dummy_current: MilliAmps::new(dummy),
                    dummy_area: options.dummy_area_per_ma * dummy,
                    utilization: sfq_partition::float::frac(area[p], a_max, 1.0),
                }
            })
            .collect();

        // Boundary b sits between plane b and b+1; a connection between
        // planes p < q crosses boundaries p..q.
        let mut boundaries = vec![0usize; k.saturating_sub(1)];
        for &(u, v) in problem.edges() {
            let (lo, hi) = {
                let a = partition.plane_of(u as usize);
                let b = partition.plane_of(v as usize);
                (a.min(b), a.max(b))
            };
            #[allow(clippy::needless_range_loop)] // parallel-array indexing
            for bnd in lo..hi {
                boundaries[bnd] += 1;
            }
        }
        let coupler_pairs_total: usize = boundaries.iter().sum();
        let boundaries: Vec<BoundaryReport> = boundaries
            .into_iter()
            .enumerate()
            .map(|(index, coupler_pairs)| BoundaryReport {
                index,
                coupler_pairs,
            })
            .collect();

        let i_comp: f64 = bias.iter().map(|&b| b_max - b).sum();

        // Parallel feeding would need ceil(B_cir / pad limit) bias lines;
        // serial recycling needs one.
        let limit = options.bias_pad_limit.as_milliamps();
        let bias_lines_parallel = if limit > 0.0 {
            sfq_partition::float::frac(problem.total_bias(), limit, 0.0)
                .ceil()
                .max(1.0) as usize
        } else {
            1
        };

        let total_area = problem.total_area();
        let chip_area = (a_max * k as f64).max(total_area) * (1.0 + options.whitespace_fraction);
        let chip_width = sfq_partition::float::checked_sqrt(chip_area).unwrap_or(0.0);
        let strip_height = sfq_partition::float::frac(
            sfq_partition::float::frac(chip_area, chip_width, 0.0),
            k as f64,
            0.0,
        );
        let floorplan = Floorplan {
            chip_width_um: chip_width,
            chip_height_um: strip_height * k as f64,
            strip_height_um: strip_height,
        };

        Ok(RecyclingPlan {
            planes,
            boundaries,
            supply_current: MilliAmps::new(b_max),
            i_comp: MilliAmps::new(i_comp),
            coupler_pairs_total,
            bias_lines_parallel,
            floorplan,
        })
    }

    /// Per-plane reports, plane 0 first (the externally fed plane).
    pub fn planes(&self) -> &[PlaneReport] {
        &self.planes
    }

    /// Per-boundary coupler requirements (`K − 1` entries).
    pub fn boundaries(&self) -> &[BoundaryReport] {
        &self.boundaries
    }

    /// Current the external supply must deliver (= `B_max`).
    pub fn supply_current(&self) -> MilliAmps {
        self.supply_current
    }

    /// Total compensation current burned in dummies (eq. 11's `I_comp`).
    pub fn compensation_current(&self) -> MilliAmps {
        self.i_comp
    }

    /// Total inductive driver/receiver pairs across all boundaries.
    pub fn coupler_pairs_total(&self) -> usize {
        self.coupler_pairs_total
    }

    /// Bias lines a parallel (non-recycled) feed would need.
    pub fn bias_lines_parallel(&self) -> usize {
        self.bias_lines_parallel
    }

    /// Bias lines saved by serial recycling (parallel count − 1).
    pub fn bias_lines_saved(&self) -> usize {
        self.bias_lines_parallel.saturating_sub(1)
    }

    /// The stacked-strip floorplan estimate.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// Sum of all dummy-structure areas.
    pub fn dummy_area_total(&self) -> SquareMicrons {
        self.planes.iter().map(|p| p.dummy_area).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_partition::Partition;

    fn problem() -> PartitionProblem {
        // 6 unit gates in a chain; area 100 each.
        PartitionProblem::new(
            vec![1.0; 6],
            vec![100.0; 6],
            (0..5).map(|i| (i, i + 1)).collect(),
            3,
        )
        .unwrap()
    }

    #[test]
    fn balanced_partition_has_no_dummies() {
        let p = problem();
        let part = Partition::from_labels(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        let plan = RecyclingPlan::build(&p, &part, &RecycleOptions::default()).unwrap();
        assert_eq!(plan.supply_current(), MilliAmps::new(2.0));
        assert_eq!(plan.compensation_current(), MilliAmps::ZERO);
        for plane in plan.planes() {
            assert_eq!(plane.dummy_current, MilliAmps::ZERO);
            assert_eq!(plane.utilization, 1.0);
        }
    }

    #[test]
    fn couplers_counted_per_boundary() {
        let p = problem();
        let part = Partition::from_labels(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        let plan = RecyclingPlan::build(&p, &part, &RecycleOptions::default()).unwrap();
        // Cuts: (1,2) crosses boundary 0; (3,4) crosses boundary 1.
        assert_eq!(plan.boundaries()[0].coupler_pairs, 1);
        assert_eq!(plan.boundaries()[1].coupler_pairs, 1);
        assert_eq!(plan.coupler_pairs_total(), 2);
    }

    #[test]
    fn long_connections_occupy_every_crossed_boundary() {
        let p = PartitionProblem::new(vec![1.0; 2], vec![1.0; 2], vec![(0, 1)], 4).unwrap();
        let part = Partition::from_labels(vec![0, 3], 4).unwrap();
        let opts = RecycleOptions {
            allow_empty_planes: true,
            ..RecycleOptions::default()
        };
        let plan = RecyclingPlan::build(&p, &part, &opts).unwrap();
        assert_eq!(plan.coupler_pairs_total(), 3);
        for b in plan.boundaries() {
            assert_eq!(b.coupler_pairs, 1);
        }
    }

    #[test]
    fn dummy_sizing_tracks_imbalance() {
        let p = problem();
        let part = Partition::from_labels(vec![0, 0, 0, 1, 1, 2], 3).unwrap();
        let plan = RecyclingPlan::build(&p, &part, &RecycleOptions::default()).unwrap();
        // B = [3, 2, 1], B_max = 3, dummies = [0, 1, 2].
        assert_eq!(plan.planes()[0].dummy_current, MilliAmps::ZERO);
        assert_eq!(plan.planes()[1].dummy_current, MilliAmps::new(1.0));
        assert_eq!(plan.planes()[2].dummy_current, MilliAmps::new(2.0));
        assert_eq!(plan.compensation_current(), MilliAmps::new(3.0));
        // Dummy area scales with current.
        assert_eq!(
            plan.planes()[2].dummy_area,
            RecycleOptions::default().dummy_area_per_ma * 2.0
        );
    }

    #[test]
    fn empty_plane_rejected_by_default() {
        let p = problem();
        let part = Partition::from_labels(vec![0, 0, 0, 1, 1, 1], 3).unwrap();
        let err = RecyclingPlan::build(&p, &part, &RecycleOptions::default()).unwrap_err();
        assert_eq!(err, RecycleError::EmptyPlane { plane: 2 });
        let opts = RecycleOptions {
            allow_empty_planes: true,
            ..RecycleOptions::default()
        };
        assert!(RecyclingPlan::build(&p, &part, &opts).is_ok());
    }

    #[test]
    fn bias_line_savings_match_paper_scenario() {
        // The paper's example: 2.5 A chip, 100 mA pads => 25+ lines
        // parallel, 1 recycled. Scale: 2500 unit gates of 1 mA.
        let p = PartitionProblem::new(vec![1.0; 2500], vec![1.0; 2500], vec![], 25).unwrap();
        let labels: Vec<u32> = (0..2500).map(|i| (i % 25) as u32).collect();
        let part = Partition::from_labels(labels, 25).unwrap();
        let plan = RecyclingPlan::build(&p, &part, &RecycleOptions::default()).unwrap();
        assert_eq!(plan.bias_lines_parallel(), 25);
        assert_eq!(plan.bias_lines_saved(), 24);
    }

    #[test]
    fn mismatch_detected() {
        let p = problem();
        let part = Partition::from_labels(vec![0, 1], 3).unwrap();
        let err = RecyclingPlan::build(&p, &part, &RecycleOptions::default()).unwrap_err();
        assert!(matches!(err, RecycleError::Mismatch { .. }));
    }

    #[test]
    fn floorplan_covers_all_planes() {
        let p = problem();
        let part = Partition::from_labels(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        let plan = RecyclingPlan::build(&p, &part, &RecycleOptions::default()).unwrap();
        let fp = plan.floorplan();
        assert!((fp.chip_height_um - fp.strip_height_um * 3.0).abs() < 1e-9);
        // Chip area at least the gate area (plus whitespace).
        assert!(fp.chip_width_um * fp.chip_height_um >= 600.0);
    }
}

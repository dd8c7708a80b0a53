//! Ground-plane partitioning of SFQ circuits for current recycling.
//!
//! This crate implements the primary contribution of *Katam, Zhang, Pedram,
//! "Ground Plane Partitioning for Current Recycling of Superconducting
//! Circuits", DATE 2020*: partition the `G` gates of an SFQ netlist into `K`
//! serially biased ground planes such that
//!
//! 1. every plane needs (almost) the same bias current,
//! 2. every plane occupies (almost) the same area, and
//! 3. connections between planes are few and *local* — a pulse crossing `d`
//!    plane boundaries needs `d` inductive coupler pairs, so the cost of a
//!    connection grows as `d⁴`.
//!
//! The paper relaxes the integer assignment to a row-stochastic weight matrix
//! `w ∈ [0,1]^{G×K}`, builds the differentiable cost
//! `F = c₁F₁ + c₂F₂ + c₃F₃ + c₄F₄` (interconnect / bias variance / area
//! variance / modified-Lagrangian one-hot pressure), minimizes it with
//! projected gradient descent (the paper's Algorithm 1), and snaps each gate
//! to `argmax_k w[i][k]`.
//!
//! # Quick start
//!
//! ```
//! use sfq_partition::{PartitionProblem, Solver, SolverOptions};
//!
//! // Ten identical gates in a chain, split over two planes.
//! let bias = vec![1.0; 10];
//! let area = vec![100.0; 10];
//! let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
//! let problem = PartitionProblem::new(bias, area, edges, 2)?;
//!
//! let result = Solver::new(SolverOptions::default()).solve(&problem);
//! let metrics = result.metrics(&problem);
//! assert_eq!(result.partition.num_planes(), 2);
//! // A chain splits with a single cut: locality is high.
//! assert!(metrics.cumulative_fraction(1) > 0.85);
//! # Ok::<(), sfq_partition::ProblemError>(())
//! ```
//!
//! # Module map
//!
//! * [`PartitionProblem`] — the `(b_i, a_i, E, K)` instance.
//! * [`cost`] — `F₁..F₄` with the paper's normalizations (eqs. 4–6, 9).
//! * [`grad`] — analytic gradients (eq. 10; see the note on the sign erratum).
//!   With [`cost`], the reference oracle the engine's parity tests use.
//! * [`engine`] — fused, allocation-free cost+gradient evaluation (the
//!   solver's only inner loop); [`kernel`] holds the shared
//!   integer-exponent power kernels and [`lanes`] the padded-lane layout
//!   constants and canonical fold order.
//! * [`solver`] — Algorithm 1 (projected gradient descent) plus restarts;
//!   with refinement on, run as a V-cycle: descent on a heavy-edge
//!   coarsening of the problem, polish at every level on the way back.
//! * [`telemetry`] — zero-cost observer hooks, JSONL traces, solve metrics.
//! * [`json`] — the one JSON reader: trace records, `sfqpartd` frames,
//!   sfqbench results; integers read back exactly.
//! * [`refine`] — optional discrete local-move polish.
//! * [`metrics`] — `d≤x` locality, `B_max`, `I_comp`, `A_max`, `A_FS` (eq. 11).
//! * [`limit`] — minimum-`K` search under a `B_max` cap (Table III).
//! * [`baselines`] — random / round-robin / greedy / annealing comparators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must propagate failures, never abort the process on them;
// tests keep the ergonomic forms.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Unit tests may start threads (the pool and witness races); library code
// starts them only in `engine::parallel_map`.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

mod assign;
pub mod baselines;
pub mod budget;
mod coarsen;
pub mod cost;
pub mod engine;
pub mod error;
pub mod float;
pub mod grad;
pub mod json;
pub mod kernel;
pub mod lanes;
pub mod limit;
pub mod metrics;
pub mod pool;
mod problem;
pub mod refine;
pub mod solver;
pub mod spectral;
pub mod telemetry;
mod weights;
pub mod witness;

pub use assign::Partition;
pub use budget::{CancelToken, Deadline, Interrupt, StopCause};
pub use cost::{CostBreakdown, CostModel, CostWeights};
pub use engine::{CostEngine, EngineOptions};
pub use error::SolveError;
pub use limit::{BiasLimitOutcome, BiasLimitPlanner};
pub use metrics::PartitionMetrics;
pub use pool::{SlotGuard, SlotPool};
pub use problem::{PartitionProblem, ProblemError};
pub use solver::{FaultInjection, SolveResult, Solver, SolverOptions, StopReason};
pub use telemetry::{
    JsonlTraceWriter, NoopObserver, RestartObserver, SolveMetrics, SolveObserver, TraceCollector,
    TraceEvent, TraceParseError,
};
pub use weights::WeightMatrix;

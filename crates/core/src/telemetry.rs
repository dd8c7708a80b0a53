//! Solve telemetry: zero-cost observer hooks, trace events, and sinks.
//!
//! Algorithm 1 fails quietly — a mistimed `c₄` warm-up or a thrashing
//! divergence-recovery loop shows up only as worse `I_comp`/`A_FS` numbers
//! long after the fact. This module makes the descent observable without
//! being allowed to *touch* it:
//!
//! * [`SolveObserver`] / [`RestartObserver`] are the hook traits the solver
//!   calls at every pipeline boundary (solve start/end, restart start/end,
//!   descent iteration, divergence recovery, refinement pass, multilevel
//!   coarsening/uncoarsening). All methods default to no-ops and the solver
//!   is monomorphized over the observer type, so the detached path
//!   ([`NoopObserver`], `ENABLED == false`) compiles to nothing:
//!   [`Solver::solve`](crate::Solver::solve) *is*
//!   `solve_observed(problem, &mut NoopObserver)`, one compiled copy.
//! * Observers only ever *read*. Work that exists purely for telemetry
//!   (projection clip counting, pre-refine discrete cost) is gated on
//!   [`RestartObserver::ENABLED`] and proven bit-neutral by the
//!   `observer_exactness` integration suite.
//! * Restart-level hooks run on the restart's own thread when
//!   [`parallel`](crate::SolverOptions::parallel) is set; each restart gets
//!   its own [`SolveObserver::Restart`] value (forked in restart-index order
//!   before any restart runs) and the solver absorbs them back in
//!   restart-index order, so every sink sees a deterministic event stream
//!   regardless of thread scheduling.
//!
//! Two production sinks ship here: [`JsonlTraceWriter`] (one JSON object per
//! line, schema [`TRACE_SCHEMA_VERSION`], documented in DESIGN.md
//! §Observability) and [`SolveMetrics`] (counters plus log-scale
//! histograms). Timing inside the metrics sink goes through
//! [`budget::Stopwatch`](crate::budget::Stopwatch) — `clippy.toml` keeps raw
//! clock reads confined to `core::budget`.

use std::fmt::Write as _;
use std::io::Write;

use crate::budget::Stopwatch;
use crate::cost::CostBreakdown;
use crate::json::{self, Json};
use crate::solver::StopReason;

/// Version stamped into every trace record as the `"v"` field.
///
/// The schema is append-only within a version: readers must ignore unknown
/// fields, and any change that removes or re-types a field bumps this
/// number. Version 2 dropped `solve_start`'s constant `fused` and
/// `intra_parallel` fields; nothing else changed, so
/// [`TraceEvent::parse`] reads versions 1 and 2 and rejects any other.
pub const TRACE_SCHEMA_VERSION: u64 = 2;

// ---------------------------------------------------------------------------
// In-flight events (borrowed views the solver hands to observers)
// ---------------------------------------------------------------------------

/// Emitted once per solve, before any restart runs.
#[derive(Debug, Clone, Copy)]
pub struct SolveStartEvent {
    /// Gates `G` in the problem.
    pub gates: usize,
    /// Planes `K`.
    pub planes: usize,
    /// Edge count `|E|`.
    pub edges: usize,
    /// Configured restarts (including any skipped by a zero budget share).
    pub restarts: usize,
    /// Per-restart iteration cap.
    pub max_iterations: usize,
    /// Whether restarts run on parallel threads.
    pub parallel: bool,
}

/// Emitted once per completed descent iteration — exactly one event per
/// entry the winning restart contributes to
/// [`SolveResult::cost_history`](crate::SolveResult::cost_history).
#[derive(Debug, Clone, Copy)]
pub struct IterationEvent<'a> {
    /// Iteration index within the restart (0-based).
    pub iteration: usize,
    /// Full cost breakdown `F₁..F₄` and total at this iterate.
    pub cost: CostBreakdown,
    /// Learning rate used to apply this iteration's step (0 when the
    /// iteration stopped before stepping, e.g. on the margin test).
    pub learning_rate: f64,
    /// The gradient step, borrowed from the solver's scratch buffer.
    pub gradient: &'a [f64],
    /// Infinity norm (largest absolute component) of [`Self::gradient`].
    /// Folded into the descent sweep while the step buffer is hot (see
    /// [`WeightMatrix::descend_from_counting`](crate::WeightMatrix::descend_from_counting))
    /// so enabled trace sinks don't pay a second O(G·stride) pass per
    /// iteration; max is order-free, so the value equals
    /// [`crate::lanes::max_abs`] of the slice bit for bit. NaN when no
    /// enabled observer asked for it ([`RestartObserver::ENABLED`] false).
    pub gradient_norm: f64,
    /// Entries the `[0,1]` projection clipped while applying the step.
    /// Counted only when [`RestartObserver::ENABLED`]; 0 when no step was
    /// applied this iteration.
    pub clipped: usize,
    /// Whether this iteration's evaluation went through divergence
    /// recovery before producing finite values.
    pub recovered: bool,
}

/// Emitted for every divergence-recovery retry (rollback + halved rate).
#[derive(Debug, Clone, Copy)]
pub struct RecoveryEvent {
    /// Iteration being retried.
    pub iteration: usize,
    /// Retry attempt within the iteration (1-based).
    pub attempt: usize,
    /// The halved learning rate this retry descends with.
    pub learning_rate: f64,
}

/// Emitted once per restart after the (possibly disabled) refinement pass.
#[derive(Debug, Clone, Copy)]
pub struct RefineEvent {
    /// Local moves the pass applied (0 when refinement is disabled).
    pub moves: usize,
    /// Discrete cost of the snapped partition before refinement. Computed
    /// only when [`RestartObserver::ENABLED`]; NaN otherwise.
    pub cost_before: f64,
    /// Discrete cost after refinement (equals `cost_before` when disabled).
    pub cost_after: f64,
}

/// Emitted once per restart, after refinement, as its final event.
#[derive(Debug, Clone, Copy)]
pub struct RestartEndEvent {
    /// Iterations the descent completed.
    pub iterations: usize,
    /// Why the descent stopped.
    pub stop_reason: StopReason,
    /// Discrete cost of the restart's final partition.
    pub discrete_cost: f64,
}

/// Emitted per coarsening level of a multilevel solve.
#[derive(Debug, Clone, Copy)]
pub struct CoarsenEvent {
    /// Level index (0 = first contraction of the input problem).
    pub level: usize,
    /// Gates before this contraction.
    pub fine_gates: usize,
    /// Edges before this contraction.
    pub fine_edges: usize,
    /// Gates after this contraction.
    pub coarse_gates: usize,
    /// Edges after this contraction (self-loops dropped).
    pub coarse_edges: usize,
}

/// Emitted per uncoarsening level of a multilevel solve.
#[derive(Debug, Clone, Copy)]
pub struct UncoarsenEvent {
    /// Level index being projected back (matches the coarsen event).
    pub level: usize,
    /// Gates of the fine problem at this level.
    pub gates: usize,
    /// Local moves the per-level refinement applied.
    pub refine_moves: usize,
}

/// Emitted once per solve, after restart selection.
#[derive(Debug, Clone, Copy)]
pub struct SolveEndEvent {
    /// Index of the winning restart.
    pub best_restart: usize,
    /// Iterations the winning restart used.
    pub iterations: usize,
    /// Why the winning restart stopped.
    pub stop_reason: StopReason,
    /// Discrete cost of the winning partition.
    pub discrete_cost: f64,
    /// Restarts excluded from selection as terminally diverged.
    pub diverged_restarts: usize,
}

// ---------------------------------------------------------------------------
// Observer traits
// ---------------------------------------------------------------------------

/// Per-restart observer: receives the events of one descent run, on that
/// run's own thread when restarts are parallel.
///
/// All methods default to no-ops; implementations must never feed anything
/// back into the solve (the solver only hands out read-only views, and the
/// `observer_exactness` suite pins observer-on == observer-off).
pub trait RestartObserver: Send {
    /// Whether this observer wants events at all. The solver gates
    /// telemetry-only work (clip counting, pre-refine discrete cost) on
    /// this constant, so a `false` observer monomorphizes to the exact
    /// detached solve.
    const ENABLED: bool = true;

    /// One completed descent iteration.
    fn on_iteration(&mut self, _event: &IterationEvent<'_>) {}
    /// One divergence-recovery retry.
    fn on_recovery(&mut self, _event: &RecoveryEvent) {}
    /// The refinement pass finished (also emitted, with zero moves, when
    /// refinement is disabled).
    fn on_refine(&mut self, _event: &RefineEvent) {}
    /// The restart finished; final event of the restart.
    fn on_restart_end(&mut self, _event: &RestartEndEvent) {}
}

/// Solve-level observer: forked into one [`SolveObserver::Restart`] per
/// restart and merged back in restart-index order.
///
/// The fork/absorb protocol is what keeps traces deterministic under
/// [`parallel`](crate::SolverOptions::parallel) restarts: the solver calls
/// [`begin_restart`](SolveObserver::begin_restart) for every planned restart
/// in index order *before* any of them runs, moves each returned value onto
/// its restart's thread, and calls
/// [`absorb_restart`](SolveObserver::absorb_restart) in index order after
/// all restarts complete — so a sink that buffers per restart and flushes on
/// absorb emits an identical stream for serial and parallel execution.
pub trait SolveObserver {
    /// Mirrors [`RestartObserver::ENABLED`] for solve-level gating.
    const ENABLED: bool = true;

    /// The per-restart observer this solve-level observer forks.
    type Restart: RestartObserver;

    /// The solve is about to run its restarts.
    fn on_solve_start(&mut self, _event: &SolveStartEvent) {}
    /// Forks the observer for restart `restart`. Called in restart-index
    /// order before any restart runs.
    fn begin_restart(&mut self, restart: usize) -> Self::Restart;
    /// Merges a finished restart observer back. Called in restart-index
    /// order after all restarts complete.
    fn absorb_restart(&mut self, restart: usize, observer: Self::Restart);
    /// One multilevel coarsening contraction.
    fn on_coarsen(&mut self, _event: &CoarsenEvent) {}
    /// One multilevel uncoarsening projection + refinement.
    fn on_uncoarsen(&mut self, _event: &UncoarsenEvent) {}
    /// The solve finished and selected its winner; final event.
    fn on_solve_end(&mut self, _event: &SolveEndEvent) {}
}

/// The detached observer: every hook is a no-op and `ENABLED` is `false`,
/// so a solver monomorphized over it contains no telemetry code at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl RestartObserver for NoopObserver {
    const ENABLED: bool = false;
}

impl SolveObserver for NoopObserver {
    const ENABLED: bool = false;
    type Restart = NoopObserver;

    fn begin_restart(&mut self, _restart: usize) -> NoopObserver {
        NoopObserver
    }

    fn absorb_restart(&mut self, _restart: usize, _observer: NoopObserver) {}
}

/// Fans every event out to two observers — e.g. a trace writer and a
/// metrics collector on the same solve.
#[derive(Debug, Default)]
pub struct PairObserver<A, B>(pub A, pub B);

/// The per-restart half of [`PairObserver`].
#[derive(Debug)]
pub struct PairRestart<A, B>(A, B);

impl<A: RestartObserver, B: RestartObserver> RestartObserver for PairRestart<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on_iteration(&mut self, event: &IterationEvent<'_>) {
        self.0.on_iteration(event);
        self.1.on_iteration(event);
    }

    fn on_recovery(&mut self, event: &RecoveryEvent) {
        self.0.on_recovery(event);
        self.1.on_recovery(event);
    }

    fn on_refine(&mut self, event: &RefineEvent) {
        self.0.on_refine(event);
        self.1.on_refine(event);
    }

    fn on_restart_end(&mut self, event: &RestartEndEvent) {
        self.0.on_restart_end(event);
        self.1.on_restart_end(event);
    }
}

impl<A: SolveObserver, B: SolveObserver> SolveObserver for PairObserver<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    type Restart = PairRestart<A::Restart, B::Restart>;

    fn on_solve_start(&mut self, event: &SolveStartEvent) {
        self.0.on_solve_start(event);
        self.1.on_solve_start(event);
    }

    fn begin_restart(&mut self, restart: usize) -> Self::Restart {
        PairRestart(self.0.begin_restart(restart), self.1.begin_restart(restart))
    }

    fn absorb_restart(&mut self, restart: usize, observer: Self::Restart) {
        self.0.absorb_restart(restart, observer.0);
        self.1.absorb_restart(restart, observer.1);
    }

    fn on_coarsen(&mut self, event: &CoarsenEvent) {
        self.0.on_coarsen(event);
        self.1.on_coarsen(event);
    }

    fn on_uncoarsen(&mut self, event: &UncoarsenEvent) {
        self.0.on_uncoarsen(event);
        self.1.on_uncoarsen(event);
    }

    fn on_solve_end(&mut self, event: &SolveEndEvent) {
        self.0.on_solve_end(event);
        self.1.on_solve_end(event);
    }
}

// ---------------------------------------------------------------------------
// Owned trace records + JSONL schema
// ---------------------------------------------------------------------------

/// An owned, serializable trace record — the JSONL schema, one value per
/// line. See [`TRACE_SCHEMA_VERSION`] for the compatibility rule and
/// DESIGN.md §Observability for the field-by-field description.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// `"ev":"solve_start"` — one per solve, first record.
    SolveStart {
        /// Gates `G`.
        gates: u64,
        /// Planes `K`.
        planes: u64,
        /// Edge count.
        edges: u64,
        /// Configured restarts.
        restarts: u64,
        /// Per-restart iteration cap.
        max_iterations: u64,
        /// Restart-level threading in use.
        parallel: bool,
    },
    /// `"ev":"restart_start"` — first record of each restart's block.
    RestartStart {
        /// Restart index.
        restart: u64,
    },
    /// `"ev":"iter"` — one completed descent iteration.
    Iteration {
        /// Restart index.
        restart: u64,
        /// Iteration index (0-based).
        iteration: u64,
        /// Interconnect term `F₁`.
        f1: f64,
        /// Bias-variance term `F₂`.
        f2: f64,
        /// Area-variance term `F₃`.
        f3: f64,
        /// One-hot pressure `F₄`.
        f4: f64,
        /// Weighted total cost.
        total: f64,
        /// Learning rate applied this iteration (0 if no step was taken).
        learning_rate: f64,
        /// Infinity norm of the gradient step.
        grad_norm: f64,
        /// Entries clipped by the `[0,1]` projection.
        clipped: u64,
        /// Whether divergence recovery ran this iteration.
        recovered: bool,
    },
    /// `"ev":"recovery"` — one rollback + halved-rate retry.
    Recovery {
        /// Restart index.
        restart: u64,
        /// Iteration being retried.
        iteration: u64,
        /// Retry attempt (1-based).
        attempt: u64,
        /// Halved learning rate of the retry.
        learning_rate: f64,
    },
    /// `"ev":"refine"` — the restart's refinement pass.
    Refine {
        /// Restart index.
        restart: u64,
        /// Moves applied.
        moves: u64,
        /// Discrete cost before refinement.
        cost_before: f64,
        /// Discrete cost after refinement.
        cost_after: f64,
    },
    /// `"ev":"restart_end"` — last record of each restart's block.
    RestartEnd {
        /// Restart index.
        restart: u64,
        /// Iterations completed.
        iterations: u64,
        /// Stop reason.
        stop: StopReason,
        /// Final discrete cost of the restart.
        discrete_cost: f64,
    },
    /// `"ev":"coarsen"` — one multilevel contraction.
    Coarsen {
        /// Level index.
        level: u64,
        /// Gates before contraction.
        fine_gates: u64,
        /// Edges before contraction.
        fine_edges: u64,
        /// Gates after contraction.
        coarse_gates: u64,
        /// Edges after contraction.
        coarse_edges: u64,
    },
    /// `"ev":"uncoarsen"` — one multilevel projection + refinement.
    Uncoarsen {
        /// Level index.
        level: u64,
        /// Gates of the fine problem.
        gates: u64,
        /// Refinement moves at this level.
        refine_moves: u64,
    },
    /// `"ev":"solve_end"` — one per solve, last record.
    SolveEnd {
        /// Winning restart index.
        best_restart: u64,
        /// Iterations of the winning restart.
        iterations: u64,
        /// Stop reason of the winning restart.
        stop: StopReason,
        /// Discrete cost of the winning partition.
        discrete_cost: f64,
        /// Restarts excluded as terminally diverged.
        diverged_restarts: u64,
    },
}

/// Stable string form of a [`StopReason`] in the trace schema.
#[must_use]
pub fn stop_reason_str(reason: StopReason) -> &'static str {
    match reason {
        StopReason::Margin => "margin",
        StopReason::MaxIterations => "max_iterations",
        StopReason::StepVanished => "step_vanished",
        StopReason::NonFinite => "non_finite",
        StopReason::BudgetExhausted => "budget_exhausted",
        StopReason::Cancelled => "cancelled",
    }
}

/// Inverse of [`stop_reason_str`].
///
/// # Errors
///
/// Returns the unrecognized string back as the error.
pub fn parse_stop_reason(s: &str) -> Result<StopReason, TraceParseError> {
    match s {
        "margin" => Ok(StopReason::Margin),
        "max_iterations" => Ok(StopReason::MaxIterations),
        "step_vanished" => Ok(StopReason::StepVanished),
        "non_finite" => Ok(StopReason::NonFinite),
        "budget_exhausted" => Ok(StopReason::BudgetExhausted),
        "cancelled" => Ok(StopReason::Cancelled),
        other => Err(TraceParseError::new(format!(
            "unknown stop reason `{other}`"
        ))),
    }
}

/// A malformed trace line, with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    detail: String,
}

impl TraceParseError {
    fn new(detail: impl Into<String>) -> Self {
        TraceParseError {
            detail: detail.into(),
        }
    }

    /// What was wrong with the line.
    #[must_use]
    pub fn detail(&self) -> &str {
        &self.detail
    }
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed trace record: {}", self.detail)
    }
}

impl std::error::Error for TraceParseError {}

/// Appends a JSON representation of `v`: Rust's shortest-round-trip float
/// formatting is valid JSON for every finite value; non-finite values (which
/// JSON cannot express) become `null` and read back as NaN.
fn push_json_f64(out: &mut String, key: &str, v: f64) {
    if v.is_finite() {
        let _ = write!(out, ",\"{key}\":{v:?}");
    } else {
        let _ = write!(out, ",\"{key}\":null");
    }
}

fn push_json_u64(out: &mut String, key: &str, v: u64) {
    let _ = write!(out, ",\"{key}\":{v}");
}

fn push_json_bool(out: &mut String, key: &str, v: bool) {
    let _ = write!(out, ",\"{key}\":{v}");
}

fn push_json_str(out: &mut String, key: &str, v: &str) {
    // Schema strings are fixed lowercase identifiers; no escaping needed.
    let _ = write!(out, ",\"{key}\":\"{v}\"");
}

impl TraceEvent {
    /// The record's `"ev"` tag.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::SolveStart { .. } => "solve_start",
            TraceEvent::RestartStart { .. } => "restart_start",
            TraceEvent::Iteration { .. } => "iter",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::Refine { .. } => "refine",
            TraceEvent::RestartEnd { .. } => "restart_end",
            TraceEvent::Coarsen { .. } => "coarsen",
            TraceEvent::Uncoarsen { .. } => "uncoarsen",
            TraceEvent::SolveEnd { .. } => "solve_end",
        }
    }

    /// The restart index this record belongs to, if it is restart-scoped.
    #[must_use]
    pub fn restart(&self) -> Option<u64> {
        match *self {
            TraceEvent::RestartStart { restart }
            | TraceEvent::Iteration { restart, .. }
            | TraceEvent::Recovery { restart, .. }
            | TraceEvent::Refine { restart, .. }
            | TraceEvent::RestartEnd { restart, .. } => Some(restart),
            _ => None,
        }
    }

    /// The `solve_start` record of an observer event.
    #[must_use]
    pub fn solve_start(event: &SolveStartEvent) -> Self {
        TraceEvent::SolveStart {
            gates: event.gates as u64,
            planes: event.planes as u64,
            edges: event.edges as u64,
            restarts: event.restarts as u64,
            max_iterations: event.max_iterations as u64,
            parallel: event.parallel,
        }
    }

    /// The `restart_start` record of restart `restart`.
    #[must_use]
    pub fn restart_start(restart: usize) -> Self {
        TraceEvent::RestartStart {
            restart: restart as u64,
        }
    }

    /// The `iter` record of restart `restart`'s iteration event.
    #[must_use]
    pub fn iteration(restart: usize, event: &IterationEvent<'_>) -> Self {
        TraceEvent::Iteration {
            restart: restart as u64,
            iteration: event.iteration as u64,
            f1: event.cost.f1,
            f2: event.cost.f2,
            f3: event.cost.f3,
            f4: event.cost.f4,
            total: event.cost.total,
            learning_rate: event.learning_rate,
            grad_norm: event.gradient_norm,
            clipped: event.clipped as u64,
            recovered: event.recovered,
        }
    }

    /// The `recovery` record of restart `restart`'s recovery event.
    #[must_use]
    pub fn recovery(restart: usize, event: &RecoveryEvent) -> Self {
        TraceEvent::Recovery {
            restart: restart as u64,
            iteration: event.iteration as u64,
            attempt: event.attempt as u64,
            learning_rate: event.learning_rate,
        }
    }

    /// The `refine` record of restart `restart`'s refinement event.
    #[must_use]
    pub fn refine(restart: usize, event: &RefineEvent) -> Self {
        TraceEvent::Refine {
            restart: restart as u64,
            moves: event.moves as u64,
            cost_before: event.cost_before,
            cost_after: event.cost_after,
        }
    }

    /// The `restart_end` record of restart `restart`'s final event.
    #[must_use]
    pub fn restart_end(restart: usize, event: &RestartEndEvent) -> Self {
        TraceEvent::RestartEnd {
            restart: restart as u64,
            iterations: event.iterations as u64,
            stop: event.stop_reason,
            discrete_cost: event.discrete_cost,
        }
    }

    /// The `coarsen` record of a multilevel contraction event.
    #[must_use]
    pub fn coarsen(event: &CoarsenEvent) -> Self {
        TraceEvent::Coarsen {
            level: event.level as u64,
            fine_gates: event.fine_gates as u64,
            fine_edges: event.fine_edges as u64,
            coarse_gates: event.coarse_gates as u64,
            coarse_edges: event.coarse_edges as u64,
        }
    }

    /// The `uncoarsen` record of a multilevel projection event.
    #[must_use]
    pub fn uncoarsen(event: &UncoarsenEvent) -> Self {
        TraceEvent::Uncoarsen {
            level: event.level as u64,
            gates: event.gates as u64,
            refine_moves: event.refine_moves as u64,
        }
    }

    /// The `solve_end` record of an observer event.
    #[must_use]
    pub fn solve_end(event: &SolveEndEvent) -> Self {
        TraceEvent::SolveEnd {
            best_restart: event.best_restart as u64,
            iterations: event.iterations as u64,
            stop: event.stop_reason,
            discrete_cost: event.discrete_cost,
            diverged_restarts: event.diverged_restarts as u64,
        }
    }

    /// Serializes the record as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write_jsonl_into(&mut out);
        out
    }

    /// Appends the record's JSONL form (no trailing newline) to `out`,
    /// reusing the buffer's existing capacity. [`JsonlTraceWriter`] batches
    /// a whole restart through one buffer this way instead of allocating a
    /// fresh `String` per event.
    pub fn write_jsonl_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"v\":{TRACE_SCHEMA_VERSION},\"ev\":\"{}\"",
            self.kind()
        );
        match *self {
            TraceEvent::SolveStart {
                gates,
                planes,
                edges,
                restarts,
                max_iterations,
                parallel,
            } => {
                push_json_u64(out, "gates", gates);
                push_json_u64(out, "planes", planes);
                push_json_u64(out, "edges", edges);
                push_json_u64(out, "restarts", restarts);
                push_json_u64(out, "max_iterations", max_iterations);
                push_json_bool(out, "parallel", parallel);
            }
            TraceEvent::RestartStart { restart } => {
                push_json_u64(out, "restart", restart);
            }
            TraceEvent::Iteration {
                restart,
                iteration,
                f1,
                f2,
                f3,
                f4,
                total,
                learning_rate,
                grad_norm,
                clipped,
                recovered,
            } => {
                push_json_u64(out, "restart", restart);
                push_json_u64(out, "iter", iteration);
                push_json_f64(out, "f1", f1);
                push_json_f64(out, "f2", f2);
                push_json_f64(out, "f3", f3);
                push_json_f64(out, "f4", f4);
                push_json_f64(out, "total", total);
                push_json_f64(out, "rate", learning_rate);
                push_json_f64(out, "grad_norm", grad_norm);
                push_json_u64(out, "clipped", clipped);
                push_json_bool(out, "recovered", recovered);
            }
            TraceEvent::Recovery {
                restart,
                iteration,
                attempt,
                learning_rate,
            } => {
                push_json_u64(out, "restart", restart);
                push_json_u64(out, "iter", iteration);
                push_json_u64(out, "attempt", attempt);
                push_json_f64(out, "rate", learning_rate);
            }
            TraceEvent::Refine {
                restart,
                moves,
                cost_before,
                cost_after,
            } => {
                push_json_u64(out, "restart", restart);
                push_json_u64(out, "moves", moves);
                push_json_f64(out, "cost_before", cost_before);
                push_json_f64(out, "cost_after", cost_after);
            }
            TraceEvent::RestartEnd {
                restart,
                iterations,
                stop,
                discrete_cost,
            } => {
                push_json_u64(out, "restart", restart);
                push_json_u64(out, "iterations", iterations);
                push_json_str(out, "stop", stop_reason_str(stop));
                push_json_f64(out, "discrete_cost", discrete_cost);
            }
            TraceEvent::Coarsen {
                level,
                fine_gates,
                fine_edges,
                coarse_gates,
                coarse_edges,
            } => {
                push_json_u64(out, "level", level);
                push_json_u64(out, "fine_gates", fine_gates);
                push_json_u64(out, "fine_edges", fine_edges);
                push_json_u64(out, "coarse_gates", coarse_gates);
                push_json_u64(out, "coarse_edges", coarse_edges);
            }
            TraceEvent::Uncoarsen {
                level,
                gates,
                refine_moves,
            } => {
                push_json_u64(out, "level", level);
                push_json_u64(out, "gates", gates);
                push_json_u64(out, "refine_moves", refine_moves);
            }
            TraceEvent::SolveEnd {
                best_restart,
                iterations,
                stop,
                discrete_cost,
                diverged_restarts,
            } => {
                push_json_u64(out, "best_restart", best_restart);
                push_json_u64(out, "iterations", iterations);
                push_json_str(out, "stop", stop_reason_str(stop));
                push_json_f64(out, "discrete_cost", discrete_cost);
                push_json_u64(out, "diverged_restarts", diverged_restarts);
            }
        }
        out.push('}');
    }

    /// Parses one JSONL line back into a record, through the workspace's
    /// one JSON reader ([`crate::json`]).
    ///
    /// Unknown *fields* are ignored, whatever their value (the schema is
    /// append-only within a version), which is how a v1 `solve_start`
    /// record's `fused` and `intra_parallel` are read past; an unknown
    /// `"ev"` tag or a `"v"` outside `1..=`[`TRACE_SCHEMA_VERSION`] is an
    /// error, as is any missing or wrongly-typed required field. Integer
    /// fields take only an integer literal: `1.0` is not a count.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] describing the first problem found.
    pub fn parse(line: &str) -> Result<TraceEvent, TraceParseError> {
        if !line.trim_start().starts_with('{') {
            return Err(TraceParseError::new("expected `{` to open a record"));
        }
        let fields = json::parse(line).map_err(|e| TraceParseError::new(e.to_string()))?;
        let version = get_u64(&fields, "v")?;
        if !(1..=TRACE_SCHEMA_VERSION).contains(&version) {
            return Err(TraceParseError::new(format!(
                "unsupported schema version {version} (expected 1 to {TRACE_SCHEMA_VERSION})"
            )));
        }
        let kind = get_str(&fields, "ev")?;
        match kind {
            "solve_start" => Ok(TraceEvent::SolveStart {
                gates: get_u64(&fields, "gates")?,
                planes: get_u64(&fields, "planes")?,
                edges: get_u64(&fields, "edges")?,
                restarts: get_u64(&fields, "restarts")?,
                max_iterations: get_u64(&fields, "max_iterations")?,
                parallel: get_bool(&fields, "parallel")?,
            }),
            "restart_start" => Ok(TraceEvent::RestartStart {
                restart: get_u64(&fields, "restart")?,
            }),
            "iter" => Ok(TraceEvent::Iteration {
                restart: get_u64(&fields, "restart")?,
                iteration: get_u64(&fields, "iter")?,
                f1: get_f64(&fields, "f1")?,
                f2: get_f64(&fields, "f2")?,
                f3: get_f64(&fields, "f3")?,
                f4: get_f64(&fields, "f4")?,
                total: get_f64(&fields, "total")?,
                learning_rate: get_f64(&fields, "rate")?,
                grad_norm: get_f64(&fields, "grad_norm")?,
                clipped: get_u64(&fields, "clipped")?,
                recovered: get_bool(&fields, "recovered")?,
            }),
            "recovery" => Ok(TraceEvent::Recovery {
                restart: get_u64(&fields, "restart")?,
                iteration: get_u64(&fields, "iter")?,
                attempt: get_u64(&fields, "attempt")?,
                learning_rate: get_f64(&fields, "rate")?,
            }),
            "refine" => Ok(TraceEvent::Refine {
                restart: get_u64(&fields, "restart")?,
                moves: get_u64(&fields, "moves")?,
                cost_before: get_f64(&fields, "cost_before")?,
                cost_after: get_f64(&fields, "cost_after")?,
            }),
            "restart_end" => Ok(TraceEvent::RestartEnd {
                restart: get_u64(&fields, "restart")?,
                iterations: get_u64(&fields, "iterations")?,
                stop: parse_stop_reason(get_str(&fields, "stop")?)?,
                discrete_cost: get_f64(&fields, "discrete_cost")?,
            }),
            "coarsen" => Ok(TraceEvent::Coarsen {
                level: get_u64(&fields, "level")?,
                fine_gates: get_u64(&fields, "fine_gates")?,
                fine_edges: get_u64(&fields, "fine_edges")?,
                coarse_gates: get_u64(&fields, "coarse_gates")?,
                coarse_edges: get_u64(&fields, "coarse_edges")?,
            }),
            "uncoarsen" => Ok(TraceEvent::Uncoarsen {
                level: get_u64(&fields, "level")?,
                gates: get_u64(&fields, "gates")?,
                refine_moves: get_u64(&fields, "refine_moves")?,
            }),
            "solve_end" => Ok(TraceEvent::SolveEnd {
                best_restart: get_u64(&fields, "best_restart")?,
                iterations: get_u64(&fields, "iterations")?,
                stop: parse_stop_reason(get_str(&fields, "stop")?)?,
                discrete_cost: get_f64(&fields, "discrete_cost")?,
                diverged_restarts: get_u64(&fields, "diverged_restarts")?,
            }),
            other => Err(TraceParseError::new(format!("unknown event tag `{other}`"))),
        }
    }
}

// Field readers over a parsed record. Integer fields take only an exact
// integer literal, so `1.0`, `-1` and `1e3` are refused where a count
// belongs.

fn field<'a>(record: &'a Json, key: &str) -> Result<&'a Json, TraceParseError> {
    record
        .get(key)
        .ok_or_else(|| TraceParseError::new(format!("missing field `{key}`")))
}

fn get_u64(record: &Json, key: &str) -> Result<u64, TraceParseError> {
    match field(record, key)? {
        Json::Integer(n) => Ok(*n),
        _ => Err(TraceParseError::new(format!(
            "field `{key}`: expected an integer"
        ))),
    }
}

fn get_f64(record: &Json, key: &str) -> Result<f64, TraceParseError> {
    match field(record, key)? {
        // JSON cannot express non-finite floats; the writer emits `null`.
        Json::Null => Ok(f64::NAN),
        value => value.as_f64().ok_or_else(|| {
            TraceParseError::new(format!("field `{key}`: expected a number or null"))
        }),
    }
}

fn get_bool(record: &Json, key: &str) -> Result<bool, TraceParseError> {
    field(record, key)?
        .as_bool()
        .ok_or_else(|| TraceParseError::new(format!("field `{key}`: expected a boolean")))
}

fn get_str<'a>(record: &'a Json, key: &str) -> Result<&'a str, TraceParseError> {
    field(record, key)?
        .as_str()
        .ok_or_else(|| TraceParseError::new(format!("field `{key}`: expected a string")))
}

// ---------------------------------------------------------------------------
// Per-restart trace buffer shared by the trace sinks
// ---------------------------------------------------------------------------

/// Per-restart event buffer used by [`TraceCollector`] and
/// [`JsonlTraceWriter`]: records events as owned [`TraceEvent`]s on the
/// restart's thread; the solve-level sink drains it at absorb time, in
/// restart-index order.
#[derive(Debug)]
pub struct RestartTrace {
    restart: usize,
    events: Vec<TraceEvent>,
}

impl RestartTrace {
    /// A buffer pre-sized for `events` records, so a restart that runs to
    /// its iteration cap never reallocates mid-descent.
    fn with_capacity(restart: usize, events: usize) -> Self {
        let mut buf = Vec::with_capacity(events.max(1));
        buf.push(TraceEvent::restart_start(restart));
        RestartTrace {
            restart,
            events: buf,
        }
    }
}

/// Event-count hint for one restart's trace buffer: one record per
/// iteration plus the restart-scoped bookkeeping records (start, refine,
/// end, and recovery slack).
fn restart_trace_capacity(max_iterations: usize) -> usize {
    max_iterations.saturating_add(4).min(1 << 20)
}

impl RestartObserver for RestartTrace {
    fn on_iteration(&mut self, event: &IterationEvent<'_>) {
        self.events.push(TraceEvent::iteration(self.restart, event));
    }

    fn on_recovery(&mut self, event: &RecoveryEvent) {
        self.events.push(TraceEvent::recovery(self.restart, event));
    }

    fn on_refine(&mut self, event: &RefineEvent) {
        self.events.push(TraceEvent::refine(self.restart, event));
    }

    fn on_restart_end(&mut self, event: &RestartEndEvent) {
        self.events
            .push(TraceEvent::restart_end(self.restart, event));
    }
}

/// In-memory trace sink: collects every event of a solve as owned
/// [`TraceEvent`]s, in the same deterministic order the JSONL writer emits.
#[derive(Debug, Default)]
pub struct TraceCollector {
    events: Vec<TraceEvent>,
    iter_hint: usize,
}

impl TraceCollector {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        TraceCollector::default()
    }

    /// The collected events so far.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the collector, returning the events.
    #[must_use]
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl SolveObserver for TraceCollector {
    type Restart = RestartTrace;

    fn on_solve_start(&mut self, event: &SolveStartEvent) {
        self.iter_hint = restart_trace_capacity(event.max_iterations);
        // Pre-size for the expected whole-solve record count so absorbing
        // restarts is a straight memcpy; cap the reservation so a huge
        // configured budget cannot balloon the collector up front.
        let solve_hint = event
            .restarts
            .saturating_mul(self.iter_hint)
            .saturating_add(2)
            .min(1 << 20);
        self.events.reserve(solve_hint);
        self.events.push(TraceEvent::solve_start(event));
    }

    fn begin_restart(&mut self, restart: usize) -> RestartTrace {
        RestartTrace::with_capacity(restart, self.iter_hint)
    }

    fn absorb_restart(&mut self, _restart: usize, observer: RestartTrace) {
        self.events.extend(observer.events);
    }

    fn on_coarsen(&mut self, event: &CoarsenEvent) {
        self.events.push(TraceEvent::coarsen(event));
    }

    fn on_uncoarsen(&mut self, event: &UncoarsenEvent) {
        self.events.push(TraceEvent::uncoarsen(event));
    }

    fn on_solve_end(&mut self, event: &SolveEndEvent) {
        self.events.push(TraceEvent::solve_end(event));
    }
}

/// Streaming JSONL trace sink: one [`TraceEvent`] record per line.
///
/// Restart events are buffered per restart and written at absorb time, so
/// the file is byte-identical for serial and parallel solves of the same
/// configuration. Each restart's records are serialized into one reused
/// `String` and flushed with a single `write_all` — the per-iteration cost
/// on the observed solve is a `Vec` push, not a heap-allocating
/// serialization. I/O errors are sticky: the first one is kept and returned
/// by [`JsonlTraceWriter::finish`], and nothing further is written — the
/// solve itself is never interrupted by a failing trace file.
#[derive(Debug)]
pub struct JsonlTraceWriter<W: Write> {
    out: W,
    buf: String,
    iter_hint: usize,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlTraceWriter<W> {
    /// Wraps a byte sink (callers usually pass a `BufWriter<File>`).
    pub fn new(out: W) -> Self {
        JsonlTraceWriter {
            out,
            buf: String::new(),
            iter_hint: 0,
            error: None,
        }
    }

    fn write_record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.buf.clear();
        event.write_jsonl_into(&mut self.buf);
        self.buf.push('\n');
        if let Err(e) = self.out.write_all(self.buf.as_bytes()) {
            self.error = Some(e);
        }
    }

    /// Flushes and returns the inner sink, or the first error encountered
    /// while writing any record.
    ///
    /// # Errors
    ///
    /// The first sticky write error, or the flush error.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> SolveObserver for JsonlTraceWriter<W> {
    type Restart = RestartTrace;

    fn on_solve_start(&mut self, event: &SolveStartEvent) {
        self.iter_hint = restart_trace_capacity(event.max_iterations);
        self.write_record(&TraceEvent::solve_start(event));
    }

    fn begin_restart(&mut self, restart: usize) -> RestartTrace {
        RestartTrace::with_capacity(restart, self.iter_hint)
    }

    fn absorb_restart(&mut self, _restart: usize, observer: RestartTrace) {
        if self.error.is_some() {
            return;
        }
        // Serialize the whole restart into one buffer and write it with a
        // single call; the buffer's capacity is retained across restarts.
        self.buf.clear();
        for event in &observer.events {
            event.write_jsonl_into(&mut self.buf);
            self.buf.push('\n');
        }
        if let Err(e) = self.out.write_all(self.buf.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn on_coarsen(&mut self, event: &CoarsenEvent) {
        self.write_record(&TraceEvent::coarsen(event));
    }

    fn on_uncoarsen(&mut self, event: &UncoarsenEvent) {
        self.write_record(&TraceEvent::uncoarsen(event));
    }

    fn on_solve_end(&mut self, event: &SolveEndEvent) {
        self.write_record(&TraceEvent::solve_end(event));
    }
}

// ---------------------------------------------------------------------------
// Aggregate metrics sink
// ---------------------------------------------------------------------------

/// A power-of-two-bucketed histogram for counts and durations whose useful
/// range spans many orders of magnitude.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i−1), 2^i)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 65],
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram { buckets: [0; 65] }
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// The bucket `value` falls in: 0 for 0, `ilog2(value) + 1` otherwise,
    /// so always at most 64. The one statement of the rule, shared with the
    /// service's lock-free histogram.
    #[must_use]
    pub const fn bucket(value: u64) -> usize {
        match value {
            0 => 0,
            v => v.ilog2() as usize + 1,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        if let Some(slot) = self.buckets.get_mut(LogHistogram::bucket(value)) {
            *slot += 1;
        }
    }

    /// Reconstructs a histogram from raw bucket counts — the inverse of
    /// [`LogHistogram::buckets`], used when a snapshot crosses a process
    /// or wire boundary (the `sfqpartd` `stats` frame).
    #[must_use]
    pub fn from_buckets(buckets: [u64; 65]) -> Self {
        LogHistogram { buckets }
    }

    /// Raw bucket counts, index = bucket number.
    #[must_use]
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Deterministic percentile estimate: the upper bound of the bucket
    /// containing the sample of rank `⌈q·count⌉` (so the estimate never
    /// understates a latency). `q` is clamped to `(0, 1]`; an empty
    /// histogram reports 0.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
            }
        }
        u64::MAX
    }

    /// Per-bucket difference against an earlier snapshot of the same
    /// histogram (saturating, so a mismatched baseline degrades to zeros
    /// instead of wrapping). Lets a load generator isolate the samples of
    /// its own run from a daemon's lifetime totals.
    #[must_use]
    pub fn diff(&self, baseline: &LogHistogram) -> LogHistogram {
        let mut out = [0u64; 65];
        for (slot, (now, base)) in out
            .iter_mut()
            .zip(self.buckets.iter().zip(baseline.buckets.iter()))
        {
            *slot = now.saturating_sub(*base);
        }
        LogHistogram { buckets: out }
    }

    /// Occupied buckets as `(lower_bound_inclusive, count)` pairs.
    pub fn occupied(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(i, &count)| {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                (lower, count)
            })
    }

    fn render_into(&self, out: &mut String, label: &str) {
        let _ = write!(out, "  {label}:");
        if self.count() == 0 {
            out.push_str(" (empty)");
        }
        for (lower, count) in self.occupied() {
            let _ = write!(out, " [{lower}+]x{count}");
        }
        out.push('\n');
    }
}

/// Aggregate telemetry sink: counters plus log-scale histograms over every
/// solve it observes. Attach with
/// [`Solver::solve_observed`](crate::Solver::solve_observed); render the
/// summary with [`SolveMetrics::render`].
///
/// Per-kernel wall time (descent loop vs. refinement pass, per restart) is
/// measured with [`budget::Stopwatch`](crate::budget::Stopwatch) —
/// `clippy.toml` keeps this module free of raw clock reads. The timings are
/// observational only and never feed back into any solve decision.
#[derive(Debug, Default)]
pub struct SolveMetrics {
    /// Solves observed.
    pub solves: u64,
    /// Restarts that actually ran (skipped zero-budget restarts excluded).
    pub restarts: u64,
    /// Total descent iterations across all restarts.
    pub iterations: u64,
    /// Total divergence-recovery retries.
    pub recoveries: u64,
    /// Total entries clipped by the `[0,1]` projection.
    pub clipped: u64,
    /// Total refinement moves.
    pub refine_moves: u64,
    /// Restarts stopped by the margin test.
    pub margin_stops: u64,
    /// Restarts stopped by the iteration cap.
    pub cap_stops: u64,
    /// Restarts truncated by a solve budget (iteration budget or deadline).
    pub budget_truncations: u64,
    /// Restarts aborted by an external cancellation.
    pub cancelled_stops: u64,
    /// Restarts whose step vanished.
    pub step_vanished: u64,
    /// Restarts that ended terminally non-finite.
    pub nonfinite_restarts: u64,
    /// Multilevel coarsening contractions observed.
    pub coarsen_levels: u64,
    /// Iterations-to-converge distribution (one sample per restart).
    pub iterations_hist: LogHistogram,
    /// Recoveries-per-restart distribution.
    pub recoveries_hist: LogHistogram,
    /// Descent-kernel wall time per restart, nanoseconds.
    pub descent_ns_hist: LogHistogram,
    /// Refinement-kernel wall time per restart, nanoseconds.
    pub refine_ns_hist: LogHistogram,
}

/// The per-restart probe [`SolveMetrics`] forks: counts events and splits
/// the restart's wall time into descent vs. refinement at event boundaries.
#[derive(Debug)]
pub struct MetricsProbe {
    watch: Stopwatch,
    iterations: u64,
    recoveries: u64,
    clipped: u64,
    refine_moves: u64,
    descent_ns: u64,
    refine_ns: u64,
    stop: Option<StopReason>,
}

impl RestartObserver for MetricsProbe {
    fn on_iteration(&mut self, event: &IterationEvent<'_>) {
        self.iterations += 1;
        self.clipped += event.clipped as u64;
        self.descent_ns = self.watch.elapsed_ns();
    }

    fn on_recovery(&mut self, _event: &RecoveryEvent) {
        self.recoveries += 1;
    }

    fn on_refine(&mut self, event: &RefineEvent) {
        self.refine_moves += event.moves as u64;
        self.refine_ns = self.watch.elapsed_ns().saturating_sub(self.descent_ns);
    }

    fn on_restart_end(&mut self, event: &RestartEndEvent) {
        self.stop = Some(event.stop_reason);
    }
}

impl SolveObserver for SolveMetrics {
    type Restart = MetricsProbe;

    fn begin_restart(&mut self, _restart: usize) -> MetricsProbe {
        MetricsProbe {
            watch: Stopwatch::start(),
            iterations: 0,
            recoveries: 0,
            clipped: 0,
            refine_moves: 0,
            descent_ns: 0,
            refine_ns: 0,
            stop: None,
        }
    }

    fn absorb_restart(&mut self, _restart: usize, probe: MetricsProbe) {
        self.restarts += 1;
        self.iterations += probe.iterations;
        self.recoveries += probe.recoveries;
        self.clipped += probe.clipped;
        self.refine_moves += probe.refine_moves;
        self.iterations_hist.record(probe.iterations);
        self.recoveries_hist.record(probe.recoveries);
        self.descent_ns_hist.record(probe.descent_ns);
        self.refine_ns_hist.record(probe.refine_ns);
        match probe.stop {
            Some(StopReason::Margin) => self.margin_stops += 1,
            Some(StopReason::MaxIterations) => self.cap_stops += 1,
            Some(StopReason::BudgetExhausted) => self.budget_truncations += 1,
            Some(StopReason::Cancelled) => self.cancelled_stops += 1,
            Some(StopReason::StepVanished) => self.step_vanished += 1,
            Some(StopReason::NonFinite) => self.nonfinite_restarts += 1,
            None => {}
        }
    }

    fn on_coarsen(&mut self, _event: &CoarsenEvent) {
        self.coarsen_levels += 1;
    }

    fn on_solve_end(&mut self, _event: &SolveEndEvent) {
        self.solves += 1;
    }
}

impl SolveMetrics {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        SolveMetrics::default()
    }

    /// Renders the human-readable multi-line summary (the CLI prints this
    /// to stderr under `--metrics`).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "solve metrics: {} solve(s), {} restart(s), {} iteration(s)",
            self.solves, self.restarts, self.iterations
        );
        let _ = writeln!(
            out,
            "  stops: margin={} cap={} budget={} cancelled={} step_vanished={} non_finite={}",
            self.margin_stops,
            self.cap_stops,
            self.budget_truncations,
            self.cancelled_stops,
            self.step_vanished,
            self.nonfinite_restarts
        );
        let _ = writeln!(
            out,
            "  recoveries={} clipped={} refine_moves={} coarsen_levels={}",
            self.recoveries, self.clipped, self.refine_moves, self.coarsen_levels
        );
        self.iterations_hist
            .render_into(&mut out, "iterations/restart");
        self.recoveries_hist
            .render_into(&mut out, "recoveries/restart");
        self.descent_ns_hist.render_into(&mut out, "descent ns");
        self.refine_ns_hist.render_into(&mut out, "refine ns");
        out.pop(); // drop trailing newline; callers use eprintln!/writeln!
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_observer_is_disabled() {
        const {
            assert!(!<NoopObserver as RestartObserver>::ENABLED);
            assert!(!<NoopObserver as SolveObserver>::ENABLED);
            assert!(<RestartTrace as RestartObserver>::ENABLED);
            assert!(<PairRestart<NoopObserver, RestartTrace> as RestartObserver>::ENABLED);
            assert!(!<PairRestart<NoopObserver, NoopObserver> as RestartObserver>::ENABLED);
        }
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        let events = vec![
            TraceEvent::SolveStart {
                gates: 16,
                planes: 5,
                edges: 24,
                restarts: 2,
                max_iterations: 2000,
                parallel: false,
            },
            TraceEvent::RestartStart { restart: 1 },
            TraceEvent::Iteration {
                restart: 1,
                iteration: 7,
                f1: 0.125,
                f2: 1e-12,
                f3: 3.5,
                f4: -0.25,
                total: 3.375,
                learning_rate: 0.05,
                grad_norm: 2.5e-4,
                clipped: 3,
                recovered: true,
            },
            TraceEvent::Recovery {
                restart: 1,
                iteration: 7,
                attempt: 2,
                learning_rate: 0.0125,
            },
            TraceEvent::Refine {
                restart: 1,
                moves: 4,
                cost_before: 10.5,
                cost_after: 9.25,
            },
            TraceEvent::RestartEnd {
                restart: 1,
                iterations: 8,
                stop: StopReason::Margin,
                discrete_cost: 9.25,
            },
            TraceEvent::Coarsen {
                level: 0,
                fine_gates: 400,
                fine_edges: 600,
                coarse_gates: 200,
                coarse_edges: 310,
            },
            TraceEvent::Uncoarsen {
                level: 0,
                gates: 400,
                refine_moves: 12,
            },
            TraceEvent::SolveEnd {
                best_restart: 1,
                iterations: 8,
                stop: StopReason::Margin,
                discrete_cost: 9.25,
                diverged_restarts: 0,
            },
        ];
        for event in events {
            let line = event.to_jsonl();
            let parsed = TraceEvent::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parsed, event, "line: {line}");
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null_and_parse_as_nan() {
        let event = TraceEvent::Refine {
            restart: 0,
            moves: 0,
            cost_before: f64::NAN,
            cost_after: f64::INFINITY,
        };
        let line = event.to_jsonl();
        assert!(line.contains("\"cost_before\":null"));
        assert!(line.contains("\"cost_after\":null"));
        match TraceEvent::parse(&line) {
            Ok(TraceEvent::Refine {
                cost_before,
                cost_after,
                ..
            }) => {
                assert!(cost_before.is_nan());
                assert!(cost_after.is_nan());
            }
            other => panic!("unexpected parse result: {other:?}"),
        }
    }

    #[test]
    fn parse_ignores_unknown_fields() {
        for future in ["42", "[1,{\"a\":2}]"] {
            let line = format!(
                "{{\"v\":1,\"ev\":\"restart_start\",\"restart\":3,\"future_field\":{future}}}"
            );
            assert_eq!(
                TraceEvent::parse(&line),
                Ok(TraceEvent::RestartStart { restart: 3 })
            );
        }
    }

    #[test]
    fn parse_rejects_non_integer_counts() {
        for value in ["1.0", "-1", "1e3"] {
            let line = format!("{{\"v\":2,\"ev\":\"restart_start\",\"restart\":{value}}}");
            let err = TraceEvent::parse(&line).expect_err(&line);
            assert!(
                err.detail()
                    .contains("field `restart`: expected an integer"),
                "`{line}` -> `{err}`"
            );
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for (line, needle) in [
            ("", "expected `{`"),
            ("not json", "expected `{`"),
            ("{\"v\":1", "unterminated"),
            ("{\"v\":0,\"ev\":\"restart_start\",\"restart\":0}", "version"),
            ("{\"v\":3,\"ev\":\"restart_start\",\"restart\":0}", "version"),
            ("{\"v\":1,\"ev\":\"nope\"}", "unknown event tag"),
            ("{\"v\":1,\"ev\":\"restart_start\"}", "missing field `restart`"),
            (
                "{\"v\":1,\"ev\":\"restart_start\",\"restart\":\"x\"}",
                "expected an integer",
            ),
            (
                "{\"v\":1,\"ev\":\"restart_end\",\"restart\":0,\"iterations\":1,\"stop\":\"maybe\",\"discrete_cost\":1.0}",
                "unknown stop reason",
            ),
            ("{\"v\":1,\"ev\":\"restart_start\",\"restart\":0} trailing", "trailing"),
        ] {
            let err = TraceEvent::parse(line).expect_err(line);
            assert!(
                err.detail().contains(needle),
                "`{line}` -> `{err}` (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn log_histogram_buckets_powers_of_two() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        let occupied: Vec<(u64, u64)> = h.occupied().collect();
        assert_eq!(
            occupied,
            vec![(0, 1), (1, 1), (2, 2), (4, 2), (8, 1), (1024, 1)]
        );
    }

    #[test]
    fn log_histogram_percentiles_report_bucket_upper_bounds() {
        let mut h = LogHistogram::new();
        assert_eq!(h.percentile(0.5), 0, "empty histogram");
        for v in [1, 2, 3, 4, 5, 6, 7, 100, 100, 5000] {
            h.record(v);
        }
        // Ranks 1..=10: bucket uppers 1,3,3,7,7,7,7,127,127,8191.
        assert_eq!(h.percentile(0.10), 1);
        assert_eq!(h.percentile(0.50), 7);
        assert_eq!(h.percentile(0.80), 127);
        assert_eq!(h.percentile(1.0), 8191);
        // The estimate never understates: every upper bound ≥ its sample.
        let mut zeros = LogHistogram::new();
        zeros.record(0);
        assert_eq!(zeros.percentile(0.99), 0);
    }

    #[test]
    fn log_histogram_round_trips_and_diffs() {
        let mut base = LogHistogram::new();
        base.record(3);
        let copy = LogHistogram::from_buckets(*base.buckets());
        assert_eq!(copy, base);
        let mut later = base.clone();
        later.record(3);
        later.record(900);
        let delta = later.diff(&base);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.percentile(1.0), 1023);
        // A mismatched baseline saturates instead of wrapping.
        assert_eq!(base.diff(&later).count(), 0);
    }

    #[test]
    fn metrics_render_mentions_core_counters() {
        let mut m = SolveMetrics::new();
        let mut probe = m.begin_restart(0);
        probe.on_iteration(&IterationEvent {
            iteration: 0,
            cost: CostBreakdown {
                f1: 1.0,
                f2: 0.0,
                f3: 0.0,
                f4: 0.0,
                total: 1.0,
            },
            learning_rate: 0.1,
            gradient: &[0.5, -0.25],
            gradient_norm: 0.5,
            clipped: 2,
            recovered: false,
        });
        probe.on_restart_end(&RestartEndEvent {
            iterations: 1,
            stop_reason: StopReason::Margin,
            discrete_cost: 1.0,
        });
        m.absorb_restart(0, probe);
        m.on_solve_end(&SolveEndEvent {
            best_restart: 0,
            iterations: 1,
            stop_reason: StopReason::Margin,
            discrete_cost: 1.0,
            diverged_restarts: 0,
        });
        let rendered = m.render();
        assert!(rendered.contains("1 solve(s)"), "{rendered}");
        assert!(rendered.contains("margin=1"), "{rendered}");
        assert!(rendered.contains("clipped=2"), "{rendered}");
    }

    #[test]
    fn gradient_norm_is_infinity_norm() {
        // The solver fills the field from the fused descent sweep; its
        // contract is bit-equality with the lane-blocked kernel over the
        // borrowed slice.
        let gradient = &[0.5, -2.0, 1.5];
        let event = IterationEvent {
            iteration: 0,
            cost: CostBreakdown {
                f1: 0.0,
                f2: 0.0,
                f3: 0.0,
                f4: 0.0,
                total: 0.0,
            },
            learning_rate: 0.0,
            gradient,
            gradient_norm: crate::lanes::max_abs(gradient),
            clipped: 0,
            recovered: false,
        };
        assert!(crate::float::exactly(event.gradient_norm, 2.0));
    }
}

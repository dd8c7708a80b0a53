//! Algorithm 1: projected gradient descent on the relaxed cost.
//!
//! The loop follows the paper exactly — random row-stochastic init, full
//! gradient step, element-wise clamp to `[0,1]`, stop when the relative cost
//! change falls below `margin`, snap to per-row argmax — with three practical
//! additions that the paper leaves implicit ("the parameters of cost function
//! have been initialized randomly along with minimizing the dimensions to
//! find the solution quickly"):
//!
//! 1. **Step-size scaling.** The paper's update `w ← w − ΔF` has an implicit
//!    unit learning rate, but the normalizations `N₁..N₄` make the raw
//!    gradient O(1/G·K) — far too small to move anywhere before the margin
//!    test fires. The solver scales the first step so its largest component
//!    equals [`SolverOptions::initial_step`] and then adapts the rate
//!    (bold-driver: ×1.05 on improvement, ×0.5 on a cost increase).
//! 2. **`c₄` warm-up.** `F₄` is the only term that breaks the all-uniform
//!    saddle; ramping `c₄` from 0 to its final value over
//!    [`SolverOptions::c4_warmup`] iterations lets `F₁..F₃` shape the
//!    embedding before rows are forced one-hot (a continuation heuristic).
//!    Set to 0 to match the paper exactly.
//! 3. **Restarts + discrete polish.** Non-convex descent from a random start
//!    benefits from [`SolverOptions::restarts`] independent runs (scored by
//!    the discrete objective) and a final pass of the single-move polish of
//!    [`refine`](crate::refine), the only polish a solve runs.
//! 4. **The V-cycle.** With the polish on and more than 120 gates (and
//!    more than `4·K`), the solve first coarsens the problem by heavy-edge
//!    matching, level by level, as in Karypis–Kumar multilevel K-way
//!    (which §IV-A cites), then runs the descent on the coarsest level
//!    only. Each restart polishes its snap there, projects the labels one
//!    level finer, polishes again, and so on down to the input problem;
//!    each polish hands the gates it settled down to the next one (see
//!    [`refine`](crate::refine)), so a finer level prices only what the
//!    coarser one could not settle. A coarse gate carries the summed bias
//!    and area of its fine gates and the coarse edge list keeps every fine
//!    edge between two coarse gates, so a coarse labelling and its
//!    projection have the same plane loads and the same raw `Σ_E |Δ|^p`:
//!    the coarse descent minimizes the fine objective up to `F₁`'s
//!    normalization `N₁ = |E|·(K−1)^p`. The levels are built once per solve
//!    and shared by every restart; the restart selection scores each
//!    restart on the input problem.
//!
//! Every deviation can be switched off to reproduce the paper's literal
//! Algorithm 1 ([`SolverOptions::refine`] off also keeps the solve on one
//! level); the `ablations` bench in `sfq-bench` quantifies each one.
//!
//! # Failure modes & recovery
//!
//! The quartic `F₁` term and the bold-driver rate can overflow to `Inf`/`NaN`
//! on adversarial inputs. The descent loop therefore checks every cost
//! breakdown and gradient for finiteness; on a non-finite evaluation it rolls
//! the weights back to the last finite iterate and retries that iteration
//! with a halved learning rate (up to [`MAX_RECOVERIES`] halvings). A run
//! that cannot be rescued stops with [`StopReason::NonFinite`], rolled back
//! to its last finite weights, and loses the restart selection to any
//! surviving run — [`Solver::solve`] and [`Solver::try_solve`] never return
//! a partition derived from non-finite weights.
//!
//! Budgets ([`SolverOptions::deadline_ms`], [`SolverOptions::iteration_budget`])
//! truncate restarts with [`StopReason::BudgetExhausted`] but never reorder
//! or alter per-restart arithmetic: the iteration budget is pre-allocated to
//! restarts in index order before any of them runs, so parallel and
//! sequential execution still agree bit-for-bit. A wall-clock deadline is
//! inherently racy against the scheduler and may truncate at a different
//! iteration from run to run; the iterations it does complete are unchanged.
//!
//! [`Solver::try_solve`] is the non-panicking entry point: it validates the
//! options and the problem up front and reports failures as
//! [`SolveError`](crate::SolveError) values.

use std::borrow::Cow;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::assign::Partition;
use crate::budget::{Deadline, Interrupt, StopCause};
use crate::coarsen::Hierarchy;
use crate::cost::{CostBreakdown, CostWeights};
use crate::engine::{CostEngine, Csr, EngineOptions};
use crate::error::SolveError;
use crate::float;
use crate::grad::GradientOptions;
use crate::lanes;
use crate::problem::PartitionProblem;
use crate::refine::{discrete_cost, refine_on, Loads, Polished, RefineOptions, Sweep, Tally};
use crate::telemetry::{
    IterationEvent, NoopObserver, RecoveryEvent, RefineEvent, RestartEndEvent, RestartObserver,
    SolveEndEvent, SolveObserver, SolveStartEvent, UncoarsenEvent,
};
use crate::weights::WeightMatrix;

/// Maximum step-halving retries per iteration before a run is declared
/// terminally divergent. Sixty halvings scale a step by 2⁻⁶⁰ ≈ 10⁻¹⁸ — past
/// the [`StepVanished`](StopReason::StepVanished) floor, so further retries
/// cannot help.
pub const MAX_RECOVERIES: usize = 60;

/// Learning-rate floor below which the step is considered vanished.
const MIN_LEARNING_RATE: f64 = 1e-18;

/// Why the descent loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Relative cost change fell below the margin (Algorithm 1 line 14).
    Margin,
    /// The iteration cap was reached.
    MaxIterations,
    /// The adaptive step size collapsed to zero.
    StepVanished,
    /// The run produced non-finite cost or gradient values and step halving
    /// could not rescue it; its weights were rolled back to the last finite
    /// iterate before snapping.
    NonFinite,
    /// A solve-wide budget ([`SolverOptions::deadline_ms`] or
    /// [`SolverOptions::iteration_budget`]) truncated the run before its own
    /// [`SolverOptions::max_iterations`] cap.
    BudgetExhausted,
    /// An external [`CancelToken`](crate::budget::CancelToken) (passed via
    /// [`Solver::try_solve_interruptible`]) aborted the run between
    /// iterations or inside the refinement pass. The returned partition is
    /// the best finite iterate completed before the abort.
    Cancelled,
}

/// Maps an interrupt cause onto the stop reason it reports. An expired
/// deadline keeps the historical [`StopReason::BudgetExhausted`] spelling
/// (external deadlines and [`SolverOptions::deadline_ms`] are one
/// mechanism); cancellation gets its own variant so callers can tell an
/// abort from a timeout.
fn stop_reason_for(cause: StopCause) -> StopReason {
    match cause {
        StopCause::Deadline => StopReason::BudgetExhausted,
        StopCause::Cancelled => StopReason::Cancelled,
    }
}

/// Scripted fault plan: poisons chosen engine evaluations with `NaN`/`Inf`.
///
/// This is the chaos vocabulary of the `sfqpartd` wire (`options.fault`):
/// the service chaos suite and the `sfqbench` `service_mixed` workload
/// send poison jobs through it to drive the divergence-recovery and retry
/// paths deterministically, and the solver's own fault-injection tests
/// reach every recovery branch with it. The
/// service's result cache never stores a solve that carries a plan.
///
/// When [`SolverOptions::fault_injection`] is set, each descent run counts
/// its engine evaluations and poisons the scripted ones after the engine
/// returns. Indices count *evaluations* within one run (recovery retries
/// advance the counter too), so a one-shot fault at call `n` is rescued by
/// the retry at call `n + 1`. `None` (the default) costs one branch per
/// evaluation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultInjection {
    /// Cost calls (0-based) that report `NaN` in place of the true cost.
    pub nan_cost_at: Vec<usize>,
    /// Cost calls that report `+Inf` in place of the true cost.
    pub inf_cost_at: Vec<usize>,
    /// Cost calls whose subsequent gradient is poisoned with `NaN`.
    pub nan_grad_at: Vec<usize>,
    /// From this cost call onward, *every* cost and gradient is poisoned —
    /// models terminal divergence that no retry can rescue.
    pub poison_from: Option<usize>,
    /// Restrict the plan to one restart index (`None` = every restart).
    pub restart: Option<usize>,
}

impl FaultInjection {
    /// The poison value (if any) for cost call `call`.
    fn cost_poison(&self, call: usize) -> Option<f64> {
        if self.poison_from.is_some_and(|p| call >= p) || self.nan_cost_at.contains(&call) {
            Some(f64::NAN)
        } else if self.inf_cost_at.contains(&call) {
            Some(f64::INFINITY)
        } else {
            None
        }
    }

    /// True when the gradient belonging to cost call `call` is poisoned.
    fn poisons_gradient(&self, call: usize) -> bool {
        self.poison_from.is_some_and(|p| call >= p) || self.nan_grad_at.contains(&call)
    }

    /// True when the plan applies to restart `restart`.
    fn applies_to(&self, restart: usize) -> bool {
        self.restart.is_none_or(|r| r == restart)
    }
}

/// Solver configuration.
///
/// The default is the tuned configuration used by the table harnesses; for
/// the paper's literal Algorithm 1 use [`SolverOptions::paper_exact`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Term weights `c₁..c₄` (eq. 8).
    pub weights: CostWeights,
    /// Distance exponent `p` in `F₁` (the paper's 4).
    pub exponent: f64,
    /// Relative-change stopping margin (the paper's 10⁻⁴).
    pub margin: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Largest component of the *first* gradient step; the learning rate is
    /// derived from it and then adapted.
    pub initial_step: f64,
    /// Iterations over which `c₄` ramps linearly from 0 to its final value
    /// (0 = no warm-up).
    pub c4_warmup: usize,
    /// Number of independent random restarts; the best final partition (by
    /// discrete cost) wins.
    pub restarts: usize,
    /// RNG seed for the random initializations.
    pub seed: u64,
    /// Extra mass placed on one uniformly chosen plane per row at
    /// initialization (see [`WeightMatrix::random_spread`]); 0 is the
    /// paper's plain random init, which starves outer planes at large `K`.
    pub init_spread: f64,
    /// Use the gradient formulas exactly as printed in the paper's eq. 10
    /// (including its two typos) instead of the exact derivatives.
    pub paper_gradients: bool,
    /// Polish the snapped partition with discrete local moves. On a
    /// problem of more than 120 gates (and more than `4·K`) this also runs
    /// the solve as a V-cycle (see the module docs); off, the descent runs
    /// on the input problem, as the paper's Algorithm 1 does.
    pub refine: bool,
    /// Run restarts on parallel threads.
    pub parallel: bool,
    /// Wall-clock deadline for the whole solve (all restarts), in
    /// milliseconds. A run that overshoots stops gracefully with
    /// [`StopReason::BudgetExhausted`] and the best result so far wins.
    /// Unlike the iteration budget this is inherently nondeterministic in
    /// *where* it truncates; the iterations it completes are unchanged.
    pub deadline_ms: Option<u64>,
    /// Total-iteration budget shared by all restarts. The budget is
    /// pre-allocated to restarts in index order (each takes up to
    /// `max_iterations` from what remains; restarts left with zero are
    /// skipped), which keeps parallel and sequential execution bit-identical
    /// under truncation. Truncated runs stop with
    /// [`StopReason::BudgetExhausted`].
    pub iteration_budget: Option<usize>,
    /// Scripted fault plan for chaos traffic and recovery tests; see
    /// [`FaultInjection`]. `None` for ordinary solves.
    pub fault_injection: Option<FaultInjection>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            weights: CostWeights::default(),
            exponent: 4.0,
            margin: 1e-4,
            max_iterations: 2_000,
            initial_step: 0.05,
            c4_warmup: 200,
            restarts: 1,
            seed: 0x5f0_cafe,
            init_spread: 0.5,
            paper_gradients: false,
            refine: true,
            parallel: false,
            deadline_ms: None,
            iteration_budget: None,
            fault_injection: None,
        }
    }
}

impl SolverOptions {
    /// The paper's literal Algorithm 1: exact-as-printed gradients, no
    /// warm-up, no refinement, single restart.
    pub fn paper_exact() -> Self {
        SolverOptions {
            c4_warmup: 0,
            paper_gradients: true,
            refine: false,
            restarts: 1,
            init_spread: 0.0,
            ..SolverOptions::default()
        }
    }

    /// A heavier configuration for the result tables: more restarts in
    /// parallel.
    pub fn tuned(restarts: usize) -> Self {
        SolverOptions {
            restarts,
            parallel: restarts > 1,
            ..SolverOptions::default()
        }
    }

    /// The configuration that reproduces the paper's result band: pure
    /// gradient descent with exact gradients and **no** discrete
    /// refinement, eight restarts scored by discrete cost, and a slightly
    /// raised one-hot pressure (`c₄ = 4`).
    ///
    /// Empirically this lands on the paper's Table I band (d ≤ 1 around
    /// 65–77 %, `I_comp`/`A_FS` in single digits), whereas the default
    /// configuration's refinement pass pushes far past the paper (see the
    /// `ablations` bench).
    pub fn reproduction() -> Self {
        SolverOptions {
            weights: CostWeights {
                c4: 4.0,
                ..CostWeights::default()
            },
            restarts: 8,
            parallel: true,
            refine: false,
            ..SolverOptions::default()
        }
    }

    /// Checks that the options describe a runnable configuration.
    fn validate(&self) -> Result<(), SolveError> {
        fn bad(detail: impl Into<String>) -> Result<(), SolveError> {
            Err(SolveError::InvalidOptions {
                detail: detail.into(),
            })
        }
        if self.restarts == 0 {
            return bad("restarts must be > 0");
        }
        if !self.exponent.is_finite() || self.exponent < 1.0 {
            return bad(format!(
                "exponent must be finite and >= 1, got {}",
                self.exponent
            ));
        }
        if !self.margin.is_finite() {
            return bad(format!("margin must be finite, got {}", self.margin));
        }
        if !self.initial_step.is_finite() || self.initial_step <= 0.0 {
            return bad(format!(
                "initial_step must be finite and > 0, got {}",
                self.initial_step
            ));
        }
        if !self.init_spread.is_finite() || self.init_spread < 0.0 {
            return bad(format!(
                "init_spread must be finite and >= 0, got {}",
                self.init_spread
            ));
        }
        let cw = &self.weights;
        if ![cw.c1, cw.c2, cw.c3, cw.c4].iter().all(|c| c.is_finite()) {
            return bad("cost weights c1..c4 must all be finite");
        }
        if self.iteration_budget == Some(0) {
            return bad("iteration_budget must be > 0 when set (use deadline_ms: Some(0) to probe the budget path)");
        }
        Ok(())
    }
}

/// Result of [`Solver::solve`]. The relaxed cost of each descent iteration
/// reaches an observer as an iteration event (a trace's `iter` record, see
/// [`crate::telemetry`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The winning hard partition.
    pub partition: Partition,
    /// Descent iterations used by the winning restart (on the coarsest
    /// level under the V-cycle).
    pub iterations: usize,
    /// Why the winning restart stopped.
    pub stop_reason: StopReason,
    /// Discrete objective of the winning partition (after refinement).
    pub discrete_cost: f64,
    /// Index of the winning restart.
    pub best_restart: usize,
    /// Moves applied by the refinement pass, summed over every V-cycle
    /// level (0 if refinement disabled).
    pub refine_moves: usize,
    /// How many restarts ended in terminal divergence
    /// ([`StopReason::NonFinite`]) or produced a non-finite discrete cost
    /// and were excluded from the selection.
    pub diverged_restarts: usize,
}

impl SolveResult {
    /// Convenience: evaluates the quality metrics of the winning partition.
    pub fn metrics(&self, problem: &PartitionProblem) -> crate::metrics::PartitionMetrics {
        crate::metrics::PartitionMetrics::evaluate(problem, &self.partition)
    }
}

/// The ground-plane partitioning solver (Algorithm 1 plus the documented
/// extensions).
///
/// # Example
///
/// ```
/// use sfq_partition::{PartitionProblem, Solver, SolverOptions};
///
/// let edges: Vec<(u32, u32)> = (0..19).map(|i| (i, i + 1)).collect();
/// let problem = PartitionProblem::new(vec![1.0; 20], vec![1.0; 20], edges, 4)?;
/// let result = Solver::new(SolverOptions::default()).solve(&problem);
/// assert_eq!(result.partition.num_gates(), 20);
/// # Ok::<(), sfq_partition::ProblemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    options: SolverOptions,
}

impl Solver {
    /// Creates a solver with the given options.
    pub fn new(options: SolverOptions) -> Self {
        Solver { options }
    }

    /// The options in use.
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// Partitions `problem` into its `K` planes.
    ///
    /// Runs [`SolverOptions::restarts`] independent descents and returns the
    /// partition with the lowest discrete objective. For the non-panicking
    /// variant with up-front validation, use [`Solver::try_solve`].
    ///
    /// # Panics
    ///
    /// Panics if `restarts == 0`, or if every restart diverges terminally —
    /// an outcome [`Solver::try_solve`] reports as
    /// [`SolveError::AllRestartsDiverged`] instead.
    pub fn solve(&self, problem: &PartitionProblem) -> SolveResult {
        self.solve_observed(problem, &mut NoopObserver)
    }

    /// [`Solver::solve`] with a telemetry observer attached.
    ///
    /// The observer only *reads*: the returned result is bit-identical to a
    /// detached [`Solver::solve`] of the same configuration (pinned by the
    /// `observer_exactness` suite). See [`crate::telemetry`] for the event
    /// taxonomy and the fork/absorb protocol that keeps traces
    /// deterministic under parallel restarts.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Solver::solve`].
    pub fn solve_observed<O: SolveObserver>(
        &self,
        problem: &PartitionProblem,
        observer: &mut O,
    ) -> SolveResult {
        assert!(self.options.restarts > 0, "need at least one restart");
        match self.run_restarts(problem, &Interrupt::none(), observer) {
            Ok(result) => result,
            Err(e) => panic!("solve failed: {e}"),
        }
    }

    /// Non-panicking [`Solver::solve`]: validates the options and the
    /// problem, then runs the restarts with full divergence recovery.
    ///
    /// # Errors
    ///
    /// * [`SolveError::InvalidOptions`] — unusable configuration (zero
    ///   restarts, non-finite margin or step, exponent < 1, zero iteration
    ///   budget, …).
    /// * [`SolveError::InvalidProblem`] — the instance fails
    ///   [`PartitionProblem::validate`] (degenerate circuit, `K` out of
    ///   bounds, non-finite or negative bias/area, self-loops).
    /// * [`SolveError::AllRestartsDiverged`] — every restart hit terminal
    ///   non-finite values and no finite candidate survived.
    ///
    /// On success the returned partition is always finite and valid: runs
    /// that stop with [`StopReason::NonFinite`] are rolled back to their
    /// last finite weights and lose the selection to any surviving run.
    pub fn try_solve(&self, problem: &PartitionProblem) -> Result<SolveResult, SolveError> {
        self.try_solve_observed(problem, &mut NoopObserver)
    }

    /// [`Solver::try_solve`] with a telemetry observer attached; see
    /// [`Solver::solve_observed`] for the observer contract.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Solver::try_solve`] — observers cannot fail
    /// a solve (sinks like
    /// [`JsonlTraceWriter`](crate::telemetry::JsonlTraceWriter) hold I/O
    /// errors until their own `finish` call instead).
    pub fn try_solve_observed<O: SolveObserver>(
        &self,
        problem: &PartitionProblem,
        observer: &mut O,
    ) -> Result<SolveResult, SolveError> {
        self.try_solve_interruptible_observed(problem, &Interrupt::none(), observer)
    }

    /// [`Solver::try_solve`] under external control: `interrupt` bundles an
    /// optional wall-clock [`Deadline`] and an optional
    /// [`CancelToken`](crate::budget::CancelToken), polled between
    /// iterations, between restart forks, and inside the refinement pass.
    ///
    /// An interrupt deadline composes with [`SolverOptions::deadline_ms`]
    /// (whichever cuts off first wins). A fired interrupt is not an error:
    /// the solve still returns the best finite partition completed so far,
    /// with [`StopReason::BudgetExhausted`] (deadline) or
    /// [`StopReason::Cancelled`] (token) on the winning run. An interrupt
    /// that never fires leaves the solve bit-identical to
    /// [`Solver::try_solve`] — polling is read-only.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Solver::try_solve`].
    pub fn try_solve_interruptible(
        &self,
        problem: &PartitionProblem,
        interrupt: &Interrupt,
    ) -> Result<SolveResult, SolveError> {
        self.try_solve_interruptible_observed(problem, interrupt, &mut NoopObserver)
    }

    /// [`Solver::try_solve_interruptible`] with a telemetry observer
    /// attached; see [`Solver::solve_observed`] for the observer contract.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Solver::try_solve`].
    pub fn try_solve_interruptible_observed<O: SolveObserver>(
        &self,
        problem: &PartitionProblem,
        interrupt: &Interrupt,
        observer: &mut O,
    ) -> Result<SolveResult, SolveError> {
        self.options.validate()?;
        problem.validate()?;
        self.run_restarts(problem, interrupt, observer)
    }

    /// Runs all restarts and selects the winner.
    ///
    /// `inline(never)` pins one compiled copy per observer instantiation:
    /// without it, every call site (detached `solve`, `solve_observed`,
    /// benches timing both) can inline its own copy of the whole descent
    /// loop, and the copies optimize differently — sfqbench's
    /// `trace.overhead_pct` (traced over untraced flow time) would then
    /// compare codegen luck instead of observer cost.
    #[inline(never)]
    fn run_restarts<O: SolveObserver>(
        &self,
        problem: &PartitionProblem,
        interrupt: &Interrupt,
        observer: &mut O,
    ) -> Result<SolveResult, SolveError> {
        let opts = &self.options;
        // One merged interrupt drives every stop check: the external
        // deadline/cancel plus the options' own wall-clock budget.
        let interrupt = interrupt
            .clone()
            .tightened(Deadline::after_ms(opts.deadline_ms));

        observer.on_solve_start(&SolveStartEvent {
            gates: problem.num_gates(),
            planes: problem.num_planes(),
            edges: problem.edges().len(),
            restarts: opts.restarts,
            max_iterations: opts.max_iterations,
            parallel: opts.parallel,
        });

        // The V-cycle's levels, built once and read by every restart. With
        // refinement off there is nothing to refine the levels with, so
        // the paper's literal Algorithm 1 keeps the input problem.
        let hierarchy = if opts.refine {
            Hierarchy::build(problem, &interrupt, |event| observer.on_coarsen(event))
        } else {
            Hierarchy::default()
        };

        // Pre-allocate the iteration budget to restarts in index order.
        // This is what keeps budgets deterministic: restart r's cap depends
        // only on the options, never on how fast other threads progress.
        let mut caps = Vec::with_capacity(opts.restarts);
        let mut remaining = opts.iteration_budget;
        for _ in 0..opts.restarts {
            let cap = match remaining.as_mut() {
                None => opts.max_iterations,
                Some(rem) => {
                    let cap = opts.max_iterations.min(*rem);
                    *rem -= cap;
                    cap
                }
            };
            caps.push(cap);
        }
        // A restart whose allocation is zero never runs (unless the per-run
        // cap itself is zero, where running it is free and preserves the
        // unbudgeted behavior).
        let planned: Vec<(usize, usize)> = caps
            .into_iter()
            .enumerate()
            .filter(|&(_, cap)| cap > 0 || opts.max_iterations == 0)
            .collect();

        // Fork one restart observer per planned restart, in index order and
        // before any restart runs — each one travels to its restart's thread
        // and is merged back (below) in index order, so the observed event
        // stream is identical for serial and parallel execution.
        let jobs: Vec<(usize, usize, O::Restart)> = planned
            .into_iter()
            .map(|(r, cap)| (r, cap, observer.begin_restart(r)))
            .collect();
        let outcomes: Vec<(usize, SolveResult, O::Restart)> = if opts.parallel && jobs.len() > 1 {
            // Thread creation is confined to the engine (clippy.toml); results
            // come back in restart order, matching the serial branch.
            crate::engine::parallel_map(jobs, |(r, cap, mut restart_observer)| {
                let result = self.run_once(
                    problem,
                    &hierarchy,
                    r,
                    cap,
                    &interrupt,
                    &mut restart_observer,
                );
                (r, result, restart_observer)
            })
        } else {
            jobs.into_iter()
                .map(|(r, cap, mut restart_observer)| {
                    let result = self.run_once(
                        problem,
                        &hierarchy,
                        r,
                        cap,
                        &interrupt,
                        &mut restart_observer,
                    );
                    (r, result, restart_observer)
                })
                .collect()
        };
        let mut runs: Vec<SolveResult> = Vec::with_capacity(outcomes.len());
        for (r, result, restart_observer) in outcomes {
            observer.absorb_restart(r, restart_observer);
            runs.push(result);
        }

        // Selection: a run only qualifies with a finite discrete cost, and
        // terminally diverged runs lose to any clean survivor.
        let diverged = runs
            .iter()
            .filter(|r| r.stop_reason == StopReason::NonFinite || !r.discrete_cost.is_finite())
            .count();
        let finite = |r: &&SolveResult| r.discrete_cost.is_finite();
        let clean = runs
            .iter()
            .filter(finite)
            .filter(|r| r.stop_reason != StopReason::NonFinite);
        let best = match clean.min_by(|a, b| a.discrete_cost.total_cmp(&b.discrete_cost)) {
            Some(best) => best,
            None => match runs
                .iter()
                .filter(finite)
                .min_by(|a, b| a.discrete_cost.total_cmp(&b.discrete_cost))
            {
                Some(best) => best,
                None => {
                    return Err(SolveError::AllRestartsDiverged {
                        restarts: opts.restarts,
                    })
                }
            },
        };
        let mut best = best.clone();
        best.diverged_restarts = diverged;
        observer.on_solve_end(&SolveEndEvent {
            best_restart: best.best_restart,
            iterations: best.iterations,
            stop_reason: best.stop_reason,
            discrete_cost: best.discrete_cost,
            diverged_restarts: diverged,
        });
        Ok(best)
    }

    /// One restart: a gradient-descent run from the `restart`-th random
    /// start on the hierarchy's coarsest problem, capped at `iter_cap`
    /// iterations (its share of any solve-wide budget), then the polish at
    /// that level and, after projecting the labels one level finer, at
    /// every finer level down to `problem`. With no levels this is the
    /// flat run: descent and polish on `problem` itself.
    ///
    /// Telemetry-only work (projection clip counting, the pre-refine
    /// discrete cost) is gated on [`RestartObserver::ENABLED`], so the
    /// [`NoopObserver`] monomorphization is instruction-for-instruction the
    /// unobserved solve.
    fn run_once<R: RestartObserver>(
        &self,
        problem: &PartitionProblem,
        hierarchy: &Hierarchy,
        restart: usize,
        iter_cap: usize,
        interrupt: &Interrupt,
        observer: &mut R,
    ) -> SolveResult {
        let opts = &self.options;
        let coarsest = hierarchy.coarsest(problem);
        let g = coarsest.num_gates();
        let k = coarsest.num_planes();
        let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_add(restart as u64));
        let mut w = WeightMatrix::random_spread(g, k, opts.init_spread, &mut rng);

        // Checked *between restart forks*: a restart that starts after the
        // interrupt fired (deadline expired or job cancelled while an
        // earlier restart ran) skips engine construction, descent, and
        // refinement entirely — it snaps its random init, projects it onto
        // `problem` and returns, so a fired interrupt costs at most one
        // O(G·K) snap per remaining restart (plus the O(G + E) discrete
        // cost, which builds no adjacency) instead of a CSR build plus a
        // full refinement sweep.
        if let Some(cause) = interrupt.poll() {
            let stop_reason = stop_reason_for(cause);
            let snapped = hierarchy.project_to_input(Partition::from_weights(&w));
            let dc = discrete_cost(problem, &snapped, opts.weights, opts.exponent);
            observer.on_refine(&RefineEvent {
                moves: 0,
                cost_before: if R::ENABLED { dc } else { f64::NAN },
                cost_after: dc,
            });
            observer.on_restart_end(&RestartEndEvent {
                iterations: 0,
                stop_reason,
                discrete_cost: dc,
            });
            return SolveResult {
                partition: snapped,
                iterations: 0,
                stop_reason,
                discrete_cost: dc,
                best_restart: restart,
                refine_moves: 0,
                diverged_restarts: 0,
            };
        }

        let grad_opts = if opts.paper_gradients {
            GradientOptions::as_printed()
        } else {
            GradientOptions::exact()
        };
        // A V-cycle's coarsest level has its adjacency already; a flat run
        // builds the problem's.
        let csr = hierarchy
            .coarsest_csr()
            .map_or_else(|| Cow::Owned(Csr::new(coarsest)), Cow::Borrowed);
        let mut engine = CostEngine::with_csr(
            coarsest,
            csr,
            opts.weights,
            opts.exponent,
            EngineOptions {
                gradient: grad_opts,
            },
        );
        let mut faults = opts
            .fault_injection
            .as_ref()
            .filter(|plan| plan.applies_to(restart))
            .map(|plan| FaultCounter { plan, calls: 0 });
        // Four G·stride buffers, swapped and never copied. `w` and `step`
        // are the current iterate and its gradient; `w_prev` and
        // `prev_step` are the last finite iterate and the gradient the
        // step into `w` was taken along — the rollback state for divergence
        // recovery (the clamp is not invertible, so the pre-step weights
        // must be kept). Each stepped iteration swaps the pairs and writes
        // `w = clamp(w_prev − rate·prev_step)` from the swapped-out source,
        // so every entry of the stale `w` is overwritten and the next
        // evaluation overwrites the stale `step`. A recovery retry re-steps
        // `w` from the same pair at the halved rate; a terminal divergence
        // swaps `w_prev` back into `w`. All four use the matrix's padded
        // lane layout; the engine keeps the step padding at `±0.0`, so the
        // descend kernels stream whole padded rows.
        let mut step = vec![0.0; w.padded_len()];
        let mut w_prev = w.clone();
        let mut prev_step = vec![0.0; w.padded_len()];

        let mut learning_rate = 0.0f64;
        let mut cost_old = f64::INFINITY;
        let budget_limited = iter_cap < opts.max_iterations;
        let mut stop_reason = if budget_limited {
            StopReason::BudgetExhausted
        } else {
            StopReason::MaxIterations
        };
        let mut iterations = 0usize;

        for iter in 0..iter_cap {
            if let Some(cause) = interrupt.poll() {
                stop_reason = stop_reason_for(cause);
                break;
            }

            // c4 warm-up (continuation).
            if opts.c4_warmup > 0 {
                let ramp = ((iter as f64) / (opts.c4_warmup as f64)).min(1.0);
                engine.set_weights(CostWeights {
                    c4: opts.weights.c4 * ramp,
                    ..opts.weights
                });
            }

            // Cost and gradient come out of one engine pass, evaluated up
            // front so divergence is caught before the step is applied.
            let mut breakdown = evaluate(&mut engine, faults.as_mut(), &w, &mut step);

            // Divergence recovery: on a non-finite cost or gradient, roll
            // back to the last finite iterate and retry its step at half the
            // rate. `iter == 0` has no finite iterate to retry from, and a
            // rate below the vanish floor cannot move anywhere — both are
            // terminal.
            let mut recovered = false;
            if !eval_is_finite(&breakdown, &step) {
                if iter > 0 {
                    for attempt in 0..MAX_RECOVERIES {
                        learning_rate *= 0.5;
                        if learning_rate < MIN_LEARNING_RATE {
                            break;
                        }
                        observer.on_recovery(&RecoveryEvent {
                            iteration: iter,
                            attempt: attempt + 1,
                            learning_rate,
                        });
                        w.descend_from(&w_prev, &prev_step, learning_rate);
                        breakdown = evaluate(&mut engine, faults.as_mut(), &w, &mut step);
                        if w.all_finite() && eval_is_finite(&breakdown, &step) {
                            recovered = true;
                            break;
                        }
                    }
                }
                if !recovered {
                    stop_reason = StopReason::NonFinite;
                    if iter > 0 {
                        // Snap from the last finite weights, not the
                        // diverged ones.
                        std::mem::swap(&mut w, &mut w_prev);
                    }
                    break;
                }
            }
            let cost_new = breakdown.total;
            iterations = iter + 1;
            // One iteration event per completed iteration. The three break
            // paths below stop *before* applying a step, so they report a
            // zero learning rate and clip count.
            fn stopped_event<'a>(
                iter: usize,
                breakdown: CostBreakdown,
                step: &'a [f64],
                recovered: bool,
            ) -> IterationEvent<'a> {
                IterationEvent {
                    iteration: iter,
                    cost: breakdown,
                    learning_rate: 0.0,
                    gradient: step,
                    // At most one stopped event per restart, so this extra
                    // pass is off the per-iteration hot path (stepped
                    // iterations get the norm fused into the descent sweep).
                    gradient_norm: crate::lanes::max_abs(step),
                    clipped: 0,
                    recovered,
                }
            }

            // Margin test (Algorithm 1 line 14), robust to sign changes and
            // skipped while c4 is still ramping.
            let ramping = opts.c4_warmup > 0 && iter < opts.c4_warmup;
            if !ramping && cost_old.is_finite() {
                let denom = cost_old.abs().max(1e-12);
                if ((cost_new - cost_old) / denom).abs() <= opts.margin {
                    stop_reason = StopReason::Margin;
                    observer.on_iteration(&stopped_event(iter, breakdown, &step, recovered));
                    break;
                }
            }

            // Derive / adapt the learning rate.
            // Exact: 0.0 is this loop's own "not yet derived" sentinel.
            if float::exactly(learning_rate, 0.0) {
                let max_component = lanes::max_abs(&step);
                if max_component <= 0.0 {
                    stop_reason = StopReason::StepVanished;
                    observer.on_iteration(&stopped_event(iter, breakdown, &step, recovered));
                    break;
                }
                learning_rate = opts.initial_step / max_component;
            } else if cost_old.is_finite() {
                if cost_new <= cost_old {
                    learning_rate *= 1.05;
                } else {
                    learning_rate *= 0.5;
                }
            }
            if learning_rate < MIN_LEARNING_RATE {
                stop_reason = StopReason::StepVanished;
                observer.on_iteration(&stopped_event(iter, breakdown, &step, recovered));
                break;
            }

            // The finite iterate becomes the rollback state, and the step
            // is taken from it into the stale buffer.
            std::mem::swap(&mut w, &mut w_prev);
            std::mem::swap(&mut step, &mut prev_step);
            // The counting variant applies the bit-identical update (see
            // `WeightMatrix::descend_from_counting`); the count and the
            // fused infinity norm are telemetry-only work, so the disabled
            // path keeps the plain call.
            let (clipped, gradient_norm) = if R::ENABLED {
                w.descend_from_counting(&w_prev, &prev_step, learning_rate)
            } else {
                w.descend_from(&w_prev, &prev_step, learning_rate);
                (0, f64::NAN)
            };
            observer.on_iteration(&IterationEvent {
                iteration: iter,
                cost: breakdown,
                learning_rate,
                gradient: &prev_step,
                gradient_norm,
                clipped,
                recovered,
            });
            cost_old = cost_new;
        }

        debug_assert!(w.all_finite(), "descent loop leaked non-finite weights");
        let snapped = Partition::from_weights(&w);
        // The descent's four buffers and its engine are dead from here on,
        // except for the engine's adjacency, which refine reads: free the
        // rest before refine builds its own state, so a restart's peak
        // memory is the descent's alone.
        let csr = engine.into_csr();
        drop((w, w_prev, step, prev_step));
        // Telemetry-only: the pre-refine discrete cost exists solely for the
        // refine event, so the disabled path never computes it. It is the
        // snap's cost on `problem`, whatever level the snap labels.
        let cost_before = if R::ENABLED {
            let projected = hierarchy.project_to_input(snapped.clone());
            discrete_cost(problem, &projected, opts.weights, opts.exponent)
        } else {
            f64::NAN
        };
        // With refinement off the hierarchy has no levels, so the snap
        // already labels `problem`.
        let (partition, refine_moves, refine_stop) = if opts.refine {
            self.polish_levels(
                problem,
                hierarchy,
                &csr,
                snapped,
                interrupt,
                |level, gates, tally| {
                    observer.on_uncoarsen(&UncoarsenEvent {
                        level,
                        gates,
                        refine_moves: tally.moves,
                    });
                },
            )
        } else {
            drop(csr);
            (snapped, 0, None)
        };
        // An interrupt that truncated refinement overrides the descent's
        // stop reason — the run did not finish its polish, and a service
        // needs Cancelled/BudgetExhausted to surface. NonFinite stays
        // sticky: the restart selection uses it to demote diverged runs.
        if stop_reason != StopReason::NonFinite {
            if let Some(cause) = refine_stop {
                stop_reason = stop_reason_for(cause);
            }
        }
        let dc = discrete_cost(problem, &partition, opts.weights, opts.exponent);
        observer.on_refine(&RefineEvent {
            moves: refine_moves,
            cost_before,
            cost_after: dc,
        });
        observer.on_restart_end(&RestartEndEvent {
            iterations,
            stop_reason,
            discrete_cost: dc,
        });
        SolveResult {
            partition,
            iterations,
            stop_reason,
            discrete_cost: dc,
            best_restart: restart,
            refine_moves,
            diverged_restarts: 0,
        }
    }

    /// The polish of one restart. Refines `snapped`, a labelling of the
    /// hierarchy's coarsest problem (whose adjacency is `csr`), there; then
    /// projects the labels one level finer and refines them again, level by
    /// level down to `problem`, handing the gates each polish settled to
    /// the next level (see [`crate::refine`]). The labels and the sweep's
    /// buffers are allocated once, at `problem`'s size, and every level
    /// reuses them. Calls `on_level` with each finer level's index, gate
    /// count and tally. Once an interrupt has cut a polish short, the
    /// remaining levels are projected only. Returns the labels of
    /// `problem`, the moves of every level and the interrupt cause.
    fn polish_levels(
        &self,
        problem: &PartitionProblem,
        hierarchy: &Hierarchy,
        csr: &Csr,
        snapped: Partition,
        interrupt: &Interrupt,
        mut on_level: impl FnMut(usize, usize, &Tally),
    ) -> (Partition, usize, Option<StopCause>) {
        let options = RefineOptions {
            weights: self.options.weights,
            exponent: self.options.exponent,
            max_passes: 40,
        };
        let planes = snapped.num_planes();
        let mut labels = snapped.into_labels();
        labels.reserve_exact(problem.num_gates() - labels.len());
        let mut sweep = Sweep::with_capacity(problem.num_gates());
        let coarsest = Loads::of(hierarchy.coarsest(problem));
        let mut polished = refine_on(coarsest, csr, labels, &options, interrupt, &mut sweep, None);
        let mut moves = polished.tally.moves;
        for level in (0..hierarchy.depth()).rev() {
            let (finer, csr) = hierarchy.finer(level, problem);
            let mut labels = polished.partition.into_labels();
            hierarchy.project(level, &mut labels);
            polished = match polished.stopped {
                None => refine_on(
                    finer,
                    csr,
                    labels,
                    &options,
                    interrupt,
                    &mut sweep,
                    Some(hierarchy.map_of(level)),
                ),
                stopped => Polished {
                    partition: Partition::from_labels(labels, planes)
                        .unwrap_or_else(|_| unreachable!("projected labels stay in range")),
                    tally: Tally::default(),
                    stopped,
                },
            };
            on_level(level, finer.num_gates(), &polished.tally);
            moves += polished.tally.moves;
        }
        (polished.partition, moves, polished.stopped)
    }
}

/// True when the cost breakdown and every gradient component are finite.
fn eval_is_finite(breakdown: &CostBreakdown, step: &[f64]) -> bool {
    breakdown.is_finite() && lanes::all_finite(step)
}

/// One evaluation of `F` and `∂F/∂w` at `w` — Algorithm 1's per-iteration
/// work — with the restart's scripted faults, if any, applied to the
/// engine's output.
fn evaluate(
    engine: &mut CostEngine<'_>,
    faults: Option<&mut FaultCounter<'_>>,
    w: &WeightMatrix,
    step: &mut [f64],
) -> CostBreakdown {
    let mut breakdown = engine.evaluate_with_gradient(w, step);
    if let Some(faults) = faults {
        faults.poison(&mut breakdown, step);
    }
    breakdown
}

/// A restart's [`FaultInjection`] plan and the number of evaluations it
/// has seen.
struct FaultCounter<'p> {
    plan: &'p FaultInjection,
    calls: usize,
}

impl FaultCounter<'_> {
    /// Poisons the evaluation just made if the plan scripts it, then
    /// advances the call count.
    fn poison(&mut self, breakdown: &mut CostBreakdown, step: &mut [f64]) {
        let call = self.calls;
        self.calls += 1;
        if let Some(poison) = self.plan.cost_poison(call) {
            breakdown.f1 = poison;
            breakdown.total = poison;
        }
        if self.plan.poisons_gradient(call) {
            if let Some(first) = step.first_mut() {
                *first = f64::NAN;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionMetrics;
    use crate::telemetry::{TraceCollector, TraceEvent};

    fn chain(n: u32, k: usize) -> PartitionProblem {
        PartitionProblem::new(
            vec![1.0; n as usize],
            vec![10.0; n as usize],
            (0..n - 1).map(|i| (i, i + 1)).collect(),
            k,
        )
        .unwrap()
    }

    /// `try_solve` with a trace attached: the result, and the relaxed cost
    /// of each iteration of the winning restart, read from its `iter`
    /// records.
    fn traced_solve(options: SolverOptions, p: &PartitionProblem) -> (SolveResult, Vec<f64>) {
        let mut trace = TraceCollector::new();
        let result = Solver::new(options)
            .try_solve_observed(p, &mut trace)
            .expect("solves");
        let best = result.best_restart as u64;
        let costs = trace
            .events()
            .iter()
            .filter_map(|event| match *event {
                TraceEvent::Iteration { restart, total, .. } if restart == best => Some(total),
                _ => None,
            })
            .collect();
        (result, costs)
    }

    /// Two dense clusters joined by one edge — the obvious 2-way partition.
    fn two_clusters() -> PartitionProblem {
        let mut edges = Vec::new();
        for i in 0..8u32 {
            for j in (i + 1)..8 {
                edges.push((i, j));
            }
        }
        for i in 8..16u32 {
            for j in (i + 1)..16 {
                edges.push((i, j));
            }
        }
        edges.push((0, 8));
        PartitionProblem::new(vec![1.0; 16], vec![1.0; 16], edges, 2).unwrap()
    }

    #[test]
    fn solves_two_clusters_cleanly() {
        let p = two_clusters();
        let result = Solver::new(SolverOptions::default()).solve(&p);
        let m = PartitionMetrics::evaluate(&p, &result.partition);
        // The single bridge edge is the only acceptable cut.
        assert_eq!(m.cut_size(), 1, "labels: {:?}", result.partition.labels());
        assert_eq!(m.i_comp_ma, 0.0);
    }

    #[test]
    fn chain_partition_is_balanced_and_local() {
        let p = chain(40, 4);
        let result = Solver::new(SolverOptions::tuned(3)).solve(&p);
        let m = result.metrics(&p);
        // A chain admits a perfect contiguous split; allow slight slack.
        assert!(m.i_comp_pct < 15.0, "I_comp = {}", m.i_comp_pct);
        assert!(
            m.cumulative_fraction(1) > 0.9,
            "d<=1 = {}",
            m.cumulative_fraction(1)
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = chain(20, 3);
        let (a, a_costs) = traced_solve(SolverOptions::default(), &p);
        let (b, b_costs) = traced_solve(SolverOptions::default(), &p);
        assert_eq!(a.partition, b.partition);
        assert_eq!(a_costs, b_costs);
    }

    #[test]
    fn parallel_restarts_match_sequential() {
        let p = chain(20, 3);
        // Restart-level threading must not change the outcome.
        let mut opts = SolverOptions::tuned(3);
        opts.parallel = false;
        let (seq, seq_costs) = traced_solve(opts.clone(), &p);
        opts.parallel = true;
        let (par, par_costs) = traced_solve(opts, &p);
        assert_eq!(seq.partition, par.partition);
        assert_eq!(seq.best_restart, par.best_restart);
        assert_eq!(seq_costs, par_costs);
    }

    #[test]
    fn relaxed_cost_trends_downward() {
        let p = chain(30, 3);
        let (_, h) = traced_solve(SolverOptions::default(), &p);
        assert!(h.len() >= 2);
        // Compare averages of the first and last quarters (descent is not
        // strictly monotone under the adaptive rate, but must trend down
        // after the warm-up).
        let warm = SolverOptions::default().c4_warmup.min(h.len() - 1);
        let tail = &h[warm..];
        if tail.len() >= 4 {
            let q = tail.len() / 4;
            let head_avg: f64 = tail[..q].iter().sum::<f64>() / q as f64;
            let tail_avg: f64 = tail[tail.len() - q..].iter().sum::<f64>() / q as f64;
            assert!(
                tail_avg <= head_avg + 1e-9,
                "head {head_avg} vs tail {tail_avg}"
            );
        }
    }

    #[test]
    fn paper_exact_mode_runs_and_produces_valid_partition() {
        let p = chain(20, 4);
        let result = Solver::new(SolverOptions::paper_exact()).solve(&p);
        assert_eq!(result.partition.num_gates(), 20);
        assert_eq!(result.partition.num_planes(), 4);
        assert_eq!(result.refine_moves, 0);
    }

    #[test]
    fn stop_reason_is_margin_or_cap() {
        let p = chain(10, 2);
        let result = Solver::new(SolverOptions::default()).solve(&p);
        assert!(matches!(
            result.stop_reason,
            StopReason::Margin | StopReason::MaxIterations | StopReason::StepVanished
        ));
    }

    #[test]
    fn more_restarts_never_hurt() {
        let p = two_clusters();
        let one = Solver::new(SolverOptions::tuned(1)).solve(&p);
        let four = Solver::new(SolverOptions::tuned(4)).solve(&p);
        assert!(four.discrete_cost <= one.discrete_cost + 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one restart")]
    fn zero_restarts_panics() {
        let p = chain(4, 2);
        let opts = SolverOptions {
            restarts: 0,
            ..SolverOptions::default()
        };
        let _ = Solver::new(opts).solve(&p);
    }

    #[test]
    fn try_solve_matches_solve_on_clean_input() {
        let p = chain(20, 3);
        let solver = Solver::new(SolverOptions::default());
        let a = solver.solve(&p);
        let b = solver.try_solve(&p).expect("clean input solves");
        assert_eq!(a, b);
    }

    #[test]
    fn try_solve_rejects_bad_options() {
        let p = chain(10, 2);
        for opts in [
            SolverOptions {
                restarts: 0,
                ..SolverOptions::default()
            },
            SolverOptions {
                initial_step: f64::NAN,
                ..SolverOptions::default()
            },
            SolverOptions {
                initial_step: -1.0,
                ..SolverOptions::default()
            },
            SolverOptions {
                margin: f64::INFINITY,
                ..SolverOptions::default()
            },
            SolverOptions {
                exponent: 0.5,
                ..SolverOptions::default()
            },
            SolverOptions {
                init_spread: -0.5,
                ..SolverOptions::default()
            },
            SolverOptions {
                iteration_budget: Some(0),
                ..SolverOptions::default()
            },
            SolverOptions {
                weights: CostWeights {
                    c1: f64::NAN,
                    ..CostWeights::default()
                },
                ..SolverOptions::default()
            },
        ] {
            let err = Solver::new(opts.clone()).try_solve(&p).unwrap_err();
            assert!(
                matches!(err, SolveError::InvalidOptions { .. }),
                "{opts:?} -> {err:?}"
            );
        }
    }

    #[test]
    fn try_solve_rejects_invalid_problem() {
        let p = chain(4, 2).with_planes(8).unwrap(); // more planes than gates
        let err = Solver::new(SolverOptions::default())
            .try_solve(&p)
            .unwrap_err();
        assert!(matches!(err, SolveError::InvalidProblem(_)), "{err:?}");
    }

    #[test]
    fn iteration_budget_truncates_deterministically() {
        let p = chain(20, 3);
        let mut opts = SolverOptions::tuned(3);
        opts.parallel = false;
        opts.iteration_budget = Some(opts.max_iterations + 50);
        let (seq, seq_costs) = traced_solve(opts.clone(), &p);
        opts.parallel = true;
        let (par, par_costs) = traced_solve(opts.clone(), &p);
        assert_eq!(seq.partition, par.partition);
        assert_eq!(seq.best_restart, par.best_restart);
        assert_eq!(seq_costs, par_costs);
        // Restart 0 runs in full; restart 1 gets 50 iterations; restart 2
        // is skipped entirely. The winner ran under the same arithmetic as
        // an unbudgeted run of the same restart.
        opts.iteration_budget = None;
        opts.parallel = false;
        let (unbudgeted, unbudgeted_costs) = traced_solve(opts, &p);
        if seq.best_restart == unbudgeted.best_restart {
            assert_eq!(seq_costs, unbudgeted_costs);
        }
    }

    #[test]
    fn zero_deadline_exhausts_budget_gracefully() {
        let p = chain(20, 3);
        let opts = SolverOptions {
            deadline_ms: Some(0),
            ..SolverOptions::default()
        };
        let result = Solver::new(opts)
            .try_solve(&p)
            .expect("still yields best-so-far");
        assert_eq!(result.stop_reason, StopReason::BudgetExhausted);
        assert_eq!(result.iterations, 0);
        assert_eq!(result.partition.num_gates(), 20);
    }

    #[test]
    fn fault_injection_single_nan_recovers() {
        let p = chain(20, 3);
        let opts = SolverOptions {
            fault_injection: Some(FaultInjection {
                nan_cost_at: vec![10],
                ..FaultInjection::default()
            }),
            ..SolverOptions::default()
        };
        let (result, costs) = traced_solve(opts, &p);
        assert_ne!(result.stop_reason, StopReason::NonFinite);
        assert!(result.discrete_cost.is_finite());
        assert!(costs.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn fault_injection_terminal_divergence_falls_back_to_survivor() {
        let p = chain(20, 3);
        let mut opts = SolverOptions::tuned(3);
        opts.parallel = false;
        opts.fault_injection = Some(FaultInjection {
            poison_from: Some(0),
            restart: Some(0),
            ..FaultInjection::default()
        });
        let result = Solver::new(opts).try_solve(&p).expect("survivors exist");
        assert_ne!(result.best_restart, 0, "poisoned restart must lose");
        assert_eq!(result.diverged_restarts, 1);
        assert!(result.discrete_cost.is_finite());
    }

    #[test]
    fn fault_injection_everywhere_reports_all_diverged_or_survives() {
        // Poisoning every call of every restart leaves each run stopped at
        // NonFinite with its initial (finite) weights — still a valid
        // fallback partition, reported as diverged.
        let p = chain(10, 2);
        let opts = SolverOptions {
            fault_injection: Some(FaultInjection {
                poison_from: Some(0),
                ..FaultInjection::default()
            }),
            ..SolverOptions::default()
        };
        let result = Solver::new(opts)
            .try_solve(&p)
            .expect("initial weights are finite");
        assert_eq!(result.stop_reason, StopReason::NonFinite);
        assert_eq!(result.diverged_restarts, 1);
        assert!(result.discrete_cost.is_finite());
        assert_eq!(result.partition.num_gates(), 10);
    }

    /// Exact work counts of the V-cycle's finest polish at the 10⁶-gate
    /// tier, sfqbench's first `s1m_k5` flow at seed 7 (`ScaleSpec` and
    /// solver seeded 7, budget 8): the polish is replayed level by level
    /// from the coarse snap the solve descends to, and it must end on the
    /// solve's labels. Level 0 prices under 1 % of its gates and visits
    /// under 5 % of its `passes × G` scan. Seconds in release, far longer
    /// in debug: `cargo test -q --release -p sfq-partition --lib --
    /// --ignored`.
    #[test]
    #[ignore = "S1M: run in release"]
    fn s1m_finest_polish_prices_and_visits_few_gates() {
        use sfq_circuits::scale::{scale_problem, ScaleSpec};
        let generated = scale_problem(&ScaleSpec::new("S1M", 1_000_000, 7));
        let p = PartitionProblem::new(generated.bias, generated.area, generated.edges, 5).unwrap();
        let options = SolverOptions {
            seed: 7,
            iteration_budget: Some(8),
            ..SolverOptions::default()
        };
        let hierarchy = Hierarchy::build(&p, &Interrupt::none(), |_| {});
        let coarsest = hierarchy.coarsest(&p);
        // The solve's one restart descends on the coarsest level exactly
        // as a refine-off solve of that level does.
        let snapped = Solver::new(SolverOptions {
            refine: false,
            ..options.clone()
        })
        .solve(coarsest)
        .partition;
        let solver = Solver::new(options);
        let mut finest = None;
        let (partition, _, stopped) = solver.polish_levels(
            &p,
            &hierarchy,
            hierarchy.coarsest_csr().expect("S1M coarsens"),
            snapped,
            &Interrupt::none(),
            |level, _, tally| {
                if level == 0 {
                    finest = Some(*tally);
                }
            },
        );
        assert!(stopped.is_none());
        assert_eq!(partition, solver.solve(&p).partition);
        let tally = finest.expect("S1M coarsens");
        let g = p.num_gates();
        assert_eq!(
            (tally.moves, tally.passes, tally.priced, tally.visits),
            (229, 6, 8_491, 131_594)
        );
        assert!(100 * tally.priced <= g);
        assert!(20 * tally.visits <= tally.passes * g);
    }

    /// Exact work counts of a deep-K V-cycle polish: the seed-7 default
    /// solve of C1908 at K = 30, replayed level by level from its coarse
    /// snap as above. Every level visits every gate on every pass (the
    /// visit set certifies nothing at this depth), and each level's moves,
    /// passes, visits and gates priced are pinned. Of the visits that skip
    /// pricing, the `O(1)` test of `cannot_improve` must settle at least
    /// 90 %; it fails if that test silently stops firing.
    #[test]
    fn c1908_k30_polish_settles_most_clean_visits_in_constant_time() {
        use sfq_circuits::registry::{generate, Benchmark};
        let p = PartitionProblem::from_netlist(&generate(Benchmark::C1908), 30).unwrap();
        let options = SolverOptions {
            seed: 7,
            ..SolverOptions::default()
        };
        let none = Interrupt::none();
        let hierarchy = Hierarchy::build(&p, &none, |_| {});
        let coarsest = hierarchy.coarsest(&p);
        let csr = hierarchy.coarsest_csr().expect("C1908 coarsens at K = 30");
        let snapped = Solver::new(SolverOptions {
            refine: false,
            ..options.clone()
        })
        .solve(coarsest)
        .partition;
        let refine_options = RefineOptions {
            weights: options.weights,
            exponent: options.exponent,
            max_passes: 40,
        };
        // The coarsest level's polish, which `polish_levels` reports to no
        // callback.
        let mut tallies = vec![(
            coarsest.num_gates(),
            refine_on(
                Loads::of(coarsest),
                csr,
                snapped.labels().to_vec(),
                &refine_options,
                &none,
                &mut Sweep::with_capacity(coarsest.num_gates()),
                None,
            )
            .tally,
        )];
        let solver = Solver::new(options);
        let (partition, _, stopped) =
            solver.polish_levels(&p, &hierarchy, csr, snapped, &none, |_, gates, tally| {
                tallies.push((gates, *tally));
            });
        assert!(stopped.is_none());
        assert_eq!(partition, solver.solve(&p).partition);
        let counts: Vec<_> = tallies
            .iter()
            .map(|&(gates, t)| (gates, t.moves, t.passes, t.visits, t.priced))
            .collect();
        assert_eq!(
            counts,
            [
                (66, 97, 7, 462, 428),
                (123, 78, 5, 615, 491),
                (237, 103, 5, 1_185, 864),
                (455, 227, 8, 3_640, 1_549),
                (872, 195, 8, 6_976, 2_059),
                (1_695, 408, 6, 10_170, 3_759),
            ]
        );
        let skipped: usize = tallies.iter().map(|(_, t)| t.visits - t.priced).sum();
        let bounded: usize = tallies.iter().map(|(_, t)| t.bounded).sum();
        assert_eq!(skipped, 13_898);
        assert!(
            10 * bounded >= 9 * skipped,
            "the O(1) test settled {bounded} of {skipped} skipped visits"
        );
    }

    /// What the V-cycle's levels hold at the 10⁶-gate tier, on the seed-7
    /// S1M input of sfqbench's `s1m_k5`: each level its map, loads and CSR,
    /// and only the coarsest an edge list too, the problem the descent
    /// runs on. The bytes of the ten levels and the input's CSR are pinned;
    /// when every level kept its problem's edge list they were 89 750 720,
    /// 18 439 552 of them edge lists. Release only, as above.
    #[test]
    #[ignore = "S1M: run in release"]
    fn s1m_hierarchy_keeps_one_edge_list() {
        use sfq_circuits::scale::{scale_problem, ScaleSpec};
        let generated = scale_problem(&ScaleSpec::new("S1M", 1_000_000, 7));
        let p = PartitionProblem::new(generated.bias, generated.area, generated.edges, 5).unwrap();
        let hierarchy = Hierarchy::build(&p, &Interrupt::none(), |_| {});
        let (levels, input_csr) = hierarchy.held_bytes();
        let edge_lists: Vec<bool> = levels.iter().map(|&(_, edges)| edges).collect();
        let mut expect = vec![false; 10];
        expect[9] = true;
        assert_eq!(edge_lists, expect);
        let held = input_csr + levels.iter().map(|&(bytes, _)| bytes).sum::<usize>();
        assert_eq!(held, 71_416_576);
    }
}

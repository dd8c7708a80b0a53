//! Discrete local-move refinement of a hard partition.
//!
//! Gradient descent on the relaxed cost ends with an `argmax` snap; the snap
//! can strand individual gates on the wrong side of a boundary. This module
//! polishes the snapped partition with a greedy single-gate move pass over
//! the *discrete* analogue of the paper's objective,
//!
//! ```text
//! F_d = c₁·Σ_E d(e)^p / N₁ + c₂·Var_k(B_k)/N₂ + c₃·Var_k(A_k)/N₃
//! ```
//!
//! (`F₄` is identically minimal for any hard assignment and drops out).
//! Moves are evaluated incrementally and applied best-improvement-first per
//! gate, sweeping until a full pass makes no improving move or
//! `max_passes` is reached. This is the classic Fiduccia–Mattheyses-style
//! polish adapted to the paper's ordered-plane, distance-weighted
//! objective; the solver enables it by default and the `ablations` bench
//! quantifies its contribution.
//!
//! Pricing a gate's best move costs `O(deg(i)·K)`: neighbors come from the
//! engine's CSR adjacency (one contiguous slice per gate, built once per
//! call, or handed over by the solver's engine), and edge distances from a
//! K×K table of `|a − b|^p`, so the sweep reads each neighbor's label once
//! and prices all `K − 1` targets from it.
//!
//! Most visits after the first pass skip that sweep in `O(K)`. A gate is
//! *clean* while neither it nor any neighbor has moved since it was last
//! priced; its raw `F₁` deltas then repeat bit for bit, so the smallest
//! weighted `F₁` term recorded at that pricing (its *floor*) plus each
//! target's balance terms at the current plane loads bounds each target's
//! gain from below, exactly, since rounded addition is monotone. A clean
//! gate whose every bound clears the improvement threshold cannot move and
//! is not priced. The visiting order, the threshold and every move are the
//! same as with every gate priced on every pass.

use crate::assign::Partition;
use crate::budget::{Interrupt, StopCause};
use crate::cost::CostWeights;
use crate::engine::{Csr, SRC_BIT};
use crate::problem::PartitionProblem;

/// How many gate moves are evaluated between [`Interrupt`] polls inside a
/// sweep. Small enough that a deadline'd or cancelled job stops within
/// microseconds even on million-gate instances; large enough that the poll
/// (one atomic load, maybe one clock read) is invisible in profile.
const POLL_STRIDE: usize = 128;

/// A move (or a swap) is applied only when its gain is below this.
const IMPROVING_GAIN: f64 = -1e-15;

/// Options for [`refine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOptions {
    /// Term weights (`c₄` is ignored — see module docs).
    pub weights: CostWeights,
    /// Distance exponent `p` (the paper's 4).
    pub exponent: f64,
    /// Maximum number of full sweeps.
    pub max_passes: usize,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            weights: CostWeights::default(),
            exponent: 4.0,
            max_passes: 40,
        }
    }
}

/// Computes the discrete objective `F_d` of a hard partition (see module
/// docs). Lower is better; 0 is a perfectly balanced, cut-free partition.
///
/// One `O(G + E + K²)` pass: plane loads over the gates, `F₁` over the edge
/// list. No adjacency is built.
///
/// # Panics
///
/// Panics if the partition does not match the problem's dimensions.
pub fn discrete_cost(
    problem: &PartitionProblem,
    partition: &Partition,
    weights: CostWeights,
    exponent: f64,
) -> f64 {
    check_dims(problem, partition);
    let labels = partition.labels();
    Objective::new(problem, labels, weights, exponent).total_cost(problem, labels)
}

fn check_dims(problem: &PartitionProblem, partition: &Partition) {
    assert_eq!(problem.num_gates(), partition.num_gates());
    assert_eq!(problem.num_planes(), partition.num_planes());
}

/// Greedily improves `partition` by single-gate moves; returns the refined
/// partition and the number of moves applied.
///
/// # Panics
///
/// Panics if the partition does not match the problem's dimensions.
pub fn refine(
    problem: &PartitionProblem,
    partition: &Partition,
    options: &RefineOptions,
) -> (Partition, usize) {
    let (partition, moves, _) =
        refine_interruptible(problem, partition, options, &Interrupt::none());
    (partition, moves)
}

/// Like [`refine`] but polling `interrupt` between passes and every
/// [`POLL_STRIDE`] gates within a pass. On interruption the sweep stops
/// immediately and the partition refined *so far* is returned together with
/// the [`StopCause`]; every applied move is still a strict improvement, so a
/// truncated refinement is always at least as good as its input.
///
/// # Panics
///
/// Panics if the partition does not match the problem's dimensions.
pub fn refine_interruptible(
    problem: &PartitionProblem,
    partition: &Partition,
    options: &RefineOptions,
    interrupt: &Interrupt,
) -> (Partition, usize, Option<StopCause>) {
    refine_on(problem, &Csr::new(problem), partition, options, interrupt)
}

/// [`refine_interruptible`] over a prebuilt adjacency; `csr` must be
/// `Csr::new(problem)`.
pub(crate) fn refine_on(
    problem: &PartitionProblem,
    csr: &Csr,
    partition: &Partition,
    options: &RefineOptions,
    interrupt: &Interrupt,
) -> (Partition, usize, Option<StopCause>) {
    let mut state = MoveState::new(problem, csr, partition, options.weights, options.exponent);
    let (tally, stopped) = single_moves(&mut state, options.max_passes, interrupt);
    (state.into_partition(), tally.moves, stopped)
}

/// What one [`single_moves`] call did: the moves it applied, the passes it
/// began and the gate visits it priced with [`MoveState::best_move_and_floor`]
/// (the other visits were clean gates that could not move).
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) moves: usize,
    pub(crate) passes: usize,
    pub(crate) priced: usize,
}

/// The single-move sweeps of [`refine_interruptible`] over `state`: up to
/// `max_passes` passes, each offering every gate, in index order, its best
/// move. Returns the tally and the interrupt cause, if one fired.
///
/// A clean gate (see the module docs) is first tested with
/// [`MoveState::cannot_improve`] and skipped when the test holds; every
/// other visit prices the gate in full. Applying a move dirties the mover
/// and each of its neighbors. The per-gate state (a clean bit and an `F₁`
/// floor, 9 bytes) is allocated once per call.
fn single_moves(
    state: &mut MoveState<'_>,
    max_passes: usize,
    interrupt: &Interrupt,
) -> (Tally, Option<StopCause>) {
    let num_gates = state.num_gates();
    let mut clean = vec![false; num_gates];
    let mut floor = vec![0.0; num_gates];
    let mut tally = Tally::default();
    for _ in 0..max_passes {
        if let Some(cause) = interrupt.poll() {
            return (tally, Some(cause));
        }
        tally.passes += 1;
        let mut improved = false;
        for gate in 0..num_gates {
            if gate % POLL_STRIDE == 0 && gate > 0 {
                if let Some(cause) = interrupt.poll() {
                    return (tally, Some(cause));
                }
            }
            if clean[gate] && state.cannot_improve(gate, floor[gate]) {
                continue;
            }
            tally.priced += 1;
            let (best, f1_floor) = state.best_move_and_floor(gate);
            clean[gate] = true;
            floor[gate] = f1_floor;
            if let Some((target, gain)) = best {
                if gain < IMPROVING_GAIN {
                    state.apply(gate, target);
                    clean[gate] = false;
                    for &nbr in state.csr.neighbors_of(gate) {
                        clean[(nbr & !SRC_BIT) as usize] = false;
                    }
                    tally.moves += 1;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    (tally, None)
}

/// Like [`refine`] but additionally attempting *pair swaps* across every cut
/// edge once the single-move pass converges. Swapping two gates between
/// their planes preserves gate counts and (for similar cells) bias/area
/// almost exactly, so it escapes the balance-locked local optima where any
/// single move would unbalance the planes. Returns the refined partition and
/// the total number of applied moves (single moves + 2 per swap).
///
/// # Panics
///
/// Panics if the partition does not match the problem's dimensions.
pub fn refine_with_swaps(
    problem: &PartitionProblem,
    partition: &Partition,
    options: &RefineOptions,
) -> (Partition, usize) {
    let (partition, moves, _) =
        refine_with_swaps_interruptible(problem, partition, options, &Interrupt::none());
    (partition, moves)
}

/// Like [`refine_with_swaps`] but polling `interrupt` between passes (and
/// inside every single-move sweep, as [`refine_interruptible`] does). See
/// [`refine_interruptible`] for the truncation contract.
///
/// The adjacency is built once per call; each pass re-derives only the
/// `O(G + K)` labels and plane loads of its move states.
///
/// # Panics
///
/// Panics if the partition does not match the problem's dimensions.
pub fn refine_with_swaps_interruptible(
    problem: &PartitionProblem,
    partition: &Partition,
    options: &RefineOptions,
    interrupt: &Interrupt,
) -> (Partition, usize, Option<StopCause>) {
    refine_with_swaps_on(problem, &Csr::new(problem), partition, options, interrupt)
}

/// [`refine_with_swaps_interruptible`] over a prebuilt adjacency; `csr` must
/// be `Csr::new(problem)`.
pub(crate) fn refine_with_swaps_on(
    problem: &PartitionProblem,
    csr: &Csr,
    partition: &Partition,
    options: &RefineOptions,
    interrupt: &Interrupt,
) -> (Partition, usize, Option<StopCause>) {
    let new_state = |partition: &Partition, weights: CostWeights| {
        MoveState::new(problem, csr, partition, weights, options.exponent)
    };
    let mut state = new_state(partition, options.weights);
    let (tally, mut stopped) = single_moves(&mut state, options.max_passes, interrupt);
    let mut moves = tally.moves;
    let mut current = state.into_partition();
    if stopped.is_some() {
        return (current, moves, stopped);
    }
    let connectivity_only = CostWeights {
        c2: 0.0,
        c3: 0.0,
        ..options.weights
    };
    'passes: for _ in 0..options.max_passes {
        if let Some(cause) = interrupt.poll() {
            stopped = Some(cause);
            break;
        }
        // Candidate generation: where would each gate go if only
        // connectivity mattered? Gates wishing to cross the same boundary
        // in opposite directions are swap partners.
        let mut f1_view = new_state(&current, connectivity_only);
        // BTreeMap, not HashMap: `pairs` below is built by iterating this
        // map, and swap order decides which trades win — hash order would
        // make the refined partition differ run to run (rule D1).
        let mut wishes: std::collections::BTreeMap<(u32, u32), Vec<usize>> =
            std::collections::BTreeMap::new();
        for gate in 0..problem.num_gates() {
            if let Some((target, gain)) = f1_view.best_move(gate) {
                if gain < IMPROVING_GAIN {
                    wishes
                        .entry((f1_view.labels[gate], target))
                        .or_default()
                        .push(gate);
                }
            }
        }

        let mut state = new_state(&current, options.weights);
        let mut improved = false;
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (&(p, q), forward) in &wishes {
            if p >= q {
                continue; // each unordered plane pair handled once
            }
            if let Some(backward) = wishes.get(&(q, p)) {
                pairs.extend(forward.iter().zip(backward).map(|(&u, &v)| (u, v)));
            }
        }
        for (index, (u, v)) in pairs.into_iter().enumerate() {
            if index % POLL_STRIDE == 0 && index > 0 {
                if let Some(cause) = interrupt.poll() {
                    stopped = Some(cause);
                    current = state.into_partition();
                    break 'passes;
                }
            }
            let pu = state.labels[u];
            let pv = state.labels[v];
            if pu == pv {
                continue; // an earlier swap already moved one of them
            }
            // Trial: move u into v's plane, then v into u's old plane; the
            // second gain is evaluated *after* the first move, so the pair
            // gain is exact.
            let g1 = state.move_gain(u, pv);
            state.apply(u, pv);
            let g2 = state.move_gain(v, pu);
            if g1 + g2 < IMPROVING_GAIN {
                state.apply(v, pu);
                moves += 2;
                improved = true;
            } else {
                state.apply(u, pu); // revert
            }
        }
        if !improved {
            current = state.into_partition();
            break;
        }
        // Swaps may open new single-move improvements. The polish starts
        // from freshly summed plane loads, as a fresh refine would.
        let mut polish = new_state(&state.into_partition(), options.weights);
        let (more, cause) = single_moves(&mut polish, options.max_passes, interrupt);
        current = polish.into_partition();
        moves += more.moves;
        if cause.is_some() {
            stopped = cause;
            break;
        }
    }
    (current, moves, stopped)
}

/// The discrete objective's bookkeeping for one labelling: per-plane loads,
/// normalizations and the distance-power table. Everything a move's gain
/// needs except the labels and the adjacency.
struct Objective {
    weights: CostWeights,
    k: usize,
    /// `dist[a·K + b] = kernel::pow_abs(|a − b|, p)`: the `F₁` term of an
    /// edge between planes `a` and `b`. The table is symmetric, so row `a`
    /// prices an edge to a gate on plane `a` from every plane.
    dist: Vec<f64>,
    plane_bias: Vec<f64>,
    plane_area: Vec<f64>,
    n1: f64,
    n2: f64,
    n3: f64,
    b_mean: f64,
    a_mean: f64,
}

impl Objective {
    fn new(
        problem: &PartitionProblem,
        labels: &[u32],
        weights: CostWeights,
        exponent: f64,
    ) -> Self {
        let k = problem.num_planes();
        let mut dist = Vec::with_capacity(k * k);
        for a in 0..k as i64 {
            for b in 0..k as i64 {
                dist.push(crate::kernel::pow_abs(
                    (a - b).unsigned_abs() as f64,
                    exponent,
                ));
            }
        }
        let mut plane_bias = vec![0.0; k];
        let mut plane_area = vec![0.0; k];
        for ((&p, &b), &a) in labels.iter().zip(problem.bias()).zip(problem.area()) {
            plane_bias[p as usize] += b;
            plane_area[p as usize] += a;
        }
        let kf = k as f64;
        let b_mean = problem.total_bias() / kf;
        let a_mean = problem.total_area() / kf;
        let nz = |x: f64| if x > 0.0 { x } else { 1.0 };
        Objective {
            weights,
            k,
            dist,
            plane_bias,
            plane_area,
            n1: nz(problem.num_edges() as f64 * (kf - 1.0).powf(exponent)),
            n2: nz((kf - 1.0) * b_mean * b_mean),
            n3: nz((kf - 1.0) * a_mean * a_mean),
            b_mean,
            a_mean,
        }
    }

    /// Row `plane` of the distance table: the `F₁` term of an edge from a
    /// gate on `plane` to a gate on each plane `0..K`.
    #[inline]
    fn dist_row(&self, plane: u32) -> &[f64] {
        let at = plane as usize * self.k;
        &self.dist[at..at + self.k]
    }

    /// `F_d` of `labels`, whose plane loads this objective holds. `F₁`
    /// accumulates in edge-list order.
    fn total_cost(&self, problem: &PartitionProblem, labels: &[u32]) -> f64 {
        let mut f1 = 0.0;
        for &(u, v) in problem.edges() {
            f1 += self.dist_row(labels[u as usize])[labels[v as usize] as usize];
        }
        f1 /= self.n1;
        let kf = self.k as f64;
        let f2 = self
            .plane_bias
            .iter()
            .map(|&b| (b - self.b_mean) * (b - self.b_mean))
            .sum::<f64>()
            / (kf * self.n2);
        let f3 = self
            .plane_area
            .iter()
            .map(|&a| (a - self.a_mean) * (a - self.a_mean))
            .sum::<f64>()
            / (kf * self.n3);
        self.weights.c1 * f1 + self.weights.c2 * f2 + self.weights.c3 * f3
    }

    /// The target-independent half of moving `gate` off plane `from`.
    #[inline]
    fn leaving(&self, problem: &PartitionProblem, gate: usize, from: usize) -> Leaving {
        let b = problem.bias()[gate];
        let a = problem.area()[gate];
        let bp = self.plane_bias[from];
        let ap = self.plane_area[from];
        Leaving {
            b,
            a,
            bias_after: (bp - b - self.b_mean).powi(2),
            bias_before: (bp - self.b_mean).powi(2),
            area_after: (ap - a - self.a_mean).powi(2),
            area_before: (ap - self.a_mean).powi(2),
        }
    }

    /// Cost delta of moving the gate `leaving` describes to `target`, given
    /// the raw (unnormalized) `F₁` delta of its incident edges.
    #[inline]
    fn gain(&self, leaving: &Leaving, target: usize, d_f1: f64) -> f64 {
        self.plus_balance(leaving, target, self.f1_term(d_f1))
    }

    /// The weighted `F₁` term `c₁·ΔF₁/N₁` of a raw `F₁` delta.
    #[inline]
    fn f1_term(&self, d_f1: f64) -> f64 {
        self.weights.c1 * (d_f1 / self.n1)
    }

    /// `f1_term + c₂·ΔF₂ + c₃·ΔF₃`, added in that order, for moving the gate
    /// `leaving` describes to `target` at the current plane loads. Rounded
    /// addition is monotone in each argument, so a smaller `f1_term` never
    /// yields a larger result: the clean-gate bound and the gain share this
    /// one expression.
    #[inline]
    fn plus_balance(&self, leaving: &Leaving, target: usize, f1_term: f64) -> f64 {
        let kf = self.k as f64;
        let bq = self.plane_bias[target];
        let d_f2 = (leaving.bias_after + (bq + leaving.b - self.b_mean).powi(2)
            - leaving.bias_before
            - (bq - self.b_mean).powi(2))
            / (kf * self.n2);
        let aq = self.plane_area[target];
        let d_f3 = (leaving.area_after + (aq + leaving.a - self.a_mean).powi(2)
            - leaving.area_before
            - (aq - self.a_mean).powi(2))
            / (kf * self.n3);
        f1_term + self.weights.c2 * d_f2 + self.weights.c3 * d_f3
    }

    /// Moves `gate`'s bias and area from plane `from` to `target`.
    fn apply(&mut self, problem: &PartitionProblem, gate: usize, from: usize, target: usize) {
        let b = problem.bias()[gate];
        let a = problem.area()[gate];
        self.plane_bias[from] -= b;
        self.plane_area[from] -= a;
        self.plane_bias[target] += b;
        self.plane_area[target] += a;
    }
}

/// What a gate's move gain needs from the plane it leaves, whatever the
/// target: its bias `b` and area `a`, and the squared deviations of that
/// plane's loads from their means after and before the move.
struct Leaving {
    b: f64,
    a: f64,
    /// `(B_from − b − B̄)²`.
    bias_after: f64,
    /// `(B_from − B̄)²`.
    bias_before: f64,
    /// `(A_from − a − Ā)²`.
    area_after: f64,
    /// `(A_from − Ā)²`.
    area_before: f64,
}

/// Incremental move evaluation state (shared with the annealing baseline).
pub(crate) struct MoveState<'a> {
    problem: &'a PartitionProblem,
    /// Incident neighbors; parallel edges appear once per copy, matching
    /// their cost.
    csr: &'a Csr,
    labels: Vec<u32>,
    objective: Objective,
    /// Scratch for [`MoveState::best_move`]: the raw `F₁` delta of moving
    /// the current gate to each plane (`K` entries).
    f1_delta: Vec<f64>,
}

impl<'a> MoveState<'a> {
    /// A move state for `partition`; `csr` must be `Csr::new(problem)`.
    pub(crate) fn new(
        problem: &'a PartitionProblem,
        csr: &'a Csr,
        partition: &Partition,
        weights: CostWeights,
        exponent: f64,
    ) -> Self {
        check_dims(problem, partition);
        debug_assert_eq!(csr.offsets.len(), problem.num_gates() + 1);
        let labels = partition.labels().to_vec();
        let objective = Objective::new(problem, &labels, weights, exponent);
        MoveState {
            problem,
            csr,
            labels,
            objective,
            f1_delta: vec![0.0; problem.num_planes()],
        }
    }

    fn num_gates(&self) -> usize {
        self.labels.len()
    }

    pub(crate) fn total_cost(&self) -> f64 {
        self.objective.total_cost(self.problem, &self.labels)
    }

    /// Cost delta of moving `gate` to plane `target`.
    pub(crate) fn move_gain(&self, gate: usize, target: u32) -> f64 {
        let from = self.labels[gate];
        if from == target {
            return 0.0;
        }
        let (from, target) = (from as usize, target as usize);
        let mut d_f1 = 0.0;
        for &nbr in self.csr.neighbors_of(gate) {
            let row = self
                .objective
                .dist_row(self.labels[(nbr & !SRC_BIT) as usize]);
            d_f1 += row[target] - row[from];
        }
        let leaving = self.objective.leaving(self.problem, gate, from);
        self.objective.gain(&leaving, target, d_f1)
    }

    /// Best (most negative gain) target plane for `gate`, if any differs;
    /// ties go to the lowest plane.
    ///
    /// One sweep over the neighbors reads each label once and accumulates
    /// every target's raw `F₁` delta side by side. Each target's delta sees
    /// the same additions in the same neighbor order as in
    /// [`Self::move_gain`], so the returned gain equals
    /// `move_gain(gate, target)` bit for bit.
    pub(crate) fn best_move(&mut self, gate: usize) -> Option<(u32, f64)> {
        self.best_move_and_floor(gate).0
    }

    /// [`Self::best_move`] together with the gate's `F₁` floor: the smallest
    /// weighted `F₁` term `c₁·ΔF₁/N₁` over its targets, a by-product of the
    /// same sweep (`+∞` when no target differs).
    ///
    /// The running minima are kept with selects rather than branches: which
    /// target wins varies from gate to gate, so a branch on it would
    /// mispredict.
    pub(crate) fn best_move_and_floor(&mut self, gate: usize) -> (Option<(u32, f64)>, f64) {
        let from = self.labels[gate] as usize;
        self.f1_delta.fill(0.0);
        for &nbr in self.csr.neighbors_of(gate) {
            let row = self
                .objective
                .dist_row(self.labels[(nbr & !SRC_BIT) as usize]);
            let here = row[from];
            for (delta, &there) in self.f1_delta.iter_mut().zip(row) {
                *delta += there - here;
            }
        }
        let leaving = self.objective.leaving(self.problem, gate, from);
        let mut best_target = usize::MAX;
        let mut best_gain = f64::INFINITY;
        let mut floor = f64::INFINITY;
        for (target, &d_f1) in self.f1_delta.iter().enumerate() {
            let f1_term = self.objective.f1_term(d_f1);
            let gain = self.objective.plus_balance(&leaving, target, f1_term);
            // The first target other than `from` always takes the lead; a
            // later one only on a strictly smaller gain.
            let better = target != from && (best_target == usize::MAX || gain < best_gain);
            best_target = if better { target } else { best_target };
            best_gain = if better { gain } else { best_gain };
            let lower = target != from && f1_term < floor;
            floor = if lower { f1_term } else { floor };
        }
        let best = if best_target == usize::MAX {
            None
        } else {
            Some((best_target as u32, best_gain))
        };
        (best, floor)
    }

    /// True when no move of `gate` can have a gain below the improvement
    /// threshold, given `floor`, the gate's `F₁` floor from its last
    /// pricing, and given that neither it nor any neighbor has moved since.
    ///
    /// Each target's `F₁` term then repeats bit for bit and is at least
    /// `floor`, so `plus_balance(floor)` at the current plane loads is at
    /// most the target's gain, with no rounding margin. `O(K)`; reads no
    /// neighbor.
    pub(crate) fn cannot_improve(&self, gate: usize, floor: f64) -> bool {
        let from = self.labels[gate] as usize;
        let leaving = self.objective.leaving(self.problem, gate, from);
        (0..self.objective.k).all(|target| {
            target == from || self.objective.plus_balance(&leaving, target, floor) >= IMPROVING_GAIN
        })
    }

    pub(crate) fn apply(&mut self, gate: usize, target: u32) {
        let from = self.labels[gate] as usize;
        self.objective
            .apply(self.problem, gate, from, target as usize);
        self.labels[gate] = target;
    }

    /// Clones the current labels into a [`Partition`] without consuming the
    /// state (used by the annealing baseline's best-so-far snapshots).
    pub(crate) fn snapshot_partition(&self) -> Partition {
        Partition::from_labels(self.labels.clone(), self.objective.k)
            .unwrap_or_else(|_| unreachable!("labels stay in range"))
    }

    pub(crate) fn into_partition(self) -> Partition {
        Partition::from_labels(self.labels, self.objective.k)
            .unwrap_or_else(|_| unreachable!("labels stay in range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: u32, k: usize) -> PartitionProblem {
        PartitionProblem::new(
            vec![1.0; n as usize],
            vec![10.0; n as usize],
            (0..n - 1).map(|i| (i, i + 1)).collect(),
            k,
        )
        .unwrap()
    }

    #[test]
    fn discrete_cost_zero_for_perfect_split() {
        let p = chain(4, 2);
        // {0,1} | {2,3}: one cut of distance 1.
        let part = Partition::from_labels(vec![0, 0, 1, 1], 2).unwrap();
        let c = discrete_cost(&p, &part, CostWeights::default(), 4.0);
        // F1 = 1/(3·1) = 1/3, balance perfect.
        assert!((c - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn refine_fixes_a_stranded_gate() {
        let p = chain(6, 2);
        // Gate 5 stranded on the overloaded plane 0: moving it improves both
        // locality and balance, and the follow-up move of gate 3 restores
        // the perfect contiguous split.
        let part = Partition::from_labels(vec![0, 0, 0, 0, 1, 0], 2).unwrap();
        let (refined, moves) = refine(&p, &part, &RefineOptions::default());
        assert!(moves >= 2);
        let before = discrete_cost(&p, &part, CostWeights::default(), 4.0);
        let after = discrete_cost(&p, &refined, CostWeights::default(), 4.0);
        assert!(after < before);
        // Balance is restored exactly (3 gates per plane)…
        let m = crate::metrics::PartitionMetrics::evaluate(&p, &refined);
        assert_eq!(m.i_comp_ma, 0.0);
        // …and locality is at least as good as a two-cut split.
        assert!(m.cut_size() <= 2);
    }

    #[test]
    fn refine_is_idempotent_at_local_optimum() {
        let p = chain(8, 2);
        let part = Partition::from_labels(vec![0, 0, 0, 0, 1, 1, 1, 1], 2).unwrap();
        let (once, moves1) = refine(&p, &part, &RefineOptions::default());
        assert_eq!(moves1, 0, "perfect split is locally optimal");
        assert_eq!(once, part);
    }

    #[test]
    fn refine_never_increases_cost() {
        use rand::Rng;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..10 {
            let n = rng.random_range(5..40) as u32;
            let k = rng.random_range(2..6);
            let mut edges = Vec::new();
            for i in 1..n {
                edges.push((rng.random_range(0..i), i));
            }
            let bias: Vec<f64> = (0..n).map(|_| rng.random_range(0.2..2.0)).collect();
            let area: Vec<f64> = (0..n).map(|_| rng.random_range(1.0..9.0)).collect();
            let p = PartitionProblem::new(bias, area, edges, k).unwrap();
            let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..k as u32)).collect();
            let part = Partition::from_labels(labels, k).unwrap();
            let before = discrete_cost(&p, &part, CostWeights::default(), 4.0);
            let (refined, _) = refine(&p, &part, &RefineOptions::default());
            let after = discrete_cost(&p, &refined, CostWeights::default(), 4.0);
            assert!(
                after <= before + 1e-12,
                "trial {trial}: cost rose {before} -> {after}"
            );
        }
    }

    #[test]
    fn move_gain_matches_recomputation() {
        let p = chain(6, 3);
        let part = Partition::from_labels(vec![0, 1, 2, 0, 1, 2], 3).unwrap();
        let csr = Csr::new(&p);
        let state = MoveState::new(&p, &csr, &part, CostWeights::default(), 4.0);
        let base = state.total_cost();
        for gate in 0..6usize {
            for target in 0..3u32 {
                let mut moved = part.clone();
                moved.move_gate(gate, target as usize);
                let expect = discrete_cost(&p, &moved, CostWeights::default(), 4.0) - base;
                let got = state.move_gain(gate, target);
                assert!(
                    (expect - got).abs() < 1e-10,
                    "gate {gate} -> {target}: {expect} vs {got}"
                );
            }
        }
    }

    #[test]
    fn best_move_gain_is_move_gain_bit_for_bit() {
        use rand::Rng;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..12 {
            let n = rng.random_range(6..50) as u32;
            let k = rng.random_range(2..9);
            let mut edges = Vec::new();
            for i in 1..n {
                let j = rng.random_range(0..i);
                edges.push((j, i));
                // Parallel edges (same pair, either direction) and extra
                // fan-in, so neighbor lists repeat gates.
                if rng.random_bool(0.3) {
                    edges.push((i, j));
                }
                if rng.random_bool(0.3) {
                    edges.push((rng.random_range(0..i), i));
                }
            }
            let p = PartitionProblem::new(
                (0..n).map(|_| rng.random_range(0.2..2.0)).collect(),
                (0..n).map(|_| rng.random_range(1.0..9.0)).collect(),
                edges,
                k,
            )
            .unwrap();
            let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..k as u32)).collect();
            let part = Partition::from_labels(labels, k).unwrap();
            let csr = Csr::new(&p);
            for weights in [
                CostWeights::default(),
                CostWeights {
                    c2: 0.0,
                    c3: 0.0,
                    ..CostWeights::default()
                },
            ] {
                let mut state = MoveState::new(&p, &csr, &part, weights, 4.0);
                for gate in 0..n as usize {
                    let (target, gain) = state.best_move(gate).expect("K >= 2");
                    let expect = state.move_gain(gate, target);
                    assert_eq!(
                        gain.to_bits(),
                        expect.to_bits(),
                        "trial {trial} gate {gate} -> {target}: {gain} vs {expect}"
                    );
                    // And it is the first of the smallest gains.
                    for other in 0..k as u32 {
                        if other != state.labels[gate] {
                            let g = state.move_gain(gate, other);
                            assert!(
                                g > gain || (crate::float::exactly(g, gain) && other >= target)
                            );
                        }
                    }
                }
            }
        }
    }

    /// An exact work count, not a timing: on the budgeted S10K snap (the
    /// shape of `tests/bit_identity.rs`), the clean-gate test must leave
    /// fewer than half of the `passes × G` visits to be priced. It fails if
    /// the skip silently stops skipping.
    #[test]
    fn clean_gates_skip_most_visits_on_the_budgeted_s10k_snap() {
        use sfq_circuits::scale::{scale_problem, ScaleTier};
        let generated = scale_problem(&ScaleTier::S10k.spec());
        let p = PartitionProblem::new(generated.bias, generated.area, generated.edges, 5).unwrap();
        let snapped = crate::Solver::new(crate::SolverOptions {
            iteration_budget: Some(8),
            refine: false,
            ..crate::SolverOptions::default()
        })
        .solve(&p)
        .partition;
        let csr = Csr::new(&p);
        let options = RefineOptions::default();
        let mut state = MoveState::new(&p, &csr, &snapped, options.weights, options.exponent);
        let (tally, stopped) = single_moves(&mut state, options.max_passes, &Interrupt::none());
        assert!(stopped.is_none());
        // This snap refines in 17 244 moves over 20 passes, pricing 52 280
        // of the 200 000 visits (26 %).
        assert_eq!((tally.moves, tally.passes), (17_244, 20));
        let visits = tally.passes * p.num_gates();
        assert!(
            2 * tally.priced < visits,
            "priced {} of {visits} visits over {} passes",
            tally.priced,
            tally.passes
        );
    }

    #[test]
    fn swaps_escape_balance_locked_optima() {
        // Two planes, four unit gates; heavy edges a-y and x-b cross planes.
        // Any single move unbalances 3-1 (blocked by a heavy balance
        // weight), but swapping x and y fixes both cuts at zero balance
        // cost.
        let p = PartitionProblem::new(
            vec![1.0; 4],
            vec![10.0; 4],
            vec![(0, 3), (0, 3), (1, 2), (1, 2)], // a=0, x=1, b=2, y=3
            2,
        )
        .unwrap();
        let start = Partition::from_labels(vec![0, 0, 1, 1], 2).unwrap();
        let opts = RefineOptions {
            weights: CostWeights {
                c2: 50.0,
                c3: 50.0,
                ..CostWeights::default()
            },
            ..RefineOptions::default()
        };
        let (single_only, _) = refine(&p, &start, &opts);
        assert_eq!(single_only, start, "single moves are balance-blocked here");
        let (swapped, moves) = refine_with_swaps(&p, &start, &opts);
        assert!(moves >= 2);
        let m = crate::metrics::PartitionMetrics::evaluate(&p, &swapped);
        assert_eq!(m.cut_size(), 0, "swap resolves both cut edges");
        assert_eq!(m.i_comp_ma, 0.0, "balance preserved");
    }

    #[test]
    fn swaps_never_worsen() {
        use rand::Rng;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..8 {
            let n = rng.random_range(8..40) as u32;
            let k = rng.random_range(2..5);
            let mut edges = Vec::new();
            for i in 1..n {
                edges.push((rng.random_range(0..i), i));
            }
            let p = PartitionProblem::new(
                (0..n).map(|_| rng.random_range(0.2..2.0)).collect(),
                (0..n).map(|_| rng.random_range(1.0..9.0)).collect(),
                edges,
                k,
            )
            .unwrap();
            let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..k as u32)).collect();
            let start = Partition::from_labels(labels, k).unwrap();
            let w = CostWeights::default();
            let before = discrete_cost(&p, &start, w, 4.0);
            let (out, _) = refine_with_swaps(&p, &start, &RefineOptions::default());
            let after = discrete_cost(&p, &out, w, 4.0);
            assert!(after <= before + 1e-12);
        }
    }

    #[test]
    fn max_passes_zero_is_a_no_op() {
        let p = chain(6, 2);
        let part = Partition::from_labels(vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        let opts = RefineOptions {
            max_passes: 0,
            ..RefineOptions::default()
        };
        let (out, moves) = refine(&p, &part, &opts);
        assert_eq!(moves, 0);
        assert_eq!(out, part);
    }
}

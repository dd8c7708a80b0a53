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
//! objective, and the only discrete polish in the crate: the solver runs it
//! at every level of its V-cycle by default, and the `ablations` bench
//! quantifies its contribution. The public API is [`discrete_cost`],
//! [`refine`] and [`RefineOptions`]; the solver polishes through the
//! crate-internal `refine_on`, which also polls an [`Interrupt`] and takes
//! the gates the coarser level settled. `refine_on` reads a level through
//! a borrowed view, its `Loads` (per-gate bias and area, their totals, the
//! edge and plane counts) and its CSR, so a V-cycle level that keeps no
//! edge list polishes as a whole problem does.
//!
//! Pricing a gate's best move costs `O(deg(i)·K)`: neighbors come from the
//! engine's CSR adjacency (one contiguous slice per gate, built once per
//! call, or read from the V-cycle's level), and edge distances from a
//! K×K table of `|a − b|^p`, so the sweep reads each neighbor's label once
//! and prices all `K − 1` targets from it.
//!
//! Most visits skip that sweep in `O(K)`. A gate is *clean* while neither
//! it nor any neighbor has moved since it was last priced; its raw `F₁`
//! deltas then repeat bit for bit, so the smallest weighted `F₁` term
//! recorded at that pricing (its *floor*) plus each target's balance terms
//! at the current plane loads bounds each target's gain from below,
//! exactly, since rounded addition is monotone. A clean gate whose every
//! bound clears the improvement threshold cannot move and is not priced.
//!
//! Most gates are not visited at all. A pass visits the gates of a *visit
//! set*, one bit per gate, in index order. A clean gate leaves the set once
//! a certificate shows that it cannot move at any plane loads whose bias
//! and area spreads (largest minus smallest plane load) stay under the
//! caps `X_B` and `X_A`, twice the spreads when the set was last filled:
//!
//! ```text
//! floor + c₂·2b(b − X_B)/(K·N₂) + c₃·2a(a − X_A)/(K·N₃) − margin ≥ 0
//! margin = 256ε·(c₂·L_B²/(K·N₂) + c₃·L_A²/(K·N₃))
//! ```
//!
//! Moving a gate of bias `b` and area `a` from plane `f` to plane `t`
//! changes `K·N₂·F₂` by exactly `2b(b + B_t − B_f) ≥ 2b(b − X_B)`, and
//! `K·N₃·F₃` likewise, so with `c₂, c₃ ≥ 0` (otherwise nothing is
//! certified) the left side without `margin` bounds every target's gain in
//! real arithmetic. `margin` bounds how far the floating-point gain and
//! the certificate can round away from it, with `ε = 2⁻⁵²`, `u = ε/2` and
//! `L` twice the total load, which bounds every plane load, mean, gate
//! load and cap. In `Objective::plus_balance` each of the four squared
//! deviations of a balance numerator is off by less than `39u·L²` (two
//! roundings before squaring, one after) and the numerator's three
//! additions by less than `81u·L²`: `237u·L²` in all. The divisions,
//! weight products and additions of the gain and of the certificate round
//! by at most `8u` of the balance terms, each under `4c·L²/(K·N)`. Then a
//! certified gate's computed gain is at least
//! `margin − 269u·(c₂·L_B²/(K·N₂) + c₃·L_A²/(K·N₃)) > 0`.
//!
//! A gate is certified when it is priced and does not move, and a clean
//! gate when it is handed down (below) or the set is refilled. A move puts
//! the mover and its neighbors back in the set, and a move that pushes a
//! spread past its cap refills the whole set under new caps, less the
//! clean gates they certify. A gate outside the set is therefore clean and
//! certified under caps the current loads meet, so the full scan would
//! skip it too: the visiting order, the threshold and every move are the
//! same as with every gate priced on every pass.
//!
//! Across the V-cycle a polish also hands gates down to the next finer
//! level. Pricing records whether every neighbor of a gate sits on its
//! plane (the gate is *interior*). A coarse gate that ends its polish
//! clean and interior contracts fine gates that are interior too (each
//! fine neighbor maps to the coarse gate or to one of its neighbors). The
//! raw `F₁` delta of an interior gate to each target is its degree's worth
//! of that target's distance, summed as pricing sums it, so each such fine
//! gate starts the finer polish clean, with the floor pricing would record,
//! and outside the visit set if certified: a finer level prices only the
//! gates the coarser level could not settle.
//!
//! The polishes of one V-cycle share their per-gate buffers: the labels
//! travel by value from level to level, projected in place, and one
//! [`Sweep`] sized for the finest level holds the floors and bitsets. The
//! hand-down is applied while the finer level's sweep is built, reading
//! the coarser level's clean and interior bits where its polish left them,
//! so no projected set is built and nothing is cloned.

use crate::assign::Partition;
use crate::budget::{Interrupt, StopCause};
use crate::cost::CostWeights;
use crate::engine::{Csr, SRC_BIT};
use crate::problem::PartitionProblem;

/// How many gate visits are evaluated between [`Interrupt`] polls inside a
/// sweep. Small enough that a deadline'd or cancelled job stops within
/// microseconds even on million-gate instances; large enough that the poll
/// (one atomic load, maybe one clock read) is invisible in profile.
const POLL_STRIDE: usize = 128;

/// A move is applied only when its gain is below this.
const IMPROVING_GAIN: f64 = -1e-15;

/// `256ε = 512u`: the certificate's margin per `c·L²/(K·N)` of each balance
/// term, almost twice the `269u` its rounding can reach (see the module
/// docs).
const MARGIN_ROUNDING: f64 = 256.0 * f64::EPSILON;

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
    Objective::new(&Loads::of(problem), labels, weights, exponent)
        .total_cost(problem.edges(), labels)
}

fn check_dims(problem: &PartitionProblem, partition: &Partition) {
    assert_eq!(problem.num_gates(), partition.num_gates());
    assert_eq!(problem.num_planes(), partition.num_planes());
}

/// Greedily improves `partition` by single-gate moves; returns the refined
/// partition and the number of moves applied.
///
/// A pass visits only the gates of the visit set, and a clean gate leaves
/// the set once certified against the caps on the plane loads' spreads
/// (see the module docs); the result is the same as with every gate priced
/// on every pass.
///
/// # Panics
///
/// Panics if the partition does not match the problem's dimensions.
pub fn refine(
    problem: &PartitionProblem,
    partition: &Partition,
    options: &RefineOptions,
) -> (Partition, usize) {
    check_dims(problem, partition);
    let csr = Csr::new(problem);
    let polished = refine_on(
        Loads::of(problem),
        &csr,
        partition.labels().to_vec(),
        options,
        &Interrupt::none(),
        &mut Sweep::with_capacity(problem.num_gates()),
        None,
    );
    (polished.partition, polished.tally.moves)
}

/// The gates of one level as the discrete objective reads them: each
/// gate's bias and area, their totals `B_cir` and `A_cir`, and the level's
/// edge and plane counts. A view of a [`PartitionProblem`], or of a V-cycle
/// level that keeps no edge list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Loads<'a> {
    pub(crate) bias: &'a [f64],
    pub(crate) area: &'a [f64],
    pub(crate) total_bias: f64,
    pub(crate) total_area: f64,
    pub(crate) num_edges: usize,
    pub(crate) num_planes: usize,
}

impl<'a> Loads<'a> {
    pub(crate) fn of(problem: &'a PartitionProblem) -> Self {
        Loads {
            bias: problem.bias(),
            area: problem.area(),
            total_bias: problem.total_bias(),
            total_area: problem.total_area(),
            num_edges: problem.num_edges(),
            num_planes: problem.num_planes(),
        }
    }

    pub(crate) fn num_gates(&self) -> usize {
        self.bias.len()
    }
}

/// What a polish of one level returns.
#[derive(Debug)]
pub(crate) struct Polished {
    pub(crate) partition: Partition,
    pub(crate) tally: Tally,
    /// The interrupt cause, if one cut the polish short.
    pub(crate) stopped: Option<StopCause>,
}

/// [`refine`] of `labels` on a level, through its `loads` and adjacency
/// `csr`, in `sweep`'s buffers. With `handed_down`, the map from this
/// level's gates onto the coarser level's, `sweep` must be as that level's
/// polish left it and `labels` projected from its result: the gates whose
/// coarse gate ended clean and interior start clean, with the floor pricing
/// would record (see the module docs).
///
/// `interrupt` is polled between passes and every [`POLL_STRIDE`] gate
/// visits within a pass. On interruption the sweep stops at once and the
/// partition refined *so far* is returned with the [`StopCause`]; every
/// applied move is a strict improvement, so a truncated polish is never
/// worse than its input.
pub(crate) fn refine_on(
    loads: Loads<'_>,
    csr: &Csr,
    labels: Vec<u32>,
    options: &RefineOptions,
    interrupt: &Interrupt,
    sweep: &mut Sweep,
    handed_down: Option<&[u32]>,
) -> Polished {
    let mut state = MoveState::new(loads, csr, labels, options.weights, options.exponent);
    sweep.begin(&state, handed_down);
    let (tally, stopped) = single_moves(&mut state, sweep, options.max_passes, interrupt);
    Polished {
        partition: state.into_partition(),
        tally,
        stopped,
    }
}

/// What a polish's [`single_moves`] did: the moves it applied, the passes
/// it began, the gates it visited and the visits it priced with
/// [`MoveState::best_move_and_floor`] (the other visits were clean gates
/// that could not move).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Tally {
    pub(crate) moves: usize,
    pub(crate) passes: usize,
    pub(crate) visits: usize,
    pub(crate) priced: usize,
}

/// A set of gates, one bit per gate.
#[derive(Debug)]
struct GateSet {
    /// Gate `g` is bit `g % 64` of word `g / 64`; the bits past `len` stay
    /// clear.
    words: Vec<u64>,
    len: usize,
}

impl GateSet {
    /// An empty set over no gates, with room for `len` of them.
    fn with_capacity(len: usize) -> Self {
        GateSet {
            words: Vec::with_capacity(len.div_ceil(64)),
            len: 0,
        }
    }

    /// Makes the set one over gates `0..len`. The members it keeps are
    /// unspecified, so callers write every word next.
    fn resize(&mut self, len: usize) {
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Removes every gate.
    fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Adds every gate of `0..len`.
    fn insert_all(&mut self) {
        self.words.fill(u64::MAX);
        if let (Some(last), tail @ 1..) = (self.words.last_mut(), self.len % 64) {
            *last = (1 << tail) - 1;
        }
    }

    #[inline]
    fn contains(&self, gate: usize) -> bool {
        self.words[gate / 64] & (1 << (gate % 64)) != 0
    }

    #[inline]
    fn insert(&mut self, gate: usize) {
        self.words[gate / 64] |= 1 << (gate % 64);
    }

    #[inline]
    fn remove(&mut self, gate: usize) {
        self.words[gate / 64] &= !(1 << (gate % 64));
    }

    /// Removes the members of `among` for which `leaves` holds, calling it
    /// on each of them in index order.
    fn remove_where(&mut self, among: &GateSet, mut leaves: impl FnMut(usize) -> bool) {
        for (index, (&members, word)) in among.words.iter().zip(&mut self.words).enumerate() {
            let mut rest = members;
            while rest != 0 {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                if leaves(index * 64 + bit as usize) {
                    *word &= !(1 << bit);
                }
            }
        }
    }

    /// The smallest member at or after `start`. The words are read afresh
    /// on every call, so a scan sees members added ahead of it.
    #[inline]
    fn next_from(&self, start: usize) -> Option<usize> {
        let mut index = start / 64;
        let mut word = self.words.get(index)? & (u64::MAX << (start % 64));
        while word == 0 {
            index += 1;
            word = *self.words.get(index)?;
        }
        Some(index * 64 + word.trailing_zeros() as usize)
    }
}

/// The caps on the plane loads' spreads fixed when the visit set was last
/// filled, with the constants of the certificate (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Certificate {
    /// `X_B` and `X_A`.
    bias_cap: f64,
    area_cap: f64,
    /// `2c₂/(K·N₂)` and `2c₃/(K·N₃)`.
    bias_weight: f64,
    area_weight: f64,
    /// The bound on the rounding; NaN when `c₂` or `c₃` is negative (or
    /// NaN), so that no gate is certified.
    margin: f64,
}

/// Lower and upper bounds on the plane loads, of the bias and of the area.
type LoadRanges = [(f64, f64); 2];

/// The per-gate state of a [`single_moves`] call: three bits and an `F₁`
/// floor per gate, and the certificate's caps. The polishes of a V-cycle
/// share one, sized for the finest level: each level's polish starts from
/// the state the coarser level's left (see [`Sweep::begin`]).
#[derive(Debug)]
pub(crate) struct Sweep {
    /// The gates the passes still visit.
    visit: GateSet,
    /// Gates that have not moved, and whose neighbors have not moved,
    /// since they were last priced or handed down.
    clean: GateSet,
    /// Gates whose every neighbor sat on their plane when they were last
    /// priced or handed down.
    interior: GateSet,
    /// Each clean gate's `F₁` floor; a dirty gate's is stale and never
    /// read.
    floor: Vec<f64>,
    certificate: Certificate,
    /// Bounds on the plane loads: exact at the last fill, then widened by
    /// each move, so that `high − low` bounds a spread without a scan of
    /// the planes.
    ranges: LoadRanges,
}

impl Sweep {
    /// Empty buffers with room for the polish of `gates` gates, or of a
    /// V-cycle whose finest level has as many.
    pub(crate) fn with_capacity(gates: usize) -> Self {
        Sweep {
            visit: GateSet::with_capacity(gates),
            clean: GateSet::with_capacity(gates),
            interior: GateSet::with_capacity(gates),
            floor: Vec::with_capacity(gates),
            // `begin` sets both; a NaN margin certifies nothing meanwhile.
            certificate: Certificate {
                bias_cap: 0.0,
                area_cap: 0.0,
                bias_weight: 0.0,
                area_weight: 0.0,
                margin: f64::NAN,
            },
            ranges: [(0.0, 0.0); 2],
        }
    }

    /// Readies the sweep for a polish of `state`'s level: every gate in the
    /// visit set and dirty, except with `handed_down` (see [`refine_on`]).
    /// Then a gate whose coarse gate `handed_down[gate]` ended the coarser
    /// polish clean and interior starts clean and interior, with the floor
    /// pricing would record, and out of the set if certified.
    ///
    /// The coarser polish's bits are read where it left them, in the same
    /// buffers: the coarse gate of a fine gate never has a larger index
    /// (see [`crate::coarsen`]), so filling whole words from the last down
    /// reads every coarse bit before its word is overwritten.
    fn begin(&mut self, state: &MoveState<'_>, handed_down: Option<&[u32]>) {
        let n = state.num_gates();
        self.ranges = state.objective.load_ranges();
        self.certificate = state.objective.certificate(&self.ranges);
        self.floor.resize(n, 0.0);
        for set in [&mut self.visit, &mut self.clean, &mut self.interior] {
            set.resize(n);
        }
        let Some(map) = handed_down else {
            self.visit.insert_all();
            self.clean.clear();
            self.interior.clear();
            return;
        };
        debug_assert_eq!(map.len(), n, "a map has an entry per fine gate");
        let mut floors = InteriorFloors::new(&state.objective);
        let offsets = &state.csr.offsets;
        for index in (0..n.div_ceil(64)).rev() {
            let first = index * 64;
            let (mut settled, mut visit) = (0u64, 0u64);
            for (bit, gate) in (first..n.min(first + 64)).enumerate() {
                visit |= 1 << bit;
                let coarse = map[gate] as usize;
                debug_assert!(coarse <= gate, "coarse gates are numbered in fine order");
                if !(self.clean.contains(coarse) && self.interior.contains(coarse)) {
                    continue;
                }
                settled |= 1 << bit;
                let degree = (offsets[gate + 1] - offsets[gate]) as usize;
                let floor = floors.get(&state.objective, state.labels[gate] as usize, degree);
                self.floor[gate] = floor;
                if state.certified(gate, floor, &self.certificate) {
                    visit &= !(1 << bit);
                }
            }
            self.visit.words[index] = visit;
            self.clean.words[index] = settled;
            self.interior.words[index] = settled;
        }
    }

    /// Whether the spreads are still within the caps after a move from
    /// plane `from` to plane `to`. Widens the ranges by the two planes' new
    /// loads, and scans the planes only when a widened range exceeds its
    /// cap.
    fn under_caps(&mut self, state: &MoveState<'_>, from: usize, to: usize) -> bool {
        let objective = &state.objective;
        for (range, loads) in self
            .ranges
            .iter_mut()
            .zip([&objective.plane_bias, &objective.plane_area])
        {
            range.0 = range.0.min(loads[from]);
            range.1 = range.1.max(loads[to]);
        }
        self.within_caps() || {
            self.ranges = objective.load_ranges();
            self.within_caps()
        }
    }

    fn within_caps(&self) -> bool {
        let [(bias_low, bias_high), (area_low, area_high)] = self.ranges;
        bias_high - bias_low <= self.certificate.bias_cap
            && area_high - area_low <= self.certificate.area_cap
    }

    /// Refills the visit set under caps taken from the current loads, less
    /// the clean gates certified under them.
    fn refill(&mut self, state: &MoveState<'_>) {
        self.ranges = state.objective.load_ranges();
        self.certificate = state.objective.certificate(&self.ranges);
        self.visit.insert_all();
        self.visit.remove_where(&self.clean, |gate| {
            state.certified(gate, self.floor[gate], &self.certificate)
        });
    }
}

/// The single-move sweeps of [`refine_on`] over `state`: up to
/// `max_passes` passes, each offering the gates of the visit set, in index
/// order, their best moves. Returns the tally and the interrupt cause, if
/// one fired; the interrupt is polled before each pass and every
/// [`POLL_STRIDE`] visits.
///
/// A clean gate (see the module docs) in the set has failed its
/// certificate, which is tried when a gate is priced without moving or
/// handed down and, for every clean gate, when the set is refilled: a
/// visit skips it if [`MoveState::cannot_improve`] holds. Every other
/// visit prices the gate in full. Applying a move dirties the mover and
/// each of its neighbors and puts them in the set, and a move that takes a
/// spread past its cap refills the set. The per-gate state (three bits and
/// an `F₁` floor) lives in `sweep`, so the passes allocate nothing.
fn single_moves(
    state: &mut MoveState<'_>,
    sweep: &mut Sweep,
    max_passes: usize,
    interrupt: &Interrupt,
) -> (Tally, Option<StopCause>) {
    let mut tally = Tally::default();
    for _ in 0..max_passes {
        if let Some(cause) = interrupt.poll() {
            return (tally, Some(cause));
        }
        tally.passes += 1;
        let mut improved = false;
        let mut next = 0;
        while let Some(gate) = sweep.visit.next_from(next) {
            next = gate + 1;
            tally.visits += 1;
            if tally.visits % POLL_STRIDE == 0 {
                if let Some(cause) = interrupt.poll() {
                    return (tally, Some(cause));
                }
            }
            // A clean gate in the set has failed its certificate under the
            // current caps: when it was priced, handed down or refilled.
            if sweep.clean.contains(gate) && state.cannot_improve(gate, sweep.floor[gate]) {
                continue;
            }
            tally.priced += 1;
            let (best, floor, interior) = state.best_move_and_floor(gate);
            sweep.floor[gate] = floor;
            match best {
                Some((target, gain)) if gain < IMPROVING_GAIN => {
                    let from = state.labels[gate] as usize;
                    state.apply(gate, target);
                    sweep.clean.remove(gate);
                    for &nbr in state.csr.neighbors_of(gate) {
                        let nbr = (nbr & !SRC_BIT) as usize;
                        sweep.clean.remove(nbr);
                        sweep.visit.insert(nbr);
                    }
                    tally.moves += 1;
                    improved = true;
                    if !sweep.under_caps(state, from, target as usize) {
                        sweep.refill(state);
                    }
                }
                _ => {
                    sweep.clean.insert(gate);
                    if interior {
                        sweep.interior.insert(gate);
                    } else {
                        sweep.interior.remove(gate);
                    }
                    if state.certified(gate, floor, &sweep.certificate) {
                        sweep.visit.remove(gate);
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    (tally, None)
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
    /// `L_B` and `L_A`: twice the total bias and area, which bound every
    /// plane load, mean and gate load (see the module docs).
    bias_bound: f64,
    area_bound: f64,
}

impl Objective {
    fn new(loads: &Loads<'_>, labels: &[u32], weights: CostWeights, exponent: f64) -> Self {
        let k = loads.num_planes;
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
        for ((&p, &b), &a) in labels.iter().zip(loads.bias).zip(loads.area) {
            plane_bias[p as usize] += b;
            plane_area[p as usize] += a;
        }
        let kf = k as f64;
        let (bias_total, area_total) = (loads.total_bias, loads.total_area);
        let b_mean = bias_total / kf;
        let a_mean = area_total / kf;
        let nz = |x: f64| if x > 0.0 { x } else { 1.0 };
        Objective {
            weights,
            k,
            dist,
            plane_bias,
            plane_area,
            n1: nz(loads.num_edges as f64 * (kf - 1.0).powf(exponent)),
            n2: nz((kf - 1.0) * b_mean * b_mean),
            n3: nz((kf - 1.0) * a_mean * a_mean),
            b_mean,
            a_mean,
            bias_bound: 2.0 * bias_total,
            area_bound: 2.0 * area_total,
        }
    }

    /// Row `plane` of the distance table: the `F₁` term of an edge from a
    /// gate on `plane` to a gate on each plane `0..K`.
    #[inline]
    fn dist_row(&self, plane: u32) -> &[f64] {
        let at = plane as usize * self.k;
        &self.dist[at..at + self.k]
    }

    /// `F_d` of `labels`, whose plane loads this objective holds, over the
    /// level's edge list `edges`. `F₁` accumulates in edge-list order.
    fn total_cost(&self, edges: &[(u32, u32)], labels: &[u32]) -> f64 {
        let mut f1 = 0.0;
        for &(u, v) in edges {
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
    fn leaving(&self, loads: &Loads<'_>, gate: usize, from: usize) -> Leaving {
        let b = loads.bias[gate];
        let a = loads.area[gate];
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
    fn apply(&mut self, loads: &Loads<'_>, gate: usize, from: usize, target: usize) {
        let b = loads.bias[gate];
        let a = loads.area[gate];
        self.plane_bias[from] -= b;
        self.plane_area[from] -= a;
        self.plane_bias[target] += b;
        self.plane_area[target] += a;
    }

    /// The smallest and the largest plane load, of the bias and of the
    /// area.
    fn load_ranges(&self) -> LoadRanges {
        let range = |loads: &[f64]| {
            loads
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(low, high), &load| {
                    (low.min(load), high.max(load))
                })
        };
        [range(&self.plane_bias), range(&self.plane_area)]
    }

    /// The certificate under caps of twice the spreads of `ranges`.
    fn certificate(&self, ranges: &LoadRanges) -> Certificate {
        let [(bias_low, bias_high), (area_low, area_high)] = *ranges;
        let kf = self.k as f64;
        let (c2, c3) = (self.weights.c2, self.weights.c3);
        // The same denominators `plus_balance` divides by.
        let (bias_den, area_den) = (kf * self.n2, kf * self.n3);
        let margin = if c2 >= 0.0 && c3 >= 0.0 {
            MARGIN_ROUNDING
                * (c2 * (self.bias_bound * self.bias_bound) / bias_den
                    + c3 * (self.area_bound * self.area_bound) / area_den)
        } else {
            f64::NAN
        };
        Certificate {
            bias_cap: 2.0 * (bias_high - bias_low),
            area_cap: 2.0 * (area_high - area_low),
            bias_weight: 2.0 * c2 / bias_den,
            area_weight: 2.0 * c3 / area_den,
            margin,
        }
    }
}

/// `step` added `count` times to `0.0`, one addition at a time, as pricing
/// accumulates a gate's neighbors; a single product when every partial sum
/// is an integer of at most 2⁵³, which every addition then hits exactly.
fn repeated_sum(step: f64, count: usize) -> f64 {
    let n = count as f64;
    if crate::float::exactly(step.fract(), 0.0) && n * step.abs() <= 9_007_199_254_740_992.0 {
        n * step
    } else {
        (0..count).fold(0.0, |sum, _| sum + step)
    }
}

/// Interior degrees whose floors [`InteriorFloors`] keeps once computed.
const TABLED_DEGREES: usize = 64;

/// The `F₁` floors [`MoveState::best_move_and_floor`] records for interior
/// gates, by plane and degree. Each target's raw delta is then its step
/// `dist[from][t] − dist[from][from]` summed once per neighbor, and the
/// weighted term is monotone in the step, so the smallest term is the
/// nearest or the farthest target's.
struct InteriorFloors {
    /// Per plane, the smallest and the largest step to another plane.
    steps: Vec<(f64, f64)>,
    /// `table[plane·TABLED_DEGREES + degree]` for degrees below
    /// [`TABLED_DEGREES`]: NaN until first asked for, since a floor is never
    /// NaN.
    table: Vec<f64>,
}

impl InteriorFloors {
    fn new(objective: &Objective) -> Self {
        let steps = (0..objective.k)
            .map(|from| {
                let row = objective.dist_row(from as u32);
                let here = row[from];
                row.iter()
                    .enumerate()
                    .filter(|&(target, _)| target != from)
                    .fold(
                        (f64::INFINITY, f64::NEG_INFINITY),
                        |(low, high), (_, &there)| (low.min(there - here), high.max(there - here)),
                    )
            })
            .collect();
        InteriorFloors {
            steps,
            table: vec![f64::NAN; objective.k * TABLED_DEGREES],
        }
    }

    /// The floor of an interior gate on `plane` with `degree` neighbors.
    fn get(&mut self, objective: &Objective, plane: usize, degree: usize) -> f64 {
        let steps = self.steps[plane];
        if degree >= TABLED_DEGREES {
            return interior_floor(objective, steps, degree);
        }
        let slot = &mut self.table[plane * TABLED_DEGREES + degree];
        if slot.is_nan() {
            *slot = interior_floor(objective, steps, degree);
        }
        *slot
    }
}

/// The smaller of the weighted `F₁` terms of `degree` steps of `near` and of
/// `far`, kept as pricing keeps its floor.
fn interior_floor(objective: &Objective, (near, far): (f64, f64), degree: usize) -> f64 {
    [near, far].into_iter().fold(f64::INFINITY, |floor, step| {
        let term = objective.f1_term(repeated_sum(step, degree));
        if term < floor {
            term
        } else {
            floor
        }
    })
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
    loads: Loads<'a>,
    /// Incident neighbors; parallel edges appear once per copy, matching
    /// their cost.
    csr: &'a Csr,
    labels: Vec<u32>,
    objective: Objective,
    /// Scratch for [`MoveState::best_move_and_floor`]: the raw `F₁` delta
    /// of moving the current gate to each plane (`K` entries).
    f1_delta: Vec<f64>,
}

impl<'a> MoveState<'a> {
    /// A move state for `labels` (one plane below `loads.num_planes` per
    /// gate) on the level `loads` and `csr` describe.
    pub(crate) fn new(
        loads: Loads<'a>,
        csr: &'a Csr,
        labels: Vec<u32>,
        weights: CostWeights,
        exponent: f64,
    ) -> Self {
        assert_eq!(labels.len(), loads.num_gates());
        debug_assert_eq!(csr.offsets.len(), loads.num_gates() + 1);
        let objective = Objective::new(&loads, &labels, weights, exponent);
        MoveState {
            loads,
            csr,
            labels,
            objective,
            f1_delta: vec![0.0; loads.num_planes],
        }
    }

    fn num_gates(&self) -> usize {
        self.labels.len()
    }

    /// `F_d` of the current labels; `edges` is the level's edge list.
    pub(crate) fn total_cost(&self, edges: &[(u32, u32)]) -> f64 {
        self.objective.total_cost(edges, &self.labels)
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
        let leaving = self.objective.leaving(&self.loads, gate, from);
        self.objective.gain(&leaving, target, d_f1)
    }

    /// Best (most negative gain) target plane for `gate`, if any differs
    /// (ties go to the lowest plane), together with the gate's `F₁` floor,
    /// the smallest weighted `F₁` term `c₁·ΔF₁/N₁` over its targets (`+∞`
    /// when no target differs), and whether every neighbor sits on the
    /// gate's plane: both by-products of the same sweep.
    ///
    /// One sweep over the neighbors reads each label once and accumulates
    /// every target's raw `F₁` delta side by side. Each target's delta sees
    /// the same additions in the same neighbor order as in
    /// [`Self::move_gain`], so the returned gain equals
    /// `move_gain(gate, target)` bit for bit.
    ///
    /// The running minima are kept with selects rather than branches: which
    /// target wins varies from gate to gate, so a branch on it would
    /// mispredict.
    pub(crate) fn best_move_and_floor(&mut self, gate: usize) -> (Option<(u32, f64)>, f64, bool) {
        let from = self.labels[gate] as usize;
        self.f1_delta.fill(0.0);
        let mut interior = true;
        for &nbr in self.csr.neighbors_of(gate) {
            let plane = self.labels[(nbr & !SRC_BIT) as usize];
            interior &= plane as usize == from;
            let row = self.objective.dist_row(plane);
            let here = row[from];
            for (delta, &there) in self.f1_delta.iter_mut().zip(row) {
                *delta += there - here;
            }
        }
        let leaving = self.objective.leaving(&self.loads, gate, from);
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
        (best, floor, interior)
    }

    /// True when the certificate (see the module docs) shows that `gate`,
    /// clean with `floor`, cannot move at any plane loads whose spreads
    /// stay within `certificate`'s caps. `O(1)`; reads no neighbor.
    fn certified(&self, gate: usize, floor: f64, certificate: &Certificate) -> bool {
        let b = self.loads.bias[gate];
        let a = self.loads.area[gate];
        let Certificate {
            bias_cap,
            area_cap,
            bias_weight,
            area_weight,
            margin,
        } = *certificate;
        floor + bias_weight * (b * (b - bias_cap)) + area_weight * (a * (a - area_cap)) >= margin
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
        let leaving = self.objective.leaving(&self.loads, gate, from);
        (0..self.objective.k).all(|target| {
            target == from || self.objective.plus_balance(&leaving, target, floor) >= IMPROVING_GAIN
        })
    }

    pub(crate) fn apply(&mut self, gate: usize, target: u32) {
        let from = self.labels[gate] as usize;
        self.objective
            .apply(&self.loads, gate, from, target as usize);
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
        let state = MoveState::new(
            Loads::of(&p),
            &csr,
            part.labels().to_vec(),
            CostWeights::default(),
            4.0,
        );
        let base = state.total_cost(p.edges());
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
            let csr = Csr::new(&p);
            for weights in [
                CostWeights::default(),
                CostWeights {
                    c2: 0.0,
                    c3: 0.0,
                    ..CostWeights::default()
                },
            ] {
                let mut state = MoveState::new(Loads::of(&p), &csr, labels.clone(), weights, 4.0);
                for gate in 0..n as usize {
                    let (target, gain) = state.best_move_and_floor(gate).0.expect("K >= 2");
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

    /// Exact work counts, not timings: on the budgeted S10K snap (the
    /// shape of `tests/bit_identity.rs`), the clean-gate test must leave
    /// fewer than half of the `passes × G` scan to be priced, and the
    /// visit set must keep the visits at most at their pinned count. It
    /// fails if a skip silently stops skipping.
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
        let mut state = MoveState::new(
            Loads::of(&p),
            &csr,
            snapped.into_labels(),
            options.weights,
            options.exponent,
        );
        let mut sweep = Sweep::with_capacity(p.num_gates());
        sweep.begin(&state, None);
        let (tally, stopped) = single_moves(
            &mut state,
            &mut sweep,
            options.max_passes,
            &Interrupt::none(),
        );
        assert!(stopped.is_none());
        // This snap refines in 17 244 moves over 20 passes, pricing 52 280
        // of the 197 400 visits. The snap starts far from balance, so the
        // caps of the first fill are wide and few gates leave the set: the
        // visit set pays off on the near-balanced starts of the V-cycle's
        // finer levels.
        assert_eq!((tally.moves, tally.passes), (17_244, 20));
        let scan = tally.passes * p.num_gates();
        assert!(
            2 * tally.priced < scan,
            "priced {} of the {scan}-visit scan over {} passes",
            tally.priced,
            tally.passes
        );
        assert!(tally.visits <= 197_400, "{} visits", tally.visits);
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

    /// A seeded random problem with `gates` gates: each gate links to one
    /// to three earlier ones, some links doubled in either direction, and
    /// the loads drawn freely or from a few cell types (so balance terms
    /// tie exactly).
    fn random_problem(rng: &mut rand::rngs::StdRng, gates: usize, k: usize) -> PartitionProblem {
        use rand::Rng;
        let mut edges = Vec::new();
        for i in 1..gates as u32 {
            for _ in 0..rng.random_range(1..4) {
                let j = rng.random_range(0..i);
                edges.push(if rng.random_bool(0.5) { (j, i) } else { (i, j) });
                if rng.random_bool(0.15) {
                    edges.push((i, j));
                }
            }
        }
        let typed = rng.random_bool(0.5);
        let mut load = |types: [f64; 3], range: std::ops::Range<f64>| -> Vec<f64> {
            (0..gates)
                .map(|_| {
                    if typed {
                        types[rng.random_range(0..3)]
                    } else {
                        rng.random_range(range.clone())
                    }
                })
                .collect()
        };
        let bias = load([0.1, 0.2, 0.35], 0.05..2.0);
        let area = load([100.0, 225.0, 400.0], 1.0..900.0);
        PartitionProblem::new(bias, area, edges, k).unwrap()
    }

    /// `F_d` of `labels` on a level that may keep no edge list: `F₁` over
    /// the CSR's source entries.
    fn level_cost(
        loads: Loads<'_>,
        csr: &Csr,
        labels: &[u32],
        weights: CostWeights,
        exponent: f64,
    ) -> f64 {
        let edges: Vec<(u32, u32)> = (0..labels.len() as u32)
            .flat_map(|u| {
                csr.neighbors_of(u as usize)
                    .iter()
                    .filter(|&&word| word & SRC_BIT != 0)
                    .map(move |&word| (u, word & !SRC_BIT))
            })
            .collect();
        Objective::new(&loads, labels, weights, exponent).total_cost(&edges, labels)
    }

    /// Handing settled gates down the V-cycle changes no result: on 200
    /// seeded random problems above the coarsening floor, every level of a
    /// [`Hierarchy`](crate::coarsen::Hierarchy) is polished from the same
    /// projected labels once with the gates the coarser level settled and
    /// once without them, and the two polishes must agree on every label,
    /// the move and pass counts and every bit of the discrete cost. The
    /// hand-down must also save pricing on most problems.
    #[test]
    fn handing_settled_gates_down_changes_no_result() {
        use crate::coarsen::Hierarchy;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5e77_1ed0);
        let default = CostWeights::default();
        let weight_sets = [
            default,
            CostWeights {
                c2: 50.0,
                c3: 50.0,
                ..default
            },
            CostWeights {
                c2: 0.0,
                c3: 0.0,
                ..default
            },
        ];
        let problems = 200;
        let mut saved_on = 0;
        for index in 0..problems {
            // Log-uniform in 150..=3000, which keeps the debug run short.
            let gates = (150.0 * 20f64.powf(rng.random_range(0.0..1.0))).round() as usize;
            let k = rng.random_range(2..10);
            let p = random_problem(&mut rng, gates, k);
            let weights = weight_sets[index % weight_sets.len()];
            let options = RefineOptions {
                weights,
                ..RefineOptions::default()
            };
            let none = Interrupt::none();
            let h = Hierarchy::build(&p, &none, |_| {});
            assert!(h.depth() > 0, "problem {index} does not coarsen");
            let coarsest = h.coarsest(&p);
            let labels = (0..coarsest.num_gates())
                .map(|_| rng.random_range(0..k as u32))
                .collect();
            let mut sweep = Sweep::with_capacity(p.num_gates());
            let mut polished = refine_on(
                Loads::of(coarsest),
                h.coarsest_csr().unwrap(),
                labels,
                &options,
                &none,
                &mut sweep,
                None,
            );
            let mut saved = false;
            for level in (0..h.depth()).rev() {
                let (finer, csr) = h.finer(level, &p);
                let mut projected = polished.partition.into_labels();
                h.project(level, &mut projected);
                let mut fresh = Sweep::with_capacity(finer.num_gates());
                let without = refine_on(
                    finer,
                    csr,
                    projected.clone(),
                    &options,
                    &none,
                    &mut fresh,
                    None,
                );
                let with = refine_on(
                    finer,
                    csr,
                    projected,
                    &options,
                    &none,
                    &mut sweep,
                    Some(h.map_of(level)),
                );
                let tag = format!("problem {index} (G={gates}, K={k}, {weights:?}) level {level}");
                assert_eq!(with.partition, without.partition, "{tag}: labels");
                assert_eq!(
                    (with.tally.moves, with.tally.passes),
                    (without.tally.moves, without.tally.passes),
                    "{tag}: moves and passes"
                );
                let cost = |partition: &Partition| {
                    level_cost(finer, csr, partition.labels(), weights, options.exponent)
                };
                assert_eq!(
                    cost(&with.partition).to_bits(),
                    cost(&without.partition).to_bits(),
                    "{tag}: discrete cost"
                );
                saved |= with.tally.priced < without.tally.priced;
                polished = with;
            }
            saved_on += usize::from(saved);
        }
        assert!(
            2 * saved_on > problems,
            "the hand-down saved pricing on only {saved_on} of {problems} problems"
        );
    }

    /// The certificate holds at its caps. On seeded random gates, with
    /// weights up to `c₂ = c₃ = 10⁶` and loads over six decades, a clean
    /// gate whose floor the certificate only just accepts must pass
    /// [`MoveState::cannot_improve`] at plane loads where it sits on the
    /// heaviest plane and a target on the lightest, both spreads as wide as
    /// the caps allow: there its exact gain is the certificate's bound, so
    /// its rounding is all that separates the two. Halving a cap in the
    /// certificate, or dropping the margin, fails this test.
    #[test]
    fn the_certificate_holds_at_its_caps() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xce27_1f1e);
        let mut checked = 0;
        for trial in 0..3000 {
            let k = rng.random_range(2..10);
            let gates = 2 * k;
            let bias_scale = 10f64.powi(rng.random_range(-3..4));
            let area_scale = 10f64.powi(rng.random_range(-1..5));
            let p = PartitionProblem::new(
                (0..gates)
                    .map(|_| bias_scale * rng.random_range(0.05..1.0))
                    .collect(),
                (0..gates)
                    .map(|_| area_scale * rng.random_range(0.05..1.0))
                    .collect(),
                vec![],
                k,
            )
            .unwrap();
            let heavy = [0.0, 1.0, 50.0, 1e6];
            let weights = CostWeights {
                c2: heavy[rng.random_range(0..4)],
                c3: heavy[rng.random_range(0..4)],
                ..CostWeights::default()
            };
            let csr = Csr::new(&p);
            let labels = (0..gates).map(|_| rng.random_range(0..k as u32)).collect();
            let mut state = MoveState::new(Loads::of(&p), &csr, labels, weights, 4.0);
            // Caps from loads about the means with spreads of up to a
            // quarter of the totals.
            let bias_mean = p.total_bias() / k as f64;
            let area_mean = p.total_area() / k as f64;
            let bias_spread = p.total_bias() * rng.random_range(0.0..0.25);
            let area_spread = p.total_area() * rng.random_range(0.0..0.25);
            let spread_out = |mean: f64, spread: f64, plane: usize| {
                mean + spread * (plane as f64 / (k - 1) as f64 - 0.5)
            };
            for plane in 0..k {
                state.objective.plane_bias[plane] = spread_out(bias_mean, bias_spread, plane);
                state.objective.plane_area[plane] = spread_out(area_mean, area_spread, plane);
            }
            let certificate = state.objective.certificate(&state.objective.load_ranges());
            let gate = rng.random_range(0..gates);
            // The smallest floor the certificate accepts, by bisection.
            let (mut low, mut high) = (-1e12, 1e12);
            if !state.certified(gate, high, &certificate) {
                continue;
            }
            for _ in 0..200 {
                let mid = 0.5 * (low + high);
                if state.certified(gate, mid, &certificate) {
                    high = mid;
                } else {
                    low = mid;
                }
            }
            let floor = high;
            // The gate on the heaviest plane, the target on the lightest,
            // both spreads at the caps; the other planes in between.
            let from = state.labels[gate] as usize;
            let target = (from + rng.random_range(1..k)) % k;
            let extreme = |loads: &mut [f64], cap: f64, top: f64| {
                for (plane, load) in loads.iter_mut().enumerate() {
                    *load = if plane == from {
                        top
                    } else if plane == target {
                        top - cap
                    } else {
                        top - 0.5 * cap
                    };
                }
            };
            let bias_top = bias_mean + certificate.bias_cap * rng.random_range(0.0..1.0);
            let area_top = area_mean + certificate.area_cap * rng.random_range(0.0..1.0);
            extreme(
                &mut state.objective.plane_bias,
                certificate.bias_cap,
                bias_top,
            );
            extreme(
                &mut state.objective.plane_area,
                certificate.area_cap,
                area_top,
            );
            let [(bias_low, bias_high), (area_low, area_high)] = state.objective.load_ranges();
            if bias_high - bias_low > certificate.bias_cap
                || area_high - area_low > certificate.area_cap
            {
                continue;
            }
            checked += 1;
            assert!(
                state.cannot_improve(gate, floor),
                "trial {trial}: K={k}, {weights:?}, floor {floor}, caps {:?}",
                (certificate.bias_cap, certificate.area_cap)
            );
        }
        assert!(checked > 2000, "only {checked} trials reached the caps");
    }
}

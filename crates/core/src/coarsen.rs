//! The multilevel hierarchy of a solve: heavy-edge coarsening of the
//! problem into smaller ones whose every labelling is a labelling of the
//! input.
//!
//! The paper argues (§IV-A) that ground-plane partitioning "can not be
//! formulated as a classic K-way partitioning problem" and cites
//! Karypis–Kumar multilevel K-way as that classic. The solver borrows the
//! multilevel *scheme* and keeps the paper's objective at every level:
//! with refinement on and more than [`COARSEST_GATES`] gates (at least
//! `4·K`), [`Solver`](crate::Solver) builds one [`Hierarchy`] per solve,
//! runs Algorithm 1's descent on its coarsest problem, and refines the
//! projected labels at every finer level. Every restart reads the same
//! hierarchy.
//!
//! **One level** contracts a matching of the finer level's gates:
//!
//! 1. *Heavy-edge matching*, in gate-index order: an unmatched gate pairs
//!    with the unmatched neighbor it shares the most (parallel) edges with,
//!    ties to the lower index. The edge counts come from the level's
//!    [`Csr`] through a dense per-gate counter that is reset after each
//!    gate, so one gate costs `O(deg)`.
//! 2. *Two-hop pairing*, as METIS does: after step 1 no edge has two
//!    unmatched ends, but a hub matched to one of its leaves strands the
//!    others. Gates still unmatched pair up through a shared neighbor, hubs
//!    in index order and each hub's neighbors in CSR order. Only a hub with
//!    at least two entries of single gates can pair two of them, and gates
//!    only leave the single set, so those hubs are found first, from the
//!    single gates' own entries, and only they are scanned.
//!
//! A pair becomes one coarse gate carrying the summed bias and area; an
//! unmatched gate passes through alone. Coarse gates are numbered in order
//! of their lower fine index, so a fine gate's coarse gate never has a
//! larger index: a projection can run in place, from the last gate down.
//! The coarse edge list keeps, in edge-list order, every fine edge whose
//! ends land in different coarse gates, parallel copies included; one pass
//! over the finer edge list remaps it and counts the coarse degrees, from
//! which the coarse [`Csr`] is filled.
//!
//! **What a level keeps.** Its map from the finer level, its gates' bias
//! and area with their totals, its edge count and its CSR: all a polish
//! reads (see [`crate::refine`]). A level's edge list is needed only to
//! contract the next level, so it is dropped as soon as that level exists;
//! the coarsest level keeps it in the [`PartitionProblem`] the descent runs
//! on, whose CSR every restart's engine borrows.
//!
//! **Why a coarse solve is a solve of the fine problem.** Projecting a
//! coarse labelling (each fine gate takes its coarse gate's plane) gives
//! the fine labelling the same plane loads, and the same raw
//! `Σ_E |Δ|^p`: a fine edge inside a coarse gate has `Δ = 0`, and every
//! other one has its own copy at the coarse level. Only `F₁`'s
//! normalization `N₁ = |E|·(K−1)^p` differs between the levels. The unit
//! tests check this identity by brute force over each level's adjacency.
//!
//! Coarsening stops at the floor, when no gate can be matched, after a
//! level that keeps more than [`STALL_SHARE`] of its gates (METIS's rule),
//! when a summed load would overflow, or when the solve's interrupt fires.

use crate::assign::Partition;
use crate::budget::Interrupt;
use crate::engine::{Csr, SRC_BIT};
use crate::problem::PartitionProblem;
use crate::refine::Loads;
use crate::telemetry::CoarsenEvent;

/// Coarsening stops once a level has at most this many gates, or `4·K` if
/// that is larger.
pub(crate) const COARSEST_GATES: usize = 120;

/// A level that keeps more than this share of its finer level's gates is
/// the last one: matching has stopped paying for the level's refine pass.
/// Every other level shrinks the problem, so coarsening terminates.
const STALL_SHARE: f64 = 0.85;

/// Marks a gate without a mate.
const UNMATCHED: u32 = u32::MAX;

/// A contracted level without its edge list: what its polish reads, and the
/// map from the finer level's gates onto its gates.
#[derive(Debug)]
struct Level {
    /// `map[fine gate]` is the coarse gate it contracted into.
    map: Vec<u32>,
    bias: Vec<f64>,
    area: Vec<f64>,
    /// `Σ bias` and `Σ area`, summed in gate order.
    total_bias: f64,
    total_area: f64,
    num_edges: usize,
    csr: Csr,
}

/// The coarsest level: its map, its problem with the edge list, which the
/// descent runs on, and its adjacency.
#[derive(Debug)]
struct Coarsest {
    map: Vec<u32>,
    problem: PartitionProblem,
    csr: Csr,
}

/// The levels of one solve, shared read-only by every restart. Level 0 is
/// coarsened from the input problem, the last level is the coarsest.
#[derive(Debug, Default)]
pub(crate) struct Hierarchy {
    /// The input problem's adjacency, which level 0 was matched on and the
    /// last refine reads; `None` when there are no levels.
    input_csr: Option<Csr>,
    /// Every level but the coarsest, finest first.
    levels: Vec<Level>,
    coarsest: Option<Coarsest>,
}

impl Hierarchy {
    /// Coarsens `problem` until the floor (see the module docs), calling
    /// `on_level` after each contraction. Returns no levels when `problem`
    /// is at or under the floor, when nothing can be matched, or when
    /// `interrupt` has fired.
    pub(crate) fn build(
        problem: &PartitionProblem,
        interrupt: &Interrupt,
        mut on_level: impl FnMut(&CoarsenEvent),
    ) -> Self {
        let k = problem.num_planes();
        let floor = COARSEST_GATES.max(4 * k);
        let mut hierarchy = Hierarchy::default();
        if problem.num_gates() <= floor || interrupt.poll().is_some() {
            return hierarchy;
        }
        let input_csr = Csr::new(problem);
        // The newest level's edge list, until the next level is contracted
        // from it.
        let mut edges = Vec::new();
        loop {
            let depth = hierarchy.levels.len();
            let (fine, csr) = hierarchy.source(depth, problem, &input_csr);
            let fine_edges = if depth == 0 { problem.edges() } else { &edges };
            let fine_gates = fine.num_gates();
            if fine_gates <= floor {
                break;
            }
            let Some((level, coarse_edges)) = contract(fine, csr, fine_edges) else {
                break;
            };
            edges = coarse_edges;
            let coarse_gates = level.bias.len();
            on_level(&CoarsenEvent {
                level: depth,
                fine_gates,
                fine_edges: fine.num_edges,
                coarse_gates,
                coarse_edges: level.num_edges,
            });
            hierarchy.levels.push(level);
            if coarse_gates as f64 > STALL_SHARE * fine_gates as f64 || interrupt.poll().is_some() {
                break;
            }
        }
        if let Some(last) = hierarchy.levels.pop() {
            let problem = PartitionProblem::new(last.bias, last.area, edges, k)
                .unwrap_or_else(|_| unreachable!("a contracted level is a valid problem"));
            hierarchy.coarsest = Some(Coarsest {
                map: last.map,
                problem,
                csr: last.csr,
            });
            hierarchy.input_csr = Some(input_csr);
        }
        hierarchy
    }

    /// Number of levels (0 when the solve runs on the input problem).
    pub(crate) fn depth(&self) -> usize {
        self.levels.len() + usize::from(self.coarsest.is_some())
    }

    /// The problem the descent runs on: the coarsest level, or `problem`
    /// itself when there are no levels.
    pub(crate) fn coarsest<'a>(&'a self, problem: &'a PartitionProblem) -> &'a PartitionProblem {
        self.coarsest
            .as_ref()
            .map_or(problem, |coarsest| &coarsest.problem)
    }

    /// The coarsest level's adjacency; `None` when there are no levels.
    pub(crate) fn coarsest_csr(&self) -> Option<&Csr> {
        self.coarsest.as_ref().map(|coarsest| &coarsest.csr)
    }

    /// The loads and adjacency of the level that level `level` was
    /// coarsened from: level `level − 1`, or `problem` for `level == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not below [`Self::depth`].
    pub(crate) fn finer<'a>(
        &'a self,
        level: usize,
        problem: &'a PartitionProblem,
    ) -> (Loads<'a>, &'a Csr) {
        assert!(
            level < self.depth(),
            "level {level} is not in the hierarchy"
        );
        let input_csr = self
            .input_csr
            .as_ref()
            .unwrap_or_else(|| unreachable!("a hierarchy with levels keeps the input adjacency"));
        self.source(level, problem, input_csr)
    }

    /// The loads and adjacency of the level that level `level` is
    /// coarsened from, with `input_csr` standing for the input's. Only a
    /// level below the coarsest is a source.
    fn source<'a>(
        &'a self,
        level: usize,
        problem: &'a PartitionProblem,
        input_csr: &'a Csr,
    ) -> (Loads<'a>, &'a Csr) {
        match level.checked_sub(1).and_then(|l| self.levels.get(l)) {
            Some(finer) => (finer.loads(problem.num_planes()), &finer.csr),
            None => (Loads::of(problem), input_csr),
        }
    }

    /// Level `level`'s map from the gates of the level it was coarsened
    /// from onto its own.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not below [`Self::depth`].
    pub(crate) fn map_of(&self, level: usize) -> &[u32] {
        match (self.levels.get(level), &self.coarsest) {
            (Some(finer), _) => &finer.map,
            (None, Some(coarsest)) if level == self.levels.len() => &coarsest.map,
            _ => panic!("level {level} is not in the hierarchy"),
        }
    }

    /// Projects `labels`, a labelling of level `level`'s gates, in place
    /// onto the level it was coarsened from: each fine gate takes its
    /// coarse gate's plane. `labels` grows to the finer level's size, within
    /// its capacity if that suffices.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not below [`Self::depth`] or `labels` does not
    /// label that level's gates.
    pub(crate) fn project(&self, level: usize, labels: &mut Vec<u32>) {
        let map = self.map_of(level);
        let coarse_gates = labels.len();
        labels.resize(map.len(), 0);
        // From the last gate down: a coarse gate's index is at most its
        // fine gates', so each read precedes the write to its slot.
        for (gate, &coarse) in map.iter().enumerate().rev() {
            debug_assert!((coarse as usize) < coarse_gates && coarse as usize <= gate);
            labels[gate] = labels[coarse as usize];
        }
    }

    /// The bytes each level holds (its map, loads, adjacency and, at the
    /// coarsest level, its problem's edge list), finest first, with whether
    /// it holds an edge list; then the bytes of the input's adjacency.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> (Vec<(usize, bool)>, usize) {
        fn bytes<T>(buffer: &Vec<T>) -> usize {
            buffer.capacity() * std::mem::size_of::<T>()
        }
        let csr = |csr: &Csr| bytes(&csr.offsets) + bytes(&csr.neighbors);
        let mut levels: Vec<(usize, bool)> = self
            .levels
            .iter()
            .map(|l| {
                (
                    bytes(&l.map) + bytes(&l.bias) + bytes(&l.area) + csr(&l.csr),
                    false,
                )
            })
            .collect();
        if let Some(c) = &self.coarsest {
            let problem = c.problem.num_gates() * 2 * std::mem::size_of::<f64>()
                + c.problem.num_edges() * std::mem::size_of::<(u32, u32)>();
            levels.push((bytes(&c.map) + problem + csr(&c.csr), true));
        }
        (levels, self.input_csr.as_ref().map_or(0, csr))
    }

    /// Projects a labelling of the coarsest problem through every level
    /// onto the input problem.
    pub(crate) fn project_to_input(&self, coarsest: Partition) -> Partition {
        let planes = coarsest.num_planes();
        let mut labels = coarsest.into_labels();
        if self.depth() > 0 {
            labels.reserve_exact(self.map_of(0).len() - labels.len());
        }
        for level in (0..self.depth()).rev() {
            self.project(level, &mut labels);
        }
        Partition::from_labels(labels, planes)
            .unwrap_or_else(|_| unreachable!("projected labels stay in range"))
    }
}

impl Level {
    fn loads(&self, num_planes: usize) -> Loads<'_> {
        Loads {
            bias: &self.bias,
            area: &self.area,
            total_bias: self.total_bias,
            total_area: self.total_area,
            num_edges: self.num_edges,
            num_planes,
        }
    }
}

/// One contraction of the level `fine` describes, whose adjacency is `csr`
/// and edge list `edges`: the coarse level and its edge list. `None` if no
/// gate could be matched, or if a summed bias or area overflows.
fn contract(fine: Loads<'_>, csr: &Csr, edges: &[(u32, u32)]) -> Option<(Level, Vec<(u32, u32)>)> {
    let n = fine.num_gates();
    let gate_of = |word: u32| (word & !SRC_BIT) as usize;

    // Heavy-edge matching in index order. `shared[v]` counts the edges
    // between the current gate and `v`; the second sweep over the same
    // neighbors reads each count once and resets it.
    let mut mate = vec![UNMATCHED; n];
    let mut shared = vec![0u32; n];
    // The edges inside the pairs, which the coarse edge list drops.
    let mut internal = 0;
    let mut pairs = 0;
    for u in 0..n {
        if mate[u] != UNMATCHED {
            continue;
        }
        let neighbors = csr.neighbors_of(u);
        for &word in neighbors {
            shared[gate_of(word)] += 1;
        }
        let mut best = UNMATCHED;
        let mut best_weight = 0;
        for &word in neighbors {
            let v = gate_of(word);
            let weight = std::mem::take(&mut shared[v]);
            let heavier = weight > best_weight || (weight == best_weight && (v as u32) < best);
            if weight > 0 && mate[v] == UNMATCHED && heavier {
                best = v as u32;
                best_weight = weight;
            }
        }
        if best != UNMATCHED {
            mate[u] = best;
            mate[best as usize] = u as u32;
            internal += best_weight as usize;
            pairs += 1;
        }
    }

    // Two-hop pairing: gates still unmatched pair up through a shared
    // neighbor. `shared`, all zero again, counts each hub's entries of
    // single gates; a hub with fewer than two cannot pair. A pending gate
    // that appears again (a parallel edge) is not its own partner.
    for single in (0..n).filter(|&gate| mate[gate] == UNMATCHED) {
        for &word in csr.neighbors_of(single) {
            shared[gate_of(word)] += 1;
        }
    }
    for hub in (0..n).filter(|&hub| shared[hub] >= 2) {
        let mut pending = UNMATCHED;
        for &word in csr.neighbors_of(hub) {
            let v = gate_of(word) as u32;
            if mate[v as usize] != UNMATCHED || v == pending {
                continue;
            }
            if pending == UNMATCHED {
                pending = v;
            } else {
                mate[pending as usize] = v;
                mate[v as usize] = pending;
                pending = UNMATCHED;
                pairs += 1;
            }
        }
    }
    drop(shared);
    if pairs == 0 {
        return None;
    }
    let coarse_n = n - pairs;

    // Coarse ids in order of each pair's lower index, and the loads summed
    // in fine order from zero, as `bias[c] += fine.bias[u]` over `u` would.
    // `mate` becomes the map: a fine gate below its mate takes the next id
    // and hands it to the mate, whose slot the loop then finds below its
    // own index.
    let mut map = mate;
    let mut bias = Vec::with_capacity(coarse_n);
    let mut area = Vec::with_capacity(coarse_n);
    for u in 0..n {
        let partner = map[u];
        if partner != UNMATCHED && (partner as usize) < u {
            continue;
        }
        let id = bias.len() as u32;
        let (mut b, mut a) = (0.0 + fine.bias[u], 0.0 + fine.area[u]);
        map[u] = id;
        if partner != UNMATCHED {
            b += fine.bias[partner as usize];
            a += fine.area[partner as usize];
            map[partner as usize] = id;
        }
        // Only a load that overflows to infinity when summed is refused.
        if !(b.is_finite() && a.is_finite()) {
            return None;
        }
        bias.push(b);
        area.push(a);
    }
    debug_assert_eq!(bias.len(), coarse_n);

    // One pass over the finer edge list: the coarse edges, and each coarse
    // gate's degree at `degrees[gate + 1]`. Two-hop partners share no edge,
    // so the list is sized exactly and filled without a reallocation.
    let mut coarse_edges = Vec::with_capacity(edges.len() - internal);
    let mut degrees = vec![0u32; coarse_n + 1];
    for &(u, v) in edges {
        let (a, b) = (map[u as usize], map[v as usize]);
        if a != b {
            coarse_edges.push((a, b));
            degrees[a as usize + 1] += 1;
            degrees[b as usize + 1] += 1;
        }
    }
    debug_assert_eq!(coarse_edges.len(), edges.len() - internal);
    let csr = Csr::from_degrees(degrees, &coarse_edges);
    let level = Level {
        map,
        total_bias: bias.iter().sum(),
        total_area: area.iter().sum(),
        bias,
        area,
        num_edges: coarse_edges.len(),
        csr,
    };
    Some((level, coarse_edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn chain(n: u32, k: usize) -> PartitionProblem {
        PartitionProblem::new(
            vec![1.0; n as usize],
            vec![10.0; n as usize],
            (0..n - 1).map(|i| (i, i + 1)).collect(),
            k,
        )
        .unwrap()
    }

    fn contract_problem(p: &PartitionProblem) -> Option<Level> {
        contract(Loads::of(p), &Csr::new(p), p.edges()).map(|(level, _)| level)
    }

    /// Level `level`'s loads, adjacency and map.
    fn parts(h: &Hierarchy, level: usize, k: usize) -> (Loads<'_>, &Csr, &[u32]) {
        match h.levels.get(level) {
            Some(l) => (l.loads(k), &l.csr, &l.map),
            None => {
                let c = h.coarsest.as_ref().expect("level is in the hierarchy");
                (Loads::of(&c.problem), &c.csr, &c.map)
            }
        }
    }

    #[test]
    fn coarsen_halves_a_chain() {
        let p = chain(40, 2);
        let level = contract_problem(&p).expect("chain matches");
        assert_eq!(level.bias.len(), 20);
    }

    #[test]
    fn heaviest_parallel_edge_is_contracted_first() {
        let p = PartitionProblem::new(
            vec![1.0; 4],
            vec![1.0; 4],
            vec![(0, 1), (1, 2), (1, 2), (1, 2), (2, 3)],
            2,
        )
        .unwrap();
        let level = contract_problem(&p).expect("matches");
        // Gate 0 pairs with its only neighbor 1, so 2 and 3 pair next.
        assert_eq!(level.map, vec![0, 0, 1, 1]);
        let p = PartitionProblem::new(vec![1.0; 3], vec![1.0; 3], vec![(0, 1), (0, 2), (0, 2)], 2)
            .unwrap();
        // Gate 0 prefers 2 (two edges) over 1 (one edge).
        assert_eq!(contract_problem(&p).expect("matches").map, vec![0, 1, 0]);
    }

    #[test]
    fn two_hop_pairs_the_leaves_of_a_star() {
        // Hub 0 with eight leaves: matching takes one leaf, two-hop pairs
        // the remaining seven but one.
        let edges: Vec<(u32, u32)> = (1..9).map(|leaf| (0, leaf)).collect();
        let p = PartitionProblem::new(vec![1.0; 9], vec![1.0; 9], edges, 2).unwrap();
        let level = contract_problem(&p).expect("matches");
        assert_eq!(level.bias.len(), 5);
        assert_eq!(level.map, vec![0, 0, 1, 1, 2, 2, 3, 3, 4]);
    }

    #[test]
    fn small_and_edgeless_problems_get_no_levels() {
        let none = Interrupt::none();
        assert_eq!(Hierarchy::build(&chain(120, 5), &none, |_| {}).depth(), 0);
        // 4·K is the floor when it exceeds the constant.
        assert_eq!(Hierarchy::build(&chain(150, 40), &none, |_| {}).depth(), 0);
        let edgeless = PartitionProblem::new(vec![1.0; 500], vec![1.0; 500], vec![], 2).unwrap();
        let h = Hierarchy::build(&edgeless, &none, |_| {});
        assert_eq!(h.depth(), 0);
        assert!(h.input_csr.is_none());
    }

    #[test]
    fn a_long_chain_coarsens_to_the_floor_with_events() {
        let p = chain(1000, 5);
        let mut events = Vec::new();
        let h = Hierarchy::build(&p, &Interrupt::none(), |e| events.push(*e));
        assert_eq!(events.len(), h.depth());
        assert!(h.coarsest(&p).num_gates() <= COARSEST_GATES);
        for (level, event) in events.iter().enumerate() {
            assert_eq!(event.level, level);
            let (fine, _) = h.finer(level, &p);
            assert_eq!(event.fine_gates, fine.num_gates());
            assert_eq!(event.fine_edges, fine.num_edges);
            let (coarse, _, _) = parts(&h, level, p.num_planes());
            assert_eq!(event.coarse_gates, coarse.num_gates());
            assert_eq!(event.coarse_edges, coarse.num_edges);
        }
    }

    #[test]
    fn loads_that_would_overflow_stop_coarsening() {
        let huge = PartitionProblem::new(
            vec![f64::MAX; 400],
            vec![1.0; 400],
            (0..399).map(|i| (i, i + 1)).collect(),
            2,
        )
        .unwrap();
        assert_eq!(
            Hierarchy::build(&huge, &Interrupt::none(), |_| {}).depth(),
            0
        );
    }

    #[test]
    fn a_fired_interrupt_builds_no_levels() {
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let interrupt = Interrupt::with_cancel(token);
        assert_eq!(
            Hierarchy::build(&chain(1000, 5), &interrupt, |_| {}).depth(),
            0
        );
    }

    /// A seeded random problem: a random forest plus extra random edges,
    /// parallel copies in either direction, and isolated gates.
    fn random_problem(rng: &mut StdRng) -> PartitionProblem {
        let n = rng.random_range(5..501u32);
        let k = rng.random_range(2..9usize);
        let mut edges = Vec::new();
        for i in 1..n {
            if rng.random_bool(0.1) {
                continue; // isolated unless a later gate picks it
            }
            let j = rng.random_range(0..i);
            edges.push((j, i));
            if rng.random_bool(0.2) {
                edges.push((i, j));
            }
            if rng.random_bool(0.3) {
                edges.push((rng.random_range(0..n), i));
            }
        }
        PartitionProblem::new(
            (0..n).map(|_| rng.random_range(0.1..3.0)).collect(),
            (0..n).map(|_| rng.random_range(1.0..50.0)).collect(),
            edges,
            k,
        )
        .unwrap()
    }

    /// The reference contraction: heavy-edge matching, two-hop pairing
    /// that scans every hub, then the coarse edge list remapped into a
    /// [`PartitionProblem`] and its [`Csr::new`]. Returns the map, the
    /// coarse problem and its adjacency; `None` where [`contract`] must
    /// refuse too.
    fn reference(
        problem: &PartitionProblem,
        csr: &Csr,
    ) -> Option<(Vec<u32>, PartitionProblem, Csr)> {
        let n = problem.num_gates();
        let gate_of = |word: u32| (word & !SRC_BIT) as usize;
        let mut mate = vec![UNMATCHED; n];
        let mut shared = vec![0u32; n];
        for u in 0..n {
            if mate[u] != UNMATCHED {
                continue;
            }
            let neighbors = csr.neighbors_of(u);
            for &word in neighbors {
                shared[gate_of(word)] += 1;
            }
            let mut best = UNMATCHED;
            let mut best_weight = 0;
            for &word in neighbors {
                let v = gate_of(word);
                let weight = std::mem::take(&mut shared[v]);
                let heavier = weight > best_weight || (weight == best_weight && (v as u32) < best);
                if weight > 0 && mate[v] == UNMATCHED && heavier {
                    best = v as u32;
                    best_weight = weight;
                }
            }
            if best != UNMATCHED {
                mate[u] = best;
                mate[best as usize] = u as u32;
            }
        }
        for hub in 0..n {
            let mut pending = UNMATCHED;
            for &word in csr.neighbors_of(hub) {
                let v = gate_of(word) as u32;
                if mate[v as usize] != UNMATCHED || v == pending {
                    continue;
                }
                if pending == UNMATCHED {
                    pending = v;
                } else {
                    mate[pending as usize] = v;
                    mate[v as usize] = pending;
                    pending = UNMATCHED;
                }
            }
        }
        let mut map = vec![UNMATCHED; n];
        let mut next = 0u32;
        for u in 0..n {
            if map[u] != UNMATCHED {
                continue;
            }
            map[u] = next;
            if mate[u] != UNMATCHED {
                map[mate[u] as usize] = next;
            }
            next += 1;
        }
        let coarse_n = next as usize;
        if coarse_n == n {
            return None;
        }
        let mut bias = vec![0.0; coarse_n];
        let mut area = vec![0.0; coarse_n];
        for (u, &c) in map.iter().enumerate() {
            bias[c as usize] += problem.bias()[u];
            area[c as usize] += problem.area()[u];
        }
        let edges = problem
            .edges()
            .iter()
            .map(|&(u, v)| (map[u as usize], map[v as usize]))
            .filter(|&(a, b)| a != b)
            .collect();
        let coarse = PartitionProblem::new(bias, area, edges, problem.num_planes()).ok()?;
        let csr = Csr::new(&coarse);
        Some((map, coarse, csr))
    }

    /// `Σ_E |Δ|^p` of `labels` over the edges of `csr`, each read once from
    /// its source's entry, with integer arithmetic, so the sum is exact.
    fn raw_f1(csr: &Csr, labels: &[u32], p: u32) -> u128 {
        (0..labels.len())
            .flat_map(|u| {
                csr.neighbors_of(u)
                    .iter()
                    .filter(|&&word| word & SRC_BIT != 0)
                    .map(move |&word| (u, (word & !SRC_BIT) as usize))
            })
            .map(|(u, v)| u128::from(labels[u].abs_diff(labels[v])).pow(p))
            .sum()
    }

    /// Per-plane bias and area loads, summed gate by gate.
    fn loads(level: &Loads<'_>, labels: &[u32]) -> (Vec<f64>, Vec<f64>) {
        let mut bias = vec![0.0; level.num_planes];
        let mut area = vec![0.0; level.num_planes];
        for (gate, &plane) in labels.iter().enumerate() {
            bias[plane as usize] += level.bias[gate];
            area[plane as usize] += level.area[gate];
        }
        (bias, area)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// The oracle: on 200 seeded random problems, every level equals the
    /// reference contraction of the level it was coarsened from in its
    /// map, its bias and area bit for bit, its totals, its edge count and
    /// its CSR, and the coarsest level's edge list equals the reference's.
    /// Every map sends each fine gate to exactly one coarse gate, and every
    /// projected labelling keeps the raw interconnect sum (read from the
    /// CSRs) and the plane loads of the coarse labelling it came from.
    #[test]
    fn every_level_is_an_exact_contraction() {
        let mut rng = StdRng::seed_from_u64(0xc0a2);
        let mut deep = 0;
        for trial in 0..200 {
            let p = random_problem(&mut rng);
            let k = p.num_planes();
            let h = Hierarchy::build(&p, &Interrupt::none(), |_| {});
            deep += usize::from(h.depth() > 1);
            let mut source = (p.clone(), Csr::new(&p));
            for level in 0..h.depth() {
                let (fine, fine_csr) = h.finer(level, &p);
                let (coarse, csr, map) = parts(&h, level, k);
                let tag = format!("trial {trial} level {level}");
                let (expect_map, expect, expect_csr) =
                    reference(&source.0, &source.1).expect("the reference contracts");
                assert_eq!(map, &expect_map[..], "{tag}: map");
                assert_eq!(bits(coarse.bias), bits(expect.bias()), "{tag}: bias");
                assert_eq!(bits(coarse.area), bits(expect.area()), "{tag}: area");
                assert_eq!(
                    (coarse.total_bias.to_bits(), coarse.total_area.to_bits()),
                    (expect.total_bias().to_bits(), expect.total_area().to_bits()),
                    "{tag}: totals"
                );
                assert_eq!(coarse.num_edges, expect.num_edges(), "{tag}: edges");
                assert_eq!(csr.offsets, expect_csr.offsets, "{tag}: offsets");
                assert_eq!(csr.neighbors, expect_csr.neighbors, "{tag}: neighbors");
                assert_eq!(coarse.num_planes, k);

                // A map: one coarse gate per fine gate, every coarse gate hit.
                assert_eq!(map.len(), fine.num_gates(), "{tag}");
                let mut hit = vec![0usize; coarse.num_gates()];
                for &c in map {
                    hit[c as usize] += 1;
                }
                assert!(hit.iter().all(|&h| (1..=2).contains(&h)), "{tag}");
                assert!(close(fine.total_bias, coarse.total_bias), "{tag}");
                assert!(close(fine.total_area, coarse.total_area), "{tag}");

                // Random coarse labellings project, in place, to each fine
                // gate's coarse gate's plane, with equal raw F₁ and loads.
                for _ in 0..4 {
                    let labels: Vec<u32> = (0..coarse.num_gates())
                        .map(|_| rng.random_range(0..k as u32))
                        .collect();
                    let mut projected = labels.clone();
                    h.project(level, &mut projected);
                    let expect: Vec<u32> = map.iter().map(|&c| labels[c as usize]).collect();
                    assert_eq!(projected, expect, "{tag}: projection");
                    for exponent in [1, 2, 4] {
                        assert_eq!(
                            raw_f1(csr, &labels, exponent),
                            raw_f1(fine_csr, &projected, exponent),
                            "{tag}: p = {exponent}"
                        );
                    }
                    let (cb, ca) = loads(&coarse, &labels);
                    let (fb, fa) = loads(&fine, &projected);
                    for plane in 0..k {
                        assert!(close(cb[plane], fb[plane]), "{tag}");
                        assert!(close(ca[plane], fa[plane]), "{tag}");
                    }
                }
                source = (expect, expect_csr);
            }
            if h.depth() > 0 {
                assert_eq!(h.coarsest(&p).edges(), source.0.edges(), "trial {trial}");
            }
            // Through every level at once, onto the input problem.
            let coarsest = h.coarsest(&p);
            let labels: Vec<u32> = (0..coarsest.num_gates())
                .map(|_| rng.random_range(0..k as u32))
                .collect();
            let input = h.project_to_input(Partition::from_labels(labels.clone(), k).unwrap());
            assert_eq!(input.num_gates(), p.num_gates());
            let coarsest_csr = Csr::new(coarsest);
            let input_csr = Csr::new(&p);
            assert_eq!(
                raw_f1(&coarsest_csr, &labels, 4),
                raw_f1(&input_csr, input.labels(), 4)
            );
        }
        assert!(deep > 50, "only {deep} problems coarsened more than once");
    }
}

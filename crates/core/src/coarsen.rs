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
//! **One level** contracts a matching of the finer problem's gates:
//!
//! 1. *Heavy-edge matching*, in gate-index order: an unmatched gate pairs
//!    with the unmatched neighbor it shares the most (parallel) edges with,
//!    ties to the lower index. The edge counts come from the level's
//!    [`Csr`] through a dense per-gate counter that is reset after each
//!    gate, so one gate costs `O(deg)`.
//! 2. *Two-hop pairing*, as METIS does: after step 1 no edge has two
//!    unmatched ends, but a hub matched to one of its leaves strands the
//!    others. Gates still unmatched pair up through a shared neighbor,
//!    scanned in neighbor-index order; each CSR entry is read once.
//!
//! A pair becomes one coarse gate (numbered in order of its lower fine
//! index) carrying the summed bias and area; an unmatched gate passes
//! through alone. The coarse edge list keeps, in edge-list order, every
//! fine edge whose ends land in different coarse gates, parallel copies
//! included.
//!
//! **Why a coarse solve is a solve of the fine problem.** Projecting a
//! coarse labelling (each fine gate takes its coarse gate's plane) gives
//! the fine labelling the same plane loads, and the same raw
//! `Σ_E |Δ|^p`: a fine edge inside a coarse gate has `Δ = 0`, and every
//! other one has its own copy at the coarse level. Only `F₁`'s
//! normalization `N₁ = |E|·(K−1)^p` differs between the levels. The unit
//! tests check this identity by brute force over the edge lists.
//!
//! Coarsening stops at the floor, when no gate can be matched, after a
//! level that keeps more than [`STALL_SHARE`] of its gates (METIS's rule),
//! when a summed load would overflow, or when the solve's interrupt fires.

use crate::assign::Partition;
use crate::budget::Interrupt;
use crate::engine::{Csr, SRC_BIT};
use crate::problem::PartitionProblem;
use crate::refine::GateSet;
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

/// One contraction: the coarse problem, its adjacency and the map from the
/// finer level's gates onto its gates.
#[derive(Debug)]
struct Level {
    /// `map[fine gate]` is the coarse gate it contracted into.
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
    levels: Vec<Level>,
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
        let floor = COARSEST_GATES.max(4 * problem.num_planes());
        let mut hierarchy = Hierarchy::default();
        if problem.num_gates() <= floor || interrupt.poll().is_some() {
            return hierarchy;
        }
        let input_csr = Csr::new(problem);
        loop {
            let (fine, csr) = hierarchy.source(hierarchy.levels.len(), problem, &input_csr);
            let fine_gates = fine.num_gates();
            let fine_edges = fine.num_edges();
            if fine_gates <= floor {
                break;
            }
            let Some(level) = coarsen_once(fine, csr) else {
                break;
            };
            let coarse_gates = level.problem.num_gates();
            on_level(&CoarsenEvent {
                level: hierarchy.levels.len(),
                fine_gates,
                fine_edges,
                coarse_gates,
                coarse_edges: level.problem.num_edges(),
            });
            hierarchy.levels.push(level);
            if coarse_gates as f64 > STALL_SHARE * fine_gates as f64 || interrupt.poll().is_some() {
                break;
            }
        }
        if !hierarchy.levels.is_empty() {
            hierarchy.input_csr = Some(input_csr);
        }
        hierarchy
    }

    /// Number of levels (0 when the solve runs on the input problem).
    pub(crate) fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The problem the descent runs on: the coarsest level, or `problem`
    /// itself when there are no levels.
    pub(crate) fn coarsest<'a>(&'a self, problem: &'a PartitionProblem) -> &'a PartitionProblem {
        self.levels.last().map_or(problem, |level| &level.problem)
    }

    /// The problem level `level` was coarsened from, and its adjacency.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not below [`Self::depth`].
    pub(crate) fn finer<'a>(
        &'a self,
        level: usize,
        problem: &'a PartitionProblem,
    ) -> (&'a PartitionProblem, &'a Csr) {
        let input_csr = self
            .input_csr
            .as_ref()
            .unwrap_or_else(|| unreachable!("a hierarchy with levels keeps the input adjacency"));
        self.source(level, problem, input_csr)
    }

    /// The problem level `level` is coarsened from — level `level − 1`'s,
    /// or the input for `level == 0` — and its adjacency, with `input_csr`
    /// standing for the input's.
    fn source<'a>(
        &'a self,
        level: usize,
        problem: &'a PartitionProblem,
        input_csr: &'a Csr,
    ) -> (&'a PartitionProblem, &'a Csr) {
        match level.checked_sub(1).and_then(|l| self.levels.get(l)) {
            Some(finer) => (&finer.problem, &finer.csr),
            None => (problem, input_csr),
        }
    }

    /// Projects a labelling of level `level`'s coarse problem onto the
    /// problem it was coarsened from: each fine gate takes its coarse
    /// gate's plane.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not below [`Self::depth`] or `coarse` does not
    /// label that level's gates.
    pub(crate) fn project(&self, level: usize, coarse: &Partition) -> Partition {
        let labels = coarse.labels();
        let fine: Vec<u32> = self.levels[level]
            .map
            .iter()
            .map(|&c| labels[c as usize])
            .collect();
        Partition::from_labels(fine, coarse.num_planes())
            .unwrap_or_else(|_| unreachable!("projected labels stay in range"))
    }

    /// Projects a set of level `level`'s coarse gates onto the problem it
    /// was coarsened from: a fine gate is a member when its coarse gate is.
    /// An empty set projects to an empty one without a bit per fine gate.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not below [`Self::depth`] or a member of
    /// `coarse` is not a gate of that level.
    pub(crate) fn project_set(&self, level: usize, coarse: &GateSet) -> GateSet {
        if coarse.is_empty() {
            return GateSet::default();
        }
        let map = &self.levels[level].map;
        let mut fine = GateSet::empty(map.len());
        for (gate, &c) in map.iter().enumerate() {
            if coarse.contains(c as usize) {
                fine.insert(gate);
            }
        }
        fine
    }

    /// Projects a labelling of the coarsest problem through every level
    /// onto the input problem.
    pub(crate) fn project_to_input(&self, coarsest: Partition) -> Partition {
        (0..self.depth())
            .rev()
            .fold(coarsest, |partition, level| self.project(level, &partition))
    }
}

/// One contraction of `problem` (whose adjacency is `csr`); `None` if no
/// gate could be matched, or if a summed bias or area overflows.
fn coarsen_once(problem: &PartitionProblem, csr: &Csr) -> Option<Level> {
    let n = problem.num_gates();
    let gate_of = |word: u32| (word & !SRC_BIT) as usize;

    // Heavy-edge matching in index order. `shared[v]` counts the edges
    // between the current gate and `v`; the second sweep over the same
    // neighbors reads each count once and resets it.
    let mut mate = vec![UNMATCHED; n];
    let mut shared = vec![0u32; n];
    // The edges inside the pairs, which the coarse edge list drops.
    let mut internal = 0;
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
        }
    }

    // Two-hop pairing: gates still unmatched pair up through a shared
    // neighbor. A pending gate that appears again (a parallel edge) is
    // not its own partner.
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

    // Coarse ids in order of each pair's lower index.
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
    // Two-hop partners share no edge, so the coarse edge list is sized
    // exactly and filled without a reallocation.
    let mut edges = Vec::with_capacity(problem.num_edges() - internal);
    edges.extend(
        problem
            .edges()
            .iter()
            .map(|&(u, v)| (map[u as usize], map[v as usize]))
            .filter(|&(a, b)| a != b),
    );
    debug_assert_eq!(edges.len(), problem.num_edges() - internal);
    // Only a load that overflows to infinity when summed is refused.
    let coarse = PartitionProblem::new(bias, area, edges, problem.num_planes()).ok()?;
    let csr = Csr::new(&coarse);
    Some(Level {
        map,
        problem: coarse,
        csr,
    })
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

    fn contract(p: &PartitionProblem) -> Option<Level> {
        coarsen_once(p, &Csr::new(p))
    }

    #[test]
    fn coarsen_halves_a_chain() {
        let p = chain(40, 2);
        let level = contract(&p).expect("chain matches");
        assert_eq!(level.problem.num_gates(), 20);
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
        let level = contract(&p).expect("matches");
        // Gate 0 pairs with its only neighbor 1, so 2 and 3 pair next.
        assert_eq!(level.map, vec![0, 0, 1, 1]);
        let p = PartitionProblem::new(vec![1.0; 3], vec![1.0; 3], vec![(0, 1), (0, 2), (0, 2)], 2)
            .unwrap();
        // Gate 0 prefers 2 (two edges) over 1 (one edge).
        assert_eq!(contract(&p).expect("matches").map, vec![0, 1, 0]);
    }

    #[test]
    fn two_hop_pairs_the_leaves_of_a_star() {
        // Hub 0 with eight leaves: matching takes one leaf, two-hop pairs
        // the remaining seven but one.
        let edges: Vec<(u32, u32)> = (1..9).map(|leaf| (0, leaf)).collect();
        let p = PartitionProblem::new(vec![1.0; 9], vec![1.0; 9], edges, 2).unwrap();
        let level = contract(&p).expect("matches");
        assert_eq!(level.problem.num_gates(), 5);
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
            assert_eq!(event.coarse_gates, h.levels[level].problem.num_gates());
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

    /// `Σ_E |Δ|^p` of `labels` over `problem`'s edge list, with integer
    /// arithmetic, so the sum is exact.
    fn raw_f1(problem: &PartitionProblem, labels: &[u32], p: u32) -> u128 {
        problem
            .edges()
            .iter()
            .map(|&(u, v)| u128::from(labels[u as usize].abs_diff(labels[v as usize])).pow(p))
            .sum()
    }

    /// Per-plane bias and area loads, summed gate by gate.
    fn loads(problem: &PartitionProblem, labels: &[u32]) -> (Vec<f64>, Vec<f64>) {
        let mut bias = vec![0.0; problem.num_planes()];
        let mut area = vec![0.0; problem.num_planes()];
        for (gate, &plane) in labels.iter().enumerate() {
            bias[plane as usize] += problem.bias()[gate];
            area[plane as usize] += problem.area()[gate];
        }
        (bias, area)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
    }

    /// The oracle: on 200 seeded random problems, every level maps each
    /// fine gate to exactly one coarse gate and conserves bias and area,
    /// and every projected labelling keeps the raw interconnect sum and
    /// the plane loads of the coarse labelling it came from. Every check
    /// is computed from the edge lists and the maps alone.
    #[test]
    fn every_level_is_an_exact_contraction() {
        let mut rng = StdRng::seed_from_u64(0xc0a2);
        let mut deep = 0;
        for trial in 0..200 {
            let p = random_problem(&mut rng);
            let h = Hierarchy::build(&p, &Interrupt::none(), |_| {});
            deep += usize::from(h.depth() > 1);
            for level in 0..h.depth() {
                let (fine, _) = h.finer(level, &p);
                let coarse = &h.levels[level].problem;
                let map = &h.levels[level].map;
                // A map: one coarse gate per fine gate, every coarse gate hit.
                assert_eq!(map.len(), fine.num_gates(), "trial {trial}");
                let mut hit = vec![0usize; coarse.num_gates()];
                for &c in map {
                    hit[c as usize] += 1;
                }
                assert!(hit.iter().all(|&h| (1..=2).contains(&h)), "trial {trial}");
                // Conservation, per coarse gate and in total.
                let mut bias = vec![0.0; coarse.num_gates()];
                let mut area = vec![0.0; coarse.num_gates()];
                for (u, &c) in map.iter().enumerate() {
                    bias[c as usize] += fine.bias()[u];
                    area[c as usize] += fine.area()[u];
                }
                for c in 0..coarse.num_gates() {
                    assert!(close(bias[c], coarse.bias()[c]), "trial {trial}");
                    assert!(close(area[c], coarse.area()[c]), "trial {trial}");
                }
                assert!(close(fine.total_bias(), coarse.total_bias()));
                assert!(close(fine.total_area(), coarse.total_area()));
                assert_eq!(coarse.num_planes(), fine.num_planes());

                // Random coarse labellings project to equal raw F₁ and loads.
                let k = coarse.num_planes() as u32;
                for _ in 0..4 {
                    let labels: Vec<u32> = (0..coarse.num_gates())
                        .map(|_| rng.random_range(0..k))
                        .collect();
                    let projected = h.project(
                        level,
                        &Partition::from_labels(labels.clone(), k as usize).unwrap(),
                    );
                    for exponent in [1, 2, 4] {
                        assert_eq!(
                            raw_f1(coarse, &labels, exponent),
                            raw_f1(fine, projected.labels(), exponent),
                            "trial {trial} level {level} p = {exponent}"
                        );
                    }
                    let (cb, ca) = loads(coarse, &labels);
                    let (fb, fa) = loads(fine, projected.labels());
                    for plane in 0..k as usize {
                        assert!(close(cb[plane], fb[plane]), "trial {trial} level {level}");
                        assert!(close(ca[plane], fa[plane]), "trial {trial} level {level}");
                    }
                }
            }
            // Through every level at once, onto the input problem.
            let coarsest = h.coarsest(&p);
            let labels: Vec<u32> = (0..coarsest.num_gates())
                .map(|_| rng.random_range(0..p.num_planes() as u32))
                .collect();
            let input =
                h.project_to_input(Partition::from_labels(labels.clone(), p.num_planes()).unwrap());
            assert_eq!(input.num_gates(), p.num_gates());
            assert_eq!(raw_f1(coarsest, &labels, 4), raw_f1(&p, input.labels(), 4));
        }
        assert!(deep > 50, "only {deep} problems coarsened more than once");
    }
}

//! Refine checked against oracles that share no code with it.
//!
//! `NaiveRefine` is a second, deliberately plain implementation of the
//! single-move sweep. It builds its own neighbor
//! lists from the edge list, keeps its own plane loads, and prices every
//! gate on every pass, with the gain written out in the operation order
//! the library documents (`c₁·(ΔF₁/N₁) + c₂·ΔF₂ + c₃·ΔF₃`, each raw `ΔF₁`
//! summed over the incident edges in edge-list order). The library's
//! refine skips gates it can prove will not move; the oracle skips nothing.
//! The two must agree on every label, every move count and every bit of the
//! discrete cost.
//!
//! The exhaustive test starts refine from every labelling of tiny problems
//! and checks its output against from-scratch `discrete_cost` evaluations:
//! never worse than the input, and no single move improves it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfq_partition::refine::{discrete_cost, refine, RefineOptions};
use sfq_partition::{CostWeights, Partition, PartitionProblem};

/// The distance exponent `p` every test here uses (the paper's 4). Plane
/// distances are small integers, so `d⁴` is exact however it is computed.
const EXPONENT: f64 = 4.0;

/// `|a − b|^4` for two plane indices.
fn dist(a: u32, b: u32) -> f64 {
    (f64::from(a) - f64::from(b)).abs().powi(4)
}

/// The library's normalizations: a zero normalizer reads as 1.
fn nonzero(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        1.0
    }
}

/// One labelling's plane loads and constants, with every gate priced in
/// full each time it is offered a move.
struct NaiveRefine<'a> {
    problem: &'a PartitionProblem,
    weights: CostWeights,
    k: usize,
    /// Per gate, the other endpoint of each incident edge, in edge-list
    /// order (a parallel edge once per copy).
    neighbors: Vec<Vec<usize>>,
    labels: Vec<u32>,
    bias_load: Vec<f64>,
    area_load: Vec<f64>,
    b_mean: f64,
    a_mean: f64,
    n1: f64,
    n2: f64,
    n3: f64,
}

impl<'a> NaiveRefine<'a> {
    fn new(problem: &'a PartitionProblem, labels: &[u32], weights: CostWeights) -> Self {
        let g = problem.num_gates();
        let k = problem.num_planes();
        let mut neighbors = vec![Vec::new(); g];
        for &(u, v) in problem.edges() {
            neighbors[u as usize].push(v as usize);
            neighbors[v as usize].push(u as usize);
        }
        let mut bias_load = vec![0.0; k];
        let mut area_load = vec![0.0; k];
        let mut total_bias = 0.0;
        let mut total_area = 0.0;
        for ((&plane, &b), &a) in labels.iter().zip(problem.bias()).zip(problem.area()) {
            bias_load[plane as usize] += b;
            area_load[plane as usize] += a;
            total_bias += b;
            total_area += a;
        }
        let kf = k as f64;
        let b_mean = total_bias / kf;
        let a_mean = total_area / kf;
        NaiveRefine {
            problem,
            weights,
            k,
            neighbors,
            labels: labels.to_vec(),
            bias_load,
            area_load,
            b_mean,
            a_mean,
            n1: nonzero(problem.num_edges() as f64 * (kf - 1.0).powf(EXPONENT)),
            n2: nonzero((kf - 1.0) * b_mean * b_mean),
            n3: nonzero((kf - 1.0) * a_mean * a_mean),
        }
    }

    /// The cost delta of moving `gate` to `target`, from scratch.
    fn gain(&self, gate: usize, target: u32) -> f64 {
        let from = self.labels[gate];
        if from == target {
            return 0.0;
        }
        let mut d_f1 = 0.0;
        for &nbr in &self.neighbors[gate] {
            let there = self.labels[nbr];
            d_f1 += dist(there, target) - dist(there, from);
        }
        let kf = self.k as f64;
        let b = self.problem.bias()[gate];
        let a = self.problem.area()[gate];
        let (bp, ap) = (self.bias_load[from as usize], self.area_load[from as usize]);
        let (bq, aq) = (
            self.bias_load[target as usize],
            self.area_load[target as usize],
        );
        let d_f2 = ((bp - b - self.b_mean).powi(2) + (bq + b - self.b_mean).powi(2)
            - (bp - self.b_mean).powi(2)
            - (bq - self.b_mean).powi(2))
            / (kf * self.n2);
        let d_f3 = ((ap - a - self.a_mean).powi(2) + (aq + a - self.a_mean).powi(2)
            - (ap - self.a_mean).powi(2)
            - (aq - self.a_mean).powi(2))
            / (kf * self.n3);
        self.weights.c1 * (d_f1 / self.n1) + self.weights.c2 * d_f2 + self.weights.c3 * d_f3
    }

    /// The lowest-gain target other than the gate's plane; ties go to the
    /// lowest plane.
    fn best_move(&self, gate: usize) -> (u32, f64) {
        let from = self.labels[gate];
        let mut best: Option<(u32, f64)> = None;
        for target in 0..self.k as u32 {
            if target == from {
                continue;
            }
            let gain = self.gain(gate, target);
            if best.is_none_or(|(_, best_gain)| gain < best_gain) {
                best = Some((target, gain));
            }
        }
        best.expect("K >= 2")
    }

    fn apply(&mut self, gate: usize, target: u32) {
        let from = self.labels[gate] as usize;
        let (b, a) = (self.problem.bias()[gate], self.problem.area()[gate]);
        self.bias_load[from] -= b;
        self.area_load[from] -= a;
        self.bias_load[target as usize] += b;
        self.area_load[target as usize] += a;
        self.labels[gate] = target;
    }

    /// Index-order single-move passes until one moves nothing; returns the
    /// number of moves.
    fn single_moves(&mut self, max_passes: usize) -> usize {
        let mut moves = 0;
        for _ in 0..max_passes {
            let mut improved = false;
            for gate in 0..self.labels.len() {
                let (target, gain) = self.best_move(gate);
                if gain < -1e-15 {
                    self.apply(gate, target);
                    moves += 1;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        moves
    }

    /// `F_d` of the current labels: `F₁` over the edge list in order, the
    /// balance variances over the planes in order.
    fn cost(&self) -> f64 {
        let mut f1 = 0.0;
        for &(u, v) in self.problem.edges() {
            f1 += dist(self.labels[u as usize], self.labels[v as usize]);
        }
        let kf = self.k as f64;
        let mut f2 = 0.0;
        for &b in &self.bias_load {
            f2 += (b - self.b_mean) * (b - self.b_mean);
        }
        let mut f3 = 0.0;
        for &a in &self.area_load {
            f3 += (a - self.a_mean) * (a - self.a_mean);
        }
        self.weights.c1 * (f1 / self.n1)
            + self.weights.c2 * (f2 / (kf * self.n2))
            + self.weights.c3 * (f3 / (kf * self.n3))
    }
}

/// The oracle's `refine`: labels and moves.
fn naive_refine(
    problem: &PartitionProblem,
    start: &[u32],
    options: &RefineOptions,
) -> (Vec<u32>, usize) {
    let mut state = NaiveRefine::new(problem, start, options.weights);
    let moves = state.single_moves(options.max_passes);
    (state.labels, moves)
}

/// A random problem: `G` in 2..=300, `K` in 2..=9, parallel edges in both
/// directions, self-loops (which construction drops), isolated gates, and
/// loads drawn either freely or from a few "cell types", so that balance
/// terms tie exactly.
fn random_problem(rng: &mut StdRng) -> PartitionProblem {
    let g = if rng.random_bool(0.3) {
        rng.random_range(2..13)
    } else {
        rng.random_range(2..301)
    };
    let k = rng.random_range(2..10);
    random_problem_of(rng, g, k)
}

/// [`random_problem`] with `g` gates and `k` planes.
fn random_problem_of(rng: &mut StdRng, g: usize, k: usize) -> PartitionProblem {
    let isolated: Vec<bool> = (0..g).map(|_| rng.random_bool(0.1)).collect();
    let mut edges = Vec::new();
    for i in 1..g {
        if isolated[i] {
            continue;
        }
        for _ in 0..rng.random_range(1..4) {
            let j = rng.random_range(0..i);
            if isolated[j] {
                continue;
            }
            let (i, j) = (i as u32, j as u32);
            edges.push(if rng.random_bool(0.5) { (j, i) } else { (i, j) });
            if rng.random_bool(0.15) {
                edges.push((i, j));
            }
        }
        if rng.random_bool(0.02) {
            edges.push((i as u32, i as u32));
        }
    }
    let typed = rng.random_bool(0.5);
    let bias: Vec<f64> = (0..g)
        .map(|_| {
            if typed {
                [0.1, 0.2, 0.35, 0.0][rng.random_range(0..4)]
            } else {
                rng.random_range(0.0..2.0)
            }
        })
        .collect();
    let area: Vec<f64> = (0..g)
        .map(|_| {
            if typed {
                [100.0, 225.0, 400.0][rng.random_range(0..3)]
            } else {
                rng.random_range(1.0..900.0)
            }
        })
        .collect();
    PartitionProblem::new(bias, area, edges, k).expect("valid random problem")
}

/// Refines `start` with the library and with the oracle, which must agree
/// on every label, the move count and every bit of the discrete cost.
fn assert_refine_matches_the_oracle(
    problem: &PartitionProblem,
    start: &[u32],
    options: &RefineOptions,
    tag: &str,
) {
    let partition =
        Partition::from_labels(start.to_vec(), problem.num_planes()).expect("labels in range");
    let (refined, moves) = refine(problem, &partition, options);
    let (expected, expected_moves) = naive_refine(problem, start, options);
    assert_eq!(refined.labels(), &expected[..], "{tag}: labels");
    assert_eq!(moves, expected_moves, "{tag}: moves");
    let cost = discrete_cost(problem, &refined, options.weights, EXPONENT);
    let expected_cost = NaiveRefine::new(problem, &expected, options.weights).cost();
    assert_eq!(
        cost.to_bits(),
        expected_cost.to_bits(),
        "{tag}: discrete cost {cost} vs {expected_cost}"
    );
}

/// Default weights, connectivity only, heavy balance and balance only.
fn weight_sets() -> [CostWeights; 4] {
    let default = CostWeights::default();
    [
        default,
        CostWeights {
            c2: 0.0,
            c3: 0.0,
            ..default
        },
        CostWeights {
            c2: 50.0,
            c3: 50.0,
            ..default
        },
        CostWeights { c1: 0.0, ..default },
    ]
}

#[test]
fn refine_matches_the_naive_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0f0e_ac1e);
    for problem_index in 0..240 {
        let problem = random_problem(&mut rng);
        let k = problem.num_planes();
        let start: Vec<u32> = (0..problem.num_gates())
            .map(|_| rng.random_range(0..k as u32))
            .collect();
        let max_passes = if rng.random_bool(0.25) {
            rng.random_range(1..5)
        } else {
            40
        };
        for weights in weight_sets() {
            let options = RefineOptions {
                weights,
                exponent: EXPONENT,
                max_passes,
            };
            let tag = format!(
                "problem {problem_index} (G={}, E={}, K={k}), {weights:?}, \
                 max_passes {max_passes}",
                problem.num_gates(),
                problem.num_edges()
            );
            assert_refine_matches_the_oracle(&problem, &start, &options, &tag);
        }
    }
}

/// Near-balanced starts: a converged `refine` of a random labelling with
/// one to three gates moved. The plane loads' spreads, and so the visit
/// set's caps, are then a few gate loads wide, and most clean gates leave
/// the set on their certificate alone; the oracle still prices every gate
/// on every pass. Problems reach 1500 gates, where an interior gate's `F₁`
/// floor outweighs the balance terms at such caps.
#[test]
fn refine_matches_the_naive_oracle_from_near_balanced_starts() {
    let mut rng = StdRng::seed_from_u64(0xba1a_2ced);
    for problem_index in 0..120 {
        let g = rng.random_range(2..1501);
        let k = rng.random_range(2..10);
        let problem = random_problem_of(&mut rng, g, k);
        for weights in weight_sets() {
            let options = RefineOptions {
                weights,
                exponent: EXPONENT,
                max_passes: 40,
            };
            let start = near_balanced_start(&mut rng, &problem, &options);
            let tag = format!(
                "problem {problem_index} (G={g}, E={}, K={k}), {weights:?}",
                problem.num_edges()
            );
            assert_refine_matches_the_oracle(&problem, &start, &options, &tag);
        }
    }
}

/// A converged `refine` of a random labelling with one to three gates
/// moved.
fn near_balanced_start(
    rng: &mut StdRng,
    problem: &PartitionProblem,
    options: &RefineOptions,
) -> Vec<u32> {
    let (g, k) = (problem.num_gates(), problem.num_planes());
    let random: Vec<u32> = (0..g).map(|_| rng.random_range(0..k as u32)).collect();
    let converged = refine(
        problem,
        &Partition::from_labels(random, k).expect("labels in range"),
        options,
    )
    .0;
    let mut start = converged.labels().to_vec();
    for _ in 0..rng.random_range(1..4) {
        start[rng.random_range(0..g)] = rng.random_range(0..k as u32);
    }
    start
}

/// Deep K, the paper's Table III regime: `K` in {16, 30, 60} and up to 2000
/// gates, from random and near-balanced starts, under the four weight sets.
/// There the visit set certifies few gates, and most clean visits are
/// settled by `cannot_improve`'s test at the current plane loads.
#[test]
fn refine_matches_the_naive_oracle_at_deep_k() {
    let mut rng = StdRng::seed_from_u64(0xdee9_0f0e);
    for problem_index in 0..12 {
        let k = [16, 30, 60][problem_index % 3];
        // 2000 gates at each K, then log-uniform in K..=2000, which keeps
        // the debug run short.
        let g = if problem_index < 3 {
            2000
        } else {
            (k as f64 * (2000.0 / k as f64).powf(rng.random_range(0.0..1.0))).round() as usize
        };
        let problem = random_problem_of(&mut rng, g, k);
        for weights in weight_sets() {
            let options = RefineOptions {
                weights,
                exponent: EXPONENT,
                max_passes: 40,
            };
            let random: Vec<u32> = (0..g).map(|_| rng.random_range(0..k as u32)).collect();
            let near = near_balanced_start(&mut rng, &problem, &options);
            for (kind, start) in [("random", random), ("near-balanced", near)] {
                let tag = format!(
                    "problem {problem_index} (G={g}, E={}, K={k}), {weights:?}, {kind} start",
                    problem.num_edges()
                );
                assert_refine_matches_the_oracle(&problem, &start, &options, &tag);
            }
        }
    }
}

/// Every labelling in `0..K^G` as a label vector, lowest gate fastest.
fn labelling(mut index: usize, g: usize, k: usize) -> Vec<u32> {
    (0..g)
        .map(|_| {
            let label = (index % k) as u32;
            index /= k;
            label
        })
        .collect()
}

#[test]
fn refine_reaches_a_single_move_local_optimum_from_every_start() {
    let mut rng = StdRng::seed_from_u64(0x10ca_1097);
    for problem_index in 0..10 {
        let g = rng.random_range(2..8usize);
        let k = if problem_index % 2 == 0 { 2 } else { 3 };
        let mut edges = Vec::new();
        for i in 1..g as u32 {
            for _ in 0..rng.random_range(0..3) {
                edges.push((rng.random_range(0..i), i));
            }
        }
        let problem = PartitionProblem::new(
            (0..g).map(|_| rng.random_range(0.1..1.0)).collect(),
            (0..g).map(|_| rng.random_range(50.0..500.0)).collect(),
            edges,
            k,
        )
        .expect("valid tiny problem");
        let weights = if problem_index < 5 {
            CostWeights::default()
        } else {
            CostWeights {
                c2: 50.0,
                c3: 50.0,
                ..CostWeights::default()
            }
        };
        let starts = k.pow(g as u32);
        // Every move lowers the cost, so no labelling repeats: one pass per
        // labelling, plus the final pass that moves nothing, is enough to
        // converge.
        let options = RefineOptions {
            weights,
            exponent: EXPONENT,
            max_passes: starts + 1,
        };
        for index in 0..starts {
            let start = Partition::from_labels(labelling(index, g, k), k).expect("labels in range");
            let (refined, _) = refine(&problem, &start, &options);
            let before = discrete_cost(&problem, &start, weights, EXPONENT);
            let after = discrete_cost(&problem, &refined, weights, EXPONENT);
            let tag = format!("problem {problem_index} (G={g}, K={k}), start {index}");
            assert!(
                after <= before + 1e-12,
                "{tag}: cost rose {before} -> {after}"
            );
            for gate in 0..g {
                for target in 0..k {
                    if refined.labels()[gate] as usize == target {
                        continue;
                    }
                    let mut moved = refined.clone();
                    moved.move_gate(gate, target);
                    let cost = discrete_cost(&problem, &moved, weights, EXPONENT);
                    assert!(
                        cost >= after - 1e-12,
                        "{tag}: moving gate {gate} to plane {target} lowers {after} to {cost}"
                    );
                }
            }
        }
    }
}

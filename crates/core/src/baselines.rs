//! Baseline partitioners for comparison against the gradient-descent solver.
//!
//! The paper argues the problem "can not be formulated as a classic K-way
//! partitioning problem" because the planes are *ordered* and distance-
//! weighted; these baselines quantify that claim:
//!
//! * [`random`] — uniform random plane per gate (the floor).
//! * [`round_robin_levelized`] — gates sorted by topological level are dealt
//!   into planes in contiguous bias-balanced chunks; feed-forward circuits
//!   then mostly cross adjacent boundaries. This mimics the "pipeline-stage
//!   per plane" hand partitioning used for small demonstrators in the
//!   current-recycling literature.
//! * [`greedy_balance`] — longest-processing-time bin packing on bias alone,
//!   connectivity-blind (what a classic balance-only tool would do).
//! * [`simulated_annealing`] — Metropolis search over single-gate moves on
//!   the same discrete objective the refiner uses; slow but strong, an upper
//!   baseline for solution quality.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::assign::Partition;
use crate::cost::CostWeights;
use crate::problem::PartitionProblem;

/// Uniform random assignment.
///
/// # Example
///
/// ```
/// use sfq_partition::{baselines, PartitionProblem};
///
/// let p = PartitionProblem::new(vec![1.0; 8], vec![1.0; 8], vec![], 4)?;
/// let part = baselines::random(&p, 42);
/// assert_eq!(part.num_gates(), 8);
/// # Ok::<(), sfq_partition::ProblemError>(())
/// ```
pub fn random(problem: &PartitionProblem, seed: u64) -> Partition {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = problem.num_planes() as u32;
    let labels = (0..problem.num_gates())
        .map(|_| rng.random_range(0..k))
        .collect();
    Partition::from_labels(labels, problem.num_planes())
        .unwrap_or_else(|_| unreachable!("generated labels are in range"))
}

/// Levelized contiguous chunking: order gates by topological level (Kahn;
/// gates on cycles keep the level where the cycle was broken), then fill
/// plane 0, 1, … with consecutive gates until each plane holds `B_cir/K`
/// of bias.
pub fn round_robin_levelized(problem: &PartitionProblem) -> Partition {
    let g = problem.num_gates();
    let k = problem.num_planes();

    // Kahn levels over the edge list.
    let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); g];
    let mut indeg = vec![0usize; g];
    for &(u, v) in problem.edges() {
        fanout[u as usize].push(v);
        indeg[v as usize] += 1;
    }
    let mut level = vec![0usize; g];
    let mut queue: std::collections::VecDeque<usize> = (0..g).filter(|&i| indeg[i] == 0).collect();
    while let Some(u) = queue.pop_front() {
        for &v in &fanout[u] {
            let vi = v as usize;
            level[vi] = level[vi].max(level[u] + 1);
            indeg[vi] -= 1;
            if indeg[vi] == 0 {
                queue.push_back(vi);
            }
        }
    }

    let mut order: Vec<usize> = (0..g).collect();
    order.sort_by_key(|&i| (level[i], i));

    let target = crate::float::frac(problem.total_bias(), k as f64, 0.0);
    let mut labels = vec![0u32; g];
    let mut plane = 0usize;
    let mut acc = 0.0;
    for &i in &order {
        labels[i] = plane as u32;
        acc += problem.bias()[i];
        if acc >= target * (plane + 1) as f64 && plane + 1 < k {
            plane += 1;
        }
    }
    Partition::from_labels(labels, k)
        .unwrap_or_else(|_| unreachable!("generated labels are in range"))
}

/// Longest-processing-time greedy balance on bias, ignoring connectivity:
/// gates sorted by descending bias, each placed on the currently lightest
/// plane.
pub fn greedy_balance(problem: &PartitionProblem) -> Partition {
    let g = problem.num_gates();
    let k = problem.num_planes();
    let mut order: Vec<usize> = (0..g).collect();
    order.sort_by(|&a, &b| {
        problem.bias()[b]
            .total_cmp(&problem.bias()[a])
            .then(a.cmp(&b))
    });
    let mut load = vec![0.0f64; k];
    let mut labels = vec![0u32; g];
    for &i in &order {
        let lightest = (0..k)
            .min_by(|&a, &b| load[a].total_cmp(&load[b]))
            .unwrap_or(0);
        labels[i] = lightest as u32;
        load[lightest] += problem.bias()[i];
    }
    Partition::from_labels(labels, k)
        .unwrap_or_else(|_| unreachable!("generated labels are in range"))
}

/// Options for [`simulated_annealing`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealingOptions {
    /// Term weights of the discrete objective.
    pub weights: CostWeights,
    /// Distance exponent.
    pub exponent: f64,
    /// Proposed moves per gate per temperature step.
    pub moves_per_gate: usize,
    /// Number of temperature steps.
    pub temperature_steps: usize,
    /// Initial temperature (in units of the normalized objective).
    pub initial_temperature: f64,
    /// Geometric cooling factor per step.
    pub cooling: f64,
}

impl Default for AnnealingOptions {
    fn default() -> Self {
        AnnealingOptions {
            weights: CostWeights::default(),
            exponent: 4.0,
            moves_per_gate: 4,
            temperature_steps: 60,
            initial_temperature: 0.05,
            cooling: 0.85,
        }
    }
}

/// Metropolis annealing over single-gate moves on the discrete objective,
/// starting from [`round_robin_levelized`]. Move deltas are evaluated
/// incrementally (`O(deg)` per proposal), so the walk scales to the largest
/// benchmark circuits.
pub fn simulated_annealing(
    problem: &PartitionProblem,
    options: &AnnealingOptions,
    seed: u64,
) -> Partition {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = problem.num_planes();
    let start = round_robin_levelized(problem);
    let csr = crate::engine::Csr::new(problem);
    let mut state =
        crate::refine::MoveState::new(problem, &csr, &start, options.weights, options.exponent);
    let mut best_cost = state.total_cost();
    let mut best = start;

    let mut temperature = options.initial_temperature;
    let g = problem.num_gates();
    for _ in 0..options.temperature_steps {
        for _ in 0..g * options.moves_per_gate {
            let gate = rng.random_range(0..g);
            let target = rng.random_range(0..k) as u32;
            let delta = state.move_gain(gate, target);
            // Exact: a bit-for-bit zero gain means the move is a no-op.
            if crate::float::exactly(delta, 0.0) {
                continue;
            }
            let accept = delta <= 0.0 || rng.random::<f64>() < (-delta / temperature).exp();
            if accept {
                state.apply(gate, target);
            }
        }
        // Re-evaluate exactly once per temperature step (cheaper and more
        // robust than accumulating per-move deltas) and snapshot if this is
        // the best state seen.
        let cost = state.total_cost();
        if cost < best_cost {
            best_cost = cost;
            best = state.snapshot_partition();
        }
        temperature *= options.cooling;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionMetrics;
    use crate::refine::discrete_cost;

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
    fn random_is_deterministic_per_seed() {
        let p = chain(30, 5);
        assert_eq!(random(&p, 7), random(&p, 7));
        assert_ne!(random(&p, 7).labels(), random(&p, 8).labels());
    }

    #[test]
    fn levelized_chunks_chain_perfectly() {
        let p = chain(20, 4);
        let part = round_robin_levelized(&p);
        let m = PartitionMetrics::evaluate(&p, &part);
        // A chain in level order is 0..20; contiguous chunks cut 3 edges,
        // all between adjacent planes.
        assert_eq!(m.cut_size(), 3);
        assert!((m.cumulative_fraction(1) - 1.0).abs() < 1e-12);
        assert_eq!(m.i_comp_ma, 0.0);
    }

    #[test]
    fn levelized_uses_all_planes() {
        let p = chain(10, 5);
        let part = round_robin_levelized(&p);
        assert_eq!(part.occupied_planes(), 5);
    }

    #[test]
    fn greedy_balances_heterogeneous_bias() {
        let bias = vec![5.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let area = vec![1.0; 6];
        let p = PartitionProblem::new(bias, area, vec![], 2).unwrap();
        let part = greedy_balance(&p);
        let m = PartitionMetrics::evaluate(&p, &part);
        // LPT puts the 5.0 gate alone: loads 5 vs 5.
        assert_eq!(m.i_comp_ma, 0.0);
    }

    #[test]
    fn annealing_beats_random_on_locality() {
        let p = chain(40, 4);
        let rand_part = random(&p, 1);
        let annealed = simulated_annealing(&p, &AnnealingOptions::default(), 1);
        let mr = PartitionMetrics::evaluate(&p, &rand_part);
        let ma = PartitionMetrics::evaluate(&p, &annealed);
        assert!(ma.cumulative_fraction(1) > mr.cumulative_fraction(1));
    }

    #[test]
    fn annealing_never_worse_than_its_start() {
        let p = chain(25, 3);
        let start = round_robin_levelized(&p);
        let w = CostWeights::default();
        let annealed = simulated_annealing(&p, &AnnealingOptions::default(), 3);
        assert!(discrete_cost(&p, &annealed, w, 4.0) <= discrete_cost(&p, &start, w, 4.0) + 1e-12);
    }

    #[test]
    fn levelized_handles_cycles_gracefully() {
        let p = PartitionProblem::new(
            vec![1.0; 4],
            vec![1.0; 4],
            vec![(0, 1), (1, 2), (2, 0), (2, 3)],
            2,
        )
        .unwrap();
        let part = round_robin_levelized(&p);
        assert_eq!(part.num_gates(), 4);
    }
}

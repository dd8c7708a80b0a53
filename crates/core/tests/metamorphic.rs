//! Metamorphic oracles from the paper's cost structure, through the public
//! API only.
//!
//! Three transformations must leave a partition's quality unchanged:
//!
//! * **plane mirror** `l → K−1−l`: every plane distance `|l_u − l_v|` is
//!   preserved, and the plane loads are only reversed;
//! * **gate relabelling**: permuting the gates (bias, area and label move
//!   together, edges are mapped through the permutation in their original
//!   order) permutes the partition at equal cost;
//! * **uniform scaling**: bias × `s` and area × `t` leave the normalized
//!   metrics and `F₂`/`F₃` unchanged.
//!
//! The distance histogram is integer-valued and must match exactly. The
//! float metrics — `I_comp %`, `A_FS %` and the discrete cost — are sums
//! whose order the transformations change, so they must agree to 1e-12
//! relative.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sfq_partition::refine::discrete_cost;
use sfq_partition::{CostWeights, Partition, PartitionMetrics, PartitionProblem};

/// Random problems per relation.
const CASES: u64 = 240;

/// Largest relative gap a float metric may show under a transformation.
const REL_TOL: f64 = 1e-12;

/// A random problem (G in 5..=64, K in 2..=8, parallel edges allowed) and
/// a random labelling of it.
fn random_instance(rng: &mut StdRng) -> (PartitionProblem, Vec<u32>) {
    let g: usize = rng.random_range(5..65);
    let k: usize = rng.random_range(2..9);
    let bias: Vec<f64> = (0..g).map(|_| rng.random_range(0.0..2.0)).collect();
    let area: Vec<f64> = (0..g).map(|_| rng.random_range(1.0..900.0)).collect();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for _ in 0..rng.random_range(0..3 * g) {
        let u = rng.random_range(0..g as u32);
        let v = rng.random_range(0..g as u32);
        edges.push((u, v));
        if rng.random_bool(0.1) {
            edges.push((v, u));
        }
    }
    let labels: Vec<u32> = (0..g).map(|_| rng.random_range(0..k as u32)).collect();
    let problem = PartitionProblem::new(bias, area, edges, k).expect("valid random problem");
    (problem, labels)
}

/// The quantities every relation must preserve.
struct Quality {
    histogram: Vec<usize>,
    i_comp_pct: f64,
    a_fs_pct: f64,
    cost: f64,
}

fn quality(problem: &PartitionProblem, labels: &[u32]) -> Quality {
    let partition = Partition::from_labels(labels.to_vec(), problem.num_planes())
        .expect("labels within K planes");
    let metrics = PartitionMetrics::evaluate(problem, &partition);
    Quality {
        histogram: metrics.distance_histogram,
        i_comp_pct: metrics.i_comp_pct,
        a_fs_pct: metrics.a_fs_pct,
        cost: discrete_cost(problem, &partition, CostWeights::default(), 4.0),
    }
}

/// `|a − b| / max(|a|, |b|)`, and 0 when both are 0.
fn rel_gap(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale > 0.0 {
        (a - b).abs() / scale
    } else {
        0.0
    }
}

/// Runs `relation` on `CASES` seeded instances and checks that it
/// preserves every quality.
fn check_relation(
    name: &str,
    seed: u64,
    relation: impl Fn(&mut StdRng, &PartitionProblem, &[u32]) -> (PartitionProblem, Vec<u32>),
) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000_003).wrapping_add(case));
        let (problem, labels) = random_instance(&mut rng);
        let (image, image_labels) = relation(&mut rng, &problem, &labels);
        let before = quality(&problem, &labels);
        let after = quality(&image, &image_labels);
        let shape = format!(
            "{name}, case {case}: G={} K={} |E|={}",
            problem.num_gates(),
            problem.num_planes(),
            problem.num_edges()
        );
        assert_eq!(
            before.histogram, after.histogram,
            "{shape}: distance histogram"
        );
        for (metric, a, b) in [
            ("I_comp %", before.i_comp_pct, after.i_comp_pct),
            ("A_FS %", before.a_fs_pct, after.a_fs_pct),
            ("discrete cost", before.cost, after.cost),
        ] {
            let gap = rel_gap(a, b);
            assert!(gap <= REL_TOL, "{shape}: {metric} {a} vs {b} (gap {gap:e})");
        }
    }
}

#[test]
fn plane_mirror_preserves_quality() {
    check_relation("mirror", 1, |_, problem, labels| {
        let k = problem.num_planes() as u32;
        let mirrored = labels.iter().map(|&l| k - 1 - l).collect();
        (problem.clone(), mirrored)
    });
}

#[test]
fn gate_relabelling_preserves_quality() {
    check_relation("relabel", 2, |rng, problem, labels| {
        let g = problem.num_gates();
        // perm[i] is the new index of gate i.
        let mut perm: Vec<usize> = (0..g).collect();
        perm.shuffle(rng);
        let mut bias = vec![0.0; g];
        let mut area = vec![0.0; g];
        let mut image_labels = vec![0; g];
        for (i, &p) in perm.iter().enumerate() {
            bias[p] = problem.bias()[i];
            area[p] = problem.area()[i];
            image_labels[p] = labels[i];
        }
        let edges = problem
            .edges()
            .iter()
            .map(|&(u, v)| (perm[u as usize] as u32, perm[v as usize] as u32))
            .collect();
        let image = PartitionProblem::new(bias, area, edges, problem.num_planes())
            .expect("a permuted problem is valid");
        (image, image_labels)
    });
}

#[test]
fn uniform_scaling_preserves_quality() {
    check_relation("scale", 3, |rng, problem, labels| {
        // Log-uniform factors in [1e-3, 1e3]; a power of two would scale
        // exactly and test nothing.
        let s = 10f64.powf(rng.random_range(-3.0..3.0));
        let t = 10f64.powf(rng.random_range(-3.0..3.0));
        let bias = problem.bias().iter().map(|b| b * s).collect();
        let area = problem.area().iter().map(|a| a * t).collect();
        let image =
            PartitionProblem::new(bias, area, problem.edges().to_vec(), problem.num_planes())
                .expect("a scaled problem is valid");
        (image, labels.to_vec())
    });
}

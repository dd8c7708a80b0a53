//! The engine against its oracle, and serial against parallel restarts.
//!
//! [`CostEngine::evaluate_with_gradient`] is the only evaluation a solve
//! runs. This suite pins it on the paper benchmarks named in the roadmap —
//! KSA16 at K=5 and C1908 at K=30 — two ways:
//!
//! * **Oracle parity** — every cost term and every gradient entry stays
//!   within `1e-12` relative of the reference [`CostModel::evaluate`] +
//!   [`Gradient::compute`] pair, which shares the mathematics but none of
//!   the fused sweeps, striped folds, or power kernels. `F₂` and `F₃` are
//!   bit-equal: the engine's single gate sweep adds the plane loads in the
//!   reference's gate order, and both call the same variance.
//! * **Threading is invisible** — multi-restart solves with serial and
//!   with parallel restarts are bitwise equal (`assert_eq`, i.e. bitwise
//!   for non-NaN f64): identical partitions, cost histories, and discrete
//!   costs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sfq_circuits::registry::{generate, Benchmark};
use sfq_partition::engine::{CostEngine, EngineOptions};
use sfq_partition::grad::{Gradient, GradientOptions};
use sfq_partition::{
    CostModel, CostWeights, PartitionProblem, Solver, SolverOptions, WeightMatrix,
};

fn problem(bench: Benchmark, k: usize) -> PartitionProblem {
    let netlist = generate(bench);
    PartitionProblem::from_netlist(&netlist, k).expect("suite circuits are valid")
}

fn assert_close(a: f64, b: f64, what: &str) {
    let scale = a.abs().max(b.abs()).max(1.0);
    assert!((a - b).abs() / scale < 1e-12, "{what}: {a} vs {b}");
}

/// Asserts that two floats have the same bit pattern.
fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a:e} vs {b:e}");
}

/// Engine level: on several random iterates, the engine agrees within
/// `1e-12` with the oracle, and bit for bit on `F₂` and `F₃`.
fn assert_engine_matches_oracle(problem: &PartitionProblem, seed: u64, tag: &str) {
    let k = problem.num_planes();
    let model = CostModel::new(problem, CostWeights::default());
    let mut oracle = Gradient::new(GradientOptions::exact());
    let mut engine = CostEngine::new(
        problem,
        CostWeights::default(),
        4.0,
        EngineOptions::default(),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for trial in 0..4 {
        let w = WeightMatrix::random(problem.num_gates(), k, &mut rng);
        let expect_cost = model.evaluate(&w);
        let mut expect_grad = vec![0.0; w.padded_len()];
        oracle.compute(&model, &w, &mut expect_grad);

        let mut gs = vec![0.0; w.padded_len()];
        let cs = engine.evaluate_with_gradient(&w, &mut gs);

        let at = format!("{tag} trial={trial}");
        assert_close(cs.f1, expect_cost.f1, &format!("{at} f1"));
        assert_bits(cs.f2, expect_cost.f2, &format!("{at} f2"));
        assert_bits(cs.f3, expect_cost.f3, &format!("{at} f3"));
        assert_close(cs.f4, expect_cost.f4, &format!("{at} f4"));
        assert_close(cs.total, expect_cost.total, &format!("{at} total"));
        for (i, (&a, &b)) in gs.iter().zip(&expect_grad).enumerate() {
            assert_close(a, b, &format!("{at} grad[{i}]"));
        }
    }
}

/// Solver level: end-to-end solves that differ only in restart threading
/// must produce identical results — labels, iterations, and discrete cost.
fn assert_solves_bit_identical(problem: &PartitionProblem, max_iterations: usize, tag: &str) {
    let opts = |parallel| SolverOptions {
        max_iterations,
        restarts: 2,
        parallel,
        ..SolverOptions::default()
    };
    let serial = Solver::new(opts(false)).solve(problem);
    let threaded = Solver::new(opts(true)).solve(problem);
    assert_eq!(
        serial, threaded,
        "{tag}: serial and parallel restarts diverged (partition/iterations/cost)"
    );
}

#[test]
fn ksa16_k5_engine_matches_oracle_and_threading_is_exact() {
    let p = problem(Benchmark::Ksa16, 5);
    assert_engine_matches_oracle(&p, 11, "KSA16@5");
    assert_solves_bit_identical(&p, 300, "KSA16@5");
}

#[test]
fn c1908_k30_engine_matches_oracle_and_threading_is_exact() {
    let p = problem(Benchmark::C1908, 30);
    assert_engine_matches_oracle(&p, 13, "C1908@30");
    assert_solves_bit_identical(&p, 220, "C1908@30");
}

//! Smoke test for the scaling frontier: a 100k-gate synthetic problem must
//! solve end to end — lane kernels, CSR gather, projection, snap — under
//! a bounded iteration budget without panicking or producing non-finite
//! cost.
//!
//! Too expensive for the default debug `cargo test` sweep, so it is
//! `#[ignore]`d there; CI runs it explicitly in release:
//!
//! ```text
//! cargo test -q --release -p sfq-partition --test scale_smoke -- --ignored
//! ```

use sfq_circuits::scale::{scale_problem, ScaleTier};
use sfq_partition::{PartitionProblem, Solver, SolverOptions};

#[test]
#[ignore = "100k-gate release-mode smoke; run explicitly (CI does)"]
fn hundred_k_gate_solve_completes_under_budget() {
    let generated = scale_problem(&ScaleTier::S100k.spec());
    let problem = PartitionProblem::new(generated.bias, generated.area, generated.edges, 5)
        .expect("scale problems are valid");
    assert_eq!(problem.num_gates(), 100_000);

    let options = SolverOptions {
        restarts: 1,
        parallel: false,
        max_iterations: 10_000,
        iteration_budget: Some(60),
        ..SolverOptions::default()
    };
    let result = Solver::new(options).solve(&problem);

    assert!(
        result.discrete_cost.is_finite(),
        "solve must end on a finite discrete cost"
    );
    assert_eq!(result.partition.labels().len(), problem.num_gates());
    assert!(
        result
            .partition
            .labels()
            .iter()
            .all(|&l| (l as usize) < problem.num_planes()),
        "every gate must land on a real plane"
    );
    assert!(
        result.iterations <= 60,
        "iteration budget must bound the descent ({} iterations)",
        result.iterations
    );
}

//! Runtime panic census — the dynamic cross-check for lint rule P2.
//!
//! sfqlint's P2 proves the *reachable call graph* of the descent kernels
//! free of panic constructs; this suite drives the same code with random
//! valid problems and asserts the stronger runtime property: a solve never
//! unwinds, whatever (valid) instance it is handed. Solves may return a
//! typed error; they may not panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use sfq_partition::{PartitionProblem, Solver, SolverOptions};

/// A random valid instance: degenerate shapes (zero bias, zero area,
/// duplicate and self-loop edges, disconnected gates) are all legal inputs
/// and exactly the corners where an unchecked index or division would hide.
fn build_problem(
    n: usize,
    k: usize,
    quantities: &[(u16, u16)],
    raw_edges: &[(u8, u8)],
) -> PartitionProblem {
    let bias: Vec<f64> = (0..n).map(|i| f64::from(quantities[i].0) / 64.0).collect();
    let area: Vec<f64> = (0..n).map(|i| f64::from(quantities[i].1) / 16.0).collect();
    let edges: Vec<(u32, u32)> = raw_edges
        .iter()
        .map(|&(u, v)| (u32::from(u) % n as u32, u32::from(v) % n as u32))
        .collect();
    PartitionProblem::new(bias, area, edges, k).expect("construction is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn no_solve_configuration_panics(
        n in 2usize..24,
        k in 2usize..5,
        quantities in proptest::collection::vec((any::<u16>(), any::<u16>()), 24..25),
        raw_edges in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40),
        seed in any::<u64>(),
    ) {
        let problem = build_problem(n, k, &quantities, &raw_edges);
        let opts = SolverOptions {
            max_iterations: 15,
            restarts: 1,
            parallel: false,
            seed,
            ..SolverOptions::default()
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Solver::new(opts).try_solve(&problem)
        }));
        // A typed error is acceptable; an unwind is the finding.
        prop_assert!(
            outcome.is_ok(),
            "solve panicked: n={n} k={k} seed={seed}"
        );
    }
}

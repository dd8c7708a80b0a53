//! Shared harness code for the table-regeneration binaries.
//!
//! Each binary regenerates one table or figure of the paper:
//!
//! | target | regenerates | command |
//! |---|---|---|
//! | `table1` | Table I (13 circuits, K = 5) | `cargo run -p sfq-bench --bin table1 --release` |
//! | `table2` | Table II (KSA4, K = 5..10) | `cargo run -p sfq-bench --bin table2 --release` |
//! | `table3` | Table III (min K under 100 mA) | `cargo run -p sfq-bench --bin table3 --release` |
//! | `figure1` | Fig. 1 (chip diagram) | `cargo run -p sfq-bench --bin figure1 --release` |
//! | `ablations` | design-choice studies | `cargo run -p sfq-bench --bin ablations --release` |
//!
//! They print results, not timings: sfqbench (`sfqbench/`) is the one
//! harness that times the product.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must propagate failures and index through `.get()` or
// iterators, never abort the process on them; tests keep the ergonomic forms.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use sfq_circuits::registry::{generate, Benchmark};
use sfq_netlist::{Netlist, NetlistStats};
use sfq_partition::{PartitionMetrics, PartitionProblem, Solver, SolverOptions};

/// A generated circuit plus its partitioning problem at some `K`.
#[derive(Debug, Clone)]
pub struct CircuitRun {
    /// Which benchmark this is.
    pub bench: Benchmark,
    /// The generated netlist's statistics.
    pub stats: NetlistStats,
    /// The partitioning instance.
    pub problem: PartitionProblem,
}

/// Generates `bench` and builds its `K`-plane problem.
///
/// # Panics
///
/// Panics if the generated netlist cannot form a valid problem (it always
/// can for the built-in suite).
pub fn load_circuit(bench: Benchmark, k: usize) -> CircuitRun {
    let netlist: Netlist = generate(bench);
    let stats = netlist.stats();
    let problem = PartitionProblem::from_netlist(&netlist, k)
        .unwrap_or_else(|e| unreachable!("suite circuits are valid by construction: {e}"));
    CircuitRun {
        bench,
        stats,
        problem,
    }
}

/// Solves `problem` with `options` and evaluates the metrics.
pub fn solve_and_measure(problem: &PartitionProblem, options: SolverOptions) -> PartitionMetrics {
    let result = Solver::new(options).solve(problem);
    PartitionMetrics::evaluate(problem, &result.partition)
}

/// Formats a fraction as a percentage with one decimal (`0.746` → `"74.6"`).
pub fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

/// Formats an already-percent value with the given decimals.
pub fn pcts(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// Formats `ours/paper` value pairs for side-by-side columns.
pub fn vs(ours: String, paper: impl std::fmt::Display) -> String {
    format!("{ours} ({paper})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_circuit_builds_problem() {
        let run = load_circuit(Benchmark::Ksa4, 5);
        assert_eq!(run.problem.num_planes(), 5);
        assert_eq!(run.problem.num_gates(), run.stats.num_gates);
        assert_eq!(run.problem.num_edges(), run.stats.num_connections);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.746), "74.6");
        assert_eq!(pcts(9.239, 2), "9.24");
        assert_eq!(vs("74.6".into(), 74.6), "74.6 (74.6)");
    }

    #[test]
    fn solve_and_measure_runs() {
        let run = load_circuit(Benchmark::Ksa4, 5);
        let m = solve_and_measure(&run.problem, SolverOptions::default());
        assert_eq!(m.num_planes, 5);
        assert!(m.cumulative_fraction(1) > 0.5);
    }
}

//! Convergence and runtime study — the paper's §IV-C margin discussion and
//! §V claim that "the gradient descent method provides a good estimation for
//! the result within an acceptable time window".
//!
//! Prints (a) the per-iteration descent trace of one solve — rebuilt on the
//! telemetry stream, so the TSV now carries the full cost breakdown
//! (F1..F4), the adaptive rate, the gradient norm, and projection-clip
//! counts — and (b) the iterations the full reproduction solve takes
//! across the suite, next to each problem's size. Both are deterministic;
//! sfqbench (`sfqbench/`) is what times the solver.

use sfq_bench::load_circuit;
use sfq_circuits::registry::Benchmark;
use sfq_partition::telemetry::{TraceCollector, TraceEvent};
use sfq_partition::{Solver, SolverOptions};
use sfq_report::convergence::convergence_table;
use sfq_report::table::Table;

fn main() {
    // (a) Descent trace on KSA8, reconstructed from the telemetry stream,
    // so every column of the paper's convergence discussion is plottable
    // from one run.
    let run = load_circuit(Benchmark::Ksa8, 5);
    let mut options = SolverOptions::reproduction();
    options.restarts = 1;
    options.parallel = false;
    let mut trace = TraceCollector::new();
    let result = Solver::new(options).solve_observed(&run.problem, &mut trace);
    let iterations: Vec<&TraceEvent> = trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Iteration { .. }))
        .collect();
    println!("# descent trace, KSA8, K = 5, single restart (TSV)");
    println!("iteration\ttotal\tf1\tf2\tf3\tf4\trate\tgrad_norm\tclipped");
    let stride = (iterations.len() / 40).max(1);
    for (i, event) in iterations.iter().enumerate() {
        if let TraceEvent::Iteration {
            iteration,
            f1,
            f2,
            f3,
            f4,
            total,
            learning_rate,
            grad_norm,
            clipped,
            ..
        } = event
        {
            if i % stride == 0 || i + 1 == iterations.len() {
                println!(
                    "{iteration}\t{total:.6e}\t{f1:.6e}\t{f2:.6e}\t{f3:.6e}\t{f4:.6e}\t\
                     {learning_rate:.3e}\t{grad_norm:.3e}\t{clipped}"
                );
            }
        }
    }
    println!(
        "# stopped after {} iterations ({:?}, margin = 1e-4)",
        result.iterations, result.stop_reason
    );
    println!("# per-restart summary (from the same trace):");
    println!("{}", convergence_table(trace.events()));

    // (b) Iterations across the suite.
    let mut table = Table::new(vec!["circuit", "G", "|E|", "iterations"]);
    for bench in [
        Benchmark::Ksa4,
        Benchmark::Ksa8,
        Benchmark::Ksa16,
        Benchmark::Ksa32,
        Benchmark::C432,
        Benchmark::C3540,
    ] {
        let run = load_circuit(bench, 5);
        let result = Solver::new(SolverOptions::reproduction()).solve(&run.problem);
        table.add_row(vec![
            bench.name().to_owned(),
            run.problem.num_gates().to_string(),
            run.problem.num_edges().to_string(),
            result.iterations.to_string(),
        ]);
    }
    println!("reproduction solve (8 restarts in parallel), iterations of the winner:");
    println!("{table}");
    println!("cost per iteration is O(|E| + G*K); the paper reports the same");
    println!("first-order-only rationale for choosing gradient descent over Newton.");
}

//! Observer-attached solves must be bit-identical to detached solves.
//!
//! The telemetry layer's contract is that observers *read* and never
//! perturb: clip counting and the pre-refine discrete cost are extra work
//! gated on `RestartObserver::ENABLED`, but the weight updates themselves
//! must stay character-for-character the detached arithmetic. This suite
//! pins that on the paper benchmarks named in the roadmap — KSA16 at K=5
//! and C1908 at K=30 — plus the serial-vs-parallel restart merge order of
//! the trace stream itself.

use sfq_circuits::registry::{generate, Benchmark};
use sfq_partition::telemetry::{SolveMetrics, TraceCollector, TraceEvent};
use sfq_partition::{PartitionProblem, SolveResult, Solver, SolverOptions};

fn problem(bench: Benchmark, k: usize) -> PartitionProblem {
    let netlist = generate(bench);
    PartitionProblem::from_netlist(&netlist, k).expect("suite circuits are valid")
}

/// A configuration small enough to run the full matrix quickly but large
/// enough to exercise warm-up, margin stops, refinement, and restarts.
fn options(max_iterations: usize) -> SolverOptions {
    SolverOptions {
        max_iterations,
        restarts: 2,
        parallel: true,
        ..SolverOptions::default()
    }
}

/// Structural sanity of a collected trace: one solve_start/solve_end pair
/// bracketing per-restart blocks whose iteration-event counts match their
/// own restart_end records. The V-cycle's coarsen records sit at solve
/// scope, before the first block, and every block projects through all of
/// the levels, coarsest first, before its refine record.
fn assert_trace_consistent(events: &[TraceEvent], result: &SolveResult) {
    assert!(
        matches!(events.first(), Some(TraceEvent::SolveStart { .. })),
        "trace must open with solve_start"
    );
    match events.last() {
        Some(TraceEvent::SolveEnd {
            best_restart,
            iterations,
            discrete_cost,
            ..
        }) => {
            assert_eq!(*best_restart, result.best_restart as u64);
            assert_eq!(*iterations, result.iterations as u64);
            assert!(
                sfq_partition::float::exactly(*discrete_cost, result.discrete_cost),
                "solve_end cost {discrete_cost} vs result {}",
                result.discrete_cost
            );
        }
        other => panic!("trace must close with solve_end, got {other:?}"),
    }
    // Per-restart blocks: count iteration events and check them against the
    // restart's own restart_end record.
    let mut iter_counts: Vec<(u64, u64)> = Vec::new();
    let mut current: Option<(u64, u64)> = None;
    let mut levels = 0u64;
    let mut uncoarsened: Vec<u64> = Vec::new();
    for event in events {
        match event {
            TraceEvent::Coarsen { level, .. } => {
                assert!(
                    current.is_none() && iter_counts.is_empty(),
                    "coarsen inside or after a restart block"
                );
                assert_eq!(*level, levels);
                levels += 1;
            }
            TraceEvent::Uncoarsen { level, .. } => {
                assert!(current.is_some(), "uncoarsen outside a restart block");
                uncoarsened.push(*level);
            }
            TraceEvent::Refine { .. } => {
                let expected: Vec<u64> = (0..levels).rev().collect();
                assert_eq!(uncoarsened, expected, "every level, coarsest first");
                uncoarsened.clear();
            }
            TraceEvent::RestartStart { restart } => {
                assert!(current.is_none(), "nested restart block");
                current = Some((*restart, 0));
            }
            TraceEvent::Iteration { restart, .. } => {
                let (open, count) = current.as_mut().expect("iter outside restart block");
                assert_eq!(*open, *restart);
                *count += 1;
            }
            TraceEvent::RestartEnd {
                restart,
                iterations,
                ..
            } => {
                let (open, count) = current.take().expect("restart_end without start");
                assert_eq!(open, *restart);
                assert_eq!(
                    count, *iterations,
                    "restart {restart}: {count} iter events vs {iterations} reported"
                );
                iter_counts.push((*restart, *iterations));
            }
            _ => {}
        }
    }
    assert!(current.is_none(), "unclosed restart block");
    assert!(
        levels > 0,
        "the default solve of a suite circuit is a V-cycle"
    );
    // Restart blocks arrive in index order regardless of threading.
    let order: Vec<u64> = iter_counts.iter().map(|&(r, _)| r).collect();
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(order, sorted, "restart blocks must be in index order");
    // The winning restart's block agrees with the result.
    let winner = iter_counts
        .iter()
        .find(|&&(r, _)| r == result.best_restart as u64)
        .expect("winning restart has a block");
    assert_eq!(winner.1, result.iterations as u64);
}

fn assert_observed_matches_detached(problem: &PartitionProblem, opts: SolverOptions, tag: &str) {
    let solver = Solver::new(opts);
    let detached = solver.solve(problem);
    let mut trace = TraceCollector::new();
    let observed = solver.solve_observed(problem, &mut trace);
    assert_eq!(
        detached, observed,
        "{tag}: observer perturbed the solve (partition/iterations/cost must be bit-identical)"
    );
    assert_trace_consistent(trace.events(), &observed);

    // The metrics sink uses a different Restart type (timing probe); it must
    // be just as invisible to the arithmetic.
    let mut metrics = SolveMetrics::new();
    let measured = solver.solve_observed(problem, &mut metrics);
    assert_eq!(
        detached, measured,
        "{tag}: metrics sink perturbed the solve"
    );
    assert_eq!(metrics.restarts, 2);
    assert_eq!(metrics.solves, 1);
    assert!(metrics.iterations >= observed.iterations as u64);
}

#[test]
fn ksa16_k5_matrix_observer_is_bit_neutral() {
    let p = problem(Benchmark::Ksa16, 5);
    assert_observed_matches_detached(&p, options(300), "KSA16@5");
}

#[test]
fn c1908_k30_matrix_observer_is_bit_neutral() {
    let p = problem(Benchmark::C1908, 30);
    assert_observed_matches_detached(&p, options(220), "C1908@30");
}

#[test]
fn parallel_and_serial_restarts_emit_identical_traces() {
    let p = problem(Benchmark::Ksa16, 5);
    let mut opts = options(300);
    opts.restarts = 3;

    opts.parallel = false;
    let mut serial_trace = TraceCollector::new();
    let serial = Solver::new(opts.clone()).solve_observed(&p, &mut serial_trace);

    opts.parallel = true;
    let mut parallel_trace = TraceCollector::new();
    let parallel = Solver::new(opts).solve_observed(&p, &mut parallel_trace);

    assert_eq!(serial, parallel);
    // The solve_start record carries the `parallel` flag itself, so compare
    // everything after it: restart blocks, iterations, and the final
    // solve_end must be byte-identical across threading modes.
    assert_eq!(
        &serial_trace.events()[1..],
        &parallel_trace.events()[1..],
        "fork/absorb in restart-index order must make threading invisible in the trace"
    );
    // And the serialized stream round-trips record for record.
    for event in serial_trace.events() {
        let line = event.to_jsonl();
        assert_eq!(TraceEvent::parse(&line).as_ref(), Ok(event), "{line}");
    }
}

//! Divergence-recovery matrix: injected NaN/Inf at scripted evaluations
//! must be rescued (or cleanly abandoned), and the solver must never return
//! a partition derived from non-finite weights. Recovery is deterministic:
//! the same fault plan reproduces the same result bit for bit, with serial
//! and with parallel restarts.

use sfq_partition::telemetry::{TraceCollector, TraceEvent};
use sfq_partition::{
    FaultInjection, PartitionProblem, SolveError, SolveResult, Solver, SolverOptions, StopReason,
};

fn chain(n: u32, k: usize) -> PartitionProblem {
    PartitionProblem::new(
        vec![1.0; n as usize],
        vec![10.0; n as usize],
        (0..n - 1).map(|i| (i, i + 1)).collect(),
        k,
    )
    .unwrap()
}

fn base_options() -> SolverOptions {
    SolverOptions {
        margin: -1.0, // never stop early: every injection point is reached
        max_iterations: 260,
        refine: false,
        ..SolverOptions::default()
    }
}

/// `try_solve` with a trace attached: the result, and the relaxed cost of
/// each iteration of the winning restart, read from its `iter` records.
fn try_solve_traced(
    options: SolverOptions,
    p: &PartitionProblem,
) -> Result<(SolveResult, Vec<f64>), SolveError> {
    let mut trace = TraceCollector::new();
    let result = Solver::new(options).try_solve_observed(p, &mut trace)?;
    let best = result.best_restart as u64;
    let costs = trace
        .events()
        .iter()
        .filter_map(|event| match *event {
            TraceEvent::Iteration { restart, total, .. } if restart == best => Some(total),
            _ => None,
        })
        .collect();
    Ok((result, costs))
}

fn assert_finite_and_valid(result: &SolveResult, costs: &[f64], gates: usize, k: usize) {
    assert_eq!(result.partition.num_gates(), gates);
    assert_eq!(result.partition.num_planes(), k);
    assert!(result.partition.labels().iter().all(|&l| (l as usize) < k));
    assert!(result.discrete_cost.is_finite());
    assert!(
        costs.iter().all(|c| c.is_finite()),
        "iterations must only record finite (possibly recovered) costs"
    );
}

#[test]
fn single_nan_recovers_at_any_iteration() {
    let p = chain(30, 3);
    for inject_at in [1usize, 5, 50, 230] {
        let opts = SolverOptions {
            fault_injection: Some(FaultInjection {
                nan_cost_at: vec![inject_at],
                ..FaultInjection::default()
            }),
            ..base_options()
        };
        let (result, costs) = try_solve_traced(opts, &p).expect("recovers");
        assert_ne!(
            result.stop_reason,
            StopReason::NonFinite,
            "inject_at={inject_at}"
        );
        assert_finite_and_valid(&result, &costs, 30, 3);
    }
}

#[test]
fn single_inf_and_nan_gradient_recover_too() {
    let p = chain(30, 3);
    for plan in [
        FaultInjection {
            inf_cost_at: vec![7],
            ..FaultInjection::default()
        },
        FaultInjection {
            nan_grad_at: vec![7],
            ..FaultInjection::default()
        },
    ] {
        let opts = SolverOptions {
            fault_injection: Some(plan.clone()),
            ..base_options()
        };
        let (result, costs) = try_solve_traced(opts, &p).expect("recovers");
        assert_ne!(result.stop_reason, StopReason::NonFinite, "plan={plan:?}");
        assert_finite_and_valid(&result, &costs, 30, 3);
    }
}

#[test]
fn injection_at_iteration_zero_is_terminal_but_still_finite() {
    // No finite iterate exists to retry from, so the run is abandoned — but
    // the snapped initial weights are still a valid, finite partition.
    let p = chain(30, 3);
    let opts = SolverOptions {
        fault_injection: Some(FaultInjection {
            nan_cost_at: vec![0],
            ..FaultInjection::default()
        }),
        ..base_options()
    };
    let (result, costs) = try_solve_traced(opts, &p).expect("fallback exists");
    assert_eq!(result.stop_reason, StopReason::NonFinite);
    assert_eq!(result.diverged_restarts, 1);
    assert_finite_and_valid(&result, &costs, 30, 3);
}

#[test]
fn recovery_is_deterministic() {
    let p = chain(30, 3);
    let opts = SolverOptions {
        fault_injection: Some(FaultInjection {
            nan_cost_at: vec![20],
            ..FaultInjection::default()
        }),
        ..base_options()
    };
    let a = try_solve_traced(opts.clone(), &p).unwrap();
    let b = try_solve_traced(opts, &p).unwrap();
    assert_eq!(a, b);
}

#[test]
fn poisoned_restart_loses_selection_in_serial_and_parallel() {
    let p = chain(30, 3);
    for parallel in [false, true] {
        let opts = SolverOptions {
            restarts: 3,
            parallel,
            fault_injection: Some(FaultInjection {
                poison_from: Some(0),
                restart: Some(1),
                ..FaultInjection::default()
            }),
            ..SolverOptions::default()
        };
        let (result, costs) = try_solve_traced(opts, &p).expect("two clean restarts");
        assert_ne!(result.best_restart, 1, "parallel={parallel}");
        assert_eq!(result.diverged_restarts, 1, "parallel={parallel}");
        assert_finite_and_valid(&result, &costs, 30, 3);
    }
}

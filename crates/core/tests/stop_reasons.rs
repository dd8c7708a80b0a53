//! Every [`StopReason`] variant must be reachable deterministically, and
//! each termination path must leave a finite, valid result behind.

use sfq_partition::{
    CancelToken, CostWeights, Deadline, FaultInjection, Interrupt, PartitionProblem, Solver,
    SolverOptions, StopReason,
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

fn assert_valid(result: &sfq_partition::SolveResult, gates: usize, k: usize) {
    assert_eq!(result.partition.num_gates(), gates);
    assert_eq!(result.partition.num_planes(), k);
    assert!(
        result.partition.labels().iter().all(|&l| (l as usize) < k),
        "labels in range"
    );
    assert!(result.discrete_cost.is_finite());
}

#[test]
fn margin_stop_on_easy_problem() {
    let p = chain(20, 2);
    let result = Solver::new(SolverOptions::default()).try_solve(&p).unwrap();
    assert_eq!(result.stop_reason, StopReason::Margin);
    assert_valid(&result, 20, 2);
}

#[test]
fn max_iterations_stop_when_margin_unreachable() {
    let p = chain(20, 2);
    let opts = SolverOptions {
        margin: -1.0, // |relative change| is never <= -1
        max_iterations: 30,
        c4_warmup: 0,
        refine: false,
        ..SolverOptions::default()
    };
    let result = Solver::new(opts).try_solve(&p).unwrap();
    assert_eq!(result.stop_reason, StopReason::MaxIterations);
    assert_eq!(result.iterations, 30);
    assert_valid(&result, 20, 2);
}

#[test]
fn step_vanishes_with_zero_cost_weights() {
    let p = chain(10, 2);
    let opts = SolverOptions {
        weights: CostWeights {
            c1: 0.0,
            c2: 0.0,
            c3: 0.0,
            c4: 0.0,
        },
        c4_warmup: 0,
        ..SolverOptions::default()
    };
    let result = Solver::new(opts).try_solve(&p).unwrap();
    assert_eq!(result.stop_reason, StopReason::StepVanished);
    assert_valid(&result, 10, 2);
}

#[test]
fn budget_exhausted_by_iteration_budget() {
    let p = chain(20, 2);
    let opts = SolverOptions {
        margin: -1.0,
        iteration_budget: Some(5),
        refine: false,
        ..SolverOptions::default()
    };
    let result = Solver::new(opts).try_solve(&p).unwrap();
    assert_eq!(result.stop_reason, StopReason::BudgetExhausted);
    assert_eq!(result.iterations, 5);
    assert_valid(&result, 20, 2);
}

#[test]
fn budget_exhausted_by_deadline() {
    let p = chain(20, 2);
    let opts = SolverOptions {
        deadline_ms: Some(0),
        ..SolverOptions::default()
    };
    let result = Solver::new(opts).try_solve(&p).unwrap();
    assert_eq!(result.stop_reason, StopReason::BudgetExhausted);
    assert_eq!(result.iterations, 0);
    assert_valid(&result, 20, 2);
}

#[test]
fn non_finite_stop_under_terminal_poisoning() {
    let p = chain(20, 2);
    let opts = SolverOptions {
        fault_injection: Some(FaultInjection {
            poison_from: Some(0),
            ..FaultInjection::default()
        }),
        ..SolverOptions::default()
    };
    let result = Solver::new(opts).try_solve(&p).unwrap();
    assert_eq!(result.stop_reason, StopReason::NonFinite);
    // Terminal divergence still rolls back to finite weights.
    assert_valid(&result, 20, 2);
}

#[test]
fn expired_deadline_never_overruns_refinement() {
    // Regression: the deadline used to be polled only at iteration
    // boundaries, so a deadline'd run would still pay for a full (swap)
    // refinement sweep per restart. With refine enabled and an
    // already-expired deadline, zero refinement moves may be applied and
    // the stop reason must say so.
    let p = chain(200, 4);
    for swap_refine in [false, true] {
        let opts = SolverOptions {
            deadline_ms: Some(0),
            refine: true,
            swap_refine,
            restarts: 3,
            ..SolverOptions::default()
        };
        let result = Solver::new(opts).try_solve(&p).unwrap();
        assert_eq!(
            result.stop_reason,
            StopReason::BudgetExhausted,
            "swap_refine={swap_refine}"
        );
        assert_eq!(result.iterations, 0, "swap_refine={swap_refine}");
        assert_eq!(
            result.refine_moves, 0,
            "refinement ran past an expired deadline (swap_refine={swap_refine})"
        );
        assert_valid(&result, 200, 4);
    }
}

#[test]
fn cancelled_before_start_stops_immediately() {
    let p = chain(200, 4);
    let token = CancelToken::new();
    token.cancel();
    let opts = SolverOptions {
        refine: true,
        restarts: 3,
        ..SolverOptions::default()
    };
    let result = Solver::new(opts)
        .try_solve_interruptible(&p, &Interrupt::with_cancel(token))
        .unwrap();
    assert_eq!(result.stop_reason, StopReason::Cancelled);
    assert_eq!(result.iterations, 0);
    assert_eq!(result.refine_moves, 0, "refinement ran past a cancellation");
    assert_valid(&result, 200, 4);
}

#[test]
fn cancellation_wins_over_an_expired_deadline() {
    let p = chain(20, 2);
    let token = CancelToken::new();
    token.cancel();
    let interrupt = Interrupt::new(Deadline::after_ms(Some(0)), Some(token));
    let result = Solver::new(SolverOptions::default())
        .try_solve_interruptible(&p, &interrupt)
        .unwrap();
    assert_eq!(result.stop_reason, StopReason::Cancelled);
    assert_valid(&result, 20, 2);
}

#[test]
fn mid_run_cancellation_terminates_the_descent() {
    // A solve that would otherwise run for millions of iterations must stop
    // promptly once the token is raised from another thread. The iteration
    // it stops at is inherently timing-dependent; the terminal state is
    // not.
    let p = chain(2_000, 4);
    let opts = SolverOptions {
        margin: -1.0, // unreachable: only the cancel can stop this run early
        max_iterations: usize::MAX,
        iteration_budget: Some(10_000_000),
        refine: false,
        ..SolverOptions::default()
    };
    let token = CancelToken::new();
    #[expect(
        clippy::disallowed_methods,
        reason = "the canceller must run beside the solve it cancels"
    )]
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            token.cancel();
        })
    };
    let result = Solver::new(opts)
        .try_solve_interruptible(&p, &Interrupt::with_cancel(token))
        .unwrap();
    canceller.join().unwrap();
    assert_eq!(result.stop_reason, StopReason::Cancelled);
    assert_valid(&result, 2_000, 4);
}

#[test]
fn inert_interrupt_is_bit_identical_to_plain_solve() {
    let p = chain(40, 3);
    let solver = Solver::new(SolverOptions::tuned(3));
    let plain = solver.try_solve(&p).unwrap();
    let inert = solver
        .try_solve_interruptible(&p, &Interrupt::none())
        .unwrap();
    assert_eq!(plain, inert);
    // A token that never fires is just as invisible.
    let armed = solver
        .try_solve_interruptible(&p, &Interrupt::with_cancel(CancelToken::new()))
        .unwrap();
    assert_eq!(plain, armed);
}

#[test]
fn iteration_budget_spans_restarts_in_index_order() {
    let p = chain(20, 3);
    // Budget covers restart 0 fully (margin stops it well under the cap is
    // prevented with margin: -1) plus 7 iterations of restart 1; restart 2
    // never runs.
    let opts = SolverOptions {
        margin: -1.0,
        max_iterations: 40,
        c4_warmup: 0,
        refine: false,
        restarts: 3,
        iteration_budget: Some(47),
        ..SolverOptions::default()
    };
    let result = Solver::new(opts).try_solve(&p).unwrap();
    assert!(result.best_restart < 2, "restart 2 must not run");
    match result.best_restart {
        0 => assert_eq!(result.stop_reason, StopReason::MaxIterations),
        1 => {
            assert_eq!(result.stop_reason, StopReason::BudgetExhausted);
            assert_eq!(result.iterations, 7);
        }
        _ => unreachable!("best_restart < 2 asserted above"),
    }
}

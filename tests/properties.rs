//! Property-based tests (proptest) over randomly generated instances,
//! exercising the invariants the whole pipeline relies on.

use current_recycling::cells::CellLibrary;
use current_recycling::circuits::synthetic::{synthetic_netlist, SyntheticSpec};
use current_recycling::def::{parse_def, write_def};
use current_recycling::partition::engine::{CostEngine, EngineOptions};
use current_recycling::partition::grad::{Gradient, GradientOptions};
use current_recycling::partition::refine::{discrete_cost, refine, RefineOptions};
use current_recycling::partition::telemetry::{TraceCollector, TraceEvent};
use current_recycling::partition::{
    baselines, CostModel, CostWeights, Partition, PartitionMetrics, PartitionProblem, SolveResult,
    Solver, SolverOptions, WeightMatrix,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random connected-ish problem with `g` gates and `k` planes.
fn arb_problem() -> impl Strategy<Value = PartitionProblem> {
    (5usize..60, 2usize..7, any::<u64>()).prop_map(|(g, k, seed)| {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let bias: Vec<f64> = (0..g).map(|_| rng.random_range(0.1..2.5)).collect();
        let area: Vec<f64> = (0..g).map(|_| rng.random_range(1.0..12.0)).collect();
        let mut edges = Vec::new();
        for i in 1..g as u32 {
            edges.push((rng.random_range(0..i), i));
            if rng.random_bool(0.3) {
                edges.push((rng.random_range(0..i), i));
            }
        }
        PartitionProblem::new(bias, area, edges, k).expect("constructed valid")
    })
}

/// A solve with a trace attached: the result, and the relaxed cost of each
/// iteration of the winning restart, read from its `iter` records.
fn traced_solve(options: SolverOptions, problem: &PartitionProblem) -> (SolveResult, Vec<f64>) {
    let mut trace = TraceCollector::new();
    let result = Solver::new(options).solve_observed(problem, &mut trace);
    let best = result.best_restart as u64;
    let costs = trace
        .events()
        .iter()
        .filter_map(|event| match *event {
            TraceEvent::Iteration { restart, total, .. } if restart == best => Some(total),
            _ => None,
        })
        .collect();
    (result, costs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn solver_emits_valid_partitions(problem in arb_problem()) {
        let result = Solver::new(SolverOptions::default()).solve(&problem);
        prop_assert_eq!(result.partition.num_gates(), problem.num_gates());
        prop_assert_eq!(result.partition.num_planes(), problem.num_planes());
        for i in 0..problem.num_gates() {
            prop_assert!(result.partition.plane_of(i) < problem.num_planes());
        }
    }

    #[test]
    fn metric_identities(problem in arb_problem(), seed in any::<u64>()) {
        let partition = baselines::random(&problem, seed);
        let m = PartitionMetrics::evaluate(&problem, &partition);
        let k = problem.num_planes() as f64;
        // Conservation.
        prop_assert!((m.plane_bias.iter().sum::<f64>() - m.b_cir).abs() < 1e-6);
        prop_assert!((m.plane_area.iter().sum::<f64>() - m.a_cir).abs() < 1e-6);
        // eq. 11 identities.
        prop_assert!((m.i_comp_ma - (k * m.b_max - m.b_cir)).abs() < 1e-6);
        prop_assert!((m.a_fs_um2 - (k * m.a_max - m.a_cir)).abs() < 1e-6);
        // Histogram totals and bounds.
        prop_assert_eq!(m.distance_histogram.iter().sum::<usize>(), m.num_connections);
        if m.num_connections > 0 {
            prop_assert!((m.cumulative_fraction(problem.num_planes() - 1) - 1.0).abs() < 1e-12);
        }
        // Non-negativity.
        prop_assert!(m.i_comp_ma >= -1e-12);
        prop_assert!(m.a_fs_um2 >= -1e-12);
    }

    #[test]
    fn cost_terms_have_documented_signs(problem in arb_problem(), seed in any::<u64>()) {
        let model = CostModel::new(&problem, CostWeights::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let w = WeightMatrix::random(problem.num_gates(), problem.num_planes(), &mut rng);
        let c = model.evaluate(&w);
        prop_assert!(c.f1 >= 0.0);
        prop_assert!(c.f2 >= 0.0);
        prop_assert!(c.f3 >= 0.0);
        // F4 of a row-stochastic matrix is bounded below by the one-hot
        // minimum −(1/K)(1−1/K) per row (scaled by N4).
        let k = problem.num_planes() as f64;
        let per_row_min = -(1.0 / k) * (1.0 - 1.0 / k);
        let bound = problem.num_gates() as f64 * per_row_min
            / (problem.num_gates() as f64 * (k - 1.0) * (k - 1.0));
        prop_assert!(c.f4 >= bound - 1e-9, "f4 {} below bound {}", c.f4, bound);
    }

    #[test]
    fn gradient_matches_finite_difference(problem in arb_problem(), seed in any::<u64>()) {
        let model = CostModel::new(&problem, CostWeights::default());
        let g = problem.num_gates();
        let k = problem.num_planes();
        let mut rng = StdRng::seed_from_u64(seed);
        let w = WeightMatrix::random(g, k, &mut rng);
        let mut grad = Gradient::new(GradientOptions::exact());
        let mut analytic = vec![0.0; w.padded_len()];
        grad.compute(&model, &w, &mut analytic);

        // Spot-check a handful of coordinates (full FD is O((GK)^2)).
        let stride = w.stride();
        let mut wp = w.clone();
        let eps = 1e-6;
        for probe in 0..8usize.min(g * k) {
            let idx = (probe * 7919) % (g * k);
            let (i, kk) = (idx / k, idx % k);
            let flat = i * stride + kk;
            let orig = wp.get(i, kk);
            wp.set(i, kk, orig + eps);
            let up = model.evaluate(&wp).total;
            wp.set(i, kk, orig - eps);
            let down = model.evaluate(&wp).total;
            wp.set(i, kk, orig);
            let numeric = (up - down) / (2.0 * eps);
            let scale = analytic[flat].abs().max(numeric.abs()).max(1e-6);
            prop_assert!(
                (analytic[flat] - numeric).abs() / scale < 1e-3,
                "coordinate ({i},{kk}): analytic {} vs numeric {}",
                analytic[flat],
                numeric
            );
        }
    }

    #[test]
    fn fused_engine_matches_reference_cost_and_gradient(
        problem in arb_problem(),
        seed in any::<u64>(),
    ) {
        // The fused engine must reproduce the reference CostModel + Gradient
        // oracle within 1e-12 relative.
        let g = problem.num_gates();
        let k = problem.num_planes();
        let mut rng = StdRng::seed_from_u64(seed);
        let w = WeightMatrix::random(g, k, &mut rng);

        let model = CostModel::new(&problem, CostWeights::default());
        let expect_cost = model.evaluate(&w);
        let mut reference = Gradient::new(GradientOptions::exact());
        let mut expect_grad = vec![0.0; w.padded_len()];
        reference.compute(&model, &w, &mut expect_grad);

        let close = |a: f64, b: f64| (a - b).abs() / a.abs().max(b.abs()).max(1.0) < 1e-12;
        let mut engine =
            CostEngine::new(&problem, CostWeights::default(), 4.0, EngineOptions::default());
        let mut grad = vec![0.0; w.padded_len()];
        let cost = engine.evaluate_with_gradient(&w, &mut grad);
        prop_assert!(close(cost.f1, expect_cost.f1), "f1 {} vs {}", cost.f1, expect_cost.f1);
        prop_assert!(close(cost.f2, expect_cost.f2), "f2 {} vs {}", cost.f2, expect_cost.f2);
        prop_assert!(close(cost.f3, expect_cost.f3), "f3 {} vs {}", cost.f3, expect_cost.f3);
        prop_assert!(close(cost.f4, expect_cost.f4), "f4 {} vs {}", cost.f4, expect_cost.f4);
        prop_assert!(close(cost.total, expect_cost.total));
        for (i, (&a, &b)) in grad.iter().zip(&expect_grad).enumerate() {
            prop_assert!(close(a, b), "grad[{}]: {} vs {}", i, a, b);
        }
    }

    #[test]
    fn solver_backends_agree_end_to_end(problem in arb_problem()) {
        // Whole solves (descent, snap, refine) must not depend on how the
        // work is threaded: serial and parallel restarts give identical
        // partitions and relaxed costs per iteration, bit for bit.
        let mut opts = SolverOptions {
            max_iterations: 120,
            restarts: 2,
            parallel: false,
            ..SolverOptions::default()
        };
        let (serial, serial_costs) = traced_solve(opts.clone(), &problem);
        opts.parallel = true;
        let (threaded, threaded_costs) = traced_solve(opts, &problem);
        prop_assert_eq!(serial.partition.labels(), threaded.partition.labels());
        prop_assert_eq!(serial_costs, threaded_costs);
        prop_assert_eq!(serial.discrete_cost, threaded.discrete_cost);
    }

    #[test]
    fn refine_never_worsens(problem in arb_problem(), seed in any::<u64>()) {
        let start = baselines::random(&problem, seed);
        let w = CostWeights::default();
        let before = discrete_cost(&problem, &start, w, 4.0);
        let (refined, _) = refine(&problem, &start, &RefineOptions::default());
        let after = discrete_cost(&problem, &refined, w, 4.0);
        prop_assert!(after <= before + 1e-12);
    }

    #[test]
    fn weight_rows_stay_in_unit_box_after_descent(problem in arb_problem()) {
        // The projected descent must keep every w in [0,1]; verified through
        // the solver's public invariants: snap produces valid labels and the
        // relaxed cost at the end is finite.
        let (_, costs) = traced_solve(SolverOptions::default(), &problem);
        for &cost in &costs {
            prop_assert!(cost.is_finite());
        }
    }

    #[test]
    fn partition_distance_symmetry(problem in arb_problem(), seed in any::<u64>()) {
        let p = baselines::random(&problem, seed);
        for &(u, v) in problem.edges().iter().take(32) {
            prop_assert_eq!(
                p.distance(u as usize, v as usize),
                p.distance(v as usize, u as usize)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn synthetic_netlists_hit_exact_targets(
        g in 60usize..400,
        extra in 0usize..30,
        seed in any::<u64>(),
    ) {
        // Connections between G−src and 1.5(G−src): pick a safe value.
        let src = (g / 50).max(4);
        let c = (g - src) + (extra * (g - src) / 80).min((g - src) / 2);
        let spec = SyntheticSpec::new("prop", g, c, seed);
        let netlist = synthetic_netlist(&spec, CellLibrary::calibrated());
        let stats = netlist.stats();
        prop_assert_eq!(stats.num_gates, g);
        prop_assert_eq!(stats.num_connections, c);
        prop_assert!(netlist.validate().is_ok());
    }

    #[test]
    fn def_round_trip_preserves_stats(
        g in 60usize..250,
        seed in any::<u64>(),
    ) {
        let src = (g / 50).max(4);
        let c = (g - src) + (g - src) / 4;
        let spec = SyntheticSpec::new("rt", g, c, seed);
        let netlist = synthetic_netlist(&spec, CellLibrary::calibrated());
        let text = write_def(&netlist);
        let parsed = parse_def(&text, CellLibrary::calibrated()).expect("own DEF parses");
        prop_assert_eq!(parsed.stats(), netlist.stats());
        // Connection multiset must survive exactly (as sorted index pairs by
        // name lookup).
        let key = |nl: &current_recycling::netlist::Netlist| {
            let mut v: Vec<(String, String)> = nl
                .connections()
                .map(|c| {
                    (
                        nl.cell(c.from).name.clone(),
                        nl.cell(c.to).name.clone(),
                    )
                })
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(key(&parsed), key(&netlist));
    }

    #[test]
    fn argmax_partition_matches_one_hot_labels(
        labels in proptest::collection::vec(0usize..5, 3..40),
    ) {
        let w = WeightMatrix::from_labels(&labels, 5);
        let p = Partition::from_weights(&w);
        for (i, &l) in labels.iter().enumerate() {
            prop_assert_eq!(p.plane_of(i), l);
        }
    }
}

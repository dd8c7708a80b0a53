//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Distance exponent** `p ∈ {1, 2, 4}` in `F₁` — the paper picks 4 "to
//!    model the sharp increment" of multi-boundary connections; the study
//!    shows how the d-histogram tail responds.
//! 2. **`F₄` (one-hot pressure)** on/off — without it the relaxation
//!    collapses to the uniform saddle and argmax decides by noise.
//! 3. **Exact vs as-printed gradients** — eq. 10's two typos.
//! 4. **Discrete refinement** on/off and **restart count** — the practical
//!    additions on top of Algorithm 1.
//! 5. **Baselines** — random, levelized chunking, balance-only greedy, and
//!    simulated annealing on the same discrete objective, and the flat
//!    descent + refine the solver ran before its V-cycle.
//! 6. **Clock impact** of the couplers a partition inserts.

use sfq_bench::{load_circuit, pct, pcts};
use sfq_circuits::registry::{generate, Benchmark};
use sfq_netlist::ClockAnalysis;
use sfq_partition::baselines::{self, AnnealingOptions};
use sfq_partition::refine::{refine, RefineOptions};
use sfq_partition::spectral::{spectral_partition, SpectralOptions};
use sfq_partition::{CostWeights, PartitionMetrics, Solver, SolverOptions};
use sfq_recycle::clock_impact;
use sfq_report::table::Table;

fn measure(run: &sfq_bench::CircuitRun, options: SolverOptions) -> PartitionMetrics {
    let result = Solver::new(options).solve(&run.problem);
    PartitionMetrics::evaluate(&run.problem, &result.partition)
}

fn add(table: &mut Table, name: &str, m: &PartitionMetrics) {
    table.add_row(vec![
        name.to_owned(),
        pct(m.cumulative_fraction(1)),
        pct(m.cumulative_fraction(2)),
        pcts(m.i_comp_pct, 2),
        pcts(m.a_fs_pct, 2),
    ]);
}

fn main() {
    let bench = Benchmark::Ksa8;
    let k = 5;
    let run = load_circuit(bench, k);
    println!(
        "Ablations on {} (G = {}, |E| = {}), K = {k}\n",
        bench.name(),
        run.problem.num_gates(),
        run.problem.num_edges()
    );

    // 1. Exponent sweep.
    let mut t = Table::new(vec!["exponent p", "d<=1 %", "d<=2 %", "Icomp %", "Afs %"]);
    for p in [1.0, 2.0, 4.0] {
        let m = measure(
            &run,
            SolverOptions {
                exponent: p,
                ..SolverOptions::reproduction()
            },
        );
        add(&mut t, &format!("p = {p}"), &m);
    }
    println!("1. distance exponent in F1 (reproduction solver):\n{t}");

    // 2. F4 on/off.
    let mut t = Table::new(vec!["c4", "d<=1 %", "d<=2 %", "Icomp %", "Afs %"]);
    for c4 in [0.0, 1.0, 4.0, 16.0] {
        let mut o = SolverOptions::reproduction();
        o.weights = CostWeights { c4, ..o.weights };
        let m = measure(&run, o);
        add(&mut t, &format!("c4 = {c4}"), &m);
    }
    println!("2. one-hot pressure F4 (c4 = 0 collapses to the uniform saddle):\n{t}");

    // 3. Gradient formulas.
    let mut t = Table::new(vec!["gradients", "d<=1 %", "d<=2 %", "Icomp %", "Afs %"]);
    for (name, printed) in [("exact", false), ("as printed (eq. 10)", true)] {
        let m = measure(
            &run,
            SolverOptions {
                paper_gradients: printed,
                ..SolverOptions::reproduction()
            },
        );
        add(&mut t, name, &m);
    }
    println!("3. exact vs as-printed gradients:\n{t}");

    // 4. Refinement and restarts.
    let mut t = Table::new(vec![
        "configuration",
        "d<=1 %",
        "d<=2 %",
        "Icomp %",
        "Afs %",
    ]);
    for (name, restarts, refine) in [
        ("1 restart, no refine", 1, false),
        ("8 restarts, no refine", 8, false),
        ("1 restart + refine", 1, true),
        ("8 restarts + refine", 8, true),
    ] {
        let mut o = SolverOptions::reproduction();
        o.restarts = restarts;
        o.parallel = restarts > 1;
        o.refine = refine;
        let m = measure(&run, o);
        add(&mut t, name, &m);
    }
    println!("4. restarts and discrete refinement:\n{t}");

    // 5. Baselines.
    let mut t = Table::new(vec!["method", "d<=1 %", "d<=2 %", "Icomp %", "Afs %"]);
    let m = PartitionMetrics::evaluate(&run.problem, &baselines::random(&run.problem, 1));
    add(&mut t, "random", &m);
    let m = PartitionMetrics::evaluate(
        &run.problem,
        &baselines::round_robin_levelized(&run.problem),
    );
    add(&mut t, "levelized chunking", &m);
    let m = PartitionMetrics::evaluate(&run.problem, &baselines::greedy_balance(&run.problem));
    add(&mut t, "balance-only greedy", &m);
    let m = PartitionMetrics::evaluate(
        &run.problem,
        &baselines::simulated_annealing(&run.problem, &AnnealingOptions::default(), 1),
    );
    add(&mut t, "simulated annealing", &m);
    let m = PartitionMetrics::evaluate(
        &run.problem,
        &spectral_partition(&run.problem, &SpectralOptions::default()),
    );
    add(&mut t, "spectral ordering", &m);
    // The flat path: descent on the whole problem, then one refine. With
    // refinement off the solver keeps the input problem, and the default
    // refine options are the default solve's weights and exponent.
    let flat = Solver::new(SolverOptions {
        refine: false,
        ..SolverOptions::default()
    })
    .solve(&run.problem);
    let (flat, _) = refine(&run.problem, &flat.partition, &RefineOptions::default());
    add(
        &mut t,
        "flat GD + refine",
        &PartitionMetrics::evaluate(&run.problem, &flat),
    );
    let m = measure(&run, SolverOptions::default());
    add(&mut t, "V-cycle GD + refine", &m);
    let m = measure(&run, SolverOptions::reproduction());
    add(&mut t, "GD (paper config)", &m);
    let m = measure(&run, SolverOptions::tuned(8));
    add(&mut t, "GD + refine (this work)", &m);
    println!("5. baselines vs the solver:\n{t}");

    // 6. Clock-frequency impact of partitioning (paper §III-B3: couplers
    //    "decrease the operating frequency of the circuit").
    let mut t = Table::new(vec![
        "circuit",
        "f_base GHz",
        "f_repro GHz",
        "f_refined GHz",
        "loss repro %",
        "loss refined %",
    ]);
    for bench in [Benchmark::Ksa4, Benchmark::Ksa8, Benchmark::Mult4] {
        let netlist = generate(bench);
        let run = load_circuit(bench, k);
        let base = ClockAnalysis::of(&netlist);
        let repro = Solver::new(SolverOptions::reproduction()).solve(&run.problem);
        let refined = Solver::new(SolverOptions::tuned(4)).solve(&run.problem);
        let ir = clock_impact(&netlist, &run.problem, &repro.partition).expect("netlist-backed");
        let if_ = clock_impact(&netlist, &run.problem, &refined.partition).expect("netlist-backed");
        t.add_row(vec![
            bench.name().to_owned(),
            format!("{:.1}", base.max_frequency_ghz),
            format!("{:.1}", 1000.0 / ir.partitioned_period_ps),
            format!("{:.1}", 1000.0 / if_.partitioned_period_ps),
            pcts(100.0 * ir.frequency_loss_fraction, 1),
            pcts(100.0 * if_.frequency_loss_fraction, 1),
        ]);
    }
    println!("6. clock-frequency impact of plane crossings (K = {k}):\n{t}");
    println!("refined partitions keep crossings off the critical stage far better.");
}

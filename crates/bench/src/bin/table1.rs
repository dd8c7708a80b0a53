//! Regenerates the paper's **Table I**: partition results of the 13-circuit
//! benchmark suite at K = 5.
//!
//! Two configurations are reported:
//!
//! * the *reproduction* solver (pure projected gradient descent, no discrete
//!   refinement — the paper's Algorithm 1 with tuned `c₄` and restarts),
//!   whose numbers should track the paper's band, and
//! * the *full* solver (gradient descent + discrete refinement), which is
//!   what a downstream user should run.
//!
//! Every cell shows `ours (paper)` where the paper printed a value.

use sfq_bench::{load_circuit, pct, pcts, solve_and_measure, vs};
use sfq_circuits::registry::Benchmark;
use sfq_partition::SolverOptions;
use sfq_report::paper::{table_one_averages, table_one_row};
use sfq_report::table::Table;

fn main() {
    let k = 5;
    println!("Table I reproduction: partition results with K = {k}");
    println!("cells are `ours (paper)`; circuits regenerated, not the authors' DEF\n");

    let mut repro = Table::new(vec![
        "circuit", "gates", "conns", "d<=1 %", "d<=2 %", "Bcir mA", "Bmax mA", "Icomp %",
        "Acir mm2", "Amax mm2", "Afs %",
    ]);
    let mut full = Table::new(vec!["circuit", "d<=1 %", "d<=2 %", "Icomp %", "Afs %"]);

    let mut sums = [0.0f64; 4]; // repro: d1, d2, icomp, afs
    let mut nonadj = 0.0f64;

    for bench in Benchmark::all() {
        let run = load_circuit(bench, k);
        let paper = table_one_row(bench.name()).expect("all 13 circuits in Table I");

        let m = solve_and_measure(&run.problem, SolverOptions::reproduction());
        sums[0] += m.cumulative_fraction(1);
        sums[1] += m.cumulative_fraction(2);
        sums[2] += m.i_comp_pct;
        sums[3] += m.a_fs_pct;
        nonadj += m.non_adjacent_fraction();

        repro.add_row(vec![
            bench.name().to_owned(),
            vs(run.stats.num_gates.to_string(), paper.gates),
            vs(run.stats.num_connections.to_string(), paper.connections),
            vs(pct(m.cumulative_fraction(1)), paper.d1_pct),
            vs(pct(m.cumulative_fraction(2)), paper.d2_pct),
            vs(pcts(m.b_cir, 1), paper.b_cir_ma),
            vs(pcts(m.b_max, 2), paper.b_max_ma),
            vs(pcts(m.i_comp_pct, 2), paper.i_comp_pct),
            vs(format!("{:.4}", m.a_cir * 1e-6), paper.a_cir_mm2),
            vs(format!("{:.4}", m.a_max * 1e-6), paper.a_max_mm2),
            vs(pcts(m.a_fs_pct, 2), paper.a_fs_pct),
        ]);

        let mf = solve_and_measure(&run.problem, SolverOptions::tuned(4));
        full.add_row(vec![
            bench.name().to_owned(),
            pct(mf.cumulative_fraction(1)),
            pct(mf.cumulative_fraction(2)),
            pcts(mf.i_comp_pct, 2),
            pcts(mf.a_fs_pct, 2),
        ]);
    }

    println!("{repro}");

    let n = Benchmark::all().len() as f64;
    let avg = table_one_averages();
    println!("suite averages, ours (paper):");
    println!(
        "  d<=1: {} ({:.1})   d<=2: {} ({:.1})   I_comp: {:.1} ({:.1})   A_FS: {:.1} ({:.1})",
        pct(sums[0] / n),
        avg.d1_pct,
        pct(sums[1] / n),
        avg.d2_pct,
        sums[2] / n,
        avg.i_comp_pct,
        sums[3] / n,
        avg.a_fs_pct,
    );
    println!(
        "  non-adjacent connections (abstract's ~30 %): {}%\n",
        pct(nonadj / n)
    );

    println!("Full solver (GD + discrete refinement) on the same instances:");
    // The table ends its last row with a newline.
    print!("{full}");
}

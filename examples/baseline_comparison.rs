//! Compares the gradient-descent partitioner against the baselines the
//! library ships: random assignment, levelized chunking, balance-only
//! greedy, simulated annealing and spectral ordering — all on the same
//! discrete objective. With refinement on, the solver runs its V-cycle
//! (descent on a heavy-edge coarsening, refine at every level).
//!
//! Run with:
//!
//! ```text
//! cargo run --example baseline_comparison --release
//! ```

use current_recycling::circuits::registry::{generate, Benchmark};
use current_recycling::partition::baselines::{self, AnnealingOptions};
use current_recycling::partition::refine::discrete_cost;
use current_recycling::partition::spectral::{spectral_partition, SpectralOptions};
use current_recycling::partition::{
    CostWeights, Partition, PartitionMetrics, PartitionProblem, Solver, SolverOptions,
};
use current_recycling::report::table::Table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = Benchmark::Mult4;
    let netlist = generate(bench);
    let problem = PartitionProblem::from_netlist(&netlist, 5)?;
    println!(
        "{} at K = 5: {} gates, {} connections\n",
        bench.name(),
        problem.num_gates(),
        problem.num_edges()
    );

    let mut table = Table::new(vec![
        "method",
        "d<=1 %",
        "d<=2 %",
        "Icomp %",
        "Afs %",
        "objective",
    ]);
    let mut add = |name: &str, part: &Partition| {
        let m = PartitionMetrics::evaluate(&problem, part);
        let cost = discrete_cost(&problem, part, CostWeights::default(), 4.0);
        table.add_row(vec![
            name.to_owned(),
            format!("{:.1}", 100.0 * m.cumulative_fraction(1)),
            format!("{:.1}", 100.0 * m.cumulative_fraction(2)),
            format!("{:.2}", m.i_comp_pct),
            format!("{:.2}", m.a_fs_pct),
            format!("{cost:.5}"),
        ]);
    };

    add("random", &baselines::random(&problem, 7));
    add(
        "levelized chunking",
        &baselines::round_robin_levelized(&problem),
    );
    add("balance-only greedy", &baselines::greedy_balance(&problem));
    add(
        "simulated annealing",
        &baselines::simulated_annealing(&problem, &AnnealingOptions::default(), 7),
    );
    add(
        "spectral ordering",
        &spectral_partition(&problem, &SpectralOptions::default()),
    );
    add(
        "GD (paper config)",
        &Solver::new(SolverOptions::reproduction())
            .solve(&problem)
            .partition,
    );
    add(
        "GD + refine, 1 restart",
        &Solver::new(SolverOptions::default())
            .solve(&problem)
            .partition,
    );
    add(
        "GD + refine, 4 restarts",
        &Solver::new(SolverOptions::tuned(4))
            .solve(&problem)
            .partition,
    );

    println!("{table}");
    println!("`objective` is the discrete partition cost (lower is better).");
    Ok(())
}

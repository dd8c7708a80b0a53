//! Criterion bench: end-to-end partitioning (Table I workload) and the
//! discrete refinement pass on their own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sfq_circuits::registry::{generate, Benchmark};
use sfq_partition::refine::{refine, RefineOptions};
use sfq_partition::{baselines, PartitionProblem, Solver, SolverOptions};

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_solve_k5");
    group.sample_size(10);
    for bench in [Benchmark::Ksa4, Benchmark::Ksa8, Benchmark::Mult4] {
        let netlist = generate(bench);
        let problem = PartitionProblem::from_netlist(&netlist, 5).unwrap();
        group.bench_with_input(
            BenchmarkId::new("reproduction", bench.name()),
            &problem,
            |b, p| {
                let mut opts = SolverOptions::reproduction();
                opts.parallel = false; // stable timing
                opts.restarts = 1;
                b.iter(|| Solver::new(opts.clone()).solve(p))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("default_with_refine", bench.name()),
            &problem,
            |b, p| b.iter(|| Solver::new(SolverOptions::default()).solve(p)),
        );
    }
    group.finish();

    // Restart scaling of the fused engine (sequential and threaded).
    let netlist = generate(Benchmark::Ksa16);
    let ksa16 = PartitionProblem::from_netlist(&netlist, 5).unwrap();
    let mut group = c.benchmark_group("restart_scaling_ksa16_k5");
    group.sample_size(10);
    for restarts in [1usize, 2, 4] {
        for (label, parallel) in [("sequential", false), ("parallel", true)] {
            if restarts == 1 && parallel {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(label, restarts), &ksa16, |b, p| {
                let opts = SolverOptions {
                    restarts,
                    parallel,
                    ..SolverOptions::default()
                };
                b.iter(|| Solver::new(opts.clone()).solve(p))
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("refine_pass");
    group.sample_size(10);
    for bench in [Benchmark::Ksa8, Benchmark::C432] {
        let netlist = generate(bench);
        let problem = PartitionProblem::from_netlist(&netlist, 5).unwrap();
        let start = baselines::random(&problem, 7);
        group.bench_with_input(
            BenchmarkId::from_parameter(bench.name()),
            &problem,
            |b, p| b.iter(|| refine(p, &start, &RefineOptions::default())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);

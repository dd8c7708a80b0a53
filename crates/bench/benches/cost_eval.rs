//! Criterion bench: one evaluation of the relaxed cost and its gradient —
//! the inner loop of Algorithm 1 — across circuit sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sfq_circuits::registry::{generate, Benchmark};
use sfq_partition::engine::{CostEngine, EngineOptions};
use sfq_partition::{CostWeights, PartitionProblem, WeightMatrix};

fn bench_cost_and_grad(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm1_inner_loop");
    for bench in [
        Benchmark::Ksa4,
        Benchmark::Ksa8,
        Benchmark::Ksa16,
        Benchmark::C432,
    ] {
        let netlist = generate(bench);
        let problem = PartitionProblem::from_netlist(&netlist, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let w = WeightMatrix::random(problem.num_gates(), 5, &mut rng);
        let mut out = vec![0.0; w.padded_len()];
        let mut engine = CostEngine::new(
            &problem,
            CostWeights::default(),
            4.0,
            EngineOptions::default(),
        );
        group.bench_with_input(
            BenchmarkId::new("fused_cost_and_gradient", bench.name()),
            &w,
            |b, w| b.iter(|| engine.evaluate_with_gradient(w, &mut out)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cost_and_grad);
criterion_main!(benches);

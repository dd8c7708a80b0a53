//! The three solver workloads: `table1_full`, `c1908_k30` and `s1m_k5`.
//!
//! One flow is what `sfqpart partition` does: DEF text → `parse_def` →
//! `PartitionProblem::from_netlist` (or raw arrays → `PartitionProblem::new`
//! for the scale tier, which has no netlist) → `Solver::try_solve` →
//! `PartitionMetrics::evaluate` → `RecyclingPlan::build`. Flows run one at
//! a time on this thread (a closed loop with one caller).

use std::collections::BTreeMap;

use sfq_cells::CellLibrary;
use sfq_circuits::registry::{generate, Benchmark};
use sfq_circuits::scale::{scale_problem, ScaleSpec};
use sfq_def::{parse_def, write_def};
use sfq_partition::budget::Stopwatch;
use sfq_partition::engine::{CostEngine, EngineOptions};
use sfq_partition::{
    Partition, PartitionMetrics, PartitionProblem, Solver, SolverOptions, WeightMatrix,
};
use sfq_recycle::{RecycleOptions, RecyclingPlan};

use crate::catalog::{tail_quantile, RunResult};
use crate::stats::{median, percentile};
use crate::trace::{PhaseTimer, SolvePhases, Tracer};
use crate::{mean, mean_quality, ms, peak_rss_mb, quality, RunConfig, SetupTimes};

/// Where a flow starts.
enum Input {
    /// DEF text, built during set-up, parsed inside every flow.
    Def { text: String },
    /// Raw per-gate arrays (the scale tier has no netlist).
    Arrays {
        bias: Vec<f64>,
        area: Vec<f64>,
        edges: Vec<(u32, u32)>,
    },
}

/// One solver workload, ready to run.
struct Workload {
    inputs: Vec<Input>,
    planes: usize,
    /// Solver options; each flow replaces `seed`.
    options: SolverOptions,
    /// A run completes at least this many flows, however short.
    min_flows: usize,
}

fn def_inputs(benches: &[Benchmark]) -> Vec<Input> {
    benches
        .iter()
        .map(|&b| Input::Def {
            text: write_def(&generate(b)),
        })
        .collect()
}

fn build(name: &str, seed: u64, quick: bool) -> Result<Workload, String> {
    let base = SolverOptions::default();
    Ok(match name {
        "table1_full" => Workload {
            inputs: if quick {
                def_inputs(&[Benchmark::Ksa4, Benchmark::Ksa8])
            } else {
                def_inputs(&Benchmark::all())
            },
            planes: 5,
            options: base,
            min_flows: if quick { 2 } else { 13 },
        },
        "c1908_k30" => Workload {
            inputs: def_inputs(&[if quick {
                Benchmark::Ksa8
            } else {
                Benchmark::C1908
            }]),
            planes: if quick { 6 } else { 30 },
            options: base,
            min_flows: 5,
        },
        "s1m_k5" => {
            let gates = if quick { 2_000 } else { 1_000_000 };
            let generated = scale_problem(&ScaleSpec::new("S1M", gates, seed));
            Workload {
                inputs: vec![Input::Arrays {
                    bias: generated.bias,
                    area: generated.area,
                    edges: generated.edges,
                }],
                planes: 5,
                // The budget path `sfqpart --budget 8` takes.
                options: SolverOptions {
                    iteration_budget: Some(8),
                    ..base
                },
                min_flows: 2,
            }
        }
        other => return Err(format!("unknown solver workload `{other}`")),
    })
}

/// Timestamps (tracer clock) at each layer boundary of one flow.
struct Marks {
    start: u64,
    parsed: u64,
    built: u64,
    solved: u64,
    measured: u64,
    planned: u64,
}

/// What one flow produced.
struct Flow {
    labels: Vec<u32>,
    /// See [`crate::quality`].
    quality: [f64; 3],
    marks: Marks,
    phases: Option<SolvePhases>,
}

fn problem_of(input: &Input, planes: usize) -> Result<PartitionProblem, String> {
    match input {
        Input::Def { text } => {
            let netlist = parse_def(text, CellLibrary::calibrated()).map_err(|e| e.to_string())?;
            PartitionProblem::from_netlist(&netlist, planes).map_err(|e| e.to_string())
        }
        Input::Arrays { bias, area, edges } => {
            PartitionProblem::new(bias.clone(), area.clone(), edges.clone(), planes)
                .map_err(|e| e.to_string())
        }
    }
}

/// Runs flow number `index`. `clock` is the tracer's; `traced` attaches the
/// phase observer. Every output check of a single flow happens here, after
/// the last timestamp.
fn run_flow(
    w: &Workload,
    index: usize,
    seed: u64,
    clock: Stopwatch,
    traced: bool,
) -> Result<Flow, String> {
    let n = w.inputs.len();
    let input = w.inputs.get(index % n).ok_or("no inputs")?;
    let options = SolverOptions {
        seed: seed.wrapping_add((index / n) as u64),
        ..w.options.clone()
    };
    let start = clock.elapsed_ns();
    let (problem, parsed) = match input {
        Input::Def { text } => {
            let netlist = parse_def(text, CellLibrary::calibrated())
                .map_err(|e| format!("parse_def: {e}"))?;
            let parsed = clock.elapsed_ns();
            let problem = PartitionProblem::from_netlist(&netlist, w.planes)
                .map_err(|e| format!("from_netlist: {e}"))?;
            (problem, parsed)
        }
        Input::Arrays { .. } => (problem_of(input, w.planes)?, start),
    };
    let built = clock.elapsed_ns();
    let solver = Solver::new(options);
    let mut timer = PhaseTimer::new(clock);
    let result = if traced {
        solver.try_solve_observed(&problem, &mut timer)
    } else {
        solver.try_solve(&problem)
    }
    .map_err(|e| format!("try_solve: {e}"))?;
    let solved = clock.elapsed_ns();
    let metrics = PartitionMetrics::evaluate(&problem, &result.partition);
    let measured = clock.elapsed_ns();
    let plan = RecyclingPlan::build(&problem, &result.partition, &RecycleOptions::default());
    let planned = clock.elapsed_ns();

    plan.map_err(|e| format!("RecyclingPlan::build: {e}"))?;
    let labels = result.partition.labels().to_vec();
    if labels.len() != problem.num_gates()
        || Partition::from_labels(labels.clone(), w.planes).is_err()
    {
        return Err("solver returned an invalid partition".to_string());
    }
    Ok(Flow {
        labels,
        quality: quality(&metrics),
        marks: Marks {
            start,
            parsed,
            built,
            solved,
            measured,
            planned,
        },
        phases: timer.restarts.first().copied(),
    })
}

/// Records one traced flow's spans: the flow, its five layers, and the
/// descent/refine split inside the solve.
fn record_spans(tracer: &mut Tracer, op: u64, flow: &Flow, has_def: bool) {
    let m = &flow.marks;
    let root = tracer.record("flow", None, op, m.start, m.planned);
    if has_def {
        tracer.record("def.parse", Some(root), op, m.start, m.parsed);
    }
    tracer.record("problem.build", Some(root), op, m.parsed, m.built);
    let solve = tracer.record("solver.solve", Some(root), op, m.built, m.solved);
    if let Some(p) = flow.phases {
        tracer.record(
            "engine.descent",
            Some(solve),
            op,
            p.descent_start_ns,
            p.descent_end_ns,
        );
        tracer.record("refine", Some(solve), op, p.descent_end_ns, p.refine_end_ns);
    }
    tracer.record("metrics", Some(root), op, m.solved, m.measured);
    tracer.record("recycle.plan", Some(root), op, m.measured, m.planned);
}

/// Median seconds-per-call of an isolated `evaluate_with_gradient` on the
/// workload's last (largest) input, and the bytes one call must move.
fn isolated_eval(w: &Workload) -> Result<(f64, f64, String), String> {
    let input = w.inputs.last().ok_or("no inputs")?;
    let problem = problem_of(input, w.planes)?;
    let mut engine = CostEngine::new(
        &problem,
        w.options.weights,
        w.options.exponent,
        EngineOptions::default(),
    );
    let weights = WeightMatrix::uniform(problem.num_gates(), problem.num_planes());
    let mut grad = vec![0.0; weights.padded_len()];
    std::hint::black_box(engine.evaluate_with_gradient(&weights, &mut grad));
    let mut samples = Vec::new();
    let total = Stopwatch::start();
    while samples.len() < 5 || (samples.len() < 200 && total.elapsed_ns() < 300_000_000) {
        let watch = Stopwatch::start();
        std::hint::black_box(engine.evaluate_with_gradient(&weights, &mut grad));
        samples.push(watch.elapsed_ns() as f64 / 1e9);
    }
    // Compulsory traffic if every array streams once per pass: the weight
    // matrix is read by the gate and gradient passes and the gradient
    // written once (3·G·stride·8 B); ten per-gate f64 vectors and the CSR
    // offsets (84 B per gate); per edge, two packed neighbours and two
    // gathered labels (24 B).
    let (g, stride, e) = (
        problem.num_gates() as f64,
        weights.stride() as f64,
        problem.num_edges() as f64,
    );
    let bytes = 24.0 * g * stride + 84.0 * g + 24.0 * e;
    let note = format!(
        "G={g} stride={stride} |E|={e}: weight matrix and gradient {:.1} MB each, \
         {:.1} MB computed per call",
        g * stride * 8.0 / 1e6,
        bytes / 1e6
    );
    Ok((median(&samples).unwrap_or(0.0), bytes, note))
}

/// Runs one solver workload for `cfg.seconds` and reports its metrics.
///
/// # Errors
///
/// Fails when the workload is unknown or set-up fails; failed flows are
/// counted, not returned.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let rebuild = || build(&cfg.workload, cfg.seed, cfg.quick);
    let (w, mut setup) = SetupTimes::first(rebuild)?;
    let has_def = matches!(w.inputs.first(), Some(Input::Def { .. }));
    let def_bytes: Vec<usize> = w
        .inputs
        .iter()
        .map(|i| match i {
            Input::Def { text } => text.len(),
            Input::Arrays { .. } => 0,
        })
        .collect();

    let mut tracer = Tracer::new();
    let clock = tracer.clock();
    let budget_ns = (cfg.seconds * 1e9) as u64;
    let run = Stopwatch::start();
    // (input index, traced, milliseconds) per completed flow.
    let mut samples: Vec<(usize, bool, f64)> = Vec::new();
    let mut quality: Vec<(usize, [f64; 3])> = Vec::new();
    let mut first_labels: Option<Vec<u32>> = None;
    let (mut failed, mut parsed_bytes) = (0u64, 0usize);
    let (mut iterations, mut recoveries, mut moves) = (0u64, 0u64, 0u64);
    let mut index = 0usize;
    while index < w.min_flows || run.elapsed_ns() < budget_ns {
        // A traced run alternates traced and untraced flows, so the trace
        // overhead is measured within the run.
        let traced = cfg.trace && index % 2 == 1;
        match run_flow(&w, index, cfg.seed, clock, traced) {
            Ok(flow) => {
                let input = index % w.inputs.len();
                samples.push((input, traced, ms(flow.marks.planned - flow.marks.start)));
                quality.push((index, flow.quality));
                if traced {
                    record_spans(&mut tracer, index as u64, &flow, has_def);
                    parsed_bytes += def_bytes.get(input).copied().unwrap_or(0);
                    if let Some(p) = flow.phases {
                        iterations += p.iterations;
                        recoveries += p.recoveries;
                        moves += p.refine_moves;
                    }
                }
                if index == 0 {
                    first_labels = Some(flow.labels);
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("{}: flow {index} failed: {e}", cfg.workload);
            }
        }
        index += 1;
        setup.between_ops(rebuild)?;
    }
    let wall_s = run.elapsed_ns() as f64 / 1e9;
    let attempted = index as u64;

    // Determinism: the first flow again, bit for bit.
    let rerun = run_flow(&w, 0, cfg.seed, clock, false).map(|f| f.labels);
    let deterministic = matches!((&first_labels, &rerun), (Some(a), Ok(b)) if a == b);
    if !deterministic {
        eprintln!("{}: flow 0 did not repeat bit-identically", cfg.workload);
    }

    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        metrics.insert(name.to_string(), value);
    };
    if cfg.trace {
        let traced_flows = samples.iter().filter(|s| s.1).count().max(1) as f64;
        let totals = tracer.totals();
        let per_flow =
            |name: &str| totals.get(name).copied().unwrap_or(0) as f64 / 1e6 / traced_flows;
        let flow_ms = per_flow("flow");
        let layers = [
            "def.parse",
            "problem.build",
            "solver.solve",
            "metrics",
            "recycle.plan",
        ];
        let solve_ms = per_flow("solver.solve");
        let descent_ms = per_flow("engine.descent");
        let refine_ms = per_flow("refine");
        let parse_s = totals.get("def.parse").copied().unwrap_or(0) as f64 / 1e9;
        let iterations_per_flow = iterations as f64 / traced_flows;
        let (eval_s, bytes, note) = isolated_eval(&w)?;
        eprintln!("{}: isolated evaluate_with_gradient {note}", cfg.workload);
        put("flow.ms", flow_ms);
        put("def.parse_ms", per_flow("def.parse"));
        put(
            "def.mb_per_s",
            if parse_s > 0.0 {
                parsed_bytes as f64 / 1e6 / parse_s
            } else {
                0.0
            },
        );
        put("problem.build_ms", per_flow("problem.build"));
        put("solver.solve_ms", solve_ms);
        put("solver.iterations", iterations_per_flow);
        put("solver.recoveries", recoveries as f64 / traced_flows);
        put("solver.unattributed_ms", solve_ms - descent_ms - refine_ms);
        put("engine.descent_ms", descent_ms);
        put(
            "engine.iter_us",
            if iterations_per_flow > 0.0 {
                descent_ms * 1e3 / iterations_per_flow
            } else {
                0.0
            },
        );
        put("engine.eval_us", eval_s * 1e6);
        put("engine.computed_bytes_per_eval", bytes);
        put(
            "engine.computed_gbps",
            if eval_s > 0.0 {
                bytes / eval_s / 1e9
            } else {
                0.0
            },
        );
        put("refine.ms", refine_ms);
        put("refine.moves", moves as f64 / traced_flows);
        put("metrics.ms", per_flow("metrics"));
        put("recycle.plan_ms", per_flow("recycle.plan"));
        put(
            "flow.unattributed_ms",
            flow_ms - layers.iter().map(|l| per_flow(l)).sum::<f64>(),
        );
        for (name, _) in crate::catalog::PER_LAYER {
            if name.starts_with("serviced.") {
                put(name, 0.0);
            }
        }
        put("trace.overhead_pct", trace_overhead_pct(&samples));
        let path = crate::span_path(&cfg.workload, cfg.seed);
        tracer
            .write_jsonl(&path, &cfg.workload)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "{}: wrote {} spans to {}",
            cfg.workload,
            tracer.spans().len(),
            path.display()
        );
    } else {
        let mut times: Vec<f64> = samples.iter().map(|s| s.2).collect();
        times.sort_by(f64::total_cmp);
        // Each input's median flow, averaged over inputs. Table I's circuits
        // take 1 ms to 330 ms and five of them cluster at 19–25 ms, so the
        // pooled median hops between circuits from run to run.
        let p50 = mean((0..w.inputs.len()).filter_map(|input| {
            let own: Vec<f64> = samples
                .iter()
                .filter(|s| s.0 == input)
                .map(|s| s.2)
                .collect();
            median(&own)
        }));
        let (tail, label) = tail_quantile(&cfg.workload)
            .and_then(|q| Some((percentile(&times, q)?, format!("p{}", (q * 100.0).round()))))
            .unwrap_or_else(|| {
                (
                    median(&times).unwrap_or(0.0),
                    "median (no percentile has 10 samples beyond it)".to_string(),
                )
            });
        eprintln!(
            "{}: {} flows in {wall_s:.2} s ({:.3}/s); p50 {p50:.3} ms; tail {label} = {tail:.3} ms",
            cfg.workload,
            times.len(),
            times.len() as f64 / wall_s,
        );
        put("flow_p50_ms", p50);
        put("flow_tail_ms", tail);
        // Quality pools every complete pass over the inputs, so each input
        // weighs the same.
        let complete = index - index % w.inputs.len();
        let pooled: Vec<[f64; 3]> = quality
            .iter()
            .filter(|q| q.0 < complete)
            .map(|q| q.1)
            .collect();
        for (name, value) in mean_quality(&pooled) {
            put(name, value);
        }
        put("setup_s", setup.median_s());
        put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    }
    Ok(RunResult {
        workload: cfg.workload.clone(),
        seed: cfg.seed,
        trace: cfg.trace,
        correct: failed == 0 && deterministic,
        attempted,
        failed,
        metrics,
    })
}

/// Traced over untraced flow time, minus one, in percent: per input, the
/// median of each kind, summed over the inputs that have both.
fn trace_overhead_pct(samples: &[(usize, bool, f64)]) -> f64 {
    let mut by_input: BTreeMap<(usize, bool), Vec<f64>> = BTreeMap::new();
    for &(input, traced, ms) in samples {
        by_input.entry((input, traced)).or_default().push(ms);
    }
    let (mut traced, mut untraced) = (0.0, 0.0);
    for ((input, is_traced), times) in &by_input {
        if *is_traced {
            if let (Some(t), Some(u)) = (
                median(times),
                by_input.get(&(*input, false)).and_then(|u| median(u)),
            ) {
                traced += t;
                untraced += u;
            }
        }
    }
    if untraced > 0.0 {
        100.0 * (traced / untraced - 1.0)
    } else {
        0.0
    }
}

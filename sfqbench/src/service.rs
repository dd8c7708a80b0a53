//! The `service_mixed` workload: an in-process `sfqpartd` with the default
//! configuration, driven over TCP by one client on this thread with eight
//! jobs outstanding (a closed loop: the next job is sent when one settles).
//!
//! It is closed loop because `Client::read` only blocks and its timeout is
//! rounded up to kernel ticks, so an open-loop generator on it runs late by
//! milliseconds; generator threads are not allowed (rule D3).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use sfq_circuits::registry::{generate, Benchmark};
use sfq_partition::{
    FaultInjection, Partition, PartitionMetrics, PartitionProblem, Solver, SolverOptions,
};
use sfq_recycle::{RecycleOptions, RecyclingPlan};
use sfq_serviced::client::ClientRead;
use sfq_serviced::protocol::{ProblemSpec, Request, Response, SolveRequest};
use sfq_serviced::{Client, Daemon, DaemonConfig, StatsSnapshot};

use crate::catalog::{tail_quantile, RunResult, PER_LAYER};
use crate::mix::{job_kind, splitmix64, JobKind, VARIANTS};
use crate::stats::{median, tail_or_median};
use crate::trace::Tracer;
use crate::{mean, mean_quality, ms, peak_rss_mb, quality, RunConfig, SetupTimes};

/// Jobs outstanding on the one connection.
const WINDOW: usize = 8;
/// Planes of every request.
const PLANES: usize = 5;
/// Read timeout; only the hang watchdog uses the ticks.
const READ_TICK: Duration = Duration::from_millis(100);
/// A run with no terminal frame for this long is abandoned as failed.
const STALL_NS: u64 = 30_000_000_000;

/// A daemon that drains when dropped, so no worker outlives its run.
struct LocalDaemon(Option<Daemon>);

impl Drop for LocalDaemon {
    fn drop(&mut self) {
        if let Some(daemon) = self.0.take() {
            daemon.drain();
        }
    }
}

/// The service's set-up as a user waits for it: the request arrays, a
/// started daemon and a connection to it. Field order is drop order: the
/// client disconnects before the daemon drains.
struct Setup {
    client: Client,
    daemon: LocalDaemon,
    spec: ProblemSpec,
}

/// What `done` frames are checked against: the instance the daemon builds
/// from the request, and a direct in-process solve of each repeat variant.
/// It is the benchmark's check, not the service's set-up, so it is built
/// once and not timed; its solves swing up to 2× with the host's load.
struct Oracle {
    problem: PartitionProblem,
    /// Labels of a direct in-process solve of each repeat variant.
    references: Vec<Vec<u32>>,
}

/// The solver options job `index` of kind `kind` carries.
fn options_for(seed: u64, kind: JobKind, index: u64) -> SolverOptions {
    let mut options = SolverOptions {
        restarts: 2,
        ..SolverOptions::default()
    };
    // The wire carries numbers as doubles: seeds must stay below 2^53.
    const WIRE_SEED: u64 = (1 << 53) - 1;
    match kind {
        JobKind::Repeat { variant } => {
            options.seed = seed.wrapping_mul(VARIANTS).wrapping_add(variant) & WIRE_SEED;
        }
        JobKind::Unique => options.seed = splitmix64(seed.wrapping_add(index)) >> 11,
        JobKind::Cancel => {
            // A negative margin is never met: only the cancel ends it.
            options.margin = -1.0;
            options.max_iterations = 50_000_000;
        }
        JobKind::Poison => {
            options.fault_injection = Some(FaultInjection {
                poison_from: Some(0),
                ..FaultInjection::default()
            });
        }
        JobKind::ZeroDeadline | JobKind::Panic => {}
    }
    options
}

fn request_for(spec: &ProblemSpec, seed: u64, kind: JobKind, index: u64) -> Request {
    Request::Solve(Box::new(SolveRequest {
        id: format!("j{index}"),
        problem: spec.clone(),
        options: options_for(seed, kind, index),
        deadline_ms: (kind == JobKind::ZeroDeadline).then_some(0),
        progress_every: None,
        panic_in_worker: kind == JobKind::Panic,
    }))
}

fn fetch_stats(client: &mut Client) -> Result<StatsSnapshot, String> {
    if !client.send(&Request::Stats) {
        return Err("stats request failed".to_string());
    }
    for _ in 0..100 {
        match client.read() {
            ClientRead::Frame(Response::Stats(stats)) => return Ok(*stats),
            ClientRead::Frame(_) | ClientRead::Timeout => {}
            ClientRead::Eof => break,
        }
    }
    Err("no stats frame".to_string())
}

fn set_up() -> Result<Setup, String> {
    let generated = PartitionProblem::from_netlist(&generate(Benchmark::Ksa8), PLANES)
        .map_err(|e| e.to_string())?;
    let spec = ProblemSpec {
        bias: generated.bias().to_vec(),
        area: generated.area().to_vec(),
        edges: generated.edges().to_vec(),
        planes: PLANES,
    };
    let daemon = Daemon::start(DaemonConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let daemon = LocalDaemon(Some(daemon));
    let addr = daemon.0.as_ref().ok_or("no daemon")?.addr();
    let client = Client::connect(addr, Some(READ_TICK)).map_err(|e| format!("connect: {e}"))?;
    Ok(Setup {
        client,
        daemon,
        spec,
    })
}

fn oracle(spec: &ProblemSpec, seed: u64) -> Result<Oracle, String> {
    // Exactly the instance the daemon builds from the spec.
    let problem = PartitionProblem::new(
        spec.bias.clone(),
        spec.area.clone(),
        spec.edges.clone(),
        spec.planes,
    )
    .map_err(|e| e.to_string())?;
    let references = (0..VARIANTS)
        .map(|variant| {
            let options = options_for(seed, JobKind::Repeat { variant }, 0);
            Solver::new(options)
                .try_solve(&problem)
                .map(|r| r.partition.labels().to_vec())
                .map_err(|e| format!("reference solve: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Oracle {
        problem,
        references,
    })
}

/// A submitted job awaiting its terminal frame.
struct Pending {
    index: u64,
    kind: JobKind,
    sent_ns: u64,
    send_end_ns: u64,
    accepted_ns: Option<u64>,
}

/// Terminal counts as the client saw them, for the ledger cross-check.
#[derive(Debug, Default)]
struct Seen {
    done: u64,
    cached: u64,
    cancelled: u64,
    deadline_exceeded: u64,
    failed: u64,
    rejected: u64,
}

/// Checks one terminal frame against what its job kind must end in, and
/// for a `done` the partition it carries. Returns the partition's
/// [`quality`] for a valid `done`.
fn check_terminal(
    oracle: &Oracle,
    job: &Pending,
    frame: &Response,
) -> Result<Option<[f64; 3]>, String> {
    let expected = match job.kind {
        JobKind::Repeat { .. } | JobKind::Unique => "done",
        JobKind::Cancel => "cancelled",
        JobKind::ZeroDeadline => "deadline_exceeded",
        JobKind::Panic | JobKind::Poison => "failed",
    };
    match (expected, frame) {
        ("done", Response::Done { labels, .. }) => {
            if let JobKind::Repeat { variant } = job.kind {
                let reference = oracle.references.get(variant as usize);
                if reference != Some(labels) {
                    return Err("differs from the direct in-process solve".to_string());
                }
            }
            let partition = Partition::from_labels(labels.clone(), PLANES)
                .map_err(|e| format!("invalid partition: {e}"))?;
            if partition.num_gates() != oracle.problem.num_gates() {
                return Err("partition has the wrong gate count".to_string());
            }
            RecyclingPlan::build(&oracle.problem, &partition, &RecycleOptions::default())
                .map_err(|e| format!("RecyclingPlan::build: {e}"))?;
            Ok(Some(quality(&PartitionMetrics::evaluate(
                &oracle.problem,
                &partition,
            ))))
        }
        ("cancelled", Response::Cancelled { .. })
        | ("deadline_exceeded", Response::DeadlineExceeded { .. })
        | ("failed", Response::Failed { .. }) => Ok(None),
        _ => Err(format!("expected `{expected}`, got {}", frame.to_line())),
    }
}

/// Client terminal counts against the daemon's `stats` delta; every row
/// must match exactly, and the daemon's own books must balance.
fn ledger_mismatches(seen: &Seen, before: &StatsSnapshot, after: &StatsSnapshot) -> Vec<String> {
    let delta = |b: u64, a: u64| a.saturating_sub(b);
    let settled = seen.done + seen.cancelled + seen.deadline_exceeded + seen.failed;
    let rows = [
        (
            "settled",
            settled,
            after.settled().saturating_sub(before.settled()),
        ),
        (
            "submitted",
            settled,
            delta(before.submitted, after.submitted),
        ),
        ("done", seen.done, delta(before.done, after.done)),
        (
            "cache_hits",
            seen.cached,
            delta(before.cache_hits, after.cache_hits),
        ),
        (
            "cancelled",
            seen.cancelled,
            delta(before.cancelled, after.cancelled),
        ),
        (
            "deadline_exceeded",
            seen.deadline_exceeded,
            delta(before.deadline_exceeded, after.deadline_exceeded),
        ),
        ("failed", seen.failed, delta(before.failed, after.failed)),
        (
            "rejected",
            seen.rejected,
            delta(before.rejected, after.rejected),
        ),
    ];
    let mut out: Vec<String> = rows
        .iter()
        .filter(|(_, client, service)| client != service)
        .map(|(label, client, service)| {
            format!("{label}: client saw {client}, stats delta {service}")
        })
        .collect();
    out.extend(after.accounting_violation());
    out
}

/// Silences the default panic report for the mix's deliberate worker
/// panics; every other panic still prints.
fn quiet_chaos_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let chaos = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("chaos: panic_in_worker"));
        if !chaos {
            default_hook(info);
        }
    }));
}

/// Runs `service_mixed` for `cfg.seconds` and reports its metrics.
///
/// # Errors
///
/// Set-up failures (bind, connect, reference solves, stats frames).
#[allow(clippy::too_many_lines)]
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    quiet_chaos_panics();
    let (mut setup, mut setup_times) = SetupTimes::first(set_up)?;
    // Untimed: the first stats frame waits on a new thread's wake-up, whose
    // latency swings between runs far more than set-up itself does.
    let before = fetch_stats(&mut setup.client)?;
    let oracle = oracle(&setup.spec, cfg.seed)?;
    // A run submits at least this many jobs, however short.
    let min_jobs: u64 = if cfg.quick { 20 } else { 100 };
    let budget_ns = (cfg.seconds * 1e9) as u64;

    let mut tracer = Tracer::new();
    let mut pending: BTreeMap<String, Pending> = BTreeMap::new();
    let mut seen = Seen::default();
    // (traced, milliseconds) per settled job.
    let mut latencies: Vec<(bool, f64)> = Vec::new();
    // Quality counts each distinct result once: every unique job, and the
    // first `done` of each repeat variant (the rest are cache copies).
    let mut quality: Vec<[f64; 3]> = Vec::new();
    let mut variants_seen = BTreeSet::new();
    let (mut failed, mut next) = (0u64, 0u64);
    let mut last_progress = 0u64;
    let mut connection_lost = false;
    let start_ns = tracer.now();
    loop {
        let now = tracer.now();
        let submitting = !connection_lost && (next < min_jobs || now - start_ns < budget_ns);
        while submitting && pending.len() < WINDOW {
            let kind = job_kind(cfg.seed, next);
            let request = request_for(&setup.spec, cfg.seed, kind, next);
            let id = format!("j{next}");
            let sent_ns = tracer.now();
            let alive = setup.client.send(&request);
            let send_end_ns = tracer.now();
            if kind == JobKind::Cancel {
                setup.client.send(&Request::Cancel { id: id.clone() });
            }
            pending.insert(
                id,
                Pending {
                    index: next,
                    kind,
                    sent_ns,
                    send_end_ns,
                    accepted_ns: None,
                },
            );
            next += 1;
            if !alive {
                connection_lost = true;
                break;
            }
        }
        if pending.is_empty() && !submitting {
            break;
        }
        match setup.client.read() {
            ClientRead::Frame(Response::Accepted { id }) => {
                if let Some(job) = pending.get_mut(&id) {
                    job.accepted_ns = Some(tracer.now());
                }
            }
            ClientRead::Frame(frame) if frame.is_terminal() => {
                let Some(job) = frame.id().and_then(|id| pending.remove(id)) else {
                    failed += 1;
                    eprintln!(
                        "service_mixed: terminal frame for no pending job: {}",
                        frame.to_line()
                    );
                    continue;
                };
                let end_ns = tracer.now();
                last_progress = end_ns;
                match &frame {
                    Response::Done { cached, .. } => {
                        seen.done += 1;
                        seen.cached += u64::from(*cached);
                    }
                    Response::Cancelled { .. } => seen.cancelled += 1,
                    Response::DeadlineExceeded { .. } => seen.deadline_exceeded += 1,
                    Response::Failed { .. } => seen.failed += 1,
                    _ => seen.rejected += 1,
                }
                match check_terminal(&oracle, &job, &frame) {
                    Ok(Some(q)) => {
                        let distinct = match job.kind {
                            JobKind::Repeat { variant } => variants_seen.insert(variant),
                            _ => true,
                        };
                        if distinct {
                            quality.push(q);
                        }
                    }
                    Ok(_) => {}
                    Err(e) => {
                        failed += 1;
                        eprintln!("service_mixed: job {} ({:?}): {e}", job.index, job.kind);
                    }
                }
                let traced = cfg.trace && job.index % 2 == 1;
                latencies.push((traced, ms(end_ns - job.sent_ns)));
                if traced {
                    let op = job.index;
                    let root = tracer.record("job", None, op, job.sent_ns, end_ns);
                    tracer.record(
                        "serviced.send",
                        Some(root),
                        op,
                        job.sent_ns,
                        job.send_end_ns,
                    );
                    if let Some(accepted) = job.accepted_ns {
                        tracer.record("serviced.accept", Some(root), op, job.sent_ns, accepted);
                    }
                }
                setup_times.between_ops(set_up)?;
            }
            ClientRead::Frame(Response::Error { message }) => {
                failed += 1;
                eprintln!("service_mixed: error frame: {message}");
            }
            ClientRead::Frame(_) => {}
            ClientRead::Timeout => {
                if tracer.now().saturating_sub(last_progress.max(start_ns)) > STALL_NS {
                    eprintln!("service_mixed: no terminal frame for 30 s; abandoning the run");
                    connection_lost = true;
                }
            }
            ClientRead::Eof => connection_lost = true,
        }
        if connection_lost {
            failed += pending.len() as u64;
            pending.clear();
        }
    }
    let wall_s = (last_progress.max(start_ns) - start_ns) as f64 / 1e9;
    let attempted = next;

    let after = fetch_stats(&mut setup.client);
    let mismatches = match &after {
        Ok(after) => ledger_mismatches(&seen, &before, after),
        Err(e) => vec![e.clone()],
    };
    for m in &mismatches {
        eprintln!("service_mixed: ledger mismatch: {m}");
    }
    let Setup { client, daemon, .. } = setup;
    drop(client);
    if connection_lost {
        // A daemon that stopped answering may never drain; the process
        // exit ends its threads instead.
        std::mem::forget(daemon);
    } else {
        drop(daemon);
    }
    let correct = failed == 0 && mismatches.is_empty() && !connection_lost;

    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        metrics.insert(name.to_string(), value);
    };
    let mut all: Vec<f64> = latencies.iter().map(|l| l.1).collect();
    all.sort_by(f64::total_cmp);
    let p50 = median(&all).unwrap_or(0.0);
    let tail = |sorted: &[f64], q: f64| tail_or_median(sorted, q).map_or(0.0, |t| t.0);
    if cfg.trace {
        for (name, _) in PER_LAYER {
            put(name, 0.0);
        }
        let mut accept: Vec<f64> = tracer
            .durations("serviced.accept")
            .into_iter()
            .map(ms)
            .collect();
        accept.sort_by(f64::total_cmp);
        let sends = tracer.durations("serviced.send");
        put(
            "serviced.send_us",
            mean(sends.iter().map(|&ns| ns as f64 / 1e3)),
        );
        put("serviced.accept_ms_p50", median(&accept).unwrap_or(0.0));
        put("serviced.accept_ms_p99", tail(&accept, 0.99));
        if let Ok(after) = &after {
            let hist_ms = |h: &sfq_partition::telemetry::LogHistogram, q: f64| ms(h.percentile(q));
            let queue = after.queue_wait_ns.diff(&before.queue_wait_ns);
            let solve = after.solve_ns.diff(&before.solve_ns);
            let total = after.total_ns.diff(&before.total_ns);
            put("serviced.queue_wait_ms_p50", hist_ms(&queue, 0.5));
            put("serviced.queue_wait_ms_p99", hist_ms(&queue, 0.99));
            put("serviced.solve_ms_p50", hist_ms(&solve, 0.5));
            put("serviced.solve_ms_p99", hist_ms(&solve, 0.99));
            put("serviced.total_ms_p50", hist_ms(&total, 0.5));
            put("serviced.total_ms_p99", hist_ms(&total, 0.99));
            put("serviced.unattributed_ms_p50", p50 - hist_ms(&total, 0.5));
            let hits = after.cache_hits.saturating_sub(before.cache_hits) as f64;
            let misses = after.cache_misses.saturating_sub(before.cache_misses) as f64;
            put(
                "serviced.cache_hit_ratio",
                if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                },
            );
            put(
                "serviced.retries",
                after.retries.saturating_sub(before.retries) as f64,
            );
            put(
                "serviced.panics",
                after.panics.saturating_sub(before.panics) as f64,
            );
            put(
                "serviced.rejected",
                after.rejected.saturating_sub(before.rejected) as f64,
            );
            put("serviced.queue_depth_hw", after.queue_depth_hw as f64);
        }
        let of = |traced: bool| {
            let times: Vec<f64> = latencies
                .iter()
                .filter(|l| l.0 == traced)
                .map(|l| l.1)
                .collect();
            median(&times)
        };
        if let (Some(t), Some(u)) = (of(true), of(false)) {
            put("trace.overhead_pct", 100.0 * (t / u - 1.0));
        }
        let path = crate::span_path(&cfg.workload, cfg.seed);
        tracer
            .write_jsonl(&path, &cfg.workload)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "service_mixed: wrote {} spans to {}",
            tracer.spans().len(),
            path.display()
        );
    } else {
        eprintln!(
            "service_mixed: {} jobs in {wall_s:.2} s ({:.1}/s); p50 {p50:.3} ms; p95 {:.3} ms; \
             p99 {:.3} ms; {} worker threads on {} CPUs",
            all.len(),
            all.len() as f64 / wall_s.max(1e-9),
            tail(&all, 0.95),
            tail(&all, 0.99),
            DaemonConfig::default().workers,
            std::thread::available_parallelism().map_or(0, usize::from),
        );
        put("flow_p50_ms", p50);
        // p95, not p99: about 1% of jobs wait out two delayed ACKs (≈88 ms),
        // so p99 sits on that step and flips between ≈60 and ≈88 ms from
        // run to run. p99 is printed above.
        put(
            "flow_tail_ms",
            tail_quantile(&cfg.workload).map_or(p50, |q| tail(&all, q)),
        );
        for (name, value) in mean_quality(&quality) {
            put(name, value);
        }
        put("setup_s", setup_times.median_s());
        put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    }
    Ok(RunResult {
        workload: cfg.workload.clone(),
        seed: cfg.seed,
        trace: cfg.trace,
        correct,
        attempted,
        failed,
        metrics,
    })
}

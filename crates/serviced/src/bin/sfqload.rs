//! `sfqload` — the service load generator and observability bench
//! (BENCH_4).
//!
//! ```text
//! sfqload [--addr HOST:PORT] [--jobs N] [--inflight N] [--seed N]
//!         [--out PATH]
//! sfqload --gate 1 [--jobs N] [--seed N]
//! ```
//!
//! Drives a deterministic seeded mix of traffic at an `sfqpartd` — a
//! running one via `--addr`, or an in-process one — with a bounded
//! submission window: ~60% healthy jobs drawn from four repeating
//! variants (so the result cache sees both misses and hits), plus ~10%
//! each of cancelled-after-submit, zero-deadline-doomed,
//! panic-in-worker, and NaN-poisoned (divergent, retried once) jobs.
//! It records client-observed submit→terminal latency per job and
//! throughput, fetches the daemon's `stats` frame before and after the
//! run, and writes `BENCH_4.json` with both views: exact client
//! percentiles and the service's per-phase (queue-wait / solve / total)
//! histogram-delta percentiles.
//!
//! The run then **cross-checks the books**: the client's terminal
//! counts must equal the daemon's stats-ledger delta exactly — counting
//! observability, not sampling, is what makes that equality testable.
//! The check assumes `sfqload` is the daemon's only client for the
//! duration of the run. Any mismatch exits 1.
//!
//! `--gate 1` instead runs the **overhead gate**: alternating rounds of
//! identical healthy-only load against two in-process daemons — ops
//! registry enabled vs disabled — and asserts the registry costs ≤ 1%
//! wall time. Noise discipline follows the perfsnap_observer bench: the gate
//! metric is the *minimum* of the median per-round ratio and the
//! ratio-of-minimums, so a single noisy round cannot fail the gate.
//!
//! Exit codes: 0 success, 1 ledger mismatch or failed gate, 2 usage.

use std::collections::HashMap;
use std::time::Duration;

use sfq_partition::budget::Stopwatch;
use sfq_partition::telemetry::LogHistogram;
use sfq_partition::{FaultInjection, SolverOptions};
use sfq_report::service::{counters_table, format_ns, latency_table};
use sfq_serviced::client::ClientRead;
use sfq_serviced::protocol::{ProblemSpec, Request, Response, SolveRequest};
use sfq_serviced::{Client, Daemon, DaemonConfig, StatsSnapshot};

const USAGE: &str = "\
usage: sfqload [--addr HOST:PORT] [--jobs N] [--inflight N] [--seed N] [--out PATH]
       sfqload --gate 1 [--jobs N] [--seed N]

Drive a deterministic mixed-traffic load at an sfqpartd, write BENCH_4.json,
and cross-check client terminal counts against the daemon's stats ledger.
--gate runs the ops-registry overhead gate (enabled vs disabled A/B) instead.";

fn main() {
    std::process::exit(run());
}

// ---------------------------------------------------------------------------
// The deterministic job mix
// ---------------------------------------------------------------------------

/// `splitmix64`: the standard 64-bit finalizer-style generator; one draw
/// per job index keeps the mix reproducible for a given `--seed`.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    /// Solvable; `variant` selects one of four solver seeds, so repeats
    /// within a variant are cache hits.
    Healthy { variant: u64 },
    /// Non-converging blocker, cancelled immediately after submission.
    Cancelled,
    /// Admitted with `deadline_ms: 0` — doomed before it reaches a worker.
    DeadlineDoomed,
    /// Panics in the worker; the pool self-heals, the job fails typed.
    Panic,
    /// NaN-poisoned from the first cost call: diverges, retries once on a
    /// perturbed seed, diverges again, fails typed.
    Poisoned,
}

fn kind_for(seed: u64, index: u64, healthy_only: bool) -> JobKind {
    let h = splitmix64(seed ^ splitmix64(index));
    if healthy_only || h % 10 < 6 {
        JobKind::Healthy {
            variant: (h / 10) % 4,
        }
    } else {
        match h % 10 {
            6 => JobKind::Cancelled,
            7 => JobKind::DeadlineDoomed,
            8 => JobKind::Panic,
            _ => JobKind::Poisoned,
        }
    }
}

/// The shared problem instance: a 64-gate ring, the same shape the chaos
/// suite uses — big enough that a solve takes real iterations, small
/// enough that a few hundred jobs finish in seconds.
fn load_problem() -> ProblemSpec {
    let n: u32 = 64;
    ProblemSpec {
        bias: (0..n).map(|i| 0.3 + 0.015 * f64::from(i % 8)).collect(),
        area: (0..n).map(|i| 5.0 + f64::from(i % 4)).collect(),
        edges: (0..n).map(|i| (i, (i + 1) % n)).collect(),
        planes: 4,
    }
}

fn request_for(id: &str, kind: JobKind) -> Request {
    let mut req = SolveRequest {
        id: id.to_string(),
        problem: load_problem(),
        options: SolverOptions {
            restarts: 2,
            ..SolverOptions::default()
        },
        deadline_ms: None,
        progress_every: None,
        panic_in_worker: false,
    };
    match kind {
        JobKind::Healthy { variant } => req.options.seed = 100 + variant,
        JobKind::Cancelled => {
            // Provably non-terminating on its own: a negative margin is
            // never reached, so only the cancel ends it.
            req.options.margin = -1.0;
            req.options.max_iterations = 50_000_000;
        }
        JobKind::DeadlineDoomed => req.deadline_ms = Some(0),
        JobKind::Panic => req.panic_in_worker = true,
        JobKind::Poisoned => {
            req.options.fault_injection = Some(FaultInjection {
                poison_from: Some(0),
                ..FaultInjection::default()
            });
        }
    }
    Request::Solve(Box::new(req))
}

// ---------------------------------------------------------------------------
// The load loop
// ---------------------------------------------------------------------------

/// Client-observed outcome of one load run.
#[derive(Debug, Default)]
struct LoadOutcome {
    done: u64,
    cached: u64,
    cancelled: u64,
    deadline_exceeded: u64,
    failed: u64,
    rejected: u64,
    /// Submit→terminal latency of every settled (admitted) job, ns.
    total_ns: Vec<u64>,
    wall_s: f64,
}

impl LoadOutcome {
    fn settled(&self) -> u64 {
        self.done + self.cancelled + self.deadline_exceeded + self.failed
    }
}

/// Exact client-side percentile (nearest-rank) over recorded latencies.
fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    // The clamp makes rank-1 in-bounds for every q (including NaN, which
    // casts to 0); checked access keeps this panic-free by construction.
    sorted.get(rank - 1).copied().unwrap_or(0)
}

/// Runs `jobs` jobs through `client` with at most `inflight` outstanding,
/// all submitted on one connection, single-threaded (lint rule D3: no
/// threads outside the daemon). Returns the client-observed outcome.
fn run_load(
    client: &mut Client,
    jobs: u64,
    inflight: usize,
    seed: u64,
    healthy_only: bool,
) -> LoadOutcome {
    let mut outcome = LoadOutcome::default();
    let mut pending: HashMap<String, Stopwatch> = HashMap::new();
    let mut next = 0u64;
    let wall = Stopwatch::start();
    let mut finished = 0u64;
    while finished < jobs {
        while pending.len() < inflight && next < jobs {
            let id = format!("load-{next}");
            let kind = kind_for(seed, next, healthy_only);
            pending.insert(id.clone(), Stopwatch::start());
            client.send(&request_for(&id, kind));
            if kind == JobKind::Cancelled {
                client.send(&Request::Cancel { id });
            }
            next += 1;
        }
        match client.read() {
            ClientRead::Eof => break,
            ClientRead::Timeout => {}
            ClientRead::Frame(frame) => {
                if !frame.is_terminal() {
                    continue;
                }
                let Some(id) = frame.id().map(str::to_string) else {
                    continue;
                };
                let Some(watch) = pending.remove(&id) else {
                    continue;
                };
                finished += 1;
                match &frame {
                    Response::Done { cached, .. } => {
                        outcome.done += 1;
                        if *cached {
                            outcome.cached += 1;
                        }
                    }
                    Response::Cancelled { .. } => outcome.cancelled += 1,
                    Response::DeadlineExceeded { .. } => outcome.deadline_exceeded += 1,
                    Response::Failed { .. } => outcome.failed += 1,
                    Response::Rejected { .. } => outcome.rejected += 1,
                    _ => {}
                }
                if !matches!(frame, Response::Rejected { .. }) {
                    outcome.total_ns.push(watch.elapsed_ns());
                }
            }
        }
    }
    #[allow(clippy::cast_precision_loss)]
    {
        outcome.wall_s = wall.elapsed_ns() as f64 / 1e9;
    }
    outcome.total_ns.sort_unstable();
    outcome
}

/// Fetches one `stats` frame, skipping any interleaved frames.
fn fetch_stats(client: &mut Client) -> Option<StatsSnapshot> {
    client.send(&Request::Stats);
    for _ in 0..100 {
        match client.read() {
            ClientRead::Frame(Response::Stats(stats)) => return Some(*stats),
            ClientRead::Frame(_) | ClientRead::Timeout => {}
            ClientRead::Eof => return None,
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Ledger cross-check and report
// ---------------------------------------------------------------------------

/// Client terminal counts vs the daemon ledger delta. Every row must
/// match exactly — the registry counts, it does not sample.
fn ledger_mismatches(
    outcome: &LoadOutcome,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
) -> Vec<String> {
    let delta = |b: u64, a: u64| a.saturating_sub(b);
    let rows = [
        (
            "submitted",
            outcome.settled(),
            delta(before.submitted, after.submitted),
        ),
        ("done", outcome.done, delta(before.done, after.done)),
        (
            "cancelled",
            outcome.cancelled,
            delta(before.cancelled, after.cancelled),
        ),
        (
            "deadline_exceeded",
            outcome.deadline_exceeded,
            delta(before.deadline_exceeded, after.deadline_exceeded),
        ),
        ("failed", outcome.failed, delta(before.failed, after.failed)),
        (
            "rejected",
            outcome.rejected,
            delta(before.rejected, after.rejected),
        ),
        (
            "cache_hits",
            outcome.cached,
            delta(before.cache_hits, after.cache_hits),
        ),
    ];
    rows.iter()
        .filter(|&&(_, client, service)| client != service)
        .map(|&(label, client, service)| {
            format!("{label}: client observed {client}, service ledger delta {service}")
        })
        .collect()
}

fn percentile_json(label: &str, hist: &LogHistogram) -> String {
    format!(
        "\"{label}\": {{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
        hist.count(),
        hist.percentile(0.50),
        hist.percentile(0.95),
        hist.percentile(0.99)
    )
}

/// Identity of one bench campaign: where it ran and what was asked for.
struct BenchRun<'a> {
    path: &'a str,
    addr: &'a str,
    jobs: u64,
    inflight: usize,
    seed: u64,
}

#[allow(clippy::too_many_lines)]
fn write_bench(
    run: &BenchRun<'_>,
    outcome: &LoadOutcome,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    ledger_match: bool,
) {
    let BenchRun {
        path,
        addr,
        jobs,
        inflight,
        seed,
    } = *run;
    use std::fmt::Write;
    let queue_wait = after.queue_wait_ns.diff(&before.queue_wait_ns);
    let solve = after.solve_ns.diff(&before.solve_ns);
    let total = after.total_ns.diff(&before.total_ns);
    #[allow(clippy::cast_precision_loss)]
    let throughput = outcome.settled() as f64 / outcome.wall_s.max(1e-9);
    let mut json = String::from("{\n  \"suite\": \"sfqload\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"jobs\": {jobs}, \"inflight\": {inflight}, \"seed\": {seed}, \
         \"addr\": \"{addr}\", \"mix\": \"60% healthy (4 cache variants), 10% each \
         cancelled / zero-deadline / panic / poisoned\"}},"
    );
    let _ = writeln!(json, "  \"wall_s\": {:.6},", outcome.wall_s);
    let _ = writeln!(json, "  \"throughput_jobs_per_s\": {throughput:.3},");
    let _ = writeln!(
        json,
        "  \"client\": {{\"done\": {}, \"cached\": {}, \"cancelled\": {}, \
         \"deadline_exceeded\": {}, \"failed\": {}, \"rejected\": {}, \
         \"total_ns\": {{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}}},",
        outcome.done,
        outcome.cached,
        outcome.cancelled,
        outcome.deadline_exceeded,
        outcome.failed,
        outcome.rejected,
        outcome.total_ns.len(),
        exact_percentile(&outcome.total_ns, 0.50),
        exact_percentile(&outcome.total_ns, 0.95),
        exact_percentile(&outcome.total_ns, 0.99),
    );
    let _ = writeln!(
        json,
        "  \"service\": {{\"submitted\": {}, \"done\": {}, \"cache_hits\": {}, \
         \"cache_misses\": {}, \"cancelled\": {}, \"deadline_exceeded\": {}, \
         \"rejected\": {}, \"failed\": {}, \"retries\": {}, \"panics\": {}, \
         \"queue_depth_hw\": {}, \"running_hw\": {}, \"slots_hw\": {},\n    {},\n    {},\n    {}}},",
        after.submitted - before.submitted,
        after.done - before.done,
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
        after.cancelled - before.cancelled,
        after.deadline_exceeded - before.deadline_exceeded,
        after.rejected - before.rejected,
        after.failed - before.failed,
        after.retries - before.retries,
        after.panics - before.panics,
        after.queue_depth_hw,
        after.running_hw,
        after.slots_hw,
        percentile_json("queue_wait_ns", &queue_wait),
        percentile_json("solve_ns", &solve),
        percentile_json("total_ns", &total),
    );
    let _ = writeln!(json, "  \"ledger_match\": {ledger_match}");
    json.push_str("}\n");
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("sfqload: write {path} failed: {e}"),
    }
    print!("{json}");
}

// ---------------------------------------------------------------------------
// The overhead gate
// ---------------------------------------------------------------------------

/// One gate round: boots an in-process daemon with the registry enabled
/// or disabled, runs an identical healthy-only load, returns wall
/// seconds.
fn gate_round(enabled: bool, jobs: u64, seed: u64) -> Option<f64> {
    let daemon = match Daemon::start(DaemonConfig {
        ops_enabled: enabled,
        ..DaemonConfig::default()
    }) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("sfqload: bind failed: {e}");
            return None;
        }
    };
    let mut client = match Client::connect(daemon.addr(), Some(Duration::from_millis(20))) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("sfqload: connect failed: {e}");
            return None;
        }
    };
    let outcome = run_load(&mut client, jobs, 8, seed, true);
    drop(client);
    daemon.drain();
    (outcome.settled() == jobs).then_some(outcome.wall_s)
}

fn median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted.get(mid).copied().unwrap_or(0.0)
    } else {
        // Checked access also covers the empty slice, where `mid - 1`
        // would underflow and the old indexing panicked.
        match (sorted.get(mid.wrapping_sub(1)), sorted.get(mid)) {
            (Some(a), Some(b)) => (a + b) / 2.0,
            _ => 0.0,
        }
    }
}

/// A/B overhead gate: the ops registry must add ≤ `GATE_LIMIT` to the
/// wall time of an identical load. Alternates disabled/enabled rounds and
/// takes the minimum of two noise-robust estimators, so one scheduler
/// hiccup cannot produce a false failure.
fn gate(jobs: u64, seed: u64) -> i32 {
    const ROUNDS: usize = 5;
    const GATE_LIMIT: f64 = 1.01;
    let mut ratios = Vec::new();
    let mut enabled_walls = Vec::new();
    let mut disabled_walls = Vec::new();
    for round in 0..ROUNDS {
        let round_seed = seed.wrapping_add(round as u64);
        let Some(disabled) = gate_round(false, jobs, round_seed) else {
            return 1;
        };
        let Some(enabled) = gate_round(true, jobs, round_seed) else {
            return 1;
        };
        eprintln!(
            "gate round {round}: disabled {disabled:.4}s, enabled {enabled:.4}s, ratio {:.4}",
            enabled / disabled
        );
        ratios.push(enabled / disabled);
        enabled_walls.push(enabled);
        disabled_walls.push(disabled);
    }
    ratios.sort_unstable_by(f64::total_cmp);
    let median_ratio = median(&ratios);
    let min_ratio = enabled_walls.iter().copied().fold(f64::INFINITY, f64::min)
        / disabled_walls.iter().copied().fold(f64::INFINITY, f64::min);
    let metric = median_ratio.min(min_ratio);
    println!(
        "overhead gate: median ratio {median_ratio:.4}, ratio of minimums {min_ratio:.4}, \
         metric {metric:.4} (limit {GATE_LIMIT})"
    );
    if metric <= GATE_LIMIT {
        println!("overhead gate: PASS — ops registry within {GATE_LIMIT}x");
        0
    } else {
        println!("overhead gate: FAIL — ops registry exceeds {GATE_LIMIT}x");
        1
    }
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

fn parse_flags<'a>(args: &'a [String], allowed: &[&str]) -> Option<Vec<(&'a str, &'a str)>> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("missing value for `{flag}`\n{USAGE}");
            return None;
        };
        if !allowed.contains(&flag.as_str()) {
            eprintln!("unknown flag `{flag}`\n{USAGE}");
            return None;
        }
        out.push((flag.as_str(), value.as_str()));
    }
    Some(out)
}

#[allow(clippy::too_many_lines)]
fn run() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(flags) = parse_flags(
        &args,
        &[
            "--addr",
            "--jobs",
            "--inflight",
            "--seed",
            "--out",
            "--gate",
        ],
    ) else {
        return 2;
    };
    let mut addr_flag = None;
    let mut jobs = 200u64;
    let mut inflight = 8usize;
    let mut seed = 2020u64;
    let mut out = "BENCH_4.json".to_string();
    let mut gate_mode = false;
    for (flag, value) in flags {
        match flag {
            "--addr" => addr_flag = Some(value.to_string()),
            "--jobs" => match value.parse() {
                Ok(n) => jobs = n,
                Err(_) => {
                    eprintln!("`--jobs` wants a count, got `{value}`");
                    return 2;
                }
            },
            "--inflight" => match value.parse() {
                Ok(n) if n > 0 => inflight = n,
                _ => {
                    eprintln!("`--inflight` wants a positive count, got `{value}`");
                    return 2;
                }
            },
            "--seed" => match value.parse() {
                Ok(n) => seed = n,
                Err(_) => {
                    eprintln!("`--seed` wants an integer, got `{value}`");
                    return 2;
                }
            },
            "--out" => out = value.to_string(),
            "--gate" => gate_mode = value != "0",
            _ => unreachable!("parse_flags filtered"),
        }
    }
    if gate_mode {
        // The gate drives its own in-process daemon pairs.
        return gate(jobs.min(120), seed);
    }

    // With no --addr, load an in-process daemon on an ephemeral port.
    let local = if addr_flag.is_none() {
        match Daemon::start(DaemonConfig::default()) {
            Ok(daemon) => Some(daemon),
            Err(e) => {
                eprintln!("sfqload: bind failed: {e}");
                return 1;
            }
        }
    } else {
        None
    };
    let addr = match (&local, &addr_flag) {
        (Some(daemon), _) => daemon.addr(),
        (None, Some(value)) => match value.parse() {
            Ok(addr) => addr,
            Err(e) => {
                eprintln!("bad --addr `{value}`: {e}");
                return 2;
            }
        },
        (None, None) => unreachable!("local daemon covers the no-flag case"),
    };
    let mut client = match Client::connect(addr, Some(Duration::from_millis(20))) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("sfqload: connect to {addr} failed: {e}");
            return 1;
        }
    };
    println!("loading sfqpartd at {addr}: {jobs} jobs, window {inflight}, seed {seed}");

    let Some(before) = fetch_stats(&mut client) else {
        eprintln!("sfqload: no stats frame before load");
        return 1;
    };
    let outcome = run_load(&mut client, jobs, inflight, seed, false);
    let Some(after) = fetch_stats(&mut client) else {
        eprintln!("sfqload: no stats frame after load");
        return 1;
    };

    println!(
        "settled {} of {jobs} in {:.2}s ({:.1} jobs/s); client p50 {} p95 {} p99 {}",
        outcome.settled(),
        outcome.wall_s,
        f64::from(u32::try_from(outcome.settled()).unwrap_or(u32::MAX)) / outcome.wall_s.max(1e-9),
        format_ns(exact_percentile(&outcome.total_ns, 0.50)),
        format_ns(exact_percentile(&outcome.total_ns, 0.95)),
        format_ns(exact_percentile(&outcome.total_ns, 0.99)),
    );
    print!(
        "{}",
        counters_table(&[
            ("done", outcome.done),
            ("cached", outcome.cached),
            ("cancelled", outcome.cancelled),
            ("deadline_exceeded", outcome.deadline_exceeded),
            ("failed", outcome.failed),
            ("rejected", outcome.rejected),
        ])
    );
    println!("service per-phase latency (ledger delta):");
    print!(
        "{}",
        latency_table(&[
            (
                "queue_wait",
                &after.queue_wait_ns.diff(&before.queue_wait_ns)
            ),
            ("solve", &after.solve_ns.diff(&before.solve_ns)),
            ("total", &after.total_ns.diff(&before.total_ns)),
        ])
    );

    let mismatches = ledger_mismatches(&outcome, &before, &after);
    let ledger_match = mismatches.is_empty();
    write_bench(
        &BenchRun {
            path: &out,
            addr: &addr.to_string(),
            jobs,
            inflight,
            seed,
        },
        &outcome,
        &before,
        &after,
        ledger_match,
    );
    drop(client);
    if let Some(daemon) = local {
        daemon.drain();
    }
    if ledger_match {
        println!("ledger cross-check: client terminal counts match the service ledger");
        0
    } else {
        for m in &mismatches {
            eprintln!("sfqload: ledger mismatch — {m}");
        }
        1
    }
}

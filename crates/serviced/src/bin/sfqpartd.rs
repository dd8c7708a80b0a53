//! `sfqpartd` — the partitioning service daemon and its self-test driver.
//!
//! ```text
//! sfqpartd serve [--addr HOST:PORT] [--workers N] [--slots N]
//!                [--queue N] [--cache N]
//!                [--ops-log PATH] [--ops-every MS]
//! sfqpartd drive [--addr HOST:PORT]
//! sfqpartd stats [--addr HOST:PORT]
//! ```
//!
//! `serve` runs the daemon until SIGTERM/SIGINT (or a `drain` frame),
//! then drains gracefully — every admitted job reaches its terminal state
//! — and prints the final ledger; `--ops-log` additionally appends a
//! `stats` JSONL snapshot every `--ops-every` milliseconds. `drive`
//! throws a concurrent job mix at a daemon (a running one via `--addr`,
//! or an in-process one) including a cancelled job and a deadline-storm
//! job, and asserts the service invariants end to end: exactly one
//! terminal frame per job, expected terminal kinds, bit-identical results
//! between repeated healthy jobs and a direct in-process solve, and a
//! balanced terminal ledger in the daemon's own `stats` frame. `stats`
//! asks a running daemon for one snapshot and renders it.
//!
//! Exit codes: 0 success, 1 invariant violation (drive), 2 usage.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use sfq_partition::{Solver, SolverOptions};
use sfq_report::service::{counters_table, format_ns, latency_table};
use sfq_serviced::client::ClientRead;
use sfq_serviced::protocol::{ProblemSpec, Request, Response, SolveRequest};
use sfq_serviced::{Client, Daemon, DaemonConfig, StatsSnapshot};

/// Set by the signal handler; the serve loop polls it.
static TERM: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_term(_sig: i32) {
    // The only async-signal-safe thing worth doing: raise the flag.
    TERM.store(true, Ordering::SeqCst);
}

fn install_term_handler() {
    extern "C" {
        // Hand-declared to keep the tree dependency-free; the daemon needs
        // exactly one libc entry point. `signal` returns the previous
        // handler, which we discard.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // The handler only stores to an atomic (async-signal-safe) and the
    // returned previous handler is intentionally discarded.
    // SAFETY: `signal(2)` is called with a valid signal number and handler.
    unsafe {
        signal(SIGTERM, on_term);
        signal(SIGINT, on_term);
    }
}

fn main() {
    std::process::exit(run());
}

const USAGE: &str = "\
usage: sfqpartd serve [--addr HOST:PORT] [--workers N] [--slots N] [--queue N] [--cache N]
                      [--ops-log PATH] [--ops-every MS]
       sfqpartd drive [--addr HOST:PORT]
       sfqpartd stats [--addr HOST:PORT]

serve   run the daemon until SIGTERM, then drain gracefully
drive   run the self-test job mix against a daemon and verify invariants
stats   fetch and render one ops snapshot from a running daemon";

fn run() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("drive") => drive(&args[1..]),
        Some("stats") => stats_cmd(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    }
}

/// Reads `--flag value` pairs; returns `None` (after printing usage) on
/// anything unrecognized.
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

fn parse_count(flag: &str, value: &str) -> Option<usize> {
    match value.parse() {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("`{flag}` wants a non-negative integer, got `{value}`");
            None
        }
    }
}

fn serve(args: &[String]) -> i32 {
    let Some(flags) = parse_flags(
        args,
        &[
            "--addr",
            "--workers",
            "--slots",
            "--queue",
            "--cache",
            "--ops-log",
            "--ops-every",
        ],
    ) else {
        return 2;
    };
    let mut config = DaemonConfig {
        addr: "127.0.0.1:7199".to_string(),
        ..DaemonConfig::default()
    };
    for (flag, value) in flags {
        match flag {
            "--addr" => config.addr = value.to_string(),
            "--workers" => match parse_count(flag, value) {
                Some(n) => config.workers = n,
                None => return 2,
            },
            "--slots" => match parse_count(flag, value) {
                Some(n) => config.slots = n,
                None => return 2,
            },
            "--queue" => match parse_count(flag, value) {
                Some(n) => config.queue_capacity = n,
                None => return 2,
            },
            "--cache" => match parse_count(flag, value) {
                Some(n) => config.cache_capacity = n,
                None => return 2,
            },
            "--ops-log" => config.ops_log = Some(value.into()),
            "--ops-every" => match parse_count(flag, value) {
                Some(ms) => config.ops_log_every = Duration::from_millis(ms as u64),
                None => return 2,
            },
            _ => unreachable!("parse_flags filtered"),
        }
    }
    install_term_handler();
    let daemon = match Daemon::start(config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("sfqpartd: bind failed: {e}");
            return 1;
        }
    };
    println!("sfqpartd listening on {}", daemon.addr());
    while !TERM.load(Ordering::SeqCst) && !daemon.is_draining() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("sfqpartd: draining");
    let stats = daemon.drain();
    print_stats("final ledger", &stats);
    if let Some(violation) = stats.accounting_violation() {
        eprintln!("sfqpartd: {violation}");
        return 1;
    }
    0
}

fn print_stats(title: &str, stats: &StatsSnapshot) {
    println!("{title}:");
    let table = counters_table(&[
        ("submitted", stats.submitted),
        ("done", stats.done),
        ("cache_hits", stats.cache_hits),
        ("cache_misses", stats.cache_misses),
        ("cancelled", stats.cancelled),
        ("deadline_exceeded", stats.deadline_exceeded),
        ("rejected", stats.rejected),
        ("failed", stats.failed),
        ("retries", stats.retries),
        ("panics", stats.panics),
        ("queued", stats.queued),
        ("running", stats.running),
        ("queue_depth_hw", stats.queue_depth_hw),
        ("running_hw", stats.running_hw),
        ("slots_in_use", stats.slots_in_use),
        ("slots_hw", stats.slots_hw),
    ]);
    print!("{table}");
    if stats.total_ns.count() > 0 {
        println!("per-phase latency:");
        print!(
            "{}",
            latency_table(&[
                ("queue_wait", &stats.queue_wait_ns),
                ("solve", &stats.solve_ns),
                ("total", &stats.total_ns),
            ])
        );
    }
    if stats.lock_violations() > 0 {
        println!(
            "lock witness: {} violation(s) (re-acquire {}, inversion {}, wait-holding {})",
            stats.lock_violations(),
            stats.lock_reacquires,
            stats.lock_inversions,
            stats.lock_wait_holds,
        );
    }
    println!("uptime: {}", format_ns(stats.uptime_ns));
}

/// `stats`: fetch one snapshot frame from a running daemon and render it.
fn stats_cmd(args: &[String]) -> i32 {
    let Some(flags) = parse_flags(args, &["--addr"]) else {
        return 2;
    };
    let addr = flags
        .first()
        .map_or("127.0.0.1:7199", |&(_, value)| value)
        .to_string();
    let addr = match addr.parse() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("bad --addr `{addr}`: {e}");
            return 2;
        }
    };
    let mut client = match Client::connect(addr, Some(Duration::from_millis(100))) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("sfqpartd: connect to {addr} failed: {e}");
            return 1;
        }
    };
    client.send(&Request::Stats);
    for _ in 0..50 {
        match client.read() {
            ClientRead::Frame(Response::Stats(stats)) => {
                print_stats(&format!("sfqpartd at {addr}"), &stats);
                return 0;
            }
            ClientRead::Frame(_) | ClientRead::Timeout => {}
            ClientRead::Eof => break,
        }
    }
    eprintln!("sfqpartd: no stats frame from {addr}");
    1
}

// ---------------------------------------------------------------------------
// drive: the concurrent self-test mix
// ---------------------------------------------------------------------------

/// A ring-of-gates problem big enough that a solve takes real iterations.
fn drive_problem() -> ProblemSpec {
    let n: u32 = 96;
    ProblemSpec {
        bias: (0..n).map(|i| 0.5 + 0.01 * f64::from(i % 7)).collect(),
        area: (0..n).map(|i| 8.0 + f64::from(i % 5)).collect(),
        edges: (0..n).map(|i| (i, (i + 1) % n)).collect(),
        planes: 4,
    }
}

fn solve_request(id: &str, options: SolverOptions) -> Request {
    Request::Solve(Box::new(SolveRequest {
        id: id.to_string(),
        problem: drive_problem(),
        options,
        deadline_ms: None,
        progress_every: None,
        panic_in_worker: false,
    }))
}

struct DriveCheck {
    failures: Vec<String>,
}

impl DriveCheck {
    fn expect(&mut self, ok: bool, what: &str) {
        if ok {
            println!("  ok: {what}");
        } else {
            println!("  FAIL: {what}");
            self.failures.push(what.to_string());
        }
    }
}

#[allow(clippy::too_many_lines)]
fn drive(args: &[String]) -> i32 {
    let Some(flags) = parse_flags(args, &["--addr"]) else {
        return 2;
    };
    // With no --addr, drive its own in-process daemon on an ephemeral port.
    let local = if flags.is_empty() {
        match Daemon::start(DaemonConfig::default()) {
            Ok(daemon) => Some(daemon),
            Err(e) => {
                eprintln!("sfqpartd: bind failed: {e}");
                return 1;
            }
        }
    } else {
        None
    };
    let addr = match (&local, flags.first()) {
        (Some(daemon), _) => daemon.addr(),
        (None, Some((_, value))) => match value.parse() {
            Ok(addr) => addr,
            Err(e) => {
                eprintln!("bad --addr `{value}`: {e}");
                return 2;
            }
        },
        (None, None) => unreachable!("local daemon covers the no-flag case"),
    };
    let mut client = match Client::connect(addr, Some(Duration::from_millis(100))) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("sfqpartd: connect to {addr} failed: {e}");
            return 1;
        }
    };
    println!("driving sfqpartd at {addr}");

    let healthy_options = SolverOptions {
        seed: 7,
        restarts: 2,
        ..SolverOptions::default()
    };
    // A job that cannot converge on its own: a negative margin is never
    // reached, so it runs to its (huge) cap — unless cancelled.
    let blocker_options = SolverOptions {
        margin: -1.0,
        max_iterations: 50_000_000,
        ..SolverOptions::default()
    };

    // The concurrent mix: two identical healthy jobs (the second may be a
    // cache hit — must be bit-identical either way), one job we cancel
    // mid-flight, and one admitted with an already-expired deadline.
    for request in [
        solve_request("drive-healthy-1", healthy_options.clone()),
        solve_request("drive-healthy-2", healthy_options.clone()),
        solve_request("drive-cancel-1", blocker_options),
    ] {
        client.send(&request);
    }
    let mut deadline_request = SolveRequest {
        id: "drive-deadline-1".to_string(),
        problem: drive_problem(),
        options: healthy_options.clone(),
        deadline_ms: Some(0),
        progress_every: None,
        panic_in_worker: false,
    };
    deadline_request.options.seed = 11;
    client.send(&Request::Solve(Box::new(deadline_request)));
    client.send(&Request::Cancel {
        id: "drive-cancel-1".to_string(),
    });

    // Collect frames until every job has a terminal, then linger a few
    // ticks to catch any (forbidden) duplicate terminal frames.
    let ids = [
        "drive-healthy-1",
        "drive-healthy-2",
        "drive-cancel-1",
        "drive-deadline-1",
    ];
    let mut terminals: Vec<Response> = Vec::new();
    let mut idle_ticks = 0;
    while idle_ticks < 5 {
        match client.read() {
            ClientRead::Eof => break,
            ClientRead::Timeout => {
                let settled = ids
                    .iter()
                    .all(|id| terminals.iter().any(|t| t.id() == Some(id)));
                if settled {
                    idle_ticks += 1;
                } else {
                    idle_ticks = 0;
                }
            }
            ClientRead::Frame(frame) => {
                if frame.is_terminal() && frame.id().is_some() {
                    terminals.push(frame);
                }
            }
        }
    }

    let mut check = DriveCheck {
        failures: Vec::new(),
    };
    println!("verifying service invariants:");
    for id in ids {
        let count = terminals.iter().filter(|t| t.id() == Some(id)).count();
        check.expect(
            count == 1,
            &format!("exactly one terminal frame for {id} (got {count})"),
        );
    }
    let terminal_of = |id: &str| terminals.iter().find(|t| t.id() == Some(id));
    let healthy_labels: Vec<Option<&Vec<u32>>> = ["drive-healthy-1", "drive-healthy-2"]
        .iter()
        .map(|id| match terminal_of(id) {
            Some(Response::Done { labels, .. }) => Some(labels),
            _ => None,
        })
        .collect();
    check.expect(
        healthy_labels.iter().all(Option::is_some),
        "both healthy jobs ended done",
    );
    if let [Some(a), Some(b)] = healthy_labels.as_slice() {
        check.expect(a == b, "repeated healthy jobs are bit-identical");
        // The service must agree with an in-process solve: running next to
        // a cancelled job and a deadline storm perturbs nothing.
        let solver = Solver::new(healthy_options);
        let spec = drive_problem();
        let direct =
            sfq_partition::PartitionProblem::new(spec.bias, spec.area, spec.edges, spec.planes)
                .ok()
                .and_then(|problem| solver.try_solve(&problem).ok());
        match direct {
            Some(result) => check.expect(
                result.partition.labels() == a.as_slice(),
                "service result is bit-identical to a direct solve",
            ),
            None => check.expect(false, "direct reference solve succeeded"),
        }
    }
    check.expect(
        matches!(
            terminal_of("drive-cancel-1"),
            Some(Response::Cancelled { .. })
        ),
        "cancelled job ended cancelled",
    );
    check.expect(
        matches!(
            terminal_of("drive-deadline-1"),
            Some(Response::DeadlineExceeded { .. })
        ),
        "zero-deadline job ended deadline_exceeded",
    );

    if let Some(ClientRead::Frame(Response::Stats(stats))) = {
        client.send(&Request::Stats);
        let mut got = None;
        for _ in 0..50 {
            match client.read() {
                ClientRead::Frame(frame @ Response::Stats(_)) => {
                    got = Some(ClientRead::Frame(frame));
                    break;
                }
                ClientRead::Frame(_) | ClientRead::Timeout => {}
                ClientRead::Eof => break,
            }
        }
        got
    } {
        print_stats("daemon ledger", &stats);
        // The terminal-ledger invariant, checked on the daemon's own
        // `stats` frame — the same accounting every other consumer
        // (serve's drain summary, the chaos suite, sfqbench's
        // `service_mixed`) uses. All our jobs have settled, but a shared
        // daemon (`--addr`) may have other clients' jobs in flight, so
        // only require balance when idle.
        if stats.queued == 0 && stats.running == 0 {
            match stats.accounting_violation() {
                Some(violation) => check.expect(false, &violation),
                None => check.expect(true, "stats frame terminal accounting balances"),
            }
        }
    }

    // Local daemon: finish with a graceful drain and balanced books.
    if let Some(daemon) = local {
        let stats = daemon.drain();
        if let Some(violation) = stats.accounting_violation() {
            check.expect(false, &violation);
        } else {
            check.expect(true, "terminal accounting balances after drain");
        }
    }

    if check.failures.is_empty() {
        println!("drive: all invariants held");
        0
    } else {
        println!("drive: {} invariant violation(s)", check.failures.len());
        1
    }
}

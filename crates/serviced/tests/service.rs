//! Integration tests for the happy paths of `sfqpartd`: solve over the
//! wire, caching, admission bookkeeping, control frames, and drain.
//!
//! Each test boots a private daemon on an ephemeral port and talks the
//! real newline-delimited-JSON protocol through [`Client`]. The chaos
//! paths (panics, fault plans, storms) live in `tests/chaos.rs`.

use std::time::Duration;

use sfq_partition::telemetry::TRACE_SCHEMA_VERSION;
use sfq_partition::{PartitionProblem, Solver, SolverOptions};
use sfq_serviced::client::ClientRead;
use sfq_serviced::protocol::{ProblemSpec, Request, Response, SolveRequest};
use sfq_serviced::{Client, Daemon, DaemonConfig};

fn spec() -> ProblemSpec {
    let n: u32 = 48;
    ProblemSpec {
        bias: (0..n).map(|i| 0.4 + 0.02 * f64::from(i % 5)).collect(),
        area: (0..n).map(|i| 6.0 + f64::from(i % 3)).collect(),
        edges: (0..n).map(|i| (i, (i + 1) % n)).collect(),
        planes: 3,
    }
}

fn options() -> SolverOptions {
    SolverOptions {
        seed: 42,
        restarts: 2,
        ..SolverOptions::default()
    }
}

fn boot(config: DaemonConfig) -> (Daemon, Client) {
    let daemon = Daemon::start(config).expect("bind ephemeral port");
    let client = Client::connect(daemon.addr(), Some(Duration::from_millis(100)))
        .expect("connect to daemon");
    (daemon, client)
}

fn solve_frame(id: &str) -> Request {
    Request::Solve(Box::new(SolveRequest {
        id: id.into(),
        problem: spec(),
        options: options(),
        deadline_ms: None,
        progress_every: None,
        panic_in_worker: false,
    }))
}

#[test]
fn healthy_job_matches_a_direct_solve_bit_for_bit() {
    let (daemon, mut client) = boot(DaemonConfig::default());
    assert!(client.send(&solve_frame("job-1")));
    let terminal = client.wait_terminal_quiet("job-1").expect("terminal frame");
    let Response::Done {
        labels,
        cached,
        iterations,
        ..
    } = &terminal
    else {
        panic!("expected done, got {terminal:?}");
    };
    assert!(!cached);
    assert!(*iterations > 0);
    let s = spec();
    let problem = PartitionProblem::new(s.bias, s.area, s.edges, s.planes).unwrap();
    let direct = Solver::new(options()).try_solve(&problem).unwrap();
    assert_eq!(
        labels.as_slice(),
        direct.partition.labels(),
        "service and in-process solve must agree bit for bit"
    );
    daemon.drain();
}

#[test]
fn identical_requests_hit_the_result_cache() {
    let (daemon, mut client) = boot(DaemonConfig::default());
    client.send(&solve_frame("first"));
    let first = client.wait_terminal_quiet("first").expect("terminal");
    client.send(&solve_frame("second"));
    let second = client.wait_terminal_quiet("second").expect("terminal");
    let (
        Response::Done { labels: a, .. },
        Response::Done {
            labels: b, cached, ..
        },
    ) = (&first, &second)
    else {
        panic!("expected two done frames, got {first:?} / {second:?}");
    };
    assert!(cached, "sequential identical request must be a cache hit");
    assert_eq!(a, b, "cached result must be bit-identical");
    let stats = daemon.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1, "the first solve probed and missed");
    assert_eq!(stats.done, 2);
    daemon.drain();
}

#[test]
fn job_spans_flow_into_the_stats_frame() {
    let (daemon, mut client) = boot(DaemonConfig::default());
    client.send(&solve_frame("spanned"));
    let terminal = client.wait_terminal_quiet("spanned").expect("terminal");
    assert!(matches!(terminal, Response::Done { .. }));
    // The terminal frame is sent only after the span settles and its
    // phases land in the registry, so the snapshot must already show them.
    let stats = daemon.stats();
    assert_eq!(stats.queue_wait_ns.count(), 1);
    assert_eq!(stats.solve_ns.count(), 1);
    assert_eq!(stats.total_ns.count(), 1);
    assert!(
        stats.total_ns.percentile(1.0) > 0,
        "a real solve takes nonzero total time: {stats:?}"
    );
    assert!(stats.uptime_ns > 0);
    assert_eq!(stats.queue_depth_hw, 1, "one job was queued at its peak");
    assert!(stats.running_hw >= 1);
    assert!(stats.slots_hw >= 1, "the solve reserved restart slots");
    daemon.drain();
}

#[test]
fn duplicate_active_id_is_rejected() {
    let (daemon, mut client) = boot(DaemonConfig::default());
    // A job that runs until cancelled keeps the id active.
    let blocker = Request::Solve(Box::new(SolveRequest {
        id: "dup".into(),
        problem: spec(),
        options: SolverOptions {
            margin: -1.0,
            max_iterations: 50_000_000,
            ..SolverOptions::default()
        },
        deadline_ms: None,
        progress_every: None,
        panic_in_worker: false,
    }));
    client.send(&blocker);
    // First frame back is the acceptance.
    loop {
        match client.read() {
            ClientRead::Frame(Response::Accepted { id }) => {
                assert_eq!(id, "dup");
                break;
            }
            ClientRead::Timeout => {}
            other => panic!("expected accepted, got {other:?}"),
        }
    }
    client.send(&blocker);
    loop {
        match client.read() {
            ClientRead::Frame(Response::Rejected { id, reason }) => {
                assert_eq!(id.as_deref(), Some("dup"));
                assert_eq!(reason, "duplicate_id");
                break;
            }
            ClientRead::Timeout => {}
            other => panic!("expected rejected, got {other:?}"),
        }
    }
    client.send(&Request::Cancel { id: "dup".into() });
    let terminal = client.wait_terminal_quiet("dup").expect("terminal");
    assert!(matches!(terminal, Response::Cancelled { .. }));
    daemon.drain();
}

#[test]
fn invalid_problems_are_rejected_at_admission() {
    let (daemon, mut client) = boot(DaemonConfig::default());
    let mut bad = spec();
    bad.planes = 0; // structurally invalid
    client.send(&Request::Solve(Box::new(SolveRequest {
        id: "bad".into(),
        problem: bad,
        options: options(),
        deadline_ms: None,
        progress_every: None,
        panic_in_worker: false,
    })));
    let terminal = client.wait_terminal_quiet("bad").expect("terminal");
    let Response::Rejected { reason, .. } = &terminal else {
        panic!("expected rejected, got {terminal:?}");
    };
    assert!(reason.starts_with("invalid:"), "reason: {reason}");
    daemon.drain();
}

#[test]
fn cancel_of_an_unknown_id_reports_an_error_frame() {
    let (daemon, mut client) = boot(DaemonConfig::default());
    client.send(&Request::Cancel { id: "ghost".into() });
    loop {
        match client.read() {
            ClientRead::Frame(Response::Error { message }) => {
                assert!(message.contains("ghost"), "message: {message}");
                break;
            }
            ClientRead::Timeout => {}
            other => panic!("expected error frame, got {other:?}"),
        }
    }
    daemon.drain();
}

#[test]
fn ping_and_stats_round_trip() {
    let (daemon, mut client) = boot(DaemonConfig::default());
    client.send(&Request::Ping);
    loop {
        match client.read() {
            ClientRead::Frame(Response::Pong) => break,
            ClientRead::Timeout => {}
            other => panic!("expected pong, got {other:?}"),
        }
    }
    client.send(&Request::Stats);
    loop {
        match client.read() {
            ClientRead::Frame(Response::Stats(stats)) => {
                assert_eq!(stats.submitted, 0);
                assert_eq!(stats.running, 0);
                break;
            }
            ClientRead::Timeout => {}
            other => panic!("expected stats, got {other:?}"),
        }
    }
    daemon.drain();
}

#[test]
fn drain_refuses_new_jobs_and_finishes_admitted_ones() {
    let (daemon, mut client) = boot(DaemonConfig::default());
    // Admit one healthy job, then drain, then try to admit another. The
    // frames are pipelined on one connection, so ordering is exact.
    client.send(&solve_frame("admitted"));
    client.send(&Request::Drain);
    client.send(&solve_frame("late"));
    let late = client.wait_terminal_quiet("late").expect("terminal");
    let Response::Rejected { reason, .. } = &late else {
        panic!("expected rejected, got {late:?}");
    };
    assert_eq!(reason, "draining");
    let stats = daemon.drain();
    // The admitted job finished despite the drain racing it.
    assert_eq!(stats.done, 1, "admitted job drained to done: {stats:?}");
    assert_eq!(stats.rejected, 1);
    assert_eq!(
        stats.done + stats.cancelled + stats.deadline_exceeded + stats.failed,
        stats.submitted,
        "terminal accounting: {stats:?}"
    );
}

#[test]
fn drain_delivers_terminal_frames_to_connected_clients() {
    let (daemon, mut client) = boot(DaemonConfig::default());
    // An unreachable margin under an iteration budget: the job runs for
    // far longer than one connection poll interval, then ends `done`.
    client.send(&Request::Solve(Box::new(SolveRequest {
        id: "long".into(),
        problem: spec(),
        options: SolverOptions {
            margin: -1.0,
            max_iterations: 50_000_000,
            iteration_budget: Some(20_000),
            ..SolverOptions::default()
        },
        deadline_ms: None,
        progress_every: Some(1_000),
        panic_in_worker: false,
    })));
    loop {
        match client.read() {
            ClientRead::Frame(Response::Progress { .. }) => break,
            ClientRead::Frame(Response::Accepted { .. }) | ClientRead::Timeout => {}
            other => panic!("expected the job to start, got {other:?}"),
        }
    }
    // Drain from a second connection while the job is running.
    let mut control = Client::connect(daemon.addr(), Some(Duration::from_millis(100)))
        .expect("connect to daemon");
    control.send(&Request::Drain);
    let terminal = client
        .wait_terminal_quiet("long")
        .expect("terminal frame before the connection closes");
    assert!(
        matches!(terminal, Response::Done { .. }),
        "expected done, got {terminal:?}"
    );
    let stats = daemon.drain();
    assert_eq!(stats.done, 1, "{stats:?}");
    assert_eq!(stats.cancelled, 0, "{stats:?}");
}

#[test]
fn progress_frames_stream_schema_trace_records() {
    let (daemon, mut client) = boot(DaemonConfig::default());
    client.send(&Request::Solve(Box::new(SolveRequest {
        id: "traced".into(),
        problem: spec(),
        options: options(),
        deadline_ms: None,
        progress_every: Some(5),
        panic_in_worker: false,
    })));
    let mut kinds: Vec<String> = Vec::new();
    let terminal = client
        .wait_terminal("traced", |frame| {
            if let Response::Progress { id, trace } = frame {
                assert_eq!(id, "traced");
                assert_eq!(
                    trace.get("v").and_then(|v| v.as_u64()),
                    Some(TRACE_SCHEMA_VERSION),
                    "schema version stamped on every record: {trace:?}"
                );
                if let Some(ev) = trace.get("ev").and_then(|v| v.as_str()) {
                    kinds.push(ev.to_string());
                }
            }
        })
        .expect("terminal");
    assert!(matches!(terminal, Response::Done { .. }));
    assert_eq!(kinds.first().map(String::as_str), Some("solve_start"));
    assert_eq!(kinds.last().map(String::as_str), Some("solve_end"));
    assert!(
        kinds.iter().any(|k| k == "iter"),
        "sampled iteration records present: {kinds:?}"
    );
    assert!(kinds.iter().any(|k| k == "restart_end"));
    daemon.drain();
}

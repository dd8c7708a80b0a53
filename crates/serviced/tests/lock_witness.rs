//! Lock-witness chaos replay: re-runs the chaos suite's fault campaigns
//! with the class-tracked sync primitives compiled in
//! (`--features lock_witness`) and asserts that the entire run observes
//! **zero** lock-discipline violations — no re-acquires, no lock-order
//! inversions, no condvar waits entered while holding a second lock.
//!
//! This is the dynamic half of sfqlint's L1/L2: the static rules prove the
//! *call graph* clean, this test proves the *interleavings* clean on the
//! exact scenarios most likely to bend the discipline (worker panics,
//! deadline storms, cancellations mid-run, slot contention). Everything is
//! one `#[test]` on purpose: the witness counters
//! are process-global, so a single test gives the zero-violation assertion
//! an unambiguous scope — the whole replay.

#![cfg(feature = "lock_witness")]

use std::time::Duration;

use sfq_partition::witness;
use sfq_partition::SolverOptions;
use sfq_serviced::client::ClientRead;
use sfq_serviced::protocol::{ProblemSpec, Request, Response, SolveRequest};
use sfq_serviced::{Client, Daemon, DaemonConfig};

fn spec() -> ProblemSpec {
    let n: u32 = 64;
    ProblemSpec {
        bias: (0..n).map(|i| 0.3 + 0.015 * f64::from(i % 8)).collect(),
        area: (0..n).map(|i| 5.0 + f64::from(i % 4)).collect(),
        edges: (0..n).map(|i| (i, (i + 1) % n)).collect(),
        planes: 4,
    }
}

fn healthy_options() -> SolverOptions {
    SolverOptions {
        seed: 2020,
        restarts: 2,
        ..SolverOptions::default()
    }
}

/// Provably non-terminating on its own (negative margin, huge cap), so a
/// cancellation always lands mid-run.
fn blocker_options() -> SolverOptions {
    SolverOptions {
        margin: -1.0,
        max_iterations: 50_000_000,
        ..SolverOptions::default()
    }
}

fn solve_request(id: &str, options: SolverOptions) -> Request {
    Request::Solve(Box::new(SolveRequest {
        id: id.into(),
        problem: spec(),
        options,
        deadline_ms: None,
        progress_every: None,
        panic_in_worker: false,
    }))
}

/// Condensed replay of the chaos suite's mixed storm: waves of healthy /
/// deadline-zero / worker-panic / cancelled jobs against a daemon sized
/// for contention (2 workers racing on the queue, a slot pool small
/// enough that jobs wait on `ledger::freed`).
fn mixed_storm() {
    let daemon = Daemon::start(DaemonConfig {
        workers: 2,
        slots: 2,
        queue_capacity: 32,
        ..DaemonConfig::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(daemon.addr(), Some(Duration::from_millis(100)))
        .expect("connect to daemon");

    for wave in 0..2 {
        let healthy = format!("w{wave}-healthy");
        client.send(&solve_request(&healthy, healthy_options()));

        let deadline = format!("w{wave}-deadline");
        client.send(&Request::Solve(Box::new(SolveRequest {
            id: deadline.clone(),
            problem: spec(),
            options: healthy_options(),
            deadline_ms: Some(0),
            progress_every: None,
            panic_in_worker: false,
        })));

        let panicky = format!("w{wave}-panic");
        client.send(&Request::Solve(Box::new(SolveRequest {
            id: panicky.clone(),
            problem: spec(),
            options: healthy_options(),
            deadline_ms: None,
            progress_every: None,
            panic_in_worker: true,
        })));

        let cancelled = format!("w{wave}-cancel");
        client.send(&solve_request(&cancelled, blocker_options()));
        client.send(&Request::Cancel {
            id: cancelled.clone(),
        });

        // One read loop per wave: terminals arrive in any order, so a
        // sequential per-id wait would discard frames it is not yet
        // looking for. (This mirrors the chaos suite's storm collector.)
        let wave_ids = [&healthy, &deadline, &panicky, &cancelled];
        let mut terminals: Vec<Response> = Vec::new();
        while !wave_ids
            .iter()
            .all(|id| terminals.iter().any(|t| t.id() == Some(id)))
        {
            match client.read() {
                ClientRead::Eof => panic!("daemon closed the stream mid-wave"),
                ClientRead::Timeout => {}
                ClientRead::Frame(frame) => {
                    if frame.is_terminal() {
                        terminals.push(frame);
                    }
                }
            }
        }
        for t in &terminals {
            assert!(
                !matches!(t, Response::Rejected { .. }),
                "unexpected rejection under capacity 32: {t:?}"
            );
        }
    }

    // Same spec + options as the storm's healthy jobs: the repeat goes
    // through the result cache's lock.
    client.send(&solve_request("replayed", healthy_options()));
    let terminal = client.wait_terminal_quiet("replayed").expect("terminal");
    assert!(matches!(terminal, Response::Done { .. }), "{terminal:?}");

    drop(client);
    let stats = daemon.drain();
    assert_eq!(stats.panics, 2, "one injected panic per wave: {stats:?}");
}

#[test]
fn chaos_replay_records_zero_lock_violations() {
    mixed_storm();

    assert_eq!(
        witness::violations(),
        0,
        "lock-witness violations during chaos replay; first: {:?}",
        witness::first_violation()
    );
}

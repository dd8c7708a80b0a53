//! The `sfqpartd` daemon: two-level scheduling, cancellation, deadlines,
//! panic isolation, retry, caching, and graceful drain.
//!
//! # Architecture
//!
//! ```text
//!  accept loop ──► connection handler (1 thread/conn)
//!                     │  parse frame → admit / cancel / stats / drain
//!                     ▼
//!          JobQueue (bounded; Overloaded beyond capacity)   ← level 1
//!                     │ pop
//!                     ▼
//!          worker threads (fixed pool, panic-isolated)
//!                     │ SlotPool::acquire(restart fan-out)  ← level 2
//!                     ▼
//!          Solver::try_solve_interruptible_observed
//! ```
//!
//! Level 1 decides which *jobs* run (admission control); level 2 bounds
//! the total restart-thread fan-out across all concurrently running jobs:
//! a solve's only threads are its restarts, so the slots a job holds are
//! the threads it runs. A panicking worker fails only its own job — the
//! panic is caught at the job boundary, the slots return by RAII, and the
//! worker keeps serving the queue.
//!
//! Every admitted job ends in exactly one terminal state; the transition
//! is [`JobHandle::finish`] and the winner alone emits the terminal frame
//! (see `crates/serviced/tests/chaos.rs`, which storms this invariant).
//!
//! This module deliberately reads no wall clock: deadlines and drain
//! timeouts all flow through [`sfq_partition::budget`] (`clippy.toml`), and
//! all socket I/O lives in [`crate::net`] (lint rule I1). It is the one
//! service module that may start threads.

#![expect(
    clippy::disallowed_methods,
    reason = "the daemon's threads: workers, accept loop, connection handlers and ops log"
)]

use sfq_partition::witness::{self, Mutex};
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use sfq_partition::budget::Stopwatch;

use sfq_partition::telemetry::{
    IterationEvent, RecoveryEvent, RefineEvent, RestartEndEvent, RestartObserver, SolveEndEvent,
    SolveObserver, SolveStartEvent, TraceEvent,
};
use sfq_partition::{
    Interrupt, PartitionProblem, SlotPool, SolveError, SolveResult, Solver, SolverOptions,
    StopCause, StopReason,
};

use crate::cache::{cache_key, cacheable_outcome, cacheable_request, CachedResult, ResultCache};
use crate::job::{ConnJobs, JobHandle, TerminalKind};
use crate::net::{ConnWriter, LineReader, Listener, ReadLine};
use crate::ops::OpsRegistry;
use crate::opslog::OpsLogWriter;
use crate::protocol::{parse_request, FailureKind, Request, Response, SolveRequest, StatsSnapshot};
use crate::sched::{AdmitError, JobQueue};

/// How often blocked connection readers wake to poll the drain flag.
const CONN_POLL: Duration = Duration::from_millis(50);
/// Seed perturbation for the divergence retry (the 64-bit golden ratio,
/// the usual splitmix increment): far from any seed a client would pick.
const RETRY_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Daemon sizing.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads (jobs executing concurrently; level 1).
    pub workers: usize,
    /// Restart/chunk slots shared by all running jobs (level 2).
    pub slots: usize,
    /// Admission queue capacity; pushes beyond it are `Overloaded`.
    pub queue_capacity: usize,
    /// Result-cache capacity (entries); 0 disables caching.
    pub cache_capacity: usize,
    /// Append periodic `stats` snapshots (JSONL, same schema as the wire
    /// frame) to this file; `None` disables the sink.
    pub ops_log: Option<PathBuf>,
    /// Snapshot interval for the ops log.
    pub ops_log_every: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            slots: 4,
            queue_capacity: 16,
            cache_capacity: 64,
            ops_log: None,
            ops_log_every: Duration::from_secs(1),
        }
    }
}

/// One admitted job, queued for a worker.
struct QueuedJob {
    handle: Arc<JobHandle>,
    request: Box<SolveRequest>,
    problem: PartitionProblem,
    conn: ConnWriter,
    /// Content hash, present iff the request is cacheable.
    key: Option<u64>,
}

/// State shared by the accept loop, connection handlers, and workers.
struct Shared {
    queue: JobQueue<QueuedJob>,
    slots: SlotPool,
    jobs: Mutex<BTreeMap<String, Arc<JobHandle>>>,
    ops: OpsRegistry,
    cache: ResultCache,
    draining: AtomicBool,
    running: AtomicU64,
    addr: std::net::SocketAddr,
}

impl Shared {
    fn remove_job(&self, id: &str) {
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(id);
    }

    /// The frameless half of the terminal transition: the
    /// [`JobHandle::finish`] winner stamps the span's settle boundary,
    /// records the terminal and phase durations in the ops registry, and
    /// retires the id. The disconnect sweeper uses this directly (its
    /// client is gone, so there is no one to frame).
    fn settle_inner(&self, job: &Arc<JobHandle>, kind: TerminalKind) -> bool {
        if !job.finish(kind) {
            return false;
        }
        job.span.stamp_settled();
        self.ops.record_terminal(kind);
        if let Some(phases) = job.span.phases() {
            self.ops.record_phases(&phases);
        }
        self.remove_job(&job.id);
        true
    }

    /// The single terminal-transition point after admission: the
    /// [`JobHandle::finish`] winner records the ops-registry entry,
    /// retires the id, and emits the terminal frame. Exactly one caller
    /// wins per job.
    fn settle(
        &self,
        job: &Arc<JobHandle>,
        conn: &ConnWriter,
        kind: TerminalKind,
        frame: &Response,
    ) -> bool {
        if !self.settle_inner(job, kind) {
            return false;
        }
        conn.send_line(&frame.to_line());
        true
    }

    fn settle_cause(&self, job: &Arc<JobHandle>, conn: &ConnWriter, cause: StopCause) -> bool {
        let (kind, frame) = match cause {
            StopCause::Cancelled => (
                TerminalKind::Cancelled,
                Response::Cancelled { id: job.id.clone() },
            ),
            StopCause::Deadline => (
                TerminalKind::DeadlineExceeded,
                Response::DeadlineExceeded { id: job.id.clone() },
            ),
        };
        self.settle(job, conn, kind, &frame)
    }

    /// Counts a refusal and sends the `rejected` frame.
    fn refuse(&self, conn: &ConnWriter, id: Option<String>, reason: impl Into<String>) {
        self.ops.record_terminal(TerminalKind::Rejected);
        let frame = Response::Rejected {
            id,
            reason: reason.into(),
        };
        conn.send_line(&frame.to_line());
    }

    fn stats(&self) -> StatsSnapshot {
        self.ops.snapshot(
            self.queue.len() as u64,
            self.running.load(Ordering::Relaxed),
        )
    }

    /// Flips the daemon into drain mode: no new admissions, queue drains,
    /// the accept loop is poked awake so it can exit.
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue.close();
        crate::net::poke(self.addr);
    }
}

/// A running `sfqpartd` instance (in-process; the binary wraps this).
pub struct Daemon {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    ops_log: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds, spawns the worker pool and accept loop, and returns.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn start(config: DaemonConfig) -> std::io::Result<Daemon> {
        let listener = Listener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            slots: SlotPool::new(config.slots.max(1)),
            jobs: witness::mutex("serviced:shared::jobs", BTreeMap::new()),
            ops: OpsRegistry::new(),
            cache: ResultCache::new(config.cache_capacity),
            draining: AtomicBool::new(false),
            running: AtomicU64::new(0),
            addr,
        });
        let ops_log = config
            .ops_log
            .as_deref()
            .map(OpsLogWriter::create)
            .transpose()?
            .map(|writer| {
                let shared = Arc::clone(&shared);
                let every = config.ops_log_every;
                thread::spawn(move || ops_log_loop(&shared, writer, every))
            });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Daemon {
            shared,
            accept: Some(accept),
            workers,
            ops_log,
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.shared.addr
    }

    /// Live counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats()
    }

    /// Whether a drain has been requested (via [`Daemon::drain`], a
    /// `drain` frame, or SIGTERM in the binary).
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stops admitting, lets queued and running jobs
    /// finish (or deadline-out / get cancelled), joins the pool, and
    /// returns the final counters. Jobs admitted before the drain always
    /// reach their terminal state, and a client still connected receives
    /// each one's terminal frame before its connection closes.
    pub fn drain(mut self) -> StatsSnapshot {
        self.shared.begin_drain();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(ops_log) = self.ops_log.take() {
            let _ = ops_log.join();
        }
        self.shared.stats()
    }
}

/// The ops-log ticker thread: one `stats` line per interval, plus a final
/// line once the drain has settled every admitted job (the workers are
/// done when `draining` is set *and* nothing is queued or running —
/// terminal counts are recorded inside `run_job`, before `running`
/// drops). Exits early if the sink dies (sticky error in
/// [`OpsLogWriter`]).
fn ops_log_loop(shared: &Arc<Shared>, mut writer: OpsLogWriter, every: Duration) {
    let every_ns = u64::try_from(every.as_nanos()).unwrap_or(u64::MAX);
    let mut tick = Stopwatch::start();
    loop {
        thread::sleep(CONN_POLL);
        let draining = shared.draining.load(Ordering::SeqCst);
        let settled = shared.queue.is_empty() && shared.running.load(Ordering::Relaxed) == 0;
        if draining && settled {
            writer.write_line(&Response::Stats(Box::new(shared.stats())).to_line());
            return;
        }
        if tick.elapsed_ns() >= every_ns {
            if !writer.write_line(&Response::Stats(Box::new(shared.stats())).to_line()) {
                return;
            }
            tick = Stopwatch::start();
        }
    }
}

fn accept_loop(listener: &Listener, shared: &Arc<Shared>) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept(Some(CONN_POLL)) {
            Ok((reader, writer)) => {
                if shared.draining.load(Ordering::SeqCst) {
                    writer.send_line(&Response::Draining.to_line());
                    return;
                }
                let shared = Arc::clone(shared);
                // Connection handlers are detached: they exit on client
                // EOF, or during a drain within one poll interval of
                // their last admitted job settling.
                thread::spawn(move || handle_connection(&shared, reader, writer));
            }
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, mut reader: LineReader, writer: ConnWriter) {
    // Jobs admitted on this connection; swept into cancellation if the
    // client vanishes before they settle.
    let mut owned = ConnJobs::default();
    loop {
        match reader.next_line() {
            ReadLine::Timeout => {
                // A drain lets admitted jobs finish, and their terminal
                // frames go out on this connection: keep it open (new
                // solves are refused with `draining`) until they settle.
                if writer.is_dead()
                    || (shared.draining.load(Ordering::SeqCst) && owned.all_settled())
                {
                    break;
                }
            }
            ReadLine::Eof => break,
            ReadLine::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                match parse_request(&line) {
                    Err(reject) => shared.refuse(&writer, reject.id, reject.reason),
                    Ok(Request::Ping) => {
                        writer.send_line(&Response::Pong.to_line());
                    }
                    Ok(Request::Stats) => {
                        writer.send_line(&Response::Stats(Box::new(shared.stats())).to_line());
                    }
                    Ok(Request::Drain) => {
                        writer.send_line(&Response::Draining.to_line());
                        shared.begin_drain();
                    }
                    Ok(Request::Cancel { id }) => cancel_job(shared, &writer, &id),
                    Ok(Request::Solve(solve)) => admit(shared, &writer, solve, &mut owned),
                }
            }
        }
    }
    // Disconnect sweep: a client that vanishes takes its unsettled jobs
    // with it. Cancellation wins the race exactly as an explicit frame
    // would; workers observe the token between iterations and stand down.
    owned.cancel_unsettled(|job| {
        shared.settle_inner(job, TerminalKind::Cancelled);
    });
}

fn cancel_job(shared: &Arc<Shared>, writer: &ConnWriter, id: &str) {
    let job = shared
        .jobs
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(id)
        .cloned();
    match job {
        None => {
            let frame = Response::Error {
                message: format!("cancel: no active job with id `{id}`"),
            };
            writer.send_line(&frame.to_line());
        }
        Some(job) => {
            // Raise the token first so a running solve stops at its next
            // poll, then race for the terminal. Cancellation wins even
            // against a solve that is about to finish — predictability
            // over salvage.
            job.cancel.cancel();
            let frame = Response::Cancelled { id: job.id.clone() };
            shared.settle(&job, writer, TerminalKind::Cancelled, &frame);
        }
    }
}

fn admit(
    shared: &Arc<Shared>,
    writer: &ConnWriter,
    solve: Box<SolveRequest>,
    owned: &mut ConnJobs,
) {
    let id = solve.id.clone();
    if shared.draining.load(Ordering::SeqCst) {
        shared.refuse(writer, Some(id), "draining");
        return;
    }
    let spec = &solve.problem;
    let problem = match PartitionProblem::new(
        spec.bias.clone(),
        spec.area.clone(),
        spec.edges.clone(),
        spec.planes,
    ) {
        Ok(problem) => problem,
        Err(e) => {
            shared.refuse(writer, Some(id), format!("invalid: {e}"));
            return;
        }
    };
    let job = Arc::new(JobHandle::new(id.clone(), solve.deadline_ms));
    {
        let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
        if jobs.contains_key(&id) {
            drop(jobs);
            shared.refuse(writer, Some(id), "duplicate_id");
            return;
        }
        jobs.insert(id.clone(), Arc::clone(&job));
    }
    let key = cacheable_request(&solve.options, solve.panic_in_worker)
        .then(|| cache_key(spec, &solve.options));
    let queued = QueuedJob {
        handle: Arc::clone(&job),
        request: solve,
        problem,
        conn: writer.clone(),
        key,
    };
    // Stamp before the push: a worker may pop (and stamp `started`) the
    // instant the queue lock releases.
    job.span.stamp_admitted();
    match shared.queue.push(queued) {
        Ok(depth) => {
            shared.ops.record_submitted();
            shared.ops.record_queue_depth(depth as u64);
            owned.track(job);
            let frame = Response::Accepted { id };
            writer.send_line(&frame.to_line());
        }
        Err(AdmitError::Overloaded) => {
            shared.remove_job(&id);
            shared.refuse(writer, Some(id), "overloaded");
        }
        Err(AdmitError::Closed) => {
            shared.remove_job(&id);
            shared.refuse(writer, Some(id), "draining");
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(queued) = shared.queue.pop() {
        let running = shared.running.fetch_add(1, Ordering::Relaxed) + 1;
        shared.ops.record_running(running);
        run_job(shared, queued);
        shared.running.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Executes one admitted job through to its terminal state.
fn run_job(shared: &Arc<Shared>, queued: QueuedJob) {
    let QueuedJob {
        handle: job,
        request,
        problem,
        conn,
        key,
    } = queued;
    if job.is_terminal() {
        // Cancelled while queued; the canceller already settled it.
        shared.remove_job(&job.id);
        return;
    }
    job.span.stamp_started();
    let interrupt = Interrupt::new(job.deadline, Some(job.cancel.clone()));
    if let Some(cause) = interrupt.poll() {
        // Deadline storms die here: a job whose deadline expired in the
        // queue never touches a solver thread.
        shared.settle_cause(&job, &conn, cause);
        return;
    }
    if let Some(key) = key {
        match shared.cache.get(key) {
            Some(hit) => {
                shared.ops.record_cache_hit();
                let frame = Response::Done {
                    id: job.id.clone(),
                    labels: hit.labels,
                    stop: hit.stop,
                    iterations: hit.iterations,
                    discrete_cost: hit.discrete_cost,
                    cached: true,
                };
                shared.settle(&job, &conn, TerminalKind::Done, &frame);
                return;
            }
            None => shared.ops.record_cache_miss(),
        }
    }
    // Level 2: reserve the restart fan-out before solving. A serial job
    // takes one slot; a parallel one takes one per restart (clamped to
    // pool capacity by the pool itself). Interruptible: a cancel or
    // deadline during the wait frees nothing and settles the job.
    let wanted = if request.options.parallel {
        request.options.restarts.max(1)
    } else {
        1
    };
    let _slots = match shared.slots.acquire(wanted, &interrupt) {
        Ok(guard) => guard,
        Err(cause) => {
            shared.settle_cause(&job, &conn, cause);
            return;
        }
    };
    let _occupancy = shared.ops.occupy_slots(wanted as u64);

    let solve_once = |options: SolverOptions| -> Result<Result<SolveResult, SolveError>, String> {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            if request.panic_in_worker {
                panic!("chaos: panic_in_worker requested for job `{}`", job.id);
            }
            let solver = Solver::new(options);
            if let Some(every) = request.progress_every {
                let mut stream = ProgressStream {
                    conn: conn.clone(),
                    id: job.id.clone(),
                    every: every.max(1),
                };
                solver.try_solve_interruptible_observed(&problem, &interrupt, &mut stream)
            } else {
                solver.try_solve_interruptible(&problem, &interrupt)
            }
        }));
        outcome.map_err(|payload| panic_message(payload.as_ref()))
    };

    // Divergence in service terms: the hard error (every restart's
    // discrete cost non-finite) or the soft form — the winning restart
    // ended terminally non-finite and the result is a rolled-back
    // degraded partition the service refuses to report as `done`.
    let is_divergence = |outcome: &Result<Result<SolveResult, SolveError>, String>| {
        matches!(outcome, Ok(Err(SolveError::AllRestartsDiverged { .. })))
            || matches!(outcome, Ok(Ok(r)) if r.stop_reason == StopReason::NonFinite)
    };

    let mut outcome = solve_once(request.options.clone());
    if is_divergence(&outcome) {
        // Transient-failure policy: one immediate retry on a perturbed
        // seed. Divergence is the one failure class that can be
        // initial-state luck rather than a structural defect of the
        // request. The solve is deterministic, so waiting before the retry
        // would change nothing but hold this worker idle.
        shared.ops.record_retry();
        let frame = Response::Retrying {
            id: job.id.clone(),
            attempt: 1,
        };
        conn.send_line(&frame.to_line());
        if let Some(cause) = interrupt.poll() {
            shared.settle_cause(&job, &conn, cause);
            return;
        }
        let retry_options = SolverOptions {
            seed: request.options.seed ^ RETRY_SEED_SALT,
            ..request.options.clone()
        };
        outcome = solve_once(retry_options);
    }

    if matches!(&outcome, Ok(Ok(r)) if r.stop_reason == StopReason::NonFinite) {
        // The retry diverged too (this branch is unreachable on the first
        // attempt — a first-attempt NonFinite always takes the retry).
        let frame = Response::Failed {
            id: job.id.clone(),
            kind: FailureKind::Divergence,
            message: "solve ended terminally non-finite after retry".to_string(),
        };
        shared.settle(&job, &conn, TerminalKind::Failed, &frame);
        return;
    }

    match outcome {
        Err(message) => {
            // The panic was contained to this job; the worker thread and
            // its queue loop are untouched.
            shared.ops.record_panic();
            let frame = Response::Failed {
                id: job.id.clone(),
                kind: FailureKind::Panic,
                message,
            };
            shared.settle(&job, &conn, TerminalKind::Failed, &frame);
        }
        Ok(Err(error)) => {
            let kind = match error {
                SolveError::AllRestartsDiverged { .. } => FailureKind::Divergence,
                _ => FailureKind::Invalid,
            };
            let frame = Response::Failed {
                id: job.id.clone(),
                kind,
                message: error.to_string(),
            };
            shared.settle(&job, &conn, TerminalKind::Failed, &frame);
        }
        Ok(Ok(result)) => {
            match result.stop_reason {
                StopReason::Cancelled => {
                    let frame = Response::Cancelled { id: job.id.clone() };
                    shared.settle(&job, &conn, TerminalKind::Cancelled, &frame);
                }
                StopReason::BudgetExhausted if job.deadline.expired() => {
                    // The service deadline truncated the run (an explicit
                    // iteration budget reports as a completed `done`).
                    let frame = Response::DeadlineExceeded { id: job.id.clone() };
                    shared.settle(&job, &conn, TerminalKind::DeadlineExceeded, &frame);
                }
                stop => {
                    if let Some(key) = key {
                        if cacheable_outcome(stop, !job.deadline.is_unbounded()) {
                            shared.cache.insert(
                                key,
                                CachedResult {
                                    labels: result.partition.labels().to_vec(),
                                    stop,
                                    iterations: result.iterations as u64,
                                    discrete_cost: result.discrete_cost,
                                },
                            );
                        }
                    }
                    let frame = Response::Done {
                        id: job.id.clone(),
                        labels: result.partition.labels().to_vec(),
                        stop,
                        iterations: result.iterations as u64,
                        discrete_cost: result.discrete_cost,
                        cached: false,
                    };
                    shared.settle(&job, &conn, TerminalKind::Done, &frame);
                }
            }
        }
    }
}

/// Best-effort panic payload rendering.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".to_string()
    }
}

// ---------------------------------------------------------------------------
// Live progress streaming
// ---------------------------------------------------------------------------

/// Streams trace records, in the same schema as the offline JSONL trace, to
/// the submitting client as `progress` frames, live from the solver
/// threads. Iteration records are sampled every [`ProgressStream::every`]
/// iterations; structural records (solve/restart boundaries, recoveries,
/// refinement) always stream.
///
/// Frames interleave across parallel restarts in wall-clock order — each
/// frame is atomic ([`ConnWriter`] locks per line) and carries its restart
/// index, so clients can regroup deterministically, exactly like the
/// offline JSONL trace schema.
struct ProgressStream {
    conn: ConnWriter,
    id: String,
    every: u64,
}

fn progress_line(id: &str, event: &TraceEvent) -> String {
    let mut out = String::with_capacity(160);
    out.push_str("{\"ev\":\"progress\",\"id\":");
    sfq_partition::json::write_escaped(&mut out, id);
    out.push_str(",\"trace\":");
    event.write_jsonl_into(&mut out);
    out.push('}');
    out
}

/// The per-restart half of [`ProgressStream`], moved onto the restart's
/// thread under parallel restarts.
struct ProgressRestart {
    conn: ConnWriter,
    id: String,
    restart: usize,
    every: u64,
}

impl RestartObserver for ProgressRestart {
    fn on_iteration(&mut self, event: &IterationEvent<'_>) {
        if !(event.iteration as u64).is_multiple_of(self.every) {
            return;
        }
        let record = TraceEvent::iteration(self.restart, event);
        self.conn.send_line(&progress_line(&self.id, &record));
    }

    fn on_recovery(&mut self, event: &RecoveryEvent) {
        let record = TraceEvent::recovery(self.restart, event);
        self.conn.send_line(&progress_line(&self.id, &record));
    }

    fn on_refine(&mut self, event: &RefineEvent) {
        let record = TraceEvent::refine(self.restart, event);
        self.conn.send_line(&progress_line(&self.id, &record));
    }

    fn on_restart_end(&mut self, event: &RestartEndEvent) {
        let record = TraceEvent::restart_end(self.restart, event);
        self.conn.send_line(&progress_line(&self.id, &record));
    }
}

impl SolveObserver for ProgressStream {
    type Restart = ProgressRestart;

    fn on_solve_start(&mut self, event: &SolveStartEvent) {
        let record = TraceEvent::solve_start(event);
        self.conn.send_line(&progress_line(&self.id, &record));
    }

    fn begin_restart(&mut self, restart: usize) -> ProgressRestart {
        let record = TraceEvent::restart_start(restart);
        self.conn.send_line(&progress_line(&self.id, &record));
        ProgressRestart {
            conn: self.conn.clone(),
            id: self.id.clone(),
            restart,
            every: self.every,
        }
    }

    fn absorb_restart(&mut self, _restart: usize, _observer: ProgressRestart) {}

    fn on_solve_end(&mut self, event: &SolveEndEvent) {
        let record = TraceEvent::solve_end(event);
        self.conn.send_line(&progress_line(&self.id, &record));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let config = DaemonConfig::default();
        assert!(config.workers >= 1);
        assert!(config.slots >= 1);
        assert!(config.queue_capacity >= 1);
        assert!(config.addr.ends_with(":0"), "tests default to ephemeral");
    }

    #[test]
    fn panic_messages_render_both_payload_shapes() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(s.as_ref()), "worker panicked: boom");
        let s: Box<dyn std::any::Any + Send> = Box::new("boom".to_string());
        assert_eq!(panic_message(s.as_ref()), "worker panicked: boom");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(s.as_ref()), "worker panicked");
    }
}

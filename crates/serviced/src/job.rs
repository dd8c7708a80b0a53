//! Job lifecycle: the exactly-one-terminal-state machine and the
//! per-job phase span.
//!
//! Several parties race to end a job — the worker that solves it, a
//! `cancel` frame, the disconnect sweeper, the admission path. The
//! invariant the chaos suite pins is that every job reaches **exactly
//! one** terminal state and emits exactly one terminal frame. The
//! [`JobHandle::finish`] transition is the single point that decides the
//! race: first caller wins, everyone else is told to stand down.
//!
//! Every job also carries a [`JobSpan`]: monotonic phase boundaries
//! (received → admitted → started → settled) stamped as nanosecond
//! offsets on one [`Stopwatch`] started at construction. The span makes
//! queue-wait, solve, and total durations first-class data for the ops
//! registry ([`crate::ops`]) instead of something reconstructed from
//! logs.

use sfq_partition::budget::Stopwatch;
use sfq_partition::witness::{self, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sfq_partition::{CancelToken, Deadline};

/// The terminal-state taxonomy (see DESIGN.md §Failure modes). `Rejected`
/// is reached only on the admission path; the other four only after
/// admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalKind {
    /// A partition was returned (freshly solved or from the cache).
    Done,
    /// Cancelled by a `cancel` frame or a client disconnect.
    Cancelled,
    /// The service-level deadline fired before a result existed.
    DeadlineExceeded,
    /// Refused at admission (queue full, draining, duplicate id, invalid).
    Rejected,
    /// The job failed (panic, repeated divergence, invalid options).
    Failed,
}

/// Sentinel for a phase boundary not yet stamped.
const UNSET: u64 = u64::MAX;

/// A settled job's phase durations, in nanoseconds, derived from its
/// [`JobSpan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseDurations {
    /// Admission to worker pickup. A job settled while still queued (a
    /// cancel frame, a deadline storm) counts its whole post-admission
    /// life as queue wait.
    pub queue_wait_ns: u64,
    /// Worker pickup to settle (cache probe + slot wait + solve). Zero
    /// for jobs that never reached a worker.
    pub solve_ns: u64,
    /// Received (frame parse) to settle.
    pub total_ns: u64,
}

/// Monotonic phase boundaries for one job, stamped as nanosecond offsets
/// from the receive instant.
///
/// Each stamp is a compare-exchange from the unset sentinel, so the first
/// stamper wins and the boundaries are immutable afterwards — racing
/// settlers (worker vs. canceller) cannot move a phase once recorded.
/// Stamps are advisory telemetry: nothing in the scheduler branches on
/// them (the `clippy.toml` clock discipline — the span exposes elapsed time
/// only as data, through the core crate's [`Stopwatch`]).
#[derive(Debug)]
pub struct JobSpan {
    watch: Stopwatch,
    admitted: AtomicU64,
    started: AtomicU64,
    settled: AtomicU64,
}

impl JobSpan {
    fn new() -> Self {
        JobSpan {
            watch: Stopwatch::start(),
            admitted: AtomicU64::new(UNSET),
            started: AtomicU64::new(UNSET),
            settled: AtomicU64::new(UNSET),
        }
    }

    fn stamp(&self, cell: &AtomicU64) {
        let now = self.watch.elapsed_ns().min(UNSET - 1);
        let _ = cell.compare_exchange(UNSET, now, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Stamps admission (queue push succeeded). First caller wins.
    pub fn stamp_admitted(&self) {
        self.stamp(&self.admitted);
    }

    /// Stamps worker pickup. First caller wins.
    pub fn stamp_started(&self) {
        self.stamp(&self.started);
    }

    /// Stamps the terminal transition. First caller wins.
    pub fn stamp_settled(&self) {
        self.stamp(&self.settled);
    }

    /// Phase durations, once the job has settled (`None` before that).
    /// A missing `started` boundary (settled while queued) attributes the
    /// whole post-admission life to queue wait.
    #[must_use]
    pub fn phases(&self) -> Option<PhaseDurations> {
        let settled = self.settled.load(Ordering::Relaxed);
        if settled == UNSET {
            return None;
        }
        let admitted = self.admitted.load(Ordering::Relaxed);
        let admitted = if admitted == UNSET { settled } else { admitted };
        let started = self.started.load(Ordering::Relaxed);
        let started = if started == UNSET { settled } else { started };
        Some(PhaseDurations {
            queue_wait_ns: started.saturating_sub(admitted),
            solve_ns: settled.saturating_sub(started),
            total_ns: settled,
        })
    }
}

/// The shared per-job record: cancellation token, admission-time deadline,
/// the phase span, and the terminal-state cell.
#[derive(Debug)]
pub struct JobHandle {
    /// Client-chosen id.
    pub id: String,
    /// Raised to abort the job between iterations.
    pub cancel: CancelToken,
    /// Armed at admission; queue wait counts against it.
    pub deadline: Deadline,
    /// Phase boundaries; the receive instant is this handle's construction.
    pub span: JobSpan,
    terminal: Mutex<Option<TerminalKind>>,
}

impl JobHandle {
    /// A fresh, non-terminal job.
    #[must_use]
    pub fn new(id: String, deadline_ms: Option<u64>) -> Self {
        JobHandle {
            id,
            cancel: CancelToken::new(),
            deadline: Deadline::after_ms(deadline_ms),
            span: JobSpan::new(),
            terminal: witness::mutex("serviced:jobhandle::terminal", None),
        }
    }

    /// Attempts the terminal transition. Returns `true` for exactly one
    /// caller per job; that caller — and only that caller — sends the
    /// terminal frame and records the ops-registry entry.
    pub fn finish(&self, kind: TerminalKind) -> bool {
        let mut cell = self.terminal.lock().unwrap_or_else(|e| e.into_inner());
        if cell.is_some() {
            return false;
        }
        *cell = Some(kind);
        true
    }

    /// The terminal state, once one has been reached.
    #[must_use]
    pub fn terminal(&self) -> Option<TerminalKind> {
        *self.terminal.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether [`JobHandle::finish`] has already been won.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        self.terminal().is_some()
    }
}

/// The jobs one connection has admitted and not yet seen settle.
///
/// Settled handles are dropped whenever a new job is tracked, so a
/// long-lived connection holds only its unsettled jobs — at most what the
/// queue and the workers can hold at once — rather than every job it ever
/// submitted.
#[derive(Debug, Default)]
pub(crate) struct ConnJobs {
    jobs: Vec<Arc<JobHandle>>,
}

impl ConnJobs {
    /// Records a newly admitted job, first dropping every settled one.
    pub(crate) fn track(&mut self, job: Arc<JobHandle>) {
        self.jobs.retain(|j| !j.is_terminal());
        self.jobs.push(job);
    }

    /// Whether every tracked job has reached its terminal state.
    pub(crate) fn all_settled(&self) -> bool {
        self.jobs.iter().all(|j| j.is_terminal())
    }

    /// The disconnect sweep: raises the cancel token of every job that
    /// has not settled and hands it to `settle`, which races for its
    /// terminal exactly as a `cancel` frame would.
    pub(crate) fn cancel_unsettled(self, mut settle: impl FnMut(&Arc<JobHandle>)) {
        for job in self.jobs {
            if !job.is_terminal() {
                job.cancel.cancel();
                settle(&job);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_one_finish_wins() {
        let job = JobHandle::new("j".into(), None);
        assert!(!job.is_terminal());
        assert!(job.finish(TerminalKind::Done));
        assert!(!job.finish(TerminalKind::Cancelled));
        assert_eq!(job.terminal(), Some(TerminalKind::Done));
    }

    #[test]
    fn concurrent_finishers_produce_one_winner() {
        for _ in 0..50 {
            let job = Arc::new(JobHandle::new("j".into(), None));
            let threads: Vec<_> = [
                TerminalKind::Done,
                TerminalKind::Cancelled,
                TerminalKind::DeadlineExceeded,
                TerminalKind::Failed,
            ]
            .into_iter()
            .map(|kind| {
                let job = Arc::clone(&job);
                std::thread::spawn(move || u32::from(job.finish(kind)))
            })
            .collect();
            let wins: u32 = threads.into_iter().map(|t| t.join().unwrap()).sum();
            assert_eq!(wins, 1);
        }
    }

    #[test]
    fn deadline_is_armed_at_construction() {
        let job = JobHandle::new("j".into(), Some(0));
        assert!(job.deadline.expired());
        let job = JobHandle::new("j".into(), None);
        assert!(!job.deadline.expired());
    }

    #[test]
    fn span_phases_appear_only_after_settle() {
        let span = JobSpan::new();
        span.stamp_admitted();
        assert_eq!(span.phases(), None);
        span.stamp_started();
        assert_eq!(span.phases(), None);
        span.stamp_settled();
        let phases = span.phases().unwrap();
        // total spans received→settled, so it also covers the
        // received→admitted gap the two phase durations exclude.
        assert!(phases.total_ns >= phases.queue_wait_ns + phases.solve_ns);
    }

    #[test]
    fn first_stamp_wins() {
        let span = JobSpan::new();
        span.stamp_settled();
        let first = span.phases().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        span.stamp_settled();
        assert_eq!(span.phases().unwrap(), first, "settle boundary immutable");
    }

    #[test]
    fn settled_while_queued_counts_as_queue_wait() {
        let span = JobSpan::new();
        span.stamp_admitted();
        std::thread::sleep(std::time::Duration::from_millis(1));
        span.stamp_settled();
        let phases = span.phases().unwrap();
        assert_eq!(phases.solve_ns, 0, "never started → no solve time");
        assert!(phases.queue_wait_ns > 0);
        assert!(phases.total_ns >= phases.queue_wait_ns);
    }

    #[test]
    fn conn_jobs_hold_only_unsettled_jobs() {
        let mut owned = ConnJobs::default();
        let mut live = Vec::new();
        for i in 0..5000 {
            let job = Arc::new(JobHandle::new(format!("j{i}"), None));
            owned.track(Arc::clone(&job));
            if i % 1000 == 999 {
                live.push(job);
            } else {
                assert!(job.finish(TerminalKind::Done));
            }
        }
        // The last track pruned everything settled before it.
        assert_eq!(owned.jobs.len(), live.len());
        let mut swept = Vec::new();
        owned.cancel_unsettled(|job| {
            assert!(job.finish(TerminalKind::Cancelled));
            swept.push(job.id.clone());
        });
        let live_ids: Vec<_> = live.iter().map(|j| j.id.clone()).collect();
        assert_eq!(swept, live_ids);
        assert!(live.iter().all(|j| j.cancel.is_cancelled()));
    }

    #[test]
    fn sweep_skips_jobs_settled_since_the_last_track() {
        let mut owned = ConnJobs::default();
        let done = Arc::new(JobHandle::new("done".into(), None));
        let open = Arc::new(JobHandle::new("open".into(), None));
        owned.track(Arc::clone(&done));
        owned.track(Arc::clone(&open));
        assert!(done.finish(TerminalKind::Done));
        let mut swept = Vec::new();
        owned.cancel_unsettled(|job| swept.push(job.id.clone()));
        assert_eq!(swept, ["open"]);
        assert!(!done.cancel.is_cancelled(), "a settled job is left alone");
        assert_eq!(done.terminal(), Some(TerminalKind::Done));
    }
}

//! The service ops-metrics registry: every number a live `sfqpartd`
//! reports, in one fixed-capacity, lock-free structure.
//!
//! The registry is *counting*, not sampling: every admission, terminal
//! transition, retry, contained panic, and cache probe increments an
//! atomic, and every settled job's phase durations land in power-of-two
//! [`LogHistogram`] buckets. Counting keeps the terminal-ledger invariant
//! (`done + cancelled + deadline_exceeded + failed == submitted`) exact —
//! the same books the chaos suite balances — where sampling would only
//! approximate it, and the cost is a handful of relaxed atomic RMWs per
//! job, far below the solve itself. The registry has no off switch: every
//! daemon counts, so sfqbench's `service_mixed` workload times the service
//! with it on.
//!
//! Memory ordering is `Relaxed` throughout: each counter is independently
//! monotonic and nothing ever branches on one (the registry is advisory
//! telemetry, read by `stats` frames and the drain summary). The only
//! cross-counter guarantee callers get is per-job program order — a job's
//! terminal is recorded before the worker that settled it moves on — which
//! is exactly what the end-of-run ledger checks need. High-water gauges
//! use `fetch_max`, so concurrent observers converge on the true peak.
//!
//! Everything is fixed-capacity (65 buckets per histogram, one cell per
//! counter), so the record paths allocate nothing and take no locks; the
//! A1 lint and the allocation sanitizer hold the hot paths to that.

use std::sync::atomic::{AtomicU64, Ordering};

use sfq_partition::budget::Stopwatch;
use sfq_partition::telemetry::LogHistogram;
use sfq_partition::witness;

use crate::job::{PhaseDurations, TerminalKind};
use crate::protocol::StatsSnapshot;

/// A [`LogHistogram`] with atomic buckets, recordable from any thread
/// without a lock. Same bucketing, through [`LogHistogram::bucket`].
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; 65],
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl AtomicHistogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        // The bucket index is ≤ 64 — always in range for the 65-slot array
        // (and A1-provably no-alloc, where a `.get()` would resolve
        // ambiguously across the workspace).
        self.buckets[LogHistogram::bucket(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-data snapshot of the current bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> LogHistogram {
        let mut out = [0u64; 65];
        for (slot, bucket) in out.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        LogHistogram::from_buckets(out)
    }
}

/// RAII slot-occupancy marker: created when a job reserves its restart
/// fan-out from the [`SlotPool`](sfq_partition::SlotPool), released (and
/// the gauge decremented) when the job's slots return.
#[derive(Debug)]
pub struct SlotOccupancy<'a> {
    registry: &'a OpsRegistry,
    slots: u64,
}

impl Drop for SlotOccupancy<'_> {
    fn drop(&mut self) {
        self.registry
            .slots_in_use
            .fetch_sub(self.slots, Ordering::Relaxed);
    }
}

/// The registry: monotonic counters, high-water gauges, and per-phase
/// latency histograms for one daemon.
#[derive(Debug)]
pub struct OpsRegistry {
    started: Stopwatch,
    submitted: AtomicU64,
    done: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cancelled: AtomicU64,
    deadline_exceeded: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    retries: AtomicU64,
    panics: AtomicU64,
    queue_depth_hw: AtomicU64,
    running_hw: AtomicU64,
    slots_in_use: AtomicU64,
    slots_hw: AtomicU64,
    queue_wait_ns: AtomicHistogram,
    solve_ns: AtomicHistogram,
    total_ns: AtomicHistogram,
}

impl Default for OpsRegistry {
    fn default() -> Self {
        OpsRegistry::new()
    }
}

impl OpsRegistry {
    /// A fresh registry with every counter at zero.
    #[must_use]
    pub fn new() -> Self {
        OpsRegistry {
            started: Stopwatch::start(),
            submitted: AtomicU64::new(0),
            done: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            queue_depth_hw: AtomicU64::new(0),
            running_hw: AtomicU64::new(0),
            slots_in_use: AtomicU64::new(0),
            slots_hw: AtomicU64::new(0),
            queue_wait_ns: AtomicHistogram::default(),
            solve_ns: AtomicHistogram::default(),
            total_ns: AtomicHistogram::default(),
        }
    }

    /// Records an admission.
    pub fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a terminal transition (the [`JobHandle::finish`]
    /// (crate::job::JobHandle::finish) winner calls this, exactly once per
    /// job).
    pub fn record_terminal(&self, kind: TerminalKind) {
        let counter = match kind {
            TerminalKind::Done => &self.done,
            TerminalKind::Cancelled => &self.cancelled,
            TerminalKind::DeadlineExceeded => &self.deadline_exceeded,
            TerminalKind::Rejected => &self.rejected,
            TerminalKind::Failed => &self.failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a settled job's phase durations into the latency
    /// histograms.
    pub fn record_phases(&self, phases: &PhaseDurations) {
        self.queue_wait_ns.record(phases.queue_wait_ns);
        self.solve_ns.record(phases.solve_ns);
        self.total_ns.record(phases.total_ns);
    }

    /// Records a `done` served from the result cache.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cacheable request that missed the cache and solved fresh.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a divergence retry.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a contained worker panic.
    pub fn record_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds an observed queue depth into the high-water gauge.
    pub fn record_queue_depth(&self, depth: u64) {
        self.queue_depth_hw.fetch_max(depth, Ordering::Relaxed);
    }

    /// Folds an observed concurrently-running count into its high-water
    /// gauge.
    pub fn record_running(&self, running: u64) {
        self.running_hw.fetch_max(running, Ordering::Relaxed);
    }

    /// Marks `slots` restart slots occupied until the returned marker
    /// drops, folding the new occupancy into the high-water gauge.
    pub fn occupy_slots(&self, slots: u64) -> SlotOccupancy<'_> {
        let now = self.slots_in_use.fetch_add(slots, Ordering::Relaxed) + slots;
        self.slots_hw.fetch_max(now, Ordering::Relaxed);
        SlotOccupancy {
            registry: self,
            slots,
        }
    }

    /// Snapshot for a `stats` frame. `queued`/`running` are live scheduler
    /// state, not registry state; the caller fills them in. Lock-witness
    /// violation counters come from [`witness::violation_kinds`] — nonzero
    /// only under the `lock_witness` feature.
    #[must_use]
    pub fn snapshot(&self, queued: u64, running: u64) -> StatsSnapshot {
        let locks = witness::violation_kinds();
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            queued,
            running,
            done: self.done.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            queue_depth_hw: self.queue_depth_hw.load(Ordering::Relaxed),
            running_hw: self.running_hw.load(Ordering::Relaxed),
            slots_in_use: self.slots_in_use.load(Ordering::Relaxed),
            slots_hw: self.slots_hw.load(Ordering::Relaxed),
            uptime_ns: self.started.elapsed_ns(),
            lock_reacquires: locks.reacquire,
            lock_inversions: locks.inversion,
            lock_wait_holds: locks.wait_while_holding,
            queue_wait_ns: self.queue_wait_ns.snapshot(),
            solve_ns: self.solve_ns.snapshot(),
            total_ns: self.total_ns.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_snapshot_reflects_counts() {
        let ops = OpsRegistry::new();
        ops.record_submitted();
        ops.record_submitted();
        ops.record_terminal(TerminalKind::Done);
        ops.record_cache_hit();
        ops.record_cache_miss();
        ops.record_terminal(TerminalKind::Failed);
        ops.record_retry();
        ops.record_panic();
        ops.record_phases(&PhaseDurations {
            queue_wait_ns: 100,
            solve_ns: 900,
            total_ns: 1000,
        });
        let s = ops.snapshot(3, 1);
        assert_eq!(s.submitted, 2);
        assert_eq!(s.done, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.failed, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.panics, 1);
        assert_eq!(s.queued, 3);
        assert_eq!(s.running, 1);
        assert_eq!(s.queue_wait_ns.count(), 1);
        assert_eq!(s.solve_ns.count(), 1);
        assert_eq!(s.total_ns.count(), 1);
        assert!(s.uptime_ns > 0);
    }

    #[test]
    fn high_water_gauges_keep_the_peak() {
        let ops = OpsRegistry::new();
        ops.record_queue_depth(3);
        ops.record_queue_depth(7);
        ops.record_queue_depth(2);
        ops.record_running(1);
        ops.record_running(4);
        ops.record_running(2);
        let s = ops.snapshot(0, 0);
        assert_eq!(s.queue_depth_hw, 7);
        assert_eq!(s.running_hw, 4);
    }

    #[test]
    fn slot_occupancy_is_raii() {
        let ops = OpsRegistry::new();
        {
            let _a = ops.occupy_slots(3);
            let _b = ops.occupy_slots(2);
            let s = ops.snapshot(0, 0);
            assert_eq!(s.slots_in_use, 5);
            assert_eq!(s.slots_hw, 5);
        }
        let s = ops.snapshot(0, 0);
        assert_eq!(s.slots_in_use, 0);
        assert_eq!(s.slots_hw, 5, "high water survives release");
    }

    #[test]
    fn atomic_histogram_matches_loghistogram_bucketing() {
        let atomic = AtomicHistogram::default();
        let mut plain = LogHistogram::new();
        for v in [0, 1, 2, 3, 700, 40_000, u64::MAX] {
            atomic.record(v);
            plain.record(v);
        }
        assert_eq!(atomic.snapshot(), plain);
    }
}

//! Persistent worker pool for deterministic intra-descent parallelism.
//!
//! The fused engine's chunked sweeps originally ran on `crossbeam` scoped
//! threads spawned per evaluation. That was correct but allocated on every
//! call (thread stacks, join handles), which breaks the engine's
//! zero-allocation contract precisely when it matters most — large problems
//! iterating thousands of times per restart. [`ChunkPool`] replaces the
//! per-call spawn with a fixed set of workers created once in
//! [`CostEngine::new`](crate::engine::CostEngine::new) and parked between
//! epochs.
//!
//! # Why this shape
//!
//! * **Zero allocation after construction** — every staging buffer
//!   (the weight-matrix copy, per-chunk outputs) is pre-sized in
//!   [`ChunkPool::new`]. Dispatch and completion use `Mutex`/`Condvar`/
//!   `RwLock`, whose lock/wait/notify operations do not allocate on the
//!   futex-backed platforms this repo targets. The allocation-sanitizer
//!   test (`crates/core/tests/alloc_sanitizer.rs`) pins this dynamically.
//! * **Bit-identical to the serial chunked sweep** — workers run the same
//!   chunk kernels ([`gate_pass_chunk`], [`edge_gather_chunk`],
//!   [`grad_pass_chunk`]) over the same fixed bounds, and the engine folds
//!   the per-chunk partials in chunk order after every epoch. Threading
//!   changes wall-clock time, never a bit of the result.
//! * **100% safe Rust** — `crates/core` carries `#![forbid(unsafe_code)]`.
//!   Workers never see a borrow of engine state: inputs are copied into a
//!   shared [`RwLock`] staging area between epochs, outputs live in
//!   per-chunk `Mutex` slots that only their owning worker touches during
//!   an epoch.
//!
//! # Epoch protocol
//!
//! One evaluation runs up to three epochs (gate, edge, gradient sweep):
//!
//! 1. The engine writes the pass inputs under the `input` write lock. No
//!    worker holds a read guard here — the previous epoch's completion
//!    barrier only opens after every worker has dropped it.
//! 2. It resets the `done` counter, bumps `job.epoch`, and notifies.
//! 3. Each worker observes the new epoch, takes the `input` read lock,
//!    runs its chunk into its own output slot, drops the read guard, and
//!    decrements `done` (notifying on zero).
//! 4. The engine wakes, folds the per-chunk outputs in chunk order, and
//!    re-raises any worker panic.
//!
//! Thread-confinement rule D3 (enforced by `sfqlint`) allows thread
//! creation only here and in `engine.rs`, so chunk layout and fold order
//! stay auditable in two adjacent files.

use crate::witness::{self, Condvar, Mutex, MutexGuard, RwLock};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::budget::{Interrupt, StopCause};
use crate::engine::{edge_gather_chunk, gate_pass_chunk, grad_pass_chunk, GradConsts};
use crate::weights::WeightMatrix;

/// Locks a mutex, continuing through poisoning: a panicked worker's payload
/// is re-raised by the dispatcher, so the data behind a poisoned lock is
/// never trusted past that point anyway.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which sweep the current epoch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PassKind {
    /// Nothing dispatched yet (epoch 0 placeholder).
    Idle,
    /// Fused gate sweep ([`gate_pass_chunk`]) over the gate chunks.
    Gate,
    /// CSR edge gather ([`edge_gather_chunk`]) over the edge chunks.
    Edge,
    /// Gradient write sweep ([`grad_pass_chunk`]) over the gate chunks.
    Grad,
}

/// Everything the workers need that is fixed for the engine's lifetime:
/// problem data, the CSR adjacency, chunk layout, and the padded-lane
/// coefficient vectors. Bundled so construction, [`Clone`], and the worker
/// loop stay in sync by type rather than by argument order.
#[derive(Debug, Clone)]
pub(crate) struct PoolSpec {
    /// Per-gate bias currents (copied from the problem; workers cannot
    /// borrow engine-lifetime data).
    pub bias: Vec<f64>,
    /// Per-gate areas.
    pub area: Vec<f64>,
    /// CSR adjacency offsets (`G + 1`).
    pub csr_offsets: Vec<u32>,
    /// Packed CSR neighbors (`2·E`, high bit = source side).
    pub csr_neighbors: Vec<u32>,
    /// Cost exponent `p`.
    pub exponent: f64,
    /// `F₁` normalization `N₁`.
    pub n1: f64,
    /// Use the paper's unsigned `F₁` force convention.
    pub paper_f1_sign: bool,
    /// Fixed gate-sweep chunk bounds.
    pub gate_bounds: Vec<(usize, usize)>,
    /// Fixed edge-gather chunk bounds (contiguous gate ranges).
    pub edge_bounds: Vec<(usize, usize)>,
    /// Number of planes `K`.
    pub num_planes: usize,
    /// Plane numbers `k+1` as floats, padded to the row stride.
    pub plane_coeff: Vec<f64>,
    /// `1.0` for real planes, `0.0` for padding.
    pub mask: Vec<f64>,
}

/// Staging area the engine fills before each epoch; workers read it through
/// the `RwLock` while running their chunk.
#[derive(Debug)]
struct PassInput {
    /// Copy of the weight matrix under evaluation (gate + gradient sweeps).
    w: WeightMatrix,
    /// Gate labels from the preceding gate sweep (edge sweep).
    labels: Vec<f64>,
    /// Row sums from the preceding gate sweep (gradient sweep).
    row_sums: Vec<f64>,
    /// Folded interconnect forces (gradient sweep).
    force: Vec<f64>,
    /// Per-plane `F₂` gradient coefficients, padded (gradient sweep).
    coeff_bias: Vec<f64>,
    /// Per-plane `F₃` gradient coefficients, padded (gradient sweep).
    coeff_area: Vec<f64>,
    /// Per-iteration gradient constants (gradient sweep).
    consts: GradConsts,
}

/// Per-chunk output slot for the gate sweep.
#[derive(Debug)]
struct GateOut {
    /// Labels for the chunk's gates (chunk-length prefix used).
    labels: Vec<f64>,
    /// Row sums for the chunk's gates (chunk-length prefix used).
    row_sums: Vec<f64>,
    /// Per-plane bias partial sums, padded to the row stride.
    bias: Vec<f64>,
    /// Per-plane area partial sums, padded to the row stride.
    area: Vec<f64>,
    /// Raw `F₄` partial.
    f4: f64,
}

/// Per-chunk output slot for the edge gather.
#[derive(Debug)]
struct EdgeOut {
    /// Raw `F₁` partial.
    f1: f64,
    /// Force values for this chunk's gate range (chunk-length prefix used;
    /// the gather writes each slot exactly once, so no prefill is needed).
    force: Vec<f64>,
}

/// Per-chunk output slot for the gradient sweep (`chunk_len × stride` rows).
#[derive(Debug)]
struct GradOut {
    out: Vec<f64>,
}

/// Epoch dispatch cell guarded by [`Shared::job`].
#[derive(Debug)]
struct Job {
    /// Monotone epoch counter; workers run once per observed change.
    epoch: u64,
    /// Sweep to run this epoch.
    kind: PassKind,
    /// Set by [`ChunkPool::drop`]; workers exit their loop.
    shutdown: bool,
}

/// State shared between the dispatching engine and the workers.
#[derive(Debug)]
struct Shared {
    /// Fixed problem data, chunk layout, and kernel configuration.
    spec: PoolSpec,
    input: RwLock<PassInput>,
    job: Mutex<Job>,
    job_cv: Condvar,
    /// Workers still running the current epoch.
    done: Mutex<usize>,
    done_cv: Condvar,
    /// First captured worker panic, re-raised by the dispatcher.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    gate_out: Vec<Mutex<GateOut>>,
    edge_out: Vec<Mutex<EdgeOut>>,
    grad_out: Vec<Mutex<GradOut>>,
}

/// A fixed set of parked worker threads running chunked sweeps on demand.
///
/// Created once per [`CostEngine`](crate::engine::CostEngine) when
/// intra-descent parallelism is requested on a chunked problem; dropped
/// with the engine (workers are signalled and joined).
pub(crate) struct ChunkPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for ChunkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkPool")
            .field("workers", &self.workers)
            .field("gate_chunks", &self.shared.spec.gate_bounds.len())
            .field("edge_chunks", &self.shared.spec.edge_bounds.len())
            .finish()
    }
}

impl Clone for ChunkPool {
    /// Clones the configuration, not the threads: the clone gets its own
    /// fresh worker set over the same problem data and chunk layout.
    fn clone(&self) -> Self {
        ChunkPool::new(self.shared.spec.clone())
    }
}

impl ChunkPool {
    /// Builds the shared state, pre-sizes every buffer, and spawns one
    /// worker per chunk (the larger of the two chunk counts).
    pub(crate) fn new(spec: PoolSpec) -> Self {
        let g = spec.bias.len();
        let k = spec.num_planes;
        let stride = spec.plane_coeff.len();
        let gate_out = spec
            .gate_bounds
            .iter()
            .map(|&(start, end)| {
                witness::mutex(
                    "core:shared::chunk_out",
                    GateOut {
                        labels: vec![0.0; end - start],
                        row_sums: vec![0.0; end - start],
                        bias: vec![0.0; stride],
                        area: vec![0.0; stride],
                        f4: 0.0,
                    },
                )
            })
            .collect();
        let edge_out = spec
            .edge_bounds
            .iter()
            .map(|&(start, end)| {
                witness::mutex(
                    "core:shared::chunk_out",
                    EdgeOut {
                        f1: 0.0,
                        force: vec![0.0; end - start],
                    },
                )
            })
            .collect();
        let grad_out = spec
            .gate_bounds
            .iter()
            .map(|&(start, end)| {
                witness::mutex(
                    "core:shared::chunk_out",
                    GradOut {
                        out: vec![0.0; (end - start) * stride],
                    },
                )
            })
            .collect();
        let workers = spec.gate_bounds.len().max(spec.edge_bounds.len());
        let input = witness::rwlock(
            "core:shared::input",
            PassInput {
                w: WeightMatrix::uniform(g, k),
                labels: vec![0.0; g],
                row_sums: vec![0.0; g],
                force: vec![0.0; g],
                coeff_bias: vec![0.0; stride],
                coeff_area: vec![0.0; stride],
                consts: GradConsts::default(),
            },
        );
        let shared = Arc::new(Shared {
            spec,
            input,
            job: witness::mutex(
                "core:shared::job",
                Job {
                    epoch: 0,
                    kind: PassKind::Idle,
                    shutdown: false,
                },
            ),
            job_cv: witness::condvar("core:shared::job_cv"),
            done: witness::mutex("core:shared::done", 0),
            done_cv: witness::condvar("core:shared::done_cv"),
            panic: witness::mutex("core:shared::panic", None),
            gate_out,
            edge_out,
            grad_out,
        });
        let handles = (0..workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, idx))
            })
            .collect();
        ChunkPool {
            shared,
            handles,
            workers,
        }
    }

    /// Runs one epoch of `kind` across all workers and waits for the
    /// completion barrier; re-raises the first worker panic, if any.
    fn run_epoch(&self, kind: PassKind) {
        {
            let mut done = lock(&self.shared.done);
            *done = self.workers;
        }
        {
            let mut job = lock(&self.shared.job);
            job.epoch = job.epoch.wrapping_add(1);
            job.kind = kind;
        }
        self.shared.job_cv.notify_all();
        {
            let mut done = lock(&self.shared.done);
            while *done > 0 {
                done = self
                    .shared
                    .done_cv
                    .wait(done)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        if let Some(payload) = lock(&self.shared.panic).take() {
            resume_unwind(payload);
        }
    }

    /// Dispatches the gate sweep and writes the per-chunk results back into
    /// the engine's buffers: `labels`/`row_sums` (length `G`) and the
    /// `[bias stride | area stride | f4]` partials laid out with `pstride`
    /// per chunk.
    pub(crate) fn gate_pass(
        &self,
        w: &WeightMatrix,
        labels: &mut [f64],
        row_sums: &mut [f64],
        partials: &mut [f64],
        pstride: usize,
    ) {
        {
            let mut input = self
                .shared
                .input
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            input.w.as_mut_slice().copy_from_slice(w.as_slice());
        }
        self.run_epoch(PassKind::Gate);
        let stride = self.shared.spec.plane_coeff.len();
        for (idx, &(start, end)) in self.shared.spec.gate_bounds.iter().enumerate() {
            let out = lock(&self.shared.gate_out[idx]);
            let len = end - start;
            labels[start..end].copy_from_slice(&out.labels[..len]);
            row_sums[start..end].copy_from_slice(&out.row_sums[..len]);
            let base = idx * pstride;
            partials[base..base + stride].copy_from_slice(&out.bias);
            partials[base + stride..base + 2 * stride].copy_from_slice(&out.area);
            partials[base + 2 * stride] = out.f4;
        }
    }

    /// Dispatches the edge gather and writes the per-chunk `F₁` partials and
    /// each chunk's gate-range force values directly into the engine's force
    /// buffer — no per-chunk scatter, no fold.
    pub(crate) fn edge_pass(&self, labels: &[f64], f1_partials: &mut [f64], force: &mut [f64]) {
        {
            let mut input = self
                .shared
                .input
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            input.labels.copy_from_slice(labels);
        }
        self.run_epoch(PassKind::Edge);
        for (idx, &(start, end)) in self.shared.spec.edge_bounds.iter().enumerate() {
            let out = lock(&self.shared.edge_out[idx]);
            f1_partials[idx] = out.f1;
            force[start..end].copy_from_slice(&out.force[..end - start]);
        }
    }

    /// Dispatches the gradient write sweep and copies the per-chunk rows
    /// back into `out` (padded row-major `G×stride`).
    #[allow(clippy::too_many_arguments)] // hot-loop plumbing, kept flat on purpose
    pub(crate) fn grad_pass(
        &self,
        w: &WeightMatrix,
        row_sums: &[f64],
        force: &[f64],
        coeff_bias: &[f64],
        coeff_area: &[f64],
        consts: GradConsts,
        out: &mut [f64],
    ) {
        {
            let mut input = self
                .shared
                .input
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            input.w.as_mut_slice().copy_from_slice(w.as_slice());
            input.row_sums.copy_from_slice(row_sums);
            input.force.copy_from_slice(force);
            input.coeff_bias.copy_from_slice(coeff_bias);
            input.coeff_area.copy_from_slice(coeff_area);
            input.consts = consts;
        }
        self.run_epoch(PassKind::Grad);
        let stride = self.shared.spec.plane_coeff.len();
        for (idx, &(start, end)) in self.shared.spec.gate_bounds.iter().enumerate() {
            let slot = lock(&self.shared.grad_out[idx]);
            out[start * stride..end * stride].copy_from_slice(&slot.out[..(end - start) * stride]);
        }
    }
}

impl Drop for ChunkPool {
    fn drop(&mut self) {
        {
            let mut job = lock(&self.shared.job);
            job.shutdown = true;
        }
        self.shared.job_cv.notify_all();
        for handle in self.handles.drain(..) {
            // A worker that panicked already parked its payload; nothing
            // useful is left to re-raise during drop.
            let _ = handle.join();
        }
    }
}

/// Worker body: waits for epoch bumps, runs this worker's chunk of the
/// dispatched sweep, and decrements the completion barrier. Panics inside
/// the chunk are captured so the barrier always closes; the dispatcher
/// re-raises them.
fn worker_loop(shared: &Shared, idx: usize) {
    let mut seen = 0u64;
    loop {
        let kind = {
            let mut job = lock(&shared.job);
            loop {
                if job.shutdown {
                    return;
                }
                if job.epoch != seen {
                    seen = job.epoch;
                    break job.kind;
                }
                job = shared
                    .job_cv
                    .wait(job)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| run_chunk(shared, idx, kind)));
        if let Err(payload) = result {
            let mut slot = lock(&shared.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut done = lock(&shared.done);
        *done = done.saturating_sub(1);
        if *done == 0 {
            shared.done_cv.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// SlotPool: the compute-slot half of a two-level scheduler
// ---------------------------------------------------------------------------

/// How long a blocked [`SlotPool::acquire`] sleeps between [`Interrupt`]
/// polls. Bounds the cancellation latency of a job still waiting for slots;
/// acquisitions racing an actual release are woken immediately by the
/// condvar, so this only paces the poll, not the hand-off.
const ACQUIRE_POLL: Duration = Duration::from_millis(10);

/// Capacity ledger of a [`SlotPool`], guarded by one mutex/condvar pair.
#[derive(Debug)]
struct SlotLedger {
    free: Mutex<usize>,
    freed: Condvar,
    capacity: usize,
}

/// A counting semaphore over a fixed budget of compute slots — the
/// generalization of [`ChunkPool`]'s fixed worker set to *competing* solves.
///
/// [`ChunkPool`] answers "how do `n` threads split one solve" with a private
/// worker set per engine; nothing bounds how many engines exist at once. A
/// service running many concurrent jobs needs the second scheduling level:
/// a machine-wide slot budget that each job's worker threads are counted
/// against before its engine is ever built. `SlotPool` is that budget —
/// jobs acquire the number of slots their configuration will occupy
/// (restart threads × chunk workers, or just 1 for a serial solve), run,
/// and release by dropping the guard.
///
/// Like everything in this module it is dependency-free `Mutex`/`Condvar`
/// engineering: no fairness queue (waiters race on wake; admission ordering
/// is the *job* scheduler's responsibility, one level up) and no
/// oversubscription bookkeeping beyond the counter. Guards release on drop,
/// so a panicking job can never leak its slots past its unwind.
#[derive(Debug, Clone)]
pub struct SlotPool {
    ledger: Arc<SlotLedger>,
}

impl SlotPool {
    /// A pool of `capacity` slots (at least 1; 0 is clamped so the pool can
    /// always make progress).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SlotPool {
            ledger: Arc::new(SlotLedger {
                free: witness::mutex("core:ledger::free", capacity),
                freed: witness::condvar("core:ledger::freed"),
                capacity,
            }),
        }
    }

    /// Total slots this pool was built with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ledger.capacity
    }

    /// Slots currently unclaimed. Advisory: another thread may take them
    /// between this read and an acquire.
    #[must_use]
    pub fn available(&self) -> usize {
        *lock(&self.ledger.free)
    }

    /// Clamps a request to the pool's capacity: a job asking for more
    /// parallelism than the machine budget gets the whole budget, never a
    /// deadlock.
    fn clamped(&self, slots: usize) -> usize {
        slots.clamp(1, self.ledger.capacity)
    }

    /// Claims `slots` slots without blocking, or returns `None` if fewer
    /// are free right now. Requests are clamped to `1..=capacity`.
    #[must_use]
    pub fn try_acquire(&self, slots: usize) -> Option<SlotGuard> {
        let want = self.clamped(slots);
        let mut free = lock(&self.ledger.free);
        if *free >= want {
            *free -= want;
            Some(SlotGuard {
                ledger: Arc::clone(&self.ledger),
                slots: want,
            })
        } else {
            None
        }
    }

    /// Claims `slots` slots, blocking until they free up or `interrupt`
    /// fires (checked every [`ACQUIRE_POLL`] and on every release).
    /// Requests are clamped to `1..=capacity`, so the wait can always end.
    ///
    /// # Errors
    ///
    /// Returns the [`StopCause`] when the interrupt fires before the slots
    /// are claimed — how a cancelled job leaves the slot queue without ever
    /// having run.
    pub fn acquire(&self, slots: usize, interrupt: &Interrupt) -> Result<SlotGuard, StopCause> {
        let want = self.clamped(slots);
        let mut free = lock(&self.ledger.free);
        loop {
            if *free >= want {
                *free -= want;
                return Ok(SlotGuard {
                    ledger: Arc::clone(&self.ledger),
                    slots: want,
                });
            }
            if let Some(cause) = interrupt.poll() {
                return Err(cause);
            }
            free = self
                .ledger
                .freed
                .wait_timeout(free, ACQUIRE_POLL)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// Slots held from a [`SlotPool`]; released back on drop (panic-safe).
#[derive(Debug)]
pub struct SlotGuard {
    ledger: Arc<SlotLedger>,
    slots: usize,
}

impl SlotGuard {
    /// How many slots this guard holds (after clamping).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        let mut free = lock(&self.ledger.free);
        *free = (*free + self.slots).min(self.ledger.capacity);
        drop(free);
        self.ledger.freed.notify_all();
    }
}

/// Runs worker `idx`'s chunk of the `kind` sweep. Workers whose index has
/// no chunk in this sweep (gate and edge chunk counts can differ) return
/// immediately and only participate in the barrier.
fn run_chunk(shared: &Shared, idx: usize, kind: PassKind) {
    let spec = &shared.spec;
    let input = shared.input.read().unwrap_or_else(PoisonError::into_inner);
    match kind {
        PassKind::Idle => {}
        PassKind::Gate => {
            let Some(&(start, end)) = spec.gate_bounds.get(idx) else {
                return;
            };
            let Some(slot) = shared.gate_out.get(idx) else {
                return;
            };
            let out = &mut *lock(slot);
            out.bias.fill(0.0);
            out.area.fill(0.0);
            out.f4 = 0.0;
            let len = end - start;
            let GateOut {
                labels,
                row_sums,
                bias,
                area,
                f4,
            } = out;
            gate_pass_chunk(
                &input.w,
                &spec.plane_coeff,
                &spec.bias,
                &spec.area,
                start,
                end,
                &mut labels[..len],
                &mut row_sums[..len],
                bias,
                area,
                f4,
            );
        }
        PassKind::Edge => {
            let Some(&(start, end)) = spec.edge_bounds.get(idx) else {
                return;
            };
            let Some(slot) = shared.edge_out.get(idx) else {
                return;
            };
            let out = &mut *lock(slot);
            out.f1 = 0.0;
            let EdgeOut { f1, force } = out;
            let len = end - start;
            edge_gather_chunk(
                &spec.csr_offsets,
                &spec.csr_neighbors,
                &input.labels,
                spec.exponent,
                spec.n1,
                spec.paper_f1_sign,
                start,
                end,
                f1,
                &mut force[..len],
            );
        }
        PassKind::Grad => {
            let Some(&(start, end)) = spec.gate_bounds.get(idx) else {
                return;
            };
            let Some(slot) = shared.grad_out.get(idx) else {
                return;
            };
            let out = &mut *lock(slot);
            grad_pass_chunk(
                &input.w,
                &spec.plane_coeff,
                &spec.mask,
                &spec.bias,
                &spec.area,
                start,
                end,
                &input.row_sums[start..end],
                &input.force,
                &input.coeff_bias,
                &input.coeff_area,
                input.consts,
                &mut out.out,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::CancelToken;

    #[test]
    fn slot_pool_try_acquire_counts() {
        let pool = SlotPool::new(4);
        assert_eq!(pool.capacity(), 4);
        let a = pool.try_acquire(3).expect("3 of 4 free");
        assert_eq!(a.slots(), 3);
        assert_eq!(pool.available(), 1);
        assert!(pool.try_acquire(2).is_none(), "only 1 left");
        let b = pool.try_acquire(1).expect("last slot");
        assert_eq!(pool.available(), 0);
        drop(a);
        assert_eq!(pool.available(), 3);
        drop(b);
        assert_eq!(pool.available(), 4);
    }

    #[test]
    fn slot_pool_clamps_oversized_requests() {
        let pool = SlotPool::new(2);
        // Asking for more than exists yields the whole budget, not a hang.
        let guard = pool.try_acquire(100).expect("clamped to capacity");
        assert_eq!(guard.slots(), 2);
        // Zero is clamped up to one.
        drop(guard);
        let one = pool.try_acquire(0).expect("clamped to one");
        assert_eq!(one.slots(), 1);
    }

    #[test]
    fn slot_pool_zero_capacity_is_clamped() {
        let pool = SlotPool::new(0);
        assert_eq!(pool.capacity(), 1);
        assert!(pool.try_acquire(1).is_some());
    }

    #[test]
    fn acquire_blocks_until_released() {
        let pool = SlotPool::new(1);
        let held = pool.try_acquire(1).expect("free");
        let waiter = {
            let pool = pool.clone();
            std::thread::spawn(move || pool.acquire(1, &Interrupt::none()).map(|g| g.slots()))
        };
        // Give the waiter time to park, then release.
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        assert_eq!(waiter.join().expect("no panic"), Ok(1));
    }

    #[test]
    fn acquire_aborts_on_cancel() {
        let pool = SlotPool::new(1);
        let _held = pool.try_acquire(1).expect("free");
        let token = CancelToken::new();
        let waiter = {
            let pool = pool.clone();
            let interrupt = Interrupt::with_cancel(token.clone());
            std::thread::spawn(move || pool.acquire(1, &interrupt))
        };
        std::thread::sleep(Duration::from_millis(20));
        token.cancel();
        let err = waiter.join().expect("no panic").expect_err("cancelled");
        assert_eq!(err, StopCause::Cancelled);
        // The failed acquire must not have leaked any capacity.
        assert_eq!(pool.available(), 0);
    }
}

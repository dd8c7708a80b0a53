//! The compute-slot budget competing solves share.
//!
//! A solve's only threads are its restart workers, one per restart when
//! [`SolverOptions::parallel`](crate::solver::SolverOptions::parallel) is
//! set (spawned by
//! [`engine::parallel_map`](crate::engine::parallel_map)); every
//! engine sweep runs on the thread of the restart that owns it. [`SlotPool`]
//! bounds how many of those threads a process runs at once: a service
//! acquires the slots a job will occupy before it builds the job's solver.

use crate::witness::{self, Condvar, Mutex, MutexGuard};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

use crate::budget::{Interrupt, StopCause};

/// Locks a mutex, continuing through poisoning: every critical section
/// leaves the counter consistent, so a poisoned ledger is still a valid one.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

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

/// A counting semaphore over a fixed budget of compute slots, shared by
/// *competing* solves.
///
/// Nothing inside a solve bounds how many solves run at once. A service
/// running many concurrent jobs needs that second scheduling level: a
/// machine-wide slot budget that each job's threads are counted against
/// before its solver is ever built. `SlotPool` is that budget — jobs
/// acquire the number of slots their configuration will occupy (one per
/// restart thread, or just 1 for a serial solve), run, and release by
/// dropping the guard.
///
/// It is dependency-free `Mutex`/`Condvar` engineering: no fairness queue
/// (waiters race on wake; admission ordering is the *job* scheduler's
/// responsibility, one level up) and no oversubscription bookkeeping beyond
/// the counter. Guards release on drop, so a panicking job can never leak
/// its slots past its unwind.
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

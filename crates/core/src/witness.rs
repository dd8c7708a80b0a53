//! Runtime lock witness: the dynamic cross-check for sfqlint's L1/L2.
//!
//! Compiled two ways, switched by the `lock_witness` cargo feature:
//!
//! * **Off (default, production):** the exported names are plain type
//!   aliases onto `std::sync` and the named constructors forward to
//!   `Mutex::new`/`Condvar::new`. Zero overhead, zero behavior change.
//! * **On (`--features lock_witness`, test/CI only):** the same names
//!   resolve to tracked wrappers that tag every lock with a *class* label
//!   (the same `crate:owner::field` ids sfqlint's L1 uses), maintain a
//!   per-thread held-set, and record every observed acquired-while-holding
//!   edge in a global class×class table. Violations are counted, never
//!   panicked: a panic inside a daemon worker would be swallowed by the
//!   panic fence and converted into a poisoned-job error, masking the
//!   very bug being hunted. Tests assert [`violations`]` == 0` at the end
//!   instead (the chaos replay in `crates/serviced/tests/lock_witness.rs`
//!   does exactly that).
//!
//! Three violation kinds are detected, mirroring the static rules:
//!
//! * **Re-acquire** — a thread acquires a class it already holds
//!   (`std::sync::Mutex` is not reentrant; with one instance per class
//!   this is a guaranteed self-deadlock).
//! * **Inversion** — a thread acquires `B` while holding `A` after some
//!   thread (possibly itself, earlier) acquired `A` while holding `B`.
//!   This is the dynamic image of L1's cycle check: it catches real
//!   interleavings the static rule can only over-approximate, including
//!   through trait objects and function pointers the call graph loses.
//! * **Blocking wait while holding** — a condvar wait entered while the
//!   thread holds any lock other than the wait's own mutex (L2's condvar
//!   clause).
//!
//! The tracked `lock()` deliberately absorbs mutex poisoning (the
//! `LockResult` it returns is always `Ok`): every consumer in this
//! workspace bridges poisoning with `unwrap_or_else(PoisonError::
//! into_inner)` — the daemon's whole fault model depends on surviving
//! poisoned locks — so re-wrapping the guard in a fresh `PoisonError`
//! would add an allocation-free-rule exception for zero information.
//! Condvar waits preserve the tuple shape of `std` (`wait_timeout`
//! returns the `(guard, WaitTimeoutResult)` pair) for drop-in use.
//!
//! Capacity limits are fixed so the witness itself never allocates on a
//! lock operation: at most [`MAX_CLASSES`] distinct classes (excess
//! classes share a spill slot — still sound, just coarser) and
//! [`MAX_HELD`] simultaneously held locks per thread (excess holds are
//! not tracked; the workspace never nests deeper than 3).

/// Maximum distinct lock classes tracked; later registrations share the
/// last slot.
pub const MAX_CLASSES: usize = 64;

/// Maximum simultaneously held locks tracked per thread.
pub const MAX_HELD: usize = 16;

/// One recorded violation: what happened, while holding which class,
/// acquiring (or waiting on) which class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// `"re-acquire"`, `"inversion"`, or `"wait-while-holding"`.
    pub kind: &'static str,
    /// Class already held by the thread.
    pub held: &'static str,
    /// Class being acquired or waited on.
    pub acquired: &'static str,
}

/// Per-kind violation tally, exported through the `sfqpartd` `stats`
/// frame so a lock-witness CI build surfaces discipline breaks on a live
/// daemon, not only in test assertions. All zeros without the
/// `lock_witness` feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViolationKinds {
    /// Re-acquisitions of an already-held class.
    pub reacquire: u64,
    /// Lock-order inversions against the observed edge table.
    pub inversion: u64,
    /// Condvar waits entered while holding another lock.
    pub wait_while_holding: u64,
}

#[cfg(not(feature = "lock_witness"))]
mod imp {
    use super::{Violation, ViolationKinds};

    /// Workspace mutex type; `std::sync::Mutex` in production builds.
    pub type Mutex<T> = std::sync::Mutex<T>;
    /// Workspace mutex guard; `std::sync::MutexGuard` in production builds.
    pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;
    /// Workspace condvar type; `std::sync::Condvar` in production builds.
    pub type Condvar = std::sync::Condvar;

    /// A mutex carrying a lock-class label (ignored in production builds).
    pub fn mutex<T>(_class: &'static str, value: T) -> Mutex<T> {
        std::sync::Mutex::new(value)
    }

    /// A condvar carrying a lock-class label (ignored in production
    /// builds).
    pub fn condvar(_class: &'static str) -> Condvar {
        std::sync::Condvar::new()
    }

    /// Number of lock-discipline violations observed (always 0 without
    /// the `lock_witness` feature).
    pub fn violations() -> usize {
        0
    }

    /// The first violation observed, if any (always `None` without the
    /// `lock_witness` feature).
    pub fn first_violation() -> Option<Violation> {
        None
    }

    /// Per-kind violation counts (always zero without the `lock_witness`
    /// feature).
    pub fn violation_kinds() -> ViolationKinds {
        ViolationKinds::default()
    }
}

#[cfg(feature = "lock_witness")]
mod imp {
    use super::{Violation, ViolationKinds, MAX_CLASSES, MAX_HELD};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{LockResult, PoisonError, WaitTimeoutResult};
    use std::time::Duration;

    /// Workspace mutex type; class-tracked under `lock_witness`.
    pub type Mutex<T> = TrackedMutex<T>;
    /// Workspace mutex guard; class-tracked under `lock_witness`.
    pub type MutexGuard<'a, T> = TrackedMutexGuard<'a, T>;
    /// Workspace condvar type; class-tracked under `lock_witness`.
    pub type Condvar = TrackedCondvar;

    /// Class-name registry: index in this table = bit position in the
    /// edge table rows. Plain `std::sync` types on purpose — the witness
    /// must not witness itself.
    static REGISTRY: std::sync::Mutex<[Option<&'static str>; MAX_CLASSES]> =
        std::sync::Mutex::new([None; MAX_CLASSES]);

    /// Observed acquired-while-holding edges: bit `to` of `EDGES[from]`.
    #[allow(clippy::declare_interior_mutable_const)] // array-init seed only
    static EDGES: [AtomicU64; MAX_CLASSES] = {
        const ZERO: AtomicU64 = AtomicU64::new(0);
        [ZERO; MAX_CLASSES]
    };

    static VIOLATIONS: AtomicUsize = AtomicUsize::new(0);
    static REACQUIRES: AtomicUsize = AtomicUsize::new(0);
    static INVERSIONS: AtomicUsize = AtomicUsize::new(0);
    static WAIT_HOLDS: AtomicUsize = AtomicUsize::new(0);
    static FIRST: std::sync::Mutex<Option<Violation>> = std::sync::Mutex::new(None);

    #[derive(Clone, Copy)]
    struct HeldEntry {
        class: usize,
        name: &'static str,
    }

    struct HeldSet {
        entries: [HeldEntry; MAX_HELD],
        len: usize,
    }

    thread_local! {
        static HELD: RefCell<HeldSet> = const {
            RefCell::new(HeldSet {
                entries: [HeldEntry { class: usize::MAX, name: "" }; MAX_HELD],
                len: 0,
            })
        };
    }

    fn class_id(name: &'static str) -> usize {
        let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        let mut first_free = None;
        for (i, slot) in reg.iter().enumerate() {
            match slot {
                Some(n) if *n == name => return i,
                None if first_free.is_none() => first_free = Some(i),
                _ => {}
            }
        }
        match first_free {
            Some(i) => {
                reg[i] = Some(name);
                i
            }
            // Registry full: spill into the last slot; edges stay sound,
            // just coarser.
            None => MAX_CLASSES - 1,
        }
    }

    fn record_violation(kind: &'static str, held: &'static str, acquired: &'static str) {
        VIOLATIONS.fetch_add(1, Ordering::SeqCst);
        let by_kind = match kind {
            "re-acquire" => &REACQUIRES,
            "inversion" => &INVERSIONS,
            _ => &WAIT_HOLDS,
        };
        by_kind.fetch_add(1, Ordering::SeqCst);
        let mut first = FIRST.lock().unwrap_or_else(|e| e.into_inner());
        if first.is_none() {
            *first = Some(Violation {
                kind,
                held,
                acquired,
            });
        }
    }

    /// Token proving a lock of `class` is in this thread's held-set;
    /// removing it on drop is the release.
    struct HeldToken {
        class: usize,
        name: &'static str,
    }

    /// Records the acquisition edges and pushes onto the held-set. Called
    /// *before* the underlying blocking lock call, so a deadlocked
    /// interleaving still records the edge that caused it.
    fn hold(class: usize, name: &'static str) -> HeldToken {
        HELD.with(|cell| {
            let mut held = cell.borrow_mut();
            for entry in &held.entries[..held.len] {
                if entry.class == class {
                    record_violation("re-acquire", entry.name, name);
                } else {
                    EDGES[entry.class].fetch_or(1 << class, Ordering::SeqCst);
                    if EDGES[class].load(Ordering::SeqCst) & (1 << entry.class) != 0 {
                        record_violation("inversion", entry.name, name);
                    }
                }
            }
            if held.len < MAX_HELD {
                let at = held.len;
                held.entries[at] = HeldEntry { class, name };
                held.len += 1;
            }
        });
        HeldToken { class, name }
    }

    /// Flags a blocking wait entered while holding anything but the
    /// wait's own mutex.
    fn check_wait(own_class: usize, cv_name: &'static str) {
        HELD.with(|cell| {
            let held = cell.borrow();
            for entry in &held.entries[..held.len] {
                if entry.class != own_class {
                    record_violation("wait-while-holding", entry.name, cv_name);
                }
            }
        });
    }

    impl HeldToken {
        /// Consumes the token, releasing its held-set entry via `Drop`.
        /// Named (not a bare `drop(token)` call) because sfqlint's graph
        /// fans a `drop(...)` call out by name to every `Drop` impl in
        /// the crate, which would put `SlotGuard::drop` inside every
        /// condvar wait.
        fn retire(self) {}
    }

    impl Drop for HeldToken {
        fn drop(&mut self) {
            // try_with: guards can outlive the thread-local during thread
            // teardown; a missed remove on a dying thread is harmless.
            let _ = HELD.try_with(|cell| {
                let mut held = cell.borrow_mut();
                let mut i = held.len;
                while i > 0 {
                    i -= 1;
                    if held.entries[i].class == self.class {
                        held.len -= 1;
                        let last = held.len;
                        held.entries.swap(i, last);
                        break;
                    }
                }
            });
        }
    }

    /// A `std::sync::Mutex` tagged with an L1 lock class.
    pub struct TrackedMutex<T> {
        class: usize,
        name: &'static str,
        inner: std::sync::Mutex<T>,
    }

    /// Guard of a [`TrackedMutex`]; releases the held-set entry on drop.
    pub struct TrackedMutexGuard<'a, T> {
        token: HeldToken,
        guard: std::sync::MutexGuard<'a, T>,
    }

    impl<T> std::ops::Deref for TrackedMutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.guard
        }
    }

    impl<T> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.guard
        }
    }

    impl<T> TrackedMutex<T> {
        /// Acquires the mutex, recording the held-set edge first. Always
        /// `Ok`: poisoning is absorbed (see the module docs).
        pub fn lock(&self) -> LockResult<TrackedMutexGuard<'_, T>> {
            let token = hold(self.class, self.name);
            let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            Ok(TrackedMutexGuard { token, guard })
        }
    }

    impl<T> std::fmt::Debug for TrackedMutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("TrackedMutex")
                .field("class", &self.name)
                .finish_non_exhaustive()
        }
    }

    /// A `std::sync::Condvar` tagged with an L1 lock class.
    pub struct TrackedCondvar {
        name: &'static str,
        inner: std::sync::Condvar,
    }

    impl TrackedCondvar {
        /// Waits on the condvar, flagging the wait if any *other* lock is
        /// held, and keeping the held-set accurate across the release /
        /// re-acquire. Always `Ok` (poisoning absorbed).
        pub fn wait<'a, T>(
            &self,
            guard: TrackedMutexGuard<'a, T>,
        ) -> LockResult<TrackedMutexGuard<'a, T>> {
            let TrackedMutexGuard { token, guard } = guard;
            let class = token.class;
            let name = token.name;
            check_wait(class, self.name);
            token.retire();
            let inner = self
                .inner
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
            let token = hold(class, name);
            Ok(TrackedMutexGuard {
                token,
                guard: inner,
            })
        }

        /// Timed wait; same tracking as [`TrackedCondvar::wait`]. Always
        /// `Ok` (poisoning absorbed).
        #[allow(clippy::type_complexity)]
        pub fn wait_timeout<'a, T>(
            &self,
            guard: TrackedMutexGuard<'a, T>,
            dur: Duration,
        ) -> LockResult<(TrackedMutexGuard<'a, T>, WaitTimeoutResult)> {
            let TrackedMutexGuard { token, guard } = guard;
            let class = token.class;
            let name = token.name;
            check_wait(class, self.name);
            token.retire();
            let (inner, timeout) = self
                .inner
                .wait_timeout(guard, dur)
                .unwrap_or_else(PoisonError::into_inner);
            let token = hold(class, name);
            Ok((
                TrackedMutexGuard {
                    token,
                    guard: inner,
                },
                timeout,
            ))
        }

        /// Forwards to `std::sync::Condvar::notify_one`.
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        /// Forwards to `std::sync::Condvar::notify_all`.
        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }

    impl std::fmt::Debug for TrackedCondvar {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("TrackedCondvar")
                .field("class", &self.name)
                .finish_non_exhaustive()
        }
    }

    /// A mutex carrying an L1 lock-class label.
    pub fn mutex<T>(class: &'static str, value: T) -> Mutex<T> {
        TrackedMutex {
            class: class_id(class),
            name: class,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// A condvar carrying an L1 lock-class label (the condvar's own
    /// class, used in wait-while-holding reports).
    pub fn condvar(class: &'static str) -> Condvar {
        TrackedCondvar {
            name: class,
            inner: std::sync::Condvar::new(),
        }
    }

    /// Number of lock-discipline violations observed process-wide.
    pub fn violations() -> usize {
        VIOLATIONS.load(Ordering::SeqCst)
    }

    /// The first violation observed process-wide, if any.
    pub fn first_violation() -> Option<Violation> {
        *FIRST.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Per-kind violation counts process-wide.
    pub fn violation_kinds() -> ViolationKinds {
        ViolationKinds {
            reacquire: REACQUIRES.load(Ordering::SeqCst) as u64,
            inversion: INVERSIONS.load(Ordering::SeqCst) as u64,
            wait_while_holding: WAIT_HOLDS.load(Ordering::SeqCst) as u64,
        }
    }
}

pub use imp::{
    condvar, first_violation, mutex, violation_kinds, violations, Condvar, Mutex, MutexGuard,
};

#[cfg(all(test, feature = "lock_witness"))]
mod tests {
    use super::*;

    // The edge table and violation counter are process-global, so every
    // test uses its own class names, asserts on counter *deltas*, and
    // holds SERIAL so no two witness tests interleave their deltas.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn consistent_order_stays_clean() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let before = violations();
        let a = mutex("t1::a", 0u32);
        let b = mutex("t1::b", 0u32);
        for _ in 0..3 {
            let ga = a.lock().unwrap_or_else(|e| e.into_inner());
            let gb = b.lock().unwrap_or_else(|e| e.into_inner());
            drop(gb);
            drop(ga);
        }
        assert_eq!(violations(), before);
    }

    #[test]
    fn inversion_is_counted() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let before = violations();
        let a = mutex("t2::a", 0u32);
        let b = mutex("t2::b", 0u32);
        {
            let _ga = a.lock().unwrap_or_else(|e| e.into_inner());
            let _gb = b.lock().unwrap_or_else(|e| e.into_inner());
        }
        {
            let _gb = b.lock().unwrap_or_else(|e| e.into_inner());
            let _ga = a.lock().unwrap_or_else(|e| e.into_inner());
        }
        assert_eq!(violations(), before + 1);
    }

    #[test]
    fn reacquire_is_counted() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let before = violations();
        let a = mutex("t3::a", 0u32);
        let other = mutex("t3::a", 1u32); // same class, second instance
        let _g1 = a.lock().unwrap_or_else(|e| e.into_inner());
        let _g2 = other.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(violations(), before + 1);
        let v = first_violation();
        assert!(v.is_some());
    }

    #[test]
    fn violation_kinds_tally_per_kind() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let before = violation_kinds();
        let a = mutex("t8::a", 0u32);
        let same = mutex("t8::a", 1u32);
        let b = mutex("t8::b", 0u32);
        {
            let _g1 = a.lock().unwrap_or_else(|e| e.into_inner());
            let _g2 = same.lock().unwrap_or_else(|e| e.into_inner());
        }
        {
            let _ga = a.lock().unwrap_or_else(|e| e.into_inner());
            let _gb = b.lock().unwrap_or_else(|e| e.into_inner());
        }
        {
            let _gb = b.lock().unwrap_or_else(|e| e.into_inner());
            let _ga = a.lock().unwrap_or_else(|e| e.into_inner());
        }
        let after = violation_kinds();
        assert_eq!(after.reacquire, before.reacquire + 1);
        assert_eq!(after.inversion, before.inversion + 1);
        assert_eq!(after.wait_while_holding, before.wait_while_holding);
    }

    #[test]
    fn wait_holding_second_lock_is_counted() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let before = violations();
        let m = mutex("t4::m", 0u32);
        let extra = mutex("t4::extra", 0u32);
        let cv = condvar("t4::cv");
        let _held = extra.lock().unwrap_or_else(|e| e.into_inner());
        let g = m.lock().unwrap_or_else(|e| e.into_inner());
        let (_g, timeout) = cv
            .wait_timeout(g, std::time::Duration::from_millis(1))
            .unwrap_or_else(|e| e.into_inner());
        assert!(timeout.timed_out());
        assert_eq!(violations(), before + 1);
    }

    #[test]
    fn wait_on_own_mutex_is_clean_and_guard_still_works() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let before = violations();
        let m = mutex("t5::m", 7u32);
        let cv = condvar("t5::cv");
        let g = m.lock().unwrap_or_else(|e| e.into_inner());
        let (g, _) = cv
            .wait_timeout(g, std::time::Duration::from_millis(1))
            .unwrap_or_else(|e| e.into_inner());
        assert_eq!(*g, 7);
        assert_eq!(violations(), before);
    }

    #[test]
    fn cross_thread_inversion_is_detected() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let before = violations();
        let a = std::sync::Arc::new(mutex("t7::a", 0u32));
        let b = std::sync::Arc::new(mutex("t7::b", 0u32));
        {
            let _ga = a.lock().unwrap_or_else(|e| e.into_inner());
            let _gb = b.lock().unwrap_or_else(|e| e.into_inner());
        }
        let (a2, b2) = (std::sync::Arc::clone(&a), std::sync::Arc::clone(&b));
        std::thread::spawn(move || {
            let _gb = b2.lock().unwrap_or_else(|e| e.into_inner());
            let _ga = a2.lock().unwrap_or_else(|e| e.into_inner());
        })
        .join()
        .unwrap_or_else(|_| ());
        assert_eq!(violations(), before + 1);
    }
}

//! Wall-clock solve budgets — the only module that reads the clock.
//!
//! The workspace `clippy.toml` bans `Instant` and `SystemTime` everywhere
//! else, and this module carries the one exception. The vendored `rand` has
//! no entropy source, so every RNG is seeded explicitly. The rest of the
//! solver handles time exclusively through the opaque [`Deadline`] and
//! [`Stopwatch`] types, so a reviewer can audit "what can make two runs
//! differ" by reading this one file.
//!
//! A wall-clock deadline is *inherently* nondeterministic: a budgeted solve
//! may truncate at a different iteration from run to run depending on
//! machine load. What stays deterministic is everything else — the
//! iterations that do complete are bit-identical, which is why clock reads
//! must not leak into any arithmetic path.

#![expect(
    clippy::disallowed_types,
    reason = "the one module that reads the clock"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An optional wall-clock cutoff for a solve.
///
/// Constructed once per solve from
/// [`SolverOptions::deadline_ms`](crate::SolverOptions::deadline_ms) and
/// passed by value (it is `Copy`) into every restart.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No cutoff: [`Deadline::expired`] is always `false`.
    #[must_use]
    pub fn none() -> Self {
        Deadline(None)
    }

    /// A cutoff `ms` milliseconds from now, or [`Deadline::none`] for
    /// `None`. `Some(0)` yields a deadline that is already due — useful for
    /// probing the budget path deterministically.
    #[must_use]
    pub fn after_ms(ms: Option<u64>) -> Self {
        Deadline(ms.map(|ms| Instant::now() + Duration::from_millis(ms)))
    }

    /// Whether the cutoff has passed. Unbounded deadlines never expire.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether this deadline has no cutoff at all.
    #[must_use]
    pub fn is_unbounded(&self) -> bool {
        self.0.is_none()
    }

    /// The earlier of two cutoffs (an unbounded side never wins).
    #[must_use]
    pub fn earliest(self, other: Deadline) -> Deadline {
        match (self.0, other.0) {
            (Some(a), Some(b)) => Deadline(Some(a.min(b))),
            (Some(a), None) => Deadline(Some(a)),
            (None, b) => Deadline(b),
        }
    }
}

/// A cooperative cancellation flag shared between a solve and whoever may
/// abort it (a service connection handler, a signal handler, a test).
///
/// Cloning is cheap (an `Arc` bump); every clone observes the same flag.
/// Cancellation is one-way and sticky: once [`CancelToken::cancel`] is
/// called, every observer sees it forever. The solver polls the token at
/// iteration boundaries and between refinement passes — never inside an
/// arithmetic kernel — so a cancelled run stops on a completed, finite
/// iterate, exactly like a deadline'd one.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Why an [`Interrupt`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The wall-clock deadline passed.
    Deadline,
    /// The cancel token was raised.
    Cancelled,
}

/// Everything that can stop a solve from the outside, bundled: an optional
/// wall-clock [`Deadline`] and an optional [`CancelToken`].
///
/// The solver polls this at iteration boundaries, between restart forks,
/// and inside the refinement pass ([`crate::refine`]), so neither a
/// deadline nor a cancellation can overrun into a long refinement sweep.
/// Cancellation wins ties: a poll that observes both reports
/// [`StopCause::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct Interrupt {
    deadline: Deadline,
    cancel: Option<CancelToken>,
}

impl Interrupt {
    /// Never fires: no deadline, no cancel token.
    #[must_use]
    pub fn none() -> Self {
        Interrupt::default()
    }

    /// An interrupt from both sources.
    #[must_use]
    pub fn new(deadline: Deadline, cancel: Option<CancelToken>) -> Self {
        Interrupt { deadline, cancel }
    }

    /// Deadline-only interrupt (how [`SolverOptions::deadline_ms`]
    /// (crate::SolverOptions::deadline_ms) is enforced internally).
    #[must_use]
    pub fn with_deadline(deadline: Deadline) -> Self {
        Interrupt {
            deadline,
            cancel: None,
        }
    }

    /// Cancellation-only interrupt (what a service plumbs into a job).
    #[must_use]
    pub fn with_cancel(cancel: CancelToken) -> Self {
        Interrupt {
            deadline: Deadline::none(),
            cancel: Some(cancel),
        }
    }

    /// This interrupt with its deadline tightened to the earlier of its own
    /// and `deadline`.
    #[must_use]
    pub fn tightened(mut self, deadline: Deadline) -> Self {
        self.deadline = self.deadline.earliest(deadline);
        self
    }

    /// Polls both sources. Returns `None` while neither has fired;
    /// cancellation is reported over an expired deadline when both have.
    ///
    /// The cancel check is one atomic load; the deadline check reads the
    /// monotonic clock only when a cutoff is set. Poll at work-item
    /// granularity (an iteration, a refinement batch), not per arithmetic
    /// operation.
    #[must_use]
    pub fn poll(&self) -> Option<StopCause> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(StopCause::Cancelled);
        }
        if self.deadline.expired() {
            return Some(StopCause::Deadline);
        }
        None
    }

    /// Whether this interrupt can ever fire.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.deadline.is_unbounded() && self.cancel.is_none()
    }
}

/// A monotonic stopwatch for *observational* timing (telemetry kernels,
/// per-phase metrics).
///
/// Like [`Deadline`], this is the only clock handle the rest of the
/// workspace may hold: `clippy.toml` keeps `Instant` itself out of every
/// other module, and the API deliberately exposes elapsed time only as data
/// (nanoseconds) — never as something a solve path could branch on without
/// it being obvious in review that determinism is at stake.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a stopwatch at the current instant.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`], saturated to `u64`
    /// (enough for ~584 years).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_expires() {
        let d = Deadline::none();
        assert!(d.is_unbounded());
        assert!(!d.expired());
        assert!(Deadline::after_ms(None).is_unbounded());
        assert!(Deadline::default().is_unbounded());
    }

    #[test]
    fn zero_budget_is_immediately_due() {
        let d = Deadline::after_ms(Some(0));
        assert!(!d.is_unbounded());
        assert!(d.expired());
    }

    #[test]
    fn generous_budget_is_not_yet_due() {
        // 10 minutes: long enough that the test cannot flake on a loaded
        // machine, short enough to construct instantly.
        assert!(!Deadline::after_ms(Some(600_000)).expired());
    }

    #[test]
    fn stopwatch_is_monotone() {
        let watch = Stopwatch::start();
        let a = watch.elapsed_ns();
        let b = watch.elapsed_ns();
        assert!(b >= a);
    }
}

//! Level 1 of the two-level scheduler: the bounded admission queue.
//!
//! The daemon schedules on two axes. This queue decides *which jobs* may
//! occupy a worker thread (admission control: a full queue refuses loudly
//! with `Overloaded` instead of buffering without bound), and the
//! [`SlotPool`](sfq_partition::SlotPool) in the core crate decides *how
//! many restart threads* an admitted job may fan out to. Workers
//! block on [`JobQueue::pop`]; closing the queue lets them drain what was
//! already admitted and then exit — which is exactly the SIGTERM story.

use sfq_partition::witness::{self, Condvar, Mutex};
use std::collections::VecDeque;

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue is at capacity; the client should back off and retry.
    Overloaded,
    /// The queue is closed (daemon draining); nothing new is admitted.
    Closed,
}

#[derive(Debug)]
struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue with explicit rejection and drain semantics.
#[derive(Debug)]
pub struct JobQueue<T> {
    inner: Mutex<QueueInner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// A queue admitting at most `capacity` waiting items (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            inner: witness::mutex(
                "serviced:jobqueue::inner",
                QueueInner {
                    items: VecDeque::new(),
                    closed: false,
                },
            ),
            ready: witness::condvar("serviced:jobqueue::ready"),
            capacity: capacity.max(1),
        }
    }

    /// Admission capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently waiting.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .items
            .len()
    }

    /// Whether no items are waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits an item, returning the queue depth right after the push
    /// (the admitted item included — what a high-water gauge wants,
    /// observed under the same lock so no racing pop can understate it),
    /// or refuses with a typed reason.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Closed`] once [`JobQueue::close`] has run,
    /// [`AdmitError::Overloaded`] at capacity.
    pub fn push(&self, item: T) -> Result<usize, AdmitError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed {
            return Err(AdmitError::Closed);
        }
        if inner.items.len() >= self.capacity {
            return Err(AdmitError::Overloaded);
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocks for the next item. Returns `None` only when the queue is
    /// closed **and** empty — items admitted before the close still drain,
    /// so in-flight work finishes during a graceful shutdown.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: further pushes refuse with
    /// [`AdmitError::Closed`]; blocked poppers wake and drain the
    /// remainder.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }

    /// Whether the queue has been closed.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_is_fifo_and_reports_depth() {
        let q = JobQueue::new(4);
        assert_eq!(q.push(1), Ok(1));
        assert_eq!(q.push(2), Ok(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.push(3), Ok(1), "depth counts waiting items only");
    }

    #[test]
    fn overload_is_a_typed_refusal() {
        let q = JobQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(AdmitError::Overloaded));
        // Popping frees a slot.
        assert_eq!(q.pop(), Some(1));
        q.push(3).unwrap();
    }

    #[test]
    fn close_drains_then_ends() {
        let q = JobQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(AdmitError::Closed));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "stays terminated");
    }

    #[test]
    fn blocked_poppers_wake_on_push_and_close() {
        let q = Arc::new(JobQueue::new(4));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || (q.pop(), q.pop()))
        };
        q.push(7).unwrap();
        q.close();
        let (first, second) = waiter.join().unwrap();
        assert_eq!(first, Some(7));
        assert_eq!(second, None);
    }

    #[test]
    fn capacity_is_clamped() {
        let q: JobQueue<u32> = JobQueue::new(0);
        assert_eq!(q.capacity(), 1);
    }
}

//! `sfqpartd`: a fault-tolerant concurrent partitioning service.
//!
//! The solver crate answers one question — *given this netlist, which
//! ground plane does each gate go to?* — for one caller at a time. This
//! crate turns that into a shared service: a daemon that accepts solve
//! jobs over newline-delimited JSON on TCP and schedules them across a
//! bounded worker pool, with the failure handling a shared solver needs:
//!
//! * **Admission control** — a bounded queue refuses loudly (`rejected`
//!   with reason `overloaded`) instead of buffering without bound
//!   ([`sched::JobQueue`]).
//! * **Deadlines and budgets** — per-job `deadline_ms` is armed at
//!   admission and enforced inside the solver's descent loop via the core
//!   crate's [`Interrupt`](sfq_partition::Interrupt) machinery; queue
//!   wait counts against it.
//! * **Cooperative cancellation** — a `cancel` frame or a client
//!   disconnect raises the job's
//!   [`CancelToken`](sfq_partition::CancelToken); the solver stands down
//!   between iterations.
//! * **Panic isolation** — a worker panic fails only its own job; the
//!   pool self-heals ([`daemon`]).
//! * **Retry** — a solve in which every restart diverged is retried once
//!   on a perturbed seed before failing.
//! * **Result caching** — identical requests are served from a bounded
//!   content-addressed cache ([`cache`]).
//! * **Graceful drain** — SIGTERM (or a `drain` frame) stops admissions
//!   and lets everything already admitted reach its terminal state.
//! * **Observability** — every job carries a phase span
//!   (received → admitted → started → settled, [`job::JobSpan`]); an
//!   allocation-free atomic registry ([`ops`]) tracks counters, high-water
//!   gauges, and per-phase latency histograms, reported over the `stats`
//!   frame and a periodic `--ops-log` JSONL sink ([`opslog`]).
//!
//! The service invariant, pinned by the chaos suite
//! (`tests/chaos.rs`): every admitted job ends in **exactly one** of
//! `done` / `cancelled` / `deadline_exceeded` / `rejected` / `failed`,
//! and a faulty job never perturbs a healthy job's bit-identical result.
//!
//! The wire protocol is documented in [`protocol`] and README
//! §`sfqpartd`; live per-job progress streams as trace records (the same
//! JSONL schema as [`sfq_partition::telemetry`]) wrapped in `progress`
//! frames.
//!
//! No external dependencies: frames are read and written with the core
//! crate's JSON codec ([`json`], re-exported from
//! [`sfq_partition::json`]), transport is `std::net` confined to [`net`]
//! (lint rule I1), and all timing flows through the core crate's budget
//! types (rule D2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod job;
pub mod net;
pub mod ops;
pub mod opslog;
pub mod protocol;
pub mod sched;

pub use cache::ResultCache;
pub use client::Client;
pub use daemon::{Daemon, DaemonConfig};
pub use job::{JobHandle, JobSpan, PhaseDurations, TerminalKind};
pub use json::Json;
pub use ops::OpsRegistry;
pub use protocol::{FailureKind, ProblemSpec, Request, Response, SolveRequest, StatsSnapshot};
pub use sched::{AdmitError, JobQueue};
pub use sfq_partition::json;

//! `sfqbench`: one benchmark for the partition flow and the `sfqpartd`
//! service.
//!
//! Four workloads ([`catalog::WORKLOADS`]) each run in their own process
//! for a fixed number of seconds, check every output, and print one JSON
//! result line: the end-to-end metrics untraced, or the per-layer metrics
//! from a traced run that also writes its spans. [`compare`] applies the
//! bounds of `BENCHMARK.json` to two sets of results. See README.md.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod compare;
pub mod flow;
pub mod mix;
pub mod service;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

use sfq_partition::budget::Stopwatch;
use sfq_partition::PartitionMetrics;

use crate::catalog::RunResult;

/// Run time between two timed set-up builds (see [`SetupTimes`]).
const SETUP_EVERY_NS: u64 = 250_000_000;

/// One run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Workload name (one of [`catalog::WORKLOADS`]).
    pub workload: String,
    /// Input seed: circuits, solver seeds and the job mix derive from it.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a span file.
    pub trace: bool,
    /// Tiny inputs, for the smoke test only; never for numbers.
    pub quick: bool,
}

/// Runs one workload in this process.
///
/// # Errors
///
/// Unknown workload, or a set-up failure (a failed flow or job is counted
/// in the result instead).
pub fn run_workload(cfg: &RunConfig) -> Result<RunResult, String> {
    match cfg.workload.as_str() {
        "service_mixed" => service::run(cfg),
        _ => flow::run(cfg),
    }
}

/// Set-up build times, spread over a run; `setup_s` is their median.
///
/// The first build is the run's input. Between operations the run builds
/// its inputs again, once per [`SETUP_EVERY_NS`] of run time, times the
/// build and drops the copy. On a shared host, speed drifts by up to 2×
/// over seconds to minutes, so a block of back-to-back builds sees one
/// moment of it; builds spread over the run see the host the operations
/// see.
#[derive(Debug)]
pub struct SetupTimes {
    times: Vec<f64>,
    since: Stopwatch,
}

impl SetupTimes {
    /// Builds the run's input, timed.
    ///
    /// # Errors
    ///
    /// The error `build` returns.
    pub fn first<T>(build: impl FnOnce() -> Result<T, String>) -> Result<(T, Self), String> {
        let watch = Stopwatch::start();
        let value = build()?;
        let times = vec![watch.elapsed_ns() as f64 / 1e9];
        Ok((
            value,
            SetupTimes {
                times,
                since: Stopwatch::start(),
            },
        ))
    }

    /// Between two operations: if a build is due, times one and drops it
    /// (the drop, which drains a service daemon, is not timed).
    ///
    /// # Errors
    ///
    /// The error `build` returns.
    pub fn between_ops<T>(&mut self, build: impl FnOnce() -> Result<T, String>) -> Result<(), String> {
        if self.since.elapsed_ns() < SETUP_EVERY_NS {
            return Ok(());
        }
        let watch = Stopwatch::start();
        let value = build()?;
        self.times.push(watch.elapsed_ns() as f64 / 1e9);
        drop(value);
        self.since = Stopwatch::start();
        Ok(())
    }

    /// Median build time in seconds.
    #[must_use]
    pub fn median_s(&self) -> f64 {
        stats::median(&self.times).unwrap_or(0.0)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The names of [`quality`]'s three values, in order.
pub const QUALITY: [&str; 3] = ["d1_pct", "bias_use_pct", "area_use_pct"];

/// One partition's quality: `d ≤ 1` %, and the shares of the `K·B_max`
/// supply and the `K·A_max` strip area that gates use, in %.
#[must_use]
pub fn quality(m: &PartitionMetrics) -> [f64; 3] {
    [
        100.0 * m.cumulative_fraction(1),
        100.0 / (1.0 + m.i_comp_pct / 100.0),
        100.0 / (1.0 + m.a_fs_pct / 100.0),
    ]
}

/// The mean of each [`quality`] value over `samples`, named as in
/// [`QUALITY`].
pub fn mean_quality(samples: &[[f64; 3]]) -> impl Iterator<Item = (&'static str, f64)> + '_ {
    QUALITY
        .iter()
        .enumerate()
        .map(move |(k, &name)| (name, mean(samples.iter().filter_map(|q| q.get(k).copied()))))
}

/// Nanoseconds to milliseconds.
#[must_use]
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Where a traced run writes its spans: `out/` inside this package.
#[must_use]
pub fn span_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{seed}.jsonl"))
}

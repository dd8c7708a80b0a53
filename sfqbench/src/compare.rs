//! `sfqbench compare BASE NEW`: applies `BENCHMARK.json`'s bounds to two
//! results files, one row per (workload, end-to-end metric), by the
//! choosing-metrics rules: medians and quartiles per side; a metric whose
//! run-to-run spread is wider than its bound is *unresolved* unless every
//! new run beats every base run; a gain needs nine wins in ten pairs and a
//! median shift larger than the base spread.

use std::fmt::Write as _;

use sfq_partition::float::exactly;
use sfq_serviced::json::{self, Json};

use crate::catalog::{tail_quantile, RunResult, WORKLOADS};
use crate::stats::{median, quartiles, regressed, relative_iqr, Better};

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening, as a share of the base median.
    pub bound: f64,
}

/// The end-to-end metrics and bounds of a `BENCHMARK.json` text.
///
/// # Errors
///
/// Malformed JSON or a malformed `end_to_end` entry.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let field = |key: &str| e.get(key).and_then(Json::as_str);
            Some(Bound {
                name: field("name")?.to_string(),
                better: Better::parse(field("better")?)?,
                bound: e.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".to_string())
}

/// Parses a results file: one [`RunResult::record_line`] per line; blank
/// lines are skipped.
///
/// # Errors
///
/// The first line that does not parse.
pub fn parse_results(text: &str) -> Result<Vec<RunResult>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            RunResult::parse_record_line(l).ok_or(format!("line {}: not a result record", i + 1))
        })
        .collect()
}

/// How one (workload, metric) pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Wins nine pairs in ten and moves the median by more than the base
    /// runs' own spread.
    Better,
    /// Worse than the base median by more than the bound.
    Regression,
    /// The spread is wider than the bound: neither a regression nor a
    /// non-change can be told apart from noise.
    Unresolved,
    /// One side has no values.
    Missing,
}

impl Verdict {
    /// Table spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// Fraction of index-aligned pairs in which `new` beats `base`; ties
/// count for neither side.
#[must_use]
pub fn win_fraction(base: &[f64], new: &[f64], better: Better) -> f64 {
    let pairs = base.len().min(new.len());
    if pairs == 0 {
        return 0.0;
    }
    let wins = base
        .iter()
        .zip(new)
        .filter(|&(&b, &n)| better.is_better(n, b))
        .count();
    wins as f64 / pairs as f64
}

/// Judges one metric from its base and new run values.
#[must_use]
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(base_med), Some(new_med)) = (median(base), median(new)) else {
        return Verdict::Missing;
    };
    let spread = relative_iqr(base)
        .unwrap_or(0.0)
        .max(relative_iqr(new).unwrap_or(0.0));
    let all_better = base
        .iter()
        .all(|&b| new.iter().all(|&n| better.is_better(n, b)));
    if spread > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if regressed(base_med, new_med, better, bound) {
        return Verdict::Regression;
    }
    let base_iqr = quartiles(base).map_or(0.0, |[q1, _, q3]| q3 - q1);
    if win_fraction(base, new, better) >= 0.9
        && better.is_better(new_med, base_med)
        && (new_med - base_med).abs() > base_iqr
    {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

fn values(results: &[RunResult], workload: &str, metric: &str) -> Vec<f64> {
    results
        .iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

fn error_rate(results: &[RunResult], workload: &str) -> Option<f64> {
    let (attempted, failed) = results
        .iter()
        .filter(|r| r.workload == workload && !r.trace)
        .fold((0u64, 0u64), |(a, f), r| (a + r.attempted, f + r.failed));
    (attempted > 0).then(|| failed as f64 / attempted as f64)
}

fn describe(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!("{q2:.4} [{q1:.4}, {q3:.4}]"),
        None => "-".to_string(),
    }
}

/// Renders the comparison table and returns it with whether the new side
/// fails: a pair regressed, a metric or workload the base has is missing
/// from the new side, the new side failed more operations, or a new run
/// failed a check.
#[must_use]
pub fn compare(bounds: &[Bound], base: &[RunResult], new: &[RunResult]) -> (String, bool) {
    let mut out = String::new();
    let mut failing = false;
    let _ = writeln!(
        out,
        "{:<14} {:<14} {:>28} {:>28} {:>8} {:>6} {:>5}  verdict",
        "workload",
        "metric",
        "base median [q1, q3]",
        "new median [q1, q3]",
        "change",
        "bound",
        "wins"
    );
    for workload in WORKLOADS {
        for b in bounds {
            // Without a tail quantile the workload reports its median as
            // the tail; the `flow_p50_ms` row already judges it.
            if b.name == "flow_tail_ms" && tail_quantile(workload).is_none() {
                continue;
            }
            let (bv, nv) = (
                values(base, workload, &b.name),
                values(new, workload, &b.name),
            );
            if bv.is_empty() && nv.is_empty() {
                continue;
            }
            let v = verdict(&bv, &nv, b.better, b.bound);
            // Missing on the new side only: the new commit no longer
            // produces a number the base did.
            failing |= v == Verdict::Regression || (v == Verdict::Missing && nv.is_empty());
            let change = match (median(&bv), median(&nv)) {
                (Some(x), Some(y)) if !exactly(x, 0.0) => {
                    format!("{:+.2}%", 100.0 * (y - x) / x.abs())
                }
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{workload:<14} {:<14} {:>28} {:>28} {change:>8} {:>5.2}% {:>5.2}  {}",
                b.name,
                describe(&bv),
                describe(&nv),
                100.0 * b.bound,
                win_fraction(&bv, &nv, b.better),
                v.as_str()
            );
        }
        // Failed operations may not increase at all, and a workload the
        // base ran must have run on the new side.
        let (b, n) = (error_rate(base, workload), error_rate(new, workload));
        let row = match (b, n) {
            (None, None) => continue,
            (Some(_), None) => Verdict::Missing,
            (b, Some(n)) if n > b.unwrap_or(0.0) => Verdict::Regression,
            _ => Verdict::Ok,
        };
        failing |= row != Verdict::Ok;
        let rate = |r: Option<f64>| r.map_or("-".to_string(), |r| format!("{r:.6}"));
        let _ = writeln!(
            out,
            "{workload:<14} {:<14} {:>28} {:>28} {:>8} {:>6} {:>5}  {}",
            "error_rate",
            rate(b),
            rate(n),
            "-",
            "0%",
            "-",
            row.as_str()
        );
    }
    let incorrect = new.iter().filter(|r| !r.correct).count();
    if incorrect > 0 {
        failing = true;
        let _ = writeln!(out, "{incorrect} new run(s) failed an output check");
    }
    (out, failing)
}

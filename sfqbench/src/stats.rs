//! The benchmark's estimators: median, quartiles, nearest-rank
//! percentiles, and the regression-bound check. One implementation, shared
//! by the runner (per-run metrics) and `compare` (across runs).

use sfq_partition::float::exactly;

/// A percentile is refused unless at least this many samples lie beyond its
/// rank: fewer and the "tail" is a handful of individual outliers.
pub const MIN_BEYOND: usize = 10;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latency, memory, loss).
    Lower,
    /// Larger values are better (throughput, locality).
    Higher,
}

impl Better {
    /// Parses the `BENCHMARK.json` spelling (`"lower"` / `"higher"`).
    #[must_use]
    pub fn parse(text: &str) -> Option<Better> {
        match text {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// Whether `a` is strictly better than `b`.
    #[must_use]
    pub fn is_better(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// Median of `values` (mean of the middle two for an even count); `None`
/// for an empty slice or when any value is NaN.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values)?;
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted.get(mid).copied()
    } else {
        Some((sorted.get(mid.checked_sub(1)?)? + sorted.get(mid)?) / 2.0)
    }
}

/// The three quartiles of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method, linear interpolation between order statistics). A single value
/// is its own quartiles; `None` for an empty slice or NaN input.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values)?;
    let n = data.len();
    if n == 1 {
        let x = *data.first()?;
        return Some([x; 3]);
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed on purpose: with very few points Python extrapolates
        // (delta < 0), and matching its numbers is the point.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data.get(j - 1)? * (4.0 - delta) + data.get(j)? * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread the bounds are judged against. `None` when undefined (no data,
/// or a zero median).
#[must_use]
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (!exactly(q2, 0.0)).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q·n` samples at or below it. Refused (`None`) when fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank, when `q` is outside
/// `(0, 1]`, or when the slice is empty.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if !(q > 0.0 && q <= 1.0) || sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    sorted.get(rank - 1).copied()
}

/// The tail a run reports: the `q` percentile of an ascending slice when
/// [`percentile`] accepts it, otherwise the median — with too few samples
/// beyond it, a "tail" is a handful of single outliers. The flag says which
/// one was returned (`true`: the percentile).
#[must_use]
pub fn tail_or_median(sorted: &[f64], q: f64) -> Option<(f64, bool)> {
    match percentile(sorted, q) {
        Some(value) => Some((value, true)),
        None => median(sorted).map(|m| (m, false)),
    }
}

/// Whether `new` is worse than `base` by more than `bound`, a share of
/// `base` (0.05 = 5%). An improvement never regresses.
#[must_use]
pub fn regressed(base: f64, new: f64, better: Better, bound: f64) -> bool {
    let slack = bound * base.abs();
    match better {
        Better::Lower => new > base + slack,
        Better::Higher => new < base - slack,
    }
}

fn sorted(values: &[f64]) -> Option<Vec<f64>> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    Some(data)
}

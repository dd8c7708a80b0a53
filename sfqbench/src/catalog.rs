//! What the benchmark reports: the workload names, every metric's name and
//! unit, and the one-line JSON result a run prints last. `BENCHMARK.json`
//! at the repository root must list the same names and units (the smoke
//! test pins that); it adds each metric's direction and bound.

use std::collections::BTreeMap;

use sfq_serviced::json::{self, Json};

/// The four workloads, in the order the full run executes them.
pub const WORKLOADS: [&str; 4] = ["table1_full", "c1908_k30", "s1m_k5", "service_mixed"];

/// The nearest-rank percentile a workload reports as `flow_tail_ms`: the
/// highest that its usual flow count per run leaves ten samples beyond.
/// `None` for `s1m_k5`, whose ≈8 flows per run leave no percentile with ten
/// beyond it; it reports its median there, and `compare` skips that row.
#[must_use]
pub fn tail_quantile(workload: &str) -> Option<f64> {
    match workload {
        // Rank 0.95 falls inside ID8's flows, the slowest circuit's.
        "table1_full" | "service_mixed" => Some(0.95),
        // ≈85 flows per run: p90 would leave eight beyond it.
        "c1908_k30" => Some(0.75),
        _ => None,
    }
}

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, printed by every untraced run of every workload.
/// For a solver workload a *flow* is DEF text (or raw arrays) → problem →
/// solve → metrics → recycling plan; for `service_mixed` it is one job,
/// submit → terminal frame.
///
/// `flow_p50_ms` is each input's median flow time, averaged over the
/// workload's inputs; `flow_tail_ms` is the [`tail_quantile`] over all its
/// flows, or the median when fewer than ten flows lie beyond it.
/// All four workloads are closed loops, so throughput is the window over
/// the mean latency (Little's law); runs print it but do not report it.
///
/// The quality metrics are means over partitions: `d1_pct` is the paper's
/// `d ≤ 1` locality; `bias_use_pct` is `B_cir / (B_cir + I_comp)`, the share
/// of the `K·B_max` recycled supply that biases gates rather than dummies;
/// `area_use_pct` is `A_cir / (A_cir + A_FS)`, the share of the `K·A_max`
/// strip area gates occupy. The last two carry eq. 11's `I_comp` and `A_FS`
/// on a scale where a relative bound of 0.25% is about 0.25 pp of either.
pub const END_TO_END: [MetricDef; 7] = [
    ("flow_p50_ms", "ms"),
    ("flow_tail_ms", "ms"),
    ("d1_pct", "%"),
    ("bias_use_pct", "%"),
    ("area_use_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer a workload never enters reads 0. Solver-layer times are means
/// over the traced flows, so they add up: `flow.ms` is the sum of the
/// five layer times plus `flow.unattributed_ms`, and `solver.solve_ms` is
/// descent plus refine plus `solver.unattributed_ms`.
pub const PER_LAYER: [MetricDef; 34] = [
    ("flow.ms", "ms"),
    ("def.parse_ms", "ms"),
    ("def.mb_per_s", "MB/s"),
    ("problem.build_ms", "ms"),
    ("solver.solve_ms", "ms"),
    ("solver.iterations", "count"),
    ("solver.recoveries", "count"),
    ("solver.unattributed_ms", "ms"),
    ("engine.descent_ms", "ms"),
    ("engine.iter_us", "us"),
    ("engine.eval_us", "us"),
    ("engine.computed_bytes_per_eval", "bytes"),
    ("engine.computed_gbps", "GB/s"),
    ("refine.ms", "ms"),
    ("refine.moves", "count"),
    ("metrics.ms", "ms"),
    ("recycle.plan_ms", "ms"),
    ("flow.unattributed_ms", "ms"),
    ("serviced.send_us", "us"),
    ("serviced.accept_ms_p50", "ms"),
    ("serviced.accept_ms_p99", "ms"),
    ("serviced.queue_wait_ms_p50", "ms"),
    ("serviced.queue_wait_ms_p99", "ms"),
    ("serviced.solve_ms_p50", "ms"),
    ("serviced.solve_ms_p99", "ms"),
    ("serviced.total_ms_p50", "ms"),
    ("serviced.total_ms_p99", "ms"),
    ("serviced.unattributed_ms_p50", "ms"),
    ("serviced.cache_hit_ratio", "ratio"),
    ("serviced.retries", "count"),
    ("serviced.panics", "count"),
    ("serviced.rejected", "count"),
    ("serviced.queue_depth_hw", "count"),
    ("trace.overhead_pct", "%"),
];

/// The metric set a run prints: per-layer when traced, end-to-end
/// otherwise.
#[must_use]
pub fn metric_set(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The result object every run prints:
/// `{"attempted":…,"correct":…,"failed":…,"metrics":{name:{"unit":…,"value":…}}}`.
pub fn result_json<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, f64, &'a str)>,
) -> Json {
    let metrics = metrics
        .map(|(name, value, unit)| {
            let entry = BTreeMap::from([
                ("value".to_string(), Json::Number(value)),
                ("unit".to_string(), Json::String(unit.to_string())),
            ]);
            (name, Json::Object(entry))
        })
        .collect();
    Json::Object(BTreeMap::from([
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Number(attempted as f64)),
        ("failed".to_string(), Json::Number(failed as f64)),
        ("metrics".to_string(), Json::Object(metrics)),
    ]))
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics).
    pub trace: bool,
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (flows or jobs).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metric values by name; units come from [`metric_set`].
    pub metrics: BTreeMap<String, f64>,
}

impl RunResult {
    /// The result line a run prints last:
    /// `{"attempted":…,"correct":…,"failed":…,"metrics":{name:{"unit":…,"value":…}}}`.
    /// Metrics missing from [`Self::metrics`] are left out, so a gap shows
    /// up as a name mismatch rather than a made-up value.
    #[must_use]
    pub fn result_line(&self) -> String {
        self.to_json(false).to_json()
    }

    /// [`Self::result_line`] plus `workload`, `seed` and `trace` — one line
    /// of a results file that `compare` reads.
    #[must_use]
    pub fn record_line(&self) -> String {
        self.to_json(true).to_json()
    }

    fn to_json(&self, with_context: bool) -> Json {
        let metrics = metric_set(self.trace)
            .iter()
            .filter_map(|&(name, unit)| Some((name.to_string(), *self.metrics.get(name)?, unit)));
        let mut top = result_json(self.correct, self.attempted, self.failed, metrics);
        if let (true, Json::Object(map)) = (with_context, &mut top) {
            map.insert("workload".to_string(), Json::String(self.workload.clone()));
            map.insert("seed".to_string(), Json::Number(self.seed as f64));
            map.insert("trace".to_string(), Json::Bool(self.trace));
        }
        top
    }

    /// Parses a result line printed by a run of `workload` with `seed`.
    #[must_use]
    pub fn parse_result_line(line: &str, workload: &str, seed: u64, trace: bool) -> Option<Self> {
        let value = json::parse(line).ok()?;
        Self::from_json(&value, workload.to_string(), seed, trace)
    }

    /// Parses one line of a results file ([`Self::record_line`]).
    #[must_use]
    pub fn parse_record_line(line: &str) -> Option<Self> {
        let value = json::parse(line).ok()?;
        let workload = value.get("workload")?.as_str()?.to_string();
        let seed = value.get("seed")?.as_u64()?;
        let trace = value.get("trace")?.as_bool()?;
        Self::from_json(&value, workload, seed, trace)
    }

    fn from_json(value: &Json, workload: String, seed: u64, trace: bool) -> Option<Self> {
        let Json::Object(entries) = value.get("metrics")? else {
            return None;
        };
        let metrics = entries
            .iter()
            .map(|(name, entry)| Some((name.clone(), entry.get("value")?.as_f64()?)))
            .collect::<Option<BTreeMap<_, _>>>()?;
        Some(RunResult {
            workload,
            seed,
            trace,
            correct: value.get("correct")?.as_bool()?,
            attempted: value.get("attempted")?.as_u64()?,
            failed: value.get("failed")?.as_u64()?,
            metrics,
        })
    }
}

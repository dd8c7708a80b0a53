//! The `sfqpartd` wire protocol: newline-delimited JSON frames.
//!
//! One request object per line from the client, one response object per
//! line from the daemon. Requests carry an `"op"` tag, responses an
//! `"ev"` tag. Unknown keys are ignored (the trace schema's append-only
//! compatibility rule); unknown tags are protocol errors.
//!
//! The full frame vocabulary is documented in README.md §`sfqpartd`; the
//! terminal-state taxonomy (every accepted job ends in **exactly one** of
//! `done` / `cancelled` / `deadline_exceeded` / `failed`, and every
//! refused one in `rejected`) in DESIGN.md §Failure modes.

use std::fmt;

use sfq_partition::json::{self, write_escaped, write_number, Json};
use sfq_partition::telemetry::{parse_stop_reason, stop_reason_str, LogHistogram};
use sfq_partition::{FaultInjection, SolverOptions, StopReason};

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// The problem payload of a solve request: the `(b_i, a_i, E, K)` instance
/// inline, so the daemon needs no circuit registry or filesystem access.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemSpec {
    /// Per-gate bias currents `b_i`.
    pub bias: Vec<f64>,
    /// Per-gate areas `a_i`.
    pub area: Vec<f64>,
    /// Connections, as gate-index pairs.
    pub edges: Vec<(u32, u32)>,
    /// Planes `K`.
    pub planes: usize,
}

/// One solve job.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Client-chosen job id; must be unique among the daemon's *active*
    /// jobs (terminal ids may be reused).
    pub id: String,
    /// The problem instance.
    pub problem: ProblemSpec,
    /// Solver configuration (request keys override the defaults).
    pub options: SolverOptions,
    /// Service-level wall-clock deadline, armed at admission — queue wait
    /// counts against it. `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Stream a trace record every this-many iterations as
    /// `progress` frames. `None` = no streaming.
    pub progress_every: Option<u64>,
    /// Chaos hook: panic inside the worker thread instead of solving.
    /// Exercises panic isolation; leave `false` in production.
    pub panic_in_worker: bool,
}

/// A parsed client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `{"op":"solve",...}` — submit a job.
    Solve(Box<SolveRequest>),
    /// `{"op":"cancel","id":...}` — cancel a queued or running job.
    Cancel {
        /// Job to cancel.
        id: String,
    },
    /// `{"op":"ping"}` — liveness probe.
    Ping,
    /// `{"op":"stats"}` — counters snapshot.
    Stats,
    /// `{"op":"drain"}` — ask the daemon to stop admitting and shut down
    /// once in-flight work settles (same path as SIGTERM).
    Drain,
}

/// A request line the daemon refuses to act on. Carries the job id when
/// one could be extracted, so the refusal can still be routed.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseReject {
    /// Job id, if the frame carried a readable one.
    pub id: Option<String>,
    /// Human-readable reason, sent back verbatim in a `rejected` frame.
    pub reason: String,
}

impl fmt::Display for ParseReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reason)
    }
}

fn reject(id: Option<String>, reason: impl Into<String>) -> ParseReject {
    ParseReject {
        id,
        reason: reason.into(),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns [`ParseReject`] — with the job id when readable — for malformed
/// JSON, unknown ops, or missing/ill-typed fields.
pub fn parse_request(line: &str) -> Result<Request, ParseReject> {
    let value = json::parse(line).map_err(|e| reject(None, format!("invalid json: {e}")))?;
    let id = value
        .get("id")
        .and_then(Json::as_str)
        .map(ToString::to_string);
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| reject(id.clone(), "missing `op`"))?;
    match op {
        "solve" => parse_solve(&value, id.clone()).map_err(|detail| reject(id, detail)),
        "cancel" => id
            .map(|id| Request::Cancel { id })
            .ok_or_else(|| reject(None, "cancel: missing `id`")),
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "drain" => Ok(Request::Drain),
        other => Err(reject(id, format!("unknown op `{other}`"))),
    }
}

fn parse_solve(value: &Json, id: Option<String>) -> Result<Request, String> {
    let id = id.ok_or("solve: missing `id`")?;
    if id.is_empty() {
        return Err("solve: empty `id`".into());
    }
    let problem = value.get("problem").ok_or("solve: missing `problem`")?;
    let bias = f64_array(problem, "bias")?;
    let area = f64_array(problem, "area")?;
    let planes = problem
        .get("planes")
        .or_else(|| problem.get("k"))
        .and_then(Json::as_u64)
        .ok_or("problem: missing `planes`")? as usize;
    let mut edges = Vec::new();
    if let Some(list) = problem.get("edges") {
        let list = list.as_array().ok_or("problem: `edges` must be an array")?;
        edges.reserve(list.len());
        for pair in list {
            let pair = pair.as_array().filter(|p| p.len() == 2);
            let (u, v) = pair
                .and_then(|p| Some((p[0].as_u64()?, p[1].as_u64()?)))
                .ok_or("problem: each edge must be a pair of gate indices")?;
            let u = u32::try_from(u).map_err(|_| "problem: edge endpoint out of range")?;
            let v = u32::try_from(v).map_err(|_| "problem: edge endpoint out of range")?;
            edges.push((u, v));
        }
    }
    let options = parse_options(value.get("options"))?;
    let deadline_ms = opt_u64(value, "deadline_ms")?;
    let progress_every = opt_u64(value, "progress_every")?;
    let panic_in_worker = value
        .get("panic_in_worker")
        .map(|v| v.as_bool().ok_or("`panic_in_worker` must be a bool"))
        .transpose()?
        .unwrap_or(false);
    Ok(Request::Solve(Box::new(SolveRequest {
        id,
        problem: ProblemSpec {
            bias,
            area,
            edges,
            planes,
        },
        options,
        deadline_ms,
        progress_every,
        panic_in_worker,
    })))
}

fn f64_array(problem: &Json, key: &str) -> Result<Vec<f64>, String> {
    let list = problem
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("problem: missing `{key}` array"))?;
    list.iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| format!("problem: `{key}` must hold numbers"))
        })
        .collect()
}

fn opt_u64(value: &Json, key: &str) -> Result<Option<u64>, String> {
    value
        .get(key)
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
        })
        .transpose()
}

/// Applies request-side option overrides onto [`SolverOptions::default`].
///
/// The deliberately small vocabulary mirrors the `sfqpart` CLI flags;
/// everything else keeps the tuned default. The solver's own
/// `deadline_ms` is *not* exposed — the service-level deadline subsumes it
/// (and is armed at admission rather than solve start).
fn parse_options(overrides: Option<&Json>) -> Result<SolverOptions, String> {
    let mut options = SolverOptions::default();
    let Some(value) = overrides else {
        return Ok(options);
    };
    let Json::Object(map) = value else {
        return Err("`options` must be an object".into());
    };
    for (key, v) in map {
        match key.as_str() {
            "seed" => options.seed = v.as_u64().ok_or("options: `seed` must be an integer")?,
            "restarts" => {
                options.restarts =
                    v.as_u64().ok_or("options: `restarts` must be an integer")? as usize;
            }
            "max_iterations" => {
                options.max_iterations = v
                    .as_u64()
                    .ok_or("options: `max_iterations` must be an integer")?
                    as usize;
            }
            "iteration_budget" => {
                options.iteration_budget = Some(
                    v.as_u64()
                        .ok_or("options: `iteration_budget` must be an integer")?
                        as usize,
                );
            }
            "margin" => options.margin = v.as_f64().ok_or("options: `margin` must be a number")?,
            "refine" => options.refine = v.as_bool().ok_or("options: `refine` must be a bool")?,
            "parallel" => {
                options.parallel = v.as_bool().ok_or("options: `parallel` must be a bool")?;
            }
            "fault" => options.fault_injection = Some(parse_fault(v)?),
            other => return Err(format!("options: unknown key `{other}`")),
        }
    }
    Ok(options)
}

/// Chaos vocabulary: a scripted [`FaultInjection`] plan, passed through to
/// the solver so the chaos suites can poison specific evaluations.
fn parse_fault(value: &Json) -> Result<FaultInjection, String> {
    let Json::Object(map) = value else {
        return Err("options: `fault` must be an object".into());
    };
    let mut plan = FaultInjection::default();
    for (key, v) in map {
        match key.as_str() {
            "nan_cost_at" | "inf_cost_at" | "nan_grad_at" => {
                let list = v
                    .as_array()
                    .ok_or_else(|| format!("fault: `{key}` must be an array"))?;
                let mut at = Vec::with_capacity(list.len());
                for item in list {
                    at.push(
                        item.as_u64()
                            .ok_or("fault: injection points are integers")?
                            as usize,
                    );
                }
                match key.as_str() {
                    "nan_cost_at" => plan.nan_cost_at = at,
                    "inf_cost_at" => plan.inf_cost_at = at,
                    _ => plan.nan_grad_at = at,
                }
            }
            "poison_from" => {
                plan.poison_from = Some(
                    v.as_u64()
                        .ok_or("fault: `poison_from` must be an integer")?
                        as usize,
                );
            }
            "restart" => {
                plan.restart =
                    Some(v.as_u64().ok_or("fault: `restart` must be an integer")? as usize);
            }
            other => return Err(format!("fault: unknown key `{other}`")),
        }
    }
    Ok(plan)
}

impl Request {
    /// Serializes the request as one frame line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(128);
        match self {
            Request::Solve(solve) => write_solve(&mut out, solve),
            Request::Cancel { id } => {
                out.push_str("{\"op\":\"cancel\",\"id\":");
                write_escaped(&mut out, id);
                out.push('}');
            }
            Request::Ping => out.push_str("{\"op\":\"ping\"}"),
            Request::Stats => out.push_str("{\"op\":\"stats\"}"),
            Request::Drain => out.push_str("{\"op\":\"drain\"}"),
        }
        out
    }
}

fn write_solve(out: &mut String, solve: &SolveRequest) {
    use fmt::Write;
    out.push_str("{\"op\":\"solve\",\"id\":");
    write_escaped(out, &solve.id);
    out.push_str(",\"problem\":{\"bias\":");
    write_f64_array(out, &solve.problem.bias);
    out.push_str(",\"area\":");
    write_f64_array(out, &solve.problem.area);
    out.push_str(",\"edges\":[");
    for (i, (u, v)) in solve.problem.edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{u},{v}]");
    }
    let _ = write!(out, "],\"planes\":{}}}", solve.problem.planes);
    // Only the non-default knobs travel; the daemon re-applies defaults.
    let defaults = SolverOptions::default();
    let o = &solve.options;
    let mut opts = String::new();
    let mut push = |s: String| {
        if !opts.is_empty() {
            opts.push(',');
        }
        opts.push_str(&s);
    };
    if o.seed != defaults.seed {
        push(format!("\"seed\":{}", o.seed));
    }
    if o.restarts != defaults.restarts {
        push(format!("\"restarts\":{}", o.restarts));
    }
    if o.max_iterations != defaults.max_iterations {
        push(format!("\"max_iterations\":{}", o.max_iterations));
    }
    if let Some(budget) = o.iteration_budget {
        push(format!("\"iteration_budget\":{budget}"));
    }
    if !sfq_partition::float::exactly(o.margin, defaults.margin) {
        let mut margin = String::from("\"margin\":");
        write_number(&mut margin, o.margin);
        push(margin);
    }
    if o.refine != defaults.refine {
        push(format!("\"refine\":{}", o.refine));
    }
    if o.parallel != defaults.parallel {
        push(format!("\"parallel\":{}", o.parallel));
    }
    if let Some(plan) = &o.fault_injection {
        let mut fault = String::new();
        let mut pushf = |s: String| {
            if !fault.is_empty() {
                fault.push(',');
            }
            fault.push_str(&s);
        };
        if !plan.nan_cost_at.is_empty() {
            pushf(format!("\"nan_cost_at\":{:?}", plan.nan_cost_at));
        }
        if !plan.inf_cost_at.is_empty() {
            pushf(format!("\"inf_cost_at\":{:?}", plan.inf_cost_at));
        }
        if !plan.nan_grad_at.is_empty() {
            pushf(format!("\"nan_grad_at\":{:?}", plan.nan_grad_at));
        }
        if let Some(from) = plan.poison_from {
            pushf(format!("\"poison_from\":{from}"));
        }
        if let Some(restart) = plan.restart {
            pushf(format!("\"restart\":{restart}"));
        }
        push(format!("\"fault\":{{{fault}}}"));
    }
    if !opts.is_empty() {
        let _ = write!(out, ",\"options\":{{{opts}}}");
    }
    if let Some(deadline) = solve.deadline_ms {
        let _ = write!(out, ",\"deadline_ms\":{deadline}");
    }
    if let Some(every) = solve.progress_every {
        let _ = write!(out, ",\"progress_every\":{every}");
    }
    if solve.panic_in_worker {
        out.push_str(",\"panic_in_worker\":true");
    }
    out.push('}');
}

fn write_f64_array(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_number(out, v);
    }
    out.push(']');
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Why a job failed (the `failed` terminal's `kind` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The worker panicked; the panic was contained to this job.
    Panic,
    /// Every restart diverged, twice (the retry also diverged).
    Divergence,
    /// The solver rejected the problem or options.
    Invalid,
}

impl FailureKind {
    /// Stable wire string.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Divergence => "divergence",
            FailureKind::Invalid => "invalid",
        }
    }
}

/// Live daemon counters, gauges, and latency histograms, reported by
/// `stats` frames and the drain summary.
///
/// The wire form is append-only (schema-v1 discipline): fields added
/// after the original eleven counters parse as zero/empty when absent, so
/// old frames remain readable and old readers skip what they don't know.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Jobs admitted (accepted into the queue) over the daemon's life.
    pub submitted: u64,
    /// Jobs currently queued.
    pub queued: u64,
    /// Jobs currently executing on a worker.
    pub running: u64,
    /// Terminal `done` count (including cache hits).
    pub done: u64,
    /// `done` frames served from the result cache.
    pub cache_hits: u64,
    /// Terminal `cancelled` count.
    pub cancelled: u64,
    /// Terminal `deadline_exceeded` count.
    pub deadline_exceeded: u64,
    /// Refusals (admission or parse).
    pub rejected: u64,
    /// Terminal `failed` count.
    pub failed: u64,
    /// Divergence retries attempted.
    pub retries: u64,
    /// Worker panics contained.
    pub panics: u64,
    /// Cacheable requests that missed the cache and solved fresh.
    pub cache_misses: u64,
    /// Peak admission-queue depth observed.
    pub queue_depth_hw: u64,
    /// Peak concurrently-running job count observed.
    pub running_hw: u64,
    /// Restart slots currently reserved by running jobs.
    pub slots_in_use: u64,
    /// Peak restart-slot occupancy observed.
    pub slots_hw: u64,
    /// Nanoseconds since the ops registry (≈ the daemon) started.
    pub uptime_ns: u64,
    /// Lock-witness re-acquire violations (0 unless built with
    /// `lock_witness`).
    pub lock_reacquires: u64,
    /// Lock-witness order-inversion violations (0 unless built with
    /// `lock_witness`).
    pub lock_inversions: u64,
    /// Lock-witness wait-while-holding violations (0 unless built with
    /// `lock_witness`).
    pub lock_wait_holds: u64,
    /// Queue-wait (admitted → worker pickup) latency distribution, ns.
    pub queue_wait_ns: LogHistogram,
    /// Solve (worker pickup → settle) latency distribution, ns.
    pub solve_ns: LogHistogram,
    /// Total (received → settle) latency distribution, ns.
    pub total_ns: LogHistogram,
}

impl StatsSnapshot {
    /// Settled post-admission terminals (`done + cancelled +
    /// deadline_exceeded + failed`).
    #[must_use]
    pub fn settled(&self) -> u64 {
        self.done + self.cancelled + self.deadline_exceeded + self.failed
    }

    /// The terminal-ledger check, delegated to
    /// [`sfq_report::service::terminal_accounting`] so the `drive`
    /// subcommand, the drain summary, the chaos suite, and sfqbench's
    /// `service_mixed` all share one implementation: once the service is
    /// idle, every admitted job must have settled in exactly one terminal
    /// state. Returns `None` when the books balance, or a human-readable
    /// discrepancy.
    #[must_use]
    pub fn accounting_violation(&self) -> Option<String> {
        sfq_report::service::terminal_accounting(
            self.submitted,
            self.done,
            self.cancelled,
            self.deadline_exceeded,
            self.failed,
        )
    }

    /// Total lock-witness violations across all kinds.
    #[must_use]
    pub fn lock_violations(&self) -> u64 {
        self.lock_reacquires + self.lock_inversions + self.lock_wait_holds
    }
}

/// A parsed daemon frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job was admitted and will run.
    Accepted {
        /// Job id.
        id: String,
    },
    /// The job (or frame) was refused before admission.
    Rejected {
        /// Job id, when the frame carried one.
        id: Option<String>,
        /// Why: `overloaded`, `draining`, `duplicate_id`, `invalid: …`.
        reason: String,
    },
    /// One streamed trace record for a running job.
    Progress {
        /// Job id.
        id: String,
        /// The trace record (a nested object in the JSONL trace schema).
        trace: Json,
    },
    /// The job is being retried after a transient failure.
    Retrying {
        /// Job id.
        id: String,
        /// 1-based retry attempt.
        attempt: u64,
    },
    /// Terminal: the solve finished and this is its partition.
    Done {
        /// Job id.
        id: String,
        /// Plane label per gate.
        labels: Vec<u32>,
        /// Stop reason of the winning restart.
        stop: StopReason,
        /// Iterations of the winning restart.
        iterations: u64,
        /// Discrete cost of the returned partition.
        discrete_cost: f64,
        /// Whether the result came from the content-addressed cache.
        cached: bool,
    },
    /// Terminal: the job was cancelled (explicitly or by disconnect).
    Cancelled {
        /// Job id.
        id: String,
    },
    /// Terminal: the service-level deadline fired first.
    DeadlineExceeded {
        /// Job id.
        id: String,
    },
    /// Terminal: the job failed; the daemon is unaffected.
    Failed {
        /// Job id.
        id: String,
        /// Failure class.
        kind: FailureKind,
        /// Human-readable detail.
        message: String,
    },
    /// Reply to `ping`.
    Pong,
    /// Reply to `stats`. Boxed: the snapshot carries three 65-bucket
    /// histograms, far larger than any other variant.
    Stats(Box<StatsSnapshot>),
    /// The daemon acknowledged `drain` and stopped admitting.
    Draining,
    /// A non-fatal protocol error not tied to a job (e.g. cancelling an
    /// unknown id).
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Response {
    /// The job id this frame is scoped to, if any.
    #[must_use]
    pub fn id(&self) -> Option<&str> {
        match self {
            Response::Accepted { id }
            | Response::Progress { id, .. }
            | Response::Retrying { id, .. }
            | Response::Done { id, .. }
            | Response::Cancelled { id }
            | Response::DeadlineExceeded { id }
            | Response::Failed { id, .. } => Some(id),
            Response::Rejected { id, .. } => id.as_deref(),
            _ => None,
        }
    }

    /// Whether this frame is a job's terminal state.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Response::Done { .. }
                | Response::Cancelled { .. }
                | Response::DeadlineExceeded { .. }
                | Response::Rejected { .. }
                | Response::Failed { .. }
        )
    }

    /// Serializes the response as one frame line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        use fmt::Write;
        let mut out = String::with_capacity(64);
        match self {
            Response::Accepted { id } => {
                out.push_str("{\"ev\":\"accepted\",\"id\":");
                write_escaped(&mut out, id);
                out.push('}');
            }
            Response::Rejected { id, reason } => {
                out.push_str("{\"ev\":\"rejected\"");
                if let Some(id) = id {
                    out.push_str(",\"id\":");
                    write_escaped(&mut out, id);
                }
                out.push_str(",\"reason\":");
                write_escaped(&mut out, reason);
                out.push('}');
            }
            Response::Progress { id, trace } => {
                out.push_str("{\"ev\":\"progress\",\"id\":");
                write_escaped(&mut out, id);
                out.push_str(",\"trace\":");
                // A path call, which sfqlint P2 follows into the codec on the
                // settle path; it treats a cross-crate method call as ⊤.
                Json::write_into(trace, &mut out);
                out.push('}');
            }
            Response::Retrying { id, attempt } => {
                out.push_str("{\"ev\":\"retrying\",\"id\":");
                write_escaped(&mut out, id);
                let _ = write!(out, ",\"attempt\":{attempt}}}");
            }
            Response::Done {
                id,
                labels,
                stop,
                iterations,
                discrete_cost,
                cached,
            } => {
                out.push_str("{\"ev\":\"done\",\"id\":");
                write_escaped(&mut out, id);
                out.push_str(",\"labels\":[");
                for (i, label) in labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{label}");
                }
                let _ = write!(
                    out,
                    "],\"stop\":\"{}\",\"iterations\":{iterations},\"discrete_cost\":",
                    stop_reason_str(*stop)
                );
                write_number(&mut out, *discrete_cost);
                let _ = write!(out, ",\"cached\":{cached}}}");
            }
            Response::Cancelled { id } => {
                out.push_str("{\"ev\":\"cancelled\",\"id\":");
                write_escaped(&mut out, id);
                out.push('}');
            }
            Response::DeadlineExceeded { id } => {
                out.push_str("{\"ev\":\"deadline_exceeded\",\"id\":");
                write_escaped(&mut out, id);
                out.push('}');
            }
            Response::Failed { id, kind, message } => {
                out.push_str("{\"ev\":\"failed\",\"id\":");
                write_escaped(&mut out, id);
                let _ = write!(out, ",\"kind\":\"{}\",\"message\":", kind.as_str());
                write_escaped(&mut out, message);
                out.push('}');
            }
            Response::Pong => out.push_str("{\"ev\":\"pong\"}"),
            Response::Stats(s) => {
                let _ = write!(
                    out,
                    "{{\"ev\":\"stats\",\"submitted\":{},\"queued\":{},\"running\":{},\"done\":{},\"cache_hits\":{},\"cancelled\":{},\"deadline_exceeded\":{},\"rejected\":{},\"failed\":{},\"retries\":{},\"panics\":{}",
                    s.submitted,
                    s.queued,
                    s.running,
                    s.done,
                    s.cache_hits,
                    s.cancelled,
                    s.deadline_exceeded,
                    s.rejected,
                    s.failed,
                    s.retries,
                    s.panics,
                );
                // Appended after the original eleven counters (schema-v1
                // append-only rule): readers of the old frame shape skip
                // these, and parse_response defaults them when absent.
                let _ = write!(
                    out,
                    ",\"cache_misses\":{},\"queue_depth_hw\":{},\"running_hw\":{},\"slots_in_use\":{},\"slots_hw\":{},\"uptime_ns\":{},\"lock_reacquires\":{},\"lock_inversions\":{},\"lock_wait_holds\":{}",
                    s.cache_misses,
                    s.queue_depth_hw,
                    s.running_hw,
                    s.slots_in_use,
                    s.slots_hw,
                    s.uptime_ns,
                    s.lock_reacquires,
                    s.lock_inversions,
                    s.lock_wait_holds,
                );
                write_histogram(&mut out, "queue_wait_ns", &s.queue_wait_ns);
                write_histogram(&mut out, "solve_ns", &s.solve_ns);
                write_histogram(&mut out, "total_ns", &s.total_ns);
                out.push('}');
            }
            Response::Draining => out.push_str("{\"ev\":\"draining\"}"),
            Response::Error { message } => {
                out.push_str("{\"ev\":\"error\",\"message\":");
                write_escaped(&mut out, message);
                out.push('}');
            }
        }
        out
    }
}

/// Serializes one latency histogram as
/// `,"<key>":{"count":…,"p50":…,"p95":…,"p99":…,"buckets":[[i,c],…]}`.
///
/// Only `buckets` is authoritative (the parser rebuilds the histogram
/// from it); `count` and the percentiles are derived conveniences for
/// humans and `jq`, and double as unknown-field-tolerance exercise for
/// readers that reconstruct and re-derive.
fn write_histogram(out: &mut String, key: &str, hist: &LogHistogram) {
    use fmt::Write;
    let _ = write!(
        out,
        ",\"{key}\":{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
        hist.count(),
        hist.percentile(0.50),
        hist.percentile(0.95),
        hist.percentile(0.99),
    );
    let mut first = true;
    for (i, &count) in hist.buckets().iter().enumerate() {
        if count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "[{i},{count}]");
    }
    out.push_str("]}");
}

/// Rebuilds a latency histogram from its wire object; absent or
/// malformed entries degrade to empty, never to an error (append-only
/// tolerance: an old daemon simply has no histograms to report).
fn parse_histogram(value: &Json, key: &str) -> LogHistogram {
    let mut buckets = [0u64; 65];
    let list = value
        .get(key)
        .and_then(|h| h.get("buckets"))
        .and_then(Json::as_array);
    if let Some(list) = list {
        for pair in list {
            let pair = pair.as_array().filter(|p| p.len() == 2);
            if let Some((i, count)) = pair.and_then(|p| Some((p[0].as_u64()?, p[1].as_u64()?))) {
                if let Some(slot) = usize::try_from(i).ok().and_then(|i| buckets.get_mut(i)) {
                    *slot = count;
                }
            }
        }
    }
    LogHistogram::from_buckets(buckets)
}

/// Parses one daemon frame (the client side of the protocol).
///
/// # Errors
///
/// Returns a human-readable description for malformed or unknown frames.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let value = json::parse(line).map_err(|e| format!("invalid json: {e}"))?;
    let ev = value
        .get("ev")
        .and_then(Json::as_str)
        .ok_or("missing `ev`")?;
    let id = || -> Result<String, String> {
        value
            .get("id")
            .and_then(Json::as_str)
            .map(ToString::to_string)
            .ok_or_else(|| format!("{ev}: missing `id`"))
    };
    match ev {
        "accepted" => Ok(Response::Accepted { id: id()? }),
        "rejected" => Ok(Response::Rejected {
            id: value
                .get("id")
                .and_then(Json::as_str)
                .map(ToString::to_string),
            reason: value
                .get("reason")
                .and_then(Json::as_str)
                .unwrap_or("unspecified")
                .to_string(),
        }),
        "progress" => Ok(Response::Progress {
            id: id()?,
            trace: value.get("trace").cloned().unwrap_or(Json::Null),
        }),
        "retrying" => Ok(Response::Retrying {
            id: id()?,
            attempt: value.get("attempt").and_then(Json::as_u64).unwrap_or(1),
        }),
        "done" => {
            let labels = value
                .get("labels")
                .and_then(Json::as_array)
                .ok_or("done: missing `labels`")?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|l| u32::try_from(l).ok())
                        .ok_or("done: labels must be small integers")
                })
                .collect::<Result<Vec<u32>, _>>()?;
            let stop = value
                .get("stop")
                .and_then(Json::as_str)
                .ok_or("done: missing `stop`")?;
            Ok(Response::Done {
                id: id()?,
                labels,
                stop: parse_stop_reason(stop).map_err(|e| e.to_string())?,
                iterations: value.get("iterations").and_then(Json::as_u64).unwrap_or(0),
                discrete_cost: value
                    .get("discrete_cost")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN),
                cached: value.get("cached").and_then(Json::as_bool).unwrap_or(false),
            })
        }
        "cancelled" => Ok(Response::Cancelled { id: id()? }),
        "deadline_exceeded" => Ok(Response::DeadlineExceeded { id: id()? }),
        "failed" => {
            let kind = match value.get("kind").and_then(Json::as_str) {
                Some("panic") => FailureKind::Panic,
                Some("divergence") => FailureKind::Divergence,
                _ => FailureKind::Invalid,
            };
            Ok(Response::Failed {
                id: id()?,
                kind,
                message: value
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            })
        }
        "pong" => Ok(Response::Pong),
        "stats" => {
            let field = |key: &str| value.get(key).and_then(Json::as_u64).unwrap_or(0);
            Ok(Response::Stats(Box::new(StatsSnapshot {
                submitted: field("submitted"),
                queued: field("queued"),
                running: field("running"),
                done: field("done"),
                cache_hits: field("cache_hits"),
                cancelled: field("cancelled"),
                deadline_exceeded: field("deadline_exceeded"),
                rejected: field("rejected"),
                failed: field("failed"),
                retries: field("retries"),
                panics: field("panics"),
                cache_misses: field("cache_misses"),
                queue_depth_hw: field("queue_depth_hw"),
                running_hw: field("running_hw"),
                slots_in_use: field("slots_in_use"),
                slots_hw: field("slots_hw"),
                uptime_ns: field("uptime_ns"),
                lock_reacquires: field("lock_reacquires"),
                lock_inversions: field("lock_inversions"),
                lock_wait_holds: field("lock_wait_holds"),
                queue_wait_ns: parse_histogram(&value, "queue_wait_ns"),
                solve_ns: parse_histogram(&value, "solve_ns"),
                total_ns: parse_histogram(&value, "total_ns"),
            })))
        }
        "draining" => Ok(Response::Draining),
        "error" => Ok(Response::Error {
            message: value
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        }),
        other => Err(format!("unknown ev `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_request(id: &str, n: usize) -> SolveRequest {
        SolveRequest {
            id: id.to_string(),
            problem: ProblemSpec {
                bias: vec![1.0; n],
                area: vec![10.0; n],
                edges: (0..n as u32 - 1).map(|i| (i, i + 1)).collect(),
                planes: 2,
            },
            options: SolverOptions::default(),
            deadline_ms: None,
            progress_every: None,
            panic_in_worker: false,
        }
    }

    #[test]
    fn solve_request_round_trips() {
        let mut solve = chain_request("job-1", 8);
        solve.options.seed = 7;
        solve.options.restarts = 3;
        solve.options.margin = -1.0;
        solve.options.refine = false;
        solve.options.parallel = true;
        solve.options.fault_injection = Some(FaultInjection {
            nan_cost_at: vec![3, 9],
            poison_from: Some(4),
            ..FaultInjection::default()
        });
        solve.deadline_ms = Some(250);
        solve.progress_every = Some(10);
        solve.panic_in_worker = true;
        let line = Request::Solve(Box::new(solve.clone())).to_line();
        match parse_request(&line).unwrap() {
            Request::Solve(parsed) => assert_eq!(*parsed, solve),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn integers_above_2_pow_53_round_trip_exactly() {
        let above = (1u64 << 53) + 1;
        for (seed, deadline_ms, progress_every) in
            [(above, None, Some(above)), (u64::MAX, Some(u64::MAX), None)]
        {
            let mut solve = chain_request("big", 4);
            solve.options.seed = seed;
            solve.deadline_ms = deadline_ms;
            solve.progress_every = progress_every;
            let line = Request::Solve(Box::new(solve.clone())).to_line();
            match parse_request(&line) {
                Ok(Request::Solve(parsed)) => assert_eq!(*parsed, solve, "{line}"),
                other => panic!("{line}: {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_floats_travel_as_null_and_are_refused() {
        let mut solve = chain_request("nan", 3);
        solve.problem.bias[1] = f64::NAN;
        solve.options.margin = f64::INFINITY;
        let line = Request::Solve(Box::new(solve)).to_line();
        assert!(line.contains("\"bias\":[1,null,1]") && line.contains("\"margin\":null"));
        let reason = |line: &str| parse_request(line).unwrap_err().reason;
        assert_eq!(reason(&line), "problem: `bias` must hold numbers");
        let line = line.replace("[1,null,1]", "[1,1,1]");
        assert_eq!(reason(&line), "options: `margin` must be a number");
    }

    #[test]
    fn control_requests_round_trip() {
        for req in [
            Request::Cancel {
                id: "a b\"c".into(),
            },
            Request::Ping,
            Request::Stats,
            Request::Drain,
        ] {
            assert_eq!(parse_request(&req.to_line()).unwrap(), req);
        }
    }

    #[test]
    fn malformed_requests_carry_the_id_when_readable() {
        let err = parse_request("{\"op\":\"solve\",\"id\":\"j1\"}").unwrap_err();
        assert_eq!(err.id.as_deref(), Some("j1"));
        assert!(err.reason.contains("problem"));
        let err = parse_request("not json").unwrap_err();
        assert_eq!(err.id, None);
        let err = parse_request("{\"op\":\"warp\",\"id\":\"j2\"}").unwrap_err();
        assert!(err.reason.contains("unknown op"));
    }

    #[test]
    fn unknown_option_keys_are_rejected() {
        // `fused` and `kernel_backend` chose between evaluators that no
        // longer exist, `intra_parallel` between two ways to run one
        // engine's sweeps and `swap_refine` between two polishes, so they
        // are refused like any other unknown key.
        for (key, value) in [
            ("warp", "1"),
            ("fused", "true"),
            ("kernel_backend", "\"scalar\""),
            ("intra_parallel", "true"),
            ("swap_refine", "true"),
        ] {
            let line = format!(
                "{{\"op\":\"solve\",\"id\":\"x\",\"problem\":{{\"bias\":[1],\"area\":[1],\"planes\":1}},\"options\":{{\"{key}\":{value}}}}}"
            );
            let err = parse_request(&line).unwrap_err();
            assert_eq!(err.id.as_deref(), Some("x"));
            assert_eq!(err.reason, format!("options: unknown key `{key}`"));
        }
    }

    #[test]
    fn responses_round_trip() {
        let frames = [
            Response::Accepted { id: "j".into() },
            Response::Rejected {
                id: Some("j".into()),
                reason: "overloaded".into(),
            },
            Response::Rejected {
                id: None,
                reason: "invalid json: oops".into(),
            },
            Response::Retrying {
                id: "j".into(),
                attempt: 1,
            },
            Response::Done {
                id: "j".into(),
                labels: vec![0, 1, 1, 0],
                stop: StopReason::Margin,
                iterations: 42,
                discrete_cost: 2.5,
                cached: true,
            },
            Response::Cancelled { id: "j".into() },
            Response::DeadlineExceeded { id: "j".into() },
            Response::Failed {
                id: "j".into(),
                kind: FailureKind::Panic,
                message: "worker panicked: boom".into(),
            },
            Response::Pong,
            Response::Stats(Box::new(StatsSnapshot {
                submitted: 9,
                done: 5,
                cancelled: 2,
                ..StatsSnapshot::default()
            })),
            Response::Draining,
            Response::Error {
                message: "cancel: unknown job id".into(),
            },
        ];
        for frame in frames {
            let line = frame.to_line();
            assert_eq!(parse_response(&line).unwrap(), frame, "{line}");
        }
    }

    #[test]
    fn progress_frames_embed_nested_trace_records() {
        let trace_line = "{\"v\":1,\"ev\":\"iter\",\"restart\":0,\"iter\":3,\"total\":1.5}";
        let frame = Response::Progress {
            id: "j".into(),
            trace: json::parse(trace_line).unwrap(),
        };
        let line = frame.to_line();
        let parsed = parse_response(&line).unwrap();
        match parsed {
            Response::Progress { id, trace } => {
                assert_eq!(id, "j");
                assert_eq!(trace.get("ev").and_then(Json::as_str), Some("iter"));
                assert_eq!(trace.get("iter").and_then(Json::as_u64), Some(3));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn terminal_classification_matches_the_taxonomy() {
        assert!(Response::Done {
            id: "j".into(),
            labels: vec![],
            stop: StopReason::Margin,
            iterations: 0,
            discrete_cost: 0.0,
            cached: false,
        }
        .is_terminal());
        assert!(Response::Cancelled { id: "j".into() }.is_terminal());
        assert!(Response::DeadlineExceeded { id: "j".into() }.is_terminal());
        assert!(Response::Rejected {
            id: None,
            reason: "overloaded".into()
        }
        .is_terminal());
        assert!(Response::Failed {
            id: "j".into(),
            kind: FailureKind::Divergence,
            message: String::new(),
        }
        .is_terminal());
        for frame in [
            Response::Accepted { id: "j".into() },
            Response::Pong,
            Response::Draining,
        ] {
            assert!(!frame.is_terminal());
        }
    }
}

//! In-memory span recording for traced runs, and the solve observer that
//! splits a solve into descent and refine through the solver's public
//! telemetry hooks.
//!
//! Spans are recorded from the benchmark's side of each layer boundary —
//! around the calls into `sfq_def`, `sfq_partition`, `sfq_recycle` and the
//! `sfqpartd` client — and written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::path::Path;

use sfq_partition::budget::Stopwatch;
use sfq_partition::telemetry::{
    IterationEvent, RecoveryEvent, RefineEvent, RestartObserver, SolveObserver,
};
use sfq_serviced::json::Json;

/// One timed interval of one operation (a flow or a service job).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `def.parse`, `engine.descent`, `serviced.accept`.
    pub name: &'static str,
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The flow or job this span belongs to.
    pub op: u64,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Stopwatch,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Stopwatch::start(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer started — the timestamps spans use.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.origin.elapsed_ns()
    }

    /// The tracer's clock, for observers that run inside a solve.
    #[must_use]
    pub fn clock(&self) -> Stopwatch {
        self.origin
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            op,
            start_ns,
            end_ns,
        });
        id
    }

    /// Every span recorded so far, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in nanoseconds.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Total nanoseconds per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.name).or_insert(0) += span.duration_ns();
        }
        totals
    }

    /// Writes every span as one JSON object per line, creating the parent
    /// directory if needed.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let number = |n: u64| Json::Number(n as f64);
        let mut out = String::with_capacity(self.spans.len() * 96);
        for span in &self.spans {
            let record = BTreeMap::from([
                ("workload".to_string(), Json::String(workload.to_string())),
                ("name".to_string(), Json::String(span.name.to_string())),
                ("id".to_string(), number(span.id)),
                ("parent".to_string(), span.parent.map_or(Json::Null, number)),
                ("op".to_string(), number(span.op)),
                ("start_ns".to_string(), number(span.start_ns)),
                ("end_ns".to_string(), number(span.end_ns)),
            ]);
            Json::Object(record).write_into(&mut out);
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Descent/refine split of one solve, in tracer-clock nanoseconds, plus
/// the exact counts the solver's events carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolvePhases {
    /// When the (single) restart began.
    pub descent_start_ns: u64,
    /// The last descent iteration's event — the descent/refine boundary.
    pub descent_end_ns: u64,
    /// The refine event: snapping and the local-move polish are done.
    pub refine_end_ns: u64,
    /// Descent iterations completed.
    pub iterations: u64,
    /// Divergence-recovery retries.
    pub recoveries: u64,
    /// Local moves the refine pass applied.
    pub refine_moves: u64,
}

/// A [`SolveObserver`] that timestamps restart begin, each iteration and
/// the refine event. The benchmark's solver workloads run one serial
/// restart, so those three stamps bound the descent and refine spans.
#[derive(Debug)]
pub struct PhaseTimer {
    clock: Stopwatch,
    /// Phases of the restarts absorbed so far, in restart order.
    pub restarts: Vec<SolvePhases>,
}

impl PhaseTimer {
    /// An observer stamping against `clock` (a [`Tracer::clock`]).
    #[must_use]
    pub fn new(clock: Stopwatch) -> Self {
        PhaseTimer {
            clock,
            restarts: Vec::new(),
        }
    }
}

/// The per-restart half of [`PhaseTimer`].
#[derive(Debug)]
pub struct PhaseProbe {
    clock: Stopwatch,
    phases: SolvePhases,
}

impl RestartObserver for PhaseProbe {
    fn on_iteration(&mut self, _event: &IterationEvent<'_>) {
        self.phases.iterations += 1;
        self.phases.descent_end_ns = self.clock.elapsed_ns();
    }

    fn on_recovery(&mut self, _event: &RecoveryEvent) {
        self.phases.recoveries += 1;
    }

    fn on_refine(&mut self, event: &RefineEvent) {
        self.phases.refine_moves += event.moves as u64;
        self.phases.refine_end_ns = self.clock.elapsed_ns();
    }
}

impl SolveObserver for PhaseTimer {
    type Restart = PhaseProbe;

    fn begin_restart(&mut self, _restart: usize) -> PhaseProbe {
        let now = self.clock.elapsed_ns();
        PhaseProbe {
            clock: self.clock,
            phases: SolvePhases {
                descent_start_ns: now,
                descent_end_ns: now,
                refine_end_ns: now,
                ..SolvePhases::default()
            },
        }
    }

    fn absorb_restart(&mut self, _restart: usize, probe: PhaseProbe) {
        self.restarts.push(probe.phases);
    }
}

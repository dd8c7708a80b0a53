//! `sfqpart` — command-line front end for the current-recycling flow.
//!
//! ```text
//! sfqpart generate <CIRCUIT> [-o out.def]        emit a benchmark as DEF
//! sfqpart stats    <file.def | CIRCUIT>          netlist statistics
//! sfqpart partition <file.def | CIRCUIT> -k K    partition + metrics
//!          [--solver repro|full|paper] [--seed N]
//!          [--budget ITERS] [--deadline-ms MS]
//!          [--trace trace.jsonl] [--metrics]
//! sfqpart plan     <file.def | CIRCUIT> [--limit MA]
//!                                                min-K plan under a B_max cap
//! sfqpart diagram  <file.def | CIRCUIT> -k K     Fig.1-style chip diagram
//! sfqpart trace-check  <trace.jsonl>             validate a solve trace
//! sfqpart trace-report <trace.jsonl>             per-restart convergence table
//! ```
//!
//! Inputs ending in `.def` are parsed; anything else is looked up in the
//! built-in benchmark registry (KSA4..C3540).
//!
//! Stream discipline: machine-readable output (DEF text, partition
//! summaries, convergence tables) goes to stdout; diagnostics (the
//! `--metrics` summary, deadline warnings, progress notes) go to stderr, so
//! piping stdout never captures telemetry chatter. A reader that closes
//! stdout early (`sfqpart generate C3540 | head`) ends the output, not the
//! run: the exit code is the one the run would have returned anyway.
//!
//! Failures are classified, not dumped as usage text: a bad invocation
//! (unknown command, a flag the command does not take, a bad flag value)
//! prints the usage and exits 2, a bad input (malformed DEF, unknown
//! circuit, unreadable file, and trace-file I/O or schema failures) prints
//! the typed error — with line/column for DEF, line number for traces —
//! and exits 3, and a solve-stage failure exits 4. A solve that completed
//! but was truncated by `--budget`/`--deadline-ms` prints its (best-effort)
//! result and exits 5, so callers can tell `budget_exhausted` from
//! `margin` without parsing the trace — the `stop:` line carries the same
//! distinction in text. One bad netlist in a batch sweep therefore fails
//! that run alone, identifiably.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

use current_recycling::cells::CellLibrary;
use current_recycling::circuits::registry::{generate, Benchmark};
use current_recycling::def::{parse_def, write_def};
use current_recycling::netlist::Netlist;
use current_recycling::partition::telemetry::{
    stop_reason_str, JsonlTraceWriter, PairObserver, SolveMetrics,
};
use current_recycling::partition::{
    BiasLimitPlanner, PartitionMetrics, PartitionProblem, SolveError, SolveResult, Solver,
    SolverOptions, StopReason,
};
use current_recycling::recycle::{render_chip_diagram, RecycleOptions, RecyclingPlan};
use current_recycling::report::convergence::{convergence_table, read_trace};

/// Classified CLI failure; the variant decides the exit code and whether
/// the usage text is shown.
enum CliError {
    /// The invocation itself is wrong (unknown command, bad flag value).
    /// Prints the usage; exit code 2.
    Usage(String),
    /// The input is wrong (unreadable file, malformed DEF, unknown
    /// circuit). Prints the typed error only; exit code 3.
    Input(String),
    /// The solve or planning stage failed. Exit code 4.
    Solve(String),
    /// The solve *completed* but a budget (`--budget`/`--deadline-ms`)
    /// truncated it before convergence. All normal output has already been
    /// printed; the exit code (5) flags the truncation so scripted callers
    /// can tell a best-effort result from a converged one without parsing
    /// the trace.
    Truncated,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError::Usage(message.into())
    }

    fn input(message: impl ToString) -> Self {
        CliError::Input(message.to_string())
    }
}

/// The one `io::Error` conversion: a failed write to standard output
/// (other than a broken pipe, which [`Output`] absorbs) is an I/O failure
/// like an unwritable file. Every file operation maps its own error.
impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Input(format!("cannot write to standard output: {e}"))
    }
}

/// The run's standard output. Once a write fails with `BrokenPipe` (the
/// reader has gone away) the rest of the output is dropped without an
/// error, so the run ends with the exit code it would have returned.
struct Output<W: Write> {
    sink: W,
    closed: bool,
}

impl<W: Write> Output<W> {
    fn new(sink: W) -> Self {
        Output {
            sink,
            closed: false,
        }
    }

    /// Runs `op` on the sink unless the reader has gone away; a broken
    /// pipe marks it gone and reads as success.
    fn guard<T>(&mut self, done: T, op: impl FnOnce(&mut W) -> io::Result<T>) -> io::Result<T> {
        if self.closed {
            return Ok(done);
        }
        match op(&mut self.sink) {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(done)
            }
            other => other,
        }
    }
}

impl<W: Write> Write for Output<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.guard(buf.len(), |sink| sink.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.guard((), Write::flush)
    }
}

/// Maps solver errors onto the CLI taxonomy: a rejected problem is an input
/// defect, everything else is a solve-stage failure.
impl From<SolveError> for CliError {
    fn from(e: SolveError) -> Self {
        match e {
            SolveError::InvalidProblem(_) => CliError::Input(e.to_string()),
            _ => CliError::Solve(e.to_string()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Output::new(io::stdout().lock());
    let result = run(&args, &mut out);
    let flushed = out.flush();
    match result.and(flushed.map_err(CliError::from)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Input(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(3)
        }
        Err(CliError::Solve(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(4)
        }
        // Not an error: the result was printed; the code flags truncation.
        Err(CliError::Truncated) => ExitCode::from(5),
    }
}

const USAGE: &str = "usage:
  sfqpart generate <CIRCUIT> [-o out.def]
  sfqpart stats <file.def | CIRCUIT>
  sfqpart partition <file.def | CIRCUIT> -k K [--solver repro|full|paper] [--seed N]
           [--budget ITERS] [--deadline-ms MS] [-o labels.txt]
           [--trace trace.jsonl] [--metrics]
  sfqpart plan <file.def | CIRCUIT> [--limit MA]
  sfqpart diagram <file.def | CIRCUIT> -k K
  sfqpart trace-check <trace.jsonl>
  sfqpart trace-report <trace.jsonl>
circuits: KSA4 KSA8 KSA16 KSA32 MULT4 MULT8 ID4 ID8 C432 C499 C1355 C1908 C3540
exit codes: 2 usage error, 3 input error (incl. trace-file I/O and malformed
traces), 4 solve error, 5 solve truncated by --budget/--deadline-ms
(partition output is still printed; see the `stop:` line)";

/// Runs one command, writing its machine-readable output to `out`.
fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut it = args.iter();
    let command = it
        .next()
        .ok_or_else(|| CliError::usage("missing command"))?;
    let rest: Vec<&String> = it.collect();
    match command.as_str() {
        "generate" => cmd_generate(&rest, out),
        "stats" => cmd_stats(&rest, out),
        "partition" => cmd_partition(&rest, out),
        "plan" => cmd_plan(&rest, out),
        "diagram" => cmd_diagram(&rest, out),
        "trace-check" => cmd_trace_check(&rest),
        "trace-report" => cmd_trace_report(&rest, out),
        "help" | "--help" | "-h" => Ok(writeln!(out, "{USAGE}")?),
        other => Err(CliError::usage(format!("unknown command `{other}`"))),
    }
}

/// Fails on a word that looks like a flag but is not one `command` takes,
/// so a misspelt `--seed` cannot run a different solve unnoticed. The
/// word after each accepted value flag is its value, whatever it looks
/// like.
fn accept_flags(args: &[&String], command: &str, allowed: &[&str]) -> Result<(), CliError> {
    let mut words = args.iter();
    while let Some(word) = words.next() {
        if allowed.contains(&word.as_str()) {
            if VALUE_FLAGS.contains(&word.as_str()) {
                words.next();
            }
        } else if word.starts_with('-') {
            return Err(CliError::usage(format!(
                "unknown flag `{word}` for `{command}`"
            )));
        }
    }
    Ok(())
}

/// Fetches the value following a flag.
fn flag_value<'a>(args: &'a [&String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a.as_str() == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn load(input: &str) -> Result<Netlist, CliError> {
    if input.ends_with(".def") {
        let text = std::fs::read_to_string(input)
            .map_err(|e| CliError::Input(format!("cannot read `{input}`: {e}")))?;
        parse_def(&text, CellLibrary::calibrated()).map_err(CliError::input)
    } else {
        let bench: Benchmark = input.parse().map_err(|_| {
            CliError::Input(format!(
                "`{input}` is neither a .def file nor a known circuit"
            ))
        })?;
        Ok(generate(bench))
    }
}

fn solver_from(args: &[&String]) -> Result<SolverOptions, CliError> {
    let mut options = match flag_value(args, "--solver").unwrap_or("full") {
        "repro" => SolverOptions::reproduction(),
        "full" => SolverOptions::tuned(4),
        "paper" => SolverOptions::paper_exact(),
        other => {
            return Err(CliError::usage(format!(
                "unknown solver `{other}` (repro|full|paper)"
            )))
        }
    };
    if let Some(seed) = flag_value(args, "--seed") {
        options.seed = seed
            .parse()
            .map_err(|_| CliError::usage(format!("invalid seed `{seed}`")))?;
    }
    if let Some(budget) = flag_value(args, "--budget") {
        let budget: usize = budget
            .parse()
            .map_err(|_| CliError::usage(format!("invalid iteration budget `{budget}`")))?;
        options.iteration_budget = Some(budget);
    }
    if let Some(deadline) = flag_value(args, "--deadline-ms") {
        let deadline: u64 = deadline
            .parse()
            .map_err(|_| CliError::usage(format!("invalid deadline `{deadline}`")))?;
        options.deadline_ms = Some(deadline);
    }
    Ok(options)
}

/// Flags followed by a value; [`positional`] skips the word after each.
const VALUE_FLAGS: [&str; 8] = [
    "-k",
    "-o",
    "--solver",
    "--seed",
    "--budget",
    "--deadline-ms",
    "--trace",
    "--limit",
];

/// The input argument: the first word that is neither a flag nor the value
/// of one, wherever the flags stand.
fn positional<'a>(args: &'a [&String]) -> Result<&'a str, CliError> {
    let mut words = args.iter();
    while let Some(word) = words.next() {
        if VALUE_FLAGS.contains(&word.as_str()) {
            words.next();
        } else if !word.starts_with('-') {
            return Ok(word.as_str());
        }
    }
    Err(CliError::usage("missing circuit or .def input"))
}

fn k_from(args: &[&String]) -> Result<usize, CliError> {
    let k = flag_value(args, "-k").ok_or_else(|| CliError::usage("missing -k <planes>"))?;
    let k: usize = k
        .parse()
        .map_err(|_| CliError::usage(format!("invalid plane count `{k}`")))?;
    if k < 2 {
        return Err(CliError::usage("need at least 2 planes"));
    }
    Ok(k)
}

fn cmd_generate(args: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    accept_flags(args, "generate", &["-o"])?;
    let name = positional(args)?;
    let bench: Benchmark = name
        .parse()
        .map_err(|_| CliError::Input(format!("unknown circuit `{name}`")))?;
    let netlist = generate(bench);
    let def_text = write_def(&netlist);
    match flag_value(args, "-o") {
        Some(path) => {
            std::fs::write(path, &def_text)
                .map_err(|e| CliError::Input(format!("cannot write `{path}`: {e}")))?;
            eprintln!(
                "wrote {} ({} gates, {} connections) to {path}",
                bench.name(),
                netlist.stats().num_gates,
                netlist.stats().num_connections
            );
        }
        None => out.write_all(def_text.as_bytes())?,
    }
    Ok(())
}

fn cmd_stats(args: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    accept_flags(args, "stats", &[])?;
    let netlist = load(positional(args)?)?;
    write!(out, "{}", netlist.stats())?;
    Ok(())
}

/// Opens the `--trace` sink: a buffered JSONL writer over a fresh file.
fn open_trace(path: &str) -> Result<JsonlTraceWriter<BufWriter<File>>, CliError> {
    let file = File::create(path)
        .map_err(|e| CliError::Input(format!("cannot create trace file `{path}`: {e}")))?;
    Ok(JsonlTraceWriter::new(BufWriter::new(file)))
}

/// Flushes the trace sink; any deferred write error surfaces here as an
/// input-class failure (exit 3), matching other file I/O problems.
fn close_trace(writer: JsonlTraceWriter<BufWriter<File>>, path: &str) -> Result<(), CliError> {
    writer
        .finish()
        .map(|_| ())
        .map_err(|e| CliError::Input(format!("cannot write trace file `{path}`: {e}")))
}

/// Runs the solve with whatever combination of `--trace` / `--metrics`
/// sinks was requested. Telemetry is observational only, so all four paths
/// produce bit-identical results; the sinks are monomorphized away when
/// absent.
fn solve_with_telemetry(
    solver: &Solver,
    problem: &PartitionProblem,
    trace_path: Option<&str>,
    want_metrics: bool,
) -> Result<SolveResult, CliError> {
    match (trace_path, want_metrics) {
        (None, false) => Ok(solver.try_solve(problem)?),
        (None, true) => {
            let mut metrics = SolveMetrics::new();
            let result = solver.try_solve_observed(problem, &mut metrics)?;
            eprintln!("{}", metrics.render());
            Ok(result)
        }
        (Some(path), false) => {
            let mut writer = open_trace(path)?;
            let solved = solver.try_solve_observed(problem, &mut writer);
            let flushed = close_trace(writer, path);
            let result = solved?; // solve failures (exit 4) outrank trace I/O
            flushed?;
            Ok(result)
        }
        (Some(path), true) => {
            let mut pair = PairObserver(open_trace(path)?, SolveMetrics::new());
            let solved = solver.try_solve_observed(problem, &mut pair);
            let PairObserver(writer, metrics) = pair;
            let flushed = close_trace(writer, path);
            let result = solved?;
            flushed?;
            eprintln!("{}", metrics.render());
            Ok(result)
        }
    }
}

fn cmd_partition(args: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    accept_flags(
        args,
        "partition",
        &[
            "-k",
            "-o",
            "--solver",
            "--seed",
            "--budget",
            "--deadline-ms",
            "--trace",
            "--metrics",
        ],
    )?;
    let netlist = load(positional(args)?)?;
    let k = k_from(args)?;
    let options = solver_from(args)?;
    let problem = PartitionProblem::from_netlist(&netlist, k).map_err(CliError::input)?;
    let trace_path = flag_value(args, "--trace");
    let want_metrics = args.iter().any(|a| a.as_str() == "--metrics");
    let solver = Solver::new(options);
    let result = solve_with_telemetry(&solver, &problem, trace_path, want_metrics)?;
    if result.stop_reason == StopReason::BudgetExhausted {
        eprintln!(
            "warning: solve budget (--budget/--deadline-ms) truncated the descent; \
             results reflect the best iterate reached, not convergence"
        );
    }
    let m = PartitionMetrics::evaluate(&problem, &result.partition);
    writeln!(
        out,
        "{}: G = {}, |E| = {}, K = {k}",
        netlist.name(),
        problem.num_gates(),
        problem.num_edges()
    )?;
    // `stop:` uses the trace schema's stable spelling (`margin`,
    // `budget_exhausted`, …), so scripts can grep one line instead of
    // parsing a trace; `converged`/`truncated`/`not converged` is the
    // human gloss.
    let gloss = match result.stop_reason {
        StopReason::Margin => "converged",
        StopReason::BudgetExhausted | StopReason::Cancelled => "truncated",
        StopReason::MaxIterations | StopReason::StepVanished | StopReason::NonFinite => {
            "not converged"
        }
    };
    writeln!(
        out,
        "stop: {} ({gloss}) after {} iterations, {} refinement moves",
        stop_reason_str(result.stop_reason),
        result.iterations,
        result.refine_moves
    )?;
    if result.diverged_restarts > 0 {
        eprintln!(
            "warning: {} restart(s) diverged and were excluded",
            result.diverged_restarts
        );
    }
    writeln!(
        out,
        "d<=1: {:.1}%   d<=2: {:.1}%   d<=floor(K/2): {:.1}%",
        100.0 * m.cumulative_fraction(1),
        100.0 * m.cumulative_fraction(2),
        100.0 * m.cumulative_fraction_half_k()
    )?;
    writeln!(
        out,
        "B_max: {:.2} mA ({:.2}% I_comp)   A_max: {:.4} mm^2 ({:.2}% A_FS)",
        m.b_max,
        m.i_comp_pct,
        m.a_max * 1e-6,
        m.a_fs_pct
    )?;
    for (plane, (bias, area)) in m.plane_bias.iter().zip(&m.plane_area).enumerate() {
        writeln!(
            out,
            "  GP {:>2}: {:>9.2} mA  {:>9.4} mm^2  {} gates",
            plane + 1,
            bias,
            area * 1e-6,
            result.partition.gates_in_plane(plane).count()
        )?;
    }
    if let Some(path) = flag_value(args, "-o") {
        let mut out = String::new();
        for gate in 0..problem.num_gates() {
            let cell = problem
                .gate_cell(gate)
                .ok_or_else(|| CliError::Input("problem lost its netlist mapping".to_owned()))?;
            out.push_str(&format!(
                "{} {}\n",
                netlist.cell(cell).name,
                result.partition.paper_label(gate)
            ));
        }
        std::fs::write(path, out)
            .map_err(|e| CliError::Input(format!("cannot write `{path}`: {e}")))?;
        eprintln!("wrote gate-to-plane assignment to {path}");
    }
    if result.stop_reason == StopReason::BudgetExhausted {
        return Err(CliError::Truncated);
    }
    Ok(())
}

fn cmd_plan(args: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    accept_flags(args, "plan", &["--limit"])?;
    let netlist = load(positional(args)?)?;
    let limit: f64 = flag_value(args, "--limit")
        .unwrap_or("100")
        .parse()
        .map_err(|_| CliError::usage("invalid --limit"))?;
    let problem = PartitionProblem::from_netlist(&netlist, 2).map_err(CliError::input)?;
    let planner = BiasLimitPlanner::new(limit, SolverOptions::tuned(2)).with_galloping(true);
    let outcome = planner
        .plan(&problem)
        .ok_or_else(|| CliError::Solve("no feasible plane count under this limit".to_owned()))?;
    writeln!(
        out,
        "{}: B_cir = {:.2} mA, limit = {limit} mA",
        netlist.name(),
        problem.total_bias()
    )?;
    writeln!(
        out,
        "K_LB = {}, K_res = {}, realized B_max = {:.2} mA",
        outcome.k_lower_bound, outcome.k_result, outcome.metrics.b_max
    )?;
    writeln!(
        out,
        "bias lines saved vs parallel feed: {}",
        outcome.bias_lines_saved()
    )?;
    Ok(())
}

/// Reads a trace file, mapping I/O and schema failures to input-class
/// errors with the offending line number.
fn load_trace(args: &[&String]) -> Result<Vec<current_recycling::partition::TraceEvent>, CliError> {
    let path = positional(args)?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Input(format!("cannot read trace file `{path}`: {e}")))?;
    read_trace(&text).map_err(|e| CliError::Input(format!("{path}: {e}")))
}

fn cmd_trace_check(args: &[&String]) -> Result<(), CliError> {
    accept_flags(args, "trace-check", &[])?;
    let events = load_trace(args)?;
    // Validation verdict is a diagnostic, not machine output: stderr.
    eprintln!(
        "trace OK: {} record(s), {} restart block(s)",
        events.len(),
        events
            .iter()
            .filter(|e| matches!(
                e,
                current_recycling::partition::TraceEvent::RestartStart { .. }
            ))
            .count()
    );
    Ok(())
}

fn cmd_trace_report(args: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    accept_flags(args, "trace-report", &[])?;
    let events = load_trace(args)?;
    write!(out, "{}", convergence_table(&events))?;
    Ok(())
}

fn cmd_diagram(args: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    accept_flags(args, "diagram", &["-k"])?;
    let netlist = load(positional(args)?)?;
    let k = k_from(args)?;
    let problem = PartitionProblem::from_netlist(&netlist, k).map_err(CliError::input)?;
    let result = Solver::new(SolverOptions::tuned(4)).try_solve(&problem)?;
    let plan = RecyclingPlan::build(
        &problem,
        &result.partition,
        &RecycleOptions {
            allow_empty_planes: true,
            ..RecycleOptions::default()
        },
    )
    .map_err(|e| CliError::Solve(e.to_string()))?;
    writeln!(out, "{}", render_chip_diagram(&plan))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{positional, run, CliError};

    fn input_of(words: &[&str]) -> Option<String> {
        let owned: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        let args: Vec<&String> = owned.iter().collect();
        positional(&args).ok().map(str::to_owned)
    }

    #[test]
    fn positional_skips_flag_values_wherever_flags_stand() {
        let invocations: [&[&str]; 6] = [
            &["KSA8", "-k", "5"],
            &["-k", "5", "KSA8"],
            &["--seed", "3", "KSA8", "-k", "5"],
            &["--limit", "100", "KSA8"],
            &["-o", "x.def", "KSA8"],
            &[
                "--solver",
                "repro",
                "--budget",
                "4",
                "--deadline-ms",
                "9",
                "--trace",
                "t.jsonl",
                "--metrics",
                "KSA8",
            ],
        ];
        for words in invocations {
            assert_eq!(input_of(words).as_deref(), Some("KSA8"), "{words:?}");
        }
        assert_eq!(input_of(&["-k", "5", "--metrics"]), None);
    }

    #[test]
    fn each_command_refuses_flags_it_does_not_take() {
        let invocations: [(&[&str], &str); 7] = [
            (&["partition", "KSA8", "-k", "5", "--sed", "3"], "--sed"),
            (&["partition", "KSA8", "-k", "5", "--limit", "3"], "--limit"),
            (&["plan", "KSA8", "-k", "5"], "-k"),
            (&["diagram", "KSA8", "-k", "5", "--seed", "1"], "--seed"),
            (&["generate", "KSA8", "-k", "5"], "-k"),
            (&["stats", "KSA8", "--metrics"], "--metrics"),
            (&["trace-report", "t.jsonl", "-o", "x"], "-o"),
        ];
        for (words, flag) in invocations {
            let args: Vec<String> = words.iter().map(|w| w.to_string()).collect();
            let mut stdout = Vec::new();
            match run(&args, &mut stdout) {
                Err(CliError::Usage(message)) => {
                    assert!(
                        message.contains(&format!("`{flag}`")),
                        "{words:?}: {message}"
                    );
                }
                _ => panic!("{words:?} must be a usage error naming {flag}"),
            }
            assert!(stdout.is_empty(), "{words:?} printed before failing");
        }
    }
}

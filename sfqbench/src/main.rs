//! `sfqbench` — the benchmark's one command.
//!
//! ```text
//! sfqbench [--seed N] [--seconds S] [--runs R] [--trace] [--out FILE] [--quick]
//! sfqbench --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! sfqbench compare BASE NEW [--bench BENCHMARK.json]
//! ```
//!
//! Without `--workload` it runs every workload, each in a child process of
//! its own (so peak memory and warm caches do not carry over), `--runs`
//! times with seeds `N, N+1, …`; prints every metric with its unit; appends
//! one record per run to `--out`; and exits 1 if any output check failed.
//! With `--workload` it runs that one workload in this process and prints
//! its JSON result as the last line of standard output. `compare` applies
//! `BENCHMARK.json`'s bounds to two results files and exits 1 on a
//! regression.
//!
//! Exit codes: 0 success, 1 a failed check or a regression, 2 usage, 3 a
//! run that could not set up or produce a result.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

use sfqbench::catalog::{metric_set, result_json, RunResult, WORKLOADS};
use sfqbench::compare::{compare, parse_bounds, parse_results};
use sfqbench::stats::median;
use sfqbench::{run_workload, RunConfig};

/// Seconds one run measures; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "\
usage: sfqbench [--seed N] [--seconds S] [--runs R] [--trace] [--out FILE] [--quick]
       sfqbench --workload NAME --seed N --seconds S --trace 0|1 [--quick]
       sfqbench compare BASE NEW [--bench BENCHMARK.json]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    runs: u64,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 2020,
        seconds: DEFAULT_SECONDS,
        runs: 1,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{name}` needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`; one of {WORKLOADS:?}"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "`--seed` wants an integer")?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("`--seconds` wants a positive number")?;
            }
            "--runs" => {
                parsed.runs = value("--runs")?
                    .parse()
                    .ok()
                    .filter(|&r| r > 0)
                    .ok_or("`--runs` wants a positive count")?;
            }
            // `--trace` alone, or `--trace 0|1` as BENCHMARK.json's command receives it.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value("--out")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// One workload in this process: the result line goes last on stdout.
fn run_one(cfg: &RunConfig) -> ExitCode {
    match run_workload(cfg) {
        Ok(result) => {
            println!("{}", result.result_line());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("sfqbench: {}: {e}", cfg.workload);
            ExitCode::from(3)
        }
    }
}

/// Runs `cfg` in a child process of this executable and parses its result.
fn run_child(cfg: &RunConfig) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", &cfg.workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if cfg.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or(format!(
            "{}: no result (exit {})",
            cfg.workload, output.status
        ))?;
    RunResult::parse_result_line(line, &cfg.workload, cfg.seed, cfg.trace)
        .ok_or(format!("{}: unparseable result `{line}`", cfg.workload))
}

/// Every workload, `runs` times each, in child processes.
fn run_all(args: &Args) -> ExitCode {
    let mut results = Vec::new();
    let mut ok = true;
    for run in 0..args.runs {
        for workload in WORKLOADS {
            let cfg = RunConfig {
                workload: workload.to_string(),
                seed: args.seed.wrapping_add(run),
                seconds: args.seconds,
                trace: args.trace,
                quick: args.quick,
            };
            match run_child(&cfg) {
                Ok(result) => {
                    println!(
                        "{workload} seed {}: correct {} ({} of {} failed)",
                        cfg.seed, result.correct, result.failed, result.attempted
                    );
                    for (name, unit) in metric_set(cfg.trace) {
                        if let Some(v) = result.metrics.get(*name) {
                            println!("  {name:<32} {v:>14.4} {unit}");
                        }
                    }
                    ok &= result.correct;
                    results.push(result);
                }
                Err(e) => {
                    // A run with no result counts as one failed operation,
                    // so `compare` sees it in the results file.
                    eprintln!("sfqbench: {e}");
                    ok = false;
                    results.push(RunResult {
                        workload: cfg.workload,
                        seed: cfg.seed,
                        trace: cfg.trace,
                        correct: false,
                        attempted: 1,
                        failed: 1,
                        metrics: BTreeMap::new(),
                    });
                }
            }
        }
    }
    if let Some(path) = &args.out {
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| {
                results
                    .iter()
                    .try_for_each(|r| writeln!(f, "{}", r.record_line()))
            });
        if let Err(e) = written {
            eprintln!("sfqbench: writing {path}: {e}");
            ok = false;
        }
    }
    // Summary line: medians over runs, keyed `workload/metric`.
    let mut by_key: BTreeMap<(String, &str, &str), Vec<f64>> = BTreeMap::new();
    for r in &results {
        for &(name, unit) in metric_set(args.trace) {
            if let Some(v) = r.metrics.get(name) {
                by_key
                    .entry((r.workload.clone(), name, unit))
                    .or_default()
                    .push(*v);
            }
        }
    }
    let metrics = by_key
        .iter()
        .filter_map(|((workload, name, unit), values)| {
            Some((format!("{workload}/{name}"), median(values)?, *unit))
        });
    let attempted = results.iter().map(|r| r.attempted).sum();
    let failed = results.iter().map(|r| r.failed).sum();
    println!("{}", result_json(ok, attempted, failed, metrics).to_json());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_compare(args: &[String]) -> ExitCode {
    let (mut files, mut bench) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bench" {
            match it.next() {
                Some(path) => bench = path.clone(),
                None => {
                    eprintln!("`--bench` needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        } else {
            files.push(arg.clone());
        }
    }
    let [base, new] = files.as_slice() else {
        eprintln!("compare wants BASE and NEW\n{USAGE}");
        return ExitCode::from(2);
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let loaded = (|| {
        let bounds = parse_bounds(&read(&bench)?)?;
        let base = parse_results(&read(base)?).map_err(|e| format!("{base}: {e}"))?;
        let new = parse_results(&read(new)?).map_err(|e| format!("{new}: {e}"))?;
        Ok::<_, String>((bounds, base, new))
    })();
    match loaded {
        Ok((bounds, base, new)) => {
            let (table, failing) = compare(&bounds, &base, &new);
            print!("{table}");
            if failing {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("sfqbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return run_compare(args.get(1..).unwrap_or_default());
    }
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("sfqbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &parsed.workload {
        Some(workload) => run_one(&RunConfig {
            workload: workload.clone(),
            seed: parsed.seed,
            seconds: parsed.seconds,
            trace: parsed.trace,
            quick: parsed.quick,
        }),
        None => run_all(&parsed),
    }
}

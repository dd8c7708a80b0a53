//! `sfqlint` CLI.
//!
//! ```text
//! sfqlint --workspace [--root DIR] [--config lint.toml]
//!         [--format text|json|github] [--strict-allow]
//! sfqlint [--config lint.toml] [--format …] FILE…
//! sfqlint --explain RULE
//! ```
//!
//! The config is `--config FILE`, or else `lint.toml` under `--root`
//! (default: the current directory). It is the only source of rule
//! scopes, so a run that finds no config exits 3 instead of linting
//! against an empty one.
//!
//! Every run also reports stale `lint.toml` entries: allowlist entries
//! that matched nothing and, in a `--workspace` run, `[rules.A1]`/
//! `[rules.P2]` roots that name no function (a renamed kernel would
//! otherwise drop out of those rules silently). Both are notes by default
//! and failures under `--strict-allow`, which CI sets.
//!
//! Exit codes: `0` clean, `1` findings (or stale entries under
//! `--strict-allow`), `2` usage error, `3` I/O or configuration error. A
//! reader that closes stdout early (`sfqlint … | head`) ends the output,
//! not the run: the exit code is still the one the findings decide.
//! Explicitly named files are linted with every rule active (crate/class
//! scoping bypassed) and form their own mini-workspace for the graph rules
//! — that is how the rule fixtures under `crates/lint/tests/fixtures/` are
//! exercised.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sfqlint::{apply_allowlist, explain, lint_targets, render_json, Config, FileTarget};

const USAGE: &str = "usage: sfqlint [--workspace] [--root DIR] [--config FILE] \
                     [--format text|json|github] [--strict-allow] [FILE...]\n\
                     \x20      sfqlint --explain RULE";

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

/// Any other failure to write standard output is an I/O error (exit 3).
fn stdout_failed(e: io::Error) -> (u8, String) {
    (3, format!("cannot write to standard output: {e}"))
}

enum Format {
    Text,
    Json,
    Github,
}

struct Args {
    workspace: bool,
    root: PathBuf,
    config: Option<PathBuf>,
    format: Format,
    strict_allow: bool,
    explain: Option<String>,
    files: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: PathBuf::from("."),
        config: None,
        format: Format::Text,
        strict_allow: false,
        explain: None,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--strict-allow" => args.strict_allow = true,
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain needs a rule id")?);
            }
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a path")?));
            }
            "--format" => match it.next().as_deref() {
                Some("text") => args.format = Format::Text,
                Some("json") => args.format = Format::Json,
                Some("github") => args.format = Format::Github,
                other => {
                    return Err(format!(
                        "--format must be text, json or github, got {other:?}"
                    ))
                }
            },
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            file => args.files.push(file.to_owned()),
        }
    }
    if args.explain.is_none() && !args.workspace && args.files.is_empty() {
        return Err("nothing to lint: pass --workspace or file paths".into());
    }
    Ok(args)
}

/// Loads `--config`, or `lint.toml` under `--root`. A missing file is an
/// error either way: `lint.toml` is the only source of rule scopes.
fn load_config(args: &Args) -> Result<Config, String> {
    let path = args
        .config
        .clone()
        .unwrap_or_else(|| args.root.join("lint.toml"));
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Config::parse(&text).map_err(|e| e.to_string())
}

/// One file loaded into memory: rule path, source, explicit flag.
struct Loaded {
    path: String,
    src: String,
    explicit: bool,
}

fn load(path_for_rules: &str, disk_path: &Path, explicit: bool) -> Result<Loaded, String> {
    let src = fs::read_to_string(disk_path)
        .map_err(|e| format!("cannot read {}: {e}", disk_path.display()))?;
    Ok(Loaded {
        path: path_for_rules.to_owned(),
        src,
        explicit,
    })
}

fn run(out: &mut impl Write) -> Result<ExitCode, (u8, String)> {
    let args = parse_args().map_err(|msg| {
        let text = if msg.is_empty() {
            USAGE.to_owned()
        } else {
            format!("{msg}\n{USAGE}")
        };
        (2, text)
    })?;
    if let Some(rule) = &args.explain {
        let text = explain(rule).ok_or_else(|| {
            (
                2,
                format!(
                    "unknown rule `{rule}`; known rules: {:?}",
                    sfqlint::config::RULE_IDS
                ),
            )
        })?;
        writeln!(out, "{text}").map_err(stdout_failed)?;
        return Ok(ExitCode::SUCCESS);
    }
    let cfg = load_config(&args).map_err(|e| (3, e))?;

    let mut loaded: Vec<Loaded> = Vec::new();
    if args.workspace {
        let files =
            sfqlint::collect_workspace_files(&args.root, &cfg).map_err(|e| (3, e.to_string()))?;
        for rel in &files {
            let disk = args.root.join(rel);
            loaded.push(load(rel, &disk, false).map_err(|e| (3, e))?);
        }
    }
    for file in &args.files {
        let rel = file.replace('\\', "/");
        loaded.push(load(&rel, Path::new(file), true).map_err(|e| (3, e))?);
    }

    let targets: Vec<FileTarget<'_>> = loaded
        .iter()
        .map(|l| FileTarget {
            path: &l.path,
            src: &l.src,
            explicit: l.explicit,
        })
        .collect();
    let report = lint_targets(&targets, &cfg);
    let (kept, suppressed, unused) = apply_allowlist(report.diags, &cfg);
    // Named files form a mini-workspace that is not expected to contain the
    // configured roots; only a workspace run can tell a root is gone.
    let unresolved = if args.workspace {
        report.unresolved_roots
    } else {
        Vec::new()
    };
    let stale = args.strict_allow && !(unused.is_empty() && unresolved.is_empty());
    let level = if args.strict_allow {
        "error"
    } else {
        "warning"
    };

    match args.format {
        Format::Json => writeln!(
            out,
            "{}",
            render_json(&kept, suppressed.len(), &unused, &unresolved)
        )
        .map_err(stdout_failed)?,
        Format::Github => {
            for d in &kept {
                writeln!(out, "{}", d.render_github()).map_err(stdout_failed)?;
            }
            // One `--explain` pointer per fired rule, so the annotation's
            // rationale is a single command away.
            let mut fired: Vec<&str> = kept.iter().map(|d| d.rule).collect();
            fired.sort_unstable();
            fired.dedup();
            for r in fired {
                writeln!(
                    out,
                    "::notice title=sfqlint {r}::run `sfqlint --explain {r}` for this \
                     rule's rationale and the workspace invariant it protects"
                )
                .map_err(stdout_failed)?;
            }
            for entry in &unused {
                writeln!(
                    out,
                    "::{level} title=sfqlint stale allow::unused allowlist entry {} at `{}` — \
                     remove it from lint.toml",
                    entry.rule, entry.path
                )
                .map_err(stdout_failed)?;
            }
            for r in &unresolved {
                writeln!(
                    out,
                    "::{level} title=sfqlint unresolved root::[rules.{}] root `{}` names no \
                     function in the workspace — fix or remove it in lint.toml",
                    r.rule, r.root
                )
                .map_err(stdout_failed)?;
            }
        }
        Format::Text => {
            for d in &kept {
                writeln!(out, "{}", d.render_text()).map_err(stdout_failed)?;
            }
            for entry in &unused {
                eprintln!(
                    "note: unused allowlist entry {} at `{}` — remove it from lint.toml",
                    entry.rule, entry.path
                );
            }
            for r in &unresolved {
                eprintln!(
                    "note: [rules.{}] root `{}` names no function in the workspace — \
                     fix or remove it in lint.toml",
                    r.rule, r.root
                );
            }
            if kept.is_empty() && !stale {
                eprintln!(
                    "sfqlint: clean ({} finding(s) suppressed by lint.toml)",
                    suppressed.len()
                );
            } else {
                eprintln!(
                    "sfqlint: {} finding(s), {} suppressed{}",
                    kept.len(),
                    suppressed.len(),
                    if stale {
                        ", stale lint.toml entries (--strict-allow)"
                    } else {
                        ""
                    }
                );
            }
        }
    }
    Ok(if kept.is_empty() && !stale {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let mut out = Output::new(io::stdout().lock());
    let result = run(&mut out);
    let flushed = out.flush().map_err(stdout_failed);
    match result.and_then(|code| flushed.map(|()| code)) {
        Ok(code) => code,
        Err((code, message)) => {
            eprintln!("{message}");
            ExitCode::from(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink whose reader has gone away: every write and flush fails
    /// with `kind`, and each attempt is counted.
    struct Failing {
        kind: io::ErrorKind,
        attempts: usize,
    }

    impl Write for Failing {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            self.attempts += 1;
            Err(self.kind.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.attempts += 1;
            Err(self.kind.into())
        }
    }

    #[test]
    fn a_broken_pipe_drops_the_rest_of_the_output() {
        let mut out = Output::new(Failing {
            kind: io::ErrorKind::BrokenPipe,
            attempts: 0,
        });
        assert!(writeln!(out, "first finding").is_ok());
        assert!(writeln!(out, "second finding").is_ok());
        assert!(out.flush().is_ok());
        assert_eq!(
            out.sink.attempts, 1,
            "nothing is written after the pipe breaks"
        );
    }

    #[test]
    fn other_write_errors_still_fail_the_run() {
        let mut out = Output::new(Failing {
            kind: io::ErrorKind::PermissionDenied,
            attempts: 0,
        });
        match writeln!(out, "finding") {
            Err(err) => {
                assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
                assert_eq!(stdout_failed(err).0, 3);
            }
            Ok(()) => panic!("a write error other than a broken pipe must surface"),
        }
    }
}

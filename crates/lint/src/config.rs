//! `lint.toml` — scoping and allowlist configuration for `sfqlint`.
//!
//! The file is parsed by a deliberately small TOML-subset reader (tables,
//! array-of-tables, string/bool/integer values, single-line string arrays)
//! so the tool stays dependency-free. Every allowlist entry must carry a
//! non-empty `reason`: suppressions without a written justification are a
//! configuration error, which is what turns the allowlist into reviewable
//! documentation instead of a mute button.

use std::fmt;

/// All rule identifiers, in report order.
pub const RULE_IDS: &[&str] = &["A1", "I1", "L1", "L2", "N1", "P2", "S1"];

/// One `[[allow]]` entry: suppress findings of `rule` in `path`, optionally
/// narrowed to a line and/or a message substring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule identifier (one of [`RULE_IDS`]).
    pub rule: String,
    /// Repo-relative path (forward slashes) the suppression applies to.
    pub path: String,
    /// Mandatory human-readable justification.
    pub reason: String,
    /// When set, only findings on this 1-based line are suppressed.
    pub line: Option<u32>,
    /// When set, only findings whose message contains this substring are
    /// suppressed.
    pub contains: Option<String>,
}

/// Parsed `lint.toml`. There are no built-in scopes: [`Config::default`]
/// has every list empty, so a rule covers only what the file names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// Directories (repo-relative) walked in `--workspace` mode.
    pub roots: Vec<String>,
    /// Path prefixes excluded from the walk (fixtures, vendored code).
    pub exclude: Vec<String>,
    /// Hot-path roots for rule A1 (allocation-freedom): qualified function
    /// names (`Type::method` or `module::fn`) whose entire reachable call
    /// graph must be allocation-free.
    pub a1_roots: Vec<String>,
    /// Crates whose library code rule I1 (no I/O outside sinks) covers.
    pub i1_crates: Vec<String>,
    /// Files exempt from I1: the designated telemetry/output sinks.
    pub i1_sink_files: Vec<String>,
    /// Condvar→Mutex association for L1/L2, as `condvar_class=mutex_class`
    /// entries: `.wait()` on the left-hand class is understood to release
    /// (and re-take) the right-hand lock class.
    pub l1_condvars: Vec<String>,
    /// Qualified function names that acquire the lock passed as their first
    /// argument (e.g. a `fn lock(m: &Mutex<T>)` poison-bridging helper).
    pub l1_acquire_fns: Vec<String>,
    /// Declared canonical lock order per crate (rule L1). Within a crate's
    /// list, locks may only be acquired left-to-right: holding a later
    /// class while acquiring an earlier one is a finding even without a
    /// completing cycle.
    pub l1_orders: Vec<(String, Vec<String>)>,
    /// Method/function call names that block the calling thread (rule L2):
    /// calling any of these with a lock held is a finding.
    pub l2_blocking_calls: Vec<String>,
    /// Qualified function names whose whole body is considered blocking for
    /// L2 (long-running solves, queue pops that park).
    pub l2_blocking_fns: Vec<String>,
    /// Extra signal-handler function names for rule S1, beyond the ones
    /// auto-detected from `signal(...)` registration call sites.
    pub s1_handlers: Vec<String>,
    /// Call names the signal handler's reachable set may contain (rule S1):
    /// the vetted async-signal-safe vocabulary (atomic ops only).
    pub s1_safe_calls: Vec<String>,
    /// Registered `unsafe` blocks as `path -- justification` entries
    /// (rule S1): each workspace file may contain at most as many `unsafe`
    /// blocks as it has entries here, and unregistered files may contain
    /// none.
    pub s1_unsafe_blocks: Vec<String>,
    /// Panic-freedom roots for rule P2: qualified function names whose
    /// entire reachable call graph must contain no panic construct
    /// (unchecked indexing, slice patterns, non-literal division, panicking
    /// macros, `.unwrap()`/`.expect()`, unresolved ⊤ calls).
    pub p2_roots: Vec<String>,
    /// Crates whose library code rule N1 (non-finite confinement) covers.
    pub n1_crates: Vec<String>,
    /// Divergence-recovery roots for N1: functions reachable from these may
    /// perform NaN/Inf-capable arithmetic, because the recovery machinery
    /// (rollback + halved-step retry) watches their results.
    pub n1_recovery_roots: Vec<String>,
    /// Files exempt from N1: the checked-math helper modules themselves
    /// (`core::float`, `core::lanes`, the integer-exponent kernels).
    pub n1_helper_files: Vec<String>,
    /// Allowlist entries.
    pub allows: Vec<AllowEntry>,
}

/// Error produced while parsing or validating `lint.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line in the config file (0 = file-level).
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: u32, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// One parsed TOML value from the supported subset.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    Str(String),
    Int(i64),
    Bool(bool),
    StrArray(Vec<String>),
}

impl Config {
    /// Parses `lint.toml` text into a [`Config`]. A key the file omits
    /// stays empty.
    ///
    /// # Errors
    ///
    /// Returns a positioned [`ConfigError`] on syntax the subset does not
    /// support, unknown rules/keys in `[[allow]]`, or allow entries missing
    /// a `reason`.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut pending_allow: Option<(AllowEntry, u32)> = None;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim().to_owned();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                finish_allow(&mut cfg, &mut pending_allow)?;
                let header = header.trim();
                if header != "allow" {
                    return Err(err(lineno, format!("unknown array-of-tables `{header}`")));
                }
                section = "allow".into();
                pending_allow = Some((
                    AllowEntry {
                        rule: String::new(),
                        path: String::new(),
                        reason: String::new(),
                        line: None,
                        contains: None,
                    },
                    lineno,
                ));
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                finish_allow(&mut cfg, &mut pending_allow)?;
                section = header.trim().to_owned();
                continue;
            }
            let (key, value) = parse_assignment(&line, lineno)?;
            apply_key(&mut cfg, &mut pending_allow, &section, &key, value, lineno)?;
        }
        finish_allow(&mut cfg, &mut pending_allow)?;
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), ConfigError> {
        for entry in &self.l1_condvars {
            if !entry.contains('=') {
                return Err(err(
                    0,
                    format!("[rules.L1] mapping `{entry}` must be `from=to`"),
                ));
            }
        }
        for entry in &self.s1_unsafe_blocks {
            let Some((path, reason)) = entry.split_once(" -- ") else {
                return Err(err(
                    0,
                    format!("[rules.S1] unsafe_blocks entry `{entry}` must be `path -- reason`"),
                ));
            };
            if path.trim().is_empty() || reason.trim().is_empty() {
                return Err(err(
                    0,
                    format!(
                        "[rules.S1] unsafe_blocks entry `{entry}` needs both a path \
                         and a written justification"
                    ),
                ));
            }
        }
        for entry in &self.allows {
            if !RULE_IDS.contains(&entry.rule.as_str()) {
                return Err(err(
                    0,
                    format!("[[allow]] has unknown rule `{}`", entry.rule),
                ));
            }
            if entry.path.is_empty() {
                return Err(err(0, "[[allow]] entry is missing `path`"));
            }
            if entry.reason.trim().is_empty() {
                return Err(err(
                    0,
                    format!(
                        "[[allow]] entry for {} at `{}` has no `reason` — every \
                         suppression must carry a written justification",
                        entry.rule, entry.path
                    ),
                ));
            }
        }
        Ok(())
    }
}

fn finish_allow(
    cfg: &mut Config,
    pending: &mut Option<(AllowEntry, u32)>,
) -> Result<(), ConfigError> {
    if let Some((entry, lineno)) = pending.take() {
        if entry.rule.is_empty() {
            return Err(err(lineno, "[[allow]] entry is missing `rule`"));
        }
        cfg.allows.push(entry);
    }
    Ok(())
}

/// Removes a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return line.get(..i).unwrap_or(line),
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

fn parse_assignment(line: &str, lineno: u32) -> Result<(String, Value), ConfigError> {
    let Some(eq) = line.find('=') else {
        return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
    };
    let key = line.get(..eq).unwrap_or("").trim().to_owned();
    let raw = line.get(eq + 1..).unwrap_or("").trim();
    if key.is_empty() {
        return Err(err(lineno, "empty key"));
    }
    Ok((key, parse_value(raw, lineno)?))
}

fn parse_value(raw: &str, lineno: u32) -> Result<Value, ConfigError> {
    if let Some(stripped) = raw.strip_prefix('"') {
        let Some(inner) = stripped.strip_suffix('"') else {
            return Err(err(lineno, format!("unterminated string `{raw}`")));
        };
        return Ok(Value::Str(unescape(inner)));
    }
    if raw == "true" {
        return Ok(Value::Bool(true));
    }
    if raw == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(inner) = raw.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in split_array(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part, lineno)? {
                Value::Str(s) => items.push(s),
                _ => return Err(err(lineno, "only string arrays are supported")),
            }
        }
        return Ok(Value::StrArray(items));
    }
    raw.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| err(lineno, format!("unsupported value `{raw}`")))
}

/// Splits an array body at commas outside quotes.
fn split_array(inner: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    for c in inner.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                current.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    parts.push(current);
    parts
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn expect_str(value: Value, key: &str, lineno: u32) -> Result<String, ConfigError> {
    match value {
        Value::Str(s) => Ok(s),
        _ => Err(err(lineno, format!("`{key}` must be a string"))),
    }
}

fn expect_str_array(value: Value, key: &str, lineno: u32) -> Result<Vec<String>, ConfigError> {
    match value {
        Value::StrArray(v) => Ok(v),
        _ => Err(err(lineno, format!("`{key}` must be an array of strings"))),
    }
}

fn apply_key(
    cfg: &mut Config,
    pending_allow: &mut Option<(AllowEntry, u32)>,
    section: &str,
    key: &str,
    value: Value,
    lineno: u32,
) -> Result<(), ConfigError> {
    match section {
        "allow" => {
            let Some((entry, _)) = pending_allow.as_mut() else {
                return Err(err(lineno, "key outside any [[allow]] entry"));
            };
            match key {
                "rule" => entry.rule = expect_str(value, key, lineno)?,
                "path" => entry.path = expect_str(value, key, lineno)?,
                "reason" => entry.reason = expect_str(value, key, lineno)?,
                "contains" => entry.contains = Some(expect_str(value, key, lineno)?),
                "line" => match value {
                    Value::Int(n) if n > 0 => entry.line = Some(n as u32),
                    _ => return Err(err(lineno, "`line` must be a positive integer")),
                },
                other => {
                    return Err(err(lineno, format!("unknown [[allow]] key `{other}`")));
                }
            }
        }
        "workspace" => match key {
            "roots" => cfg.roots = expect_str_array(value, key, lineno)?,
            "exclude" => cfg.exclude = expect_str_array(value, key, lineno)?,
            other => return Err(err(lineno, format!("unknown [workspace] key `{other}`"))),
        },
        "rules.A1" => match key {
            "roots" => cfg.a1_roots = expect_str_array(value, key, lineno)?,
            other => return Err(err(lineno, format!("unknown [rules.A1] key `{other}`"))),
        },
        "rules.I1" => match key {
            "crates" => cfg.i1_crates = expect_str_array(value, key, lineno)?,
            "sink_files" => cfg.i1_sink_files = expect_str_array(value, key, lineno)?,
            other => return Err(err(lineno, format!("unknown [rules.I1] key `{other}`"))),
        },
        "rules.L1" => match key {
            "condvars" => cfg.l1_condvars = expect_str_array(value, key, lineno)?,
            "acquire_fns" => cfg.l1_acquire_fns = expect_str_array(value, key, lineno)?,
            other => {
                if let Some(krate) = other.strip_prefix("order_") {
                    let order = expect_str_array(value, key, lineno)?;
                    cfg.l1_orders.retain(|(c, _)| c != krate);
                    cfg.l1_orders.push((krate.to_owned(), order));
                } else {
                    return Err(err(lineno, format!("unknown [rules.L1] key `{other}`")));
                }
            }
        },
        "rules.L2" => match key {
            "blocking_calls" => cfg.l2_blocking_calls = expect_str_array(value, key, lineno)?,
            "blocking_fns" => cfg.l2_blocking_fns = expect_str_array(value, key, lineno)?,
            other => return Err(err(lineno, format!("unknown [rules.L2] key `{other}`"))),
        },
        "rules.S1" => match key {
            "handlers" => cfg.s1_handlers = expect_str_array(value, key, lineno)?,
            "safe_calls" => cfg.s1_safe_calls = expect_str_array(value, key, lineno)?,
            "unsafe_blocks" => cfg.s1_unsafe_blocks = expect_str_array(value, key, lineno)?,
            other => return Err(err(lineno, format!("unknown [rules.S1] key `{other}`"))),
        },
        "rules.P2" => match key {
            "roots" => cfg.p2_roots = expect_str_array(value, key, lineno)?,
            other => return Err(err(lineno, format!("unknown [rules.P2] key `{other}`"))),
        },
        "rules.N1" => match key {
            "crates" => cfg.n1_crates = expect_str_array(value, key, lineno)?,
            "recovery_roots" => cfg.n1_recovery_roots = expect_str_array(value, key, lineno)?,
            "helper_files" => cfg.n1_helper_files = expect_str_array(value, key, lineno)?,
            other => return Err(err(lineno, format!("unknown [rules.N1] key `{other}`"))),
        },
        other => {
            return Err(err(
                lineno,
                format!("unknown section `[{other}]` (key `{key}`)"),
            ));
        }
    }
    Ok(())
}

/// The checked-in `lint.toml`, parsed: the config the unit tests lint under.
#[cfg(test)]
pub(crate) fn repo_config() -> Config {
    Config::parse(include_str!("../../../lint.toml")).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_file_is_the_empty_config() {
        assert_eq!(Config::parse("").unwrap(), Config::default());
    }

    /// With no defaults behind `lint.toml`, a deleted `[rules.…]` section
    /// would leave its rule with nothing to check and no finding to say so.
    #[test]
    fn checked_in_config_scopes_every_rule() {
        let cfg = repo_config();
        let scopes: [(&str, &[String]); 7] = [
            ("[workspace] roots", &cfg.roots),
            ("[rules.A1] roots", &cfg.a1_roots),
            ("[rules.I1] crates", &cfg.i1_crates),
            ("[rules.P2] roots", &cfg.p2_roots),
            ("[rules.N1] crates", &cfg.n1_crates),
            ("[rules.L2] blocking_calls", &cfg.l2_blocking_calls),
            ("[rules.S1] safe_calls", &cfg.s1_safe_calls),
        ];
        for (scope, list) in scopes {
            assert!(!list.is_empty(), "lint.toml leaves {scope} empty");
        }
    }

    #[test]
    fn parses_scopes_and_allows() {
        let cfg = Config::parse(
            r#"
# comment
[workspace]
roots = ["crates", "src"]

[rules.N1]
crates = ["core"]

[[allow]]
rule = "P2"
path = "crates/core/src/lanes.rs"
reason = "dense index arithmetic"
contains = "indexing"

[[allow]]
rule = "N1"
path = "crates/core/src/kernel.rs"
line = 35
reason = "exact dispatch"
"#,
        )
        .unwrap();
        assert_eq!(cfg.roots, vec!["crates", "src"]);
        assert_eq!(cfg.n1_crates, vec!["core"]);
        assert_eq!(cfg.allows.len(), 2);
        assert_eq!(cfg.allows[0].contains.as_deref(), Some("indexing"));
        assert_eq!(cfg.allows[1].line, Some(35));
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let e = Config::parse("[[allow]]\nrule = \"P2\"\npath = \"x.rs\"\n").unwrap_err();
        assert!(e.message.contains("reason"), "{e}");
    }

    #[test]
    fn allow_with_unknown_rule_is_rejected() {
        for rule in ["Z9", "D1", "D4"] {
            let text = format!("[[allow]]\nrule = \"{rule}\"\npath = \"x.rs\"\nreason = \"r\"\n");
            let e = Config::parse(&text).unwrap_err();
            assert!(e.message.contains("unknown rule"), "{e}");
        }
    }

    #[test]
    fn parses_concurrency_sections() {
        let cfg = Config::parse(
            r#"
[rules.L1]
condvars = ["a::cv=a::m"]
order_serviced = ["a::m", "b::m"]

[rules.L2]
blocking_calls = ["join"]

[rules.S1]
unsafe_blocks = ["src/x.rs -- handler stores an atomic"]
"#,
        )
        .unwrap();
        assert_eq!(cfg.l1_condvars, vec!["a::cv=a::m"]);
        assert_eq!(
            cfg.l1_orders
                .iter()
                .find(|(c, _)| c == "serviced")
                .unwrap()
                .1,
            vec!["a::m", "b::m"]
        );
        assert_eq!(cfg.l2_blocking_calls, vec!["join"]);
        assert_eq!(cfg.s1_unsafe_blocks.len(), 1);
    }

    #[test]
    fn condvar_mapping_without_equals_is_rejected() {
        let e = Config::parse("[rules.L1]\ncondvars = [\"oops\"]\n").unwrap_err();
        assert!(e.message.contains("from=to"), "{e}");
    }

    #[test]
    fn unsafe_block_entry_without_reason_is_rejected() {
        let e = Config::parse("[rules.S1]\nunsafe_blocks = [\"src/x.rs\"]\n").unwrap_err();
        assert!(e.message.contains("path -- reason"), "{e}");
    }

    #[test]
    fn comments_inside_strings_survive() {
        let cfg = Config::parse(
            "[[allow]]\nrule = \"L2\"\npath = \"a.rs\"\nreason = \"see issue #42\"\n",
        )
        .unwrap();
        assert_eq!(cfg.allows[0].reason, "see issue #42");
    }
}

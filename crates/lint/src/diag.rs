//! Diagnostics: positioned findings plus the text and JSON renderers.

use std::fmt::Write as _;

use crate::analysis::UnresolvedRoot;
use crate::config::{AllowEntry, Config};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier (one of [`crate::config::RULE_IDS`]).
    pub rule: &'static str,
    /// Repo-relative file path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// Renders as the conventional `file:line:col: RULE message` line.
    pub fn render_text(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }

    /// Stable key identifying the finding for allowlist purposes:
    /// `RULE@file:line`. Emitted in the JSON report so a suppression entry
    /// can be written from the report alone.
    pub fn allow_key(&self) -> String {
        format!("{}@{}:{}", self.rule, self.file, self.line)
    }

    /// Renders as a GitHub Actions workflow command, so findings surface
    /// as inline annotations on pull requests.
    pub fn render_github(&self) -> String {
        format!(
            "::error file={},line={},col={},title=sfqlint {}::{}",
            self.file,
            self.line,
            self.col,
            self.rule,
            github_escape(&self.message)
        )
    }
}

/// Escapes the message data of a workflow command (`%`, CR, LF).
fn github_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Splits `diags` into (kept, suppressed) according to the allowlist, and
/// reports which allow entries never matched anything (stale suppressions
/// deserve cleanup).
pub fn apply_allowlist(
    diags: Vec<Diagnostic>,
    cfg: &Config,
) -> (Vec<Diagnostic>, Vec<Diagnostic>, Vec<AllowEntry>) {
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    let mut used = vec![false; cfg.allows.len()];
    for diag in diags {
        let hit = cfg
            .allows
            .iter()
            .position(|entry| allow_matches(entry, &diag));
        match hit {
            Some(i) => {
                used[i] = true;
                suppressed.push(diag);
            }
            None => kept.push(diag),
        }
    }
    let unused = cfg
        .allows
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(e, _)| e.clone())
        .collect();
    (kept, suppressed, unused)
}

fn allow_matches(entry: &AllowEntry, diag: &Diagnostic) -> bool {
    entry.rule == diag.rule
        && entry.path == diag.file
        && entry.line.is_none_or(|l| l == diag.line)
        && entry
            .contains
            .as_deref()
            .is_none_or(|s| diag.message.contains(s))
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable report.
///
/// Shape: `{"version":2,"findings":[{rule,file,line,col,message,
/// allow_key}…],"total":N,"suppressed":M,"unused_allows":[{rule,path}…],
/// "unresolved_roots":[{rule,root}…]}` — findings are already sorted by
/// (file, line, col). `allow_key` is the stable `RULE@file:line` handle for
/// writing a `[[allow]]` entry straight from the report.
pub fn render_json(
    findings: &[Diagnostic],
    suppressed: usize,
    unused_allows: &[AllowEntry],
    unresolved_roots: &[UnresolvedRoot],
) -> String {
    let mut out = String::from("{\"version\":2,\"findings\":[");
    for (i, d) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\",\
             \"allow_key\":\"{}\"}}",
            d.rule,
            json_escape(&d.file),
            d.line,
            d.col,
            json_escape(&d.message),
            json_escape(&d.allow_key())
        );
    }
    let _ = write!(
        out,
        "],\"total\":{},\"suppressed\":{},\"unused_allows\":[",
        findings.len(),
        suppressed
    );
    for (i, e) in unused_allows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":\"{}\",\"path\":\"{}\"}}",
            json_escape(&e.rule),
            json_escape(&e.path)
        );
    }
    out.push_str("],\"unresolved_roots\":[");
    for (i, r) in unresolved_roots.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":\"{}\",\"root\":\"{}\"}}",
            r.rule,
            json_escape(&r.root)
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, file: &str, line: u32, message: &str) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.into(),
            line,
            col: 1,
            message: message.into(),
        }
    }

    #[test]
    fn allowlist_suppresses_exactly_its_target() {
        let mut cfg = Config::default();
        cfg.allows.push(AllowEntry {
            rule: "P2".into(),
            path: "a.rs".into(),
            reason: "r".into(),
            line: None,
            contains: Some("indexing".into()),
        });
        let diags = vec![
            diag("P2", "a.rs", 1, "slice indexing may panic"),
            diag("P2", "a.rs", 2, "`.unwrap()` in library code"),
            diag("P2", "b.rs", 1, "slice indexing may panic"),
            diag("N1", "a.rs", 1, "slice indexing may panic"),
        ];
        let (kept, suppressed, unused) = apply_allowlist(diags, &cfg);
        assert_eq!(suppressed.len(), 1);
        assert_eq!(suppressed[0].line, 1);
        assert_eq!(kept.len(), 3);
        assert!(unused.is_empty());
    }

    #[test]
    fn unused_allows_are_reported() {
        let mut cfg = Config::default();
        cfg.allows.push(AllowEntry {
            rule: "N1".into(),
            path: "never.rs".into(),
            reason: "r".into(),
            line: None,
            contains: None,
        });
        let (_, _, unused) = apply_allowlist(vec![], &cfg);
        assert_eq!(unused.len(), 1);
    }

    #[test]
    fn json_is_escaped() {
        let d = diag("S1", "a\"b.rs", 1, "tab\there");
        let json = render_json(&[d], 0, &[], &[]);
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("tab\\there"));
    }
}

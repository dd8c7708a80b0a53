//! The rule engine: five token-level rules over one lexed file.
//!
//! | Rule | Invariant protected |
//! |------|---------------------|
//! | D1 | No order-nondeterministic containers (`HashMap`/`HashSet`) in the numeric crates — iteration order must never reach an arithmetic or output path. |
//! | D2 | Wall-clock and entropy sources (`Instant::now`, `SystemTime`, `thread_rng`) confined to the solver's budget module. |
//! | D3 | Thread creation (`thread::spawn` / `thread::scope`) confined to the files `lint.toml` allows: the fused engine and the daemon. |
//! | F1 | No raw `==`/`!=` against float literals — exactness or tolerance must be spelled via the `float` helpers. |
//! | U1 | Every `unsafe` block carries a `// SAFETY:` comment and every `unreachable!()` states its invariant. |

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::{lex, Token, TokenKind};

/// What kind of source file a path denotes; rules scope by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code (the default).
    Lib,
    /// A binary target (`src/bin/`, `src/main.rs`).
    Bin,
    /// An example under `examples/`.
    Example,
    /// Integration tests under `tests/`.
    Test,
    /// Benchmark harnesses under `benches/`.
    Bench,
}

/// Classifies a repo-relative path (forward slashes).
pub fn classify(path: &str) -> FileClass {
    if path.contains("/tests/") || path.starts_with("tests/") {
        FileClass::Test
    } else if path.contains("/benches/") || path.starts_with("benches/") {
        FileClass::Bench
    } else if path.contains("/examples/") || path.starts_with("examples/") {
        FileClass::Example
    } else if path.contains("/src/bin/")
        || path.starts_with("src/bin/")
        || path.ends_with("src/main.rs")
    {
        FileClass::Bin
    } else {
        FileClass::Lib
    }
}

/// Extracts the crate name from a repo-relative path: `crates/<name>/…`
/// maps to `<name>`, everything else to the root facade crate.
pub fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("current-recycling")
}

/// One file to lint, with everything the rules need to scope themselves.
#[derive(Debug, Clone, Copy)]
pub struct FileTarget<'a> {
    /// Repo-relative path with forward slashes.
    pub path: &'a str,
    /// Source text.
    pub src: &'a str,
    /// True when the file was named explicitly on the command line: crate
    /// and class scoping are bypassed (the file is treated as library code
    /// of an in-scope crate) so rule fixtures exercise every rule
    /// regardless of where they live. `#[cfg(test)]` masking still applies.
    pub explicit: bool,
}

/// Lints one file under `cfg`, returning findings before allowlisting.
pub fn check_file(target: &FileTarget<'_>, cfg: &Config) -> Vec<Diagnostic> {
    let tokens = lex(target.src);
    check_file_tokens(target, cfg, &tokens)
}

/// Token-level entry point: lints one already-lexed file. The pipeline
/// ([`crate::analysis`]) lexes each file once and shares the stream
/// between the token rules, the item scanner, and the unsafe-block census.
pub fn check_file_tokens(
    target: &FileTarget<'_>,
    cfg: &Config,
    tokens: &[Token<'_>],
) -> Vec<Diagnostic> {
    let mask = test_mask(tokens);
    // Indices of significant (non-comment) tokens, for pattern matching.
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();

    let class = if target.explicit {
        FileClass::Lib
    } else {
        classify(target.path)
    };
    let krate = crate_of(target.path);
    let in_crate = |list: &[String]| target.explicit || list.iter().any(|c| c == krate);
    let file_allowed = |list: &[String]| !target.explicit && list.iter().any(|f| f == target.path);
    let runtime_class = matches!(class, FileClass::Lib | FileClass::Bin | FileClass::Example);

    let mut diags = Vec::new();
    let mut ctx = RuleCtx {
        tokens,
        mask: &mask,
        sig: &sig,
        path: target.path,
        diags: &mut diags,
    };

    if in_crate(&cfg.d1_crates) {
        rule_d1(&mut ctx);
    }
    if runtime_class && !file_allowed(&cfg.d2_allowed_files) {
        rule_d2(&mut ctx);
    }
    if runtime_class && !file_allowed(&cfg.d3_allowed_files) {
        rule_d3(&mut ctx);
    }
    if runtime_class {
        rule_f1(&mut ctx);
    }
    rule_u1(&mut ctx);

    diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    diags
}

struct RuleCtx<'a, 'b> {
    tokens: &'a [Token<'a>],
    /// `mask[i]` — token `i` lives inside `#[cfg(test)]` / `#[test]` code.
    mask: &'a [bool],
    /// Indices of non-comment tokens.
    sig: &'a [usize],
    path: &'a str,
    diags: &'b mut Vec<Diagnostic>,
}

impl<'a> RuleCtx<'a, '_> {
    fn emit(&mut self, rule: &'static str, tok: &Token<'_>, message: String) {
        self.diags.push(Diagnostic {
            rule,
            file: self.path.to_owned(),
            line: tok.line,
            col: tok.col,
            message,
        });
    }

    /// The significant token at stream position `s` (None past the end).
    fn sig_tok(&self, s: usize) -> Option<Token<'a>> {
        self.sig.get(s).map(|&i| self.tokens[i])
    }

    fn sig_masked(&self, s: usize) -> bool {
        self.sig.get(s).is_some_and(|&i| self.mask[i])
    }
}

/// Marks every token inside `#[cfg(test)]`- or `#[test]`-gated items.
///
/// Heuristic but robust for rustfmt'd code: on an outer attribute whose
/// idents include `test` (and not `not`/`cfg_attr`), mask from the
/// attribute through the end of the annotated item — the matching `}` of
/// its first depth-0 brace, or the terminating `;`.
pub(crate) fn test_mask(tokens: &[Token<'_>]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))) {
            i += 1;
            continue;
        }
        let Some(close) = matching_bracket(tokens, i + 1) else {
            break;
        };
        let attr = &tokens[i + 2..close];
        if !attr_is_test(attr) {
            i = close + 1;
            continue;
        }
        let end = item_end(tokens, close + 1).unwrap_or(tokens.len() - 1);
        for m in mask.iter_mut().take(end + 1).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// True for `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]` — but not
/// `#[cfg(not(test))]` or `#[cfg_attr(…)]`.
fn attr_is_test(attr: &[Token<'_>]) -> bool {
    let idents: Vec<&str> = attr
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text)
        .collect();
    match idents.first() {
        Some(&"cfg_attr") => false,
        _ => idents.contains(&"test") && !idents.contains(&"not"),
    }
}

/// `open` indexes a `[`; returns the index of its matching `]`.
fn matching_bracket(tokens: &[Token<'_>], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, tok) in tokens.iter().enumerate().skip(open) {
        if tok.is_punct("[") {
            depth += 1;
        } else if tok.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Finds the end of the item starting at `start`: the matching `}` of its
/// first depth-0 `{`, or a depth-0 `;` (e.g. `mod tests;`).
fn item_end(tokens: &[Token<'_>], start: usize) -> Option<usize> {
    let mut paren = 0i64;
    let mut bracket = 0i64;
    let mut i = start;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.text {
            "(" if t.kind == TokenKind::Punct => paren += 1,
            ")" if t.kind == TokenKind::Punct => paren -= 1,
            "[" if t.kind == TokenKind::Punct => bracket += 1,
            "]" if t.kind == TokenKind::Punct => bracket -= 1,
            ";" if t.kind == TokenKind::Punct && paren == 0 && bracket == 0 => return Some(i),
            "{" if t.kind == TokenKind::Punct && paren == 0 && bracket == 0 => {
                let mut depth = 0i64;
                for (j, tok) in tokens.iter().enumerate().skip(i) {
                    if tok.is_punct("{") {
                        depth += 1;
                    } else if tok.is_punct("}") {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j);
                        }
                    }
                }
                return None;
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// D1: `HashMap`/`HashSet` anywhere in a numeric crate — including tests,
/// where iteration order turns into flaky assertions. Applies to every
/// mention (not just iteration): once the type is in scope, nothing stops a
/// later edit from iterating it, so the numeric crates ban it outright in
/// favor of `BTreeMap`/`BTreeSet`/sorted `Vec`s.
fn rule_d1(ctx: &mut RuleCtx<'_, '_>) {
    for s in 0..ctx.sig.len() {
        let Some(tok) = ctx.sig_tok(s) else { continue };
        if tok.kind == TokenKind::Ident && (tok.text == "HashMap" || tok.text == "HashSet") {
            let msg = format!(
                "order-nondeterministic container `{}` in a numeric crate; use \
                 `BTreeMap`/`BTreeSet` or a sorted `Vec` so iteration order is \
                 deterministic (rule D1)",
                tok.text
            );
            ctx.emit("D1", &tok, msg);
        }
    }
}

/// D2: wall-clock / entropy reads outside the budget module.
fn rule_d2(ctx: &mut RuleCtx<'_, '_>) {
    for s in 0..ctx.sig.len() {
        if ctx.sig_masked(s) {
            continue;
        }
        let Some(tok) = ctx.sig_tok(s) else { continue };
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let name = match tok.text {
            "Instant" | "SystemTime" => tok.text,
            "thread_rng" | "from_entropy" => tok.text,
            _ => continue,
        };
        let msg = format!(
            "nondeterministic source `{name}` outside the solver budget module; \
             route wall-clock reads through `sfq_partition::budget` and seed all \
             RNGs explicitly (rule D2)"
        );
        ctx.emit("D2", &tok, msg);
    }
}

/// D3: `thread::spawn` / `thread::scope` outside the fused engine.
fn rule_d3(ctx: &mut RuleCtx<'_, '_>) {
    for s in 0..ctx.sig.len() {
        if ctx.sig_masked(s) {
            continue;
        }
        let Some(tok) = ctx.sig_tok(s) else { continue };
        if !tok.is_ident("thread") {
            continue;
        }
        let (Some(sep), Some(call)) = (ctx.sig_tok(s + 1), ctx.sig_tok(s + 2)) else {
            continue;
        };
        if sep.is_punct("::") && (call.is_ident("spawn") || call.is_ident("scope")) {
            let msg = format!(
                "thread creation (`thread::{}`) outside the fused engine; all \
                 parallelism must go through `sfq_partition::engine` so chunking \
                 and fold order stay deterministic (rule D3)",
                call.text
            );
            ctx.emit("D3", &tok, msg);
        }
    }
}

/// F1: `==` / `!=` with a float-literal operand.
fn rule_f1(ctx: &mut RuleCtx<'_, '_>) {
    for s in 0..ctx.sig.len() {
        if ctx.sig_masked(s) {
            continue;
        }
        let Some(tok) = ctx.sig_tok(s) else { continue };
        if !(tok.is_punct("==") || tok.is_punct("!=")) {
            continue;
        }
        let prev_float = s > 0
            && ctx
                .sig_tok(s - 1)
                .is_some_and(|t| t.kind == TokenKind::Float);
        let next_float = ctx
            .sig_tok(s + 1)
            .is_some_and(|t| t.kind == TokenKind::Float);
        if prev_float || next_float {
            let msg = format!(
                "raw float `{}` comparison; state the intent through \
                 `sfq_partition::float` (`exactly` for deliberate bit-exact \
                 compares, `approx_eq` for tolerances) (rule F1)",
                tok.text
            );
            ctx.emit("F1", &tok, msg);
        }
    }
}

/// U1: `unsafe` blocks need `// SAFETY:`; `unreachable!()` needs a message
/// or a justifying comment.
fn rule_u1(ctx: &mut RuleCtx<'_, '_>) {
    for s in 0..ctx.sig.len() {
        let Some(tok) = ctx.sig_tok(s) else { continue };
        if tok.is_ident("unsafe") {
            // `unsafe` in `#![forbid(unsafe_code)]`-style attributes lexes
            // as `unsafe_code`, a different ident, so every bare `unsafe`
            // here is the real keyword.
            if !has_justifying_comment(ctx, s, &["SAFETY:"]) {
                ctx.emit(
                    "U1",
                    &tok,
                    "`unsafe` without a `// SAFETY:` comment on the preceding \
                     lines (rule U1)"
                        .to_owned(),
                );
            }
            continue;
        }
        if tok.is_ident("unreachable")
            && ctx.sig_tok(s + 1).is_some_and(|t| t.is_punct("!"))
            && ctx.sig_tok(s + 2).is_some_and(|t| t.is_punct("("))
        {
            let has_message = ctx.sig_tok(s + 3).is_some_and(|t| !t.is_punct(")"));
            if !has_message && !has_justifying_comment(ctx, s, &["SAFETY:", "INVARIANT:"]) {
                ctx.emit(
                    "U1",
                    &tok,
                    "bare `unreachable!()`; state the invariant that makes this arm \
                     impossible, as a message or an `// INVARIANT:` comment (rule U1)"
                        .to_owned(),
                );
            }
        }
    }
}

/// Looks for a comment containing one of `markers` on the token's line or
/// the two lines above it.
fn has_justifying_comment(ctx: &RuleCtx<'_, '_>, s: usize, markers: &[&str]) -> bool {
    let Some(&tok_idx) = ctx.sig.get(s) else {
        return false;
    };
    let line = ctx.tokens[tok_idx].line;
    ctx.tokens
        .iter()
        .take(tok_idx)
        .rev()
        .take_while(|t| t.line + 2 >= line)
        .any(|t| t.is_comment() && markers.iter().any(|m| t.text.contains(m)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
        let cfg = crate::config::repo_config();
        check_file(
            &FileTarget {
                path,
                src,
                explicit: false,
            },
            &cfg,
        )
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/core/src/solver.rs"), FileClass::Lib);
        assert_eq!(classify("crates/core/tests/x.rs"), FileClass::Test);
        assert_eq!(classify("crates/bench/benches/b.rs"), FileClass::Bench);
        assert_eq!(classify("crates/bench/src/bin/table1.rs"), FileClass::Bin);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Example);
        assert_eq!(classify("src/bin/sfqpart.rs"), FileClass::Bin);
        assert_eq!(classify("src/lib.rs"), FileClass::Lib);
    }

    #[test]
    fn crate_names() {
        assert_eq!(crate_of("crates/core/src/lib.rs"), "core");
        assert_eq!(crate_of("src/lib.rs"), "current-recycling");
        assert_eq!(crate_of("examples/quickstart.rs"), "current-recycling");
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "pub fn f(p: f64) -> bool { p == 1.0 }\n\
                   #[cfg(test)]\nmod tests {\n  fn g(p: f64) -> bool { p == 1.0 }\n}\n";
        let diags = lint("crates/def/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].rule, diags[0].line), ("F1", 1));
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\npub fn f(p: f64) -> bool { p == 1.0 }\n";
        let diags = lint("crates/def/src/x.rs", src);
        assert!(diags.iter().any(|d| d.rule == "F1"), "{diags:?}");
    }

    #[test]
    fn d1_scopes_to_numeric_crates() {
        let src = "use std::collections::HashMap;\n";
        assert!(lint("crates/core/src/x.rs", src)
            .iter()
            .any(|d| d.rule == "D1"));
        assert!(lint("crates/netlist/src/x.rs", src).is_empty());
    }

    #[test]
    fn d3_allows_engine() {
        let src = "fn f() { crossbeam::thread::scope(|s| {}); }\n";
        assert!(lint("crates/core/src/solver.rs", src)
            .iter()
            .any(|d| d.rule == "D3"));
        assert!(lint("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn f1_needs_a_float_operand() {
        assert!(lint(
            "crates/core/src/x.rs",
            "fn f(p: f64) -> bool { p == 4.0 }\n"
        )
        .iter()
        .any(|d| d.rule == "F1"));
        assert!(lint("crates/core/src/x.rs", "fn f(p: u32) -> bool { p == 4 }\n").is_empty());
    }

    #[test]
    fn u1_accepts_messages_and_safety_comments() {
        let bad = "fn f() { unreachable!() }\n";
        let good = "fn f() { unreachable!(\"labels in range\") }\n";
        assert!(lint("crates/def/src/x.rs", bad)
            .iter()
            .any(|d| d.rule == "U1"));
        assert!(lint("crates/def/src/x.rs", good).is_empty());
    }
}

//! Item-level model of one source file: functions with qualified names,
//! spans, test-ness, and extracted call sites.
//!
//! This sits between the raw token stream ([`crate::lexer`]) and the
//! workspace graph ([`crate::graph`]). It is *not* a Rust parser — it is a
//! structural scanner that recognizes exactly the item shapes the
//! cross-file rules need (`mod`/`impl`/`trait`/`fn`/`use`) and records,
//! for every function, the calls and macro invocations its body makes.
//! Anything the scanner does not understand is skipped, never an error:
//! like the lexer, it must degrade gracefully on broken input so the lint
//! gate cannot be wedged by a half-written file.
//!
//! Approximations, by design:
//!
//! * Items nested inside function bodies (closures, nested `fn`s) are
//!   attributed to the enclosing function — conservative for call-graph
//!   purposes, since the enclosing function *may* run them.
//! * Method calls record only the method name; receiver types are resolved
//!   (approximately) by the graph layer, not here.
//! * Generic parameters are skipped by angle-bracket matching, which is
//!   sufficient because type position cannot contain braces.

use crate::lexer::{lex, Token, TokenKind};

/// Rust keywords that may directly precede a `[` without it being an index
/// expression (`let [a, b] = …`, `if let [x] = …`, `return [0; 4]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "return", "match", "if", "else", "move", "as", "box", "await",
    "break", "continue", "yield", "static", "const", "where", "dyn", "impl", "for", "while",
    "loop", "unsafe", "async", "fn", "type", "struct", "enum", "union", "trait", "use", "pub",
];

/// What a [`ValueSite`] records: one expression shape the value-flow rules
/// (P2 panic-freedom, N1 non-finite confinement) care about. The scanner
/// is token-level and intentionally conservative — each kind documents its
/// approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// Unchecked index expression `expr[i]`: `[` preceded by a
    /// non-keyword identifier, `)`, or `]`.
    Index,
    /// Slice destructuring `let [a, b] = …` — panics when the length
    /// mismatches a non-exhaustive pattern.
    SlicePat,
    /// Division with a non-literal divisor (`a / b`, `a /= b`). Divisions
    /// by a nonzero numeric literal are exempt — they cannot trap or make
    /// a fresh NaN/Inf from finite operands.
    DivNonLit,
    /// Remainder with a non-literal divisor (`a % b`, `a %= b`).
    ModNonLit,
    /// Division by a zero float literal (`x / 0.0` shapes): introduces
    /// NaN/Inf unconditionally.
    ZeroDivLit,
    /// A non-finite constant path (`NAN`, `INFINITY`, `NEG_INFINITY`).
    NanConst,
}

impl SiteKind {
    /// Human-readable construct name for diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            SiteKind::Index => "unchecked indexing `[…]`",
            SiteKind::SlicePat => "slice pattern `let […] = …`",
            SiteKind::DivNonLit => "division by a non-literal divisor",
            SiteKind::ModNonLit => "remainder by a non-literal divisor",
            SiteKind::ZeroDivLit => "division by a zero literal",
            SiteKind::NanConst => "non-finite constant (`NAN`/`INFINITY`)",
        }
    }
}

/// One value-flow fact inside a function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueSite {
    /// What shape was seen.
    pub kind: SiteKind,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// One call or macro invocation inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Final path segment (`pow_abs` for `kernel::pow_abs(…)`), or the
    /// macro name for `is_macro` sites.
    pub name: String,
    /// All path segments (`["kernel", "pow_abs"]`; single-element for bare
    /// calls, method calls, and macros).
    pub segments: Vec<String>,
    /// True when the call is `.name(…)` on some receiver.
    pub is_method: bool,
    /// True for `name!(…)` / `name![…]` / `name!{…}`.
    pub is_macro: bool,
    /// 1-based source line of the call.
    pub line: u32,
    /// 1-based source column of the call.
    pub col: u32,
    /// For method calls, the place-expression chain of the receiver
    /// (`self.shared.job.lock()` → `["self", "shared", "job"]`). Index
    /// expressions are elided (`xs[i].lock()` → `["xs"]`); a chain rooted
    /// in anything but a plain path (a call result, a parenthesized
    /// expression) is recorded as empty. Empty for non-method calls.
    pub receiver: Vec<String>,
    /// Per top-level argument: the plain path the argument names
    /// (`lock(&self.shared.job)` → `[["self", "shared", "job"]]`), after
    /// stripping leading `&`/`mut` and eliding index expressions. An
    /// argument that is not a plain place expression yields an empty path.
    pub args: Vec<Vec<String>>,
    /// Pre-order id of the innermost braced block containing the call
    /// (0 = function body); resolves against [`FnItem::block_parent`].
    pub block: u32,
    /// Monotone statement counter at the call (bumped at `;`, `{`, `}`):
    /// two calls share a statement iff their `stmt` values are equal.
    pub stmt: u32,
    /// The `let` binder this call's result flows into, when the trailing
    /// method chain after the call is only `unwrap`/`expect`/
    /// `unwrap_or_else` before the statement ends (`let g =
    /// m.lock().unwrap_or_else(…);` → `Some("g")`). `None` for results
    /// consumed any other way — such a guard is treated as
    /// statement-scoped.
    pub bound: Option<String>,
}

/// One function item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Qualified name: `Type::name` inside an `impl`/`trait` block,
    /// otherwise `module::path::name` with the module path derived from
    /// the file stem plus any inline `mod` nesting (`kernel::pow_abs`,
    /// `engine::tests::helper`, or plain `name` for `lib.rs` items).
    pub qname: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// True when the function lives under `#[cfg(test)]`/`#[test]`.
    pub in_test: bool,
    /// Calls and macro invocations in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Value-flow facts in the body, in source order (see [`ValueSite`]).
    pub facts: Vec<ValueSite>,
    /// Parent table for the body's braced blocks: `block_parent[b]` is the
    /// enclosing block of block `b` (block 0, the function body, is its
    /// own parent). Block `a` encloses call `c` iff `a` is on the parent
    /// chain of `c.block`.
    pub block_parent: Vec<u32>,
}

/// One `use` declaration, flattened: `use a::b::{c, d as e};` yields two
/// entries (`c → a::b::c`, `e → a::b::d`). Globs are skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// Name the path is bound to in this file.
    pub alias: String,
    /// Full path segments, including leading `crate`/`super`/`self`.
    pub segments: Vec<String>,
}

/// Everything the graph layer needs from one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileItems {
    /// Functions, in source order.
    pub fns: Vec<FnItem>,
    /// Flattened `use` declarations.
    pub uses: Vec<UseDecl>,
}

/// Keywords that can directly precede `(` without being a call.
const CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "let", "mut", "ref", "move", "in",
    "as", "where", "unsafe", "async", "await", "dyn", "impl", "fn", "pub", "use", "mod", "const",
    "static", "type", "struct", "enum", "union", "trait", "break", "continue", "yield", "box",
];

/// Module-path prefix a file contributes: the stem for `foo.rs`, nothing
/// for `lib.rs` / `mod.rs` / `main.rs` / bin targets.
fn file_module(path: &str) -> Option<&str> {
    let stem = path.rsplit('/').next()?.strip_suffix(".rs")?;
    match stem {
        "lib" | "mod" | "main" => None,
        _ => Some(stem),
    }
}

/// Context frame while scanning: what block we are inside.
#[derive(Debug)]
enum Frame {
    /// `mod name { … }`; the name extends the module path.
    Mod(String),
    /// `impl Type { … }`, `impl Trait for Type { … }`, or `trait Name { … }`;
    /// the name is the implementing type (or the trait's own name).
    Impl(String),
}

/// Parses `src` into its item-level model. Never fails.
pub fn parse_items(path: &str, src: &str) -> FileItems {
    let tokens = lex(src);
    parse_items_tokens(path, &tokens)
}

/// Token-level entry point: builds the item model from an already-lexed
/// stream, so the pipeline ([`crate::analysis`]) lexes each file exactly
/// once.
pub fn parse_items_tokens(path: &str, tokens: &[Token<'_>]) -> FileItems {
    let mask = test_mask(tokens);
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let tok = |s: usize| sig.get(s).map(|&i| tokens[i]);

    let mut out = FileItems::default();
    // Frames paired with the brace depth *inside* their block.
    let mut frames: Vec<(Frame, usize)> = Vec::new();
    let mut depth: usize = 0;
    let mut i = 0usize;
    while let Some(t) = tok(i) {
        if t.is_punct("{") {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            while frames.last().is_some_and(|&(_, d)| d > depth) {
                frames.pop();
            }
            i += 1;
            continue;
        }
        if t.is_ident("mod") {
            if let (Some(name), Some(open)) = (tok(i + 1), tok(i + 2)) {
                if name.kind == TokenKind::Ident && open.is_punct("{") {
                    frames.push((Frame::Mod(name.text.to_owned()), depth + 1));
                }
            }
            i += 2;
            continue;
        }
        if t.is_ident("impl") {
            let (frame, next) = parse_impl_header(tokens, &sig, i + 1);
            frames.push((frame, depth + 1));
            i = next;
            continue;
        }
        if t.is_ident("trait") {
            if let Some(name) = tok(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                frames.push((Frame::Impl(name.text.to_owned()), depth + 1));
                // Skip supertrait bounds etc. up to the opening brace.
                let mut j = i + 2;
                while let Some(n) = tok(j) {
                    if n.is_punct("{") || n.is_punct(";") {
                        break;
                    }
                    j += 1;
                }
                i = j;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_ident("use") {
            i = parse_use(tokens, &sig, i + 1, &mut out.uses);
            continue;
        }
        if t.is_ident("fn") {
            if let Some(name) = tok(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                let (item, next) = parse_fn(
                    path, tokens, &sig, &mask, i, name.text, &frames, t.line, t.col,
                );
                if let Some(item) = item {
                    out.fns.push(item);
                }
                i = next;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Parses an `impl` header starting after the `impl` keyword; returns the
/// frame and the stream position of the opening `{` (or past the `;`).
fn parse_impl_header(tokens: &[Token<'_>], sig: &[usize], start: usize) -> (Frame, usize) {
    let tok = |s: usize| sig.get(s).map(|&i| tokens[i]);
    let mut angle = 0usize;
    let mut paren = 0usize;
    let mut before_for: Option<&str> = None;
    let mut after_for: Option<&str> = None;
    let mut saw_for = false;
    let mut in_where = false;
    let mut j = start;
    while let Some(t) = tok(j) {
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle = angle.saturating_sub(1);
        } else if t.is_punct("(") {
            paren += 1;
        } else if t.is_punct(")") {
            paren = paren.saturating_sub(1);
        } else if angle == 0 && paren == 0 {
            if t.is_punct("{") || t.is_punct(";") {
                break;
            }
            if t.is_ident("for") {
                saw_for = true;
            } else if t.is_ident("where") {
                in_where = true;
            } else if t.kind == TokenKind::Ident && !in_where {
                let keyword = matches!(t.text, "dyn" | "unsafe" | "const" | "crate" | "super");
                if !keyword {
                    if saw_for {
                        after_for = Some(t.text);
                    } else {
                        before_for = Some(t.text);
                    }
                }
            }
        }
        j += 1;
    }
    let type_name = if saw_for { after_for } else { before_for };
    (Frame::Impl(type_name.unwrap_or_default().to_owned()), j)
}

/// Parses one `use` declaration starting after the `use` keyword; appends
/// flattened aliases and returns the position past the terminating `;`.
fn parse_use(tokens: &[Token<'_>], sig: &[usize], start: usize, out: &mut Vec<UseDecl>) -> usize {
    let tok = |s: usize| sig.get(s).map(|&i| tokens[i]);
    // Find the end first so malformed input cannot loop.
    let mut end = start;
    while let Some(t) = tok(end) {
        if t.is_punct(";") {
            break;
        }
        end += 1;
    }
    let mut prefix: Vec<String> = Vec::new();
    collect_use_tree(tokens, sig, start, end, &mut prefix, out);
    end + 1
}

/// Recursively flattens a use tree over stream positions `[start, end)`.
fn collect_use_tree(
    tokens: &[Token<'_>],
    sig: &[usize],
    start: usize,
    end: usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<UseDecl>,
) {
    let tok = |s: usize| sig.get(s).map(|&i| tokens[i]);
    let prefix_len = prefix.len();
    let mut path: Vec<String> = Vec::new();
    let mut j = start;
    while j < end {
        let Some(t) = tok(j) else { break };
        if t.kind == TokenKind::Ident {
            if t.text == "as" {
                // `path as alias`
                if let Some(alias) = tok(j + 1).filter(|a| a.kind == TokenKind::Ident) {
                    let mut full = prefix.clone();
                    full.append(&mut path);
                    out.push(UseDecl {
                        alias: alias.text.to_owned(),
                        segments: full,
                    });
                }
                path = Vec::new();
                j += 2;
                continue;
            }
            path.push(t.text.to_owned());
            j += 1;
            continue;
        }
        if t.is_punct("::") {
            j += 1;
            continue;
        }
        if t.is_punct("{") {
            // Group: recurse per comma-separated element.
            let close = matching_brace(tokens, sig, j, end);
            prefix.append(&mut path);
            let mut elem_start = j + 1;
            let mut k = j + 1;
            let mut inner = 0usize;
            while k < close {
                let Some(c) = tok(k) else { break };
                if c.is_punct("{") {
                    inner += 1;
                } else if c.is_punct("}") {
                    inner = inner.saturating_sub(1);
                } else if c.is_punct(",") && inner == 0 {
                    collect_use_tree(tokens, sig, elem_start, k, prefix, out);
                    elem_start = k + 1;
                }
                k += 1;
            }
            collect_use_tree(tokens, sig, elem_start, close, prefix, out);
            prefix.truncate(prefix_len);
            return;
        }
        if t.is_punct(",") {
            // Should only appear inside groups (handled above); be tolerant.
            j += 1;
            continue;
        }
        // `*` glob or anything else: drop this element.
        path.clear();
        j += 1;
    }
    if let Some(last) = path.last().cloned() {
        let alias = if last == "self" {
            // `use a::b::{self, …}` binds `b`.
            path.pop();
            match path.last().cloned().or_else(|| prefix.last().cloned()) {
                Some(a) => a,
                None => return,
            }
        } else {
            last
        };
        let mut full = prefix.clone();
        full.append(&mut path);
        out.push(UseDecl {
            alias,
            segments: full,
        });
    }
    prefix.truncate(prefix_len);
}

/// Matching `}` for the `{` at stream position `open`, bounded by `end`.
fn matching_brace(tokens: &[Token<'_>], sig: &[usize], open: usize, end: usize) -> usize {
    let tok = |s: usize| sig.get(s).map(|&i| tokens[i]);
    let mut depth = 0usize;
    let mut j = open;
    while j < end {
        let Some(t) = tok(j) else { break };
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    end
}

/// Parses a `fn` item starting at the `fn` keyword (stream position `at`).
/// Returns the item (None for bodyless trait-method declarations) and the
/// position to continue scanning from (past the body).
#[allow(clippy::too_many_arguments)] // internal plumbing for the scanner
fn parse_fn(
    path: &str,
    tokens: &[Token<'_>],
    sig: &[usize],
    mask: &[bool],
    at: usize,
    name: &str,
    frames: &[(Frame, usize)],
    line: u32,
    col: u32,
) -> (Option<FnItem>, usize) {
    let tok = |s: usize| sig.get(s).map(|&i| tokens[i]);
    let mut j = at + 2;
    // Generic parameters.
    if tok(j).is_some_and(|t| t.is_punct("<")) {
        let mut angle = 0usize;
        while let Some(t) = tok(j) {
            if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") {
                angle -= 1;
                if angle == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Parameters.
    if tok(j).is_some_and(|t| t.is_punct("(")) {
        let mut paren = 0usize;
        while let Some(t) = tok(j) {
            if t.is_punct("(") {
                paren += 1;
            } else if t.is_punct(")") {
                paren -= 1;
                if paren == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Return type / where clause: scan to the body or a `;`.
    let body_open = loop {
        match tok(j) {
            Some(t) if t.is_punct("{") => break Some(j),
            Some(t) if t.is_punct(";") => break None,
            Some(_) => j += 1,
            None => break None,
        }
    };
    let Some(open) = body_open else {
        // Trait method declaration without a body: nothing to analyze.
        return (None, j + 1);
    };
    let close = matching_brace(tokens, sig, open, sig.len());

    let impl_type = frames.iter().rev().find_map(|(f, _)| match f {
        Frame::Impl(type_name) => Some(type_name.clone()),
        Frame::Mod(_) => None,
    });
    let qname = match &impl_type {
        Some(t) => format!("{t}::{name}"),
        None => {
            let mut parts: Vec<&str> = Vec::new();
            if let Some(m) = file_module(path) {
                parts.push(m);
            }
            for (f, _) in frames {
                if let Frame::Mod(m) = f {
                    parts.push(m);
                }
            }
            parts.push(name);
            parts.join("::")
        }
    };
    let in_test = sig
        .get(at)
        .is_some_and(|&i| mask.get(i).copied().unwrap_or(false));
    let (calls, block_parent) = extract_calls(tokens, sig, open + 1, close);
    let facts = scan_value_sites(tokens, sig, open + 1, close);

    (
        Some(FnItem {
            name: name.to_owned(),
            qname,
            impl_type,
            line,
            col,
            in_test,
            calls,
            facts,
            block_parent,
        }),
        close + 1,
    )
}

/// Marks every token inside `#[cfg(test)]`- or `#[test]`-gated items.
///
/// Heuristic but robust for rustfmt'd code: on an outer attribute whose
/// idents include `test` (and not `not`/`cfg_attr`), mask from the
/// attribute through the end of the annotated item — the matching `}` of
/// its first depth-0 brace, or the terminating `;`.
fn test_mask(tokens: &[Token<'_>]) -> Vec<bool> {
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

/// True for a numeric literal token whose value is zero (`0`, `0.0`, `0.`,
/// `0e0`, `0.0f64`, `0_u32`). Suffixes and underscores are ignored; the
/// mantissa and any exponent digits must all be zero.
fn is_zero_literal(t: &Token<'_>) -> bool {
    if !matches!(t.kind, TokenKind::Int | TokenKind::Float) {
        return false;
    }
    let mut saw_digit = false;
    for c in t.text.chars() {
        match c {
            '0' | '.' | '_' | '+' | '-' | 'e' | 'E' => saw_digit |= c == '0',
            // First suffix letter ends the numeric part (`f64`, `u32`).
            c if c.is_ascii_alphabetic() => break,
            // Any nonzero digit.
            _ => return false,
        }
    }
    saw_digit
}

/// Scans stream positions `[start, end)` for value-flow facts. Token-level
/// and conservative by design; see each [`SiteKind`] for the exact shapes
/// and approximations.
fn scan_value_sites(
    tokens: &[Token<'_>],
    sig: &[usize],
    start: usize,
    end: usize,
) -> Vec<ValueSite> {
    let tok = |s: usize| sig.get(s).map(|&i| tokens[i]);
    let mut out: Vec<ValueSite> = Vec::new();
    let mut push = |kind: SiteKind, t: &Token<'_>| {
        out.push(ValueSite {
            kind,
            line: t.line,
            col: t.col,
        });
    };
    let mut k = start;
    while k < end {
        let Some(t) = tok(k) else { break };
        match t.kind {
            TokenKind::Ident => {
                if t.text == "let" {
                    // `let [a, b] = …`: slice pattern.
                    if let Some(open) = tok(k + 1).filter(|n| n.is_punct("[")) {
                        push(SiteKind::SlicePat, &open);
                    }
                } else if matches!(t.text, "NAN" | "INFINITY" | "NEG_INFINITY") {
                    push(SiteKind::NanConst, &t);
                }
            }
            TokenKind::Punct => match t.text {
                "[" if k > start => {
                    // An index expression iff the previous token ends a
                    // place expression.
                    if let Some(prev) = tok(k - 1) {
                        let indexes = match prev.kind {
                            TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text),
                            TokenKind::Punct => prev.text == ")" || prev.text == "]",
                            _ => false,
                        };
                        if indexes {
                            push(SiteKind::Index, &t);
                        }
                    }
                }
                "/" | "/=" | "%" | "%=" => {
                    let modulo = t.text.starts_with('%');
                    match tok(k + 1) {
                        Some(d)
                            if matches!(d.kind, TokenKind::Int | TokenKind::Float)
                                && is_zero_literal(&d)
                                && !modulo =>
                        {
                            push(SiteKind::ZeroDivLit, &t);
                        }
                        // Nonzero literal divisor: exempt.
                        Some(d) if matches!(d.kind, TokenKind::Int | TokenKind::Float) => {}
                        Some(_) => {
                            let kind = if modulo {
                                SiteKind::ModNonLit
                            } else {
                                SiteKind::DivNonLit
                            };
                            push(kind, &t);
                        }
                        None => {}
                    }
                }
                _ => {}
            },
            _ => {}
        }
        k += 1;
    }
    out
}

/// Extracts call sites and macro invocations from stream positions
/// `[start, end)`, together with the body's block-parent table.
fn extract_calls(
    tokens: &[Token<'_>],
    sig: &[usize],
    start: usize,
    end: usize,
) -> (Vec<CallSite>, Vec<u32>) {
    let tok = |s: usize| sig.get(s).map(|&i| tokens[i]);
    let mut out = Vec::new();
    // Block 0 is the function body; `{`/`}` push/pop pre-order ids.
    let mut block_parent: Vec<u32> = vec![0];
    let mut block_stack: Vec<u32> = vec![0];
    let mut stmt: u32 = 0;
    // Binder of the `let` statement currently being scanned, if any.
    let mut pending_let: Option<String> = None;
    let mut k = start;
    while k < end {
        let Some(t) = tok(k) else { break };
        if t.is_punct("{") {
            let id = block_parent.len() as u32;
            block_parent.push(block_stack.last().copied().unwrap_or(0));
            block_stack.push(id);
            stmt += 1;
            pending_let = None;
            k += 1;
            continue;
        }
        if t.is_punct("}") {
            if block_stack.len() > 1 {
                block_stack.pop();
            }
            stmt += 1;
            pending_let = None;
            k += 1;
            continue;
        }
        if t.is_punct(";") {
            stmt += 1;
            pending_let = None;
            k += 1;
            continue;
        }
        if t.kind != TokenKind::Ident || CALL_KEYWORDS.contains(&t.text) {
            if t.is_ident("let") {
                pending_let = let_binder(tokens, sig, k + 1);
            }
            k += 1;
            continue;
        }
        let block = block_stack.last().copied().unwrap_or(0);
        // Macro invocation.
        if tok(k + 1).is_some_and(|n| n.is_punct("!")) {
            out.push(CallSite {
                name: t.text.to_owned(),
                segments: vec![t.text.to_owned()],
                is_method: false,
                is_macro: true,
                line: t.line,
                col: t.col,
                receiver: Vec::new(),
                args: Vec::new(),
                block,
                stmt,
                bound: None,
            });
            k += 2;
            continue;
        }
        // Path: `a::b::<T>::c(`, `a(`, `.a(`, `.collect::<Vec<_>>(`.
        let mut segments = vec![t.text.to_owned()];
        let first = t;
        let mut m = k + 1;
        loop {
            if !tok(m).is_some_and(|n| n.is_punct("::")) {
                break;
            }
            match tok(m + 1) {
                Some(n) if n.kind == TokenKind::Ident => {
                    segments.push(n.text.to_owned());
                    m += 2;
                }
                Some(n) if n.is_punct("<") => {
                    // Turbofish: skip the angle group.
                    let mut angle = 0usize;
                    let mut p = m + 1;
                    while let Some(a) = tok(p) {
                        if a.is_punct("<") {
                            angle += 1;
                        } else if a.is_punct(">") {
                            angle -= 1;
                            if angle == 0 {
                                p += 1;
                                break;
                            }
                        } else if a.is_punct(">>") {
                            angle = angle.saturating_sub(2);
                            if angle == 0 {
                                p += 1;
                                break;
                            }
                        }
                        p += 1;
                    }
                    let _ = n;
                    m = p;
                }
                _ => break,
            }
        }
        if tok(m).is_some_and(|n| n.is_punct("(")) {
            let is_method =
                k > start.saturating_sub(1) && k > 0 && tok(k - 1).is_some_and(|p| p.is_punct("."));
            let name = segments.last().cloned().unwrap_or_default();
            let receiver = if is_method {
                receiver_chain(tokens, sig, k)
            } else {
                Vec::new()
            };
            let close = matching_paren(tokens, sig, m, end);
            let args = arg_paths(tokens, sig, m + 1, close);
            let bound = if pending_let.is_some() && trails_into_semicolon(tokens, sig, close + 1) {
                pending_let.clone()
            } else {
                None
            };
            out.push(CallSite {
                name,
                segments,
                is_method,
                is_macro: false,
                line: first.line,
                col: first.col,
                receiver,
                args,
                block,
                stmt,
                bound,
            });
        }
        k = m.max(k + 1);
    }
    (out, block_parent)
}

/// The binder a `let` statement introduces, scanning from just past the
/// `let` keyword: `let mut g = …` → `g`; destructuring enum/struct
/// patterns take the first bound ident (`let Some(g) = …` → `g`); tuple
/// and other patterns yield `None`.
fn let_binder(tokens: &[Token<'_>], sig: &[usize], start: usize) -> Option<String> {
    let tok = |s: usize| sig.get(s).map(|&i| tokens[i]);
    let mut j = start;
    while tok(j).is_some_and(|n| n.is_ident("mut") || n.is_ident("ref")) {
        j += 1;
    }
    let head = tok(j).filter(|n| n.kind == TokenKind::Ident)?;
    if CALL_KEYWORDS.contains(&head.text) {
        return None;
    }
    if tok(j + 1).is_some_and(|n| n.is_punct("(")) {
        // `let Some(g) = …`: the first plain ident inside the pattern.
        let mut q = j + 2;
        while let Some(n) = tok(q) {
            if n.is_punct(")") {
                return None;
            }
            if n.is_ident("mut") || n.is_ident("ref") {
                q += 1;
                continue;
            }
            if n.kind == TokenKind::Ident {
                return Some(n.text.to_owned());
            }
            q += 1;
        }
        return None;
    }
    Some(head.text.to_owned())
}

/// Matching `)` for the `(` at stream position `open`, bounded by `end`.
fn matching_paren(tokens: &[Token<'_>], sig: &[usize], open: usize, end: usize) -> usize {
    let tok = |s: usize| sig.get(s).map(|&i| tokens[i]);
    let mut depth = 0usize;
    let mut j = open;
    while j < end {
        let Some(t) = tok(j) else { break };
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    end
}

/// True when the tokens from `at` form only an `unwrap`/`expect`/
/// `unwrap_or_else` method chain ending in `;` — the shape under which a
/// `let` binder still names the call's own result (a lock guard
/// surviving poison recovery, typically).
fn trails_into_semicolon(tokens: &[Token<'_>], sig: &[usize], at: usize) -> bool {
    let tok = |s: usize| sig.get(s).map(|&i| tokens[i]);
    let mut j = at;
    loop {
        match tok(j) {
            Some(t) if t.is_punct(";") => return true,
            Some(t) if t.is_punct(".") => {
                let Some(name) = tok(j + 1).filter(|n| n.kind == TokenKind::Ident) else {
                    return false;
                };
                if !matches!(name.text, "unwrap" | "expect" | "unwrap_or_else") {
                    return false;
                }
                if !tok(j + 2).is_some_and(|n| n.is_punct("(")) {
                    return false;
                }
                j = matching_paren(tokens, sig, j + 2, sig.len()) + 1;
            }
            _ => return false,
        }
    }
}

/// The receiver place-expression chain for the method call whose name sits
/// at stream position `k` (`tok(k - 1)` is `.`). Walks backwards through
/// `ident` / `ident[…]` links; a chain rooted in anything else (a call
/// result, a parenthesized expression) yields an empty chain.
fn receiver_chain(tokens: &[Token<'_>], sig: &[usize], k: usize) -> Vec<String> {
    let tok = |s: usize| sig.get(s).map(|&i| tokens[i]);
    let mut chain: Vec<String> = Vec::new();
    let mut j = k;
    while j >= 2 && tok(j - 1).is_some_and(|p| p.is_punct(".")) {
        let mut p = j - 2;
        // Elide one `[…]` index group: `xs[i].lock()` links through `xs`.
        if tok(p).is_some_and(|n| n.is_punct("]")) {
            let mut depth = 0usize;
            let mut q = p;
            let open = loop {
                match tok(q) {
                    Some(n) if n.is_punct("]") => depth += 1,
                    Some(n) if n.is_punct("[") => {
                        depth -= 1;
                        if depth == 0 {
                            break Some(q);
                        }
                    }
                    _ => {}
                }
                if q == 0 {
                    break None;
                }
                q -= 1;
            };
            match open {
                Some(q) if q >= 1 => p = q - 1,
                _ => {
                    chain.clear();
                    break;
                }
            }
        }
        match tok(p) {
            Some(n) if n.kind == TokenKind::Ident && !CALL_KEYWORDS.contains(&n.text) => {
                chain.push(n.text.to_owned());
                j = p;
            }
            _ => {
                // Rooted in a call result or grouping: receiver unknown.
                chain.clear();
                break;
            }
        }
    }
    chain.reverse();
    chain
}

/// Splits the argument tokens in `[start, end)` at top-level commas and
/// extracts each argument's plain path (see [`CallSite::args`]).
fn arg_paths(tokens: &[Token<'_>], sig: &[usize], start: usize, end: usize) -> Vec<Vec<String>> {
    let tok = |s: usize| sig.get(s).map(|&i| tokens[i]);
    if start >= end {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut arg_start = start;
    let mut depth = 0usize;
    let mut j = start;
    while j < end {
        let Some(t) = tok(j) else { break };
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth = depth.saturating_sub(1);
        } else if t.is_punct(",") && depth == 0 {
            out.push(plain_path(tokens, sig, arg_start, j));
            arg_start = j + 1;
        }
        j += 1;
    }
    out.push(plain_path(tokens, sig, arg_start, end));
    out
}

/// The plain path an expression over `[start, end)` names: leading `&` /
/// `mut` / `*` stripped, `ident` segments linked by `.` / `::`, index
/// groups elided mid-chain. Anything else — a call, a closure, a literal —
/// yields an empty path.
fn plain_path(tokens: &[Token<'_>], sig: &[usize], start: usize, end: usize) -> Vec<String> {
    let tok = |s: usize| sig.get(s).map(|&i| tokens[i]);
    let mut j = start;
    while j < end && tok(j).is_some_and(|t| t.is_punct("&") || t.is_punct("*") || t.is_ident("mut"))
    {
        j += 1;
    }
    let mut path: Vec<String> = Vec::new();
    let mut expect_ident = true;
    while j < end {
        let Some(t) = tok(j) else { break };
        if expect_ident {
            if t.kind != TokenKind::Ident || CALL_KEYWORDS.contains(&t.text) {
                return Vec::new();
            }
            path.push(t.text.to_owned());
            expect_ident = false;
            j += 1;
            continue;
        }
        if t.is_punct(".") || t.is_punct("::") {
            expect_ident = true;
            j += 1;
            continue;
        }
        if t.is_punct("[") {
            // Elide the index expression; the chain may continue after it.
            let mut depth = 0usize;
            while j < end {
                let Some(n) = tok(j) else { break };
                if n.is_punct("[") {
                    depth += 1;
                } else if n.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            j += 1;
            continue;
        }
        return Vec::new();
    }
    if expect_ident {
        // Trailing separator: malformed; treat as non-path.
        return Vec::new();
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> FileItems {
        parse_items("crates/core/src/example.rs", src)
    }

    #[test]
    fn free_fn_gets_module_qname() {
        let f = items("pub fn pow_abs(x: f64) -> f64 { x.abs() }");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].qname, "example::pow_abs");
        assert_eq!(f.fns[0].impl_type, None);
    }

    #[test]
    fn lib_rs_items_have_no_module_prefix() {
        let f = parse_items("crates/core/src/lib.rs", "pub fn top() {}");
        assert_eq!(f.fns[0].qname, "top");
    }

    #[test]
    fn impl_methods_and_calls() {
        let f = items(
            "impl<'a> CostEngine<'a> {\n\
             pub fn evaluate(&mut self, w: &W) -> f64 { self.gate_pass(w) }\n\
             pub fn options(&self) -> O { self.options }\n\
             }",
        );
        assert_eq!(f.fns[0].qname, "CostEngine::evaluate");
        assert_eq!(f.fns[1].qname, "CostEngine::options");
        assert_eq!(f.fns[0].calls.len(), 1);
        assert!(f.fns[0].calls[0].is_method);
        assert_eq!(f.fns[0].calls[0].name, "gate_pass");
    }

    #[test]
    fn trait_impls_name_the_implementing_type() {
        let f = items(
            "impl<W: Write> SolveObserver for JsonlTraceWriter<W> {\n\
             fn on_solve_end(&mut self, e: &E) { self.emit(e); }\n\
             }",
        );
        assert_eq!(f.fns[0].impl_type.as_deref(), Some("JsonlTraceWriter"));
        assert_eq!(f.fns[0].qname, "JsonlTraceWriter::on_solve_end");
    }

    #[test]
    fn trait_default_methods_count_as_trait_methods() {
        let f = items("trait Obs { fn on_x(&mut self) { helper(); } fn decl(&self); }");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].qname, "Obs::on_x");
        assert_eq!(f.fns[0].calls[0].name, "helper");
    }

    #[test]
    fn nested_mods_extend_qnames() {
        let f = items("mod inner { pub fn g() {} }");
        assert_eq!(f.fns[0].qname, "example::inner::g");
    }

    #[test]
    fn use_trees_flatten() {
        let f = items(
            "use crate::kernel::{pow_abs, pow_grad_abs as pga};\n\
             use std::collections::BTreeMap;\n\
             use a::b::{self, c};\n",
        );
        let pairs: Vec<(String, String)> = f
            .uses
            .iter()
            .map(|u| (u.alias.clone(), u.segments.join("::")))
            .collect();
        assert!(pairs.contains(&("pow_abs".into(), "crate::kernel::pow_abs".into())));
        assert!(pairs.contains(&("pga".into(), "crate::kernel::pow_grad_abs".into())));
        assert!(pairs.contains(&("BTreeMap".into(), "std::collections::BTreeMap".into())));
        assert!(pairs.contains(&("b".into(), "a::b".into())));
        assert!(pairs.contains(&("c".into(), "a::b::c".into())));
    }

    #[test]
    fn calls_capture_paths_macros_and_turbofish() {
        let f = items(
            "fn body() {\n\
             kernel::pow_abs(d, p);\n\
             let v = xs.iter().collect::<Vec<_>>();\n\
             format!(\"x{}\", 1);\n\
             helper(2);\n\
             }",
        );
        let calls = &f.fns[0].calls;
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"pow_abs"));
        assert!(names.contains(&"iter"));
        assert!(names.contains(&"collect"));
        assert!(names.contains(&"format"));
        assert!(names.contains(&"helper"));
        let pow = calls.iter().find(|c| c.name == "pow_abs").unwrap();
        assert_eq!(pow.segments, vec!["kernel", "pow_abs"]);
        assert!(!pow.is_method);
        let collect = calls.iter().find(|c| c.name == "collect").unwrap();
        assert!(collect.is_method);
        let fmt = calls.iter().find(|c| c.name == "format").unwrap();
        assert!(fmt.is_macro);
    }

    #[test]
    fn cfg_test_fns_are_flagged() {
        let f =
            items("#[cfg(test)]\nmod tests { fn helper() { alloc_here(); } }\npub fn live() {}");
        let helper = f.fns.iter().find(|x| x.name == "helper").unwrap();
        assert!(helper.in_test);
        let live = f.fns.iter().find(|x| x.name == "live").unwrap();
        assert!(!live.in_test);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let f = items("#[cfg(not(test))]\npub fn f(p: f64) -> bool { p > 1.0 }\n");
        assert_eq!(f.fns.len(), 1);
        assert!(!f.fns[0].in_test);
    }

    #[test]
    fn let_patterns_are_not_indexing() {
        let f = items("pub fn f(v: [u8; 2]) -> u8 { let [a, _b] = v; a + v[1] }");
        let kinds: Vec<SiteKind> = f.fns[0].facts.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![SiteKind::SlicePat, SiteKind::Index]);
    }

    #[test]
    fn broken_input_never_panics() {
        for src in [
            "fn",
            "fn (",
            "impl {",
            "use ::;",
            "fn f( {",
            "mod m { fn g(",
            "impl X for {}",
            "trait {",
            "fn f() { a::(); b.(); ::x(); }",
            "use a::{b, {c}};",
        ] {
            let _ = parse_items("x.rs", src);
        }
    }
}

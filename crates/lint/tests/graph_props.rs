//! Property tests: the item parser, graph construction, and the graph
//! rules must never panic, whatever bytes they are fed. The
//! lint gate runs on every push — a panic on a half-written file would
//! wedge CI harder than any finding, so "tolerant scanner, conservative ⊤"
//! is a hard invariant, not a best effort.

use proptest::prelude::*;
use sfqlint::graph::Graph;
use sfqlint::items::parse_items;
use sfqlint::{check_values, check_workspace, Config, FileTarget};

/// Rust-ish token vocabulary: item keywords, delimiters, and the exact
/// identifiers the A1/I1 configurations key on, so random interleavings
/// reach deep into header parsing, call extraction, and rule evaluation.
const VOCAB: &[&str] = &[
    "fn",
    "impl",
    "mod",
    "use",
    "trait",
    "for",
    "where",
    "{",
    "}",
    "(",
    ")",
    "<",
    ">",
    "::",
    ";",
    ",",
    ".",
    "!",
    "#",
    "[",
    "]",
    "&",
    "mut",
    "self",
    "Self",
    "as",
    "=>",
    "->",
    "=",
    "*",
    "x",
    "r#match",
    "'a",
    "'\\x41'",
    "\"s\"",
    "1.0",
    "push",
    "format",
    "evaluate",
    "descend",
    "CostEngine",
    "WeightMatrix",
    "println",
    "stdout",
    // Value-rule vocabulary (P2/N1/D4): panic constructs, non-finite
    // operations, and reduction shapes, plus the configured root names.
    "sum",
    "fold",
    "sqrt",
    "powf",
    "NAN",
    "INFINITY",
    "/",
    "%",
    "+=",
    "0.0",
    "let",
    "unwrap",
    "expect",
    "assert",
    "debug_assert",
    "f64",
    "settle",
    "Shared",
    "Solver",
    "try_solve",
];

/// The checked-in `lint.toml`: the only source of rule scopes.
fn repo_config() -> Config {
    Config::parse(include_str!("../../../lint.toml")).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parser_and_graph_survive_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let path = "crates/core/src/fuzz.rs";
        let items = parse_items(path, &src);
        let _ = Graph::build(vec![(path.to_owned(), items)]);
    }

    #[test]
    fn graph_rules_survive_rustish_token_soup(
        picks in proptest::collection::vec(any::<u16>(), 0..200),
    ) {
        let words: Vec<&str> = picks
            .iter()
            .map(|&p| VOCAB[(p as usize) % VOCAB.len()])
            .collect();
        let src = words.join(" ");
        let target = FileTarget {
            path: "crates/core/src/fuzz.rs",
            src: &src,
            explicit: true,
        };
        let _ = check_workspace(std::slice::from_ref(&target), &repo_config());
    }

    /// The v4 value rules share the scanner with the graph rules; they must
    /// be just as tolerant of half-written sources.
    #[test]
    fn value_rules_survive_rustish_token_soup(
        picks in proptest::collection::vec(any::<u16>(), 0..200),
    ) {
        let words: Vec<&str> = picks
            .iter()
            .map(|&p| VOCAB[(p as usize) % VOCAB.len()])
            .collect();
        let src = words.join(" ");
        let target = FileTarget {
            path: "crates/core/src/fuzz.rs",
            src: &src,
            explicit: true,
        };
        let _ = check_values(std::slice::from_ref(&target), &repo_config());
    }
}

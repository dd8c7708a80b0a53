//! Property tests for the concurrency rules: L1/L2/S1 must never panic,
//! whatever bytes or token soup they are fed. The lock model walks
//! receiver chains, block trees, and argument lists that a half-written
//! file can leave in any state — "tolerant scanner, conservative ⊤" is a
//! hard invariant here exactly as it is for the graph rules.

use proptest::prelude::*;
use sfqlint::{check_concurrency, Config, FileTarget};

/// Rust-ish token vocabulary biased toward the concurrency vocabulary:
/// acquisition methods, condvar waits, `drop`, `signal` registration,
/// `unsafe` blocks, and the exact identifiers the L1/L2/S1 defaults key
/// on, so random interleavings reach deep into site classification,
/// held-set scoping, the fixpoints, and the handler walk.
const VOCAB: &[&str] = &[
    "fn",
    "impl",
    "mod",
    "use",
    "extern",
    "unsafe",
    "let",
    "mut",
    "while",
    "if",
    "else",
    "return",
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
    "=",
    "*",
    "self",
    "Self",
    "->",
    "=>",
    "'a",
    "\"C\"",
    "1.0",
    "15",
    "x",
    "g",
    "lock",
    "try_lock",
    "read",
    "write",
    "wait",
    "wait_while",
    "wait_timeout",
    "drop",
    "unwrap",
    "unwrap_or_else",
    "into_inner",
    "signal",
    "store",
    "load",
    "sleep",
    "join",
    "write_all",
    "flush",
    "pop",
    "solve",
    "inner",
    "ready",
    "alpha",
    "beta",
    "shared",
    "job",
    "job_cv",
    "done",
    "input",
    "Mutex",
    "Condvar",
    "JobQueue",
    "Solver",
    "SlotPool",
    "on_term",
    "Ordering",
    "SeqCst",
];

/// A config that exercises every concurrency knob at once, including an
/// acquire helper and a declared order over the soup's own field names.
fn fuzz_config() -> Config {
    Config {
        l1_acquire_fns: vec!["fuzz::lock".into()],
        l1_orders: vec![(
            "core".into(),
            vec!["s::alpha".into(), "s::beta".into(), "shared::job".into()],
        )],
        s1_handlers: vec!["on_term".into()],
        s1_unsafe_blocks: vec!["crates/core/src/fuzz.rs -- fuzzing".into()],
        ..Config::parse(include_str!("../../../lint.toml")).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn concurrency_rules_survive_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let target = FileTarget {
            path: "crates/core/src/fuzz.rs",
            src: &src,
            explicit: false,
        };
        let _ = check_concurrency(std::slice::from_ref(&target), &fuzz_config());
    }

    #[test]
    fn concurrency_rules_survive_rustish_token_soup(
        picks in proptest::collection::vec(any::<u16>(), 0..250),
    ) {
        let words: Vec<&str> = picks
            .iter()
            .map(|&p| VOCAB[(p as usize) % VOCAB.len()])
            .collect();
        let src = words.join(" ");
        let target = FileTarget {
            path: "crates/core/src/fuzz.rs",
            src: &src,
            explicit: false,
        };
        let diags = check_concurrency(std::slice::from_ref(&target), &fuzz_config());
        // Whatever fires must at least be well-formed: known rules,
        // 1-based positions.
        for d in &diags {
            prop_assert!(matches!(d.rule, "L1" | "L2" | "S1"), "{d:?}");
            prop_assert!(d.line >= 1 && d.col >= 1, "{d:?}");
        }
    }

    /// Two-file soup: the graph resolves cross-file calls, so the
    /// fixpoints and the S1 walk must also survive a second compilation
    /// unit full of same-named functions.
    #[test]
    fn concurrency_rules_survive_two_file_soup(
        a in proptest::collection::vec(any::<u16>(), 0..150),
        b in proptest::collection::vec(any::<u16>(), 0..150),
    ) {
        let soup = |picks: &[u16]| {
            picks
                .iter()
                .map(|&p| VOCAB[(p as usize) % VOCAB.len()])
                .collect::<Vec<&str>>()
                .join(" ")
        };
        let (sa, sb) = (soup(&a), soup(&b));
        let targets = [
            FileTarget { path: "crates/core/src/fuzz.rs", src: &sa, explicit: false },
            FileTarget { path: "crates/serviced/src/fuzz.rs", src: &sb, explicit: false },
        ];
        let _ = check_concurrency(&targets, &fuzz_config());
    }
}

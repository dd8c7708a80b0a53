//! Fixture-based self-tests: every rule has a positive fixture that fires
//! at a known line/col and a negative fixture that stays clean, plus
//! end-to-end CLI checks (exit codes, JSON output, the repo gate itself).

use std::path::{Path, PathBuf};
use std::process::Command;

use sfqlint::{
    apply_allowlist, check_concurrency, check_values, check_workspace, AllowEntry, Config,
    Diagnostic, FileTarget,
};

const POSITIVES: [&str; 8] = [
    "a1_pos.rs",
    "d4_pos.rs",
    "i1_pos.rs",
    "l1_pos.rs",
    "l2_pos.rs",
    "n1_pos.rs",
    "p2_pos.rs",
    "s1_pos.rs",
];
const NEGATIVES: [&str; 9] = [
    "a1_neg.rs",
    "d4_neg.rs",
    "i1_neg.rs",
    "l1_neg.rs",
    "l2_neg.rs",
    "lexer_edges_neg.rs",
    "n1_neg.rs",
    "p2_neg.rs",
    "s1_neg.rs",
];

/// The checked-in `lint.toml`: the only source of rule scopes.
fn repo_lint_toml() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../lint.toml")
}

fn repo_config() -> Config {
    Config::parse(include_str!("../../../lint.toml")).unwrap()
}

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lints a fixture the way the CLI does for explicitly named files: all
/// rules active, crate/class scoping bypassed, and the file forming its
/// own mini-workspace for the graph.
fn lint_fixture(name: &str, cfg: &Config) -> Vec<Diagnostic> {
    let src = std::fs::read_to_string(fixture_path(name)).unwrap();
    let target = FileTarget {
        path: &format!("crates/lint/tests/fixtures/{name}"),
        src: &src,
        explicit: true,
    };
    let mut diags = check_workspace(std::slice::from_ref(&target), cfg);
    diags.extend(check_values(std::slice::from_ref(&target), cfg));
    diags.extend(check_concurrency(std::slice::from_ref(&target), cfg));
    diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    diags
}

#[test]
fn positive_fixtures_fire_at_expected_positions() {
    let cfg = repo_config();
    let expected = [
        ("a1_pos.rs", "A1", 15, 22),
        ("d4_pos.rs", "D4", 5, 15),
        ("i1_pos.rs", "I1", 5, 5),
        ("l1_pos.rs", "L1", 11, 20),
        ("l2_pos.rs", "L2", 10, 5),
        ("n1_pos.rs", "N1", 5, 7),
        ("p2_pos.rs", "P2", 14, 9),
        ("s1_pos.rs", "S1", 22, 16),
    ];
    for (name, rule, line, col) in expected {
        let diags = lint_fixture(name, &cfg);
        let hit = diags
            .iter()
            .find(|d| d.rule == rule)
            .unwrap_or_else(|| panic!("{name}: no {rule} finding in {diags:?}"));
        assert_eq!((hit.line, hit.col), (line, col), "{name}: {diags:?}");
    }
}

#[test]
fn negative_fixtures_are_clean_under_every_rule() {
    let cfg = repo_config();
    for name in NEGATIVES {
        let diags = lint_fixture(name, &cfg);
        assert!(diags.is_empty(), "{name}: {diags:?}");
    }
}

/// The A1 fixture pins all three finding shapes: an allocating method two
/// hops from the root, an allocating macro, and an unresolvable (⊤) call.
#[test]
fn a1_fixture_reports_constructs_and_top_calls() {
    let diags = lint_fixture("a1_pos.rs", &repo_config());
    let a1: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "A1").collect();
    assert_eq!(a1.len(), 3, "{diags:?}");
    assert!(a1[0].message.contains(".push()"), "{:?}", a1[0]);
    assert!(
        a1[0]
            .message
            .contains("CostEngine::evaluate_with_gradient → CostEngine::accumulate"),
        "witness chain missing: {:?}",
        a1[0]
    );
    assert!(a1[1].message.contains("format!"), "{:?}", a1[1]);
    assert!(a1[2].message.contains("mystery_helper"), "{:?}", a1[2]);
    assert!(a1[2].message.contains('⊤'), "{:?}", a1[2]);
}

/// An allow entry narrowed with `contains` suppresses its target finding
/// and nothing else; an entry that matches nothing is reported as unused.
#[test]
fn allowlist_suppresses_exactly_its_target() {
    let fixture = "crates/lint/tests/fixtures/p2_pos.rs";
    let mut cfg = repo_config();
    cfg.allows = vec![
        AllowEntry {
            rule: "P2".into(),
            path: fixture.into(),
            reason: "fixture: the queue is never empty when settle runs".into(),
            line: None,
            contains: Some("indexing".into()),
        },
        AllowEntry {
            rule: "P2".into(),
            path: "crates/never/src/lib.rs".into(),
            reason: "fixture: never matches".into(),
            line: None,
            contains: None,
        },
    ];

    let diags = lint_fixture("p2_pos.rs", &cfg);
    let (kept, suppressed, unused) = apply_allowlist(diags, &cfg);

    assert_eq!(suppressed.len(), 1, "{suppressed:?}");
    assert!(suppressed[0].message.contains("indexing"));
    assert_eq!(kept.len(), 1, "{kept:?}");
    assert!(kept[0].message.contains("`assert!`"));
    assert_eq!(unused.len(), 1, "{unused:?}");
    assert_eq!(unused[0].path, "crates/never/src/lib.rs");
}

fn sfqlint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sfqlint"))
}

/// sfqlint under the checked-in config. The tests run from `crates/lint`,
/// which has no `lint.toml` of its own.
fn sfqlint_repo_config() -> Command {
    let mut cmd = sfqlint();
    cmd.arg("--config").arg(repo_lint_toml());
    cmd
}

#[test]
fn cli_exits_one_on_every_positive_fixture() {
    for name in POSITIVES {
        let out = sfqlint_repo_config()
            .arg(fixture_path(name))
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        let rule = name[..2].to_uppercase();
        assert!(text.contains(&format!("[{rule}]")), "{name}: {text}");
    }
}

#[test]
fn cli_exits_zero_on_every_negative_fixture() {
    for name in NEGATIVES {
        let out = sfqlint_repo_config()
            .arg(fixture_path(name))
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "{name}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

/// The repo itself is the biggest negative fixture: `--workspace` with the
/// checked-in `lint.toml` must be clean — this is exactly what CI runs.
#[test]
fn cli_workspace_gate_is_clean() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = sfqlint()
        .args(["--workspace", "--format", "json", "--root"])
        .arg(&repo_root)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("\"findings\":[]"), "{stdout}");
    // Stale allowlist entries would be reported here — keep lint.toml tight.
    assert!(stdout.contains("\"unused_allows\":[]"), "{stdout}");
    // Every configured A1/P2 root must still name a function.
    assert!(stdout.contains("\"unresolved_roots\":[]"), "{stdout}");
}

/// A misspelt `[rules.P2]` root used to drop out of the rule without a
/// word. A workspace run now names it: a note by default, a failure under
/// `--strict-allow`.
#[test]
fn cli_workspace_reports_unresolved_roots() {
    let dir = std::env::temp_dir().join("sfqlint-unresolved-root-test");
    let _ = std::fs::remove_dir_all(&dir);
    let src = dir.join("crates/core/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("engine.rs"),
        "pub fn gate_pass_chunk(x: f64) -> f64 {\n    x + 1.0\n}\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("lint.toml"),
        "[workspace]\nroots = [\"crates\"]\n\n\
         [rules.A1]\nroots = [\"engine::gate_pass_chunk\"]\n\n\
         [rules.P2]\nroots = [\"engine::gate_pass_chnuk\"]\n",
    )
    .unwrap();
    let strict = sfqlint()
        .args([
            "--workspace",
            "--format",
            "json",
            "--strict-allow",
            "--root",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&strict.stdout);
    assert_eq!(strict.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("\"findings\":[]"), "{stdout}");
    assert!(
        stdout.contains(
            "\"unresolved_roots\":[{\"rule\":\"P2\",\"root\":\"engine::gate_pass_chnuk\"}]"
        ),
        "{stdout}"
    );

    let lenient = sfqlint()
        .args(["--workspace", "--root"])
        .arg(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&lenient.stderr);
    assert_eq!(lenient.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("note: [rules.P2] root `engine::gate_pass_chnuk` names no function"),
        "{stderr}"
    );
    assert!(!stderr.contains("gate_pass_chunk`"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_json_output_carries_positions() {
    let out = sfqlint_repo_config()
        .args(["--format", "json"])
        .arg(fixture_path("n1_pos.rs"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"rule\":\"N1\""), "{json}");
    assert!(json.contains("\"line\":5"), "{json}");
    assert!(json.contains("\"col\":7"), "{json}");
    assert!(json.contains("\"total\":1"), "{json}");
}

#[test]
fn cli_json_findings_carry_allow_keys() {
    let out = sfqlint_repo_config()
        .args(["--format", "json"])
        .arg(fixture_path("i1_pos.rs"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"version\":2"), "{json}");
    assert!(json.contains("\"allow_key\":\"I1@"), "{json}");
    assert!(json.contains("i1_pos.rs:5\""), "{json}");
}

#[test]
fn cli_github_format_renders_annotations() {
    let out = sfqlint_repo_config()
        .args(["--format", "github"])
        .arg(fixture_path("i1_pos.rs"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("::error file="), "{text}");
    assert!(
        text.contains("i1_pos.rs,line=5,col=5,title=sfqlint I1::"),
        "{text}"
    );
}

/// `--strict-allow` turns a stale allowlist entry into a failure even when
/// there are no findings.
#[test]
fn cli_strict_allow_fails_on_stale_entries() {
    let dir = std::env::temp_dir().join("sfqlint-strict-allow-test");
    std::fs::create_dir_all(&dir).unwrap();
    let config = dir.join("lint.toml");
    std::fs::write(
        &config,
        "[[allow]]\nrule = \"P2\"\npath = \"never.rs\"\nreason = \"stale on purpose\"\n",
    )
    .unwrap();
    let base = sfqlint()
        .args(["--config"])
        .arg(&config)
        .arg(fixture_path("a1_neg.rs"))
        .output()
        .unwrap();
    assert_eq!(
        base.status.code(),
        Some(0),
        "stale allow is a note by default"
    );
    let strict = sfqlint()
        .args(["--strict-allow", "--config"])
        .arg(&config)
        .arg(fixture_path("a1_neg.rs"))
        .output()
        .unwrap();
    assert_eq!(strict.status.code(), Some(1), "--strict-allow must fail");
}

/// The L1 fixture's cycle finding carries the full witness: both edge
/// sites, with the opposite acquisition orders spelled out.
#[test]
fn l1_fixture_cycle_carries_both_witness_edges() {
    let diags = lint_fixture("l1_pos.rs", &repo_config());
    let l1: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "L1").collect();
    assert_eq!(l1.len(), 1, "{diags:?}");
    assert!(l1[0].message.contains("lock-order cycle"), "{:?}", l1[0]);
    assert!(l1[0].message.contains("credit"), "{:?}", l1[0]);
    assert!(l1[0].message.contains("debit"), "{:?}", l1[0]);
}

/// The L2 fixture pins both finding shapes: direct blocking call under a
/// guard, and blocking through a resolved callee.
#[test]
fn l2_fixture_reports_direct_and_indirect_blocking() {
    let diags = lint_fixture("l2_pos.rs", &repo_config());
    let l2: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "L2").collect();
    assert_eq!(l2.len(), 2, "{diags:?}");
    assert!(
        l2[0].message.contains("blocking call `sleep`"),
        "{:?}",
        l2[0]
    );
    assert!(l2[1].message.contains("park_briefly"), "{:?}", l2[1]);
}

/// The S1 fixture pins both handler-path shapes: a macro and an
/// unresolved call, with the handler auto-detected from `signal(...)`.
#[test]
fn s1_fixture_reports_macro_and_unvetted_call() {
    let diags = lint_fixture("s1_pos.rs", &repo_config());
    let s1: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "S1").collect();
    assert_eq!(s1.len(), 2, "{diags:?}");
    assert!(s1[0].message.contains("format"), "{:?}", s1[0]);
    assert!(s1[1].message.contains("emit"), "{:?}", s1[1]);
}

/// The P2 fixture pins both finding shapes — a panicking macro and
/// unchecked indexing — each carrying the root→…→site witness chain.
#[test]
fn p2_fixture_reports_macro_and_indexing_with_witness() {
    let diags = lint_fixture("p2_pos.rs", &repo_config());
    let p2: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "P2").collect();
    assert_eq!(p2.len(), 2, "{diags:?}");
    assert!(p2[0].message.contains("`assert!`"), "{:?}", p2[0]);
    assert!(p2[1].message.contains("indexing"), "{:?}", p2[1]);
    for d in &p2 {
        assert!(
            d.message.contains("Shared::settle → Shared::finish_one"),
            "witness chain missing: {d:?}"
        );
    }
}

/// The N1 finding names the offending function and points at the
/// checked-math helpers.
#[test]
fn n1_fixture_names_function_and_checked_helpers() {
    let diags = lint_fixture("n1_pos.rs", &repo_config());
    let n1: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "N1").collect();
    assert_eq!(n1.len(), 1, "{diags:?}");
    assert!(n1[0].message.contains("stray_ratio"), "{:?}", n1[0]);
    assert!(n1[0].message.contains("core::float"), "{:?}", n1[0]);
}

/// The D4 fixture pins both finding shapes: a raw iterator reduction and a
/// sequential `+=` accumulation loop.
#[test]
fn d4_fixture_reports_iterator_and_accumulator_shapes() {
    let diags = lint_fixture("d4_pos.rs", &repo_config());
    let d4: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "D4").collect();
    assert_eq!(d4.len(), 2, "{diags:?}");
    assert!(d4[0].message.contains("iterator reduction"), "{:?}", d4[0]);
    assert!(d4[1].message.contains("`+=`"), "{:?}", d4[1]);
    assert!(d4[0].message.contains("core::lanes"), "{:?}", d4[0]);
}

#[test]
fn cli_explain_prints_rule_rationale() {
    let out = sfqlint().args(["--explain", "L1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lock-order"), "{text}");
    assert!(text.contains("lock_witness"), "{text}");
    let bad = sfqlint().args(["--explain", "Z9"]).output().unwrap();
    assert_eq!(
        bad.status.code(),
        Some(2),
        "unknown rule must be a usage error"
    );
}

/// The github format points every fired rule at `--explain`.
#[test]
fn cli_github_format_emits_explain_notice() {
    let out = sfqlint_repo_config()
        .args(["--format", "github"])
        .arg(fixture_path("l1_pos.rs"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("::notice title=sfqlint L1::run `sfqlint --explain L1`"),
        "{text}"
    );
}

#[test]
fn cli_usage_errors_exit_two() {
    let out = sfqlint().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = sfqlint().arg("--format=yaml").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn cli_missing_named_config_exits_three() {
    let out = sfqlint()
        .args(["--config", "does-not-exist.toml"])
        .arg(fixture_path("a1_neg.rs"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
}

/// `lint.toml` is the only source of rule scopes: a workspace run that
/// finds none exits 3 instead of linting with every rule scoped to nothing.
#[test]
fn cli_workspace_without_lint_toml_exits_three() {
    let dir = std::env::temp_dir().join("sfqlint-no-config-test");
    let _ = std::fs::remove_dir_all(&dir);
    let src = dir.join("crates/core/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("lib.rs"), "pub fn f() {}\n").unwrap();
    let out = sfqlint()
        .args(["--workspace", "--root"])
        .arg(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("lint.toml"), "{stderr}");
    assert!(out.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

//! The lint pipeline: analyze each file once, share the results across
//! every rule family.
//!
//! A run splits into a per-file **analyze** phase — lex once, extract the
//! item model, census `unsafe` blocks; it reports nothing — and a
//! cross-file **lint** phase that builds each call graph once and hands it
//! to every rule family ([`crate::rules_graph`], [`crate::rules_value`],
//! [`crate::rules_concurrency`]). Every rule needs every file's item model
//! before it can run, which is what the split between the phases is for.

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::graph::Graph;
use crate::items::{parse_items_tokens, FileItems};
use crate::lexer::lex;
use crate::rules_concurrency::{check_concurrency_graph, unsafe_block_sites};
use crate::rules_graph::check_workspace_graph;
use crate::rules_value::check_values_graph;
use crate::target::{classify, FileClass, FileTarget};

/// Per-file analysis artifacts — everything the cross-file phase needs,
/// with the source text no longer required.
#[derive(Debug, Clone)]
struct AnalyzedFile {
    /// Repo-relative path (forward slashes).
    path: String,
    /// True when the file was named on the command line (fixture mode).
    explicit: bool,
    /// Path classification, derived from `path`.
    class: FileClass,
    /// Item model for the graph rules.
    items: FileItems,
    /// `unsafe` block positions for the S1 census.
    unsafe_sites: Vec<(u32, u32)>,
}

/// Runs the per-file phase over every target: each file is lexed once and
/// every per-file artifact derives from the shared token stream.
fn analyze_targets(targets: &[FileTarget<'_>]) -> Vec<AnalyzedFile> {
    targets
        .iter()
        .map(|t| {
            let tokens = lex(t.src);
            AnalyzedFile {
                path: t.path.to_owned(),
                explicit: t.explicit,
                class: classify(t.path),
                items: parse_items_tokens(t.path, &tokens),
                unsafe_sites: unsafe_block_sites(&tokens),
            }
        })
        .collect()
}

/// A configured `[rules.A1]`/`[rules.P2]` root that names no non-test
/// library function in the linted set. The rule then covers less than the
/// config says — a renamed or deleted kernel drops out of A1/P2 without a
/// finding — so the CLI reports these next to the stale allowlist entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnresolvedRoot {
    /// `"A1"` or `"P2"`.
    pub rule: &'static str,
    /// The root exactly as configured.
    pub root: String,
}

/// What the cross-file phase reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Every finding, in canonical (file, line, col, rule) order.
    pub diags: Vec<Diagnostic>,
    /// A1 roots, then P2 roots, that resolve to nothing, in config order.
    pub unresolved_roots: Vec<UnresolvedRoot>,
}

/// The configured A1 and P2 roots that name no function in `graph`.
fn unresolved_roots(graph: &Graph, cfg: &Config) -> Vec<UnresolvedRoot> {
    let a1 = cfg.a1_roots.iter().map(|root| ("A1", root));
    let p2 = cfg.p2_roots.iter().map(|root| ("P2", root));
    a1.chain(p2)
        .filter(|(_, root)| graph.lookup_qname(root).is_empty())
        .map(|(rule, root)| UnresolvedRoot {
            rule,
            root: root.clone(),
        })
        .collect()
}

/// Cross-file phase: builds the library graph once (shared by A1/I1,
/// P2/N1/D4 and the root resolution check) and the library+binary graph
/// once (L1/L2/S1), then merges all diagnostics into the canonical sorted
/// order.
fn lint_analyzed(files: &[AnalyzedFile], cfg: &Config) -> Report {
    let explicit_paths: Vec<&str> = files
        .iter()
        .filter(|f| f.explicit)
        .map(|f| f.path.as_str())
        .collect();

    let lib_parsed: Vec<(String, FileItems)> = files
        .iter()
        .filter(|f| f.explicit || f.class == FileClass::Lib)
        .map(|f| (f.path.clone(), f.items.clone()))
        .collect();
    let lib_graph = Graph::build(lib_parsed);
    let mut diags = check_workspace_graph(&lib_graph, cfg, &explicit_paths);
    diags.extend(check_values_graph(&lib_graph, cfg, &explicit_paths));
    let unresolved_roots = unresolved_roots(&lib_graph, cfg);

    let conc_parsed: Vec<(String, FileItems)> = files
        .iter()
        .filter(|f| f.explicit || matches!(f.class, FileClass::Lib | FileClass::Bin))
        .map(|f| (f.path.clone(), f.items.clone()))
        .collect();
    let conc_graph = Graph::build(conc_parsed);
    let census: Vec<(String, Vec<(u32, u32)>)> = files
        .iter()
        .filter(|f| !f.explicit)
        .map(|f| (f.path.clone(), f.unsafe_sites.clone()))
        .collect();
    diags.extend(check_concurrency_graph(&conc_graph, cfg, &census));

    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Report {
        diags,
        unresolved_roots,
    }
}

/// Full pipeline: analyze + cross-file lint.
/// Equivalent to running `check_workspace`, `check_values`, and
/// `check_concurrency`, but each file is lexed once and each graph is
/// built exactly once.
pub fn lint_targets(targets: &[FileTarget<'_>], cfg: &Config) -> Report {
    let analyzed = analyze_targets(targets);
    lint_analyzed(&analyzed, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::repo_config;
    use crate::rules_concurrency::check_concurrency;
    use crate::rules_graph::check_workspace;
    use crate::rules_value::check_values;

    const FILES: &[(&str, &str)] = &[
        (
            "crates/core/src/metrics.rs",
            "pub fn stray(a: f64, b: f64) -> f64 { a / b }\n\
             pub fn mean(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n",
        ),
        (
            "crates/serviced/src/daemon.rs",
            "struct Shared;\n\
             impl Shared {\n\
             pub fn settle(&self) { self.jobs.first().unwrap(); }\n\
             }\n",
        ),
    ];

    fn targets() -> Vec<FileTarget<'static>> {
        FILES
            .iter()
            .map(|(p, s)| FileTarget {
                path: p,
                src: s,
                explicit: false,
            })
            .collect()
    }

    fn legacy(targets: &[FileTarget<'_>], cfg: &Config) -> Vec<Diagnostic> {
        let mut diags = check_workspace(targets, cfg);
        diags.extend(check_values(targets, cfg));
        diags.extend(check_concurrency(targets, cfg));
        diags.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
        });
        diags
    }

    #[test]
    fn pipeline_matches_the_per_family_entry_points() {
        let cfg = repo_config();
        let t = targets();
        let pipeline = lint_targets(&t, &cfg).diags;
        assert!(!pipeline.is_empty());
        assert_eq!(pipeline, legacy(&t, &cfg));
    }

    #[test]
    fn unresolved_roots_are_reported_in_config_order() {
        let cfg = Config {
            a1_roots: vec!["metrics::stray".into(), "metrics::straay".into()],
            p2_roots: vec!["Shared::settle".into(), "engine::gate_pass_chunk".into()],
            ..repo_config()
        };
        let report = lint_targets(&targets(), &cfg);
        assert_eq!(
            report.unresolved_roots,
            vec![
                UnresolvedRoot {
                    rule: "A1",
                    root: "metrics::straay".into(),
                },
                UnresolvedRoot {
                    rule: "P2",
                    root: "engine::gate_pass_chunk".into(),
                },
            ]
        );
    }
}

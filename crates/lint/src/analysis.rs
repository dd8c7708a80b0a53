//! The incremental lint pipeline: analyze each file once, share the
//! results across every rule family.
//!
//! Historically each rule family ([`crate::rules`],
//! [`crate::rules_graph`], [`crate::rules_value`],
//! [`crate::rules_concurrency`]) re-lexed and re-parsed every file. This
//! module splits the run into a per-file **analyze** phase — lex once,
//! run the token rules, extract the item model, census `unsafe` blocks —
//! and a cross-file **lint** phase that builds each call graph once and
//! hands it to every graph-rule family. The analyze phase is a pure
//! function of `(file bytes, config)`, which is exactly what the
//! [`crate::cache`] persists: a warm `--cache` run re-analyzes only
//! changed files and replays cached artifacts for the rest, with output
//! byte-identical to a cold run.

use crate::cache::{fnv1a64, Cache, CacheEntry};
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::graph::Graph;
use crate::items::{parse_items_tokens, FileItems};
use crate::lexer::lex;
use crate::rules::{check_file_tokens, classify, FileClass, FileTarget};
use crate::rules_concurrency::{check_concurrency_graph, unsafe_block_sites};
use crate::rules_graph::check_workspace_graph;
use crate::rules_value::check_values_graph;

/// Per-file analysis artifacts — everything the cross-file phase needs,
/// with the source text no longer required.
#[derive(Debug, Clone)]
pub struct AnalyzedFile {
    /// Repo-relative path (forward slashes).
    pub path: String,
    /// True when the file was named on the command line (fixture mode).
    pub explicit: bool,
    /// Path classification, derived from `path`.
    pub class: FileClass,
    /// Token-rule diagnostics ([`crate::rules::check_file`]).
    pub diags: Vec<Diagnostic>,
    /// Item model for the graph rules.
    pub items: FileItems,
    /// `unsafe` block positions for the S1 census.
    pub unsafe_sites: Vec<(u32, u32)>,
}

/// Analyzes one file from scratch: lex once, then derive every per-file
/// artifact from the shared token stream.
fn analyze_one(
    target: &FileTarget<'_>,
    cfg: &Config,
) -> (Vec<Diagnostic>, FileItems, Vec<(u32, u32)>) {
    let tokens = lex(target.src);
    let diags = check_file_tokens(target, cfg, &tokens);
    let items = parse_items_tokens(target.path, &tokens);
    let unsafe_sites = unsafe_block_sites(&tokens);
    (diags, items, unsafe_sites)
}

/// Runs the per-file phase over every target, consulting (and refilling)
/// the cache when one is supplied. Explicit targets bypass the cache:
/// their diagnostics depend on the explicit flag itself, and fixture runs
/// are small.
pub fn analyze_targets(
    targets: &[FileTarget<'_>],
    cfg: &Config,
    mut cache: Option<&mut Cache>,
) -> Vec<AnalyzedFile> {
    let mut out = Vec::with_capacity(targets.len());
    for t in targets {
        let class = classify(t.path);
        if t.explicit {
            let (diags, items, unsafe_sites) = analyze_one(t, cfg);
            out.push(AnalyzedFile {
                path: t.path.to_owned(),
                explicit: true,
                class,
                diags,
                items,
                unsafe_sites,
            });
            continue;
        }
        let content_hash = fnv1a64(t.src.as_bytes());
        let cached = cache.as_mut().and_then(|c| c.lookup(t.path, content_hash));
        let (diags, items, unsafe_sites) = match cached {
            Some(e) => (e.diags, e.items, e.unsafe_sites),
            None => {
                let fresh = analyze_one(t, cfg);
                if let Some(c) = cache.as_mut() {
                    c.insert(
                        t.path,
                        CacheEntry {
                            content_hash,
                            diags: fresh.0.clone(),
                            items: fresh.1.clone(),
                            unsafe_sites: fresh.2.clone(),
                        },
                    );
                }
                fresh
            }
        };
        out.push(AnalyzedFile {
            path: t.path.to_owned(),
            explicit: false,
            class,
            diags,
            items,
            unsafe_sites,
        });
    }
    if let Some(c) = cache {
        let live: Vec<&str> = out
            .iter()
            .filter(|f| !f.explicit)
            .map(|f| f.path.as_str())
            .collect();
        c.retain_paths(&live);
    }
    out
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

/// Cross-file phase: builds the library graph once (shared by A1/I1/O1,
/// P2/N1/D4 and the root resolution check) and the library+binary graph
/// once (L1/L2/S1), then merges all diagnostics into the canonical sorted
/// order.
pub fn lint_analyzed(files: &[AnalyzedFile], cfg: &Config) -> Report {
    let mut diags: Vec<Diagnostic> = Vec::new();
    for f in files {
        diags.extend(f.diags.iter().cloned());
    }

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
    diags.extend(check_workspace_graph(&lib_graph, cfg, &explicit_paths));
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

/// Full pipeline: analyze (with optional cache) + cross-file lint.
/// Equivalent to running `check_file` per file plus `check_workspace`,
/// `check_values`, and `check_concurrency`, but each file is lexed at
/// most once and each graph is built exactly once.
pub fn lint_targets(targets: &[FileTarget<'_>], cfg: &Config, cache: Option<&mut Cache>) -> Report {
    let analyzed = analyze_targets(targets, cfg, cache);
    lint_analyzed(&analyzed, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::check_file;
    use crate::rules_concurrency::check_concurrency;
    use crate::rules_graph::check_workspace;
    use crate::rules_value::check_values;

    const FILES: &[(&str, &str)] = &[
        (
            "crates/core/src/metrics.rs",
            "use std::collections::HashMap;\n\
             pub fn stray(a: f64, b: f64) -> f64 { a / b }\n\
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
        let mut diags: Vec<Diagnostic> = Vec::new();
        for t in targets {
            diags.extend(check_file(t, cfg));
        }
        diags.extend(check_workspace(targets, cfg));
        diags.extend(check_values(targets, cfg));
        diags.extend(check_concurrency(targets, cfg));
        diags.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
        });
        diags
    }

    #[test]
    fn pipeline_matches_the_per_family_entry_points() {
        let cfg = Config::default();
        let t = targets();
        let pipeline = lint_targets(&t, &cfg, None).diags;
        assert!(!pipeline.is_empty());
        assert_eq!(pipeline, legacy(&t, &cfg));
    }

    #[test]
    fn warm_cache_reproduces_cold_diagnostics_exactly() {
        let cfg = Config::default();
        let t = targets();
        let mut cache = Cache::new(7);
        let cold = lint_targets(&t, &cfg, Some(&mut cache));
        assert_eq!((cache.hits, cache.misses), (0, 2));
        let warm = lint_targets(&t, &cfg, Some(&mut cache));
        assert_eq!((cache.hits, cache.misses), (2, 2));
        assert_eq!(cold, warm);
    }

    #[test]
    fn edited_file_misses_while_others_hit() {
        let cfg = Config::default();
        let t = targets();
        let mut cache = Cache::new(7);
        lint_targets(&t, &cfg, Some(&mut cache));
        let edited_src = format!("{}\n// touched\n", FILES[0].1);
        let mut edited = targets();
        edited[0].src = &edited_src;
        cache.hits = 0;
        cache.misses = 0;
        lint_targets(&edited, &cfg, Some(&mut cache));
        assert_eq!((cache.hits, cache.misses), (1, 1));
    }

    #[test]
    fn unresolved_roots_are_reported_in_config_order() {
        let cfg = Config {
            a1_roots: vec!["metrics::stray".into(), "metrics::straay".into()],
            p2_roots: vec!["Shared::settle".into(), "engine::gate_pass_chunk".into()],
            ..Config::default()
        };
        let report = lint_targets(&targets(), &cfg, None);
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

//! Value-flow rules over the scanner facts ([`crate::items::ValueSite`])
//! and the workspace graph — sfqlint v4.
//!
//! * **P2 — panic-freedom of the vetted roots.** From every configured
//!   root (`[rules.P2] roots`: the fused descent kernels and the serviced
//!   worker settle path), walk the resolved call graph. In every reachable
//!   function, a construct that can unwind — unchecked indexing, a slice
//!   pattern, division/remainder by a non-literal divisor, a panicking
//!   macro (`assert!`, `panic!`, `unreachable!`, …; `debug_assert!` is
//!   exempt), `.unwrap()`/`.expect()`, or a call the graph cannot resolve
//!   (⊤) — is a finding with a root→…→site witness chain. Allocating ⊤
//!   calls are vetted: allocation failure aborts, it does not unwind. The
//!   runtime cross-check is `crates/core/tests/panic_census.rs`.
//! * **N1 — non-finite confinement.** Operations that can introduce
//!   NaN/Inf (`/` with a non-literal divisor, zero-literal division,
//!   `NAN`/`INFINITY` constants, `ln`/`sqrt`/`powf`/`exp` calls) may only
//!   occur in functions reachable from the declared divergence-recovery
//!   scope (`[rules.N1] recovery_roots` — the solver entry points whose
//!   rollback machinery watches for divergence) or in the checked-math
//!   helper files (`core::float`, `core::lanes`, the kernels). Everything
//!   else must route through the `core::float` checked helpers.
//! * **D4 — canonical float folds.** Raw f64 iterator reductions
//!   (`.sum::<f64>()`, `.fold(0.0, …)`, sequential `acc +=` loops) outside
//!   the modules that define the canonical striped fold order are
//!   findings: an ad-hoc reduction order silently breaks the
//!   serial==parallel bit-identity guarantee. Order-insensitive
//!   `max`/`min` folds are exempt.

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::graph::{Callee, Graph, NodeId};
use crate::items::{parse_items, CallSite, FileItems, SiteKind};
use crate::rules_graph::{alloc_construct, IO_METHODS};
use crate::target::{classify, crate_of, FileClass, FileTarget};

/// Macros that unwind when their condition fails (or unconditionally).
/// `debug_assert*` compiles out of release builds and is the sanctioned
/// way to state kernel invariants, so it is exempt.
const PANIC_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Float methods that can produce NaN/Inf from finite inputs.
const NONFINITE_CALLS: &[&str] = &[
    "ln", "log2", "log10", "log", "sqrt", "powf", "exp", "exp2", "exp_m1", "ln_1p", "tan", "asin",
    "acos",
];

/// Entry point: runs P2/N1/D4 over one file set. Mirrors
/// [`crate::rules_graph::check_workspace`]: only library files participate
/// (explicit targets are treated as library files of a covered crate).
pub fn check_values(targets: &[FileTarget<'_>], cfg: &Config) -> Vec<Diagnostic> {
    let mut parsed: Vec<(String, FileItems)> = Vec::new();
    let mut explicit_paths: Vec<&str> = Vec::new();
    for t in targets {
        let class = classify(t.path);
        if t.explicit {
            explicit_paths.push(t.path);
        } else if class != FileClass::Lib {
            continue;
        }
        parsed.push((t.path.to_owned(), parse_items(t.path, t.src)));
    }
    let graph = Graph::build(parsed);
    check_values_graph(&graph, cfg, &explicit_paths)
}

/// Runs P2/N1/D4 over an already-built library graph (shared with the
/// A1/I1 pass by the pipeline, [`crate::analysis`]).
pub(crate) fn check_values_graph(
    graph: &Graph,
    cfg: &Config,
    explicit_paths: &[&str],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    rule_p2(graph, cfg, &mut diags);
    rule_n1(graph, cfg, explicit_paths, &mut diags);
    rule_d4(graph, cfg, explicit_paths, &mut diags);
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    diags.dedup();
    diags
}

fn diag(rule: &'static str, file: &str, line: u32, col: u32, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        file: file.to_owned(),
        line,
        col,
        message,
    }
}

/// Std methods that cannot panic and are not already covered by the
/// allocation vetting: iterator constructors over strings, the
/// abort-on-OOM `VecDeque` pushes, and the collections' `clear`.
const PANIC_FREE_METHODS: &[&str] = &[
    "chars",
    "bytes",
    "char_indices",
    "push_back",
    "push_front",
    "clear",
];

/// Infallible std constructors called by path.
const PANIC_FREE_PATHS: &[&str] = &["String::new", "Vec::new", "VecDeque::new"];

/// True when a ⊤ call is vetted panic-free: allocating constructs abort
/// (never unwind) on OOM, the `std::io` vocabulary reports failure through
/// `io::Result` instead of panicking, and enum-variant / tuple-struct
/// construction (`Json::String(…)` — uppercase final path segment) merely
/// builds a value.
fn panic_free_top(call: &CallSite) -> bool {
    if alloc_construct(call).is_some() {
        return true;
    }
    if call.is_method {
        return IO_METHODS.contains(&call.name.as_str())
            || PANIC_FREE_METHODS.contains(&call.name.as_str());
    }
    if call.is_macro {
        return false;
    }
    if call.segments.len() >= 2 {
        let tail = format!(
            "{}::{}",
            call.segments[call.segments.len() - 2],
            call.segments[call.segments.len() - 1]
        );
        if PANIC_FREE_PATHS.contains(&tail.as_str()) {
            return true;
        }
    }
    // Variant constructors are upper-case by convention; associated
    // functions are lower-case.
    call.segments
        .last()
        .and_then(|s| s.chars().next())
        .is_some_and(char::is_uppercase)
}

/// P2: no reachable panic construct from the configured roots.
fn rule_p2(graph: &Graph, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    if cfg.p2_roots.is_empty() {
        return;
    }
    let mut roots: Vec<NodeId> = Vec::new();
    for r in &cfg.p2_roots {
        roots.extend(graph.lookup_qname(r));
    }
    let pred = graph.reachable(&roots);
    for &id in pred.keys() {
        let node = &graph.nodes[id];
        let item = graph.item(id);
        let chain = graph.witness(&pred, id);
        for fact in &item.facts {
            let flagged = matches!(
                fact.kind,
                SiteKind::Index
                    | SiteKind::SlicePat
                    | SiteKind::DivNonLit
                    | SiteKind::ModNonLit
                    | SiteKind::ZeroDivLit
            );
            if flagged {
                diags.push(diag(
                    "P2",
                    &node.file,
                    fact.line,
                    fact.col,
                    format!(
                        "{} on a panic-free root path ({chain}); convert to checked \
                         access or allow with a written invariant",
                        fact.kind.describe()
                    ),
                ));
            }
        }
        let mut top_sites = vec![false; item.calls.len()];
        for e in &graph.edges[id] {
            if e.callee == Callee::Top {
                top_sites[e.site] = true;
            }
        }
        for (si, call) in item.calls.iter().enumerate() {
            if call.is_macro && PANIC_MACROS.contains(&call.name.as_str()) {
                diags.push(diag(
                    "P2",
                    &node.file,
                    call.line,
                    call.col,
                    format!(
                        "panicking macro `{}!` on a panic-free root path ({chain}); \
                         state the invariant with `debug_assert!` or return a typed error",
                        call.name
                    ),
                ));
            } else if call.is_method && matches!(call.name.as_str(), "unwrap" | "expect") {
                diags.push(diag(
                    "P2",
                    &node.file,
                    call.line,
                    call.col,
                    format!(
                        "`.{}()` on a panic-free root path ({chain}); propagate the \
                         error or allow with a written invariant",
                        call.name
                    ),
                ));
            } else if top_sites[si] && !panic_free_top(call) {
                let shape = if call.is_macro {
                    format!("{}!", call.name)
                } else if call.is_method {
                    format!(".{}()", call.name)
                } else {
                    call.segments.join("::")
                };
                diags.push(diag(
                    "P2",
                    &node.file,
                    call.line,
                    call.col,
                    format!(
                        "call to `{shape}` resolves outside the workspace (⊤) on a \
                         panic-free root path ({chain}); sfqlint cannot prove it \
                         panic-free — vet it or allow with a reason"
                    ),
                ));
            }
        }
    }
}

/// N1: NaN/Inf-capable operations confined to the divergence-recovery
/// scope and the checked-math helper files.
fn rule_n1(graph: &Graph, cfg: &Config, explicit: &[&str], diags: &mut Vec<Diagnostic>) {
    let mut roots: Vec<NodeId> = Vec::new();
    for r in &cfg.n1_recovery_roots {
        roots.extend(graph.lookup_qname(r));
    }
    let recovery = graph.reachable(&roots);
    for id in 0..graph.nodes.len() {
        let node = &graph.nodes[id];
        let item = graph.item(id);
        let path = node.file.as_str();
        let covered = explicit.contains(&path) || cfg.n1_crates.iter().any(|c| c == crate_of(path));
        if !covered
            || item.in_test
            || cfg.n1_helper_files.iter().any(|f| f == path)
            || recovery.contains_key(&id)
        {
            continue;
        }
        let mut emit = |line: u32, col: u32, what: &str| {
            diags.push(diag(
                "N1",
                path,
                line,
                col,
                format!(
                    "{what} in `{}`, outside the divergence-recovery scope; route \
                     through the core::float checked helpers (frac, checked_div, \
                     checked_ln, checked_sqrt) or extend [rules.N1] recovery_roots",
                    item.qname
                ),
            ));
        };
        for fact in &item.facts {
            match fact.kind {
                SiteKind::DivNonLit => {
                    emit(fact.line, fact.col, "division by a non-literal divisor")
                }
                SiteKind::ZeroDivLit => emit(fact.line, fact.col, "division by a zero literal"),
                SiteKind::NanConst => emit(
                    fact.line,
                    fact.col,
                    "non-finite constant (`NAN`/`INFINITY`)",
                ),
                _ => {}
            }
        }
        for call in &item.calls {
            let nonfinite = NONFINITE_CALLS.contains(&call.name.as_str())
                && (call.is_method
                    || matches!(
                        call.segments.first().map(String::as_str),
                        Some("f64" | "f32")
                    ));
            if nonfinite {
                emit(
                    call.line,
                    call.col,
                    &format!("NaN/Inf-capable call `.{}()`", call.name),
                );
            }
        }
    }
}

/// D4: raw float reductions outside the canonical-fold modules.
fn rule_d4(graph: &Graph, cfg: &Config, explicit: &[&str], diags: &mut Vec<Diagnostic>) {
    for (path, items) in &graph.files {
        let covered =
            explicit.contains(&path.as_str()) || cfg.d4_crates.iter().any(|c| c == crate_of(path));
        if !covered || cfg.d4_allowed_files.iter().any(|f| f == path) {
            continue;
        }
        for f in &items.fns {
            if f.in_test {
                continue;
            }
            for fact in &f.facts {
                let what = match fact.kind {
                    SiteKind::FoldF64 => "raw float iterator reduction",
                    SiteKind::FloatAccum => "sequential float accumulation `+=`",
                    _ => continue,
                };
                diags.push(diag(
                    "D4",
                    path,
                    fact.line,
                    fact.col,
                    format!(
                        "{what} in `{}`; float reductions in covered crates must use \
                         the canonical striped fold (core::lanes::{{sum, sum_with, \
                         max_abs, fold}}) so serial == parallel stays bit-identical",
                        f.qname
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)], explicit: bool) -> Vec<Diagnostic> {
        let targets: Vec<FileTarget<'_>> = files
            .iter()
            .map(|(p, s)| FileTarget {
                path: p,
                src: s,
                explicit,
            })
            .collect();
        check_values(&targets, &crate::config::repo_config())
    }

    #[test]
    fn p2_flags_indexing_reachable_from_roots() {
        let d = run(
            &[(
                "crates/serviced/src/daemon.rs",
                "struct Shared;\n\
                 impl Shared {\n\
                 pub fn settle(&self) { self.finish_one(); }\n\
                 fn finish_one(&self) { let x = self.jobs[0]; }\n\
                 }\n",
            )],
            false,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "P2");
        assert!(d[0].message.contains("indexing"));
        assert!(d[0].message.contains("Shared::settle → Shared::finish_one"));
    }

    #[test]
    fn p2_flags_panic_macros_and_unwrap_but_not_debug_assert() {
        let d = run(
            &[(
                "crates/serviced/src/daemon.rs",
                "struct Shared;\n\
                 impl Shared {\n\
                 pub fn settle(&self) {\n\
                 debug_assert!(true);\n\
                 assert!(self.ok);\n\
                 self.jobs.first().unwrap();\n\
                 }\n\
                 }\n",
            )],
            false,
        );
        let rules: Vec<&str> = d.iter().map(|x| x.rule).collect();
        assert_eq!(rules, vec!["P2", "P2"], "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("`assert!`")));
        assert!(d.iter().any(|x| x.message.contains("`.unwrap()`")));
    }

    #[test]
    fn p2_vets_allocating_top_calls_but_flags_unknown_ones() {
        let d = run(
            &[(
                "crates/serviced/src/daemon.rs",
                "struct Shared;\n\
                 impl Shared {\n\
                 pub fn settle(&self) { self.id.clone(); mystery_fn(); }\n\
                 }\n",
            )],
            false,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("mystery_fn"));
        assert!(d[0].message.contains("⊤"));
    }

    #[test]
    fn n1_confines_division_to_the_recovery_scope() {
        let d = run(
            &[(
                "crates/core/src/metrics.rs",
                "struct Solver;\n\
                 impl Solver {\n\
                 pub fn try_solve(&self) -> f64 { covered_ratio(1.0, 2.0) }\n\
                 }\n\
                 fn covered_ratio(a: f64, b: f64) -> f64 { a / b }\n\
                 pub fn stray_ratio(a: f64, b: f64) -> f64 { a / b }\n",
            )],
            false,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "N1");
        assert!(d[0].message.contains("stray_ratio"));
    }

    #[test]
    fn n1_exempts_helper_files_and_literal_divisors() {
        let d = run(
            &[
                (
                    "crates/core/src/float.rs",
                    "pub fn frac(n: f64, d: f64) -> f64 { n / d }\n",
                ),
                (
                    "crates/core/src/metrics.rs",
                    "pub fn halve(x: f64) -> f64 { x / 2.0 }\n",
                ),
            ],
            false,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn d4_flags_raw_folds_outside_canonical_modules() {
        let d = run(
            &[(
                "crates/core/src/spectral.rs",
                "pub fn mean(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n",
            )],
            false,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "D4");
        assert!(d[0].message.contains("lanes"));
    }

    #[test]
    fn d4_exempts_lanes_and_max_folds() {
        let d = run(
            &[
                (
                    "crates/core/src/lanes.rs",
                    "pub fn sum(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n",
                ),
                (
                    "crates/core/src/spectral.rs",
                    "pub fn peak(xs: &[f64]) -> f64 { xs.iter().copied().fold(0.0, f64::max) }\n",
                ),
            ],
            false,
        );
        assert!(d.is_empty(), "{d:?}");
    }
}

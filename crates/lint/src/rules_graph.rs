//! Cross-file rules over the workspace symbol graph.
//!
//! * **A1 — hot paths must be allocation-free.** From every configured
//!   root (`[rules.A1] roots`), walk the resolved call graph. In every
//!   reachable function, an allocating construct (`push`, `collect`,
//!   `clone`, `format!`, `Box::new`, …) or a call the graph cannot resolve
//!   (⊤) is a finding — ⊤ may allocate, so it must be vetted onto the
//!   known-no-allocation list or allowed with a written reason. The
//!   runtime cross-check lives in `crates/core/tests/alloc_sanitizer.rs`.
//! * **I1 — no I/O outside designated sinks.** Library code of the
//!   covered crates may not print or touch `std::io`/`std::fs`; only the
//!   configured sink files (telemetry) may. This is a direct scan over the
//!   same call-site model, so the two rules police one vocabulary.
//! * **O1 — observers must not mutate the solve.** Starting from every
//!   method of an `impl <ObserverTrait> for …` block, no workspace path
//!   may reach a mutator: a `&mut self` method of a configured solver type
//!   or a configured re-entrant entry point. ⊤ is ignored here — O1
//!   tracks workspace-internal flows only; external code cannot reach the
//!   solver's state without going through one of those mutators.

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::graph::{Callee, Graph, NodeId};
use crate::items::{parse_items, CallSite, FileItems, UseDecl};
use crate::rules::{classify, crate_of, FileClass, FileTarget};

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Method names that allocate on every std container they exist on. Shared
/// with [`crate::rules_concurrency`], which excludes these from lock-graph
/// edge propagation: a `.insert()` is a container op, not a call into
/// workspace lock code, even when a workspace method shares the name.
pub(crate) const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_str",
    "insert",
    "extend",
    "extend_from_slice",
    "reserve",
    "reserve_exact",
    "resize",
    "append",
    "split_off",
    "collect",
    "to_vec",
    "to_owned",
    "to_string",
    "clone",
    "clone_from",
    "repeat",
    "join",
    "concat",
    "into_boxed_slice",
    "to_uppercase",
    "to_lowercase",
    "boxed",
];

/// `Owner::fn` path calls that allocate.
const ALLOC_PATHS: &[&str] = &[
    "Box::new",
    "String::from",
    "String::with_capacity",
    "Vec::with_capacity",
    "Vec::from",
    "Arc::new",
    "Rc::new",
    "CString::new",
];

/// Macros that perform I/O.
const IO_MACROS: &[&str] = &["print", "println", "eprint", "eprintln", "dbg"];

/// Method names from `std::io::{Read, Write}` — a direct-scan vocabulary;
/// none of the covered crates define methods with these names, so a hit is
/// an I/O call (or deserves a written allow).
pub(crate) const IO_METHODS: &[&str] = &[
    "write_all",
    "write_fmt",
    "write_vectored",
    "flush",
    "read_to_string",
    "read_to_end",
    "read_exact",
    "read_line",
    "read_vectored",
    "sync_all",
    "sync_data",
];

/// Entry point: runs A1/I1/O1 over one file set. `targets` is the full
/// lint scope; only library files participate in the graph (explicit
/// targets are treated as library files, mirroring the token rules).
pub fn check_workspace(targets: &[FileTarget<'_>], cfg: &Config) -> Vec<Diagnostic> {
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
    check_workspace_graph(&graph, cfg, &explicit_paths)
}

/// Runs A1/I1/O1 over an already-built library graph. The pipeline
/// ([`crate::analysis`]) builds the graph once and shares it with the
/// value rules.
pub(crate) fn check_workspace_graph(
    graph: &Graph,
    cfg: &Config,
    explicit_paths: &[&str],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    rule_a1(graph, cfg, &mut diags);
    rule_i1(graph, cfg, explicit_paths, &mut diags);
    rule_o1(graph, cfg, &mut diags);
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

/// Use-alias expansion for a call's path segments.
fn expand<'a>(uses: &'a [UseDecl], segments: &'a [String]) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    if let Some(first) = segments.first() {
        if let Some(u) = uses.iter().find(|u| &u.alias == first) {
            out.extend(u.segments.iter().map(String::as_str));
            out.extend(segments.iter().skip(1).map(String::as_str));
            return out;
        }
    }
    out.extend(segments.iter().map(String::as_str));
    out
}

/// A1: allocation-freedom of everything reachable from the configured
/// hot-path roots.
fn rule_a1(graph: &Graph, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    if cfg.a1_roots.is_empty() {
        return;
    }
    let mut roots: Vec<NodeId> = Vec::new();
    for r in &cfg.a1_roots {
        roots.extend(graph.lookup_qname(r));
    }
    let pred = graph.reachable(&roots);
    for &id in pred.keys() {
        let node = &graph.nodes[id];
        let item = graph.item(id);
        let chain = graph.witness(&pred, id);
        // Which call sites have a ⊤ edge (unresolved)?
        let mut top_sites = vec![false; item.calls.len()];
        for e in &graph.edges[id] {
            if e.callee == Callee::Top {
                top_sites[e.site] = true;
            }
        }
        for (si, call) in item.calls.iter().enumerate() {
            if let Some(construct) = alloc_construct(call) {
                diags.push(diag(
                    "A1",
                    &node.file,
                    call.line,
                    call.col,
                    format!(
                        "allocating construct `{construct}` on the hot path ({chain}); \
                         hot-path roots must stay allocation-free"
                    ),
                ));
            } else if top_sites[si] {
                let shape = if call.is_macro {
                    format!("{}!", call.name)
                } else {
                    call.segments.join("::")
                };
                diags.push(diag(
                    "A1",
                    &node.file,
                    call.line,
                    call.col,
                    format!(
                        "call to `{shape}` resolves outside the workspace (⊤) on the hot \
                         path ({chain}); sfqlint cannot prove it allocation-free — vet it \
                         onto the known-no-alloc list or allow with a reason"
                    ),
                ));
            }
        }
    }
}

/// The allocating construct a call site represents, if any.
pub(crate) fn alloc_construct(call: &CallSite) -> Option<String> {
    if call.is_macro {
        return ALLOC_MACROS
            .contains(&call.name.as_str())
            .then(|| format!("{}!", call.name));
    }
    if call.is_method && ALLOC_METHODS.contains(&call.name.as_str()) {
        return Some(format!(".{}()", call.name));
    }
    if !call.is_method && call.segments.len() >= 2 {
        let key = format!(
            "{}::{}",
            call.segments[call.segments.len() - 2],
            call.segments[call.segments.len() - 1]
        );
        if ALLOC_PATHS.contains(&key.as_str()) {
            return Some(key);
        }
    }
    None
}

/// I1: no I/O constructs in covered library code outside the sink files.
fn rule_i1(graph: &Graph, cfg: &Config, explicit: &[&str], diags: &mut Vec<Diagnostic>) {
    for (path, items) in &graph.files {
        let in_crate =
            explicit.contains(&path.as_str()) || cfg.i1_crates.iter().any(|c| c == crate_of(path));
        let is_sink = cfg.i1_sink_files.iter().any(|f| f == path);
        if !in_crate || is_sink {
            continue;
        }
        for f in &items.fns {
            if f.in_test {
                continue;
            }
            for call in &f.calls {
                if let Some(what) = io_construct(&items.uses, call) {
                    diags.push(diag(
                        "I1",
                        path,
                        call.line,
                        call.col,
                        format!(
                            "I/O construct `{what}` in `{}`; library code must route output \
                             through the telemetry sinks ({})",
                            f.qname,
                            cfg.i1_sink_files.join(", "),
                        ),
                    ));
                }
            }
        }
    }
}

/// The I/O construct a call site represents, if any.
fn io_construct(uses: &[UseDecl], call: &CallSite) -> Option<String> {
    if call.is_macro {
        return IO_MACROS
            .contains(&call.name.as_str())
            .then(|| format!("{}!", call.name));
    }
    if matches!(call.name.as_str(), "stdout" | "stderr" | "stdin") {
        return Some(format!("{}()", call.name));
    }
    if call.is_method && IO_METHODS.contains(&call.name.as_str()) {
        return Some(format!(".{}()", call.name));
    }
    let seg = expand(uses, &call.segments);
    let trimmed: &[&str] = if seg.first() == Some(&"std") {
        &seg[1..]
    } else {
        &seg
    };
    match trimmed.first() {
        Some(&"io") | Some(&"fs") => Some(seg.join("::")),
        Some(&"File") | Some(&"OpenOptions") if trimmed.len() >= 2 => Some(seg.join("::")),
        _ => None,
    }
}

/// O1: observer impl methods must not reach solver mutators.
fn rule_o1(graph: &Graph, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    // Mutator set: `&mut self` methods of configured types + configured
    // re-entrant entry points.
    let is_mutator = |id: NodeId| -> bool {
        let item = graph.item(id);
        if cfg.o1_mutator_fns.iter().any(|m| m == &item.qname) {
            return true;
        }
        item.mut_self
            && item
                .impl_type
                .as_ref()
                .is_some_and(|t| cfg.o1_mutator_types.iter().any(|m| m == t))
    };
    for id in 0..graph.nodes.len() {
        let item = graph.item(id);
        if item.in_test {
            continue;
        }
        let Some(tr) = &item.impl_trait else { continue };
        if !cfg.o1_observer_traits.iter().any(|t| t == tr) {
            continue;
        }
        let pred = graph.reachable(&[id]);
        let mut hits: Vec<NodeId> = pred
            .keys()
            .copied()
            .filter(|&n| n != id && is_mutator(n))
            .collect();
        hits.sort_by(|&a, &b| graph.item(a).qname.cmp(&graph.item(b).qname));
        for hit in hits {
            let node = &graph.nodes[id];
            diags.push(diag(
                "O1",
                &node.file,
                item.line,
                item.col,
                format!(
                    "observer method `{}::{}` (impl {tr}) reaches solve mutator `{}` \
                     ({}); observers must only read the solve",
                    item.impl_type.as_deref().unwrap_or("_"),
                    item.name,
                    graph.item(hit).qname,
                    graph.witness(&pred, hit),
                ),
            ));
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
        check_workspace(&targets, &crate::config::repo_config())
    }

    #[test]
    fn a1_flags_constructs_reachable_from_roots() {
        let d = run(
            &[(
                "crates/core/src/engine.rs",
                "struct CostEngine;\n\
                 impl CostEngine {\n\
                 pub fn evaluate_with_gradient(&mut self) { self.helper(); }\n\
                 fn helper(&mut self) { self.scratch.push(1.0); }\n\
                 }\n",
            )],
            false,
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "A1");
        assert!(d[0].message.contains(".push()"));
        assert!(d[0]
            .message
            .contains("CostEngine::evaluate_with_gradient → CostEngine::helper"));
    }

    #[test]
    fn a1_flags_unresolved_top_calls() {
        let d = run(
            &[(
                "crates/core/src/engine.rs",
                "struct CostEngine;\n\
                 impl CostEngine {\n\
                 pub fn evaluate_with_gradient(&mut self) { mystery_function(); }\n\
                 }\n",
            )],
            false,
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("⊤"));
    }

    #[test]
    fn a1_silent_off_the_hot_path_and_for_known_ops() {
        let d = run(
            &[(
                "crates/core/src/engine.rs",
                "struct CostEngine;\n\
                 impl CostEngine {\n\
                 pub fn evaluate_with_gradient(&mut self) { self.buf.fill(0.0); self.buf.iter().sum::<f64>(); }\n\
                 pub fn cold_setup(&mut self) { self.buf.push(1.0); }\n\
                 }\n",
            )],
            false,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn i1_flags_prints_in_covered_lib_code() {
        let d = run(
            &[(
                "crates/core/src/solver.rs",
                "pub fn report() { println!(\"done\"); }",
            )],
            false,
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "I1");
    }

    #[test]
    fn i1_exempts_the_telemetry_sink_and_test_code() {
        let d = run(
            &[
                (
                    "crates/core/src/telemetry.rs",
                    "pub fn emit() { std::io::stdout(); }",
                ),
                (
                    "crates/core/src/solver.rs",
                    "#[cfg(test)]\nmod tests { fn t() { println!(\"x\"); } }",
                ),
            ],
            false,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn o1_flags_observers_reaching_mutators() {
        let d = run(
            &[(
                "crates/core/src/obs.rs",
                "struct WeightMatrix;\n\
                 impl WeightMatrix { pub fn set(&mut self, v: f64) {} }\n\
                 struct Evil;\n\
                 impl SolveObserver for Evil {\n\
                 fn on_iteration(&mut self, w: &mut WeightMatrix) { w.set(0.0); }\n\
                 }\n",
            )],
            false,
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "O1");
        assert!(d[0].message.contains("WeightMatrix::set"));
    }

    #[test]
    fn o1_allows_read_only_observers() {
        let d = run(
            &[(
                "crates/core/src/obs.rs",
                "struct WeightMatrix;\n\
                 impl WeightMatrix { pub fn get(&self) -> f64 { 0.0 } \
                 pub fn set(&mut self, v: f64) {} }\n\
                 struct Probe;\n\
                 impl SolveObserver for Probe {\n\
                 fn on_iteration(&mut self, w: &WeightMatrix) { let _ = w.get(); }\n\
                 }\n",
            )],
            false,
        );
        assert!(d.is_empty(), "{d:?}");
    }
}

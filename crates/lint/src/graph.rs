//! Workspace symbol graph and conservative call graph.
//!
//! Built from the per-file item models ([`crate::items`]): every function
//! in the analyzed file set becomes a node; every call site becomes either
//! an edge to the workspace functions it may resolve to, or an edge to the
//! **⊤ node** — "code sfqlint cannot see", which must be treated as *may
//! allocate, may perform I/O*. Rules that need allocation-freedom treat ⊤
//! as a violation unless the callee is on a vetted known-no-allocation
//! list; rules that only track workspace-internal flows (O1) ignore ⊤.
//!
//! Resolution is name-based and deliberately over-approximate:
//!
//! 1. `use` aliases map single-segment calls back to their full path, and
//!    multi-segment paths are matched by their final `Type::fn` (or
//!    `module::fn`) pair against the workspace index.
//! 2. A leading `Self::` segment resolves to the caller's `impl` type.
//! 3. Method calls (`.name(…)`) edge to **every** workspace function of
//!    that name *in the caller's crate* — receiver types are unknown, so
//!    all candidates are assumed reachable. Cross-crate method calls fall
//!    through to the caller-provided known lists or ⊤.
//! 4. Unresolvable calls become ⊤ edges carrying the call-site span so
//!    rules can point at the exact location.
//!
//! The graph is deterministic: nodes are ordered by (file, source order)
//! and indices are `BTreeMap`s, so diagnostics never depend on hash order.

use std::collections::BTreeMap;

use crate::items::{CallSite, FileItems};
use crate::rules::crate_of;

/// Identifier of a function node: index into [`Graph::nodes`].
pub type NodeId = usize;

/// One function node in the workspace graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Repo-relative path of the defining file.
    pub file: String,
    /// Crate the file belongs to (see [`crate_of`]).
    pub krate: String,
    /// Index of the function within that file's [`FileItems::fns`].
    pub fn_idx: usize,
}

/// Where a call may lead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// Resolved to one workspace function.
    Node(NodeId),
    /// ⊤ — outside the analyzed set; may allocate, may do I/O.
    Top,
}

/// One resolved call edge, keeping the originating call site.
#[derive(Debug, Clone)]
pub struct CallEdge {
    /// Index of the call site in the caller's [`crate::items::FnItem::calls`].
    pub site: usize,
    /// Resolution result.
    pub callee: Callee,
}

/// The assembled workspace model.
pub struct Graph {
    /// Per-file item models, keyed by repo-relative path (sorted).
    pub files: BTreeMap<String, FileItems>,
    /// All function nodes, ordered by (file, source order).
    pub nodes: Vec<FnNode>,
    /// Outgoing edges per node, parallel to [`Self::nodes`].
    pub edges: Vec<Vec<CallEdge>>,
    /// `qname → nodes` (e.g. `CostEngine::evaluate`, `kernel::pow_abs`).
    by_qname: BTreeMap<String, Vec<NodeId>>,
    /// `bare name → nodes` for method/bare-call resolution.
    by_name: BTreeMap<String, Vec<NodeId>>,
}

/// Call names resolution should treat as edge-free even when they do not
/// resolve into the workspace — callers vet these as non-allocating and
/// non-I/O. Shared by the rules so the lint and the runtime allocation
/// sanitizer (`crates/core/tests/alloc_sanitizer.rs`) police the same
/// boundary.
pub const KNOWN_NO_ALLOC: &[&str] = &[
    // Lazy iterator constructors/adapters and terminal folds.
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "zip",
    "enumerate",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "rev",
    "skip",
    "take_while",
    "skip_while",
    "step_by",
    "chain",
    "fold",
    "try_fold",
    "sum",
    "product",
    "count",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "all",
    "any",
    "find",
    "position",
    "last",
    "nth",
    "by_ref",
    "copied",
    "inspect",
    // Slice views and in-place ops.
    "windows",
    "chunks",
    "chunks_mut",
    "chunks_exact",
    "chunks_exact_mut",
    "remainder",
    "split_at",
    "split_at_mut",
    "split_first",
    "split_last",
    "swap",
    "fill",
    "copy_from_slice",
    "first",
    "first_mut",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "contains",
    "starts_with",
    "ends_with",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "binary_search",
    "binary_search_by",
    "partition_point",
    "reverse",
    "rotate_left",
    "rotate_right",
    // Conversions that reborrow rather than build.
    "as_slice",
    "as_mut_slice",
    "as_ref",
    "as_mut",
    "as_deref",
    "as_deref_mut",
    "as_bytes",
    "as_str",
    "deref",
    "borrow",
    "borrow_mut",
    // Float/integer arithmetic.
    "abs",
    "signum",
    "sqrt",
    "powi",
    "powf",
    "exp",
    "ln",
    "log2",
    "log10",
    "floor",
    "ceil",
    "round",
    "trunc",
    "recip",
    "mul_add",
    "hypot",
    "clamp",
    "is_finite",
    "is_nan",
    "is_sign_negative",
    "is_sign_positive",
    "to_bits",
    "from_bits",
    "total_cmp",
    "partial_cmp",
    "cmp",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "pow",
    "rem_euclid",
    "div_euclid",
    "unsigned_abs",
    // Log2 bucketing (serviced ops histograms): a bit-scan intrinsic.
    "ilog2",
    // Option/Result plumbing (`unwrap`/`expect` abort — the panic path is
    // P2's and clippy's concern, not A1's).
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "map_or",
    "map_or_else",
    "ok",
    "err",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "and_then",
    "or_else",
    "ok_or",
    "ok_or_else",
    "is_some_and",
    "is_none_or",
    "take",
    "replace",
    // Atomics and futex-backed sync (allocation-free per operation on the
    // platforms we target; the sanitizer test enforces this empirically).
    "fetch_add",
    "fetch_sub",
    "fetch_min",
    "fetch_max",
    "fetch_or",
    "fetch_and",
    "load",
    "store",
    "compare_exchange",
    "lock",
    "read",
    "write",
    "try_lock",
    "wait",
    "wait_while",
    "wait_timeout",
    "notify_all",
    "notify_one",
    "into_inner",
    "is_poisoned",
    // `LocalKey::with`/`try_with` on a const-initialized `thread_local!`
    // are allocation-free: no lazy init, just a TLS slot read. The lock
    // witness's held-set bookkeeping rides on this.
    "with",
    "try_with",
    // Panic-path / mem utilities.
    "drop",
    "resume_unwind",
    "catch_unwind",
    "size_of",
    "align_of",
    "black_box",
    "min_assign",
];

/// Macros that never hide an allocation or I/O worth tracking: assertions
/// and panics abort (the panic path is out of scope for A1), the rest are
/// compile-time or formatting-into-caller-buffer forms.
pub const KNOWN_SAFE_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "write",
    "writeln",
    "matches",
    "cfg",
    "stringify",
    "concat",
    "line",
    "file",
    "column",
    "env",
    "option_env",
    "include_str",
    "compile_error",
];

impl Graph {
    /// Builds the graph from `(path, items)` pairs. Only the files handed
    /// in participate — the caller decides the scope (workspace library
    /// files, or an explicit file set).
    pub fn build(files: Vec<(String, FileItems)>) -> Self {
        let files: BTreeMap<String, FileItems> = files.into_iter().collect();
        let mut nodes = Vec::new();
        let mut by_qname: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        let mut by_name: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        for (path, items) in &files {
            let krate = crate_of(path).to_owned();
            for (fn_idx, f) in items.fns.iter().enumerate() {
                let id = nodes.len();
                nodes.push(FnNode {
                    file: path.clone(),
                    krate: krate.clone(),
                    fn_idx,
                });
                by_qname.entry(f.qname.clone()).or_default().push(id);
                by_name.entry(f.name.clone()).or_default().push(id);
            }
        }
        let mut graph = Graph {
            files,
            nodes,
            edges: Vec::new(),
            by_qname,
            by_name,
        };
        graph.edges = (0..graph.nodes.len())
            .map(|id| graph.resolve_node(id))
            .collect();
        graph
    }

    /// The function item behind a node.
    pub fn item(&self, id: NodeId) -> &crate::items::FnItem {
        let node = &self.nodes[id];
        &self.files[&node.file].fns[node.fn_idx]
    }

    /// All nodes whose qualified name matches `qname` exactly, excluding
    /// test code.
    pub fn lookup_qname(&self, qname: &str) -> Vec<NodeId> {
        self.by_qname
            .get(qname)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| !self.item(id).in_test)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Resolves every call site of one node into edges.
    fn resolve_node(&self, id: NodeId) -> Vec<CallEdge> {
        let node = &self.nodes[id];
        let item = &self.files[&node.file].fns[node.fn_idx];
        let uses = &self.files[&node.file].uses;
        let mut edges = Vec::new();
        for (site, call) in item.calls.iter().enumerate() {
            for callee in self.resolve_call(node, item, uses, call) {
                edges.push(CallEdge { site, callee });
            }
        }
        edges
    }

    /// Resolution of one call site; empty = vetted edge-free.
    fn resolve_call(
        &self,
        node: &FnNode,
        item: &crate::items::FnItem,
        uses: &[crate::items::UseDecl],
        call: &CallSite,
    ) -> Vec<Callee> {
        if call.is_macro {
            if KNOWN_SAFE_MACROS.contains(&call.name.as_str()) {
                return Vec::new();
            }
            // Allocating/I/O macros are classified as direct constructs by
            // the rules; unknown macros are opaque code.
            return vec![Callee::Top];
        }

        // Normalize `Self::…` through the enclosing impl type.
        let mut segments = call.segments.clone();
        if segments.first().map(String::as_str) == Some("Self") {
            if let Some(t) = &item.impl_type {
                segments[0] = t.clone();
            }
        }

        if call.is_method || segments.len() == 1 {
            let name = &call.name;
            // Single-segment: a `use` alias wins (exact, cross-crate).
            if !call.is_method {
                if let Some(u) = uses.iter().find(|u| &u.alias == name) {
                    if let Some(ids) = self.qname_of_path(&u.segments) {
                        return ids.into_iter().map(Callee::Node).collect();
                    }
                }
            }
            // Same-crate candidates by bare name (receiver unknown).
            let in_crate: Vec<NodeId> = self
                .by_name
                .get(name)
                .map(|ids| {
                    ids.iter()
                        .copied()
                        .filter(|&c| self.nodes[c].krate == node.krate && !self.item(c).in_test)
                        .collect()
                })
                .unwrap_or_default();
            if !in_crate.is_empty() {
                return in_crate.into_iter().map(Callee::Node).collect();
            }
            if KNOWN_NO_ALLOC.contains(&name.as_str()) {
                return Vec::new();
            }
            // Tuple-struct / enum-variant constructors (`Some(…)`,
            // `AssertUnwindSafe(…)`) wrap their argument without
            // allocating; the argument's own calls are still scanned.
            if !call.is_method && name.chars().next().is_some_and(char::is_uppercase) {
                return Vec::new();
            }
            return vec![Callee::Top];
        }

        // Multi-segment path: try `use`-expanded exact path, then the
        // trailing `owner::fn` pair against the workspace index.
        if let Some(u) = uses.iter().find(|u| Some(&u.alias) == segments.first()) {
            let mut full = u.segments.clone();
            full.extend(segments.iter().skip(1).cloned());
            if let Some(ids) = self.qname_of_path(&full) {
                return ids.into_iter().map(Callee::Node).collect();
            }
        }
        if let Some(ids) = self.qname_of_path(&segments) {
            return ids.into_iter().map(Callee::Node).collect();
        }
        if KNOWN_NO_ALLOC.contains(&call.name.as_str()) {
            return Vec::new();
        }
        vec![Callee::Top]
    }

    /// Matches the trailing `owner::fn` of a full path against the index.
    fn qname_of_path(&self, segments: &[String]) -> Option<Vec<NodeId>> {
        if segments.len() < 2 {
            return None;
        }
        let key = format!(
            "{}::{}",
            segments[segments.len() - 2],
            segments[segments.len() - 1]
        );
        let ids = self.lookup_qname(&key);
        if ids.is_empty() {
            None
        } else {
            Some(ids)
        }
    }

    /// Breadth-first reachability over resolved edges from `roots`.
    /// Returns, per reached node, the predecessor used to reach it (roots
    /// map to themselves) — enough to reconstruct a witness path.
    pub fn reachable(&self, roots: &[NodeId]) -> BTreeMap<NodeId, NodeId> {
        let mut pred: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut queue: Vec<NodeId> = Vec::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(e) = pred.entry(r) {
                e.insert(r);
                queue.push(r);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let n = queue[head];
            head += 1;
            for e in &self.edges[n] {
                if let Callee::Node(c) = e.callee {
                    if let std::collections::btree_map::Entry::Vacant(e) = pred.entry(c) {
                        e.insert(n);
                        queue.push(c);
                    }
                }
            }
        }
        pred
    }

    /// Witness call chain `root → … → id`, rendered as qualified names.
    pub fn witness(&self, pred: &BTreeMap<NodeId, NodeId>, id: NodeId) -> String {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(&p) = pred.get(&cur) {
            if p == cur || chain.len() > 16 {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain
            .iter()
            .rev()
            .map(|&n| self.item(n).qname.as_str())
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;

    fn graph(files: &[(&str, &str)]) -> Graph {
        Graph::build(
            files
                .iter()
                .map(|(p, s)| ((*p).to_owned(), parse_items(p, s)))
                .collect(),
        )
    }

    #[test]
    fn bare_calls_resolve_within_crate() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "fn caller() { helper(); } fn helper() {}",
        )]);
        let caller = g.lookup_qname("a::caller")[0];
        let helper = g.lookup_qname("a::helper")[0];
        assert_eq!(g.edges[caller].len(), 1);
        assert_eq!(g.edges[caller][0].callee, Callee::Node(helper));
    }

    #[test]
    fn edges_point_at_same_crate_definitions() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "pub fn caller() { helper(); mystery(); }",
            ),
            ("crates/core/src/b.rs", "pub fn helper() {}"),
        ]);
        let caller = g.lookup_qname("a::caller")[0];
        let helper = g.lookup_qname("b::helper")[0];
        let callees: Vec<&Callee> = g.edges[caller].iter().map(|e| &e.callee).collect();
        assert!(callees.contains(&&Callee::Node(helper)));
        assert!(callees.contains(&&Callee::Top), "mystery() must be ⊤");
    }

    #[test]
    fn method_calls_fan_out_to_all_same_name_fns() {
        let g = graph(&[(
            "crates/core/src/m.rs",
            "struct A; impl A { fn run(&self) {} }\n\
             struct B; impl B { fn run(&self) {} }\n\
             fn caller(x: &A) { x.run(); }",
        )]);
        let caller = g.lookup_qname("m::caller")[0];
        let nodes: Vec<NodeId> = g.edges[caller]
            .iter()
            .filter_map(|e| match e.callee {
                Callee::Node(n) => Some(n),
                Callee::Top => None,
            })
            .collect();
        assert_eq!(nodes.len(), 2, "receiver unknown → both run() candidates");
    }

    #[test]
    fn use_alias_resolves_cross_crate() {
        let g = graph(&[
            (
                "crates/recycle/src/x.rs",
                "use sfq_partition::kernel::pow_abs;\nfn f(d: f64) { pow_abs(d); }",
            ),
            ("crates/core/src/kernel.rs", "pub fn pow_abs(d: f64) {}"),
        ]);
        let f = g.lookup_qname("x::f")[0];
        let pow = g.lookup_qname("kernel::pow_abs")[0];
        assert_eq!(g.edges[f].len(), 1);
        assert_eq!(g.edges[f][0].callee, Callee::Node(pow));
    }

    #[test]
    fn self_paths_resolve_through_impl_type() {
        let g = graph(&[(
            "crates/core/src/s.rs",
            "struct E; impl E { fn new() -> E { E } fn f(&self) { Self::new(); } }",
        )]);
        let f = g.lookup_qname("E::f")[0];
        let new = g.lookup_qname("E::new")[0];
        assert_eq!(g.edges[f][0].callee, Callee::Node(new));
    }

    #[test]
    fn known_macros_are_edge_free_and_unknown_macros_are_top() {
        let g = graph(&[(
            "crates/core/src/mac.rs",
            "fn f() { assert!(true); mystery_macro!(x); }",
        )]);
        let f = g.lookup_qname("mac::f")[0];
        assert_eq!(g.edges[f].len(), 1);
        assert_eq!(g.edges[f][0].callee, Callee::Top);
    }

    #[test]
    fn reachability_and_witness() {
        let g = graph(&[(
            "crates/core/src/r.rs",
            "fn a() { b(); } fn b() { c(); } fn c() {} fn unrelated() {}",
        )]);
        let a = g.lookup_qname("r::a")[0];
        let c = g.lookup_qname("r::c")[0];
        let unrelated = g.lookup_qname("r::unrelated")[0];
        let pred = g.reachable(&[a]);
        assert!(pred.contains_key(&c));
        assert!(!pred.contains_key(&unrelated));
        assert_eq!(g.witness(&pred, c), "r::a → r::b → r::c");
    }

    #[test]
    fn test_code_is_invisible_to_resolution() {
        let g = graph(&[(
            "crates/core/src/t.rs",
            "pub fn caller() { helper(); }\n\
             #[cfg(test)]\nmod tests { pub fn helper() { super::caller(); } }",
        )]);
        let caller = g.lookup_qname("t::caller")[0];
        // The only `helper` is test code → the call is ⊤, not an edge.
        assert_eq!(g.edges[caller][0].callee, Callee::Top);
    }
}

//! Concurrency rules over the workspace symbol graph: lock-order
//! acyclicity (L1), no blocking under a lock (L2), and async-signal-safety
//! plus the `unsafe`-block registry (S1).
//!
//! # The lock model
//!
//! Locks are identified by *syntactic class*: the receiver chain of an
//! acquisition site (`self.shared.job.lock()`), minus the leading `self`,
//! reduced to its last two segments (`shared::job`). A one-segment chain
//! inside an `impl` block borrows the impl type as owner
//! (`self.inner.lock()` in `impl JobQueue` → `jobqueue::inner`). Classes
//! are then prefixed with the acquiring file's crate, so identically named
//! fields in different crates stay distinct. `.lock()`/`.try_lock()`
//! acquire; `.wait()`/`.wait_while()`/`.wait_timeout()` are condvar waits
//! that release and re-take the mutex associated via `[rules.L1]
//! condvars`; calls resolving to a registered `acquire_fns` entry (the
//! poison-bridging `pool::lock` helper) acquire the class named by their
//! first argument.
//!
//! A guard bound by `let` (with nothing but `unwrap`/`expect`/
//! `unwrap_or_else` between the acquisition and the `;`) is held from its
//! binding to the end of the binding's block; an explicit `drop(guard)`
//! releases it for the code the drop dominates (the drop's own block
//! subtree) while leaving sibling branches held. An unbound acquisition
//! (`self.jobs.lock().unwrap().remove(id)`) is held for its statement.
//!
//! # The rules
//!
//! * **L1.** Build the may-acquire-while-holding relation: an edge `A → B`
//!   means some thread can hold `A` while acquiring `B`, either directly
//!   in one body or because a call made under `A` reaches (transitively) a
//!   body that acquires `B`. Any cycle is a potential deadlock and is
//!   reported with the witness edges. Re-acquiring a held class is an
//!   immediate finding (`std::sync::Mutex` self-deadlocks). On top of
//!   acyclicity, each crate may declare a canonical order
//!   (`[rules.L1] order_<crate>`): acquiring a class declared *earlier*
//!   while holding a *later* one is a finding even before a reverse edge
//!   exists to complete a cycle.
//! * **L2.** With any lock held, a call must not block: direct names from
//!   `[rules.L2] blocking_calls` (`join`, `sleep`, socket I/O), calls
//!   whose resolved body is may-block (declared `blocking_fns` such as
//!   `Solver::solve`, or anything containing a condvar wait or a blocking
//!   call, transitively), and condvar waits while holding any lock other
//!   than the condvar's own mutex.
//! * **S1.** Every function registered as a signal handler (auto-detected
//!   from `signal(...)` registration sites, plus `[rules.S1] handlers`)
//!   may only reach calls on the `safe_calls` whitelist (atomic ops) or
//!   fully resolved workspace functions, whose bodies are checked the
//!   same way; macros on the handler path are always findings. Separately,
//!   every `unsafe { … }` block in the workspace must be registered in
//!   `[rules.S1] unsafe_blocks` as a `path -- justification` entry, and
//!   stale entries are findings — the registry is reviewable documentation,
//!   like the allowlist.
//!
//! # Approximations, by design
//!
//! The analysis is conservative where it propagates (⊤ acquires nothing
//! and never blocks — it cannot reach workspace locks without going
//! through a workspace function) and syntactic where it scopes. Known
//! blind spots, all covered by the runtime lock witness
//! (`core::witness`): guards created in call-argument position
//! (`process(m.lock().unwrap())` — the argument lexes after the callee),
//! guards escaping through unregistered constructor helpers, and
//! scrutinee temporaries of `if let` that outlive their statement.
//! Method-call edges whose name is a known container/iterator op
//! (`insert`, `fold`, …) are excluded from propagation so same-named
//! workspace methods do not fold container traffic into the lock graph.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::graph::{Callee, Graph, NodeId, KNOWN_NO_ALLOC};
use crate::items::{parse_items, CallSite, FnItem};
use crate::lexer::lex;
use crate::rules_graph::ALLOC_METHODS;
use crate::target::{classify, crate_of, FileClass, FileTarget};

/// What one call site means to the lock model.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SiteKind {
    /// Acquires a lock class (mutex lock or a registered acquire-helper
    /// call).
    Acquire {
        /// Crate-prefixed class id.
        class: String,
    },
    /// Condvar wait: blocks, releasing and re-taking the associated mutex.
    Wait {
        /// Crate-prefixed condvar class.
        cv: String,
        /// Crate-prefixed mutex class the wait releases, when the condvar
        /// is registered in `[rules.L1] condvars`.
        assoc: Option<String>,
    },
    /// `drop(binding)` of a named guard.
    Drop {
        /// The dropped binding's name.
        name: String,
    },
    /// Anything else.
    Other,
}

/// One may-acquire-while-holding edge with its witness site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct LockEdge {
    from: String,
    to: String,
    file: String,
    line: u32,
    col: u32,
    /// Human-readable description of how the edge arises.
    desc: String,
}

/// Entry point: runs L1/L2/S1 over one file set. Library and binary files
/// participate in the graph (the signal handler lives in a bin target);
/// explicit targets always participate, mirroring the other rule layers.
/// The `unsafe` registry audit runs over the non-explicit targets only, so
/// fixture runs do not trip over the real workspace's registry.
pub fn check_concurrency(targets: &[FileTarget<'_>], cfg: &Config) -> Vec<Diagnostic> {
    let mut parsed: Vec<(String, crate::items::FileItems)> = Vec::new();
    for t in targets {
        let class = classify(t.path);
        if t.explicit || class == FileClass::Lib || class == FileClass::Bin {
            parsed.push((t.path.to_owned(), parse_items(t.path, t.src)));
        }
    }
    let graph = Graph::build(parsed);
    let census: Vec<(String, Vec<(u32, u32)>)> = targets
        .iter()
        .filter(|t| !t.explicit)
        .map(|t| (t.path.to_owned(), unsafe_block_sites(&lex(t.src))))
        .collect();
    check_concurrency_graph(&graph, cfg, &census)
}

/// Runs L1/L2/S1 over an already-built library+binary graph, with the
/// `unsafe`-block census precomputed per file (empty census on explicit /
/// fixture runs). The pipeline ([`crate::analysis`]) calls this directly.
pub(crate) fn check_concurrency_graph(
    graph: &Graph,
    cfg: &Config,
    census: &[(String, Vec<(u32, u32)>)],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let model = Model::build(graph, cfg);
    model.check_l1_l2(&mut diags);
    rule_s1_handlers(graph, cfg, &mut diags);
    audit_unsafe_census(census, cfg, &mut diags);
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    diags.dedup();
    diags
}

/// Positions of `unsafe {` block heads in one token stream.
pub(crate) fn unsafe_block_sites(tokens: &[crate::lexer::Token<'_>]) -> Vec<(u32, u32)> {
    let sig: Vec<&crate::lexer::Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut blocks = Vec::new();
    for w in sig.windows(2) {
        if w[0].is_ident("unsafe") && w[1].is_punct("{") {
            blocks.push((w[0].line, w[0].col));
        }
    }
    blocks
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

/// Strips the `crate:` prefix from a class id.
fn short(class: &str) -> &str {
    class.split_once(':').map_or(class, |(_, c)| c)
}

/// Renders a held set as `` `a`, `b` `` (short names).
fn held_list(held: &BTreeSet<String>) -> String {
    held.iter()
        .map(|c| format!("`{}`", short(c)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The mutex class associated with a condvar class, per `[rules.L1]
/// condvars`.
fn condvar_assoc(cfg: &Config, cv: &str) -> Option<String> {
    for entry in &cfg.l1_condvars {
        if let Some((from, to)) = entry.split_once('=') {
            if from.trim() == cv {
                return Some(to.trim().to_owned());
            }
        }
    }
    None
}

/// Derives the unprefixed lock class named by a place expression chain, in
/// the context of `impl_type`. `None` when the chain is empty or rooted in
/// something the scanner could not name.
fn class_of_chain(chain: &[String], impl_type: Option<&str>) -> Option<String> {
    let chain: &[String] = if chain.first().map(String::as_str) == Some("self") {
        &chain[1..]
    } else {
        chain
    };
    match chain {
        [] => None,
        [field] => Some(match impl_type {
            Some(t) => format!("{}::{}", t.to_lowercase(), field.to_lowercase()),
            None => field.to_lowercase(),
        }),
        [.., owner, field] => Some(format!(
            "{}::{}",
            owner.to_lowercase(),
            field.to_lowercase()
        )),
    }
}

/// The per-node lock model: site classifications, filtered call edges, and
/// the interprocedural fixpoints.
struct Model<'a> {
    graph: &'a Graph,
    cfg: &'a Config,
    /// Per node, per call site.
    kinds: Vec<Vec<SiteKind>>,
    /// Call edges that participate in propagation: `(site, callee)`.
    fedges: Vec<Vec<(usize, NodeId)>>,
    /// Nodes excluded from analysis: test code and the registered
    /// acquire-helper bodies (their internal lock sites name parameters,
    /// not fields).
    exempt: Vec<bool>,
    /// Classes each node may acquire, transitively.
    acq: Vec<BTreeSet<String>>,
    /// Why each node may block, when it may.
    may_block: Vec<Option<String>>,
}

impl<'a> Model<'a> {
    fn build(graph: &'a Graph, cfg: &'a Config) -> Self {
        let n = graph.nodes.len();
        let mut kinds: Vec<Vec<SiteKind>> = Vec::with_capacity(n);
        let mut exempt: Vec<bool> = Vec::with_capacity(n);
        for id in 0..n {
            let item = graph.item(id);
            let ex = item.in_test || cfg.l1_acquire_fns.iter().any(|f| f == &item.qname);
            exempt.push(ex);
            if ex {
                kinds.push(vec![SiteKind::Other; item.calls.len()]);
                continue;
            }
            let krate = &graph.nodes[id].krate;
            kinds.push(
                item.calls
                    .iter()
                    .enumerate()
                    .map(|(si, call)| classify_site(graph, cfg, id, si, call, krate))
                    .collect(),
            );
        }

        // Filtered edge set: only `Other` non-macro sites propagate, and
        // method calls with container/iterator names are container traffic.
        let mut fedges: Vec<Vec<(usize, NodeId)>> = Vec::with_capacity(n);
        for id in 0..n {
            let item = graph.item(id);
            let mut out = Vec::new();
            if !exempt[id] {
                for e in &graph.edges[id] {
                    let Callee::Node(c) = e.callee else { continue };
                    if exempt[c] || kinds[id][e.site] != SiteKind::Other {
                        continue;
                    }
                    let call = &item.calls[e.site];
                    if call.is_macro {
                        continue;
                    }
                    let name = call.name.as_str();
                    if call.is_method
                        && (KNOWN_NO_ALLOC.contains(&name) || ALLOC_METHODS.contains(&name))
                    {
                        continue;
                    }
                    out.push((e.site, c));
                }
            }
            fedges.push(out);
        }

        let mut model = Model {
            graph,
            cfg,
            kinds,
            fedges,
            exempt,
            acq: vec![BTreeSet::new(); n],
            may_block: vec![None; n],
        };
        model.fixpoints();
        model
    }

    /// Seeds and iterates the `acq` / `may_block` fixpoints.
    fn fixpoints(&mut self) {
        for id in 0..self.graph.nodes.len() {
            if self.exempt[id] {
                continue;
            }
            let item = self.graph.item(id);
            if self.cfg.l2_blocking_fns.iter().any(|f| f == &item.qname) {
                self.may_block[id] = Some("declared in [rules.L2] blocking_fns".into());
            }
            for (si, kind) in self.kinds[id].iter().enumerate() {
                match kind {
                    SiteKind::Acquire { class } => {
                        self.acq[id].insert(class.clone());
                    }
                    SiteKind::Wait { cv, assoc } => {
                        if let Some(m) = assoc {
                            self.acq[id].insert(m.clone());
                        }
                        if self.may_block[id].is_none() {
                            self.may_block[id] = Some(format!("waits on condvar `{}`", short(cv)));
                        }
                    }
                    SiteKind::Other => {
                        let call = &item.calls[si];
                        if !call.is_macro
                            && self.may_block[id].is_none()
                            && self.cfg.l2_blocking_calls.iter().any(|b| b == &call.name)
                        {
                            self.may_block[id] = Some(format!("calls blocking `{}`", call.name));
                        }
                    }
                    SiteKind::Drop { .. } => {}
                }
            }
        }
        // Propagate over the filtered edges until stable.
        loop {
            let mut changed = false;
            for id in 0..self.graph.nodes.len() {
                for &(_, c) in &self.fedges[id] {
                    if !self.acq[c].is_empty() && !self.acq[c].is_subset(&self.acq[id]) {
                        let extra: Vec<String> = self.acq[c].iter().cloned().collect();
                        self.acq[id].extend(extra);
                        changed = true;
                    }
                    if self.may_block[id].is_none() && self.may_block[c].is_some() {
                        self.may_block[id] =
                            Some(format!("calls may-block `{}`", self.graph.item(c).qname));
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// The lock classes held when call site `idx` of `item` executes.
    fn held_at(&self, item: &FnItem, kinds: &[SiteKind], idx: usize) -> BTreeSet<String> {
        struct GuardState {
            class: String,
            block: u32,
            dropped: Option<u32>,
        }
        let at = &item.calls[idx];
        let mut bound: BTreeMap<&str, GuardState> = BTreeMap::new();
        let mut held = BTreeSet::new();
        for (site, kind) in item.calls.iter().zip(kinds).take(idx) {
            let class = match kind {
                SiteKind::Acquire { class } => Some(class),
                SiteKind::Wait { assoc: Some(m), .. } => Some(m),
                SiteKind::Drop { name } => {
                    if let Some(g) = bound.get_mut(name.as_str()) {
                        g.dropped = Some(site.block);
                    }
                    None
                }
                _ => None,
            };
            let Some(class) = class else { continue };
            match &site.bound {
                Some(name) => {
                    bound.insert(
                        name,
                        GuardState {
                            class: class.clone(),
                            block: site.block,
                            dropped: None,
                        },
                    );
                }
                // Unbound: the guard is a temporary, alive to the end of
                // its statement.
                None => {
                    if site.stmt == at.stmt {
                        held.insert(class.clone());
                    }
                }
            }
        }
        for g in bound.values() {
            let in_scope = encloses(&item.block_parent, g.block, at.block);
            let dropped = g
                .dropped
                .is_some_and(|db| encloses(&item.block_parent, db, at.block));
            if in_scope && !dropped {
                held.insert(g.class.clone());
            }
        }
        held
    }

    /// Generates L1/L2 findings.
    fn check_l1_l2(&self, diags: &mut Vec<Diagnostic>) {
        let mut edges: BTreeSet<LockEdge> = BTreeSet::new();
        for id in 0..self.graph.nodes.len() {
            if self.exempt[id] {
                continue;
            }
            let item = self.graph.item(id);
            let node = &self.graph.nodes[id];
            for (si, call) in item.calls.iter().enumerate() {
                let held = self.held_at(item, &self.kinds[id], si);
                match &self.kinds[id][si] {
                    SiteKind::Acquire { class } => {
                        if held.contains(class) {
                            diags.push(diag(
                                "L1",
                                &node.file,
                                call.line,
                                call.col,
                                format!(
                                    "`{}` re-acquires lock class `{}` while already holding \
                                     it; `std::sync::Mutex` is not reentrant — this \
                                     self-deadlocks",
                                    item.qname,
                                    short(class)
                                ),
                            ));
                        }
                        for h in &held {
                            if h != class {
                                edges.insert(LockEdge {
                                    from: h.clone(),
                                    to: class.clone(),
                                    file: node.file.clone(),
                                    line: call.line,
                                    col: call.col,
                                    desc: format!(
                                        "`{}` acquires `{}` while holding `{}`",
                                        item.qname,
                                        short(class),
                                        short(h)
                                    ),
                                });
                            }
                        }
                    }
                    SiteKind::Wait { cv, assoc } => {
                        let mut extra = held.clone();
                        if let Some(m) = assoc {
                            extra.remove(m);
                        }
                        if !extra.is_empty() {
                            diags.push(diag(
                                "L2",
                                &node.file,
                                call.line,
                                call.col,
                                format!(
                                    "`{}` waits on condvar `{}` while holding {}; a wait \
                                     must hold only its own mutex — other threads block on \
                                     those locks for the full wait",
                                    item.qname,
                                    short(cv),
                                    held_list(&extra)
                                ),
                            ));
                        }
                        if let Some(m) = assoc {
                            for h in &extra {
                                edges.insert(LockEdge {
                                    from: h.clone(),
                                    to: m.clone(),
                                    file: node.file.clone(),
                                    line: call.line,
                                    col: call.col,
                                    desc: format!(
                                        "`{}` re-acquires `{}` after a `{}` wait while \
                                         holding `{}`",
                                        item.qname,
                                        short(m),
                                        short(cv),
                                        short(h)
                                    ),
                                });
                            }
                        }
                    }
                    SiteKind::Drop { .. } => {}
                    SiteKind::Other => {
                        if call.is_macro || held.is_empty() {
                            continue;
                        }
                        if self.cfg.l2_blocking_calls.iter().any(|b| b == &call.name) {
                            diags.push(diag(
                                "L2",
                                &node.file,
                                call.line,
                                call.col,
                                format!(
                                    "`{}` makes blocking call `{}` while holding {}; \
                                     never block under a lock",
                                    item.qname,
                                    call.name,
                                    held_list(&held)
                                ),
                            ));
                            continue;
                        }
                        let mut blocked = false;
                        for &(site, c) in &self.fedges[id] {
                            if site != si {
                                continue;
                            }
                            if let Some(reason) = &self.may_block[c] {
                                if !blocked {
                                    blocked = true;
                                    diags.push(diag(
                                        "L2",
                                        &node.file,
                                        call.line,
                                        call.col,
                                        format!(
                                            "`{}` calls `{}` (which {}) while holding {}; \
                                             never block under a lock",
                                            item.qname,
                                            self.graph.item(c).qname,
                                            reason,
                                            held_list(&held)
                                        ),
                                    ));
                                }
                            }
                            for k in &self.acq[c] {
                                for h in &held {
                                    edges.insert(LockEdge {
                                        from: h.clone(),
                                        to: k.clone(),
                                        file: node.file.clone(),
                                        line: call.line,
                                        col: call.col,
                                        desc: format!(
                                            "`{}` calls `{}` (which may acquire `{}`) \
                                             while holding `{}`",
                                            item.qname,
                                            self.graph.item(c).qname,
                                            short(k),
                                            short(h)
                                        ),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        self.report_cycles(&edges, diags);
        self.report_order_violations(&edges, diags);
    }

    /// Cycle findings: interprocedural self-loops, then multi-class
    /// strongly connected components (one finding per component, anchored
    /// at its first witness edge).
    fn report_cycles(&self, edges: &BTreeSet<LockEdge>, diags: &mut Vec<Diagnostic>) {
        for e in edges {
            if e.from == e.to {
                diags.push(diag(
                    "L1",
                    &e.file,
                    e.line,
                    e.col,
                    format!(
                        "{} — the callee may re-acquire a lock the caller holds; \
                         `std::sync::Mutex` is not reentrant",
                        e.desc
                    ),
                ));
            }
        }
        let proper: Vec<&LockEdge> = edges.iter().filter(|e| e.from != e.to).collect();
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for e in &proper {
            adj.entry(&e.from).or_default().insert(&e.to);
        }
        let reach = |start: &str| -> BTreeSet<&str> {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            let mut stack: Vec<&str> = vec![start];
            while let Some(u) = stack.pop() {
                if let Some(next) = adj.get(u) {
                    for &v in next {
                        if seen.insert(v) {
                            stack.push(v);
                        }
                    }
                }
            }
            seen
        };
        let classes: BTreeSet<&str> = adj.keys().copied().collect();
        let mut reported: BTreeSet<BTreeSet<&str>> = BTreeSet::new();
        for &c in &classes {
            let fwd = reach(c);
            if !fwd.contains(c) {
                continue; // not on any cycle
            }
            // SCC of c: classes on a cycle through c.
            let scc: BTreeSet<&str> = fwd
                .iter()
                .copied()
                .filter(|&v| v == c || reach(v).contains(c))
                .collect();
            if !reported.insert(scc.clone()) {
                continue;
            }
            let mut witness: Vec<&LockEdge> = proper
                .iter()
                .copied()
                .filter(|e| scc.contains(e.from.as_str()) && scc.contains(e.to.as_str()))
                .collect();
            witness.sort();
            let Some(anchor) = witness.first() else {
                continue;
            };
            let chain = scc.iter().map(|c| short(c)).collect::<Vec<_>>().join(" ⇄ ");
            let detail = witness
                .iter()
                .take(6)
                .map(|e| format!("{} ({}:{})", e.desc, e.file, e.line))
                .collect::<Vec<_>>()
                .join("; ");
            diags.push(diag(
                "L1",
                &anchor.file,
                anchor.line,
                anchor.col,
                format!(
                    "lock-order cycle between {{{chain}}} — two threads taking these \
                     locks in opposite orders deadlock: {detail}"
                ),
            ));
        }
    }

    /// Declared-order findings: within a crate's `order_<crate>` list,
    /// locks may only be acquired left-to-right.
    fn report_order_violations(&self, edges: &BTreeSet<LockEdge>, diags: &mut Vec<Diagnostic>) {
        for e in edges {
            if e.from == e.to {
                continue;
            }
            let krate = crate_of(&e.file);
            let Some((_, order)) = self.cfg.l1_orders.iter().find(|(c, _)| c == krate) else {
                continue;
            };
            let from = short(&e.from);
            let to = short(&e.to);
            let (Some(pf), Some(pt)) = (
                order.iter().position(|c| c == from),
                order.iter().position(|c| c == to),
            ) else {
                continue;
            };
            if pf > pt {
                diags.push(diag(
                    "L1",
                    &e.file,
                    e.line,
                    e.col,
                    format!(
                        "{} — violates the declared `{krate}` lock order ({}); locks \
                         must be acquired left-to-right",
                        e.desc,
                        order.join(" → ")
                    ),
                ));
            }
        }
    }
}

/// Classifies one call site against the lock vocabulary.
fn classify_site(
    graph: &Graph,
    cfg: &Config,
    id: NodeId,
    si: usize,
    call: &CallSite,
    krate: &str,
) -> SiteKind {
    if call.is_macro {
        return SiteKind::Other;
    }
    let item = graph.item(id);
    let impl_type = item.impl_type.as_deref();
    if call.is_method {
        let classify_receiver = || class_of_chain(&call.receiver, impl_type);
        match call.name.as_str() {
            "lock" | "try_lock" => {
                if let Some(class) = classify_receiver() {
                    return SiteKind::Acquire {
                        class: format!("{krate}:{class}"),
                    };
                }
            }
            "wait" | "wait_while" | "wait_timeout" => {
                if let Some(cv) = classify_receiver() {
                    let assoc = condvar_assoc(cfg, &cv).map(|m| format!("{krate}:{m}"));
                    return SiteKind::Wait {
                        cv: format!("{krate}:{cv}"),
                        assoc,
                    };
                }
            }
            _ => {}
        }
        return SiteKind::Other;
    }
    if call.name == "drop" {
        if let [arg] = call.args.as_slice() {
            if let [name] = arg.as_slice() {
                return SiteKind::Drop { name: name.clone() };
            }
        }
        return SiteKind::Other;
    }
    // A call into a registered acquire helper takes the lock named by its
    // first argument.
    let is_acquire_fn = graph.edges[id].iter().any(|e| {
        e.site == si
            && matches!(e.callee, Callee::Node(c)
                if cfg.l1_acquire_fns.iter().any(|f| f == &graph.item(c).qname))
    });
    if is_acquire_fn {
        if let Some(arg) = call.args.first() {
            if let Some(class) = class_of_chain(arg, impl_type) {
                return SiteKind::Acquire {
                    class: format!("{krate}:{class}"),
                };
            }
        }
    }
    SiteKind::Other
}

/// True when block `anc` is `b` or an ancestor of `b` in the body's block
/// tree.
fn encloses(parents: &[u32], anc: u32, mut b: u32) -> bool {
    loop {
        if b == anc {
            return true;
        }
        let p = parents.get(b as usize).copied().unwrap_or(0);
        if p == b {
            return false;
        }
        b = p;
    }
}

/// S1, handler half: the reachable set of every registered signal handler
/// may only contain whitelisted calls.
fn rule_s1_handlers(graph: &Graph, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    let n = graph.nodes.len();
    let mut seeds: BTreeSet<NodeId> = BTreeSet::new();
    for h in &cfg.s1_handlers {
        for id in 0..n {
            let item = graph.item(id);
            if !item.in_test && (&item.qname == h || &item.name == h) {
                seeds.insert(id);
            }
        }
    }
    // Auto-detect: a plain identifier passed to a `signal(...)` call that
    // names a same-crate function is being registered as a handler.
    for id in 0..n {
        let item = graph.item(id);
        if item.in_test {
            continue;
        }
        for call in &item.calls {
            if call.is_macro || call.name != "signal" {
                continue;
            }
            for arg in &call.args {
                let [name] = arg.as_slice() else { continue };
                for hid in 0..n {
                    let cand = graph.item(hid);
                    if !cand.in_test
                        && &cand.name == name
                        && graph.nodes[hid].krate == graph.nodes[id].krate
                    {
                        seeds.insert(hid);
                    }
                }
            }
        }
    }
    if seeds.is_empty() {
        return;
    }
    let roots: Vec<NodeId> = seeds.iter().copied().collect();
    let pred = graph.reachable(&roots);
    for &id in pred.keys() {
        let item = graph.item(id);
        let node = &graph.nodes[id];
        let chain = graph.witness(&pred, id);
        for (si, call) in item.calls.iter().enumerate() {
            if call.is_macro {
                diags.push(diag(
                    "S1",
                    &node.file,
                    call.line,
                    call.col,
                    format!(
                        "macro `{}!` on the signal-handler path ({chain}); handlers may \
                         only touch atomics — macros can allocate, lock, or panic",
                        call.name
                    ),
                ));
                continue;
            }
            if cfg.s1_safe_calls.iter().any(|s| s == &call.name) {
                continue;
            }
            // Tuple-struct / enum-variant constructors are pure moves.
            if !call.is_method
                && call.segments.len() == 1
                && call.name.chars().next().is_some_and(char::is_uppercase)
            {
                continue;
            }
            let mut nodes = 0usize;
            let mut top = 0usize;
            for e in &graph.edges[id] {
                if e.site != si {
                    continue;
                }
                match e.callee {
                    Callee::Node(_) => nodes += 1,
                    Callee::Top => top += 1,
                }
            }
            if nodes > 0 && top == 0 {
                continue; // fully resolved; the callee bodies are checked too
            }
            let shape = if call.is_method {
                format!(".{}()", call.name)
            } else {
                call.segments.join("::")
            };
            diags.push(diag(
                "S1",
                &node.file,
                call.line,
                call.col,
                format!(
                    "call `{shape}` on the signal-handler path ({chain}) is not on the \
                     [rules.S1] safe_calls whitelist; a signal handler may only perform \
                     vetted atomic operations"
                ),
            ));
        }
    }
}

/// S1, registry half: every `unsafe {{ … }}` block in the workspace must
/// have a `path -- justification` entry, and entries must match reality.
/// `census` holds `(path, unsafe-block positions)` for each non-explicit
/// file in scope; fixture / explicit-file runs pass an empty census and
/// audit nothing.
fn audit_unsafe_census(
    census: &[(String, Vec<(u32, u32)>)],
    cfg: &Config,
    diags: &mut Vec<Diagnostic>,
) {
    if census.is_empty() {
        return; // fixture / explicit-file runs audit nothing
    }
    let mut registered: BTreeMap<&str, usize> = BTreeMap::new();
    for entry in &cfg.s1_unsafe_blocks {
        if let Some((path, _)) = entry.split_once(" -- ") {
            *registered.entry(path.trim()).or_insert(0) += 1;
        }
    }
    let mut audited: BTreeSet<&str> = BTreeSet::new();
    for (path, blocks) in census {
        audited.insert(path.as_str());
        let allowed = registered.get(path.as_str()).copied().unwrap_or(0);
        if blocks.len() > allowed {
            let (line, col) = blocks[allowed];
            diags.push(diag(
                "S1",
                path,
                line,
                col,
                format!(
                    "file contains {} `unsafe` block(s) but [rules.S1] unsafe_blocks \
                     registers {allowed} for this path; every `unsafe` block needs a \
                     `path -- justification` entry",
                    blocks.len()
                ),
            ));
        } else if blocks.len() < allowed {
            diags.push(diag(
                "S1",
                path,
                1,
                1,
                format!(
                    "[rules.S1] unsafe_blocks registers {allowed} entr(y/ies) for this \
                     path but the file contains {}; remove the stale registration",
                    blocks.len()
                ),
            ));
        }
    }
    for path in registered.keys() {
        if !audited.contains(path) {
            diags.push(diag(
                "S1",
                path,
                1,
                1,
                format!(
                    "[rules.S1] unsafe_blocks registers `{path}` but no such file is in \
                     the lint scope; remove the stale registration"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::repo_config;

    /// Runs the concurrency rules over synthetic non-explicit files with
    /// the `unsafe` registry cleared (the checked-in registry names the
    /// real daemon binary, which is absent from synthetic workspaces).
    fn run_cfg(files: &[(&str, &str)], cfg: &Config) -> Vec<Diagnostic> {
        let targets: Vec<FileTarget<'_>> = files
            .iter()
            .map(|(p, s)| FileTarget {
                path: p,
                src: s,
                explicit: false,
            })
            .collect();
        check_concurrency(&targets, cfg)
    }

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let mut cfg = repo_config();
        cfg.s1_unsafe_blocks.clear();
        run_cfg(files, &cfg)
    }

    #[test]
    fn l1_reports_a_cycle_between_two_functions() {
        let d = run(&[(
            "crates/core/src/x.rs",
            "fn ab(s: &S) { let a = s.alpha.lock().unwrap(); let b = s.beta.lock().unwrap(); }\n\
             fn ba(s: &S) { let b = s.beta.lock().unwrap(); let a = s.alpha.lock().unwrap(); }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "L1");
        assert!(
            d[0].message.contains("lock-order cycle"),
            "{}",
            d[0].message
        );
        assert!(d[0].message.contains("s::alpha"), "{}", d[0].message);
    }

    #[test]
    fn l1_cycle_through_a_callee_is_found() {
        let d = run(&[(
            "crates/core/src/x.rs",
            "fn outer(s: &S) { let a = s.alpha.lock().unwrap(); helper(s); }\n\
             fn helper(s: &S) { let b = s.beta.lock().unwrap(); }\n\
             fn other(s: &S) { let b = s.beta.lock().unwrap(); let a = s.alpha.lock().unwrap(); }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("lock-order cycle"),
            "{}",
            d[0].message
        );
        assert!(d[0].message.contains("helper"), "{}", d[0].message);
    }

    #[test]
    fn l1_drop_releases_the_guard() {
        let d = run(&[(
            "crates/core/src/x.rs",
            "fn ab(s: &S) { let a = s.alpha.lock().unwrap(); drop(a); \
             let b = s.beta.lock().unwrap(); }\n\
             fn ba(s: &S) { let b = s.beta.lock().unwrap(); let a = s.alpha.lock().unwrap(); }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn l1_drop_in_branch_keeps_sibling_code_held() {
        // The drop in the if-block must not release the guard for code
        // after the block — mirrors `Daemon::admit`.
        let d = run(&[(
            "crates/core/src/x.rs",
            "fn f(s: &S) {\n\
             let a = s.alpha.lock().unwrap();\n\
             if cond() { drop(a); return; }\n\
             let b = s.beta.lock().unwrap();\n\
             }\n\
             fn g(s: &S) { let b = s.beta.lock().unwrap(); let a = s.alpha.lock().unwrap(); }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("lock-order cycle"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn l1_self_reacquire_is_reported_directly() {
        let d = run(&[(
            "crates/core/src/x.rs",
            "fn f(s: &S) { let a = s.alpha.lock().unwrap(); let b = s.alpha.lock().unwrap(); }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "L1");
        assert!(d[0].message.contains("re-acquires"), "{}", d[0].message);
    }

    #[test]
    fn l1_declared_order_is_enforced_without_a_cycle() {
        let mut cfg = repo_config();
        cfg.s1_unsafe_blocks.clear();
        cfg.l1_orders = vec![("core".into(), vec!["s::alpha".into(), "s::beta".into()])];
        let d = run_cfg(
            &[(
                "crates/core/src/x.rs",
                "fn f(s: &S) { let b = s.beta.lock().unwrap(); \
                 let a = s.alpha.lock().unwrap(); }\n",
            )],
            &cfg,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "L1");
        assert!(
            d[0].message.contains("declared `core` lock order"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn l2_blocking_call_under_a_lock() {
        let d = run(&[(
            "crates/core/src/x.rs",
            "fn f(s: &S) { let g = s.alpha.lock().unwrap(); \
             std::thread::sleep(std::time::Duration::from_secs(1)); }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "L2");
        assert!(d[0].message.contains("sleep"), "{}", d[0].message);
    }

    #[test]
    fn l2_indirect_blocking_through_a_callee() {
        let d = run(&[(
            "crates/core/src/x.rs",
            "fn f(s: &S) { let g = s.alpha.lock().unwrap(); slow(); }\n\
             fn slow() { std::thread::sleep(std::time::Duration::from_secs(1)); }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "L2");
        assert!(d[0].message.contains("slow"), "{}", d[0].message);
    }

    #[test]
    fn l2_condvar_wait_on_own_mutex_is_clean() {
        let d = run(&[(
            "crates/core/src/x.rs",
            "struct JobQueue;\n\
             impl JobQueue {\n\
             fn pop(&self) { let mut g = self.inner.lock().unwrap(); \
             g = self.ready.wait(g).unwrap(); }\n\
             }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn l2_condvar_wait_holding_a_second_lock_fires() {
        let d = run(&[(
            "crates/core/src/x.rs",
            "struct JobQueue;\n\
             impl JobQueue {\n\
             fn pop(&self, s: &S) { let o = s.other.lock().unwrap(); \
             let mut g = self.inner.lock().unwrap(); \
             g = self.ready.wait(g).unwrap(); }\n\
             }\n",
        )]);
        assert!(
            d.iter()
                .any(|d| d.rule == "L2" && d.message.contains("jobqueue::ready")),
            "{d:?}"
        );
    }

    #[test]
    fn l1_acquire_fn_names_the_class_of_its_argument() {
        let mut cfg = repo_config();
        cfg.s1_unsafe_blocks.clear();
        cfg.l1_acquire_fns = vec!["x::bridge".into()];
        let d = run_cfg(
            &[(
                "crates/core/src/x.rs",
                "fn bridge(m: &M) -> G { m.lock().unwrap_or_else(|e| e.into_inner()) }\n\
                 fn ab(s: &S) { let a = bridge(&s.alpha); let b = bridge(&s.beta); }\n\
                 fn ba(s: &S) { let b = bridge(&s.beta); let a = bridge(&s.alpha); }\n",
            )],
            &cfg,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("lock-order cycle"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn s1_handler_reaching_unvetted_calls_fires() {
        let d = run(&[(
            "crates/serviced/src/bin/sfqpartd.rs",
            "fn install() { unsafe { signal(15, on_sig); } }\n\
             extern \"C\" fn on_sig(_s: i32) { FLAG.store(true, Ordering::SeqCst); \
             mystery(); }\n",
        )]);
        // `mystery()` is unresolved (⊤) on the handler path; the `unsafe`
        // block itself is unregistered because the test registry is empty.
        assert!(
            d.iter()
                .any(|x| x.rule == "S1" && x.message.contains("mystery")),
            "{d:?}"
        );
        assert!(
            d.iter()
                .any(|x| x.rule == "S1" && x.message.contains("unsafe_blocks")),
            "{d:?}"
        );
    }

    #[test]
    fn s1_store_only_handler_is_clean() {
        let cfg = Config {
            s1_unsafe_blocks: vec![
                "crates/serviced/src/bin/sfqpartd.rs -- signal registration".into()
            ],
            ..repo_config()
        };
        let d = run_cfg(
            &[(
                "crates/serviced/src/bin/sfqpartd.rs",
                "fn install() { unsafe { signal(15, on_sig); } }\n\
                 extern \"C\" fn on_sig(_s: i32) { FLAG.store(true, Ordering::SeqCst); }\n",
            )],
            &cfg,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn s1_macro_on_handler_path_fires() {
        let d = run(&[(
            "crates/serviced/src/bin/sfqpartd.rs",
            "fn install() { signal(15, on_sig); }\n\
             extern \"C\" fn on_sig(_s: i32) { helper(); }\n\
             fn helper() { println!(\"caught\"); }\n",
        )]);
        assert!(
            d.iter()
                .any(|x| x.rule == "S1" && x.message.contains("println")),
            "{d:?}"
        );
    }

    #[test]
    fn s1_stale_registry_entry_fires() {
        let cfg = Config {
            s1_unsafe_blocks: vec!["crates/core/src/gone.rs -- no longer".into()],
            ..repo_config()
        };
        let d = run_cfg(&[("crates/core/src/x.rs", "fn f() {}")], &cfg);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("stale"), "{}", d[0].message);
    }

    #[test]
    fn unsafe_blocks_beyond_the_registry_fire() {
        let cfg = Config {
            s1_unsafe_blocks: vec!["crates/core/src/x.rs -- first block".into()],
            ..repo_config()
        };
        let d = run_cfg(
            &[(
                "crates/core/src/x.rs",
                "fn f() { unsafe { a(); } }\nfn g() { unsafe { b(); } }\n",
            )],
            &cfg,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("registers 1"), "{}", d[0].message);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn statement_scoped_guard_holds_for_its_statement_only() {
        // The temporary guard of an unbound `.lock()` lives to the end of
        // its statement: a blocking call in the *next* statement is clean.
        let d = run(&[(
            "crates/core/src/x.rs",
            "fn f(s: &S) { s.alpha.lock().unwrap().touch(); \
             std::thread::sleep(std::time::Duration::from_secs(1)); }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }
}

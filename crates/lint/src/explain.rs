//! `sfqlint --explain <RULE>` — one paragraph per rule, mirroring the
//! "Static invariants" sections of `DESIGN.md`.
//!
//! The CLI prints these on demand, and the `github` output format emits a
//! `::notice` pointing at `--explain` for every rule that fired, so a CI
//! annotation is one command away from its rationale.

/// Returns the explanation paragraph for `rule`, or `None` for an unknown
/// rule id.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "A1" => {
            "A1 — hot-path allocation freedom. Every function reachable through the \
             workspace call graph from a `[rules.A1] roots` entry (the engine's \
             evaluate and descent kernels, refine's move pricing, the service's ops \
             counters) must not allocate: a growing method \
             call (`push`, `collect`, `clone`, `to_string`, …), `format!`/`vec!`, or a \
             constructor such as `Box::new`/`Vec::with_capacity` is a finding with its \
             root→…→site chain. Allocation inside the loop destroys the SoA kernels' \
             cache behavior and puts allocator latency into every iteration; buffers \
             are sized once at setup and reused. The call graph is \
             resolved conservatively: a call sfqlint cannot resolve (⊤) on the hot \
             path is itself a finding unless it is on the known-no-allocation list. \
             The runtime cross-check is `crates/core/tests/alloc_sanitizer.rs`."
        }
        "D4" => {
            "D4 — canonical float folds. Raw f64 iterator reductions (`.sum::<f64>()`, \
             `.product::<f64>()`, `.fold(0.0, …)`) and `acc +=` loops over an \
             accumulator bound to a float literal, in library code of the \
             `[rules.D4] crates`, are findings outside `[rules.D4] allowed_files` — \
             the modules that define the canonical striped fold order (`core::lanes`, \
             `core::float`, the kernels and the engine). An ad-hoc left-to-right \
             reduction evaluates in a different association order than the striped \
             lane fold the engine uses, silently breaking the \
             serial == parallel bit-identity guarantee. Route reductions through \
             `core::lanes::{sum, sum_with, max_abs, fold}`. Order-insensitive \
             `max`/`min` folds are exempt."
        }
        "I1" => {
            "I1 — I/O confinement. Library code of the `[rules.I1] crates` may not \
             print or touch `std::io`/`std::fs` outside `[rules.I1] sink_files` (the \
             telemetry writer, the daemon's transport and its ops log): `println!`, \
             `eprintln!`, `dbg!` and friends, `stdout()`/`stderr()`/`stdin()`, \
             `Read`/`Write` methods such as `write_all`/`flush`/`read_line`, and \
             `io::`/`fs::`/`File::` paths are findings; test code is exempt. A stray \
             `println!` in a numeric crate is at best a performance bug and at worst \
             interleaved garbage when restarts run in parallel; all \
             reporting goes through the observer interfaces and the sinks."
        }
        "L1" => {
            "L1 — lock-order acyclicity. sfqlint builds a per-crate lock-acquisition \
             graph: every `.lock()`/`.wait()` site is labeled with a syntactic lock \
             class (e.g. `jobqueue::inner`), held-lock sets are propagated through the \
             call graph, and an edge A → B is recorded whenever a thread can hold A \
             while acquiring B. Any cycle in that relation is a potential deadlock and \
             fails the build with the witness chain. Crates may declare a canonical \
             order (`[rules.L1] order_<crate>`); acquiring against the declared order \
             is a finding even before the reverse edge exists. Re-acquiring a held \
             class is reported immediately — `std::sync::Mutex` is not reentrant. The \
             runtime lock witness (`core::witness`, `--features lock_witness`) checks \
             the same invariant dynamically under the chaos suite."
        }
        "L2" => {
            "L2 — never block while holding a lock. With any lock held, a call chain \
             must not reach a `[rules.L2] blocking_fns` entry (`Solver::solve` and \
             friends are seconds-long, queue pops park), a `blocking_calls` name \
             (socket or pipe I/O, `join`, `sleep`), or a `Condvar::wait` on a \
             different lock's condvar. Blocking under a lock turns every other \
             thread that needs the lock into a convoy and can deadlock outright when \
             the blocked-on resource needs the same lock. A condvar wait holding only \
             its own mutex is the one sanctioned blocking point. Exceptions are \
             declared per call site in `lint.toml` with a reason, e.g. the connection \
             writer's short frame-integrity critical section."
        }
        "N1" => {
            "N1 — non-finite confinement. Operations that can introduce NaN or Inf \
             from finite inputs — division by a non-literal divisor, `0.0/0.0`-shaped \
             literals, the `NAN`/`INFINITY` constants, and `ln`/`sqrt`/`powf`/`exp` \
             calls — may only occur in functions reachable from the declared \
             divergence-recovery scope (`[rules.N1] recovery_roots`: the solver entry \
             points whose rollback machinery detects divergence and restores the last \
             good partition) or inside the checked-math helper files. Everywhere else \
             a NaN propagates silently through comparisons and folds until a partition \
             is corrupt with no witness; route such math through the `core::float` \
             checked helpers (`frac`, `checked_div`, `checked_ln`, `checked_sqrt`), \
             which make the non-finite case an explicit branch."
        }
        "P2" => {
            "P2 — panic-freedom of the vetted roots. From every root declared in \
             `[rules.P2] roots` (the fused descent kernels and the serviced worker's \
             settle path), sfqlint walks the resolved call graph and flags every \
             reachable construct that can unwind: unchecked indexing `[i]`, slice \
             patterns, division/remainder by a non-literal divisor, `assert!`/`panic!`/\
             `unreachable!` macros (`debug_assert!` is exempt — it compiles out of \
             release), `.unwrap()`/`.expect()`, and calls the graph cannot resolve \
             (⊤, unless vetted: allocation aborts rather than unwinds, `std::io` \
             methods return `io::Result`). A panic inside a descent kernel poisons the \
             daemon's job and, inside the settle path, can strand its job table; the \
             panic fence is a backstop, not a license. Every finding carries a \
             root→…→site witness chain, every allow entry requires a written \
             invariant, and the static rule is cross-checked at runtime by the \
             panic-census harness (`crates/core/tests/panic_census.rs`), which runs \
             proptest-generated problems through the solver under `catch_unwind` and \
             requires zero panics."
        }
        "S1" => {
            "S1 — async-signal-safety and the unsafe registry. A registered signal \
             handler (auto-detected from `signal(...)` registration sites plus \
             `[rules.S1] handlers`) may only reach `safe_calls` (lock-free atomic \
             ops such as `store`/`load`) and workspace functions whose bodies obey the \
             same limit. Any macro on the handler path (`format!`, `println!`) is a \
             finding, and so is a call sfqlint cannot resolve: in a handler, \
             allocation, locking, and formatting are undefined behavior territory \
             because the interrupted thread may hold the very lock involved. \
             Separately, every `unsafe { … }` block in the workspace must carry a \
             `path -- justification` entry in `[rules.S1] unsafe_blocks`; unregistered \
             blocks and stale registrations both fail. Today the workspace has exactly \
             one: the daemon's hand-declared `signal(2)` registration. Its `// SAFETY:` \
             comment is clippy's `undocumented_unsafe_blocks`, which CI denies."
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::explain;
    use crate::config::RULE_IDS;

    /// The construct each rule's positive fixture
    /// (`tests/fixtures/<id>_pos.rs`) fires on.
    const FIXTURE_CONSTRUCTS: [(&str, &str); 8] = [
        ("A1", "push"),
        ("D4", ".sum::<f64>()"),
        ("I1", "println!"),
        ("L1", ".lock()"),
        ("L2", "sleep"),
        ("N1", "division by a non-literal divisor"),
        ("P2", "assert!"),
        ("S1", "format!"),
    ];

    /// Each paragraph must describe what its rule checks: it names the
    /// construct the rule's positive fixture fires on.
    #[test]
    fn every_rule_id_has_an_explanation() {
        assert_eq!(FIXTURE_CONSTRUCTS.map(|(id, _)| id), RULE_IDS);
        for (id, construct) in FIXTURE_CONSTRUCTS {
            let text = explain(id).unwrap_or_else(|| panic!("no --explain text for {id}"));
            assert!(text.len() > 80, "explanation for {id} is too thin");
            assert!(
                text.starts_with(id),
                "explanation for {id} must lead with the id"
            );
            assert!(
                text.contains(construct),
                "explanation for {id} must name `{construct}`, which its fixture fires on"
            );
        }
    }

    #[test]
    fn unknown_rule_is_none() {
        assert!(explain("Z9").is_none());
        assert!(explain("").is_none());
    }
}

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
            "A1 — hot-path allocation freedom. Functions reachable from the solver's \
             inner loops (`Solver::solve`, plane kernels, residual updates) must not \
             allocate: no `Vec::new`/`push`/`collect`/`format!` or other growing calls \
             on the hot path. Allocation inside the loop destroys the SoA kernels' \
             cache behavior and introduces latency spikes the chunk scheduler cannot \
             absorb. Buffers are sized once at partition setup and reused. The call \
             graph is resolved conservatively: an unresolvable call (⊤) inside a \
             hot-path function is itself a finding."
        }
        "D1" => {
            "D1 — deterministic containers. Numeric crates must not iterate \
             `HashMap`/`HashSet`: their iteration order depends on `RandomState` \
             hashing, so any fold over them can reorder floating-point reductions and \
             break the bit-identical-partitions guarantee (serial == parallel). Use \
             `BTreeMap`/`BTreeSet` or index-keyed `Vec`s, which iterate in a fixed \
             order."
        }
        "D2" => {
            "D2 — no wall-clock reads outside the budget module. `Instant::now` and \
             `SystemTime::now` are only meaningful to the time-budget subsystem; a \
             clock read anywhere else either smuggles nondeterminism into numeric \
             code or duplicates budget logic that must stay centralized to keep \
             interruption points auditable."
        }
        "D3" => {
            "D3 — thread creation is confined to the fused engine and the service \
             layer's registered spawn points. An ad-hoc `thread::spawn` elsewhere \
             escapes the chunk pool's worker accounting, the panic fence, and the \
             deterministic reduction tree. The allowlist in `lint.toml` names every \
             sanctioned spawn site with a reason."
        }
        "D4" => {
            "D4 — canonical float folds. Raw f64 iterator reductions (`.sum::<f64>()`, \
             `.fold(0.0, …)`, sequential `acc +=` loops over float data) in the numeric \
             crates are findings outside the modules that define the canonical striped \
             fold order (`core::lanes`, `core::float`, the kernels): an ad-hoc \
             left-to-right reduction evaluates in a different association order than \
             the striped lane fold the parallel backends use, silently breaking the \
             serial == parallel bit-identity guarantee. Route reductions through \
             `core::lanes::{sum, sum_with, max_abs, fold}`. Order-insensitive \
             `max`/`min` folds are exempt."
        }
        "F1" => {
            "F1 — float-environment hygiene. Numeric crates must not call \
             `to_bits`/`from_bits` tricks, `fast-math`-style intrinsics, or \
             rounding-mode manipulation outside the vetted kernels; the reproduction's \
             cross-backend equality proof assumes strict IEEE-754 evaluation \
             everywhere else."
        }
        "I1" => {
            "I1 — I/O confinement. Only telemetry sinks and the CLI/daemon frontends \
             may perform I/O (`println!`, file writes, sockets). A stray `println!` in \
             a numeric crate is at best a performance bug and at worst interleaved \
             garbage when the fused engine runs its workers; all reporting goes \
             through the observer interfaces."
        }
        "L1" => {
            "L1 — lock-order acyclicity. sfqlint builds a per-crate lock-acquisition \
             graph: every `.lock()`/`.wait()` site is labeled with a syntactic lock \
             class (e.g. `shared::job`), held-lock sets are propagated through the \
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
             must not reach a solver entry point (`Solver::solve` and friends are \
             seconds-long), socket or pipe I/O, `JoinHandle::join`, `thread::sleep`, \
             or a `Condvar::wait` on a different lock's condvar. Blocking under a lock \
             turns every other thread that needs the lock into a convoy and can \
             deadlock outright when the blocked-on resource needs the same lock. A \
             condvar wait holding only its own mutex is the one sanctioned blocking \
             point. Exceptions are declared per call site in `lint.toml` with a \
             reason, e.g. the connection writer's short frame-integrity critical \
             section."
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
        "O1" => {
            "O1 — observer purity. Progress/telemetry observers are called from inside \
             the solve loop; their implementations must not mutate solver state, \
             allocate unboundedly, or perform I/O beyond their declared sink. An \
             impure observer invalidates the observer-on == observer-off exactness \
             tests."
        }
        "P1" => {
            "P1 — panic discipline. Library crates must not `panic!`/`unwrap`/`expect` \
             on fallible paths; errors cross crate boundaries as `Result`. The chunk \
             pool's workers run under a panic fence that converts worker panics into \
             poisoned-job errors, and that fence is only sound if panics are \
             exceptional, not control flow."
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
             methods return `io::Result`). A panic inside a chunk worker poisons the \
             job and, inside the settle path, can strand the daemon's job table; the \
             panic fence is a backstop, not a license. Every finding carries a \
             root→…→site witness chain, every allow entry requires a written \
             invariant, and the static rule is cross-checked at runtime by the \
             panic-census harness (`crates/core/tests/panic_census.rs`), which runs \
             proptest-generated problems through serial and intra-parallel \
             evaluation under `catch_unwind` and requires zero panics."
        }
        "S1" => {
            "S1 — async-signal-safety and the unsafe registry. A registered signal \
             handler (auto-detected from `signal(...)` registration sites plus \
             `[rules.S1] handlers`) may only reach vetted atomic operations \
             (`store`/`load`/… on the safe_calls whitelist): in a handler, \
             allocation, locking, and formatting are undefined behavior territory \
             because the interrupted thread may hold the very lock involved. \
             Separately, every `unsafe { … }` block in the workspace must carry a \
             `path -- justification` entry in `[rules.S1] unsafe_blocks`; unregistered \
             blocks and stale registrations both fail. Today the workspace has exactly \
             one: the daemon's hand-declared `signal(2)` registration."
        }
        "U1" => {
            "U1 — unit/marker hygiene for partition indices. Gate, node, and plane \
             indices are distinct integer domains; raw `usize` arithmetic that mixes \
             them compiles fine and corrupts partitions silently. Index newtypes must \
             be constructed and unwrapped only at the declared boundaries."
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::explain;
    use crate::config::RULE_IDS;

    #[test]
    fn every_rule_id_has_an_explanation() {
        for id in RULE_IDS {
            let text = explain(id).unwrap_or_else(|| panic!("no --explain text for {id}"));
            assert!(text.len() > 80, "explanation for {id} is too thin");
            assert!(
                text.starts_with(id),
                "explanation for {id} must lead with the id"
            );
        }
    }

    #[test]
    fn unknown_rule_is_none() {
        assert!(explain("Z9").is_none());
        assert!(explain("").is_none());
    }
}

//! Property tests for the JSONL trace schema (v2).
//!
//! Every [`TraceEvent`] must survive `to_jsonl` → `parse` bit-for-bit:
//! integers exactly, finite floats via shortest-round-trip formatting.
//! Random bit patterns (normalized to finite) exercise denormals, extreme
//! exponents, and negative zero — the cases where a lossy float formatter
//! would silently corrupt a trace. A v1 trace still parses.

use proptest::prelude::*;
use sfq_partition::telemetry::TraceEvent;
use sfq_partition::StopReason;

/// A finite f64 drawn from the full bit-pattern space: NaN/∞ draws are
/// folded to large finite sentinels so round-trip equality is well-defined
/// (non-finite → `null` → NaN is pinned by the unit tests in `telemetry`).
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else if bits & (1 << 63) != 0 {
        f64::MIN
    } else {
        f64::MAX
    }
}

fn stop_reason(pick: u8) -> StopReason {
    match pick % 5 {
        0 => StopReason::Margin,
        1 => StopReason::MaxIterations,
        2 => StopReason::StepVanished,
        3 => StopReason::NonFinite,
        _ => StopReason::BudgetExhausted,
    }
}

fn assert_round_trips(event: &TraceEvent) {
    let line = event.to_jsonl();
    assert!(
        !line.contains('\n'),
        "a record must be exactly one line: {line:?}"
    );
    let parsed = TraceEvent::parse(&line);
    assert_eq!(parsed.as_ref(), Ok(event), "line: {line}");
}

/// `sfqpart partition KSA8 -k 5 --trace` wrote this first record under
/// schema v1, whose `solve_start` also carried the constants `fused` and
/// `intra_parallel`.
const V1_SOLVE_START: &str = "{\"v\":1,\"ev\":\"solve_start\",\"gates\":193,\"planes\":5,\
     \"edges\":244,\"restarts\":4,\"max_iterations\":2000,\"fused\":true,\"parallel\":true,\
     \"intra_parallel\":false}";

#[test]
fn v1_solve_start_still_parses() {
    let event = TraceEvent::parse(V1_SOLVE_START).expect("a v1 record parses");
    assert_eq!(
        event,
        TraceEvent::SolveStart {
            gates: 193,
            planes: 5,
            edges: 244,
            restarts: 4,
            max_iterations: 2000,
            parallel: true,
        }
    );
    // Rewriting it as v2 drops exactly the two extra fields.
    assert_eq!(
        event.to_jsonl(),
        V1_SOLVE_START
            .replacen("\"v\":1", "\"v\":2", 1)
            .replace(",\"fused\":true", "")
            .replace(",\"intra_parallel\":false", "")
    );
    let v3 = V1_SOLVE_START.replacen("\"v\":1", "\"v\":3", 1);
    let err = TraceEvent::parse(&v3).expect_err("v3 is from the future");
    assert!(err.detail().contains("version 3"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solve_start_round_trips(
        gates in any::<u64>(),
        planes in any::<u64>(),
        edges in any::<u64>(),
        restarts in any::<u64>(),
        max_iterations in any::<u64>(),
        parallel in any::<bool>(),
    ) {
        assert_round_trips(&TraceEvent::SolveStart {
            gates, planes, edges, restarts, max_iterations, parallel,
        });
    }

    #[test]
    fn iteration_round_trips(
        restart in any::<u64>(),
        iteration in any::<u64>(),
        bits in proptest::collection::vec(any::<u64>(), 7..8),
        clipped in any::<u64>(),
        recovered in any::<bool>(),
    ) {
        assert_round_trips(&TraceEvent::Iteration {
            restart,
            iteration,
            f1: finite(bits[0]),
            f2: finite(bits[1]),
            f3: finite(bits[2]),
            f4: finite(bits[3]),
            total: finite(bits[4]),
            learning_rate: finite(bits[5]),
            grad_norm: finite(bits[6]),
            clipped,
            recovered,
        });
    }

    #[test]
    fn recovery_and_refine_round_trip(
        restart in any::<u64>(),
        iteration in any::<u64>(),
        attempt in any::<u64>(),
        bits in proptest::collection::vec(any::<u64>(), 3..4),
        moves in any::<u64>(),
    ) {
        assert_round_trips(&TraceEvent::Recovery {
            restart,
            iteration,
            attempt,
            learning_rate: finite(bits[0]),
        });
        assert_round_trips(&TraceEvent::Refine {
            restart,
            moves,
            cost_before: finite(bits[1]),
            cost_after: finite(bits[2]),
        });
    }

    #[test]
    fn restart_lifecycle_round_trips(
        restart in any::<u64>(),
        iterations in any::<u64>(),
        pick in any::<u8>(),
        cost_bits in any::<u64>(),
    ) {
        assert_round_trips(&TraceEvent::RestartStart { restart });
        assert_round_trips(&TraceEvent::RestartEnd {
            restart,
            iterations,
            stop: stop_reason(pick),
            discrete_cost: finite(cost_bits),
        });
    }

    #[test]
    fn multilevel_and_solve_end_round_trip(
        level in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        d in any::<u64>(),
        pick in any::<u8>(),
        cost_bits in any::<u64>(),
    ) {
        assert_round_trips(&TraceEvent::Coarsen {
            level,
            fine_gates: a,
            fine_edges: b,
            coarse_gates: c,
            coarse_edges: d,
        });
        assert_round_trips(&TraceEvent::Uncoarsen {
            level,
            gates: a,
            refine_moves: b,
        });
        assert_round_trips(&TraceEvent::SolveEnd {
            best_restart: a,
            iterations: b,
            stop: stop_reason(pick),
            discrete_cost: finite(cost_bits),
            diverged_restarts: c,
        });
    }

    #[test]
    fn mutated_lines_never_panic_the_parser(
        restart in any::<u64>(),
        iterations in any::<u64>(),
        pick in any::<u8>(),
        cost_bits in any::<u64>(),
        cut in 0usize..200,
        junk in any::<u8>(),
    ) {
        // Truncating or byte-flipping a valid record must yield Err (or, for
        // byte flips inside a string/number, possibly Ok) — never a panic.
        let line = TraceEvent::RestartEnd {
            restart,
            iterations,
            stop: stop_reason(pick),
            discrete_cost: finite(cost_bits),
        }
        .to_jsonl();
        let cut = cut % line.len();
        if cut > 0 {
            let truncated = &line[..cut];
            if let Ok(event) = TraceEvent::parse(truncated) {
                // Only a prefix that happens to be a complete record may parse.
                prop_assert_eq!(event.to_jsonl().len(), truncated.len());
            }
        }
        let mut bytes = line.clone().into_bytes();
        let pos = (junk as usize) % bytes.len();
        bytes[pos] = bytes[pos].wrapping_add(1 + (junk >> 4));
        if let Ok(mutated) = String::from_utf8(bytes) {
            let _ = TraceEvent::parse(&mutated);
        }
    }
}

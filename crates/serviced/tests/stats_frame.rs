//! Property and tolerance tests for the `stats` wire frame.
//!
//! The frame is the one observability surface every consumer shares —
//! `sfqpartd stats` and `drive`, the `--ops-log` JSONL sink, sfqbench's
//! `service_mixed` ledger cross-check — so its serialization contract is
//! pinned three ways:
//!
//! 1. **Round-trip**: any snapshot survives `to_line` → `parse_response`
//!    field-for-field, histograms included (property test over random
//!    counters and bucket shapes).
//! 2. **Unknown-field tolerance**: the schema is append-only, so a reader
//!    must skip fields it does not know — including nested objects and
//!    arrays a future daemon might emit.
//! 3. **Missing-field tolerance**: a frame from an *older* daemon (the
//!    original eleven counters only) parses with the new fields defaulted
//!    to zero / empty, never an error.

use proptest::prelude::*;
use sfq_partition::telemetry::LogHistogram;
use sfq_serviced::protocol::{parse_response, Response};
use sfq_serviced::StatsSnapshot;

fn assert_round_trips(snapshot: &StatsSnapshot) {
    let line = Response::Stats(Box::new(snapshot.clone())).to_line();
    assert!(
        !line.contains('\n'),
        "a frame must be exactly one line: {line:?}"
    );
    match parse_response(&line) {
        Ok(Response::Stats(parsed)) => assert_eq!(&*parsed, snapshot, "line: {line}"),
        other => panic!("expected a stats frame back, got {other:?} from {line}"),
    }
}

/// A histogram with samples spread across the full bucket range,
/// including the extremes (0 → bucket 0, `u64::MAX` → bucket 64).
fn histogram_from(samples: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stats_frames_round_trip(
        counters in proptest::collection::vec(any::<u64>(), 20..21),
        samples in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let snapshot = StatsSnapshot {
            submitted: counters[0],
            queued: counters[1],
            running: counters[2],
            done: counters[3],
            cache_hits: counters[4],
            cancelled: counters[5],
            deadline_exceeded: counters[6],
            rejected: counters[7],
            failed: counters[8],
            retries: counters[9],
            panics: counters[10],
            cache_misses: counters[11],
            queue_depth_hw: counters[12],
            running_hw: counters[13],
            slots_in_use: counters[14],
            slots_hw: counters[15],
            uptime_ns: counters[16],
            lock_reacquires: counters[17],
            lock_inversions: counters[18],
            lock_wait_holds: counters[19],
            queue_wait_ns: histogram_from(&samples),
            solve_ns: histogram_from(&samples[..samples.len() / 2]),
            total_ns: LogHistogram::new(),
        };
        assert_round_trips(&snapshot);
    }
}

#[test]
fn extreme_bucket_values_round_trip() {
    // Counters at the u64 ceiling; histogram samples at the full u64
    // extremes, which land in bucket indices 0 and 64.
    let snapshot = StatsSnapshot {
        submitted: u64::MAX,
        uptime_ns: u64::MAX,
        total_ns: histogram_from(&[0, 1, u64::MAX, u64::MAX - 1, 1 << 63]),
        ..StatsSnapshot::default()
    };
    assert_round_trips(&snapshot);
}

#[test]
fn unknown_fields_are_skipped() {
    let snapshot = StatsSnapshot {
        submitted: 7,
        done: 5,
        cancelled: 1,
        deadline_exceeded: 1,
        cache_misses: 3,
        total_ns: histogram_from(&[10, 2_000, 300_000]),
        ..StatsSnapshot::default()
    };
    let line = Response::Stats(Box::new(snapshot.clone())).to_line();
    // Splice future fields in right after the "ev" key: a scalar, a
    // nested object, and an array — everything a v2 daemon might append.
    let extended = line.replacen(
        "\"ev\":\"stats\",",
        "\"ev\":\"stats\",\"schema\":2,\"shards\":[1,2,3],\
         \"experimental\":{\"queue_wait_p999_ns\":12345,\"note\":\"ignore me\"},",
        1,
    );
    assert_ne!(extended, line, "the splice must have landed");
    match parse_response(&extended) {
        Ok(Response::Stats(parsed)) => assert_eq!(*parsed, snapshot),
        other => panic!("unknown fields must not break parsing: {other:?}"),
    }
}

#[test]
fn histogram_derived_fields_are_not_authoritative() {
    // The writer emits count/p50/p95/p99 alongside buckets as derived
    // conveniences. A reader must rebuild from `buckets` alone — so a
    // frame whose derived fields lie still parses to what the buckets say.
    let snapshot = StatsSnapshot {
        solve_ns: histogram_from(&[100, 100, 100]),
        ..StatsSnapshot::default()
    };
    let line = Response::Stats(Box::new(snapshot.clone())).to_line();
    let tampered = line.replacen("\"count\":3", "\"count\":999", 1);
    assert_ne!(tampered, line);
    match parse_response(&tampered) {
        Ok(Response::Stats(parsed)) => {
            assert_eq!(parsed.solve_ns.count(), 3, "buckets are authoritative");
            assert_eq!(*parsed, snapshot);
        }
        other => panic!("expected a stats frame, got {other:?}"),
    }
}

#[test]
fn old_daemon_frames_parse_with_defaults() {
    // The original frame shape: the eleven v1 counters and nothing else.
    let old = "{\"ev\":\"stats\",\"submitted\":4,\"queued\":0,\"running\":1,\
               \"done\":2,\"cache_hits\":1,\"cancelled\":1,\"deadline_exceeded\":0,\
               \"rejected\":0,\"failed\":0,\"retries\":0,\"panics\":0}";
    match parse_response(old) {
        Ok(Response::Stats(parsed)) => {
            assert_eq!(parsed.submitted, 4);
            assert_eq!(parsed.done, 2);
            assert_eq!(parsed.running, 1);
            assert_eq!(parsed.cache_misses, 0, "absent fields default");
            assert_eq!(parsed.uptime_ns, 0);
            assert_eq!(
                parsed.queue_wait_ns.count(),
                0,
                "absent histograms are empty"
            );
            assert_eq!(parsed.total_ns, LogHistogram::new());
        }
        other => panic!("an old frame must still parse: {other:?}"),
    }
}

#[test]
fn ledger_helpers_agree_with_the_report_crate() {
    let balanced = StatsSnapshot {
        submitted: 10,
        done: 6,
        cancelled: 2,
        deadline_exceeded: 1,
        failed: 1,
        rejected: 3, // never admitted; excluded from the ledger
        ..StatsSnapshot::default()
    };
    assert_eq!(balanced.settled(), 10);
    assert_eq!(balanced.accounting_violation(), None);
    let cooked = StatsSnapshot {
        submitted: 10,
        done: 6,
        ..StatsSnapshot::default()
    };
    let violation = cooked
        .accounting_violation()
        .expect("books must not balance");
    assert!(violation.contains("submitted=10"), "{violation}");
}

#[test]
fn malformed_histogram_degrades_to_empty_not_error() {
    // A histogram whose buckets are garbage (strings, not pairs) must not
    // reject the whole frame — counters still matter to a reader.
    let line = "{\"ev\":\"stats\",\"submitted\":1,\
                \"solve_ns\":{\"buckets\":\"oops\"}}";
    match parse_response(line) {
        Ok(Response::Stats(parsed)) => {
            assert_eq!(parsed.submitted, 1);
            assert_eq!(parsed.solve_ns.count(), 0);
        }
        other => panic!("expected a stats frame, got {other:?}"),
    }
}

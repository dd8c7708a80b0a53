//! The estimators, the bound check and the `compare` gate.

use sfqbench::catalog::RunResult;
use sfqbench::compare::{compare, verdict, win_fraction, Bound, Verdict};
use sfqbench::stats::{median, percentile, quartiles, regressed, relative_iqr, Better, MIN_BEYOND};

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[1.0, f64::NAN]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from Python's `statistics.quantiles(v, n=4)`.
    let cases: [(&[f64], [f64; 3]); 4] = [
        (&[1.0, 2.0], [0.75, 1.5, 2.25]),
        (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.75, 5.5, 8.25],
        ),
        (&[5.0, 1.5, 9.25, 2.0, 7.5], [1.75, 5.0, 8.375]),
    ];
    for (values, expected) in cases {
        let got = quartiles(values).unwrap();
        for (g, e) in got.iter().zip(expected) {
            assert!((g - e).abs() < 1e-12, "{values:?}: {got:?} vs {expected:?}");
        }
    }
    assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
    assert_eq!(quartiles(&[]), None);
}

#[test]
fn relative_iqr_is_quartile_distance_over_median() {
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    let spread = relative_iqr(&values).unwrap();
    assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
}

#[test]
fn nearest_rank_percentile() {
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    // rank ⌈q·n⌉: p50 → 50th, p90 → 90th (ten beyond it).
    assert_eq!(percentile(&sorted, 0.5), Some(50.0));
    assert_eq!(percentile(&sorted, 0.9), Some(90.0));
    // ⌈90.5⌉ = 91 leaves nine beyond: refused.
    assert_eq!(percentile(&sorted, 0.905), None);
}

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond() {
    assert_eq!(MIN_BEYOND, 10);
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    // p99 of 100 leaves one sample beyond it.
    assert_eq!(percentile(&hundred, 0.99), None);
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&thousand, 0.99), Some(990.0));
    // Exactly ten beyond is enough; nine is not.
    let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(percentile(&twenty, 0.5), Some(10.0));
    assert_eq!(percentile(&twenty, 0.55), None);
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(percentile(&hundred, 0.0), None);
    assert_eq!(percentile(&hundred, 1.5), None);
}

#[test]
fn bound_check_respects_direction() {
    // Lower is better: 10% bound on a base of 100.
    assert!(!regressed(100.0, 110.0, Better::Lower, 0.10));
    assert!(regressed(100.0, 110.1, Better::Lower, 0.10));
    assert!(!regressed(100.0, 50.0, Better::Lower, 0.10));
    // Higher is better.
    assert!(!regressed(100.0, 90.0, Better::Higher, 0.10));
    assert!(regressed(100.0, 89.9, Better::Higher, 0.10));
    assert!(!regressed(100.0, 200.0, Better::Higher, 0.10));
}

#[test]
fn verdicts_follow_the_spread_and_win_rules() {
    let base = [100.0, 101.0, 99.0, 100.5, 99.5];
    // Within bound.
    assert_eq!(
        verdict(
            &base,
            &[101.0, 100.0, 102.0, 100.5, 101.5],
            Better::Lower,
            0.05
        ),
        Verdict::Ok
    );
    // Worse by far more than the bound, tight spread.
    assert_eq!(
        verdict(
            &base,
            &[120.0, 121.0, 119.0, 120.5, 119.5],
            Better::Lower,
            0.05
        ),
        Verdict::Regression
    );
    // Every pair won and the median moved by more than the base spread.
    assert_eq!(
        verdict(&base, &[90.0, 91.0, 89.0, 90.5, 89.5], Better::Lower, 0.05),
        Verdict::Better
    );
    // A spread wider than the bound is unresolved ...
    let noisy = [80.0, 120.0, 100.0, 60.0, 140.0];
    assert_eq!(
        verdict(&base, &noisy, Better::Lower, 0.05),
        Verdict::Unresolved
    );
    // ... unless every new run beats every base run.
    let wide_but_better = [10.0, 30.0, 20.0, 5.0, 40.0];
    assert_eq!(
        verdict(&base, &wide_but_better, Better::Lower, 0.05),
        Verdict::Better
    );
    assert_eq!(verdict(&base, &[], Better::Lower, 0.05), Verdict::Missing);
}

fn run(workload: &str, seed: u64, failed: u64, metrics: &[(&str, f64)]) -> RunResult {
    RunResult {
        workload: workload.to_string(),
        seed,
        trace: false,
        correct: failed == 0,
        attempted: 100,
        failed,
        metrics: metrics.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
    }
}

fn runs(workload: &str, failed: u64, p50: f64) -> Vec<RunResult> {
    (0..5)
        .map(|seed| {
            let jitter = seed as f64 * 0.001 * p50;
            let metrics = [("flow_p50_ms", p50 + jitter), ("flow_tail_ms", 2.0 * p50)];
            run(workload, seed, failed, &metrics)
        })
        .collect()
}

fn bounds() -> Vec<Bound> {
    ["flow_p50_ms", "flow_tail_ms"]
        .iter()
        .map(|name| Bound {
            name: name.to_string(),
            better: Better::Lower,
            bound: 0.05,
        })
        .collect()
}

#[test]
fn compare_passes_identical_sides() {
    let base: Vec<RunResult> = ["table1_full", "c1908_k30"]
        .iter()
        .flat_map(|w| runs(w, 0, 40.0))
        .collect();
    let (table, failing) = compare(&bounds(), &base, &base);
    assert!(!failing, "{table}");
    assert!(!table.contains("REGRESSION") && !table.contains("missing"), "{table}");
}

#[test]
fn compare_fails_when_the_new_side_lacks_a_workload_the_base_ran() {
    let base: Vec<RunResult> = ["table1_full", "c1908_k30"]
        .iter()
        .flat_map(|w| runs(w, 0, 40.0))
        .collect();
    let new = runs("table1_full", 0, 40.0);
    let (table, failing) = compare(&bounds(), &base, &new);
    assert!(failing, "{table}");
    let missing: Vec<&str> = table
        .lines()
        .filter(|l| l.starts_with("c1908_k30") && l.ends_with("missing"))
        .collect();
    // Both metric rows and the error_rate row.
    assert_eq!(missing.len(), 3, "{table}");
}

#[test]
fn compare_fails_when_a_metric_disappears() {
    let base = runs("table1_full", 0, 40.0);
    let new: Vec<RunResult> = base
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.metrics.remove("flow_tail_ms");
            r
        })
        .collect();
    let (table, failing) = compare(&bounds(), &base, &new);
    assert!(failing, "{table}");
    // A metric only the new side has is reported, not failed.
    assert!(!compare(&bounds(), &new, &base).1);
}

#[test]
fn compare_fails_on_more_failed_operations_and_on_crashed_runs() {
    let base = runs("service_mixed", 0, 44.0);
    let (table, failing) = compare(&bounds(), &base, &runs("service_mixed", 1, 44.0));
    assert!(failing, "{table}");
    assert!(
        table
            .lines()
            .any(|l| l.contains("error_rate") && l.ends_with("REGRESSION")),
        "{table}"
    );
    // A run that produced no result is recorded with no metrics and one
    // failed operation.
    let mut new = base.clone();
    new.push(RunResult {
        attempted: 1,
        ..run("service_mixed", 9, 1, &[])
    });
    assert!(compare(&bounds(), &base, &new).1);
}

#[test]
fn compare_skips_the_tail_row_of_a_workload_without_a_tail() {
    let base = runs("s1m_k5", 0, 3000.0);
    let (table, failing) = compare(&bounds(), &base, &base);
    assert!(!failing, "{table}");
    assert!(table.contains("flow_p50_ms"), "{table}");
    assert!(!table.contains("flow_tail_ms"), "{table}");
}

#[test]
fn win_fraction_counts_pairs_and_ignores_ties() {
    let base = [1.0, 2.0, 3.0, 4.0];
    let new = [0.5, 2.0, 3.5, 3.0];
    assert!((win_fraction(&base, &new, Better::Lower) - 0.5).abs() < 1e-12);
    assert!((win_fraction(&base, &new, Better::Higher) - 0.25).abs() < 1e-12);
    assert_eq!(win_fraction(&base, &[], Better::Lower), 0.0);
}

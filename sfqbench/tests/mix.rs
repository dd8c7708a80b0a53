//! The `service_mixed` job mix: deterministic per seed, on its nominal
//! shares.

use std::collections::BTreeMap;

use sfqbench::mix::{job_kind, JobKind, VARIANTS};

const JOBS: u64 = 3000;

#[test]
fn the_seed_fixes_every_job_kind() {
    let a: Vec<JobKind> = (0..JOBS).map(|i| job_kind(2020, i)).collect();
    let b: Vec<JobKind> = (0..JOBS).map(|i| job_kind(2020, i)).collect();
    assert_eq!(a, b);
    let other: Vec<JobKind> = (0..JOBS).map(|i| job_kind(2021, i)).collect();
    assert_ne!(a, other, "another seed must give another mix");
}

#[test]
fn each_kind_is_within_two_points_of_nominal() {
    let nominal = [
        ("repeat", 50.0),
        ("unique", 20.0),
        ("cancel", 10.0),
        ("zero_deadline", 10.0),
        ("panic", 5.0),
        ("poison", 5.0),
    ];
    for seed in [1, 2020, 987_654_321] {
        let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
        for i in 0..JOBS {
            let name = match job_kind(seed, i) {
                JobKind::Repeat { variant } => {
                    assert!(variant < VARIANTS);
                    "repeat"
                }
                JobKind::Unique => "unique",
                JobKind::Cancel => "cancel",
                JobKind::ZeroDeadline => "zero_deadline",
                JobKind::Panic => "panic",
                JobKind::Poison => "poison",
            };
            *counts.entry(name).or_default() += 1;
        }
        for (name, pct) in nominal {
            let got = 100.0 * counts.get(name).copied().unwrap_or(0) as f64 / JOBS as f64;
            assert!(
                (got - pct).abs() <= 2.0,
                "seed {seed}: {name} is {got:.2}%, nominal {pct}%"
            );
        }
    }
}

#[test]
fn every_repeat_variant_occurs() {
    let mut seen = [false; VARIANTS as usize];
    for i in 0..JOBS {
        if let JobKind::Repeat { variant } = job_kind(2020, i) {
            seen[variant as usize] = true;
        }
    }
    assert!(seen.iter().all(|&s| s));
}

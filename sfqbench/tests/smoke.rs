//! End-to-end smoke test of the benchmark binary on tiny inputs (`--quick`,
//! never used for numbers): every workload, untraced and traced, passes its
//! checks and prints exactly the metric names and units `BENCHMARK.json`
//! declares.

use std::path::PathBuf;
use std::process::Command;

use sfq_serviced::json::{self, Json};
use sfqbench::catalog::{metric_set, WORKLOADS};
use sfqbench::span_path;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap();
    json::parse(&text).unwrap()
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    let doc = benchmark_json();
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let mut expected = declared(&doc, key);
        let mut ours: Vec<(String, String)> = metric_set(trace)
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        expected.sort();
        ours.sort();
        assert_eq!(ours, expected, "{key}");
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn quick_runs_pass_their_checks_and_print_the_declared_metrics() {
    let doc = benchmark_json();
    for workload in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_sfqbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
                .args(["--trace", trace, "--quick"])
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} trace {trace}: {}\n{stdout}",
                String::from_utf8_lossy(&output.stderr)
            );
            let last = stdout.lines().last().unwrap();
            let result = json::parse(last).unwrap();
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{last}");
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            let Some(Json::Object(metrics)) = result.get("metrics") else {
                panic!("no metrics object in {last}");
            };
            let mut printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let mut expected = declared(&doc, key);
            printed.sort();
            expected.sort();
            assert_eq!(printed, expected, "{workload} trace {trace}");
            if trace == "1" {
                assert!(span_path(workload, 7).is_file(), "{workload}: no span file");
            }
        }
    }
}

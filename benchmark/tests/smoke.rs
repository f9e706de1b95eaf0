//! Smoke test: the `--quick` volumes through the real binary.
//!
//! Quick results are never comparable with anything; this checks the
//! plumbing — every metric `BENCHMARK.json` names is printed with its
//! unit, nothing fails, and the span files are well formed.

use std::collections::HashMap;
use std::path::Path;
use std::process::Command;

use sunder_telemetry::json::{self, Json};

const WORKLOADS: [&str; 4] = [
    "batch-quiet",
    "batch-active",
    "serve-reports",
    "serve-small",
];

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `(name, unit)` of every metric under `key` in `BENCHMARK.json`, in order.
fn declared(manifest: &Json, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_result(result: &Json, workload: &str, metrics: &[(String, String)]) {
    assert_eq!(result.get("quick"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let Some(Json::Obj(printed)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let printed: Vec<(String, String)> = printed
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect();
    assert_eq!(
        printed, metrics,
        "{workload}: metrics differ from BENCHMARK.json"
    );
}

/// Every line parses and every child span lies within its parent.
fn check_trace(workload: &str) {
    let path = manifest_dir()
        .join("out")
        .join(format!("trace-{workload}.jsonl"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let spans: Vec<Json> = text
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{workload}: {e}: {l}")))
        .collect();
    assert!(!spans.is_empty(), "{workload}: empty trace");
    let num = |s: &Json, f: &str| s.get(f).and_then(Json::as_u64).unwrap();
    let bounds: HashMap<u64, (u64, u64)> = spans
        .iter()
        .map(|s| (num(s, "id"), (num(s, "start_ns"), num(s, "end_ns"))))
        .collect();
    let mut children = 0;
    for s in &spans {
        let (start, end) = (num(s, "start_ns"), num(s, "end_ns"));
        assert!(start <= end);
        assert!(s.get("name").and_then(Json::as_str).is_some());
        assert!(s.get("request").and_then(Json::as_str).is_some());
        if let Some(parent) = s.get("parent").and_then(Json::as_u64) {
            let (p_start, p_end) = bounds[&parent];
            assert!(
                p_start <= start && end <= p_end,
                "{workload}: span {} [{start}, {end}] outside its parent [{p_start}, {p_end}]",
                num(s, "id")
            );
            children += 1;
        }
    }
    assert!(children > 0, "{workload}: no nested spans");
}

#[test]
fn quick_suite_prints_every_declared_metric_and_well_formed_traces() {
    let manifest = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let manifest = json::parse(&manifest).expect("BENCHMARK.json parses");
    let names: Vec<&str> = manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
    let end_to_end = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");

    let out = Command::new(env!("CARGO_BIN_EXE_sunder-benchmark"))
        .args(["--quick", "--seconds", "1"])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "non-zero exit:\n{stdout}");
    let results: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| json::parse(l).unwrap())
        .collect();
    assert_eq!(results.len(), 2 * WORKLOADS.len(), "{stdout}");
    for (workload, pair) in WORKLOADS.iter().zip(results.chunks(2)) {
        check_result(&pair[0], workload, &end_to_end);
        check_result(&pair[1], workload, &per_layer);
        check_trace(workload);
        // The human-readable table names each metric too.
        for (name, _) in end_to_end.iter().chain(&per_layer) {
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with(workload) && l.contains(name.as_str())),
                "{workload}: {name} missing from the table"
            );
        }
    }
}

#[test]
fn an_unknown_workload_is_a_usage_error_without_a_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_sunder-benchmark"))
        .args(["--workload", "no-such-workload"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result line on a usage error");
}

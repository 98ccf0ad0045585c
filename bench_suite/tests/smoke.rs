//! Smoke test of the benchmark binary at reduced scale (`--smoke`: the
//! fast scenario, and the population workload at Q = 10^4 for 50
//! rounds).

use std::path::PathBuf;
use std::process::{Command, Output};

use helcfl_telemetry::json::{parse, JsonValue};

const SPEC: &str = include_str!("../../BENCHMARK.json");
const PINS: &str = include_str!("../pins.json");

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_suite_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn bench(args: &[&str], out_dir: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_suite"))
        .args(args)
        .arg("--out")
        .arg(out_dir.join("report.json"))
        .output()
        .expect("spawn bench_suite")
}

fn names(spec: &JsonValue, list: &str) -> Vec<(String, Option<String>)> {
    let Some(JsonValue::Array(items)) = spec.get(list) else {
        panic!("no {list} list")
    };
    items
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).map(str::to_string);
            (field("name").expect("name"), field("unit"))
        })
        .collect()
}

#[test]
fn smoke_run_prints_every_declared_metric_and_passes_its_checks() {
    let dir = scratch_dir("smoke");
    let out = bench(&["--smoke"], &dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let spec = parse(SPEC).expect("BENCHMARK.json parses");
    let mut expected = names(&spec, "end_to_end");
    expected.extend(names(&spec, "per_layer"));
    expected.push(("error_rate".into(), Some("ratio".into())));
    for (workload, _) in names(&spec, "workloads") {
        for (metric, unit) in &expected {
            let prefix = format!("{workload} {metric} ");
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("no line for {workload} {metric}:\n{stdout}"));
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 4, "malformed line {line:?}");
            let value: f64 = fields[2].parse().expect("numeric value");
            assert!(value.is_finite(), "{line}");
            assert_eq!(Some(fields[3]), unit.as_deref(), "{line}");
            if metric == "error_rate" {
                assert_eq!(value, 0.0, "{line}");
            }
        }
    }
    let report = std::fs::read_to_string(dir.join("report.json")).expect("report written");
    assert!(parse(&report).is_ok(), "report is not JSON: {report}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The reference run is checked whatever `--seed` is, so the altered
/// pin fails a run at a seed that has no pins of its own.
#[test]
fn an_altered_reference_hash_fails_the_run() {
    let dir = scratch_dir("tamper");
    let pins = parse(PINS).expect("pins.json parses");
    let hash = pins
        .get("smoke")
        .and_then(|s| s.get("paper-iid"))
        .and_then(JsonValue::as_str)
        .expect("smoke paper-iid pin");
    let flipped: String = hash.chars().rev().collect();
    assert_ne!(flipped, hash);
    let tampered = dir.join("pins.json");
    std::fs::write(&tampered, PINS.replacen(hash, &flipped, 1)).expect("write pins");
    let path = tampered.to_str().expect("utf-8 path");
    let out = bench(
        &[
            "--smoke",
            "--workload",
            "paper-iid",
            "--seed",
            "7",
            "--pins",
            path,
        ],
        &dir,
    );
    assert!(!out.status.success(), "a wrong pin must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("result line is JSON");
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(false)
    );
    assert!(
        result
            .get("failed")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
            > 0.0
    );
    let _ = std::fs::remove_dir_all(&dir);
}

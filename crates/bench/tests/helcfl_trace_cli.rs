//! End-to-end checks of the `helcfl-trace` binary: `check` keeps the
//! validation the retired `check_trace` shim enforced (strict schema,
//! resolvable parents, coverage rule), `watch` tails a trace without
//! hanging CI, the cross-run tooling (`diff`, `flame`, `series`)
//! honours run_manifest provenance end to end, `gate` holds bench
//! reports to their records' bounds, and every subcommand refuses a
//! flag it does not declare.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// A minimal valid trace: one round whose only child covers 100% of
/// its duration, emitted completion-ordered (child first).
const TRACE: &str = concat!(
    r#"{"type":"span","name":"timeline","id":3,"parent":2,"t_us":0,"dur_us":20000}"#,
    "\n",
    r#"{"type":"span","name":"round","id":2,"parent":null,"t_us":0,"dur_us":20000,"attrs":{"index":1}}"#,
    "\n",
);

/// The same round with the writer's trailing metrics line — what a
/// finished run's file looks like.
const FINISHED_TRACE: &str = concat!(
    r#"{"type":"span","name":"timeline","id":3,"parent":2,"t_us":0,"dur_us":20000}"#,
    "\n",
    r#"{"type":"span","name":"round","id":2,"parent":null,"t_us":0,"dur_us":20000,"attrs":{"index":1}}"#,
    "\n",
    r#"{"type":"metrics","metrics":{}}"#,
    "\n",
);

/// A run_manifest provenance line with the given seed, otherwise
/// matching [`TRACE`]'s (hypothetical) producer.
fn manifest_line(seed: u64) -> String {
    format!(
        concat!(
            r#"{{"type":"run_manifest","schema_version":1,"seed":{},"#,
            r#""scheme":"helcfl","config_fingerprint":"deadbeefdeadbeef","#,
            r#""threads":1,"trace_mode":"full","fleet_size":10,"#,
            r#""build_profile":"release"}}"#
        ),
        seed
    )
}

/// [`TRACE`] with a provenance manifest at its head.
fn manifested_trace(seed: u64) -> String {
    format!("{}\n{TRACE}", manifest_line(seed))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helcfl_trace_cli_{tag}_{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn trace_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_helcfl-trace"))
}

#[test]
fn check_validates_a_wellformed_trace() {
    let dir = scratch("ok");
    let path = dir.join("trace.jsonl");
    fs::write(&path, TRACE).unwrap();

    let output = trace_cli().arg("check").arg(&path).output().expect("run helcfl-trace");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("OK"), "missing verdict: {stdout}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_fails_on_a_malformed_trace() {
    let dir = scratch("bad");
    let path = dir.join("bad.jsonl");
    fs::write(&path, "not json at all\n").unwrap();

    let output = trace_cli().arg("check").arg(&path).output().expect("run helcfl-trace");
    assert!(!output.status.success(), "malformed trace must fail check");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("FAIL"), "missing failure banner: {stderr}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_exits_cleanly_when_the_run_is_finished() {
    let dir = scratch("watch_done");
    let path = dir.join("trace.jsonl");
    fs::write(&path, FINISHED_TRACE).unwrap();

    let output = trace_cli()
        .args(["watch", path.to_str().unwrap(), "--interval-ms", "10"])
        .output()
        .expect("run helcfl-trace");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("1 round(s)"), "missing snapshot line: {stdout}");
    // One 20 ms round whose only phase is `timeline`.
    assert!(stdout.contains("50.0 rounds/s"), "missing round rate: {stdout}");
    assert!(stdout.contains("top phases timeline 100% 20000µs"), "missing phases: {stdout}");
    assert!(stdout.contains("run finished"), "missing exit reason: {stdout}");
    fs::remove_dir_all(&dir).ok();
}

/// A trace diffed against itself is the identity comparison: exit 0
/// and an explicit "zero deltas" verdict (the phrase ci.sh greps for).
#[test]
fn diff_of_a_trace_against_itself_reports_zero_deltas() {
    let dir = scratch("diff_self");
    let path = dir.join("trace.jsonl");
    fs::write(&path, manifested_trace(42)).unwrap();

    let output = trace_cli()
        .args(["diff", path.to_str().unwrap(), path.to_str().unwrap()])
        .output()
        .expect("run helcfl-trace");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("zero deltas"), "missing verdict: {stdout}");
    fs::remove_dir_all(&dir).ok();
}

/// Mismatched identity (the seed) refuses the comparison with a named
/// reason; `--ignore-manifest` is the explicit override.
#[test]
fn diff_refuses_mismatched_seeds_unless_overridden() {
    let dir = scratch("diff_seed");
    let base = dir.join("base.jsonl");
    let cand = dir.join("cand.jsonl");
    fs::write(&base, manifested_trace(42)).unwrap();
    fs::write(&cand, manifested_trace(43)).unwrap();

    let output = trace_cli()
        .args(["diff", base.to_str().unwrap(), cand.to_str().unwrap()])
        .output()
        .expect("run helcfl-trace");
    assert!(!output.status.success(), "mismatched seeds must refuse to diff");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("seed"), "refusal does not name the seed: {stderr}");

    let output = trace_cli()
        .args([
            "diff",
            base.to_str().unwrap(),
            cand.to_str().unwrap(),
            "--ignore-manifest",
        ])
        .output()
        .expect("run helcfl-trace");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "--ignore-manifest must override: {stderr}");
    fs::remove_dir_all(&dir).ok();
}

/// Seeds past 2^53 are told apart: a manifest's seed is read as the
/// exact integer it was written as, not rounded through an `f64`
/// (which made this seed and the next one the same experiment).
#[test]
fn diff_refuses_seeds_that_differ_only_beyond_2_pow_53() {
    let dir = scratch("diff_big_seed");
    let base = dir.join("base.jsonl");
    let cand = dir.join("cand.jsonl");
    let seed = 0xDEAD_BEEF_CAFE_F00D_u64;
    fs::write(&base, manifested_trace(seed)).unwrap();
    fs::write(&cand, manifested_trace(seed + 1)).unwrap();
    let output = trace_cli()
        .args(["diff", base.to_str().unwrap(), cand.to_str().unwrap()])
        .output()
        .expect("run helcfl-trace");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "seeds {seed} and {} must refuse to diff", seed + 1);
    assert!(
        stderr.contains(&format!("seed differs: baseline {seed}, candidate {}", seed + 1)),
        "refusal does not name both seeds: {stderr}"
    );
    fs::remove_dir_all(&dir).ok();
}

/// `diff --json` emits one parseable JSON document.
#[test]
fn diff_json_output_is_valid_json() {
    let dir = scratch("diff_json");
    let path = dir.join("trace.jsonl");
    fs::write(&path, manifested_trace(42)).unwrap();

    let output = trace_cli()
        .args(["diff", path.to_str().unwrap(), path.to_str().unwrap(), "--json"])
        .output()
        .expect("run helcfl-trace");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let doc = helcfl_telemetry::json::parse(stdout.trim()).expect("diff --json output parses");
    assert_eq!(
        doc.get("zero_delta").and_then(|v| v.as_bool()),
        Some(true),
        "self-diff must be a zero delta: {stdout}"
    );
    fs::remove_dir_all(&dir).ok();
}

/// `flame` exports folded stacks: `path;to;span weight` lines whose
/// weights are self-times (round minus its child, plus the leaf).
#[test]
fn flame_exports_folded_stacks() {
    let dir = scratch("flame");
    let path = dir.join("trace.jsonl");
    fs::write(&path, TRACE).unwrap();

    let output =
        trace_cli().args(["flame", path.to_str().unwrap()]).output().expect("run helcfl-trace");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    // The round's 20000 µs are entirely inside its timeline child, so
    // only the leaf path carries weight.
    assert_eq!(stdout.trim(), "round;timeline 20000");

    // `--out` writes the same bytes to a file instead.
    let out = dir.join("stacks.folded");
    let output = trace_cli()
        .args(["flame", path.to_str().unwrap(), "--out", out.to_str().unwrap()])
        .output()
        .expect("run helcfl-trace");
    assert!(output.status.success());
    assert_eq!(fs::read_to_string(&out).unwrap(), stdout.as_ref());
    fs::remove_dir_all(&dir).ok();
}

/// `series --json` emits one parseable document with a point per round.
#[test]
fn series_json_reports_one_point_per_round() {
    let dir = scratch("series");
    let path = dir.join("trace.jsonl");
    fs::write(&path, TRACE).unwrap();

    let output = trace_cli()
        .args(["series", path.to_str().unwrap(), "--json"])
        .output()
        .expect("run helcfl-trace");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    let doc = helcfl_telemetry::json::parse(stdout.trim()).expect("series --json parses");
    assert_eq!(doc.get("rounds").and_then(|v| v.as_f64()), Some(1.0), "{stdout}");
    assert_eq!(doc.get("anomalies").and_then(|v| v.as_f64()), Some(0.0), "{stdout}");
    fs::remove_dir_all(&dir).ok();
}

/// `phases --json` emits the machine-readable breakdown.
#[test]
fn phases_json_output_is_valid_json() {
    let dir = scratch("phases_json");
    let path = dir.join("trace.jsonl");
    fs::write(&path, TRACE).unwrap();

    let output = trace_cli()
        .args(["phases", path.to_str().unwrap(), "--json"])
        .output()
        .expect("run helcfl-trace");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    let doc = helcfl_telemetry::json::parse(stdout.trim()).expect("phases --json parses");
    assert_eq!(doc.get("rounds").and_then(|v| v.as_f64()), Some(1.0), "{stdout}");
    fs::remove_dir_all(&dir).ok();
}

/// `watch` announces the run's provenance as soon as the manifest
/// lands in the stream.
#[test]
fn watch_announces_the_run_manifest() {
    let dir = scratch("watch_manifest");
    let path = dir.join("trace.jsonl");
    fs::write(&path, format!("{}\n{FINISHED_TRACE}", manifest_line(42))).unwrap();

    let output = trace_cli()
        .args(["watch", path.to_str().unwrap(), "--interval-ms", "10"])
        .output()
        .expect("run helcfl-trace");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(
        stdout.contains("run_manifest scheme=helcfl seed=42"),
        "manifest not announced: {stdout}"
    );
    fs::remove_dir_all(&dir).ok();
}

/// A mid-run snapshot: the tail line is half-flushed and a child's
/// `round` parent has not landed yet. `watch` must tolerate both and
/// stop at the poll budget instead of hanging.
#[test]
fn watch_tolerates_a_partial_trace_and_poll_budget() {
    let dir = scratch("watch_partial");
    let path = dir.join("trace.jsonl");
    let partial = format!(
        "{TRACE}{}\n{}",
        r#"{"type":"span","name":"timeline","id":9,"parent":8,"t_us":0,"dur_us":5}"#,
        r#"{"type":"span","name":"rou"#, // torn tail write
    );
    fs::write(&path, partial).unwrap();

    let output = trace_cli()
        .args(["watch", path.to_str().unwrap(), "--interval-ms", "1", "--max-polls", "2"])
        .output()
        .expect("run helcfl-trace");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("1 round(s)"), "orphan/torn lines leaked in: {stdout}");
    assert!(stdout.contains("2 pending line(s)"), "pending count wrong: {stdout}");
    assert!(stdout.contains("stopped after 2 poll(s)"), "budget exit missing: {stdout}");
    fs::remove_dir_all(&dir).ok();
}

/// Every subcommand refuses a flag it does not declare, naming it —
/// not silently running on defaults, and not swallowing the next
/// argument as the flag's value.
#[test]
fn unknown_flags_are_refused_by_name() {
    let dir = scratch("unknown_flag");
    let path = dir.join("trace.jsonl");
    fs::write(&path, TRACE).unwrap();
    let path = path.to_str().unwrap();
    let kernels = committed("BENCH_kernels.json");
    let cases: [&[&str]; 4] = [
        &["gate", &kernels, &kernels, "--max-gflop-drop-pct", "1"],
        &["phases", "--jsn", path],
        &["check", path, "--json"],
        &["tree", path, "--max-depht", "2"],
    ];
    for args in cases {
        let output = trace_cli().args(args).output().expect("run helcfl-trace");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{args:?} must fail: {stderr}");
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert!(stderr.contains(&format!("{flag}: unknown flag")), "{args:?}: {stderr}");
    }
    fs::remove_dir_all(&dir).ok();
}

/// Path of a committed report under `results/`.
fn committed(name: &str) -> String {
    format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Exit code, stdout and stderr of `helcfl-trace gate`.
fn gate(baseline: &str, candidate: &str) -> (Option<i32>, String, String) {
    let output =
        trace_cli().args(["gate", baseline, candidate]).output().expect("run helcfl-trace");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Each committed bench report gated against itself is the identity:
/// exit 0, every check ok, no note.
#[test]
fn gate_passes_every_committed_report_against_itself() {
    for name in [
        "BENCH_kernels.json",
        "BENCH_kernels_scalar.json",
        "BENCH_population.json",
        "BENCH_suite_smoke.json",
    ] {
        let path = committed(name);
        let (code, stdout, stderr) = gate(&path, &path);
        assert_eq!(code, Some(0), "{name}: {stdout}{stderr}");
        assert!(stdout.starts_with("gate: PASS"), "{name}: {stdout}");
        assert!(!stdout.contains("BAD") && !stdout.contains("note:"), "{name}: {stdout}");
    }
}

/// A population report of `(metric, value)` records, all
/// lower-is-better at a 0.25 bound.
fn records_report(records: &[(&str, f64)]) -> String {
    let records: Vec<String> = records
        .iter()
        .map(|(metric, value)| {
            format!(
                r#"{{"metric":"{metric}","unit":"us","better":"lower","bound":0.25,"value":{value}}}"#
            )
        })
        .collect();
    format!(r#"{{"bench":"population","smoke":true,"records":[{}]}}"#, records.join(","))
}

#[test]
fn gate_fails_a_record_beyond_its_bound_and_notes_one_sided_metrics() {
    let dir = scratch("gate_records");
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let base = write("base.json", records_report(&[("q1000.round_p50_us", 4.0)]));
    let slow = write("slow.json", records_report(&[("q1000.round_p50_us", 5.1)]));
    let (code, stdout, stderr) = gate(&base, &slow);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("[BAD] q1000.round_p50_us"), "{stdout}");
    assert!(stderr.contains("regression"), "{stderr}");

    let wider = write(
        "wider.json",
        records_report(&[("q1000.round_p50_us", 4.9), ("q500.round_p50_us", 1.0)]),
    );
    let (code, stdout, _) = gate(&base, &wider);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("note: q500.round_p50_us: absent from baseline"), "{stdout}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn gate_refuses_non_reports_and_suite_runs_that_went_wrong() {
    let dir = scratch("gate_refuse");
    let suite = committed("BENCH_suite_smoke.json");
    let text = fs::read_to_string(&suite).unwrap();
    let trace = dir.join("trace.jsonl");
    fs::write(&trace, TRACE).unwrap();
    let incorrect = dir.join("incorrect.json");
    fs::write(&incorrect, text.replacen(r#""correct":true"#, r#""correct":false"#, 1)).unwrap();
    let failed = dir.join("failed.json");
    fs::write(&failed, text.replacen(r#""failed":0"#, r#""failed":3"#, 1)).unwrap();
    for (candidate, reason) in [
        (trace.to_str().unwrap(), "candidate: invalid JSON"),
        (&committed("BENCH_kernels.json"), "kernels report"),
        (incorrect.to_str().unwrap(), "is not correct"),
        (failed.to_str().unwrap(), "failed 3 operation(s)"),
    ] {
        let (code, stdout, stderr) = gate(&suite, candidate);
        assert_eq!(code, Some(1), "{candidate}: {stdout}");
        assert!(stderr.contains(reason), "{candidate}: {stderr}");
    }
    fs::remove_dir_all(&dir).ok();
}

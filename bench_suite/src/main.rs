//! `bench_suite` — the benchmark every performance claim in this
//! repository is measured with (see `README.md` beside this crate).
//!
//! With `--workload NAME` it runs one workload in this process, prints
//! one `<workload> <metric> <value> <unit>` line per metric and, last,
//! one JSON object with the `BENCHMARK.json` metrics: the `end_to_end`
//! list, or the `per_layer` list with `--trace 1`. Without it, it runs
//! every workload in a child process of its own — so `setup_s` and
//! `peak_rss_mb` belong to one workload each — and writes a JSON report
//! of every metric to `--out` (default `target/bench_suite/report.json`).
//!
//! The exit code is 0 only when every output check passed.

mod kernels;
mod mirror;
mod probe;
mod spans;
mod workloads;

use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use helcfl_telemetry::json::{parse, JsonObject, JsonValue};

use workloads::{Opts, Outcome, Scale, Workload};

/// The benchmark's definition: workloads, metrics, run length.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Reference hashes of each workload's output at the pinned seed.
const PINS: &str = include_str!("../pins.json");

const DEFAULT_OUT: &str = "target/bench_suite/report.json";

const USAGE: &str = "usage: bench_suite [--workload paper-iid|noniid-faults|pop-1m] [--seed N] \
                     [--seconds S] [--trace 0|1] [--smoke] [--out PATH] [--trace-out DIR] \
                     [--pins PATH]";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    pins: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2022,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        trace_out: None,
        pins: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            "--pins" => args.pins = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn spec_metrics(spec: &JsonValue, list: &str) -> Result<Vec<(String, String)>, String> {
    let Some(JsonValue::Array(items)) = spec.get(list) else {
        return Err(format!("BENCHMARK.json has no {list} list"));
    };
    items
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("a {list} entry lacks a name or unit"))
        })
        .collect()
}

/// One workload's results as the report records them.
struct WorkloadReport {
    name: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn write_report(
    path: &Path,
    args: &Args,
    seconds: f64,
    runs: &[WorkloadReport],
) -> Result<(), Box<dyn Error>> {
    let workloads: Vec<JsonObject> = runs
        .iter()
        .map(|r| {
            let metrics: Vec<JsonObject> = r
                .metrics
                .iter()
                .map(|(name, value, unit)| {
                    let mut m = JsonObject::new();
                    m.field("name", name.as_str())
                        .field("value", *value)
                        .field("unit", unit.as_str());
                    m
                })
                .collect();
            let mut o = JsonObject::new();
            o.field("name", r.name.as_str())
                .field("correct", r.correct)
                .field("attempted", r.attempted)
                .field("failed", r.failed)
                .field("metrics", metrics);
            o
        })
        .collect();
    let mut report = JsonObject::new();
    report
        .field("bench", "bench_suite")
        .field("seed", args.seed)
        .field("smoke", args.smoke)
        .field("seconds", seconds)
        .field(
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        )
        .field("workloads", workloads);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, report.finish() + "\n")?;
    Ok(())
}

/// Prints `outcome` — every metric as a line, then the result object
/// with the metrics `wanted` — and returns its report and whether the
/// run was correct: no failed check and every wanted metric present,
/// finite and in its declared unit.
fn print_outcome(w: Workload, outcome: &Outcome, wanted: &[(String, String)]) -> WorkloadReport {
    let mut metrics: Vec<(String, f64, String)> = outcome
        .metrics
        .iter()
        .map(|(n, v, u)| (n.clone(), *v, (*u).to_string()))
        .collect();
    metrics.push((
        "error_rate".into(),
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "ratio".into(),
    ));
    for (name, value, unit) in &metrics {
        println!("{} {name} {value} {unit}", w.name());
    }
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut selected = JsonObject::new();
    for (name, unit) in wanted {
        match metrics.iter().find(|(n, ..)| n == name) {
            Some((_, value, u)) if u == unit && value.is_finite() => {
                let mut m = JsonObject::new();
                m.field("value", *value).field("unit", unit.as_str());
                selected.object(name, m);
            }
            found => {
                eprintln!("FAIL: metric {name} [{unit}] missing or malformed: {found:?}");
                correct = false;
            }
        }
    }
    let mut line = JsonObject::new();
    line.field("correct", correct)
        .field("attempted", outcome.attempted)
        .field("failed", outcome.failed)
        .object("metrics", selected);
    println!("{}", line.finish());
    WorkloadReport {
        name: w.name().to_string(),
        correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
    }
}

/// Runs every workload in a child process and collects its lines.
fn run_all(args: &Args, seconds: f64) -> Result<bool, Box<dyn Error>> {
    let exe = std::env::current_exe()?;
    let mut runs = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        for (flag, path) in [("--trace-out", &args.trace_out), ("--pins", &args.pins)] {
            if let Some(path) = path {
                cmd.arg(flag).arg(path);
            }
        }
        let output = cmd.stderr(Stdio::inherit()).output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut run = WorkloadReport {
            name: w.name().to_string(),
            correct: false,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        };
        for line in stdout.lines() {
            if line.starts_with('{') {
                let result = parse(line)?;
                let count = |k| result.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
                run.correct = result.get("correct").and_then(JsonValue::as_bool) == Some(true);
                run.attempted = count("attempted");
                run.failed = count("failed");
                continue;
            }
            println!("{line}");
            if let [_, name, value, unit] = line.split_whitespace().collect::<Vec<_>>()[..] {
                run.metrics
                    .push((name.to_string(), value.parse()?, unit.to_string()));
            }
        }
        run.correct &= output.status.success();
        runs.push(run);
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_OUT));
    write_report(&out, args, seconds, &runs)?;
    let correct = runs.iter().all(|r| r.correct);
    println!(
        "bench_suite: {} workloads {}; report written to {}",
        runs.len(),
        if correct { "correct" } else { "FAILED" },
        out.display()
    );
    Ok(correct)
}

fn run(args: &Args) -> Result<bool, Box<dyn Error>> {
    let spec = parse(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let run_seconds = spec
        .get("run_seconds")
        .and_then(JsonValue::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.0 } else { run_seconds });
    let Some(w) = args.workload else {
        return run_all(args, seconds);
    };
    let pins = match &args.pins {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        None => PINS.to_string(),
    };
    let opts = Opts {
        seed: args.seed,
        budget: Duration::from_secs_f64(seconds),
        smoke: args.smoke,
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
        trace_out: args.trace_out.clone(),
        pins: parse(&pins).map_err(|e| format!("pins: {e}"))?,
    };
    let outcome = match w {
        Workload::Pop1m => workloads::run_population(&opts)?,
        _ => workloads::run_training(w, &opts)?,
    };
    let wanted = spec_metrics(
        &spec,
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
    )?;
    let report = print_outcome(w, &outcome, &wanted);
    if let Some(out) = &args.out {
        write_report(out, args, seconds, std::slice::from_ref(&report))?;
    }
    Ok(report.correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_suite: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_suite: {e}");
            ExitCode::FAILURE
        }
    }
}

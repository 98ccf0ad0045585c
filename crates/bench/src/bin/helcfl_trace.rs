//! `helcfl-trace` — inspect, audit, and gate telemetry artifacts.
//!
//! The read-side companion to `HELCFL_TRACE=jsonl`: everything the
//! workspace emits (span trees, per-device schedules, metrics lines,
//! bench reports) can be interpreted and verified from here.
//!
//! ```text
//! helcfl-trace tree   [PATH] [--round N] [--max-depth D] [--limit N]
//! helcfl-trace phases [PATH] [--json]
//! helcfl-trace check  [PATH]
//! helcfl-trace audit  [PATH]
//! helcfl-trace watch  [PATH] [--interval-ms N] [--max-polls N]
//! helcfl-trace diff   BASELINE CANDIDATE [--json] [--ignore-manifest]
//! helcfl-trace flame  [PATH] [--out FILE]
//! helcfl-trace series [PATH] [--json] [--window N] [--mad-k X]
//! helcfl-trace gate   BASELINE CANDIDATE
//! ```
//!
//! `PATH` defaults to `results/trace_reproduce.jsonl`. Each
//! subcommand declares its flags, and any other flag is refused with
//! its name. Every subcommand exits non-zero on failure: `check`
//! enforces the ≥ 80 % per-round span-coverage rule, `audit` replays
//! the trace against the paper's analytic model (slack ≥ 0, TDMA
//! serialization, Alg. 3 delay-neutrality, `E ∝ f²` consistency,
//! metrics/span agreement), and `gate` diffs two bench reports —
//! kernel, population-scaling or `bench_suite` — record by record,
//! each record bounded by its own `bound` (see [`helcfl_bench::gate`]).
//! `diff` compares two *traces* and gates nothing: it refuses
//! cross-experiment comparisons via their `run_manifest` provenance
//! lines (and unreadable traces), and otherwise reports per-phase
//! p50/p99/total deltas, a metrics diff, an audit diff, and a ranked
//! attribution of the round-time delta, exiting 0.
//!
//! `flame` exports folded stacks (`path;to;span self_µs`) consumable
//! by flamegraph.pl / speedscope; `series` prints the per-round
//! timeseries with rolling-median/MAD anomaly flags, catching phases
//! that drift *within* one long run.
//!
//! `watch` tails a trace that is *still being written*. The runner
//! flushes at every round barrier, but its file buffer can also spill
//! in the middle of a round, so each poll parses the well-formed
//! prefix: a partially-flushed tail line and spans whose `round` has
//! not landed are skipped, not fatal. It announces each run_manifest
//! as it appears, prints a one-line snapshot whenever new rounds land
//! (rounds, rounds/s over the seconds the round spans cover, and the
//! top three phases with their share and mean µs), and exits once the
//! trailing metrics line marks the run finished.

use std::process::ExitCode;
use std::time::Duration;

use helcfl_bench::gate::gate;
use helcfl_bench::Args;
use helcfl_telemetry::analyze::{
    check_coverage, folded_stacks, mad_flags, phase_breakdown, round_series, SpanTree, Trace,
};
use helcfl_telemetry::audit::{audit, AuditConfig};
use helcfl_telemetry::diff::{diff_traces, DiffConfig};
use helcfl_telemetry::json::JsonObject;

const DEFAULT_TRACE: &str = "results/trace_reproduce.jsonl";

const USAGE: &str =
    "usage: helcfl-trace <tree|phases|check|audit|watch|diff|flame|series|gate> [args]
  tree   [PATH] [--round N] [--max-depth D] [--limit N]   render span trees
  phases [PATH] [--json]                                  per-round phase table
  check  [PATH]                                           schema + coverage check
  audit  [PATH]                                           model-invariant audit
  watch  [PATH] [--interval-ms N] [--max-polls N]         tail a growing trace
  diff   BASELINE CANDIDATE [--json] [--ignore-manifest]  cross-run trace diff
              (informational; refuses mismatched run_manifest provenance)
  flame  [PATH] [--out FILE]                              folded-stack export
  series [PATH] [--json] [--window N] [--mad-k X]         per-round timeseries
              (rolling-median/MAD anomaly flags)
  gate   BASELINE CANDIDATE                               bench regression gate
              (kernels, population or bench_suite reports, per-record bounds)
PATH defaults to results/trace_reproduce.jsonl";

/// The trace a subcommand reads: its first positional argument, or
/// [`DEFAULT_TRACE`].
fn trace_path(args: &Args) -> &str {
    args.positional.first().map_or(DEFAULT_TRACE, String::as_str)
}

/// An unsigned integer flag's value, `None` when not given.
fn count(args: &Args, flag: &str) -> Result<Option<usize>, String> {
    Ok(args.value(flag, "an unsigned integer")?)
}

fn cmd_tree(args: &Args) -> Result<(), String> {
    let trace = Trace::load(trace_path(args))?;
    let tree = SpanTree::build(&trace)?;
    let max_depth = count(args, "--max-depth")?.unwrap_or(8);
    let limit = count(args, "--limit")?.unwrap_or(5);
    let round_filter = count(args, "--round")?;

    let mut roots = Vec::new();
    for root in tree.roots() {
        let wanted = match round_filter {
            Some(n) => root.name == "round" && root.optional::<u64>("index")? == Some(n as u64),
            None => true,
        };
        if wanted {
            roots.push(root);
        }
    }
    if roots.is_empty() {
        return Err(match round_filter {
            Some(n) => format!("no round span with index {n}"),
            None => "no root spans".to_string(),
        });
    }
    for root in roots.iter().take(limit) {
        print!("{}", tree.render(root.id, max_depth));
        let path = tree.critical_path(root.id);
        if path.len() > 1 {
            let names: Vec<&str> = path.iter().map(|s| s.name.as_str()).collect();
            println!("  critical path: {}", names.join(" → "));
        }
    }
    if roots.len() > limit {
        println!(
            "({} more root spans not shown; raise --limit to see them)",
            roots.len() - limit
        );
    }
    Ok(())
}

fn cmd_phases(args: &Args) -> Result<(), String> {
    let trace = Trace::load(trace_path(args))?;
    let tree = SpanTree::build(&trace)?;
    let breakdown = phase_breakdown(&trace, &tree);
    if breakdown.rounds == 0 {
        return Err("no round spans — was a federated run traced?".to_string());
    }
    if args.switch("--json") {
        println!("{}", breakdown.to_json().finish());
    } else {
        print!("{}", breakdown.render());
    }
    Ok(())
}

fn cmd_check(args: &Args) -> Result<(), String> {
    let path = trace_path(args);
    let trace = Trace::load(path)?;
    let report = check_coverage(&trace)?;
    for warning in &report.warnings {
        eprintln!("warning: {warning}");
    }
    println!("{path}: OK — {}", report.summary());
    Ok(())
}

fn cmd_audit(args: &Args) -> Result<(), String> {
    let path = trace_path(args);
    let trace = Trace::load(path)?;
    let report = audit(&trace, &AuditConfig::default())?;
    print!("{path}: {}", report.render());
    if report.passed() {
        Ok(())
    } else {
        Err(format!("{} invariant violation(s)", report.violations.len()))
    }
}

/// Tails a growing trace file. Each poll re-reads the file, parses the
/// well-formed prefix leniently, and prints a one-line snapshot when
/// new rounds have landed. Exits when the trailing metrics line
/// appears (the writer called `finish()`), or after `--max-polls`
/// polls — both are success: a watcher outliving its run is not a
/// trace defect.
fn cmd_watch(args: &Args) -> Result<(), String> {
    let path = trace_path(args);
    let interval =
        Duration::from_millis(count(args, "--interval-ms")?.unwrap_or(500) as u64);
    let max_polls = count(args, "--max-polls")?.unwrap_or(usize::MAX);
    let mut last_rounds = 0usize;
    let mut seen_manifests = 0usize;
    let mut reported_final = false;
    let mut polls = 0usize;
    loop {
        // The file may not exist yet (watch started before the run).
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let (trace, pending) = Trace::parse_prefix(&text);
        let finished = trace.metrics.is_some();
        // Announce provenance as soon as the runner stamps it, so a
        // watcher knows *which* run it is tailing.
        for m in trace.manifests.iter().skip(seen_manifests) {
            let id = &m.identity;
            let resumed = m.start_round.map_or(String::new(), |r| format!(" start_round={r}"));
            println!(
                "watch: run_manifest scheme={} seed={} fleet={} mode={} threads={}{resumed}",
                id.scheme, id.seed, id.fleet_size, m.trace_mode, m.threads
            );
        }
        seen_manifests = seen_manifests.max(trace.manifests.len());
        if !trace.spans.is_empty() {
            // Lenient parsing guarantees every surviving span's parent
            // chain resolves, so the tree build cannot fail here.
            let tree = SpanTree::build(&trace)?;
            let b = phase_breakdown(&trace, &tree);
            if b.rounds > last_rounds || (finished && !reported_final) {
                last_rounds = b.rounds;
                reported_final = finished;
                let spanned_us = b.rounds_total_us.max(1) as f64;
                let top: Vec<String> = b
                    .phases
                    .iter()
                    .take(3)
                    .map(|p| {
                        format!(
                            "{} {:.0}% {:.0}µs",
                            p.name,
                            100.0 * p.total_us as f64 / spanned_us,
                            p.total_us as f64 / p.count as f64
                        )
                    })
                    .collect();
                let top = if top.is_empty() { "-".to_string() } else { top.join(", ") };
                println!(
                    "watch: {} round(s), {:.2} s spanned, {:.1} rounds/s, top phases {top}, \
                     {pending} pending line(s)",
                    b.rounds,
                    b.rounds_total_us as f64 / 1e6,
                    b.rounds as f64 * 1e6 / spanned_us,
                );
            }
        }
        if finished {
            println!("watch: run finished — metrics line seen");
            return Ok(());
        }
        polls += 1;
        if polls >= max_polls {
            println!("watch: stopped after {polls} poll(s) without a metrics line");
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// Cross-run trace diff: refuse incompatible runs, then report deltas.
fn cmd_diff(args: &Args) -> Result<(), String> {
    let [baseline, candidate] = args.positional.as_slice() else {
        return Err("diff wants exactly two paths: BASELINE CANDIDATE".to_string());
    };
    let base = Trace::load(baseline)?;
    let cand = Trace::load(candidate)?;
    let cfg = DiffConfig { ignore_manifest: args.switch("--ignore-manifest") };
    let report = diff_traces(&base, &cand, &cfg)?;
    if args.switch("--json") {
        println!("{}", report.to_json().finish());
    } else {
        print!("{}", report.render());
    }
    Ok(())
}

/// Folded-stack export: one `path;to;span self_µs` line per stack,
/// directly consumable by flamegraph.pl or speedscope.
fn cmd_flame(args: &Args) -> Result<(), String> {
    let trace = Trace::load(trace_path(args))?;
    let tree = SpanTree::build(&trace)?;
    let stacks = folded_stacks(&tree);
    if stacks.is_empty() {
        return Err("no spans with self-time — was anything traced?".to_string());
    }
    let mut out = String::new();
    for (path, self_us) in &stacks {
        out.push_str(path);
        out.push(' ');
        out.push_str(&self_us.to_string());
        out.push('\n');
    }
    match args.value::<String>("--out", "a path")? {
        Some(path) => std::fs::write(&path, &out)
            .map_err(|e| format!("cannot write {path}: {e}"))?,
        None => print!("{out}"),
    }
    Ok(())
}

/// Per-round timeseries with rolling-median/MAD anomaly flags.
fn cmd_series(args: &Args) -> Result<(), String> {
    let trace = Trace::load(trace_path(args))?;
    let tree = SpanTree::build(&trace)?;
    let points = round_series(&trace, &tree)?;
    if points.is_empty() {
        return Err("no round spans — was a federated run traced?".to_string());
    }
    let window = count(args, "--window")?.unwrap_or(16);
    let mad_k = args.value("--mad-k", "a number")?.unwrap_or(5.0);
    let durations: Vec<f64> = points.iter().map(|p| p.dur_us as f64).collect();
    let flags = mad_flags(&durations, window, mad_k);
    if args.switch("--json") {
        let rows: Vec<JsonObject> = points
            .iter()
            .zip(&flags)
            .map(|(p, &anomalous)| {
                let mut row = JsonObject::new();
                row.field("round", p.index);
                row.field("t_us", p.t_us);
                row.field("dur_us", p.dur_us);
                row.field("anomalous", anomalous);
                let mut phases = JsonObject::new();
                for (name, us) in &p.phases {
                    phases.field(name, *us);
                }
                row.object("phases", phases);
                row
            })
            .collect();
        let mut doc = JsonObject::new();
        doc.field("rounds", points.len() as u64);
        doc.field("window", window as u64);
        doc.field("mad_k", mad_k);
        doc.field("anomalies", flags.iter().filter(|&&f| f).count() as u64);
        doc.field("points", rows);
        println!("{}", doc.finish());
    } else {
        let anomalies = flags.iter().filter(|&&f| f).count();
        println!(
            "series: {} round(s), window {window}, mad-k {mad_k}, {anomalies} anomalie(s)",
            points.len()
        );
        for (p, &anomalous) in points.iter().zip(&flags) {
            let label = p
                .index
                .map_or_else(|| "?".to_string(), |i| i.to_string());
            let top = p.phases.iter().max_by_key(|(_, us)| *us).map_or_else(
                || "-".to_string(),
                |(name, us)| format!("{name} {us} µs"),
            );
            println!(
                "  round {label:>4}  {:>10} µs  top {top}{}",
                p.dur_us,
                if anomalous { "  ← ANOMALY" } else { "" },
            );
        }
    }
    Ok(())
}

fn cmd_gate(args: &Args) -> Result<(), String> {
    let [baseline, candidate] = args.positional.as_slice() else {
        return Err("gate wants exactly two paths: BASELINE CANDIDATE".to_string());
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let report = gate(&read(baseline)?, &read(candidate)?)?;
    print!("{}", report.render());
    if report.passed() {
        Ok(())
    } else {
        Err("performance regression beyond tolerance".to_string())
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    type Cmd = fn(&Args) -> Result<(), String>;
    let run = || -> Result<(), String> {
        // Each subcommand: its function, the flags taking a value, and
        // its presence-only switches.
        let (cmd_fn, values, switches): (Cmd, &[&str], &[&str]) = match cmd.as_str() {
            "tree" => (cmd_tree, &["--round", "--max-depth", "--limit"], &[]),
            "phases" => (cmd_phases, &[], &["--json"]),
            "check" => (cmd_check, &[], &[]),
            "audit" => (cmd_audit, &[], &[]),
            "watch" => (cmd_watch, &["--interval-ms", "--max-polls"], &[]),
            "diff" => (cmd_diff, &[], &["--json", "--ignore-manifest"]),
            "flame" => (cmd_flame, &["--out"], &[]),
            "series" => (cmd_series, &["--window", "--mad-k"], &["--json"]),
            "gate" => (cmd_gate, &[], &[]),
            other => return Err(format!("unknown subcommand {other:?}\n{USAGE}")),
        };
        cmd_fn(&Args::parse(rest, values, switches)?)
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("helcfl-trace {cmd}: FAIL — {msg}");
            ExitCode::FAILURE
        }
    }
}

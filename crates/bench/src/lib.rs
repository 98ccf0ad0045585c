//! # helcfl-bench — the evaluation harness
//!
//! Regenerates every table and figure of the HELCFL paper's §VII:
//!
//! | Artifact | Binary | What it prints |
//! |---|---|---|
//! | Fig. 1 | `fig1_slack` | the TDMA slack Gantt chart |
//! | Fig. 2 | `fig2_accuracy` | accuracy-vs-iteration series, 5 schemes × {IID, Non-IID} |
//! | Table I | `table1_delay` | training delay to desired accuracy |
//! | Fig. 3 | `fig3_energy` | energy to desired accuracy, DVFS on vs off |
//! | A1 | `ablation_eta` | decay-coefficient sweep |
//! | A2 | `ablation_fraction` | selection-fraction sweep |
//! | A3 | `ablation_slack` | slack utilization across rounds |
//!
//! Pass `--fast` to any binary for a reduced-scale smoke run; results
//! land in `results/` as CSV plus console tables.
//!
//! Performance benchmarks use no external harness: the
//! `bench_round_engine` binary times the round engine and the matmul
//! kernels with [`std::time::Instant`] and writes
//! `results/BENCH_round_engine.json` through the hand-rolled
//! [`helcfl_telemetry::json`] emitter (rounds/sec serial vs parallel, speedup, matmul GFLOP/s,
//! per-round latency percentiles from a traced run).
//!
//! The `helcfl-trace` binary is the read side: `tree`/`phases` render
//! a trace, `check` enforces span coverage (the old `check_trace`
//! binary delegates to the same code), `audit` replays the trace
//! against the paper's model invariants, and `gate` (backed by the
//! [`gate`] module) diffs two bench reports against regression
//! tolerances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod report;
pub mod scenario;
pub mod schemes;

pub use scenario::{PaperScenario, Setting};
pub use schemes::Scheme;

use helcfl_telemetry::Telemetry;

/// Parses the shared `--fast` / `--seed N` / `--setting X` /
/// `--trace-out PATH` CLI flags used by every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// Run the reduced-scale scenario.
    pub fast: bool,
    /// Master seed override.
    pub seed: Option<u64>,
    /// Restrict to one data setting.
    pub setting: Option<Setting>,
    /// Stream span/event JSONL to this path (overrides `HELCFL_TRACE`).
    pub trace_out: Option<String>,
}

impl CommonArgs {
    /// Parses flags from an iterator of CLI arguments (excluding the
    /// program name). Unknown flags are ignored so binaries can add
    /// their own.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        let mut out = Self { fast: false, seed: None, setting: None, trace_out: None };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--fast" => out.fast = true,
                "--trace-out" => {
                    if let Some(v) = args.get(i + 1) {
                        out.trace_out = Some(v.clone());
                        i += 1;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        out.seed = Some(v);
                        i += 1;
                    }
                }
                "--setting" => {
                    out.setting = match args.get(i + 1).map(String::as_str) {
                        Some("iid") => Some(Setting::Iid),
                        Some("noniid") => Some(Setting::NonIid),
                        _ => None,
                    };
                    if out.setting.is_some() {
                        i += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        out
    }

    /// The scenario implied by the flags.
    pub fn scenario(&self) -> PaperScenario {
        let mut s = if self.fast { PaperScenario::fast() } else { PaperScenario::default() };
        if let Some(seed) = self.seed {
            s.seed = seed;
        }
        s
    }

    /// The settings to sweep (both unless `--setting` was given).
    pub fn settings(&self) -> Vec<Setting> {
        match self.setting {
            Some(s) => vec![s],
            None => vec![Setting::Iid, Setting::NonIid],
        }
    }

    /// The telemetry handle implied by the flags: `--trace-out PATH`
    /// streams JSONL to `PATH`; otherwise the `HELCFL_TRACE`
    /// environment variable decides (see [`Telemetry::from_env`]),
    /// with `name` picking the default `results/trace_{name}.jsonl`
    /// file. An unwritable path degrades to metrics-only with a
    /// warning rather than aborting the experiment.
    pub fn telemetry(&self, name: &str) -> Telemetry {
        match &self.trace_out {
            Some(path) => Telemetry::to_file(path).unwrap_or_else(|err| {
                eprintln!("warning: cannot open trace file {path}: {err}; tracing disabled");
                Telemetry::metrics_only()
            }),
            None => Telemetry::from_env(name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CommonArgs {
        CommonArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_fast_seed_and_setting() {
        let a = parse(&["--fast", "--seed", "7", "--setting", "noniid"]);
        assert!(a.fast);
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.setting, Some(Setting::NonIid));
        assert_eq!(a.trace_out, None);
        assert_eq!(a.settings(), vec![Setting::NonIid]);
        assert_eq!(a.scenario().seed, 7);
        assert_eq!(a.scenario().num_devices, PaperScenario::fast().num_devices);
    }

    #[test]
    fn defaults_to_full_scenario_both_settings() {
        let a = parse(&[]);
        assert!(!a.fast);
        assert_eq!(a.settings(), vec![Setting::Iid, Setting::NonIid]);
        assert_eq!(a.scenario(), PaperScenario::default());
    }

    #[test]
    fn ignores_unknown_flags_and_bad_values() {
        let a = parse(&["--whatever", "--seed", "notanumber", "--setting", "weird"]);
        assert_eq!(a.seed, None);
        assert_eq!(a.setting, None);
        assert_eq!(a.trace_out, None);
    }

    #[test]
    fn trace_out_flag_builds_a_streaming_telemetry_handle() {
        let dir = std::env::temp_dir().join("helcfl_bench_trace_out_test");
        let path = dir.join("trace.jsonl");
        let a = parse(&["--trace-out", path.to_str().unwrap()]);
        assert_eq!(a.trace_out.as_deref(), path.to_str());
        let tele = a.telemetry("test");
        assert!(tele.is_enabled());
        assert!(tele.events_enabled());
        tele.span("probe").end();
        tele.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(r#""name":"probe""#), "got: {text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

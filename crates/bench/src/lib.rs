//! # helcfl-bench — the evaluation harness
//!
//! Regenerates every table and figure of the HELCFL paper's §VII, and
//! this reproduction's ablations and fault sweep, from one binary,
//! `reproduce`. It plans the distinct training runs, trains each once,
//! writes each history to `results/<setting>_<run>.csv`, and prints
//! every artifact as a view over the finished runs:
//!
//! | Artifact | What it prints |
//! |---|---|
//! | Fig. 1 | the TDMA slack Gantt chart (no training) |
//! | Fig. 2 | best and final accuracy and accuracy curves, 5 schemes |
//! | Table I | training delay to desired accuracy, HELCFL's speedups |
//! | Fig. 3 | energy to desired accuracy, DVFS on vs off |
//! | A1 | decay-coefficient η sweep |
//! | A2 | selection-fraction C sweep |
//! | A3 | slack utilization across rounds |
//! | A4 | battery-constrained training, DVFS on vs off |
//! | Faults | the five schemes at uniform device fault rates 0–0.3 |
//!
//! `--fast` runs the reduced-scale scenario, `--setting iid|noniid`
//! one data setting and `--seed N` another master seed (see
//! [`CommonArgs`]).
//!
//! Performance benchmarks use no external harness: `bench_kernels`
//! (per-kernel GFLOP/s) and `bench_population` (the control plane at
//! fleet scale) time with [`std::time::Instant`] and write
//! `results/BENCH_*.json` through the hand-rolled
//! [`helcfl_telemetry::json`] emitter, as flat [`gate::Record`]s. The
//! experiment-level benchmark is the standalone `bench_suite` package.
//!
//! The `helcfl-trace` binary is the read side: `tree`/`phases` render
//! a trace, `check` enforces span coverage, `audit` replays the trace
//! against the paper's model invariants, and `gate` (backed by the
//! [`gate`] module) holds a candidate bench report to a baseline's
//! per-record bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod report;
pub mod scenario;
pub mod schemes;

pub use scenario::{PaperScenario, Setting};
pub use schemes::Scheme;

use std::process::ExitCode;

use helcfl_telemetry::Telemetry;

/// A command-line argument [`Args::parse`] or a binary refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError {
    /// The flag, or the stray argument, as given on the command line.
    pub flag: String,
    /// Why it was refused.
    pub reason: String,
}

impl core::fmt::Display for ArgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}: {}", self.flag, self.reason)
    }
}

impl std::error::Error for ArgError {}

impl From<ArgError> for String {
    fn from(e: ArgError) -> Self {
        e.to_string()
    }
}

/// A command line split by its declared flags: the one flag parser of
/// every binary in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The arguments that are not flags, in order.
    pub positional: Vec<String>,
    /// Each flag given, with the argument after it for a value flag
    /// (`None` for a switch, or when the line ends first).
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Splits `raw` by the declared flags (each spelt `--name`): a flag
    /// in `values` takes the next argument as its value, a flag in
    /// `switches` stands alone, and an argument not starting with `--`
    /// is positional.
    ///
    /// # Errors
    ///
    /// An [`ArgError`] naming the first flag that is not declared or is
    /// given twice.
    pub fn parse(raw: &[String], values: &[&str], switches: &[&str]) -> Result<Self, ArgError> {
        let mut out = Self { positional: Vec::new(), flags: Vec::new() };
        let mut raw = raw.iter();
        while let Some(arg) = raw.next() {
            let refuse = |reason: String| Err(ArgError { flag: arg.clone(), reason });
            if !arg.starts_with("--") {
                out.positional.push(arg.clone());
            } else if out.flags.iter().any(|(f, _)| f == arg) {
                return refuse("given more than once".into());
            } else if values.contains(&arg.as_str()) {
                out.flags.push((arg.clone(), raw.next().cloned()));
            } else if switches.contains(&arg.as_str()) {
                out.flags.push((arg.clone(), None));
            } else {
                let declared: Vec<&str> = values.iter().chain(switches).copied().collect();
                return refuse(match declared.as_slice() {
                    [] => "unknown flag (this command takes none)".into(),
                    _ => format!("unknown flag (expected one of {})", declared.join(", ")),
                });
            }
        }
        Ok(out)
    }

    /// Refuses a positional argument: for commands that take flags
    /// only.
    ///
    /// # Errors
    ///
    /// An [`ArgError`] naming the first positional argument.
    pub fn flags_only(self) -> Result<Self, ArgError> {
        match self.positional.first() {
            Some(arg) => Err(ArgError {
                flag: arg.clone(),
                reason: "unexpected argument (this command takes flags only)".into(),
            }),
            None => Ok(self),
        }
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value given for `flag`, parsed as `what`; `None` when the
    /// flag was not given.
    ///
    /// # Errors
    ///
    /// An [`ArgError`] for `flag` when its value is missing or
    /// malformed.
    pub fn value<T: std::str::FromStr>(
        &self,
        flag: &str,
        what: &str,
    ) -> Result<Option<T>, ArgError> {
        let Some((_, value)) = self.flags.iter().find(|(f, _)| f == flag) else {
            return Ok(None);
        };
        let refuse = |reason| ArgError { flag: flag.to_string(), reason };
        let v = value.as_ref().ok_or_else(|| refuse(format!("missing value (expected {what})")))?;
        v.parse().map(Some).map_err(|_| refuse(format!("'{v}' is not {what}")))
    }
}

/// The exit of a binary whose work is `result`: success, or its error
/// printed as `<bin>: <error>` on stderr and exit code 1.
pub fn exit_code(bin: &str, result: Result<(), Box<dyn std::error::Error>>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("{bin}: {err}");
            ExitCode::FAILURE
        }
    }
}

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
    /// program name).
    ///
    /// # Errors
    ///
    /// Refuses, naming the flag, an unknown or repeated flag, a stray
    /// argument, a flag whose value is missing or malformed, and a
    /// `--trace-out` path that cannot be created.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let raw: Vec<String> = args.into_iter().collect();
        let args = Args::parse(&raw, &["--seed", "--setting", "--trace-out"], &["--fast"])?
            .flags_only()?;
        let out = Self {
            fast: args.switch("--fast"),
            seed: args.value("--seed", "an unsigned integer")?,
            setting: args.value("--setting", "iid or noniid")?,
            trace_out: args.value("--trace-out", "a path")?,
        };
        if let Some(path) = &out.trace_out {
            // Create the file now, so an unwritable path stops the
            // binary before it trains anything.
            Telemetry::to_file(path).map_err(|e| ArgError {
                flag: "--trace-out".into(),
                reason: format!("cannot create '{path}': {e}"),
            })?;
        }
        Ok(out)
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
    /// file.
    ///
    /// # Errors
    ///
    /// Fails when the `--trace-out` or `HELCFL_TRACE` file cannot be
    /// created.
    pub fn telemetry(&self, name: &str) -> std::io::Result<Telemetry> {
        match &self.trace_out {
            Some(path) => Telemetry::to_file(path),
            None => Telemetry::from_env(name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(args: &[&str]) -> Result<CommonArgs, ArgError> {
        CommonArgs::parse(args.iter().map(|s| s.to_string()))
    }

    fn parse(args: &[&str]) -> CommonArgs {
        try_parse(args).unwrap()
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
    fn refuses_unknown_flags_and_bad_values_naming_the_flag() {
        let refused = |args: &[&str], flag: &str| {
            let err = try_parse(args).unwrap_err();
            assert_eq!(err.flag, flag, "{args:?}: {err}");
            assert!(err.to_string().starts_with(flag), "{err}");
        };
        refused(&["--whatever"], "--whatever");
        refused(&["--fast", "--seeed", "7"], "--seeed");
        refused(&["--seed", "notanumber"], "--seed");
        refused(&["--seed", "-3"], "--seed");
        refused(&["--seed"], "--seed");
        refused(&["--setting", "weird"], "--setting");
        refused(&["--setting"], "--setting");
        refused(&["--trace-out"], "--trace-out");
        refused(&["--fast", "--fast"], "--fast");
        refused(&["7"], "7");
        // A path under a regular file can never be created.
        let file = std::env::temp_dir().join("helcfl_bench_args_not_a_dir");
        std::fs::write(&file, "").unwrap();
        refused(&["--trace-out", file.join("trace.jsonl").to_str().unwrap()], "--trace-out");
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn args_split_declared_flags_and_refuse_the_rest_by_name() {
        let raw = |line: &[&str]| line.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let parse = |line: &[&str]| Args::parse(&raw(line), &["--n", "--x"], &["--json"]);
        let a = parse(&["in.jsonl", "--n", "3", "--json", "out"]).unwrap();
        assert_eq!(a.positional, ["in.jsonl", "out"]);
        assert!(a.switch("--json"));
        assert_eq!(a.value::<usize>("--n", "a count"), Ok(Some(3)));
        assert_eq!(a.value::<f64>("--x", "a number"), Ok(None));
        // A value flag takes the next argument whatever it looks like.
        let n = parse(&["--n", "--json"]).unwrap().value::<String>("--n", "a word");
        assert_eq!(n, Ok(Some("--json".to_string())));
        let count = |line: &[&str]| parse(line).unwrap().value::<usize>("--n", "a count");
        for (err, flag, says) in [
            (parse(&["--jsn"]).unwrap_err(), "--jsn", "unknown flag (expected one of --n, --x, --json)"),
            (parse(&["--json", "--json"]).unwrap_err(), "--json", "given more than once"),
            (parse(&["--n", "1", "--n", "x"]).unwrap_err(), "--n", "given more than once"),
            (count(&["--n"]).unwrap_err(), "--n", "missing value (expected a count)"),
            (count(&["--n", "-1"]).unwrap_err(), "--n", "'-1' is not a count"),
            (parse(&["stray"]).unwrap().flags_only().unwrap_err(), "stray", "unexpected argument"),
            (
                Args::parse(&raw(&["--json"]), &[], &[]).unwrap_err(),
                "--json",
                "unknown flag (this command takes none)",
            ),
        ] {
            assert_eq!(err.flag, flag, "{err}");
            assert!(err.to_string().starts_with(&format!("{flag}: {says}")), "{err}");
        }
    }

    #[test]
    fn trace_out_flag_builds_a_streaming_telemetry_handle() {
        let dir = std::env::temp_dir().join("helcfl_bench_trace_out_test");
        let path = dir.join("trace.jsonl");
        let a = parse(&["--trace-out", path.to_str().unwrap()]);
        assert_eq!(a.trace_out.as_deref(), path.to_str());
        let tele = a.telemetry("test").unwrap();
        assert!(tele.is_enabled());
        assert!(tele.events_enabled());
        tele.span("probe").end();
        tele.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(r#""name":"probe""#), "got: {text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Chaos kill–resume harness: proves the checkpoint/resume subsystem
//! survives real SIGKILLs, torn checkpoint writes, and tampered files.
//!
//! The parent (`--smoke`) first computes the golden uninterrupted
//! history in-process (fast IID scenario, HELCFL scheme — the same run
//! `results/golden/history_fast_iid_helcfl.csv` pins). It then drives
//! a child-process gauntlet against one checkpoint directory:
//!
//! 1. five seeded SIGKILLs at strictly increasing random rounds
//!    (`HELCFL_CHAOS_KILL_AT`, a real uncatchable `kill -9` delivered
//!    from inside the child at the end of the round),
//! 2. one torn checkpoint write (`HELCFL_CHAOS_TORN_AT`: half the
//!    body lands in the slot file with no atomic rename protecting
//!    it, then the process dies) — the next resume must detect the
//!    corruption by checksum and fall back to the ring's other slot,
//! 3. a final clean run that resumes and finishes.
//!
//! The final history CSV must equal the golden run **byte for byte**.
//! A tamper pass then bit-flips both ring slots and asserts the next
//! child refuses to resume, naming the checksum mismatch.
//!
//! Children read `HELCFL_CHECKPOINT=dir:interval` once, through
//! `CheckpointConfig::from_env`, and put it on their own
//! `TrainingConfig`, as `reproduce` does for each planned run.
//!
//! Usage: `chaos_resume --smoke [--seed N] [--golden CSV]` (CI) or
//! `chaos_resume --child --out CSV` (internal child mode). An unknown
//! flag, a flag the chosen mode does not take, and a missing or
//! malformed value are refused by name before anything runs.

use std::error::Error;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use detrand::Rng;
use fl_sim::checkpoint::{CheckpointConfig, CHAOS_KILL_ENV, CHAOS_TORN_ENV, CHECKPOINT_ENV};
use fl_sim::runner::TrainingConfig;
use helcfl_bench::{ArgError, Args, PaperScenario, Scheme, Setting};

/// Checkpoint every this many rounds in the gauntlet; kept at 2 so
/// kills at odd rounds land between checkpoints and resumes must
/// replay work.
const INTERVAL: usize = 2;

/// Seeded SIGKILL schedule: `kills` strictly increasing rounds in
/// `2..max_rounds - 2`, plus one even (checkpoint-aligned) torn-write
/// round strictly after the last kill.
fn chaos_schedule(seed: u64, kills: usize, max_rounds: usize) -> (Vec<usize>, usize) {
    let mut rng = Rng::seed_from_u64(seed);
    let lo = 2;
    let hi = max_rounds - 2;
    let mut rounds: Vec<usize> =
        rng.sample_indices(hi - lo, kills).into_iter().map(|r| r + lo).collect();
    rounds.sort_unstable();
    // The torn write needs a round the cadence actually saves on
    // (multiple of INTERVAL) after every kill, so each chaos event is
    // reached by the run resumed from the previous one.
    let last = *rounds.last().expect("kills >= 1");
    let torn = if (last + 1).is_multiple_of(INTERVAL) { last + 1 } else { last + 2 };
    (rounds, torn)
}

fn golden_csv() -> Result<String, Box<dyn Error>> {
    let scenario = PaperScenario::fast();
    let config = scenario.training_config();
    let mut setup = scenario.setup(Setting::Iid)?;
    let scheme = Scheme::Helcfl { eta: 0.5, dvfs: true };
    Ok(scheme.run(&mut setup, &config)?.to_csv())
}

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Mode {
    /// The gauntlet: its kill schedule seeded by `seed`, its final
    /// history optionally checked against the pinned CSV `golden`.
    Smoke { seed: u64, golden: Option<String> },
    /// One checkpointing child run writing its history to `out`.
    Child { out: String },
}

/// Parses the flags. `--child` selects child mode; any other command
/// line must name `--smoke`. Each mode declares its own flags, so one
/// the selected mode does not take is refused as unknown.
fn parse_args(raw: Vec<String>) -> Result<Mode, ArgError> {
    let child = raw.iter().any(|a| a == "--child");
    let (usage, values, switches): (_, &[&str], &[&str]) = if child {
        ("--child --out CSV", &["--out"], &["--child"])
    } else {
        ("--smoke [--seed N] [--golden CSV]", &["--seed", "--golden"], &["--smoke"])
    };
    let args = Args::parse(&raw, values, switches)?.flags_only()?;
    let missing = |flag: &str| ArgError {
        flag: flag.to_string(),
        reason: format!("missing (usage: chaos_resume {usage})"),
    };
    if child {
        Ok(Mode::Child { out: args.value("--out", "a path")?.ok_or_else(|| missing("--out"))? })
    } else if args.switch("--smoke") {
        Ok(Mode::Smoke {
            seed: args.value("--seed", "an unsigned integer")?.unwrap_or(2022),
            golden: args.value("--golden", "a path")?,
        })
    } else {
        Err(missing("--smoke"))
    }
}

/// Child mode: one fast-IID HELCFL run checkpointing into the ring
/// the parent's `HELCFL_CHECKPOINT` names. Writes the history CSV to
/// `out` when (if) the run completes.
fn run_child(out: &str) -> Result<(), Box<dyn Error>> {
    let checkpoint =
        CheckpointConfig::from_env()?.ok_or(format!("--child needs {CHECKPOINT_ENV}"))?;
    let scenario = PaperScenario::fast();
    let config = TrainingConfig { checkpoint: Some(checkpoint), ..scenario.training_config() };
    let mut setup = scenario.setup(Setting::Iid)?;
    let scheme = Scheme::Helcfl { eta: 0.5, dvfs: true };
    let history = scheme.run(&mut setup, &config)?;
    fs::write(out, history.to_csv())?;
    Ok(())
}

struct Gauntlet {
    exe: PathBuf,
    dir: PathBuf,
    out: PathBuf,
}

impl Gauntlet {
    /// Spawns one child. `chaos` optionally names an env var and the
    /// round it triggers at. Returns (success, stderr).
    fn spawn(&self, chaos: Option<(&str, usize)>) -> Result<(bool, String), Box<dyn Error>> {
        let mut cmd = Command::new(&self.exe);
        cmd.args(["--child", "--out"])
            .arg(&self.out)
            .env(CHECKPOINT_ENV, format!("{}:{INTERVAL}", self.dir.display()))
            .env_remove(CHAOS_KILL_ENV)
            .env_remove(CHAOS_TORN_ENV);
        if let Some((var, round)) = chaos {
            cmd.env(var, round.to_string());
        }
        let output = cmd.output()?;
        Ok((output.status.success(), String::from_utf8_lossy(&output.stderr).into_owned()))
    }
}

fn first_divergence(golden: &str, actual: &str) {
    for (line, (g, a)) in golden.lines().zip(actual.lines()).enumerate() {
        if g != a {
            eprintln!(
                "first divergence at line {}:\n  golden: {g}\n  actual: {a}",
                line + 1
            );
            return;
        }
    }
    eprintln!(
        "histories share every common line but differ in length \
         (golden {} lines, actual {})",
        golden.lines().count(),
        actual.lines().count()
    );
}

/// Flips one bit in the middle of every checkpoint slot in the ring
/// `dir`.
fn tamper_ring(dir: &Path) -> Result<usize, Box<dyn Error>> {
    let mut tampered = 0;
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("checkpoint_") && name.ends_with(".json")) {
            continue;
        }
        let mut bytes = fs::read(&path)?;
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, bytes)?;
        tampered += 1;
    }
    Ok(tampered)
}

fn run_smoke(seed: u64, golden_path: Option<&str>) -> Result<(), Box<dyn Error>> {
    let max_rounds = PaperScenario::fast().max_rounds;
    let (kills, torn) = chaos_schedule(seed, 5, max_rounds);
    println!(
        "chaos schedule (seed {seed}): SIGKILL at rounds {kills:?}, \
         torn checkpoint write at round {torn}, interval {INTERVAL}"
    );

    println!("computing golden uninterrupted history in-process…");
    let golden = golden_csv()?;

    let scratch = std::env::temp_dir().join(format!("helcfl_chaos_{}", std::process::id()));
    let _ = fs::remove_dir_all(&scratch);
    fs::create_dir_all(&scratch)?;
    let gauntlet = Gauntlet {
        exe: std::env::current_exe()?,
        dir: scratch.join("ring"),
        out: scratch.join("history.csv"),
    };

    for (i, &round) in kills.iter().enumerate() {
        let (ok, _) = gauntlet.spawn(Some((CHAOS_KILL_ENV, round)))?;
        if ok {
            return Err(format!(
                "kill #{} at round {round} did not terminate the child — \
                 the chaos hook never fired",
                i + 1
            )
            .into());
        }
        println!("kill #{} at round {round}: child died as scheduled", i + 1);
    }

    let (ok, _) = gauntlet.spawn(Some((CHAOS_TORN_ENV, torn)))?;
    if ok {
        return Err(format!("torn write at round {torn} did not terminate the child").into());
    }
    println!("torn checkpoint write at round {torn}: child died mid-write");

    let (ok, stderr) = gauntlet.spawn(None)?;
    if !ok {
        return Err(format!("final clean run failed to resume:\n{stderr}").into());
    }
    if !stderr.contains("ignoring invalid slot") {
        return Err(format!(
            "the torn slot was not detected and skipped — expected a \
             ring-fallback warning on stderr, got:\n{stderr}"
        )
        .into());
    }
    println!("final run resumed past the torn slot and completed");

    let actual = fs::read_to_string(&gauntlet.out)?;
    if actual != golden {
        first_divergence(&golden, &actual);
        return Err(format!(
            "history after {} kills + 1 torn write diverged from the \
             golden uninterrupted run",
            kills.len()
        )
        .into());
    }
    println!(
        "history after {} kills + 1 torn write is byte-identical to the golden run \
         ({} bytes)",
        kills.len(),
        golden.len()
    );

    // Optional pinned-golden check: `--golden PATH` compares the
    // chaos-run history against a committed CSV (CI passes
    // results/golden/history_fast_iid_helcfl.csv).
    if let Some(path) = golden_path {
        let pinned = fs::read_to_string(path)?;
        if actual != pinned {
            first_divergence(&pinned, &actual);
            return Err(format!("chaos-run history diverged from pinned golden {path}").into());
        }
        println!("chaos-run history matches pinned golden {path} byte-exactly");
    }

    // Tamper pass: with every ring slot bit-flipped, resume must be
    // refused by name, never silently restarted from round 1.
    let tampered = tamper_ring(&gauntlet.dir)?;
    if tampered == 0 {
        return Err("no checkpoint slots left to tamper with".into());
    }
    let (ok, stderr) = gauntlet.spawn(None)?;
    if ok {
        return Err("a child accepted a tampered (bit-flipped) checkpoint ring".into());
    }
    if !stderr.contains("checksum mismatch") {
        return Err(format!(
            "tampered checkpoint was refused, but not by checksum name:\n{stderr}"
        )
        .into());
    }
    println!("tampered ring ({tampered} slots bit-flipped) refused: checksum mismatch named");

    let _ = fs::remove_dir_all(&scratch);
    println!("chaos_resume smoke: all gates passed");
    Ok(())
}

fn main() -> ExitCode {
    helcfl_bench::exit_code("chaos_resume", run())
}

fn run() -> Result<(), Box<dyn Error>> {
    match parse_args(std::env::args().skip(1).collect())? {
        Mode::Smoke { seed, golden } => run_smoke(seed, golden.as_deref()),
        Mode::Child { out } => run_child(&out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &[&str]) -> Result<Mode, ArgError> {
        parse_args(line.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn flags_parse_into_their_mode_or_are_refused_by_name() {
        assert_eq!(args(&["--smoke"]), Ok(Mode::Smoke { seed: 2022, golden: None }));
        assert_eq!(
            args(&["--seed", "7", "--smoke", "--golden", "g.csv"]),
            Ok(Mode::Smoke { seed: 7, golden: Some("g.csv".into()) })
        );
        assert_eq!(args(&["--child", "--out", "h.csv"]), Ok(Mode::Child { out: "h.csv".into() }));
        for (line, flag) in [
            (&["--smoke", "--seed", "x"][..], "--seed"),
            (&["--smoke", "--seed"], "--seed"),
            (&["--smoke", "--sed", "5"], "--sed"),
            (&["--child", "--out", "h.csv", "--seed", "3"], "--seed"),
            (&["--smoke", "--out", "h.csv"], "--out"),
            (&["--child"], "--out"),
            (&["--seed", "3"], "--smoke"),
        ] {
            assert_eq!(args(line).unwrap_err().flag, flag, "{line:?}");
        }
    }

    #[test]
    fn schedule_is_increasing_in_range_and_torn_is_aligned() {
        for seed in [1u64, 2022, 99] {
            let (kills, torn) = chaos_schedule(seed, 5, 30);
            assert_eq!(kills.len(), 5);
            assert!(kills.windows(2).all(|w| w[0] < w[1]), "{kills:?}");
            assert!(kills.iter().all(|&r| (2..28).contains(&r)), "{kills:?}");
            assert!(torn > *kills.last().unwrap());
            assert!(torn.is_multiple_of(INTERVAL), "torn round {torn} misses the cadence");
            assert!(torn <= 30, "torn round {torn} past the run");
        }
        // Distinct seeds produce distinct schedules.
        assert_ne!(chaos_schedule(1, 5, 30), chaos_schedule(2022, 5, 30));
    }
}

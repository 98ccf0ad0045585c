//! `reproduce` end to end at `--fast` scale: the lineup reproduces the
//! committed golden histories, every planned run writes a file of its
//! own, the DVFS and `f_max` arms differ in energy only,
//! `HELCFL_CHECKPOINT` gives every planned run a ring of its own (and
//! a malformed value is refused by name), a run set killed twice
//! resumes to the uninterrupted CSVs, and `HELCFL_TRACE=stderr` leaves
//! a stderr that `helcfl-trace check` reads unfiltered.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The 36 distinct runs of one setting at `--fast` scale, where the
/// lineup's C is 0.2 and the C sweep's 0.1 point is a run of its own.
const RUNS: [&str; 36] = [
    "helcfl",
    "classic",
    "fedcs",
    "fedl",
    "sl",
    "helcfl-nodvfs",
    "helcfl-eta0.1",
    "helcfl-eta0.3",
    "helcfl-eta0.7",
    "helcfl-eta0.9",
    "helcfl-eta0.99",
    "helcfl-c0.05",
    "helcfl-c0.1",
    "helcfl-c0.4",
    "helcfl-battery50",
    "helcfl-nodvfs-battery50",
    "helcfl-battery100",
    "helcfl-nodvfs-battery100",
    "helcfl-battery200",
    "helcfl-nodvfs-battery200",
    "helcfl-faults0.05",
    "classic-faults0.05",
    "fedcs-faults0.05",
    "fedl-faults0.05",
    "helcfl-faults0.1",
    "classic-faults0.1",
    "fedcs-faults0.1",
    "fedl-faults0.1",
    "helcfl-faults0.2",
    "classic-faults0.2",
    "fedcs-faults0.2",
    "fedl-faults0.2",
    "helcfl-faults0.3",
    "classic-faults0.3",
    "fedcs-faults0.3",
    "fedl-faults0.3",
];

/// The `column` values of a history CSV, one per round.
fn column(csv: &str, column: &str) -> Vec<f64> {
    let mut lines = csv.lines();
    let header = lines.next().expect("header line");
    let idx = header.split(',').position(|c| c == column).expect("column in header");
    lines.map(|l| l.split(',').nth(idx).expect("field").parse().expect("number")).collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helcfl_reproduce_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs `reproduce --fast` with `args` and `env` in `dir`, asserting
/// that it succeeded (or, with `killed`, that it did not), and returns
/// its stderr.
fn run_reproduce(dir: &Path, args: &[&str], env: &[(&str, &str)], killed: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("--fast")
        .args(args)
        .env_remove("HELCFL_TRACE")
        .env_remove("HELCFL_CHECKPOINT")
        .env_remove("HELCFL_CHAOS_KILL_AT")
        .envs(env.iter().copied())
        .current_dir(dir)
        .stdout(Stdio::null())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.success(), !killed, "reproduce {args:?} {env:?}: {stderr}");
    stderr
}

fn reproduce(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> String {
    run_reproduce(dir, args, env, false)
}

/// Every CSV under `dir/results`, by file name (none before the
/// directory exists).
fn csvs(dir: &Path) -> Vec<(String, String)> {
    let Ok(entries) = fs::read_dir(dir.join("results")) else {
        return Vec::new();
    };
    let mut files: Vec<(String, String)> = entries
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .map(|p| (p.file_name().unwrap().to_str().unwrap().to_string(), read(&p)))
        .collect();
    files.sort();
    files
}

#[test]
fn fast_iid_run_set_matches_goldens_and_writes_one_file_per_run() {
    let dir = scratch_dir("fast");
    reproduce(&dir, &["--setting", "iid"], &[]);

    let results = dir.join("results");
    let mut written: Vec<String> = fs::read_dir(&results)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter_map(|f| f.strip_suffix(".csv").map(str::to_string))
        .collect();
    written.sort();
    let mut planned: Vec<String> = RUNS.iter().map(|r| format!("iid_{r}")).collect();
    planned.sort();
    assert_eq!(written, planned, "one CSV per planned run");
    let history = |run: &str| read(&results.join(format!("iid_{run}.csv")));

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden");
    for scheme in ["helcfl", "classic", "fedcs", "fedl", "sl"] {
        let want = read(&golden.join(format!("history_fast_iid_{scheme}.csv")));
        assert!(history(scheme) == want, "{scheme}: history diverged from the golden CSV");
    }

    // Six η points, six histories: no sweep point overwrote another.
    let mut etas: Vec<String> =
        RUNS.iter().filter(|r| r.contains("eta")).map(|r| history(r)).collect();
    etas.push(history("helcfl"));
    etas.sort();
    etas.dedup();
    assert_eq!(etas.len(), 6, "η sweep histories collide");

    // Same selection, so same rounds and accuracy; only energy differs.
    let (dvfs, fmax) = (history("helcfl"), history("helcfl-nodvfs"));
    assert_eq!(column(&dvfs, "test_accuracy"), column(&fmax, "test_accuracy"));
    let (e_dvfs, e_fmax) =
        (column(&dvfs, "cumulative_energy_j"), column(&fmax, "cumulative_energy_j"));
    assert_eq!(e_dvfs.len(), e_fmax.len());
    assert_ne!(e_dvfs, e_fmax, "the two arms hold the same energy column");
    assert!(e_dvfs.iter().zip(&e_fmax).all(|(d, f)| d <= f), "DVFS cost more energy");
    fs::remove_dir_all(&dir).unwrap();
}

/// Runs `reproduce` with `args` and `env` in a fresh directory and
/// returns its stderr, asserting that it failed and wrote nothing.
fn refused(tag: &str, args: &[&str], env: &[(&str, &str)]) -> String {
    let dir = scratch_dir(tag);
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .envs(env.iter().copied())
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(!out.status.success(), "reproduce accepted {args:?} {env:?}");
    assert!(!dir.join("results").exists(), "a refused run wrote results");
    fs::remove_dir_all(&dir).unwrap();
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_misspelt_flag_is_refused_by_name() {
    let stderr = refused("badflag", &["--seeed", "7"], &[]);
    assert!(stderr.contains("--seeed"), "stderr does not name the flag: {stderr}");
}

#[test]
fn a_zero_checkpoint_interval_is_refused_by_name() {
    let env = [("HELCFL_CHECKPOINT", "rings:0")];
    let stderr = refused("ring0", &["--fast", "--setting", "iid"], &env);
    assert!(stderr.contains("HELCFL_CHECKPOINT"), "stderr does not name the variable: {stderr}");
}

/// A chaos round that does not parse stops the run by the variable's
/// name before anything trains: ignored, a typo would run a chaos test
/// with no chaos in it.
#[test]
fn a_malformed_chaos_round_is_refused_by_name() {
    for var in ["HELCFL_CHAOS_KILL_AT", "HELCFL_CHAOS_TORN_AT"] {
        let stderr = refused("chaos", &["--fast", "--setting", "iid"], &[(var, "4x")]);
        assert!(stderr.contains(&format!("`{var}`: `4x` is not a round number")), "{stderr}");
    }
}

/// `HELCFL_TRACE` follows `--trace-out`'s rule: a trace file that
/// cannot be created stops the run. Here its parent is a regular file.
#[test]
fn an_uncreatable_trace_file_is_refused_by_name() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/trace.jsonl");
    let env = [("HELCFL_TRACE", path)];
    let stderr = refused("tracefile", &["--fast", "--setting", "iid"], &env);
    assert!(stderr.contains("HELCFL_TRACE"), "stderr does not name the variable: {stderr}");
    assert!(stderr.contains(path), "stderr does not name the path: {stderr}");
}

/// With `HELCFL_TRACE=stderr` the run's stderr is the trace and
/// nothing else: captured unfiltered, `helcfl-trace check` passes it.
/// The traced lineup still learns the golden histories.
#[test]
fn a_stderr_trace_is_pure_jsonl_that_helcfl_trace_checks() {
    let dir = scratch_dir("stderr_trace");
    let stderr = reproduce(&dir, &["--setting", "iid"], &[("HELCFL_TRACE", "stderr")]);
    let stray: Vec<&str> = stderr.lines().filter(|l| !l.starts_with('{')).take(3).collect();
    assert!(stray.is_empty(), "non-JSONL lines on a traced stderr: {stray:?}");
    let trace = dir.join("stderr.jsonl");
    fs::write(&trace, &stderr).unwrap();
    let check = Command::new(env!("CARGO_BIN_EXE_helcfl-trace")).arg("check").arg(&trace).output();
    let check = check.unwrap();
    assert!(
        check.status.success(),
        "helcfl-trace check refused the captured stderr: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden");
    for scheme in ["helcfl", "classic", "fedcs", "fedl", "sl"] {
        let want = read(&golden.join(format!("history_fast_iid_{scheme}.csv")));
        let got = read(&dir.join("results").join(format!("iid_{scheme}.csv")));
        assert!(got == want, "{scheme}: a traced history diverged from the golden CSV");
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// The two settings' runs share scheme, seed and config, which is all
/// a ring's identity check sees, so only the run name keeps the Non-IID
/// runs from resuming the IID histories. A rerun resumes every
/// federated run from its finished ring; SL has no round loop to
/// checkpoint.
#[test]
fn each_planned_run_checkpoints_into_a_ring_of_its_own() {
    let plain = scratch_dir("plain");
    reproduce(&plain, &[], &[]);
    let want = csvs(&plain);
    assert_eq!(want.len(), 2 * RUNS.len());

    let dir = scratch_dir("ckpt");
    let ring = [("HELCFL_CHECKPOINT", "rings:10")];
    for setting in ["iid", "noniid"] {
        let stderr = reproduce(&dir, &["--setting", setting], &ring);
        assert!(!stderr.contains("resuming"), "a {setting} run resumed another's ring: {stderr}");
    }
    assert!(csvs(&dir) == want, "checkpointed histories differ from the plain runs");
    let mut rings: Vec<String> = fs::read_dir(dir.join("rings"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    rings.sort();
    let mut federated: Vec<String> = (want.iter())
        .map(|(file, _)| file.trim_end_matches(".csv").to_string())
        .filter(|run| !run.ends_with("_sl"))
        .collect();
    federated.sort();
    assert_eq!(rings, federated, "one ring per federated run");

    let stderr = reproduce(&dir, &[], &ring);
    let resumed = stderr.lines().filter(|l| l.contains("resuming after round")).count();
    assert_eq!(resumed, federated.len(), "a rerun retrained: {stderr}");
    assert!(csvs(&dir) == want, "resumed histories differ from the plain runs");
    fs::remove_dir_all(&plain).unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

/// A kill at an even round with a ring interval of 2 lands right after
/// a checkpoint. The first invocation dies in the first planned run
/// (`iid_helcfl`); the second resumes and finishes it, then dies in the
/// next one (`iid_classic`); the third, with no kill scheduled,
/// finishes the set. Every CSV must equal the uninterrupted run's,
/// which also takes the production HELCFL selector through `restore`.
#[test]
fn a_run_set_killed_twice_resumes_to_the_uninterrupted_csvs() {
    let iid = ["--setting", "iid"];
    let plain = scratch_dir("kill_plain");
    reproduce(&plain, &iid, &[]);
    let want = csvs(&plain);
    assert_eq!(want.len(), RUNS.len());

    let dir = scratch_dir("kill");
    let ring = ("HELCFL_CHECKPOINT", "rings:2");
    let kill = ("HELCFL_CHAOS_KILL_AT", "4");
    let resumed = |stderr: &str| -> Vec<String> {
        (stderr.lines())
            .filter(|l| l.contains("resuming after round"))
            .map(|l| l.split(" from ").nth(1).unwrap_or(l).to_string())
            .collect()
    };

    let first = run_reproduce(&dir, &iid, &[ring, kill], true);
    assert!(first.contains("SIGKILL at round 4"), "{first}");
    assert!(resumed(&first).is_empty(), "a fresh run resumed: {first}");
    assert!(csvs(&dir).is_empty(), "the killed first run wrote a CSV");

    let second = run_reproduce(&dir, &iid, &[ring, kill], true);
    let second_resumed = resumed(&second);
    assert_eq!(second_resumed.len(), 1, "{second}");
    assert!(second_resumed[0].starts_with("rings/iid_helcfl/"), "{second}");
    let done = csvs(&dir);
    assert_eq!(done.len(), 1, "only the resumed first run finishes");
    assert!(want.contains(&done[0]) && done[0].0 == "iid_helcfl.csv");

    let third = reproduce(&dir, &iid, &[ring]);
    let third_resumed = resumed(&third);
    assert_eq!(third_resumed.len(), 2, "{third}");
    assert!(third_resumed[0].starts_with("rings/iid_helcfl/"), "{third}");
    assert!(third_resumed[1].starts_with("rings/iid_classic/"), "{third}");
    assert!(third.contains("resuming after round 4 "), "{third}");
    assert!(csvs(&dir) == want, "the killed and resumed run set differs from the plain one");
    fs::remove_dir_all(&plain).unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

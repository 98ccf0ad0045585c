//! `reproduce` end to end at `--fast` scale on the IID setting: the
//! lineup reproduces the committed golden histories, every planned run
//! writes a file of its own, and the DVFS and `f_max` arms differ in
//! energy only.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The 20 distinct runs of one setting at `--fast` scale, where the
/// lineup's C is 0.2 and the C sweep's 0.1 point is a run of its own.
const RUNS: [&str; 20] = [
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

#[test]
fn fast_iid_run_set_matches_goldens_and_writes_one_file_per_run() {
    let dir = scratch_dir("fast");
    let status = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--fast", "--setting", "iid"])
        .env_remove("HELCFL_TRACE")
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "reproduce failed: {status}");

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

/// Env checkpoint rings do not tell apart runs that differ only in η,
/// DVFS or setting, so resuming would hand one run another's history.
#[test]
fn an_exported_checkpoint_dir_is_refused_by_name() {
    let stderr = refused("ckpt", &["--fast"], &[("HELCFL_CHECKPOINT", "ckpt")]);
    assert!(stderr.contains("HELCFL_CHECKPOINT"), "stderr does not name the variable: {stderr}");
}

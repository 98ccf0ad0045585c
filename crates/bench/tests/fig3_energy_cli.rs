//! `fig3_energy` writes each arm of the DVFS comparison to its own
//! history files. Both arms carry the scheme label `helcfl`; under one
//! shared file prefix the no-DVFS arm would overwrite the DVFS arm.

use std::fs;
use std::process::Command;

/// The `column` values of a history CSV, one per round.
fn column(csv: &str, column: &str) -> Vec<f64> {
    let mut lines = csv.lines();
    let header = lines.next().expect("header line");
    let idx = header.split(',').position(|c| c == column).expect("column in header");
    lines.map(|l| l.split(',').nth(idx).expect("field").parse().expect("number")).collect()
}

#[test]
fn both_arms_are_written_and_differ_in_energy() {
    let dir = std::env::temp_dir().join(format!("helcfl_fig3_cli_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_fig3_energy"))
        .args(["--fast", "--setting", "iid"])
        .current_dir(&dir)
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "fig3_energy failed: {status}");

    let read = |arm: &str| {
        let path = dir.join(format!("results/fig3_iid_{arm}_helcfl.csv"));
        assert!(dir.join(format!("results/fig3_iid_{arm}_helcfl.jsonl")).exists());
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let (dvfs, fmax) = (read("dvfs"), read("fmax"));
    assert!(!dir.join("results/fig3_iid_helcfl.csv").exists(), "old shared prefix written");

    // Same selection, so same rounds and accuracy; only energy differs.
    assert_eq!(column(&dvfs, "test_accuracy"), column(&fmax, "test_accuracy"));
    let (e_dvfs, e_fmax) =
        (column(&dvfs, "cumulative_energy_j"), column(&fmax, "cumulative_energy_j"));
    assert_eq!(e_dvfs.len(), e_fmax.len());
    assert_ne!(e_dvfs, e_fmax, "the two arms hold the same energy column");
    assert!(e_dvfs.iter().zip(&e_fmax).all(|(d, f)| d <= f), "DVFS cost more energy");
    fs::remove_dir_all(&dir).unwrap();
}

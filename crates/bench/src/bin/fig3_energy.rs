//! Fig. 3 — training-energy reduction via the DVFS-enabled frequency
//! determination (Alg. 3).
//!
//! Runs HELCFL twice on identical setups — once with Alg. 3, once with
//! every device pinned at `f_max` — and reports the cumulative energy
//! needed to reach each desired accuracy. Selection is deterministic,
//! so both arms see the same users, the same round delays, and the
//! same accuracy curve: the *only* difference is energy, exactly the
//! comparison Fig. 3 makes.
//!
//! Histories go to `results/fig3_<setting>_dvfs_helcfl.{csv,jsonl}`
//! (Alg. 3) and `results/fig3_<setting>_fmax_helcfl.{csv,jsonl}` (every
//! device at `f_max`).
//!
//! Usage: `fig3_energy [--fast] [--seed N] [--setting iid|noniid]
//! [--trace-out PATH]` — set `HELCFL_TRACE=jsonl|stderr` (or
//! `--trace-out`) for per-round spans and a post-run metrics summary.

use std::path::Path;

use helcfl_bench::report::{ascii_table, write_histories};
use helcfl_bench::{CommonArgs, Scheme, Setting};

fn targets(setting: Setting, fast: bool) -> Vec<f64> {
    match (setting, fast) {
        (Setting::Iid, false) => vec![0.60, 0.70, 0.80],
        (Setting::NonIid, false) => vec![0.40, 0.50, 0.60],
        (Setting::Iid, true) => vec![0.30, 0.40, 0.50],
        (Setting::NonIid, true) => vec![0.25, 0.35, 0.45],
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse(std::env::args().skip(1));
    let scenario = args.scenario();
    let tele = args.telemetry("fig3_energy");
    println!(
        "Fig. 3 reproduction — DVFS energy optimization, {} devices",
        scenario.num_devices
    );

    for setting in args.settings() {
        let config = scenario.training_config();
        let mut with_setup = scenario.setup(setting)?;
        let with_dvfs = Scheme::Helcfl { eta: 0.5, dvfs: true }
            .run_traced(&mut with_setup, &config, &tele)?;
        let mut without_setup = scenario.setup(setting)?;
        let without_dvfs = Scheme::Helcfl { eta: 0.5, dvfs: false }
            .run_traced(&mut without_setup, &config, &tele)?;

        println!("\n=== {} setting ===", setting.label().to_uppercase());
        let mut rows = Vec::new();
        for &t in &targets(setting, args.fast) {
            let on = with_dvfs.energy_to_accuracy(t);
            let off = without_dvfs.energy_to_accuracy(t);
            let (on_s, off_s, saving) = match (on, off) {
                (Some(a), Some(b)) => (
                    format!("{:.1} J", a.get()),
                    format!("{:.1} J", b.get()),
                    format!("{:.2}%", (1.0 - a.get() / b.get()) * 100.0),
                ),
                _ => ("✗".into(), "✗".into(), "-".into()),
            };
            rows.push(vec![format!("{:.0}%", t * 100.0), on_s, off_s, saving]);
        }
        // Whole-run totals (the J = 300 endpoint of the figure).
        rows.push(vec![
            "full run".into(),
            format!("{:.1} J", with_dvfs.total_energy().get()),
            format!("{:.1} J", without_dvfs.total_energy().get()),
            format!(
                "{:.2}%",
                (1.0 - with_dvfs.total_energy().get() / without_dvfs.total_energy().get())
                    * 100.0
            ),
        ]);
        println!(
            "{}",
            ascii_table(
                &["target acc", "energy w/ DVFS", "energy w/o DVFS", "saving"],
                &rows
            )
        );

        // Compute-only view (uploads are untouched by Alg. 3).
        let compute_with: f64 =
            with_dvfs.records().iter().map(|r| r.compute_energy.get()).sum();
        let compute_without: f64 =
            without_dvfs.records().iter().map(|r| r.compute_energy.get()).sum();
        println!(
            "  compute-energy saving across the run: {:.2}%",
            (1.0 - compute_with / compute_without) * 100.0
        );

        // Both arms carry the scheme label `helcfl`, so each gets its
        // own prefix: one shared prefix would let the second overwrite
        // the first.
        for (arm, history) in [("dvfs", &with_dvfs), ("fmax", &without_dvfs)] {
            let prefix = format!("fig3_{}_{arm}", setting.label());
            write_histories(Path::new("results"), &prefix, std::slice::from_ref(history))?;
        }
    }
    if tele.is_enabled() {
        eprintln!("\n{}", tele.report());
    }
    tele.finish();
    Ok(())
}

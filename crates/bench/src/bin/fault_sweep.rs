//! Fault sweep — accuracy and energy vs device fault rate.
//!
//! Sweeps a uniform per-device fault rate (crash, straggler, transient
//! upload failure, channel degradation all at the same rate) across
//! HELCFL and the four baselines, recording how gracefully each scheme
//! degrades: final/best accuracy, the fraction of selected updates
//! actually delivered, total and wasted energy, and how many rounds
//! aggregated. SL trains on-device with no uploads, so it is immune to
//! the communication fault model and appears as a flat reference at
//! every rate.
//!
//! Usage: `fault_sweep [--fast] [--seed N] [--setting iid|noniid]
//! [--trace-out PATH]`
//!
//! Results land in `results/fault_sweep_{setting}.csv`.
//!
//! With `HELCFL_CHECKPOINT` set, a sweep must name its `--setting`:
//! checkpoint rings are keyed by scheme, seed and config fingerprint,
//! which do not tell the two data settings apart, so a sweep over both
//! is refused rather than resuming IID histories as Non-IID ones.
//!
//! CI modes (used by `ci.sh`):
//!
//! * `fault_sweep --smoke` — one seeded HELCFL run on the fast IID
//!   scenario with every fault class at rate 0.2, a 30 s round
//!   deadline, and α_q refunds on; fails unless at least one fault
//!   actually fired. With `HELCFL_TRACE=jsonl` the trace lands in
//!   `results/trace_fault_sweep.jsonl` for `helcfl-trace check`/
//!   `audit`.
//! * `fault_sweep --golden-write PATH` — runs HELCFL on the fast IID
//!   scenario with the default config (no fault, no round deadline)
//!   and writes its history CSV to `PATH`.
//! * `fault_sweep --golden-check PATH` — reruns the same scenario with
//!   an astronomically large round deadline (the zero-rate fault plan
//!   never fires) and asserts the produced CSV is byte-identical to
//!   `PATH`. A deadline that never binds must leave the committed
//!   golden history untouched, so any drift fails the build.

use std::fs;
use std::path::Path;

use fl_sim::checkpoint::CHECKPOINT_ENV;
use fl_sim::faults::{DegradationPolicy, FaultConfig};
use fl_sim::history::TrainingHistory;
use helcfl_bench::{CommonArgs, PaperScenario, Scheme, Setting};
use mec_sim::units::Seconds;

const RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.3];

/// The reference run both golden modes reproduce: HELCFL, fast
/// scenario, IID, default seed.
fn golden_history(never_binding_deadline: bool) -> Result<TrainingHistory, Box<dyn std::error::Error>> {
    let scenario = PaperScenario::fast();
    let mut config = scenario.training_config();
    if never_binding_deadline {
        // The deadline is armed every round but never fires, and the
        // zero-rate fault plan stays inert; the history must still
        // match bit for bit.
        config.degradation = DegradationPolicy {
            round_deadline: Some(Seconds::new(1.0e12)),
            ..DegradationPolicy::default()
        };
    }
    let mut setup = scenario.setup(Setting::Iid)?;
    let scheme = Scheme::Helcfl { eta: 0.5, dvfs: true };
    Ok(scheme.run(&mut setup, &config)?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = raw.iter().position(|a| a == "--golden-write") {
        let path = raw.get(i + 1).map(String::as_str).ok_or("--golden-write needs a path")?;
        let history = golden_history(false)?;
        if let Some(parent) = Path::new(path).parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, history.to_csv())?;
        println!("golden history written to {path}");
        return Ok(());
    }
    if let Some(i) = raw.iter().position(|a| a == "--golden-check") {
        let path = raw.get(i + 1).map(String::as_str).ok_or("--golden-check needs a path")?;
        let golden = fs::read_to_string(path)
            .map_err(|e| format!("cannot read golden history {path}: {e}"))?;
        let actual = golden_history(true)?.to_csv();
        if actual == golden {
            println!(
                "golden check OK: a never-binding deadline reproduces {path} byte-for-byte"
            );
            return Ok(());
        }
        for (line, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
            if a != g {
                eprintln!("first divergence at line {}:\n  golden: {g}\n  actual: {a}", line + 1);
                break;
            }
        }
        return Err(format!(
            "a never-binding round deadline with zero faults diverged from the \
             committed golden history {path}"
        )
        .into());
    }

    if let Some(i) = raw.iter().position(|a| a == "--smoke") {
        let mut rest = raw;
        rest.remove(i);
        let args = CommonArgs::parse(rest)?;
        let tele = args.telemetry("fault_sweep")?;
        let scenario = PaperScenario::fast();
        let mut config = scenario.training_config();
        config.faults = FaultConfig::uniform(0.2);
        config.degradation = DegradationPolicy {
            round_deadline: Some(Seconds::new(30.0)),
            min_quorum: 1,
            charge_failed_selections: false,
        };
        let mut setup = scenario.setup(Setting::Iid)?;
        let scheme = Scheme::Helcfl { eta: 0.5, dvfs: true };
        let history = scheme.run_traced(&mut setup, &config, &tele)?;
        let faults: usize = history.records().iter().map(|r| r.faults).sum();
        println!(
            "fault smoke: {} rounds, {faults} faults, delivered fraction {:.3}, \
             wasted {:.3} J, {} rounds aggregated",
            history.len(),
            history.delivered_fraction(),
            history.total_wasted_energy().get(),
            history.rounds_aggregated(),
        );
        tele.finish();
        if faults == 0 {
            return Err("fault smoke fired zero faults — the plan is inert".into());
        }
        return Ok(());
    }

    let args = CommonArgs::parse(raw)?;
    let settings = args.settings();
    if settings.len() > 1 && std::env::var_os(CHECKPOINT_ENV).is_some() {
        return Err(format!(
            "{CHECKPOINT_ENV} is set but no --setting was given: the IID and Non-IID \
             runs share checkpoint rings, so the Non-IID sweep would resume the IID \
             histories; pass --setting iid or --setting noniid, or unset it"
        )
        .into());
    }
    let scenario = args.scenario();
    let tele = args.telemetry("fault_sweep")?;
    println!(
        "Fault sweep — {} devices, {} rounds, rates {RATES:?}",
        scenario.num_devices, scenario.max_rounds
    );

    for setting in settings {
        let mut csv = String::from(
            "rate,scheme,final_accuracy,best_accuracy,delivered_fraction,\
             total_energy_j,wasted_energy_j,rounds_aggregated\n",
        );
        // SL has no round trip to disturb; one run serves every rate.
        let mut sl_history: Option<TrainingHistory> = None;
        for &rate in &RATES {
            println!("\n=== {} setting, fault rate {rate} ===", setting.label());
            for scheme in Scheme::lineup() {
                let history = if matches!(scheme, Scheme::Sl) {
                    if sl_history.is_none() {
                        let mut setup = scenario.setup(setting)?;
                        sl_history = Some(scheme.run_traced(
                            &mut setup,
                            &scenario.training_config(),
                            &tele,
                        )?);
                    }
                    sl_history.clone().expect("populated above")
                } else {
                    let mut config = scenario.training_config();
                    config.faults = FaultConfig::uniform(rate);
                    let mut setup = scenario.setup(setting)?;
                    scheme.run_traced(&mut setup, &config, &tele)?
                };
                let line = format!(
                    "{rate},{},{:.6},{:.6},{:.6},{:.6},{:.6},{}\n",
                    history.scheme(),
                    history.final_accuracy().unwrap_or(0.0),
                    history.best_accuracy(),
                    history.delivered_fraction(),
                    history.total_energy().get(),
                    history.total_wasted_energy().get(),
                    history.rounds_aggregated(),
                );
                print!("  {line}");
                csv.push_str(&line);
            }
        }
        let dir = Path::new("results");
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("fault_sweep_{}.csv", setting.label()));
        fs::write(&path, &csv)?;
        println!("\nwrote {}", path.display());
    }
    tele.finish();
    Ok(())
}

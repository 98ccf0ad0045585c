//! `reproduce` — every artifact of the paper's §VII, and this
//! reproduction's ablations A1–A4 and fault sweep, from one
//! deduplicated set of runs.
//!
//! The binary plans the training runs each view reads, as
//! `(Scheme, Setting, TrainingConfig)` triples with every override
//! already applied, and drops any run equal to one planned before it.
//! Per setting that leaves 36 distinct runs: the five-scheme lineup,
//! HELCFL at `f_max`, five more η values, three more selection
//! fractions C, six battery runs and the four federated schemes at
//! four nonzero fault rates. (A sweep point equal to the lineup's
//! configuration, such as η = 0.5 or fault rate 0, is the lineup's
//! run.) Each distinct run trains once and writes its history to
//! `results/<setting>_<run>.{csv,jsonl}`, where `<run>` is the scheme
//! label plus every override, e.g. `helcfl`, `helcfl-nodvfs`,
//! `helcfl-eta0.9`, `helcfl-c0.2`, `helcfl-nodvfs-battery50`,
//! `fedcs-faults0.1`. The tables are then printed as views over the
//! finished runs: Fig. 1 (no training), Fig. 2, Table I, Fig. 3, A1–A4
//! and the fault sweep.
//!
//! Usage: `reproduce [--fast] [--seed N] [--setting iid|noniid]
//! [--trace-out PATH]`
//!
//! Tracing: `HELCFL_TRACE=jsonl reproduce` streams every federated
//! run's spans to `results/trace_reproduce.jsonl` (or pass
//! `--trace-out PATH`); `HELCFL_TRACE=stderr` prints them live. Either
//! way a metrics summary lands on stderr after the runs.
//!
//! Checkpointing: `HELCFL_CHECKPOINT=dir[:interval]` gives each planned
//! run the ring `dir/<setting>_<run>`, so a rerun resumes every
//! federated run from its newest valid checkpoint instead of
//! retraining it. A ring made under another seed or scale is refused
//! by the field that differs; any other value of the variable (empty,
//! `dir:0`, `dir:fast`) is refused by name before anything runs.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use fl_sim::checkpoint::CheckpointConfig;
use fl_sim::faults::FaultConfig;
use fl_sim::frequency::FrequencyPolicy;
use fl_sim::history::{RoundRecord, TrainingHistory};
use fl_sim::runner::TrainingConfig;
use helcfl::SlackFrequencyPolicy;
use helcfl_bench::report::{ascii_table, downsample, sparkline, table1_cell, write_history};
use helcfl_bench::{CommonArgs, PaperScenario, Scheme, Setting};
use mec_sim::timeline::RoundTimeline;
use mec_sim::units::Joules;

/// The decay coefficient η of the lineup's HELCFL.
const ETA: f64 = 0.5;
/// The lineup's HELCFL, and its Fig. 3 reference arm at `f_max`.
const HELCFL: Scheme = Scheme::Helcfl { eta: ETA, dvfs: true };
const HELCFL_FMAX: Scheme = Scheme::Helcfl { eta: ETA, dvfs: false };
/// A1's η sweep.
const ETAS: [f64; 6] = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99];
/// A2's selection-fraction sweep.
const FRACTIONS: [f64; 4] = [0.05, 0.1, 0.2, 0.4];
/// A4's per-device battery budgets in joules, chosen so the fleet
/// visibly thins out within the run: a participating device spends
/// roughly 2–6 J per round.
const BUDGETS: [f64; 3] = [50.0, 100.0, 200.0];
/// The fault sweep's uniform per-device fault rates: crash, straggler,
/// upload failure and channel degradation each fire at the rate.
const FAULT_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.3];

/// One training run, every override already applied.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    scheme: Scheme,
    setting: Setting,
    config: TrainingConfig,
}

impl Run {
    fn new(scheme: Scheme, setting: Setting, config: &TrainingConfig) -> Self {
        Self { scheme, setting, config: config.clone() }
    }

    /// The history's file stem: the setting, the scheme label, and
    /// every override of the lineup's η, C, battery and faults.
    fn name(&self, base: &TrainingConfig) -> String {
        let mut name = format!("{}_{}", self.setting, self.scheme.label());
        if let Scheme::Helcfl { eta, .. } = self.scheme {
            if eta != ETA {
                name += &format!("-eta{eta}");
            }
        }
        if self.config.fraction != base.fraction {
            name += &format!("-c{}", self.config.fraction);
        }
        if let Some(budget) = self.config.battery_capacity {
            name += &format!("-battery{}", budget.get());
        }
        // The fault sweep's plans are uniform, so one class's rate is
        // the rate.
        if self.config.faults != base.faults {
            name += &format!("-faults{}", self.config.faults.crash_rate);
        }
        name
    }
}

/// The scenario and the runs each view reads. The plan and the views
/// both take their runs from here, so a view only asks for planned
/// runs.
struct Views {
    scenario: PaperScenario,
    fast: bool,
    settings: Vec<Setting>,
    base: TrainingConfig,
}

impl Views {
    fn new(scenario: PaperScenario, fast: bool, settings: Vec<Setting>) -> Self {
        let base = scenario.training_config();
        Self { scenario, fast, settings, base }
    }

    /// Fig. 2 and Table I: the five schemes, HELCFL first.
    fn lineup(&self, s: Setting) -> Vec<Run> {
        Scheme::lineup().into_iter().map(|scheme| Run::new(scheme, s, &self.base)).collect()
    }

    /// Fig. 3, A3 and A4: HELCFL with Alg. 3 and at `f_max`.
    fn dvfs_pair(&self, s: Setting, config: &TrainingConfig) -> [Run; 2] {
        [HELCFL, HELCFL_FMAX].map(|scheme| Run::new(scheme, s, config))
    }

    fn etas(&self, s: Setting) -> Vec<Run> {
        let helcfl = |eta| Scheme::Helcfl { eta, dvfs: true };
        ETAS.iter().map(|&eta| Run::new(helcfl(eta), s, &self.base)).collect()
    }

    fn fractions(&self, s: Setting) -> Vec<Run> {
        let config = |fraction| TrainingConfig { fraction, ..self.base.clone() };
        FRACTIONS.iter().map(|&c| Run::new(HELCFL, s, &config(c))).collect()
    }

    fn batteries(&self, s: Setting) -> Vec<[Run; 2]> {
        let config =
            |j| TrainingConfig { battery_capacity: Some(Joules::new(j)), ..self.base.clone() };
        BUDGETS.iter().map(|&j| self.dvfs_pair(s, &config(j))).collect()
    }

    /// The fault sweep: the lineup at each rate of [`FAULT_RATES`].
    /// SL trains on-device with no upload to disturb, so it runs at
    /// the base config at every rate.
    fn faults(&self, s: Setting) -> Vec<Vec<Run>> {
        (FAULT_RATES.iter())
            .map(|&rate| {
                let faulted =
                    TrainingConfig { faults: FaultConfig::uniform(rate), ..self.base.clone() };
                (Scheme::lineup().into_iter())
                    .map(|scheme| {
                        let config = if scheme == Scheme::Sl { &self.base } else { &faulted };
                        Run::new(scheme, s, config)
                    })
                    .collect()
            })
            .collect()
    }

    /// The distinct runs of every view, in first-planned order. Runs
    /// compare by value, so a sweep point equal to another run, such
    /// as A1's η = 0.5, is planned once.
    fn plan(&self) -> Vec<Run> {
        let mut plan: Vec<Run> = Vec::new();
        for &s in &self.settings {
            let runs = (self.lineup(s).into_iter())
                .chain(self.dvfs_pair(s, &self.base))
                .chain(self.etas(s))
                .chain(self.fractions(s))
                .chain(self.batteries(s).into_iter().flatten())
                .chain(self.faults(s).into_iter().flatten());
            for run in runs {
                if !plan.contains(&run) {
                    plan.push(run);
                }
            }
        }
        plan
    }

    /// The desired accuracies of Table I and Fig. 3; A1 and A2 use
    /// the middle one. The fast scenario trains a much smaller run, so
    /// it gets reachable smoke-test targets.
    fn targets(&self, setting: Setting) -> [f64; 3] {
        match (setting, self.fast) {
            (Setting::Iid, false) => [0.60, 0.70, 0.80],
            (Setting::NonIid, false) => [0.40, 0.50, 0.60],
            (Setting::Iid, true) => [0.30, 0.40, 0.50],
            (Setting::NonIid, true) => [0.25, 0.35, 0.45],
        }
    }
}

/// The finished runs.
struct RunSet(Vec<(Run, TrainingHistory)>);

impl RunSet {
    fn get(&self, run: &Run) -> &TrainingHistory {
        let found = self.0.iter().find(|(r, _)| r == run);
        &found.expect("views read only planned runs").1
    }

    fn all(&self, runs: &[Run]) -> Vec<&TrainingHistory> {
        runs.iter().map(|r| self.get(r)).collect()
    }
}

/// How much less `part` is than `whole`, in percent.
fn saving_pct(part: f64, whole: f64) -> f64 {
    (1.0 - part / whole) * 100.0
}

/// `field` summed over every round of `history`.
fn total(history: &TrainingHistory, field: impl Fn(&RoundRecord) -> f64) -> f64 {
    history.records().iter().map(field).sum()
}

fn compute_energy(r: &RoundRecord) -> f64 {
    r.compute_energy.get()
}

fn print_banner(s: Setting) {
    println!("\n=== {} setting ===", s.label().to_uppercase());
}

fn fig1(scenario: &PaperScenario) -> Result<(), Box<dyn std::error::Error>> {
    let population = scenario.population()?;
    let payload = scenario.payload;

    // Five representative users, spread across the speed spectrum.
    let mut by_speed: Vec<_> = population.devices().to_vec();
    by_speed
        .sort_by(|a, b| a.compute_delay_at_max().get().total_cmp(&b.compute_delay_at_max().get()));
    let q = by_speed.len();
    let selected: Vec<_> =
        [0, q / 4, q / 2, 3 * q / 4, q - 1].iter().map(|&i| by_speed[i]).collect();
    let summary = |t: &RoundTimeline| {
        let (makespan, slack, energy) = (t.makespan(), t.total_slack(), t.total_energy());
        format!(
            "  makespan {:.1}s | total slack {:.1}s | energy {:.2} J",
            makespan.get(),
            slack.get(),
            energy.get()
        )
    };

    println!("Fig. 1 reproduction — TDMA energy waste and its recovery\n");
    let at_max = RoundTimeline::simulate_at_max(&selected, payload)?;
    println!("Traditional FL (all at f_max): '=' compute, '.' slack wait, '#' upload");
    println!("{}\n{}\n", at_max.gantt(72), summary(&at_max));

    let freqs = SlackFrequencyPolicy.frequencies(&selected, payload)?;
    let tuned = RoundTimeline::simulate(&selected, &freqs, payload)?;
    println!("HELCFL (Alg. 3 frequencies): slack reclaimed as slower computation");
    println!("{}\n{}", tuned.gantt(72), summary(&tuned));
    println!(
        "  energy saving: {:.2}% at identical makespan\n",
        saving_pct(tuned.total_energy().get(), at_max.total_energy().get())
    );

    let mut rows = Vec::new();
    for (device, &f) in selected.iter().zip(&freqs) {
        let max_f = device.cpu().range().max();
        rows.push(vec![
            device.id().to_string(),
            format!("{:.2} GHz", max_f.ghz()),
            format!("{:.2} GHz", f.ghz()),
            format!("{:.2} J", device.compute_energy(max_f)?.get()),
            format!("{:.2} J", device.compute_energy(f)?.get()),
        ]);
    }
    let header = ["device", "f_max", "Alg.3 f", "E_cal @ f_max", "E_cal @ Alg.3 f"];
    println!("{}", ascii_table(&header, &rows));
    Ok(())
}

fn fig2(v: &Views, set: &RunSet) {
    let s = &v.scenario;
    println!(
        "Fig. 2 reproduction — {} devices, {} rounds, C = {}",
        s.num_devices, s.max_rounds, s.fraction
    );
    for &s in &v.settings {
        print_banner(s);
        let histories = set.all(&v.lineup(s));
        let rows: Vec<_> = histories
            .iter()
            .map(|h| {
                vec![
                    h.scheme().to_string(),
                    format!("{:.4}", h.best_accuracy()),
                    h.final_accuracy().map_or("-".into(), |a| format!("{a:.4}")),
                    sparkline(&downsample(&h.accuracy_curve(), 40)),
                ]
            })
            .collect();
        println!("{}", ascii_table(&["scheme", "best acc", "final acc", "accuracy curve"], &rows));
        // Paper-style margins: HELCFL's best accuracy vs each baseline.
        let helcfl_best = histories[0].best_accuracy();
        for h in &histories[1..] {
            let margin = (helcfl_best - h.best_accuracy()) * 100.0;
            println!("  HELCFL vs {:<8}: {margin:+.2}% best accuracy", h.scheme());
        }
    }
}

fn table1(v: &Views, set: &RunSet) {
    let s = &v.scenario;
    println!("Table I reproduction — {} devices, {} rounds", s.num_devices, s.max_rounds);
    for &s in &v.settings {
        let targets = v.targets(s);
        let histories = set.all(&v.lineup(s));
        let header: Vec<String> = [format!("{s} / target")]
            .into_iter()
            .chain(targets.iter().map(|t| format!("{:.0}%", t * 100.0)))
            .collect();
        let rows: Vec<Vec<String>> = histories
            .iter()
            .map(|h| {
                let cells = targets.iter().map(|&t| table1_cell(h.time_to_accuracy(t)));
                [h.scheme().to_string()].into_iter().chain(cells).collect()
            })
            .collect();
        print_banner(s);
        println!("{}", ascii_table(&header, &rows));

        // Speedups at the hardest target (the paper quotes e.g.
        // 275.03% over FedCS at 60% Non-IID).
        let hardest = targets[2];
        let Some(ours) = histories[0].time_to_accuracy(hardest) else { continue };
        for h in &histories[1..] {
            let speedup = match h.time_to_accuracy(hardest) {
                Some(theirs) => format!("{:.2}%", (theirs.get() / ours.get() - 1.0) * 100.0),
                None => "✗ (never reaches it)".into(),
            };
            println!("  speedup vs {:<8} at {:.0}%: {speedup}", h.scheme(), hardest * 100.0);
        }
    }
}

fn fig3(v: &Views, set: &RunSet) {
    println!("Fig. 3 reproduction — DVFS energy optimization, {} devices", v.scenario.num_devices);
    for &s in &v.settings {
        let [on, off] = v.dvfs_pair(s, &v.base).map(|r| set.get(&r));
        let energies = v.targets(s).map(|t| {
            (format!("{:.0}%", t * 100.0), on.energy_to_accuracy(t), off.energy_to_accuracy(t))
        });
        // Whole-run totals (the J = 300 endpoint of the figure).
        let full = ("full run".to_string(), Some(on.total_energy()), Some(off.total_energy()));
        let rows: Vec<_> = energies
            .into_iter()
            .chain([full])
            .map(|(label, on, off)| match (on, off) {
                (Some(a), Some(b)) => vec![
                    label,
                    format!("{:.1} J", a.get()),
                    format!("{:.1} J", b.get()),
                    format!("{:.2}%", saving_pct(a.get(), b.get())),
                ],
                _ => vec![label, "✗".into(), "✗".into(), "-".into()],
            })
            .collect();
        print_banner(s);
        let header = ["target acc", "energy w/ DVFS", "energy w/o DVFS", "saving"];
        println!("{}", ascii_table(&header, &rows));
        // Compute-only view (uploads are untouched by Alg. 3).
        println!(
            "  compute-energy saving across the run: {:.2}%",
            saving_pct(total(on, compute_energy), total(off, compute_energy))
        );
    }
}

/// A1 and A2: for each sweep point, its label and `columns` of its
/// run, judged at the middle Table I target.
fn sweep_table<L: std::fmt::Display>(
    v: &Views,
    set: &RunSet,
    header: &[&str],
    labels: &[L],
    runs: fn(&Views, Setting) -> Vec<Run>,
    columns: impl Fn(&TrainingHistory, f64) -> Vec<String>,
) {
    for &s in &v.settings {
        let target = v.targets(s)[1];
        let rows: Vec<Vec<String>> = labels
            .iter()
            .zip(runs(v, s))
            .map(|(label, run)| {
                [label.to_string()].into_iter().chain(columns(set.get(&run), target)).collect()
            })
            .collect();
        println!("\n=== {s} setting (target {:.0}%) ===", target * 100.0);
        println!("{}", ascii_table(header, &rows));
    }
}

fn mean_round(h: &TrainingHistory) -> String {
    format!("{:.1}s", h.total_time().get() / h.len() as f64)
}

fn ablation_eta(v: &Views, set: &RunSet) {
    println!("Ablation — decay coefficient η over {ETAS:?}");
    let header = ["eta", "best acc", "time to target", "users covered", "mean round"];
    sweep_table(v, set, &header, &ETAS, Views::etas, |h, target| {
        let coverage: BTreeSet<_> =
            h.records().iter().flat_map(|r| r.selected.iter().copied()).collect();
        vec![
            format!("{:.4}", h.best_accuracy()),
            table1_cell(h.time_to_accuracy(target)),
            format!("{}/{}", coverage.len(), v.scenario.num_devices),
            mean_round(h),
        ]
    });
}

fn ablation_fraction(v: &Views, set: &RunSet) {
    println!("Ablation — selection fraction C over {FRACTIONS:?}");
    let header = ["C", "best acc", "time to target", "mean round", "mean round energy"];
    sweep_table(v, set, &header, &FRACTIONS, Views::fractions, |h, target| {
        vec![
            format!("{:.4}", h.best_accuracy()),
            table1_cell(h.time_to_accuracy(target)),
            mean_round(h),
            format!("{:.1} J", h.total_energy().get() / h.len() as f64),
        ]
    });
}

/// A3: the slack the `f_max` schedule leaves per round against what
/// remains after Alg. 3 (residual slack is head-room DVFS could not
/// use due to `f_min` clamping), and the compute energy either way.
fn ablation_slack(v: &Views, set: &RunSet) {
    println!("Ablation — slack utilization of the Alg. 3 schedule");
    for &s in &v.settings {
        let [with_dvfs, without] = v.dvfs_pair(s, &v.base).map(|r| set.get(&r));
        let slack = |r: &RoundRecord| r.slack.get();
        let (slack_before, slack_after) = (total(without, slack), total(with_dvfs, slack));
        let (compute_before, compute_after) =
            (total(without, compute_energy), total(with_dvfs, compute_energy));

        print_banner(s);
        // A few representative rounds plus the aggregate.
        let n = with_dvfs.len();
        let mut rows: Vec<Vec<String>> = [0, n / 4, n / 2, 3 * n / 4, n - 1]
            .iter()
            .map(|&idx| {
                let (a, b) = (&without.records()[idx], &with_dvfs.records()[idx]);
                vec![
                    format!("round {}", a.round),
                    format!("{:.1}s", a.slack.get()),
                    format!("{:.1}s", b.slack.get()),
                    format!("{:.1} J", a.compute_energy.get()),
                    format!("{:.1} J", b.compute_energy.get()),
                ]
            })
            .collect();
        rows.push(vec![
            "TOTAL".into(),
            format!("{slack_before:.0}s"),
            format!("{slack_after:.0}s"),
            format!("{compute_before:.0} J"),
            format!("{compute_after:.0} J"),
        ]);
        let header =
            ["round", "slack w/o DVFS", "residual slack", "E_cal w/o DVFS", "E_cal w/ DVFS"];
        println!("{}", ascii_table(&header, &rows));
        println!(
            "  slack utilized: {:.1}% | compute-energy saving: {:.2}%",
            saving_pct(slack_after, slack_before.max(1e-12)),
            saving_pct(compute_after, compute_before)
        );
    }
}

/// A4: with finite batteries, the DVFS arm spends less energy per
/// round, keeps more devices alive longer, and so trains on more data.
fn ablation_battery(v: &Views, set: &RunSet) {
    println!("Ablation — per-device battery budgets {BUDGETS:?} J");
    let survivors = |h: &TrainingHistory| h.records().last().map_or(0, |r| r.alive_devices);
    for &s in &v.settings {
        print_banner(s);
        let rows: Vec<_> = (BUDGETS.iter().zip(v.batteries(s)))
            .map(|(budget, pair)| {
                let [with_dvfs, without] = pair.map(|r| set.get(&r));
                vec![
                    format!("{budget:.0} J"),
                    format!("{:.4}", with_dvfs.best_accuracy()),
                    format!("{:.4}", without.best_accuracy()),
                    survivors(with_dvfs).to_string(),
                    survivors(without).to_string(),
                    with_dvfs.len().to_string(),
                    without.len().to_string(),
                ]
            })
            .collect();
        let header = [
            "budget",
            "acc w/ DVFS",
            "acc w/o DVFS",
            "alive w/ DVFS",
            "alive w/o",
            "rounds w/ DVFS",
            "rounds w/o",
        ];
        println!("{}", ascii_table(&header, &rows));
        println!(
            "  With finite batteries, Alg. 3's energy savings convert directly \
             into surviving devices and retained accuracy."
        );
    }
}

/// The fault sweep: how each scheme degrades as devices crash,
/// straggle, fail uploads and lose channel gain more often.
fn fault_sweep(v: &Views, set: &RunSet) {
    println!("Fault sweep — uniform per-device fault rates {FAULT_RATES:?}");
    for &s in &v.settings {
        print_banner(s);
        let rows: Vec<Vec<String>> = (FAULT_RATES.iter().zip(v.faults(s)))
            .flat_map(|(rate, runs)| {
                set.all(&runs).into_iter().map(move |h| {
                    vec![
                        rate.to_string(),
                        h.scheme().to_string(),
                        h.final_accuracy().map_or("-".into(), |a| format!("{a:.6}")),
                        format!("{:.6}", h.best_accuracy()),
                        format!("{:.6}", h.delivered_fraction()),
                        format!("{:.6}", h.total_energy().get()),
                        format!("{:.6}", h.total_wasted_energy().get()),
                        h.rounds_aggregated().to_string(),
                    ]
                })
            })
            .collect();
        let header = [
            "rate",
            "scheme",
            "final acc",
            "best acc",
            "delivered",
            "energy (J)",
            "wasted (J)",
            "rounds aggregated",
        ];
        println!("{}", ascii_table(&header, &rows));
    }
}

fn main() -> ExitCode {
    helcfl_bench::exit_code("reproduce", run())
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse(std::env::args().skip(1))?;
    let checkpoint = CheckpointConfig::from_env()?;
    let views = Views::new(args.scenario(), args.fast, args.settings());
    let tele = args.telemetry("reproduce")?;
    let plan = views.plan();
    eprintln!("reproduce: {} distinct runs", plan.len());
    let mut runs = Vec::with_capacity(plan.len());
    for run in plan {
        let started = Instant::now();
        let name = run.name(&views.base);
        let config = TrainingConfig {
            checkpoint: (checkpoint.clone())
                .map(|cc| CheckpointConfig { dir: cc.dir.join(&name), ..cc }),
            ..run.config.clone()
        };
        let mut setup = views.scenario.setup(run.setting)?;
        let history = run.scheme.run_traced(&mut setup, &config, &tele)?;
        write_history(Path::new("results"), &name, &history)?;
        eprintln!(
            "  ran {name:<32} in {:.1}s (best accuracy {:.4})",
            started.elapsed().as_secs_f64(),
            history.best_accuracy()
        );
        runs.push((run, history));
    }
    let set = RunSet(runs);

    fig1(&views.scenario)?;
    for view in [
        fig2,
        table1,
        fig3,
        ablation_eta,
        ablation_fraction,
        ablation_slack,
        ablation_battery,
        fault_sweep,
    ] {
        println!();
        view(&views, &set);
    }
    if tele.is_enabled() {
        eprintln!("\n{}", tele.report());
    }
    tele.finish();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(fast: bool) -> Views {
        let scenario = if fast { PaperScenario::fast() } else { PaperScenario::default() };
        Views::new(scenario, fast, vec![Setting::Iid])
    }

    #[test]
    fn one_setting_plans_thirty_six_distinct_runs_at_both_scales() {
        for fast in [false, true] {
            let v = views(fast);
            let plan = v.plan();
            assert_eq!(plan.len(), 36, "fast = {fast}");
            let names: BTreeSet<_> = plan.iter().map(|r| r.name(&v.base)).collect();
            assert_eq!(names.len(), plan.len(), "file names collide: {names:?}");
        }
    }

    #[test]
    fn sweep_points_equal_to_the_lineup_are_the_lineup_run() {
        let v = views(true);
        let s = Setting::Iid;
        let helcfl = &v.lineup(s)[0];
        assert_eq!(&v.dvfs_pair(s, &v.base)[0], helcfl);
        assert_eq!(&v.etas(s)[2], helcfl);
        // The fast scenario's C is 0.2, so that sweep point merges.
        assert_eq!(&v.fractions(s)[2], helcfl);
        let names: Vec<_> = v.plan().iter().map(|r| r.name(&v.base)).collect();
        assert_eq!(
            names[..6],
            ["iid_helcfl", "iid_classic", "iid_fedcs", "iid_fedl", "iid_sl", "iid_helcfl-nodvfs"]
        );
        for name in [
            "iid_helcfl-eta0.99",
            "iid_helcfl-c0.1",
            "iid_helcfl-nodvfs-battery50",
            "iid_fedcs-faults0.05",
            "iid_classic-faults0.3",
        ] {
            assert!(names.iter().any(|n| n == name), "{name} not in {names:?}");
        }
    }

    #[test]
    fn the_zero_fault_rate_and_every_sl_point_are_the_lineup_runs() {
        let v = views(true);
        let s = Setting::Iid;
        let lineup = v.lineup(s);
        let faults = v.faults(s);
        assert_eq!(faults.len(), FAULT_RATES.len());
        assert_eq!(faults[0], lineup, "rate 0 is not the lineup");
        for runs in &faults[1..] {
            let (sl, federated) = runs.split_last().unwrap();
            assert_eq!(sl, &lineup[4], "SL is not the lineup's SL");
            for (run, plain) in federated.iter().zip(&lineup) {
                assert_ne!(run, plain, "a nonzero rate merged into the lineup");
            }
        }
    }
}

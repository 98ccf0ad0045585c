//! The three workloads and how each is measured.
//!
//! A run interleaves three kinds of repetition until each has its
//! minimum count and the time budget is spent:
//!
//! - a **set-up** build, timed and dropped, for `setup_s`;
//! - a **timed** repetition: the production entrypoint, untraced. It
//!   gives `rounds_per_s`, the median over repetitions;
//! - a **layered** repetition: the same rounds with a bench-side span
//!   around every layer call. It gives the round percentiles and every
//!   per-layer metric.
//!
//! Interleaving makes drift in the host's load during a run reach all
//! three alike, and a host-speed probe sample after every repetition
//! scales every timing to the reference host (see [`crate::probe`]).
//! Every repetition's output is checked against the first
//! timed one. Whatever `--seed` is, a reference run of the workload at
//! smoke scale and the pinned seed is checked against its pinned hash;
//! at the pinned seed the full-scale output is checked against its own.

use std::error::Error;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use fl_sim::faults::{DegradationPolicy, FaultConfig};
use fl_sim::frequency::FrequencyPolicy;
use fl_sim::history::TrainingHistory;
use fl_sim::runner::TrainingConfig;
use fl_sim::seeds::{derive, SeedDomain};
use fl_sim::selection::{validate_selection, ClientSelector, DeviceSet, SelectionContext};
use helcfl::{DecayCoefficient, Helcfl, IndexedDecaySelector, SlackFrequencyPolicy};
use helcfl_bench::gate::percentile_nearest_rank;
use helcfl_bench::{PaperScenario, Setting};
use helcfl_telemetry::json::JsonValue;
use helcfl_telemetry::{fnv1a_hex, resource, span, Telemetry};
use mec_sim::device::DeviceId;
use mec_sim::fleet::Fleet;
use mec_sim::population::PopulationBuilder;
use mec_sim::timeline::RoundTimeline;
use mec_sim::units::{Bits, Seconds};

use crate::kernels::{self, Kernels};
use crate::mirror;
use crate::probe::{self, Probe};
use crate::spans::{end, phase, Layered, SpanLog};

/// The paper scheme's decay coefficient η (Eq. 20).
const ETA: f64 = 0.5;

/// The fast-scale IID HELCFL history every engine must reproduce.
const GOLDEN_FAST_IID: &str = include_str!("../../results/golden/history_fast_iid_helcfl.csv");

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HELCFL on the paper's own IID experiment.
    PaperIid,
    /// HELCFL on the Non-IID split with minibatches, faults and a
    /// round deadline.
    NoniidFaults,
    /// The control plane alone at Q = 10^6.
    Pop1m,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 3] = [Workload::PaperIid, Workload::NoniidFaults, Workload::Pop1m];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Self::PaperIid => "paper-iid",
            Self::NoniidFaults => "noniid-faults",
            Self::Pop1m => "pop-1m",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Repetition counts, which `--smoke` scales down.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Set-up builds timed for `setup_s` (the median is reported).
    pub setup_reps: usize,
    /// Timed repetitions run whatever the budget.
    pub min_timed_reps: usize,
    /// Round samples the layered run collects whatever the budget.
    pub min_layered_rounds: u64,
    /// Length of one timed batch of the kernel section.
    pub kernel_batch: Duration,
}

impl Scale {
    /// Full scale: at least 1 200 layered rounds, so that a round p90
    /// has at least 120 samples beyond it.
    pub const FULL: Scale = Scale {
        setup_reps: 9,
        min_timed_reps: 3,
        min_layered_rounds: 1_200,
        kernel_batch: Duration::from_millis(30),
    };
    /// `--smoke`: enough repetitions to exercise every check.
    pub const SMOKE: Scale = Scale {
        setup_reps: 3,
        min_timed_reps: 2,
        min_layered_rounds: 1,
        kernel_batch: Duration::from_millis(2),
    };
}

/// Everything a workload run needs from the command line.
#[derive(Debug)]
pub struct Opts {
    /// Master seed of the generated inputs.
    pub seed: u64,
    /// Measurement budget.
    pub budget: Duration,
    /// Reduced-scale run.
    pub smoke: bool,
    /// Repetition counts.
    pub scale: Scale,
    /// Directory for the layered run's JSONL trace.
    pub trace_out: Option<PathBuf>,
    /// The reference hashes (`pins.json`).
    pub pins: JsonValue,
}

impl Opts {
    /// The pinned seed and `w`'s pinned output hash at `scale`
    /// (`"full"` or `"smoke"`).
    ///
    /// # Errors
    ///
    /// Names the missing entry when the pins lack it.
    fn pin(&self, scale: &str, w: Workload) -> Result<(u64, &str), String> {
        let seed = self.pins.get("seed").and_then(JsonValue::as_f64);
        let hash = self
            .pins
            .get(scale)
            .and_then(|s| s.get(w.name()))
            .and_then(JsonValue::as_str);
        seed.zip(hash)
            .map(|(seed, hash)| (seed as u64, hash))
            .ok_or_else(|| format!("the pins lack the seed or the {scale} hash of {}", w.name()))
    }

    /// The span log of `w`'s layered run.
    fn span_log(&self, w: Workload) -> std::io::Result<SpanLog> {
        let path = self
            .trace_out
            .as_ref()
            .map(|dir| dir.join(format!("{}.jsonl", w.name())));
        SpanLog::new(path.as_deref())
    }
}

/// The measured metrics of one workload and its correctness tally.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Rounds run, over every repetition and check.
    pub attempted: u64,
    /// Rounds whose output failed a check.
    pub failed: u64,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Counts `rounds` as failed, naming the check, unless `ok`.
    fn check(&mut self, ok: bool, rounds: u64, what: &str) {
        if !ok {
            self.failed += rounds;
            eprintln!("FAIL: {what}");
        }
    }

    /// Checks the full-scale output `hash` against its pin when
    /// `--seed` is the pinned seed; at any other seed (or with
    /// `--smoke`) says that the repetitions are checked against each
    /// other and the reference run against its pin.
    fn check_pin(
        &mut self,
        w: Workload,
        opts: &Opts,
        hash: &str,
        rounds: u64,
    ) -> Result<(), String> {
        let (seed, pinned) = opts.pin("full", w)?;
        if opts.smoke || seed != opts.seed {
            eprintln!(
                "{}: no full-scale pin for this seed and scale; checking the repetitions \
                 against each other and the smoke-scale reference run against its pin",
                w.name()
            );
        } else {
            self.check(
                hash == pinned,
                rounds,
                &format!(
                    "{} output hash {hash} differs from the pinned {pinned}",
                    w.name()
                ),
            );
        }
        Ok(())
    }

    /// Checks a reference run's output `hash` against the smoke-scale
    /// pin of `w`.
    fn check_reference(
        &mut self,
        w: Workload,
        opts: &Opts,
        hash: &str,
        rounds: u64,
    ) -> Result<(), String> {
        let (_, pinned) = opts.pin("smoke", w)?;
        self.attempted += rounds;
        self.check(
            hash == pinned,
            rounds,
            &format!(
                "{} reference run hash {hash} differs from the pinned {pinned}",
                w.name()
            ),
        );
        Ok(())
    }

    /// The metrics every workload reports: end-to-end ones from the
    /// timed and layered repetitions, per-layer ones from the layered
    /// spans and the kernel section. Every timing is scaled to the
    /// reference host by `times.speed()`; the `wall.` metrics are the
    /// unscaled end-to-end timings.
    fn common(
        &mut self,
        rounds_per_rep: f64,
        times: &Times,
        layered: &Layered,
        k: &Kernels,
        probe: &Probe,
    ) {
        let speed = times.speed();
        let timed = median_s(&times.timed);
        let setup = median_s(&times.setup);
        let round_us = |q| {
            layered
                .quantile_us("round", q)
                .expect("the layered run recorded rounds")
        };
        self.metric("rounds_per_s", rounds_per_rep / timed / speed, "rounds/s");
        self.metric("round_p50_us", round_us(0.5) * speed, "us");
        self.metric("round_p90_us", round_us(0.9) * speed, "us");
        self.metric("setup_s", setup * speed, "s");
        let peak = resource::peak_rss_bytes()
            .unwrap_or(0)
            .saturating_sub(probe.bytes());
        self.metric("peak_rss_mb", peak as f64 / (1u64 << 20) as f64, "MiB");
        self.metric("wall.rounds_per_s", rounds_per_rep / timed, "rounds/s");
        self.metric("wall.round_p50_us", round_us(0.5), "us");
        self.metric("wall.setup_s", setup, "s");
        self.metric("host.speed", speed, "ratio");

        for (name, span) in [
            ("helcfl.select_us_p50", "selection"),
            ("mec-sim.gather_us_p50", "gather"),
            ("helcfl.dvfs_us_p50", "frequency"),
            ("mec-sim.timeline_us_p50", "timeline"),
            ("fl-sim.local_update_us_p50", "local_update"),
            ("fl-sim.aggregate_us_p50", "aggregate"),
            ("fl-sim.evaluate_us_p50", "evaluate"),
        ] {
            if let Some(us) = layered.quantile_us(span, 0.5) {
                self.metric(name, us * speed, "us");
            }
        }
        self.metric(
            "fl-sim.local_update_share",
            layered.share("local_update"),
            "ratio",
        );
        self.metric("fl-sim.evaluate_share", layered.share("evaluate"), "ratio");
        self.metric(
            "tinynn.train_step_b200_us",
            k.train_step_b200_us * speed,
            "us",
        );
        self.metric(
            "tinynn.train_step_b20_us",
            k.train_step_b20_us * speed,
            "us",
        );
        self.metric("tinynn.forward_b256_us", k.forward_b256_us * speed, "us");
        self.metric("tinynn.train_gflops", k.train_gflops / speed, "GFLOP/s");
        self.metric("tinynn.forward_gflops", k.forward_gflops / speed, "GFLOP/s");
        let gap = (median_s(&times.layered) / timed - 1.0) * 100.0;
        self.metric("bench.mirror_gap_pct", gap, "%");
    }
}

/// Nearest-rank median of nanosecond samples, in seconds.
fn median_s(ns: &[u64]) -> f64 {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    percentile_nearest_rank(&sorted, 0.5) as f64 / 1e9
}

/// The kinds of repetition [`rotate`] interleaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rep {
    Setup,
    Timed,
    Layered,
}

/// Nanoseconds per repetition, by kind, and per probe sample.
#[derive(Debug, Default)]
struct Times {
    setup: Vec<u64>,
    timed: Vec<u64>,
    layered: Vec<u64>,
    probe: Vec<u64>,
}

impl Times {
    /// The host's speed over the run relative to the reference host:
    /// [`probe::REFERENCE_NS`] over the probe's median. A timing times
    /// this reads as on the reference host.
    fn speed(&self) -> f64 {
        probe::REFERENCE_NS / (median_s(&self.probe) * 1e9)
    }
}

/// Runs set-up, timed and layered repetitions in turn until the timed
/// kind has `scale.min_timed_reps`, the layered kind
/// `scale.min_layered_rounds` rounds, and `budget` is spent; then tops
/// the set-up builds up to `scale.setup_reps`. Each repetition is
/// followed by a probe sample. `rep` returns the rounds it ran and the
/// nanoseconds its timed region took.
fn rotate(
    budget: Duration,
    scale: Scale,
    probe: &mut Probe,
    mut rep: impl FnMut(Rep) -> Result<(u64, u64), Box<dyn Error>>,
) -> Result<Times, Box<dyn Error>> {
    let clock = Instant::now();
    let mut times = Times::default();
    let mut layered_rounds = 0;
    let mut run = |kind, times: &mut Times| -> Result<u64, Box<dyn Error>> {
        let (rounds, ns) = rep(kind)?;
        match kind {
            Rep::Setup => times.setup.push(ns),
            Rep::Timed => times.timed.push(ns),
            Rep::Layered => times.layered.push(ns),
        }
        times.probe.push(probe.sample());
        Ok(rounds)
    };
    while times.timed.len() < scale.min_timed_reps
        || layered_rounds < scale.min_layered_rounds
        || clock.elapsed() < budget
    {
        run(Rep::Setup, &mut times)?;
        run(Rep::Timed, &mut times)?;
        layered_rounds += run(Rep::Layered, &mut times)?;
    }
    while times.setup.len() < scale.setup_reps {
        run(Rep::Setup, &mut times)?;
    }
    Ok(times)
}

/// Nanoseconds `f` takes, with its result.
fn timed<T, E>(f: impl FnOnce() -> Result<T, E>) -> Result<(T, u64), E> {
    let t = Instant::now();
    let out = f()?;
    Ok((out, t.elapsed().as_nanos() as u64))
}

/// The first round where `actual` departs from `expected`, if any.
fn first_difference(actual: &TrainingHistory, expected: &TrainingHistory) -> Option<String> {
    if actual == expected {
        return None;
    }
    let mut records = actual.records().iter().zip(expected.records());
    Some(match records.position(|(a, e)| a != e) {
        Some(i) => format!("round {}", expected.records()[i].round),
        None => format!("length {} vs {}", actual.len(), expected.len()),
    })
}

/// FNV-1a of `history`'s CSV and of the exact bits of every round's
/// loss, accuracy, time and energy. The CSV rounds to six decimals,
/// which hides a change in the last bits of the arithmetic.
fn history_digest(history: &TrainingHistory) -> String {
    let mut bytes = history.to_csv().into_bytes();
    for r in history.records() {
        let accuracy = r.test_accuracy.map_or(u64::MAX, f64::to_bits);
        bytes.extend_from_slice(&r.train_loss.to_bits().to_le_bytes());
        for bits in [
            accuracy,
            r.round_time.get().to_bits(),
            r.round_energy.get().to_bits(),
            r.cumulative_time.get().to_bits(),
            r.cumulative_energy.get().to_bits(),
        ] {
            bytes.extend_from_slice(&bits.to_le_bytes());
        }
    }
    fnv1a_hex(&bytes)
}

/// A training workload's scenario, configuration, data split and
/// target accuracy: at full scale `PaperScenario::default()`, with
/// `smoke` `PaperScenario::fast()`, each with master seed `seed`.
fn training_workload(
    w: Workload,
    smoke: bool,
    seed: u64,
) -> (PaperScenario, TrainingConfig, Setting, f64) {
    let mut scenario = if smoke {
        PaperScenario::fast()
    } else {
        PaperScenario::default()
    };
    scenario.seed = seed;
    let mut config = scenario.training_config();
    config.threads = 1;
    if w == Workload::PaperIid {
        return (scenario, config, Setting::Iid, 0.8);
    }
    config.batch_size = 20;
    config.eval_every = 10;
    config.faults = FaultConfig {
        crash_rate: 0.05,
        straggler_rate: 0.10,
        upload_failure_rate: 0.10,
        channel_degradation_rate: 0.10,
        ..FaultConfig::none()
    };
    config.degradation = DegradationPolicy {
        round_deadline: Some(Seconds::new(120.0)),
        min_quorum: 3,
        charge_failed_selections: false,
    };
    (scenario, config, Setting::NonIid, 0.6)
}

/// Runs `paper-iid` or `noniid-faults`.
///
/// # Errors
///
/// Propagates any error the library returns; a wrong result is not an
/// error but a failed check in the returned [`Outcome`].
pub fn run_training(w: Workload, opts: &Opts) -> Result<Outcome, Box<dyn Error>> {
    // First, so that it is resident at the workload's peak memory.
    let mut probe = Probe::new(opts.seed);
    let (scenario, config, setting, target_accuracy) = training_workload(w, opts.smoke, opts.seed);
    let eta = DecayCoefficient::new(ETA)?;
    let framework = Helcfl::new(eta);
    let mut out = Outcome::default();
    let mut log = opts.span_log(w)?;

    let mut setup = scenario.setup(setting)?;
    let mut reference: Option<TrainingHistory> = None;
    let times = rotate(opts.budget, opts.scale, &mut probe, |rep| {
        let (history, ns) = match rep {
            Rep::Setup => return Ok((0, timed(|| scenario.setup(setting))?.1)),
            Rep::Timed => timed(|| framework.run(&mut setup, &config))?,
            Rep::Layered => log.record(|tele| timed(|| mirror::run(&setup, &config, eta, tele)))?,
        };
        let rounds = history.len() as u64;
        out.attempted += rounds;
        match &reference {
            None => reference = Some(history),
            Some(first) => {
                if let Some(at) = first_difference(&history, first) {
                    let kind = if rep == Rep::Layered {
                        "layered mirror"
                    } else {
                        "timed"
                    };
                    out.check(
                        false,
                        rounds,
                        &format!("a {kind} repetition diverged at {at}"),
                    );
                }
            }
        }
        Ok((rounds, ns))
    })?;
    let reference = reference.expect("at least one timed repetition");
    let layered = log.finish()?;
    let k = kernels::measure(opts.seed, opts.scale.kernel_batch)?;

    if w == Workload::PaperIid {
        // The pooled path is checked, not timed (see README).
        let pooled = framework.run(
            &mut setup,
            &TrainingConfig {
                threads: 2,
                ..config.clone()
            },
        )?;
        let rounds = pooled.len() as u64;
        out.attempted += rounds;
        if let Some(at) = first_difference(&pooled, &reference) {
            out.check(false, rounds, &format!("the 2-worker run diverged at {at}"));
        }
    }
    let timed_rounds = (times.timed.len() * reference.len()) as u64;
    out.check_pin(w, opts, &history_digest(&reference), timed_rounds)?;

    // The reference run: the same workload at smoke scale and the
    // pinned seed, so a change in the results shows at every seed.
    let (pinned_seed, _) = opts.pin("smoke", w)?;
    let (small, small_config, _, _) = training_workload(w, true, pinned_seed);
    let small_history = framework.run(&mut small.setup(setting)?, &small_config)?;
    let rounds = small_history.len() as u64;
    out.check_reference(w, opts, &history_digest(&small_history), rounds)?;
    if w == Workload::PaperIid {
        out.check(
            small_history.to_csv() == GOLDEN_FAST_IID,
            rounds,
            "fast-scale paper-iid differs from results/golden/history_fast_iid_helcfl.csv",
        );
    }

    out.common(reference.len() as f64, &times, &layered, &k, &probe);
    if let Some(a) = reference.final_accuracy() {
        out.metric("final_accuracy", a, "ratio");
    }
    if let Some(t) = reference.time_to_accuracy(target_accuracy) {
        out.metric("sim_delay_to_target_s", t.get(), "sim-s");
    }
    if let Some(e) = reference.energy_to_accuracy(target_accuracy) {
        out.metric("sim_energy_to_target_j", e.get(), "J");
    }
    let population = setup.population();
    out.metric(
        "mec-sim.fleet_bytes_per_device",
        population.memory_bytes() as f64 / population.len() as f64,
        "B",
    );
    let per_round = |name, attr| layered.sum(name, attr) / layered.rounds as f64;
    out.metric(
        "fl-sim.clients_per_round",
        per_round("local_update", "clients"),
        "count",
    );
    out.metric(
        "fl-sim.eval_rows_per_round",
        per_round("evaluate", "rows"),
        "count",
    );
    out.metric(
        "fl-sim.delivered_ratio",
        layered.sum("timeline", "delivered") / layered.sum("selection", "selected"),
        "ratio",
    );
    out.metric(
        "fl-sim.skipped_rounds",
        (reference.len() - reference.rounds_aggregated()) as f64,
        "count",
    );
    let faults: usize = reference.records().iter().map(|r| r.faults).sum();
    out.metric("fl-sim.faults_fired", faults as f64, "count");
    // The time the local updates would take as bare train steps, over
    // the time they took: above 1 where the cohort arena batches
    // clients, below 1 where dispatch and minibatch gathering cost.
    let kernel_s = if config.batch_size == 0 {
        layered.sum("local_update", "clients") * k.train_step_b200_us
    } else {
        layered.sum("local_update", "rows") / config.batch_size as f64 * k.train_step_b20_us
    } / 1e6;
    out.metric(
        "fl-sim.train_efficiency",
        kernel_s / layered.total_s("local_update"),
        "ratio",
    );
    Ok(out)
}

/// The size of the population workload.
#[derive(Debug, Clone, Copy)]
struct PopScale {
    /// Devices in the fleet.
    devices: usize,
    /// Devices selected per round.
    target: usize,
    /// Rounds per repetition, after round 1.
    rounds: usize,
}

impl PopScale {
    const FULL: PopScale = PopScale {
        devices: 1_000_000,
        target: 1_000,
        rounds: 500,
    };
    const SMOKE: PopScale = PopScale {
        devices: 10_000,
        target: 10,
        rounds: 50,
    };
}

/// A built fleet and the selector state after round 1, whose selection
/// builds the utility index.
struct Pop {
    fleet: Fleet,
    start: IndexedDecaySelector,
    first: Vec<DeviceId>,
    scale: PopScale,
    payload: Bits,
}

impl Pop {
    /// Builds the fleet for master seed `seed` and runs round 1; also
    /// returns the nanoseconds the fleet build alone took.
    fn build(seed: u64, scale: PopScale, eta: DecayCoefficient) -> fl_sim::Result<(Self, u64)> {
        let (fleet, fleet_ns) = timed(|| {
            PopulationBuilder::paper_default()
                .num_devices(scale.devices)
                .seed(derive(seed, SeedDomain::Population))
                .build_fleet()
        })?;
        let payload = PaperScenario::default().payload;
        let mut start = IndexedDecaySelector::new(eta);
        let first = start.select(&SelectionContext {
            round: 1,
            devices: DeviceSet::from_fleet(&fleet),
            payload,
            target: scale.target,
        })?;
        let pop = Self {
            fleet,
            start,
            first,
            scale,
            payload,
        };
        Ok((pop, fleet_ns))
    }

    /// One control-plane round: select, gather, DVFS, TDMA timeline.
    /// Returns the picks and the makespan.
    fn round(
        &self,
        selector: &mut IndexedDecaySelector,
        round: usize,
        tele: &Telemetry,
    ) -> fl_sim::Result<(Vec<DeviceId>, Seconds)> {
        let round_span = span!(tele, "round", index = round);
        let ids = phase(
            &round_span,
            "selection",
            |s| -> fl_sim::Result<Vec<DeviceId>> {
                let ctx = SelectionContext {
                    round,
                    devices: DeviceSet::from_fleet(&self.fleet),
                    payload: self.payload,
                    target: self.scale.target,
                };
                let ids = selector.select(&ctx)?;
                validate_selection(&ctx, &ids)?;
                s.set("selected", ids.len());
                Ok(ids)
            },
        )?;
        let cohort = phase(&round_span, "gather", |_| self.fleet.gather(&ids));
        let freqs = phase(&round_span, "frequency", |_| {
            SlackFrequencyPolicy.frequencies(&cohort, self.payload)
        })?;
        let makespan = phase(&round_span, "timeline", |_| {
            RoundTimeline::simulate(&cohort, &freqs, self.payload).map(|t| t.makespan())
        })?;
        end(round_span);
        Ok((ids, makespan))
    }

    /// Rounds 2 onward from the state round 1 left, on `tele`; returns
    /// the FNV-1a hash of every round's picks and makespan.
    fn replay(&self, tele: &Telemetry) -> fl_sim::Result<String> {
        let mut selector = self.start.clone();
        let mut bytes = Vec::new();
        let mut digest = |ids: &[DeviceId], makespan: Option<Seconds>| {
            for id in ids {
                bytes.extend_from_slice(&(id.0 as u64).to_le_bytes());
            }
            if let Some(m) = makespan {
                bytes.extend_from_slice(&m.get().to_bits().to_le_bytes());
            }
        };
        digest(&self.first, None);
        for round in 2..=self.scale.rounds + 1 {
            let (ids, makespan) = self.round(&mut selector, round, tele)?;
            digest(&ids, Some(makespan));
        }
        Ok(fnv1a_hex(&bytes))
    }
}

/// Runs `pop-1m`: a fleet of 10^6 devices (10^4 with `--smoke`), the
/// indexed Alg. 2 selector at target 1 000, Alg. 3 DVFS and the TDMA
/// timeline, with no training. Set-up is the fleet build plus round 1;
/// every repetition replays the same rounds from the state it left.
///
/// # Errors
///
/// Propagates library errors, as [`run_training`].
pub fn run_population(opts: &Opts) -> Result<Outcome, Box<dyn Error>> {
    let w = Workload::Pop1m;
    let scale = if opts.smoke {
        PopScale::SMOKE
    } else {
        PopScale::FULL
    };
    let mut probe = Probe::new(opts.seed);
    let eta = DecayCoefficient::new(ETA)?;
    let mut out = Outcome::default();
    let mut log = opts.span_log(w)?;

    let mut fleet_ns = Vec::new();
    let (pop, ns) = Pop::build(opts.seed, scale, eta)?;
    fleet_ns.push(ns);
    let index_bytes = pop.start.memory_bytes();

    let rounds = scale.rounds as u64;
    let mut reference: Option<String> = None;
    let times = rotate(opts.budget, opts.scale, &mut probe, |rep| {
        let (digest, ns) = match rep {
            Rep::Setup => {
                let ((_, build_ns), ns) = timed(|| Pop::build(opts.seed, scale, eta))?;
                fleet_ns.push(build_ns);
                return Ok((0, ns));
            }
            Rep::Timed => timed(|| pop.replay(&Telemetry::disabled()))?,
            Rep::Layered => log.record(|tele| timed(|| pop.replay(tele)))?,
        };
        out.attempted += rounds;
        match &reference {
            None => reference = Some(digest),
            Some(first) => out.check(
                digest == *first,
                rounds,
                "a repetition's picks or makespans differ from the first timed one's",
            ),
        }
        Ok((rounds, ns))
    })?;
    let reference = reference.expect("at least one timed repetition");
    let layered = log.finish()?;
    let k = kernels::measure(opts.seed, opts.scale.kernel_batch)?;
    out.check_pin(w, opts, &reference, times.timed.len() as u64 * rounds)?;

    // The reference run, as for the training workloads.
    let (pinned_seed, _) = opts.pin("smoke", w)?;
    let (small, _) = Pop::build(pinned_seed, PopScale::SMOKE, eta)?;
    let digest = small.replay(&Telemetry::disabled())?;
    out.check_reference(w, opts, &digest, PopScale::SMOKE.rounds as u64)?;

    out.common(scale.rounds as f64, &times, &layered, &k, &probe);
    out.metric(
        "mec-sim.fleet_bytes_per_device",
        pop.fleet.memory_bytes() as f64 / scale.devices as f64,
        "B",
    );
    out.metric(
        "mec-sim.fleet_build_s",
        median_s(&fleet_ns) * times.speed(),
        "s",
    );
    out.metric(
        "helcfl.index_bytes_per_device",
        index_bytes as f64 / scale.devices as f64,
        "B",
    );
    Ok(out)
}

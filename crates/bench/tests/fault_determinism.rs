//! Pins the fault layer's central compatibility promise: with
//! `FaultPlan::none()` (the default `TrainingConfig`), every scheme's
//! round history is bit-identical to the pre-fault-layer engine, and
//! so is its Sim-class metrics registry once the three fault series
//! every round reports are set aside. The fingerprints below were
//! captured from the engine *before* the fault subsystem existed;
//! every round now resolves through the fault-aware `FaultedRound`,
//! which must keep reproducing them exactly. The three fault series
//! (`faults.fired`, `round.delivered`, `faults.wasted_energy_j`) are
//! asserted exactly instead: no fault fires, every selected update is
//! delivered, and every round wastes zero joules.
//!
//! Beyond the pin, this suite checks the two determinism properties
//! the fault layer itself must uphold: an armed round deadline that
//! never fires reproduces the same pins bit for bit, and
//! fault-afflicted histories are bit-identical across worker-thread
//! counts.

use fl_sim::faults::{DegradationPolicy, FaultConfig};
use helcfl_bench::scenario::{PaperScenario, Setting};
use helcfl_bench::schemes::Scheme;
use fl_sim::history::TrainingHistory;
use helcfl_telemetry::{Histogram, Metric, MetricsRegistry, Telemetry};
use mec_sim::units::Seconds;

/// FNV-1a 64-bit over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Bit-exact fingerprint of a training history over the fields that
/// existed before the fault layer: every numeric value of every
/// record, in order, via its IEEE-754 bit pattern. New fault-era
/// fields (delivered, wasted energy, …) are deliberately excluded so
/// the pinned pre-fault constants below stay comparable.
fn history_fingerprint(history: &fl_sim::history::TrainingHistory) -> u64 {
    let mut h = Fnv::new();
    h.update(history.scheme().as_bytes());
    for r in history.records() {
        h.u64(r.round as u64);
        for id in &r.selected {
            h.u64(id.0 as u64);
        }
        h.u64(r.alive_devices as u64);
        h.f64(r.round_time.get());
        h.f64(r.eq10_time.get());
        h.f64(r.round_energy.get());
        h.f64(r.compute_energy.get());
        h.f64(r.slack.get());
        h.f64(f64::from(r.train_loss));
        h.f64(r.test_accuracy.unwrap_or(-1.0));
        h.f64(r.cumulative_time.get());
        h.f64(r.cumulative_energy.get());
    }
    h.0
}

fn scenario() -> PaperScenario {
    let mut s = PaperScenario::fast();
    s.max_rounds = 8;
    s
}

/// The Sim series every round reports that the pre-fault engine did
/// not. They are left out of the pinned registry hash and asserted
/// exactly by [`assert_fault_free_series`].
const FAULT_SERIES: [&str; 3] = ["faults.fired", "round.delivered", "faults.wasted_energy_j"];

/// Runs `scheme` on the reference scenario (optionally customizing the
/// training config) and returns its history and deterministic
/// (Sim-class) metrics registry.
fn run_with(
    scheme: &Scheme,
    tweak: impl FnOnce(&mut fl_sim::runner::TrainingConfig),
) -> (TrainingHistory, MetricsRegistry) {
    let s = scenario();
    let mut config = s.training_config();
    tweak(&mut config);
    let mut setup = s.setup(Setting::Iid).unwrap();
    let tele = Telemetry::metrics_only();
    let history = scheme.run_traced(&mut setup, &config, &tele).unwrap();
    (history, tele.snapshot().deterministic())
}

/// FNV-1a over the registry's JSON with exactly [`FAULT_SERIES`]
/// removed: the registry the pre-fault engine recorded.
fn pre_fault_registry_fingerprint(registry: &MetricsRegistry) -> u64 {
    let mut pre_fault = MetricsRegistry::new();
    for (name, class, metric) in registry.iter() {
        if !FAULT_SERIES.contains(&name) {
            pre_fault.insert(class, name, metric.clone());
        }
    }
    let mut h = Fnv::new();
    h.update(pre_fault.to_json().finish().as_bytes());
    h.0
}

/// `(history fingerprint, pre-fault registry fingerprint)`.
fn fingerprints_with(
    scheme: &Scheme,
    tweak: impl FnOnce(&mut fl_sim::runner::TrainingConfig),
) -> (u64, u64) {
    let (history, registry) = run_with(scheme, tweak);
    (history_fingerprint(&history), pre_fault_registry_fingerprint(&registry))
}

/// The fault series of a run in which nothing can fail: zero faults
/// fired, every selected update delivered, and one zero-joule wasted
/// energy sample per round.
fn assert_fault_free_series(label: &str, history: &TrainingHistory, registry: &MetricsRegistry) {
    assert_eq!(registry.get("faults.fired"), Some(&Metric::Counter(0)), "{label}: faults.fired");
    assert_eq!(
        registry.counter("round.delivered"),
        registry.counter("round.selected"),
        "{label}: round.delivered must equal round.selected"
    );
    assert!(registry.counter("round.selected") > 0, "{label}: nothing selected");
    let mut zeros = Histogram::new();
    for _ in history.records() {
        zeros.record(0.0);
    }
    assert_eq!(
        registry.histogram("faults.wasted_energy_j"),
        Some(&zeros),
        "{label}: faults.wasted_energy_j must hold one zero per round"
    );
}

/// Reference fingerprints captured from the engine as of the commit
/// that introduced the fault layer, *before* any fault code existed.
/// (classic and fedl share a registry hash: both are random selectors
/// emitting the identical Sim metric set.)
const PINNED: [(Scheme, u64, u64); 4] = [
    (Scheme::Helcfl { eta: 0.5, dvfs: true }, 0xaeee3c4467673763, 0x965635a4fefaa331),
    (Scheme::Classic, 0xe571d97061271c86, 0x6effdd8f5bf2ac9d),
    (Scheme::FedCs { round_deadline_s: 13.0 }, 0xd2d45a83da11f808, 0x4a5cf2e554a4f953),
    (Scheme::Fedl { kappa: 1.0 }, 0xd3da3bc18b874121, 0x6effdd8f5bf2ac9d),
];

/// Runs every pinned scheme under `tweak` and holds it to its pins
/// and to the fault-free fault series.
fn assert_reproduces_pins(what: &str, tweak: impl Fn(&mut fl_sim::runner::TrainingConfig)) {
    for (scheme, hist, reg) in PINNED {
        let label = scheme.label();
        let (history, registry) = run_with(&scheme, &tweak);
        let h = history_fingerprint(&history);
        let r = pre_fault_registry_fingerprint(&registry);
        assert_eq!(
            h,
            hist,
            "{label} ({what}): history diverged from the pre-fault engine (got {h:#018x})"
        );
        assert_eq!(
            r,
            reg,
            "{label} ({what}): Sim-metrics registry diverged from the pre-fault engine \
             (got {r:#018x})"
        );
        assert_fault_free_series(label, &history, &registry);
    }
}

#[test]
fn default_config_reproduces_pre_fault_fingerprints() {
    assert_reproduces_pins("default config", |_| {});
}

#[test]
fn never_binding_deadline_reproduces_pre_fault_fingerprints() {
    // A round deadline is armed every round but never fires, and the
    // fault plan stays inert: history and registry must still come out
    // bit-identical to the pins.
    assert_reproduces_pins("never-binding deadline", |config| {
        config.degradation = DegradationPolicy {
            round_deadline: Some(Seconds::new(1.0e12)),
            ..DegradationPolicy::default()
        };
    });
}

#[test]
fn consecutive_runs_reproduce_identical_fingerprints() {
    // Each run builds (and tears down) its own persistent worker pool;
    // two back-to-back runs in one process must reproduce the same
    // pinned bits — no pool or telemetry state may bleed across runs.
    let scheme = Scheme::Helcfl { eta: 0.5, dvfs: true };
    let first = fingerprints_with(&scheme, |config| config.threads = 3);
    let second = fingerprints_with(&scheme, |config| config.threads = 3);
    assert_eq!(first, second, "back-to-back runs diverged");
    assert_eq!(first.0, PINNED[0].1, "rerun drifted from the pinned history");
}

#[test]
fn faulted_histories_are_bit_identical_across_thread_counts() {
    let run = |threads: usize| {
        let s = scenario();
        let mut config = s.training_config();
        config.threads = threads;
        config.faults = FaultConfig::uniform(0.15);
        config.degradation = DegradationPolicy {
            round_deadline: Some(Seconds::new(40.0)),
            min_quorum: 1,
            charge_failed_selections: false,
        };
        let mut setup = s.setup(Setting::Iid).unwrap();
        let tele = Telemetry::metrics_only();
        let scheme = Scheme::Helcfl { eta: 0.5, dvfs: true };
        let history = scheme.run_traced(&mut setup, &config, &tele).unwrap();
        let registry = tele.snapshot().deterministic().to_json().finish();
        (history, registry)
    };
    let (h1, r1) = run(1);
    let (h3, r3) = run(3);
    let (h4, r4) = run(4);
    // Sanity: the fault plan actually fired somewhere, or this test
    // proves nothing.
    assert!(
        h1.records().iter().any(|r| r.faults > 0),
        "no fault fired at rate 0.15 over {} rounds",
        h1.len()
    );
    assert!(h1.delivered_fraction() < 1.0, "every faulted update still delivered");
    assert_eq!(h1, h3, "1-thread vs 3-thread faulted histories diverge");
    assert_eq!(h1, h4, "1-thread vs 4-thread faulted histories diverge");
    assert_eq!(r1, r3, "1-thread vs 3-thread Sim registries diverge");
    assert_eq!(r1, r4, "1-thread vs 4-thread Sim registries diverge");
}

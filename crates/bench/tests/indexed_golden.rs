//! End-to-end bit-identity of the indexed selector, the one
//! [`Helcfl::run`] selects through: a full fast-scale HELCFL run
//! (IndexedDecaySelector + SlackFrequencyPolicy) must produce a
//! training history byte-identical to the committed golden CSV — the
//! same artifact `ci.sh` pins the reference pipeline against — and to
//! a reference-selector run of the same setup. A second input takes
//! `Helcfl::run` where the IID golden does not reach: refunds of
//! failed selections and a shrinking alive mask, run straight through
//! and killed and resumed from its checkpoint.

use fl_sim::checkpoint::CheckpointConfig;
use fl_sim::faults::{DegradationPolicy, FaultConfig};
use fl_sim::runner::{run_federated, TrainingConfig};
use helcfl::{GreedyDecaySelector, Helcfl, IndexedDecaySelector, SlackFrequencyPolicy};
use helcfl_bench::scenario::{PaperScenario, Setting};
use mec_sim::units::{Joules, Seconds};

#[test]
fn indexed_selector_reproduces_the_golden_history() {
    let scenario = PaperScenario::fast();
    let config = scenario.training_config();

    let mut setup = scenario.setup(Setting::Iid).unwrap();
    let mut indexed = IndexedDecaySelector::default();
    let history =
        run_federated(&mut setup, &config, &mut indexed, &SlackFrequencyPolicy).unwrap();

    // The CSV embeds the scheme name per row; name parity ("helcfl")
    // is part of the byte identity being asserted here.
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/golden/history_fast_iid_helcfl.csv"
    );
    let golden = std::fs::read_to_string(golden_path).unwrap();
    assert_eq!(
        history.to_csv(),
        golden,
        "indexed selector diverged from the golden history"
    );

    // And against a same-process reference run, for a diagnosable
    // failure mode should the golden file ever be regenerated.
    let mut setup = scenario.setup(Setting::Iid).unwrap();
    let mut reference = GreedyDecaySelector::default();
    let ref_history =
        run_federated(&mut setup, &config, &mut reference, &SlackFrequencyPolicy).unwrap();
    assert_eq!(history.to_csv(), ref_history.to_csv());
}

/// The Non-IID fast setting with faults, a round deadline, refunds
/// (`charge_failed_selections: false`) and a battery budget, so the
/// selector sees `on_delivery_failure` and a masked, shrinking device
/// set.
fn refunds_and_batteries() -> (PaperScenario, TrainingConfig) {
    let scenario = PaperScenario::fast();
    let config = TrainingConfig {
        faults: FaultConfig::uniform(0.15),
        degradation: DegradationPolicy {
            round_deadline: Some(Seconds::new(40.0)),
            min_quorum: 1,
            charge_failed_selections: false,
        },
        battery_capacity: Some(Joules::new(50.0)),
        ..scenario.training_config()
    };
    (scenario, config)
}

/// Under refunds and batteries `Helcfl::run` must write the CSV of the
/// literal selector run through `run_federated`, byte for byte.
#[test]
fn helcfl_run_matches_the_literal_selector_under_refunds_and_batteries() {
    let (scenario, config) = refunds_and_batteries();
    let mut setup = scenario.setup(Setting::NonIid).unwrap();
    let history = Helcfl::default().run(&mut setup, &config).unwrap();
    let mut setup = scenario.setup(Setting::NonIid).unwrap();
    let mut reference = GreedyDecaySelector::default();
    let ref_history =
        run_federated(&mut setup, &config, &mut reference, &SlackFrequencyPolicy).unwrap();

    // The input reaches what it is here for, or the comparison proves
    // nothing: failed deliveries (refunded) and depleted devices.
    let records = history.records();
    assert!(records.iter().any(|r| r.delivered.len() < r.selected.len()), "no delivery failed");
    assert!(
        records.iter().any(|r| r.alive_devices < scenario.num_devices),
        "no device depleted its battery"
    );
    assert_eq!(history.to_csv(), ref_history.to_csv());
}

/// The same input killed after round `k` and resumed from its
/// checkpoint: the resumed `Helcfl::run` restores the production
/// selector's appearance counts (refunds included) and must write the
/// uninterrupted run's CSV, byte for byte.
#[test]
fn helcfl_run_resumes_bit_identically_under_refunds_and_batteries() {
    let (scenario, config) = refunds_and_batteries();
    let mut setup = scenario.setup(Setting::NonIid).unwrap();
    let uninterrupted = Helcfl::default().run(&mut setup, &config).unwrap();

    let dir = std::env::temp_dir()
        .join(format!("helcfl_indexed_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let k = uninterrupted.len() / 2;
    let halting = TrainingConfig {
        checkpoint: Some(CheckpointConfig { halt_after: Some(k), ..CheckpointConfig::new(&dir) }),
        ..config.clone()
    };
    let mut setup = scenario.setup(Setting::NonIid).unwrap();
    let partial = Helcfl::default().run(&mut setup, &halting).unwrap();
    let resuming =
        TrainingConfig { checkpoint: Some(CheckpointConfig::new(&dir)), ..config };
    let mut setup = scenario.setup(Setting::NonIid).unwrap();
    let resumed = Helcfl::default().run(&mut setup, &resuming).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(partial.len(), k, "the halted run stops after round k");
    // A refund lands before the kill, so the restored counts carry one.
    assert!(
        partial.records().iter().any(|r| r.delivered.len() < r.selected.len()),
        "no delivery failed before the kill"
    );
    assert_eq!(resumed.to_csv(), uninterrupted.to_csv(), "resumed run diverged");
}

//! Algorithm 1 — the HELCFL two-phase framework.
//!
//! The initialization phase (resource-information collection) is
//! realized by [`FederatedSetup`]: building it installs every user's
//! dataset size, CPU range, and uplink rate — exactly the information
//! Alg. 1 lines 1–2 gather. The iterative phase wires Alg. 2
//! (selection) and Alg. 3 (frequency determination) into the generic
//! synchronous loop of [`fl_sim::runner::run_federated`]. Alg. 2 runs
//! through [`IndexedDecaySelector`] at every fleet size; it picks
//! exactly what the literal
//! [`GreedyDecaySelector`](crate::selection::GreedyDecaySelector)
//! would.

use fl_sim::error::Result;
use fl_sim::frequency::MaxFrequency;
use fl_sim::history::TrainingHistory;
use fl_sim::runner::{run_federated_traced, FederatedSetup, TrainingConfig};
use helcfl_telemetry::Telemetry;

use crate::dvfs::SlackFrequencyPolicy;
use crate::indexed::IndexedDecaySelector;
use crate::utility::DecayCoefficient;

/// The assembled HELCFL framework.
///
/// # Examples
///
/// ```
/// use fl_sim::dataset::{DatasetConfig, SyntheticTask};
/// use fl_sim::partition::Partition;
/// use fl_sim::runner::{FederatedSetup, TrainingConfig};
/// use helcfl::framework::Helcfl;
/// use mec_sim::population::PopulationBuilder;
///
/// let config = TrainingConfig {
///     max_rounds: 3,
///     fraction: 0.2,
///     model_dims: vec![8, 8, 3],
///     ..TrainingConfig::default()
/// };
/// let task = SyntheticTask::generate(DatasetConfig {
///     num_classes: 3,
///     feature_dim: 8,
///     train_samples: 120,
///     test_samples: 30,
///     ..DatasetConfig::default()
/// })?;
/// let population = PopulationBuilder::paper_default().num_devices(10).build()?;
/// let partition = Partition::iid(120, 10, 0)?;
/// let mut setup = FederatedSetup::new(population, &task, &partition, &config)?;
///
/// let history = Helcfl::default().run(&mut setup, &config)?;
/// assert_eq!(history.len(), 3);
/// assert_eq!(history.scheme(), "helcfl");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Helcfl {
    eta: DecayCoefficient,
    dvfs: bool,
}

impl Default for Helcfl {
    /// HELCFL with the default decay coefficient and DVFS enabled.
    fn default() -> Self {
        Self { eta: DecayCoefficient::default(), dvfs: true }
    }
}

impl Helcfl {
    /// Creates the framework with an explicit decay coefficient.
    pub fn new(eta: DecayCoefficient) -> Self {
        Self { eta, dvfs: true }
    }

    /// Disables the Alg.-3 frequency determination, falling back to
    /// `f_max` everywhere — the "traditional FL" arm of Fig. 3.
    pub fn without_dvfs(mut self) -> Self {
        self.dvfs = false;
        self
    }

    /// The configured decay coefficient.
    #[inline]
    pub fn eta(&self) -> DecayCoefficient {
        self.eta
    }

    /// Runs the full two-phase workflow (Alg. 1) on a prepared setup.
    ///
    /// # Errors
    ///
    /// Propagates configuration, selection, simulation, and training
    /// errors from the underlying loop.
    pub fn run(
        &self,
        setup: &mut FederatedSetup,
        config: &TrainingConfig,
    ) -> Result<TrainingHistory> {
        self.run_traced(setup, config, &Telemetry::disabled())
    }

    /// [`Helcfl::run`] with per-round spans and Alg.-2/Alg.-3 metrics
    /// recorded into `tele`. With [`Telemetry::disabled`] this is
    /// exactly `run` (zero overhead); the produced [`TrainingHistory`]
    /// is bit-identical either way.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Helcfl::run`].
    pub fn run_traced(
        &self,
        setup: &mut FederatedSetup,
        config: &TrainingConfig,
        tele: &Telemetry,
    ) -> Result<TrainingHistory> {
        let mut selector = IndexedDecaySelector::new(self.eta);
        if self.dvfs {
            run_federated_traced(setup, config, &mut selector, &SlackFrequencyPolicy, tele)
        } else {
            run_federated_traced(setup, config, &mut selector, &MaxFrequency, tele)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_sim::dataset::{DatasetConfig, SyntheticTask};
    use fl_sim::partition::Partition;
    use mec_sim::population::PopulationBuilder;

    fn world() -> (FederatedSetup, TrainingConfig) {
        let config = TrainingConfig {
            max_rounds: 12,
            fraction: 0.25,
            model_dims: vec![8, 8, 3],
            learning_rate: 0.5,
            seed: 4,
            ..TrainingConfig::default()
        };
        let task = SyntheticTask::generate(DatasetConfig {
            num_classes: 3,
            feature_dim: 8,
            train_samples: 240,
            test_samples: 60,
            seed: 5,
            ..DatasetConfig::default()
        })
        .unwrap();
        let pop = PopulationBuilder::paper_default().num_devices(12).seed(6).build().unwrap();
        let partition = Partition::iid(240, 12, 7).unwrap();
        let setup = FederatedSetup::new(pop, &task, &partition, &config).unwrap();
        (setup, config)
    }

    #[test]
    fn helcfl_runs_and_labels_its_history() {
        let (mut setup, config) = world();
        let history = Helcfl::default().run(&mut setup, &config).unwrap();
        assert_eq!(history.len(), 12);
        assert_eq!(history.scheme(), "helcfl");
        assert!(history.best_accuracy() > 0.0);
    }

    #[test]
    fn dvfs_cuts_energy_at_identical_accuracy_and_delay() {
        let (mut setup_a, config) = world();
        let with_dvfs = Helcfl::default().run(&mut setup_a, &config).unwrap();
        let (mut setup_b, config_b) = world();
        let without = Helcfl::default().without_dvfs().run(&mut setup_b, &config_b).unwrap();

        // Selection is deterministic and identical → same users, same
        // learning trajectory, same per-round makespans.
        for (a, b) in with_dvfs.records().iter().zip(without.records()) {
            assert_eq!(a.selected, b.selected);
            assert_eq!(a.test_accuracy, b.test_accuracy);
            assert!(
                (a.round_time.get() - b.round_time.get()).abs() < 1e-6,
                "round {}: DVFS changed makespan {} vs {}",
                a.round,
                a.round_time,
                b.round_time
            );
        }
        assert!(
            with_dvfs.total_energy() < without.total_energy(),
            "DVFS should save energy: {} vs {}",
            with_dvfs.total_energy(),
            without.total_energy()
        );
    }

    #[test]
    fn traced_run_is_bit_identical_and_fills_the_registry() {
        let (mut setup_a, config) = world();
        let plain = Helcfl::default().run(&mut setup_a, &config).unwrap();
        let (mut setup_b, config_b) = world();
        let tele = Telemetry::metrics_only();
        let traced = Helcfl::default().run_traced(&mut setup_b, &config_b, &tele).unwrap();
        assert_eq!(plain, traced, "telemetry changed the training history");
        let snap = tele.snapshot();
        assert_eq!(snap.counter("round.completed"), 12);
        assert_eq!(snap.counter("selection.rounds"), 12);
        assert!(snap.histogram("dvfs.downscale").is_some());
        assert!(snap.histogram("round.makespan_s").is_some());
    }

    #[test]
    fn accessors_reflect_construction() {
        let f = Helcfl::new(DecayCoefficient::new(0.7).unwrap());
        assert_eq!(f.eta().get(), 0.7);
    }
}

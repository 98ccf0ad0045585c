//! The paper's §VII-A experimental scenario, reproducible at full or
//! reduced scale.
//!
//! One deliberate deviation (DESIGN.md §4): the paper trains on
//! CIFAR-10 (500 samples/user); our synthetic task uses 200
//! samples/user, so we set `π = 2.5×10^7` cycles/sample to keep every
//! device's per-round work at the paper's `5×10^9` cycles — timing and
//! energy stay paper-scale while the learning workload stays tractable
//! on one CPU core.

use fl_sim::dataset::{DatasetConfig, SyntheticTask};
use fl_sim::error::Result;
use fl_sim::partition::Partition;
use fl_sim::runner::{FederatedSetup, TrainingConfig};
use fl_sim::seeds::{derive, SeedDomain};
use mec_sim::population::{Population, PopulationBuilder};
use mec_sim::units::Bits;

/// IID vs Non-IID data placement (Fig. 2a vs Fig. 2b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Setting {
    /// Shuffled, evenly dealt samples.
    Iid,
    /// Sort-by-label 400-shard split, 4 shards/user.
    NonIid,
}

impl Setting {
    /// Lower-case label used in file names and tables.
    pub fn label(self) -> &'static str {
        match self {
            Self::Iid => "iid",
            Self::NonIid => "noniid",
        }
    }
}

impl core::fmt::Display for Setting {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

impl core::str::FromStr for Setting {
    type Err = ();

    /// Reads a [`Setting::label`] back.
    fn from_str(label: &str) -> core::result::Result<Self, ()> {
        [Self::Iid, Self::NonIid].into_iter().find(|s| s.label() == label).ok_or(())
    }
}

/// The full §VII-A scenario with a scale knob for CI-speed runs.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperScenario {
    /// Number of user devices `Q` (paper: 100).
    pub num_devices: usize,
    /// Training iterations `J` (paper: 300).
    pub max_rounds: usize,
    /// Selection fraction `C` (paper: 0.1).
    pub fraction: f64,
    /// Train/test sizes of the synthetic task.
    pub train_samples: usize,
    /// Held-out evaluation samples.
    pub test_samples: usize,
    /// Shards per user in the Non-IID split (paper: 4).
    pub shards_per_user: usize,
    /// Model layer widths.
    pub model_dims: Vec<usize>,
    /// Learning rate τ.
    pub learning_rate: f32,
    /// Upload payload `C_model`.
    pub payload: Bits,
    /// Evaluate every this many rounds.
    pub eval_every: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for PaperScenario {
    fn default() -> Self {
        Self {
            num_devices: 100,
            max_rounds: 300,
            fraction: 0.1,
            train_samples: 20_000,
            test_samples: 2_000,
            shards_per_user: 4,
            model_dims: vec![64, 64, 10],
            learning_rate: 0.5,
            payload: Bits::from_megabits(40.0),
            eval_every: 1,
            seed: 2022,
        }
    }
}

impl PaperScenario {
    /// A heavily reduced variant for tests and timing harnesses:
    /// 20 devices, 30 rounds, a tiny model — same code paths, seconds
    /// of wall clock.
    pub fn fast() -> Self {
        Self {
            num_devices: 20,
            max_rounds: 30,
            fraction: 0.2,
            train_samples: 2_000,
            test_samples: 400,
            shards_per_user: 2,
            model_dims: vec![64, 32, 10],
            learning_rate: 0.5,
            payload: Bits::from_megabits(40.0),
            eval_every: 1,
            seed: 2022,
        }
    }

    /// The training configuration for this scenario.
    pub fn training_config(&self) -> TrainingConfig {
        TrainingConfig {
            max_rounds: self.max_rounds,
            fraction: self.fraction,
            payload: self.payload,
            learning_rate: self.learning_rate,
            eval_every: self.eval_every,
            model_dims: self.model_dims.clone(),
            seed: self.seed,
            ..TrainingConfig::default()
        }
    }

    /// Generates the synthetic learning task.
    ///
    /// # Errors
    ///
    /// Propagates dataset-generation errors.
    pub fn task(&self) -> Result<SyntheticTask> {
        SyntheticTask::generate(DatasetConfig {
            num_classes: 10,
            feature_dim: self.model_dims[0],
            train_samples: self.train_samples,
            test_samples: self.test_samples,
            seed: derive(self.seed, SeedDomain::Dataset),
            ..DatasetConfig::default()
        })
    }

    /// Generates the heterogeneous device population with
    /// work-equivalent `π` (see module docs).
    ///
    /// # Errors
    ///
    /// Propagates population-building errors.
    pub fn population(&self) -> Result<Population> {
        // Paper per-user work: 500 samples × 1e7 cycles = 5e9 cycles.
        let samples_per_user = (self.train_samples / self.num_devices).max(1);
        let pi = 5.0e9 / samples_per_user as f64;
        Ok(PopulationBuilder::paper_default()
            .num_devices(self.num_devices)
            .cycles_per_sample(pi)
            .seed(derive(self.seed, SeedDomain::Population))
            .build()?)
    }

    /// Builds the data partition for `setting`.
    ///
    /// # Errors
    ///
    /// Propagates partitioning errors.
    pub fn partition(&self, task: &SyntheticTask, setting: Setting) -> Result<Partition> {
        let seed = derive(self.seed, SeedDomain::Partition);
        match setting {
            Setting::Iid => Partition::iid(task.train().len(), self.num_devices, seed),
            Setting::NonIid => Partition::shards(
                task.train().labels(),
                self.num_devices,
                self.shards_per_user,
                seed,
            ),
        }
    }

    /// Builds the complete federated setup for `setting`.
    ///
    /// # Errors
    ///
    /// Propagates task, population, partition, and wiring errors.
    pub fn setup(&self, setting: Setting) -> Result<FederatedSetup> {
        let task = self.task()?;
        let population = self.population()?;
        let partition = self.partition(&task, setting)?;
        FederatedSetup::new(population, &task, &partition, &self.training_config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_scenario_wires_end_to_end() {
        let s = PaperScenario::fast();
        let setup = s.setup(Setting::Iid).unwrap();
        assert_eq!(setup.population().len(), 20);
        assert_eq!(setup.clients().len(), 20);
        // Per-round work is paper-scale regardless of sample counts.
        let d = &setup.population().devices()[0];
        assert!((d.work().get() - 5.0e9).abs() < 1e-3, "work {}", d.work());
    }

    #[test]
    fn noniid_partition_concentrates_labels() {
        let s = PaperScenario::fast();
        let task = s.task().unwrap();
        let iid = s.partition(&task, Setting::Iid).unwrap();
        let noniid = s.partition(&task, Setting::NonIid).unwrap();
        let mean = |p: &Partition| {
            (0..s.num_devices)
                .map(|u| p.distinct_labels(task.train().labels(), u))
                .sum::<usize>() as f64
                / s.num_devices as f64
        };
        assert!(mean(&noniid) < mean(&iid));
    }

    #[test]
    fn settings_have_stable_labels() {
        assert_eq!(Setting::Iid.label(), "iid");
        assert_eq!(Setting::NonIid.to_string(), "noniid");
    }

    #[test]
    fn default_matches_paper_parameters() {
        let s = PaperScenario::default();
        assert_eq!(s.num_devices, 100);
        assert_eq!(s.max_rounds, 300);
        assert_eq!(s.fraction, 0.1);
        assert_eq!(s.shards_per_user, 4);
    }
}

//! # helcfl — the paper's primary contribution
//!
//! A faithful implementation of *HELCFL: High-Efficiency and Low-Cost
//! Federated Learning in Heterogeneous Mobile-Edge Computing* (Cui,
//! Cao, Zhou, Wei — DATE 2022):
//!
//! - [`utility`] — the utility function of Eq. 20 with its decay
//!   coefficient and appearance counters,
//! - [`indexed`] — Algorithm 2, the utility-driven greedy-decay user
//!   selection, as the bucketed-utility index every HELCFL run selects
//!   through, at every fleet size,
//! - [`selection`] — Algorithm 2 written literally: the reference
//!   oracle the index is tested against pick for pick (not used by
//!   [`Helcfl`]),
//! - [`dvfs`] — Algorithm 3, the DVFS slack-time operating-frequency
//!   determination,
//! - [`framework`] — Algorithm 1, the assembled two-phase framework,
//! - [`theory`] — the §V-A FedAvg/centralized-GD equivalence (Eq. 19)
//!   as executable code.
//!
//! The MEC system models live in [`mec_sim`]; the FedAvg runtime in
//! [`fl_sim`]; comparison baselines in the `fl-baselines` crate.
//!
//! ## Quick tour
//!
//! ```
//! use fl_sim::dataset::{DatasetConfig, SyntheticTask};
//! use fl_sim::partition::Partition;
//! use fl_sim::runner::{FederatedSetup, TrainingConfig};
//! use helcfl::framework::Helcfl;
//! use mec_sim::population::PopulationBuilder;
//!
//! let config = TrainingConfig {
//!     max_rounds: 5,
//!     fraction: 0.2,
//!     model_dims: vec![8, 8, 3],
//!     ..TrainingConfig::default()
//! };
//! let task = SyntheticTask::generate(DatasetConfig {
//!     num_classes: 3,
//!     feature_dim: 8,
//!     train_samples: 120,
//!     test_samples: 30,
//!     ..DatasetConfig::default()
//! })?;
//! let population = PopulationBuilder::paper_default().num_devices(10).build()?;
//! let partition = Partition::iid(120, 10, 0)?;
//! let mut setup = FederatedSetup::new(population, &task, &partition, &config)?;
//!
//! let history = Helcfl::default().run(&mut setup, &config)?;
//! println!("best accuracy: {:.3}", history.best_accuracy());
//! println!("training energy: {}", history.total_energy());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dvfs;
pub mod framework;
pub mod indexed;
pub mod selection;
pub mod theory;
pub mod utility;

pub use dvfs::SlackFrequencyPolicy;
pub use framework::Helcfl;
pub use indexed::IndexedDecaySelector;
pub use selection::GreedyDecaySelector;
pub use utility::DecayCoefficient;

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Helcfl>();
        assert_send_sync::<crate::GreedyDecaySelector>();
        assert_send_sync::<crate::IndexedDecaySelector>();
        assert_send_sync::<crate::SlackFrequencyPolicy>();
    }
}

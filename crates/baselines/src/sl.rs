//! SL — separated learning (Ahn et al. \[4\]): every user trains its
//! own model in isolation; no aggregation ever happens.
//!
//! The runtime lives in [`fl_sim::separated`]; this module re-exports
//! it under the baseline's name so all four comparators are reachable
//! from one crate.

pub use fl_sim::separated::{run_separated, SeparatedConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use fl_sim::dataset::{DatasetConfig, SyntheticTask};
    use fl_sim::partition::Partition;
    use fl_sim::runner::{FederatedSetup, TrainingConfig};
    use mec_sim::population::PopulationBuilder;

    #[test]
    fn sl_baseline_is_wired_through() {
        let config = TrainingConfig {
            max_rounds: 4,
            model_dims: vec![8, 4, 3],
            eval_every: 2,
            ..TrainingConfig::default()
        };
        let task = SyntheticTask::generate(DatasetConfig {
            num_classes: 3,
            feature_dim: 8,
            train_samples: 120,
            test_samples: 30,
            seed: 1,
            ..DatasetConfig::default()
        })
        .unwrap();
        let pop = PopulationBuilder::paper_default().num_devices(6).seed(2).build().unwrap();
        let partition = Partition::iid(120, 6, 3).unwrap();
        let setup = FederatedSetup::new(pop, &task, &partition, &config).unwrap();
        let history = run_separated(
            &setup,
            &config,
            &SeparatedConfig { user_stride: 1, eval_subsample: 0 },
        )
        .unwrap();
        assert_eq!(history.scheme(), "sl");
        assert_eq!(history.len(), 4);
    }
}

//! Separated learning (SL) runtime — the paper's fourth baseline \[4\]:
//! "each user conducts its model update separately", with no
//! aggregation and no uploads.
//!
//! The reported accuracy at iteration `j` is the dataset-size-weighted
//! mean test accuracy of the per-user models (the paper does not
//! specify; see DESIGN.md §7). Because training 100 isolated models is
//! ~10× the work of a 10-client FedAvg round, [`SeparatedConfig`]
//! supports training a deterministic user subsample and evaluating on
//! a strided test subset.


use detrand::Rng;
use mec_sim::units::{Joules, Seconds};
use tinynn::model::Mlp;

use crate::client::{ClientTrainer, LocalUpdateSpec};
use crate::error::{FlError, Result};
use crate::history::{RoundRecord, TrainingHistory};
use crate::runner::{FederatedSetup, TrainingConfig};
use crate::seeds::{derive, SeedDomain};

/// Extra knobs of the SL baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct SeparatedConfig {
    /// Train only every `stride`-th user (1 = all users). Accuracy is
    /// weighted over the trained subset; delay/energy are scaled back
    /// up by the stride so totals remain population-scale.
    pub user_stride: usize,
    /// Evaluate per-user models on at most this many strided test
    /// samples (0 = full test set).
    pub eval_subsample: usize,
}

impl Default for SeparatedConfig {
    fn default() -> Self {
        Self { user_stride: 5, eval_subsample: 500 }
    }
}

/// Runs separated learning and returns a history comparable to
/// [`crate::runner::run_federated`]'s.
///
/// Every user trains its own model each iteration (at `f_max`; there
/// is nothing to upload, so no TDMA and no slack). Round delay is the
/// slowest user's compute delay; round energy is the sum of compute
/// energies.
///
/// # Errors
///
/// Propagates configuration and training errors.
pub fn run_separated(
    setup: &FederatedSetup,
    config: &TrainingConfig,
    sl: &SeparatedConfig,
) -> Result<TrainingHistory> {
    config.validate()?;
    if sl.user_stride == 0 {
        return Err(FlError::InvalidConfig {
            field: "user_stride",
            reason: "must be at least 1".into(),
        });
    }
    let eval_set = if sl.eval_subsample > 0 {
        setup.eval_set().strided_subsample(sl.eval_subsample)?
    } else {
        setup.eval_set().clone()
    };
    let num_users = setup.population().len();
    let trained: Vec<usize> = (0..num_users).step_by(sl.user_stride).collect();
    let scale = num_users as f64 / trained.len() as f64;

    // One independent model per trained user.
    let model_seed = derive(config.seed, SeedDomain::Model);
    let mut models: Vec<Vec<f32>> = trained
        .iter()
        .map(|_| {
            Mlp::new(&config.model_dims, model_seed)
                .map(|m| m.parameters())
                .map_err(FlError::from)
        })
        .collect::<Result<_>>()?;

    let mut history = TrainingHistory::new("sl");
    let mut cumulative_time = Seconds::ZERO;
    let mut cumulative_energy = Joules::ZERO;

    // Delay/energy of one all-users compute round (constant across
    // rounds: everyone trains at f_max and never uploads). We reuse the
    // timeline machinery with a negligible payload and subtract the
    // upload contribution.
    let devices: Vec<_> = trained
        .iter()
        .map(|&u| *setup.population().devices().get(u).expect("index in range"))
        .collect();
    let round_delay = devices
        .iter()
        .map(|d| d.compute_delay_at_max())
        .fold(Seconds::ZERO, Seconds::max);
    let round_compute_energy: Joules = devices
        .iter()
        .map(|d| {
            d.compute_energy(d.cpu().range().max()).expect("f_max is always supported")
        })
        .sum::<Joules>()
        * scale;

    // One reusable trainer: SL trains users one after another, so a
    // single scratch slot suffices.
    let mut trainer = ClientTrainer::new(&config.model_dims)?;
    let spec = LocalUpdateSpec {
        learning_rate: config.learning_rate,
        local_epochs: config.local_epochs,
        batch_size: config.batch_size,
    };
    let train_seed = derive(config.seed, SeedDomain::ClientTraining);

    for round in 1..=config.max_rounds {
        let mut loss_sum = 0.0f64;
        for (slot, &u) in trained.iter().enumerate() {
            let client = &setup.clients()[u];
            let mut rng = Rng::stream(train_seed, ((round as u64) << 32) | u as u64);
            let (params, loss) =
                trainer.local_update(client, &models[slot], &spec, &mut rng)?;
            models[slot] = params;
            loss_sum += f64::from(loss);
        }
        cumulative_time += round_delay;
        cumulative_energy += round_compute_energy;

        let evaluate_now = round % config.eval_every == 0 || round == config.max_rounds;
        let test_accuracy = if evaluate_now {
            let mut weighted = 0.0f64;
            let mut weight_total = 0.0f64;
            for (slot, &u) in trained.iter().enumerate() {
                let client = &setup.clients()[u];
                let w = client.num_samples() as f64;
                let acc = trainer.evaluate_params(&models[slot], &eval_set)?;
                weighted += acc * w;
                weight_total += w;
            }
            Some(weighted / weight_total)
        } else {
            None
        };

        history.push(RoundRecord {
            round,
            selected: devices.iter().map(|d| d.id()).collect(),
            delivered: devices.iter().map(|d| d.id()).collect(),
            alive_devices: num_users,
            round_time: round_delay,
            eq10_time: round_delay,
            round_energy: round_compute_energy,
            compute_energy: round_compute_energy,
            slack: Seconds::ZERO,
            wasted_energy: Joules::ZERO,
            faults: 0,
            aggregated: true,
            train_loss: (loss_sum / trained.len() as f64) as f32,
            test_accuracy,
            cumulative_time,
            cumulative_energy,
        });

        if let Some(deadline) = config.deadline {
            if cumulative_time >= deadline {
                break;
            }
        }
    }
    Ok(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetConfig, SyntheticTask};
    use crate::partition::Partition;
    use mec_sim::population::PopulationBuilder;

    fn world(noniid: bool) -> (FederatedSetup, TrainingConfig) {
        let config = TrainingConfig {
            max_rounds: 10,
            model_dims: vec![8, 8, 4],
            learning_rate: 0.5,
            eval_every: 5,
            seed: 1,
            ..TrainingConfig::default()
        };
        let task = SyntheticTask::generate(DatasetConfig {
            num_classes: 4,
            feature_dim: 8,
            train_samples: 400,
            test_samples: 80,
            seed: 2,
            ..DatasetConfig::default()
        })
        .unwrap();
        let pop = PopulationBuilder::paper_default().num_devices(10).seed(3).build().unwrap();
        let labels = task.train().labels().to_vec();
        let partition = if noniid {
            Partition::shards(&labels, 10, 2, 4).unwrap()
        } else {
            Partition::iid(400, 10, 4).unwrap()
        };
        let setup = FederatedSetup::new(pop, &task, &partition, &config).unwrap();
        (setup, config)
    }

    #[test]
    fn separated_learning_produces_full_history() {
        let (setup, config) = world(false);
        let sl = SeparatedConfig { user_stride: 2, eval_subsample: 0 };
        let history = run_separated(&setup, &config, &sl).unwrap();
        assert_eq!(history.len(), 10);
        assert_eq!(history.scheme(), "sl");
        // Evaluations only at the configured cadence.
        for r in history.records() {
            assert_eq!(r.test_accuracy.is_some(), r.round % 5 == 0 || r.round == 10);
            assert_eq!(r.slack, Seconds::ZERO);
            assert_eq!(r.round_energy, r.compute_energy);
        }
    }

    #[test]
    fn noniid_separated_learning_caps_below_global_training() {
        // Users holding ≤2 classes cannot classify 4 classes well.
        let (setup, mut config) = world(true);
        config.max_rounds = 30;
        let sl = SeparatedConfig { user_stride: 1, eval_subsample: 0 };
        let history = run_separated(&setup, &config, &sl).unwrap();
        let best = history.best_accuracy();
        assert!(best < 0.75, "SL should plateau under label skew, got {best}");
        assert!(best > 0.2, "SL should still beat chance, got {best}");
    }

    #[test]
    fn stride_scales_energy_back_to_population_scale() {
        let (setup, config) = world(false);
        let all = run_separated(
            &setup,
            &config,
            &SeparatedConfig { user_stride: 1, eval_subsample: 0 },
        )
        .unwrap();
        let (setup2, _) = world(false);
        let strided = run_separated(
            &setup2,
            &config,
            &SeparatedConfig { user_stride: 2, eval_subsample: 0 },
        )
        .unwrap();
        let full = all.total_energy().get();
        let scaled = strided.total_energy().get();
        // Same order of magnitude (subset × scale factor).
        assert!(
            (scaled / full - 1.0).abs() < 0.5,
            "scaled energy {scaled} vs full {full}"
        );
    }

    #[test]
    fn zero_stride_is_rejected() {
        let (setup, config) = world(false);
        let sl = SeparatedConfig { user_stride: 0, eval_subsample: 0 };
        assert!(run_separated(&setup, &config, &sl).is_err());
    }
}

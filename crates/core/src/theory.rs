//! The theoretical foundation of §V-A, executable.
//!
//! Eq. 16–19 show that when every selected user starts from the same
//! global model and takes one full-batch GD step, the FedAvg
//! integration (Eq. 18) equals one centralized GD step on the union of
//! the selected users' data. This module provides
//! [`centralized_equivalent_step`] and [`federated_one_step`] so tests
//! and examples can verify the identity numerically — it is the
//! argument for *why* greedy selection caps accuracy: data never
//! selected is data never trained on. Both sides train through
//! `Mlp::train_step_with`, and the federated side aggregates through
//! `Flcc::aggregate`: the identity is checked on the step and the
//! aggregation every run executes.

use fl_sim::dataset::LabeledSet;
use fl_sim::error::{FlError, Result};
use fl_sim::server::Flcc;
use tinynn::model::{Mlp, TrainScratch};
use tinynn::tensor::Matrix;

/// The parameters of `global` after one full-batch GD step (Eq. 3) on
/// `x`, taken by the step every local update runs.
fn one_step(
    global: &Mlp,
    x: &Matrix,
    labels: &[usize],
    lr: f32,
    scratch: &mut TrainScratch,
) -> Result<Vec<f32>> {
    let mut model = global.clone();
    model.train_step_with(x, labels, lr, scratch)?;
    Ok(model.parameters())
}

/// Performs the centralized mini-batch GD step of Eq. 19: one
/// full-batch step on the concatenation of `shards`, starting from
/// `global`, with learning rate `lr`. Returns the updated parameters.
///
/// # Errors
///
/// Propagates shape errors and rejects an empty shard list.
pub fn centralized_equivalent_step(
    global: &Mlp,
    shards: &[&LabeledSet],
    lr: f32,
) -> Result<Vec<f32>> {
    if shards.is_empty() {
        return Err(FlError::InvalidSelection {
            reason: "centralized step needs at least one shard".into(),
        });
    }
    // Concatenate the shards (D_Γ = ∪ D_q).
    let dim = shards[0].features().cols();
    let total: usize = shards.iter().map(|s| s.len()).sum();
    let mut data = Vec::with_capacity(total * dim);
    let mut labels = Vec::with_capacity(total);
    for shard in shards {
        data.extend_from_slice(shard.features().as_slice());
        labels.extend_from_slice(shard.labels());
    }
    let features = Matrix::from_vec(total, dim, data)?;
    one_step(global, &features, &labels, lr, &mut TrainScratch::for_model(global)?)
}

/// Performs the federated side of Eq. 19: each shard takes one local
/// GD step from `global`, then [`Flcc::aggregate`] combines the results
/// with dataset-size weights (Eq. 18), as it does in every round.
/// Returns the aggregated parameters.
///
/// # Errors
///
/// Propagates shape errors and rejects an empty shard list.
pub fn federated_one_step(global: &Mlp, shards: &[&LabeledSet], lr: f32) -> Result<Vec<f32>> {
    let mut scratch = TrainScratch::for_model(global)?;
    let updates = shards
        .iter()
        .map(|shard| {
            let params = one_step(global, shard.features(), shard.labels(), lr, &mut scratch)?;
            Ok((params, shard.len() as f64))
        })
        .collect::<Result<Vec<_>>>()?;
    // Aggregation overwrites every parameter, so the controller's own
    // initialization never reaches the result.
    let mut flcc = Flcc::new(global.dims(), 0)?;
    flcc.aggregate(&updates)?;
    Ok(flcc.broadcast())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_sim::dataset::{DatasetConfig, SyntheticTask};
    use fl_sim::partition::Partition;

    /// Eq. 19 numerically: FedAvg of one-step locals == one centralized
    /// step on the pooled data. The `|D_q|` aggregation weights cancel
    /// the `1/|D_q|` gradient normalizers exactly, which is the whole
    /// point of the paper's derivation.
    #[test]
    fn eq19_fedavg_equals_centralized_step_for_equal_shards() {
        let task = SyntheticTask::generate(DatasetConfig {
            num_classes: 3,
            feature_dim: 8,
            train_samples: 120,
            test_samples: 30,
            seed: 11,
            ..DatasetConfig::default()
        })
        .unwrap();
        let partition = Partition::iid(120, 4, 3).unwrap();
        let shards: Vec<LabeledSet> = partition
            .assignments()
            .iter()
            .map(|idx| task.train().subset(idx).unwrap())
            .collect();
        let refs: Vec<&LabeledSet> = shards.iter().collect();
        let global = Mlp::new(&[8, 6, 3], 9).unwrap();
        let fed = federated_one_step(&global, &refs, 0.2).unwrap();
        let cen = centralized_equivalent_step(&global, &refs, 0.2).unwrap();
        for (i, (f, c)) in fed.iter().zip(&cen).enumerate() {
            assert!(
                (f - c).abs() < 1e-5,
                "parameter {i} diverges: federated {f} vs centralized {c}"
            );
        }
    }

    /// The identity survives unequal shard sizes: the dataset-size
    /// weights in Eq. 18 cancel the per-user mean normalizers in
    /// Eq. 17 regardless of `|D_q|`.
    #[test]
    fn eq19_holds_for_unequal_shards_too() {
        let task = SyntheticTask::generate(DatasetConfig {
            num_classes: 3,
            feature_dim: 8,
            train_samples: 100,
            test_samples: 30,
            seed: 12,
            ..DatasetConfig::default()
        })
        .unwrap();
        let a = task.train().subset(&(0..30).collect::<Vec<_>>()).unwrap();
        let b = task.train().subset(&(30..100).collect::<Vec<_>>()).unwrap();
        let global = Mlp::new(&[8, 6, 3], 13).unwrap();
        let fed = federated_one_step(&global, &[&a, &b], 0.2).unwrap();
        let cen = centralized_equivalent_step(&global, &[&a, &b], 0.2).unwrap();
        for (i, (f, c)) in fed.iter().zip(&cen).enumerate() {
            assert!(
                (f - c).abs() < 1e-5,
                "parameter {i} diverges: federated {f} vs centralized {c}"
            );
        }
    }

    #[test]
    fn empty_shard_lists_are_rejected() {
        let global = Mlp::new(&[4, 3], 0).unwrap();
        assert!(federated_one_step(&global, &[], 0.1).is_err());
        assert!(centralized_equivalent_step(&global, &[], 0.1).is_err());
    }
}

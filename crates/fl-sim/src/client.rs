//! Simulated FL clients: the learning half of a user device.
//!
//! A [`Client`] is pure data — its device id and the local shard of
//! the training set, materialized once. The learning state (model,
//! gradient scratch, minibatch buffers) lives in a [`ClientTrainer`],
//! of which the round engine keeps one per worker thread: clients are
//! shared read-only across workers while each worker reuses its own
//! trainer, so steady-state local training allocates nothing per step.
//!
//! The paper's local update (Eq. 3) — load the broadcast global
//! parameters, take `local_epochs` gradient-descent passes over the
//! local shard, return the updated parameters — is
//! [`ClientTrainer::local_update`].

use detrand::Rng;
use mec_sim::device::DeviceId;
use tinynn::model::{Mlp, TrainScratch};
use tinynn::tensor::Matrix;

use crate::dataset::LabeledSet;
use crate::error::{FlError, Result};

/// Row-block size used when streaming a dataset through a trainer for
/// evaluation. It bounds the activation scratch an evaluation needs and
/// is the unit the pool splits an eval set into; the result is an
/// integer count, so it does not depend on the block size either.
pub const EVAL_CHUNK_ROWS: usize = 256;

/// One user's local data: the immutable half of a simulated client.
#[derive(Debug, Clone, PartialEq)]
pub struct Client {
    id: DeviceId,
    data: LabeledSet,
}

impl Client {
    /// Creates a client from its device id and local data shard.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for an empty shard.
    pub fn new(id: DeviceId, data: LabeledSet) -> Result<Self> {
        if data.is_empty() {
            return Err(FlError::InvalidConfig {
                field: "data",
                reason: format!("client {id} has an empty data shard"),
            });
        }
        Ok(Self { id, data })
    }

    /// The owning device's id.
    #[inline]
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Local dataset size `|D_q|`.
    #[inline]
    pub fn num_samples(&self) -> usize {
        self.data.len()
    }

    /// The local data shard.
    #[inline]
    pub fn data(&self) -> &LabeledSet {
        &self.data
    }
}

/// Hyper-parameters of one local update (the per-round, per-client
/// slice of [`crate::runner::TrainingConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalUpdateSpec {
    /// Learning rate `τ` of the local GD update (Eq. 3).
    pub learning_rate: f32,
    /// Gradient-descent passes over the shard per round.
    pub local_epochs: usize,
    /// Minibatch size; `0` (or anything ≥ the shard size) trains
    /// full-batch, exactly as the paper's Eq. 3.
    pub batch_size: usize,
}

/// Reusable per-worker learning state: a model the broadcast
/// parameters are loaded into, gradient/activation scratch, and
/// minibatch gather buffers. After warm-up, running local updates and
/// evaluations through a trainer performs zero heap allocation per
/// step (the returned parameter vector is the one inherent upload
/// allocation).
#[derive(Debug, Clone)]
pub struct ClientTrainer {
    model: Mlp,
    scratch: TrainScratch,
    /// Gathered minibatch features.
    input: Matrix,
    /// Gathered minibatch labels.
    batch_labels: Vec<usize>,
    /// Shuffled sample permutation (minibatch mode).
    perm: Vec<usize>,
}

impl ClientTrainer {
    /// Creates a trainer for the given model architecture. The initial
    /// parameter values are irrelevant: every use loads explicit
    /// parameters first.
    ///
    /// # Errors
    ///
    /// Propagates model construction errors for invalid `model_dims`.
    pub fn new(model_dims: &[usize]) -> Result<Self> {
        let model = Mlp::new(model_dims, 0).map_err(FlError::from)?;
        let scratch = TrainScratch::for_model(&model).map_err(FlError::from)?;
        Ok(Self {
            model,
            scratch,
            input: Matrix::zeros(1, 1).map_err(FlError::from)?,
            batch_labels: Vec::new(),
            perm: Vec::new(),
        })
    }

    /// Runs one client's local model update (Eq. 3): loads
    /// `global_params`, takes `spec.local_epochs` GD passes over the
    /// client's shard at `spec.learning_rate`, and returns
    /// `(updated_params, first-epoch pre-update loss)`.
    ///
    /// With `spec.batch_size == 0` each pass is one full-batch step and
    /// `rng` is untouched; otherwise each pass reshuffles the shard
    /// with `rng` and steps per minibatch. The result depends only on
    /// `(global_params, client, spec, rng)` — never on which worker
    /// thread runs it or what the trainer computed before — which is
    /// what makes parallel rounds bit-identical to serial ones.
    ///
    /// # Errors
    ///
    /// Propagates parameter-shape and training errors.
    pub fn local_update(
        &mut self,
        client: &Client,
        global_params: &[f32],
        spec: &LocalUpdateSpec,
        rng: &mut Rng,
    ) -> Result<(Vec<f32>, f32)> {
        self.model.set_parameters(global_params).map_err(FlError::from)?;
        let data = client.data();
        let n = data.len();
        let mut first_loss = 0.0f32;
        if spec.batch_size == 0 || spec.batch_size >= n {
            for epoch in 0..spec.local_epochs.max(1) {
                let loss = self
                    .model
                    .train_step_with(
                        data.features(),
                        data.labels(),
                        spec.learning_rate,
                        &mut self.scratch,
                    )
                    .map_err(FlError::from)?;
                if epoch == 0 {
                    first_loss = loss;
                }
            }
        } else {
            let Self { model, scratch, input, batch_labels, perm } = self;
            perm.clear();
            perm.extend(0..n);
            for epoch in 0..spec.local_epochs.max(1) {
                rng.shuffle(perm);
                let mut loss_sum = 0.0f64;
                for chunk in perm.chunks(spec.batch_size) {
                    data.features().gather_rows_into(chunk, input).map_err(FlError::from)?;
                    batch_labels.clear();
                    batch_labels.extend(chunk.iter().map(|&i| data.labels()[i]));
                    let loss = model
                        .train_step_with(input, batch_labels, spec.learning_rate, scratch)
                        .map_err(FlError::from)?;
                    loss_sum += f64::from(loss) * chunk.len() as f64;
                }
                if epoch == 0 {
                    first_loss = (loss_sum / n as f64) as f32;
                }
            }
        }
        Ok((self.model.parameters(), first_loss))
    }

    /// Loads `params` into the trainer's model, for the counting calls
    /// that follow ([`ClientTrainer::count_correct_rows`]).
    ///
    /// # Errors
    ///
    /// Returns a parameter-count error for a foreign vector.
    pub(crate) fn load_parameters(&mut self, params: &[f32]) -> Result<()> {
        self.model.set_parameters(params).map_err(FlError::from)
    }

    /// Correct predictions of the loaded parameters on rows
    /// `start..start + len` of `set`, scored in place (see
    /// [`Mlp::count_correct_rows`]).
    ///
    /// # Errors
    ///
    /// Propagates shape errors (e.g. an out-of-range block).
    pub(crate) fn count_correct_rows(
        &mut self,
        set: &LabeledSet,
        start: usize,
        len: usize,
    ) -> Result<usize> {
        self.model
            .count_correct_rows(set.features(), start, len, set.labels(), &mut self.scratch)
            .map_err(FlError::from)
    }

    /// Correct predictions of `params` on the whole of `set`: loads the
    /// parameters once, then counts [`EVAL_CHUNK_ROWS`]-row blocks in
    /// place.
    ///
    /// # Errors
    ///
    /// Propagates parameter-shape errors and rejects an empty set.
    pub(crate) fn count_correct(&mut self, params: &[f32], set: &LabeledSet) -> Result<usize> {
        let n = set.len();
        if n == 0 {
            return Err(FlError::InvalidConfig {
                field: "eval_set",
                reason: "cannot evaluate on an empty set".into(),
            });
        }
        self.load_parameters(params)?;
        let mut correct = 0;
        for start in (0..n).step_by(EVAL_CHUNK_ROWS) {
            correct += self.count_correct_rows(set, start, EVAL_CHUNK_ROWS.min(n - start))?;
        }
        Ok(correct)
    }

    /// Test accuracy of an arbitrary parameter vector on `set` — used
    /// by the separated-learning baseline, which scores each user's
    /// own model.
    ///
    /// # Errors
    ///
    /// Propagates parameter-shape errors and rejects an empty set.
    pub fn evaluate_params(&mut self, params: &[f32], set: &LabeledSet) -> Result<f64> {
        Ok(self.count_correct(params, set)? as f64 / set.len() as f64)
    }
}

/// Builds one [`Client`] per partition user from the shared training
/// set.
///
/// # Errors
///
/// Propagates subset and client construction errors; fails if any user
/// received an empty shard.
pub fn build_clients(train: &LabeledSet, assignments: &[Vec<usize>]) -> Result<Vec<Client>> {
    let mut clients = Vec::with_capacity(assignments.len());
    for (u, indices) in assignments.iter().enumerate() {
        if indices.is_empty() {
            return Err(FlError::InvalidConfig {
                field: "partition",
                reason: format!("user {u} received no samples"),
            });
        }
        let shard = train.subset(indices)?;
        clients.push(Client::new(DeviceId(u), shard)?);
    }
    Ok(clients)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetConfig, SyntheticTask};
    use crate::partition::Partition;

    fn task() -> SyntheticTask {
        SyntheticTask::generate(DatasetConfig {
            num_classes: 3,
            feature_dim: 8,
            train_samples: 90,
            test_samples: 30,
            seed: 1,
            ..DatasetConfig::default()
        })
        .unwrap()
    }

    fn full_batch(lr: f32, epochs: usize) -> LocalUpdateSpec {
        LocalUpdateSpec { learning_rate: lr, local_epochs: epochs, batch_size: 0 }
    }

    #[test]
    fn build_clients_covers_partition() {
        let t = task();
        let p = Partition::iid(90, 9, 0).unwrap();
        let clients = build_clients(t.train(), p.assignments()).unwrap();
        assert_eq!(clients.len(), 9);
        assert!(clients.iter().all(|c| c.num_samples() == 10));
        assert_eq!(clients[3].id(), DeviceId(3));
    }

    #[test]
    fn empty_shard_is_rejected() {
        let t = task();
        let assignments = vec![vec![0usize], vec![]];
        assert!(build_clients(t.train(), &assignments).is_err());
    }

    #[test]
    fn local_update_takes_a_descent_step() {
        let t = task();
        let p = Partition::iid(90, 3, 0).unwrap();
        let clients = build_clients(t.train(), p.assignments()).unwrap();
        let mut trainer = ClientTrainer::new(&[8, 8, 3]).unwrap();
        let mut rng = Rng::seed_from_u64(0);
        let global = Mlp::new(&[8, 8, 3], 42).unwrap();
        let params = global.parameters();
        let (updated, loss) =
            trainer.local_update(&clients[0], &params, &full_batch(0.5, 1), &mut rng).unwrap();
        assert_eq!(updated.len(), params.len());
        assert_ne!(updated, params);
        assert!(loss > 0.0);
        // A second update from the updated point should (almost always)
        // report a lower pre-step loss on the same data.
        let (_, loss2) =
            trainer.local_update(&clients[0], &updated, &full_batch(0.5, 1), &mut rng).unwrap();
        assert!(loss2 < loss);
    }

    #[test]
    fn multiple_local_epochs_move_parameters_further() {
        let t = task();
        let p = Partition::iid(90, 3, 0).unwrap();
        let clients = build_clients(t.train(), p.assignments()).unwrap();
        let mut trainer = ClientTrainer::new(&[8, 8, 3]).unwrap();
        let mut rng = Rng::seed_from_u64(0);
        let params = Mlp::new(&[8, 8, 3], 42).unwrap().parameters();
        let (one, _) =
            trainer.local_update(&clients[0], &params, &full_batch(0.1, 1), &mut rng).unwrap();
        let (five, _) =
            trainer.local_update(&clients[0], &params, &full_batch(0.1, 5), &mut rng).unwrap();
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>().sqrt()
        };
        assert!(dist(&five, &params) > dist(&one, &params));
    }

    #[test]
    fn local_update_rejects_foreign_parameter_vectors() {
        let t = task();
        let p = Partition::iid(90, 3, 0).unwrap();
        let clients = build_clients(t.train(), p.assignments()).unwrap();
        let mut trainer = ClientTrainer::new(&[8, 8, 3]).unwrap();
        let mut rng = Rng::seed_from_u64(0);
        assert!(trainer
            .local_update(&clients[0], &[0.0; 7], &full_batch(0.1, 1), &mut rng)
            .is_err());
    }

    #[test]
    fn minibatch_update_is_deterministic_in_the_rng_stream() {
        let t = task();
        let p = Partition::iid(90, 3, 0).unwrap();
        let clients = build_clients(t.train(), p.assignments()).unwrap();
        let params = Mlp::new(&[8, 8, 3], 42).unwrap().parameters();
        let spec = LocalUpdateSpec { learning_rate: 0.2, local_epochs: 2, batch_size: 8 };
        let run = |trainer: &mut ClientTrainer| {
            let mut rng = Rng::stream(99, 7);
            trainer.local_update(&clients[0], &params, &spec, &mut rng).unwrap()
        };
        let mut fresh = ClientTrainer::new(&[8, 8, 3]).unwrap();
        let mut reused = ClientTrainer::new(&[8, 8, 3]).unwrap();
        // Warm the reused trainer on a different client/spec first: the
        // result must not depend on the trainer's history.
        let mut warm_rng = Rng::seed_from_u64(1);
        reused
            .local_update(&clients[1], &params, &full_batch(0.5, 3), &mut warm_rng)
            .unwrap();
        assert_eq!(run(&mut fresh), run(&mut reused));
        // A different stream shuffles differently.
        let mut other_rng = Rng::stream(99, 8);
        let (other, _) =
            reused.local_update(&clients[0], &params, &spec, &mut other_rng).unwrap();
        assert_ne!(other, run(&mut fresh).0);
    }

    #[test]
    fn evaluate_params_scores_on_given_set() {
        let t = task();
        let p = Partition::iid(90, 3, 0).unwrap();
        let _clients = build_clients(t.train(), p.assignments()).unwrap();
        let mut trainer = ClientTrainer::new(&[8, 8, 3]).unwrap();
        let params = Mlp::new(&[8, 8, 3], 42).unwrap().parameters();
        let acc = trainer.evaluate_params(&params, t.test()).unwrap();
        assert!((0.0..=1.0).contains(&acc));
        // Chunked streaming matches one whole-set count.
        let mut model = Mlp::new(&[8, 8, 3], 0).unwrap();
        model.set_parameters(&params).unwrap();
        let (x, labels) = (t.test().features(), t.test().labels());
        let mut scratch = TrainScratch::for_model(&model).unwrap();
        let correct = model.count_correct_rows(x, 0, x.rows(), labels, &mut scratch).unwrap();
        assert_eq!(acc, correct as f64 / x.rows() as f64);
    }
}

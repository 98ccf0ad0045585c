//! Synthetic CIFAR-10-like classification task.
//!
//! The paper trains SqueezeNet on CIFAR-10; neither is available in
//! this offline environment, so we substitute a synthetic 10-class
//! "pattern image" task (DESIGN.md §4): each class `c` has a fixed
//! unit-norm prototype vector `p_c ∈ R^d`, and a sample of class `c`
//! is `(s + jitter)·p_c + σ·ε` with Gaussian noise `ε`. The separation
//! `s` and noise `σ` tune the task difficulty so accuracy curves rise
//! gradually over hundreds of FedAvg rounds, as on CIFAR-10.
//!
//! Train labels are exactly balanced (needed by the paper's
//! sort-by-label 400-shard Non-IID split), then shuffled.

use detrand::Rng;

use tinynn::tensor::Matrix;

use crate::error::{FlError, Result};

/// Configuration of the synthetic task.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Number of classes (paper: 10, like CIFAR-10).
    pub num_classes: usize,
    /// Feature dimensionality (8×8 "image" by default).
    pub feature_dim: usize,
    /// Number of training samples (balanced across classes).
    pub train_samples: usize,
    /// Number of held-out test samples (balanced across classes).
    pub test_samples: usize,
    /// Class-prototype scale `s`.
    pub separation: f32,
    /// Sub-cluster ("variant") count per class. Each class is a
    /// mixture of `variants_per_class` centroids around its prototype;
    /// a model that has only seen part of the data misses variants and
    /// pays for it on the test set — giving the task the
    /// data-coverage hunger of CIFAR-10 that the FedCS accuracy
    /// ceiling depends on (paper §V-A).
    pub variants_per_class: usize,
    /// Distance of each variant centroid from its class prototype.
    pub variant_spread: f32,
    /// Per-sample uniform scale jitter half-width.
    pub scale_jitter: f32,
    /// Additive Gaussian noise σ.
    pub noise_std: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DatasetConfig {
    /// The reproduction's standard task: 10 classes in R^64, 20 000
    /// train / 2 000 test samples, tuned so FedAvg over 100 users
    /// climbs into the 80%+ regime within ~300 rounds (mirroring the
    /// paper's Fig. 2 IID ceiling).
    fn default() -> Self {
        Self {
            num_classes: 10,
            feature_dim: 64,
            train_samples: 20_000,
            test_samples: 2_000,
            separation: 2.8,
            variants_per_class: 8,
            variant_spread: 3.5,
            scale_jitter: 0.25,
            noise_std: 1.0,
            seed: 0,
        }
    }
}

impl DatasetConfig {
    fn validate(&self) -> Result<()> {
        if self.num_classes < 2 {
            return Err(FlError::InvalidConfig {
                field: "num_classes",
                reason: format!("need at least 2 classes, got {}", self.num_classes),
            });
        }
        if self.feature_dim == 0 {
            return Err(FlError::InvalidConfig {
                field: "feature_dim",
                reason: "must be non-zero".into(),
            });
        }
        if self.train_samples < self.num_classes || self.test_samples < self.num_classes {
            return Err(FlError::InvalidConfig {
                field: "train_samples/test_samples",
                reason: "need at least one sample per class".into(),
            });
        }
        if !(self.noise_std >= 0.0 && self.noise_std.is_finite()) {
            return Err(FlError::InvalidConfig {
                field: "noise_std",
                reason: format!("must be finite and non-negative, got {}", self.noise_std),
            });
        }
        if self.variants_per_class == 0 {
            return Err(FlError::InvalidConfig {
                field: "variants_per_class",
                reason: "must be at least 1".into(),
            });
        }
        if !(self.variant_spread >= 0.0 && self.variant_spread.is_finite()) {
            return Err(FlError::InvalidConfig {
                field: "variant_spread",
                reason: format!("must be finite and non-negative, got {}", self.variant_spread),
            });
        }
        Ok(())
    }
}

/// A labelled set of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledSet {
    features: Matrix,
    labels: Vec<usize>,
}

impl LabeledSet {
    /// Creates a set from features (`n × d`) and labels (`n`).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] on a row/label count
    /// mismatch.
    pub fn new(features: Matrix, labels: Vec<usize>) -> Result<Self> {
        if features.rows() != labels.len() {
            return Err(FlError::InvalidConfig {
                field: "labels",
                reason: format!(
                    "{} labels for {} feature rows",
                    labels.len(),
                    features.rows()
                ),
            });
        }
        Ok(Self { features, labels })
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The feature matrix (`n × d`).
    #[inline]
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The labels.
    #[inline]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Extracts the subset at `indices` (order preserved).
    ///
    /// # Errors
    ///
    /// Returns a tensor error for an empty index set.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Result<Self> {
        let features = self.features.select_rows(indices).map_err(FlError::from)?;
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Self::new(features, labels)
    }

    /// A deterministic subsample of at most `n` elements (evenly
    /// strided), used to cheapen frequent evaluations.
    pub fn strided_subsample(&self, n: usize) -> Result<Self> {
        if n == 0 || self.len() <= n {
            return Ok(self.clone());
        }
        let stride = self.len() as f64 / n as f64;
        let indices: Vec<usize> =
            (0..n).map(|i| (i as f64 * stride) as usize).collect();
        self.subset(&indices)
    }
}

/// The generated train/test task.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticTask {
    config: DatasetConfig,
    train: LabeledSet,
    test: LabeledSet,
    prototypes: Matrix,
}

impl SyntheticTask {
    /// Generates the task from its configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for invalid configurations.
    pub fn generate(config: DatasetConfig) -> Result<Self> {
        config.validate()?;
        let mut rng = Rng::seed_from_u64(config.seed);
        let prototypes = Self::sample_prototypes(&config, &mut rng)?;
        let train = Self::sample_split(&config, &prototypes, config.train_samples, &mut rng)?;
        let test = Self::sample_split(&config, &prototypes, config.test_samples, &mut rng)?;
        Ok(Self { config, train, test, prototypes })
    }

    /// Draws a random direction of length `scale` in `R^d`.
    fn random_direction(d: usize, scale: f32, rng: &mut Rng) -> Vec<f32> {
        let mut norm = 0.0f32;
        let raw: Vec<f32> = (0..d)
            .map(|_| {
                let v = rng.standard_normal() as f32;
                norm += v * v;
                v
            })
            .collect();
        let norm = norm.sqrt().max(1e-6);
        raw.into_iter().map(|v| v / norm * scale).collect()
    }

    /// Generates the `k·V × d` variant-centroid matrix: row `c·V + k`
    /// is `separation·unit(p_c) + variant_spread·unit(w_{c,k})`.
    fn sample_prototypes(config: &DatasetConfig, rng: &mut Rng) -> Result<Matrix> {
        let k = config.num_classes;
        let v = config.variants_per_class;
        let d = config.feature_dim;
        let mut m = Matrix::zeros(k * v, d).map_err(FlError::from)?;
        for c in 0..k {
            let base = Self::random_direction(d, config.separation, rng);
            for variant in 0..v {
                let offset = Self::random_direction(d, config.variant_spread, rng);
                for j in 0..d {
                    m.set(c * v + variant, j, base[j] + offset[j]);
                }
            }
        }
        Ok(m)
    }

    fn sample_split(
        config: &DatasetConfig,
        prototypes: &Matrix,
        n: usize,
        rng: &mut Rng,
    ) -> Result<LabeledSet> {
        let k = config.num_classes;
        let d = config.feature_dim;
        // Exactly balanced labels, then shuffled.
        let mut labels: Vec<usize> = (0..n).map(|i| i % k).collect();
        rng.shuffle(&mut labels);
        let mut features = Matrix::zeros(n, d).map_err(FlError::from)?;
        for (i, &label) in labels.iter().enumerate() {
            let scale = 1.0 + rng.uniform_f32(-config.scale_jitter, config.scale_jitter);
            let variant = rng.below(config.variants_per_class);
            let proto = prototypes.row(label * config.variants_per_class + variant);
            for (j, &p) in proto.iter().enumerate().take(d) {
                let noise = rng.standard_normal() as f32 * config.noise_std;
                features.set(i, j, p * scale + noise);
            }
        }
        LabeledSet::new(features, labels)
    }

    /// The generating configuration.
    #[inline]
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// The training split.
    #[inline]
    pub fn train(&self) -> &LabeledSet {
        &self.train
    }

    /// The held-out test split.
    #[inline]
    pub fn test(&self) -> &LabeledSet {
        &self.test
    }

    /// The variant centroids (`k·V × d`, row `c·V + k`), exposed for
    /// diagnostics.
    #[inline]
    pub fn prototypes(&self) -> &Matrix {
        &self.prototypes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> DatasetConfig {
        DatasetConfig {
            num_classes: 4,
            feature_dim: 16,
            train_samples: 400,
            test_samples: 100,
            seed: 3,
            ..DatasetConfig::default()
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_tasks() {
        let mut c = small_config();
        c.num_classes = 1;
        assert!(SyntheticTask::generate(c).is_err());
        let mut c = small_config();
        c.feature_dim = 0;
        assert!(SyntheticTask::generate(c).is_err());
        let mut c = small_config();
        c.train_samples = 2;
        assert!(SyntheticTask::generate(c).is_err());
        let mut c = small_config();
        c.noise_std = f32::NAN;
        assert!(SyntheticTask::generate(c).is_err());
    }

    #[test]
    fn generated_shapes_match_config() {
        let task = SyntheticTask::generate(small_config()).unwrap();
        assert_eq!(task.train().len(), 400);
        assert_eq!(task.test().len(), 100);
        assert_eq!(task.train().features().shape(), (400, 16));
        assert_eq!(
            task.prototypes().shape(),
            (4 * task.config().variants_per_class, 16)
        );
    }

    #[test]
    fn train_labels_are_exactly_balanced() {
        let task = SyntheticTask::generate(small_config()).unwrap();
        let mut counts = [0usize; 4];
        for &l in task.train().labels() {
            counts[l] += 1;
        }
        assert_eq!(counts, [100; 4]);
    }

    #[test]
    fn labels_are_shuffled_not_sorted() {
        let task = SyntheticTask::generate(small_config()).unwrap();
        let labels = task.train().labels();
        let sorted = {
            let mut v = labels.to_vec();
            v.sort_unstable();
            v
        };
        assert_ne!(labels, &sorted[..]);
    }

    #[test]
    fn same_seed_reproduces_identical_task() {
        let a = SyntheticTask::generate(small_config()).unwrap();
        let b = SyntheticTask::generate(small_config()).unwrap();
        assert_eq!(a, b);
        let mut other = small_config();
        other.seed = 4;
        assert_ne!(a, SyntheticTask::generate(other).unwrap());
    }

    #[test]
    fn task_is_learnable_by_a_small_mlp() {
        use tinynn::model::Mlp;
        let config = DatasetConfig { separation: 2.5, ..small_config() };
        let task = SyntheticTask::generate(config).unwrap();
        let mut m = Mlp::new(&[16, 32, 4], 0).unwrap();
        for _ in 0..300 {
            m.train_step(task.train().features(), task.train().labels(), 0.3).unwrap();
        }
        let acc = m.accuracy(task.test().features(), task.test().labels()).unwrap();
        assert!(acc > 0.7, "test accuracy only {acc}");
    }

    #[test]
    fn subset_preserves_feature_label_pairing() {
        let task = SyntheticTask::generate(small_config()).unwrap();
        let sub = task.train().subset(&[5, 1, 9]).unwrap();
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.labels()[0], task.train().labels()[5]);
        assert_eq!(sub.features().row(1), task.train().features().row(1));
        assert_eq!(sub.features().row(0), task.train().features().row(5));
    }

    #[test]
    fn strided_subsample_caps_size() {
        let task = SyntheticTask::generate(small_config()).unwrap();
        let s = task.test().strided_subsample(30).unwrap();
        assert_eq!(s.len(), 30);
        // Requesting more than available returns everything.
        let all = task.test().strided_subsample(1_000).unwrap();
        assert_eq!(all.len(), task.test().len());
        let zero = task.test().strided_subsample(0).unwrap();
        assert_eq!(zero.len(), task.test().len());
    }

    #[test]
    fn labeled_set_rejects_mismatched_lengths() {
        let m = Matrix::zeros(3, 2).unwrap();
        assert!(LabeledSet::new(m, vec![0, 1]).is_err());
    }
}

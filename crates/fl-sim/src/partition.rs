//! Data partitioning across users: the paper's IID and Non-IID
//! settings (§VII-A), plus a Dirichlet extension.
//!
//! - **IID**: "training samples are randomly shuffled and evenly
//!   assigned to users".
//! - **Non-IID**: "training samples are sorted by labels and cut into
//!   400 pieces, and each four pieces are assigned a user" — the
//!   classic McMahan shard split. With 100 users each user holds ≤ 4
//!   distinct labels, starving greedy selectors of class coverage.

use detrand::Rng;

use crate::error::{FlError, Result};

/// An assignment of training-sample indices to users.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    assignments: Vec<Vec<usize>>,
}

impl Partition {
    /// IID split: shuffle all `num_samples` indices and deal them out
    /// evenly (first `num_samples % num_users` users get one extra).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] if any user would receive no
    /// samples.
    pub fn iid(num_samples: usize, num_users: usize, seed: u64) -> Result<Self> {
        if num_users == 0 || num_samples < num_users {
            return Err(FlError::InvalidConfig {
                field: "num_users",
                reason: format!("{num_samples} samples cannot cover {num_users} users"),
            });
        }
        let mut rng = Rng::seed_from_u64(seed);
        let mut indices: Vec<usize> = (0..num_samples).collect();
        rng.shuffle(&mut indices);
        let base = num_samples / num_users;
        let extra = num_samples % num_users;
        let mut assignments = Vec::with_capacity(num_users);
        let mut cursor = 0;
        for u in 0..num_users {
            let take = base + usize::from(u < extra);
            assignments.push(indices[cursor..cursor + take].to_vec());
            cursor += take;
        }
        Ok(Self { assignments })
    }

    /// Sort-by-label shard split (the paper's Non-IID setting): sort
    /// sample indices by label, cut into `num_users * shards_per_user`
    /// contiguous shards, deal `shards_per_user` random shards to each
    /// user.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] if there are fewer samples
    /// than shards or either count is zero.
    pub fn shards(
        labels: &[usize],
        num_users: usize,
        shards_per_user: usize,
        seed: u64,
    ) -> Result<Self> {
        let num_shards = num_users * shards_per_user;
        if num_users == 0 || shards_per_user == 0 || labels.len() < num_shards {
            return Err(FlError::InvalidConfig {
                field: "shards",
                reason: format!(
                    "{} samples cannot fill {num_shards} shards",
                    labels.len()
                ),
            });
        }
        let mut rng = Rng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..labels.len()).collect();
        order.sort_by_key(|&i| (labels[i], i));
        // Cut into equal shards (remainder spread over the first shards).
        let base = labels.len() / num_shards;
        let extra = labels.len() % num_shards;
        let mut shards: Vec<Vec<usize>> = Vec::with_capacity(num_shards);
        let mut cursor = 0;
        for s in 0..num_shards {
            let take = base + usize::from(s < extra);
            shards.push(order[cursor..cursor + take].to_vec());
            cursor += take;
        }
        let mut shard_ids: Vec<usize> = (0..num_shards).collect();
        rng.shuffle(&mut shard_ids);
        let mut assignments = vec![Vec::new(); num_users];
        for (pos, &shard) in shard_ids.iter().enumerate() {
            assignments[pos / shards_per_user].extend_from_slice(&shards[shard]);
        }
        Ok(Self { assignments })
    }

    /// Dirichlet(α) label-skew split — a softer Non-IID extension not
    /// in the paper but standard in later FL literature. Small α
    /// (e.g. 0.1) concentrates each user on few classes; large α
    /// approaches IID.
    ///
    /// Users left empty by the draw are topped up with one random
    /// sample so every device keeps non-zero work (`|D_q| ≥ 1`).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for zero users, non-positive
    /// α, or fewer samples than users.
    pub fn dirichlet(
        labels: &[usize],
        num_users: usize,
        num_classes: usize,
        alpha: f64,
        seed: u64,
    ) -> Result<Self> {
        if num_users == 0 || labels.len() < num_users {
            return Err(FlError::InvalidConfig {
                field: "num_users",
                reason: format!("{} samples cannot cover {num_users} users", labels.len()),
            });
        }
        if !(alpha > 0.0 && alpha.is_finite()) {
            return Err(FlError::InvalidConfig {
                field: "alpha",
                reason: format!("must be positive and finite, got {alpha}"),
            });
        }
        let mut rng = Rng::seed_from_u64(seed);
        // Per-class index pools, shuffled.
        let mut pools: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
        for (i, &l) in labels.iter().enumerate() {
            if l >= num_classes {
                return Err(FlError::InvalidConfig {
                    field: "labels",
                    reason: format!("label {l} outside 0..{num_classes}"),
                });
            }
            pools[l].push(i);
        }
        for pool in &mut pools {
            rng.shuffle(pool);
        }
        let mut assignments = vec![Vec::new(); num_users];
        for pool in pools {
            if pool.is_empty() {
                continue;
            }
            // Draw user proportions ~ Dirichlet(α) for this class.
            let weights: Vec<f64> = (0..num_users).map(|_| sample_gamma(alpha, &mut rng)).collect();
            let total: f64 = weights.iter().sum();
            let mut cursor = 0;
            for (u, w) in weights.iter().enumerate() {
                let take = if u + 1 == num_users {
                    pool.len() - cursor
                } else {
                    ((w / total) * pool.len() as f64).round() as usize
                };
                let take = take.min(pool.len() - cursor);
                assignments[u].extend_from_slice(&pool[cursor..cursor + take]);
                cursor += take;
            }
        }
        // Guarantee non-empty users.
        for u in 0..num_users {
            if assignments[u].is_empty() {
                // Steal one sample from the largest user.
                let donor = (0..num_users)
                    .max_by_key(|&v| assignments[v].len())
                    .expect("num_users > 0");
                let moved =
                    assignments[donor].pop().expect("largest user cannot be empty");
                assignments[u].push(moved);
            }
        }
        Ok(Self { assignments })
    }

    /// Number of users covered.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.assignments.len()
    }

    /// Sample indices of user `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn user(&self, u: usize) -> &[usize] {
        &self.assignments[u]
    }

    /// All assignments.
    #[inline]
    pub fn assignments(&self) -> &[Vec<usize>] {
        &self.assignments
    }

    /// Per-user dataset sizes `|D_q|`.
    pub fn sizes(&self) -> Vec<usize> {
        self.assignments.iter().map(Vec::len).collect()
    }

    /// Total number of assigned samples.
    pub fn total_samples(&self) -> usize {
        self.assignments.iter().map(Vec::len).sum()
    }

    /// Number of distinct labels user `u` holds.
    pub fn distinct_labels(&self, labels: &[usize], u: usize) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        for &i in self.user(u) {
            seen.insert(labels[i]);
        }
        seen.len()
    }
}

/// Samples Gamma(α, 1) via Marsaglia–Tsang (with the α<1 boost),
/// using only `detrand` + the in-repo normal sampler.
fn sample_gamma(alpha: f64, rng: &mut Rng) -> f64 {
    if alpha < 1.0 {
        // Gamma(α) = Gamma(α+1) · U^(1/α).
        let u: f64 = rng.next_f64().max(1e-300);
        return sample_gamma(alpha + 1.0, rng) * u.powf(1.0 / alpha);
    }
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = rng.standard_normal();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.next_f64();
        if u < 1.0 - 0.0331 * x.powi(4) {
            return d * v;
        }
        if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Balanced labels 0..k repeated.
    fn balanced_labels(n: usize, k: usize) -> Vec<usize> {
        (0..n).map(|i| i % k).collect()
    }

    #[test]
    fn iid_covers_every_sample_exactly_once() {
        let p = Partition::iid(103, 10, 0).unwrap();
        assert_eq!(p.num_users(), 10);
        assert_eq!(p.total_samples(), 103);
        let mut seen = [false; 103];
        for u in 0..10 {
            for &i in p.user(u) {
                assert!(!seen[i], "sample {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Sizes differ by at most one.
        let sizes = p.sizes();
        assert_eq!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap(), 1);
    }

    #[test]
    fn iid_rejects_more_users_than_samples() {
        assert!(Partition::iid(5, 10, 0).is_err());
        assert!(Partition::iid(5, 0, 0).is_err());
    }

    #[test]
    fn shards_match_paper_geometry() {
        // Paper: 400 shards, 4 per user, 100 users.
        let labels = balanced_labels(20_000, 10);
        let p = Partition::shards(&labels, 100, 4, 7).unwrap();
        assert_eq!(p.num_users(), 100);
        assert_eq!(p.total_samples(), 20_000);
        for u in 0..100 {
            assert_eq!(p.user(u).len(), 200);
            // ≤ 4 shards → ≤ 4 distinct labels (usually fewer).
            assert!(p.distinct_labels(&labels, u) <= 4);
        }
    }

    #[test]
    fn shards_concentrate_labels_relative_to_iid() {
        let labels = balanced_labels(4_000, 10);
        let shard = Partition::shards(&labels, 20, 2, 1).unwrap();
        let iid = Partition::iid(4_000, 20, 1).unwrap();
        let mean_distinct = |p: &Partition| {
            (0..20).map(|u| p.distinct_labels(&labels, u)).sum::<usize>() as f64 / 20.0
        };
        assert!(mean_distinct(&shard) < mean_distinct(&iid) / 2.0);
    }

    #[test]
    fn shards_reject_too_few_samples() {
        let labels = balanced_labels(30, 10);
        assert!(Partition::shards(&labels, 100, 4, 0).is_err());
        assert!(Partition::shards(&labels, 0, 4, 0).is_err());
        assert!(Partition::shards(&labels, 10, 0, 0).is_err());
    }

    #[test]
    fn dirichlet_covers_all_samples_and_users() {
        let labels = balanced_labels(2_000, 10);
        let p = Partition::dirichlet(&labels, 25, 10, 0.3, 5).unwrap();
        assert_eq!(p.total_samples(), 2_000);
        assert!(p.sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn dirichlet_small_alpha_is_more_skewed_than_large() {
        let labels = balanced_labels(5_000, 10);
        let skewed = Partition::dirichlet(&labels, 20, 10, 0.05, 3).unwrap();
        let smooth = Partition::dirichlet(&labels, 20, 10, 100.0, 3).unwrap();
        let mean_distinct = |p: &Partition| {
            (0..20).map(|u| p.distinct_labels(&labels, u)).sum::<usize>() as f64 / 20.0
        };
        assert!(mean_distinct(&skewed) < mean_distinct(&smooth));
    }

    #[test]
    fn dirichlet_validates_inputs() {
        let labels = balanced_labels(100, 10);
        assert!(Partition::dirichlet(&labels, 0, 10, 0.5, 0).is_err());
        assert!(Partition::dirichlet(&labels, 10, 10, 0.0, 0).is_err());
        assert!(Partition::dirichlet(&labels, 10, 10, f64::NAN, 0).is_err());
        // Label out of declared class range.
        assert!(Partition::dirichlet(&labels, 10, 5, 0.5, 0).is_err());
    }

    #[test]
    fn partitions_are_seed_deterministic() {
        let labels = balanced_labels(1_000, 10);
        assert_eq!(
            Partition::shards(&labels, 10, 4, 9).unwrap(),
            Partition::shards(&labels, 10, 4, 9).unwrap()
        );
        assert_ne!(
            Partition::shards(&labels, 10, 4, 9).unwrap(),
            Partition::shards(&labels, 10, 4, 10).unwrap()
        );
        assert_eq!(Partition::iid(1_000, 10, 2).unwrap(), Partition::iid(1_000, 10, 2).unwrap());
    }

    #[test]
    fn gamma_sampler_has_correct_mean() {
        let mut rng = Rng::seed_from_u64(11);
        for &alpha in &[0.3f64, 1.0, 2.5, 8.0] {
            let n = 5_000;
            let mean: f64 =
                (0..n).map(|_| sample_gamma(alpha, &mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - alpha).abs() < alpha * 0.15 + 0.05,
                "alpha {alpha}: mean {mean}"
            );
        }
    }
}

//! Data partitioning across users: the paper's IID and Non-IID
//! settings (§VII-A).
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

    /// Number of distinct labels user `u` holds.
    pub fn distinct_labels(&self, labels: &[usize], u: usize) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        for &i in self.user(u) {
            seen.insert(labels[i]);
        }
        seen.len()
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
}

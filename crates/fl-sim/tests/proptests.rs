//! Property-style tests for the FL substrate.
//!
//! Formerly backed by the `proptest` crate; rewritten as deterministic
//! seeded case loops over [`detrand::Rng`] so `cargo test` runs fully
//! offline. The invariants are unchanged; each test draws a few
//! hundred cases from a fixed seed, and the case index appears in
//! every assertion message for reproducibility.

use detrand::Rng;
use fl_sim::partition::Partition;
use fl_sim::selection::selection_target;
use fl_sim::server::Flcc;

const CASES: usize = 200;

/// Checks that a partition is an exact cover of `0..n`.
fn assert_exact_cover(p: &Partition, n: usize, case: usize) {
    let mut seen = vec![false; n];
    for u in 0..p.num_users() {
        for &i in p.user(u) {
            assert!(i < n, "case {case}: index {i} out of range");
            assert!(!seen[i], "case {case}: index {i} assigned twice");
            seen[i] = true;
        }
    }
    assert!(seen.iter().all(|&s| s), "case {case}: some samples unassigned");
}

/// IID partitions exactly cover the sample set with near-equal shard
/// sizes.
#[test]
fn iid_partition_is_balanced_exact_cover() {
    let mut rng = Rng::seed_from_u64(0xf1a0_0001);
    for case in 0..CASES {
        let users = rng.range_usize(1, 40);
        let n = users + rng.below(200);
        let seed = rng.next_u64();
        let p = Partition::iid(n, users, seed).unwrap();
        assert_exact_cover(&p, n, case);
        let sizes = p.sizes();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1, "case {case}: unbalanced shards");
    }
}

/// Shard partitions exactly cover the sample set and respect the
/// shards-per-user label bound.
#[test]
fn shard_partition_is_exact_cover_with_label_bound() {
    let mut rng = Rng::seed_from_u64(0xf1a0_0002);
    for case in 0..CASES {
        let users = rng.range_usize(1, 20);
        let spu = rng.range_usize(1, 5);
        let classes = rng.range_usize(2, 8);
        let seed = rng.next_u64();
        let n = users * spu * 30;
        let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
        let p = Partition::shards(&labels, users, spu, seed).unwrap();
        assert_exact_cover(&p, n, case);
        let shard_size = n / (users * spu) + 1;
        let per_class = n / classes;
        for u in 0..users {
            assert!(p.distinct_labels(&labels, u) <= classes, "case {case}");
            if shard_size <= per_class {
                // Each contiguous shard of the label-sorted sequence
                // spans at most 2 labels when it fits in one class run.
                assert!(p.distinct_labels(&labels, u) <= 2 * spu, "case {case}");
            }
        }
    }
}

/// FedAvg output stays inside the per-coordinate convex hull of the
/// updates (it is a convex combination).
#[test]
fn fedavg_is_a_convex_combination() {
    let mut rng = Rng::seed_from_u64(0xf1a0_0004);
    for case in 0..CASES {
        let w1 = rng.uniform(1.0, 500.0);
        let w2 = rng.uniform(1.0, 500.0);
        let w3 = rng.uniform(1.0, 500.0);
        let mut flcc = Flcc::new(&[3, 4, 2], rng.next_u64()).unwrap();
        let n = flcc.global_model().num_parameters();
        let mk = |offset: f32| -> Vec<f32> {
            (0..n).map(|i| offset + i as f32 * 0.01).collect()
        };
        let updates = vec![(mk(-1.0), w1), (mk(0.5), w2), (mk(2.0), w3)];
        flcc.aggregate(&updates).unwrap();
        let merged = flcc.broadcast();
        for (i, &v) in merged.iter().enumerate() {
            let lo = -1.0f32 + i as f32 * 0.01;
            let hi = 2.0f32 + i as f32 * 0.01;
            assert!(
                v >= lo - 1e-4 && v <= hi + 1e-4,
                "case {case}: coordinate {i} = {v} escaped [{lo}, {hi}]"
            );
        }
    }
}

/// The selection-size rule stays within `1..=Q` for all valid
/// fractions.
#[test]
fn selection_target_is_bounded() {
    let mut rng = Rng::seed_from_u64(0xf1a0_0005);
    for case in 0..CASES {
        let q = rng.range_usize(1, 1000);
        let c = rng.uniform(0.0001, 1.0);
        let n = selection_target(q, c).unwrap();
        assert!(n >= 1 && n <= q, "case {case}: target {n} outside 1..={q}");
        // Monotone in the fraction.
        let n2 = selection_target(q, (c * 2.0).min(1.0)).unwrap();
        assert!(n2 >= n, "case {case}: target not monotone in the fraction");
    }
}

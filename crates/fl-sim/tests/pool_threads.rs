//! The trainer pool's thread budget: the calling thread is worker 0,
//! so a pool `w` wide spawns exactly `w − 1` threads, and every job
//! runs its stride 0 on the caller (Runtime lane `worker0`).
//!
//! This file holds one test so that no other test's threads share the
//! process while the thread count is read (Linux only: the count is the
//! number of entries under `/proc/self/task`).

#![cfg(target_os = "linux")]

use fl_sim::client::{build_clients, LocalUpdateSpec};
use fl_sim::dataset::{DatasetConfig, SyntheticTask};
use fl_sim::parallel::with_trainer_pool;
use fl_sim::partition::Partition;
use helcfl_telemetry::Telemetry;
use tinynn::model::Mlp;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn a_pool_w_wide_spawns_w_minus_one_threads_and_runs_stride_zero_on_the_caller() {
    let task = SyntheticTask::generate(DatasetConfig {
        num_classes: 4,
        feature_dim: 6,
        train_samples: 120,
        test_samples: 700,
        seed: 9,
        ..DatasetConfig::default()
    })
    .unwrap();
    let partition = Partition::iid(120, 10, 3).unwrap();
    let clients = build_clients(task.train(), partition.assignments()).unwrap();
    let global = Mlp::new(&[6, 8, 4], 77).unwrap().parameters();
    let spec = LocalUpdateSpec { learning_rate: 0.3, local_epochs: 1, batch_size: 8 };
    let indices: Vec<usize> = (0..clients.len()).collect();
    let before = threads();
    for width in [1, 2, 3] {
        let tele = Telemetry::metrics_only();
        let spawned = with_trainer_pool(width, &[6, 8, 4], &clients, task.test(), |pool| {
            assert_eq!(pool.workers(), width);
            let spawned = threads() - before;
            pool.train(1, 42, &spec, &global, &indices, &tele, "local_update")?;
            pool.evaluate(&global, &tele)?;
            Ok(spawned)
        })
        .unwrap();
        assert_eq!(spawned, width - 1, "a pool {width} wide");
        let snap = tele.snapshot();
        // Ten items over `width` strides: the caller's stride 0 holds
        // items 0, width, 2·width, …
        assert_eq!(snap.counter("local_update.worker0.items"), 10u64.div_ceil(width as u64));
        assert_eq!(snap.counter("pool.spawn_amortized"), 2 * (width as u64 - 1));
    }
}

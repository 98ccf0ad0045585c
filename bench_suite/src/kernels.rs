//! The `tinynn` model-level section: one local training step and one
//! evaluation forward pass of the paper's `[64, 64, 10]` MLP at the row
//! counts the workloads run them at — 200 (a full-batch IID client),
//! 20 (one Non-IID minibatch) and 256 (one evaluation chunk). Set
//! beside a round's `local_update` time, these give the gap between the
//! kernel layer and the round layer as a number; per-GEMM rates stay in
//! `bench_kernels`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use detrand::Rng;
use helcfl_bench::gate::percentile_nearest_rank;
use tinynn::model::{Mlp, TrainScratch};
use tinynn::tensor::Matrix;
use tinynn::Result;

/// The paper's model widths.
const DIMS: [usize; 3] = [64, 64, 10];

/// Timed batches per shape; the reported time is their median.
const BATCHES: usize = 7;

/// Per-call times of the three shapes, in µs, and the rates they imply.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    /// `Mlp::train_step_with` on 200 rows.
    pub train_step_b200_us: f64,
    /// `Mlp::train_step_with` on 20 rows.
    pub train_step_b20_us: f64,
    /// `Mlp::forward_with` on 256 rows.
    pub forward_b256_us: f64,
    /// Training GFLOP/s at 200 rows, counting a backward pass as twice
    /// the forward (`Mlp::flops_per_sample`).
    pub train_gflops: f64,
    /// Forward GFLOP/s at 256 rows.
    pub forward_gflops: f64,
}

fn random_batch(rows: usize, rng: &mut Rng) -> Result<(Matrix, Vec<usize>)> {
    let data = (0..rows * DIMS[0])
        .map(|_| rng.uniform_f32(-1.0, 1.0))
        .collect();
    let labels = (0..rows).map(|_| rng.below(DIMS[2])).collect();
    Ok((Matrix::from_vec(rows, DIMS[0], data)?, labels))
}

/// Median per-call time of `f` in µs over [`BATCHES`] batches, each
/// sized from a warm estimate to last about `batch`.
fn median_call_us(batch: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let per_call = t.elapsed().max(Duration::from_nanos(1));
    let iters = (batch.as_secs_f64() / per_call.as_secs_f64())
        .ceil()
        .max(1.0) as u32;
    let mut batch_ns: Vec<u64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as u64
        })
        .collect();
    batch_ns.sort_unstable();
    percentile_nearest_rank(&batch_ns, 0.5) as f64 / 1e3 / f64::from(iters)
}

/// Measures the section; `batch` is the length of one timed batch.
///
/// # Errors
///
/// Propagates model-construction and shape errors.
pub fn measure(seed: u64, batch: Duration) -> Result<Kernels> {
    let mut rng = Rng::seed_from_u64(seed);
    let model = Mlp::new(&DIMS, seed)?;
    let flops = model.flops_per_sample() as f64;
    let mut train_us = |rows: usize| -> Result<f64> {
        let (x, labels) = random_batch(rows, &mut rng)?;
        let mut m = model.clone();
        let mut scratch = TrainScratch::for_model(&m)?;
        // A zero learning rate keeps the weights, and so every call's
        // work, identical while still applying the update.
        Ok(median_call_us(batch, || {
            black_box(
                m.train_step_with(&x, &labels, 0.0, &mut scratch)
                    .expect("shapes fixed"),
            );
        }))
    };
    let train_step_b200_us = train_us(200)?;
    let train_step_b20_us = train_us(20)?;
    let (x, _) = random_batch(256, &mut rng)?;
    let mut scratch = TrainScratch::for_model(&model)?;
    let forward_b256_us = median_call_us(batch, || {
        black_box(model.forward_with(&x, &mut scratch).expect("shapes fixed"));
    });
    Ok(Kernels {
        train_step_b200_us,
        train_step_b20_us,
        forward_b256_us,
        train_gflops: 3.0 * flops * 200.0 / train_step_b200_us / 1e3,
        forward_gflops: flops * 256.0 / forward_b256_us / 1e3,
    })
}

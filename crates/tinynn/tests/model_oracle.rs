//! The fused scratch path against the unfused oracle, model by model.
//!
//! `Mlp::forward_with`, `gradients_into` and five `train_step_with`
//! steps must reproduce the unfused chain of `oracle::Unfused` bit for
//! bit — logits, loss, every gradient and every parameter — on every
//! kernel path the host supports. Shapes: the paper's `[64, 64, 10]`
//! at a full IID client batch (200 rows) and a Non-IID minibatch (20
//! rows), a one-layer `[64, 10]`, and a deeper `[64, 24, 16, 10]` at an
//! odd row count.

mod oracle;

use detrand::Rng;
use tinynn::model::{Mlp, TrainScratch};
use tinynn::simd::available_paths;
use tinynn::tensor::Matrix;

use oracle::{PathGuard, Unfused};

const STEPS: usize = 5;
const LR: f32 = 0.5;

/// Asserts exact IEEE-754 bit equality of two flat vectors.
fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (idx, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what} differs at {idx}: {g} vs {w}");
    }
}

/// The flat gradient in `Mlp::parameters` order.
fn flat_gradients(scratch: &TrainScratch) -> Vec<f32> {
    let mut out = Vec::new();
    for g in scratch.gradients().layers() {
        out.extend_from_slice(g.weights.as_slice());
        out.extend_from_slice(&g.bias);
    }
    out
}

#[test]
fn fused_path_is_bit_identical_to_the_unfused_oracle_on_every_path() {
    let cases: [(&[usize], usize); 4] =
        [(&[64, 64, 10], 200), (&[64, 64, 10], 20), (&[64, 10], 200), (&[64, 24, 16, 10], 37)];
    for (case, &(dims, rows)) in cases.iter().enumerate() {
        let mut rng = Rng::seed_from_u64(0x4e4e_0041 + case as u64);
        let data = (0..rows * dims[0]).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();
        let x = Matrix::from_vec(rows, dims[0], data).unwrap();
        let labels: Vec<usize> = (0..rows).map(|_| rng.below(dims[dims.len() - 1])).collect();
        let model = Mlp::new(dims, case as u64).unwrap();

        // One oracle run serves every path: its products are the naive
        // kernels, not the dispatched ones.
        let mut unfused = Unfused::new(&model);
        let want_logits = unfused.forward(&x);
        let (want_loss, want_grads) = unfused.gradients(&x, &labels);
        let want_steps: Vec<(f32, Vec<f32>)> = (0..STEPS)
            .map(|_| {
                let loss = unfused.train_step(&x, &labels, LR);
                (loss, unfused.parameters())
            })
            .collect();

        for &path in &available_paths() {
            let _guard = PathGuard::force(path);
            let what = format!("{dims:?} x {rows} rows [{}]", path.name());
            // One scratch for every call, so buffers are reused.
            let mut scratch = TrainScratch::for_model(&model).unwrap();
            let logits = model.forward_with(&x, &mut scratch).unwrap();
            assert_eq!(logits.shape(), want_logits.shape(), "{what}: logits shape");
            assert_bits(logits.as_slice(), want_logits.as_slice(), &format!("{what}: logits"));
            let loss = model.gradients_into(&x, &labels, &mut scratch).unwrap();
            assert_bits(&[loss], &[want_loss], &format!("{what}: loss"));
            assert_bits(&flat_gradients(&scratch), &want_grads, &format!("{what}: gradients"));
            let mut trained = model.clone();
            for (step, (want_loss, want_params)) in want_steps.iter().enumerate() {
                let loss = trained.train_step_with(&x, &labels, LR, &mut scratch).unwrap();
                let what = format!("{what}: step {step}");
                assert_bits(&[loss], &[*want_loss], &format!("{what} loss"));
                assert_bits(&trained.parameters(), want_params, &format!("{what} parameters"));
            }
        }
    }
}

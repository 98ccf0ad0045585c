//! The test oracle for `tinynn`'s fused training path, shared by the
//! integration tests that include it (`mod oracle;`).
//!
//! * The naive kernels define the GEMM contract: one `f32`
//!   accumulator per output element, summed over the reduction index
//!   in ascending order. Every kernel path must match them bit for bit.
//! * [`Unfused`] is the MLP written the plain way: each layer as a
//!   naive product, a separate bias pass and a separate ReLU copy; the
//!   backward ReLU mask read from the saved pre-activations; an
//!   allocating softmax cross-entropy; and the input gradient formed
//!   for every layer. The fused scratch path (`Mlp::forward_with`,
//!   `gradients_into`, `train_step_with`, `count_correct_rows`) must
//!   reproduce it bit for bit on every kernel path.
//!
//! Its products go through the naive kernels, not the dispatched ones,
//! so one oracle result serves every kernel path.

// Each test crate that includes this module uses a subset of it.
#![allow(dead_code)]

use tinynn::activation::relu_backward_inplace;
use tinynn::model::Mlp;
use tinynn::simd::{force_path_for_tests, SimdPath};
use tinynn::tensor::Matrix;

/// Forces `path` for the calling thread and restores normal dispatch
/// on drop (also on panic, so a failing case cannot poison dispatch
/// for tests that share the thread).
pub struct PathGuard;

impl PathGuard {
    pub fn force(path: SimdPath) -> Self {
        force_path_for_tests(Some(path));
        PathGuard
    }
}

impl Drop for PathGuard {
    fn drop(&mut self) {
        force_path_for_tests(None);
    }
}

/// `lhs · rhs` by the contract's definition: single accumulator,
/// ascending `k`.
pub fn naive_matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    let (m, kk) = lhs.shape();
    let n = rhs.cols();
    let mut out = Matrix::zeros(m, n).unwrap();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..kk {
                acc += lhs.at(i, k) * rhs.at(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// `lhsᵀ · rhs`, same contract (ascending `k` = lhs/rhs row index).
pub fn naive_matmul_tn(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    let (kk, m) = lhs.shape();
    let n = rhs.cols();
    let mut out = Matrix::zeros(m, n).unwrap();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..kk {
                acc += lhs.at(k, i) * rhs.at(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// `lhs · rhsᵀ`, same contract.
pub fn naive_matmul_nt(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    let (m, kk) = lhs.shape();
    let n = rhs.rows();
    let mut out = Matrix::zeros(m, n).unwrap();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..kk {
                acc += lhs.at(i, k) * rhs.at(j, k);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// The fused epilogue: add bias after the full reduction, then clamp
/// negatives if `relu` — exactly one rounding step per operation.
pub fn naive_bias_epilogue(out: &mut Matrix, bias: &[f32], relu: bool) {
    for i in 0..out.rows() {
        for (j, &b) in bias.iter().enumerate() {
            let v = out.at(i, j) + b;
            out.set(i, j, if relu && v < 0.0 { 0.0 } else { v });
        }
    }
}

/// Asserts exact IEEE-754 bit equality, element by element.
pub fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str, case: usize) {
    assert_eq!(got.shape(), want.shape(), "case {case}: {what} shape");
    for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "case {case}: {what} differs at flat index {idx}: {g} vs {w}"
        );
    }
}


/// The unfused MLP: weights (`fan_in × fan_out`) and bias per layer,
/// input-most first.
#[derive(Debug, Clone)]
pub struct Unfused {
    layers: Vec<(Matrix, Vec<f32>)>,
}

/// The forward pass with every intermediate kept: `acts[i]` is the
/// input of layer `i` (`acts[0]` the batch), `pre[i]` its affine
/// output, and the last `pre` the logits.
struct Trace {
    acts: Vec<Matrix>,
    pre: Vec<Matrix>,
}

impl Unfused {
    /// A copy of `model`'s parameters.
    pub fn new(model: &Mlp) -> Self {
        let params = model.parameters();
        let mut offset = 0;
        let layers = model
            .dims()
            .windows(2)
            .map(|w| {
                let (fan_in, fan_out) = (w[0], w[1]);
                let weights = params[offset..offset + fan_in * fan_out].to_vec();
                offset += fan_in * fan_out;
                let bias = params[offset..offset + fan_out].to_vec();
                offset += fan_out;
                (Matrix::from_vec(fan_in, fan_out, weights).unwrap(), bias)
            })
            .collect();
        assert_eq!(offset, params.len());
        Self { layers }
    }

    /// All parameters in `Mlp::parameters` order.
    pub fn parameters(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for (weights, bias) in &self.layers {
            out.extend_from_slice(weights.as_slice());
            out.extend_from_slice(bias);
        }
        out
    }

    fn trace(&self, x: &Matrix) -> Trace {
        let mut acts = vec![x.clone()];
        let mut pre = Vec::with_capacity(self.layers.len());
        for (i, (weights, bias)) in self.layers.iter().enumerate() {
            let mut z = naive_matmul(acts.last().unwrap(), weights);
            naive_bias_epilogue(&mut z, bias, false);
            if i + 1 < self.layers.len() {
                acts.push(relu(&z));
            }
            pre.push(z);
        }
        Trace { acts, pre }
    }

    /// The logits (`n × classes`).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.trace(x).pre.pop().unwrap()
    }

    /// Mean loss and the flat parameter gradient (`Mlp::parameters`
    /// order).
    pub fn gradients(&self, x: &Matrix, labels: &[usize]) -> (f32, Vec<f32>) {
        let Trace { acts, pre } = self.trace(x);
        let (loss, mut dz) = softmax_cross_entropy(pre.last().unwrap(), labels);
        let mut grads = vec![Vec::new(); self.layers.len()];
        for (i, (weights, _)) in self.layers.iter().enumerate().rev() {
            let mut grad = naive_matmul_tn(&acts[i], &dz).as_slice().to_vec();
            grad.extend(col_sums(&dz));
            grads[i] = grad;
            let mut dx = naive_matmul_nt(&dz, weights);
            if i > 0 {
                relu_backward_inplace(&mut dx, &pre[i - 1]);
            }
            dz = dx;
        }
        (loss, grads.concat())
    }

    /// One full-batch gradient-descent step (Eq. 3), returning the
    /// pre-step loss.
    pub fn train_step(&mut self, x: &Matrix, labels: &[usize], lr: f32) -> f32 {
        let (loss, grads) = self.gradients(x, labels);
        let mut grads = grads.into_iter();
        for (weights, bias) in &mut self.layers {
            for p in weights.as_mut_slice().iter_mut().chain(bias.iter_mut()) {
                *p -= lr * grads.next().unwrap();
            }
        }
        loss
    }
}

fn relu(z: &Matrix) -> Matrix {
    let mut out = z.clone();
    for v in out.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    out
}

/// Column sums in ascending row order.
fn col_sums(m: &Matrix) -> Vec<f32> {
    let mut sums = vec![0.0; m.cols()];
    for row in m.as_slice().chunks_exact(m.cols()) {
        for (s, &v) in sums.iter_mut().zip(row) {
            *s += v;
        }
    }
    sums
}

/// Row-wise softmax, stabilized by the row maximum.
fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for row in out.as_mut_slice().chunks_exact_mut(logits.cols()) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Mean softmax cross-entropy and its logits gradient
/// `(softmax - onehot) / n`.
fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    let (n, k) = logits.shape();
    assert_eq!(labels.len(), n);
    let mut probs = softmax_rows(logits);
    let mut loss = 0.0f64;
    let inv_n = 1.0 / n as f32;
    for (row, &label) in probs.as_mut_slice().chunks_exact_mut(k).zip(labels) {
        loss -= f64::from(row[label].max(1e-12).ln());
        for v in row.iter_mut() {
            *v *= inv_n;
        }
        row[label] -= inv_n;
    }
    ((loss / n as f64) as f32, probs)
}

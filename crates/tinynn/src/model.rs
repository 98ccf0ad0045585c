//! Multi-layer perceptron with ReLU hidden activations and a softmax
//! cross-entropy head — the local model `M_q` of every simulated user.
//!
//! The model exposes the two operations federated averaging needs:
//! a *flat parameter vector* view ([`Mlp::parameters`] /
//! [`Mlp::set_parameters`]) and a *single full-batch gradient-descent
//! step* ([`Mlp::train_step_with`], paper Eq. 3). Training and
//! scoring both run the fused forward kernels into a reusable
//! [`TrainScratch`]; the unfused layer-by-layer chain they replace is
//! kept under `tests/` as the oracle they are pinned against, bit for
//! bit.

use detrand::Rng;

use crate::activation::relu_backward_inplace;
use crate::error::{NnError, Result};
use crate::init::Init;
use crate::layer::{Dense, DenseGrad};
use crate::loss::softmax_cross_entropy_into;
use crate::tensor::{argmax_row, matmul_bias_rows_into, Matrix};

/// Gradients of all layers of an [`Mlp`], ordered input → output.
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    layers: Vec<DenseGrad>,
}

impl Gradients {
    /// Per-layer gradients, input-most first.
    pub fn layers(&self) -> &[DenseGrad] {
        &self.layers
    }
}

/// Reusable forward/backward workspace for one [`Mlp`] shape.
///
/// Holds every intermediate buffer a training step needs — hidden
/// activations, the logits, the two alternating upstream-gradient
/// buffers, and the parameter-gradient storage — so
/// [`Mlp::train_step_with`] performs **zero heap allocation at steady
/// state**: buffers grow to the largest batch seen, then are reused.
/// In the parallel round engine each worker thread owns one scratch
/// and reuses it across all clients it trains.
///
/// Pre-activations are not stored: the fused forward kernel produces
/// `relu(x·W + b)` directly, and the backward ReLU mask reads the
/// activation instead — `act <= 0.0` holds exactly where `pre <= 0.0`
/// did (ReLU maps negatives to `+0.0` and preserves `0.0`, `-0.0`,
/// and NaN), so the mask is bitwise identical.
#[derive(Debug, Clone)]
pub struct TrainScratch {
    /// Post-ReLU activation of each hidden layer
    /// (`relu(x·W + b)`, produced by the fused forward kernel).
    acts: Vec<Matrix>,
    /// The last layer's affine output (`n × classes` logits).
    logits: Matrix,
    /// Upstream gradient buffers, swapped while walking backward.
    dz: Matrix,
    dx: Matrix,
    /// Parameter-gradient storage.
    grads: Gradients,
}

impl TrainScratch {
    /// Creates a scratch sized for `model` (buffers start minimal and
    /// grow to the steady-state batch size on first use).
    ///
    /// # Errors
    ///
    /// Propagates buffer-construction errors (unreachable for a valid
    /// model).
    pub fn for_model(model: &Mlp) -> Result<Self> {
        let num_layers = model.layers.len();
        let placeholder = Matrix::zeros(1, 1)?;
        let mut grads = Vec::with_capacity(num_layers);
        for layer in &model.layers {
            grads.push(DenseGrad::zeros(layer.fan_in(), layer.fan_out())?);
        }
        Ok(Self {
            acts: vec![placeholder.clone(); num_layers.saturating_sub(1)],
            logits: placeholder.clone(),
            dz: placeholder.clone(),
            dx: placeholder,
            grads: Gradients { layers: grads },
        })
    }

    /// The gradients computed by the most recent
    /// [`Mlp::gradients_into`] call.
    pub fn gradients(&self) -> &Gradients {
        &self.grads
    }
}

/// A ReLU MLP classifier.
///
/// # Examples
///
/// ```
/// use tinynn::model::{Mlp, TrainScratch};
/// use tinynn::tensor::Matrix;
///
/// // Tiny 4-feature, 3-class model.
/// let mut model = Mlp::new(&[4, 8, 3], 0)?;
/// let mut scratch = TrainScratch::for_model(&model)?;
/// let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3, 0.4]])?;
/// // Each step returns the loss before it.
/// let before = model.train_step_with(&x, &[2], 0.5, &mut scratch)?;
/// for _ in 0..20 {
///     model.train_step_with(&x, &[2], 0.5, &mut scratch)?;
/// }
/// assert!(model.gradients_into(&x, &[2], &mut scratch)? < before);
/// assert_eq!(model.count_correct_rows(&x, 0, 1, &[2], &mut scratch)?, 1);
/// # Ok::<(), tinynn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    dims: Vec<usize>,
    layers: Vec<Dense>,
}

impl Mlp {
    /// Creates an MLP with the given layer widths
    /// (`[input, hidden…, classes]`), He-initialized from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ZeroDimension`] if fewer than two widths are
    /// given or any width is zero.
    pub fn new(dims: &[usize], seed: u64) -> Result<Self> {
        if dims.len() < 2 || dims.contains(&0) {
            return Err(NnError::ZeroDimension { context: "Mlp::new dims" });
        }
        let mut rng = Rng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for w in dims.windows(2) {
            let init =
                if layers.len() + 2 == dims.len() { Init::XavierUniform } else { Init::HeUniform };
            layers.push(Dense::new(w[0], w[1], init, &mut rng)?);
        }
        Ok(Self { dims: dims.to_vec(), layers })
    }

    /// Layer widths `[input, hidden…, classes]`.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of output classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        *self.dims.last().expect("dims validated non-empty")
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(Dense::num_parameters).sum()
    }

    /// Estimated floating-point operations for one sample's forward
    /// pass: 2·in·out multiply-accumulates plus the bias add and ReLU
    /// per layer. A backward pass costs roughly 2× this. Used by the
    /// telemetry report to contextualize throughput numbers; it is an
    /// estimate, not a measured count.
    pub fn flops_per_sample(&self) -> u64 {
        self.dims
            .windows(2)
            .map(|w| 2 * (w[0] as u64) * (w[1] as u64) + 2 * w[1] as u64)
            .sum()
    }

    /// Fused forward pass into `scratch` for the row-major
    /// `rows × cols` input block `x`: the first layer's fused GEMM
    /// reads `x` in place (it may be a row range of a larger matrix),
    /// each later hidden activation comes from
    /// [`Dense::forward_relu_into`], and the logits from
    /// [`Dense::forward_into`] — one output sweep per layer, no
    /// pre-activation buffers. A one-layer model writes the logits
    /// straight from `x`.
    fn forward_scratch(
        &self,
        x: &[f32],
        rows: usize,
        cols: usize,
        scratch: &mut TrainScratch,
    ) -> Result<()> {
        let n = self.layers.len();
        let TrainScratch { acts, logits, .. } = scratch;
        let first = &self.layers[0];
        let first_out = if n == 1 { &mut *logits } else { &mut acts[0] };
        matmul_bias_rows_into(x, rows, cols, first.weights(), first.bias(), n > 1, first_out)?;
        for i in 1..n - 1 {
            let (done, rest) = acts.split_at_mut(i);
            self.layers[i].forward_relu_into(&done[i - 1], &mut rest[0])?;
        }
        if n > 1 {
            self.layers[n - 1].forward_into(&acts[n - 2], logits)?;
        }
        Ok(())
    }

    /// Rejects a scratch built for a model of different depth.
    fn check_scratch(&self, scratch: &TrainScratch) -> Result<()> {
        if scratch.acts.len() + 1 != self.layers.len() {
            return Err(NnError::ParameterCountMismatch {
                expected: self.layers.len(),
                actual: scratch.acts.len() + 1,
            });
        }
        Ok(())
    }

    /// Full forward + backward pass without allocation: the mean loss
    /// (Eq. 1) is returned and the parameter gradients land in
    /// `scratch` ([`TrainScratch::gradients`]).
    ///
    /// Bit-identical to the unfused chain (matmul, bias broadcast and
    /// ReLU as separate passes, the backward mask read from the
    /// pre-activations): the fused forward kernels preserve the
    /// per-element accumulation order, and the activation-based ReLU
    /// mask matches the pre-activation mask bit for bit (see
    /// [`TrainScratch`]). The oracle test under `tests/` pins this on
    /// every kernel path.
    ///
    /// # Errors
    ///
    /// Propagates shape/label validation errors, and
    /// [`NnError::ParameterCountMismatch`] if `scratch` was built for a
    /// differently-shaped model.
    pub fn gradients_into(
        &self,
        x: &Matrix,
        labels: &[usize],
        scratch: &mut TrainScratch,
    ) -> Result<f32> {
        if scratch.grads.layers.len() != self.layers.len() {
            return Err(NnError::ParameterCountMismatch {
                expected: self.layers.len(),
                actual: scratch.grads.layers.len(),
            });
        }
        self.forward_scratch(x.as_slice(), x.rows(), x.cols(), scratch)?;
        let loss = softmax_cross_entropy_into(&scratch.logits, labels, &mut scratch.dz)?;

        // Backward through layers, alternating the dz/dx buffers and
        // masking with the saved activations. The input-most layer
        // takes the grads-only path: its `dx` has no earlier layer to
        // reach, so the `dz·Wᵀ` product is never formed.
        for i in (0..self.layers.len()).rev() {
            let input = if i == 0 { x } else { &scratch.acts[i - 1] };
            if i == 0 {
                self.layers[0].backward_grads_into(
                    input,
                    &scratch.dz,
                    &mut scratch.grads.layers[0],
                )?;
            } else {
                self.layers[i].backward_into(
                    input,
                    &scratch.dz,
                    &mut scratch.grads.layers[i],
                    &mut scratch.dx,
                )?;
                relu_backward_inplace(&mut scratch.dx, &scratch.acts[i - 1]);
                core::mem::swap(&mut scratch.dz, &mut scratch.dx);
            }
        }
        Ok(loss)
    }

    /// One full-batch gradient-descent step at learning rate `lr`
    /// (paper Eq. 3), returning the pre-step loss. Gradients are
    /// computed into `scratch` and applied in place, with no
    /// allocation at steady state. This is the step the parallel round
    /// engine's per-worker trainers run.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mlp::gradients_into`].
    pub fn train_step_with(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        lr: f32,
        scratch: &mut TrainScratch,
    ) -> Result<f32> {
        let loss = self.gradients_into(x, labels, scratch)?;
        // Split the borrow: gradients live in scratch, weights in self.
        for (layer, grad) in self.layers.iter_mut().zip(&scratch.grads.layers) {
            layer.apply_step(grad, lr)?;
        }
        Ok(loss)
    }

    /// Forward pass into `scratch`'s buffers, returning the logits
    /// (`n × classes`) by reference.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `x.cols()` differs from
    /// the input width, and [`NnError::ParameterCountMismatch`] if
    /// `scratch` was built for a differently-shaped model.
    pub fn forward_with<'s>(
        &self,
        x: &Matrix,
        scratch: &'s mut TrainScratch,
    ) -> Result<&'s Matrix> {
        self.check_scratch(scratch)?;
        self.forward_scratch(x.as_slice(), x.rows(), x.cols(), scratch)?;
        Ok(&scratch.logits)
    }

    /// Number of rows in `start..start + len` of `x` whose predicted
    /// class equals their label — the accuracy-only evaluation path.
    /// `labels` holds one label per row of `x` (the whole set, not just
    /// the range).
    ///
    /// The first layer reads the row range of `x` in place, through
    /// the same fused kernels as [`Mlp::forward_with`]; no softmax or
    /// loss is formed, and each logits row goes through a branch-free
    /// argmax with [`Matrix::argmax_rows`] semantics. The count equals
    /// what the unfused forward pass finds on a copy of the range, and,
    /// being an integer, sums exactly over any split of a set into
    /// ranges.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyBatch`] for `len == 0`,
    /// [`NnError::ShapeMismatch`] if `labels.len() != x.rows()`, the
    /// range runs past the last row, or `x.cols()` differs from the
    /// input width, and [`NnError::ParameterCountMismatch`] if
    /// `scratch` was built for a differently-shaped model.
    pub fn count_correct_rows(
        &self,
        x: &Matrix,
        start: usize,
        len: usize,
        labels: &[usize],
        scratch: &mut TrainScratch,
    ) -> Result<usize> {
        self.check_scratch(scratch)?;
        if len == 0 {
            return Err(NnError::EmptyBatch);
        }
        let end = start.checked_add(len).filter(|&end| end <= x.rows() && labels.len() == x.rows());
        let Some(end) = end else {
            return Err(NnError::ShapeMismatch {
                left: x.shape(),
                right: (start.saturating_add(len), labels.len()),
                op: "count_correct_rows",
            });
        };
        let cols = x.cols();
        self.forward_scratch(&x.as_slice()[start * cols..end * cols], len, cols, scratch)?;
        let logits = &scratch.logits;
        Ok(logits
            .as_slice()
            .chunks_exact(logits.cols())
            .zip(&labels[start..end])
            .map(|(row, &label)| usize::from(argmax_row(row) == label))
            .sum())
    }

    /// All parameters as one flat vector (layer order, weights then
    /// bias) — the object FedAvg averages.
    pub fn parameters(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_parameters());
        for layer in &self.layers {
            layer.write_parameters(&mut out);
        }
        out
    }

    /// Overwrites all parameters from a flat vector produced by
    /// [`Mlp::parameters`] on an identically-shaped model.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParameterCountMismatch`] on length
    /// disagreement.
    pub fn set_parameters(&mut self, params: &[f32]) -> Result<()> {
        if params.len() != self.num_parameters() {
            return Err(NnError::ParameterCountMismatch {
                expected: self.num_parameters(),
                actual: params.len(),
            });
        }
        let mut offset = 0;
        for layer in &mut self.layers {
            offset += layer.read_parameters(&params[offset..])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_batch() -> (Matrix, Vec<usize>) {
        // Two linearly separable clusters in 2-D.
        let x = Matrix::from_rows(&[
            &[1.0, 1.0],
            &[0.9, 1.2],
            &[1.1, 0.8],
            &[-1.0, -1.0],
            &[-0.8, -1.1],
            &[-1.2, -0.9],
        ])
        .unwrap();
        (x, vec![0, 0, 0, 1, 1, 1])
    }

    /// Mean loss of `m` on a batch, through a fresh scratch.
    fn loss(m: &Mlp, x: &Matrix, y: &[usize]) -> f32 {
        m.gradients_into(x, y, &mut TrainScratch::for_model(m).unwrap()).unwrap()
    }

    #[test]
    fn constructor_validates_dims() {
        assert!(Mlp::new(&[4], 0).is_err());
        assert!(Mlp::new(&[4, 0, 2], 0).is_err());
        assert!(Mlp::new(&[], 0).is_err());
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let m = Mlp::new(&[64, 96, 48, 10], 0).unwrap();
        let expected = 64 * 96 + 96 + 96 * 48 + 48 + 48 * 10 + 10;
        assert_eq!(m.num_parameters(), expected);
        let flops = 2 * 64 * 96 + 2 * 96 + 2 * 96 * 48 + 2 * 48 + 2 * 48 * 10 + 2 * 10;
        assert_eq!(m.flops_per_sample(), flops);
    }

    #[test]
    fn forward_shape_is_batch_by_classes() {
        let m = Mlp::new(&[4, 8, 3], 0).unwrap();
        let mut scratch = TrainScratch::for_model(&m).unwrap();
        let x = Matrix::zeros(5, 4).unwrap();
        assert_eq!(m.forward_with(&x, &mut scratch).unwrap().shape(), (5, 3));
        let bad = Matrix::zeros(5, 3).unwrap();
        assert!(m.forward_with(&bad, &mut scratch).is_err());
    }

    #[test]
    fn training_reduces_loss_and_reaches_full_accuracy() {
        let (x, y) = toy_batch();
        let mut m = Mlp::new(&[2, 8, 2], 1).unwrap();
        let mut scratch = TrainScratch::for_model(&m).unwrap();
        let initial = loss(&m, &x, &y);
        for _ in 0..200 {
            m.train_step_with(&x, &y, 0.5, &mut scratch).unwrap();
        }
        assert!(loss(&m, &x, &y) < initial * 0.1);
        assert_eq!(m.count_correct_rows(&x, 0, 6, &y, &mut scratch).unwrap(), 6);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let (x, y) = toy_batch();
        let m = Mlp::new(&[2, 4, 2], 7).unwrap();
        let mut scratch = TrainScratch::for_model(&m).unwrap();
        m.gradients_into(&x, &y, &mut scratch).unwrap();
        // Check a handful of coordinates through the flat view.
        let params = m.parameters();
        let flat_grad: Vec<f32> = {
            let mut v = Vec::new();
            for g in scratch.gradients().layers() {
                v.extend_from_slice(g.weights.as_slice());
                v.extend_from_slice(&g.bias);
            }
            v
        };
        let eps = 1e-2f32;
        for &idx in &[0usize, 3, 7, params.len() - 1] {
            let mut plus = m.clone();
            let mut p = params.clone();
            p[idx] += eps;
            plus.set_parameters(&p).unwrap();
            let mut minus = m.clone();
            p[idx] -= 2.0 * eps;
            minus.set_parameters(&p).unwrap();
            let numeric = (loss(&plus, &x, &y) - loss(&minus, &x, &y)) / (2.0 * eps);
            assert!(
                (numeric - flat_grad[idx]).abs() < 2e-2,
                "param {idx}: numeric {numeric} vs analytic {}",
                flat_grad[idx]
            );
        }
    }

    #[test]
    fn parameter_roundtrip_is_identity() {
        let m = Mlp::new(&[3, 5, 4, 2], 9).unwrap();
        let mut copy = Mlp::new(&[3, 5, 4, 2], 100).unwrap();
        assert_ne!(m, copy);
        copy.set_parameters(&m.parameters()).unwrap();
        assert_eq!(m, copy);
    }

    #[test]
    fn set_parameters_rejects_wrong_length() {
        let mut m = Mlp::new(&[3, 2], 0).unwrap();
        assert!(matches!(
            m.set_parameters(&[0.0; 3]),
            Err(NnError::ParameterCountMismatch { .. })
        ));
    }

    #[test]
    fn same_seed_same_model() {
        assert_eq!(Mlp::new(&[4, 8, 3], 5).unwrap(), Mlp::new(&[4, 8, 3], 5).unwrap());
        assert_ne!(Mlp::new(&[4, 8, 3], 5).unwrap(), Mlp::new(&[4, 8, 3], 6).unwrap());
    }

    #[test]
    fn scratch_rejects_mismatched_model() {
        let (x, y) = toy_batch();
        let mut m = Mlp::new(&[2, 4, 2], 0).unwrap();
        let other = Mlp::new(&[2, 4, 4, 2], 0).unwrap();
        let mut scratch = TrainScratch::for_model(&other).unwrap();
        assert!(m.gradients_into(&x, &y, &mut scratch).is_err());
        assert!(m.train_step_with(&x, &y, 0.1, &mut scratch).is_err());
        assert!(m.forward_with(&x, &mut scratch).is_err());
    }
}

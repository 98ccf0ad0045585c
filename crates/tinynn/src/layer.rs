//! Fully-connected layer.


use crate::error::{NnError, Result};
use crate::init::Init;
use crate::tensor::Matrix;
use detrand::Rng;

/// A dense (fully-connected) layer `y = x·W + b`.
///
/// Weights are `fan_in × fan_out`; bias is a length-`fan_out` vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    weights: Matrix,
    bias: Vec<f32>,
}

/// Parameter gradients of one [`Dense`] layer.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseGrad {
    /// Gradient w.r.t. the weights.
    pub weights: Matrix,
    /// Gradient w.r.t. the bias.
    pub bias: Vec<f32>,
}

impl DenseGrad {
    /// Zero-valued gradients shaped for a `fan_in × fan_out` layer —
    /// the reusable storage behind [`Dense::backward_into`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ZeroDimension`] for empty shapes.
    pub fn zeros(fan_in: usize, fan_out: usize) -> Result<Self> {
        Ok(Self { weights: Matrix::zeros(fan_in, fan_out)?, bias: vec![0.0; fan_out] })
    }
}

impl Dense {
    /// Creates a layer with `init`-sampled weights and zero bias.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ZeroDimension`] for empty shapes.
    pub fn new(fan_in: usize, fan_out: usize, init: Init, rng: &mut Rng) -> Result<Self> {
        Ok(Self { weights: init.sample(fan_in, fan_out, rng)?, bias: vec![0.0; fan_out] })
    }

    /// Creates a layer from explicit parameters (tests / golden setups).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `bias.len()` differs from
    /// the weights' column count.
    pub fn from_parts(weights: Matrix, bias: Vec<f32>) -> Result<Self> {
        if bias.len() != weights.cols() {
            return Err(NnError::ShapeMismatch {
                left: weights.shape(),
                right: (1, bias.len()),
                op: "Dense::from_parts",
            });
        }
        Ok(Self { weights, bias })
    }

    /// Input width.
    #[inline]
    pub fn fan_in(&self) -> usize {
        self.weights.rows()
    }

    /// Output width.
    #[inline]
    pub fn fan_out(&self) -> usize {
        self.weights.cols()
    }

    /// The weight matrix.
    #[inline]
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The bias vector.
    #[inline]
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Number of scalar parameters (`fan_in·fan_out + fan_out`).
    #[inline]
    pub fn num_parameters(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// Forward pass `x·W + b` into a caller-owned buffer (resized as
    /// needed; zero allocation at steady state).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `x.cols() != fan_in`.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) -> Result<()> {
        x.matmul_bias_into(&self.weights, &self.bias, out)
    }

    /// Fused forward + ReLU `relu(x·W + b)` into a caller-owned buffer
    /// — the hidden-layer fast path: one sweep over the output instead
    /// of a matmul, a bias broadcast, and a ReLU copy. Bit-identical
    /// to [`Dense::forward_into`] followed by clamping negatives to
    /// zero.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `x.cols() != fan_in`.
    pub fn forward_relu_into(&self, x: &Matrix, out: &mut Matrix) -> Result<()> {
        x.matmul_bias_relu_into(&self.weights, &self.bias, out)
    }

    /// Backward pass: given the input `x` and the upstream gradient
    /// `dz` (w.r.t. this layer's output), writes this layer's
    /// parameter gradients and the gradient w.r.t. `x` into
    /// caller-owned buffers (resized as needed; zero allocation at
    /// steady state).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on inconsistent shapes.
    pub fn backward_into(
        &self,
        x: &Matrix,
        dz: &Matrix,
        grad: &mut DenseGrad,
        dx: &mut Matrix,
    ) -> Result<()> {
        x.matmul_tn_into(dz, &mut grad.weights)?;
        dz.col_sums_into(&mut grad.bias);
        dz.matmul_nt_into(&self.weights, dx)
    }

    /// [`Dense::backward_into`] without the input gradient `dz·Wᵀ` —
    /// for the input-most layer, whose `dx` has nothing left to flow
    /// into. Skipping it drops the largest backward matmul of the
    /// paper's MLP (`batch × fan_in × fan_out`) and cannot affect any
    /// result: the parameter gradients are computed by the identical
    /// kernels, and `dx` was previously discarded.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on inconsistent shapes.
    pub fn backward_grads_into(
        &self,
        x: &Matrix,
        dz: &Matrix,
        grad: &mut DenseGrad,
    ) -> Result<()> {
        x.matmul_tn_into(dz, &mut grad.weights)?;
        dz.col_sums_into(&mut grad.bias);
        Ok(())
    }

    /// In-place gradient-descent step `θ ← θ - lr·∇θ` (paper Eq. 3).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the gradient shapes do not
    /// match this layer.
    pub fn apply_step(&mut self, grad: &DenseGrad, lr: f32) -> Result<()> {
        self.weights.add_scaled(&grad.weights, -lr)?;
        if grad.bias.len() != self.bias.len() {
            return Err(NnError::ShapeMismatch {
                left: (1, self.bias.len()),
                right: (1, grad.bias.len()),
                op: "Dense::apply_step",
            });
        }
        for (b, &g) in self.bias.iter_mut().zip(&grad.bias) {
            *b -= lr * g;
        }
        Ok(())
    }

    /// Appends all parameters (weights row-major, then bias) to `out`.
    pub fn write_parameters(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.weights.as_slice());
        out.extend_from_slice(&self.bias);
    }

    /// Reads parameters back from a flat slice, returning how many
    /// values were consumed.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParameterCountMismatch`] if `src` is too
    /// short.
    pub fn read_parameters(&mut self, src: &[f32]) -> Result<usize> {
        let need = self.num_parameters();
        if src.len() < need {
            return Err(NnError::ParameterCountMismatch { expected: need, actual: src.len() });
        }
        let w_len = self.weights.rows() * self.weights.cols();
        self.weights.as_mut_slice().copy_from_slice(&src[..w_len]);
        self.bias.copy_from_slice(&src[w_len..need]);
        Ok(need)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> Dense {
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[1.0, 1.0]]).unwrap();
        Dense::from_parts(w, vec![0.5, -0.5]).unwrap()
    }

    #[test]
    fn forward_is_affine() {
        let l = layer();
        let x = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]).unwrap();
        let mut y = Matrix::zeros(1, 1).unwrap();
        l.forward_into(&x, &mut y).unwrap();
        assert_eq!(y.as_slice(), &[2.5, 2.5]);
        // [-3, 0, 0]·W + b = [-2.5, -0.5]: both clamp.
        let neg = Matrix::from_rows(&[&[-3.0, 0.0, 0.0]]).unwrap();
        l.forward_relu_into(&neg, &mut y).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let l = layer();
        let x = Matrix::zeros(1, 2).unwrap();
        let mut y = Matrix::zeros(1, 1).unwrap();
        assert!(l.forward_into(&x, &mut y).is_err());
        assert!(l.forward_relu_into(&x, &mut y).is_err());
    }

    #[test]
    fn backward_shapes_are_consistent() {
        let l = layer();
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 1.0, 0.0]]).unwrap();
        let dz = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let mut grad = DenseGrad::zeros(3, 2).unwrap();
        let mut dx = Matrix::zeros(1, 1).unwrap();
        l.backward_into(&x, &dz, &mut grad, &mut dx).unwrap();
        assert_eq!(grad.weights.shape(), (3, 2));
        assert_eq!(grad.bias.len(), 2);
        assert_eq!(dx.shape(), (2, 3));
        // dW = xᵀ·dz → dW[0][0] = 1·1 + 0·0 = 1.
        assert_eq!(grad.weights.at(0, 0), 1.0);
        // db = column sums of dz.
        assert_eq!(grad.bias, vec![1.0, 1.0]);
    }

    #[test]
    fn apply_step_moves_against_gradient() {
        let mut l = layer();
        let grad = DenseGrad {
            weights: Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0], &[0.0, 0.0]]).unwrap(),
            bias: vec![0.0, 1.0],
        };
        l.apply_step(&grad, 0.1).unwrap();
        assert!((l.weights().at(0, 0) - 0.9).abs() < 1e-6);
        assert!((l.bias()[1] - (-0.6)).abs() < 1e-6);
    }

    #[test]
    fn apply_step_rejects_mismatched_bias() {
        let mut l = layer();
        let grad =
            DenseGrad { weights: Matrix::zeros(3, 2).unwrap(), bias: vec![0.0; 3] };
        assert!(l.apply_step(&grad, 0.1).is_err());
    }

    #[test]
    fn parameter_roundtrip_preserves_layer() {
        let mut rng = Rng::seed_from_u64(3);
        let l = Dense::new(4, 3, Init::HeUniform, &mut rng).unwrap();
        let mut flat = Vec::new();
        l.write_parameters(&mut flat);
        assert_eq!(flat.len(), l.num_parameters());
        let mut l2 = Dense::new(4, 3, Init::Zeros, &mut rng).unwrap();
        let consumed = l2.read_parameters(&flat).unwrap();
        assert_eq!(consumed, flat.len());
        assert_eq!(&l2, &l);
        assert!(l2.read_parameters(&flat[..5]).is_err());
    }

    #[test]
    fn from_parts_validates_bias_length() {
        let w = Matrix::zeros(2, 2).unwrap();
        assert!(Dense::from_parts(w, vec![0.0; 3]).is_err());
    }
}

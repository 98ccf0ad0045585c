//! The ReLU derivative. The forward ReLU is fused into the GEMM
//! epilogue ([`crate::tensor::Matrix::matmul_bias_relu_into`]).

use crate::tensor::Matrix;

/// Masks `grad` by the ReLU derivative evaluated at pre-activation
/// `z` in place: `grad[i] = 0` wherever `z[i] <= 0` (a NaN `z` keeps
/// its gradient).
///
/// The mask is a select, not a branch: about half of a fresh
/// activation's entries are non-positive in no learnable pattern, so a
/// branch on `z` is mispredicted about half the time, while the select
/// compiles to a vector compare and blend.
///
/// # Panics
///
/// Panics if the shapes disagree (programming error in the backward
/// pass, not recoverable input).
pub fn relu_backward_inplace(grad: &mut Matrix, z: &Matrix) {
    assert_eq!(grad.shape(), z.shape(), "relu backward shape mismatch");
    for (g, &zv) in grad.as_mut_slice().iter_mut().zip(z.as_slice()) {
        *g = if zv <= 0.0 { 0.0 } else { *g };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_backward_masks_nonpositive_preactivations() {
        let z = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]).unwrap();
        let mut g = Matrix::from_rows(&[&[5.0, 5.0, 5.0]]).unwrap();
        relu_backward_inplace(&mut g, &z);
        assert_eq!(g.as_slice(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "relu backward shape mismatch")]
    fn relu_backward_panics_on_shape_mismatch() {
        let z = Matrix::zeros(1, 2).unwrap();
        let mut g = Matrix::zeros(2, 1).unwrap();
        relu_backward_inplace(&mut g, &z);
    }
}

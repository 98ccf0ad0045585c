//! Activation functions and their derivatives.

use crate::tensor::Matrix;

/// Applies ReLU element-wise, returning a new matrix.
pub fn relu(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for v in out.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    out
}

/// Applies ReLU element-wise into a caller-owned buffer (resized as
/// needed; zero allocation at steady state).
pub fn relu_into(x: &Matrix, out: &mut Matrix) {
    out.copy_from(x);
    for v in out.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

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

/// Row-wise numerically-stable softmax, returning a new matrix whose
/// rows sum to 1.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    let cols = out.cols();
    for r in 0..out.rows() {
        let row = &mut out.as_mut_slice()[r * cols..(r + 1) * cols];
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_zeroes_negatives_only() {
        let x = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]).unwrap();
        let y = relu(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks_nonpositive_preactivations() {
        let z = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]).unwrap();
        let mut g = Matrix::from_rows(&[&[5.0, 5.0, 5.0]]).unwrap();
        relu_backward_inplace(&mut g, &z);
        assert_eq!(g.as_slice(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]).unwrap();
        let s = softmax_rows(&x);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.at(r, 2) > s.at(r, 1) && s.at(r, 1) > s.at(r, 0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable_for_large_logits() {
        let x = Matrix::from_rows(&[&[1000.0, 1001.0]]).unwrap();
        let s = softmax_rows(&x);
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
        let y = Matrix::from_rows(&[&[0.0, 1.0]]).unwrap();
        let t = softmax_rows(&y);
        for (a, b) in s.as_slice().iter().zip(t.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "relu backward shape mismatch")]
    fn relu_backward_panics_on_shape_mismatch() {
        let z = Matrix::zeros(1, 2).unwrap();
        let mut g = Matrix::zeros(2, 1).unwrap();
        relu_backward_inplace(&mut g, &z);
    }
}

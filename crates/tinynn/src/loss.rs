//! Loss functions (paper Eq. 1: mean per-sample loss over a local
//! dataset).

use crate::error::{NnError, Result};
use crate::tensor::Matrix;

/// Mean softmax cross-entropy over a batch, with the gradient with
/// respect to the logits written into a caller-owned buffer (resized
/// as needed; zero allocation at steady state).
///
/// Given logits `z` (`n × k`) and integer labels `y`, returns
/// `L = -(1/n) Σ log softmax(z)_y` and leaves
/// `dL/dz = (softmax(z) - onehot(y)) / n` in `dz` — the classic fused
/// softmax-CE backward pass.
///
/// # Errors
///
/// Returns [`NnError::EmptyBatch`] for zero rows,
/// [`NnError::ShapeMismatch`] if `labels.len() != logits.rows()`, and
/// [`NnError::LabelOutOfRange`] for labels `≥ logits.cols()`.
pub fn softmax_cross_entropy_into(
    logits: &Matrix,
    labels: &[usize],
    dz: &mut Matrix,
) -> Result<f32> {
    let n = logits.rows();
    let k = logits.cols();
    if n == 0 {
        return Err(NnError::EmptyBatch);
    }
    if labels.len() != n {
        return Err(NnError::ShapeMismatch {
            left: (n, k),
            right: (labels.len(), 1),
            op: "softmax_cross_entropy",
        });
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= k) {
        return Err(NnError::LabelOutOfRange { label: bad, classes: k });
    }
    dz.copy_from(logits);
    // Row-wise softmax in place, stabilized by the row maximum.
    for r in 0..n {
        let row = &mut dz.as_mut_slice()[r * k..(r + 1) * k];
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
    let mut loss = 0.0f64;
    let inv_n = 1.0 / n as f32;
    for (r, &label) in labels.iter().enumerate() {
        let row = &mut dz.as_mut_slice()[r * k..(r + 1) * k];
        let p = row[label].max(1e-12);
        loss -= f64::from(p.ln());
        for v in row.iter_mut() {
            *v *= inv_n;
        }
        row[label] -= inv_n;
    }
    Ok((loss / n as f64) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ce(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
        let mut grad = Matrix::zeros(1, 1).unwrap();
        let loss = softmax_cross_entropy_into(logits, labels, &mut grad).unwrap();
        (loss, grad)
    }

    #[test]
    fn uniform_logits_give_log_k_loss() {
        let logits = Matrix::zeros(4, 10).unwrap();
        let (loss, _) = ce(&logits, &[0, 3, 7, 9]);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_near_zero_loss() {
        let logits = Matrix::from_rows(&[&[20.0, 0.0, 0.0]]).unwrap();
        let (loss, _) = ce(&logits, &[0]);
        assert!(loss < 1e-6);
    }

    #[test]
    fn large_logits_stay_finite_and_shift_invariant() {
        let (big, gb) = ce(&Matrix::from_rows(&[&[1000.0, 1001.0]]).unwrap(), &[0]);
        let (small, gs) = ce(&Matrix::from_rows(&[&[0.0, 1.0]]).unwrap(), &[0]);
        assert!((big - small).abs() < 1e-6);
        for (a, b) in gb.as_slice().iter().zip(gs.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 0.0, 3.0]]).unwrap();
        let (_, grad) = ce(&logits, &[2, 0]);
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Matrix::from_rows(&[&[0.3, -0.7, 1.1], &[-0.2, 0.4, 0.0]]).unwrap();
        let labels = [2usize, 1];
        let (_, grad) = ce(&logits, &labels);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = logits.clone();
                plus.set(r, c, plus.at(r, c) + eps);
                let mut minus = logits.clone();
                minus.set(r, c, minus.at(r, c) - eps);
                let numeric = (ce(&plus, &labels).0 - ce(&minus, &labels).0) / (2.0 * eps);
                assert!(
                    (numeric - grad.at(r, c)).abs() < 1e-3,
                    "({r},{c}): numeric {numeric} vs analytic {}",
                    grad.at(r, c)
                );
            }
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let logits = Matrix::zeros(2, 3).unwrap();
        let mut grad = Matrix::zeros(1, 1).unwrap();
        assert!(matches!(
            softmax_cross_entropy_into(&logits, &[0], &mut grad),
            Err(NnError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            softmax_cross_entropy_into(&logits, &[0, 3], &mut grad),
            Err(NnError::LabelOutOfRange { label: 3, classes: 3 })
        ));
    }
}

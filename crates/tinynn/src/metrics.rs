//! Classification metrics.

use crate::error::{NnError, Result};

/// Fraction of positions where `predictions == labels`, in `[0, 1]`.
///
/// # Errors
///
/// Returns [`NnError::EmptyBatch`] if either slice is empty or the
/// lengths disagree.
///
/// # Examples
///
/// ```
/// let acc = tinynn::metrics::accuracy(&[0, 1, 2, 2], &[0, 1, 1, 2])?;
/// assert_eq!(acc, 0.75);
/// # Ok::<(), tinynn::NnError>(())
/// ```
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> Result<f64> {
    if predictions.is_empty() || predictions.len() != labels.len() {
        return Err(NnError::EmptyBatch);
    }
    let correct = predictions.iter().zip(labels).filter(|(p, l)| p == l).count();
    Ok(correct as f64 / labels.len() as f64)
}

/// A `k × k` confusion matrix; `counts[t][p]` counts samples of true
/// class `t` predicted as `p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Builds the matrix for `num_classes` classes.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyBatch`] for empty/mismatched inputs and
    /// [`NnError::LabelOutOfRange`] for entries `≥ num_classes`.
    pub fn new(predictions: &[usize], labels: &[usize], num_classes: usize) -> Result<Self> {
        if predictions.is_empty() || predictions.len() != labels.len() {
            return Err(NnError::EmptyBatch);
        }
        let mut counts = vec![vec![0usize; num_classes]; num_classes];
        for (&p, &t) in predictions.iter().zip(labels) {
            if p >= num_classes {
                return Err(NnError::LabelOutOfRange { label: p, classes: num_classes });
            }
            if t >= num_classes {
                return Err(NnError::LabelOutOfRange { label: t, classes: num_classes });
            }
            counts[t][p] += 1;
        }
        Ok(Self { counts })
    }

    /// Count of true class `t` predicted as `p`.
    pub fn count(&self, true_class: usize, predicted: usize) -> usize {
        self.counts[true_class][predicted]
    }

    /// Per-class recall (`None` when a class has no samples).
    pub fn recall(&self, class: usize) -> Option<f64> {
        let row = &self.counts[class];
        let total: usize = row.iter().sum();
        (total > 0).then(|| row[class] as f64 / total as f64)
    }

    /// Overall accuracy (trace over total).
    pub fn accuracy(&self) -> f64 {
        let trace: usize = (0..self.counts.len()).map(|i| self.counts[i][i]).sum();
        let total: usize = self.counts.iter().flatten().sum();
        trace as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1, 1], &[1, 0]).unwrap(), 0.5);
        assert_eq!(accuracy(&[2], &[2]).unwrap(), 1.0);
    }

    #[test]
    fn accuracy_validates_inputs() {
        assert!(accuracy(&[], &[]).is_err());
        assert!(accuracy(&[1], &[1, 2]).is_err());
    }

    #[test]
    fn confusion_matrix_tabulates_and_summarizes() {
        let preds = [0, 1, 1, 2, 0];
        let labels = [0, 1, 2, 2, 1];
        let cm = ConfusionMatrix::new(&preds, &labels, 3).unwrap();
        assert_eq!(cm.count(0, 0), 1);
        assert_eq!(cm.count(2, 1), 1);
        assert_eq!(cm.count(2, 2), 1);
        assert_eq!(cm.recall(2), Some(0.5));
        assert_eq!(cm.accuracy(), 3.0 / 5.0);
        assert_eq!(
            cm.accuracy(),
            accuracy(&preds, &labels).unwrap()
        );
    }

    #[test]
    fn confusion_matrix_flags_out_of_range_labels() {
        assert!(matches!(
            ConfusionMatrix::new(&[3], &[0], 3),
            Err(NnError::LabelOutOfRange { label: 3, .. })
        ));
        assert!(matches!(
            ConfusionMatrix::new(&[0], &[9], 3),
            Err(NnError::LabelOutOfRange { label: 9, .. })
        ));
    }

    #[test]
    fn recall_is_none_for_absent_class() {
        let cm = ConfusionMatrix::new(&[0], &[0], 2).unwrap();
        assert_eq!(cm.recall(1), None);
    }
}

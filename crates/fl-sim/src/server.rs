//! The FL central controller (FLCC): global model custody and
//! dataset-size-weighted federated averaging (paper Eq. 18).


use tinynn::model::Mlp;

use crate::error::{FlError, Result};

/// The FL central controller: a base station + edge server holding the
/// global model `M_G`.
#[derive(Debug, Clone, PartialEq)]
pub struct Flcc {
    global: Mlp,
}

impl Flcc {
    /// Creates the controller with a freshly-initialized global model.
    ///
    /// # Errors
    ///
    /// Propagates model construction errors for invalid `dims`.
    pub fn new(dims: &[usize], seed: u64) -> Result<Self> {
        Ok(Self { global: Mlp::new(dims, seed).map_err(FlError::from)? })
    }

    /// The current global model.
    #[inline]
    pub fn global_model(&self) -> &Mlp {
        &self.global
    }

    /// Broadcast: the flat global parameter vector sent to selected
    /// users (Alg. 1, line 5).
    pub fn broadcast(&self) -> Vec<f32> {
        self.global.parameters()
    }

    /// Overwrites the global model with checkpointed parameters.
    ///
    /// Used by the resume path: the parameters are installed verbatim,
    /// so a restored controller broadcasts bit-for-bit what the
    /// interrupted run would have.
    ///
    /// # Errors
    ///
    /// Propagates the shape error when `params` does not match the
    /// model's parameter count.
    pub fn restore_parameters(&mut self, params: &[f32]) -> Result<()> {
        self.global.set_parameters(params).map_err(FlError::from)
    }

    /// FedAvg integration (Eq. 18): replaces the global parameters by
    /// the dataset-size-weighted mean of the uploaded updates.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidSelection`] for an empty update set or
    /// non-positive total weight, and propagates shape errors if an
    /// update has the wrong length.
    pub fn aggregate(&mut self, updates: &[(Vec<f32>, f64)]) -> Result<()> {
        if updates.is_empty() {
            return Err(FlError::InvalidSelection {
                reason: "aggregate called with no updates".into(),
            });
        }
        let expected = self.global.num_parameters();
        let total_weight: f64 = updates.iter().map(|(_, w)| *w).sum();
        if !(total_weight > 0.0 && total_weight.is_finite()) {
            return Err(FlError::InvalidSelection {
                reason: format!("total aggregation weight {total_weight} must be positive"),
            });
        }
        let mut acc = vec![0.0f64; expected];
        for (params, weight) in updates {
            if params.len() != expected {
                return Err(FlError::Nn(tinynn::NnError::ParameterCountMismatch {
                    expected,
                    actual: params.len(),
                }));
            }
            let w = *weight / total_weight;
            for (a, &p) in acc.iter_mut().zip(params) {
                *a += f64::from(p) * w;
            }
        }
        let merged: Vec<f32> = acc.into_iter().map(|v| v as f32).collect();
        self.global.set_parameters(&merged).map_err(FlError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flcc() -> Flcc {
        Flcc::new(&[4, 6, 3], 7).unwrap()
    }

    #[test]
    fn broadcast_returns_full_parameter_vector() {
        let s = flcc();
        assert_eq!(s.broadcast().len(), s.global_model().num_parameters());
    }

    #[test]
    fn aggregate_weighted_mean_matches_eq18() {
        let mut s = flcc();
        let n = s.global_model().num_parameters();
        // Two synthetic updates: all-ones (weight 300) and all-zeros
        // (weight 100) → global becomes 0.75 everywhere.
        let updates = vec![(vec![1.0f32; n], 300.0), (vec![0.0f32; n], 100.0)];
        s.aggregate(&updates).unwrap();
        for v in s.broadcast() {
            assert!((v - 0.75).abs() < 1e-6);
        }
    }

    #[test]
    fn aggregate_single_update_replaces_global() {
        let mut s = flcc();
        let n = s.global_model().num_parameters();
        s.aggregate(&[(vec![0.5f32; n], 42.0)]).unwrap();
        assert!(s.broadcast().iter().all(|&v| (v - 0.5).abs() < 1e-7));
    }

    #[test]
    fn aggregate_validates_inputs() {
        let mut s = flcc();
        let n = s.global_model().num_parameters();
        assert!(s.aggregate(&[]).is_err());
        assert!(s.aggregate(&[(vec![0.0; n], 0.0)]).is_err());
        assert!(s.aggregate(&[(vec![0.0; n - 1], 1.0)]).is_err());
        assert!(s.aggregate(&[(vec![0.0; n], f64::NAN)]).is_err());
    }

    #[test]
    fn aggregation_is_idempotent_on_identical_updates() {
        let mut s = flcc();
        let before = s.broadcast();
        let updates: Vec<(Vec<f32>, f64)> =
            (0..5).map(|i| (before.clone(), 100.0 + i as f64)).collect();
        s.aggregate(&updates).unwrap();
        for (a, b) in s.broadcast().iter().zip(&before) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn restore_parameters_round_trips_bit_exactly() {
        let donor = flcc();
        let mut fresh = Flcc::new(&[4, 6, 3], 999).unwrap();
        assert_ne!(donor.broadcast(), fresh.broadcast());
        fresh.restore_parameters(&donor.broadcast()).unwrap();
        let (a, b) = (donor.broadcast(), fresh.broadcast());
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        // Wrong length is a shape error, not a silent truncation.
        assert!(fresh.restore_parameters(&[0.0; 3]).is_err());
    }
}

//! The HELCFL utility function (paper Eq. 20).
//!
//! `u_q(α_q, T_q^cal, T_q^com) = η^{α_q} · 1 / (T_q^cal + T_q^com)`
//!
//! The decay coefficient `η ∈ (0, 1)` discounts a user every time it
//! appears in a round (appearance counter `α_q`), so fast users are
//! preferred early but cannot monopolize selection — the mechanism
//! §V-A derives from the FedAvg equivalence (Eq. 19): accuracy needs
//! the *data* of slow users, not just fast updates.


use mec_sim::units::Seconds;

use fl_sim::error::{FlError, Result};

/// The decay coefficient `η` with its `(0, 1)` validity window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayCoefficient(f64);

impl DecayCoefficient {
    /// Creates a coefficient, validating `0 < η < 1`.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] outside the open interval.
    pub fn new(eta: f64) -> Result<Self> {
        if !(eta > 0.0 && eta < 1.0) {
            return Err(FlError::InvalidConfig {
                field: "eta",
                reason: format!("decay coefficient must satisfy 0 < η < 1, got {eta}"),
            });
        }
        Ok(Self(eta))
    }

    /// The raw coefficient value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Default for DecayCoefficient {
    /// The reproduction's default `η = 0.5` (the paper does not state
    /// its value; `reproduce`'s A1 ablation sweeps it).
    fn default() -> Self {
        Self(0.5)
    }
}

/// Evaluates Eq. 20 for one user.
///
/// `total_delay` is `T_q^cal + T_q^com` at the user's maximum
/// frequency (Alg. 2 lines 2–4); `appearances` is `α_q`.
///
/// # Examples
///
/// ```
/// use helcfl::utility::{utility, DecayCoefficient};
/// use mec_sim::units::Seconds;
///
/// let eta = DecayCoefficient::new(0.5)?;
/// let fresh = utility(eta, 0, Seconds::new(10.0));
/// let tired = utility(eta, 2, Seconds::new(10.0));
/// assert!((fresh - 0.1).abs() < 1e-12);
/// assert!((tired - 0.025).abs() < 1e-12);
/// # Ok::<(), fl_sim::FlError>(())
/// ```
pub fn utility(eta: DecayCoefficient, appearances: u32, total_delay: Seconds) -> f64 {
    debug_assert!(total_delay.get() > 0.0, "delays must be positive");
    eta.get().powi(appearances as i32) / total_delay.get()
}

/// Per-user appearance counters `α_q` (Alg. 2 line 5 initializes them
/// to zero; line 18 increments on selection), one `u32` per user id.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AppearanceCounters {
    counts: Vec<u32>,
}

impl AppearanceCounters {
    /// Creates zeroed counters for `num_users` users.
    pub fn new(num_users: usize) -> Self {
        Self { counts: vec![0; num_users] }
    }

    /// Number of tracked users.
    #[inline]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no users are tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// `α_q` of user `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[inline]
    pub fn get(&self, q: usize) -> u32 {
        self.counts[q]
    }

    /// Increments `α_q` (the "utility decay" of Alg. 2 line 18).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[inline]
    pub fn increment(&mut self, q: usize) {
        self.counts[q] += 1;
    }

    /// Rolls back one appearance of `α_q` — the refund the degradation
    /// policy issues when a selected user failed to deliver its update
    /// (`charge_failed_selections == false`). Saturates at zero, so a
    /// refund for a user that was never charged is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[inline]
    pub fn decrement(&mut self, q: usize) {
        self.counts[q] = self.counts[q].saturating_sub(1);
    }

    /// Extends the tracked range with zeros so ids `< len` are valid
    /// (no-op when already large enough). Lets selectors stay keyed by
    /// [`DeviceId`](mec_sim::device::DeviceId) as availability shifts.
    pub fn grow_to(&mut self, len: usize) {
        if self.counts.len() < len {
            self.counts.resize(len, 0);
        }
    }

    /// Sets `α_q` to an exact value — the checkpoint-restore path.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[inline]
    pub fn set(&mut self, q: usize, count: u32) {
        self.counts[q] = count;
    }

    /// The nonzero counters as ascending `(user, count)` pairs — the
    /// sparse form a checkpoint serializes (zero counters dominate in
    /// large fleets and carry no information).
    pub fn to_sparse(&self) -> Vec<(usize, u32)> {
        self.counts.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(q, &c)| (q, c)).collect()
    }

    /// Rebuilds counters of logical length `len` from a sparse
    /// `(user, count)` list, the inverse of
    /// [`AppearanceCounters::to_sparse`].
    ///
    /// # Panics
    ///
    /// Panics if any user id is `>= len`.
    pub fn from_sparse(len: usize, counts: &[(usize, u32)]) -> Self {
        let mut c = Self::new(len);
        for &(q, count) in counts {
            c.set(q, count);
        }
        c
    }

    /// Total appearances across users (= rounds × selection size).
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// Number of users that have appeared at least once — the coverage
    /// statistic the η-ablation reports.
    pub fn coverage(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Resident bytes of the counter table.
    pub fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>() + self.counts.capacity() * core::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_coefficient_validates_open_interval() {
        assert!(DecayCoefficient::new(0.0).is_err());
        assert!(DecayCoefficient::new(1.0).is_err());
        assert!(DecayCoefficient::new(-0.5).is_err());
        assert!(DecayCoefficient::new(f64::NAN).is_err());
        assert!(DecayCoefficient::new(0.5).is_ok());
        assert_eq!(DecayCoefficient::default().get(), 0.5);
    }

    #[test]
    fn utility_prefers_fast_users_at_equal_appearances() {
        let eta = DecayCoefficient::default();
        let fast = utility(eta, 0, Seconds::new(5.0));
        let slow = utility(eta, 0, Seconds::new(20.0));
        assert!(fast > slow);
        assert!((fast / slow - 4.0).abs() < 1e-12);
    }

    #[test]
    fn utility_decays_geometrically_with_appearances() {
        let eta = DecayCoefficient::new(0.7).unwrap();
        let t = Seconds::new(10.0);
        for a in 0..5 {
            let ratio = utility(eta, a + 1, t) / utility(eta, a, t);
            assert!((ratio - 0.7).abs() < 1e-12);
        }
    }

    #[test]
    fn decayed_fast_user_loses_to_fresh_slow_user() {
        // T_fast = 5 s, T_slow = 20 s, η = 0.5: after 2 appearances
        // the fast user's utility (0.25/5 = 0.05) matches the slow
        // user's (1/20 = 0.05); after 3 it is strictly below.
        let eta = DecayCoefficient::new(0.5).unwrap();
        assert!(utility(eta, 3, Seconds::new(5.0)) < utility(eta, 0, Seconds::new(20.0)));
    }

    #[test]
    fn grow_to_extends_with_zeros_and_never_shrinks() {
        let mut c = AppearanceCounters::new(2);
        c.increment(1);
        c.grow_to(5);
        assert_eq!(c.len(), 5);
        assert_eq!(c.get(1), 1);
        assert_eq!(c.get(4), 0);
        c.grow_to(3);
        assert_eq!(c.len(), 5, "grow_to must never shrink");
    }

    #[test]
    fn counters_track_increments_and_coverage() {
        let mut c = AppearanceCounters::new(4);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert_eq!(c.coverage(), 0);
        c.increment(1);
        c.increment(1);
        c.increment(3);
        assert_eq!(c.get(1), 2);
        assert_eq!(c.get(0), 0);
        assert_eq!(c.total(), 3);
        assert_eq!(c.coverage(), 2);
    }

    #[test]
    fn sparse_round_trip_preserves_logical_state() {
        let mut c = AppearanceCounters::new(3000);
        c.increment(0);
        c.increment(0);
        c.increment(1500);
        c.increment(2999);
        let sparse = c.to_sparse();
        assert_eq!(sparse, vec![(0, 2), (1500, 1), (2999, 1)]);
        let back = AppearanceCounters::from_sparse(c.len(), &sparse);
        assert_eq!(back, c);
        assert_eq!(back.coverage(), 3);
        // Empty counters round-trip to empty.
        let empty = AppearanceCounters::new(10);
        assert!(empty.to_sparse().is_empty());
        assert_eq!(AppearanceCounters::from_sparse(10, &[]), empty);
    }

    #[test]
    fn set_overwrites_without_accumulating() {
        let mut c = AppearanceCounters::new(8);
        c.set(3, 7);
        assert_eq!(c.get(3), 7);
        c.set(3, 2);
        assert_eq!(c.get(3), 2);
        c.set(3, 0);
        assert_eq!(c.get(3), 0);
        assert_eq!(c.coverage(), 0);
    }

    #[test]
    fn out_of_range_access_panics() {
        let c = AppearanceCounters::new(10);
        let err = std::panic::catch_unwind(|| c.get(10));
        assert!(err.is_err());
    }

    #[test]
    fn decrement_refunds_one_appearance_and_saturates_at_zero() {
        let mut c = AppearanceCounters::new(2);
        c.increment(0);
        c.increment(0);
        c.decrement(0);
        assert_eq!(c.get(0), 1);
        // Refunding a never-charged user is a no-op, not an underflow.
        c.decrement(1);
        c.decrement(1);
        assert_eq!(c.get(1), 0);
        assert_eq!(c.total(), 1);
    }
}

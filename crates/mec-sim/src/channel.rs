//! Wireless uplink channel model.
//!
//! Implements the paper's TDMA uplink rate (Eq. 6):
//!
//! `R_q = Z · log2(1 + p_q·h_q² / N0)`
//!
//! where `Z` is the MEC system's total resource-block bandwidth, `p_q`
//! the user's transmit power, `h_q` its channel (amplitude) gain and
//! `N0` the background noise power.
//!
//! The paper does not specify how channel gains are drawn; we provide a
//! standard log-distance path-loss model with optional log-normal
//! shadowing ([`PathLossModel`]) whose defaults land upload rates in
//! the few-Mbit/s regime the paper's delay numbers imply.

use detrand::Rng;

use crate::error::{MecError, Result};
use crate::units::{BitsPerSecond, Hertz, Watts};

/// Shared radio environment of the MEC cell: bandwidth and noise floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioEnvironment {
    bandwidth: Hertz,
    noise: Watts,
}

impl RadioEnvironment {
    /// Creates an environment from the total RB bandwidth `Z` and the
    /// background noise power `N0`.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::NonPositiveParameter`] if either value is
    /// not strictly positive and finite.
    pub fn new(bandwidth: Hertz, noise: Watts) -> Result<Self> {
        if !(bandwidth.get() > 0.0 && bandwidth.is_finite()) {
            return Err(MecError::NonPositiveParameter {
                name: "bandwidth",
                value: bandwidth.get(),
            });
        }
        if !(noise.get() > 0.0 && noise.is_finite()) {
            return Err(MecError::NonPositiveParameter { name: "noise", value: noise.get() });
        }
        Ok(Self { bandwidth, noise })
    }

    /// The paper's setting: `Z` = 2 MHz of resource blocks with a noise
    /// floor of 10^-10 W (normalized; §VII-A does not state `N0`).
    pub fn paper_default() -> Self {
        Self::new(Hertz::from_mhz(2.0), Watts::new(1.0e-10))
            .expect("paper defaults are valid")
    }

    /// Total resource-block bandwidth `Z`.
    #[inline]
    pub fn bandwidth(&self) -> Hertz {
        self.bandwidth
    }

    /// Background noise power `N0`.
    #[inline]
    pub fn noise(&self) -> Watts {
        self.noise
    }

    /// Achievable uplink rate for a user with transmit power `power`
    /// and amplitude gain `gain` (Eq. 6).
    ///
    /// ```
    /// use mec_sim::channel::RadioEnvironment;
    /// use mec_sim::units::Watts;
    ///
    /// let env = RadioEnvironment::paper_default();
    /// let rate = env.uplink_rate(Watts::new(0.2), 1.0e-4);
    /// assert!(rate.mbps() > 1.0 && rate.mbps() < 30.0);
    /// ```
    pub fn uplink_rate(&self, power: Watts, gain: f64) -> BitsPerSecond {
        let snr = power.get() * gain * gain / self.noise.get();
        BitsPerSecond::new(self.bandwidth.get() * (1.0 + snr).log2())
    }
}

/// Log-distance path-loss model producing per-user amplitude gains.
///
/// `h² = g0 · (d0 / d)^γ · 10^(X/10)` with `X ~ N(0, σ_shadow²)` dB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossModel {
    /// Power gain `g0` at the reference distance.
    pub reference_gain: f64,
    /// Reference distance `d0` in metres.
    pub reference_distance_m: f64,
    /// Path-loss exponent γ.
    pub exponent: f64,
    /// Log-normal shadowing standard deviation in dB (0 disables it).
    pub shadowing_db: f64,
}

impl Default for PathLossModel {
    /// Urban-micro-style defaults: γ = 3, power gain 4×10^-8 at the
    /// 100 m reference distance, 4 dB shadowing. Combined with
    /// [`RadioEnvironment::paper_default`] and 0.2 W transmit power,
    /// users at 100–300 m see roughly 2–13 Mbit/s — the regime the
    /// paper's multi-minute training delays imply.
    fn default() -> Self {
        Self {
            reference_gain: 4.0e-8,
            reference_distance_m: 100.0,
            exponent: 3.0,
            shadowing_db: 4.0,
        }
    }
}

impl PathLossModel {
    /// Deterministic power gain `h²` at distance `d` metres, without
    /// shadowing.
    ///
    /// # Panics
    ///
    /// Panics if `distance_m` is not strictly positive.
    pub fn mean_power_gain(&self, distance_m: f64) -> f64 {
        assert!(distance_m > 0.0, "distance must be positive");
        self.reference_gain * (self.reference_distance_m / distance_m).powf(self.exponent)
    }

    /// Samples a power gain `h²` at distance `d`, applying log-normal
    /// shadowing drawn from `rng`.
    pub fn sample_power_gain(&self, distance_m: f64, rng: &mut Rng) -> f64 {
        let mean = self.mean_power_gain(distance_m);
        if self.shadowing_db == 0.0 {
            return mean;
        }
        let shadow_db = self.shadowing_db * rng.standard_normal();
        mean * 10.0_f64.powf(shadow_db / 10.0)
    }

    /// Samples the amplitude gain `h` (square root of the power gain).
    pub fn sample_amplitude_gain(&self, distance_m: f64, rng: &mut Rng) -> f64 {
        self.sample_power_gain(distance_m, rng).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_rejects_nonpositive_parameters() {
        assert!(RadioEnvironment::new(Hertz::ZERO, Watts::new(1.0)).is_err());
        assert!(RadioEnvironment::new(Hertz::from_mhz(2.0), Watts::ZERO).is_err());
        assert!(RadioEnvironment::new(Hertz::new(f64::INFINITY), Watts::new(1.0)).is_err());
    }

    #[test]
    fn uplink_rate_matches_shannon_formula() {
        let env = RadioEnvironment::new(Hertz::from_mhz(2.0), Watts::new(1.0e-10)).unwrap();
        // SNR = 0.2 * (1e-4)^2 / 1e-10 = 20 → R = 2 MHz · log2(21).
        let rate = env.uplink_rate(Watts::new(0.2), 1.0e-4);
        let expected = 2.0e6 * (1.0 + 20.0_f64).log2();
        assert!((rate.get() - expected).abs() < 1.0);
    }

    #[test]
    fn uplink_rate_is_monotone_in_gain_and_power() {
        let env = RadioEnvironment::paper_default();
        let r1 = env.uplink_rate(Watts::new(0.2), 1.0e-5);
        let r2 = env.uplink_rate(Watts::new(0.2), 1.0e-4);
        let r3 = env.uplink_rate(Watts::new(0.4), 1.0e-4);
        assert!(r1 < r2);
        assert!(r2 < r3);
    }

    #[test]
    fn zero_gain_yields_zero_rate() {
        let env = RadioEnvironment::paper_default();
        assert_eq!(env.uplink_rate(Watts::new(0.2), 0.0), BitsPerSecond::ZERO);
    }

    #[test]
    fn mean_power_gain_follows_inverse_power_law() {
        let model = PathLossModel { shadowing_db: 0.0, ..PathLossModel::default() };
        let near = model.mean_power_gain(100.0);
        let far = model.mean_power_gain(200.0);
        // γ = 3 → doubling distance divides the gain by 8.
        assert!((near / far - 8.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_without_shadowing_is_deterministic() {
        let model = PathLossModel { shadowing_db: 0.0, ..PathLossModel::default() };
        let mut rng = Rng::seed_from_u64(7);
        let g = model.sample_power_gain(150.0, &mut rng);
        assert_eq!(g, model.mean_power_gain(150.0));
    }

    #[test]
    fn shadowing_perturbs_but_preserves_scale() {
        let model = PathLossModel::default();
        let mut rng = Rng::seed_from_u64(42);
        let mean = model.mean_power_gain(100.0);
        for _ in 0..100 {
            let g = model.sample_power_gain(100.0, &mut rng);
            // 4 dB σ: samples stay within ±20 dB of the mean w.h.p.
            assert!(g > mean * 1e-2 && g < mean * 1e2);
        }
    }

    #[test]
    fn amplitude_gain_is_sqrt_of_power_gain() {
        let model = PathLossModel { shadowing_db: 0.0, ..PathLossModel::default() };
        let mut rng = Rng::seed_from_u64(1);
        let h = model.sample_amplitude_gain(100.0, &mut rng);
        assert!((h * h - model.mean_power_gain(100.0)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "distance must be positive")]
    fn mean_power_gain_rejects_zero_distance() {
        let _ = PathLossModel::default().mean_power_gain(0.0);
    }
}

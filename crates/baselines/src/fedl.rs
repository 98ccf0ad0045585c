//! FEDL (Tran et al. \[12\]): closed-form energy/delay balancing.
//!
//! FEDL keeps Classic FL's random selection (the paper notes their
//! accuracy curves coincide) but chooses each device's operating
//! frequency by minimizing the weighted per-round cost
//! `κ·E^cal + T^cal = κ·(α/2)·W·f² + W/f`, whose stationary point is
//! the closed form `f* = (κ·α)^{-1/3}`, clamped into the device's
//! DVFS range. Large κ (energy-sensitive) lowers `f*`; small κ
//! (delay-sensitive) raises it.


use fl_sim::error::{FlError, Result};
use fl_sim::frequency::FrequencyPolicy;
use mec_sim::device::Device;
use mec_sim::units::{Bits, Hertz};

/// The FEDL frequency policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedlFrequencyPolicy {
    kappa: f64,
}

impl FedlFrequencyPolicy {
    /// Creates the policy with energy-weight `κ > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for non-positive κ.
    pub fn new(kappa: f64) -> Result<Self> {
        if !(kappa > 0.0 && kappa.is_finite()) {
            return Err(FlError::InvalidConfig {
                field: "kappa",
                reason: format!("must be positive and finite, got {kappa}"),
            });
        }
        Ok(Self { kappa })
    }

    /// The energy-weight κ.
    #[inline]
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// The unclamped closed-form optimum `f* = (κ·α)^{-1/3}` for a
    /// device with switched capacitance α.
    pub fn optimal_frequency(&self, alpha: f64) -> Hertz {
        Hertz::new((self.kappa * alpha).powf(-1.0 / 3.0))
    }
}

impl Default for FedlFrequencyPolicy {
    /// κ = 1: with the paper's α = 2×10^-28 this lands
    /// `f* ≈ 1.71 GHz` — fast devices shave energy, slower devices
    /// stay clamped at their `f_max`.
    fn default() -> Self {
        Self { kappa: 1.0 }
    }
}

impl FrequencyPolicy for FedlFrequencyPolicy {
    fn name(&self) -> &'static str {
        "fedl-closed-form"
    }

    // Deliberately inherits `delay_neutral() == false`: `f*` can land
    // below a fast device's `f_max`, slowing the critical device and
    // extending the round — that is FEDL's energy/delay tradeoff, not
    // a bug, so the trace auditor must not hold it to HELCFL's bound.

    fn frequencies(&self, selected: &[Device], _payload: Bits) -> Result<Vec<Hertz>> {
        Ok(selected
            .iter()
            .map(|d| d.cpu().range().clamp(self.optimal_frequency(d.cpu().alpha())))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_sim::cpu::PAPER_ALPHA;
    use mec_sim::population::PopulationBuilder;

    #[test]
    fn kappa_must_be_positive() {
        assert!(FedlFrequencyPolicy::new(0.0).is_err());
        assert!(FedlFrequencyPolicy::new(-2.0).is_err());
        assert!(FedlFrequencyPolicy::new(f64::NAN).is_err());
        assert_eq!(FedlFrequencyPolicy::default().kappa(), 1.0);
    }

    #[test]
    fn closed_form_matches_stationary_point() {
        let policy = FedlFrequencyPolicy::new(1.0).unwrap();
        let f = policy.optimal_frequency(PAPER_ALPHA);
        // f* = (2e-28)^(-1/3) ≈ 1.71 GHz.
        assert!((f.ghz() - 1.71).abs() < 0.01, "got {}", f.ghz());
        // Verify it is a minimum of κ(α/2)Wf² + W/f by sampling.
        let cost = |freq: f64| 1.0 * 0.5 * PAPER_ALPHA * freq * freq + 1.0 / freq;
        let at_opt = cost(f.get());
        assert!(cost(f.get() * 0.8) > at_opt);
        assert!(cost(f.get() * 1.2) > at_opt);
    }

    #[test]
    fn larger_kappa_slows_devices() {
        let eco = FedlFrequencyPolicy::new(10.0).unwrap();
        let racy = FedlFrequencyPolicy::new(0.1).unwrap();
        assert!(eco.optimal_frequency(PAPER_ALPHA) < racy.optimal_frequency(PAPER_ALPHA));
    }

    #[test]
    fn assignments_are_clamped_into_device_ranges() {
        let pop = PopulationBuilder::paper_default().num_devices(20).seed(1).build().unwrap();
        let policy = FedlFrequencyPolicy::default();
        let freqs = policy
            .frequencies(pop.devices(), Bits::from_megabits(40.0))
            .unwrap();
        for (d, f) in pop.devices().iter().zip(&freqs) {
            assert!(d.cpu().range().contains(*f));
            // Devices with f_max below f* run at f_max.
            let unclamped = policy.optimal_frequency(d.cpu().alpha());
            if d.cpu().range().max() < unclamped {
                assert_eq!(*f, d.cpu().range().max());
            }
        }
    }

    #[test]
    fn fedl_saves_energy_versus_max_frequency_on_fast_devices() {
        use fl_sim::frequency::MaxFrequency;
        let pop = PopulationBuilder::paper_default().num_devices(50).seed(2).build().unwrap();
        let payload = Bits::from_megabits(40.0);
        let fedl = FedlFrequencyPolicy::default().frequencies(pop.devices(), payload).unwrap();
        let maxf = MaxFrequency.frequencies(pop.devices(), payload).unwrap();
        let energy = |freqs: &[Hertz]| -> f64 {
            pop.devices()
                .iter()
                .zip(freqs)
                .map(|(d, &f)| d.compute_energy(f).unwrap().get())
                .sum()
        };
        assert!(energy(&fedl) <= energy(&maxf));
    }
}

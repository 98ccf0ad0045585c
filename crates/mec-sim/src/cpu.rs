//! Dynamic voltage/frequency scaling (DVFS) CPU model.
//!
//! Implements the paper's local-calculation models:
//!
//! - delay `T^cal = π·|D| / f` (Eq. 4)
//! - energy `E^cal = (α/2)·π·|D|·f²` (Eq. 5)
//!
//! where `π` is cycles-per-sample, `|D|` the local dataset size, `f`
//! the chosen operating frequency, and `α/2` the effective switched
//! capacitance of the chip.


use crate::error::{MecError, Result};
use crate::units::{Cycles, Hertz, Joules, Seconds};

/// The effective switched-capacitance value used throughout the paper
/// (§VII-A cites α = 2×10^28, a typo for Tran et al.'s 2×10^-28; see
/// DESIGN.md §4).
pub const PAPER_ALPHA: f64 = 2.0e-28;

/// Inclusive DVFS operating range `[f_min, f_max]` of a device CPU.
///
/// # Examples
///
/// ```
/// use mec_sim::cpu::FrequencyRange;
/// use mec_sim::units::Hertz;
///
/// let range = FrequencyRange::new(Hertz::from_ghz(0.3), Hertz::from_ghz(2.0))?;
/// assert!(range.contains(Hertz::from_ghz(1.0)));
/// assert_eq!(range.clamp(Hertz::from_ghz(3.0)), Hertz::from_ghz(2.0));
/// # Ok::<(), mec_sim::MecError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyRange {
    min: Hertz,
    max: Hertz,
}

impl FrequencyRange {
    /// Creates a range from its bounds.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::InvalidFrequencyRange`] if `min > max` or
    /// either bound is non-positive or non-finite.
    pub fn new(min: Hertz, max: Hertz) -> Result<Self> {
        if !(min.get() > 0.0 && max.is_finite() && min.is_finite() && min <= max) {
            return Err(MecError::InvalidFrequencyRange { min, max });
        }
        Ok(Self { min, max })
    }

    /// A range whose bounds already passed [`FrequencyRange::new`]'s
    /// check where they were stored (a [`Fleet`](crate::fleet::Fleet)
    /// record writer).
    #[inline]
    pub(crate) fn prechecked(min: Hertz, max: Hertz) -> Self {
        Self { min, max }
    }

    /// The lower bound `f_min`.
    #[inline]
    pub fn min(&self) -> Hertz {
        self.min
    }

    /// The upper bound `f_max`.
    #[inline]
    pub fn max(&self) -> Hertz {
        self.max
    }

    /// Whether `f` lies within the inclusive range.
    #[inline]
    pub fn contains(&self, f: Hertz) -> bool {
        self.min <= f && f <= self.max
    }

    /// Clamps `f` into the range (the correction Alg. 3 needs when the
    /// slack-derived frequency is unattainable).
    #[inline]
    pub fn clamp(&self, f: Hertz) -> Hertz {
        f.clamp(self.min, self.max)
    }

    /// Width of the range, `f_max - f_min`.
    #[inline]
    pub fn span(&self) -> Hertz {
        self.max - self.min
    }
}

/// A DVFS-capable CPU with an operating range and switched capacitance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsCpu {
    range: FrequencyRange,
    /// Effective switched-capacitance coefficient α (Eq. 5 uses α/2).
    alpha: f64,
}

impl DvfsCpu {
    /// Creates a CPU from its frequency range and capacitance α.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::NonPositiveParameter`] if `alpha <= 0`.
    pub fn new(range: FrequencyRange, alpha: f64) -> Result<Self> {
        if !(alpha > 0.0 && alpha.is_finite()) {
            return Err(MecError::NonPositiveParameter { name: "alpha", value: alpha });
        }
        Ok(Self { range, alpha })
    }

    /// A CPU whose α already passed [`DvfsCpu::new`]'s check where it
    /// was stored.
    #[inline]
    pub(crate) fn prechecked(range: FrequencyRange, alpha: f64) -> Self {
        Self { range, alpha }
    }

    /// Creates a CPU with the paper's α = 2×10^-28.
    ///
    /// # Errors
    ///
    /// Propagates range validation errors from [`FrequencyRange::new`].
    pub fn with_paper_alpha(min: Hertz, max: Hertz) -> Result<Self> {
        Self::new(FrequencyRange::new(min, max)?, PAPER_ALPHA)
    }

    /// The supported operating range.
    #[inline]
    pub fn range(&self) -> FrequencyRange {
        self.range
    }

    /// The switched-capacitance coefficient α.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Compute delay for `work` cycles at frequency `f` (Eq. 4).
    ///
    /// # Errors
    ///
    /// Returns [`MecError::FrequencyOutOfRange`] if `f` is unsupported.
    pub fn compute_delay(&self, work: Cycles, f: Hertz) -> Result<Seconds> {
        self.check(f)?;
        Ok(work / f)
    }

    /// Compute delay at the maximum frequency — the value Alg. 2 and
    /// Alg. 3 use to rank devices.
    #[inline]
    pub fn compute_delay_at_max(&self, work: Cycles) -> Seconds {
        work / self.range.max
    }

    /// Compute energy for `work` cycles at frequency `f` (Eq. 5):
    /// `E = (α/2)·work·f²`.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::FrequencyOutOfRange`] if `f` is unsupported.
    pub fn compute_energy(&self, work: Cycles, f: Hertz) -> Result<Joules> {
        self.check(f)?;
        Ok(self.compute_energy_unchecked(work, f))
    }

    /// Evaluates the Eq. 5 energy model at an arbitrary frequency,
    /// without range validation. The fault layer needs this: a
    /// straggler's *effective* frequency can fall below `f_min`, a
    /// point the DVFS governor would never choose but physics still
    /// prices.
    #[inline]
    pub fn compute_energy_unchecked(&self, work: Cycles, f: Hertz) -> Joules {
        Joules::new(0.5 * self.alpha * work.get() * f.get() * f.get())
    }

    fn check(&self, f: Hertz) -> Result<()> {
        if self.range.contains(f) {
            Ok(())
        } else {
            Err(MecError::FrequencyOutOfRange {
                requested: f,
                min: self.range.min,
                max: self.range.max,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> DvfsCpu {
        DvfsCpu::with_paper_alpha(Hertz::from_ghz(0.3), Hertz::from_ghz(2.0)).unwrap()
    }

    #[test]
    fn range_rejects_inverted_or_nonpositive_bounds() {
        assert!(FrequencyRange::new(Hertz::from_ghz(2.0), Hertz::from_ghz(1.0)).is_err());
        assert!(FrequencyRange::new(Hertz::new(0.0), Hertz::from_ghz(1.0)).is_err());
        assert!(FrequencyRange::new(Hertz::new(-1.0), Hertz::from_ghz(1.0)).is_err());
        assert!(FrequencyRange::new(Hertz::from_ghz(1.0), Hertz::new(f64::NAN)).is_err());
    }

    #[test]
    fn range_accepts_degenerate_single_point() {
        let r = FrequencyRange::new(Hertz::from_ghz(1.0), Hertz::from_ghz(1.0)).unwrap();
        assert!(r.contains(Hertz::from_ghz(1.0)));
        assert_eq!(r.span(), Hertz::ZERO);
    }

    #[test]
    fn clamp_pins_to_bounds() {
        let r = cpu().range();
        assert_eq!(r.clamp(Hertz::from_ghz(5.0)), Hertz::from_ghz(2.0));
        assert_eq!(r.clamp(Hertz::from_ghz(0.1)), Hertz::from_ghz(0.3));
        assert_eq!(r.clamp(Hertz::from_ghz(1.0)), Hertz::from_ghz(1.0));
    }

    #[test]
    fn cpu_rejects_nonpositive_alpha() {
        let r = FrequencyRange::new(Hertz::from_ghz(0.3), Hertz::from_ghz(2.0)).unwrap();
        assert!(matches!(
            DvfsCpu::new(r, 0.0),
            Err(MecError::NonPositiveParameter { name: "alpha", .. })
        ));
    }

    #[test]
    fn compute_delay_matches_eq4() {
        // π|D| = 1e7 * 500 = 5e9 cycles at 2 GHz → 2.5 s.
        let t = cpu()
            .compute_delay(Cycles::new(5.0e9), Hertz::from_ghz(2.0))
            .unwrap();
        assert!((t.get() - 2.5).abs() < 1e-12);
        assert_eq!(cpu().compute_delay_at_max(Cycles::new(5.0e9)), t);
    }

    #[test]
    fn compute_energy_matches_eq5() {
        // E = (α/2)·5e9·(2e9)² = 1e-28 · 5e9 · 4e18 = 2 J.
        let e = cpu()
            .compute_energy(Cycles::new(5.0e9), Hertz::from_ghz(2.0))
            .unwrap();
        assert!((e.get() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn energy_scales_quadratically_with_frequency() {
        let c = cpu();
        let w = Cycles::new(5.0e9);
        let e_full = c.compute_energy(w, Hertz::from_ghz(2.0)).unwrap();
        let e_half = c.compute_energy(w, Hertz::from_ghz(1.0)).unwrap();
        assert!((e_full.get() / e_half.get() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_frequency_is_rejected() {
        let c = cpu();
        assert!(c.compute_delay(Cycles::new(1.0), Hertz::from_ghz(2.5)).is_err());
        assert!(c.compute_energy(Cycles::new(1.0), Hertz::from_ghz(0.1)).is_err());
    }
}

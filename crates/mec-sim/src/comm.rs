//! Per-user uplink: upload delay and energy (paper Eq. 7–8).


use crate::error::{MecError, Result};
use crate::units::{Bits, BitsPerSecond, Joules, Seconds, Watts};

/// A user's uplink to the FL central controller.
///
/// Captures the transmit power `p_q` and the achieved TDMA rate `R_q`
/// (computed once from Eq. 6 via
/// [`RadioEnvironment::uplink_rate`](crate::channel::RadioEnvironment::uplink_rate)).
///
/// # Examples
///
/// ```
/// use mec_sim::comm::Uplink;
/// use mec_sim::units::{Bits, BitsPerSecond, Watts};
///
/// let up = Uplink::new(Watts::new(0.2), BitsPerSecond::from_mbps(8.0))?;
/// let t = up.upload_delay(Bits::from_megabits(40.0));
/// assert_eq!(t.get(), 5.0);
/// assert_eq!(up.upload_energy(Bits::from_megabits(40.0)).get(), 1.0);
/// # Ok::<(), mec_sim::MecError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uplink {
    power: Watts,
    rate: BitsPerSecond,
}

impl Uplink {
    /// Creates an uplink from transmit power and achieved rate.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::NonPositiveParameter`] if either quantity is
    /// not strictly positive and finite.
    pub fn new(power: Watts, rate: BitsPerSecond) -> Result<Self> {
        if !(power.get() > 0.0 && power.is_finite()) {
            return Err(MecError::NonPositiveParameter { name: "power", value: power.get() });
        }
        if !(rate.get() > 0.0 && rate.is_finite()) {
            return Err(MecError::NonPositiveParameter { name: "rate", value: rate.get() });
        }
        Ok(Self { power, rate })
    }

    /// An uplink whose power and rate already passed [`Uplink::new`]'s
    /// check where they were stored.
    #[inline]
    pub(crate) fn prechecked(power: Watts, rate: BitsPerSecond) -> Self {
        Self { power, rate }
    }

    /// Transmit power `p_q`.
    #[inline]
    pub fn power(&self) -> Watts {
        self.power
    }

    /// Achieved uplink rate `R_q`.
    #[inline]
    pub fn rate(&self) -> BitsPerSecond {
        self.rate
    }

    /// Upload delay `T^com = C_model / R_q` (Eq. 7).
    #[inline]
    pub fn upload_delay(&self, payload: Bits) -> Seconds {
        payload / self.rate
    }

    /// Upload energy `E^com = p_q · T^com` (Eq. 8).
    #[inline]
    pub fn upload_energy(&self, payload: Bits) -> Joules {
        self.power * self.upload_delay(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validates_inputs() {
        assert!(Uplink::new(Watts::ZERO, BitsPerSecond::from_mbps(1.0)).is_err());
        assert!(Uplink::new(Watts::new(0.2), BitsPerSecond::ZERO).is_err());
        assert!(Uplink::new(Watts::new(f64::NAN), BitsPerSecond::from_mbps(1.0)).is_err());
        assert!(Uplink::new(Watts::new(0.2), BitsPerSecond::new(f64::INFINITY)).is_err());
    }

    #[test]
    fn delay_and_energy_match_eq7_eq8() {
        let up = Uplink::new(Watts::new(0.2), BitsPerSecond::from_mbps(4.0)).unwrap();
        let payload = Bits::from_megabits(40.0);
        assert_eq!(up.upload_delay(payload), Seconds::new(10.0));
        assert_eq!(up.upload_energy(payload), Joules::new(2.0));
    }

    #[test]
    fn energy_is_linear_in_payload() {
        let up = Uplink::new(Watts::new(0.2), BitsPerSecond::from_mbps(4.0)).unwrap();
        let e1 = up.upload_energy(Bits::from_megabits(10.0));
        let e2 = up.upload_energy(Bits::from_megabits(20.0));
        assert!((e2.get() / e1.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_payload_takes_no_time_or_energy() {
        let up = Uplink::new(Watts::new(0.2), BitsPerSecond::from_mbps(4.0)).unwrap();
        assert_eq!(up.upload_delay(Bits::ZERO), Seconds::ZERO);
        assert_eq!(up.upload_energy(Bits::ZERO), Joules::ZERO);
    }
}

//! Heterogeneous user devices (the `v_q` of the paper).


use crate::comm::Uplink;
use crate::cpu::DvfsCpu;
use crate::error::{MecError, Result};
use crate::units::{Bits, Cycles, Hertz, Joules, Seconds};

/// Stable identifier of a user device within a population.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub usize);

impl core::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A user device participating in FL training.
///
/// Bundles the quantities the paper attaches to each `v_q`: a
/// DVFS-capable CPU, the per-sample work `π`, the local dataset size
/// `|D_q|`, and the uplink `(p_q, R_q)`.
///
/// # Examples
///
/// ```
/// use mec_sim::device::{Device, DeviceId};
/// use mec_sim::comm::Uplink;
/// use mec_sim::cpu::DvfsCpu;
/// use mec_sim::units::{Bits, BitsPerSecond, Hertz, Watts};
///
/// let cpu = DvfsCpu::with_paper_alpha(Hertz::from_ghz(0.3), Hertz::from_ghz(2.0))?;
/// let uplink = Uplink::new(Watts::new(0.2), BitsPerSecond::from_mbps(8.0))?;
/// let dev = Device::new(DeviceId(0), cpu, 1.0e7, 500, uplink)?;
/// // T^cal at f_max: 1e7·500 / 2e9 = 2.5 s; T^com: 40 Mbit / 8 Mbps = 5 s.
/// let total = dev.total_delay_at_max(Bits::from_megabits(40.0));
/// assert_eq!(total.get(), 7.5);
/// # Ok::<(), mec_sim::MecError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    id: DeviceId,
    cpu: DvfsCpu,
    cycles_per_sample: f64,
    num_samples: usize,
    uplink: Uplink,
}

impl Device {
    /// Creates a device.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::NonPositiveParameter`] if `cycles_per_sample`
    /// is not strictly positive and finite or `num_samples` is zero.
    pub fn new(
        id: DeviceId,
        cpu: DvfsCpu,
        cycles_per_sample: f64,
        num_samples: usize,
        uplink: Uplink,
    ) -> Result<Self> {
        if !(cycles_per_sample > 0.0 && cycles_per_sample.is_finite()) {
            return Err(MecError::NonPositiveParameter {
                name: "cycles_per_sample",
                value: cycles_per_sample,
            });
        }
        if num_samples == 0 {
            return Err(MecError::NonPositiveParameter { name: "num_samples", value: 0.0 });
        }
        Ok(Self { id, cpu, cycles_per_sample, num_samples, uplink })
    }

    /// A device whose parts already passed [`Device::new`]'s checks
    /// where they were stored (a [`Fleet`](crate::fleet::Fleet) record
    /// writer).
    #[inline]
    pub(crate) fn prechecked(
        id: DeviceId,
        cpu: DvfsCpu,
        cycles_per_sample: f64,
        num_samples: usize,
        uplink: Uplink,
    ) -> Self {
        Self { id, cpu, cycles_per_sample, num_samples, uplink }
    }

    /// The device identifier.
    #[inline]
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The device CPU model.
    #[inline]
    pub fn cpu(&self) -> &DvfsCpu {
        &self.cpu
    }

    /// Per-sample CPU work `π` in cycles.
    #[inline]
    pub fn cycles_per_sample(&self) -> f64 {
        self.cycles_per_sample
    }

    /// Local dataset size `|D_q|`.
    #[inline]
    pub fn num_samples(&self) -> usize {
        self.num_samples
    }

    /// Replaces the local dataset size (used after data partitioning
    /// assigns actual shards).
    ///
    /// # Errors
    ///
    /// Returns [`MecError::NonPositiveParameter`] if `num_samples == 0`.
    pub fn set_num_samples(&mut self, num_samples: usize) -> Result<()> {
        if num_samples == 0 {
            return Err(MecError::NonPositiveParameter { name: "num_samples", value: 0.0 });
        }
        self.num_samples = num_samples;
        Ok(())
    }

    /// The uplink to the FLCC.
    #[inline]
    pub fn uplink(&self) -> &Uplink {
        &self.uplink
    }

    /// Total CPU work per local update: `π·|D_q|` cycles.
    #[inline]
    pub fn work(&self) -> Cycles {
        Cycles::new(self.cycles_per_sample * self.num_samples as f64)
    }

    /// Compute delay at frequency `f` (Eq. 4).
    ///
    /// # Errors
    ///
    /// Returns [`MecError::FrequencyOutOfRange`] if `f` is unsupported.
    pub fn compute_delay(&self, f: Hertz) -> Result<Seconds> {
        self.cpu.compute_delay(self.work(), f)
    }

    /// Compute delay at the device's maximum frequency.
    #[inline]
    pub fn compute_delay_at_max(&self) -> Seconds {
        self.cpu.compute_delay_at_max(self.work())
    }

    /// Compute energy at frequency `f` (Eq. 5).
    ///
    /// # Errors
    ///
    /// Returns [`MecError::FrequencyOutOfRange`] if `f` is unsupported.
    pub fn compute_energy(&self, f: Hertz) -> Result<Joules> {
        self.cpu.compute_energy(self.work(), f)
    }

    /// Upload delay for a model of `payload` bits (Eq. 7).
    #[inline]
    pub fn upload_delay(&self, payload: Bits) -> Seconds {
        self.uplink.upload_delay(payload)
    }

    /// Upload energy for a model of `payload` bits (Eq. 8).
    #[inline]
    pub fn upload_energy(&self, payload: Bits) -> Joules {
        self.uplink.upload_energy(payload)
    }

    /// Total update-and-upload delay `T_q` at the maximum frequency
    /// (Eq. 9) — the quantity Alg. 2's utility uses.
    #[inline]
    pub fn total_delay_at_max(&self, payload: Bits) -> Seconds {
        self.compute_delay_at_max() + self.upload_delay(payload)
    }

    /// Total delay at an explicit frequency (Eq. 9).
    ///
    /// # Errors
    ///
    /// Returns [`MecError::FrequencyOutOfRange`] if `f` is unsupported.
    pub fn total_delay(&self, f: Hertz, payload: Bits) -> Result<Seconds> {
        Ok(self.compute_delay(f)? + self.upload_delay(payload))
    }

    /// Total energy (compute + upload) at an explicit frequency
    /// (the summand of Eq. 11).
    ///
    /// # Errors
    ///
    /// Returns [`MecError::FrequencyOutOfRange`] if `f` is unsupported.
    pub fn total_energy(&self, f: Hertz, payload: Bits) -> Result<Joules> {
        Ok(self.compute_energy(f)? + self.upload_energy(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{BitsPerSecond, Watts};

    fn device(id: usize, fmax_ghz: f64, samples: usize, mbps: f64) -> Device {
        let cpu =
            DvfsCpu::with_paper_alpha(Hertz::from_ghz(0.3), Hertz::from_ghz(fmax_ghz)).unwrap();
        let uplink = Uplink::new(Watts::new(0.2), BitsPerSecond::from_mbps(mbps)).unwrap();
        Device::new(DeviceId(id), cpu, 1.0e7, samples, uplink).unwrap()
    }

    #[test]
    fn constructor_validates_work_parameters() {
        let cpu =
            DvfsCpu::with_paper_alpha(Hertz::from_ghz(0.3), Hertz::from_ghz(2.0)).unwrap();
        let uplink = Uplink::new(Watts::new(0.2), BitsPerSecond::from_mbps(4.0)).unwrap();
        assert!(Device::new(DeviceId(0), cpu, 0.0, 10, uplink).is_err());
        assert!(Device::new(DeviceId(0), cpu, 1.0e7, 0, uplink).is_err());
    }

    #[test]
    fn work_is_pi_times_dataset_size() {
        let d = device(0, 2.0, 500, 4.0);
        assert_eq!(d.work(), Cycles::new(5.0e9));
    }

    #[test]
    fn delays_compose_into_total_eq9() {
        let d = device(0, 2.0, 500, 4.0);
        let payload = Bits::from_megabits(40.0);
        let t_cal = d.compute_delay_at_max();
        let t_com = d.upload_delay(payload);
        assert_eq!(d.total_delay_at_max(payload), t_cal + t_com);
        assert_eq!(
            d.total_delay(Hertz::from_ghz(2.0), payload).unwrap(),
            d.total_delay_at_max(payload)
        );
    }

    #[test]
    fn slower_clock_means_longer_delay_less_energy() {
        let d = device(0, 2.0, 500, 4.0);
        let slow = Hertz::from_ghz(1.0);
        let fast = Hertz::from_ghz(2.0);
        assert!(d.compute_delay(slow).unwrap() > d.compute_delay(fast).unwrap());
        assert!(d.compute_energy(slow).unwrap() < d.compute_energy(fast).unwrap());
    }

    #[test]
    fn set_num_samples_updates_work() {
        let mut d = device(0, 2.0, 500, 4.0);
        d.set_num_samples(1000).unwrap();
        assert_eq!(d.work(), Cycles::new(1.0e10));
        assert!(d.set_num_samples(0).is_err());
    }

    #[test]
    fn total_energy_sums_compute_and_upload() {
        let d = device(0, 2.0, 500, 4.0);
        let payload = Bits::from_megabits(40.0);
        let f = Hertz::from_ghz(1.5);
        let total = d.total_energy(f, payload).unwrap();
        let parts = d.compute_energy(f).unwrap() + d.upload_energy(payload);
        assert_eq!(total, parts);
    }

    #[test]
    fn device_id_displays_with_v_prefix() {
        assert_eq!(DeviceId(7).to_string(), "v7");
    }
}

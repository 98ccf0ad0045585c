//! Seeded generation of heterogeneous device fleets (paper §VII-A).
//!
//! The paper evaluates 100 devices whose maximum CPU frequencies are
//! drawn uniformly from (0.3, 2.0) GHz with a common 0.3 GHz floor,
//! 0.2 W transmit power, and a 2 MHz TDMA system. [`PopulationBuilder`]
//! reproduces that setting by default and exposes every knob.

use detrand::Rng;

use crate::channel::{PathLossModel, RadioEnvironment};
use crate::comm::Uplink;
use crate::cpu::{DvfsCpu, FrequencyRange, PAPER_ALPHA};
use crate::device::{Device, DeviceId};
use crate::error::{MecError, Result};
use crate::fleet::{DeviceRecord, Fleet};
use crate::units::{BitsPerSecond, Hertz, Watts};

/// Builder for a heterogeneous [`Population`] of user devices.
///
/// # Examples
///
/// ```
/// use mec_sim::population::PopulationBuilder;
///
/// let pop = PopulationBuilder::paper_default().seed(7).build()?;
/// assert_eq!(pop.len(), 100);
/// # Ok::<(), mec_sim::MecError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationBuilder {
    num_devices: usize,
    f_min: Hertz,
    f_max_low: Hertz,
    f_max_high: Hertz,
    alpha: f64,
    cycles_per_sample: f64,
    default_samples: usize,
    transmit_power: Watts,
    environment: RadioEnvironment,
    path_loss: PathLossModel,
    distance_range_m: (f64, f64),
    seed: u64,
}

impl PopulationBuilder {
    /// The paper's §VII-A configuration: 100 devices, `f_max ~ U(0.3,
    /// 2.0) GHz`, `f_min = 0.3 GHz`, α = 2×10^-28, π = 10^7
    /// cycles/sample, 0.2 W uplinks in a 2 MHz cell, users placed
    /// 100–300 m from the base station.
    pub fn paper_default() -> Self {
        Self {
            num_devices: 100,
            f_min: Hertz::from_ghz(0.3),
            f_max_low: Hertz::from_ghz(0.3),
            f_max_high: Hertz::from_ghz(2.0),
            alpha: PAPER_ALPHA,
            cycles_per_sample: 1.0e7,
            default_samples: 500,
            transmit_power: Watts::new(0.2),
            environment: RadioEnvironment::paper_default(),
            path_loss: PathLossModel::default(),
            distance_range_m: (100.0, 300.0),
            seed: 0,
        }
    }

    /// Sets the number of devices `Q`.
    pub fn num_devices(mut self, n: usize) -> Self {
        self.num_devices = n;
        self
    }

    /// Sets the common frequency floor `f_min`.
    pub fn f_min(mut self, f: Hertz) -> Self {
        self.f_min = f;
        self
    }

    /// Sets the sampling interval for per-device `f_max` draws.
    pub fn f_max_interval(mut self, low: Hertz, high: Hertz) -> Self {
        self.f_max_low = low;
        self.f_max_high = high;
        self
    }

    /// Sets the switched-capacitance coefficient α.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets per-sample CPU work `π`.
    pub fn cycles_per_sample(mut self, pi: f64) -> Self {
        self.cycles_per_sample = pi;
        self
    }

    /// Sets the dataset size assigned to every device before the data
    /// partitioner overrides it.
    pub fn default_samples(mut self, n: usize) -> Self {
        self.default_samples = n;
        self
    }

    /// Sets the uplink transmit power `p_q` shared by all devices.
    pub fn transmit_power(mut self, p: Watts) -> Self {
        self.transmit_power = p;
        self
    }

    /// Sets the radio environment (bandwidth `Z`, noise `N0`).
    pub fn environment(mut self, env: RadioEnvironment) -> Self {
        self.environment = env;
        self
    }

    /// Sets the path-loss model used to draw channel gains.
    pub fn path_loss(mut self, model: PathLossModel) -> Self {
        self.path_loss = model;
        self
    }

    /// Sets the uniform user-placement distance range in metres.
    pub fn distance_range_m(mut self, low: f64, high: f64) -> Self {
        self.distance_range_m = (low, high);
        self
    }

    /// Sets the master RNG seed; identical seeds reproduce identical
    /// populations byte-for-byte.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the population.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::EmptyDeviceSet`] for zero devices, or the
    /// underlying validation error if a parameter combination is
    /// invalid (e.g. inverted frequency interval).
    pub fn build(&self) -> Result<Population> {
        self.validate()?;
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut devices = Vec::with_capacity(self.num_devices);
        for i in 0..self.num_devices {
            let (f_max, rate) = self.draw_device(&mut rng);
            let cpu = DvfsCpu::new(FrequencyRange::new(self.f_min, f_max)?, self.alpha)?;
            let uplink = Uplink::new(self.transmit_power, rate)?;
            devices.push(Device::new(
                DeviceId(i),
                cpu,
                self.cycles_per_sample,
                self.default_samples,
                uplink,
            )?);
        }
        Ok(Population { devices, environment: self.environment })
    }

    /// Generates the same population as [`PopulationBuilder::build`] —
    /// identical seed, identical draws, bit-identical devices — but
    /// emits it directly as a compact [`Fleet`], one 20-byte record per
    /// device, never materializing a `Vec<Device>` (or any second copy
    /// of the per-device data). This is the entry point for
    /// million-device runs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PopulationBuilder::build`], plus a
    /// [`MecError::NonPositiveParameter`] if `default_samples`
    /// overflows the fleet's `u32` sample storage.
    pub fn build_fleet(&self) -> Result<Fleet> {
        self.validate()?;
        let num_samples = u32::try_from(self.default_samples).map_err(|_| {
            MecError::NonPositiveParameter {
                name: "default_samples overflows the fleet's u32 storage",
                value: self.default_samples as f64,
            }
        })?;
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut records = Vec::with_capacity(self.num_devices);
        for _ in 0..self.num_devices {
            let (f_max, rate) = self.draw_device(&mut rng);
            records.push(DeviceRecord { f_max: f_max.get(), rate: rate.get(), num_samples });
        }
        Fleet::from_records(
            self.f_min,
            self.alpha,
            self.cycles_per_sample,
            self.transmit_power,
            self.environment,
            records,
        )
    }

    fn validate(&self) -> Result<()> {
        if self.num_devices == 0 {
            return Err(MecError::EmptyDeviceSet);
        }
        // Written so that a NaN or infinite bound fails too: the draws
        // need finite intervals.
        let (near, far) = self.distance_range_m;
        if !(near > 0.0 && near <= far && far.is_finite()) {
            return Err(MecError::NonPositiveParameter { name: "distance_range_m", value: near });
        }
        let (low, high) = (self.f_max_low, self.f_max_high);
        if !(low >= self.f_min && low <= high && high.is_finite()) {
            return Err(MecError::InvalidFrequencyRange {
                min: self.f_max_low,
                max: self.f_max_high,
            });
        }
        Ok(())
    }

    /// One device's random draws, in the frozen order `build` has
    /// always used: `f_max` (skipped for a degenerate interval), then
    /// placement distance, then the shadowing sample inside
    /// `sample_amplitude_gain`. `build` and `build_fleet` both route
    /// through here so the two representations consume the RNG
    /// identically.
    fn draw_device(&self, rng: &mut Rng) -> (Hertz, BitsPerSecond) {
        let f_max = if self.f_max_low == self.f_max_high {
            self.f_max_high
        } else {
            Hertz::new(rng.uniform(self.f_max_low.get(), self.f_max_high.get()))
        };
        let distance = rng.uniform(self.distance_range_m.0, self.distance_range_m.1);
        let gain = self.path_loss.sample_amplitude_gain(distance, rng);
        let rate = self.environment.uplink_rate(self.transmit_power, gain);
        (f_max, rate)
    }
}

/// A generated fleet of heterogeneous user devices.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    devices: Vec<Device>,
    environment: RadioEnvironment,
}

impl Population {
    /// Constructs a population directly from devices (for tests and
    /// hand-built scenarios).
    pub fn from_devices(devices: Vec<Device>, environment: RadioEnvironment) -> Self {
        Self { devices, environment }
    }

    /// Number of devices `Q`.
    #[inline]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the population is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// All devices, ordered by [`DeviceId`].
    #[inline]
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Mutable access to devices (used by data partitioners to install
    /// real shard sizes).
    #[inline]
    pub fn devices_mut(&mut self) -> &mut [Device] {
        &mut self.devices
    }

    /// Looks up a device by id.
    #[inline]
    pub fn get(&self, id: DeviceId) -> Option<&Device> {
        self.devices.get(id.0)
    }

    /// The shared radio environment.
    #[inline]
    pub fn environment(&self) -> &RadioEnvironment {
        &self.environment
    }

    /// Iterates over the devices.
    pub fn iter(&self) -> core::slice::Iter<'_, Device> {
        self.devices.iter()
    }

    /// Resident bytes of the device array plus the fixed header — the
    /// array-of-structs counterpart of [`Fleet::memory_bytes`], feeding
    /// the per-round `fleet.memory_bytes` gauge.
    pub fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>()
            + self.devices.capacity() * core::mem::size_of::<Device>()
    }
}

impl<'a> IntoIterator for &'a Population {
    type Item = &'a Device;
    type IntoIter = core::slice::Iter<'a, Device>;

    fn into_iter(self) -> Self::IntoIter {
        self.devices.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_bytes_covers_header_plus_devices() {
        let pop = PopulationBuilder::paper_default().seed(1).build().unwrap();
        let floor = core::mem::size_of::<Population>()
            + pop.len() * core::mem::size_of::<Device>();
        assert!(pop.memory_bytes() >= floor, "{} < {floor}", pop.memory_bytes());
    }

    #[test]
    fn paper_default_produces_100_devices_in_spec() {
        let pop = PopulationBuilder::paper_default().seed(1).build().unwrap();
        assert_eq!(pop.len(), 100);
        for d in &pop {
            let r = d.cpu().range();
            assert_eq!(r.min(), Hertz::from_ghz(0.3));
            assert!(r.max() >= Hertz::from_ghz(0.3) && r.max() <= Hertz::from_ghz(2.0));
            assert_eq!(d.cycles_per_sample(), 1.0e7);
            assert_eq!(d.uplink().power(), Watts::new(0.2));
            assert!(d.uplink().rate().get() > 0.0);
        }
    }

    #[test]
    fn same_seed_same_population() {
        let a = PopulationBuilder::paper_default().seed(42).build().unwrap();
        let b = PopulationBuilder::paper_default().seed(42).build().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_population() {
        let a = PopulationBuilder::paper_default().seed(1).build().unwrap();
        let b = PopulationBuilder::paper_default().seed(2).build().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn population_is_heterogeneous() {
        let pop = PopulationBuilder::paper_default().seed(3).build().unwrap();
        let f_maxes: Vec<f64> = pop.iter().map(|d| d.cpu().range().max().get()).collect();
        let min = f_maxes.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = f_maxes.iter().cloned().fold(0.0, f64::max);
        // Uniform draw over (0.3, 2.0) GHz should span a wide interval.
        assert!(max - min > 0.5e9, "span {}", max - min);
    }

    #[test]
    fn zero_devices_is_rejected() {
        let err = PopulationBuilder::paper_default().num_devices(0).build();
        assert_eq!(err.unwrap_err(), MecError::EmptyDeviceSet);
    }

    #[test]
    fn invalid_distance_range_is_rejected() {
        assert!(PopulationBuilder::paper_default()
            .distance_range_m(0.0, 100.0)
            .build()
            .is_err());
        assert!(PopulationBuilder::paper_default()
            .distance_range_m(200.0, 100.0)
            .build()
            .is_err());
    }

    #[test]
    fn invalid_fmax_interval_is_rejected() {
        assert!(PopulationBuilder::paper_default()
            .f_max_interval(Hertz::from_ghz(2.0), Hertz::from_ghz(1.0))
            .build()
            .is_err());
        // f_max interval below f_min is impossible hardware.
        assert!(PopulationBuilder::paper_default()
            .f_min(Hertz::from_ghz(1.0))
            .f_max_interval(Hertz::from_ghz(0.5), Hertz::from_ghz(2.0))
            .build()
            .is_err());
    }

    /// A non-finite draw interval is refused, not handed to the RNG.
    #[test]
    fn non_finite_draw_intervals_are_refused() {
        let base = PopulationBuilder::paper_default().num_devices(5);
        let (ghz, inf, nan) = (Hertz::from_ghz(1.0), f64::INFINITY, f64::NAN);
        for (low, high) in [(ghz, Hertz::new(inf)), (Hertz::new(nan), ghz), (ghz, Hertz::new(nan))] {
            let builder = base.clone().f_max_interval(low, high);
            for err in [builder.build().unwrap_err(), builder.build_fleet().unwrap_err()] {
                assert!(matches!(err, MecError::InvalidFrequencyRange { .. }), "{err}");
            }
        }
        for (near, far) in [(100.0, inf), (nan, 300.0), (100.0, nan)] {
            let builder = base.clone().distance_range_m(near, far);
            for err in [builder.build().unwrap_err(), builder.build_fleet().unwrap_err()] {
                assert!(matches!(err, MecError::NonPositiveParameter { name: "distance_range_m", .. }));
            }
        }
    }

    #[test]
    fn homogeneous_fmax_interval_is_allowed() {
        let pop = PopulationBuilder::paper_default()
            .f_max_interval(Hertz::from_ghz(1.0), Hertz::from_ghz(1.0))
            .num_devices(5)
            .build()
            .unwrap();
        assert!(pop.iter().all(|d| d.cpu().range().max() == Hertz::from_ghz(1.0)));
    }

    #[test]
    fn lookup_by_id_round_trips() {
        let pop = PopulationBuilder::paper_default().seed(9).build().unwrap();
        let d = pop.get(DeviceId(17)).unwrap();
        assert_eq!(d.id(), DeviceId(17));
        assert!(pop.get(DeviceId(100)).is_none());
    }

    #[test]
    fn build_fleet_matches_build_bit_for_bit() {
        let builder = PopulationBuilder::paper_default().num_devices(64).seed(42);
        let pop = builder.build().unwrap();
        let fleet = builder.build_fleet().unwrap();
        assert_eq!(fleet.len(), pop.len());
        for (q, d) in pop.devices().iter().enumerate() {
            assert_eq!(fleet.device(q), *d, "device {q} diverged");
        }
        assert_eq!(fleet, Fleet::from_population(&pop).unwrap());
    }

    #[test]
    fn build_fleet_rejects_what_build_rejects() {
        assert!(PopulationBuilder::paper_default().num_devices(0).build_fleet().is_err());
        assert!(PopulationBuilder::paper_default()
            .distance_range_m(200.0, 100.0)
            .build_fleet()
            .is_err());
        assert!(PopulationBuilder::paper_default()
            .f_max_interval(Hertz::from_ghz(2.0), Hertz::from_ghz(1.0))
            .build_fleet()
            .is_err());
    }

    #[test]
    fn upload_rates_land_in_expected_regime() {
        let pop = PopulationBuilder::paper_default().seed(5).build().unwrap();
        let rates: Vec<f64> = pop.iter().map(|d| d.uplink().rate().mbps()).collect();
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        // Few-Mbit/s regime (see DESIGN.md §6).
        assert!(mean > 0.5 && mean < 30.0, "mean rate {mean} Mbps");
        assert!(rates.iter().all(|&r| r > 0.0));
    }
}

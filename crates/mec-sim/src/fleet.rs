//! Compact fleet storage for million-device populations.
//!
//! [`Population`] stores devices as an array of structs — convenient at
//! the paper's Q = 100, wasteful at Q = 10^7 where every per-round walk
//! drags the full 56-byte `Device` through cache. [`Fleet`] hoists the
//! *shared* parameters (`f_min`, α, π, transmit power — uniform across
//! the paper's §VII-A populations) out to scalars and keeps one packed
//! 20-byte record per device (`f_max`, uplink rate, dataset size), so
//! the resident footprint is 20 bytes/device and a pick reads one
//! record instead of three arrays. Device ids are implicit: device `q`
//! lives at index `q`.
//!
//! Invariants (checked at construction):
//!
//! - every per-device `f_max` is finite and ≥ the shared `f_min`;
//! - every per-device uplink rate is strictly positive and finite;
//! - every per-device sample count is strictly positive;
//! - the shared scalars pass the same validation as the corresponding
//!   [`DvfsCpu`]/[`Uplink`] constructors.
//!
//! [`Fleet::device`] reconstructs a bit-identical [`Device`] on demand
//! through the validated constructors, so all delay/energy math keeps a
//! single implementation. The one column read, [`Fleet::delays_at_max`],
//! prices Eq. 9 from the records through the same unit operations as
//! [`Device::total_delay_at_max`], so its delays keep their bits.

use crate::channel::RadioEnvironment;
use crate::comm::Uplink;
use crate::cpu::{DvfsCpu, FrequencyRange};
use crate::device::{Device, DeviceId};
use crate::error::{MecError, Result};
use crate::population::Population;
use crate::units::{Bits, BitsPerSecond, Cycles, Hertz, Seconds, Watts};

/// One device's own parameters, packed to 20 bytes and read by copy.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, packed)]
pub(crate) struct DeviceRecord {
    /// `f_max` in Hz.
    pub(crate) f_max: f64,
    /// Achieved uplink rate in bits/s.
    pub(crate) rate: f64,
    /// Dataset size `|D_q|`.
    pub(crate) num_samples: u32,
}

/// Compact view of a device fleet: shared scalars plus one record per
/// device.
///
/// # Examples
///
/// ```
/// use mec_sim::population::PopulationBuilder;
///
/// let builder = PopulationBuilder::paper_default().seed(7);
/// let fleet = builder.build_fleet()?;
/// let pop = builder.build()?;
/// assert_eq!(fleet.len(), pop.len());
/// assert_eq!(fleet.device(17), pop.devices()[17]);
/// # Ok::<(), mec_sim::MecError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    f_min: Hertz,
    alpha: f64,
    cycles_per_sample: f64,
    transmit_power: Watts,
    environment: RadioEnvironment,
    /// Per-device records; index is the device id.
    records: Vec<DeviceRecord>,
}

impl Fleet {
    /// Assembles a fleet from per-device records (the
    /// `PopulationBuilder` fast path). Validates the shared scalars and
    /// every record through the same rules as the device constructors.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::EmptyDeviceSet`] for zero devices, or the
    /// first validation error among the shared scalars and per-device
    /// entries.
    pub(crate) fn from_records(
        f_min: Hertz,
        alpha: f64,
        cycles_per_sample: f64,
        transmit_power: Watts,
        environment: RadioEnvironment,
        records: Vec<DeviceRecord>,
    ) -> Result<Self> {
        if records.is_empty() {
            return Err(MecError::EmptyDeviceSet);
        }
        // Validate the shared scalars once through the real constructors.
        DvfsCpu::new(FrequencyRange::new(f_min, f_min)?, alpha)?;
        if !(cycles_per_sample > 0.0 && cycles_per_sample.is_finite()) {
            return Err(MecError::NonPositiveParameter {
                name: "cycles_per_sample",
                value: cycles_per_sample,
            });
        }
        for r in &records {
            FrequencyRange::new(f_min, Hertz::new(r.f_max))?;
            Uplink::new(transmit_power, BitsPerSecond::new(r.rate))?;
            if r.num_samples == 0 {
                return Err(MecError::NonPositiveParameter { name: "num_samples", value: 0.0 });
            }
        }
        Ok(Self { f_min, alpha, cycles_per_sample, transmit_power, environment, records })
    }

    /// Compacts an existing [`Population`] into fleet form.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::EmptyDeviceSet`] for an empty population and
    /// [`MecError::NonPositiveParameter`] (naming the offending field)
    /// if the per-device parameters that the fleet hoists into shared
    /// scalars — `f_min`, α, π, transmit power — are not uniform
    /// across the population, or a dataset size overflows `u32`.
    pub fn from_population(population: &Population) -> Result<Self> {
        let devices = population.devices();
        let first = devices.first().ok_or(MecError::EmptyDeviceSet)?;
        let f_min = first.cpu().range().min();
        let alpha = first.cpu().alpha();
        let cycles_per_sample = first.cycles_per_sample();
        let transmit_power = first.uplink().power();
        let mut records = Vec::with_capacity(devices.len());
        for d in devices {
            if d.cpu().range().min() != f_min {
                return Err(MecError::NonPositiveParameter {
                    name: "fleet requires uniform f_min",
                    value: d.cpu().range().min().get(),
                });
            }
            if d.cpu().alpha() != alpha {
                return Err(MecError::NonPositiveParameter {
                    name: "fleet requires uniform alpha",
                    value: d.cpu().alpha(),
                });
            }
            if d.cycles_per_sample() != cycles_per_sample {
                return Err(MecError::NonPositiveParameter {
                    name: "fleet requires uniform cycles_per_sample",
                    value: d.cycles_per_sample(),
                });
            }
            if d.uplink().power() != transmit_power {
                return Err(MecError::NonPositiveParameter {
                    name: "fleet requires uniform transmit_power",
                    value: d.uplink().power().get(),
                });
            }
            let num_samples = u32::try_from(d.num_samples()).map_err(|_| {
                MecError::NonPositiveParameter {
                    name: "num_samples overflows the fleet's u32 storage",
                    value: d.num_samples() as f64,
                }
            })?;
            records.push(DeviceRecord {
                f_max: d.cpu().range().max().get(),
                rate: d.uplink().rate().get(),
                num_samples,
            });
        }
        Ok(Self {
            f_min,
            alpha,
            cycles_per_sample,
            transmit_power,
            environment: *population.environment(),
            records,
        })
    }

    /// Number of devices `Q`.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the fleet is empty (never true for a constructed fleet).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The shared radio environment.
    #[inline]
    pub fn environment(&self) -> &RadioEnvironment {
        &self.environment
    }

    /// Reconstructs device `q` through the validated constructors —
    /// bit-identical to the `Population` device it was built from.
    ///
    /// # Panics
    ///
    /// Panics if `q >= self.len()`.
    pub fn device(&self, q: usize) -> Device {
        self.assemble(q, self.records[q])
    }

    /// Builds device `q` from its record and the shared scalars.
    fn assemble(&self, q: usize, record: DeviceRecord) -> Device {
        let range = FrequencyRange::new(self.f_min, Hertz::new(record.f_max))
            .expect("validated at construction");
        let cpu = DvfsCpu::new(range, self.alpha).expect("validated at construction");
        let uplink = Uplink::new(self.transmit_power, BitsPerSecond::new(record.rate))
            .expect("validated at construction");
        Device::new(
            DeviceId(q),
            cpu,
            self.cycles_per_sample,
            record.num_samples as usize,
            uplink,
        )
        .expect("validated at construction")
    }

    /// Materializes the selected cohort as `Device`s, in `ids` order —
    /// O(selected), the only per-round array-of-structs allocation a
    /// fleet-backed round needs.
    ///
    /// Two passes: the first only copies each pick's record, so no
    /// iteration waits on another and the cache misses of many picks
    /// are in flight at once; the second builds the devices from that
    /// cache-resident copy.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn gather(&self, ids: &[DeviceId]) -> Vec<Device> {
        let picked: Vec<DeviceRecord> = ids.iter().map(|id| self.records[id.0]).collect();
        ids.iter().zip(picked).map(|(id, record)| self.assemble(id.0, record)).collect()
    }

    /// Every device's total delay at `f_max` (Eq. 9) in id order, read
    /// straight from the records: `work / f_max + payload / rate`, the
    /// same operations as [`Device::total_delay_at_max`], so each delay
    /// equals `self.device(q).total_delay_at_max(payload)` bit for bit
    /// without assembling the device.
    pub fn delays_at_max(&self, payload: Bits) -> impl Iterator<Item = Seconds> + '_ {
        self.records.iter().map(move |&DeviceRecord { f_max, rate, num_samples }| {
            let work = Cycles::new(self.cycles_per_sample * f64::from(num_samples));
            work / Hertz::new(f_max) + payload / BitsPerSecond::new(rate)
        })
    }

    /// Replaces device `q`'s dataset size (the partitioner's shard
    /// installation, Alg. 1 line 2).
    ///
    /// # Errors
    ///
    /// Returns [`MecError::NonPositiveParameter`] for a zero size.
    ///
    /// # Panics
    ///
    /// Panics if `q >= self.len()`.
    pub fn set_num_samples(&mut self, q: usize, num_samples: u32) -> Result<()> {
        if num_samples == 0 {
            return Err(MecError::NonPositiveParameter { name: "num_samples", value: 0.0 });
        }
        self.records[q].num_samples = num_samples;
        Ok(())
    }

    /// Resident bytes of the per-device records plus the fixed header —
    /// the quantity `BENCH_population.json` reports per device.
    pub fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>()
            + self.records.capacity() * core::mem::size_of::<DeviceRecord>()
    }
}

/// Dense per-id liveness bitmap for streaming availability.
///
/// The runner used to materialize a filtered `Vec<Device>` of alive
/// devices every round — O(Q) time and memory per round. An
/// `AliveMask` is updated incrementally as batteries deplete and gives
/// O(1) membership checks, so per-round cost stays O(selected).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AliveMask {
    words: Vec<u64>,
    len: usize,
    alive: usize,
}

impl AliveMask {
    /// A mask of `len` devices, all alive.
    pub fn all_alive(len: usize) -> Self {
        let words = vec![u64::MAX; len.div_ceil(64)];
        Self { words, len, alive: len }
    }

    /// Number of tracked devices (alive or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask tracks zero devices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of currently-alive devices.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// Whether device `q` is alive. Out-of-range ids are dead.
    #[inline]
    pub fn is_alive(&self, q: usize) -> bool {
        q < self.len && self.words[q / 64] & (1u64 << (q % 64)) != 0
    }

    /// Marks device `q` dead. Returns `true` if it was alive.
    ///
    /// # Panics
    ///
    /// Panics if `q >= self.len()`.
    pub fn kill(&mut self, q: usize) -> bool {
        assert!(q < self.len, "device {q} out of range for mask of {}", self.len);
        let bit = 1u64 << (q % 64);
        let was = self.words[q / 64] & bit != 0;
        if was {
            self.words[q / 64] &= !bit;
            self.alive -= 1;
        }
        was
    }

    /// Marks device `q` alive again (battery recharge / rejoin).
    /// Returns `true` if it was dead.
    ///
    /// # Panics
    ///
    /// Panics if `q >= self.len()`.
    pub fn revive(&mut self, q: usize) -> bool {
        assert!(q < self.len, "device {q} out of range for mask of {}", self.len);
        let bit = 1u64 << (q % 64);
        let was_dead = self.words[q / 64] & bit == 0;
        if was_dead {
            self.words[q / 64] |= bit;
            self.alive += 1;
        }
        was_dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationBuilder;
    use crate::units::Bits;

    #[test]
    fn from_population_round_trips_every_device() {
        let pop = PopulationBuilder::paper_default().num_devices(25).seed(11).build().unwrap();
        let fleet = Fleet::from_population(&pop).unwrap();
        assert_eq!(fleet.len(), 25);
        for (q, d) in pop.devices().iter().enumerate() {
            assert_eq!(fleet.device(q), *d, "device {q} did not round-trip");
        }
        assert_eq!(fleet.environment(), pop.environment());
    }

    #[test]
    fn reconstructed_devices_price_delays_identically() {
        let pop = PopulationBuilder::paper_default().num_devices(10).seed(3).build().unwrap();
        let fleet = Fleet::from_population(&pop).unwrap();
        let payload = Bits::from_megabits(40.0);
        for (q, d) in pop.devices().iter().enumerate() {
            let r = fleet.device(q);
            assert_eq!(r.total_delay_at_max(payload), d.total_delay_at_max(payload));
            assert_eq!(r.compute_delay_at_max(), d.compute_delay_at_max());
        }
    }

    /// The column read prices every device exactly like the assembled
    /// device does, for a fleet built directly and one compacted from a
    /// population.
    #[test]
    fn column_delays_match_the_assembled_devices_bit_for_bit() {
        let builder = PopulationBuilder::paper_default().num_devices(2_000).seed(31);
        let compacted = Fleet::from_population(&builder.build().unwrap()).unwrap();
        for fleet in [builder.build_fleet().unwrap(), compacted] {
            for payload in [Bits::from_megabits(40.0), Bits::from_megabits(0.37)] {
                let column: Vec<Seconds> = fleet.delays_at_max(payload).collect();
                assert_eq!(column.len(), fleet.len());
                for (q, t) in column.into_iter().enumerate() {
                    let want = fleet.device(q).total_delay_at_max(payload);
                    assert_eq!(t.get().to_bits(), want.get().to_bits(), "device {q}");
                }
            }
        }
    }

    #[test]
    fn gather_materializes_the_cohort_in_order() {
        let pop = PopulationBuilder::paper_default().num_devices(8).seed(5).build().unwrap();
        let fleet = Fleet::from_population(&pop).unwrap();
        let ids = [DeviceId(6), DeviceId(1), DeviceId(3)];
        let cohort = fleet.gather(&ids);
        assert_eq!(cohort.len(), 3);
        for (d, id) in cohort.iter().zip(ids) {
            assert_eq!(d.id(), id);
            assert_eq!(*d, pop.devices()[id.0]);
        }
    }

    #[test]
    fn heterogeneous_shared_parameters_are_rejected() {
        let pop = PopulationBuilder::paper_default().num_devices(4).seed(1).build().unwrap();
        let mut devices = pop.devices().to_vec();
        let odd = Device::new(
            devices[0].id(),
            DvfsCpu::new(
                FrequencyRange::new(Hertz::from_ghz(0.1), Hertz::from_ghz(1.0)).unwrap(),
                devices[0].cpu().alpha(),
            )
            .unwrap(),
            devices[0].cycles_per_sample(),
            devices[0].num_samples(),
            *devices[0].uplink(),
        )
        .unwrap();
        devices[0] = odd;
        let mixed = Population::from_devices(devices, *pop.environment());
        let err = Fleet::from_population(&mixed).unwrap_err();
        assert!(matches!(err, MecError::NonPositiveParameter { name, .. }
            if name.contains("uniform f_min")));
    }

    #[test]
    fn empty_population_is_rejected() {
        let empty = Population::from_devices(Vec::new(), RadioEnvironment::paper_default());
        assert_eq!(Fleet::from_population(&empty).unwrap_err(), MecError::EmptyDeviceSet);
    }

    #[test]
    fn set_num_samples_updates_reconstruction() {
        let pop = PopulationBuilder::paper_default().num_devices(3).seed(2).build().unwrap();
        let mut fleet = Fleet::from_population(&pop).unwrap();
        fleet.set_num_samples(1, 777).unwrap();
        assert_eq!(fleet.device(1).num_samples(), 777);
        assert!(fleet.set_num_samples(1, 0).is_err());
    }

    #[test]
    fn gather_of_unsorted_ids_with_repeats_matches_device() {
        let fleet =
            PopulationBuilder::paper_default().num_devices(20_000).seed(9).build_fleet().unwrap();
        let mut rng = detrand::Rng::seed_from_u64(0x6a7e);
        let mut ids: Vec<DeviceId> = (0..3_000).map(|_| DeviceId(rng.below(20_000))).collect();
        // Back-to-back and far-apart repeats, and both ends of the fleet.
        ids.extend([DeviceId(19_999), DeviceId(19_999), DeviceId(0), ids[7], DeviceId(0)]);
        let cohort = fleet.gather(&ids);
        assert_eq!(cohort.len(), ids.len());
        for (i, (d, id)) in cohort.iter().zip(&ids).enumerate() {
            assert_eq!(*d, fleet.device(id.0), "pick {i} ({id}) diverged");
        }
        assert!(fleet.gather(&[]).is_empty());
    }

    #[test]
    fn memory_bytes_counts_twenty_bytes_per_device() {
        assert_eq!(core::mem::size_of::<DeviceRecord>(), 20);
        let fleet = PopulationBuilder::paper_default()
            .num_devices(10_000)
            .build_fleet()
            .unwrap();
        assert_eq!(fleet.memory_bytes(), core::mem::size_of::<Fleet>() + 20 * 10_000);
    }

    #[test]
    fn from_records_validates_like_the_builder() {
        let env = RadioEnvironment::paper_default();
        let (f_min, w) = (Hertz::from_ghz(0.3), Watts::new(0.2));
        let build = |f_max: f64, rate: f64, num_samples: u32| {
            let records = vec![
                DeviceRecord { f_max: 2e9, rate: 1e6, num_samples: 500 },
                DeviceRecord { f_max, rate, num_samples },
            ];
            Fleet::from_records(f_min, 2e-28, 1e7, w, env, records)
        };
        let fleet = build(1e9, 2e6, 7).unwrap();
        assert_eq!(fleet.device(1).num_samples(), 7);
        assert_eq!(fleet.device(1).cpu().range().max(), Hertz::new(1e9));
        assert!(build(1e8, 2e6, 7).is_err(), "f_max below f_min");
        assert!(build(1e9, 0.0, 7).is_err(), "zero rate");
        assert!(build(1e9, 2e6, 0).is_err(), "zero samples");
        let empty = Fleet::from_records(f_min, 2e-28, 1e7, w, env, vec![]);
        assert_eq!(empty.unwrap_err(), MecError::EmptyDeviceSet);
    }

    #[test]
    fn alive_mask_tracks_kill_and_revive() {
        let mut mask = AliveMask::all_alive(130);
        assert_eq!(mask.len(), 130);
        assert_eq!(mask.alive_count(), 130);
        assert!(mask.is_alive(0) && mask.is_alive(129));
        assert!(!mask.is_alive(130), "out of range is dead");

        assert!(mask.kill(64));
        assert!(!mask.kill(64), "second kill is a no-op");
        assert!(!mask.is_alive(64));
        assert_eq!(mask.alive_count(), 129);

        assert!(mask.revive(64));
        assert!(!mask.revive(64), "second revive is a no-op");
        assert!(mask.is_alive(64));
        assert_eq!(mask.alive_count(), 130);
    }

    #[test]
    fn alive_mask_handles_word_boundaries() {
        let mut mask = AliveMask::all_alive(64);
        for q in 0..64 {
            assert!(mask.kill(q));
        }
        assert_eq!(mask.alive_count(), 0);
        assert!(!mask.is_alive(63));
    }

    #[test]
    fn fleet_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Fleet>();
        assert_send_sync::<AliveMask>();
    }
}

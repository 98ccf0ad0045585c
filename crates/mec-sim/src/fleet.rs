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
//! Invariants, checked where a record is written (by
//! `PopulationBuilder::build_fleet`, [`Fleet::from_population`] and
//! [`Fleet::set_num_samples`]) by building the record's device through
//! the public validated constructors ([`FrequencyRange::new`],
//! [`DvfsCpu::new`], [`Uplink::new`], [`Device::new`]), so a bad value
//! is refused with their error:
//!
//! - every per-device `f_max` is finite and ≥ the shared `f_min`;
//! - every per-device uplink rate is strictly positive and finite;
//! - every per-device sample count is strictly positive;
//! - the shared scalars pass the same constructors' checks.
//!
//! [`Fleet::device`] and [`Fleet::gather`] therefore assemble each
//! [`Device`] straight from the shared scalars and its record, with no
//! check per device, so a round's cohort costs a copy per pick rather
//! than four constructor checks. Debug builds rebuild every assembled
//! device through the validated constructors and compare. The device is
//! bit-identical to the one those constructors build, so all
//! delay/energy math keeps a single implementation. The one column
//! read, [`Fleet::delays_at_max`], prices Eq. 9 from the records
//! through the same unit operations as [`Device::total_delay_at_max`],
//! so its delays keep their bits.

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
    /// `PopulationBuilder` fast path and [`Fleet::from_population`]).
    /// Validates every record, and the shared scalars with it, by
    /// building the record's device through the validated constructors.
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
        let fleet = Self { f_min, alpha, cycles_per_sample, transmit_power, environment, records };
        for (q, &record) in fleet.records.iter().enumerate() {
            fleet.validated(q, record)?;
        }
        Ok(fleet)
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
        Self::from_records(
            f_min,
            alpha,
            cycles_per_sample,
            transmit_power,
            *population.environment(),
            records,
        )
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

    /// Device `q`, assembled from its record: bit-identical to the
    /// `Population` device it was built from.
    ///
    /// # Panics
    ///
    /// Panics if `q >= self.len()`.
    pub fn device(&self, q: usize) -> Device {
        self.assemble(q, self.records[q])
    }

    /// Builds device `q` from its record and the shared scalars: the one
    /// path behind [`Fleet::device`] and [`Fleet::gather`]. Nothing is
    /// checked here, because every record was checked when written.
    #[inline]
    fn assemble(&self, q: usize, record: DeviceRecord) -> Device {
        let DeviceRecord { f_max, rate, num_samples } = record;
        let range = FrequencyRange::prechecked(self.f_min, Hertz::new(f_max));
        let device = Device::prechecked(
            DeviceId(q),
            DvfsCpu::prechecked(range, self.alpha),
            self.cycles_per_sample,
            num_samples as usize,
            Uplink::prechecked(self.transmit_power, BitsPerSecond::new(rate)),
        );
        debug_assert_eq!(Ok(device), self.validated(q, record), "device {q}");
        device
    }

    /// Device `q` built from `record` through the public validated
    /// constructors: the check every record writer runs, and the oracle
    /// `assemble` is compared against in debug builds.
    fn validated(&self, q: usize, record: DeviceRecord) -> Result<Device> {
        let DeviceRecord { f_max, rate, num_samples } = record;
        let range = FrequencyRange::new(self.f_min, Hertz::new(f_max))?;
        Device::new(
            DeviceId(q),
            DvfsCpu::new(range, self.alpha)?,
            self.cycles_per_sample,
            num_samples as usize,
            Uplink::new(self.transmit_power, BitsPerSecond::new(rate))?,
        )
    }

    /// Materializes the selected cohort as `Device`s, in `ids` order —
    /// O(selected), the only per-round array-of-structs allocation a
    /// fleet-backed round needs.
    ///
    /// Two passes: the first only copies each pick's record, so no
    /// iteration waits on another and the cache misses of many picks
    /// are in flight at once; the second assembles the devices from that
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
        let record = DeviceRecord { num_samples, ..self.records[q] };
        self.validated(q, record)?;
        self.records[q] = record;
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

    /// Every `device(q)` and every `gather` pick equals, field for field
    /// and bit for bit, the device the validated constructors build from
    /// the same record.
    fn assert_assembly_matches_constructors(fleet: &Fleet, what: &str) {
        let constructed = |q: usize| fleet.validated(q, fleet.records[q]).unwrap();
        let fields = |d: &Device| {
            let (cpu, up) = (d.cpu(), d.uplink());
            let bits = [cpu.range().min().get(), cpu.range().max().get(), cpu.alpha()]
                .into_iter()
                .chain([d.cycles_per_sample(), up.power().get(), up.rate().get()])
                .map(f64::to_bits);
            (d.id(), d.num_samples(), bits.collect::<Vec<_>>())
        };
        // Reversed, with repeats, so a pick's position differs from its id.
        let ids: Vec<DeviceId> =
            (0..fleet.len()).rev().chain([0, fleet.len() - 1, 0]).map(DeviceId).collect();
        let picks = fleet.gather(&ids);
        assert_eq!(picks.len(), ids.len());
        for (pick, id) in picks.iter().zip(&ids) {
            assert_eq!(fields(pick), fields(&constructed(id.0)), "{what}: gather {id}");
        }
        for q in 0..fleet.len() {
            assert_eq!(fields(&fleet.device(q)), fields(&constructed(q)), "{what}: {q}");
        }
    }

    #[test]
    fn assembled_devices_equal_the_validated_constructors() {
        let builder = PopulationBuilder::paper_default().num_devices(500).seed(2022);
        let built = builder.build_fleet().unwrap();
        assert_assembly_matches_constructors(&built, "build_fleet");

        let compacted = Fleet::from_population(&builder.seed(4).build().unwrap()).unwrap();
        assert_assembly_matches_constructors(&compacted, "from_population");

        let mut resized = built;
        for (q, n) in [(0, 1), (7, u32::MAX), (499, 12_345), (7, 3)] {
            resized.set_num_samples(q, n).unwrap();
        }
        assert_eq!(resized.device(7).num_samples(), 3);
        assert_assembly_matches_constructors(&resized, "set_num_samples");

        let (f_min, tiny) = (Hertz::from_ghz(0.3), f64::from_bits(1));
        let extremes = vec![
            DeviceRecord { f_max: f_min.get(), rate: 1e6, num_samples: 500 },
            DeviceRecord { f_max: 2e9, rate: 8e6, num_samples: u32::MAX },
            DeviceRecord { f_max: 1.5e9, rate: tiny, num_samples: 1 },
            DeviceRecord { f_max: 1e9, rate: f64::MIN_POSITIVE, num_samples: 2 },
            DeviceRecord { f_max: f64::MAX, rate: f64::MAX, num_samples: u32::MAX },
        ];
        let env = RadioEnvironment::paper_default();
        let extreme = Fleet::from_records(f_min, 2e-28, 1e7, Watts::new(0.2), env, extremes);
        let extreme = extreme.unwrap();
        assert_assembly_matches_constructors(&extreme, "extreme records");
        assert_eq!(extreme.device(0).cpu().range().span(), Hertz::ZERO);
        assert_eq!(extreme.device(1).num_samples(), u32::MAX as usize);
    }

    /// `from_records`, the writer behind `build_fleet`, refuses each bad
    /// value with the validated constructors' error naming it, wherever
    /// the bad record sits.
    #[test]
    fn from_records_refuses_each_bad_value_by_name() {
        let env = RadioEnvironment::paper_default();
        let (f_min, w) = (Hertz::from_ghz(0.3), Watts::new(0.2));
        let good = DeviceRecord { f_max: 2e9, rate: 1e6, num_samples: 500 };
        let refuse = |bad: DeviceRecord| {
            let records = vec![good, good, bad, good];
            Fleet::from_records(f_min, 2e-28, 1e7, w, env, records).unwrap_err()
        };
        for f_max in [f64::NAN, f64::INFINITY, 1e8, -2e9] {
            let err = refuse(DeviceRecord { f_max, ..good });
            assert!(
                matches!(err, MecError::InvalidFrequencyRange { min, max }
                    if min == f_min && max.get().to_bits() == f_max.to_bits()),
                "f_max {f_max}: {err}"
            );
        }
        for rate in [0.0, -1e6, f64::NAN, f64::INFINITY] {
            let err = refuse(DeviceRecord { rate, ..good });
            assert!(matches!(err, MecError::NonPositiveParameter { name: "rate", .. }), "{err}");
            assert!(err.to_string().contains("`rate`"), "{err}");
        }
        let err = refuse(DeviceRecord { num_samples: 0, ..good });
        assert_eq!(err, MecError::NonPositiveParameter { name: "num_samples", value: 0.0 });

        // The shared scalars are refused by name too.
        let shared = |alpha: f64, pi: f64, power: f64| {
            Fleet::from_records(f_min, alpha, pi, Watts::new(power), env, vec![good]).unwrap_err()
        };
        for (err, name) in [
            (shared(0.0, 1e7, 0.2), "alpha"),
            (shared(2e-28, f64::NAN, 0.2), "cycles_per_sample"),
            (shared(2e-28, 1e7, 0.0), "power"),
        ] {
            assert!(matches!(err, MecError::NonPositiveParameter { name: n, .. } if n == name));
        }
    }

    /// The public route to `from_records` refuses what it cannot store.
    #[test]
    fn build_fleet_refuses_bad_records_by_name() {
        let builder = PopulationBuilder::paper_default().num_devices(50).seed(6);
        let err = builder.clone().default_samples(0).build_fleet().unwrap_err();
        assert_eq!(err, MecError::NonPositiveParameter { name: "num_samples", value: 0.0 });
        let err = builder.clone().f_min(Hertz::ZERO).build_fleet().unwrap_err();
        assert!(matches!(err, MecError::InvalidFrequencyRange { min, .. } if min == Hertz::ZERO));
        let err = builder.transmit_power(Watts::ZERO).build_fleet().unwrap_err();
        assert!(matches!(err, MecError::NonPositiveParameter { name: "power", .. }), "{err}");
    }

    /// A population's devices passed the validated constructors already;
    /// what `from_population` itself refuses is a dataset size its `u32`
    /// record cannot hold, by name, while `u32::MAX` itself is stored.
    #[test]
    fn from_population_refuses_an_unstorable_sample_count_by_name() {
        let pop = PopulationBuilder::paper_default().num_devices(3).seed(8).build().unwrap();
        let mut devices = pop.devices().to_vec();
        devices[2].set_num_samples(u32::MAX as usize).unwrap();
        let widest = Population::from_devices(devices.clone(), *pop.environment());
        let fleet = Fleet::from_population(&widest).unwrap();
        assert_eq!(fleet.device(2), devices[2]);
        devices[2].set_num_samples(u32::MAX as usize + 1).unwrap();
        let err = Fleet::from_population(&Population::from_devices(devices, *pop.environment()));
        assert!(matches!(err, Err(MecError::NonPositiveParameter { name, .. })
            if name.starts_with("num_samples")), "{err:?}");
    }

    /// `set_num_samples` refuses a zero size by name and leaves the
    /// record as it was.
    #[test]
    fn set_num_samples_refuses_zero_and_keeps_the_record() {
        let mut fleet = PopulationBuilder::paper_default().num_devices(4).build_fleet().unwrap();
        let before = fleet.device(3);
        let err = fleet.set_num_samples(3, 0).unwrap_err();
        assert_eq!(err, MecError::NonPositiveParameter { name: "num_samples", value: 0.0 });
        assert!(err.to_string().contains("`num_samples`"));
        assert_eq!(fleet.device(3), before);
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

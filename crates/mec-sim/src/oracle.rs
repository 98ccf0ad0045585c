//! Test oracle: the id-search round resolution.
//!
//! Before the round resolution sorted its cohort by value and built
//! each outcome as it placed it on the channel, [`RoundTimeline`] and
//! [`FaultedRound`] mapped every channel slot, deadline cut and waste
//! settlement back to its input device by searching the cohort for
//! the slot's [`DeviceId`], an O(N²) round. That resolution survives
//! here, over a TDMA placement that sorts the requests themselves, as
//! the reference the seeded property test below holds the production
//! resolution to: on cohorts with distinct ids, every fault-free
//! activity and every faulted outcome must match bit for bit. The
//! TDMA invariants (no overlap, FIFO by compute finish, id
//! tie-break, cascading waits) are checked on the same placement.

use detrand::Rng;

use crate::comm::Uplink;
use crate::cpu::DvfsCpu;
use crate::device::{Device, DeviceId};
use crate::faults::{
    cut_at_deadline, outcome, DeviceFault, DeviceOutcome, FaultedRound, UploadProfile,
};
use crate::timeline::RoundTimeline;
use crate::units::{Bits, BitsPerSecond, Hertz, Joules, Seconds, Watts};

/// A device that finishes computing at `compute_finish` and then needs
/// the channel for `upload_duration`.
#[derive(Debug, Clone, Copy)]
struct UploadRequest {
    device: DeviceId,
    compute_finish: Seconds,
    upload_duration: Seconds,
}

/// One request's serialized channel occupation.
#[derive(Debug, Clone, Copy)]
struct UploadSlot {
    device: DeviceId,
    compute_finish: Seconds,
    upload_start: Seconds,
    upload_end: Seconds,
}

impl UploadSlot {
    fn slack(&self) -> Seconds {
        self.upload_start - self.compute_finish
    }
}

/// TDMA placement by stably sorting the requests by value (finish,
/// then id): one uploader at a time, in compute-finish order.
fn schedule_by_value(mut requests: Vec<UploadRequest>) -> Vec<UploadSlot> {
    requests.sort_by(|a, b| {
        a.compute_finish
            .partial_cmp(&b.compute_finish)
            .expect("compute-finish times must not be NaN")
            .then_with(|| a.device.cmp(&b.device))
    });
    let mut channel_free = Seconds::ZERO;
    requests
        .into_iter()
        .map(|req| {
            let upload_start = req.compute_finish.max(channel_free);
            let upload_end = upload_start + req.upload_duration;
            channel_free = upload_end;
            UploadSlot {
                device: req.device,
                compute_finish: req.compute_finish,
                upload_start,
                upload_end,
            }
        })
        .collect()
}

/// When the last upload lands (zero for no slots).
fn makespan(slots: &[UploadSlot]) -> Seconds {
    slots.last().map_or(Seconds::ZERO, |s| s.upload_end)
}

/// What a fault-free round reports per device: the Eq. 4–9 schedule
/// and the Eq. 5/8 energies. The tests read it only through [`bits`].
#[derive(Debug)]
#[allow(dead_code)]
pub(crate) struct Activity {
    device: DeviceId,
    frequency: Hertz,
    f_max: Hertz,
    compute_finish: Seconds,
    upload_start: Seconds,
    upload_end: Seconds,
    compute_energy: Joules,
    compute_energy_at_max: Joules,
    upload_energy: Joules,
}

impl Activity {
    /// The fault-free fields of a resolved outcome.
    pub(crate) fn of(o: &DeviceOutcome) -> Self {
        Self {
            device: o.device,
            frequency: o.frequency,
            f_max: o.f_max,
            compute_finish: o.compute_finish,
            upload_start: o.upload_start,
            upload_end: o.upload_end,
            compute_energy: o.compute_energy,
            compute_energy_at_max: o.compute_energy_at_max,
            upload_energy: o.upload_energy,
        }
    }
}

/// The fault-free round, each slot resolved by searching the cohort
/// for its id, every value from the device's own Eq. 4–9 methods.
pub(crate) fn timeline_by_id(
    devices: &[Device],
    frequencies: &[Hertz],
    payload: Bits,
) -> Vec<Activity> {
    let requests = devices
        .iter()
        .zip(frequencies)
        .map(|(dev, &f)| UploadRequest {
            device: dev.id(),
            compute_finish: dev.compute_delay(f).unwrap(),
            upload_duration: dev.upload_delay(payload),
        })
        .collect();
    schedule_by_value(requests)
        .iter()
        .map(|slot| {
            let (dev, &f) = devices
                .iter()
                .zip(frequencies)
                .find(|(d, _)| d.id() == slot.device)
                .expect("slot devices come from the input set");
            Activity {
                device: slot.device,
                frequency: f,
                f_max: dev.cpu().range().max(),
                compute_finish: slot.compute_finish,
                upload_start: slot.upload_start,
                upload_end: slot.upload_end,
                compute_energy: dev.compute_energy(f).unwrap(),
                compute_energy_at_max: dev.compute_energy(dev.cpu().range().max()).unwrap(),
                upload_energy: dev.upload_energy(payload),
            }
        })
        .collect()
}

/// [`FaultedRound::simulate`]'s outcomes, round time and deadline flag,
/// with every slot, deadline cut and waste settlement resolved by
/// searching the cohort for the outcome's id.
fn faulted_by_id(
    devices: &[Device],
    frequencies: &[Hertz],
    payload: Bits,
    faults: &[Option<DeviceFault>],
    deadline: Option<Seconds>,
) -> (Vec<DeviceOutcome>, Seconds, bool) {
    // Each device alone on a free channel: its compute finish, and
    // whether it reaches the channel at all.
    let alone: Vec<DeviceOutcome> = (0..devices.len())
        .map(|i| {
            let (dev, f) = (&devices[i], frequencies[i]);
            outcome(i, dev, f, dev.work() / f, faults[i], payload, Seconds::ZERO)
        })
        .collect();
    let requests = alone
        .iter()
        .filter(|o| o.uploaded)
        .map(|o| UploadRequest {
            device: o.device,
            compute_finish: o.compute_finish,
            upload_duration: UploadProfile::new(o.fault, o.planned_upload).unwrap().occupation,
        })
        .collect();
    let index_of = |id: DeviceId| devices.iter().position(|d| d.id() == id).expect("from input");
    let mut outcomes = Vec::new();
    for slot in schedule_by_value(requests) {
        let i = index_of(slot.device);
        let start = slot.upload_start;
        let (dev, f) = (&devices[i], frequencies[i]);
        outcomes.push(outcome(i, dev, f, dev.work() / f, faults[i], payload, start));
    }
    let mut crashed: Vec<&DeviceOutcome> = alone.iter().filter(|o| !o.uploaded).collect();
    crashed.sort_by_key(|o| o.device);
    outcomes.extend(crashed.into_iter().copied());
    let natural =
        outcomes.iter().map(DeviceOutcome::release_time).fold(Seconds::ZERO, Seconds::max);
    let fired = deadline.is_some_and(|t| natural > t);
    let round_time = if fired { deadline.unwrap() } else { natural };
    if fired {
        for o in &mut outcomes {
            let power = devices[index_of(o.device)].uplink().power();
            cut_at_deadline(o, round_time.get(), power);
        }
    }
    for o in &mut outcomes {
        o.wasted_energy = if !o.delivered {
            o.total_energy()
        } else if o.retries > 0 {
            let dev = devices.iter().find(|d| d.id() == o.device).expect("from input");
            o.upload_energy - dev.upload_energy(payload)
        } else {
            Joules::ZERO
        };
    }
    (outcomes, round_time, fired)
}

/// A few hardware profiles, so cohorts share compute-finish times.
const PROFILES: [(f64, usize, f64); 4] =
    [(2.0, 500, 8.0), (1.0, 250, 4.0), (0.5, 500, 8.0), (1.6, 800, 2.0)];

fn gen_cohort(rng: &mut Rng) -> (Vec<Device>, Vec<Hertz>) {
    let n = rng.range_usize(1, 24);
    let ids = rng.sample_indices(1_000, n);
    let mut devices = Vec::with_capacity(n);
    let mut freqs = Vec::with_capacity(n);
    for id in ids {
        let (fmax, samples, mbps) = if rng.below(2) == 0 {
            PROFILES[rng.below(PROFILES.len())]
        } else {
            (rng.uniform(0.4, 2.0), rng.range_usize(100, 1_000), rng.uniform(1.0, 10.0))
        };
        let cpu =
            DvfsCpu::with_paper_alpha(Hertz::from_ghz(0.3), Hertz::from_ghz(fmax)).unwrap();
        let uplink = Uplink::new(Watts::new(0.2), BitsPerSecond::from_mbps(mbps)).unwrap();
        let dev = Device::new(DeviceId(id), cpu, 1.0e7, samples, uplink).unwrap();
        let range = dev.cpu().range();
        // Mostly f_max, which ties devices of one profile.
        let f = if rng.below(3) == 0 {
            Hertz::new(rng.uniform(range.min().get(), range.max().get()))
        } else {
            range.max()
        };
        devices.push(dev);
        freqs.push(f);
    }
    (devices, freqs)
}

fn gen_fault(rng: &mut Rng) -> Option<DeviceFault> {
    match rng.below(10) {
        0 => Some(DeviceFault::CrashCompute { at: rng.uniform(0.05, 1.0) }),
        1 => Some(DeviceFault::CrashUpload { at: rng.uniform(0.05, 0.95) }),
        2 => Some(DeviceFault::Straggler { slowdown: rng.uniform(0.1, 0.9) }),
        3 => Some(DeviceFault::UploadRetry {
            failed_attempts: rng.range_usize(1, 4) as u32,
            backoff: Seconds::new(rng.uniform(0.0, 2.0)),
            exhausted: rng.below(2) == 0,
        }),
        4 => Some(DeviceFault::ChannelDegradation { gain: rng.uniform(0.2, 0.9) }),
        _ => None,
    }
}

/// Debug text distinguishes every pair of distinct non-NaN floats,
/// so equal renderings mean bit-identical values.
pub(crate) fn bits<T: core::fmt::Debug>(v: &T) -> String {
    format!("{v:?}")
}

#[test]
fn value_sort_resolution_matches_the_id_search_bit_for_bit() {
    let payload = Bits::from_megabits(40.0);
    let mut rng = Rng::seed_from_u64(0x0ac1_e5e7);
    let (mut ties, mut crashes, mut retries, mut stragglers, mut deadlines) = (0, 0, 0, 0, 0);
    for case in 0..400 {
        let (devices, freqs) = gen_cohort(&mut rng);
        let finishes: Vec<u64> = devices
            .iter()
            .zip(&freqs)
            .map(|(d, &f)| d.compute_delay(f).unwrap().get().to_bits())
            .collect();
        if (1..finishes.len()).any(|i| finishes[..i].contains(&finishes[i])) {
            ties += 1;
        }

        let tl = RoundTimeline::simulate(&devices, &freqs, payload).unwrap();
        let activities: Vec<Activity> = tl.activities().iter().map(Activity::of).collect();
        assert_eq!(
            bits(&activities),
            bits(&timeline_by_id(&devices, &freqs, payload)),
            "case {case}: timeline"
        );

        let faults: Vec<_> = devices.iter().map(|_| gen_fault(&mut rng)).collect();
        let unbounded = FaultedRound::simulate(&devices, &freqs, payload, &faults, None);
        let natural = unbounded.unwrap().round_time().get();
        // Half the cases cut the round short.
        let deadline = match rng.below(4) {
            0 => None,
            1 => Some(Seconds::new(natural * 2.0)),
            _ => Some(Seconds::new(natural * rng.uniform(0.2, 0.95))),
        };
        let fr = FaultedRound::simulate(&devices, &freqs, payload, &faults, deadline).unwrap();
        let (outcomes, round_time, fired) =
            faulted_by_id(&devices, &freqs, payload, &faults, deadline);
        assert_eq!(bits(&fr.outcomes()), bits(&outcomes.as_slice()), "case {case}: outcomes");
        assert_eq!(fr.round_time().get().to_bits(), round_time.get().to_bits(), "case {case}");
        assert_eq!(fr.deadline_fired(), fired, "case {case}");
        let by_input = fr.delivery_by_input();
        for o in fr.outcomes() {
            assert_eq!(devices[o.input].id(), o.device, "case {case}");
            assert_eq!(by_input[o.input], o.delivered, "case {case}");
        }

        let fired_kind = |kind: &str| faults.iter().flatten().any(|f| f.kind() == kind);
        crashes += usize::from(fired_kind("crash-compute") || fired_kind("crash-upload"));
        retries += usize::from(fr.outcomes().iter().any(|o| o.retries > 0));
        stragglers += usize::from(fired_kind("straggler"));
        deadlines += usize::from(fired);
    }
    // The generator must exercise every resolution path.
    for (what, count) in [
        ("tied compute finishes", ties),
        ("crashes", crashes),
        ("retries", retries),
        ("stragglers", stragglers),
        ("firing deadlines", deadlines),
    ] {
        assert!(count >= 20, "only {count} cases with {what}");
    }
}

/// The channel order, as the tuple sort it replaced: `(compute-finish
/// bits, id, input)` with compute crashes at `u64::MAX`, sorted by
/// `sort_unstable`. Returns the input positions in order.
fn channel_order_by_tuples(
    devices: &[Device],
    freqs: &[Hertz],
    faults: &[Option<DeviceFault>],
) -> Vec<usize> {
    let mut keys: Vec<(u64, DeviceId, usize)> = (0..devices.len())
        .map(|i| {
            let (work, f) = (devices[i].work(), freqs[i]);
            let finish = match faults[i] {
                Some(DeviceFault::CrashCompute { .. }) => u64::MAX,
                Some(DeviceFault::Straggler { slowdown }) => (work / (f * slowdown)).get().to_bits(),
                _ => (work / f).get().to_bits(),
            };
            (finish, devices[i].id(), i)
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|(_, _, i)| i).collect()
}

#[test]
fn channel_order_matches_the_tuple_sort_on_paper_fleet_cohorts() {
    let fleet = crate::population::PopulationBuilder::paper_default()
        .num_devices(5_000)
        .seed(2022)
        .build_fleet()
        .unwrap();
    let payload = Bits::from_megabits(40.0);
    let mut rng = Rng::seed_from_u64(0xc0_4e57);
    let (mut ties, mut kinds) = (0, std::collections::BTreeSet::new());
    for case in 0..120 {
        let n = rng.range_usize(1, 1_500);
        // Half the cohorts repeat ids.
        let span = if case % 2 == 0 { fleet.len() } else { 1 + n / 3 };
        let ids: Vec<DeviceId> = (0..n).map(|_| DeviceId(rng.below(span))).collect();
        let devices = fleet.gather(&ids);
        // Alg. 3's shape: one device at f_max, most clamped to f_min
        // (equal work, so equal finishes), a few in between.
        let freqs: Vec<Hertz> = devices
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let range = d.cpu().range();
                match rng.below(100) {
                    _ if i == 0 => range.max(),
                    0..=2 => Hertz::new(rng.uniform(range.min().get(), range.max().get())),
                    _ => range.min(),
                }
            })
            .collect();
        let faults: Vec<_> = devices.iter().map(|_| gen_fault(&mut rng)).collect();
        kinds.extend(faults.iter().flatten().map(DeviceFault::kind));
        let f_min_run = freqs.iter().filter(|&&f| f == devices[0].cpu().range().min()).count();
        ties += usize::from(f_min_run > 1);

        let fr = FaultedRound::simulate(&devices, &freqs, payload, &faults, None).unwrap();
        let inputs: Vec<usize> = fr.outcomes().iter().map(|o| o.input).collect();
        assert_eq!(inputs, channel_order_by_tuples(&devices, &freqs, &faults), "case {case}");
        let tl = RoundTimeline::simulate(&devices, &freqs, payload).unwrap();
        let inputs: Vec<usize> = tl.activities().iter().map(|o| o.input).collect();
        let healthy = vec![None; n];
        assert_eq!(inputs, channel_order_by_tuples(&devices, &freqs, &healthy), "case {case}");
    }
    assert!(ties > 100, "only {ties} cohorts with an f_min tie run");
    assert_eq!(kinds.len(), 6, "fault kinds drawn: {kinds:?}");
}

fn req(id: usize, finish: f64, dur: f64) -> UploadRequest {
    UploadRequest {
        device: DeviceId(id),
        compute_finish: Seconds::new(finish),
        upload_duration: Seconds::new(dur),
    }
}

fn slot(slots: &[UploadSlot], id: usize) -> UploadSlot {
    *slots.iter().find(|s| s.device == DeviceId(id)).expect("scheduled")
}

#[test]
fn empty_schedule_has_zero_makespan() {
    assert!(schedule_by_value(Vec::new()).is_empty());
    assert_eq!(makespan(&[]), Seconds::ZERO);
}

#[test]
fn single_upload_starts_immediately_after_compute() {
    let s = schedule_by_value(vec![req(0, 2.0, 5.0)]);
    assert_eq!(s[0].upload_start, Seconds::new(2.0));
    assert_eq!(s[0].upload_end, Seconds::new(7.0));
    assert_eq!(s[0].slack(), Seconds::ZERO);
    assert_eq!(makespan(&s), Seconds::new(7.0));
    // The channel idles while device 0 computes.
    let busy = s[0].upload_end - s[0].upload_start;
    assert_eq!(makespan(&s) - busy, Seconds::new(2.0));
}

#[test]
fn fig1_scenario_second_device_waits_for_first_upload() {
    // Fig. 1: user 1 finishes computing first, uploads; user 2
    // finishes during user 1's upload and must wait.
    let s = schedule_by_value(vec![req(1, 2.0, 6.0), req(2, 4.0, 6.0)]);
    let (first, second) = (slot(&s, 1), slot(&s, 2));
    assert_eq!(first.upload_start, Seconds::new(2.0));
    assert_eq!(first.upload_end, Seconds::new(8.0));
    assert_eq!(second.upload_start, Seconds::new(8.0));
    assert_eq!(second.slack(), Seconds::new(4.0));
    assert_eq!(makespan(&s), Seconds::new(14.0));
    let total_slack: Seconds = s.iter().map(UploadSlot::slack).sum();
    assert_eq!(total_slack, Seconds::new(4.0));
}

#[test]
fn service_order_follows_compute_finish_then_id() {
    let s = schedule_by_value(vec![req(0, 10.0, 1.0), req(1, 1.0, 1.0)]);
    assert_eq!((s[0].device, s[1].device), (DeviceId(1), DeviceId(0)));
    // Device 0 finds the channel free at t = 10.
    assert_eq!(s[1].slack(), Seconds::ZERO);
    let s = schedule_by_value(vec![req(5, 3.0, 1.0), req(2, 3.0, 1.0)]);
    assert_eq!((s[0].device, s[1].device), (DeviceId(2), DeviceId(5)));
}

#[test]
fn cascading_waits_accumulate() {
    // Three devices finish at t=0,1,2 but each upload takes 10.
    let s = schedule_by_value(vec![req(0, 0.0, 10.0), req(1, 1.0, 10.0), req(2, 2.0, 10.0)]);
    assert_eq!(slot(&s, 1).slack(), Seconds::new(9.0));
    assert_eq!(slot(&s, 2).slack(), Seconds::new(18.0));
    assert_eq!(makespan(&s), Seconds::new(30.0));
    // The channel never idles once the first upload starts.
    let busy: Seconds = s.iter().map(|s| s.upload_end - s.upload_start).sum();
    assert_eq!(busy, Seconds::new(30.0));
}

fn gen_requests(rng: &mut Rng, min: usize) -> Vec<UploadRequest> {
    let n = rng.range_usize(min, 32);
    (0..n)
        .map(|_| UploadRequest {
            device: DeviceId(rng.below(64)),
            compute_finish: Seconds::new(rng.uniform(0.0, 100.0)),
            upload_duration: Seconds::new(rng.uniform(0.01, 50.0)),
        })
        .collect()
}

/// Uploads never overlap, none starts before its device finished
/// computing, the makespan dominates every device's unconstrained
/// span, and the channel is never busy longer than the makespan.
#[test]
fn tdma_invariants_hold_on_random_requests() {
    let mut rng = Rng::seed_from_u64(0x7d7a_0001);
    for case in 0..256 {
        let reqs = gen_requests(&mut rng, 0);
        let s = schedule_by_value(reqs.clone());
        for pair in s.windows(2) {
            assert!(pair[0].upload_end <= pair[1].upload_start, "case {case}: slots overlap");
        }
        for slot in &s {
            assert!(slot.upload_start >= slot.compute_finish, "case {case}");
            assert!(slot.slack() >= Seconds::ZERO, "case {case}");
        }
        for req in &reqs {
            assert!(
                makespan(&s) >= req.compute_finish + req.upload_duration * 0.999,
                "case {case}: makespan below a device's unconstrained span"
            );
        }
        let busy: Seconds = s.iter().map(|s| s.upload_end - s.upload_start).sum();
        let idle = makespan(&s) - busy;
        assert!(idle >= Seconds::new(-1e-12), "case {case}: busy {busy:?} past the makespan");
    }
}

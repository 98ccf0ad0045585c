//! Test oracle: the id-search round resolution.
//!
//! Before channel slots carried the position of their request,
//! [`RoundTimeline::simulate`] and [`FaultedRound::simulate`] mapped
//! every slot, deadline cut and waste settlement back to its input
//! device by searching the cohort for the slot's [`DeviceId`], an
//! O(N²) round. That resolution survives here, over a TDMA placement
//! that sorts the requests themselves, as the reference the seeded
//! property test below holds the position-based engines to: on cohorts
//! with distinct ids, every activity and outcome must match bit for
//! bit.

use detrand::Rng;

use crate::comm::Uplink;
use crate::cpu::DvfsCpu;
use crate::device::{Device, DeviceId};
use crate::faults::{
    cut_at_deadline, DeviceFault, DeviceOutcome, FaultedRound, Resolved, TransmitWindows,
};
use crate::tdma::{UploadRequest, UploadSlot};
use crate::timeline::{DeviceActivity, RoundTimeline};
use crate::units::{Bits, BitsPerSecond, Hertz, Joules, Seconds, Watts};

/// TDMA placement by sorting the requests by value (finish, then id).
/// The slots' `request` field is not filled in: this oracle resolves by
/// id.
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
                request: usize::MAX,
                compute_finish: req.compute_finish,
                upload_start,
                upload_end,
            }
        })
        .collect()
}

/// [`RoundTimeline::simulate`]'s activities, each slot resolved by
/// searching the cohort for its id.
fn timeline_by_id(devices: &[Device], frequencies: &[Hertz], payload: Bits) -> Vec<DeviceActivity> {
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
            DeviceActivity {
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
    let resolved: Vec<Resolved> = devices
        .iter()
        .zip(frequencies)
        .zip(faults)
        .map(|((dev, &f), fault)| Resolved::new(dev, f, payload, fault.as_ref()).unwrap())
        .collect();
    let requests = devices.iter().zip(&resolved).filter_map(|(d, r)| r.request(d)).collect();
    let index_of = |id: DeviceId| devices.iter().position(|d| d.id() == id).expect("from input");
    let mut outcomes = Vec::new();
    for slot in schedule_by_value(requests) {
        let i = index_of(slot.device);
        let r = &resolved[i];
        let o = r.outcome(i, &devices[i], frequencies[i], faults[i], Some(&slot), payload);
        outcomes.push(o.unwrap());
    }
    let mut crashed: Vec<usize> =
        (0..devices.len()).filter(|&i| resolved[i].profile.is_none()).collect();
    crashed.sort_by_key(|&i| devices[i].id());
    for i in crashed {
        let r = &resolved[i];
        let o = r.outcome(i, &devices[i], frequencies[i], faults[i], None, payload);
        outcomes.push(o.unwrap());
    }
    let natural =
        outcomes.iter().map(DeviceOutcome::release_time).fold(Seconds::ZERO, Seconds::max);
    let fired = deadline.is_some_and(|t| natural > t);
    let round_time = if fired { deadline.unwrap() } else { natural };
    if fired {
        for o in &mut outcomes {
            let i = index_of(o.device);
            let windows = resolved[i].profile.as_ref().map_or(TransmitWindows::NONE, |p| p.windows);
            cut_at_deadline(o, round_time.get(), windows, devices[i].uplink().power());
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
fn bits<T: core::fmt::Debug>(v: &T) -> String {
    format!("{v:?}")
}

#[test]
fn position_resolution_matches_the_id_search_bit_for_bit() {
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
        assert_eq!(
            bits(&tl.activities()),
            bits(&timeline_by_id(&devices, &freqs, payload).as_slice()),
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

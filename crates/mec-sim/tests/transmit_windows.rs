//! Oracle test for `FaultedRound`'s transmit windows.
//!
//! A device's transmissions inside its channel occupation used to be
//! an explicit list of `(offset, len)` pairs. The engine now keeps them
//! as `count` windows of `len` seconds spaced `period` apart, without
//! allocating. That list survives here, with its original arithmetic,
//! as the reference: over seeded cohorts with crashed, retried,
//! exhausted and degraded uploads, and round deadlines placed inside
//! retry transmissions and back-offs, every outcome's compute, upload
//! and wasted energy must match it bit for bit.

use detrand::Rng;
use mec_sim::comm::Uplink;
use mec_sim::cpu::DvfsCpu;
use mec_sim::device::{Device, DeviceId};
use mec_sim::faults::{DeviceFault, DeviceOutcome, FaultedRound};
use mec_sim::units::{Bits, BitsPerSecond, Hertz, Joules, Seconds, Watts};

/// The transmit windows of a device that reaches the channel, as
/// `(offset, len)` pairs relative to the occupation start.
fn segments(dev: &Device, payload: Bits, fault: Option<DeviceFault>) -> Vec<(f64, f64)> {
    let d = dev.upload_delay(payload).get();
    match fault {
        Some(DeviceFault::CrashCompute { .. }) => Vec::new(),
        Some(DeviceFault::CrashUpload { at }) => vec![(0.0, at * d)],
        Some(DeviceFault::UploadRetry { failed_attempts, backoff, exhausted }) => {
            let b = backoff.get();
            let attempts = if exhausted { failed_attempts } else { failed_attempts + 1 };
            (0..attempts).map(|k| (k as f64 * (d + b), d)).collect()
        }
        Some(DeviceFault::ChannelDegradation { gain }) => vec![(0.0, d / gain)],
        Some(DeviceFault::Straggler { .. }) | None => vec![(0.0, d)],
    }
}

/// `(compute, upload, wasted)` energy of `o`, rebuilt from the device,
/// its planned frequency `f`, its fault and the engine's placement,
/// with the deadline cut at `cut` when the deadline fired.
fn oracle_energies(
    dev: &Device,
    f: Hertz,
    payload: Bits,
    fault: Option<DeviceFault>,
    o: &DeviceOutcome,
    cut: Option<f64>,
) -> (Joules, Joules, Joules) {
    let mut compute = match fault {
        Some(DeviceFault::Straggler { slowdown }) => {
            dev.cpu().compute_energy_unchecked(dev.work(), f * slowdown)
        }
        Some(DeviceFault::CrashCompute { at }) => dev.compute_energy(f).unwrap() * at,
        _ => dev.compute_energy(f).unwrap(),
    };
    let segments = segments(dev, payload, fault);
    let power = dev.uplink().power();
    let transmit: f64 = segments.iter().map(|&(_, len)| len).sum();
    let mut upload = if o.uploaded { power * Seconds::new(transmit) } else { Joules::ZERO };
    let mut delivered = !matches!(
        fault,
        Some(DeviceFault::CrashCompute { .. })
            | Some(DeviceFault::CrashUpload { .. })
            | Some(DeviceFault::UploadRetry { exhausted: true, .. })
    );
    if let Some(t) = cut {
        if delivered && o.upload_end.get() > t {
            delivered = false;
        }
        if o.compute_finish.get() > t {
            compute = compute * (t / o.compute_finish.get());
        }
        if o.uploaded && o.upload_end.get() > t {
            let start = o.upload_start.get();
            let transmit_before: f64 = segments
                .iter()
                .map(|&(off, len)| (t.min(start + off + len) - (start + off)).max(0.0))
                .sum();
            upload = power * Seconds::new(transmit_before);
        }
    }
    let wasted = if !delivered {
        compute + upload
    } else if matches!(fault, Some(DeviceFault::UploadRetry { .. })) {
        upload - dev.upload_energy(payload)
    } else {
        Joules::ZERO
    };
    (compute, upload, wasted)
}

fn gen_cohort(rng: &mut Rng) -> (Vec<Device>, Vec<Hertz>) {
    let n = rng.range_usize(1, 16);
    let mut devices = Vec::with_capacity(n);
    let mut freqs = Vec::with_capacity(n);
    for id in rng.sample_indices(1_000, n) {
        let f_max = Hertz::from_ghz(rng.uniform(0.4, 2.0));
        let cpu = DvfsCpu::with_paper_alpha(Hertz::from_ghz(0.3), f_max).unwrap();
        let rate = BitsPerSecond::from_mbps(rng.uniform(1.0, 10.0));
        let uplink = Uplink::new(Watts::new(0.2), rate).unwrap();
        let samples = rng.range_usize(100, 1_000);
        let dev = Device::new(DeviceId(id), cpu, 1.0e7, samples, uplink).unwrap();
        let range = dev.cpu().range();
        freqs.push(Hertz::new(rng.uniform(range.min().get(), range.max().get())));
        devices.push(dev);
    }
    (devices, freqs)
}

/// Every fault class that shapes the transmit windows, upload retries
/// (exhausted and not) twice as often as the rest. Up to 12 windows per
/// device: a window-by-window sum of that many rounds differently from
/// `count × len`, so a reordered sum cannot pass.
fn gen_fault(rng: &mut Rng) -> Option<DeviceFault> {
    match rng.below(8) {
        0 => Some(DeviceFault::CrashCompute { at: rng.uniform(0.05, 1.0) }),
        1 => Some(DeviceFault::CrashUpload { at: rng.uniform(0.05, 0.95) }),
        2 => Some(DeviceFault::Straggler { slowdown: rng.uniform(0.1, 0.9) }),
        3 | 4 => Some(DeviceFault::UploadRetry {
            failed_attempts: rng.range_usize(1, 12) as u32,
            backoff: Seconds::new(rng.uniform(0.0, 3.0)),
            exhausted: rng.below(2) == 0,
        }),
        5 => Some(DeviceFault::ChannelDegradation { gain: rng.uniform(0.2, 0.9) }),
        _ => None,
    }
}

/// A deadline inside one of the retry windows of `o`: part-way through
/// its `k`-th transmission or through the back-off after it.
fn deadline_inside_retries(
    rng: &mut Rng,
    o: &DeviceOutcome,
    payload: Bits,
    dev: &Device,
) -> f64 {
    let Some(DeviceFault::UploadRetry { failed_attempts, backoff, exhausted }) = o.fault else {
        unreachable!("only retrying outcomes are cut inside their windows")
    };
    let d = dev.upload_delay(payload).get();
    let b = backoff.get();
    let k = rng.below(failed_attempts as usize);
    let window = o.upload_start.get() + k as f64 * (d + b);
    // An exhausted device gives up after its last failure: no back-off.
    let backoff_follows = b > 0.0 && !(exhausted && k + 1 == failed_attempts as usize);
    if rng.below(2) == 0 || !backoff_follows {
        window + d * rng.uniform(0.05, 0.95)
    } else {
        window + d + b * rng.uniform(0.05, 0.95)
    }
}

#[test]
fn transmit_windows_match_the_segment_list_bit_for_bit() {
    let payload = Bits::from_megabits(40.0);
    let mut rng = Rng::seed_from_u64(0x7a_115e_9e75);
    let (mut retry_cuts, mut exhausted, mut crash_uploads, mut degraded) = (0, 0, 0, 0);
    for case in 0..600 {
        let (devices, freqs) = gen_cohort(&mut rng);
        let faults: Vec<_> = devices.iter().map(|_| gen_fault(&mut rng)).collect();
        let natural = FaultedRound::simulate(&devices, &freqs, payload, &faults, None).unwrap();
        // No deadline, a never-binding one, one anywhere in the round,
        // and one inside a retry window when some device retried.
        let retrying: Vec<&DeviceOutcome> = natural
            .outcomes()
            .iter()
            .filter(|o| o.uploaded && matches!(o.fault, Some(DeviceFault::UploadRetry { .. })))
            .collect();
        let t = natural.round_time().get();
        let deadline = match rng.below(4) {
            0 => None,
            1 => Some(t * 2.0),
            2 => Some(t * rng.uniform(0.2, 0.95)),
            _ if !retrying.is_empty() => {
                let o = retrying[rng.below(retrying.len())];
                retry_cuts += 1;
                Some(deadline_inside_retries(&mut rng, o, payload, &devices[o.input]))
            }
            _ => Some(t * rng.uniform(0.2, 0.95)),
        };
        let r =
            FaultedRound::simulate(&devices, &freqs, payload, &faults, deadline.map(Seconds::new))
                .unwrap();
        let cut = deadline.filter(|_| r.deadline_fired());
        assert_eq!(cut.is_some(), deadline.is_some_and(|d| d < t), "case {case}: deadline");
        for o in r.outcomes() {
            let i = o.input;
            let (compute, upload, wasted) =
                oracle_energies(&devices[i], freqs[i], payload, faults[i], o, cut);
            let label = format!("case {case}, device {} ({:?}, cut {cut:?})", o.device, o.fault);
            let bits = |j: Joules| j.get().to_bits();
            assert_eq!(bits(o.compute_energy), bits(compute), "{label}: compute");
            assert_eq!(bits(o.upload_energy), bits(upload), "{label}: upload");
            assert_eq!(bits(o.wasted_energy), bits(wasted), "{label}: wasted");
            match o.fault {
                Some(DeviceFault::UploadRetry { exhausted: true, .. }) => exhausted += 1,
                Some(DeviceFault::CrashUpload { .. }) => crash_uploads += 1,
                Some(DeviceFault::ChannelDegradation { .. }) => degraded += 1,
                _ => {}
            }
        }
    }
    // The seeded cases must reach every window shape, or this test
    // proves nothing.
    assert!(retry_cuts >= 50, "only {retry_cuts} deadlines inside retry windows");
    assert!(exhausted >= 50, "only {exhausted} exhausted retries");
    assert!(crash_uploads >= 50, "only {crash_uploads} upload crashes");
    assert!(degraded >= 50, "only {degraded} degraded channels");
}

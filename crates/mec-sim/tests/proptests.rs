//! Property-style tests for the MEC substrate invariants.
//!
//! Formerly backed by the `proptest` crate; rewritten as deterministic
//! seeded case loops over [`detrand::Rng`] so `cargo test` runs fully
//! offline. Each test draws a few hundred random cases from a fixed
//! seed and asserts the same invariants the proptest strategies did —
//! failures are reproducible by construction (the case index is part
//! of every assertion message).

use detrand::Rng;
use mec_sim::comm::Uplink;
use mec_sim::cpu::DvfsCpu;
use mec_sim::device::{Device, DeviceId};
use mec_sim::tdma::{TdmaSchedule, UploadRequest};
use mec_sim::timeline::RoundTimeline;
use mec_sim::units::{Bits, BitsPerSecond, Cycles, Hertz, Seconds, Watts};

const CASES: usize = 256;

fn gen_request(rng: &mut Rng) -> UploadRequest {
    UploadRequest {
        device: DeviceId(rng.below(64)),
        compute_finish: Seconds::new(rng.uniform(0.0, 100.0)),
        upload_duration: Seconds::new(rng.uniform(0.01, 50.0)),
    }
}

fn gen_requests(rng: &mut Rng, min: usize, max: usize) -> Vec<UploadRequest> {
    let n = rng.range_usize(min, max);
    (0..n).map(|_| gen_request(rng)).collect()
}

fn gen_device(rng: &mut Rng) -> Device {
    let id = rng.below(1000);
    let fmax = rng.uniform(0.3000001, 2.0);
    let samples = rng.range_usize(1, 2000);
    let mbps = rng.uniform(0.5, 20.0);
    let cpu = DvfsCpu::with_paper_alpha(Hertz::from_ghz(0.3), Hertz::from_ghz(fmax)).unwrap();
    let uplink = Uplink::new(Watts::new(0.2), BitsPerSecond::from_mbps(mbps)).unwrap();
    Device::new(DeviceId(id), cpu, 1.0e7, samples, uplink).unwrap()
}

/// Uploads never overlap: the channel serves one device at a time.
#[test]
fn tdma_slots_never_overlap() {
    let mut rng = Rng::seed_from_u64(0x7d7a_0001);
    for case in 0..CASES {
        let schedule = TdmaSchedule::new(&gen_requests(&mut rng, 0, 32));
        for pair in schedule.slots().windows(2) {
            assert!(
                pair[0].upload_end <= pair[1].upload_start,
                "case {case}: slots overlap"
            );
        }
    }
}

/// No upload starts before its device finished computing, and the
/// makespan dominates every device's unconstrained span.
#[test]
fn tdma_respects_compute_finish_and_spans() {
    let mut rng = Rng::seed_from_u64(0x7d7a_0002);
    for case in 0..CASES {
        let reqs = gen_requests(&mut rng, 1, 32);
        let schedule = TdmaSchedule::new(&reqs);
        for slot in schedule.slots() {
            assert!(slot.upload_start >= slot.compute_finish, "case {case}");
            assert!(slot.slack() >= Seconds::ZERO, "case {case}");
        }
        for req in &reqs {
            assert!(
                schedule.makespan() >= req.compute_finish + req.upload_duration * 0.999,
                "case {case}: makespan below a device's unconstrained span"
            );
        }
    }
}

/// Channel busy + idle exactly partition the makespan.
#[test]
fn tdma_busy_idle_partition() {
    let mut rng = Rng::seed_from_u64(0x7d7a_0003);
    for case in 0..CASES {
        let schedule = TdmaSchedule::new(&gen_requests(&mut rng, 0, 32));
        let total = schedule.channel_busy() + schedule.channel_idle();
        assert!(
            (total.get() - schedule.makespan().get()).abs() < 1e-9,
            "case {case}: busy+idle != makespan"
        );
        assert!(schedule.channel_idle() >= Seconds::new(-1e-12), "case {case}");
    }
}

/// The deadline-inverting frequency is always inside the supported
/// range, and hitting the ideal (unclamped) case reproduces the
/// deadline exactly.
#[test]
fn frequency_for_deadline_is_always_supported() {
    let mut rng = Rng::seed_from_u64(0x7d7a_0004);
    for case in 0..CASES {
        let fmax = rng.uniform(0.31, 2.0);
        // Log-uniform over five decades of work, like the proptest range.
        let work = 10f64.powf(rng.uniform(6.0, 11.0));
        let deadline = 10f64.powf(rng.uniform(-2.0, 4.0));
        let cpu =
            DvfsCpu::with_paper_alpha(Hertz::from_ghz(0.3), Hertz::from_ghz(fmax)).unwrap();
        let (f, ideal) = cpu.frequency_for_deadline(Cycles::new(work), Seconds::new(deadline));
        assert!(cpu.range().contains(f), "case {case}: clamped frequency out of range");
        if cpu.range().contains(ideal) {
            let t = cpu.compute_delay(Cycles::new(work), f).unwrap();
            assert!(
                (t.get() - deadline).abs() / deadline < 1e-9,
                "case {case}: unclamped inversion missed the deadline"
            );
        }
    }
}

/// Compute energy is strictly increasing in frequency (Eq. 5) while
/// delay is strictly decreasing (Eq. 4).
#[test]
fn energy_delay_tradeoff_is_monotone() {
    let mut rng = Rng::seed_from_u64(0x7d7a_0005);
    for case in 0..CASES {
        let dev = gen_device(&mut rng);
        let range = dev.cpu().range();
        let span = range.span();
        let f_lo = range.min() + span * rng.uniform(0.0, 0.49);
        let f_hi = range.min() + span * rng.uniform(0.51, 1.0);
        assert!(
            dev.compute_energy(f_lo).unwrap() < dev.compute_energy(f_hi).unwrap(),
            "case {case}: energy not increasing in frequency"
        );
        assert!(
            dev.compute_delay(f_lo).unwrap() > dev.compute_delay(f_hi).unwrap(),
            "case {case}: delay not decreasing in frequency"
        );
    }
}

/// Round timelines keep Eq. 10 as a lower bound of the true TDMA
/// makespan, and slack is non-negative everywhere.
#[test]
fn timeline_eq10_lower_bounds_makespan() {
    let mut rng = Rng::seed_from_u64(0x7d7a_0006);
    for case in 0..128 {
        let n = rng.range_usize(1, 12);
        // Re-key ids so they are unique within the round.
        let devs: Vec<Device> = (0..n)
            .map(|i| {
                let d = gen_device(&mut rng);
                Device::new(
                    DeviceId(i),
                    *d.cpu(),
                    d.cycles_per_sample(),
                    d.num_samples(),
                    *d.uplink(),
                )
                .unwrap()
            })
            .collect();
        let payload_mbit = rng.uniform(1.0, 80.0);
        let tl = RoundTimeline::simulate_at_max(&devs, Bits::from_megabits(payload_mbit)).unwrap();
        assert!(
            tl.eq10_bound() <= tl.makespan() + Seconds::new(1e-9),
            "case {case}: Eq. 10 exceeded the true makespan"
        );
        for a in tl.activities() {
            assert!(a.slack() >= Seconds::ZERO, "case {case}: negative slack");
            assert!(a.total_energy().get() > 0.0, "case {case}: non-positive energy");
        }
        let sum: Seconds = tl.activities().iter().map(|a| a.slack()).sum();
        assert!(
            (sum.get() - tl.total_slack().get()).abs() < 1e-9,
            "case {case}: slack sum mismatch"
        );
    }
}

/// Lowering any single device's frequency never reduces that device's
/// compute-finish time and never increases round energy attributable
/// to it.
#[test]
fn slower_device_trades_time_for_energy() {
    let mut rng = Rng::seed_from_u64(0x7d7a_0007);
    for case in 0..CASES {
        let dev = gen_device(&mut rng);
        let range = dev.cpu().range();
        let f = range.min() + range.span() * rng.next_f64();
        let t_max = dev.compute_delay_at_max();
        let t = dev.compute_delay(f).unwrap();
        assert!(t >= t_max - Seconds::new(1e-12), "case {case}");
        let e = dev.compute_energy(f).unwrap();
        let e_max = dev.compute_energy(range.max()).unwrap();
        assert!(e <= e_max * (1.0 + 1e-12), "case {case}");
    }
}

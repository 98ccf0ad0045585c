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
use mec_sim::timeline::RoundTimeline;
use mec_sim::units::{Bits, BitsPerSecond, Hertz, Seconds, Watts};

const CASES: usize = 256;

fn gen_device(rng: &mut Rng) -> Device {
    let id = rng.below(1000);
    let fmax = rng.uniform(0.3000001, 2.0);
    let samples = rng.range_usize(1, 2000);
    let mbps = rng.uniform(0.5, 20.0);
    let cpu = DvfsCpu::with_paper_alpha(Hertz::from_ghz(0.3), Hertz::from_ghz(fmax)).unwrap();
    let uplink = Uplink::new(Watts::new(0.2), BitsPerSecond::from_mbps(mbps)).unwrap();
    Device::new(DeviceId(id), cpu, 1.0e7, samples, uplink).unwrap()
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

//! Pick-for-pick equivalence of [`IndexedDecaySelector`] against the
//! reference [`GreedyDecaySelector`] under adversarial conditions:
//! random heterogeneous populations, shifting targets, mid-run
//! dropouts *and* rejoins (alive-mask churn), delivery-failure
//! refunds, and decay coefficients extreme enough to underflow
//! `η^{A_q}` to exactly zero.
//!
//! Deterministic seeded case loops in the house property-test style —
//! each assertion message carries the case index for reproducibility.

use detrand::Rng;
use fl_sim::selection::{ClientSelector, DeviceSet, SelectionContext, validate_selection};
use helcfl::indexed::IndexedDecaySelector;
use helcfl::selection::GreedyDecaySelector;
use helcfl::utility::{utility, DecayCoefficient};
use mec_sim::channel::RadioEnvironment;
use mec_sim::comm::Uplink;
use mec_sim::cpu::DvfsCpu;
use mec_sim::device::{Device, DeviceId};
use mec_sim::fleet::{AliveMask, Fleet};
use mec_sim::population::Population;
use mec_sim::units::{Bits, BitsPerSecond, Hertz, Seconds, Watts};
use std::collections::BTreeSet;

fn gen_devices(rng: &mut Rng, min: usize, max: usize) -> Vec<Device> {
    let n = rng.range_usize(min, max);
    (0..n).map(|i| gen_device(rng, i)).collect()
}

fn gen_device(rng: &mut Rng, id: usize) -> Device {
    let fmax = rng.uniform(0.3100001, 2.0);
    let samples = rng.range_usize(50, 1500);
    let mbps = rng.uniform(0.5, 15.0);
    let cpu = DvfsCpu::with_paper_alpha(Hertz::from_ghz(0.3), Hertz::from_ghz(fmax)).unwrap();
    let uplink = Uplink::new(Watts::new(0.2), BitsPerSecond::from_mbps(mbps)).unwrap();
    Device::new(DeviceId(id), cpu, 1.0e7, samples, uplink).unwrap()
}

/// A population of `min..max` devices, each a copy of one of
/// `templates`: at most that many distinct `T_q`, so delay ties (and
/// with them equal utilities) are everywhere.
fn gen_tied_devices(rng: &mut Rng, min: usize, max: usize, templates: &[Device]) -> Vec<Device> {
    let n = rng.range_usize(min, max);
    (0..n)
        .map(|i| {
            let t = templates[rng.below(templates.len())];
            Device::new(DeviceId(i), *t.cpu(), t.cycles_per_sample(), t.num_samples(), *t.uplink())
                .unwrap()
        })
        .collect()
}

fn gen_templates(rng: &mut Rng, kinds: usize) -> Vec<Device> {
    (0..kinds).map(|_| gen_device(rng, 0)).collect()
}

/// A copy of `d` whose `T_q` is exactly twice `d`'s: twice the work
/// per sample and half the uplink rate. Scaling by two is exact in
/// IEEE arithmetic, so the doubling holds bit for bit.
fn doubled(d: &Device) -> Device {
    let up = d.uplink();
    let uplink = Uplink::new(up.power(), BitsPerSecond::new(up.rate().get() / 2.0)).unwrap();
    Device::new(d.id(), *d.cpu(), 2.0 * d.cycles_per_sample(), d.num_samples(), uplink).unwrap()
}

/// Drives both selectors through identical masked contexts with churn
/// and refunds, asserting equal picks every round and equal per-id
/// counters at the end.
fn drive_equivalence(rng: &mut Rng, case: usize, eta: DecayCoefficient, rounds: usize) {
    let devices = gen_devices(rng, 5, 40);
    drive(rng, case, eta, rounds, &devices);
}

/// The shared harness over a slice of `devices`, with targets below 9.
fn drive(rng: &mut Rng, case: usize, eta: DecayCoefficient, rounds: usize, devices: &[Device]) {
    drive_set(rng, case, eta, rounds, DeviceSet::from_slice(devices), 9, |_, _| ());
}

/// Churn, targets in `1..max_target` and refunds over `universe`
/// behind an alive mask, with the index's invariants checked after
/// every round; `observe` then sees the selector and the mask.
fn drive_set(
    rng: &mut Rng,
    case: usize,
    eta: DecayCoefficient,
    rounds: usize,
    universe: DeviceSet<'_>,
    max_target: usize,
    mut observe: impl FnMut(&IndexedDecaySelector, &AliveMask),
) {
    let q = universe.universe_len();
    let mut mask = AliveMask::all_alive(q);
    let mut indexed = IndexedDecaySelector::new(eta);
    let mut reference = GreedyDecaySelector::new(eta);
    for round in 1..=rounds {
        // Churn: kill or revive a couple of random devices, keeping at
        // least one alive. Draw count is state-independent so the RNG
        // stream stays aligned across cases.
        for _ in 0..2 {
            let victim = rng.below(q);
            if rng.uniform(0.0, 1.0) < 0.5 {
                if mask.alive_count() > 1 && mask.is_alive(victim) {
                    mask.kill(victim);
                }
            } else if !mask.is_alive(victim) {
                mask.revive(victim);
            }
        }
        let target = rng.range_usize(1, max_target);
        let devices = universe.with_mask(&mask);
        let ctx = SelectionContext { round, devices, payload: Bits::from_megabits(40.0), target };
        let a = indexed.select(&ctx).unwrap();
        let b = reference.select(&ctx).unwrap();
        assert_eq!(a, b, "case {case} round {round} (η = {})", eta.get());
        validate_selection(&ctx, &a)
            .unwrap_or_else(|e| panic!("case {case} round {round}: {e}"));
        // Refund a random subset of the round's picks on both sides.
        let failed: Vec<DeviceId> =
            a.iter().copied().filter(|_| rng.uniform(0.0, 1.0) < 0.25).collect();
        if !failed.is_empty() {
            indexed.on_delivery_failure(&failed);
            reference.on_delivery_failure(&failed);
        }
        indexed.assert_consistent();
        observe(&indexed, &mask);
    }
    let counts = indexed.counters();
    for id in 0..q {
        assert_eq!(
            counts.get(id),
            reference.counters().get(id),
            "case {case} device {id}: counters diverged"
        );
    }
}

/// **The tentpole proof.** 20 random populations × 220 rounds of
/// dropout/rejoin churn, shifting targets, and probabilistic refunds:
/// the indexed selector's picks and counters are identical to the
/// reference's, round for round.
#[test]
fn indexed_matches_reference_under_churn() {
    let mut rng = Rng::seed_from_u64(0x1d00_0001);
    for case in 0..20 {
        let eta = DecayCoefficient::new(rng.uniform(0.05, 0.95)).unwrap();
        drive_equivalence(&mut rng, case, eta, 220);
    }
}

/// Extreme decay coefficients: η small enough that `η^{A_q}` hits
/// exact 0.0 after a handful of appearances (and η close enough to 1
/// that utilities crowd together). No panic, no divergence — zero
/// utilities degrade to deterministic id order on both sides.
#[test]
fn extreme_eta_never_panics_and_stays_equivalent() {
    let mut rng = Rng::seed_from_u64(0x1d00_0002);
    for (case, eta) in
        [1.0e-300, 1.0e-12, 1.0e-3, 0.999_999].into_iter().enumerate()
    {
        let eta = DecayCoefficient::new(eta).unwrap();
        drive_equivalence(&mut rng, case, eta, 200);
    }
}

/// Every device identical: one delay group spans the whole universe,
/// so every bucket's equal-utility run is the bucket itself and picks
/// fall to pure id order within each appearance count.
#[test]
fn identical_devices_stay_equivalent() {
    let mut rng = Rng::seed_from_u64(0x1d00_0003);
    for case in 0..8 {
        let eta = DecayCoefficient::new(rng.uniform(0.05, 0.95)).unwrap();
        let templates = gen_templates(&mut rng, 1);
        let devices = gen_tied_devices(&mut rng, 5, 40, &templates);
        drive(&mut rng, case, eta, 150, &devices);
    }
}

/// A fleet of 5 000 identical devices: one delay group spans the
/// universe, so every group jump gallops over thousands of equal
/// delays, and targets up to 1 500 spread the counts over many buckets.
#[test]
fn identical_fleet_is_one_delay_group() {
    let mut rng = Rng::seed_from_u64(0x1d00_0008);
    let templates = gen_templates(&mut rng, 1);
    let devices = gen_tied_devices(&mut rng, 5_000, 5_001, &templates);
    let population = Population::from_devices(devices, RadioEnvironment::paper_default());
    let fleet = Fleet::from_population(&population).unwrap();
    let eta = DecayCoefficient::new(rng.uniform(0.05, 0.95)).unwrap();
    drive_set(&mut rng, 0, eta, 60, DeviceSet::from_fleet(&fleet), 1_500, |_, _| ());
}

/// At most three distinct delays: long delay groups and walks over
/// several groups. With η = 1/2 and delays `T, 2T, 4T`, utilities also
/// tie exactly *across* buckets (`η^a / 2^k T` depends on `a + k`
/// only), so cross-bucket ties are broken by run minima every round.
#[test]
fn three_delay_populations_stay_equivalent() {
    let mut rng = Rng::seed_from_u64(0x1d00_0004);
    for case in 0..12 {
        let eta = DecayCoefficient::new(rng.uniform(0.05, 0.95)).unwrap();
        let kinds = rng.range_usize(2, 4);
        let templates = gen_templates(&mut rng, kinds);
        let devices = gen_tied_devices(&mut rng, 5, 40, &templates);
        drive(&mut rng, case, eta, 150, &devices);
    }
    let payload = Bits::from_megabits(40.0);
    let half = DecayCoefficient::new(0.5).unwrap();
    for case in 12..20 {
        let t = gen_device(&mut rng, 0);
        let templates = [t, doubled(&t), doubled(&doubled(&t))];
        let delays: Vec<f64> =
            templates.iter().map(|d| d.total_delay_at_max(payload).get()).collect();
        assert_eq!(delays[1], 2.0 * delays[0], "case {case}: doubling is not exact");
        assert_eq!(delays[2], 4.0 * delays[0], "case {case}: doubling is not exact");
        let devices = gen_tied_devices(&mut rng, 5, 40, &templates);
        drive(&mut rng, case, half, 150, &devices);
    }
}

/// η^2 subnormal: utilities of *distinct* delays collapse onto a few
/// representable values, so equal-utility runs span several delay
/// groups and the minimum id often sits past a bucket's head.
#[test]
fn subnormal_utilities_tie_across_delay_groups() {
    let mut rng = Rng::seed_from_u64(0x1d00_0007);
    for (case, eta) in [1.0e-160, 3.0e-161, 1.0e-158].into_iter().enumerate() {
        let eta = DecayCoefficient::new(eta).unwrap();
        let devices = gen_devices(&mut rng, 20, 40);
        drive(&mut rng, case, eta, 200, &devices);
    }
}

/// A copy of `d` whose `T_q` is `d`'s scaled by about `10^decades`:
/// `10^decades` times the work per sample, and the uplink rate divided
/// by it.
fn scaled(d: &Device, decades: f64) -> Device {
    let scale = 10f64.powf(decades);
    let up = d.uplink();
    let uplink = Uplink::new(up.power(), BitsPerSecond::new(up.rate().get() / scale)).unwrap();
    Device::new(d.id(), *d.cpu(), scale * d.cycles_per_sample(), d.num_samples(), uplink)
        .unwrap()
}

/// An aged index: many buckets live at once while the utilities at
/// the top have underflowed into the zero set, under churn and
/// refunds, with picks equal to the reference's and the index's
/// invariants checked after every round.
///
/// Eq. 20 is `u_q = η^{A_q} / T_q = 10^{-35 φ_q}` at `η = 10^-35`,
/// with the potential `φ_q = A_q + log10(T_q) / 35`. Delays spread
/// over 280 decades (`T_q ≈ 10^{±140}` s) put the devices' starting
/// potentials 8 apart, so a round's water level spans 9 counts: 9
/// buckets live at once. Utilities leave the normal range at
/// `φ ≈ 8.8` and underflow to exactly zero past `φ ≈ 9.24`, which the
/// level reaches after about 9 appearances per device, while the
/// buckets below it are still live (19 of the 200 rounds). The rest
/// of the run then drains every device into the zero set.
#[test]
fn aged_index_with_many_buckets_and_a_zero_set_stays_equivalent() {
    let mut rng = Rng::seed_from_u64(0x1d00_0009);
    let eta = DecayCoefficient::new(1.0e-35).unwrap();
    let payload = Bits::from_megabits(40.0);
    let devices: Vec<Device> = (0..3_000)
        .map(|id| scaled(&gen_device(&mut rng, id), rng.uniform(-140.0, 140.0)))
        .collect();
    let delays: Vec<Seconds> = devices.iter().map(|d| d.total_delay_at_max(payload)).collect();
    // Rounds after which the alive devices alone occupy at least 8
    // buckets while at least one of them sits in the zero set.
    let mut aged_rounds = 0;
    let mut most_buckets = 0;
    drive_set(&mut rng, 0, eta, 200, DeviceSet::from_slice(&devices), 400, |indexed, mask| {
        let counts = indexed.counters();
        let mut live = BTreeSet::new();
        let mut zero = 0;
        for q in (0..devices.len()).filter(|&q| mask.is_alive(q)) {
            if utility(eta, counts.get(q), delays[q]) == 0.0 {
                zero += 1;
            } else {
                live.insert(counts.get(q));
            }
        }
        most_buckets = most_buckets.max(live.len());
        if live.len() >= 8 && zero > 0 {
            aged_rounds += 1;
        }
    });
    assert!(aged_rounds >= 10, "{aged_rounds} aged rounds (at most {most_buckets} buckets)");
}

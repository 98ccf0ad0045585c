//! Alg. 2 is water-filling: the production selector checked against
//! one exact law, round by round, on fleet-backed sets.
//!
//! Give each device the potential `φ_q = A_q + ℓ_q`, where `A_q` is
//! its appearance count and `ℓ_q = log_{1/η} T_q` (`T_q` the Eq.-9
//! delay at `f_max`). Then Eq. 20 is `u_q = η^{A_q} / T_q =
//! (1/η)^{-φ_q}`: the highest utility is the lowest potential, and a
//! round picks the `target` lowest potentials and raises each by
//! exactly 1. Let the round's cut `L_t` be the highest potential any
//! pick of round `t` had before its increment. With no refund and no
//! churn, after every round:
//!
//! - (a) `L_t` never falls;
//! - (b) every device has `φ_q ≤ max(ℓ_q, L_t + 1)`;
//! - (c) every device not picked in round `t` has `φ_q ≥ L_t`;
//! - (d) ties at the cut go to the lowest ids: an unpicked device
//!   whose utility equals the lowest picked one exactly has a higher
//!   id than every pick of that utility.
//!
//! (a)–(c) compare potentials computed in the log form, which the
//! selector never evaluates, so they hold up to a tie slack derived
//! below from f64 rounding; (d) compares the selector's own utilities
//! and is exact.
//!
//! ## The tie slack
//!
//! With unit roundoff `ε = 2^-53`, first order in `ε`:
//!
//! - The selector's utility `η^A / T` is `powi` by repeated squaring
//!   (at most `2⌈log2(A + 1)⌉` multiplications) and one division, so
//!   its relative error is at most `e = (2⌈log2(A_max + 1)⌉ + 1) ε`.
//!   Two devices can be ordered against their true utilities only if
//!   those differ by less than `2e` relatively, that is, if their
//!   potentials differ by less than `s_pick = 2e / ln(1/η)`.
//! - The test's `ℓ_q = ln T_q / ln(1/η)` carries two logarithms (each
//!   within one ulp, `2ε`) and a division (`ε`): an absolute error of
//!   at most `5ε · max|ℓ|`. Adding the count to it, or 1 to the cut,
//!   rounds once more: `ε · max|φ|`. So each computed potential is
//!   within `s_log = 5ε · max|ℓ| + 2ε · max|φ|` of the exact one.
//! - A clause compares two computed potentials, one of which may be
//!   the cut: `slack = s_pick + 2 s_log`.
//!
//! `A_max` is bounded by the round count, `max|φ|` by
//! `rounds + max|ℓ|`. The slack holds only while utilities stay
//! normal (a subnormal quotient loses relative precision), so every
//! case first asserts `η^rounds / T_max ≥ f64::MIN_POSITIVE`.

use detrand::Rng;
use fl_sim::selection::{ClientSelector, DeviceSet, SelectionContext};
use helcfl::indexed::IndexedDecaySelector;
use helcfl::utility::{utility, DecayCoefficient};
use mec_sim::channel::RadioEnvironment;
use mec_sim::comm::Uplink;
use mec_sim::device::{Device, DeviceId};
use mec_sim::fleet::Fleet;
use mec_sim::population::{Population, PopulationBuilder};
use mec_sim::units::{Bits, BitsPerSecond};

const PAYLOAD_MBIT: f64 = 40.0;

/// Unit roundoff of f64.
const EPS: f64 = f64::EPSILON / 2.0;

/// The slack of clauses (a)–(c) for a case, from the module docs.
fn tie_slack(eta: f64, rounds: usize, max_abs_level: f64) -> f64 {
    let squarings = (usize::BITS - rounds.leading_zeros()) as f64; // ⌈log2(rounds + 1)⌉
    let e = (2.0 * squarings + 1.0) * EPS;
    let s_pick = 2.0 * e / (1.0 / eta).ln();
    let s_log = 5.0 * EPS * max_abs_level + 2.0 * EPS * (rounds as f64 + max_abs_level);
    s_pick + 2.0 * s_log
}

/// A fleet whose `q` devices are copies of `kinds` templates drawn from
/// the paper's population, ids reassigned; with `doubling`, template
/// `k + 1` has exactly twice template `k`'s delay (twice the samples,
/// half the rate), so at `η = 1/2` utilities tie across counts too.
fn tied_fleet(rng: &mut Rng, q: usize, kinds: usize, doubling: bool) -> Fleet {
    let base = PopulationBuilder::paper_default().num_devices(kinds).seed(rng.next_u64());
    let mut templates = base.build().unwrap().devices().to_vec();
    if doubling {
        for k in 1..kinds {
            let t = templates[k - 1];
            let up = t.uplink();
            let uplink = Uplink::new(up.power(), BitsPerSecond::new(up.rate().get() / 2.0));
            let samples = 2 * t.num_samples();
            templates[k] =
                Device::new(t.id(), *t.cpu(), t.cycles_per_sample(), samples, uplink.unwrap())
                    .unwrap();
        }
    }
    let devices = (0..q)
        .map(|i| {
            let t = templates[rng.below(kinds)];
            Device::new(DeviceId(i), *t.cpu(), t.cycles_per_sample(), t.num_samples(), *t.uplink())
                .unwrap()
        })
        .collect();
    Fleet::from_population(&Population::from_devices(devices, RadioEnvironment::paper_default()))
        .unwrap()
}

/// Drives the production selector over `fleet` for `rounds` at
/// `target`, fault-free, asserting (a)–(d) after every round.
fn check_law(case: usize, fleet: &Fleet, eta: DecayCoefficient, target: usize, rounds: usize) {
    let payload = Bits::from_megabits(PAYLOAD_MBIT);
    let delays: Vec<_> = fleet.delays_at_max(payload).collect();
    let t_max = delays.iter().map(|t| t.get()).fold(0.0, f64::max);
    assert!(
        eta.get().powi(rounds as i32) / t_max >= f64::MIN_POSITIVE,
        "case {case}: utilities would leave the normal range"
    );
    let ln_inv_eta = (1.0 / eta.get()).ln();
    let level: Vec<f64> = delays.iter().map(|t| t.get().ln() / ln_inv_eta).collect();
    let max_abs_level = level.iter().map(|l| l.abs()).fold(0.0, f64::max);
    let slack = tie_slack(eta.get(), rounds, max_abs_level);
    let phi = |counts: &[u32], q: usize| f64::from(counts[q]) + level[q];

    let mut selector = IndexedDecaySelector::new(eta);
    let mut counts = vec![0u32; fleet.len()];
    let mut picked = vec![false; fleet.len()];
    let mut last_cut = f64::NEG_INFINITY;
    for round in 1..=rounds {
        let ctx = SelectionContext { round, devices: DeviceSet::from_fleet(fleet), payload, target };
        let picks = selector.select(&ctx).unwrap();
        let at = |what: &str| format!("case {case} round {round}: {what}");
        let cut = picks.iter().map(|id| phi(&counts, id.0)).fold(f64::NEG_INFINITY, f64::max);
        // (d), on the selector's own utilities before the increment.
        let u = |q: usize| utility(eta, counts[q], delays[q]);
        let u_cut = picks.iter().map(|id| u(id.0)).fold(f64::INFINITY, f64::min);
        let last_tied_pick = picks.iter().filter(|id| u(id.0) == u_cut).map(|id| id.0).max();
        for id in &picks {
            picked[id.0] = true;
        }
        for q in (0..fleet.len()).filter(|&q| !picked[q]) {
            // (c): no unpicked device lay below the cut.
            assert!(phi(&counts, q) >= cut - slack, "{}", at(&format!("(c) device {q}")));
            if u(q) == u_cut {
                assert!(Some(q) > last_tied_pick, "{}", at(&format!("(d) device {q}")));
            }
        }
        for id in &picks {
            counts[id.0] += 1;
            picked[id.0] = false;
        }
        // (a) and (b).
        assert!(cut >= last_cut - slack, "{}", at(&format!("(a) cut {cut} < {last_cut}")));
        last_cut = cut;
        for (q, &l) in level.iter().enumerate() {
            let bound = l.max(cut + 1.0);
            assert!(phi(&counts, q) <= bound + slack, "{}", at(&format!("(b) device {q}")));
        }
    }
    let held = selector.counters();
    for (q, &a) in counts.iter().enumerate() {
        assert_eq!(held.get(q), a, "case {case}: device {q}'s count");
    }
}

/// Fleets drawn from the paper's population (every delay distinct) at
/// sizes up to 10^5, with η and the target drawn per case.
#[test]
fn distinct_delay_fleets_fill_like_water() {
    let mut rng = Rng::seed_from_u64(0x3a7e_0001);
    for (case, (q, rounds)) in
        [(100, 200), (1_000, 150), (10_000, 60), (100_000, 12)].into_iter().enumerate()
    {
        let fleet = PopulationBuilder::paper_default()
            .num_devices(q)
            .seed(rng.next_u64())
            .build_fleet()
            .unwrap();
        let eta = DecayCoefficient::new(rng.uniform(0.05, 0.95)).unwrap();
        let target = rng.range_usize(1, q / 4);
        check_law(case, &fleet, eta, target, rounds);
    }
}

/// Fleets of a few delays, so equal utilities meet at the cut every
/// round: within a count, and with `η = 1/2` and doubling delays also
/// across counts.
#[test]
fn tied_fleets_fill_like_water_and_break_ties_by_id() {
    let mut rng = Rng::seed_from_u64(0x3a7e_0002);
    for case in 0..6 {
        let doubling = case >= 3;
        let (q, kinds) = (rng.range_usize(50, 2_000), rng.range_usize(1, 4));
        let fleet = tied_fleet(&mut rng, q, kinds, doubling);
        let eta = if doubling {
            DecayCoefficient::new(0.5).unwrap()
        } else {
            DecayCoefficient::new(rng.uniform(0.05, 0.95)).unwrap()
        };
        let target = rng.range_usize(1, fleet.len() / 4);
        check_law(case, &fleet, eta, target, 120);
    }
}

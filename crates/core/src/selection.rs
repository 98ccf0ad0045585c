//! Algorithm 2 — utility-driven, greedy-decay user selection, written
//! literally: the reference oracle.
//!
//! Production runs select through
//! [`IndexedDecaySelector`](crate::indexed::IndexedDecaySelector),
//! which [`Helcfl`](crate::framework::Helcfl) uses at every fleet size.
//! [`GreedyDecaySelector`] stays exported because the equivalence
//! tests, the golden tests and the benchmark's mirror check the index
//! against it pick for pick; no production path constructs it.
//!
//! Each round, every user's utility (Eq. 20) is computed from its
//! Eq.-9 delay at maximum frequency and its appearance counter; the
//! top-`N` users by utility are selected and their counters
//! incremented. Fast users dominate early rounds (high efficiency);
//! the geometric decay guarantees slow users — and their data — enter
//! training (high final accuracy), fixing FedCS's accuracy ceiling.
//!
//! State is keyed by [`DeviceId`], not by position, so the selector
//! stays correct when the selectable set shrinks mid-training (e.g.
//! battery-depleted devices dropping out — see
//! [`fl_sim::runner::TrainingConfig::battery_capacity`]).


use fl_sim::error::{FlError, Result};
use fl_sim::selection::{ClientSelector, SelectionContext, SelectorSnapshot};
use helcfl_telemetry::{Class, Telemetry};
use mec_sim::device::DeviceId;
use mec_sim::units::Seconds;

use crate::utility::{utility, AppearanceCounters, DecayCoefficient};

/// The literal Alg. 2 selector: the reference oracle for
/// [`IndexedDecaySelector`](crate::indexed::IndexedDecaySelector),
/// which production runs use instead.
///
/// Stateful across rounds: appearance counters persist for the whole
/// training run. Per-user delays are derived from the resource
/// information users report during initialization (Alg. 1 lines 1–2);
/// since that information is static, deriving it per round is
/// equivalent to Alg. 2's round-1 caching and stays correct under
/// shrinking availability.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyDecaySelector {
    eta: DecayCoefficient,
    counters: AppearanceCounters,
}

impl GreedyDecaySelector {
    /// Creates a selector with decay coefficient `eta`.
    pub fn new(eta: DecayCoefficient) -> Self {
        Self { eta, counters: AppearanceCounters::default() }
    }

    /// The configured decay coefficient.
    #[inline]
    pub fn eta(&self) -> DecayCoefficient {
        self.eta
    }

    /// The appearance counters accumulated so far (indexed by
    /// [`DeviceId`]).
    #[inline]
    pub fn counters(&self) -> &AppearanceCounters {
        &self.counters
    }
}

impl Default for GreedyDecaySelector {
    fn default() -> Self {
        Self::new(DecayCoefficient::default())
    }
}

impl GreedyDecaySelector {
    fn select_inner(
        &mut self,
        ctx: &SelectionContext<'_>,
        tele: &Telemetry,
    ) -> Result<Vec<DeviceId>> {
        if ctx.devices.is_empty() {
            return Err(FlError::InvalidSelection { reason: "no devices to select".into() });
        }
        // Alg. 2 lines 1–7: counters start at zero for newly-seen ids.
        let max_id = ctx.devices.iter().map(|d| d.id().0).max().expect("non-empty");
        self.counters.grow_to(max_id + 1);
        let n = ctx.target.min(ctx.devices.len()).max(1);

        // Alg. 2 lines 8–10: utilities of every selectable user.
        let mut scored: Vec<(DeviceId, f64)> = ctx
            .devices
            .iter()
            .map(|d| {
                let delay: Seconds = ctx.total_delay_at_max(&d);
                (d.id(), utility(self.eta, self.counters.get(d.id().0), delay))
            })
            .collect();
        // Lines 14–19: greedily take the top-N by utility (descending,
        // ties by id for determinism) — equivalent to N arg-max passes
        // over V'. (utility desc, id asc) is a strict total order over
        // distinct ids, so partitioning the top N with select_nth and
        // sorting only that prefix yields exactly the full sort's first
        // N entries in the same order, at O(Q + N log N) instead of
        // O(Q log Q).
        let cmp = |a: &(DeviceId, f64), b: &(DeviceId, f64)| {
            b.1.partial_cmp(&a.1)
                .expect("utilities are finite")
                .then_with(|| a.0.cmp(&b.0))
        };
        if n < scored.len() {
            scored.select_nth_unstable_by(n - 1, cmp);
            scored.truncate(n);
        }
        scored.sort_by(cmp);
        let mut selected = Vec::with_capacity(n);
        let eta = self.eta.get();
        for &(id, _) in scored.iter().take(n) {
            if tele.is_enabled() {
                // The Eq.-20 decay factor α_q = η^{A_q} this pick was
                // made under (before the increment below) — its
                // distribution shows the greedy-decay rotation at work.
                let alpha = eta.powi(self.counters.get(id.0) as i32);
                tele.record(Class::Sim, "selection.alpha", alpha);
            }
            self.counters.increment(id.0); // line 18: utility decay
            selected.push(id);
        }
        if tele.is_enabled() {
            tele.with_metrics(|m| {
                m.counter_add(Class::Sim, "selection.rounds", 1);
                m.counter_add(Class::Sim, "selection.selected", selected.len() as u64);
                m.gauge_set(Class::Sim, "selection.coverage", self.counters.coverage() as f64);
            });
        }
        Ok(selected)
    }
}

impl ClientSelector for GreedyDecaySelector {
    fn name(&self) -> &'static str {
        "helcfl"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> Result<Vec<DeviceId>> {
        self.select_inner(ctx, &Telemetry::disabled())
    }

    fn select_traced(
        &mut self,
        ctx: &SelectionContext<'_>,
        tele: &Telemetry,
    ) -> Result<Vec<DeviceId>> {
        self.select_inner(ctx, tele)
    }

    fn on_delivery_failure(&mut self, failed: &[DeviceId]) {
        // Refund semantics (see `DegradationPolicy`): a user that was
        // selected but never delivered gets its Alg. 2 line-18 decay
        // rolled back, so Eq. 20 keeps treating it as under-served
        // rather than penalizing it for a failure it didn't choose.
        for id in failed {
            if id.0 < self.counters.len() {
                self.counters.decrement(id.0);
            }
        }
    }

    fn snapshot(&self) -> SelectorSnapshot {
        SelectorSnapshot {
            counters_len: self.counters.len(),
            counters: self.counters.to_sparse(),
            rng_state: None,
        }
    }

    fn restore(&mut self, snap: &SelectorSnapshot) -> Result<()> {
        if snap.rng_state.is_some() {
            return Err(FlError::InvalidConfig {
                field: "selector_snapshot",
                reason: "helcfl selector carries no RNG but the checkpoint has RNG state"
                    .into(),
            });
        }
        if let Some(&(q, _)) = snap.counters.iter().find(|&&(q, _)| q >= snap.counters_len) {
            return Err(FlError::InvalidConfig {
                field: "selector_snapshot",
                reason: format!(
                    "appearance counter for device {q} exceeds counters_len {}",
                    snap.counters_len
                ),
            });
        }
        self.counters = AppearanceCounters::from_sparse(snap.counters_len, &snap.counters);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_sim::selection::validate_selection;
    use mec_sim::device::Device;
    use mec_sim::population::PopulationBuilder;
    use mec_sim::units::Bits;

    fn ctx<'a>(devices: &'a [Device], target: usize) -> SelectionContext<'a> {
        SelectionContext { round: 1, devices: devices.into(), payload: Bits::from_megabits(40.0), target }
    }

    #[test]
    fn first_round_picks_the_fastest_users() {
        let pop = PopulationBuilder::paper_default().num_devices(20).seed(5).build().unwrap();
        let mut sel = GreedyDecaySelector::default();
        let c = ctx(pop.devices(), 5);
        let picked = sel.select(&c).unwrap();
        validate_selection(&c, &picked).unwrap();
        // Compare against explicit fastest-5.
        let mut by_delay: Vec<_> = pop.devices().iter().collect();
        by_delay.sort_by(|a, b| {
            c.total_delay_at_max(a).partial_cmp(&c.total_delay_at_max(b)).unwrap()
        });
        let fastest: Vec<_> = by_delay.iter().take(5).map(|d| d.id()).collect();
        assert_eq!(picked, fastest);
    }

    #[test]
    fn appearance_decay_rotates_users_in() {
        let pop = PopulationBuilder::paper_default().num_devices(30).seed(6).build().unwrap();
        let mut sel = GreedyDecaySelector::new(DecayCoefficient::new(0.5).unwrap());
        let mut all_selected = std::collections::BTreeSet::new();
        for round in 1..=40 {
            let c = SelectionContext {
                round,
                devices: pop.devices().into(),
                payload: Bits::from_megabits(40.0),
                target: 3,
            };
            for id in sel.select(&c).unwrap() {
                all_selected.insert(id);
            }
        }
        // With η = 0.5 and 120 total slots over 30 users, decay must
        // have rotated everyone in at least once.
        assert_eq!(all_selected.len(), 30, "all users should eventually appear");
        assert_eq!(sel.counters().coverage(), 30);
        assert_eq!(sel.counters().total(), 120);
    }

    #[test]
    fn high_eta_rotates_slower_than_low_eta() {
        let pop = PopulationBuilder::paper_default().num_devices(40).seed(7).build().unwrap();
        let coverage_after = |eta: f64, rounds: usize| {
            let mut sel = GreedyDecaySelector::new(DecayCoefficient::new(eta).unwrap());
            for round in 1..=rounds {
                let c = SelectionContext {
                    round,
                    devices: pop.devices().into(),
                    payload: Bits::from_megabits(40.0),
                    target: 4,
                };
                sel.select(&c).unwrap();
            }
            sel.counters().coverage()
        };
        // Closer to 1 = weaker decay = fewer distinct users early on.
        assert!(coverage_after(0.99, 8) <= coverage_after(0.3, 8));
    }

    #[test]
    fn selection_is_deterministic() {
        let pop = PopulationBuilder::paper_default().num_devices(15).seed(8).build().unwrap();
        let run = || {
            let mut sel = GreedyDecaySelector::default();
            let mut out = Vec::new();
            for round in 1..=10 {
                let c = SelectionContext {
                    round,
                    devices: pop.devices().into(),
                    payload: Bits::from_megabits(40.0),
                    target: 2,
                };
                out.push(sel.select(&c).unwrap());
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn traced_selection_matches_untraced_and_records_alpha() {
        let pop = PopulationBuilder::paper_default().num_devices(10).seed(12).build().unwrap();
        let eta = DecayCoefficient::new(0.5).unwrap();
        let mut plain = GreedyDecaySelector::new(eta);
        let mut traced = GreedyDecaySelector::new(eta);
        let tele = Telemetry::metrics_only();
        for round in 1..=6 {
            let c = SelectionContext {
                round,
                devices: pop.devices().into(),
                payload: mec_sim::units::Bits::from_megabits(40.0),
                target: 3,
            };
            let a = plain.select(&c).unwrap();
            let b = traced.select_traced(&c, &tele).unwrap();
            assert_eq!(a, b, "round {round}: tracing changed the selection");
        }
        let snap = tele.snapshot();
        assert_eq!(snap.counter("selection.rounds"), 6);
        assert_eq!(snap.counter("selection.selected"), 18);
        let alpha = snap.histogram("selection.alpha").unwrap();
        assert_eq!(alpha.count, 18);
        // Round 1 picks all-unseen users: α = η^0 = 1; later rounds see
        // decayed α = 0.5, 0.25, … — never above 1.
        assert_eq!(alpha.max, 1.0);
        assert!(alpha.min < 1.0, "decay never engaged");
        // All selection metrics are deterministic (Sim-class).
        assert_eq!(snap.deterministic().len(), snap.len());
    }

    #[test]
    fn target_larger_than_population_is_capped() {
        let pop = PopulationBuilder::paper_default().num_devices(3).seed(9).build().unwrap();
        let mut sel = GreedyDecaySelector::default();
        let c = ctx(pop.devices(), 10);
        let picked = sel.select(&c).unwrap();
        assert_eq!(picked.len(), 3);
    }

    #[test]
    fn empty_population_is_rejected() {
        let mut sel = GreedyDecaySelector::default();
        let c = ctx(&[], 3);
        assert!(sel.select(&c).is_err());
    }

    #[test]
    fn counters_stay_keyed_by_id_when_devices_drop_out() {
        let pop = PopulationBuilder::paper_default().num_devices(10).seed(10).build().unwrap();
        let mut sel = GreedyDecaySelector::new(DecayCoefficient::new(0.5).unwrap());
        // Round 1 over everyone.
        let full = pop.devices().to_vec();
        let picked = sel.select(&ctx(&full, 4)).unwrap();
        let before: Vec<u32> = (0..10).map(|q| sel.counters().get(q)).collect();
        // Rounds over a filtered set (say, the odd-id devices survive).
        let alive: Vec<Device> =
            pop.devices().iter().filter(|d| d.id().0 % 2 == 1).copied().collect();
        let picked2 = sel.select(&ctx(&alive, 3)).unwrap();
        assert!(picked2.iter().all(|id| id.0 % 2 == 1));
        // Counter increments landed on the right ids.
        for (q, &count_before) in before.iter().enumerate() {
            let expected = count_before + u32::from(picked2.contains(&DeviceId(q)));
            assert_eq!(sel.counters().get(q), expected, "device {q}");
        }
        let _ = picked;
    }

    #[test]
    fn partial_sort_matches_full_sort_pick_for_pick() {
        // Pin the select_nth_unstable_by fast path against the
        // original full-sort oracle across many rounds and targets.
        let pop = PopulationBuilder::paper_default().num_devices(50).seed(21).build().unwrap();
        let eta = DecayCoefficient::new(0.5).unwrap();
        let mut sel = GreedyDecaySelector::new(eta);
        let mut oracle = AppearanceCounters::default();
        for round in 1..=60 {
            let target = 1 + round % 13;
            let c = ctx(pop.devices(), target);
            let picked = sel.select(&c).unwrap();

            // Full-sort oracle over the same counter state.
            oracle.grow_to(50);
            let mut scored: Vec<(DeviceId, f64)> = pop
                .devices()
                .iter()
                .map(|d| {
                    let delay = c.total_delay_at_max(d);
                    (d.id(), utility(eta, oracle.get(d.id().0), delay))
                })
                .collect();
            scored.sort_by(|a, b| {
                b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0))
            });
            let expected: Vec<DeviceId> =
                scored.iter().take(target).map(|&(id, _)| id).collect();
            for &id in &expected {
                oracle.increment(id.0);
            }
            assert_eq!(picked, expected, "round {round} target {target}");
        }
    }

    #[test]
    fn snapshot_restore_replays_identical_future_selections() {
        let pop = PopulationBuilder::paper_default().num_devices(25).seed(13).build().unwrap();
        let mut sel = GreedyDecaySelector::new(DecayCoefficient::new(0.5).unwrap());
        for _ in 0..7 {
            sel.select(&ctx(pop.devices(), 4)).unwrap();
        }
        let snap = sel.snapshot();
        assert_eq!(snap.counters_len, 25);
        assert!(snap.rng_state.is_none());
        let mut resumed = GreedyDecaySelector::new(DecayCoefficient::new(0.5).unwrap());
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.counters(), sel.counters());
        for round in 0..10 {
            let a = sel.select(&ctx(pop.devices(), 4)).unwrap();
            let b = resumed.select(&ctx(pop.devices(), 4)).unwrap();
            assert_eq!(a, b, "round {round} diverged after restore");
        }
        // An image with RNG state or out-of-range ids is refused.
        let mut bad = snap.clone();
        bad.rng_state = Some([1, 2, 3, 4]);
        assert!(sel.restore(&bad).is_err());
        let mut oob = snap.clone();
        oob.counters.push((25, 1));
        assert!(sel.restore(&oob).is_err());
    }

    #[test]
    fn delivery_failure_refunds_the_appearance_charge() {
        let pop = PopulationBuilder::paper_default().num_devices(6).seed(11).build().unwrap();
        let mut sel = GreedyDecaySelector::new(DecayCoefficient::new(0.5).unwrap());
        let picked = sel.select(&ctx(pop.devices(), 3)).unwrap();
        let victim = picked[0];
        assert_eq!(sel.counters().get(victim.0), 1);
        sel.on_delivery_failure(&[victim]);
        assert_eq!(sel.counters().get(victim.0), 0, "charge not refunded");
        // The other picks keep their charge.
        for id in &picked[1..] {
            assert_eq!(sel.counters().get(id.0), 1);
        }
        // A refund for an id the selector has never scored is ignored.
        sel.on_delivery_failure(&[DeviceId(999)]);
        // With the refund, the failed user is selected again next
        // round exactly as if it had never appeared.
        let repicked = sel.select(&ctx(pop.devices(), 3)).unwrap();
        assert!(repicked.contains(&victim), "refunded user lost priority");
    }
}

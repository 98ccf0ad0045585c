//! Classic FL (McMahan et al. \[9\]): uniform random selection of
//! `Q·C` users per round, everyone at maximum frequency.

use detrand::Rng;

use fl_sim::error::{FlError, Result};
use fl_sim::selection::{ClientSelector, SelectionContext, SelectorSnapshot};
use mec_sim::device::DeviceId;

/// The classic FedAvg selector: uniform without replacement.
#[derive(Debug, Clone)]
pub struct RandomSelector {
    rng: Rng,
    name: &'static str,
}

impl RandomSelector {
    /// Creates a seeded random selector.
    pub fn new(seed: u64) -> Self {
        Self { rng: Rng::seed_from_u64(seed), name: "classic" }
    }

    /// Same selection rule under a different reported scheme name
    /// (FEDL reuses Classic FL's selection; see the paper's §VII-B
    /// note that their accuracy curves coincide).
    pub fn with_name(seed: u64, name: &'static str) -> Self {
        Self { rng: Rng::seed_from_u64(seed), name }
    }
}

impl ClientSelector for RandomSelector {
    fn name(&self) -> &'static str {
        self.name
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> Result<Vec<DeviceId>> {
        if ctx.devices.is_empty() {
            return Err(FlError::InvalidSelection { reason: "no devices to select".into() });
        }
        let ids: Vec<DeviceId> = ctx.devices.ids().collect();
        let n = ctx.target.min(ids.len()).max(1);
        let picked = self.rng.sample_indices(ids.len(), n);
        Ok(picked.into_iter().map(|i| ids[i]).collect())
    }

    fn snapshot(&self) -> SelectorSnapshot {
        // The RNG cursor is the selector's only cross-round state: a
        // resumed run must continue the sample sequence, not restart it.
        SelectorSnapshot {
            counters_len: 0,
            counters: Vec::new(),
            rng_state: Some(self.rng.state()),
        }
    }

    fn restore(&mut self, snap: &SelectorSnapshot) -> Result<()> {
        if !snap.counters.is_empty() || snap.counters_len != 0 {
            return Err(FlError::InvalidConfig {
                field: "selector_snapshot",
                reason: format!(
                    "{} selector keeps no appearance counters but the checkpoint has some",
                    self.name
                ),
            });
        }
        let state = snap.rng_state.ok_or_else(|| FlError::InvalidConfig {
            field: "selector_snapshot",
            reason: format!("{} selector needs RNG state and the checkpoint has none", self.name),
        })?;
        self.rng = Rng::from_state(state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_sim::selection::validate_selection;
    use mec_sim::population::PopulationBuilder;
    use mec_sim::units::Bits;

    fn ctx<'a>(devices: &'a [mec_sim::device::Device], target: usize) -> SelectionContext<'a> {
        SelectionContext {
            round: 1,
            devices: devices.into(),
            payload: Bits::from_megabits(40.0),
            target,
        }
    }

    #[test]
    fn selects_target_distinct_users() {
        let pop = PopulationBuilder::paper_default().num_devices(20).seed(1).build().unwrap();
        let mut sel = RandomSelector::new(0);
        let c = ctx(pop.devices(), 5);
        let picked = sel.select(&c).unwrap();
        assert_eq!(picked.len(), 5);
        validate_selection(&c, &picked).unwrap();
    }

    #[test]
    fn selection_varies_across_rounds_but_reproduces_with_seed() {
        let pop = PopulationBuilder::paper_default().num_devices(50).seed(2).build().unwrap();
        let run = |seed: u64| {
            let mut sel = RandomSelector::new(seed);
            (0..10)
                .map(|_| sel.select(&ctx(pop.devices(), 5)).unwrap())
                .collect::<Vec<_>>()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
        // Consecutive rounds differ (w.h.p. for 50 choose 5).
        assert_ne!(a[0], a[1]);
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn covers_population_uniformly_over_many_rounds() {
        let pop = PopulationBuilder::paper_default().num_devices(10).seed(3).build().unwrap();
        let mut sel = RandomSelector::new(4);
        let mut counts = [0usize; 10];
        for _ in 0..400 {
            for id in sel.select(&ctx(pop.devices(), 2)).unwrap() {
                counts[id.0] += 1;
            }
        }
        // 800 slots over 10 users → expect 80 each; allow generous slack.
        assert!(counts.iter().all(|&c| c > 40 && c < 120), "{counts:?}");
    }

    #[test]
    fn renamed_selector_reports_its_scheme() {
        assert_eq!(RandomSelector::with_name(0, "fedl").name(), "fedl");
        assert_eq!(RandomSelector::new(0).name(), "classic");
    }

    #[test]
    fn empty_population_is_rejected() {
        let mut sel = RandomSelector::new(0);
        assert!(sel.select(&ctx(&[], 3)).is_err());
    }

    #[test]
    fn snapshot_restore_continues_the_sample_sequence() {
        let pop = PopulationBuilder::paper_default().num_devices(30).seed(5).build().unwrap();
        let mut sel = RandomSelector::new(11);
        for _ in 0..5 {
            sel.select(&ctx(pop.devices(), 4)).unwrap();
        }
        let snap = sel.snapshot();
        assert!(snap.rng_state.is_some());
        let mut resumed = RandomSelector::new(11);
        resumed.restore(&snap).unwrap();
        for round in 0..10 {
            let a = sel.select(&ctx(pop.devices(), 4)).unwrap();
            let b = resumed.select(&ctx(pop.devices(), 4)).unwrap();
            assert_eq!(a, b, "round {round} diverged after restore");
        }
        // Missing RNG state or stray counters are refused.
        assert!(sel.restore(&SelectorSnapshot::default()).is_err());
        let mut with_counters = snap.clone();
        with_counters.counters_len = 3;
        with_counters.counters = vec![(0, 1)];
        assert!(sel.restore(&with_counters).is_err());
    }
}

//! FedCS (Nishio & Yonetani \[10\]): deadline-constrained greedy
//! selection of users with short training delays.
//!
//! Given a per-round deadline, FedCS walks users in ascending
//! update-and-upload delay and keeps adding them while the estimated
//! TDMA round time fits the deadline — maximizing the *number* of
//! (fast) participants per round. Its weakness, which HELCFL's §V-A
//! analysis targets, is that slow users are **never** selected, so
//! their data never enters training and accuracy plateaus.


use fl_sim::error::{FlError, Result};
use fl_sim::selection::{ClientSelector, SelectionContext};
use helcfl_telemetry::{Class, Telemetry};
use mec_sim::device::{Device, DeviceId};
use mec_sim::units::Seconds;

/// The FedCS selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedCsSelector {
    /// Per-round deadline the TDMA schedule must fit.
    round_deadline: Seconds,
}

impl FedCsSelector {
    /// Creates a FedCS selector with the given per-round deadline.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for a non-positive deadline.
    pub fn new(round_deadline: Seconds) -> Result<Self> {
        if !(round_deadline.get() > 0.0 && round_deadline.is_finite()) {
            return Err(FlError::InvalidConfig {
                field: "round_deadline",
                reason: format!("must be positive, got {round_deadline}"),
            });
        }
        Ok(Self { round_deadline })
    }

    /// The configured per-round deadline.
    #[inline]
    pub fn round_deadline(&self) -> Seconds {
        self.round_deadline
    }

    /// Estimated TDMA round time if `devices` (ascending compute
    /// delay) all participate at `f_max`: compute in parallel, uploads
    /// serialized in compute-finish order.
    fn estimated_round_time(
        devices: &[Device],
        payload: mec_sim::units::Bits,
    ) -> Seconds {
        let mut channel_free = Seconds::ZERO;
        for d in devices {
            let finish = d.compute_delay_at_max();
            let start = finish.max(channel_free);
            channel_free = start + d.upload_delay(payload);
        }
        channel_free
    }
}

impl FedCsSelector {
    fn select_inner(
        &mut self,
        ctx: &SelectionContext<'_>,
        tele: &Telemetry,
    ) -> Result<Vec<DeviceId>> {
        if ctx.devices.is_empty() {
            return Err(FlError::InvalidSelection { reason: "no devices to select".into() });
        }
        // Ascending by total delay (the greedy "short training delays"
        // ordering), ties by id for determinism.
        let mut order: Vec<Device> = ctx.devices.iter().collect();
        order.sort_by(|a, b| {
            ctx.total_delay_at_max(a)
                .partial_cmp(&ctx.total_delay_at_max(b))
                .expect("delays are finite")
                .then_with(|| a.id().cmp(&b.id()))
        });
        let mut chosen: Vec<Device> = Vec::new();
        for candidate in order {
            chosen.push(candidate);
            // Candidates are compute-sorted by total delay, not compute
            // delay; re-sort the tentative set by compute delay for the
            // TDMA estimate.
            let mut tentative = chosen.clone();
            tentative.sort_by(|a, b| {
                a.compute_delay_at_max()
                    .partial_cmp(&b.compute_delay_at_max())
                    .expect("delays are finite")
            });
            if Self::estimated_round_time(&tentative, ctx.payload) > self.round_deadline
                && chosen.len() > 1
            {
                chosen.pop();
                break;
            }
        }
        if tele.is_enabled() {
            // FedCS's accuracy ceiling is visible right here: the gap
            // between admitted and rejected never closes, because the
            // same slow users are rejected every round.
            let admitted = chosen.len() as u64;
            let rejected = ctx.devices.len() as u64 - admitted;
            tele.with_metrics(|m| {
                m.counter_add(Class::Sim, "fedcs.rounds", 1);
                m.counter_add(Class::Sim, "fedcs.admitted", admitted);
                m.counter_add(Class::Sim, "fedcs.rejected", rejected);
            });
        }
        Ok(chosen.into_iter().map(|d| d.id()).collect())
    }
}

impl ClientSelector for FedCsSelector {
    fn name(&self) -> &'static str {
        "fedcs"
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_sim::selection::validate_selection;
    use mec_sim::population::PopulationBuilder;
    use mec_sim::units::Bits;

    fn ctx<'a>(devices: &'a [Device], target: usize) -> SelectionContext<'a> {
        SelectionContext {
            round: 1,
            devices: devices.into(),
            payload: Bits::from_megabits(40.0),
            target,
        }
    }

    #[test]
    fn deadline_must_be_positive() {
        assert!(FedCsSelector::new(Seconds::ZERO).is_err());
        assert!(FedCsSelector::new(Seconds::new(-1.0)).is_err());
        assert!(FedCsSelector::new(Seconds::new(f64::INFINITY)).is_err());
        assert!(FedCsSelector::new(Seconds::new(60.0)).is_ok());
    }

    #[test]
    fn tight_deadline_admits_only_the_fastest_user() {
        let pop = PopulationBuilder::paper_default().num_devices(30).seed(1).build().unwrap();
        let mut sel = FedCsSelector::new(Seconds::new(0.001)).unwrap();
        let c = ctx(pop.devices(), 10);
        let picked = sel.select(&c).unwrap();
        assert_eq!(picked.len(), 1);
        // It is the globally fastest user.
        let fastest = pop
            .devices()
            .iter()
            .min_by(|a, b| {
                c.total_delay_at_max(a).partial_cmp(&c.total_delay_at_max(b)).unwrap()
            })
            .unwrap()
            .id();
        assert_eq!(picked[0], fastest);
    }

    #[test]
    fn loose_deadline_admits_many_users() {
        let pop = PopulationBuilder::paper_default().num_devices(30).seed(2).build().unwrap();
        let mut sel = FedCsSelector::new(Seconds::new(1.0e6)).unwrap();
        let c = ctx(pop.devices(), 10);
        let picked = sel.select(&c).unwrap();
        assert_eq!(picked.len(), 30, "everyone fits an enormous deadline");
        validate_selection(&c, &picked).unwrap();
    }

    #[test]
    fn moderate_deadline_selects_fast_prefix() {
        let pop = PopulationBuilder::paper_default().num_devices(40).seed(3).build().unwrap();
        let c = ctx(pop.devices(), 10);
        let mut sel = FedCsSelector::new(Seconds::new(120.0)).unwrap();
        let picked = sel.select(&c).unwrap();
        assert!(picked.len() > 1 && picked.len() < 40, "got {}", picked.len());
        // Every selected user is faster than every unselected user.
        let selected: std::collections::BTreeSet<_> = picked.iter().copied().collect();
        let max_sel = pop
            .devices()
            .iter()
            .filter(|d| selected.contains(&d.id()))
            .map(|d| c.total_delay_at_max(d).get())
            .fold(0.0, f64::max);
        let min_unsel = pop
            .devices()
            .iter()
            .filter(|d| !selected.contains(&d.id()))
            .map(|d| c.total_delay_at_max(d).get())
            .fold(f64::INFINITY, f64::min);
        assert!(max_sel <= min_unsel);
    }

    #[test]
    fn selection_is_static_across_rounds() {
        // FedCS has no decay: the same fast users every round.
        let pop = PopulationBuilder::paper_default().num_devices(25).seed(4).build().unwrap();
        let mut sel = FedCsSelector::new(Seconds::new(100.0)).unwrap();
        let first = sel.select(&ctx(pop.devices(), 10)).unwrap();
        for _ in 0..5 {
            assert_eq!(sel.select(&ctx(pop.devices(), 10)).unwrap(), first);
        }
    }

    #[test]
    fn empty_population_is_rejected() {
        let mut sel = FedCsSelector::new(Seconds::new(60.0)).unwrap();
        assert!(sel.select(&ctx(&[], 3)).is_err());
    }

    #[test]
    fn traced_selection_matches_untraced_and_counts_admissions() {
        let pop = PopulationBuilder::paper_default().num_devices(40).seed(3).build().unwrap();
        let tele = Telemetry::metrics_only();
        let mut plain = FedCsSelector::new(Seconds::new(120.0)).unwrap();
        let mut traced = FedCsSelector::new(Seconds::new(120.0)).unwrap();
        let a = plain.select(&ctx(pop.devices(), 10)).unwrap();
        let b = traced.select_traced(&ctx(pop.devices(), 10), &tele).unwrap();
        assert_eq!(a, b, "tracing changed the selection");
        let snap = tele.snapshot();
        assert_eq!(snap.counter("fedcs.rounds"), 1);
        assert_eq!(snap.counter("fedcs.admitted"), a.len() as u64);
        assert_eq!(snap.counter("fedcs.rejected"), (40 - a.len()) as u64);
        assert_eq!(snap.deterministic().len(), snap.len());
    }
}

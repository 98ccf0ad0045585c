//! Client-selection strategy interface (Alg. 1, line 4 delegates
//! here) and shared helpers.

use helcfl_telemetry::Telemetry;
use mec_sim::device::{Device, DeviceId};
use mec_sim::fleet::{AliveMask, Fleet};
use mec_sim::units::{Bits, Seconds};

use crate::error::{FlError, Result};

/// The round's selectable device set, abstracted over storage.
///
/// Selectors used to receive a freshly-filtered `&[Device]` every
/// round — O(Q) time and memory before selection even started. A
/// `DeviceSet` instead wraps either a plain slice (tests, small runs)
/// or a compact [`Fleet`] (million-device runs), optionally
/// restricted by an [`AliveMask`], and streams devices on demand.
///
/// **Mask contract:** when a mask is attached, the backing must be the
/// *full* id-ordered population — position `q` holds `DeviceId(q)` —
/// so liveness lookups are O(1) bit tests. Plain unmasked slices may
/// hold arbitrary devices in arbitrary order.
///
/// Iteration always yields devices in backing order with dead devices
/// skipped, which for the full-population contract means ascending id
/// order — exactly the order the old filtered `Vec<Device>` had, so
/// selector outputs are bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct DeviceSet<'a> {
    backing: Backing<'a>,
    mask: Option<&'a AliveMask>,
}

#[derive(Debug, Clone, Copy)]
enum Backing<'a> {
    Slice(&'a [Device]),
    Fleet(&'a Fleet),
}

impl<'a> DeviceSet<'a> {
    /// Wraps a plain device slice (every device selectable).
    pub fn from_slice(devices: &'a [Device]) -> Self {
        Self { backing: Backing::Slice(devices), mask: None }
    }

    /// Wraps a compact fleet (every device selectable).
    pub fn from_fleet(fleet: &'a Fleet) -> Self {
        Self { backing: Backing::Fleet(fleet), mask: None }
    }

    /// Restricts the set to mask-alive devices. The backing must obey
    /// the full-population contract (position `q` ⇔ `DeviceId(q)`) and
    /// the mask must cover it.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from the backing length.
    pub fn with_mask(mut self, mask: &'a AliveMask) -> Self {
        assert_eq!(
            mask.len(),
            self.universe_len(),
            "alive mask must cover the full population"
        );
        self.mask = Some(mask);
        self
    }

    /// Number of selectable (alive) devices.
    pub fn len(&self) -> usize {
        match self.mask {
            Some(mask) => mask.alive_count(),
            None => self.universe_len(),
        }
    }

    /// Whether no device is selectable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of devices in the backing storage, dead ones included.
    /// With the mask contract this equals `max_id + 1`.
    pub fn universe_len(&self) -> usize {
        match self.backing {
            Backing::Slice(devices) => devices.len(),
            Backing::Fleet(fleet) => fleet.len(),
        }
    }

    /// Whether device ids are implicit backing positions (`DeviceId(q)`
    /// at position `q`): true for fleets and for any masked set (the
    /// mask contract requires it). The indexed Alg. 2 selector serves
    /// only such sets: it ranks the universe once, by position.
    pub fn has_implicit_ids(&self) -> bool {
        matches!(self.backing, Backing::Fleet(_)) || self.mask.is_some()
    }

    /// Streams the selectable devices in backing order, skipping dead
    /// ones. Fleet-backed sets reconstruct each `Device` on the fly.
    pub fn iter(&self) -> impl Iterator<Item = Device> + 'a {
        let mask = self.mask;
        let alive = move |q: usize| mask.is_none_or(|m| m.is_alive(q));
        match self.backing {
            Backing::Slice(devices) => Either::A(
                devices.iter().enumerate().filter(move |(q, _)| alive(*q)).map(|(_, d)| *d),
            ),
            Backing::Fleet(fleet) => Either::B(
                (0..fleet.len()).filter(move |q| alive(*q)).map(|q| fleet.device(q)),
            ),
        }
    }

    /// Every device in the backing, ignoring the mask, as its id and its
    /// total delay at `f_max` (Eq. 9) for `payload`, in backing order —
    /// what the indexed Alg. 2 selector ranks once, dead devices
    /// included. A fleet's delays come from its record column
    /// ([`Fleet::delays_at_max`]) with ids at their positions, and equal
    /// [`Device::total_delay_at_max`] bit for bit, as a slice's do.
    pub fn universe_delays(
        &self,
        payload: Bits,
    ) -> impl Iterator<Item = (DeviceId, Seconds)> + 'a {
        match self.backing {
            Backing::Slice(devices) => {
                Either::A(devices.iter().map(move |d| (d.id(), d.total_delay_at_max(payload))))
            }
            Backing::Fleet(fleet) => {
                Either::B(fleet.delays_at_max(payload).enumerate().map(|(q, t)| (DeviceId(q), t)))
            }
        }
    }

    /// Streams the selectable device ids in backing order.
    pub fn ids(&self) -> impl Iterator<Item = DeviceId> + 'a {
        self.iter().map(|d| d.id())
    }

    /// Whether `id` is selectable: O(1) for masked sets, fleets and
    /// slices that hold `DeviceId(q)` at position `q`; otherwise a
    /// linear scan of the slice.
    pub fn contains(&self, id: DeviceId) -> bool {
        if let Some(mask) = self.mask {
            return mask.is_alive(id.0);
        }
        match self.backing {
            Backing::Slice(devices) => {
                devices.get(id.0).is_some_and(|d| d.id() == id)
                    || devices.iter().any(|d| d.id() == id)
            }
            Backing::Fleet(fleet) => id.0 < fleet.len(),
        }
    }
}

impl<'a> From<&'a [Device]> for DeviceSet<'a> {
    fn from(devices: &'a [Device]) -> Self {
        Self::from_slice(devices)
    }
}

impl<'a> From<&'a Fleet> for DeviceSet<'a> {
    fn from(fleet: &'a Fleet) -> Self {
        Self::from_fleet(fleet)
    }
}

/// Minimal two-variant iterator sum type (no external deps).
enum Either<A, B> {
    A(A),
    B(B),
}

impl<A: Iterator<Item = T>, B: Iterator<Item = T>, T> Iterator for Either<A, B> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            Self::A(a) => a.next(),
            Self::B(b) => b.next(),
        }
    }
}

/// Everything a selector may consult when picking the round's users.
#[derive(Debug)]
pub struct SelectionContext<'a> {
    /// 1-based training-iteration index `j`.
    pub round: usize,
    /// The selectable set `V` (alive devices).
    pub devices: DeviceSet<'a>,
    /// Upload payload `C_model` in bits.
    pub payload: Bits,
    /// Requested selection size `N = max(Q·C, 1)`.
    pub target: usize,
}

impl SelectionContext<'_> {
    /// Total update-and-upload delay `T_q` of device `q` at its maximum
    /// frequency (Eq. 9) — the ranking signal of Alg. 2 and FedCS.
    pub fn total_delay_at_max(&self, device: &Device) -> Seconds {
        device.total_delay_at_max(self.payload)
    }
}

/// Durable image of a selector's cross-round state, as captured by
/// [`ClientSelector::snapshot`] and reinstalled by
/// [`ClientSelector::restore`].
///
/// The fields are the union of what the in-tree selectors carry:
/// HELCFL's appearance counters (sparse, since zero counts dominate in
/// large fleets) and the persistent RNG of the random baseline. A
/// stateless selector snapshots to [`SelectorSnapshot::default`] —
/// the empty image — and restores only from it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SelectorSnapshot {
    /// Logical length of the appearance-counter table (0 when unused).
    pub counters_len: usize,
    /// Nonzero appearance counts as ascending `(device id, count)`
    /// pairs.
    pub counters: Vec<(usize, u32)>,
    /// Raw xoshiro256++ state words of a selector-owned RNG, when the
    /// selector has one.
    pub rng_state: Option<[u64; 4]>,
}

impl SelectorSnapshot {
    /// Whether this is the empty image (a stateless selector's state).
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

/// A per-round client-selection strategy.
///
/// Implementations may be stateful across rounds (HELCFL's appearance
/// counters, for example), hence `&mut self`.
pub trait ClientSelector {
    /// Short scheme name used in reports (e.g. `"helcfl"`).
    fn name(&self) -> &'static str;

    /// Picks the users for this round.
    ///
    /// # Errors
    ///
    /// Implementations return [`FlError::InvalidSelection`] when the
    /// context admits no valid selection.
    fn select(&mut self, ctx: &SelectionContext<'_>) -> Result<Vec<DeviceId>>;

    /// Picks the users for this round, with a telemetry handle for
    /// recording selection metrics (`Class::Sim` only, so instrumented
    /// runs stay bit-identical to uninstrumented ones).
    ///
    /// The default implementation ignores telemetry and delegates to
    /// [`ClientSelector::select`]; stateful selectors override this to
    /// expose internals such as HELCFL's utility-decay evolution. The
    /// traced runner always calls this method, so an override is the
    /// only change a selector needs to become observable.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClientSelector::select`].
    fn select_traced(
        &mut self,
        ctx: &SelectionContext<'_>,
        tele: &Telemetry,
    ) -> Result<Vec<DeviceId>> {
        let _ = tele;
        self.select(ctx)
    }

    /// Notifies the selector that `failed` devices were selected this
    /// round but never delivered their update (crash, exhausted
    /// retries, or a missed round deadline).
    ///
    /// The runner calls this only when the degradation policy refunds
    /// failed selections (`charge_failed_selections == false`).
    /// Stateful selectors whose future choices depend on past
    /// selections — HELCFL's appearance counters `α_q` — override this
    /// to roll the charge back; the default is a no-op, which is the
    /// correct "charge" semantics for stateless selectors.
    fn on_delivery_failure(&mut self, failed: &[DeviceId]) {
        let _ = failed;
    }

    /// Captures the selector's cross-round state for a checkpoint.
    ///
    /// The default returns the empty image, which is correct for
    /// stateless selectors; stateful ones (appearance counters, a
    /// persistent RNG) override it so a resumed run replays their
    /// exact future decisions.
    fn snapshot(&self) -> SelectorSnapshot {
        SelectorSnapshot::default()
    }

    /// Reinstalls state captured by [`ClientSelector::snapshot`].
    ///
    /// The default accepts only the empty image: handing stateful data
    /// to a selector that cannot absorb it would silently fork the
    /// run's future from the interrupted one, so it is refused by name
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] when `snap` carries state the
    /// selector has no way to restore.
    fn restore(&mut self, snap: &SelectorSnapshot) -> Result<()> {
        if snap.is_empty() {
            return Ok(());
        }
        Err(FlError::InvalidConfig {
            field: "selector_snapshot",
            reason: format!(
                "selector {:?} is stateless but the checkpoint carries selector state",
                self.name()
            ),
        })
    }
}

/// Validates a selector's output: non-empty, no duplicates, and every
/// id present in the context's device set. O(selected) expected when
/// the set has O(1) membership (masked or fleet-backed).
///
/// # Errors
///
/// Returns [`FlError::InvalidSelection`] naming the first violation in
/// selection order; at one position, a repeat is reported before a
/// missing id.
pub fn validate_selection(ctx: &SelectionContext<'_>, selected: &[DeviceId]) -> Result<()> {
    if selected.is_empty() {
        return Err(FlError::InvalidSelection { reason: "selector returned no users".into() });
    }
    // One in-order scan over an open-addressing probe table of at least
    // 2n slots. A slot holds one past the position of the first entry
    // of its id, or 0 when empty; the multiplicative (Fibonacci) hash
    // spreads runs of nearby ids over the table.
    let bits = (2 * selected.len()).next_power_of_two().trailing_zeros();
    let mut slots = vec![0usize; 1 << bits];
    let wrap = slots.len() - 1;
    for (pos, &id) in selected.iter().enumerate() {
        let mut h = ((id.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize;
        loop {
            match slots[h] {
                0 => {
                    slots[h] = pos + 1;
                    break;
                }
                first if selected[first - 1] == id => {
                    return Err(FlError::InvalidSelection {
                        reason: format!("device {id} selected twice"),
                    });
                }
                _ => h = (h + 1) & wrap,
            }
        }
        if !ctx.devices.contains(id) {
            return Err(FlError::InvalidSelection {
                reason: format!("device {id} is not in the population"),
            });
        }
    }
    Ok(())
}

/// The paper's selection size rule: `N = max(⌊Q·C⌋, 1)` (Alg. 2,
/// line 11).
///
/// # Errors
///
/// Returns [`FlError::InvalidConfig`] unless `0 < fraction ≤ 1`.
pub fn selection_target(num_devices: usize, fraction: f64) -> Result<usize> {
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err(FlError::InvalidConfig {
            field: "fraction",
            reason: format!("must be in (0, 1], got {fraction}"),
        });
    }
    Ok(((num_devices as f64 * fraction) as usize).max(1).min(num_devices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_sim::population::PopulationBuilder;

    fn ctx(devices: &[Device]) -> SelectionContext<'_> {
        SelectionContext {
            round: 1,
            devices: devices.into(),
            payload: Bits::from_megabits(40.0),
            target: 3,
        }
    }

    #[test]
    fn selection_target_follows_paper_rule() {
        assert_eq!(selection_target(100, 0.1).unwrap(), 10);
        assert_eq!(selection_target(100, 0.001).unwrap(), 1);
        assert_eq!(selection_target(5, 1.0).unwrap(), 5);
        assert_eq!(selection_target(7, 0.5).unwrap(), 3);
        assert!(selection_target(100, 0.0).is_err());
        assert!(selection_target(100, 1.5).is_err());
        assert!(selection_target(100, -0.1).is_err());
    }

    #[test]
    fn validate_selection_catches_violations() {
        let pop = PopulationBuilder::paper_default().num_devices(5).build().unwrap();
        let c = ctx(pop.devices());
        assert!(validate_selection(&c, &[]).is_err());
        assert!(validate_selection(&c, &[DeviceId(0), DeviceId(0)]).is_err());
        assert!(validate_selection(&c, &[DeviceId(9)]).is_err());
        assert!(validate_selection(&c, &[DeviceId(0), DeviceId(4)]).is_ok());
    }

    /// The in-order scan `validate_selection` replaced: the reference
    /// for which defect, and which id, a rejection names.
    fn ordered_scan(ctx: &SelectionContext<'_>, selected: &[DeviceId]) -> Result<()> {
        if selected.is_empty() {
            return Err(FlError::InvalidSelection { reason: "selector returned no users".into() });
        }
        let mut seen = std::collections::BTreeSet::new();
        for id in selected {
            if !seen.insert(*id) {
                return Err(FlError::InvalidSelection {
                    reason: format!("device {id} selected twice"),
                });
            }
            if !ctx.devices.contains(*id) {
                return Err(FlError::InvalidSelection {
                    reason: format!("device {id} is not in the population"),
                });
            }
        }
        Ok(())
    }

    #[test]
    fn validate_selection_names_the_first_defect_in_selection_order() {
        let pop = PopulationBuilder::paper_default().num_devices(8).build().unwrap();
        let c = ctx(pop.devices());
        let ids = |raw: &[usize]| raw.iter().map(|&i| DeviceId(i)).collect::<Vec<_>>();
        let reason = |raw: &[usize]| validate_selection(&c, &ids(raw)).unwrap_err().to_string();
        // Two duplicate pairs and an id outside the population: the
        // first repeat in selection order (v5, not the smaller v2) wins.
        let multi = [5, 2, 5, 9, 2];
        assert!(reason(&multi).contains("device v5 selected twice"), "{}", reason(&multi));
        // The foreign id comes first here.
        assert!(reason(&[3, 9, 3, 1, 1]).contains("device v9 is not in the population"));
        // A foreign id repeated is named as missing at its first
        // occurrence, before its repeat.
        assert!(reason(&[9, 4, 9]).contains("device v9 is not in the population"));
        let agree = |c: &SelectionContext<'_>, raw: &[usize], case: &str| {
            let (fast, slow) = (validate_selection(c, &ids(raw)), ordered_scan(c, &ids(raw)));
            assert_eq!(fast.map_err(|e| e.to_string()), slow.map_err(|e| e.to_string()), "{case}");
        };
        // Seeded sweep against the in-order scan.
        let mut rng = detrand::Rng::seed_from_u64(0x5e1e_c7ed);
        for case in 0..2_000 {
            let n = rng.range_usize(1, 12);
            let raw: Vec<usize> = (0..n).map(|_| rng.below(11)).collect();
            agree(&c, &raw, &format!("case {case}: {raw:?}"));
        }
        // Wide selections from a larger fleet: duplicate-free, a repeat
        // or a foreign id last.
        let big = PopulationBuilder::paper_default().num_devices(3_000).build().unwrap();
        let c = ctx(big.devices());
        for case in 0..200 {
            let n = rng.range_usize(1, 2_001);
            let mut raw: Vec<usize> = (0..3_000).collect();
            rng.shuffle(&mut raw);
            raw.truncate(n);
            agree(&c, &raw, &format!("wide case {case}: duplicate-free, n {n}"));
            let mut last_repeat = raw.clone();
            last_repeat.push(raw[rng.below(n)]);
            agree(&c, &last_repeat, &format!("wide case {case}: last entry repeats"));
            let mut last_foreign = raw.clone();
            last_foreign.push(3_000 + rng.below(10));
            agree(&c, &last_foreign, &format!("wide case {case}: last entry foreign"));
        }
        // 2 000 ids: a repeat first, a repeat last, and a foreign id
        // before a repeat, each also named in full.
        for case in 0..50 {
            let mut raw: Vec<usize> = (0..3_000).collect();
            rng.shuffle(&mut raw);
            raw.truncate(2_000);
            let mut repeat_first = raw.clone();
            repeat_first[1] = raw[0];
            agree(&c, &repeat_first, &format!("2k case {case}: second entry repeats the first"));
            let mut repeat_last = raw.clone();
            repeat_last[1_999] = raw[rng.below(1_999)];
            agree(&c, &repeat_last, &format!("2k case {case}: last entry repeats"));
            let mut foreign_then_repeat = raw.clone();
            let at = rng.range_usize(1, 1_999);
            foreign_then_repeat[at] = 3_000 + rng.below(10);
            foreign_then_repeat[rng.range_usize(at + 1, 2_000)] = raw[rng.below(at)];
            agree(&c, &foreign_then_repeat, &format!("2k case {case}: foreign before repeat"));
            if case == 0 {
                let name = |raw: &[usize]| {
                    validate_selection(&c, &ids(raw)).unwrap_err().to_string()
                };
                let first = format!("device v{} selected twice", raw[0]);
                assert!(name(&repeat_first).contains(&first), "{}", name(&repeat_first));
                let last = format!("device v{} selected twice", repeat_last[1_999]);
                assert!(name(&repeat_last).contains(&last), "{}", name(&repeat_last));
                let foreign = format!("device v{} is not in the population", foreign_then_repeat[at]);
                assert!(name(&foreign_then_repeat).contains(&foreign));
            }
        }
    }

    #[test]
    fn context_exposes_eq9_delay() {
        let pop = PopulationBuilder::paper_default().num_devices(3).build().unwrap();
        let c = ctx(pop.devices());
        let d = &pop.devices()[0];
        assert_eq!(
            c.total_delay_at_max(d),
            d.compute_delay_at_max() + d.upload_delay(c.payload)
        );
    }

    #[test]
    fn slice_set_iterates_in_order_and_checks_membership() {
        let pop = PopulationBuilder::paper_default().num_devices(6).build().unwrap();
        let set = DeviceSet::from_slice(pop.devices());
        assert_eq!(set.len(), 6);
        assert!(!set.is_empty());
        assert!(!set.has_implicit_ids());
        let ids: Vec<usize> = set.ids().map(|id| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert!(set.contains(DeviceId(5)));
        assert!(!set.contains(DeviceId(6)));
    }

    #[test]
    fn slice_membership_holds_when_ids_are_not_positions() {
        let pop = PopulationBuilder::paper_default().num_devices(4).build().unwrap();
        let renumbered = |d: &Device, id: usize| {
            Device::new(DeviceId(id), *d.cpu(), d.cycles_per_sample(), d.num_samples(), *d.uplink())
                .unwrap()
        };
        // Position 1 holds id 0 and position 0 holds id 7: the
        // positional shortcut misses both, the scan finds them. Id 2
        // sits at its own position; ids 1 and 3 are absent although
        // their positions exist.
        let d = pop.devices();
        let devices = [renumbered(&d[0], 7), renumbered(&d[1], 0), d[2], renumbered(&d[3], 9)];
        let set = DeviceSet::from_slice(&devices);
        for (id, expected) in
            [(0, true), (1, false), (2, true), (3, false), (7, true), (9, true), (4, false)]
        {
            assert_eq!(set.contains(DeviceId(id)), expected, "id {id}");
        }
    }

    #[test]
    fn masked_set_skips_dead_devices() {
        let pop = PopulationBuilder::paper_default().num_devices(6).build().unwrap();
        let mut mask = AliveMask::all_alive(6);
        mask.kill(1);
        mask.kill(4);
        let set = DeviceSet::from_slice(pop.devices()).with_mask(&mask);
        assert_eq!(set.len(), 4);
        assert!(set.has_implicit_ids());
        let ids: Vec<usize> = set.ids().map(|id| id.0).collect();
        assert_eq!(ids, vec![0, 2, 3, 5]);
        assert!(!set.contains(DeviceId(1)));
        assert!(set.contains(DeviceId(2)));
        // The universe still exposes everything.
        assert_eq!(set.universe_len(), 6);
        assert_eq!(set.universe_delays(Bits::from_megabits(40.0)).count(), 6);
    }

    /// `universe_delays` prices every position of every backing like
    /// the device there, bit for bit, whatever the mask says.
    #[test]
    fn universe_delays_match_every_device_of_every_backing() {
        let builder = PopulationBuilder::paper_default().num_devices(500).seed(17);
        let pop = builder.build().unwrap();
        let fleet = builder.build_fleet().unwrap();
        let compacted = Fleet::from_population(&pop).unwrap();
        let mut mask = AliveMask::all_alive(500);
        for q in (0..500).step_by(3) {
            mask.kill(q);
        }
        let payload = Bits::from_megabits(40.0);
        let sets = [
            DeviceSet::from_fleet(&fleet),
            DeviceSet::from_fleet(&compacted),
            DeviceSet::from_fleet(&fleet).with_mask(&mask),
            DeviceSet::from_slice(pop.devices()),
            DeviceSet::from_slice(pop.devices()).with_mask(&mask),
        ];
        for (k, set) in sets.iter().enumerate() {
            let delays: Vec<(DeviceId, Seconds)> = set.universe_delays(payload).collect();
            assert_eq!(delays.len(), 500, "set {k}");
            for (q, (id, t)) in delays.into_iter().enumerate() {
                let d = pop.devices()[q];
                assert_eq!(id, d.id(), "set {k} position {q}");
                let want = d.total_delay_at_max(payload).get().to_bits();
                assert_eq!(t.get().to_bits(), want, "set {k} position {q}");
            }
        }
        // A slice in another order yields its own ids in that order.
        let reversed: Vec<Device> = pop.devices().iter().rev().copied().collect();
        let ids: Vec<DeviceId> =
            DeviceSet::from_slice(&reversed).universe_delays(payload).map(|(id, _)| id).collect();
        assert_eq!(ids, reversed.iter().map(Device::id).collect::<Vec<_>>());
    }

    #[test]
    fn fleet_set_matches_slice_set() {
        let builder = PopulationBuilder::paper_default().num_devices(5).seed(3);
        let pop = builder.build().unwrap();
        let fleet = builder.build_fleet().unwrap();
        let slice_set = DeviceSet::from_slice(pop.devices());
        let fleet_set = DeviceSet::from_fleet(&fleet);
        assert!(fleet_set.has_implicit_ids());
        let a: Vec<Device> = slice_set.iter().collect();
        let b: Vec<Device> = fleet_set.iter().collect();
        assert_eq!(a, b);
        assert!(fleet_set.contains(DeviceId(4)));
        assert!(!fleet_set.contains(DeviceId(5)));
    }

    #[test]
    fn stateless_selector_defaults_snapshot_empty_and_refuse_state() {
        struct TakeFirst;
        impl ClientSelector for TakeFirst {
            fn name(&self) -> &'static str {
                "take_first"
            }
            fn select(&mut self, ctx: &SelectionContext<'_>) -> Result<Vec<DeviceId>> {
                Ok(ctx.devices.ids().take(ctx.target).collect())
            }
        }
        let mut s = TakeFirst;
        let snap = s.snapshot();
        assert!(snap.is_empty());
        // The empty image restores as a no-op.
        assert!(s.restore(&snap).is_ok());
        // Stateful data is refused by name, not silently dropped.
        let stateful = SelectorSnapshot {
            counters_len: 4,
            counters: vec![(1, 2)],
            rng_state: None,
        };
        let err = s.restore(&stateful).unwrap_err();
        assert!(err.to_string().contains("take_first"), "{err}");
    }

    #[test]
    #[should_panic(expected = "alive mask must cover")]
    fn mismatched_mask_is_rejected() {
        let pop = PopulationBuilder::paper_default().num_devices(6).build().unwrap();
        let mask = AliveMask::all_alive(5);
        let _ = DeviceSet::from_slice(pop.devices()).with_mask(&mask);
    }
}

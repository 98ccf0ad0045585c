//! Algorithm 2 as every HELCFL run executes it, at every fleet size —
//! an incremental index over Eq.-20 utilities.
//!
//! The literal reference,
//! [`GreedyDecaySelector`](crate::selection::GreedyDecaySelector),
//! re-scores and sorts the whole population every round: O(Q) utility
//! evaluations plus an O(Q + N log N) partial sort. That is fine at
//! the paper's Q = 100 and ruinous at Q = 10^7. This module keeps the
//! scoring *factored* instead: Eq. 20 is `u_q = η^{A_q} / T_q` where
//! `T_q` (the Eq.-9 delay at `f_max`) is static for the whole run, so
//! every known device is *ranked* once by `(T_q, id)` and devices are
//! bucketed by their appearance counter `A_q`, each bucket a bitset
//! over ranks. Within a bucket the η^{A_q} factor is a shared
//! constant, so the bucket's *head* (first set rank, minimum delay) is
//! its maximum-utility member — a round's top-N is a k-way merge across
//! bucket heads with the lazy α_q = η^{A_q} decay applied on pop.
//! Counter increments and `on_delivery_failure` refunds are O(1) bit
//! moves between buckets; nothing is ever rescanned.
//!
//! ## Exactness
//!
//! The index reproduces the reference selector *pick for pick, bit for
//! bit*:
//!
//! - utilities are evaluated through the same [`utility`] function, so
//!   float behavior is byte-identical;
//! - IEEE division is monotone in the divisor, so for a fixed bucket
//!   the minimum-delay entry really is an arg-max of `u`;
//! - equal utilities break ties by ascending id, exactly like the
//!   reference sort: ranks order equal delays by id, equal-`u` entries
//!   within a bucket form a contiguous run of delay groups walked by
//!   jumping from each group's end to the next set rank, cross-bucket
//!   ties compare the per-bucket run minima, and fully-underflowed
//!   utilities (`η^{A_q} == 0.0`) live in a dedicated id-ordered set;
//! - a popped winner is *not* re-inserted until the round's merge
//!   completes, mirroring the reference's frozen round-start
//!   utilities.
//!
//! Like the reference (and Alg. 2's initialization phase), per-device
//! delays are collected at first sight and assumed static thereafter.
//! Ranks are rebuilt, with one sort of the newcomers and a linear
//! merge, whenever the universe admits new ids; fleet- and mask-backed
//! runs admit every id in round 1 and never again.
//!
//! Devices that disappear from the selectable set (battery depletion)
//! are parked when popped and re-inserted if they ever return; their
//! counts are untouched, preserving the reference's id-keyed
//! semantics under dropout and rejoin.
//!
//! ## Where the counts live
//!
//! Every appearance count `A_q` is stored exactly once. For each id
//! the index knows — placed in a bucket, parked, or in the zero set —
//! the count sits in the index's rank-ordered count column, beside the
//! delay and id the merge already reads, so a pick and its deferred
//! increment touch no by-id table: by id, each pick would cost a
//! random cache and TLB miss. Parked ids and `on_delivery_failure`
//! refunds keep and change their counts in the column, reached through
//! the id's rank. The selector's by-id counters hold only the counts of
//! ids the index has not admitted, such as counts restored from a
//! checkpoint before the first round; admission moves them into the
//! column. Whenever the index is discarded — on a payload change or a
//! refused admission — the column is first written back by id.

use std::collections::{BTreeMap, BTreeSet};

use fl_sim::error::{FlError, Result};
use fl_sim::selection::{ClientSelector, DeviceSet, SelectionContext, SelectorSnapshot};
use helcfl_telemetry::{Class, Telemetry};
use mec_sim::device::DeviceId;
use mec_sim::units::{Bits, Seconds};

use crate::utility::{utility, AppearanceCounters, DecayCoefficient};

/// Where a known device currently lives in the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Never seen; no delay cached.
    Unknown,
    /// In its appearance bucket (or the zero-utility set).
    Placed,
    /// Popped while unselectable; waiting to rejoin.
    Parked,
}

/// Every known device ranked by `(delay_bits, id)`. Positive-finite
/// f64 delays compare identically to their bit patterns, so ranks give
/// exact delay order with ties broken by ascending id. Ranks and group
/// ends fit `u32` because admission refuses ids `>= u32::MAX`.
#[derive(Debug, Clone, Default)]
struct Ranks {
    /// Rank by id; meaningful iff the id's slot is not Unknown.
    rank: Vec<u32>,
    /// Id at each rank.
    id_at: Vec<u32>,
    /// Cached Eq.-9 delay (seconds) at each rank, ascending.
    delay_at: Vec<f64>,
    /// First rank past the run of equal delays each rank belongs to.
    group_end: Vec<u32>,
}

impl Ranks {
    fn len(&self) -> usize {
        self.id_at.len()
    }

    /// Merges `fresh` — `(delay_bits, id)` keys of newly seen ids,
    /// sorted — into the existing rank order; `ids` is the length of
    /// the by-id table.
    fn merged(&self, fresh: &[(u64, u32)], ids: usize) -> Self {
        let total = self.len() + fresh.len();
        let mut id_at = Vec::with_capacity(total);
        let mut delay_at = Vec::with_capacity(total);
        let mut old =
            self.delay_at.iter().zip(&self.id_at).map(|(d, &id)| (d.to_bits(), id)).peekable();
        let mut new = fresh.iter().copied().peekable();
        while let Some((bits, id)) = match (old.peek(), new.peek()) {
            (Some(o), Some(f)) if f < o => new.next(),
            (Some(_), _) => old.next(),
            (None, _) => new.next(),
        } {
            delay_at.push(f64::from_bits(bits));
            id_at.push(id);
        }
        let mut rank = vec![0; ids];
        for (r, &id) in id_at.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        let mut group_end = vec![total as u32; total];
        for r in (0..total.saturating_sub(1)).rev() {
            if delay_at[r].to_bits() == delay_at[r + 1].to_bits() {
                group_end[r] = group_end[r + 1];
            } else {
                group_end[r] = r as u32 + 1;
            }
        }
        Self { rank, id_at, delay_at, group_end }
    }

    fn memory_bytes(&self) -> usize {
        (self.rank.capacity() + self.id_at.capacity() + self.group_end.capacity())
            * core::mem::size_of::<u32>()
            + self.delay_at.capacity() * core::mem::size_of::<f64>()
    }
}

/// A set of ranks as a two-level bitset: one bit per rank in `words`,
/// and one bit per word in `summary`, set iff that word is non-zero.
#[derive(Debug, Clone)]
struct RankSet {
    words: Vec<u64>,
    summary: Vec<u64>,
    len: usize,
    /// No rank below this one is in the set.
    floor: usize,
}

impl RankSet {
    fn new(universe: usize) -> Self {
        let words = universe.div_ceil(64);
        Self {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            len: 0,
            floor: universe,
        }
    }

    fn contains(&self, r: usize) -> bool {
        self.words[r / 64] & (1 << (r % 64)) != 0
    }

    fn insert(&mut self, r: usize) {
        debug_assert!(!self.contains(r), "rank {r} inserted twice");
        let w = r / 64;
        self.words[w] |= 1 << (r % 64);
        self.summary[w / 64] |= 1 << (w % 64);
        self.len += 1;
        self.floor = self.floor.min(r);
    }

    fn remove(&mut self, r: usize) {
        debug_assert!(self.contains(r), "rank {r} removed but absent");
        let w = r / 64;
        self.words[w] &= !(1 << (r % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        self.len -= 1;
    }

    /// The smallest rank `>= from` in the set.
    fn next_from(&self, from: usize) -> Option<usize> {
        let w = from / 64;
        let bits = self.words.get(w)? & (!0 << (from % 64));
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        // The next non-empty word, found through the summary.
        let w = w + 1;
        let mut s = w / 64;
        let mut bits = self.summary.get(s)? & (!0 << (w % 64));
        while bits == 0 {
            s += 1;
            bits = *self.summary.get(s)?;
        }
        let w = s * 64 + bits.trailing_zeros() as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }

    /// The smallest rank in the set, found from the cached floor.
    fn head(&mut self) -> Option<usize> {
        let h = self.next_from(self.floor)?;
        self.floor = h;
        Some(h)
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_from(0), |&r| self.next_from(r + 1))
    }

    fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>()
            + (self.words.capacity() + self.summary.capacity()) * core::mem::size_of::<u64>()
    }
}

/// The bucketed-utility index: every known device ranked by delay, its
/// appearance count by rank, and one rank bitset per appearance count.
#[derive(Debug, Clone)]
struct UtilityIndex {
    payload: Bits,
    slot: Vec<Slot>,
    ranks: Ranks,
    /// Appearance count at each rank, for every known id (placed,
    /// parked or in the zero set); the by-id counters hold none of
    /// these ids' counts.
    count_at: Vec<u32>,
    buckets: BTreeMap<u32, RankSet>,
    /// Ids whose utility underflowed to exactly 0.0 — globally tied,
    /// ordered by id like the reference's tie-break.
    zero: BTreeSet<usize>,
    /// Popped-but-unselectable ids awaiting rejoin.
    parked: Vec<usize>,
}

impl UtilityIndex {
    fn new(payload: Bits) -> Self {
        Self {
            payload,
            slot: Vec::new(),
            ranks: Ranks::default(),
            count_at: Vec::new(),
            buckets: BTreeMap::new(),
            zero: BTreeSet::new(),
            parked: Vec::new(),
        }
    }

    /// Number of known (ranked) ids.
    fn known(&self) -> usize {
        self.ranks.len()
    }

    /// Admits every id of `devices`' universe not seen before: caches
    /// its delay, re-ranks, moves its count out of the by-id
    /// `counters` into the count column, and places it at that count.
    ///
    /// # Errors
    ///
    /// Refuses an id that does not fit the `u32` rank space, before any
    /// rank or count has moved. The index is then half-admitted and
    /// must be discarded.
    fn admit(
        &mut self,
        devices: &DeviceSet<'_>,
        counters: &mut AppearanceCounters,
        eta: DecayCoefficient,
    ) -> Result<()> {
        let mut fresh = Vec::new();
        for d in devices.iter_universe() {
            let id = d.id().0;
            let Some(id32) = u32::try_from(id).ok().filter(|&i| i < u32::MAX) else {
                return Err(FlError::InvalidConfig {
                    field: "devices",
                    reason: format!(
                        "device id {id} does not fit the utility index's u32 ranks \
                         (ids must be below {})",
                        u32::MAX
                    ),
                });
            };
            if id >= self.slot.len() {
                self.slot.resize(id + 1, Slot::Unknown);
            }
            if self.slot[id] == Slot::Unknown {
                // Marked now so a repeated id is admitted once; placed
                // below, once it has a rank.
                self.slot[id] = Slot::Placed;
                fresh.push((d.total_delay_at_max(self.payload).get().to_bits(), id32));
            }
        }
        if fresh.is_empty() {
            return Ok(());
        }
        counters.grow_to(self.slot.len());
        fresh.sort_unstable();
        let merged = self.ranks.merged(&fresh, self.slot.len());
        let old = core::mem::replace(&mut self.ranks, merged);
        // Existing members keep their buckets and counts under their
        // new ranks.
        for set in self.buckets.values_mut() {
            let mut moved = RankSet::new(self.ranks.len());
            for r in set.iter() {
                moved.insert(self.ranks.rank[old.id_at[r] as usize] as usize);
            }
            *set = moved;
        }
        // Only non-zero counts are written, so the zeroed column's
        // untouched pages stay unmapped.
        let mut count_at = vec![0; self.ranks.len()];
        for (r, &a) in self.count_at.iter().enumerate().filter(|&(_, &a)| a != 0) {
            count_at[self.ranks.rank[old.id_at[r] as usize] as usize] = a;
        }
        // The by-id store held counts only for ids unknown until now:
        // the admitted ones move into the column, the rest stay.
        let (admitted, rest): (Vec<_>, Vec<_>) = counters
            .to_sparse()
            .into_iter()
            .partition(|&(q, _)| self.slot.get(q).is_some_and(|&s| s != Slot::Unknown));
        if !admitted.is_empty() {
            for (q, a) in admitted {
                count_at[self.ranks.rank[q] as usize] = a;
            }
            *counters = AppearanceCounters::from_sparse(counters.len(), &rest);
        }
        self.count_at = count_at;
        for &(_, id) in &fresh {
            self.place(self.ranks.rank[id as usize] as usize, eta);
        }
        Ok(())
    }

    /// Writes every non-zero count of the column into `counters` by id
    /// — the by-id view of the counts this index holds.
    fn write_back(&self, counters: &mut AppearanceCounters) {
        for (r, &a) in self.count_at.iter().enumerate().filter(|&(_, &a)| a != 0) {
            counters.set(self.ranks.id_at[r] as usize, a);
        }
    }

    /// Inserts the id at rank `r` into the structure for its
    /// appearance count, recomputing Eq. 20 to decide between a bucket
    /// and the zero set (`powi` is not guaranteed monotone in the
    /// exponent, so membership is always decided fresh). The id's slot
    /// must already read `Placed`.
    fn place(&mut self, r: usize, eta: DecayCoefficient) {
        let a = self.count_at[r];
        if utility(eta, a, Seconds::new(self.ranks.delay_at[r])) == 0.0 {
            self.zero.insert(self.ranks.id_at[r] as usize);
        } else {
            let universe = self.ranks.len();
            self.buckets.entry(a).or_insert_with(|| RankSet::new(universe)).insert(r);
        }
    }

    /// Removes rank `r` from bucket `a`, dropping the bucket once
    /// empty; returns whether the bucket is still live.
    fn pop(&mut self, a: u32, r: usize) -> bool {
        let set = self.buckets.get_mut(&a).expect("placed id has a bucket");
        set.remove(r);
        if set.len == 0 {
            self.buckets.remove(&a);
            return false;
        }
        true
    }

    /// Removes a placed `id` from its bucket or the zero set.
    fn remove_placed(&mut self, id: usize) {
        if !self.zero.remove(&id) {
            let r = self.ranks.rank[id] as usize;
            self.pop(self.count_at[r], r);
        }
    }

    /// Bucket `a`'s candidate for the next pick: its head's utility,
    /// `a`, and the rank of the minimum id among its entries of that
    /// utility.
    fn candidate(
        set: &mut RankSet,
        ranks: &Ranks,
        a: u32,
        eta: DecayCoefficient,
    ) -> (f64, u32, usize) {
        let head = set.head().expect("bucket is never empty");
        let u = utility(eta, a, Seconds::new(ranks.delay_at[head]));
        (u, a, Self::run_min(set, ranks, head, a, eta, u))
    }

    /// Rank of the minimum id among this bucket's entries whose
    /// utility equals the head's (`max_u`). Equal-utility entries
    /// are a contiguous run of delay groups from the head; each group's
    /// first set rank already has the group-minimal id, so the walk
    /// jumps group to group from `group_end`.
    fn run_min(
        set: &RankSet,
        ranks: &Ranks,
        head: usize,
        a: u32,
        eta: DecayCoefficient,
        max_u: f64,
    ) -> usize {
        let mut best = head;
        let mut cur = head;
        while let Some(r) = set.next_from(ranks.group_end[cur] as usize) {
            if utility(eta, a, Seconds::new(ranks.delay_at[r])) != max_u {
                break;
            }
            if ranks.id_at[r] < ranks.id_at[best] {
                best = r;
            }
            cur = r;
        }
        best
    }

    /// Panics unless the buckets agree with the slots and the count
    /// column, and `counters` holds no count of a known id: each
    /// placed, non-zero id's rank is set in exactly the bucket of its
    /// count, bucket populations sum to placed minus zero-set ids, and
    /// no bucket is empty. Holds between rounds.
    fn assert_consistent(&self, counters: &AppearanceCounters) {
        let mut placed = 0;
        for (id, &slot) in self.slot.iter().enumerate() {
            if slot == Slot::Unknown {
                continue;
            }
            assert_eq!(counters.get(id), 0, "known id {id} also counted by id");
            let r = self.ranks.rank[id] as usize;
            assert_eq!(self.ranks.id_at[r] as usize, id, "rank {r} does not map back to id {id}");
            if slot != Slot::Placed {
                assert!(!self.zero.contains(&id), "unplaced id {id} in the zero set");
                continue;
            }
            placed += 1;
            if self.zero.contains(&id) {
                continue;
            }
            let a = self.count_at[r];
            for (&b, set) in &self.buckets {
                assert_eq!(set.contains(r), a == b, "id {id} (count {a}) vs bucket {b}");
            }
        }
        let mut members = 0;
        for (&a, set) in &self.buckets {
            assert!(set.len > 0, "bucket {a} is empty");
            let ones: usize = set.words.iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(ones, set.len, "bucket {a} miscounts its members");
            for (w, &word) in set.words.iter().enumerate() {
                let flagged = set.summary[w / 64] & (1 << (w % 64)) != 0;
                assert_eq!(flagged, word != 0, "bucket {a} summary disagrees at word {w}");
            }
            assert!(set.next_from(0) >= Some(set.floor), "bucket {a} floor above its head");
            members += set.len;
        }
        assert_eq!(members, placed - self.zero.len(), "bucket populations vs placed ids");
    }

    fn memory_bytes(&self) -> usize {
        self.slot.capacity() * core::mem::size_of::<Slot>()
            + self.ranks.memory_bytes()
            + self.count_at.capacity() * core::mem::size_of::<u32>()
            + self.buckets.values().map(RankSet::memory_bytes).sum::<usize>()
            + self.zero.len() * core::mem::size_of::<usize>()
            + self.parked.capacity() * core::mem::size_of::<usize>()
    }
}

/// The production Alg. 2 selector, used by
/// [`Helcfl`](crate::framework::Helcfl) at every fleet size: a drop-in
/// replacement for the reference
/// [`GreedyDecaySelector`](crate::selection::GreedyDecaySelector)
/// backed by the bucketed-utility index — same name (`"helcfl"`), same
/// picks, same telemetry, O(N · B) comparisons of cached bucket
/// candidates per round instead of O(Q log Q).
///
/// # Examples
///
/// ```
/// use fl_sim::selection::{ClientSelector, SelectionContext};
/// use helcfl::indexed::IndexedDecaySelector;
/// use helcfl::selection::GreedyDecaySelector;
/// use mec_sim::population::PopulationBuilder;
/// use mec_sim::units::Bits;
///
/// let pop = PopulationBuilder::paper_default().seed(7).build()?;
/// let mut indexed = IndexedDecaySelector::default();
/// let mut reference = GreedyDecaySelector::default();
/// for round in 1..=20 {
///     let ctx = SelectionContext {
///         round,
///         devices: pop.devices().into(),
///         payload: Bits::from_megabits(40.0),
///         target: 10,
///     };
///     assert_eq!(indexed.select(&ctx)?, reference.select(&ctx)?);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct IndexedDecaySelector {
    eta: DecayCoefficient,
    /// Counts of the ids the index has not admitted; the index holds
    /// every other count.
    counters: AppearanceCounters,
    /// Incremental mirror of `counters().coverage()` so the telemetry
    /// gauge costs O(1), not an O(Q) scan.
    coverage: usize,
    index: Option<UtilityIndex>,
}

impl IndexedDecaySelector {
    /// Creates a selector with decay coefficient `eta`.
    pub fn new(eta: DecayCoefficient) -> Self {
        Self { eta, counters: AppearanceCounters::default(), coverage: 0, index: None }
    }

    /// The configured decay coefficient.
    #[inline]
    pub fn eta(&self) -> DecayCoefficient {
        self.eta
    }

    /// The appearance counters accumulated so far (indexed by
    /// [`DeviceId`]), built on demand: the index keeps the counts of
    /// the ids it knows in rank order, so this is an owned O(Q) copy
    /// meant for tests and inspection, not for a per-round path.
    pub fn counters(&self) -> AppearanceCounters {
        let mut counters = self.counters.clone();
        if let Some(ix) = &self.index {
            ix.write_back(&mut counters);
        }
        counters
    }

    /// Resident bytes of the selector: the by-id counters of ids the
    /// index has not admitted, the by-id slot and rank tables, the
    /// by-rank id, delay, group-end and appearance-count tables, and
    /// one rank bitset (Q/8 bytes, plus a summary word per 64 words)
    /// per live appearance bucket. Zero-set and parked ids count at
    /// their payload size.
    pub fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>()
            + self.counters.memory_bytes()
            + self.index.as_ref().map_or(0, UtilityIndex::memory_bytes)
    }

    /// Panics unless the utility index agrees with itself, every count
    /// is stored once, and the coverage mirror matches the counts (see
    /// `UtilityIndex::assert_consistent`). A test hook: it holds
    /// between rounds and costs O(Q · buckets).
    #[doc(hidden)]
    pub fn assert_consistent(&self) {
        if let Some(ix) = &self.index {
            ix.assert_consistent(&self.counters);
        }
        assert_eq!(self.coverage, self.counters().coverage(), "coverage mirror");
    }

    /// Drops the index, first writing the counts it holds back by id.
    fn discard_index(&mut self) {
        if let Some(ix) = self.index.take() {
            ix.write_back(&mut self.counters);
        }
    }

    fn select_inner(
        &mut self,
        ctx: &SelectionContext<'_>,
        tele: &Telemetry,
    ) -> Result<Vec<DeviceId>> {
        if ctx.devices.is_empty() {
            return Err(FlError::InvalidSelection { reason: "no devices to select".into() });
        }
        // A payload change invalidates every cached Eq.-9 delay.
        if self.index.as_ref().is_some_and(|ix| ix.payload != ctx.payload) {
            self.discard_index();
        }
        let ix = self.index.get_or_insert_with(|| UtilityIndex::new(ctx.payload));

        // Universe sync: admit newly-seen ids. When ids are implicit
        // backing positions (fleet- or mask-backed sets) and all of
        // them are known, no new id can appear and the scan is skipped
        // entirely — the steady-state rounds of a long run are O(N).
        if !(ctx.devices.has_implicit_ids() && ix.known() == ctx.devices.universe_len()) {
            if let Err(e) = ix.admit(&ctx.devices, &mut self.counters, self.eta) {
                self.discard_index();
                return Err(e);
            }
        }
        // Rejoin: parked devices that are selectable again re-enter
        // their bucket at their (unchanged) appearance count.
        let parked = core::mem::take(&mut ix.parked);
        for id in parked {
            if ctx.devices.contains(DeviceId(id)) {
                ix.slot[id] = Slot::Placed;
                ix.place(ix.ranks.rank[id] as usize, self.eta);
            } else {
                ix.parked.push(id);
            }
        }

        let n = ctx.target.min(ctx.devices.len()).max(1);
        let mut selected = Vec::with_capacity(n);
        let mut won = Vec::with_capacity(n); // ranks of `selected`
        let eta_f = self.eta.get();
        // Each live bucket's candidate, `(u, bucket, run-min rank)`.
        // Winners re-enter only after the merge, so a pick changes only
        // the bucket it popped from: that entry alone is re-evaluated.
        let mut candidates: Vec<(f64, u32, usize)> = ix
            .buckets
            .iter_mut()
            .map(|(&a, set)| UtilityIndex::candidate(set, &ix.ranks, a, self.eta))
            .collect();
        while selected.len() < n {
            // Arg-max utility, equal utilities by ascending id; the
            // id-ordered zero set only matters once every
            // positive-utility entry is gone.
            let best = (0..candidates.len()).reduce(|b, k| {
                let ((bu, _, br), (u, _, r)) = (candidates[b], candidates[k]);
                if u > bu || (u == bu && ix.ranks.id_at[r] < ix.ranks.id_at[br]) {
                    k
                } else {
                    b
                }
            });
            // The winner's id, rank and appearance count: a bucket
            // winner's count is its bucket's.
            let (id, r, a) = match best {
                Some(k) => {
                    let (_, a, r) = candidates[k];
                    if ix.pop(a, r) {
                        let set = ix.buckets.get_mut(&a).expect("bucket is live");
                        candidates[k] = UtilityIndex::candidate(set, &ix.ranks, a, self.eta);
                    } else {
                        candidates.swap_remove(k);
                    }
                    (ix.ranks.id_at[r] as usize, r, a)
                }
                None => match ix.zero.pop_first() {
                    Some(id) => {
                        let r = ix.ranks.rank[id] as usize;
                        (id, r, ix.count_at[r])
                    }
                    None => {
                        return Err(FlError::InvalidSelection {
                            reason: "utility index exhausted before reaching the target"
                                .into(),
                        })
                    }
                },
            };
            if !ctx.devices.contains(DeviceId(id)) {
                ix.slot[id] = Slot::Parked;
                ix.parked.push(id);
                continue;
            }
            if tele.is_enabled() {
                // Same pre-increment α_q = η^{A_q} the reference logs.
                tele.record(Class::Sim, "selection.alpha", eta_f.powi(a as i32));
            }
            if a == 0 {
                self.coverage += 1;
            }
            selected.push(DeviceId(id));
            won.push(r);
        }
        // Deferred increment and re-placement: winners move to bucket
        // A_q + 1 only after the merge, so this round's picks competed
        // on utilities frozen at round start — exactly like the
        // reference's single scored snapshot.
        for &r in &won {
            ix.count_at[r] += 1;
            ix.place(r, self.eta);
        }
        if tele.is_enabled() {
            tele.with_metrics(|m| {
                m.counter_add(Class::Sim, "selection.rounds", 1);
                m.counter_add(Class::Sim, "selection.selected", selected.len() as u64);
                m.gauge_set(Class::Sim, "selection.coverage", self.coverage as f64);
            });
        }
        Ok(selected)
    }
}

impl Default for IndexedDecaySelector {
    fn default() -> Self {
        Self::new(DecayCoefficient::default())
    }
}

impl ClientSelector for IndexedDecaySelector {
    /// Same scheme name as the reference selector: histories produced
    /// by either implementation are byte-identical, CSV rows included.
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
        // Same refund semantics and out-of-range guard as the
        // reference. A known id's count lives in the index's column,
        // found through its rank; a placed id also makes an O(1)
        // bucket move.
        for id in failed {
            let q = id.0;
            if q >= self.counters.len() {
                continue;
            }
            let known = self
                .index
                .as_mut()
                .filter(|ix| ix.slot.get(q).is_some_and(|&s| s != Slot::Unknown));
            let before = match known {
                Some(ix) => {
                    let r = ix.ranks.rank[q] as usize;
                    let before = ix.count_at[r];
                    if before == 0 {
                        continue;
                    }
                    let placed = ix.slot[q] == Slot::Placed;
                    if placed {
                        ix.remove_placed(q);
                    }
                    ix.count_at[r] -= 1;
                    if placed {
                        ix.place(r, self.eta);
                    }
                    before
                }
                None => {
                    let before = self.counters.get(q);
                    self.counters.decrement(q);
                    before
                }
            };
            if before == 1 {
                self.coverage -= 1;
            }
        }
    }

    fn snapshot(&self) -> SelectorSnapshot {
        // The counts are the selector's only durable state: the rest
        // of the index derives from them, the payload and the delays,
        // and is rebuilt lazily on the first post-restore round.
        let counters = self.counters();
        SelectorSnapshot {
            counters_len: counters.len(),
            counters: counters.to_sparse(),
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
        self.coverage = self.counters.coverage();
        self.index = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::GreedyDecaySelector;
    use fl_sim::selection::validate_selection;
    use mec_sim::population::PopulationBuilder;

    fn ctx(devices: &[mec_sim::device::Device], round: usize, target: usize) -> SelectionContext<'_> {
        SelectionContext {
            round,
            devices: devices.into(),
            payload: Bits::from_megabits(40.0),
            target,
        }
    }

    #[test]
    fn matches_reference_over_many_rounds() {
        let pop = PopulationBuilder::paper_default().num_devices(40).seed(5).build().unwrap();
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        for round in 1..=120 {
            let c = ctx(pop.devices(), round, 4);
            let a = indexed.select(&c).unwrap();
            let b = reference.select(&c).unwrap();
            assert_eq!(a, b, "round {round}");
            validate_selection(&c, &a).unwrap();
            indexed.assert_consistent();
        }
        for q in 0..40 {
            assert_eq!(indexed.counters().get(q), reference.counters().get(q), "device {q}");
        }
    }

    #[test]
    fn fleet_backed_context_matches_slice_backed() {
        let builder = PopulationBuilder::paper_default().num_devices(30).seed(9);
        let pop = builder.build().unwrap();
        let fleet = builder.build_fleet().unwrap();
        let mut a = IndexedDecaySelector::default();
        let mut b = IndexedDecaySelector::default();
        for round in 1..=50 {
            let slice_ctx = ctx(pop.devices(), round, 5);
            let fleet_ctx = SelectionContext {
                round,
                devices: (&fleet).into(),
                payload: Bits::from_megabits(40.0),
                target: 5,
            };
            assert_eq!(a.select(&slice_ctx).unwrap(), b.select(&fleet_ctx).unwrap());
            a.assert_consistent();
            b.assert_consistent();
        }
    }

    #[test]
    fn empty_population_is_rejected() {
        let mut sel = IndexedDecaySelector::default();
        let c = ctx(&[], 1, 3);
        assert!(sel.select(&c).is_err());
    }

    #[test]
    fn payload_change_rebuilds_the_index() {
        let pop = PopulationBuilder::paper_default().num_devices(20).seed(4).build().unwrap();
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        for round in 1..=30 {
            // Alternate payloads: delays (and hence utilities) differ
            // per payload, and the index must follow, carrying every
            // count (refunds included) across the rebuild.
            let payload =
                if round % 2 == 0 { Bits::from_megabits(40.0) } else { Bits::from_megabits(4.0) };
            let c = SelectionContext {
                round,
                devices: pop.devices().into(),
                payload,
                target: 3,
            };
            let picks = indexed.select(&c).unwrap();
            assert_eq!(picks, reference.select(&c).unwrap(), "round {round}");
            if round % 3 == 0 {
                indexed.on_delivery_failure(&picks[..1]);
                reference.on_delivery_failure(&picks[..1]);
            }
            assert_eq!(&indexed.counters(), reference.counters(), "round {round}");
            indexed.assert_consistent();
        }
    }

    /// The index is discarded on a refused admission and rebuilt on the
    /// next round; the counts it held, refunds included, must survive,
    /// also counts that an earlier admission moved to new ranks.
    #[test]
    fn counts_survive_every_index_discard() {
        let pop = PopulationBuilder::paper_default().num_devices(24).seed(10).build().unwrap();
        let all = pop.devices();
        let d = all[0];
        let huge = mec_sim::device::Device::new(
            DeviceId(u32::MAX as usize),
            *d.cpu(),
            d.cycles_per_sample(),
            d.num_samples(),
            *d.uplink(),
        )
        .unwrap();
        let with_huge: Vec<_> = all.iter().copied().chain([huge]).collect();
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        for round in 1..=40 {
            if round == 21 {
                assert!(indexed.select(&ctx(&with_huge, round, 4)).is_err());
                continue;
            }
            // Half the fleet first, so the full set's admission re-ranks
            // ids that already hold counts.
            let devices = if round <= 10 { &all[..12] } else { all };
            let c = ctx(devices, round, 4);
            let picks = indexed.select(&c).unwrap();
            assert_eq!(picks, reference.select(&c).unwrap(), "round {round}");
            if round % 2 == 0 {
                indexed.on_delivery_failure(&picks[1..3]);
                reference.on_delivery_failure(&picks[1..3]);
            }
            assert_eq!(&indexed.counters(), reference.counters(), "round {round}");
            assert_eq!(
                ClientSelector::snapshot(&indexed),
                ClientSelector::snapshot(&reference),
                "round {round}"
            );
            indexed.assert_consistent();
        }
    }

    /// A fleet-backed run at a scale where counts spread over many
    /// buckets and ranks: snapshots equal the reference's, a selector
    /// restored mid-run picks the same devices, and once every id is
    /// admitted no count is held by id.
    #[test]
    fn fleet_scale_snapshots_and_resume_match_the_reference() {
        const Q: usize = 20_000;
        let fleet =
            PopulationBuilder::paper_default().num_devices(Q).seed(23).build_fleet().unwrap();
        let fleet_ctx = |round| SelectionContext {
            round,
            devices: (&fleet).into(),
            payload: Bits::from_megabits(40.0),
            target: 200,
        };
        let no_pages = AppearanceCounters::new(Q).memory_bytes();
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        let mut resumed: Option<IndexedDecaySelector> = None;
        for round in 1..=100 {
            let c = fleet_ctx(round);
            let picks = indexed.select(&c).unwrap();
            assert_eq!(picks, reference.select(&c).unwrap(), "round {round}");
            if let Some(resumed) = &mut resumed {
                assert_eq!(resumed.select(&c).unwrap(), picks, "round {round}: resumed");
                resumed.on_delivery_failure(&picks[round % 7..][..3]);
                assert_eq!(resumed.counters.memory_bytes(), no_pages, "restored counts by id");
            }
            indexed.on_delivery_failure(&picks[round % 7..][..3]);
            reference.on_delivery_failure(&picks[round % 7..][..3]);
            assert_eq!(indexed.counters.memory_bytes(), no_pages, "round {round}: counts by id");
            if round == 50 || round == 100 {
                let snap = ClientSelector::snapshot(&indexed);
                assert_eq!(snap, ClientSelector::snapshot(&reference), "round {round}");
                indexed.assert_consistent();
                if round == 50 {
                    let mut restored = IndexedDecaySelector::default();
                    restored.restore(&snap).unwrap();
                    resumed = Some(restored);
                }
            }
        }
        let resumed = resumed.unwrap();
        resumed.assert_consistent();
        assert_eq!(ClientSelector::snapshot(&resumed), ClientSelector::snapshot(&reference));
    }

    #[test]
    fn refunds_restore_selection_priority() {
        let pop = PopulationBuilder::paper_default().num_devices(12).seed(6).build().unwrap();
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        for round in 1..=40 {
            let c = ctx(pop.devices(), round, 3);
            let a = indexed.select(&c).unwrap();
            let b = reference.select(&c).unwrap();
            assert_eq!(a, b, "round {round}");
            // Refund the slowest pick every third round.
            if round % 3 == 0 {
                let failed = [*a.last().unwrap()];
                indexed.on_delivery_failure(&failed);
                reference.on_delivery_failure(&failed);
            }
            indexed.assert_consistent();
        }
        for q in 0..12 {
            assert_eq!(indexed.counters().get(q), reference.counters().get(q), "device {q}");
        }
        // An unknown id is ignored by both.
        indexed.on_delivery_failure(&[DeviceId(999)]);
    }

    #[test]
    fn dropout_and_rejoin_track_the_reference() {
        let pop = PopulationBuilder::paper_default().num_devices(16).seed(8).build().unwrap();
        let full = pop.devices().to_vec();
        let evens: Vec<_> = full.iter().filter(|d| d.id().0 % 2 == 0).copied().collect();
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        for round in 1..=60 {
            // Every other block of 5 rounds, odd devices drop out.
            let devices: &[mec_sim::device::Device] =
                if (round / 5) % 2 == 0 { &full } else { &evens };
            let c = ctx(devices, round, 3);
            let a = indexed.select(&c).unwrap();
            let b = reference.select(&c).unwrap();
            assert_eq!(a, b, "round {round}");
            indexed.assert_consistent();
        }
        for q in 0..16 {
            assert_eq!(indexed.counters().get(q), reference.counters().get(q), "device {q}");
        }
    }

    #[test]
    fn telemetry_is_equivalent_to_the_reference() {
        let pop = PopulationBuilder::paper_default().num_devices(25).seed(12).build().unwrap();
        let tele_a = Telemetry::metrics_only();
        let tele_b = Telemetry::metrics_only();
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        for round in 1..=30 {
            let c = ctx(pop.devices(), round, 5);
            let a = indexed.select_traced(&c, &tele_a).unwrap();
            let b = reference.select_traced(&c, &tele_b).unwrap();
            assert_eq!(a, b, "round {round}");
            indexed.assert_consistent();
        }
        let snap_a = tele_a.snapshot();
        let snap_b = tele_b.snapshot();
        assert_eq!(snap_a.counter("selection.rounds"), snap_b.counter("selection.rounds"));
        assert_eq!(snap_a.counter("selection.selected"), snap_b.counter("selection.selected"));
        // Gauge and full α-histogram (count, min/max, every bucket)
        // must match the reference sample for sample.
        assert_eq!(snap_a.get("selection.coverage"), snap_b.get("selection.coverage"));
        assert!(snap_a.histogram("selection.alpha").is_some());
        assert_eq!(snap_a.histogram("selection.alpha"), snap_b.histogram("selection.alpha"));
    }

    #[test]
    fn eta_underflow_keeps_id_order_and_never_panics() {
        // η = 1e-300 underflows to exactly 0.0 by the second
        // appearance (1e-600 is subnormal-zero): every seen device
        // lands in the zero set and selection degrades to pure id
        // order — deterministically, with no partial_cmp panic.
        let pop = PopulationBuilder::paper_default().num_devices(10).seed(3).build().unwrap();
        let eta = DecayCoefficient::new(1.0e-300).unwrap();
        let mut indexed = IndexedDecaySelector::new(eta);
        let mut reference = GreedyDecaySelector::new(eta);
        for round in 1..=25 {
            let c = ctx(pop.devices(), round, 4);
            let a = indexed.select(&c).unwrap();
            let b = reference.select(&c).unwrap();
            assert_eq!(a, b, "round {round}");
            indexed.assert_consistent();
        }
        // After everyone decayed to zero utility, picks are the first
        // N ids.
        let c = ctx(pop.devices(), 99, 4);
        let picks = indexed.select(&c).unwrap();
        assert_eq!(picks, vec![DeviceId(0), DeviceId(1), DeviceId(2), DeviceId(3)]);
    }

    #[test]
    fn snapshot_restore_matches_reference_and_uninterrupted_index() {
        let pop = PopulationBuilder::paper_default().num_devices(30).seed(14).build().unwrap();
        let mut live = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        for round in 1..=9 {
            let c = ctx(pop.devices(), round, 4);
            assert_eq!(live.select(&c).unwrap(), reference.select(&c).unwrap());
            live.assert_consistent();
        }
        let snap = ClientSelector::snapshot(&live);
        // The snapshot interchanges with the reference selector's: both
        // carry exactly the appearance counters.
        assert_eq!(snap, ClientSelector::snapshot(&reference));
        let mut resumed = IndexedDecaySelector::default();
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.counters(), live.counters());
        for round in 10..=30 {
            let c = ctx(pop.devices(), round, 4);
            let a = live.select(&c).unwrap();
            let b = resumed.select(&c).unwrap();
            let r = reference.select(&c).unwrap();
            assert_eq!(a, b, "round {round}: resumed index diverged");
            assert_eq!(a, r, "round {round}: index diverged from reference");
            live.assert_consistent();
            resumed.assert_consistent();
        }
        // RNG state in the image is refused.
        let mut bad = snap.clone();
        bad.rng_state = Some([9, 9, 9, 9]);
        assert!(resumed.restore(&bad).is_err());
    }

    #[test]
    fn memory_accessor_reports_nonzero_after_use() {
        let pop = PopulationBuilder::paper_default().num_devices(50).seed(2).build().unwrap();
        let mut sel = IndexedDecaySelector::default();
        let baseline = sel.memory_bytes();
        sel.select(&ctx(pop.devices(), 1, 5)).unwrap();
        assert!(sel.memory_bytes() > baseline);
    }

    /// A bucket costs Q/8 bytes, so a leaked (empty but retained)
    /// bucket would grow the index silently. After 200 rounds at
    /// Q = 10^5 the index must stay within the 36 B per device the
    /// tree-based index it replaced measured at Q = 10^6.
    #[test]
    fn memory_per_device_stays_bounded_over_many_rounds() {
        const Q: usize = 100_000;
        let fleet =
            PopulationBuilder::paper_default().num_devices(Q).seed(21).build_fleet().unwrap();
        let mut sel = IndexedDecaySelector::default();
        for round in 1..=200 {
            let c = SelectionContext {
                round,
                devices: (&fleet).into(),
                payload: Bits::from_megabits(40.0),
                target: 100,
            };
            sel.select(&c).unwrap();
        }
        sel.assert_consistent();
        // Every count lives in the index's column: the by-id store
        // holds no page.
        assert_eq!(sel.counters.memory_bytes(), AppearanceCounters::new(Q).memory_bytes());
        let per_device = sel.memory_bytes() as f64 / Q as f64;
        assert!(per_device <= 36.0, "{per_device:.2} B per device");
    }

    #[test]
    fn ids_past_the_u32_rank_space_are_refused() {
        let pop = PopulationBuilder::paper_default().num_devices(2).seed(1).build().unwrap();
        let d = pop.devices()[1];
        let huge = mec_sim::device::Device::new(
            DeviceId(u32::MAX as usize),
            *d.cpu(),
            d.cycles_per_sample(),
            d.num_samples(),
            *d.uplink(),
        )
        .unwrap();
        let devices = [pop.devices()[0], huge];
        let mut sel = IndexedDecaySelector::default();
        match sel.select(&ctx(&devices, 1, 1)) {
            Err(FlError::InvalidConfig { field, reason }) => {
                assert_eq!(field, "devices");
                assert!(reason.contains(&u32::MAX.to_string()), "{reason}");
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        // The refusal leaves no half-built index behind: the valid
        // device alone still selects.
        assert_eq!(sel.select(&ctx(&devices[..1], 2, 1)).unwrap(), vec![DeviceId(0)]);
        sel.assert_consistent();
    }

    #[test]
    fn rank_set_finds_next_members_across_words_and_summaries() {
        let mut set = RankSet::new(64 * 64 * 3 + 5);
        let members = [0, 63, 64, 4095, 4096, 64 * 64 * 3 + 4];
        for &r in members.iter().rev() {
            set.insert(r);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), members);
        assert_eq!(set.head(), Some(0));
        set.remove(0);
        set.remove(4095);
        assert_eq!(set.head(), Some(63));
        assert_eq!(set.next_from(65), Some(4096));
        assert_eq!(set.next_from(4097), Some(64 * 64 * 3 + 4));
        assert_eq!(set.next_from(64 * 64 * 3 + 5), None);
        assert_eq!(set.len, 4);
    }
}

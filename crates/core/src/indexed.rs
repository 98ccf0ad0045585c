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
//! every device is *ranked* once by `(T_q, id)` and devices are
//! bucketed by their appearance counter `A_q`, each bucket a bitset
//! over ranks. Within a bucket the η^{A_q} factor is a shared
//! constant, cached with the bucket, so the bucket's *head* (first set
//! rank, minimum delay) is its maximum-utility member — a round's top-N
//! is a k-way merge across bucket heads. Counter increments and
//! `on_delivery_failure` refunds are O(1) bit moves between buckets;
//! nothing is ever rescanned.
//!
//! ## The round's cost
//!
//! The live buckets sit in one small vector, ascending by count: a
//! water level spans a few counts (three at `Q = 10^6`, target 1 000,
//! after 500 rounds; seven after 10 000), so a count is found by a
//! binary search of a few entries. The merge holds one candidate per
//! live bucket and names its bucket by its position in that vector, so
//! a pick is an arg-max over the B candidates, one bit cleared, and the
//! popped bucket's next candidate: no search at all. A bucket the merge
//! empties keeps its position until the merge ends. Each winner is
//! chained to the previous winner from its bucket; after the merge,
//! each bucket's winners move to bucket `A + 1` as one run, with one
//! bucket search and one `η^{A+1}` per run, and the buckets left empty
//! are dropped. A round of N picks costs O(N · B) candidate
//! comparisons, O(N) bit operations and head walks, and O(B log B)
//! for the runs.
//!
//! ## Exactness
//!
//! The index reproduces the reference selector *pick for pick, bit for
//! bit*:
//!
//! - utilities are the same `η^{A_q} / T_q` division [`utility`]
//!   makes, from the same [`DecayCoefficient::pow`], so float behavior
//!   is byte-identical;
//! - IEEE division is monotone in the divisor, so for a fixed bucket
//!   the minimum-delay entry really is an arg-max of `u`;
//! - equal utilities break ties by ascending id, exactly like the
//!   reference sort: ranks order equal delays by id, equal-`u` entries
//!   within a bucket form a contiguous run of delay groups walked by
//!   jumping from each group's end (found by a galloping search over
//!   the delay column) to the next set rank, cross-bucket ties compare
//!   the per-bucket run minima, and fully-underflowed utilities
//!   (`η^{A_q} / T_q == 0.0`) live in a dedicated id-ordered set;
//! - a popped winner is *not* re-inserted until the round's merge
//!   completes, mirroring the reference's frozen round-start
//!   utilities.
//!
//! ## One universe
//!
//! Like Alg. 2's initialization phase (lines 1–7), the first `select`
//! scores the whole population once: it builds the index from the
//! set's universe — every device of a fleet, or every device behind an
//! alive mask, dead ones included — with ids `0..Q` at their positions.
//! A fleet's delays are read from its record column, without
//! assembling a single `Device`, and the sorted keys are dropped before
//! the rank table is allocated: the index keeps 20 B per device (rank,
//! id, delay and count) plus one bitset per live bucket (Q/8 bytes and
//! a summary word per 64 words). The index then
//! serves that universe and that payload for the rest of the run. A set
//! backed by neither a fleet nor a mask, a backing whose position `q`
//! does not hold `DeviceId(q)`, a later round with another universe
//! size or payload, and restored counts for ids outside the universe
//! are refused with [`FlError::InvalidConfig`] naming the field, before
//! any state changes. The reference selector serves arbitrary
//! universes.
//!
//! Devices that disappear from the selectable set (battery depletion)
//! are parked when popped and re-inserted if they ever return; their
//! counts are untouched, preserving the reference's id-keyed
//! semantics under dropout and rejoin.
//!
//! ## Where the counts live
//!
//! Every appearance count `A_q` is stored exactly once, in the index's
//! rank-ordered count column, beside the delay and id the merge already
//! reads, so a pick and its deferred increment touch no by-id table:
//! by id, each pick would cost a random cache and TLB miss. Parked ids
//! and `on_delivery_failure` refunds keep and change their counts in
//! the column, reached through the id's rank. Counts restored from a
//! checkpoint wait as the snapshot's sparse list until the first round
//! builds the index and places them; a refund before then adjusts that
//! list.

use std::collections::{BTreeMap, BTreeSet};

use fl_sim::error::{FlError, Result};
use fl_sim::selection::{ClientSelector, DeviceSet, SelectionContext, SelectorSnapshot};
use helcfl_telemetry::{Class, Telemetry};
use mec_sim::device::DeviceId;
use mec_sim::units::{Bits, Seconds};

use crate::utility::{utility, AppearanceCounters, DecayCoefficient};

/// Every device ranked by `(delay_bits, id)`. Positive-finite f64
/// delays compare identically to their bit patterns, so ranks give
/// exact delay order with ties broken by ascending id. Ranks fit `u32`
/// because the build refuses ids `>= u32::MAX`. A run of equal delays
/// (a delay group) is found by searching `delay_at`, not stored.
#[derive(Debug, Clone)]
struct Ranks {
    /// Rank by id.
    rank: Vec<u32>,
    /// Id at each rank.
    id_at: Vec<u32>,
    /// Cached Eq.-9 delay (seconds) at each rank, ascending.
    delay_at: Vec<f64>,
}

impl Ranks {
    /// Ranks the ids `0..keys.len()` from their `(delay_bits, id)`
    /// keys, sorted ascending. The keys are dropped before `rank` is
    /// allocated, so the build never holds them beside the whole index.
    fn new(keys: Vec<(u64, u32)>) -> Self {
        let id_at: Vec<u32> = keys.iter().map(|&(_, id)| id).collect();
        let delay_at: Vec<f64> = keys.iter().map(|&(bits, _)| f64::from_bits(bits)).collect();
        drop(keys);
        let mut rank = vec![0; id_at.len()];
        for (r, &id) in id_at.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        Self { rank, id_at, delay_at }
    }

    fn len(&self) -> usize {
        self.id_at.len()
    }

    /// The first rank past the delay group rank `r` belongs to. It
    /// gallops over `delay_at` — probes at `r + 1`, `r + 2`, `r + 4`, …
    /// until one leaves the group — then binary-searches the last gap:
    /// one compare when the next rank's delay differs, O(log L) inside
    /// a group of L equal delays.
    fn group_end(&self, r: usize) -> usize {
        let bits = self.delay_at[r].to_bits();
        let (mut inside, mut step) = (r, 1);
        let outside = loop {
            let probe = inside + step;
            if probe >= self.delay_at.len() || self.delay_at[probe].to_bits() != bits {
                break probe.min(self.delay_at.len());
            }
            inside = probe;
            step *= 2;
        };
        inside + 1 + self.delay_at[inside + 1..outside].partition_point(|d| d.to_bits() == bits)
    }

    fn memory_bytes(&self) -> usize {
        (self.rank.capacity() + self.id_at.capacity()) * core::mem::size_of::<u32>()
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
        Self::from_words(universe, vec![0; universe.div_ceil(64)])
    }

    /// The set of the ranks whose bits are set in `words`, which cover
    /// `universe` ranks.
    fn from_words(universe: usize, words: Vec<u64>) -> Self {
        let mut summary = vec![0; words.len().div_ceil(64)];
        let (mut len, mut floor) = (0, universe);
        for (w, &word) in words.iter().enumerate() {
            if word != 0 {
                summary[w / 64] |= 1 << (w % 64);
                len += word.count_ones() as usize;
                floor = floor.min(w * 64 + word.trailing_zeros() as usize);
            }
        }
        Self { words, summary, len, floor }
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

    /// Heap bytes of the two levels.
    fn heap_bytes(&self) -> usize {
        (self.words.capacity() + self.summary.capacity()) * core::mem::size_of::<u64>()
    }
}

/// The placed devices of one appearance count, as a set of ranks.
#[derive(Debug, Clone)]
struct Bucket {
    count: u32,
    /// `η^count`, the numerator of every member's utility.
    alpha: f64,
    set: RankSet,
    /// The last winner the current round's merge took from this
    /// bucket, as a position in the round's winner list, which chains
    /// each winner to the one before it from the same bucket; `None`
    /// between rounds.
    last_won: Option<usize>,
}

impl Bucket {
    /// The bucket's candidate for the next pick: its head's utility
    /// and the rank of the minimum id among its entries of that
    /// utility. Equal-utility entries are a contiguous run of delay
    /// groups from the head; each group's first set rank already has
    /// the group-minimal id, so the walk jumps group to group from
    /// [`Ranks::group_end`].
    fn candidate(&mut self, ranks: &Ranks) -> (f64, usize) {
        let head = self.set.head().expect("a live bucket is never empty");
        let alpha = self.alpha;
        let max_u = alpha / ranks.delay_at[head];
        let (mut best, mut cur) = (head, head);
        while let Some(r) = self.set.next_from(ranks.group_end(cur)) {
            if alpha / ranks.delay_at[r] != max_u {
                break;
            }
            if ranks.id_at[r] < ranks.id_at[best] {
                best = r;
            }
            cur = r;
        }
        (max_u, best)
    }
}

/// The bucketed-utility index: every device ranked by delay, its
/// appearance count by rank, and one rank bitset per appearance count.
/// Each device is in exactly one place: the bucket of its count, the
/// zero set, or the parked list.
#[derive(Debug, Clone)]
struct UtilityIndex {
    payload: Bits,
    ranks: Ranks,
    /// Appearance count at each rank, for every device (placed, parked
    /// or in the zero set).
    count_at: Vec<u32>,
    /// The live buckets, ascending by count: a handful at a time, so a
    /// count is found by a search of this small vector, and the merge
    /// names a bucket by its position.
    buckets: Vec<Bucket>,
    /// Ids whose utility underflowed to exactly 0.0 — globally tied,
    /// ordered by id like the reference's tie-break.
    zero: BTreeSet<usize>,
    /// Popped-but-unselectable ids awaiting rejoin.
    parked: Vec<usize>,
}

impl UtilityIndex {
    /// Alg. 2's initialization phase: ranks every device of `devices`'
    /// universe by its Eq.-9 delay at `payload`, puts each count of
    /// `restored` at its id's rank, and places every id at its count.
    /// Fresh ids (count 0, non-zero utility) are set straight into
    /// bucket 0's bitset, one word at a time; restored counts and
    /// zero-utility ids go through [`place`](Self::place).
    ///
    /// # Errors
    ///
    /// Refuses a position `q` that does not hold `DeviceId(q)` or an id
    /// that does not fit the `u32` rank space (`devices`), and restored
    /// counts for ids outside the universe (`selector_snapshot`).
    fn build(
        devices: &DeviceSet<'_>,
        payload: Bits,
        restored: &SelectorSnapshot,
        eta: DecayCoefficient,
    ) -> Result<Self> {
        let universe = devices.universe_len();
        if restored.counters_len > universe {
            return Err(FlError::InvalidConfig {
                field: "selector_snapshot",
                reason: format!(
                    "the restored appearance counters cover {} devices but the universe \
                     holds {universe}",
                    restored.counters_len
                ),
            });
        }
        let refuse = |reason| FlError::InvalidConfig { field: "devices", reason };
        let mut keys = Vec::with_capacity(universe);
        for (q, (id, delay)) in devices.universe_delays(payload).enumerate() {
            let id = id.0;
            if id >= u32::MAX as usize {
                return Err(refuse(format!(
                    "device id {id} does not fit the utility index's u32 ranks \
                     (ids must be below {})",
                    u32::MAX
                )));
            }
            if id != q {
                return Err(refuse(format!(
                    "position {q} holds device {id}, not DeviceId({q}): the utility index \
                     needs ids at their positions"
                )));
            }
            keys.push((delay.get().to_bits(), id as u32));
        }
        keys.sort_unstable();
        let ranks = Ranks::new(keys);
        let mut count_at = vec![0; universe];
        for &(q, a) in &restored.counters {
            count_at[ranks.rank[q] as usize] = a;
        }
        let mut ix = Self {
            payload,
            ranks,
            count_at,
            buckets: Vec::new(),
            zero: BTreeSet::new(),
            parked: Vec::new(),
        };
        let mut fresh = vec![0; universe.div_ceil(64)];
        for r in 0..universe {
            let fresh_rank = ix.count_at[r] == 0
                && utility(eta, 0, Seconds::new(ix.ranks.delay_at[r])) != 0.0;
            if fresh_rank {
                fresh[r / 64] |= 1 << (r % 64);
            } else {
                ix.place(r, eta);
            }
        }
        let fresh = RankSet::from_words(universe, fresh);
        if fresh.len > 0 {
            let alpha = eta.pow(0);
            ix.buckets.insert(0, Bucket { count: 0, alpha, set: fresh, last_won: None });
        }
        Ok(ix)
    }

    /// Refuses a round the index was not built for: another universe
    /// size (`devices`) or another payload (`payload`).
    fn serves(&self, ctx: &SelectionContext<'_>) -> Result<()> {
        let universe = ctx.devices.universe_len();
        if universe != self.ranks.len() {
            return Err(FlError::InvalidConfig {
                field: "devices",
                reason: format!(
                    "the universe holds {universe} devices but the utility index was built \
                     for {}",
                    self.ranks.len()
                ),
            });
        }
        if ctx.payload != self.payload {
            return Err(FlError::InvalidConfig {
                field: "payload",
                reason: format!(
                    "payload {} Mbit differs from the {} Mbit the utility index was built for",
                    ctx.payload.megabits(),
                    self.payload.megabits()
                ),
            });
        }
        Ok(())
    }

    /// The position of bucket `a`, whose members' utility numerator is
    /// `alpha`, inserted empty if it is not live.
    fn bucket(&mut self, a: u32, alpha: f64) -> usize {
        self.buckets.binary_search_by_key(&a, |b| b.count).unwrap_or_else(|k| {
            let set = RankSet::new(self.ranks.len());
            self.buckets.insert(k, Bucket { count: a, alpha, set, last_won: None });
            k
        })
    }

    /// Inserts the id at rank `r` into the structure for its
    /// appearance count. The id must not be placed or parked already.
    fn place(&mut self, r: usize, eta: DecayCoefficient) {
        self.place_run(self.count_at[r], [r], eta);
    }

    /// Sets the count of every rank of `run` to `a` and inserts its id
    /// into bucket `a` or the zero set, with one bucket search and one
    /// `η^a` for the whole run. Membership is decided per id by the
    /// same `η^a / T_q` division [`utility`] makes: `powi` is not
    /// guaranteed monotone in the exponent, so a count's zero set is
    /// never inferred from another's. No id of `run` may be placed or
    /// parked already.
    fn place_run(&mut self, a: u32, run: impl IntoIterator<Item = usize>, eta: DecayCoefficient) {
        let alpha = eta.pow(a);
        let mut bucket = None;
        for r in run {
            self.count_at[r] = a;
            if alpha / self.ranks.delay_at[r] == 0.0 {
                self.zero.insert(self.ranks.id_at[r] as usize);
            } else {
                let k = *bucket.get_or_insert_with(|| self.bucket(a, alpha));
                self.buckets[k].set.insert(r);
            }
        }
    }

    /// Rolls back one appearance of `q` (saturating at zero, ignoring
    /// ids outside the universe) with an O(1) bucket move if it is
    /// placed; returns its count before the refund.
    fn refund(&mut self, q: usize, eta: DecayCoefficient) -> u32 {
        let Some(&r) = self.ranks.rank.get(q) else {
            return 0;
        };
        let r = r as usize;
        let before = self.count_at[r];
        if before == 0 {
            return 0;
        }
        // A parked id is in neither its bucket nor the zero set.
        let in_bucket = self.buckets.binary_search_by_key(&before, |b| b.count);
        let in_bucket = in_bucket.ok().filter(|&k| self.buckets[k].set.contains(r));
        if let Some(k) = in_bucket {
            self.buckets[k].set.remove(r);
            if self.buckets[k].set.len == 0 {
                self.buckets.remove(k);
            }
        }
        let placed = in_bucket.is_some() || self.zero.remove(&q);
        self.count_at[r] -= 1;
        if placed {
            self.place(r, eta);
        }
        before
    }

    /// The nonzero counts as ascending `(id, count)` pairs.
    fn sparse_counts(&self) -> Vec<(usize, u32)> {
        let mut counts: Vec<(usize, u32)> = (self.count_at.iter().zip(&self.ranks.id_at))
            .filter(|&(&a, _)| a != 0)
            .map(|(&a, &id)| (id as usize, a))
            .collect();
        counts.sort_unstable();
        counts
    }

    /// Panics unless every id is in exactly one place — parked, in the
    /// zero set, or set in the bucket of its count and no other — and
    /// the buckets agree with themselves: they ascend strictly by
    /// count, no bucket is empty, and bucket populations sum to the ids
    /// neither parked nor in the zero set, and each caches `η^count`.
    /// Holds between rounds.
    fn assert_consistent(&self, eta: DecayCoefficient) {
        let parked: BTreeSet<usize> = self.parked.iter().copied().collect();
        assert_eq!(parked.len(), self.parked.len(), "an id is parked twice");
        for (id, &r) in self.ranks.rank.iter().enumerate() {
            let r = r as usize;
            assert_eq!(self.ranks.id_at[r] as usize, id, "rank {r} does not map back to id {id}");
            let (zero, parked) = (self.zero.contains(&id), parked.contains(&id));
            assert!(!(zero && parked), "parked id {id} in the zero set");
            let a = self.count_at[r];
            for Bucket { count: b, set, .. } in &self.buckets {
                let want = a == *b && !zero && !parked;
                assert_eq!(set.contains(r), want, "id {id} (count {a}) vs bucket {b}");
            }
        }
        for pair in self.buckets.windows(2) {
            assert!(pair[0].count < pair[1].count, "buckets out of count order");
        }
        let mut members = 0;
        for Bucket { count: a, alpha, set, last_won } in &self.buckets {
            assert_eq!(*last_won, None, "bucket {a} holds winners between rounds");
            assert_eq!(alpha.to_bits(), eta.pow(*a).to_bits(), "bucket {a} caches a stale η^{a}");
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
        let unplaced = self.zero.len() + parked.len();
        assert_eq!(members, self.ranks.len() - unplaced, "bucket populations vs placed ids");
    }

    fn memory_bytes(&self) -> usize {
        self.ranks.memory_bytes()
            + self.count_at.capacity() * core::mem::size_of::<u32>()
            + self.buckets.capacity() * core::mem::size_of::<Bucket>()
            + self.buckets.iter().map(|b| b.set.heap_bytes()).sum::<usize>()
            + self.zero.len() * core::mem::size_of::<usize>()
            + self.parked.capacity() * core::mem::size_of::<usize>()
    }
}

/// The production Alg. 2 selector, used by
/// [`Helcfl`](crate::framework::Helcfl) at every fleet size: a drop-in
/// replacement for the reference
/// [`GreedyDecaySelector`](crate::selection::GreedyDecaySelector)
/// backed by the bucketed-utility index — same name (`"helcfl"`), same
/// picks, same telemetry. A round of N picks over B live buckets costs
/// O(N · B) comparisons of cached bucket candidates, with no map
/// search per pick, and one bucket search per bucket's run of winners,
/// instead of the reference's O(Q + N log N). It serves fleet- and
/// mask-backed sets with one universe and one payload for the whole run
/// (see the [module docs](self)).
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
/// let fleet = PopulationBuilder::paper_default().seed(7).build_fleet()?;
/// let mut indexed = IndexedDecaySelector::default();
/// let mut reference = GreedyDecaySelector::default();
/// for round in 1..=20 {
///     let ctx = SelectionContext {
///         round,
///         devices: (&fleet).into(),
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
    /// Counts restored before the index is built, canonical (ascending
    /// ids, nonzero counts); empty once the build has placed them.
    restored: SelectorSnapshot,
    /// Incremental mirror of `counters().coverage()` so the telemetry
    /// gauge costs O(1), not an O(Q) scan.
    coverage: usize,
    index: Option<UtilityIndex>,
}

impl IndexedDecaySelector {
    /// Creates a selector with decay coefficient `eta`.
    pub fn new(eta: DecayCoefficient) -> Self {
        Self { eta, restored: SelectorSnapshot::default(), coverage: 0, index: None }
    }

    /// The appearance counters accumulated so far (indexed by
    /// [`DeviceId`]), built on demand: the index keeps the counts in
    /// rank order, so this is an owned O(Q) copy meant for tests and
    /// inspection, not for a per-round path.
    pub fn counters(&self) -> AppearanceCounters {
        let snap = ClientSelector::snapshot(self);
        AppearanceCounters::from_sparse(snap.counters_len, &snap.counters)
    }

    /// Resident bytes of the selector: counts restored but not yet
    /// placed, the by-id rank table, the by-rank id, delay and
    /// appearance-count tables (20 B per device together), the bucket
    /// vector, and one rank bitset (Q/8 bytes, plus a summary word per
    /// 64 words) per live appearance bucket.
    /// Zero-set and parked ids count at their payload size.
    pub fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>()
            + self.restored.counters.capacity() * core::mem::size_of::<(usize, u32)>()
            + self.index.as_ref().map_or(0, UtilityIndex::memory_bytes)
    }

    /// Panics unless the utility index agrees with itself and the
    /// coverage mirror matches the counts (see
    /// `UtilityIndex::assert_consistent`). A test hook: it holds
    /// between rounds and costs O(Q · buckets).
    #[doc(hidden)]
    pub fn assert_consistent(&self) {
        if let Some(ix) = &self.index {
            assert!(self.restored.counters.is_empty(), "restored counts left unplaced");
            ix.assert_consistent(self.eta);
        }
        assert_eq!(self.coverage, self.counters().coverage(), "coverage mirror");
    }

    fn select_inner(
        &mut self,
        ctx: &SelectionContext<'_>,
        tele: &Telemetry,
    ) -> Result<Vec<DeviceId>> {
        if ctx.devices.is_empty() {
            return Err(FlError::InvalidSelection { reason: "no devices to select".into() });
        }
        if !ctx.devices.has_implicit_ids() {
            return Err(FlError::InvalidConfig {
                field: "devices",
                reason: "the utility index serves fleet- or mask-backed device sets only".into(),
            });
        }
        match &self.index {
            Some(ix) => ix.serves(ctx)?,
            None => {
                let ix = UtilityIndex::build(&ctx.devices, ctx.payload, &self.restored, self.eta)?;
                self.restored = SelectorSnapshot::default();
                self.index = Some(ix);
            }
        }
        let ix = self.index.as_mut().expect("built above");
        // Rejoin: parked devices that are selectable again re-enter
        // their bucket at their (unchanged) appearance count.
        let parked = core::mem::take(&mut ix.parked);
        for id in parked {
            if ctx.devices.contains(DeviceId(id)) {
                ix.place(ix.ranks.rank[id] as usize, self.eta);
            } else {
                ix.parked.push(id);
            }
        }

        let n = ctx.target.min(ctx.devices.len()).max(1);
        let mut selected = Vec::with_capacity(n);
        // Each bucket winner's rank, chained to the previous winner
        // from its bucket (see `Bucket::last_won`), and the ranks of
        // the winners taken from the zero set.
        let mut won: Vec<(usize, Option<usize>)> = Vec::with_capacity(n);
        let mut zero_won = Vec::new();
        // Each live bucket's candidate, `(u, bucket position, run-min
        // rank)`. Winners re-enter only after the merge, and a bucket
        // the merge empties stays in place until it ends, so positions
        // hold and a pick changes only the bucket it popped from: that
        // entry alone is re-evaluated.
        let mut candidates: Vec<(f64, usize, usize)> = (ix.buckets.iter_mut().enumerate())
            .map(|(k, b)| {
                let (u, r) = b.candidate(&ix.ranks);
                (u, k, r)
            })
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
            // The winner's id, rank, appearance count and bucket
            // position (`None` from the zero set): a bucket winner's
            // count is its bucket's.
            let (id, r, a, from) = match best {
                Some(k) => {
                    let (_, b, r) = candidates[k];
                    let bucket = &mut ix.buckets[b];
                    bucket.set.remove(r);
                    if bucket.set.len > 0 {
                        let (u, next) = bucket.candidate(&ix.ranks);
                        candidates[k] = (u, b, next);
                    } else {
                        candidates.swap_remove(k);
                    }
                    (ix.ranks.id_at[r] as usize, r, bucket.count, Some(b))
                }
                None => match ix.zero.pop_first() {
                    Some(id) => {
                        let r = ix.ranks.rank[id] as usize;
                        (id, r, ix.count_at[r], None)
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
                ix.parked.push(id);
                continue;
            }
            if tele.is_enabled() {
                // Same pre-increment α_q = η^{A_q} the reference logs.
                let alpha = from.map_or_else(|| self.eta.pow(a), |b| ix.buckets[b].alpha);
                tele.record(Class::Sim, "selection.alpha", alpha);
            }
            if a == 0 {
                self.coverage += 1;
            }
            selected.push(DeviceId(id));
            match from {
                Some(b) => won.push((r, ix.buckets[b].last_won.replace(won.len()))),
                None => zero_won.push(r),
            }
        }
        // Deferred increment and re-placement: winners move to bucket
        // A_q + 1 only after the merge, so this round's picks competed
        // on utilities frozen at round start — exactly like the
        // reference's single scored snapshot. Each bucket's winners
        // move as one run, from the highest count down: a run inserts
        // no bucket below its own, so the positions still to visit
        // hold. The buckets the merge emptied are dropped last, unless
        // a run refilled them.
        for k in (0..ix.buckets.len()).rev() {
            if let Some(last) = ix.buckets[k].last_won.take() {
                let run = std::iter::successors(Some(last), |&w| won[w].1).map(|w| won[w].0);
                ix.place_run(ix.buckets[k].count + 1, run, self.eta);
            }
        }
        for r in zero_won {
            ix.place_run(ix.count_at[r] + 1, [r], self.eta);
        }
        ix.buckets.retain(|b| b.set.len > 0);
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
        // Same refund semantics as the reference: one appearance rolled
        // back, saturating at zero; ids without a count are ignored.
        for id in failed {
            let before = match &mut self.index {
                Some(ix) => ix.refund(id.0, self.eta),
                None => {
                    let counts = &mut self.restored.counters;
                    match counts.binary_search_by_key(&id.0, |&(q, _)| q) {
                        Ok(i) if counts[i].1 == 1 => counts.remove(i).1,
                        Ok(i) => {
                            counts[i].1 -= 1;
                            counts[i].1 + 1
                        }
                        Err(_) => 0,
                    }
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
        // and is rebuilt on the first post-restore round.
        match &self.index {
            Some(ix) => SelectorSnapshot {
                counters_len: ix.ranks.len(),
                counters: ix.sparse_counts(),
                rng_state: None,
            },
            None => self.restored.clone(),
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
        // Canonical form: a repeated id keeps its last count, as
        // `AppearanceCounters::from_sparse` would.
        let counts: BTreeMap<usize, u32> = snap.counters.iter().copied().collect();
        self.restored = SelectorSnapshot {
            counters_len: snap.counters_len,
            counters: counts.into_iter().filter(|&(_, a)| a != 0).collect(),
            rng_state: None,
        };
        self.coverage = self.restored.counters.len();
        self.index = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::GreedyDecaySelector;
    use fl_sim::selection::validate_selection;
    use mec_sim::fleet::{AliveMask, Fleet};
    use mec_sim::population::PopulationBuilder;

    fn build_fleet(num_devices: usize, seed: u64) -> Fleet {
        PopulationBuilder::paper_default().num_devices(num_devices).seed(seed).build_fleet().unwrap()
    }

    fn ctx(devices: DeviceSet<'_>, round: usize, target: usize) -> SelectionContext<'_> {
        SelectionContext { round, devices, payload: Bits::from_megabits(40.0), target }
    }

    fn fleet_ctx(fleet: &Fleet, round: usize, target: usize) -> SelectionContext<'_> {
        ctx(fleet.into(), round, target)
    }

    /// Runs `rounds` on `fleet` through both selectors, refunding one
    /// pick every other round; picks, counters and snapshots must agree
    /// after every round.
    fn lockstep(
        indexed: &mut IndexedDecaySelector,
        reference: &mut GreedyDecaySelector,
        fleet: &Fleet,
        rounds: core::ops::RangeInclusive<usize>,
    ) {
        for round in rounds {
            let c = fleet_ctx(fleet, round, 3);
            let picks = indexed.select(&c).unwrap();
            assert_eq!(picks, reference.select(&c).unwrap(), "round {round}");
            if round % 2 == 0 {
                indexed.on_delivery_failure(&picks[1..2]);
                reference.on_delivery_failure(&picks[1..2]);
            }
            assert_eq!(&indexed.counters(), reference.counters(), "round {round}");
            assert_eq!(
                ClientSelector::snapshot(indexed),
                ClientSelector::snapshot(reference),
                "round {round}"
            );
            indexed.assert_consistent();
        }
    }

    /// Asserts `result` is a refusal naming `field`; returns its reason.
    fn refused(result: Result<Vec<DeviceId>>, field: &str) -> String {
        match result {
            Err(FlError::InvalidConfig { field: f, reason }) if f == field => reason,
            other => panic!("expected a refusal naming `{field}`, got {other:?}"),
        }
    }

    #[test]
    fn matches_reference_over_many_rounds() {
        let fleet = build_fleet(40, 5);
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        for round in 1..=120 {
            let c = fleet_ctx(&fleet, round, 4);
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
    fn fleet_backed_context_matches_mask_backed() {
        let builder = PopulationBuilder::paper_default().num_devices(30).seed(9);
        let pop = builder.build().unwrap();
        let fleet = builder.build_fleet().unwrap();
        let mask = AliveMask::all_alive(30);
        let mut a = IndexedDecaySelector::default();
        let mut b = IndexedDecaySelector::default();
        for round in 1..=50 {
            let masked = ctx(DeviceSet::from_slice(pop.devices()).with_mask(&mask), round, 5);
            assert_eq!(a.select(&masked).unwrap(), b.select(&fleet_ctx(&fleet, round, 5)).unwrap());
            a.assert_consistent();
            b.assert_consistent();
        }
    }

    #[test]
    fn empty_population_is_rejected() {
        let mut sel = IndexedDecaySelector::default();
        let mask = AliveMask::all_alive(0);
        assert!(sel.select(&ctx(DeviceSet::from_slice(&[]).with_mask(&mask), 1, 3)).is_err());
    }

    #[test]
    fn a_set_with_neither_fleet_nor_mask_is_refused() {
        let pop = PopulationBuilder::paper_default().num_devices(20).seed(4).build().unwrap();
        let fleet = build_fleet(20, 4);
        let slice = || ctx(DeviceSet::from_slice(pop.devices()), 1, 3);
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        // Refused before the build and after it.
        refused(indexed.select(&slice()), "devices");
        lockstep(&mut indexed, &mut reference, &fleet, 1..=10);
        refused(indexed.select(&slice()), "devices");
        lockstep(&mut indexed, &mut reference, &fleet, 11..=20);
    }

    #[test]
    fn a_masked_backing_out_of_id_order_is_refused() {
        let pop = PopulationBuilder::paper_default().num_devices(20).seed(4).build().unwrap();
        let mut swapped = pop.devices().to_vec();
        swapped.swap(3, 11);
        let mask = AliveMask::all_alive(20);
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        let reason = refused(
            indexed.select(&ctx(DeviceSet::from_slice(&swapped).with_mask(&mask), 1, 3)),
            "devices",
        );
        assert!(reason.contains("position 3 holds device 11"), "{reason}");
        lockstep(&mut indexed, &mut reference, &build_fleet(20, 4), 1..=20);
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
        let mask = AliveMask::all_alive(2);
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        let reason = refused(
            indexed.select(&ctx(DeviceSet::from_slice(&devices).with_mask(&mask), 1, 1)),
            "devices",
        );
        assert!(reason.contains(&u32::MAX.to_string()), "{reason}");
        // The refusal leaves no half-built index behind.
        lockstep(&mut indexed, &mut reference, &build_fleet(12, 1), 1..=20);
    }

    /// Restored counts for an id outside the universe are refused when
    /// the build meets the universe; the restored state is untouched,
    /// and a valid restore then resumes in step with the reference.
    #[test]
    fn restored_counts_outside_the_universe_are_refused() {
        let fleet = build_fleet(20, 4);
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        let outside = SelectorSnapshot {
            counters_len: 25,
            counters: vec![(2, 1), (22, 3)],
            rng_state: None,
        };
        indexed.restore(&outside).unwrap();
        refused(indexed.select(&fleet_ctx(&fleet, 1, 3)), "selector_snapshot");
        assert_eq!(ClientSelector::snapshot(&indexed), outside);
        indexed.assert_consistent();
        for round in 1..=5 {
            reference.select(&fleet_ctx(&fleet, round, 3)).unwrap();
        }
        indexed.restore(&ClientSelector::snapshot(&reference)).unwrap();
        lockstep(&mut indexed, &mut reference, &fleet, 6..=20);
    }

    #[test]
    fn a_later_round_with_another_universe_is_refused() {
        let fleet = build_fleet(20, 4);
        let smaller = build_fleet(19, 4);
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        lockstep(&mut indexed, &mut reference, &fleet, 1..=10);
        let reason = refused(indexed.select(&fleet_ctx(&smaller, 11, 3)), "devices");
        assert!(reason.contains("19") && reason.contains("20"), "{reason}");
        lockstep(&mut indexed, &mut reference, &fleet, 11..=20);
    }

    #[test]
    fn a_later_round_with_another_payload_is_refused() {
        let fleet = build_fleet(20, 4);
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        lockstep(&mut indexed, &mut reference, &fleet, 1..=10);
        let other = SelectionContext { payload: Bits::from_megabits(4.0), ..fleet_ctx(&fleet, 11, 3) };
        refused(indexed.select(&other), "payload");
        lockstep(&mut indexed, &mut reference, &fleet, 11..=20);
    }

    /// A refund between `restore` and the first round adjusts the
    /// restored counts, as the reference's by-id refund does.
    #[test]
    fn refunds_before_the_build_adjust_the_restored_counts() {
        let fleet = build_fleet(30, 14);
        let mut reference = GreedyDecaySelector::default();
        for round in 1..=9 {
            reference.select(&fleet_ctx(&fleet, round, 4)).unwrap();
        }
        let mut indexed = IndexedDecaySelector::default();
        indexed.restore(&ClientSelector::snapshot(&reference)).unwrap();
        let counts = reference.counters();
        let once = (0..30).find(|&q| counts.get(q) == 1).expect("a device counted once");
        let twice = (0..30).find(|&q| counts.get(q) >= 2).expect("a device counted twice");
        let never = (0..30).find(|&q| counts.get(q) == 0).expect("a device never counted");
        let failed = [DeviceId(once), DeviceId(twice), DeviceId(never), DeviceId(999)];
        indexed.on_delivery_failure(&failed);
        reference.on_delivery_failure(&failed);
        assert_eq!(ClientSelector::snapshot(&indexed), ClientSelector::snapshot(&reference));
        indexed.assert_consistent();
        lockstep(&mut indexed, &mut reference, &fleet, 10..=30);
    }

    /// A fleet-backed run at a scale where counts spread over many
    /// buckets and ranks: snapshots equal the reference's, and a
    /// selector restored mid-run picks the same devices.
    #[test]
    fn fleet_scale_snapshots_and_resume_match_the_reference() {
        const Q: usize = 20_000;
        let fleet = build_fleet(Q, 23);
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        let mut resumed: Option<IndexedDecaySelector> = None;
        for round in 1..=100 {
            let c = fleet_ctx(&fleet, round, 200);
            let picks = indexed.select(&c).unwrap();
            assert_eq!(picks, reference.select(&c).unwrap(), "round {round}");
            if let Some(resumed) = &mut resumed {
                assert_eq!(resumed.select(&c).unwrap(), picks, "round {round}: resumed");
                resumed.on_delivery_failure(&picks[round % 7..][..3]);
            }
            indexed.on_delivery_failure(&picks[round % 7..][..3]);
            reference.on_delivery_failure(&picks[round % 7..][..3]);
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
        let fleet = build_fleet(12, 6);
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        for round in 1..=40 {
            let c = fleet_ctx(&fleet, round, 3);
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
        let fleet = build_fleet(16, 8);
        let full = AliveMask::all_alive(16);
        let mut evens = AliveMask::all_alive(16);
        for q in (1..16).step_by(2) {
            evens.kill(q);
        }
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        for round in 1..=60 {
            // Every other block of 5 rounds, odd devices drop out.
            let mask = if (round / 5) % 2 == 0 { &full } else { &evens };
            let c = ctx(DeviceSet::from_fleet(&fleet).with_mask(mask), round, 3);
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
        let fleet = build_fleet(25, 12);
        let tele_a = Telemetry::metrics_only();
        let tele_b = Telemetry::metrics_only();
        let mut indexed = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        for round in 1..=30 {
            let c = fleet_ctx(&fleet, round, 5);
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
        let fleet = build_fleet(10, 3);
        let eta = DecayCoefficient::new(1.0e-300).unwrap();
        let mut indexed = IndexedDecaySelector::new(eta);
        let mut reference = GreedyDecaySelector::new(eta);
        for round in 1..=25 {
            let c = fleet_ctx(&fleet, round, 4);
            let a = indexed.select(&c).unwrap();
            let b = reference.select(&c).unwrap();
            assert_eq!(a, b, "round {round}");
            indexed.assert_consistent();
        }
        // After everyone decayed to zero utility, picks are the first
        // N ids.
        let picks = indexed.select(&fleet_ctx(&fleet, 99, 4)).unwrap();
        assert_eq!(picks, vec![DeviceId(0), DeviceId(1), DeviceId(2), DeviceId(3)]);
    }

    #[test]
    fn snapshot_restore_matches_reference_and_uninterrupted_index() {
        let fleet = build_fleet(30, 14);
        let mut live = IndexedDecaySelector::default();
        let mut reference = GreedyDecaySelector::default();
        for round in 1..=9 {
            let c = fleet_ctx(&fleet, round, 4);
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
            let c = fleet_ctx(&fleet, round, 4);
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
        let fleet = build_fleet(50, 2);
        let mut sel = IndexedDecaySelector::default();
        let baseline = sel.memory_bytes();
        sel.select(&fleet_ctx(&fleet, 1, 5)).unwrap();
        assert!(sel.memory_bytes() > baseline);
    }

    /// A bucket costs ~Q/8 bytes, so a bucket kept after it empties
    /// would grow the index silently. At Q = 10^4 with 1 000 picks a
    /// round, counts climb past 16 in 200 rounds: buckets 0–16 are
    /// created and emptied, five stay live. The index then holds 20 B
    /// per device in its columns plus ~0.13 B per device for each live
    /// bucket, 20.70 B in all; the bound leaves less than one bucket of
    /// slack, so keeping even one emptied bucket fails it.
    #[test]
    fn memory_per_device_stays_bounded_over_many_rounds() {
        const Q: usize = 10_000;
        let fleet = build_fleet(Q, 21);
        let mut sel = IndexedDecaySelector::default();
        for round in 1..=200 {
            sel.select(&fleet_ctx(&fleet, round, 1_000)).unwrap();
        }
        sel.assert_consistent();
        let buckets = &sel.index.as_ref().unwrap().buckets;
        assert_eq!(buckets[0].count, 17, "buckets 0-16 emptied");
        let per_device = sel.memory_bytes() as f64 / Q as f64;
        assert!(per_device <= 20.75, "{per_device:.3} B per device");
    }

    /// Ranks over an ascending delay column whose run `k` holds `runs[k]`
    /// copies of the delay `k + 1` seconds.
    fn ranks_with_runs(runs: &[usize]) -> Ranks {
        let column = runs.iter().enumerate().flat_map(|(k, &len)| {
            std::iter::repeat_n((k as f64 + 1.0).to_bits(), len)
        });
        Ranks::new(column.enumerate().map(|(id, bits)| (bits, id as u32)).collect())
    }

    /// The group jump by galloping search lands where a linear scan
    /// does, from every rank of runs of length 1, 2, 3, 2^k and 2^k ± 1,
    /// alone (an all-equal column), ending at the last rank, and mixed.
    #[test]
    fn group_end_matches_a_linear_scan() {
        let mut lengths = vec![1, 2, 3];
        for k in 2..=8 {
            lengths.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        let mut columns: Vec<Vec<usize>> = lengths
            .iter()
            .flat_map(|&len| [vec![len], vec![1, len], vec![len, 1], vec![2, len, 3]])
            .collect();
        columns.push(lengths.clone());
        columns.push(lengths.iter().rev().copied().collect());
        for runs in &columns {
            let ranks = ranks_with_runs(runs);
            let delays = &ranks.delay_at;
            for r in 0..ranks.len() {
                let linear = (r + 1..ranks.len())
                    .find(|&k| delays[k].to_bits() != delays[r].to_bits())
                    .unwrap_or(ranks.len());
                assert_eq!(ranks.group_end(r), linear, "runs {runs:?}, rank {r}");
            }
        }
    }

    #[test]
    fn rank_set_finds_next_members_across_words_and_summaries() {
        let mut set = RankSet::new(64 * 64 * 3 + 5);
        let members = [0, 63, 64, 4095, 4096, 64 * 64 * 3 + 4];
        for &r in members.iter().rev() {
            set.insert(r);
        }
        let all: Vec<_> = std::iter::successors(set.next_from(0), |&r| set.next_from(r + 1)).collect();
        assert_eq!(all, members);
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

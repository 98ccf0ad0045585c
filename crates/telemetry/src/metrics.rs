//! Mergeable counters, gauges, and log-bucketed histograms.
//!
//! The registry is designed around one hard requirement: the round
//! engine produces bit-identical results for any worker-pool size, and
//! telemetry must not weaken that guarantee. Two ingredients deliver
//! it:
//!
//! * **Class separation.** Every metric carries a [`Class`]:
//!   [`Class::Sim`] values are derived purely from simulation state
//!   (deterministic by construction), while [`Class::Runtime`] values
//!   come from wall clocks and thread scheduling (never reproducible).
//!   [`MetricsRegistry::deterministic`] strips the registry down to
//!   the `Sim` view, which the determinism tests compare across thread
//!   counts and sink choices.
//!
//! * **Integer-only accumulation.** [`Histogram`] stores `u64` bucket
//!   counts keyed by the sample's binary exponent, never a running
//!   `f64` sum, so [`Histogram::merge_from`] is exactly associative:
//!   merging per-worker histograms in fixed worker order yields the
//!   same bits regardless of how samples were partitioned. The only
//!   `f64` state is `min`/`max`, whose merge is also associative.

use std::collections::BTreeMap;

use crate::json::{FieldError, FromJson, JsonObject, JsonValue};

/// Determinism class of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Derived from simulation state only; identical across runs with
    /// the same seed, regardless of thread count or sink choice.
    Sim,
    /// Derived from wall clocks or scheduling (worker busy/idle time,
    /// span durations); excluded from determinism comparisons.
    Runtime,
}

impl Class {
    /// The class as the metrics line spells it: `"sim"` or `"runtime"`.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Class::Sim => "sim",
            Class::Runtime => "runtime",
        }
    }
}

/// A single named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotone event count.
    Counter(u64),
    /// Last-written value.
    Gauge(f64),
    /// Log-bucketed sample distribution.
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Distribution of `f64` samples bucketed by binary exponent.
///
/// Bucket `e` counts finite positive normal samples in `[2^e, 2^(e+1))`
/// — roughly one bucket per factor of two, enough resolution for
/// latency and energy tails. Samples that have no exponent bucket are
/// tallied separately so nothing is silently dropped:
///
/// * `underflow` — `+0.0`, `-0.0`, and subnormals (magnitude below
///   `f64::MIN_POSITIVE`);
/// * `negative` — finite strictly-negative normals;
/// * `infinite` — `±inf`;
/// * `nan` — NaN payloads.
///
/// `min`/`max` cover all *finite* samples (including negatives and
/// zeros); NaN never touches them, so their merge stays associative.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Total samples recorded, across every category below.
    pub count: u64,
    /// Zero and subnormal samples.
    pub underflow: u64,
    /// Finite negative normal samples.
    pub negative: u64,
    /// `+inf` / `-inf` samples.
    pub infinite: u64,
    /// NaN samples.
    pub nan: u64,
    /// Smallest finite sample seen (`+inf` when none yet).
    pub min: f64,
    /// Largest finite sample seen (`-inf` when none yet).
    pub max: f64,
    /// Bucket counts keyed by binary exponent of positive normals.
    pub buckets: BTreeMap<i16, u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            count: 0,
            underflow: 0,
            negative: 0,
            infinite: 0,
            nan: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: BTreeMap::new(),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: f64) {
        if let Some(exp_bits) = self.classify(sample) {
            *self.buckets.entry(exp_bits as i16 - 1023).or_insert(0) += 1;
        }
    }

    /// The one classification of a sample, shared by [`Self::record`]
    /// and [`Self::record_batch`]: counts it, tallies a NaN, an
    /// infinity, an underflow or a negative, widens `min`/`max` for a
    /// finite one, and returns a positive normal's raw exponent field
    /// (1..=2046) for the caller to bucket.
    #[inline(always)]
    fn classify(&mut self, sample: f64) -> Option<usize> {
        self.count += 1;
        if sample.is_nan() {
            self.nan += 1;
            return None;
        }
        if sample.is_infinite() {
            self.infinite += 1;
            return None;
        }
        // Finite from here on: min/max cover every finite sample.
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
        let bits = sample.to_bits();
        let exp_bits = ((bits >> 52) & 0x7ff) as usize;
        if exp_bits == 0 {
            // ±0.0 and subnormals share the zero exponent field.
            self.underflow += 1;
            None
        } else if bits >> 63 == 1 {
            self.negative += 1;
            None
        } else {
            Some(exp_bits)
        }
    }

    /// Records every sample in one pass — exactly equivalent to
    /// calling [`Self::record`] per sample (same counts, same bits),
    /// but per-sample bucket resolution is a flat array increment
    /// indexed by the raw exponent field instead of a map walk; the
    /// scratch table folds into [`Self::buckets`] once at the end.
    ///
    /// This is the cohort-digest hot path: a `Q = 10^7` population
    /// round records tens of thousands of samples per round, and the
    /// per-sample `BTreeMap` entry walk (let alone a string-keyed
    /// registry lookup) was the dominant telemetry cost at scale.
    pub fn record_batch(&mut self, samples: impl IntoIterator<Item = f64>) {
        // Exponent fields 1..=2046 are the positive normals; 16 KiB of
        // zeroed stack is sub-µs. Only the touched window `lo..=hi` is
        // folded back: a cohort's samples span a handful of binades,
        // and a full 2046-entry scan per batch was most of its cost.
        let mut scratch = [0u64; 2046];
        let (mut lo, mut hi) = (scratch.len(), 0);
        for sample in samples {
            if let Some(exp_bits) = self.classify(sample) {
                let i = exp_bits - 1;
                scratch[i] += 1;
                lo = lo.min(i);
                hi = hi.max(i);
            }
        }
        if lo > hi {
            return;
        }
        for (i, &n) in (lo..=hi).zip(&scratch[lo..=hi]) {
            if n > 0 {
                let exponent = (i + 1) as i16 - 1023;
                *self.buckets.entry(exponent).or_insert(0) += n;
            }
        }
    }

    /// Folds another histogram into this one.
    ///
    /// All state is either a `u64` sum or an associative `f64`
    /// min/max, so `(a ⊕ b) ⊕ c` and `a ⊕ (b ⊕ c)` produce identical
    /// bits — the property the fixed-worker-order merge tests pin.
    pub fn merge_from(&mut self, other: &Histogram) {
        self.count += other.count;
        self.underflow += other.underflow;
        self.negative += other.negative;
        self.infinite += other.infinite;
        self.nan += other.nan;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (&exponent, &n) in &other.buckets {
            *self.buckets.entry(exponent).or_insert(0) += n;
        }
    }

    /// Count of finite samples (the ones `min`/`max` describe).
    pub fn finite_count(&self) -> u64 {
        self.count - self.infinite - self.nan
    }

    /// Approximate quantile over the positive-normal buckets.
    ///
    /// Returns the arithmetic midpoint `1.5 · 2^e` of the power-of-two
    /// bucket `[2^e, 2^{e+1})` that contains the `q`-th positive
    /// sample, or `None` when no positive normal sample has been
    /// recorded.
    ///
    /// # Error bound
    ///
    /// The true sample lies somewhere in the bucket, so the ratio
    /// `estimate / true` is confined to `(0.75, 1.5]`: the estimate
    /// overstates by at most **+50 %** (true value exactly `2^e`, the
    /// bucket's lower edge) and understates by strictly less than
    /// **−25 %** (true value approaching `2^{e+1}`). A unit test pins
    /// both worst cases. That is fine for a post-run summary — which
    /// is why [`crate::report::TelemetryReport`] prints these as
    /// `~p50` / `~p99` — but not for assertions; exact per-round
    /// percentiles come from span durations in a traced run, as
    /// `bench_suite` reads them.
    pub fn approx_quantile(&self, q: f64) -> Option<f64> {
        let positive: u64 = self.buckets.values().sum();
        if positive == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * positive as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&exponent, &n) in &self.buckets {
            seen += n;
            if seen >= target {
                return Some(1.5 * (exponent as f64).exp2());
            }
        }
        None
    }

    /// Compact single-line encoding for span attributes — the four
    /// special tallies, then the exponent buckets:
    /// `"u<underflow>,n<negative>,i<infinite>,x<nan>,<e>:<count>,…"`.
    ///
    /// Used by digest-mode timeline tracing to ship a per-cohort
    /// distribution inside one `cohort_digest` span; decode with
    /// [`Histogram::decode_compact`]. `min`/`max` are not part of the
    /// encoding (digest spans carry them as separate attributes).
    pub fn encode_compact(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "u{},n{},i{},x{}",
            self.underflow, self.negative, self.infinite, self.nan
        );
        for (&exponent, &n) in &self.buckets {
            let _ = write!(out, ",{exponent}:{n}");
        }
        out
    }

    /// Parses an [`Histogram::encode_compact`] string back into count
    /// state. The reconstructed histogram has exact tallies and bucket
    /// counts (and a `count` equal to their sum) but empty `min`/`max`.
    ///
    /// Returns `None` on any malformed field.
    pub fn decode_compact(s: &str) -> Option<Histogram> {
        let mut h = Histogram::new();
        for part in s.split(',') {
            if let Some((exp, n)) = part.split_once(':') {
                let exponent: i16 = exp.parse().ok()?;
                let n: u64 = n.parse().ok()?;
                h.count += n;
                *h.buckets.entry(exponent).or_insert(0) += n;
            } else {
                if !part.is_char_boundary(1) || part.len() < 2 {
                    return None;
                }
                let (tag, n) = part.split_at(1);
                let n: u64 = n.parse().ok()?;
                h.count += n;
                match tag {
                    "u" => h.underflow += n,
                    "n" => h.negative += n,
                    "i" => h.infinite += n,
                    "x" => h.nan += n,
                    _ => return None,
                }
            }
        }
        Some(h)
    }

    fn to_json(&self) -> JsonObject {
        let mut o = JsonObject::new();
        o.field("count", self.count)
            .field("underflow", self.underflow)
            .field("negative", self.negative)
            .field("infinite", self.infinite)
            .field("nan", self.nan);
        if self.finite_count() > 0 {
            o.field("min", self.min).field("max", self.max);
        } else {
            o.field("min", Option::<f64>::None).field("max", Option::<f64>::None);
        }
        let mut buckets = JsonObject::new();
        for (&exponent, &n) in &self.buckets {
            buckets.field(&exponent.to_string(), n);
        }
        o.object("buckets", buckets);
        o
    }

    /// Inverts [`Self::to_json`]: a `null` bound is an empty side.
    fn from_json(v: &JsonValue) -> Result<Self, FieldError> {
        let mut buckets = BTreeMap::new();
        for (exponent, n) in v.field::<&[(String, JsonValue)]>("buckets")? {
            let refuse = |want| FieldError::new("buckets", want);
            let exponent = exponent.parse().map_err(|_| refuse("keyed by i16 exponents"))?;
            let n = u64::from_json(n).ok_or_else(|| refuse("a map to integers in [0, 2^64)"))?;
            buckets.insert(exponent, n);
        }
        Ok(Self {
            count: v.field("count")?,
            underflow: v.field("underflow")?,
            negative: v.field("negative")?,
            infinite: v.field("infinite")?,
            nan: v.field("nan")?,
            min: v.field::<Option<f64>>("min")?.unwrap_or(f64::INFINITY),
            max: v.field::<Option<f64>>("max")?.unwrap_or(f64::NEG_INFINITY),
            buckets,
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    class: Class,
    metric: Metric,
}

/// A named collection of metrics with deterministic iteration order.
///
/// Keys are sorted (`BTreeMap`), so serialization, merging, and
/// equality checks never depend on insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, Entry>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no metric has been touched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct metric names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Adds `delta` to a counter, creating it at zero first.
    ///
    /// # Panics
    ///
    /// Panics if `name` already exists as a different metric kind or
    /// class — that is a programming error, not a runtime condition.
    pub fn counter_add(&mut self, class: Class, name: &str, delta: u64) {
        match self.entry(class, name, || Metric::Counter(0)) {
            Metric::Counter(v) => *v += delta,
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// Sets a gauge to `value` (last write wins).
    ///
    /// # Panics
    ///
    /// Panics on kind or class mismatch, as for [`Self::counter_add`].
    pub fn gauge_set(&mut self, class: Class, name: &str, value: f64) {
        match self.entry(class, name, || Metric::Gauge(0.0)) {
            Metric::Gauge(v) => *v = value,
            other => panic!("metric '{name}' is a {}, not a gauge", other.kind()),
        }
    }

    /// Records a histogram sample.
    ///
    /// # Panics
    ///
    /// Panics on kind or class mismatch, as for [`Self::counter_add`].
    pub fn record(&mut self, class: Class, name: &str, sample: f64) {
        match self.entry(class, name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h.record(sample),
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    /// Records a whole batch of histogram samples, resolving `name`
    /// once. Exactly equivalent to calling [`Self::record`] per
    /// sample; use it on per-device hot loops, where the string-keyed
    /// registry walk per sample would otherwise dominate (see
    /// [`Histogram::record_batch`]).
    ///
    /// # Panics
    ///
    /// Panics on kind or class mismatch, as for [`Self::counter_add`].
    pub fn record_iter(
        &mut self,
        class: Class,
        name: &str,
        samples: impl IntoIterator<Item = f64>,
    ) {
        match self.entry(class, name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h.record_batch(samples),
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    fn entry(
        &mut self,
        class: Class,
        name: &str,
        default: impl FnOnce() -> Metric,
    ) -> &mut Metric {
        if !self.entries.contains_key(name) {
            self.entries
                .insert(name.to_string(), Entry { class, metric: default() });
        }
        let entry = self.entries.get_mut(name).expect("just inserted");
        assert!(
            entry.class == class,
            "metric '{name}' re-registered with a different determinism class"
        );
        &mut entry.metric
    }

    /// Installs a metric verbatim, replacing any existing entry of the
    /// same name — the checkpoint-restore path. Unlike the recording
    /// APIs this performs no accumulation: the metric lands exactly as
    /// given, so a registry rebuilt from a checkpoint is bit-identical
    /// to the one that was captured (the [`Metric`] and [`Histogram`]
    /// fields are public precisely so a serializer can round-trip
    /// them).
    pub fn insert(&mut self, class: Class, name: &str, metric: Metric) {
        self.entries.insert(name.to_string(), Entry { class, metric });
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.get(name).map(|e| &e.metric)
    }

    /// Convenience accessor for a counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Convenience accessor for a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Class, &Metric)> {
        self.entries.iter().map(|(k, e)| (k.as_str(), e.class, &e.metric))
    }

    /// Folds `other` into this registry.
    ///
    /// Counters and histogram buckets add; gauges take `other`'s value
    /// (last write wins, so merge order matters for gauges — callers
    /// merge per-worker registries in worker-index order to keep the
    /// result a pure function of the partitioned data).
    ///
    /// # Panics
    ///
    /// Panics if the same name holds different metric kinds or classes
    /// in the two registries.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (name, entry) in &other.entries {
            match &entry.metric {
                Metric::Counter(v) => self.counter_add(entry.class, name, *v),
                Metric::Gauge(v) => self.gauge_set(entry.class, name, *v),
                Metric::Histogram(h) => {
                    match self.entry(entry.class, name, || {
                        Metric::Histogram(Histogram::new())
                    }) {
                        Metric::Histogram(mine) => mine.merge_from(h),
                        other => panic!(
                            "metric '{name}' is a {}, not a histogram",
                            other.kind()
                        ),
                    }
                }
            }
        }
    }

    /// The deterministic ([`Class::Sim`]) subset of this registry.
    ///
    /// Two runs with the same seed must produce equal snapshots here
    /// regardless of thread count, sink choice, or host speed.
    pub fn deterministic(&self) -> MetricsRegistry {
        MetricsRegistry {
            entries: self
                .entries
                .iter()
                .filter(|(_, e)| e.class == Class::Sim)
                .map(|(k, e)| (k.clone(), e.clone()))
                .collect(),
        }
    }

    /// Renders the registry as a JSON object keyed by metric name.
    pub fn to_json(&self) -> JsonObject {
        let mut o = JsonObject::new();
        for (name, entry) in &self.entries {
            let mut m = JsonObject::new();
            m.field("kind", entry.metric.kind()).field("class", entry.class.as_str());
            match &entry.metric {
                Metric::Counter(v) => m.field("value", *v),
                Metric::Gauge(v) => m.field("value", *v),
                Metric::Histogram(h) => m.object("value", h.to_json()),
            };
            o.object(name, m);
        }
        o
    }

    /// Decodes the object [`Self::to_json`] writes — the `metrics`
    /// member of a trace's metrics line. A non-finite gauge, written as
    /// `null`, reads back as NaN.
    ///
    /// # Errors
    ///
    /// Refuses a non-object, or an entry with an unknown `kind` or
    /// `class` or a missing or ill-typed field, naming the metric and
    /// the field.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let JsonValue::Object(members) = v else {
            return Err("metrics is not an object".to_string());
        };
        let mut registry = Self::new();
        for (name, entry) in members {
            let (class, metric) =
                Self::entry_from_json(entry).map_err(|e| format!("metric {name:?}: {e}"))?;
            registry.insert(class, name, metric);
        }
        Ok(registry)
    }

    fn entry_from_json(entry: &JsonValue) -> Result<(Class, Metric), FieldError> {
        let class = match entry.field("class")? {
            "sim" => Class::Sim,
            "runtime" => Class::Runtime,
            _ => return Err(FieldError::new("class", "\"sim\" or \"runtime\"")),
        };
        let metric = match entry.field("kind")? {
            "counter" => Metric::Counter(entry.field("value")?),
            // A non-finite gauge is written as `null`.
            "gauge" => Metric::Gauge(entry.field::<Option<f64>>("value")?.unwrap_or(f64::NAN)),
            "histogram" => Metric::Histogram(Histogram::from_json(entry.field("value")?)?),
            _ => {
                let want = "\"counter\", \"gauge\" or \"histogram\"";
                return Err(FieldError::new("kind", want));
            }
        };
        Ok((class, metric))
    }
}

/// Exact nearest-rank percentile of an ascending-sorted slice: the
/// smallest element such that at least `q·n` samples are ≤ it (`q` is
/// clamped to `[0, 1]`).
///
/// Unlike [`Histogram::approx_quantile`] this operates on the raw
/// samples, so it yields true percentiles, not bucket midpoints.
///
/// # Panics
///
/// Panics on an empty slice — percentiles of nothing are a caller bug.
pub fn percentile_nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_nearest_rank(&samples, 0.5), 50);
        assert_eq!(percentile_nearest_rank(&samples, 0.99), 99);
        assert_eq!(percentile_nearest_rank(&samples, 0.0), 1);
        assert_eq!(percentile_nearest_rank(&samples, 1.0), 100);
        assert_eq!(percentile_nearest_rank(&[7u64], 0.5), 7);
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_nearest_rank(&xs, 0.50), 3.0);
        assert_eq!(percentile_nearest_rank(&xs, 0.99), 5.0);
        assert_eq!(percentile_nearest_rank(&xs, 1.5), 5.0);
        assert_eq!(percentile_nearest_rank(&xs, -1.0), 1.0);
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut r = MetricsRegistry::new();
        r.counter_add(Class::Sim, "rounds", 1);
        r.counter_add(Class::Sim, "rounds", 2);
        r.gauge_set(Class::Runtime, "threads", 4.0);
        r.gauge_set(Class::Runtime, "threads", 8.0);
        assert_eq!(r.counter("rounds"), 3);
        assert_eq!(r.get("threads"), Some(&Metric::Gauge(8.0)));
    }

    #[test]
    fn histogram_buckets_by_binary_exponent() {
        let mut h = Histogram::new();
        h.record(1.0); // [1, 2) → e = 0
        h.record(1.9);
        h.record(2.0); // [2, 4) → e = 1
        h.record(0.75); // [0.5, 1) → e = -1
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets.get(&0), Some(&2));
        assert_eq!(h.buckets.get(&1), Some(&1));
        assert_eq!(h.buckets.get(&-1), Some(&1));
        assert_eq!(h.min, 0.75);
        assert_eq!(h.max, 2.0);
    }

    #[test]
    fn record_batch_is_bit_identical_to_per_sample_record() {
        // Every sample class the per-sample path distinguishes: NaN,
        // ±inf, negatives, ±0.0, subnormals, and normals spanning
        // bucket boundaries — the batch path must land each in the
        // same tally and produce the same min/max bits.
        let samples = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -3.5,
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 2.0,
            1.0,
            1.9,
            2.0,
            0.75,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        let mut one_by_one = Histogram::new();
        for s in samples {
            one_by_one.record(s);
        }
        let mut batched = Histogram::new();
        batched.record_batch(samples);
        assert_eq!(batched, one_by_one);
        assert_eq!(batched.min.to_bits(), one_by_one.min.to_bits());
        assert_eq!(batched.max.to_bits(), one_by_one.max.to_bits());

        // A batch with no positive normal folds no bucket at all.
        let mut unbucketed = Histogram::new();
        unbucketed.record_batch([-1.0, 0.0, f64::NAN]);
        assert!(unbucketed.buckets.is_empty());
        assert_eq!((unbucketed.count, unbucketed.negative, unbucketed.underflow), (3, 1, 1));

        // record_iter resolves the registry name once and folds into
        // the same histogram the per-sample API would.
        let mut r = MetricsRegistry::new();
        r.record(Class::Sim, "x", 1.0);
        r.record_iter(Class::Sim, "x", samples);
        let mut expect = one_by_one.clone();
        expect.record(1.0);
        assert_eq!(r.histogram("x"), Some(&expect));
    }

    #[test]
    #[should_panic(expected = "not a histogram")]
    fn record_iter_kind_mismatch_panics() {
        let mut r = MetricsRegistry::new();
        r.counter_add(Class::Sim, "x", 1);
        r.record_iter(Class::Sim, "x", [1.0]);
    }

    #[test]
    fn deterministic_filters_runtime_metrics() {
        let mut r = MetricsRegistry::new();
        r.counter_add(Class::Sim, "selection.selected", 10);
        r.record(Class::Runtime, "worker.busy_ns", 1234.0);
        let det = r.deterministic();
        assert_eq!(det.len(), 1);
        assert!(det.get("selection.selected").is_some());
        assert!(det.get("worker.busy_ns").is_none());
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let mut r = MetricsRegistry::new();
        r.gauge_set(Class::Sim, "x", 1.0);
        r.counter_add(Class::Sim, "x", 1);
    }

    #[test]
    #[should_panic(expected = "different determinism class")]
    fn class_mismatch_panics() {
        let mut r = MetricsRegistry::new();
        r.counter_add(Class::Sim, "x", 1);
        r.counter_add(Class::Runtime, "x", 1);
    }

    #[test]
    fn insert_replaces_verbatim_for_bit_exact_restore() {
        let mut live = MetricsRegistry::new();
        live.counter_add(Class::Sim, "rounds", 7);
        live.record(Class::Sim, "delay", 0.1 + 0.2); // awkward bits
        live.gauge_set(Class::Sim, "coverage", 1.0 / 3.0);
        // Rebuild a registry through the public surface only, the way
        // a checkpoint loader does.
        let mut rebuilt = MetricsRegistry::new();
        for (name, class, metric) in live.iter() {
            rebuilt.insert(class, name, metric.clone());
        }
        assert_eq!(rebuilt, live);
        // Insert overwrites: no accumulation on repeated restore.
        rebuilt.insert(Class::Sim, "rounds", Metric::Counter(7));
        assert_eq!(rebuilt.counter("rounds"), 7);
    }

    fn decode(text: &str) -> Result<MetricsRegistry, String> {
        MetricsRegistry::from_json(&crate::json::parse(text).unwrap())
    }

    #[test]
    fn from_json_inverts_to_json() {
        let mut r = MetricsRegistry::new();
        r.counter_add(Class::Sim, "rounds", 7);
        r.gauge_set(Class::Runtime, "threads", 4.0);
        r.gauge_set(Class::Sim, "diverged", f64::INFINITY);
        let samples = [0.1 + 0.2, 3.0, -2.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        r.record_iter(Class::Sim, "delay", samples);
        r.record_iter(Class::Runtime, "empty", []);
        r.record(Class::Sim, "only_nan", f64::NAN);
        let text = r.to_json().finish();
        assert!(text.contains(r#""value":null"#), "the gauge is written as null: {text}");
        assert!(text.contains(r#""min":null,"max":null"#), "{text}");

        let back = decode(&text).unwrap();
        assert_eq!(back.to_json().finish(), text);
        assert_eq!(back.len(), r.len());
        for ((name, class, metric), (back_name, back_class, back_metric)) in
            r.iter().zip(back.iter())
        {
            assert_eq!((back_name, back_class), (name, class));
            match (metric, back_metric) {
                // JSON has no infinity: the null reads back as NaN.
                (Metric::Gauge(g), Metric::Gauge(b)) if !g.is_finite() => assert!(b.is_nan()),
                _ => assert_eq!(back_metric, metric, "{name}"),
            }
        }
    }

    #[test]
    fn from_json_refuses_a_malformed_entry_by_metric_and_field() {
        let no_nan = r#"{"lat":{"kind":"histogram","class":"sim","value":{"count":0,"underflow":0,"negative":0,"infinite":0,"min":null,"max":null,"buckets":{}}}}"#;
        let fractional = r#"{"rounds":{"kind":"counter","class":"sim","value":1.5}}"#;
        let unknown_kind = r#"{"wait":{"kind":"timer","class":"sim","value":1}}"#;
        for (text, metric, field) in [
            (no_nan, "lat", "nan"),
            (fractional, "rounds", "value"),
            (unknown_kind, "wait", "kind"),
        ] {
            let err = decode(text).unwrap_err();
            assert!(err.contains(&format!("metric {metric:?}")), "{err}");
            assert!(err.contains(&format!("field {field:?}")), "{err}");
        }
        assert!(decode("[]").unwrap_err().contains("not an object"));
    }

    #[test]
    fn every_missing_or_ill_typed_entry_field_is_refused_by_name() {
        use crate::json::{corruptions, parse, JsonValue};
        let mut r = MetricsRegistry::new();
        r.counter_add(Class::Sim, "rounds", 7);
        r.gauge_set(Class::Runtime, "threads", 4.0);
        r.record_iter(Class::Sim, "delay", [0.5, 3.0]);
        let registry = parse(&r.to_json().finish()).unwrap();
        let decode_one = |name: &str, entry: JsonValue| {
            MetricsRegistry::from_json(&JsonValue::Object(vec![(name.to_string(), entry)]))
        };
        let JsonValue::Object(entries) = &registry else { unreachable!() };
        let mut checked = 0;
        for (name, entry) in entries {
            let mut cases = corruptions(entry);
            if let Some(h @ JsonValue::Object(_)) = entry.get("value") {
                // The histogram's own fields, each inside an intact entry.
                for (key, without, wrong) in corruptions(h) {
                    let nest = |h: JsonValue| {
                        let mut e = entry.clone();
                        if let JsonValue::Object(m) = &mut e {
                            m.iter_mut().find(|(k, _)| k == "value").unwrap().1 = h;
                        }
                        e
                    };
                    cases.push((key, nest(without), nest(wrong)));
                }
            }
            for (key, without, wrong) in cases {
                for corrupt in [without, wrong] {
                    let err = decode_one(name, corrupt).unwrap_err();
                    assert!(err.contains(&format!("metric {name:?}")), "{err}");
                    assert!(err.contains(&format!("field {key:?}")), "{name}.{key}: {err}");
                    checked += 1;
                }
            }
        }
        // counter and gauge: kind, class, value; histogram: those three
        // and its eight fields — each dropped and ill-typed.
        assert_eq!(checked, 2 * (3 + 3 + 3 + 8));
    }

    #[test]
    fn registry_merge_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.counter_add(Class::Sim, "n", 2);
        a.record(Class::Sim, "h", 1.0);
        let mut b = MetricsRegistry::new();
        b.counter_add(Class::Sim, "n", 3);
        b.record(Class::Sim, "h", 4.0);
        b.record(Class::Sim, "h", f64::INFINITY);
        a.merge_from(&b);
        assert_eq!(a.counter("n"), 5);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.infinite, 1);
        assert_eq!(h.max, 4.0);
    }

    #[test]
    fn compact_encoding_round_trips_counts() {
        let mut h = Histogram::new();
        for x in [1.0, 1.5, 3.0, 0.75, 0.0, -2.0, f64::INFINITY, f64::NAN] {
            h.record(x);
        }
        let encoded = h.encode_compact();
        assert_eq!(encoded, "u1,n1,i1,x1,-1:1,0:2,1:1");
        let back = Histogram::decode_compact(&encoded).unwrap();
        assert_eq!(back.count, h.count);
        assert_eq!(back.underflow, h.underflow);
        assert_eq!(back.negative, h.negative);
        assert_eq!(back.infinite, h.infinite);
        assert_eq!(back.nan, h.nan);
        assert_eq!(back.buckets, h.buckets);
        // An empty histogram still encodes its (zero) tallies.
        let empty = Histogram::new();
        let back = Histogram::decode_compact(&empty.encode_compact()).unwrap();
        assert_eq!(back.count, 0);
        assert!(back.buckets.is_empty());
    }

    #[test]
    fn compact_decoding_rejects_malformed_fields() {
        for bad in ["", "u", "z3", "0:abc", "u1,,0:1", "é7", "1:2:3"] {
            assert!(
                Histogram::decode_compact(bad).is_none(),
                "accepted malformed {bad:?}"
            );
        }
    }

    #[test]
    fn approx_quantile_lands_in_the_right_bucket() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(1.0); // e = 0
        }
        for _ in 0..10 {
            h.record(100.0); // e = 6 ([64, 128))
        }
        assert_eq!(h.approx_quantile(0.5), Some(1.5));
        assert_eq!(h.approx_quantile(0.99), Some(1.5 * 64.0));
        assert_eq!(Histogram::new().approx_quantile(0.5), None);
    }

    #[test]
    fn approx_quantile_error_stays_within_documented_bound() {
        // Worst-case overstatement: the sample sits exactly on a
        // bucket's lower edge 2^e, the estimate is the midpoint
        // 1.5·2^e → relative error +50 %.
        let mut low = Histogram::new();
        low.record(8.0); // e = 3, bucket [8, 16)
        let est = low.approx_quantile(0.5).unwrap();
        assert_eq!(est, 12.0);
        assert!((est / 8.0 - 1.5).abs() < 1e-12, "upper bound is exactly +50%");

        // Worst-case understatement: the sample approaches the upper
        // edge 2^{e+1} from below → ratio approaches 0.75.
        let mut high = Histogram::new();
        let just_below = f64::from_bits(16.0f64.to_bits() - 1);
        high.record(just_below); // still bucket [8, 16)
        let est = high.approx_quantile(0.5).unwrap();
        assert_eq!(est, 12.0);
        let ratio = est / just_below;
        assert!(ratio > 0.75 && ratio < 0.7500001, "lower bound is an open 0.75");

        // Sweep a few decades: the ratio never leaves (0.75, 1.5].
        for i in 0..200 {
            let x = 0.001 * 1.1f64.powi(i);
            let mut h = Histogram::new();
            h.record(x);
            let ratio = h.approx_quantile(0.5).unwrap() / x;
            assert!(ratio > 0.75 && ratio <= 1.5, "x={x}: ratio {ratio}");
        }
    }
}

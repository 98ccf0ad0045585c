//! Trace interpretation: parsing, span-tree reconstruction, per-round
//! phase breakdowns, critical-path extraction, and the coverage check.
//!
//! The [`crate::JsonlSink`] stream is completion-ordered — children
//! appear *before* their parents, because a child span drops first —
//! so nothing in the file can be read top-down as a tree. [`Trace`]
//! ingests the whole file through the strict parser in [`crate::json`]
//! and [`SpanTree`] rebuilds the hierarchy from the recorded parent
//! ids, tolerating any interleaving of lines.
//!
//! Everything here is a *read-only consumer*: analysis never touches a
//! live [`crate::Telemetry`] handle, so it cannot perturb the
//! determinism guarantees of a traced run.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

use crate::json::{parse, FieldError, FromJson, JsonObject, JsonValue};
use crate::manifest::RunManifest;
use crate::metrics::MetricsRegistry;

/// One completed span read back from a JSONL trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Unique id within the run.
    pub id: u64,
    /// Span name (`"round"`, `"local_update"`, …).
    pub name: String,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Start time in µs since the telemetry epoch.
    pub t_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Attached attributes, in emission order.
    pub attrs: Vec<(String, JsonValue)>,
}

impl TraceSpan {
    /// End time in µs since the telemetry epoch.
    #[inline]
    pub fn end_us(&self) -> u64 {
        self.t_us + self.dur_us
    }

    /// The attribute `key` read as a `T` (see [`JsonValue::field`]).
    ///
    /// # Errors
    ///
    /// Refuses, naming this span and the key, an attribute that is
    /// absent or not a `T`.
    pub fn require<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<T, String> {
        self.optional(key)?.ok_or_else(|| self.refusal::<T>(key))
    }

    /// Like [`Self::require`], but an absent attribute reads as `None`
    /// (see [`JsonValue::optional`]).
    ///
    /// # Errors
    ///
    /// Refuses, naming this span and the key, an attribute that is
    /// present and not a `T`.
    pub fn optional<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<Option<T>, String> {
        let value = self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        value.map(|v| T::from_json(v).ok_or_else(|| self.refusal::<T>(key))).transpose()
    }

    fn refusal<'a, T: FromJson<'a>>(&self, key: &str) -> String {
        format!("{} span {}: attr {}", self.name, self.id, FieldError::new(key, T::want()))
    }
}

/// One point event read back from a JSONL trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePoint {
    /// Event name.
    pub name: String,
    /// Time in µs since the telemetry epoch.
    pub t_us: u64,
    /// Attached attributes.
    pub attrs: Vec<(String, JsonValue)>,
}

/// A fully parsed trace file.
///
/// Produced by [`Trace::parse`], which enforces the same strictness as
/// the old `check_trace` binary: every line must be a standalone JSON
/// object of a known `type` with the fields that type requires, and
/// span ids must be unique.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All spans, in file (completion) order.
    pub spans: Vec<TraceSpan>,
    /// All point events, in file order.
    pub events: Vec<TracePoint>,
    /// The end-of-run metrics line (`{"type":"metrics",...}`), decoded
    /// by [`MetricsRegistry::from_json`], when present. When a file
    /// holds several (one per `finish()` call), the last one wins — it
    /// is the most complete snapshot.
    pub metrics: Option<MetricsRegistry>,
    /// Run-provenance manifests, in file order. One per traced run; a
    /// multi-run file (e.g. `reproduce` tracing its whole run set into
    /// one file) holds several.
    pub manifests: Vec<RunManifest>,
}

impl Trace {
    /// Parses a whole JSONL trace from its text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed JSON,
    /// an unknown `type`, a missing or malformed required field (a
    /// metrics-line entry names the metric and the field), or a
    /// duplicate span id.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::ingest(text, Err)
    }

    /// Reads and parses a trace file from disk.
    ///
    /// # Errors
    ///
    /// I/O failures and every [`Trace::parse`] condition.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Lenient parse for a trace that is *still being written* (the
    /// `helcfl-trace watch` path): lines [`Trace::parse`] would refuse
    /// — typically one partially-flushed tail line — and duplicate span
    /// ids are skipped instead of failing, and spans whose parent has
    /// not landed yet are pruned so [`SpanTree::build`] always succeeds
    /// on the result.
    ///
    /// Returns the parseable prefix plus the number of lines and spans
    /// dropped. A fully-written trace drops nothing and round-trips
    /// identically to [`Trace::parse`].
    pub fn parse_prefix(text: &str) -> (Self, usize) {
        let mut dropped = 0usize;
        let mut trace = Self::ingest(text, |_| {
            dropped += 1;
            Ok(())
        })
        .expect("the lenient ingest skips every refused line");
        dropped += prune_orphan_spans(&mut trace);
        (trace, dropped)
    }

    /// The one line loop behind [`Self::parse`] and
    /// [`Self::parse_prefix`]: each non-blank line is decoded once;
    /// a refused line's message goes to `refused`, whose error stops
    /// the ingest.
    fn ingest(
        text: &str,
        mut refused: impl FnMut(String) -> Result<(), String>,
    ) -> Result<Self, String> {
        let mut trace = Trace::default();
        let mut seen_ids = HashSet::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            if let Err(e) = trace.ingest_line(line, &mut seen_ids) {
                refused(format!("line {}: {e}", lineno + 1))?;
            }
        }
        Ok(trace)
    }

    /// Decodes one line into the trace. On error nothing is added and
    /// the message names what is missing or malformed.
    fn ingest_line(&mut self, line: &str, seen_ids: &mut HashSet<u64>) -> Result<(), String> {
        let value = parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        let kind = value.field::<&str>("type")?;
        let in_kind = |e: FieldError| format!("{kind}: {e}");
        let name = || value.field::<&str>("name").map(str::to_string).map_err(in_kind);
        let count = |key| value.field::<u64>(key).map_err(in_kind);
        let attrs = || {
            let attrs = value.optional::<&[(String, JsonValue)]>("attrs");
            attrs.map(|a| a.unwrap_or_default().to_vec()).map_err(in_kind)
        };
        match kind {
            "span" => {
                let span = TraceSpan {
                    name: name()?,
                    id: count("id")?,
                    t_us: count("t_us")?,
                    dur_us: count("dur_us")?,
                    // A root span's parent is `null`.
                    parent: value.optional::<Option<u64>>("parent").map_err(in_kind)?.flatten(),
                    attrs: attrs()?,
                };
                if !seen_ids.insert(span.id) {
                    return Err(format!("duplicate span id {}", span.id));
                }
                self.spans.push(span);
            }
            "event" => {
                let point = TracePoint { name: name()?, t_us: count("t_us")?, attrs: attrs()? };
                self.events.push(point);
            }
            "metrics" => {
                let metrics = value.field::<&JsonValue>("metrics").map_err(in_kind)?;
                self.metrics = Some(MetricsRegistry::from_json(metrics)?);
            }
            "run_manifest" => self.manifests.push(RunManifest::from_json(&value)?),
            other => return Err(format!("unknown type {other:?}")),
        }
        Ok(())
    }

    /// Looks up a span by id.
    pub fn span(&self, id: u64) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.id == id)
    }
}

/// Removes spans whose parent chain does not fully resolve within the
/// trace — the completion-ordered stream writes children before
/// parents, so a file snapshot taken mid-round holds spans whose
/// enclosing `round` has not been emitted yet. Returns how many spans
/// were pruned.
fn prune_orphan_spans(trace: &mut Trace) -> usize {
    let mut removed = 0;
    loop {
        let ids: HashSet<u64> = trace.spans.iter().map(|s| s.id).collect();
        let before = trace.spans.len();
        trace.spans.retain(|s| s.parent.is_none_or(|p| ids.contains(&p)));
        removed += before - trace.spans.len();
        if trace.spans.len() == before {
            return removed;
        }
    }
}

/// The rebuilt span hierarchy of a [`Trace`].
///
/// Children are ordered by start time (`t_us`, ties by id), so walking
/// the tree reads chronologically even though the file is
/// completion-ordered.
#[derive(Debug)]
pub struct SpanTree<'a> {
    trace: &'a Trace,
    /// span id → indices into `trace.spans`, start-time sorted.
    children: BTreeMap<u64, Vec<usize>>,
    /// Indices of parentless spans, start-time sorted.
    roots: Vec<usize>,
}

impl<'a> SpanTree<'a> {
    /// Rebuilds the tree from the flat span list.
    ///
    /// # Errors
    ///
    /// Returns a message if any span references a parent id that does
    /// not occur in the trace.
    pub fn build(trace: &'a Trace) -> Result<Self, String> {
        let ids: HashSet<u64> = trace.spans.iter().map(|s| s.id).collect();
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut roots = Vec::new();
        for (i, span) in trace.spans.iter().enumerate() {
            match span.parent {
                Some(p) => {
                    if !ids.contains(&p) {
                        return Err(format!(
                            "span {} ({}) references unknown parent {p}",
                            span.id, span.name
                        ));
                    }
                    children.entry(p).or_default().push(i);
                }
                None => roots.push(i),
            }
        }
        let by_start = |a: &usize, b: &usize| {
            let (sa, sb) = (&trace.spans[*a], &trace.spans[*b]);
            sa.t_us.cmp(&sb.t_us).then(sa.id.cmp(&sb.id))
        };
        for list in children.values_mut() {
            list.sort_by(by_start);
        }
        roots.sort_by(by_start);
        Ok(Self { trace, children, roots })
    }

    /// Root spans in start order.
    pub fn roots(&self) -> impl Iterator<Item = &TraceSpan> {
        self.roots.iter().map(|&i| &self.trace.spans[i])
    }

    /// Direct children of a span, in start order.
    pub fn children(&self, id: u64) -> impl Iterator<Item = &TraceSpan> {
        self.children
            .get(&id)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&i| &self.trace.spans[i])
    }

    /// The chain of spans from `id` downward that ends latest — the
    /// critical path: at every level the child whose end time is
    /// maximal (ties broken toward the later start, then higher id).
    pub fn critical_path(&self, id: u64) -> Vec<&TraceSpan> {
        let mut path = Vec::new();
        let Some(mut cur) = self.trace.span(id) else {
            return path;
        };
        path.push(cur);
        // Depth is bounded by the number of spans; the duplicate-id
        // check in Trace::parse makes parent cycles impossible.
        for _ in 0..self.trace.spans.len() {
            let next = self.children(cur.id).max_by(|a, b| {
                a.end_us()
                    .cmp(&b.end_us())
                    .then(a.t_us.cmp(&b.t_us))
                    .then(a.id.cmp(&b.id))
            });
            match next {
                Some(child) => {
                    path.push(child);
                    cur = child;
                }
                None => break,
            }
        }
        path
    }

    fn render_node(&self, out: &mut String, idx: usize, prefix: &str, last: bool, depth: usize, max_depth: usize) {
        let span = &self.trace.spans[idx];
        let branch = if prefix.is_empty() {
            String::new()
        } else if last {
            format!("{prefix}└─ ")
        } else {
            format!("{prefix}├─ ")
        };
        let _ = write!(out, "{branch}{} {:.3}ms", span.name, span.dur_us as f64 / 1000.0);
        for (key, value) in &span.attrs {
            match value {
                JsonValue::String(s) => {
                    let _ = write!(out, " {key}={s}");
                }
                JsonValue::Number(n) => {
                    let _ = write!(out, " {key}={n}");
                }
                JsonValue::Integer(n) => {
                    let _ = write!(out, " {key}={n}");
                }
                JsonValue::Bool(b) => {
                    let _ = write!(out, " {key}={b}");
                }
                _ => {}
            }
        }
        out.push('\n');
        if depth >= max_depth {
            return;
        }
        let kids = self.children.get(&span.id).map(Vec::as_slice).unwrap_or(&[]);
        let child_prefix = if prefix.is_empty() {
            String::new()
        } else if last {
            format!("{prefix}   ")
        } else {
            format!("{prefix}│  ")
        };
        let deeper = if prefix.is_empty() { "  ".to_string() } else { child_prefix };
        for (n, &kid) in kids.iter().enumerate() {
            self.render_node(out, kid, &deeper, n + 1 == kids.len(), depth + 1, max_depth);
        }
    }

    /// Renders the subtree under the span `id` as ASCII, to at most
    /// `max_depth` levels below it.
    pub fn render(&self, id: u64, max_depth: usize) -> String {
        let mut out = String::new();
        if let Some(idx) = self.trace.spans.iter().position(|s| s.id == id) {
            self.render_node(&mut out, idx, "", true, 0, max_depth);
        }
        out
    }
}

/// Aggregated per-phase timing across every `round` span of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Child-span name (`"selection"`, `"local_update"`, …).
    pub name: String,
    /// Occurrences across all rounds.
    pub count: usize,
    /// Summed duration in µs.
    pub total_us: u64,
    /// Largest single duration in µs.
    pub max_us: u64,
}

/// The per-round phase breakdown of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseBreakdown {
    /// Number of `round` spans seen.
    pub rounds: usize,
    /// Summed duration of all `round` spans, µs.
    pub rounds_total_us: u64,
    /// Duration of the longest round and its span id.
    pub longest_round: Option<(u64, u64)>,
    /// Stats per phase name, ordered by descending total time.
    pub phases: Vec<PhaseStat>,
    /// Worst (lowest) per-round direct-child coverage among judgeable
    /// rounds, with the round span id.
    pub worst_coverage: Option<(f64, u64)>,
}

/// Computes the phase breakdown over every `round` span.
pub fn phase_breakdown(trace: &Trace, tree: &SpanTree<'_>) -> PhaseBreakdown {
    let mut stats: BTreeMap<String, PhaseStat> = BTreeMap::new();
    let mut rounds = 0usize;
    let mut rounds_total_us = 0u64;
    let mut longest: Option<(u64, u64)> = None;
    let mut worst: Option<(f64, u64)> = None;
    for span in &trace.spans {
        if span.name != "round" {
            continue;
        }
        rounds += 1;
        rounds_total_us += span.dur_us;
        if longest.is_none_or(|(d, _)| span.dur_us > d) {
            longest = Some((span.dur_us, span.id));
        }
        for child in tree.children(span.id) {
            let entry = stats.entry(child.name.clone()).or_insert_with(|| PhaseStat {
                name: child.name.clone(),
                count: 0,
                total_us: 0,
                max_us: 0,
            });
            entry.count += 1;
            entry.total_us += child.dur_us;
            entry.max_us = entry.max_us.max(child.dur_us);
        }
        if let Some(coverage) = round_coverage(span, tree) {
            if worst.is_none_or(|(w, _)| coverage < w) {
                worst = Some((coverage, span.id));
            }
        }
    }
    let mut phases: Vec<PhaseStat> = stats.into_values().collect();
    phases.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
    PhaseBreakdown {
        rounds,
        rounds_total_us,
        longest_round: longest,
        phases,
        worst_coverage: worst,
    }
}

impl PhaseBreakdown {
    /// Renders the breakdown as an aligned ASCII table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} rounds, {:.3}ms total round time",
            self.rounds,
            self.rounds_total_us as f64 / 1000.0
        );
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>12} {:>12} {:>12} {:>7}",
            "phase", "count", "total ms", "mean µs", "max µs", "share"
        );
        for p in &self.phases {
            let mean = p.total_us as f64 / p.count.max(1) as f64;
            let share = if self.rounds_total_us > 0 {
                p.total_us as f64 / self.rounds_total_us as f64 * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>12.3} {:>12.1} {:>12} {:>6.1}%",
                p.name,
                p.count,
                p.total_us as f64 / 1000.0,
                mean,
                p.max_us,
                share
            );
        }
        if let Some((dur, id)) = self.longest_round {
            let _ = writeln!(
                out,
                "longest round: span {id} at {:.3}ms",
                dur as f64 / 1000.0
            );
        }
        if let Some((coverage, id)) = self.worst_coverage {
            let _ = writeln!(
                out,
                "worst child coverage: {:.1}% (round span {id})",
                coverage * 100.0
            );
        }
        out
    }
}

impl PhaseBreakdown {
    /// The breakdown as a JSON object (the `phases --json` payload).
    pub fn to_json(&self) -> JsonObject {
        let phases: Vec<JsonObject> = self
            .phases
            .iter()
            .map(|p| {
                let mut o = JsonObject::new();
                o.field("name", &p.name)
                    .field("count", p.count)
                    .field("total_us", p.total_us)
                    .field("max_us", p.max_us)
                    .field("mean_us", p.total_us as f64 / p.count.max(1) as f64);
                o
            })
            .collect();
        let mut o = JsonObject::new();
        o.field("rounds", self.rounds)
            .field("rounds_total_us", self.rounds_total_us)
            .field("longest_round_us", self.longest_round.map(|(d, _)| d))
            .field("longest_round_span", self.longest_round.map(|(_, id)| id))
            .field("worst_coverage", self.worst_coverage.map(|(c, _)| c))
            .field("phases", phases);
        o
    }
}

/// Folded-stack export: one `(path, self_us)` entry per distinct span
/// path, in the `a;b;c weight` format flamegraph.pl and speedscope
/// consume.
///
/// The weight is **self time**: a span's duration minus the summed
/// durations of its direct children, clamped at zero (children of a
/// round can overlap the parent's bookkeeping by a µs of rounding).
/// Self time makes the folded stacks additive — summing every line
/// reproduces total root time without double counting — which is the
/// invariant flamegraph renderers assume. Zero-weight paths are
/// omitted; identical paths (e.g. every round's `round;selection`) are
/// merged. Output is sorted by path for byte-stable export.
pub fn folded_stacks(tree: &SpanTree<'_>) -> Vec<(String, u64)> {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    // Iterative DFS: (span, path prefix). Depth is bounded by the span
    // count; parse-time duplicate-id rejection rules out cycles.
    let mut stack: Vec<(&TraceSpan, String)> = tree
        .roots()
        .map(|s| (s, s.name.clone()))
        .collect();
    while let Some((span, path)) = stack.pop() {
        let child_sum: u64 = tree.children(span.id).map(|c| c.dur_us).sum();
        let self_us = span.dur_us.saturating_sub(child_sum);
        if self_us > 0 {
            *folded.entry(path.clone()).or_insert(0) += self_us;
        }
        for child in tree.children(span.id) {
            stack.push((child, format!("{path};{}", child.name)));
        }
    }
    folded.into_iter().collect()
}

/// One round of a trace as a timeseries sample.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPoint {
    /// The round's `index` attribute, when recorded.
    pub index: Option<u64>,
    /// Span id of the round.
    pub span_id: u64,
    /// Start time in µs since the telemetry epoch.
    pub t_us: u64,
    /// Round duration in µs.
    pub dur_us: u64,
    /// Per-phase total µs within the round (direct children of the
    /// round span, summed per name, name-sorted).
    pub phases: Vec<(String, u64)>,
}

/// Extracts the per-round timeseries: one [`RoundPoint`] per `round`
/// span, ordered by round index (rounds without an index sort last,
/// then by start time and span id).
///
/// # Errors
///
/// Refuses a round whose `index` is present but not a non-negative
/// integer, naming the span.
pub fn round_series(trace: &Trace, tree: &SpanTree<'_>) -> Result<Vec<RoundPoint>, String> {
    let mut points = trace
        .spans
        .iter()
        .filter(|s| s.name == "round")
        .map(|span| {
            let mut phases: BTreeMap<String, u64> = BTreeMap::new();
            for child in tree.children(span.id) {
                *phases.entry(child.name.clone()).or_insert(0) += child.dur_us;
            }
            Ok(RoundPoint {
                index: span.optional("index")?,
                span_id: span.id,
                t_us: span.t_us,
                dur_us: span.dur_us,
                phases: phases.into_iter().collect(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    points.sort_by(|a, b| {
        a.index
            .unwrap_or(u64::MAX)
            .cmp(&b.index.unwrap_or(u64::MAX))
            .then(a.t_us.cmp(&b.t_us))
            .then(a.span_id.cmp(&b.span_id))
    });
    Ok(points)
}

/// Minimum trailing samples before a value is judged by [`mad_flags`].
pub const MAD_MIN_HISTORY: usize = 4;

/// Flags anomalous entries of `values` by robust deviation from a
/// trailing window.
///
/// For each value with at least [`MAD_MIN_HISTORY`] earlier samples,
/// the median and MAD (median absolute deviation) of the up-to-`window`
/// most recent *earlier* values are computed; the value is flagged when
/// it deviates from the median by more than `k` deviation units. The
/// unit is the MAD floored at 1 % of the median's magnitude (and an
/// absolute epsilon), so a perfectly flat history — MAD 0 — does not
/// flag µs-level jitter. Median/MAD instead of mean/σ keeps one
/// earlier spike from masking later ones.
pub fn mad_flags(values: &[f64], window: usize, k: f64) -> Vec<bool> {
    let window = window.max(MAD_MIN_HISTORY);
    let mut flags = vec![false; values.len()];
    let median = |sorted: &[f64]| -> f64 {
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        }
    };
    for (i, &x) in values.iter().enumerate() {
        if i < MAD_MIN_HISTORY {
            continue;
        }
        let start = i.saturating_sub(window);
        let mut prior: Vec<f64> = values[start..i].to_vec();
        prior.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let med = median(&prior);
        let mut devs: Vec<f64> = prior.iter().map(|v| (v - med).abs()).collect();
        devs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mad = median(&devs);
        let scale = mad.max(med.abs() * 0.01).max(1e-12);
        if (x - med).abs() > k * scale {
            flags[i] = true;
        }
    }
    flags
}

/// Coverage below this fails [`check_coverage`].
pub const FAIL_BELOW: f64 = 0.80;
/// Coverage below this warns.
pub const WARN_BELOW: f64 = 0.95;
/// Rounds shorter than this (µs) are not judged for coverage —
/// µs-resolution child timings cannot be compared against them.
pub const MIN_JUDGEABLE_US: f64 = 2000.0;

/// The share of a round's wall-clock its direct children cover, or
/// `None` when the round is shorter than [`MIN_JUDGEABLE_US`] and so
/// not judged — the one coverage rule of [`check_coverage`] and
/// [`phase_breakdown`].
pub fn round_coverage(round: &TraceSpan, tree: &SpanTree<'_>) -> Option<f64> {
    if (round.dur_us as f64) < MIN_JUDGEABLE_US {
        return None;
    }
    let covered: u64 = tree.children(round.id).map(|c| c.dur_us).sum();
    Some(covered as f64 / round.dur_us as f64)
}

/// Result of a passing [`check_coverage`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// Spans in the trace.
    pub spans: usize,
    /// Point events in the trace.
    pub events: usize,
    /// 1 when the trace holds a metrics line (the last one is read),
    /// else 0.
    pub metrics_lines: usize,
    /// `round` spans seen.
    pub rounds: usize,
    /// Rounds long enough to judge.
    pub judged: usize,
    /// Warnings issued (coverage in the warn band), as printable text.
    pub warnings: Vec<String>,
    /// Worst coverage among judged rounds.
    pub worst: Option<f64>,
}

impl CoverageReport {
    /// One-line human summary matching the historical `check_trace`
    /// output.
    pub fn summary(&self) -> String {
        format!(
            "{} spans, {} events, {} metrics lines, {} rounds \
             ({} coverage-judged, {} warnings{})",
            self.spans,
            self.events,
            self.metrics_lines,
            self.rounds,
            self.judged,
            self.warnings.len(),
            match self.worst {
                Some(w) => format!(", worst coverage {:.1}%", w * 100.0),
                None => String::new(),
            }
        )
    }
}

/// The historical `check_trace` validation: schema strictness is
/// enforced by [`Trace::parse`]; this adds the structural checks —
/// parent links resolve, at least one `round` span exists, and the
/// direct children of every judgeable round cover ≥ 80 % of its
/// wall-clock.
///
/// # Errors
///
/// Returns a failure message naming the first violated property.
pub fn check_coverage(trace: &Trace) -> Result<CoverageReport, String> {
    if trace.spans.is_empty() {
        return Err("no spans at all — was tracing enabled?".to_string());
    }
    let tree = SpanTree::build(trace)?;
    let mut report = CoverageReport {
        spans: trace.spans.len(),
        events: trace.events.len(),
        metrics_lines: usize::from(trace.metrics.is_some()),
        rounds: 0,
        judged: 0,
        warnings: Vec::new(),
        worst: None,
    };
    for span in &trace.spans {
        if span.name != "round" {
            continue;
        }
        report.rounds += 1;
        let Some(coverage) = round_coverage(span, &tree) else {
            continue;
        };
        report.judged += 1;
        report.worst = Some(report.worst.map_or(coverage, |w: f64| w.min(coverage)));
        if coverage < FAIL_BELOW {
            return Err(format!(
                "round span {}: children cover only {:.1}% of {} µs (< {:.0}%)",
                span.id,
                coverage * 100.0,
                span.dur_us,
                FAIL_BELOW * 100.0
            ));
        }
        if coverage < WARN_BELOW {
            report.warnings.push(format!(
                "round span {}: child coverage {:.1}% (< {:.0}%)",
                span.id,
                coverage * 100.0,
                WARN_BELOW * 100.0
            ));
        }
    }
    if report.rounds == 0 {
        return Err("no round spans — was a federated run traced?".to_string());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;

    fn span_line(id: u64, name: &str, parent: Option<u64>, t: u64, dur: u64) -> String {
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            r#"{{"type":"span","name":"{name}","id":{id},"parent":{parent},"t_us":{t},"dur_us":{dur}}}"#
        )
    }

    #[test]
    fn parse_collects_spans_events_and_metrics() {
        let text = [
            r#"{"type":"event","name":"pool_resolved","id":1,"parent":null,"t_us":5,"dur_us":null,"attrs":{"workers":4}}"#.to_string(),
            span_line(3, "selection", Some(2), 10, 7),
            span_line(2, "round", None, 9, 100),
            r#"{"type":"metrics","metrics":{"round.completed":{"kind":"counter","class":"sim","value":1}}}"#.to_string(),
        ]
        .join("\n");
        let trace = Trace::parse(&text).unwrap();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.events.len(), 1);
        let metrics = trace.metrics.as_ref().unwrap();
        assert_eq!(metrics.get("round.completed"), Some(&Metric::Counter(1)));
        assert_eq!(trace.span(2).unwrap().name, "round");
    }

    #[test]
    fn parse_refuses_a_malformed_metrics_entry_by_line_metric_and_field() {
        let text = [
            span_line(2, "round", None, 9, 100),
            r#"{"type":"metrics","metrics":{"round.completed":{"kind":"counter","class":"sim"}}}"#
                .to_string(),
        ]
        .join("\n");
        let err = Trace::parse(&text).unwrap_err();
        assert!(err.starts_with("line 2: "), "{err}");
        assert!(err.contains(r#"metric "round.completed": field "value""#), "{err}");
        // The lenient reader drops the line instead.
        let (trace, dropped) = Trace::parse_prefix(&text);
        assert_eq!((trace.metrics, dropped), (None, 1));
    }

    #[test]
    fn parse_prefix_skips_partial_tails_and_prunes_orphans() {
        // A snapshot of a growing file: complete round, then a child of
        // a round span that hasn't been emitted yet (completion order),
        // then a half-written line.
        let text = [
            span_line(3, "selection", Some(2), 10, 7),
            span_line(2, "round", None, 9, 100),
            span_line(6, "grandkid", Some(5), 110, 2),
            span_line(5, "local_update", Some(4), 109, 20),
            r#"{"type":"span","name":"tr"#.to_string(),
        ]
        .join("\n");
        let (trace, dropped) = Trace::parse_prefix(&text);
        // Orphan chain 5→4 (missing) pulls 6 down with it; the partial
        // tail is one more drop.
        assert_eq!(dropped, 3);
        let ids: Vec<_> = trace.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![3, 2]);
        assert!(SpanTree::build(&trace).is_ok());

        // A fully-written trace round-trips losslessly.
        let whole = [
            span_line(3, "selection", Some(2), 10, 7),
            span_line(2, "round", None, 9, 100),
        ]
        .join("\n");
        let (lenient, dropped) = Trace::parse_prefix(&whole);
        assert_eq!(dropped, 0);
        assert_eq!(lenient, Trace::parse(&whole).unwrap());

        // Duplicate ids keep the first occurrence instead of erroring.
        let dup = [span_line(2, "a", None, 0, 1), span_line(2, "b", None, 0, 1)].join("\n");
        let (trace, dropped) = Trace::parse_prefix(&dup);
        assert_eq!(dropped, 1);
        assert_eq!(trace.spans[0].name, "a");
    }

    #[test]
    fn parse_rejects_duplicates_and_unknown_types() {
        let dup = [span_line(2, "a", None, 0, 1), span_line(2, "b", None, 0, 1)].join("\n");
        assert!(Trace::parse(&dup).unwrap_err().contains("duplicate span id 2"));
        let unknown = r#"{"type":"mystery"}"#;
        assert!(Trace::parse(unknown).unwrap_err().contains("unknown type"));
        // No producer writes history records into a trace: a `round`
        // line (`TrainingHistory::to_jsonl`'s shape) is refused too.
        let round = [span_line(2, "round", None, 9, 100), r#"{"type":"round","round":1}"#.into()];
        let err = Trace::parse(&round.join("\n")).unwrap_err();
        assert_eq!(err, r#"line 2: unknown type "round""#);
        let nofield = r#"{"type":"span","name":"x","id":1,"t_us":0}"#;
        assert!(Trace::parse(nofield).unwrap_err().contains("dur_us"));
    }

    #[test]
    fn tree_reconstructs_completion_ordered_children() {
        // Children appear before parents, and not in start order.
        let text = [
            span_line(5, "late_child", Some(2), 50, 10),
            span_line(3, "early_child", Some(2), 10, 5),
            span_line(4, "grandchild", Some(3), 11, 2),
            span_line(2, "round", None, 9, 100),
        ]
        .join("\n");
        let trace = Trace::parse(&text).unwrap();
        let tree = SpanTree::build(&trace).unwrap();
        let roots: Vec<_> = tree.roots().map(|s| s.id).collect();
        assert_eq!(roots, vec![2]);
        let kids: Vec<_> = tree.children(2).map(|s| s.id).collect();
        assert_eq!(kids, vec![3, 5], "children must come back start-ordered");
        let grand: Vec<_> = tree.children(3).map(|s| s.id).collect();
        assert_eq!(grand, vec![4]);
    }

    #[test]
    fn tree_rejects_unknown_parents() {
        let text = span_line(3, "orphan", Some(99), 0, 1);
        let trace = Trace::parse(&text).unwrap();
        assert!(SpanTree::build(&trace).unwrap_err().contains("unknown parent 99"));
    }

    #[test]
    fn critical_path_follows_latest_end() {
        let text = [
            span_line(3, "short", Some(2), 0, 10),
            span_line(4, "long", Some(2), 5, 90),
            span_line(5, "inner", Some(4), 6, 80),
            span_line(2, "round", None, 0, 100),
        ]
        .join("\n");
        let trace = Trace::parse(&text).unwrap();
        let tree = SpanTree::build(&trace).unwrap();
        let path: Vec<_> = tree.critical_path(2).iter().map(|s| s.id).collect();
        assert_eq!(path, vec![2, 4, 5]);
    }

    #[test]
    fn render_shows_names_durations_and_attrs() {
        let text = [
            r#"{"type":"span","name":"selection","id":3,"parent":2,"t_us":1,"dur_us":500,"attrs":{"alpha":0.25}}"#
                .to_string(),
            span_line(2, "round", None, 0, 2000),
        ]
        .join("\n");
        let trace = Trace::parse(&text).unwrap();
        let tree = SpanTree::build(&trace).unwrap();
        let text = tree.render(2, 8);
        assert!(text.contains("round 2.000ms"), "{text}");
        assert!(text.contains("selection 0.500ms"), "{text}");
        assert!(text.contains("alpha=0.25"), "{text}");
    }

    #[test]
    fn phase_breakdown_aggregates_by_child_name() {
        let text = [
            span_line(3, "selection", Some(2), 0, 100),
            span_line(4, "local_update", Some(2), 100, 900),
            span_line(2, "round", None, 0, 1000),
            span_line(6, "selection", Some(5), 1000, 300),
            span_line(7, "local_update", Some(5), 1300, 2700),
            span_line(5, "round", None, 1000, 3000),
        ]
        .join("\n");
        let trace = Trace::parse(&text).unwrap();
        let tree = SpanTree::build(&trace).unwrap();
        let b = phase_breakdown(&trace, &tree);
        assert_eq!(b.rounds, 2);
        assert_eq!(b.rounds_total_us, 4000);
        assert_eq!(b.longest_round, Some((3000, 5)));
        assert_eq!(b.phases[0].name, "local_update");
        assert_eq!(b.phases[0].total_us, 3600);
        assert_eq!(b.phases[0].count, 2);
        assert_eq!(b.phases[1].name, "selection");
        let rendered = b.render();
        assert!(rendered.contains("local_update"), "{rendered}");
    }

    fn manifest_line(seed: u64) -> String {
        format!(
            r#"{{"type":"run_manifest","schema_version":1,"seed":{seed},"scheme":"helcfl","config_fingerprint":"aa","threads":1,"trace_mode":"full","fleet_size":10,"build_profile":"release"}}"#
        )
    }

    #[test]
    fn parse_collects_manifests_in_order() {
        let text = [
            manifest_line(1),
            span_line(2, "round", None, 0, 10),
            manifest_line(7),
        ]
        .join("\n");
        let trace = Trace::parse(&text).unwrap();
        assert_eq!(trace.manifests.len(), 2);
        assert_eq!(trace.manifests[0].identity.seed, 1);
        assert_eq!(trace.manifests[1].identity.seed, 7);

        // parse_prefix keeps them too.
        let (lenient, dropped) = Trace::parse_prefix(&text);
        assert_eq!(dropped, 0);
        assert_eq!(lenient, trace);

        // A malformed manifest is a parse error naming the line.
        let bad = manifest_line(1).replace("\"seed\":1,", "");
        let err = Trace::parse(&bad).unwrap_err();
        assert!(err.contains("line 1") && err.contains("seed"), "{err}");
    }

    #[test]
    fn folded_stacks_weight_by_self_time() {
        // round(100) = selection(10) + local_update(80) + 10 self;
        // local_update has a grandchild worth 30.
        let text = [
            span_line(3, "selection", Some(2), 0, 10),
            span_line(5, "gemm", Some(4), 12, 30),
            span_line(4, "local_update", Some(2), 10, 80),
            span_line(2, "round", None, 0, 100),
        ]
        .join("\n");
        let trace = Trace::parse(&text).unwrap();
        let tree = SpanTree::build(&trace).unwrap();
        let folded = folded_stacks(&tree);
        let get = |p: &str| folded.iter().find(|(q, _)| q == p).map(|(_, w)| *w);
        assert_eq!(get("round"), Some(10));
        assert_eq!(get("round;selection"), Some(10));
        assert_eq!(get("round;local_update"), Some(50));
        assert_eq!(get("round;local_update;gemm"), Some(30));
        // Additivity: total weight equals total root time.
        let total: u64 = folded.iter().map(|(_, w)| w).sum();
        assert_eq!(total, 100);
        // Paths are sorted for stable export.
        let mut sorted = folded.clone();
        sorted.sort();
        assert_eq!(folded, sorted);
    }

    #[test]
    fn folded_stacks_merge_repeated_paths_and_skip_zero_weights() {
        let text = [
            span_line(3, "work", Some(2), 0, 50),
            span_line(2, "round", None, 0, 50), // zero self time
            span_line(5, "work", Some(4), 50, 70),
            span_line(4, "round", None, 50, 70), // zero self time
        ]
        .join("\n");
        let trace = Trace::parse(&text).unwrap();
        let tree = SpanTree::build(&trace).unwrap();
        let folded = folded_stacks(&tree);
        assert_eq!(folded, vec![("round;work".to_string(), 120)]);
    }

    #[test]
    fn round_series_orders_by_index_and_sums_phases() {
        // Rounds emitted out of index order; bookkeeping twice in one
        // round must sum.
        let text = [
            r#"{"type":"span","name":"round","id":10,"parent":null,"t_us":500,"dur_us":100,"attrs":{"index":1}}"#
                .to_string(),
            span_line(12, "bookkeeping", Some(11), 0, 3),
            span_line(13, "bookkeeping", Some(11), 90, 4),
            r#"{"type":"span","name":"round","id":11,"parent":null,"t_us":0,"dur_us":100,"attrs":{"index":0}}"#
                .to_string(),
        ]
        .join("\n");
        let trace = Trace::parse(&text).unwrap();
        let tree = SpanTree::build(&trace).unwrap();
        let series = round_series(&trace, &tree).unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].index, Some(0));
        assert_eq!(series[0].phases, vec![("bookkeeping".to_string(), 7)]);
        assert_eq!(series[1].index, Some(1));
        assert!(series[1].phases.is_empty());
    }

    #[test]
    fn mad_flags_catch_spikes_and_tolerate_flat_series() {
        // Flat series with µs jitter: MAD is 0, the 1% floor keeps
        // jitter unflagged.
        let flat: Vec<f64> = (0..20).map(|i| 1000.0 + f64::from(i % 2)).collect();
        assert!(mad_flags(&flat, 8, 5.0).iter().all(|f| !f));

        // A 10× spike after warmup is flagged; warmup itself never is.
        let mut spiky = vec![100.0; 12];
        spiky[8] = 1000.0;
        let flags = mad_flags(&spiky, 8, 5.0);
        assert!(flags[8], "{flags:?}");
        assert_eq!(flags.iter().filter(|f| **f).count(), 1, "{flags:?}");
        assert!(!flags[..MAD_MIN_HISTORY].iter().any(|f| *f));

        // Short series: nothing judged at all.
        assert!(mad_flags(&[1.0, 2.0, 3.0], 8, 5.0).iter().all(|f| !f));
    }

    #[test]
    fn phase_breakdown_to_json_is_valid_and_complete() {
        let text = [
            span_line(3, "selection", Some(2), 0, 100),
            span_line(4, "local_update", Some(2), 100, 900),
            span_line(2, "round", None, 0, 1000),
        ]
        .join("\n");
        let trace = Trace::parse(&text).unwrap();
        let tree = SpanTree::build(&trace).unwrap();
        let json = phase_breakdown(&trace, &tree).to_json().finish();
        let v = parse(&json).unwrap();
        assert_eq!(v.get("rounds").and_then(JsonValue::as_f64), Some(1.0));
        let phases = match v.get("phases") {
            Some(JsonValue::Array(a)) => a,
            other => panic!("phases not an array: {other:?}"),
        };
        assert_eq!(phases.len(), 2);
        assert_eq!(
            phases[0].get("name").and_then(JsonValue::as_str),
            Some("local_update")
        );
        assert_eq!(phases[0].get("total_us").and_then(JsonValue::as_f64), Some(900.0));
    }

    #[test]
    fn coverage_check_matches_historical_semantics() {
        // Judgeable round at 100% coverage: passes.
        let ok = [
            span_line(3, "work", Some(2), 0, 2500),
            span_line(2, "round", None, 0, 2500),
        ]
        .join("\n");
        let trace = Trace::parse(&ok).unwrap();
        let report = check_coverage(&trace).unwrap();
        assert_eq!(report.rounds, 1);
        assert_eq!(report.judged, 1);
        assert!(report.warnings.is_empty());
        assert!(report.summary().contains("1 rounds"));

        // 50% coverage on a judgeable round: fails naming the span.
        let bad = [
            span_line(3, "work", Some(2), 0, 5000),
            span_line(2, "round", None, 0, 10000),
        ]
        .join("\n");
        let trace = Trace::parse(&bad).unwrap();
        let err = check_coverage(&trace).unwrap_err();
        assert!(err.contains("round span 2"), "{err}");
        assert!(err.contains("50.0%"), "{err}");

        // Short rounds are skipped, but a trace without rounds fails.
        let short =
            [span_line(2, "round", None, 0, 100)].join("\n");
        let trace = Trace::parse(&short).unwrap();
        assert_eq!(check_coverage(&trace).unwrap().judged, 0);
        let no_rounds = span_line(2, "other", None, 0, 100);
        let trace = Trace::parse(&no_rounds).unwrap();
        assert!(check_coverage(&trace).unwrap_err().contains("no round spans"));
    }
}

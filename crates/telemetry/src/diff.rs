//! Cross-run trace comparison: per-phase latency deltas, metrics
//! diffing, audit-report diffing, and critical-path attribution.
//!
//! [`diff_traces`] takes two parsed traces — a *baseline* and a
//! *candidate* — and answers the question a tripped perf gate cannot:
//! **where did the time go?** It first checks run provenance (the
//! [`RunManifest`](crate::RunManifest) lines stamped at the head of
//! each trace) and refuses to compare traces of different experiments;
//! then it builds, from the round spans that both traces already carry:
//!
//! * per-phase p50 / p99 / total deltas (one sample per phase per
//!   round, so a phase that runs twice in a round — `bookkeeping` —
//!   contributes its in-round sum, keeping full and digest traces of
//!   the same run comparable);
//! * a metrics-registry diff over the final `metrics` lines (counter
//!   and gauge values, histogram counts and approximate quantiles);
//! * an audit-report diff (violation counts and newly appearing
//!   invariants);
//! * a **critical-path attribution**: the round-time delta decomposed
//!   into per-phase total-time contributions, ranked by impact, with
//!   the unattributed residual (self time, coverage gaps) reported
//!   rather than hidden.
//!
//! The report is informational: it explains a regression and gates
//! nothing (regression gating is `helcfl-trace gate`'s job, over bench
//! reports with per-record bounds). Like everything in this crate's
//! read side, it never touches a live [`crate::Telemetry`] handle.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::analyze::{round_series, SpanTree, Trace};
use crate::audit::{audit, AuditConfig};
use crate::json::JsonObject;
use crate::metrics::{percentile_nearest_rank, Metric, MetricsRegistry};

/// Switches for [`diff_traces`].
#[derive(Debug, Clone, Default)]
pub struct DiffConfig {
    /// Skip the manifest compatibility check (comparing across seeds
    /// or schemes on purpose). The report notes the override.
    pub ignore_manifest: bool,
}

/// Per-phase latency statistics on both sides.
///
/// Samples are per-round: each round contributes the summed duration
/// of its direct children with this name (or, for the pseudo-phase
/// `"round"`, the round span's own duration).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelta {
    /// Phase name (`"selection"`, `"local_update"`, …, or `"round"`).
    pub name: String,
    /// Rounds contributing a sample on the baseline side.
    pub base_count: usize,
    /// Rounds contributing a sample on the candidate side.
    pub cand_count: usize,
    /// Baseline median per-round µs.
    pub base_p50_us: f64,
    /// Candidate median per-round µs.
    pub cand_p50_us: f64,
    /// Baseline 99th-percentile per-round µs.
    pub base_p99_us: f64,
    /// Candidate 99th-percentile per-round µs.
    pub cand_p99_us: f64,
    /// Baseline total µs across all rounds.
    pub base_total_us: u64,
    /// Candidate total µs across all rounds.
    pub cand_total_us: u64,
}

impl PhaseDelta {
    /// True when the two sides are identical in every statistic.
    pub fn is_zero(&self) -> bool {
        self.base_count == self.cand_count
            && self.base_p50_us == self.cand_p50_us
            && self.base_p99_us == self.cand_p99_us
            && self.base_total_us == self.cand_total_us
    }

    /// Candidate-over-baseline growth of the total time, in percent.
    /// `None` when the baseline total is zero (growth undefined).
    pub fn total_growth_pct(&self) -> Option<f64> {
        let (base, cand) = (self.base_total_us as f64, self.cand_total_us as f64);
        (base > 0.0).then(|| (cand - base) / base * 100.0)
    }
}

/// One side of a metric comparison, reduced to comparable numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSide {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram summary: sample count plus approximate quantiles
    /// (None when no positive-normal sample exists).
    Histogram {
        /// Total samples.
        count: u64,
        /// Approximate median (bucket midpoint).
        p50: Option<f64>,
        /// Approximate 99th percentile (bucket midpoint).
        p99: Option<f64>,
    },
}

impl MetricSide {
    fn render(&self) -> String {
        match self {
            MetricSide::Counter(v) => v.to_string(),
            MetricSide::Gauge(v) => format!("{v}"),
            MetricSide::Histogram { count, p50, p99 } => format!(
                "n={count} ~p50={} ~p99={}",
                p50.map_or("-".to_string(), |v| format!("{v:.3}")),
                p99.map_or("-".to_string(), |v| format!("{v:.3}")),
            ),
        }
    }
}

/// One metric name's presence and value on both sides.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub name: String,
    /// Determinism class as recorded (`"sim"` / `"runtime"`).
    pub class: String,
    /// Baseline value; `None` when the metric is candidate-only.
    pub baseline: Option<MetricSide>,
    /// Candidate value; `None` when the metric is baseline-only.
    pub candidate: Option<MetricSide>,
}

impl MetricDelta {
    /// True when both sides exist and are equal (two NaN gauges — a
    /// non-finite gauge reads back as NaN — count as equal).
    pub fn is_zero(&self) -> bool {
        match (&self.baseline, &self.candidate) {
            (Some(MetricSide::Gauge(b)), Some(MetricSide::Gauge(c))) => {
                b == c || (b.is_nan() && c.is_nan())
            }
            (base, cand) => base.is_some() && base == cand,
        }
    }
}

/// Audit outcomes on both sides.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditDelta {
    /// Baseline violation count.
    pub base_violations: usize,
    /// Candidate violation count.
    pub cand_violations: usize,
    /// Rounds audited on the baseline side.
    pub base_rounds_audited: usize,
    /// Rounds audited on the candidate side.
    pub cand_rounds_audited: usize,
    /// Invariant names violated by the candidate but not the baseline.
    pub new_invariants: Vec<String>,
}

/// One phase's contribution to the round-time delta.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Phase name.
    pub name: String,
    /// Candidate minus baseline total µs (signed).
    pub delta_us: i64,
    /// This phase's share of the round-time delta, in percent; `None`
    /// when the round delta is zero.
    pub share_pct: Option<f64>,
}

/// The full comparison result.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The pseudo-phase `"round"`: whole-round durations.
    pub round: PhaseDelta,
    /// Per-phase deltas, ordered by descending absolute total delta
    /// (name-tiebroken).
    pub phases: Vec<PhaseDelta>,
    /// Per-metric deltas, name-ordered; zero-delta entries included so
    /// JSON consumers see the full registry.
    pub metrics: Vec<MetricDelta>,
    /// Audit comparison; `None` when either side is structurally
    /// unauditable (noted in `notes`).
    pub audit: Option<AuditDelta>,
    /// Round-time delta decomposed per phase, ranked by |impact|.
    pub attribution: Vec<Attribution>,
    /// Round delta left unattributed by phase totals (self time /
    /// coverage gaps), µs.
    pub residual_us: i64,
    /// Non-fatal observations (manifest override, unauditable side,
    /// one-sided phases).
    pub notes: Vec<String>,
}

impl DiffReport {
    /// True when the two traces agree exactly: same phase set, every
    /// phase and metric delta zero, equal round statistics.
    pub fn zero_delta(&self) -> bool {
        self.round.is_zero()
            && self.phases.iter().all(PhaseDelta::is_zero)
            && self.metrics.iter().all(MetricDelta::is_zero)
    }

    /// Machine-readable JSON rendering.
    pub fn to_json(&self) -> JsonObject {
        let phase_json = |p: &PhaseDelta| {
            let mut o = JsonObject::new();
            o.field("name", &p.name)
                .field("base_count", p.base_count)
                .field("cand_count", p.cand_count)
                .field("base_p50_us", p.base_p50_us)
                .field("cand_p50_us", p.cand_p50_us)
                .field("base_p99_us", p.base_p99_us)
                .field("cand_p99_us", p.cand_p99_us)
                .field("base_total_us", p.base_total_us)
                .field("cand_total_us", p.cand_total_us);
            o
        };
        let metric_json = |m: &MetricDelta| {
            let side = |s: &Option<MetricSide>| {
                s.as_ref().map(|s| match s {
                    MetricSide::Counter(v) => {
                        let mut o = JsonObject::new();
                        o.field("counter", *v);
                        o
                    }
                    MetricSide::Gauge(v) => {
                        let mut o = JsonObject::new();
                        o.field("gauge", *v);
                        o
                    }
                    MetricSide::Histogram { count, p50, p99 } => {
                        let mut o = JsonObject::new();
                        o.field("count", *count).field("p50", *p50).field("p99", *p99);
                        o
                    }
                })
            };
            let mut o = JsonObject::new();
            o.field("name", &m.name)
                .field("class", &m.class)
                .field("baseline", side(&m.baseline))
                .field("candidate", side(&m.candidate))
                .field("zero", m.is_zero());
            o
        };
        let attributions: Vec<JsonObject> = self
            .attribution
            .iter()
            .map(|a| {
                let mut o = JsonObject::new();
                o.field("name", &a.name)
                    .field("delta_us", a.delta_us)
                    .field("share_pct", a.share_pct);
                o
            })
            .collect();
        let mut o = JsonObject::new();
        o.field("zero_delta", self.zero_delta())
            .object("round", phase_json(&self.round))
            .field("phases", self.phases.iter().map(phase_json).collect::<Vec<_>>())
            .field("metrics", self.metrics.iter().map(metric_json).collect::<Vec<_>>())
            .field("attribution", attributions)
            .field("residual_us", self.residual_us);
        if let Some(a) = &self.audit {
            let mut audit = JsonObject::new();
            audit
                .field("base_violations", a.base_violations)
                .field("cand_violations", a.cand_violations)
                .field("base_rounds_audited", a.base_rounds_audited)
                .field("cand_rounds_audited", a.cand_rounds_audited)
                .field("new_invariants", a.new_invariants.clone());
            o.object("audit", audit);
        } else {
            o.field("audit", Option::<bool>::None);
        }
        o.field("notes", self.notes.clone());
        o
    }

    /// Multi-line human rendering. A fully identical comparison
    /// contains the stable phrase `zero deltas` (grepped by CI).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let r = &self.round;
        let _ = writeln!(
            out,
            "diff: {} vs {} round(s), round total {} → {} µs{}",
            r.base_count,
            r.cand_count,
            r.base_total_us,
            r.cand_total_us,
            r.total_growth_pct()
                .map_or(String::new(), |g| format!(" ({g:+.2}%)")),
        );
        if self.zero_delta() {
            let _ = writeln!(
                out,
                "  zero deltas: every phase and metric identical across the two traces"
            );
        }
        let _ = writeln!(
            out,
            "  {:<16} {:>12} {:>12} {:>12} {:>12} {:>9}",
            "phase", "base p50", "cand p50", "base total", "cand total", "Δtotal"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  {:<16} {:>12.1} {:>12.1} {:>12} {:>12} {:>9}",
                p.name,
                p.base_p50_us,
                p.cand_p50_us,
                p.base_total_us,
                p.cand_total_us,
                p.cand_total_us as i64 - p.base_total_us as i64,
            );
        }
        if !self.attribution.is_empty() {
            let round_delta = r.cand_total_us as i64 - r.base_total_us as i64;
            let _ = writeln!(
                out,
                "  attribution of {round_delta:+} µs round delta (ranked by impact):"
            );
            for a in &self.attribution {
                let _ = writeln!(
                    out,
                    "    {:<16} {:>+10} µs{}",
                    a.name,
                    a.delta_us,
                    a.share_pct.map_or(String::new(), |s| format!(" ({s:+.1}% of Δ)")),
                );
            }
            let _ = writeln!(out, "    {:<16} {:>+10} µs (self time / coverage gap)", "residual", self.residual_us);
        }
        let changed: Vec<&MetricDelta> =
            self.metrics.iter().filter(|m| !m.is_zero()).collect();
        if changed.is_empty() {
            let _ = writeln!(out, "  metrics: {} compared, all identical", self.metrics.len());
        } else {
            let _ = writeln!(
                out,
                "  metrics: {} compared, {} changed:",
                self.metrics.len(),
                changed.len()
            );
            for m in changed {
                let _ = writeln!(
                    out,
                    "    {} [{}]: {} → {}",
                    m.name,
                    m.class,
                    m.baseline.as_ref().map_or("absent".to_string(), MetricSide::render),
                    m.candidate.as_ref().map_or("absent".to_string(), MetricSide::render),
                );
            }
        }
        if let Some(a) = &self.audit {
            let _ = writeln!(
                out,
                "  audit: {} → {} violation(s) over {} → {} audited round(s){}",
                a.base_violations,
                a.cand_violations,
                a.base_rounds_audited,
                a.cand_rounds_audited,
                if a.new_invariants.is_empty() {
                    String::new()
                } else {
                    format!("; new invariants broken: {}", a.new_invariants.join(", "))
                },
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }
}

fn phase_delta(name: &str, base: &[f64], cand: &[f64]) -> PhaseDelta {
    let stat = |xs: &[f64]| {
        let mut a = xs.to_vec();
        a.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        // A phase absent on one side has no samples there: it reads 0.
        let pct = |q| if a.is_empty() { 0.0 } else { percentile_nearest_rank(&a, q) };
        let p50 = pct(0.50);
        let p99 = pct(0.99);
        let total = xs.iter().sum::<f64>() as u64;
        (p50, p99, total)
    };
    let (base_p50, base_p99, base_total) = stat(base);
    let (cand_p50, cand_p99, cand_total) = stat(cand);
    PhaseDelta {
        name: name.to_string(),
        base_count: base.len(),
        cand_count: cand.len(),
        base_p50_us: base_p50,
        cand_p50_us: cand_p50,
        base_p99_us: base_p99,
        cand_p99_us: cand_p99,
        base_total_us: base_total,
        cand_total_us: cand_total,
    }
}

/// Flattens a trace's final metrics line to name → (class, side).
fn sides_of(trace: &Trace) -> BTreeMap<&str, (&'static str, MetricSide)> {
    trace
        .metrics
        .iter()
        .flat_map(MetricsRegistry::iter)
        .map(|(name, class, metric)| {
            let side = match metric {
                Metric::Counter(v) => MetricSide::Counter(*v),
                Metric::Gauge(v) => MetricSide::Gauge(*v),
                Metric::Histogram(h) => MetricSide::Histogram {
                    count: h.count,
                    p50: h.approx_quantile(0.50),
                    p99: h.approx_quantile(0.99),
                },
            };
            (name, (class.as_str(), side))
        })
        .collect()
}

/// Checks manifest compatibility between the two traces.
///
/// # Errors
///
/// Returns the refusal reason: a one-sided manifest, a run-count
/// mismatch, or (per run, in order) any incompatible identity field —
/// the message names the field and both values.
fn check_manifests(
    baseline: &Trace,
    candidate: &Trace,
    cfg: &DiffConfig,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    if cfg.ignore_manifest {
        notes.push("manifest compatibility check skipped (--ignore-manifest)".to_string());
        return Ok(());
    }
    match (baseline.manifests.is_empty(), candidate.manifests.is_empty()) {
        (true, true) => {
            notes.push(
                "no run manifests on either side (pre-manifest traces); \
                 provenance unchecked"
                    .to_string(),
            );
            return Ok(());
        }
        (true, false) => {
            return Err("baseline has no run manifest but candidate does; \
                        re-record the baseline or pass --ignore-manifest"
                .to_string());
        }
        (false, true) => {
            return Err("candidate has no run manifest but baseline does; \
                        re-record the candidate or pass --ignore-manifest"
                .to_string());
        }
        (false, false) => {}
    }
    if baseline.manifests.len() != candidate.manifests.len() {
        return Err(format!(
            "run count differs: baseline holds {} manifest(s), candidate {}",
            baseline.manifests.len(),
            candidate.manifests.len()
        ));
    }
    for (i, (b, c)) in
        baseline.manifests.iter().zip(&candidate.manifests).enumerate()
    {
        b.compatible(c).map_err(|e| {
            format!("incompatible manifests (run {i}): {e}")
        })?;
        // Checkpoint lineage is provenance, not identity: a resumed
        // run is pinned bit-identical to the uninterrupted one, so the
        // comparison proceeds — but the note keeps it honest (a
        // resumed side holds only the rounds after its start_round).
        for (side, m) in [("baseline", b), ("candidate", c)] {
            if let Some(checksum) = &m.resumed_from {
                let from = m
                    .start_round
                    .map_or_else(String::new, |r| format!(", rounds {r}.."));
                notes.push(format!(
                    "{side} run {i} resumed from checkpoint {checksum}{from}"
                ));
            }
        }
    }
    Ok(())
}

/// Compares two traces. See the module docs for what is computed.
///
/// # Errors
///
/// Returns the refusal reason when the traces are not comparable:
/// incompatible or one-sided [`RunManifest`](crate::RunManifest)s (unless
/// [`DiffConfig::ignore_manifest`]), unresolvable span parents, or a
/// side with no `round` spans at all.
pub fn diff_traces(
    baseline: &Trace,
    candidate: &Trace,
    cfg: &DiffConfig,
) -> Result<DiffReport, String> {
    let mut notes = Vec::new();
    check_manifests(baseline, candidate, cfg, &mut notes)?;
    // One sample per round and phase name: the in-round sums of
    // `round_series`, plus the `"round"` pseudo-phase.
    let samples = |trace: &Trace| -> Result<BTreeMap<String, Vec<f64>>, String> {
        let tree = SpanTree::build(trace)?;
        let mut by_phase: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for point in round_series(trace, &tree)? {
            by_phase.entry("round".to_string()).or_default().push(point.dur_us as f64);
            for (name, total) in point.phases {
                by_phase.entry(name).or_default().push(total as f64);
            }
        }
        Ok(by_phase)
    };
    let base_samples = samples(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cand_samples = samples(candidate).map_err(|e| format!("candidate: {e}"))?;
    if base_samples.get("round").is_none_or(Vec::is_empty) {
        return Err("baseline has no round spans — was a federated run traced?".to_string());
    }
    if cand_samples.get("round").is_none_or(Vec::is_empty) {
        return Err("candidate has no round spans — was a federated run traced?".to_string());
    }

    let empty: Vec<f64> = Vec::new();
    let mut names: Vec<&String> =
        base_samples.keys().chain(cand_samples.keys()).collect();
    names.sort();
    names.dedup();
    let mut round = None;
    let mut phases = Vec::new();
    for name in names {
        let base = base_samples.get(name).unwrap_or(&empty);
        let cand = cand_samples.get(name).unwrap_or(&empty);
        let delta = phase_delta(name, base, cand);
        if base.is_empty() || cand.is_empty() {
            notes.push(format!(
                "phase {name:?} present only in the {}",
                if base.is_empty() { "candidate" } else { "baseline" }
            ));
        }
        if name == "round" {
            round = Some(delta);
        } else {
            phases.push(delta);
        }
    }
    let round = round.expect("round samples checked non-empty above");

    // Attribution: decompose the round-time delta into per-phase
    // total-time deltas; what phases don't explain is the residual.
    let round_delta = round.cand_total_us as i64 - round.base_total_us as i64;
    let mut attribution: Vec<Attribution> = phases
        .iter()
        .map(|p| {
            let delta_us = p.cand_total_us as i64 - p.base_total_us as i64;
            Attribution {
                name: p.name.clone(),
                delta_us,
                share_pct: (round_delta != 0)
                    .then(|| delta_us as f64 / round_delta as f64 * 100.0),
            }
        })
        .collect();
    attribution.sort_by(|a, b| {
        b.delta_us.abs().cmp(&a.delta_us.abs()).then(a.name.cmp(&b.name))
    });
    let attributed: i64 = attribution.iter().map(|a| a.delta_us).sum();
    let residual_us = round_delta - attributed;
    // Rank the phase table by impact too.
    phases.sort_by(|a, b| {
        let da = (a.cand_total_us as i64 - a.base_total_us as i64).abs();
        let db = (b.cand_total_us as i64 - b.base_total_us as i64).abs();
        db.cmp(&da).then(a.name.cmp(&b.name))
    });

    // Metrics diff over the union of both registries.
    let base_metrics = sides_of(baseline);
    let cand_metrics = sides_of(candidate);
    let mut metric_names: Vec<&str> =
        base_metrics.keys().chain(cand_metrics.keys()).copied().collect();
    metric_names.sort();
    metric_names.dedup();
    let metrics: Vec<MetricDelta> = metric_names
        .into_iter()
        .map(|name| {
            let base = base_metrics.get(name);
            let cand = cand_metrics.get(name);
            MetricDelta {
                name: name.to_string(),
                class: base.or(cand).map(|(class, _)| class.to_string()).unwrap_or_default(),
                baseline: base.map(|(_, s)| s.clone()),
                candidate: cand.map(|(_, s)| s.clone()),
            }
        })
        .collect();
    if base_metrics.is_empty() && cand_metrics.is_empty() {
        notes.push("no metrics line on either side; registry diff empty".to_string());
    }

    // Audit both sides; a structurally unauditable side is a note, not
    // a refusal — phase timing still compares.
    let audit_cfg = AuditConfig::default();
    let audit_delta = match (audit(baseline, &audit_cfg), audit(candidate, &audit_cfg)) {
        (Ok(b), Ok(c)) => {
            let base_names: std::collections::BTreeSet<&str> =
                b.violations.iter().map(|v| v.invariant).collect();
            let mut new_invariants: Vec<String> = c
                .violations
                .iter()
                .map(|v| v.invariant)
                .filter(|i| !base_names.contains(i))
                .map(str::to_string)
                .collect();
            new_invariants.sort();
            new_invariants.dedup();
            Some(AuditDelta {
                base_violations: b.violations.len(),
                cand_violations: c.violations.len(),
                base_rounds_audited: b.rounds_audited,
                cand_rounds_audited: c.rounds_audited,
                new_invariants,
            })
        }
        (b, c) => {
            if let Err(e) = b {
                notes.push(format!("baseline unauditable: {e}"));
            }
            if let Err(e) = c {
                notes.push(format!("candidate unauditable: {e}"));
            }
            None
        }
    };

    Ok(DiffReport {
        round,
        phases,
        metrics,
        audit: audit_delta,
        attribution,
        residual_us,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::MANIFEST_SCHEMA_VERSION;

    fn span_line(id: u64, name: &str, parent: Option<u64>, t: u64, dur: u64) -> String {
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            r#"{{"type":"span","name":"{name}","id":{id},"parent":{parent},"t_us":{t},"dur_us":{dur}}}"#
        )
    }

    fn manifest_line(seed: u64, scheme: &str) -> String {
        format!(
            r#"{{"type":"run_manifest","schema_version":{MANIFEST_SCHEMA_VERSION},"seed":{seed},"scheme":"{scheme}","config_fingerprint":"aa","threads":1,"trace_mode":"full","fleet_size":10,"build_profile":"release"}}"#
        )
    }

    fn simple_trace(seed: u64, work_us: u64) -> Trace {
        let text = [
            manifest_line(seed, "helcfl"),
            span_line(3, "selection", Some(2), 0, 100),
            span_line(4, "local_update", Some(2), 100, work_us),
            span_line(2, "round", None, 0, 200 + work_us),
            format!(
                r#"{{"type":"metrics","metrics":{{"round.completed":{{"kind":"counter","class":"sim","value":1}},"work":{{"kind":"gauge","class":"sim","value":{work_us}}}}}}}"#
            ),
        ]
        .join("\n");
        Trace::parse(&text).unwrap()
    }

    #[test]
    fn self_diff_reports_zero_deltas() {
        let trace = simple_trace(42, 900);
        let report = diff_traces(&trace, &trace, &DiffConfig::default()).unwrap();
        assert!(report.zero_delta());
        assert!(report.round.is_zero());
        assert!(report.phases.iter().all(PhaseDelta::is_zero));
        assert!(report.metrics.iter().all(MetricDelta::is_zero));
        assert_eq!(report.residual_us, 0);
        let rendered = report.render();
        assert!(rendered.contains("zero deltas"), "{rendered}");
        assert!(crate::json::validate(&report.to_json().finish()).is_ok());
    }

    #[test]
    fn regression_is_attributed_to_the_grown_phase() {
        let base = simple_trace(42, 900);
        let cand = simple_trace(42, 1900);
        let report = diff_traces(&base, &cand, &DiffConfig::default()).unwrap();
        assert!(!report.zero_delta());
        // local_update grew by 1000 µs and ranks first.
        assert_eq!(report.attribution[0].name, "local_update");
        assert_eq!(report.attribution[0].delta_us, 1000);
        assert_eq!(report.attribution[0].share_pct, Some(100.0));
        assert_eq!(report.phases[0].name, "local_update");
        assert_eq!(report.residual_us, 0);
        // The gauge changed; the counter did not.
        let gauge = report.metrics.iter().find(|m| m.name == "work").unwrap();
        assert!(!gauge.is_zero());
        let counter =
            report.metrics.iter().find(|m| m.name == "round.completed").unwrap();
        assert!(counter.is_zero());
    }

    #[test]
    fn resumed_runs_diff_cleanly_and_are_noted() {
        let base = simple_trace(42, 900);
        // Same experiment, but the candidate trace was produced by a
        // process that resumed from a checkpoint at round 17.
        let mut cand = simple_trace(42, 900);
        cand.manifests[0].resumed_from = Some("deadbeefdeadbeef".to_string());
        cand.manifests[0].start_round = Some(17);
        let report = diff_traces(&base, &cand, &DiffConfig::default()).unwrap();
        assert!(report.zero_delta());
        let note = report
            .notes
            .iter()
            .find(|n| n.contains("resumed from checkpoint"))
            .expect("lineage note missing");
        assert!(note.contains("candidate"), "{note}");
        assert!(note.contains("deadbeefdeadbeef"), "{note}");
        assert!(note.contains("rounds 17.."), "{note}");
    }

    #[test]
    fn mismatched_manifests_are_refused_by_name() {
        let base = simple_trace(42, 900);
        let cand = simple_trace(43, 900);
        let err = diff_traces(&base, &cand, &DiffConfig::default()).unwrap_err();
        assert!(err.contains("seed"), "{err}");
        assert!(err.contains("42") && err.contains("43"), "{err}");

        // --ignore-manifest overrides, with a note.
        let cfg = DiffConfig { ignore_manifest: true };
        let report = diff_traces(&base, &cand, &cfg).unwrap();
        assert!(report.notes.iter().any(|n| n.contains("skipped")), "{:?}", report.notes);
    }

    #[test]
    fn one_sided_manifest_is_refused() {
        let with = simple_trace(42, 900);
        let text = [
            span_line(3, "selection", Some(2), 0, 100),
            span_line(2, "round", None, 0, 200),
        ]
        .join("\n");
        let without = Trace::parse(&text).unwrap();
        let err = diff_traces(&without, &with, &DiffConfig::default()).unwrap_err();
        assert!(err.contains("baseline has no run manifest"), "{err}");
        let err = diff_traces(&with, &without, &DiffConfig::default()).unwrap_err();
        assert!(err.contains("candidate has no run manifest"), "{err}");

        // Two manifest-free traces compare fine (pre-manifest era).
        let report = diff_traces(&without, &without, &DiffConfig::default()).unwrap();
        assert!(report.zero_delta());
        assert!(report.notes.iter().any(|n| n.contains("no run manifests")));
    }

    #[test]
    fn run_count_mismatch_is_refused() {
        let one = simple_trace(42, 900);
        let two_text = [one
            .manifests[0]
            .to_json_line(), one.manifests[0].to_json_line(),
            span_line(2, "round", None, 0, 100)]
        .join("\n");
        let two = Trace::parse(&two_text).unwrap();
        let err = diff_traces(&one, &two, &DiffConfig::default()).unwrap_err();
        assert!(err.contains("run count differs"), "{err}");
    }

    #[test]
    fn roundless_sides_are_refused() {
        let good = simple_trace(42, 900);
        let empty_text = [manifest_line(42, "helcfl"), span_line(9, "setup", None, 0, 5)]
            .join("\n");
        let empty = Trace::parse(&empty_text).unwrap();
        let err = diff_traces(&empty, &good, &DiffConfig::default()).unwrap_err();
        assert!(err.contains("baseline has no round spans"), "{err}");
    }

    #[test]
    fn phase_stats_sort_their_samples_and_read_zero_when_absent() {
        let d = phase_delta("x", &[], &[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((d.base_count, d.base_p50_us, d.base_p99_us, d.base_total_us), (0, 0.0, 0.0, 0));
        assert_eq!((d.cand_p50_us, d.cand_p99_us, d.cand_total_us), (3.0, 5.0, 15));
    }

    #[test]
    fn histogram_metrics_compare_by_count_and_quantiles() {
        let hist = |count: u64, bucket: i16, n: u64| {
            format!(
                r#"{{"kind":"histogram","class":"sim","value":{{"count":{count},"underflow":0,"negative":0,"infinite":0,"nan":0,"min":1.0,"max":2.0,"buckets":{{"{bucket}":{n}}}}}}}"#
            )
        };
        let make = |h: &str| {
            let text = [
                manifest_line(1, "helcfl"),
                span_line(2, "round", None, 0, 100),
                format!(r#"{{"type":"metrics","metrics":{{"lat":{h}}}}}"#),
            ]
            .join("\n");
            Trace::parse(&text).unwrap()
        };
        let a = make(&hist(10, 0, 10));
        let same = make(&hist(10, 0, 10));
        let moved = make(&hist(10, 3, 10));
        let report = diff_traces(&a, &same, &DiffConfig::default()).unwrap();
        assert!(report.metrics.iter().all(MetricDelta::is_zero));
        let report = diff_traces(&a, &moved, &DiffConfig::default()).unwrap();
        let lat = report.metrics.iter().find(|m| m.name == "lat").unwrap();
        assert!(!lat.is_zero());
        match (&lat.baseline, &lat.candidate) {
            (
                Some(MetricSide::Histogram { p50: Some(b), .. }),
                Some(MetricSide::Histogram { p50: Some(c), .. }),
            ) => {
                assert_eq!(*b, 1.5);
                assert_eq!(*c, 12.0);
            }
            other => panic!("unexpected sides: {other:?}"),
        }
    }
}

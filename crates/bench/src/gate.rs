//! The one regression gate over bench reports.
//!
//! `bench_kernels` and `bench_population` write their gated numbers as
//! a flat `records` array of [`Record`]s, `{metric, unit, better,
//! bound, value}`: the shape of `BENCHMARK.json`'s `end_to_end` list,
//! with `bound` the fraction by which a candidate may be worse than the
//! baseline. A `bench_suite` report is read into the same records, one
//! per workload and `end_to_end` metric (`paper-iid.rounds_per_s`, …),
//! with `better` and `bound` taken from `BENCHMARK.json`.
//!
//! [`gate`] matches the records of two reports by `metric` and fails a
//! candidate worse than `baseline × (1 ± bound)`, the bound being the
//! baseline's. Improvements always pass.
//!
//! Also re-exports [`percentile_nearest_rank`] from telemetry, the
//! exact (not histogram-approximated) percentile the bench harnesses
//! use for per-round p50/p99.

pub use helcfl_telemetry::percentile_nearest_rank;
use helcfl_telemetry::json::{parse, FieldError, JsonObject, JsonValue};

/// The benchmark's definition, read for its `end_to_end` bounds.
const SPEC: &str = include_str!("../../../BENCHMARK.json");

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughput-like: a drop is a regression.
    Higher,
    /// Cost-like: a rise is a regression.
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One gated quantity of a bench report.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Name the two sides of a gate are matched by.
    pub metric: String,
    /// Unit of `value`.
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// How much worse a candidate may be, as a fraction of this value.
    pub bound: f64,
    /// The measurement.
    pub value: f64,
}

impl Record {
    /// The record as the JSON object a report's `records` array holds.
    pub fn to_json(&self) -> JsonObject {
        let mut o = JsonObject::new();
        o.field("metric", self.metric.as_str())
            .field("unit", self.unit.as_str())
            .field("better", self.better.name())
            .field("bound", self.bound)
            .field("value", self.value);
        o
    }

    /// The worst candidate value that still passes against this
    /// baseline.
    pub fn limit(&self) -> f64 {
        match self.better {
            Better::Higher => self.value * (1.0 - self.bound),
            Better::Lower => self.value * (1.0 + self.bound),
        }
    }

    fn passes(&self, candidate: f64) -> bool {
        match self.better {
            Better::Higher => candidate >= self.limit(),
            Better::Lower => candidate <= self.limit(),
        }
    }
}

/// One compared quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// The record's `metric`.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// The worst candidate value that still passes.
    pub limit: f64,
    /// Whether the candidate is within the limit.
    pub passed: bool,
}

/// Outcome of a [`gate`] comparison.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Every quantity compared.
    pub checks: Vec<GateCheck>,
    /// Non-fatal observations (one-sided metrics, budget mismatch).
    pub notes: Vec<String>,
}

impl GateReport {
    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Multi-line human summary: verdict, per-check lines, notes.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let failed = self.checks.iter().filter(|c| !c.passed).count();
        let _ = writeln!(
            out,
            "gate: {} — {} checks, {} failed",
            if self.passed() { "PASS" } else { "FAIL" },
            self.checks.len(),
            failed
        );
        for c in &self.checks {
            let _ = writeln!(
                out,
                "  [{}] {:<44} baseline {:>12.4} candidate {:>12.4} (limit {:>12.4})",
                if c.passed { "ok " } else { "BAD" },
                c.name,
                c.baseline,
                c.candidate,
                c.limit
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }
}

/// A bench report as the gate sees it.
struct Report {
    bench: String,
    smoke: Option<bool>,
    records: Vec<Record>,
}

fn better(v: &JsonValue) -> Result<Better, FieldError> {
    match v.field("better")? {
        "higher" => Ok(Better::Higher),
        "lower" => Ok(Better::Lower),
        _ => Err(FieldError::new("better", "\"higher\" or \"lower\"")),
    }
}

/// Reads one record object.
fn record(v: &JsonValue) -> Result<Record, String> {
    let metric: &str = v.field("metric")?;
    let named = |e: FieldError| format!("record {metric}: {e}");
    Ok(Record {
        metric: metric.to_string(),
        unit: v.field::<&str>("unit").map_err(named)?.to_string(),
        better: better(v).map_err(named)?,
        bound: v.field("bound").map_err(named)?,
        value: v.field("value").map_err(named)?,
    })
}

/// The records of a `bench_suite` report: every workload's
/// `end_to_end` metrics, bounded as `BENCHMARK.json` declares. A
/// workload that is not correct or failed an operation refuses the
/// report: its timings measure a run that went wrong.
fn suite_records(report: &JsonValue) -> Result<Vec<Record>, String> {
    let spec = parse(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared = spec
        .field::<&[JsonValue]>("end_to_end")
        .and_then(|list| {
            list.iter()
                .map(|m| Ok((m.field("name")?, m.field("unit")?, better(m)?, m.field("bound")?)))
                .collect::<Result<Vec<(&str, &str, Better, f64)>, FieldError>>()
        })
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut records = Vec::new();
    for w in report.field::<&[JsonValue]>("workloads")? {
        let name: &str = w.field("name")?;
        let in_workload = |e: FieldError| format!("workload {name}: {e}");
        if !w.field::<bool>("correct").map_err(in_workload)? {
            return Err(format!("workload {name} is not correct"));
        }
        let failed: f64 = w.field("failed").map_err(in_workload)?;
        if failed > 0.0 {
            return Err(format!("workload {name} failed {failed} operation(s)"));
        }
        let metrics: &[JsonValue] = w.field("metrics").map_err(in_workload)?;
        for &(metric, unit, better, bound) in &declared {
            let Some(found) = metrics.iter().find(|m| m.field::<&str>("name") == Ok(metric)) else {
                continue;
            };
            records.push(Record {
                metric: format!("{name}.{metric}"),
                unit: unit.to_string(),
                better,
                bound,
                value: found.field("value").map_err(in_workload)?,
            });
        }
    }
    Ok(records)
}

fn read(json: &str) -> Result<Report, String> {
    let v = parse(json).map_err(|e| format!("invalid JSON: {e}"))?;
    let bench: &str =
        v.field("bench").map_err(|e| format!("not a bench report (no bench tag): {e}"))?;
    let records = if bench == "bench_suite" {
        suite_records(&v)?
    } else {
        v.field::<&[JsonValue]>("records")?.iter().map(record).collect::<Result<_, _>>()?
    };
    if records.is_empty() {
        return Err(format!("{bench} report holds no records"));
    }
    Ok(Report { bench: bench.to_string(), smoke: v.optional("smoke")?, records })
}

/// Compares a candidate bench report against a baseline.
///
/// Records are matched by `metric`; each shared one fails when the
/// candidate is worse than the baseline record's [`Record::limit`].
/// A metric on only one side is a note, not a failure, so a `--smoke`
/// candidate that stops its sweep early, or a bench that gains or
/// retires a kernel, still gates; so is a `smoke` flag mismatch.
///
/// # Errors
///
/// Returns `Err` when either input is not a bench report (invalid
/// JSON, no `bench` tag, a malformed record, no records), when the two
/// come from different benches or share no metric, and when a
/// `bench_suite` report has a workload that is not correct or failed
/// an operation.
pub fn gate(baseline_text: &str, candidate_text: &str) -> Result<GateReport, String> {
    let baseline = read(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let candidate = read(candidate_text).map_err(|e| format!("candidate: {e}"))?;
    if baseline.bench != candidate.bench {
        return Err(format!(
            "baseline is a {} report, candidate a {} report",
            baseline.bench, candidate.bench
        ));
    }
    let mut report = GateReport::default();
    if baseline.smoke != candidate.smoke {
        report.notes.push(format!(
            "smoke mismatch: baseline={:?} candidate={:?} — different measurement budgets",
            baseline.smoke, candidate.smoke
        ));
    }
    for b in &baseline.records {
        match candidate.records.iter().find(|c| c.metric == b.metric) {
            Some(c) => report.checks.push(GateCheck {
                name: b.metric.clone(),
                baseline: b.value,
                candidate: c.value,
                limit: b.limit(),
                passed: b.passes(c.value),
            }),
            None => report.notes.push(format!("{}: absent from candidate", b.metric)),
        }
    }
    for c in &candidate.records {
        if !baseline.records.iter().any(|b| b.metric == c.metric) {
            report.notes.push(format!("{}: absent from baseline", c.metric));
        }
    }
    if report.checks.is_empty() {
        return Err("baseline and candidate share no metric".to_string());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `records` report of `bench` with `(metric, better, bound,
    /// value)` records.
    fn report(bench: &str, smoke: bool, records: &[(&str, Better, f64, f64)]) -> String {
        let records: Vec<JsonObject> = records
            .iter()
            .map(|&(metric, better, bound, value)| {
                Record { metric: metric.to_string(), unit: "u".into(), better, bound, value }
                    .to_json()
            })
            .collect();
        let mut o = JsonObject::new();
        o.field("bench", bench).field("smoke", smoke).field("records", records);
        o.finish()
    }

    fn kernels(smoke: bool, gflops: &[(&str, f64)]) -> String {
        let records: Vec<_> =
            gflops.iter().map(|&(name, v)| (name, Better::Higher, 0.40, v)).collect();
        report("kernels", smoke, &records)
    }

    /// `(q, p50, p99, bytes/device)` sizes at the CI bounds.
    fn population(smoke: bool, sizes: &[(u64, f64, f64, f64)]) -> String {
        let names: Vec<[String; 3]> = sizes
            .iter()
            .map(|(q, ..)| {
                ["round_p50_us", "round_p99_us", "bytes_per_device"].map(|m| format!("q{q}.{m}"))
            })
            .collect();
        let mut records = Vec::new();
        for (n, &(_, p50, p99, bytes)) in names.iter().zip(sizes) {
            records.push((n[0].as_str(), Better::Lower, 4.0, p50));
            records.push((n[1].as_str(), Better::Lower, 4.0, p99));
            records.push((n[2].as_str(), Better::Lower, 0.5, bytes));
        }
        report("population", smoke, &records)
    }

    /// A `bench_suite` report with one workload carrying every
    /// `end_to_end` metric, plus one per-layer metric the gate skips.
    fn suite(correct: bool, failed: u64, rounds_per_s: f64, rss_mb: f64) -> String {
        let metric = |name: &str, value: f64, unit: &str| {
            let mut m = JsonObject::new();
            m.field("name", name).field("value", value).field("unit", unit);
            m
        };
        let mut w = JsonObject::new();
        w.field("name", "paper-iid")
            .field("correct", correct)
            .field("attempted", 180u64)
            .field("failed", failed)
            .field(
                "metrics",
                vec![
                    metric("rounds_per_s", rounds_per_s, "rounds/s"),
                    metric("round_p50_us", 220.0, "us"),
                    metric("setup_s", 0.007, "s"),
                    metric("peak_rss_mb", rss_mb, "MiB"),
                    metric("host.speed", 1.0, "ratio"),
                ],
            );
        let mut o = JsonObject::new();
        o.field("bench", "bench_suite").field("smoke", true).field("workloads", vec![w]);
        o.finish()
    }

    fn failed(g: &GateReport) -> Vec<&str> {
        g.checks.iter().filter(|c| !c.passed).map(|c| c.name.as_str()).collect()
    }

    #[test]
    fn identical_reports_pass_with_no_notes() {
        for r in [
            kernels(false, &[("matmul.gflops", 30.0), ("matmul_nt.gflops", 6.0)]),
            population(false, &[(1000, 2.0, 4.0, 58.0), (1_000_000, 900.0, 1500.0, 60.0)]),
            suite(true, 0, 4700.0, 5.7),
        ] {
            let g = gate(&r, &r).unwrap();
            assert!(g.passed(), "{}", g.render());
            assert!(g.notes.is_empty(), "{:?}", g.notes);
        }
        let r = population(false, &[(1000, 2.0, 4.0, 58.0), (1_000_000, 900.0, 1500.0, 60.0)]);
        assert_eq!(gate(&r, &r).unwrap().checks.len(), 6);
        let r = suite(true, 0, 4700.0, 5.7);
        assert_eq!(gate(&r, &r).unwrap().checks.len(), 4, "only end_to_end metrics gate");
    }

    #[test]
    fn kernel_gflops_cliff_fails_at_the_records_bound() {
        let base = kernels(false, &[("matmul.gflops", 30.0), ("matmul_tn.gflops", 17.0)]);
        let cand = kernels(false, &[("matmul.gflops", 10.0), ("matmul_tn.gflops", 17.0)]);
        let g = gate(&base, &cand).unwrap();
        assert_eq!(failed(&g), ["matmul.gflops"]);
        assert!(g.render().contains("FAIL"), "{}", g.render());
        // A 0.40 bound on 30 GFLOP/s is an 18 GFLOP/s floor.
        assert!((g.checks[0].limit - 18.0).abs() < 1e-9);
        let edge = kernels(false, &[("matmul.gflops", 18.0), ("matmul_tn.gflops", 17.0)]);
        assert!(gate(&base, &edge).unwrap().passed());
    }

    #[test]
    fn population_latency_and_memory_growth_fail() {
        let base = population(false, &[(1_000_000, 900.0, 1500.0, 60.0)]);
        // 10× p50: the complexity-class regression the bound exists
        // for. A 4.0 bound on 900 µs is a 4500 µs ceiling.
        let slow = population(false, &[(1_000_000, 9000.0, 1500.0, 60.0)]);
        let g = gate(&base, &slow).unwrap();
        assert_eq!(failed(&g), ["q1000000.round_p50_us"]);
        assert!((g.checks[0].limit - 4500.0).abs() < 1e-9);
        let fat = population(false, &[(1_000_000, 900.0, 1500.0, 91.0)]);
        assert_eq!(failed(&gate(&base, &fat).unwrap()), ["q1000000.bytes_per_device"]);
        let within = population(false, &[(1_000_000, 4400.0, 7000.0, 89.0)]);
        assert!(gate(&base, &within).unwrap().passed());
    }

    /// The baseline's bound rules, whatever the candidate's says.
    #[test]
    fn the_baselines_bound_is_the_one_applied() {
        let base = report("kernels", false, &[("k.gflops", Better::Higher, 0.1, 10.0)]);
        let cand = report("kernels", false, &[("k.gflops", Better::Higher, 0.9, 8.0)]);
        assert_eq!(failed(&gate(&base, &cand).unwrap()), ["k.gflops"]);
        assert!(gate(&cand, &base).unwrap().passed());
    }

    #[test]
    fn suite_records_take_their_bounds_from_the_benchmark() {
        let base = suite(true, 0, 4700.0, 5.7);
        // 25 % on rounds/s: 3525 passes, 3500 fails.
        assert!(gate(&base, &suite(true, 0, 3525.0, 5.7)).unwrap().passed());
        let g = gate(&base, &suite(true, 0, 3500.0, 5.7)).unwrap();
        assert_eq!(failed(&g), ["paper-iid.rounds_per_s"]);
        // 10 % on RSS.
        let g = gate(&base, &suite(true, 0, 4700.0, 6.3)).unwrap();
        assert_eq!(failed(&g), ["paper-iid.peak_rss_mb"]);
    }

    #[test]
    fn a_suite_run_that_went_wrong_is_refused() {
        let good = suite(true, 0, 4700.0, 5.7);
        let err = gate(&good, &suite(false, 0, 4700.0, 5.7)).unwrap_err();
        assert!(err.contains("candidate") && err.contains("paper-iid"), "{err}");
        let err = gate(&good, &suite(true, 2, 4700.0, 5.7)).unwrap_err();
        assert!(err.contains("failed 2"), "{err}");
        assert!(gate(&suite(false, 0, 4700.0, 5.7), &good).is_err());
    }

    #[test]
    fn one_sided_metrics_and_smoke_mismatch_are_notes() {
        // Committed full sweep vs a smoke candidate that stops early.
        let base =
            population(false, &[(1000, 2.0, 4.0, 58.0), (10_000_000, 8000.0, 12000.0, 62.0)]);
        let cand = population(true, &[(1000, 2.1, 4.2, 58.0), (500, 1.0, 2.0, 55.0)]);
        let g = gate(&base, &cand).unwrap();
        assert!(g.passed(), "{}", g.render());
        assert_eq!(g.checks.len(), 3, "only the shared size is checked");
        assert!(g.notes.iter().any(|n| n.contains("smoke mismatch")), "{:?}", g.notes);
        assert!(g.notes.iter().any(|n| n.contains("q10000000.")), "{:?}", g.notes);
        assert!(g.notes.iter().any(|n| n.contains("q500.")), "{:?}", g.notes);

        let base = kernels(false, &[("matmul.gflops", 30.0), ("retired.gflops", 5.0)]);
        let cand = kernels(false, &[("matmul.gflops", 29.0), ("brand_new.gflops", 9.0)]);
        let g = gate(&base, &cand).unwrap();
        assert!(g.passed(), "{}", g.render());
        assert!(g.notes.iter().any(|n| n.contains("retired")), "{:?}", g.notes);
        assert!(g.notes.iter().any(|n| n.contains("brand_new")), "{:?}", g.notes);
    }

    #[test]
    fn non_reports_and_mismatched_reports_are_refused() {
        let k = kernels(false, &[("matmul.gflops", 30.0)]);
        let p = population(false, &[(1000, 2.0, 4.0, 58.0)]);
        let empty = r#"{"bench":"kernels","records":[]}"#;
        for bad in ["not json", "{}", r#"{"bench":"kernels"}"#, empty] {
            assert!(gate(bad, &k).is_err(), "{bad}");
            assert!(gate(&k, bad).is_err(), "{bad}");
        }
        let malformed = k.replace(r#""better":"higher""#, r#""better":"up""#);
        assert!(gate(&k, &malformed).unwrap_err().contains("matmul.gflops"));
        assert!(gate(&k, &p).unwrap_err().contains("population"));
        assert!(gate(&k, &suite(true, 0, 4700.0, 5.7)).is_err());
        let disjoint = kernels(false, &[("other.gflops", 30.0)]);
        assert!(gate(&k, &disjoint).unwrap_err().contains("no metric"));
    }
}

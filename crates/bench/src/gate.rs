//! Perf-regression gating over `BENCH_round_engine.json` reports.
//!
//! [`gate`] diffs a candidate bench report against a committed
//! baseline and fails when throughput, telemetry overhead, or
//! per-round latency regress beyond the configured tolerances. The
//! comparison is deliberately coarse — bench numbers move with host
//! load — so the defaults only catch *gross* regressions; CI pins even
//! looser ones (the committed baseline was produced on different
//! hardware at full scale).
//!
//! Also re-exports [`percentile_nearest_rank`] from telemetry, the
//! exact (not histogram-approximated) percentile the bench harness uses
//! to derive per-round p50/p99 from a traced run.

pub use helcfl_telemetry::percentile_nearest_rank;
use helcfl_telemetry::json::{parse, JsonValue};

/// Tolerances for [`gate`]. All are "how much worse may the candidate
/// be" — improvements always pass.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Max allowed drop in rounds/sec, percent of baseline.
    pub max_rps_drop_pct: f64,
    /// Max allowed growth in per-round p50/p99 latency, percent.
    pub max_latency_growth_pct: f64,
    /// Max allowed growth in telemetry overhead, percentage points.
    pub max_overhead_pp: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self { max_rps_drop_pct: 30.0, max_latency_growth_pct: 50.0, max_overhead_pp: 5.0 }
    }
}

/// One compared quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// Dotted path of the value (`"round_engine.serial.rounds_per_sec"`).
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
    /// Non-fatal observations (skipped sections, scenario mismatch).
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

fn lookup<'a>(root: &'a JsonValue, path: &str) -> Option<&'a JsonValue> {
    let mut cur = root;
    for key in path.split('.') {
        cur = cur.get(key)?;
    }
    Some(cur)
}

fn lookup_f64(root: &JsonValue, path: &str) -> Option<f64> {
    lookup(root, path).and_then(JsonValue::as_f64)
}

/// Compares a candidate bench report against a baseline.
///
/// Checked quantities (each skipped with a note when absent from
/// either report, so gating old baselines without a `latency` section
/// still works):
///
/// * `round_engine.serial.rounds_per_sec` and
///   `round_engine.parallel.rounds_per_sec` — may drop at most
///   [`GateConfig::max_rps_drop_pct`] percent;
/// * `round_engine.telemetry.overhead_pct` and
///   `round_engine.latency.events_overhead_pct` — may grow at most
///   [`GateConfig::max_overhead_pp`] percentage points. Both sides are
///   clamped at zero first: a negative overhead (the metered run beat
///   the untraced one) is host noise, and letting it into the limit
///   would gate future candidates against a below-zero baseline;
/// * `round_engine.latency.p50_us` and `…p99_us` — may grow at most
///   [`GateConfig::max_latency_growth_pct`] percent.
///
/// A scenario mismatch (`num_devices` / `max_rounds` / `seed` differ)
/// is reported as a note, not a failure: CI compares a `--fast`
/// candidate against the committed full-scale baseline on purpose,
/// relying on the generous tolerances it passes in.
///
/// # Errors
///
/// Returns `Err` when either input is not valid JSON or is not a
/// `round_engine` bench report.
pub fn gate(
    baseline_text: &str,
    candidate_text: &str,
    cfg: &GateConfig,
) -> Result<GateReport, String> {
    let baseline = parse(baseline_text).map_err(|e| format!("baseline: invalid JSON: {e}"))?;
    let candidate =
        parse(candidate_text).map_err(|e| format!("candidate: invalid JSON: {e}"))?;
    for (side, report) in [("baseline", &baseline), ("candidate", &candidate)] {
        if lookup(report, "bench").and_then(JsonValue::as_str) != Some("round_engine") {
            return Err(format!("{side}: not a round_engine bench report"));
        }
    }

    let mut report = GateReport::default();
    for key in ["num_devices", "max_rounds", "seed"] {
        let path = format!("scenario.{key}");
        let (b, c) = (lookup_f64(&baseline, &path), lookup_f64(&candidate, &path));
        if b != c {
            report.notes.push(format!(
                "scenario mismatch: {key} baseline={b:?} candidate={c:?} — \
                 comparing different workloads"
            ));
        }
    }

    let mut check = |path: &str,
                     limit_of: &dyn Fn(f64) -> f64,
                     higher_is_worse: bool,
                     clamp: bool| {
        match (lookup_f64(&baseline, path), lookup_f64(&candidate, path)) {
            (Some(b), Some(c)) => {
                // Overheads recorded by older harnesses can be
                // negative (timing noise); gate on the clamped values.
                let (b, c) = if clamp { (b.max(0.0), c.max(0.0)) } else { (b, c) };
                let limit = limit_of(b);
                let passed = if higher_is_worse { c <= limit } else { c >= limit };
                report.checks.push(GateCheck {
                    name: path.to_string(),
                    baseline: b,
                    candidate: c,
                    limit,
                    passed,
                });
            }
            _ => report.notes.push(format!("skipped {path}: absent from one report")),
        }
    };

    let rps_floor = 1.0 - cfg.max_rps_drop_pct / 100.0;
    check("round_engine.serial.rounds_per_sec", &|b| b * rps_floor, false, false);
    check("round_engine.parallel.rounds_per_sec", &|b| b * rps_floor, false, false);
    check(
        "round_engine.telemetry.overhead_pct",
        &|b| b + cfg.max_overhead_pp,
        true,
        true,
    );
    check(
        "round_engine.latency.events_overhead_pct",
        &|b| b + cfg.max_overhead_pp,
        true,
        true,
    );
    let lat_ceil = 1.0 + cfg.max_latency_growth_pct / 100.0;
    check("round_engine.latency.p50_us", &|b| b * lat_ceil, true, false);
    check("round_engine.latency.p99_us", &|b| b * lat_ceil, true, false);

    Ok(report)
}

/// Tolerances for [`gate_kernels`]. Kernel throughput is far noisier
/// than whole-engine throughput (individual timings are microseconds,
/// and CI hosts are shared), so the default is deliberately loose —
/// it catches a kernel falling off a cliff, not a few-percent drift.
#[derive(Debug, Clone, Copy)]
pub struct KernelGateConfig {
    /// Max allowed drop in per-kernel GFLOP/s, percent of baseline.
    pub max_gflops_drop_pct: f64,
}

impl Default for KernelGateConfig {
    fn default() -> Self {
        Self { max_gflops_drop_pct: 50.0 }
    }
}

/// Compares a candidate `BENCH_kernels.json` report (from the
/// `bench_kernels` bin) against a baseline: every kernel present in
/// both reports may lose at most
/// [`KernelGateConfig::max_gflops_drop_pct`] percent of its baseline
/// GFLOP/s. Kernels present on only one side are noted, not failed,
/// so adding or retiring a bench shape never breaks the gate; a
/// `smoke` flag mismatch is likewise a note (CI gates a `--smoke`
/// candidate against the committed full-budget baseline on purpose).
///
/// # Errors
///
/// Returns `Err` when either input is not valid JSON or is not a
/// `kernels` bench report.
pub fn gate_kernels(
    baseline_text: &str,
    candidate_text: &str,
    cfg: &KernelGateConfig,
) -> Result<GateReport, String> {
    let baseline = parse(baseline_text).map_err(|e| format!("baseline: invalid JSON: {e}"))?;
    let candidate =
        parse(candidate_text).map_err(|e| format!("candidate: invalid JSON: {e}"))?;
    let kernels_of = |side: &str, report: &JsonValue| -> Result<Vec<(String, f64)>, String> {
        if report.get("bench").and_then(JsonValue::as_str) != Some("kernels") {
            return Err(format!("{side}: not a kernels bench report"));
        }
        let JsonValue::Array(items) = report
            .get("kernels")
            .ok_or_else(|| format!("{side}: missing kernels array"))?
        else {
            return Err(format!("{side}: kernels is not an array"));
        };
        items
            .iter()
            .map(|item| {
                let name = item
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("{side}: kernel entry without a name"))?;
                let gflops = item
                    .get("gflops")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("{side}: kernel {name} has no gflops"))?;
                Ok((name.to_string(), gflops))
            })
            .collect()
    };
    let base_kernels = kernels_of("baseline", &baseline)?;
    let cand_kernels = kernels_of("candidate", &candidate)?;

    let mut report = GateReport::default();
    let smoke = |r: &JsonValue| r.get("smoke").and_then(JsonValue::as_bool);
    if smoke(&baseline) != smoke(&candidate) {
        report.notes.push(format!(
            "smoke mismatch: baseline={:?} candidate={:?} — different measurement budgets",
            smoke(&baseline),
            smoke(&candidate)
        ));
    }
    let floor = 1.0 - cfg.max_gflops_drop_pct / 100.0;
    for (name, b) in &base_kernels {
        match cand_kernels.iter().find(|(n, _)| n == name) {
            Some((_, c)) => {
                let limit = b * floor;
                report.checks.push(GateCheck {
                    name: format!("kernels.{name}.gflops"),
                    baseline: *b,
                    candidate: *c,
                    limit,
                    passed: *c >= limit,
                });
            }
            None => report.notes.push(format!("kernel {name}: absent from candidate")),
        }
    }
    for (name, _) in &cand_kernels {
        if !base_kernels.iter().any(|(n, _)| n == name) {
            report.notes.push(format!("kernel {name}: absent from baseline"));
        }
    }
    Ok(report)
}

/// Tolerances for [`gate_population`]. Latency percentiles at small
/// populations are single-digit microseconds, so relative noise is
/// large; the defaults catch a complexity-class regression (the
/// indexed selector silently falling back to rescans), not scheduler
/// jitter.
#[derive(Debug, Clone, Copy)]
pub struct PopulationGateConfig {
    /// Max allowed growth in per-round p50/p99 latency, percent.
    pub max_latency_growth_pct: f64,
    /// Max allowed growth in resident bytes per device, percent.
    pub max_bytes_growth_pct: f64,
    /// Absolute ceiling on the digest-trace overhead of a round
    /// (`trace_overhead_pct`), percent. Unlike the growth checks this
    /// is not relative to the baseline: the contract is "watching a
    /// round costs under this much", whatever it cost last time.
    pub max_trace_overhead_pct: f64,
    /// Smallest population size the relative-overhead ceiling applies
    /// to. Digest tracing costs a fixed amount per round, so at small
    /// `Q` the ratio against a microsecond-scale round is all fixed
    /// cost and no signal; below this size only the absolute
    /// `trace_cost_us_per_round` growth check runs.
    pub min_trace_overhead_q: u64,
    /// Floor on the `trace_cost_us_per_round` growth limit, µs. The
    /// cost is a *difference* of two timings, so a lightly-loaded
    /// baseline run can legitimately record ~0 µs at a size where the
    /// rounds dwarf the tracing cost — and a multiplicative limit on
    /// zero would fail any positive candidate. Limits never drop
    /// below this; baselines above it are unaffected.
    pub trace_cost_floor_us: f64,
}

impl Default for PopulationGateConfig {
    fn default() -> Self {
        Self {
            max_latency_growth_pct: 200.0,
            max_bytes_growth_pct: 25.0,
            max_trace_overhead_pct: 10.0,
            min_trace_overhead_q: 1_000_000,
            trace_cost_floor_us: 120.0,
        }
    }
}

/// Compares a candidate `BENCH_population.json` report (from the
/// `bench_population` bin) against a baseline, matching per-size
/// entries by `q`:
///
/// * `population.q{q}.round_p50_us` and `…round_p99_us` — may grow at
///   most [`PopulationGateConfig::max_latency_growth_pct`] percent;
/// * `population.q{q}.bytes_per_device` — may grow at most
///   [`PopulationGateConfig::max_bytes_growth_pct`] percent;
/// * `population.q{q}.trace_cost_us_per_round` — the absolute
///   per-round cost of digest tracing may grow at most
///   [`PopulationGateConfig::max_latency_growth_pct`] percent (it is
///   a latency of the same flavor), with the limit floored at
///   [`PopulationGateConfig::trace_cost_floor_us`] so a ~0 µs
///   baseline cannot fail every positive candidate. Checked at every
///   size; absent from either side (an old harness) is a note;
/// * `population.q{q}.trace_overhead_pct` — for sizes at or above
///   [`PopulationGateConfig::min_trace_overhead_q`], must stay under
///   the absolute [`PopulationGateConfig::max_trace_overhead_pct`]
///   ceiling. A candidate entry without the field is a note; a
///   baseline without one still gates the candidate against the fixed
///   ceiling. Smaller sizes skip this check silently — there the
///   ratio is all fixed per-round cost and no signal.
///
/// Sizes present on only one side are noted, not failed (a `--smoke`
/// candidate legitimately stops at `Q = 10^5` while the committed
/// baseline sweeps to `10^7`); a `smoke` flag mismatch is likewise a
/// note.
///
/// # Errors
///
/// Returns `Err` when either input is not valid JSON or is not a
/// `population` bench report.
pub fn gate_population(
    baseline_text: &str,
    candidate_text: &str,
    cfg: &PopulationGateConfig,
) -> Result<GateReport, String> {
    let baseline = parse(baseline_text).map_err(|e| format!("baseline: invalid JSON: {e}"))?;
    let candidate =
        parse(candidate_text).map_err(|e| format!("candidate: invalid JSON: {e}"))?;
    // (q, p50, p99, bytes/device, trace overhead %, trace µs/round —
    // the trace fields are optional so reports from harnesses
    // predating digest tracing still gate)
    type Entry = (u64, f64, f64, f64, Option<f64>, Option<f64>);
    let entries_of = |side: &str, report: &JsonValue| -> Result<Vec<Entry>, String> {
        if report.get("bench").and_then(JsonValue::as_str) != Some("population") {
            return Err(format!("{side}: not a population bench report"));
        }
        let JsonValue::Array(items) = report
            .get("populations")
            .ok_or_else(|| format!("{side}: missing populations array"))?
        else {
            return Err(format!("{side}: populations is not an array"));
        };
        items
            .iter()
            .map(|item| {
                let get = |key: &str| {
                    item.get(key).and_then(JsonValue::as_f64).ok_or_else(|| {
                        format!("{side}: population entry without a numeric {key}")
                    })
                };
                Ok((
                    get("q")? as u64,
                    get("round_p50_us")?,
                    get("round_p99_us")?,
                    get("bytes_per_device")?,
                    item.get("trace_overhead_pct").and_then(JsonValue::as_f64),
                    item.get("trace_cost_us_per_round").and_then(JsonValue::as_f64),
                ))
            })
            .collect()
    };
    let base_entries = entries_of("baseline", &baseline)?;
    let cand_entries = entries_of("candidate", &candidate)?;

    let mut report = GateReport::default();
    let smoke = |r: &JsonValue| r.get("smoke").and_then(JsonValue::as_bool);
    if smoke(&baseline) != smoke(&candidate) {
        report.notes.push(format!(
            "smoke mismatch: baseline={:?} candidate={:?} — different sweep depths",
            smoke(&baseline),
            smoke(&candidate)
        ));
    }
    let lat_ceil = 1.0 + cfg.max_latency_growth_pct / 100.0;
    let bytes_ceil = 1.0 + cfg.max_bytes_growth_pct / 100.0;
    for &(q, b_p50, b_p99, b_bytes, b_trace, b_cost) in &base_entries {
        let Some(&(_, c_p50, c_p99, c_bytes, c_trace, c_cost)) =
            cand_entries.iter().find(|(cq, ..)| *cq == q)
        else {
            report.notes.push(format!("population q={q}: absent from candidate"));
            continue;
        };
        let mut check = |name: &str, b: f64, c: f64, limit: f64| {
            report.checks.push(GateCheck {
                name: format!("population.q{q}.{name}"),
                baseline: b,
                candidate: c,
                limit,
                passed: c <= limit,
            });
        };
        check("round_p50_us", b_p50, c_p50, b_p50 * lat_ceil);
        check("round_p99_us", b_p99, c_p99, b_p99 * lat_ceil);
        check("bytes_per_device", b_bytes, c_bytes, b_bytes * bytes_ceil);
        match (b_cost, c_cost) {
            (Some(b_c), Some(c_c)) => {
                check(
                    "trace_cost_us_per_round",
                    b_c,
                    c_c,
                    (b_c * lat_ceil).max(cfg.trace_cost_floor_us),
                );
            }
            _ => report.notes.push(format!(
                "skipped population.q{q}.trace_cost_us_per_round: absent from one report"
            )),
        }
        if q >= cfg.min_trace_overhead_q {
            match c_trace {
                // Absolute ceiling: the baseline value is informational
                // (0.0 when the baseline predates digest tracing).
                Some(c_t) => check(
                    "trace_overhead_pct",
                    b_trace.unwrap_or(0.0),
                    c_t.max(0.0),
                    cfg.max_trace_overhead_pct,
                ),
                None => report.notes.push(format!(
                    "population q={q}: no trace_overhead_pct in candidate"
                )),
            }
        }
    }
    for &(q, ..) in &cand_entries {
        if !base_entries.iter().any(|(bq, ..)| *bq == q) {
            report.notes.push(format!("population q={q}: absent from baseline"));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(serial_rps: f64, parallel_rps: f64, overhead: f64, latency: Option<(f64, f64)>) -> String {
        let latency = match latency {
            Some((p50, p99)) => {
                format!(
                    r#","latency":{{"rounds":300,"p50_us":{p50},"p99_us":{p99},"events_overhead_pct":1.2}}"#
                )
            }
            None => String::new(),
        };
        format!(
            r#"{{"bench":"round_engine","scenario":{{"num_devices":100,"max_rounds":300,"seed":2022}},"round_engine":{{"serial":{{"rounds_per_sec":{serial_rps}}},"parallel":{{"rounds_per_sec":{parallel_rps}}},"telemetry":{{"overhead_pct":{overhead}}}{latency}}}}}"#
        )
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(80.0, 81.0, 0.5, Some((12000.0, 15000.0)));
        let g = gate(&r, &r, &GateConfig::default()).unwrap();
        assert!(g.passed(), "{}", g.render());
        assert_eq!(g.checks.len(), 6);
        assert!(g.notes.is_empty(), "{:?}", g.notes);
    }

    /// A baseline recorded by an older harness can carry a negative
    /// overhead (the metered run beat the untraced one by noise); the
    /// gate clamps it so the limit never drops below `0 + tolerance`.
    #[test]
    fn negative_overhead_baselines_are_clamped_before_gating() {
        let base = report(80.0, 81.0, -2.369415660932006, None);
        let ok = report(80.0, 81.0, 4.0, None);
        let g = gate(&base, &ok, &GateConfig::default()).unwrap();
        assert!(g.passed(), "{}", g.render());
        let check = g
            .checks
            .iter()
            .find(|c| c.name.ends_with("overhead_pct"))
            .expect("overhead check present");
        assert_eq!(check.baseline, 0.0, "baseline not clamped");
        assert!((check.limit - 5.0).abs() < 1e-12, "limit is 0 + 5pp");
        // Beyond the clamped limit still fails.
        let heavy = report(80.0, 81.0, 6.0, None);
        let g = gate(&base, &heavy, &GateConfig::default()).unwrap();
        assert!(!g.passed(), "{}", g.render());
    }

    #[test]
    fn rps_drop_beyond_tolerance_fails() {
        let base = report(80.0, 81.0, 0.5, None);
        let cand = report(40.0, 81.0, 0.5, None);
        let g = gate(&base, &cand, &GateConfig::default()).unwrap();
        assert!(!g.passed());
        let bad: Vec<_> = g.checks.iter().filter(|c| !c.passed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "round_engine.serial.rounds_per_sec");
        assert!(g.render().contains("FAIL"), "{}", g.render());
        // A 30% drop limit on an 80 rps baseline means 56 rps floor.
        assert!((bad[0].limit - 56.0).abs() < 1e-12);
    }

    #[test]
    fn latency_growth_and_overhead_growth_fail() {
        let base = report(80.0, 81.0, 0.5, Some((10000.0, 12000.0)));
        let slow = report(80.0, 81.0, 0.5, Some((16000.0, 12000.0)));
        let g = gate(&base, &slow, &GateConfig::default()).unwrap();
        assert!(!g.passed());
        assert!(g.checks.iter().any(|c| !c.passed && c.name.ends_with("p50_us")));

        let heavy = report(80.0, 81.0, 7.0, Some((10000.0, 12000.0)));
        let g = gate(&base, &heavy, &GateConfig::default()).unwrap();
        assert!(g.checks.iter().any(|c| !c.passed && c.name.ends_with("overhead_pct")));
    }

    #[test]
    fn missing_latency_section_is_a_note_not_a_failure() {
        let base = report(80.0, 81.0, 0.5, None);
        let cand = report(80.0, 81.0, 0.5, Some((10000.0, 12000.0)));
        let g = gate(&base, &cand, &GateConfig::default()).unwrap();
        assert!(g.passed(), "{}", g.render());
        assert_eq!(g.checks.len(), 3);
        assert!(g.notes.iter().any(|n| n.contains("p50_us")), "{:?}", g.notes);
    }

    #[test]
    fn scenario_mismatch_is_noted() {
        let base = report(80.0, 81.0, 0.5, None);
        let cand = base.replace(r#""num_devices":100"#, r#""num_devices":20"#);
        let g = gate(&base, &cand, &GateConfig::default()).unwrap();
        assert!(g.notes.iter().any(|n| n.contains("num_devices")), "{:?}", g.notes);
    }

    #[test]
    fn non_bench_reports_are_rejected() {
        assert!(gate("{}", "{}", &GateConfig::default()).is_err());
        assert!(gate("not json", "{}", &GateConfig::default()).is_err());
    }

    fn kernel_report(smoke: bool, kernels: &[(&str, f64)]) -> String {
        let entries: Vec<String> = kernels
            .iter()
            .map(|(name, gflops)| {
                format!(
                    r#"{{"name":"{name}","m":200,"k":64,"n":64,"iters":100,"secs_per_iter":0.0001,"gflops":{gflops}}}"#
                )
            })
            .collect();
        format!(
            r#"{{"bench":"kernels","smoke":{smoke},"seed":2022,"kernels":[{}]}}"#,
            entries.join(",")
        )
    }

    #[test]
    fn identical_kernel_reports_pass() {
        let r = kernel_report(false, &[("matmul 200x64x64", 30.0), ("matmul_nt 200x10x64", 6.0)]);
        let g = gate_kernels(&r, &r, &KernelGateConfig::default()).unwrap();
        assert!(g.passed(), "{}", g.render());
        assert_eq!(g.checks.len(), 2);
        assert!(g.notes.is_empty(), "{:?}", g.notes);
    }

    #[test]
    fn kernel_gflops_cliff_fails() {
        let base = kernel_report(false, &[("matmul 200x64x64", 30.0), ("matmul_tn 64x200x64", 17.0)]);
        let cand = kernel_report(false, &[("matmul 200x64x64", 10.0), ("matmul_tn 64x200x64", 17.0)]);
        let g = gate_kernels(&base, &cand, &KernelGateConfig::default()).unwrap();
        assert!(!g.passed());
        let bad: Vec<_> = g.checks.iter().filter(|c| !c.passed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "kernels.matmul 200x64x64.gflops");
        // 50% drop tolerance on 30 GFLOP/s means a 15 GFLOP/s floor.
        assert!((bad[0].limit - 15.0).abs() < 1e-12);
        // A tighter tolerance flips the verdict on smaller drifts.
        let g = gate_kernels(&base, &cand, &KernelGateConfig { max_gflops_drop_pct: 70.0 })
            .unwrap();
        assert!(g.passed(), "{}", g.render());
    }

    #[test]
    fn kernel_set_and_smoke_mismatches_are_notes() {
        let base = kernel_report(false, &[("matmul 200x64x64", 30.0), ("retired", 5.0)]);
        let cand = kernel_report(true, &[("matmul 200x64x64", 29.0), ("brand_new", 9.0)]);
        let g = gate_kernels(&base, &cand, &KernelGateConfig::default()).unwrap();
        assert!(g.passed(), "{}", g.render());
        assert_eq!(g.checks.len(), 1);
        assert!(g.notes.iter().any(|n| n.contains("smoke mismatch")), "{:?}", g.notes);
        assert!(g.notes.iter().any(|n| n.contains("retired")), "{:?}", g.notes);
        assert!(g.notes.iter().any(|n| n.contains("brand_new")), "{:?}", g.notes);
    }

    #[test]
    fn kernel_gate_rejects_wrong_reports() {
        let kernels = kernel_report(false, &[("matmul 200x64x64", 30.0)]);
        let engine = report(80.0, 81.0, 0.5, None);
        assert!(gate_kernels(&engine, &kernels, &KernelGateConfig::default()).is_err());
        assert!(gate_kernels(&kernels, &engine, &KernelGateConfig::default()).is_err());
        assert!(gate_kernels("not json", &kernels, &KernelGateConfig::default()).is_err());
    }

    fn population_report(smoke: bool, entries: &[(u64, f64, f64, f64)]) -> String {
        population_report_traced(smoke, entries, Some((1.5, 40.0)))
    }

    /// `trace` is the optional `(overhead %, µs/round)` pair every
    /// entry carries; `None` mimics a report from an older harness.
    fn population_report_traced(
        smoke: bool,
        entries: &[(u64, f64, f64, f64)],
        trace: Option<(f64, f64)>,
    ) -> String {
        let trace = match trace {
            Some((pct, cost)) => format!(
                r#","trace_exemplars":8,"trace_overhead_pct":{pct},"trace_cost_us_per_round":{cost}"#
            ),
            None => String::new(),
        };
        let items: Vec<String> = entries
            .iter()
            .map(|(q, p50, p99, bytes)| {
                format!(
                    r#"{{"q":{q},"target":10,"rounds":10,"build_us":100,"select_p50_us":1,"round_p50_us":{p50},"round_p99_us":{p99},"resident_bytes":1000,"bytes_per_device":{bytes}{trace}}}"#
                )
            })
            .collect();
        format!(
            r#"{{"bench":"population","smoke":{smoke},"seed":2022,"populations":[{}]}}"#,
            items.join(",")
        )
    }

    #[test]
    fn identical_population_reports_pass() {
        let r = population_report(
            false,
            &[(1000, 2.0, 4.0, 58.0), (1_000_000, 900.0, 1500.0, 60.0)],
        );
        let g = gate_population(&r, &r, &PopulationGateConfig::default()).unwrap();
        assert!(g.passed(), "{}", g.render());
        // 2 sizes × (p50, p99, bytes, trace cost) + the relative
        // overhead ceiling at the one size ≥ min_trace_overhead_q.
        assert_eq!(g.checks.len(), 9);
        assert!(g.notes.is_empty(), "{:?}", g.notes);
    }

    /// The trace-overhead check is an absolute ceiling at large sizes:
    /// a candidate over the budget fails even when the baseline was
    /// just as slow, and a baseline without the field still gates the
    /// candidate. Small sizes skip the ceiling — their ratio is all
    /// fixed per-round cost.
    #[test]
    fn population_trace_overhead_ceiling_is_absolute_and_scale_scoped() {
        let entries = [(1_000_000, 900.0, 1500.0, 60.0)];
        let base = population_report_traced(false, &entries, Some((12.0, 40.0)));
        let cand = population_report_traced(false, &entries, Some((12.0, 40.0)));
        let g = gate_population(&base, &cand, &PopulationGateConfig::default()).unwrap();
        assert!(!g.passed(), "{}", g.render());
        let bad: Vec<_> = g.checks.iter().filter(|c| !c.passed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "population.q1000000.trace_overhead_pct");
        assert!((bad[0].limit - 10.0).abs() < 1e-12, "default 10% ceiling");

        // The same numbers at a small size pass: only the per-round
        // cost is gated there, and it did not grow.
        let small = [(1000, 2.0, 4.0, 58.0)];
        let base_small = population_report_traced(false, &small, Some((1455.0, 40.0)));
        let g = gate_population(&base_small, &base_small, &PopulationGateConfig::default())
            .unwrap();
        assert!(g.passed(), "{}", g.render());
        assert!(
            !g.checks.iter().any(|c| c.name.ends_with("trace_overhead_pct")),
            "{}",
            g.render()
        );
        assert!(g.checks.iter().any(|c| c.name.ends_with("trace_cost_us_per_round")));

        // Old baseline without the trace fields: the candidate is
        // still held to the absolute ceiling, the cost check is noted.
        let old = population_report_traced(false, &entries, None);
        let fast = population_report_traced(false, &entries, Some((3.0, 40.0)));
        let g = gate_population(&old, &fast, &PopulationGateConfig::default()).unwrap();
        assert!(g.passed(), "{}", g.render());
        assert!(g.checks.iter().any(|c| c.name.ends_with("trace_overhead_pct")));
        assert!(
            g.notes.iter().any(|n| n.contains("trace_cost_us_per_round")),
            "{:?}",
            g.notes
        );
        // And an old candidate is a note, not a failure.
        let g = gate_population(&fast, &old, &PopulationGateConfig::default()).unwrap();
        assert!(g.passed(), "{}", g.render());
        assert!(
            g.notes.iter().any(|n| n.contains("no trace_overhead_pct")),
            "{:?}",
            g.notes
        );
    }

    /// A tracing-cost regression (say, an accidental per-device span
    /// re-emission) is caught by the per-round cost check at any size.
    #[test]
    fn population_trace_cost_growth_fails() {
        let base =
            population_report_traced(false, &[(1000, 2.0, 4.0, 58.0)], Some((1400.0, 40.0)));
        let cand =
            population_report_traced(false, &[(1000, 2.0, 4.0, 58.0)], Some((1400.0, 400.0)));
        let g = gate_population(&base, &cand, &PopulationGateConfig::default()).unwrap();
        assert!(!g.passed(), "{}", g.render());
        let bad: Vec<_> = g.checks.iter().filter(|c| !c.passed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "population.q1000.trace_cost_us_per_round");
        // 200% growth tolerance on 40 µs means a 120 µs ceiling
        // (which coincides with the floor).
        assert!((bad[0].limit - 120.0).abs() < 1e-9);
    }

    /// A baseline that measured ~zero tracing cost (the diff of two
    /// timings legitimately hits 0 when rounds dwarf the trace write)
    /// must not turn every positive candidate into a failure: the
    /// growth limit is floored.
    #[test]
    fn population_trace_cost_zero_baseline_uses_the_floor() {
        let entries = [(10_000_000, 9000.0, 15000.0, 60.0)];
        let base = population_report_traced(false, &entries, Some((0.0, 0.0)));
        let ok = population_report_traced(false, &entries, Some((0.5, 80.0)));
        let cfg = PopulationGateConfig::default();
        let g = gate_population(&base, &ok, &cfg).unwrap();
        assert!(g.passed(), "{}", g.render());
        let cost = g
            .checks
            .iter()
            .find(|c| c.name.ends_with("trace_cost_us_per_round"))
            .unwrap();
        assert!((cost.limit - cfg.trace_cost_floor_us).abs() < 1e-12);
        // Beyond the floor still fails.
        let slow = population_report_traced(false, &entries, Some((0.5, 400.0)));
        let g = gate_population(&base, &slow, &cfg).unwrap();
        assert!(!g.passed(), "{}", g.render());
    }

    #[test]
    fn population_latency_cliff_fails() {
        let base = population_report(false, &[(1_000_000, 900.0, 1500.0, 60.0)]);
        // 10× p50: the complexity-class regression the gate exists for.
        let cand = population_report(false, &[(1_000_000, 9000.0, 1500.0, 60.0)]);
        let g = gate_population(&base, &cand, &PopulationGateConfig::default()).unwrap();
        assert!(!g.passed());
        let bad: Vec<_> = g.checks.iter().filter(|c| !c.passed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "population.q1000000.round_p50_us");
        // 200% growth tolerance on 900 µs means a 2700 µs ceiling.
        assert!((bad[0].limit - 2700.0).abs() < 1e-9);
    }

    #[test]
    fn population_memory_growth_fails() {
        let base = population_report(false, &[(1_000_000, 900.0, 1500.0, 60.0)]);
        let cand = population_report(false, &[(1_000_000, 900.0, 1500.0, 90.0)]);
        let g = gate_population(&base, &cand, &PopulationGateConfig::default()).unwrap();
        assert!(!g.passed());
        assert!(g
            .checks
            .iter()
            .any(|c| !c.passed && c.name.ends_with("bytes_per_device")));
        // A looser budget flips the verdict.
        let loose = PopulationGateConfig { max_bytes_growth_pct: 60.0, ..Default::default() };
        assert!(gate_population(&base, &cand, &loose).unwrap().passed());
    }

    #[test]
    fn population_size_and_smoke_mismatches_are_notes() {
        // Committed full sweep vs a smoke candidate that stops early.
        let base = population_report(
            false,
            &[(1000, 2.0, 4.0, 58.0), (10_000_000, 8000.0, 12000.0, 62.0)],
        );
        let cand = population_report(true, &[(1000, 2.1, 4.2, 58.0), (500, 1.0, 2.0, 55.0)]);
        let g = gate_population(&base, &cand, &PopulationGateConfig::default()).unwrap();
        assert!(g.passed(), "{}", g.render());
        assert_eq!(g.checks.len(), 4, "only the shared size is checked");
        assert!(g.notes.iter().any(|n| n.contains("smoke mismatch")), "{:?}", g.notes);
        assert!(g.notes.iter().any(|n| n.contains("q=10000000")), "{:?}", g.notes);
        assert!(g.notes.iter().any(|n| n.contains("q=500")), "{:?}", g.notes);
    }

    #[test]
    fn population_gate_rejects_wrong_reports() {
        let pop = population_report(false, &[(1000, 2.0, 4.0, 58.0)]);
        let engine = report(80.0, 81.0, 0.5, None);
        assert!(gate_population(&engine, &pop, &PopulationGateConfig::default()).is_err());
        assert!(gate_population(&pop, &engine, &PopulationGateConfig::default()).is_err());
        assert!(gate_population("not json", &pop, &PopulationGateConfig::default()).is_err());
    }
}

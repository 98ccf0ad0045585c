//! Population-scaling benchmark: the per-round control plane —
//! selection, frequency determination and the TDMA timeline — at fleet
//! sizes the paper never reaches.
//!
//! For each population size `Q` the harness builds a compact
//! [`Fleet`](mec_sim::fleet::Fleet) (no `Vec<Device>` is ever
//! materialized for the whole fleet), runs the indexed HELCFL selector
//! over a fleet-backed context and checks its pick with
//! `validate_selection` (the `select` phase, timed as the federated
//! runner runs it), gathers the cohort, assigns Alg.-3
//! slack DVFS frequencies and resolves the round's TDMA timeline
//! through [`FaultedRound`] — the engine every federated round runs —
//! with no fault and no round deadline. It
//! reports per-round latency percentiles, the p50 of each of those
//! four phases, and resident bytes per device. The first warmup round
//! absorbs the one-time index build; measured rounds reflect the
//! steady state a long training run lives in.
//!
//! The selection target scales as `min(max(Q/1000, 10), 10 000)` —
//! the paper's `C = 0.1` would select 100 000 devices at `Q = 10^6`,
//! which no real deployment does per round; a sub-percent cohort is
//! the realistic regime the 50 ms latency budget applies to.
//!
//! Each size also measures the cost of *watching* a round at scale:
//! the same selection + DVFS + TDMA pipeline runs with telemetry
//! disabled and under digest-mode tracing, alternating round by
//! round, and the median of the per-pair differences is the cost (one
//! `cohort_digest` aggregate plus [`TRACE_EXEMPLARS`] sampled
//! `device_activity` spans per round, instead of `target` per-device
//! spans). The trace's *volume* is fixed per round; only the digest's
//! aggregates and the metrics histograms walk the cohort, so the cost
//! grows far slower than the round. Every size is measured and printed
//! first; then the run is refused, naming every `Q ≤ 10^6` whose cost
//! exceeds the absolute ceiling [`TRACE_COST_CEILING_US`], and no
//! report is written.
//!
//! Results go to stdout and `results/BENCH_population.json`: per size
//! `q<Q>.round_p50_us` and `q<Q>.round_p99_us` records with bound
//! [`LATENCY_BOUND`] and a `q<Q>.bytes_per_device` record with bound
//! [`BYTES_BOUND`] (`helcfl-trace gate` diffs two such reports).
//!
//! Usage: `bench_population [--smoke] [--seed N] [--trace PATH]`
//!
//! `--smoke` stops the size sweep at `Q = 10^5` for CI, times 10 000
//! measured rounds per size and 30 overhead pairs (full: 90). The full
//! sweep times each size for [`FULL_BUDGET`] of measured rounds, at
//! least [`FULL_MIN_ROUNDS`] and at most [`MAX_ROUNDS`]: a round costs
//! up to milliseconds at `Q = 10^7`, and a fixed 30 rounds there gave
//! p50s that moved by 2× between runs of one build. The per-Q numbers
//! stay comparable to the full report within the records' bounds. `--trace PATH` keeps the digest-mode JSONL
//! trace (all sizes, one stream) for `helcfl-trace check`/`audit`;
//! without it the trace goes to a temp file that is deleted on exit.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use detrand::splitmix64;
use fl_sim::frequency::FrequencyPolicy;
use fl_sim::selection::{validate_selection, ClientSelector, SelectionContext};
use helcfl::{IndexedDecaySelector, SlackFrequencyPolicy};
use helcfl_bench::gate::{percentile_nearest_rank, Better, Record};
use helcfl_bench::{ArgError, Args};
use helcfl_telemetry::json::JsonObject;
use helcfl_telemetry::Telemetry;
use mec_sim::faults::{DigestConfig, FaultedRound};
use mec_sim::population::PopulationBuilder;
use mec_sim::units::Bits;

/// Population sizes of the full sweep (`--smoke` keeps the first 3).
const SIZES: [usize; 5] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000];
const SMOKE_SIZES: usize = 3;

/// How far a size's round p50/p99 may grow over its baseline: 400 %.
/// Latencies at the smoke sizes are single- to double-digit
/// microseconds, so the bound catches the indexed selector losing its
/// complexity class, not µs-level jitter.
const LATENCY_BOUND: f64 = 4.0;

/// How far resident bytes per device may grow: 50 %. The figure is
/// deterministic; the bound leaves room for a deliberate layout change.
const BYTES_BOUND: f64 = 0.5;

/// Ceiling on the digest-trace cost of one round at `Q ≤ 10^6`, µs:
/// 10 % of the `Q = 10^6` round p50 (891 µs) when it was set.
const TRACE_COST_CEILING_US: f64 = 89.0;

/// Largest size the trace-cost ceiling applies to. Above it the digest
/// aggregates walk cohorts of 10 000 devices and the round runs for
/// milliseconds.
const TRACE_CEILING_MAX_Q: usize = 1_000_000;

/// Measured rounds per size: `--smoke` times exactly this many, the
/// full sweep at most this many.
const MAX_ROUNDS: usize = 10_000;

/// Measured-round time per size in the full sweep: enough rounds at
/// `Q = 10^7` (milliseconds each) for a p50 that repeats across runs.
const FULL_BUDGET: Duration = Duration::from_secs(2);

/// Fewest measured rounds per size in the full sweep.
const FULL_MIN_ROUNDS: usize = 30;

/// Exemplar devices per digest round — enough to spot-check the
/// aggregates, small enough that trace volume is round-bound.
const TRACE_EXEMPLARS: usize = 8;

struct Options {
    smoke: bool,
    seed: u64,
    trace: Option<PathBuf>,
}

/// Parses the flags, refusing with the flag named an unknown flag and
/// a missing or malformed value.
fn parse_args() -> Result<Options, ArgError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw, &["--seed", "--trace"], &["--smoke"])?.flags_only()?;
    Ok(Options {
        smoke: args.switch("--smoke"),
        seed: args.value("--seed", "an unsigned integer")?.unwrap_or(2022),
        trace: args.value("--trace", "a path")?,
    })
}

/// Refuses a sweep whose digest trace cost more than
/// [`TRACE_COST_CEILING_US`] per round at any size the ceiling covers,
/// naming every such size with its `(Q, µs per round)` cost.
fn check_trace_costs(costs: &[(usize, f64)]) -> Result<(), String> {
    let breaches: Vec<String> = costs
        .iter()
        .filter(|&&(q, cost_us)| q <= TRACE_CEILING_MAX_Q && cost_us > TRACE_COST_CEILING_US)
        .map(|(q, cost_us)| format!("Q = {q}: {cost_us:.1} µs"))
        .collect();
    if breaches.is_empty() {
        return Ok(());
    }
    Err(format!(
        "the digest trace costs more than the {TRACE_COST_CEILING_US} µs ceiling per round at {}",
        breaches.join(", ")
    ))
}

/// Realistic per-round cohort: sub-percent of the fleet, at least 10,
/// capped at 10 000 (see module docs).
fn target_for(q: usize) -> usize {
    (q / 1000).clamp(10, 10_000)
}

fn main() -> ExitCode {
    helcfl_bench::exit_code("bench_population", run())
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args()?;
    let sizes = if args.smoke { &SIZES[..SMOKE_SIZES] } else { &SIZES[..] };
    // Fewest measured rounds and untraced/traced overhead pairs per
    // size; past the fewest, a size keeps timing rounds until its
    // measured time reaches FULL_BUDGET or it has MAX_ROUNDS. A smoke
    // round costs at most ~100 µs (Q ≤ 10^5), so the smoke run can
    // afford enough rounds for a real p99: its nearest rank has a
    // hundred samples above it, so neither one scheduler hiccup (which
    // was the whole figure when p99 was the maximum of 10 rounds) nor
    // a burst of slow rounds shorter than a percent of the block moves
    // it.
    let (warmup, min_rounds, pairs) =
        if args.smoke { (2, MAX_ROUNDS, 30) } else { (3, FULL_MIN_ROUNDS, 90) };
    let payload = Bits::from_megabits(40.0);

    if args.smoke {
        println!("Population-scaling bench — {MAX_ROUNDS} rounds/size after {warmup} warmup (smoke)");
    } else {
        println!(
            "Population-scaling bench — {}–{MAX_ROUNDS} rounds/size within {:.0} s after \
             {warmup} warmup",
            FULL_MIN_ROUNDS,
            FULL_BUDGET.as_secs_f64()
        );
    }
    // One digest-mode JSONL stream covers the whole sweep, so the CI
    // audit sees rounds at every size in a single file.
    let trace_path = args.trace.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("bench_population_{}.jsonl", std::process::id()))
    });
    let tele_traced = Telemetry::to_file(&trace_path)?;
    let tele_off = Telemetry::disabled();
    let mut trace_round: u64 = 0;
    let mut records = Vec::new();
    let mut trace_costs = Vec::with_capacity(sizes.len());
    for &q in sizes {
        let target = target_for(q);
        let built = Instant::now();
        let fleet = PopulationBuilder::paper_default()
            .num_devices(q)
            .seed(args.seed)
            .build_fleet()?;
        let mut selector = IndexedDecaySelector::default();
        let no_faults = vec![None; target];
        // One control-plane round: Alg. 2 selection, the cohort
        // gather, Alg. 3 DVFS and the TDMA timeline, returning each
        // phase's nanoseconds in that order. Under `tele_off` the
        // spans are inert and the round is exactly what the latency
        // figures time; under `tele_traced` the phase children mirror
        // the federated runner's round structure (selection →
        // frequency → timeline) so the emitted trace satisfies the
        // same ≥ 80 % span-coverage rule: at heavy sizes the round's
        // wall-clock lives in those phases, and a round span whose
        // only child wrapped the digest write would be almost
        // entirely uncovered.
        let sim_round = |selector: &mut IndexedDecaySelector,
                         round: usize,
                         tele: &Telemetry,
                         trace_round: u64|
         -> Result<[u64; 4], Box<dyn std::error::Error>> {
            let started = Instant::now();
            let mut round_span = tele.span("round");
            round_span.set("index", trace_round);
            let span_sel = round_span.child("selection");
            let ctx = SelectionContext {
                round,
                devices: (&fleet).into(),
                payload,
                target,
            };
            let selected = selector.select(&ctx)?;
            validate_selection(&ctx, &selected)?;
            let selected_at = started.elapsed();
            let cohort = fleet.gather(&selected);
            let gathered_at = started.elapsed();
            span_sel.end();
            let span_freq = round_span.child("frequency");
            let freqs = SlackFrequencyPolicy.frequencies(&cohort, payload)?;
            let dvfs_at = started.elapsed();
            span_freq.end();
            let mut span_tl = round_span.child("timeline");
            let timeline = FaultedRound::simulate(&cohort, &freqs, payload, &no_faults, None)?;
            let timeline_at = started.elapsed();
            assert_eq!(timeline.outcomes().len(), target, "timeline must cover the cohort");
            if tele.events_enabled() {
                span_tl.set("policy", SlackFrequencyPolicy.name());
                span_tl.set("delay_neutral", SlackFrequencyPolicy.delay_neutral());
                timeline.trace_digest_into(
                    &mut span_tl,
                    DigestConfig {
                        exemplars: TRACE_EXEMPLARS,
                        seed: splitmix64(args.seed ^ trace_round),
                    },
                );
            }
            tele.with_metrics(|m| timeline.record_metrics(m));
            span_tl.end();
            round_span.end();
            let ns = |d: std::time::Duration| d.as_nanos() as u64;
            Ok([
                ns(selected_at),
                ns(gathered_at - selected_at),
                ns(dvfs_at - gathered_at),
                ns(timeline_at - dvfs_at),
            ])
        };
        // Warmup: round 1 pays the one-time index build; later warmup
        // rounds settle counters into their steady-state spread.
        for round in 1..=warmup {
            sim_round(&mut selector, round, &tele_off, 0)?;
        }
        let build_us = built.elapsed().as_micros() as u64;

        // Per-phase and whole-round nanoseconds.
        let mut phase_ns: [Vec<u64>; 4] = Default::default();
        let mut round_ns: Vec<u64> = Vec::with_capacity(min_rounds);
        let mut measured_ns: u64 = 0;
        while round_ns.len() < MAX_ROUNDS
            && (round_ns.len() < min_rounds || measured_ns < FULL_BUDGET.as_nanos() as u64)
        {
            let round = warmup + round_ns.len() + 1;
            let phases = sim_round(&mut selector, round, &tele_off, 0)?;
            for (samples, ns) in phase_ns.iter_mut().zip(phases) {
                samples.push(ns);
            }
            let ns: u64 = phases.iter().sum();
            round_ns.push(ns);
            measured_ns += ns;
        }
        let rounds = round_ns.len();
        let p50_us = |samples: &mut Vec<u64>| {
            samples.sort_unstable();
            percentile_nearest_rank(samples, 0.5) as f64 / 1e3
        };
        let [select_p50, gather_p50, dvfs_p50, timeline_p50] = phase_ns.each_mut().map(p50_us);
        round_ns.sort_unstable();
        let bytes = fleet.memory_bytes() + selector.memory_bytes();
        let bytes_per_device = bytes as f64 / q as f64;
        let p50 = percentile_nearest_rank(&round_ns, 0.5) as f64 / 1e3;
        let p99 = percentile_nearest_rank(&round_ns, 0.99) as f64 / 1e3;
        println!(
            "  Q={q:>9}  target {target:>6}  round p50 {p50:>9.1} µs  p99 {p99:>9.1} µs  \
             {bytes_per_device:7.1} B/device  (setup+warmup {:.2} s, {rounds} rounds)",
            build_us as f64 / 1e6
        );
        println!(
            "             p50 select {select_p50:.1} µs  gather {gather_p50:.1} µs  \
             dvfs {dvfs_p50:.1} µs  timeline {timeline_p50:.1} µs"
        );

        // Telemetry overhead: the same round, untraced vs
        // digest-traced. Same selector, same fleet — the round counter
        // just keeps advancing, so both loops run in the selector's
        // steady state.
        let mut next_round = warmup + rounds;
        // The overhead is a difference of two per-round timings on a
        // shared host, where a single scheduler hiccup can cost more
        // than the entire effect being measured (observed: 3 ms
        // outlier rounds against a ~50 µs tracing cost), and where the
        // round time itself drifts by tens of percent over a second.
        // So: alternate plain and traced rounds one by one, and take
        // the *median of the per-pair differences* — drift moves both
        // rounds of a pair alike and cancels, and outlier rounds land
        // in the tails and never touch the estimate.
        let mut plain_ns: Vec<u64> = Vec::with_capacity(pairs);
        let mut diff_ns: Vec<i64> = Vec::with_capacity(pairs);
        for _ in 0..pairs {
            next_round += 1;
            let t = Instant::now();
            sim_round(&mut selector, next_round, &tele_off, 0)?;
            let plain = t.elapsed().as_nanos() as u64;
            next_round += 1;
            trace_round += 1;
            let t = Instant::now();
            sim_round(&mut selector, next_round, &tele_traced, trace_round)?;
            let traced = t.elapsed().as_nanos() as u64;
            plain_ns.push(plain);
            diff_ns.push(traced as i64 - plain as i64);
        }
        // The round-barrier drain happens once per size here, outside
        // the timed loops — a tailing `watch` still sees whole sizes.
        tele_traced.flush();
        plain_ns.sort_unstable();
        diff_ns.sort_unstable();
        let plain_p50_ns = percentile_nearest_rank(&plain_ns, 0.5) as f64;
        let diff_p50_ns = diff_ns[(diff_ns.len() - 1) / 2] as f64;
        // A traced round that happens to beat its untraced partner is
        // host noise, not a negative cost.
        let trace_cost_us = diff_p50_ns.max(0.0) / 1e3;
        println!(
            "             digest trace {trace_cost_us:7.1} µs/round \
             ({:.2} % of the round, {TRACE_EXEMPLARS} exemplars)",
            diff_p50_ns.max(0.0) / plain_p50_ns * 100.0
        );
        trace_costs.push((q, trace_cost_us));

        let mut record = |quantity: &str, unit: &str, bound: f64, value: f64| {
            let metric = format!("q{q}.{quantity}");
            let better = Better::Lower;
            records.push(Record { metric, unit: unit.into(), better, bound, value }.to_json());
        };
        record("round_p50_us", "us", LATENCY_BOUND, p50);
        record("round_p99_us", "us", LATENCY_BOUND, p99);
        record("bytes_per_device", "B", BYTES_BOUND, bytes_per_device);
    }
    tele_traced.finish();
    if args.trace.is_some() {
        println!("  digest trace written to {}", trace_path.display());
    } else {
        let _ = std::fs::remove_file(&trace_path);
    }
    check_trace_costs(&trace_costs)?;

    let mut host = JsonObject::new();
    host.field(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0usize, std::num::NonZeroUsize::get),
    );

    let mut report = JsonObject::new();
    report
        .field("bench", "population")
        .field("smoke", args.smoke)
        .field("seed", args.seed)
        .object("host", host)
        .field("records", records);

    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_population.json");
    std::fs::write(&path, report.finish() + "\n")?;
    println!("  report written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_trace_cost_above_the_ceiling_refuses_the_run_naming_q() {
        // The committed costs, 27–65 µs at Q = 10^3–10^6, pass; above
        // 10^6 the ceiling does not apply (the committed Q = 10^7 cost
        // is 226 µs).
        let committed =
            [(1_000, 35.1), (100_000, 27.5), (1_000_000, 65.1), (10_000_000, 225.9)];
        assert!(check_trace_costs(&committed).is_ok());
        assert!(check_trace_costs(&[(1_000, TRACE_COST_CEILING_US)]).is_ok());
        // Every breaching size is named, not only the first.
        let slow =
            [(1_000, 89.5), (100_000, 27.5), (1_000_000, 89.5), (10_000_000, 400.0)];
        let err = check_trace_costs(&slow).unwrap_err();
        for q in [1_000, 1_000_000] {
            assert!(err.contains(&format!("Q = {q}:")), "{err}");
        }
        for q in [100_000, 10_000_000] {
            assert!(!err.contains(&format!("Q = {q}:")), "{err}");
        }
    }
}

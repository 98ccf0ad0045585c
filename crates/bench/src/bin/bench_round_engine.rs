//! Round-engine performance harness (no external bench framework).
//!
//! Times three things with plain [`std::time::Instant`]:
//!
//! 1. **Blocked matmul kernels** — GFLOP/s of `matmul_into` at a few
//!    square sizes, steady-state (outputs preallocated, zero
//!    allocation inside the timed loop).
//! 2. **Serial round engine** — rounds/sec of `run_federated` with
//!    `threads = 1`.
//! 3. **Parallel round engine** — the same scenario with the pool
//!    sized to the detected host parallelism, plus the bit-identity
//!    check that both runs produced the same `TrainingHistory`.
//! 4. **Telemetry overhead** — the parallel run repeated with a
//!    metrics-collecting (null-sink) telemetry handle; the report
//!    records the relative slowdown so the <2 % overhead budget in
//!    DESIGN.md stays checkable.
//! 5. **Per-round latency** — the run repeated once more with full
//!    event tracing into a memory sink; the `round` span durations
//!    give exact (nearest-rank, not histogram-approximated) p50/p99
//!    per-round wall-clock, so `helcfl-trace gate` can catch latency
//!    regressions, not just throughput drops.
//!
//! Results go to stdout and `results/BENCH_round_engine.json`. The
//! recorded numbers are whatever the current host produces — on a
//! single-core container the speedup is honestly ~1.0; the ≥2×
//! target applies to hosts with ≥4 cores.
//!
//! Usage: `bench_round_engine [--fast] [--seed N]`

use std::path::Path;
use std::time::Instant;

use detrand::Rng;
use fl_sim::frequency::MaxFrequency;
use fl_sim::history::TrainingHistory;
use fl_sim::parallel::worker_threads;
use fl_sim::runner::run_federated_traced;
use fl_sim::seeds::{derive, SeedDomain};
use fl_baselines::classic::RandomSelector;
use helcfl_bench::gate::percentile_nearest_rank;
use helcfl_telemetry::json::JsonObject;
use helcfl_bench::{CommonArgs, PaperScenario, Setting};
use helcfl_telemetry::analyze::Trace;
use helcfl_telemetry::{MemorySink, Telemetry};
use tinynn::tensor::Matrix;

/// Measures one square matmul size: returns (seconds/iter, GFLOP/s).
fn bench_matmul(n: usize, iters: usize, rng: &mut Rng) -> (f64, f64) {
    let a = random_matrix(n, n, rng);
    let b = random_matrix(n, n, rng);
    let mut out = Matrix::zeros(n, n).expect("zeros");
    // Warm up (fills caches, faults pages, JIT-free but still fair).
    for _ in 0..2 {
        a.matmul_into(&b, &mut out).expect("matmul");
    }
    let started = Instant::now();
    for _ in 0..iters {
        a.matmul_into(&b, &mut out).expect("matmul");
    }
    let secs = started.elapsed().as_secs_f64() / iters as f64;
    let flops = 2.0 * (n as f64).powi(3);
    (secs, flops / secs / 1e9)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();
    Matrix::from_vec(rows, cols, data).expect("from_vec")
}

/// What the OS reports, before the `HELCFL_THREADS` override that
/// [`worker_threads`] applies (0 when the query itself fails).
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
}

/// Runs the scenario with a fixed thread count; returns the history
/// and the wall-clock seconds of the training loop itself (setup
/// excluded).
fn timed_run(
    scenario: &PaperScenario,
    threads: usize,
    tele: &Telemetry,
) -> Result<(TrainingHistory, f64), Box<dyn std::error::Error>> {
    let mut config = scenario.training_config();
    config.threads = threads;
    let mut setup = scenario.setup(Setting::Iid)?;
    let mut selector = RandomSelector::new(derive(config.seed, SeedDomain::Selection));
    let started = Instant::now();
    let history =
        run_federated_traced(&mut setup, &config, &mut selector, &MaxFrequency, tele)?;
    Ok((history, started.elapsed().as_secs_f64()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse(std::env::args().skip(1));
    let scenario = args.scenario();
    let detected = worker_threads(0);
    println!(
        "Round-engine bench — {} devices, {} rounds, detected parallelism {}",
        scenario.num_devices, scenario.max_rounds, detected
    );

    // --- 1. Kernel microbenchmarks -------------------------------
    let mut rng = Rng::seed_from_u64(scenario.seed);
    let mut kernels = Vec::new();
    for &n in &[64usize, 128, 256] {
        let iters = (1 << 24) / (n * n) + 1; // keep each size ~comparable work
        let (secs, gflops) = bench_matmul(n, iters, &mut rng);
        println!("  matmul {n}x{n}x{n}: {gflops:.2} GFLOP/s ({:.1} µs/iter)", secs * 1e6);
        let mut k = JsonObject::new();
        k.field("n", n).field("iters", iters).field("secs_per_iter", secs).field(
            "gflops",
            gflops,
        );
        kernels.push(k);
    }

    // --- 2 & 3. Serial vs parallel round engine ------------------
    let disabled = Telemetry::disabled();
    let (serial_history, serial_secs) = timed_run(&scenario, 1, &disabled)?;
    let serial_rps = scenario.max_rounds as f64 / serial_secs;
    println!("  serial   (1 thread ): {serial_secs:.2}s, {serial_rps:.2} rounds/sec");

    let (parallel_history, parallel_secs) = timed_run(&scenario, detected, &disabled)?;
    let parallel_rps = scenario.max_rounds as f64 / parallel_secs;
    let speedup = serial_secs / parallel_secs;
    println!(
        "  parallel ({detected} threads): {parallel_secs:.2}s, {parallel_rps:.2} rounds/sec \
         ({speedup:.2}x)"
    );

    let bit_identical = serial_history == parallel_history;
    assert!(
        bit_identical,
        "determinism violation: serial and parallel histories differ"
    );
    println!("  histories bit-identical: {bit_identical}");

    // --- 4. Telemetry overhead (metrics on, events off) ----------
    let metered = Telemetry::metrics_only();
    let (metered_history, metered_secs) = timed_run(&scenario, detected, &metered)?;
    // A metered run that beats the untraced one is host noise, not
    // negative cost: clamp the gated number at zero and keep the raw
    // signed value alongside it.
    let raw_overhead_pct = (metered_secs / parallel_secs - 1.0) * 100.0;
    let overhead_pct = raw_overhead_pct.max(0.0);
    let telemetry_identical = metered_history == parallel_history;
    assert!(
        telemetry_identical,
        "determinism violation: telemetry changed the history"
    );
    println!(
        "  telemetry (metrics-only): {metered_secs:.2}s ({overhead_pct:.2}% vs untraced, \
         raw {raw_overhead_pct:+.2}%, history bit-identical: {telemetry_identical})"
    );

    // --- 5. Per-round latency percentiles (events on) ------------
    let sink = MemorySink::new();
    let traced = Telemetry::with_sink(sink.clone());
    let (traced_history, traced_secs) = timed_run(&scenario, detected, &traced)?;
    traced.finish();
    let traced_identical = traced_history == parallel_history;
    assert!(
        traced_identical,
        "determinism violation: event tracing changed the history"
    );
    let trace = Trace::parse(&sink.lines().join("\n"))
        .map_err(|e| format!("traced run emitted an invalid trace: {e}"))?;
    let mut round_durs: Vec<u64> = trace
        .spans
        .iter()
        .filter(|s| s.name == "round")
        .map(|s| s.dur_us)
        .collect();
    assert!(!round_durs.is_empty(), "traced run emitted no round spans");
    round_durs.sort_unstable();
    let p50_us = percentile_nearest_rank(&round_durs, 0.5);
    let p99_us = percentile_nearest_rank(&round_durs, 0.99);
    let max_us = *round_durs.last().expect("non-empty");
    let mean_us = round_durs.iter().sum::<u64>() as f64 / round_durs.len() as f64;
    let raw_events_overhead_pct = (traced_secs / parallel_secs - 1.0) * 100.0;
    let events_overhead_pct = raw_events_overhead_pct.max(0.0);
    println!(
        "  traced   (events on ): {traced_secs:.2}s ({events_overhead_pct:.2}% vs untraced, \
         raw {raw_events_overhead_pct:+.2}%), \
         per-round p50 {p50_us} µs, p99 {p99_us} µs, max {max_us} µs"
    );

    // --- Report --------------------------------------------------
    let mut host = JsonObject::new();
    host.field("available_parallelism", available_parallelism())
        .field("detected_parallelism", detected)
        .field("pool_workers", detected)
        .field("helcfl_threads_env", std::env::var("HELCFL_THREADS").ok());

    let mut scn = JsonObject::new();
    scn.field("fast", args.fast)
        .field("num_devices", scenario.num_devices)
        .field("max_rounds", scenario.max_rounds)
        .field("train_samples", scenario.train_samples)
        .field("seed", scenario.seed);

    let mut serial = JsonObject::new();
    serial.field("threads", 1usize).field("seconds", serial_secs).field(
        "rounds_per_sec",
        serial_rps,
    );
    let mut parallel = JsonObject::new();
    parallel.field("threads", detected).field("seconds", parallel_secs).field(
        "rounds_per_sec",
        parallel_rps,
    );

    let mut telemetry = JsonObject::new();
    telemetry
        .field("threads", detected)
        .field("seconds", metered_secs)
        .field("overhead_pct", overhead_pct)
        .field("raw_overhead_pct", raw_overhead_pct)
        .field("bit_identical", telemetry_identical);

    let mut latency = JsonObject::new();
    latency
        .field("rounds", round_durs.len())
        .field("p50_us", p50_us)
        .field("p99_us", p99_us)
        .field("mean_us", mean_us)
        .field("max_us", max_us)
        .field("seconds", traced_secs)
        .field("events_overhead_pct", events_overhead_pct)
        .field("raw_events_overhead_pct", raw_events_overhead_pct)
        .field("bit_identical", traced_identical);

    let mut engine = JsonObject::new();
    engine
        .object("serial", serial)
        .object("parallel", parallel)
        .object("telemetry", telemetry)
        .object("latency", latency)
        .field("speedup", speedup)
        .field("bit_identical", bit_identical);

    let mut report = JsonObject::new();
    report
        .field("bench", "round_engine")
        .object("host", host)
        .object("scenario", scn)
        .object("round_engine", engine)
        .field("matmul", kernels);

    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_round_engine.json");
    std::fs::write(&path, report.finish() + "\n")?;
    println!("  report written to {}", path.display());
    Ok(())
}

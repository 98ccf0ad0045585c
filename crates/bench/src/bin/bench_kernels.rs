//! Training-kernel microbenchmarks at the paper's MLP shapes.
//!
//! Times each tinynn matmul kernel — plain, fused bias, fused
//! bias+ReLU, transposed-left (`tn`), transposed-right (`nt`) — on the
//! exact shapes one local update of the §VII-A scenario runs them at
//! (shard batch 200, model `[64, 64, 10]`, eval chunk 256), the
//! 20-row minibatch shapes of the `noniid-faults` benchmark workload,
//! and one square reference size, 256³. GFLOP/s counts `2·m·k·n` per
//! product; the fused epilogues add a few percent more real work, so
//! their reported rate is slightly conservative. `relu_backward
//! 200x64`, the backward ReLU mask, counts one op per element (a
//! compare and a select), so it reports in the same unit and the same
//! gate covers it.
//!
//! On an AVX-512 host the report also carries `peak_gflops`, the
//! no-FMA ceiling measured by a register-only loop of independent
//! 16-lane multiplies and adds; stdout gives each kernel's share of it.
//!
//! Every kernel cycles through [`FRESH_OPERANDS`] distinct left
//! operands, as the engine does (each client and each evaluation chunk
//! brings new activations). Timing one repeated operand lets the
//! branch predictor learn its zero pattern and hides any data-dependent
//! branch in the kernel. Each rate is the fastest of [`PASSES`] timed
//! passes, interleaved across kernels.
//!
//! Results go to stdout and `results/BENCH_kernels.json`, one
//! `<kernel>.gflops` record per kernel with bound [`GFLOPS_BOUND`]
//! (`helcfl-trace gate` diffs two such reports).
//!
//! Usage: `bench_kernels [--smoke] [--seed N] [--operands N]`
//!
//! `--smoke` cuts the per-kernel FLOP budget ~16× for CI: rates get
//! noisier but stay within [`GFLOPS_BOUND`].
//! `--operands 1` times one repeated operand per kernel instead.

use std::num::NonZeroUsize;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use detrand::Rng;
use helcfl_bench::gate::{Better, Record};
use helcfl_bench::{ArgError, Args};
use helcfl_telemetry::json::JsonObject;
use tinynn::activation::relu_backward_inplace;
use tinynn::simd;
use tinynn::tensor::Matrix;

/// ReLU-like sparsity applied to the left operand of the kernels that
/// consume activations, so the zero-skip path is exercised the way the
/// engine exercises it.
const ACTIVATION_SPARSITY: f64 = 0.5;

/// Distinct left operands each kernel cycles through by default.
const FRESH_OPERANDS: usize = 16;

/// Per-kernel FLOP budget for the full run (`--smoke` divides by 16).
const FLOP_BUDGET: f64 = 2.0e9;

/// Minimum measured time per kernel for the full run (`--smoke`
/// divides by 16). The FLOP budget alone schedules narrow shapes
/// (e.g. `matmul_tn 64x200x10`) for so few microseconds of work that
/// timer noise dominates; a timed warmup scales the iteration count up
/// until at least this much wall clock is sampled.
const MIN_BENCH_SECS: f64 = 0.25;

/// How far a kernel's GFLOP/s may drop below its baseline before the
/// gate fails: 40 %. Timed-warmup calibration gives sub-50 µs kernels a
/// real sample budget, so `--smoke` rates stay within it. Each
/// committed baseline holds, per kernel, the slowest of five full runs:
/// the 2-vCPU host has phases lasting seconds in which the dense
/// kernels run at about half speed, and a baseline recorded outside
/// one failed the gate on smoke runs inside one.
const GFLOPS_BOUND: f64 = 0.40;

/// Timed passes per kernel. The passes of all kernels interleave and
/// each kernel reports its fastest pass, so a slow phase of a shared
/// host must cover every pass of a kernel to move its figure.
const PASSES: usize = 5;

struct Options {
    smoke: bool,
    seed: u64,
    operands: usize,
}

/// Parses the flags, refusing with the flag named an unknown flag and
/// a missing or malformed value.
fn parse_args() -> Result<Options, ArgError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw, &["--seed", "--operands"], &["--smoke"])?.flags_only()?;
    let operands: Option<NonZeroUsize> = args.value("--operands", "a positive integer")?;
    Ok(Options {
        smoke: args.switch("--smoke"),
        seed: args.value("--seed", "an unsigned integer")?.unwrap_or(2022),
        operands: operands.map_or(FRESH_OPERANDS, NonZeroUsize::get),
    })
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();
    Matrix::from_vec(rows, cols, data).expect("from_vec")
}

/// A matrix with roughly [`ACTIVATION_SPARSITY`] of its entries zeroed
/// and the rest positive — the value profile of a post-ReLU
/// activation, the input the kernels' zero-skip is built for.
fn sparse_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            let v = rng.uniform_f32(0.0, 1.0);
            if rng.uniform_f32(0.0, 1.0) < ACTIVATION_SPARSITY as f32 { 0.0 } else { v }
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("from_vec")
}

/// `count` matrices from `make`, for a kernel to cycle through.
fn operands(
    count: usize,
    rng: &mut Rng,
    make: fn(usize, usize, &mut Rng) -> Matrix,
    rows: usize,
    cols: usize,
) -> Vec<Matrix> {
    (0..count).map(|_| make(rows, cols, rng)).collect()
}

/// Hands out the matrices of `pool` round-robin, one per call.
fn cycle<'a>(pool: &'a [Matrix]) -> impl FnMut() -> &'a Matrix + 'a {
    let mut next = 0;
    move || {
        let m = &pool[next];
        next = (next + 1) % pool.len();
        m
    }
}

/// One benchmarked kernel invocation: `flops` is the work one call
/// counts for its GFLOP/s.
struct Bench<'a> {
    name: &'static str,
    flops: f64,
    run: Box<dyn FnMut() + 'a>,
}

/// A GEMM `(m×k)·(k×n)`, counted as `2·m·k·n` FLOPs (one multiply and
/// one add per product).
fn gemm<'a>(
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    run: impl FnMut() + 'a,
) -> Bench<'a> {
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    Bench { name, flops, run: Box::new(run) }
}

/// Iteration count for a kernel: the FLOP budget's schedule, raised
/// until the timed warmup predicts at least `min_secs` of samples.
fn calibrated_iters(run: &mut (dyn FnMut() + '_), budget_iters: f64, min_secs: f64) -> usize {
    // First run faults pages and fills caches; the second, warm run
    // estimates the per-iteration cost for calibration.
    run();
    let est = Instant::now();
    run();
    let t_est = est.elapsed().as_secs_f64().max(1e-9);
    let from_time = (min_secs / t_est) as usize;
    (budget_iters as usize).max(from_time).max(4)
}

/// Times each closure of `runs` in [`PASSES`] passes, the passes of all
/// closures interleaved, and returns per closure the seconds per
/// iteration of its fastest pass. `budget_iters[i]` and `min_secs`
/// size all passes of closure `i` together.
fn time_passes(
    runs: &mut [&mut (dyn FnMut() + '_)],
    budget_iters: &[f64],
    min_secs: f64,
) -> Vec<f64> {
    let per_pass = PASSES as f64;
    let iters: Vec<usize> = runs
        .iter_mut()
        .zip(budget_iters)
        .map(|(run, &budget)| calibrated_iters(*run, budget / per_pass, min_secs / per_pass))
        .collect();
    let mut best = vec![f64::INFINITY; runs.len()];
    for _ in 0..PASSES {
        for ((run, &n), best) in runs.iter_mut().zip(&iters).zip(&mut best) {
            let started = Instant::now();
            for _ in 0..n {
                run();
            }
            *best = best.min(started.elapsed().as_secs_f64() / n as f64);
        }
    }
    best
}

/// The host's no-FMA ceiling in GFLOP/s: the register-only loop of
/// [`simd::mul_add_peak_flops`], timed like a kernel (fastest of
/// [`PASSES`] passes). `None` without AVX-512.
fn measure_peak_gflops(budget: f64, min_secs: f64) -> Option<f64> {
    const ITERS_PER_CALL: usize = 4096;
    let flops_per_call = simd::mul_add_peak_flops(ITERS_PER_CALL)?;
    let mut run = || {
        simd::mul_add_peak_flops(ITERS_PER_CALL);
    };
    let timings = time_passes(&mut [&mut run], &[budget / flops_per_call], min_secs);
    Some(flops_per_call / timings[0] / 1e9)
}

fn main() -> ExitCode {
    helcfl_bench::exit_code("bench_kernels", run())
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args()?;
    let budget = if args.smoke { FLOP_BUDGET / 16.0 } else { FLOP_BUDGET };
    let min_secs = if args.smoke { MIN_BENCH_SECS / 16.0 } else { MIN_BENCH_SECS };
    let mut rng = Rng::seed_from_u64(args.seed);

    // Engine shapes: shard batch 200 (20 000 samples / 100 devices),
    // model [64, 64, 10], eval chunk 256 rows. Left operands come in
    // pools of `args.operands`; weights and the right operands of the
    // transposed products stay fixed, as they do within a round.
    let n_ops = args.operands;
    let xs = operands(n_ops, &mut rng, random_matrix, 200, 64); // dense input batches
    let acts = operands(n_ops, &mut rng, sparse_matrix, 200, 64); // post-ReLU activations
    let dzs = operands(n_ops, &mut rng, random_matrix, 200, 10); // head gradients
    let chunks = operands(n_ops, &mut rng, random_matrix, 256, 64); // eval chunks
    let chunk_acts = operands(n_ops, &mut rng, sparse_matrix, 256, 64); // eval activations
    let sqs = operands(n_ops, &mut rng, random_matrix, 256, 256);
    let x = random_matrix(200, 64, &mut rng);
    let dz = random_matrix(200, 10, &mut rng);
    let w1 = random_matrix(64, 64, &mut rng); // hidden weights
    let w2 = random_matrix(64, 10, &mut rng); // head weights
    let b1: Vec<f32> = (0..64).map(|_| rng.uniform_f32(-0.5, 0.5)).collect();
    let b2: Vec<f32> = (0..10).map(|_| rng.uniform_f32(-0.5, 0.5)).collect();
    let sq_b = random_matrix(256, 256, &mut rng);
    // `noniid-faults` minibatches: 20 rows.
    let mini_acts = operands(n_ops, &mut rng, sparse_matrix, 20, 64);
    let mini_x = random_matrix(20, 64, &mut rng);
    let mini_dz = random_matrix(20, 10, &mut rng);

    // Each closure owns its output buffer (the `*_into` kernels resize
    // it on first use, then reuse it allocation-free) and its operand
    // cursor, and captures the operands by shared reference.
    let mk_out = || Matrix::zeros(1, 1).expect("zeros");
    let (x, dz, w1, w2, sq_b, b1, b2) = (&x, &dz, &w1, &w2, &sq_b, &b1, &b2);
    let (mini_x, mini_dz) = (&mini_x, &mini_dz);
    let mut benches: Vec<Bench<'_>> = vec![
        gemm("matmul 200x64x64", 200, 64, 64, {
            let (mut out, mut lhs) = (mk_out(), cycle(&xs));
            move || lhs().matmul_into(w1, &mut out).expect("matmul")
        }),
        gemm("matmul_bias_relu 200x64x64", 200, 64, 64, {
            let (mut out, mut lhs) = (mk_out(), cycle(&xs));
            move || lhs().matmul_bias_relu_into(w1, b1, &mut out).expect("fused")
        }),
        gemm("matmul_bias 200x64x10", 200, 64, 10, {
            let (mut out, mut lhs) = (mk_out(), cycle(&acts));
            move || lhs().matmul_bias_into(w2, b2, &mut out).expect("fused")
        }),
        gemm("matmul_tn 64x200x64", 64, 200, 64, {
            let (mut out, mut lhs) = (mk_out(), cycle(&acts));
            move || lhs().matmul_tn_into(x, &mut out).expect("tn")
        }),
        gemm("matmul_tn 64x200x10", 64, 200, 10, {
            let (mut out, mut lhs) = (mk_out(), cycle(&acts));
            move || lhs().matmul_tn_into(dz, &mut out).expect("tn")
        }),
        gemm("matmul_nt 200x10x64", 200, 10, 64, {
            let (mut out, mut lhs) = (mk_out(), cycle(&dzs));
            move || lhs().matmul_nt_into(w2, &mut out).expect("nt")
        }),
        gemm("matmul_bias_relu 256x64x64", 256, 64, 64, {
            let (mut out, mut lhs) = (mk_out(), cycle(&chunks));
            move || lhs().matmul_bias_relu_into(w1, b1, &mut out).expect("fused")
        }),
        gemm("matmul_bias 256x64x10", 256, 64, 10, {
            let (mut out, mut lhs) = (mk_out(), cycle(&chunk_acts));
            move || lhs().matmul_bias_into(w2, b2, &mut out).expect("fused")
        }),
        gemm("matmul_bias 20x64x10", 20, 64, 10, {
            let (mut out, mut lhs) = (mk_out(), cycle(&mini_acts));
            move || lhs().matmul_bias_into(w2, b2, &mut out).expect("fused")
        }),
        gemm("matmul_tn 64x20x64", 64, 20, 64, {
            let (mut out, mut lhs) = (mk_out(), cycle(&mini_acts));
            move || lhs().matmul_tn_into(mini_x, &mut out).expect("tn")
        }),
        gemm("matmul_tn 64x20x10", 64, 20, 10, {
            let (mut out, mut lhs) = (mk_out(), cycle(&mini_acts));
            move || lhs().matmul_tn_into(mini_dz, &mut out).expect("tn")
        }),
        gemm("matmul 256x256x256", 256, 256, 256, {
            let (mut out, mut lhs) = (mk_out(), cycle(&sqs));
            move || lhs().matmul_into(sq_b, &mut out).expect("matmul")
        }),
        // One op per element (a compare and select), so the rate is in
        // the same GFLOP/s unit the gate reads.
        Bench {
            name: "relu_backward 200x64",
            flops: 200.0 * 64.0,
            run: {
                let (mut grad, mut z) = (random_matrix(200, 64, &mut rng), cycle(&acts));
                Box::new(move || relu_backward_inplace(&mut grad, z()))
            },
        },
    ];

    println!(
        "Kernel bench — paper MLP shapes, {} FLOP budget/kernel, {} left operand(s) each{}",
        budget,
        n_ops,
        if args.smoke { " (smoke)" } else { "" }
    );
    let budget_iters: Vec<f64> = benches.iter().map(|b| budget / b.flops).collect();
    let mut runs: Vec<&mut (dyn FnMut() + '_)> =
        benches.iter_mut().map(|b| &mut *b.run as &mut (dyn FnMut() + '_)).collect();
    let timings = time_passes(&mut runs, &budget_iters, min_secs);
    let peak_gflops = measure_peak_gflops(budget, min_secs);
    match peak_gflops {
        Some(p) => println!("  {:<28} {p:7.2} GFLOP/s (no-FMA mul + add ceiling)", "peak"),
        None => println!("  peak: no AVX-512 on this host, no ceiling measured"),
    }
    let mut records = Vec::new();
    for (b, secs) in benches.iter().zip(timings) {
        let gflops = b.flops / secs / 1e9;
        let pct = peak_gflops
            .map_or(String::new(), |p| format!(", {:.0}% of peak", gflops / p * 100.0));
        println!("  {:<28} {gflops:7.2} GFLOP/s ({:.1} µs/iter{pct})", b.name, secs * 1e6);
        records.push(
            Record {
                metric: format!("{}.gflops", b.name),
                unit: "GFLOP/s".into(),
                better: Better::Higher,
                bound: GFLOPS_BOUND,
                value: gflops,
            }
            .to_json(),
        );
    }

    let mut host = JsonObject::new();
    host.field(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0usize, std::num::NonZeroUsize::get),
    );

    let mut report = JsonObject::new();
    report
        .field("bench", "kernels")
        .field("smoke", args.smoke)
        .field("seed", args.seed)
        .field("operands", n_ops)
        .object("host", host);
    if let Some(p) = peak_gflops {
        report.field("peak_gflops", p);
    }
    report.field("records", records);

    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_kernels.json");
    std::fs::write(&path, report.finish() + "\n")?;
    println!("  report written to {}", path.display());
    Ok(())
}

//! Training-kernel microbenchmarks at the paper's MLP shapes.
//!
//! Times each tinynn matmul kernel — plain, fused bias, fused
//! bias+ReLU, transposed-left (`tn`), transposed-right (`nt`) — on the
//! exact shapes one local update of the §VII-A scenario runs them at
//! (shard batch 200, model `[64, 64, 10]`, eval chunk 256), plus one
//! square reference size for cross-report comparability with
//! `bench_round_engine`. GFLOP/s counts `2·m·k·n` per product; the
//! fused epilogues add a few percent more real work, so their reported
//! rate is slightly conservative.
//!
//! Every kernel cycles through [`FRESH_OPERANDS`] distinct left
//! operands, as the engine does (each client and each evaluation chunk
//! brings new activations). Timing one repeated operand lets the
//! branch predictor learn its zero pattern and hides any data-dependent
//! branch in the kernel. Each rate is the fastest of [`PASSES`] timed
//! passes, interleaved across kernels.
//!
//! Results go to stdout and `results/BENCH_kernels.json`
//! (`helcfl-trace gate` diffs two such reports on per-kernel GFLOP/s).
//!
//! Usage: `bench_kernels [--smoke] [--seed N] [--operands N]`
//!
//! `--smoke` cuts the per-kernel FLOP budget ~16× for CI: rates get
//! noisier but stay within the loose default gate tolerance.
//! `--operands 1` times one repeated operand per kernel instead.

use std::path::Path;
use std::time::Instant;

use detrand::Rng;
use helcfl_bench::json::JsonObject;
use tinynn::batch::{CohortArena, CohortJob};
use tinynn::model::{Mlp, TrainScratch};
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

/// Timed passes per kernel. The passes of all kernels interleave and
/// each kernel reports its fastest pass, so a slow phase of a shared
/// host must cover every pass of a kernel to move its figure.
const PASSES: usize = 5;

/// Clients per grouped dispatch in the cohort section — one pool
/// worker's share of a 64-client round on an 8-way host.
const COHORT_CLIENTS: usize = 8;

struct Args {
    smoke: bool,
    seed: u64,
    operands: usize,
}

fn parse_args() -> Args {
    let usage = || -> ! {
        eprintln!("usage: bench_kernels [--smoke] [--seed N] [--operands N]");
        std::process::exit(2);
    };
    let mut args = Args { smoke: false, seed: 2022, operands: FRESH_OPERANDS };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--seed" => {
                let v = it.next().expect("--seed requires a value");
                args.seed = v.parse().expect("--seed must be an integer");
            }
            "--operands" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => args.operands = n,
                _ => usage(),
            },
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    args
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

/// One benchmarked kernel invocation: `(m, k, n)` are the product
/// dimensions used for the `2·m·k·n` FLOP count.
struct Bench<'a> {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    run: Box<dyn FnMut() + 'a>,
}

impl Bench<'_> {
    fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }
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
/// closures interleaved, and returns per closure `(iters, seconds per
/// iteration in its fastest pass)`. `budget_iters[i]` and `min_secs`
/// size all passes of closure `i` together.
fn time_passes(
    runs: &mut [&mut (dyn FnMut() + '_)],
    budget_iters: &[f64],
    min_secs: f64,
) -> Vec<(usize, f64)> {
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
    iters.iter().map(|n| n * PASSES).zip(best).collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();
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

    // Each closure owns its output buffer (the `*_into` kernels resize
    // it on first use, then reuse it allocation-free) and its operand
    // cursor, and captures the operands by shared reference.
    let mk_out = || Matrix::zeros(1, 1).expect("zeros");
    let (x, dz, w1, w2, sq_b, b1, b2) = (&x, &dz, &w1, &w2, &sq_b, &b1, &b2);
    let mut benches: Vec<Bench<'_>> = vec![
        Bench {
            name: "matmul 200x64x64",
            m: 200,
            k: 64,
            n: 64,
            run: {
                let (mut out, mut lhs) = (mk_out(), cycle(&xs));
                Box::new(move || lhs().matmul_into(w1, &mut out).expect("matmul"))
            },
        },
        Bench {
            name: "matmul_bias_relu 200x64x64",
            m: 200,
            k: 64,
            n: 64,
            run: {
                let (mut out, mut lhs) = (mk_out(), cycle(&xs));
                Box::new(move || lhs().matmul_bias_relu_into(w1, b1, &mut out).expect("fused"))
            },
        },
        Bench {
            name: "matmul_bias 200x64x10",
            m: 200,
            k: 64,
            n: 10,
            run: {
                let (mut out, mut lhs) = (mk_out(), cycle(&acts));
                Box::new(move || lhs().matmul_bias_into(w2, b2, &mut out).expect("fused"))
            },
        },
        Bench {
            name: "matmul_tn 64x200x64",
            m: 64,
            k: 200,
            n: 64,
            run: {
                let (mut out, mut lhs) = (mk_out(), cycle(&acts));
                Box::new(move || lhs().matmul_tn_into(x, &mut out).expect("tn"))
            },
        },
        Bench {
            name: "matmul_tn 64x200x10",
            m: 64,
            k: 200,
            n: 10,
            run: {
                let (mut out, mut lhs) = (mk_out(), cycle(&acts));
                Box::new(move || lhs().matmul_tn_into(dz, &mut out).expect("tn"))
            },
        },
        Bench {
            name: "matmul_nt 200x10x64",
            m: 200,
            k: 10,
            n: 64,
            run: {
                let (mut out, mut lhs) = (mk_out(), cycle(&dzs));
                Box::new(move || lhs().matmul_nt_into(w2, &mut out).expect("nt"))
            },
        },
        Bench {
            name: "matmul_bias_relu 256x64x64",
            m: 256,
            k: 64,
            n: 64,
            run: {
                let (mut out, mut lhs) = (mk_out(), cycle(&chunks));
                Box::new(move || lhs().matmul_bias_relu_into(w1, b1, &mut out).expect("fused"))
            },
        },
        Bench {
            name: "matmul_bias 256x64x10",
            m: 256,
            k: 64,
            n: 10,
            run: {
                let (mut out, mut lhs) = (mk_out(), cycle(&chunk_acts));
                Box::new(move || lhs().matmul_bias_into(w2, b2, &mut out).expect("fused"))
            },
        },
        Bench {
            name: "matmul 256x256x256",
            m: 256,
            k: 256,
            n: 256,
            run: {
                let (mut out, mut lhs) = (mk_out(), cycle(&sqs));
                Box::new(move || lhs().matmul_into(sq_b, &mut out).expect("matmul"))
            },
        },
    ];

    println!(
        "Kernel bench — paper MLP shapes, {} FLOP budget/kernel, {} left operand(s) each{}",
        budget,
        n_ops,
        if args.smoke { " (smoke)" } else { "" }
    );
    let budget_iters: Vec<f64> = benches.iter().map(|b| budget / b.flops()).collect();
    let mut runs: Vec<&mut (dyn FnMut() + '_)> =
        benches.iter_mut().map(|b| &mut *b.run as &mut (dyn FnMut() + '_)).collect();
    let timings = time_passes(&mut runs, &budget_iters, min_secs);
    let mut kernels = Vec::new();
    for (b, (iters, secs)) in benches.iter().zip(timings) {
        let gflops = b.flops() / secs / 1e9;
        println!("  {:<28} {gflops:7.2} GFLOP/s ({:.1} µs/iter)", b.name, secs * 1e6);
        let mut k = JsonObject::new();
        k.field("name", b.name)
            .field("m", b.m)
            .field("k", b.k)
            .field("n", b.n)
            .field("iters", iters)
            .field("secs_per_iter", secs)
            .field("gflops", gflops);
        kernels.push(k);
    }

    // Cohort batching: one pool worker's stride of a full-batch round —
    // K identical-architecture clients trained solo (per-client
    // dispatch) vs through one grouped `CohortArena` call. Both paths
    // produce bit-identical parameters (pinned in tinynn's and
    // fl-sim's tests); the delta is pure dispatch/packing amortization.
    let dims = [64usize, 64, 10];
    let client_data: Vec<(Matrix, Vec<usize>)> = (0..COHORT_CLIENTS)
        .map(|_| {
            let features = random_matrix(200, 64, &mut rng);
            let labels: Vec<usize> =
                (0..200).map(|_| rng.below(10)).collect();
            (features, labels)
        })
        .collect();
    let global = Mlp::new(&dims, 7).expect("mlp").parameters();
    let mut solo_model = Mlp::new(&dims, 0).expect("mlp");
    let mut solo_scratch = TrainScratch::for_model(&solo_model).expect("scratch");
    let mut solo = || {
        for (features, labels) in &client_data {
            solo_model.set_parameters(&global).expect("params");
            solo_model
                .train_step_with(features, labels, 0.05, &mut solo_scratch)
                .expect("step");
            // The engine's solo path uploads each client's updated
            // parameters; charge the same flat-vector extraction here.
            std::hint::black_box(solo_model.parameters());
        }
    };
    let mut arena = CohortArena::new(&dims).expect("arena");
    let jobs: Vec<CohortJob<'_>> = client_data
        .iter()
        .map(|(features, labels)| CohortJob { features, labels })
        .collect();
    let mut cohort = || {
        std::hint::black_box(arena.train(&jobs, &global, 0.05, 1).expect("cohort"));
    };
    // Calibrate on time alone (budget 0): one iteration is K full
    // local steps, far more work than a single kernel call.
    let timings = time_passes(&mut [&mut solo, &mut cohort], &[0.0, 0.0], min_secs);
    let [(solo_iters, solo_secs), (cohort_iters, cohort_secs)] = timings[..] else {
        unreachable!("two closures timed")
    };
    let solo_us = solo_secs * 1e6 / COHORT_CLIENTS as f64;
    let cohort_us = cohort_secs * 1e6 / COHORT_CLIENTS as f64;
    println!(
        "  cohort x{COHORT_CLIENTS} [64,64,10]:      solo {solo_us:7.1} µs/client, \
         grouped {cohort_us:7.1} µs/client ({:.2}x)",
        solo_us / cohort_us
    );
    let mut cohort_section = JsonObject::new();
    cohort_section
        .field("clients", COHORT_CLIENTS)
        .field("batch_rows", 200usize)
        .field("solo_iters", solo_iters)
        .field("cohort_iters", cohort_iters)
        .field("solo_us_per_client", solo_us)
        .field("cohort_us_per_client", cohort_us)
        .field("speedup", solo_us / cohort_us);

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
        .object("host", host)
        .field("kernels", kernels)
        .object("cohort", cohort_section);

    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_kernels.json");
    std::fs::write(&path, report.finish() + "\n")?;
    println!("  report written to {}", path.display());
    Ok(())
}

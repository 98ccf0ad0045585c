//! Bit-exactness properties of the register-blocked matmul kernels.
//!
//! The blocked kernels ([`Matrix::matmul_into`] and friends) promise a
//! specific accumulation contract: **one accumulator per output
//! element, summed over `k` in ascending order** — column blocking and
//! the `lhs == 0.0` skip change instruction scheduling, never the
//! arithmetic. That makes the reference implementation trivial: a
//! naive triple loop with a single `f32` accumulator must match the
//! optimized kernels *bit for bit* on every finite input, not merely
//! within a tolerance.
//!
//! Seeded deterministic case loops (no external property-test crate),
//! with the case index in every assertion message. Shapes deliberately
//! straddle the kernels' blocking boundaries (`WIDE = 32` column
//! blocks, the runtime-width tail, `matmul_nt`'s 8-column unroll) and
//! include degenerate 1×N / N×1 / k=1 forms; sparse inputs exercise
//! the zero-skip path, which must be a pure no-op on the result.

use detrand::Rng;
use tinynn::simd::{available_paths, force_path_for_tests, SimdPath};
use tinynn::tensor::{Matrix, NtPanel};

const CASES: usize = 200;

/// Cases per SIMD path in the cross-path suites (every case runs on
/// every path the host supports, so the totals multiply).
const PATH_CASES: usize = 60;

/// Forces `path` for the calling thread and restores normal dispatch
/// on drop (also on panic, so a failing case cannot poison dispatch
/// for tests that share the thread).
struct PathGuard;

impl PathGuard {
    fn force(path: SimdPath) -> Self {
        force_path_for_tests(Some(path));
        PathGuard
    }
}

impl Drop for PathGuard {
    fn drop(&mut self) {
        force_path_for_tests(None);
    }
}

fn gen_matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.uniform_f32(-4.0, 4.0)).collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

/// A matrix with roughly `sparsity` of its entries exactly `0.0` —
/// the shape of a post-ReLU activation, the input the zero-skip path
/// is built for.
fn gen_sparse(rng: &mut Rng, rows: usize, cols: usize, sparsity: f32) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            if rng.uniform_f32(0.0, 1.0) < sparsity {
                0.0
            } else {
                rng.uniform_f32(-4.0, 4.0)
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

/// Shape triple for one case: dimensions hug the blocking boundaries
/// (1, WIDE−1=31, WIDE=32, WIDE+1=33, NT_BLOCK=8 multiples, …) as well
/// as arbitrary sizes.
fn gen_shape(rng: &mut Rng) -> (usize, usize, usize) {
    const EDGES: [usize; 9] = [1, 2, 7, 8, 9, 31, 32, 33, 40];
    let dim = |rng: &mut Rng| {
        if rng.below(2) == 0 {
            EDGES[rng.below(EDGES.len())]
        } else {
            rng.range_usize(1, 70)
        }
    };
    (dim(rng), dim(rng), dim(rng))
}

/// `lhs · rhs` by the contract's definition: single accumulator,
/// ascending `k`.
fn naive_matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    let (m, kk) = lhs.shape();
    let n = rhs.cols();
    let mut out = Matrix::zeros(m, n).unwrap();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..kk {
                acc += lhs.at(i, k) * rhs.at(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// `lhsᵀ · rhs`, same contract (ascending `k` = lhs/rhs row index).
fn naive_matmul_tn(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    let (kk, m) = lhs.shape();
    let n = rhs.cols();
    let mut out = Matrix::zeros(m, n).unwrap();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..kk {
                acc += lhs.at(k, i) * rhs.at(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// `lhs · rhsᵀ`, same contract.
fn naive_matmul_nt(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    let (m, kk) = lhs.shape();
    let n = rhs.rows();
    let mut out = Matrix::zeros(m, n).unwrap();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..kk {
                acc += lhs.at(i, k) * rhs.at(j, k);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// The fused epilogue: add bias after the full reduction, then clamp
/// negatives if `relu` — exactly one rounding step per operation.
fn naive_bias_epilogue(out: &mut Matrix, bias: &[f32], relu: bool) {
    for i in 0..out.rows() {
        for (j, &b) in bias.iter().enumerate() {
            let v = out.at(i, j) + b;
            out.set(i, j, if relu && v < 0.0 { 0.0 } else { v });
        }
    }
}

/// Asserts exact IEEE-754 bit equality, element by element.
fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str, case: usize) {
    assert_eq!(got.shape(), want.shape(), "case {case}: {what} shape");
    for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "case {case}: {what} differs at flat index {idx}: {g} vs {w}"
        );
    }
}

#[test]
fn matmul_is_bit_identical_to_naive_triple_loop() {
    let mut rng = Rng::seed_from_u64(0x4e4e_0011);
    let mut out = Matrix::zeros(1, 1).unwrap();
    for case in 0..CASES {
        let (m, k, n) = gen_shape(&mut rng);
        // Alternate dense and ReLU-sparse lhs: the zero-skip path must
        // be invisible in the bits.
        let a = if case % 2 == 0 {
            gen_matrix(&mut rng, m, k)
        } else {
            gen_sparse(&mut rng, m, k, 0.5)
        };
        let b = gen_matrix(&mut rng, k, n);
        a.matmul_into(&b, &mut out).unwrap();
        assert_bits_eq(&out, &naive_matmul(&a, &b), "matmul", case);
    }
}

#[test]
fn matmul_tn_is_bit_identical_to_naive_triple_loop() {
    let mut rng = Rng::seed_from_u64(0x4e4e_0012);
    let mut out = Matrix::zeros(1, 1).unwrap();
    for case in 0..CASES {
        let (m, k, n) = gen_shape(&mut rng);
        let a = if case % 2 == 0 {
            gen_matrix(&mut rng, k, m)
        } else {
            gen_sparse(&mut rng, k, m, 0.5)
        };
        let b = gen_matrix(&mut rng, k, n);
        a.matmul_tn_into(&b, &mut out).unwrap();
        assert_bits_eq(&out, &naive_matmul_tn(&a, &b), "matmul_tn", case);
    }
}

#[test]
fn matmul_nt_is_bit_identical_to_naive_triple_loop() {
    let mut rng = Rng::seed_from_u64(0x4e4e_0013);
    let mut out = Matrix::zeros(1, 1).unwrap();
    for case in 0..CASES {
        let (m, k, n) = gen_shape(&mut rng);
        let a = gen_matrix(&mut rng, m, k);
        let b = gen_matrix(&mut rng, n, k);
        a.matmul_nt_into(&b, &mut out).unwrap();
        assert_bits_eq(&out, &naive_matmul_nt(&a, &b), "matmul_nt", case);
    }
}

#[test]
fn fused_bias_and_relu_are_bit_identical_to_naive() {
    let mut rng = Rng::seed_from_u64(0x4e4e_0014);
    let mut out = Matrix::zeros(1, 1).unwrap();
    for case in 0..CASES {
        let (m, k, n) = gen_shape(&mut rng);
        let a = if case % 2 == 0 {
            gen_matrix(&mut rng, m, k)
        } else {
            gen_sparse(&mut rng, m, k, 0.5)
        };
        let b = gen_matrix(&mut rng, k, n);
        let bias: Vec<f32> = (0..n).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();

        let mut want = naive_matmul(&a, &b);
        naive_bias_epilogue(&mut want, &bias, false);
        a.matmul_bias_into(&b, &bias, &mut out).unwrap();
        assert_bits_eq(&out, &want, "matmul_bias", case);

        let mut want_relu = naive_matmul(&a, &b);
        naive_bias_epilogue(&mut want_relu, &bias, true);
        a.matmul_bias_relu_into(&b, &bias, &mut out).unwrap();
        assert_bits_eq(&out, &want_relu, "matmul_bias_relu", case);
        // The ReLU epilogue never lets a negative through and agrees
        // with clamping the non-fused result.
        assert!(
            out.as_slice().iter().all(|&v| v >= 0.0),
            "case {case}: fused ReLU produced a negative"
        );
    }
}

#[test]
fn degenerate_shapes_are_exact_too() {
    // 1×N, N×1, and k=1 hit every remainder path with no full block.
    let mut rng = Rng::seed_from_u64(0x4e4e_0015);
    for (case, &(m, k, n)) in
        [(1, 1, 1), (1, 64, 33), (5, 1, 32), (1, 1, 40), (3, 200, 1), (1, 7, 8)]
            .iter()
            .enumerate()
    {
        let a = gen_sparse(&mut rng, m, k, 0.5);
        let b = gen_matrix(&mut rng, k, n);
        let mut out = Matrix::zeros(1, 1).unwrap();
        a.matmul_into(&b, &mut out).unwrap();
        assert_bits_eq(&out, &naive_matmul(&a, &b), "matmul (degenerate)", case);
        let bt = gen_matrix(&mut rng, n, k);
        a.matmul_nt_into(&bt, &mut out).unwrap();
        assert_bits_eq(&out, &naive_matmul_nt(&a, &bt), "matmul_nt (degenerate)", case);
    }
}

/// Every kernel path the host supports — scalar, portable 8-wide, and
/// whatever vector ISAs are detected — must produce the oracle's bits
/// on the full shape distribution. Each path matching the same oracle
/// also pins scalar-vs-SIMD bit-identity directly.
#[test]
fn every_simd_path_is_bit_identical_to_the_oracle() {
    let paths = available_paths();
    for case in 0..PATH_CASES {
        // Same seed stream per case regardless of path count, so a
        // failure reproduces identically on any host.
        let mut rng = Rng::seed_from_u64(0x4e4e_0021 ^ case as u64);
        let (m, k, n) = gen_shape(&mut rng);
        let a = if case % 2 == 0 {
            gen_matrix(&mut rng, m, k)
        } else {
            gen_sparse(&mut rng, m, k, 0.5)
        };
        let b = gen_matrix(&mut rng, k, n);
        let bt = gen_matrix(&mut rng, n, k);
        let at = gen_sparse(&mut rng, k, m, 0.5);
        let bias: Vec<f32> = (0..n).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();

        let want_nn = naive_matmul(&a, &b);
        let mut want_bias = want_nn.clone();
        naive_bias_epilogue(&mut want_bias, &bias, false);
        let mut want_relu = want_nn.clone();
        naive_bias_epilogue(&mut want_relu, &bias, true);
        let want_tn = naive_matmul_tn(&at, &b);
        let want_nt = naive_matmul_nt(&a, &bt);

        let mut out = Matrix::zeros(1, 1).unwrap();
        for &path in &paths {
            let _guard = PathGuard::force(path);
            let what = |kernel: &str| format!("{kernel}[{}]", path.name());
            a.matmul_into(&b, &mut out).unwrap();
            assert_bits_eq(&out, &want_nn, &what("matmul"), case);
            a.matmul_bias_into(&b, &bias, &mut out).unwrap();
            assert_bits_eq(&out, &want_bias, &what("matmul_bias"), case);
            a.matmul_bias_relu_into(&b, &bias, &mut out).unwrap();
            assert_bits_eq(&out, &want_relu, &what("matmul_bias_relu"), case);
            at.matmul_tn_into(&b, &mut out).unwrap();
            assert_bits_eq(&out, &want_tn, &what("matmul_tn"), case);
            a.matmul_nt_into(&bt, &mut out).unwrap();
            assert_bits_eq(&out, &want_nt, &what("matmul_nt"), case);
        }
    }
}

/// The packed-transpose `matmul_nt` form must match both the oracle
/// and the direct kernel on every path — this is the equivalence the
/// cohort arena's shared weight panel rides on.
#[test]
fn packed_nt_is_bit_identical_to_direct_nt_on_every_path() {
    let paths = available_paths();
    for case in 0..PATH_CASES {
        let mut rng = Rng::seed_from_u64(0x4e4e_0022 ^ case as u64);
        let (m, k, n) = gen_shape(&mut rng);
        let a = gen_matrix(&mut rng, m, k);
        let bt = gen_matrix(&mut rng, n, k);
        let want = naive_matmul_nt(&a, &bt);
        let mut panel = NtPanel::new();
        panel.pack(&bt);
        let mut direct = Matrix::zeros(1, 1).unwrap();
        let mut packed = Matrix::zeros(1, 1).unwrap();
        for &path in &paths {
            let _guard = PathGuard::force(path);
            let what = format!("matmul_nt_packed[{}]", path.name());
            a.matmul_nt_into(&bt, &mut direct).unwrap();
            a.matmul_nt_packed_into(&panel, &mut packed).unwrap();
            assert_bits_eq(&packed, &want, &what, case);
            assert_bits_eq(&packed, &direct, &what, case);
        }
    }
}

/// The paper-shape laggards the SIMD work targets (narrow n=10 logit
/// shapes, the transposed-left gradient shapes, the NT backward shape)
/// pinned explicitly on every path with ReLU-sparse activations —
/// exactly the value profile `bench_kernels` measures.
#[test]
fn paper_laggard_shapes_are_exact_on_every_path() {
    let mut rng = Rng::seed_from_u64(0x4e4e_0023);
    let x = gen_matrix(&mut rng, 200, 64);
    let act = gen_sparse(&mut rng, 200, 64, 0.5);
    let w2 = gen_matrix(&mut rng, 64, 10);
    let b2: Vec<f32> = (0..10).map(|_| rng.uniform_f32(-0.5, 0.5)).collect();
    let dz = gen_matrix(&mut rng, 200, 10);

    // matmul_bias 200x64x10 (logits), matmul_tn 64x200x64 and
    // 64x200x10 (weight grads), matmul_nt 200x10x64 (input grads).
    let mut want_logits = naive_matmul(&act, &w2);
    naive_bias_epilogue(&mut want_logits, &b2, false);
    let want_tn_wide = naive_matmul_tn(&act, &x);
    let want_tn_narrow = naive_matmul_tn(&act, &dz);
    let want_nt = naive_matmul_nt(&dz, &w2);

    let mut out = Matrix::zeros(1, 1).unwrap();
    for (case, &path) in available_paths().iter().enumerate() {
        let _guard = PathGuard::force(path);
        let what = |kernel: &str| format!("{kernel}[{}]", path.name());
        act.matmul_bias_into(&w2, &b2, &mut out).unwrap();
        assert_bits_eq(&out, &want_logits, &what("matmul_bias 200x64x10"), case);
        act.matmul_tn_into(&x, &mut out).unwrap();
        assert_bits_eq(&out, &want_tn_wide, &what("matmul_tn 64x200x64"), case);
        act.matmul_tn_into(&dz, &mut out).unwrap();
        assert_bits_eq(&out, &want_tn_narrow, &what("matmul_tn 64x200x10"), case);
        dz.matmul_nt_into(&w2, &mut out).unwrap();
        assert_bits_eq(&out, &want_nt, &what("matmul_nt 200x10x64"), case);
    }
}

/// Special values must survive every path identically: the ReLU
/// epilogue's `v < 0.0` passes NaN and `-0.0` through, and the
/// zero-skip only ever skips exact `+0.0`/`-0.0` multiplicands.
#[test]
fn special_values_behave_identically_on_every_path() {
    let a = Matrix::from_rows(&[
        &[1.0, -0.0, f32::NAN, 2.0],
        &[0.0, 0.5, -3.0, f32::INFINITY],
        &[-1.5, 0.0, 4.0, -0.25],
    ])
    .unwrap();
    let b = Matrix::from_rows(&[
        &[0.5, -2.0, 1.0],
        &[f32::NAN, 3.0, -0.0],
        &[1.25, 0.0, -1.0],
        &[-0.75, 2.5, 0.125],
    ])
    .unwrap();
    let bias = [f32::NAN, -0.5, 0.0];
    let mut scalar_plain = Matrix::zeros(1, 1).unwrap();
    let mut scalar_relu = Matrix::zeros(1, 1).unwrap();
    {
        let _guard = PathGuard::force(SimdPath::Scalar);
        a.matmul_into(&b, &mut scalar_plain).unwrap();
        a.matmul_bias_relu_into(&b, &bias, &mut scalar_relu).unwrap();
    }
    let mut out = Matrix::zeros(1, 1).unwrap();
    for (case, &path) in available_paths().iter().enumerate() {
        let _guard = PathGuard::force(path);
        a.matmul_into(&b, &mut out).unwrap();
        assert_bits_eq(&out, &scalar_plain, &format!("special matmul[{}]", path.name()), case);
        a.matmul_bias_relu_into(&b, &bias, &mut out).unwrap();
        assert_bits_eq(&out, &scalar_relu, &format!("special relu[{}]", path.name()), case);
    }
}

/// A left/right operand pair built to tell "skip the addend" apart
/// from "add the product", for a reduction of length `k`.
///
/// Reduction indices `kk % 4 == 1` are *dead*: every left scalar there
/// is `±0.0`, and the matching right row holds `±inf` and NaN, so an
/// addend that is computed and added instead of skipped turns the
/// output into NaN (`0·inf`, `0·NaN`). The other indices mix `+0.0`,
/// `-0.0`, NaN and finite left scalars against finite right rows.
/// Index 0 is `1e-30 × -1e-30`, a product that underflows to `-0.0`,
/// so a zero accumulator meets the skipped zero at index 1. (That
/// accumulator is `+0.0`: every accumulator starts at `+0.0`, and a
/// round-to-nearest sum is `-0.0` only when both addends are, so
/// adding a literal `+0.0` for a skipped addend would go unseen. The
/// products `0·inf` and `0·NaN` are what tell a computed addend from a
/// skipped one.) Row 0 always has a NaN left scalar. `at(kk, t)`
/// places left scalar `kk` of output row `t` in the layout the kernel
/// under test reads.
fn adversarial_pair(
    rng: &mut Rng,
    m: usize,
    k: usize,
    n: usize,
    at: impl Fn(usize, usize) -> usize,
) -> (Vec<f32>, Vec<f32>) {
    const SPECIALS: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let dead = |kk: usize| kk % 4 == 1;
    let mut lhs = vec![0.0f32; m * k];
    let mut rhs = vec![0.0f32; k * n];
    for kk in 0..k {
        for t in 0..m {
            lhs[at(kk, t)] = match (kk, rng.below(8)) {
                (0, _) => 1e-30,
                (2, _) if t == 0 => f32::NAN,
                (kk, r) if dead(kk) => [0.0, -0.0][r % 2],
                (_, 0 | 1) => 0.0,
                (_, 2 | 3) => -0.0,
                (_, 4) if t % 3 == 0 => f32::NAN,
                _ => rng.uniform_f32(-4.0, 4.0),
            };
        }
        for b in &mut rhs[kk * n..(kk + 1) * n] {
            *b = match kk {
                0 => -1e-30,
                kk if dead(kk) && rng.below(2) == 0 => SPECIALS[rng.below(3)],
                _ => rng.uniform_f32(-4.0, 4.0),
            };
        }
    }
    (lhs, rhs)
}

/// The zero-skip is a contract, not an optimization: a skipped addend
/// leaves the accumulator untouched. Shapes reach every skip site of
/// every vector path — `m` covers the 4-row and 8-row blocks and their
/// single-row remainders, `n` the full-vector strips (16 and 64 wide on
/// AVX-512, 8 and 32 on AVX2/portable) and the masked tails — and the
/// values are the ones where adding a computed zero product would
/// differ from skipping it. Every path must match the scalar oracle bit
/// for bit, and no output row without a NaN left scalar may be NaN.
#[test]
fn zero_skip_is_exact_on_adversarial_values_at_every_skip_site() {
    let paths = available_paths();
    let mut rng = Rng::seed_from_u64(0x4e4e_0024);
    let mut case = 0;
    for m in [9, 14] {
        for n in [10, 16, 74] {
            let k = 11;
            let bias: Vec<f32> = (0..n).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();
            let (a, b) = adversarial_pair(&mut rng, m, k, n, |kk, i| i * k + kk);
            let a = Matrix::from_vec(m, k, a).unwrap();
            let b = Matrix::from_vec(k, n, b).unwrap();
            let (at, bt) = adversarial_pair(&mut rng, m, k, n, |kk, i| kk * m + i);
            let at = Matrix::from_vec(k, m, at).unwrap();
            let bt = Matrix::from_vec(k, n, bt).unwrap();
            for name in ["matmul", "matmul_bias", "matmul_bias_relu", "matmul_tn"] {
                let run = |out: &mut Matrix| {
                    match name {
                        "matmul" => a.matmul_into(&b, out),
                        "matmul_bias" => a.matmul_bias_into(&b, &bias, out),
                        "matmul_bias_relu" => a.matmul_bias_relu_into(&b, &bias, out),
                        _ => at.matmul_tn_into(&bt, out),
                    }
                    .unwrap()
                };
                let nan_row = |i: usize| match name {
                    "matmul_tn" => (0..k).any(|kk| at.at(kk, i).is_nan()),
                    _ => a.row(i).iter().any(|v| v.is_nan()),
                };
                let mut want = Matrix::zeros(1, 1).unwrap();
                {
                    let _guard = PathGuard::force(SimdPath::Scalar);
                    run(&mut want);
                }
                for i in 0..m {
                    if !nan_row(i) {
                        assert!(
                            want.row(i).iter().all(|v| v.is_finite()),
                            "case {case}: {name} {m}x{k}x{n} oracle row {i} is not finite"
                        );
                    }
                }
                let mut got = Matrix::zeros(1, 1).unwrap();
                for &path in &paths {
                    let _guard = PathGuard::force(path);
                    run(&mut got);
                    let what = format!("{name} {m}x{k}x{n} adversarial[{}]", path.name());
                    assert_bits_eq(&got, &want, &what, case);
                }
            }
            case += 1;
        }
    }
}

#[test]
fn zero_dimension_constructors_are_rejected() {
    // "Empty" matrices cannot exist: every constructor refuses a zero
    // dimension, so the kernels never see a 0-extent loop.
    assert!(Matrix::zeros(0, 3).is_err());
    assert!(Matrix::zeros(3, 0).is_err());
    assert!(Matrix::from_vec(0, 0, Vec::new()).is_err());
    assert!(Matrix::from_rows(&[]).is_err());
}

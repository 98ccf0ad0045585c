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
//! blocks, the runtime-width tail, the vector paths' 8- and 16-lane
//! strips) and include degenerate 1×N / N×1 / k=1 forms; sparse inputs
//! exercise the zero-skip path, which must be a pure no-op on the
//! result.

use detrand::Rng;
use tinynn::activation::relu_backward_inplace;
use tinynn::model::{Mlp, TrainScratch};
use tinynn::simd::{available_paths, force_path_for_tests, SimdPath};
use tinynn::tensor::Matrix;

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
/// (1, WIDE−1=31, WIDE=32, WIDE+1=33, 8-lane multiples, …) as well as
/// arbitrary sizes.
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

/// [`assert_bits_eq`], except that any NaN matches any NaN. Where one
/// sum meets NaNs of two bit patterns (a NaN operand and the default
/// NaN of `0·inf`), which one survives depends on the operand order the
/// compiler picks for the commutative add, so a NaN's payload and sign
/// are not part of the kernel contract.
fn assert_bits_eq_but_nan_payload(got: &Matrix, want: &Matrix, what: &str, case: usize) {
    assert_eq!(got.shape(), want.shape(), "case {case}: {what} shape");
    for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
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

/// Every kernel path the host supports — scalar and whatever vector
/// ISAs are detected — must produce the oracle's bits
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

/// The AVX-512 row kernel's blocking boundaries, swept exhaustively:
/// every narrow width `n` (one accumulator per column, 1..16 columns
/// per tile), the 16-column tiles and their tails (17, 26, 64, 74), row
/// counts on both sides of the 16-row block and its leftover-row split
/// (15, 16, 17, 20, 33), and reduction lengths on both sides of the
/// 16-deep in-register transpose (10, 17, 20). NN plain, bias and
/// bias + ReLU and TN run on every path against the naive oracle, with
/// ReLU-sparse left operands so the zero-skip mask is live.
#[test]
fn row_kernel_shapes_are_exact_on_every_path() {
    let ns = (1..=17).chain([26, 64, 74]);
    let paths = available_paths();
    let mut rng = Rng::seed_from_u64(0x4e4e_0025);
    let mut out = Matrix::zeros(1, 1).unwrap();
    let mut case = 0;
    for n in ns {
        for m in [1, 4, 15, 16, 17, 20, 33, 200, 256] {
            for k in [1, 10, 17, 20, 64, 200] {
                let a = gen_sparse(&mut rng, m, k, 0.5);
                let at = gen_sparse(&mut rng, k, m, 0.5);
                let b = gen_matrix(&mut rng, k, n);
                let bias: Vec<f32> = (0..n).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();
                let want_nn = naive_matmul(&a, &b);
                let mut want_bias = want_nn.clone();
                naive_bias_epilogue(&mut want_bias, &bias, false);
                let mut want_relu = want_nn.clone();
                naive_bias_epilogue(&mut want_relu, &bias, true);
                let want_tn = naive_matmul_tn(&at, &b);
                for &path in &paths {
                    let _guard = PathGuard::force(path);
                    let what = |kernel: &str| format!("{kernel} {m}x{k}x{n}[{}]", path.name());
                    a.matmul_into(&b, &mut out).unwrap();
                    assert_bits_eq(&out, &want_nn, &what("matmul"), case);
                    a.matmul_bias_into(&b, &bias, &mut out).unwrap();
                    assert_bits_eq(&out, &want_bias, &what("matmul_bias"), case);
                    a.matmul_bias_relu_into(&b, &bias, &mut out).unwrap();
                    assert_bits_eq(&out, &want_relu, &what("matmul_bias_relu"), case);
                    at.matmul_tn_into(&b, &mut out).unwrap();
                    assert_bits_eq(&out, &want_tn, &what("matmul_tn"), case);
                }
                case += 1;
            }
        }
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
/// every vector path. `m` covers the 4-row and 8-row blocks and their
/// single-row remainders, and both sides of the AVX-512 row kernel's
/// 16-row block: 15 rows are all left over, 17 and 20 split into one
/// block plus leftovers. `n` covers every narrow width (the row kernel
/// keeps one accumulator per column), the full-vector strips (16 and 64
/// wide on AVX-512, 8 and 32 on AVX2) and the masked tails.
/// `k` lies inside one 16-deep transpose block or straddles two. The
/// values are the ones where adding a computed zero product would
/// differ from skipping it. Every path must match the scalar oracle bit
/// for bit, and no output row without a NaN left scalar may be NaN.
#[test]
fn zero_skip_is_exact_on_adversarial_values_at_every_skip_site() {
    let paths = available_paths();
    let mut rng = Rng::seed_from_u64(0x4e4e_0024);
    let mut case = 0;
    let widths = || (1..=16).chain([74]);
    let shapes = [9, 14, 15, 17, 20].into_iter().flat_map(|m| widths().map(move |n| (m, n)));
    for (m, n) in shapes {
        for k in [11, 20] {
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

/// `matmul_nt` has the opposite contract to NN and TN: its left operand
/// is a gradient, not a ReLU activation, so it skips nothing. On the
/// [`adversarial_pair`] values every dead reduction index (a `±0.0`
/// left scalar against a right `±inf` or NaN) computes `0·inf` or
/// `0·NaN` and adds it, so the output element is NaN exactly where the
/// naive no-skip oracle has one. The shapes are the zero-skip suite's:
/// `matmul_nt` packs `rhsᵀ` and runs the no-skip NN kernel of every
/// path over the same strips, tails and row blocks, so a skipping
/// kernel in that route fails here on every path.
#[test]
fn matmul_nt_computes_every_addend_on_adversarial_values() {
    let paths = available_paths();
    let mut rng = Rng::seed_from_u64(0x4e4e_0026);
    let mut case = 0;
    let mut poisoned = 0;
    let widths = || (1..=16).chain([74]);
    let shapes = [9, 14, 15, 17, 20].into_iter().flat_map(|m| widths().map(move |n| (m, n)));
    for (m, n) in shapes {
        for k in [11, 20] {
            let (a, b) = adversarial_pair(&mut rng, m, k, n, |kk, i| i * k + kk);
            // `b` is k×n; `matmul_nt` takes its right operand as n×k.
            let bt: Vec<f32> = (0..n * k).map(|idx| b[(idx % k) * n + idx / k]).collect();
            let a = Matrix::from_vec(m, k, a).unwrap();
            let bt = Matrix::from_vec(n, k, bt).unwrap();
            let want = naive_matmul_nt(&a, &bt);
            for i in 0..m {
                let nan_row = a.row(i).iter().any(|v| v.is_nan());
                for j in 0..n {
                    let zero_times_special =
                        (0..k).any(|kk| a.at(i, kk) == 0.0 && !bt.at(j, kk).is_finite());
                    assert_eq!(
                        want.at(i, j).is_nan(),
                        nan_row || zero_times_special,
                        "case {case}: matmul_nt {m}x{k}x{n} oracle element ({i}, {j})"
                    );
                    poisoned += usize::from(zero_times_special && !nan_row);
                }
            }
            let mut got = Matrix::zeros(1, 1).unwrap();
            for &path in &paths {
                let _guard = PathGuard::force(path);
                a.matmul_nt_into(&bt, &mut got).unwrap();
                let what = format!("matmul_nt {m}x{k}x{n} adversarial[{}]", path.name());
                assert_bits_eq_but_nan_payload(&got, &want, &what, case);
            }
            case += 1;
        }
    }
    assert!(poisoned > 0, "no element depends on a computed 0·inf or 0·NaN addend");
}

/// The branchy ReLU mask that `relu_backward_inplace` replaced, kept as
/// its oracle: zero the gradient wherever the pre-activation is `<= 0`.
fn relu_backward_branchy(grad: &mut [f32], z: &[f32]) {
    for (g, &zv) in grad.iter_mut().zip(z) {
        if zv <= 0.0 {
            *g = 0.0;
        }
    }
}

/// The branch-free ReLU mask matches the branchy form bit for bit on
/// every pairing of special values: NaN (kept, as `NaN <= 0` is false),
/// both zeros (masked), subnormals, infinities and ±1. The 81 elements
/// cover a vectorised loop body and its remainder.
#[test]
fn relu_backward_matches_the_branchy_oracle_on_special_values() {
    let tiny = f32::MIN_POSITIVE / 4.0; // subnormal
    let specials =
        [f32::NAN, 0.0, -0.0, tiny, -tiny, f32::INFINITY, f32::NEG_INFINITY, 1.0, -1.0];
    let len = specials.len();
    let z: Vec<f32> = (0..len * len).map(|i| specials[i / len]).collect();
    let g: Vec<f32> = (0..len * len).map(|i| specials[i % len]).collect();
    let mut want = g.clone();
    relu_backward_branchy(&mut want, &z);
    let z = Matrix::from_vec(len, len, z).unwrap();
    let mut got = Matrix::from_vec(len, len, g).unwrap();
    relu_backward_inplace(&mut got, &z);
    let want = Matrix::from_vec(len, len, want).unwrap();
    assert_bits_eq(&got, &want, "relu_backward_inplace", 0);
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

/// Correct predictions among `labels` on a copy of the row block
/// `start..start + len` of `x`, through the allocating forward pass and
/// [`Matrix::argmax_rows`], cross-checked against [`Mlp::accuracy`] —
/// the oracle the in-place counting path must reproduce.
fn count_on_copy(model: &Mlp, x: &Matrix, start: usize, len: usize, labels: &[usize]) -> usize {
    let cols = x.cols();
    let block =
        Matrix::from_vec(len, cols, x.as_slice()[start * cols..(start + len) * cols].to_vec())
            .unwrap();
    let block_labels = &labels[start..start + len];
    let preds = model.forward(&block).unwrap().argmax_rows();
    let correct = preds.iter().zip(block_labels).filter(|(p, l)| p == l).count();
    assert_eq!(
        correct as f64 / len as f64,
        model.accuracy(&block, block_labels).unwrap(),
        "oracle disagrees with Mlp::accuracy"
    );
    correct
}

/// `Mlp::count_correct_rows` reads row ranges of the eval matrix in
/// place; on every kernel path it must count exactly what the
/// allocating forward pass finds on a copied block. Ranges cover a
/// full 256-row chunk, the 208-row tail of a 2 000-row set, single
/// rows, non-zero offsets, and a set smaller than one chunk; models
/// cover the paper's `[64, 64, 10]`, a deeper net, and one layer.
#[test]
fn count_correct_rows_matches_the_copied_block_oracle_on_every_path() {
    let mut rng = Rng::seed_from_u64(0x4e4e_0031);
    let big = gen_matrix(&mut rng, 2000, 64);
    let big_labels: Vec<usize> = (0..2000).map(|_| rng.below(10)).collect();
    let small = gen_matrix(&mut rng, 100, 64);
    let small_labels: Vec<usize> = (0..100).map(|_| rng.below(10)).collect();
    let ranges: [(&Matrix, &[usize], usize, usize); 8] = [
        (&big, &big_labels, 0, 256),
        (&big, &big_labels, 1792, 208),
        (&big, &big_labels, 0, 1),
        (&big, &big_labels, 1999, 1),
        (&big, &big_labels, 37, 100),
        (&big, &big_labels, 512, 256),
        (&big, &big_labels, 0, 2000),
        (&small, &small_labels, 0, 100),
    ];
    for dims in [&[64, 64, 10][..], &[64, 24, 16, 10], &[64, 10]] {
        let model = Mlp::new(dims, 7).unwrap();
        let want: Vec<usize> =
            ranges.iter().map(|&(x, l, s, n)| count_on_copy(&model, x, s, n, l)).collect();
        // Chunked counts over the whole set sum to the whole-set count.
        let chunked: usize = (0..2000)
            .step_by(256)
            .map(|s| count_on_copy(&model, &big, s, 256.min(2000 - s), &big_labels))
            .sum();
        assert_eq!(chunked, want[6], "{dims:?}: chunked oracle");
        for &path in &available_paths() {
            let _guard = PathGuard::force(path);
            // One scratch across every range, so buffers shrink and
            // regrow between calls.
            let mut scratch = TrainScratch::for_model(&model).unwrap();
            for (&(x, labels, start, len), &want) in ranges.iter().zip(&want) {
                let got = model.count_correct_rows(x, start, len, labels, &mut scratch).unwrap();
                assert_eq!(got, want, "{dims:?} rows {start}+{len} [{}]", path.name());
            }
        }
    }
}

/// Adversarial logits through the whole counting path. A one-layer
/// model computes `[2f0 − 2f1 + 1, 2f4, 2f2 − 2f3, 2f4 + 1]`; with
/// `B = 2e38`, `2B` overflows to `inf` and `2B − 2B` gives NaN, so
/// chosen features put exact ties at the first and the last index, NaN
/// at index 0 and mid-row, and ±inf into the logits.
#[test]
fn count_correct_rows_keeps_argmax_semantics_on_adversarial_logits() {
    const B: f32 = 2e38;
    let mut model = Mlp::new(&[5, 4], 0).unwrap();
    #[rustfmt::skip]
    let params = [
        2.0, 0.0, 0.0, 0.0,
        -2.0, 0.0, 0.0, 0.0,
        0.0, 0.0, 2.0, 0.0,
        0.0, 0.0, -2.0, 0.0,
        0.0, 2.0, 0.0, 2.0,
        1.0, 0.0, 0.0, 1.0, // bias
    ];
    model.set_parameters(&params).unwrap();
    let rows: [([f32; 5], usize); 8] = [
        ([0.0, 0.0, 0.0, 0.0, 0.0], 0),  // [1, 0, 0, 1]: tie first/last
        ([B, B, 0.0, 0.0, 0.0], 0),      // [NaN, 0, 0, 1]: NaN at 0 sticks
        ([0.0, 0.0, B, B, 0.25], 3),     // [1, 0.5, NaN, 1.5]: NaN mid-row
        ([0.0, 0.0, B, 0.0, -1.0], 2),   // [1, -2, inf, -1]
        ([B, 0.0, 0.0, 0.0, B], 0),      // [inf, inf, 0, inf]
        ([0.0, B, 0.0, 0.0, 0.0], 3),    // [-inf, 0, 0, 1]
        ([0.0, B, 0.0, B, -B], 0),       // all -inf
        ([-1.0, 0.0, 1.0, 0.0, 0.5], 2), // [-1, 1, 2, 2]: tie at the last
    ];
    let x = Matrix::from_vec(8, 5, rows.iter().flat_map(|(f, _)| *f).collect()).unwrap();
    let expected: Vec<usize> = rows.iter().map(|&(_, class)| class).collect();
    assert_eq!(model.forward(&x).unwrap().argmax_rows(), expected);
    for &path in &available_paths() {
        let _guard = PathGuard::force(path);
        let mut scratch = TrainScratch::for_model(&model).unwrap();
        for class in 0..4 {
            let labels = vec![class; 8];
            let want = expected.iter().filter(|&&p| p == class).count();
            let got = model.count_correct_rows(&x, 0, 8, &labels, &mut scratch).unwrap();
            assert_eq!(got, want, "class {class} [{}]", path.name());
        }
        for start in 0..8 {
            let got = model.count_correct_rows(&x, start, 1, &expected, &mut scratch).unwrap();
            assert_eq!(got, 1, "row {start} [{}]", path.name());
        }
    }
}

#[test]
fn count_correct_rows_rejects_bad_ranges_and_shapes() {
    let model = Mlp::new(&[3, 4, 2], 0).unwrap();
    let mut scratch = TrainScratch::for_model(&model).unwrap();
    let x = Matrix::zeros(5, 3).unwrap();
    let labels = [0usize; 5];
    assert!(model.count_correct_rows(&x, 0, 0, &labels, &mut scratch).is_err());
    assert!(model.count_correct_rows(&x, 4, 2, &labels, &mut scratch).is_err());
    assert!(model.count_correct_rows(&x, usize::MAX, 2, &labels, &mut scratch).is_err());
    assert!(model.count_correct_rows(&x, 0, 5, &labels[..4], &mut scratch).is_err());
    let wide = Matrix::zeros(5, 4).unwrap();
    assert!(model.count_correct_rows(&wide, 0, 5, &labels, &mut scratch).is_err());
    let mut other = TrainScratch::for_model(&Mlp::new(&[3, 2], 0).unwrap()).unwrap();
    assert!(model.count_correct_rows(&x, 0, 5, &labels, &mut other).is_err());
    assert_eq!(model.count_correct_rows(&x, 0, 5, &labels, &mut scratch).unwrap(), 5);
}

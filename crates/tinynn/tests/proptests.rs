//! Property-style tests for the neural-network substrate.
//!
//! Formerly backed by the `proptest` crate; rewritten as deterministic
//! seeded case loops over [`detrand::Rng`] so `cargo test` runs fully
//! offline. The invariants are unchanged; each test draws a few
//! hundred cases from a fixed seed, and the case index appears in
//! every assertion message for reproducibility.

use detrand::Rng;
use tinynn::loss::softmax_cross_entropy_into;
use tinynn::model::{Mlp, TrainScratch};
use tinynn::tensor::Matrix;

const CASES: usize = 200;

fn gen_matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.uniform_f32(-5.0, 5.0)).collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

fn gen_labels(rng: &mut Rng, n: usize, classes: usize) -> Vec<usize> {
    (0..n).map(|_| rng.below(classes)).collect()
}

/// `f` run into a fresh output buffer.
fn product(f: impl FnOnce(&mut Matrix) -> tinynn::Result<()>) -> Matrix {
    let mut out = Matrix::zeros(1, 1).unwrap();
    f(&mut out).unwrap();
    out
}

/// Mean softmax cross-entropy and its logits gradient.
fn cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    let mut grad = Matrix::zeros(1, 1).unwrap();
    let loss = softmax_cross_entropy_into(logits, labels, &mut grad).unwrap();
    (loss, grad)
}

fn explicit_transpose(m: &Matrix) -> Matrix {
    let mut t = Matrix::zeros(m.cols(), m.rows()).unwrap();
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            t.set(c, r, m.at(r, c));
        }
    }
    t
}

/// (A·B)·I == A·B and identity is neutral on both sides.
#[test]
fn identity_is_two_sided_neutral() {
    let mut rng = Rng::seed_from_u64(0x4e4e_0001);
    let mut i = Matrix::zeros(4, 4).unwrap();
    for k in 0..4 {
        i.as_mut_slice()[k * 4 + k] = 1.0;
    }
    for case in 0..CASES {
        let a = gen_matrix(&mut rng, 4, 4);
        assert_eq!(product(|o| a.matmul_into(&i, o)), a, "case {case}: right identity");
        assert_eq!(product(|o| i.matmul_into(&a, o)), a, "case {case}: left identity");
    }
}

/// matmul_tn agrees with explicit transposition expressed through
/// plain matmul.
#[test]
fn fused_transpose_products_agree_with_naive() {
    let mut rng = Rng::seed_from_u64(0x4e4e_0002);
    for case in 0..CASES {
        let a = gen_matrix(&mut rng, 3, 5);
        let b = gen_matrix(&mut rng, 3, 2);
        let naive = product(|o| explicit_transpose(&a).matmul_into(&b, o));
        let fused = product(|o| a.matmul_tn_into(&b, o));
        for (x, y) in naive.as_slice().iter().zip(fused.as_slice()) {
            assert!((x - y).abs() < 1e-4, "case {case}: {x} vs {y}");
        }
    }
}

/// matmul_nt(a, b) equals a·bᵀ computed naively.
#[test]
fn matmul_nt_matches_naive() {
    let mut rng = Rng::seed_from_u64(0x4e4e_0003);
    for case in 0..CASES {
        let a = gen_matrix(&mut rng, 4, 3);
        let b = gen_matrix(&mut rng, 2, 3);
        let naive = product(|o| a.matmul_into(&explicit_transpose(&b), o));
        let fused = product(|o| a.matmul_nt_into(&b, o));
        for (x, y) in naive.as_slice().iter().zip(fused.as_slice()) {
            assert!((x - y).abs() < 1e-4, "case {case}: {x} vs {y}");
        }
    }
}

/// A reused output buffer gives the same bits as a fresh one, even on
/// shapes larger than one block: reuse across mismatched shapes leaves
/// no stale state behind.
#[test]
fn reused_buffers_match_fresh_buffers_bitwise() {
    let mut rng = Rng::seed_from_u64(0x4e4e_0008);
    let mut out = Matrix::zeros(1, 1).unwrap();
    for case in 0..24 {
        let m = rng.range_usize(1, 90);
        let k = rng.range_usize(1, 300);
        let n = rng.range_usize(1, 40);
        let a = gen_matrix(&mut rng, m, k);
        let b = gen_matrix(&mut rng, k, n);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, product(|o| a.matmul_into(&b, o)), "case {case}: matmul");
        let c = gen_matrix(&mut rng, k, m);
        c.matmul_tn_into(&b, &mut out).unwrap();
        assert_eq!(out, product(|o| c.matmul_tn_into(&b, o)), "case {case}: matmul_tn");
        let d = gen_matrix(&mut rng, n, k);
        a.matmul_nt_into(&d, &mut out).unwrap();
        assert_eq!(out, product(|o| a.matmul_nt_into(&d, o)), "case {case}: matmul_nt");
    }
}

/// The softmax inside the cross-entropy gradient `(softmax - onehot)/n`
/// is a probability distribution per row for any finite input.
#[test]
fn softmax_rows_are_distributions() {
    let mut rng = Rng::seed_from_u64(0x4e4e_0004);
    for case in 0..CASES {
        let m = gen_matrix(&mut rng, 5, 7);
        let labels = gen_labels(&mut rng, 5, 7);
        let (_, grad) = cross_entropy(&m, &labels);
        for (r, &label) in labels.iter().enumerate() {
            let mut row: Vec<f32> = grad.row(r).iter().map(|g| g * 5.0).collect();
            row[label] += 1.0;
            assert!(
                row.iter().all(|&v| (0.0..=1.0).contains(&v)),
                "case {case}: entry outside [0, 1]"
            );
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "case {case}: row sums to {sum}");
        }
    }
}

/// Cross-entropy loss is non-negative and its gradient rows sum to
/// ~0 (softmax-CE conservation).
#[test]
fn cross_entropy_invariants() {
    let mut rng = Rng::seed_from_u64(0x4e4e_0005);
    for case in 0..CASES {
        let logits = gen_matrix(&mut rng, 6, 4);
        let labels = gen_labels(&mut rng, 6, 4);
        let (loss, grad) = cross_entropy(&logits, &labels);
        assert!(loss >= 0.0, "case {case}: negative loss {loss}");
        for r in 0..6 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-5, "case {case}: gradient row sums to {s}");
        }
    }
}

/// Flat-parameter round trip is the identity for arbitrary
/// architectures.
#[test]
fn parameter_roundtrip_identity() {
    let mut rng = Rng::seed_from_u64(0x4e4e_0006);
    for case in 0..64 {
        let hidden = rng.range_usize(1, 16);
        let seed = rng.next_u64();
        let dims = [5, hidden, 3];
        let m = Mlp::new(&dims, seed).unwrap();
        let mut copy = Mlp::new(&dims, seed.wrapping_add(1)).unwrap();
        copy.set_parameters(&m.parameters()).unwrap();
        assert_eq!(m, copy, "case {case}");
    }
}

/// A small-enough GD step never increases full-batch loss on a smooth
/// model (sanity of the backward pass).
#[test]
fn tiny_gd_step_does_not_increase_loss() {
    let mut rng = Rng::seed_from_u64(0x4e4e_0007);
    for case in 0..64 {
        let seed = rng.next_u64();
        let x = gen_matrix(&mut rng, 8, 3);
        let labels = gen_labels(&mut rng, 8, 3);
        let mut m = Mlp::new(&[3, 6, 3], seed).unwrap();
        let mut scratch = TrainScratch::for_model(&m).unwrap();
        let before = m.train_step_with(&x, &labels, 1e-3, &mut scratch).unwrap();
        let after = m.gradients_into(&x, &labels, &mut scratch).unwrap();
        assert!(after <= before + 1e-4, "case {case}: loss rose from {before} to {after}");
    }
}

/// FedAvg-style parameter averaging of two identical models is the
/// identity.
#[test]
fn averaging_identical_models_is_identity() {
    let mut rng = Rng::seed_from_u64(0x4e4e_0009);
    for case in 0..CASES {
        let m = Mlp::new(&[4, 5, 2], rng.next_u64()).unwrap();
        let p = m.parameters();
        let avg: Vec<f32> = p.iter().map(|&v| (v + v) / 2.0).collect();
        let mut copy = m.clone();
        copy.set_parameters(&avg).unwrap();
        assert_eq!(m, copy, "case {case}");
    }
}

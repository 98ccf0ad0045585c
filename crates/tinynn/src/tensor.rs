//! A minimal row-major `f32` matrix — the only tensor the FL
//! simulation needs.
//!
//! The design goals are *determinism* and *allocation discipline*: the
//! products (`matmul_into`, `matmul_tn_into`, `matmul_nt_into` and the
//! fused-bias forms) write into caller-owned buffers, register-blocked
//! over the output columns, so steady-state training performs zero
//! heap allocation per step. Summation order per output element is
//! fixed (ascending reduction index, one accumulator per element)
//! regardless of blocking, which keeps results bit-identical across
//! buffer reuse, blocking width, and thread counts.
//!
//! The register-blocked kernels here (`gemm_row` and its blocks) are
//! the `Scalar` path: the safe-Rust reference every vector path in
//! [`crate::simd`] matches bit for bit, and the path of every host
//! without AVX2. Every product goes through one dispatch call into
//! [`crate::simd`], which runs the active path.

use crate::error::{NnError, Result};
use crate::simd;

/// Output columns per wide register block: each block keeps this many
/// `f32` accumulators live in vector registers across the whole
/// reduction, amortizing the per-`k` operand broadcast and zero test
/// over many independent SIMD lanes. Remaining columns (`< WIDE`) are
/// handled by a single runtime-width tail pass — never by repeated
/// narrower blocks, which would re-run the reduction (and re-pay every
/// data-dependent zero-test branch miss) once per block with too few
/// lanes to amortize it.
const WIDE: usize = 32;

/// Accumulates one register block of an output row.
///
/// Element `k` of the reduction operand lives at `lhs[k * stride]`
/// (`stride == 1` for a contiguous row, `stride == cols` for a
/// transposed-left walk). For each `k` — with `SKIP`, only each `k`
/// with a nonzero operand; the zero test sits here, hoisted out of the
/// unrolled column loop — the block adds `a * rhs[k][j..j + W]` into
/// `W` register accumulators. Every accumulator sees the ascending-`k`
/// addition sequence of the naive kernel starting from `0.0`, so the
/// stored block is bit-identical to the unblocked result while the
/// per-`k` read-modify-write of the output row is gone.
#[inline]
#[allow(clippy::too_many_arguments)]
fn gemm_block<const W: usize, const SKIP: bool>(
    lhs: &[f32],
    stride: usize,
    len: usize,
    rhs: &[f32],
    cols: usize,
    j: usize,
    out: &mut [f32],
    bias: Option<&[f32]>,
    relu: bool,
) {
    let mut acc = [0.0f32; W];
    for k in 0..len {
        let a = lhs[k * stride];
        if SKIP && a == 0.0 {
            continue;
        }
        let row = &rhs[k * cols + j..k * cols + j + W];
        for (s, &b) in acc.iter_mut().zip(row) {
            *s += a * b;
        }
    }
    match bias {
        // The fused bias is one post-sum addition per element — the
        // same arithmetic the separate broadcast pass performed — and
        // the ReLU clamp (`v < 0.0`) passes NaN and `-0.0` through
        // unchanged, matching a separate ReLU pass.
        Some(bias) => {
            for ((o, &s), &b) in out.iter_mut().zip(&acc).zip(&bias[j..j + W]) {
                let v = s + b;
                *o = if relu && v < 0.0 { 0.0 } else { v };
            }
        }
        None => {
            for (o, &s) in out.iter_mut().zip(&acc) {
                *o = if relu && s < 0.0 { 0.0 } else { s };
            }
        }
    }
}

/// Remainder block of an output row: like [`gemm_block`] but for a
/// runtime width `out.len() < WIDE`, so the final sub-`WIDE` columns of
/// a row cost exactly one pass over the reduction operand. Same
/// ascending-`k`, one-accumulator-per-element arithmetic; the `WIDE`
/// accumulator array is simply used partially.
#[inline]
#[allow(clippy::too_many_arguments)]
fn gemm_tail<const SKIP: bool>(
    lhs: &[f32],
    stride: usize,
    len: usize,
    rhs: &[f32],
    cols: usize,
    j: usize,
    out: &mut [f32],
    bias: Option<&[f32]>,
    relu: bool,
) {
    debug_assert!(out.len() < WIDE);
    let width = out.len();
    let mut acc = [0.0f32; WIDE];
    let acc = &mut acc[..width];
    for k in 0..len {
        let a = lhs[k * stride];
        if SKIP && a == 0.0 {
            continue;
        }
        let row = &rhs[k * cols + j..k * cols + j + width];
        for (s, &b) in acc.iter_mut().zip(row) {
            *s += a * b;
        }
    }
    match bias {
        Some(bias) => {
            for ((o, &s), &b) in out.iter_mut().zip(acc.iter()).zip(&bias[j..j + width]) {
                let v = s + b;
                *o = if relu && v < 0.0 { 0.0 } else { v };
            }
        }
        None => {
            for (o, &s) in out.iter_mut().zip(acc.iter()) {
                *o = if relu && s < 0.0 { 0.0 } else { s };
            }
        }
    }
}

/// One full output row via [`gemm_block`]: wide blocks, then a single
/// runtime-width [`gemm_tail`] for whatever is left, all sharing the
/// one reduction operand described by `(lhs, stride, len)`. `SKIP`
/// skips the addends of a `±0.0` operand (NN and TN); without it every
/// addend is computed (the packed `matmul_nt`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_row<const SKIP: bool>(
    lhs: &[f32],
    stride: usize,
    len: usize,
    rhs: &[f32],
    cols: usize,
    out_row: &mut [f32],
    bias: Option<&[f32]>,
    relu: bool,
) {
    let mut j = 0;
    let mut wide = out_row.chunks_exact_mut(WIDE);
    for chunk in wide.by_ref() {
        gemm_block::<WIDE, SKIP>(lhs, stride, len, rhs, cols, j, chunk, bias, relu);
        j += WIDE;
    }
    let rem = wide.into_remainder();
    if !rem.is_empty() {
        gemm_tail::<SKIP>(lhs, stride, len, rhs, cols, j, rem, bias, relu);
    }
}

thread_local! {
    /// Per-thread packing scratch for `matmul_nt_into`: the transposed
    /// right operand is staged here so the product can run through the
    /// contiguous no-skip NN kernel of the active path. Reused across
    /// calls, so steady-state training stays allocation-free.
    static NT_PANEL: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// `lhs · rhs + bias` (with an optional ReLU epilogue) for a left
/// operand given as a row-major `rows × cols` slice — the one entry
/// behind [`Matrix::matmul_bias_into`] and
/// [`Matrix::matmul_bias_relu_into`]. Taking a slice lets a caller run
/// a contiguous row range of a larger matrix through the fused kernels
/// in place, with no copy into a staging matrix; the arithmetic is the
/// same per output row whatever the range.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] unless `cols == rhs.rows` and
/// `bias.len() == rhs.cols`, and [`NnError::ZeroDimension`] for
/// `rows == 0`.
pub(crate) fn matmul_bias_rows_into(
    lhs: &[f32],
    rows: usize,
    cols: usize,
    rhs: &Matrix,
    bias: &[f32],
    relu: bool,
    out: &mut Matrix,
) -> Result<()> {
    debug_assert_eq!(lhs.len(), rows * cols);
    if cols != rhs.rows {
        return Err(NnError::ShapeMismatch {
            left: (rows, cols),
            right: rhs.shape(),
            op: "matmul_bias",
        });
    }
    if bias.len() != rhs.cols {
        return Err(NnError::ShapeMismatch {
            left: (1, bias.len()),
            right: (1, rhs.cols),
            op: "matmul_bias",
        });
    }
    out.resize_for_kernel(rows, rhs.cols)?;
    simd::gemm_nn(lhs, rows, cols, &rhs.data, rhs.cols, &mut out.data, Some(bias), relu);
    Ok(())
}

/// Index of the largest element of a non-empty row: strict `>`, so
/// ties go to the first index, a NaN never wins a comparison, and a NaN
/// at index 0 is never displaced. The running best is kept as a value
/// and both updates are selects, not a branch, so a data-dependent
/// winner costs no mispredicts.
#[inline]
pub(crate) fn argmax_row(row: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = row[0];
    for (i, &v) in row.iter().enumerate().skip(1) {
        let take = v > best_v;
        best = if take { i } else { best };
        best_v = if take { v } else { best_v };
    }
    best
}

/// A dense row-major matrix of `f32`.
///
/// # Examples
///
/// ```
/// use tinynn::tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]])?;
/// let mut c = Matrix::zeros(1, 1)?; // resized by the kernel
/// a.matmul_into(&b, &mut c)?;
/// assert_eq!(c, a);
/// # Ok::<(), tinynn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ZeroDimension`] if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(NnError::ZeroDimension { context: "Matrix::zeros" });
        }
        Ok(Self { rows, cols, data: vec![0.0; rows * cols] })
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `data.len() != rows*cols`
    /// and [`NnError::ZeroDimension`] for empty shapes.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(NnError::ZeroDimension { context: "Matrix::from_vec" });
        }
        if data.len() != rows * cols {
            return Err(NnError::ShapeMismatch {
                left: (rows, cols),
                right: (data.len(), 1),
                op: "from_vec",
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ZeroDimension`] for no rows or empty rows and
    /// [`NnError::ShapeMismatch`] for ragged rows.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self> {
        let r = rows.len();
        if r == 0 || rows[0].is_empty() {
            return Err(NnError::ZeroDimension { context: "Matrix::from_rows" });
        }
        let c = rows[0].len();
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(NnError::ShapeMismatch {
                    left: (1, c),
                    right: (1, row.len()),
                    op: "from_rows",
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self { rows: r, cols: c, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A new matrix holding the given subset of rows, in order.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ZeroDimension`] for an empty index set.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Self> {
        if indices.is_empty() {
            return Err(NnError::ZeroDimension { context: "Matrix::select_rows" });
        }
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Self::from_vec(indices.len(), self.cols, data)
    }

    /// Reshapes this matrix to `rows × cols`, reusing the existing
    /// allocation when capacity allows. Contents become all zeros.
    ///
    /// This is the buffer-reuse primitive behind every `_into` kernel:
    /// once a scratch matrix has grown to its steady-state size,
    /// resizing is a `memset`, not an allocation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ZeroDimension`] if either dimension is zero.
    pub fn resize(&mut self, rows: usize, cols: usize) -> Result<()> {
        if rows == 0 || cols == 0 {
            return Err(NnError::ZeroDimension { context: "Matrix::resize" });
        }
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        Ok(())
    }

    /// [`Matrix::resize`] minus the zeroing, for kernels that are about
    /// to overwrite every element anyway: shrinking or reusing the
    /// steady-state buffer touches no data at all (the public `resize`
    /// memsets ~51 KB per 200×64 activation, ~10% of a fused-kernel
    /// call), and growth zero-fills only the new tail.
    fn resize_for_kernel(&mut self, rows: usize, cols: usize) -> Result<()> {
        if rows == 0 || cols == 0 {
            return Err(NnError::ZeroDimension { context: "Matrix::resize" });
        }
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
        Ok(())
    }

    /// Copies `src` into `self`, resizing as needed (no allocation once
    /// capacity suffices).
    pub fn copy_from(&mut self, src: &Self) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Matrix product `self · rhs`, register-blocked, written into
    /// `out` (resized as needed; zero allocation at steady state).
    ///
    /// Each output row is produced in blocks of `WIDE` columns (plus
    /// one runtime-width tail block) whose accumulators live in
    /// registers for the whole reduction; the ascending-`k` accumulation
    /// order of the naive `ikj` loop is preserved, so the result is
    /// bit-identical to the unblocked kernel. Zero entries of `self`
    /// are skipped — the test runs once per `k`, outside the unrolled
    /// column loop — which ReLU activations make frequent.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] unless
    /// `self.cols == rhs.rows`.
    pub fn matmul_into(&self, rhs: &Self, out: &mut Self) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(NnError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul",
            });
        }
        out.resize_for_kernel(self.rows, rhs.cols)?;
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        simd::gemm_nn(&self.data, m, k, &rhs.data, n, &mut out.data, None, false);
        Ok(())
    }

    /// Fused `self · rhs + bias` (row broadcast) written into `out`.
    ///
    /// Exactly [`Matrix::matmul_into`] followed by a separate pass
    /// adding `bias` to every row — the bias lands on each finished
    /// register accumulator as a single post-sum addition, the same
    /// operation the separate pass performs per element — but in one
    /// sweep over the output, eliminating a full read-modify-write.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] unless `self.cols == rhs.rows`
    /// and `bias.len() == rhs.cols`.
    pub fn matmul_bias_into(&self, rhs: &Self, bias: &[f32], out: &mut Self) -> Result<()> {
        matmul_bias_rows_into(&self.data, self.rows, self.cols, rhs, bias, false, out)
    }

    /// [`Matrix::matmul_bias_into`] with a fused ReLU epilogue:
    /// `relu(self · rhs + bias)` in one output sweep. Negative sums
    /// clamp to zero before the store (`v < 0.0` — NaN and `-0.0` pass
    /// through unchanged, exactly like a separate ReLU pass afterwards).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] unless `self.cols == rhs.rows`
    /// and `bias.len() == rhs.cols`.
    pub fn matmul_bias_relu_into(
        &self,
        rhs: &Self,
        bias: &[f32],
        out: &mut Self,
    ) -> Result<()> {
        matmul_bias_rows_into(&self.data, self.rows, self.cols, rhs, bias, true, out)
    }

    /// Transposed-left product `selfᵀ · rhs` without materializing the
    /// transpose (used for weight gradients `aᵀ·δ`), register-blocked,
    /// written into `out` (resized as needed).
    ///
    /// The reduction runs over the shared row index `r`, walking the
    /// left operand with a column stride; `r` ascends with one register
    /// accumulator per output element, so accumulation order — and
    /// therefore the float result — matches the naive loop, including
    /// its skip of zero left entries (ReLU activations upstream).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] unless
    /// `self.rows == rhs.rows`.
    pub fn matmul_tn_into(&self, rhs: &Self, out: &mut Self) -> Result<()> {
        if self.rows != rhs.rows {
            return Err(NnError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul_tn",
            });
        }
        out.resize_for_kernel(self.cols, rhs.cols)?;
        simd::gemm_tn(&self.data, self.rows, self.cols, &rhs.data, rhs.cols, &mut out.data);
        Ok(())
    }

    /// Transposed-right product `self · rhsᵀ` without materializing the
    /// transpose (used for input gradients `δ·Wᵀ`), register-blocked,
    /// written into `out` (resized as needed).
    ///
    /// Each output element is an independent ascending-`k` dot product
    /// over the shared column index (no zero skip — this kernel's
    /// documented contract, since its left operand is a gradient, not
    /// a ReLU activation). `rhsᵀ` is staged in a per-thread panel and
    /// the product runs through the active path's no-skip NN kernel:
    /// one register accumulator per output element, fed the naive
    /// loop's addend sequence, so results match it bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] unless
    /// `self.cols == rhs.cols`.
    pub fn matmul_nt_into(&self, rhs: &Self, out: &mut Self) -> Result<()> {
        if self.cols != rhs.cols {
            return Err(NnError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul_nt",
            });
        }
        out.resize_for_kernel(self.rows, rhs.rows)?;
        NT_PANEL.with(|panel| {
            let mut panel = panel.borrow_mut();
            let (n, k) = rhs.shape();
            panel.clear();
            panel.resize(k * n, 0.0);
            for (j, row) in rhs.data.chunks_exact(k).enumerate() {
                for (kk, &v) in row.iter().enumerate() {
                    panel[kk * n + j] = v;
                }
            }
            simd::gemm_nn_noskip(&self.data, self.rows, self.cols, &panel, n, &mut out.data);
        });
        Ok(())
    }

    /// Column sums (bias gradients) written into a caller-owned vector (cleared and
    /// resized as needed; zero allocation at steady state).
    pub fn col_sums_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (s, &v) in out.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
    }

    /// Copies the given rows of `self`, in order, into a caller-owned
    /// matrix (resized as needed; zero allocation at steady state).
    /// The gather primitive behind minibatch sampling.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ZeroDimension`] for an empty index set.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Self) -> Result<()> {
        if indices.is_empty() {
            return Err(NnError::ZeroDimension { context: "Matrix::gather_rows_into" });
        }
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &i in indices {
            out.data.extend_from_slice(self.row(i));
        }
        Ok(())
    }

    /// Element-wise in-place addition of `rhs * scale`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on shape disagreement.
    pub fn add_scaled(&mut self, rhs: &Self, scale: f32) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(NnError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "add_scaled",
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b * scale;
        }
        Ok(())
    }

    /// Index of the maximum element in each row (ties → first; a NaN
    /// is never picked unless it sits at index 0, where it stays).
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.data.chunks_exact(self.cols).map(argmax_row).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> (Matrix, Matrix) {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]).unwrap();
        (a, b)
    }

    #[test]
    fn constructors_validate_shapes() {
        assert!(Matrix::zeros(0, 3).is_err());
        assert!(Matrix::zeros(3, 0).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
    }

    /// `f` run into a fresh output buffer.
    fn product(f: impl FnOnce(&mut Matrix) -> Result<()>) -> Result<Matrix> {
        let mut out = Matrix::zeros(1, 1)?;
        f(&mut out)?;
        Ok(out)
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let (a, b) = abc();
        let c = product(|out| a.matmul_into(&b, out)).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]).unwrap());
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let (a, b) = abc();
        assert!(product(|out| a.matmul_into(&a, out)).is_err());
        assert!(product(|out| a.matmul_tn_into(&b, out)).is_err());
        assert!(product(|out| a.matmul_nt_into(&b, out)).is_err());
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let (a, _) = abc();
        // matmul_tn computes aᵀ·rhs where rhs has a.rows rows.
        let rhs = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, -1.0]]).unwrap();
        let got = product(|out| a.matmul_tn_into(&rhs, out)).unwrap();
        // aᵀ = [[1,4],[2,5],[3,6]]; aᵀ·rhs:
        let want = Matrix::from_rows(&[
            &[1.0 + 8.0, 0.5 - 4.0],
            &[2.0 + 10.0, 1.0 - 5.0],
            &[3.0 + 12.0, 1.5 - 6.0],
        ])
        .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let (a, _) = abc();
        let got = product(|out| a.matmul_nt_into(&a, out)).unwrap();
        // a·aᵀ for a = [[1,2,3],[4,5,6]]:
        let want = Matrix::from_rows(&[&[14.0, 32.0], &[32.0, 77.0]]).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn fused_bias_matches_separate_passes() {
        let (a, b) = abc();
        let bias = [0.5, -0.25];
        let mut want = product(|out| a.matmul_into(&b, out)).unwrap();
        for row in want.as_mut_slice().chunks_exact_mut(2) {
            row[0] += bias[0];
            row[1] += bias[1];
        }
        let mut got = Matrix::zeros(1, 1).unwrap();
        a.matmul_bias_into(&b, &bias, &mut got).unwrap();
        assert_eq!(got, want);
        assert!(a.matmul_bias_into(&b, &[1.0], &mut got).is_err());
        assert!(a.matmul_bias_into(&a, &bias, &mut got).is_err());
    }

    #[test]
    fn fused_bias_relu_clamps_negatives_only() {
        let a = Matrix::from_rows(&[&[1.0, -1.0]]).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, -2.0]]).unwrap();
        // a·b = [-1, 3]; bias [0.5, -0.5] → [-0.5, 2.5] → relu [0, 2.5].
        let mut out = Matrix::zeros(1, 1).unwrap();
        a.matmul_bias_relu_into(&b, &[0.5, -0.5], &mut out).unwrap();
        assert_eq!(out.as_slice(), &[0.0, 2.5]);
    }

    #[test]
    fn col_sums_into_adds_each_column() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[1.0, 2.0], &[1.0, 2.0]]).unwrap();
        let mut sums = vec![9.0; 5];
        m.col_sums_into(&mut sums);
        assert_eq!(sums, vec![3.0, 6.0]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let (a, _) = abc();
        let mut acc = Matrix::zeros(2, 3).unwrap();
        acc.add_scaled(&a, 2.0).unwrap();
        acc.add_scaled(&a, -1.0).unwrap();
        assert_eq!(acc, a);
        let wrong = Matrix::zeros(3, 3).unwrap();
        assert!(acc.add_scaled(&wrong, 1.0).is_err());
    }

    #[test]
    fn argmax_rows_picks_first_maximum() {
        let m = Matrix::from_rows(&[&[1.0, 3.0, 2.0], &[5.0, 5.0, 4.0]]).unwrap();
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    /// The branchy argmax [`argmax_row`] replaced, kept as the oracle
    /// for its tie, NaN, and infinity semantics.
    fn argmax_branchy(row: &[f32]) -> usize {
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    #[test]
    fn argmax_row_matches_the_branchy_oracle_on_adversarial_rows() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let cases: [(&[f32], usize); 13] = [
            (&[7.0], 0),
            (&[1.0, 1.0, 0.5], 0),
            (&[0.5, 1.0, 2.0, 2.0], 2),
            (&[3.0, 1.0, 2.0, 3.0], 0),
            (&[0.5, 1.0, 2.0, 9.0], 3),
            (&[nan, 5.0, inf], 0),
            (&[1.0, nan, 0.5], 0),
            (&[1.0, nan, 2.0], 2),
            (&[0.5, 1.0, nan], 1),
            (&[-inf, -inf, -inf], 0),
            (&[-inf, -1.0, inf, inf], 2),
            (&[-1.0, -inf], 0),
            (&[-0.0, 0.0], 0),
        ];
        for (row, want) in cases {
            assert_eq!(argmax_branchy(row), want, "oracle on {row:?}");
            assert_eq!(argmax_row(row), want, "{row:?}");
        }
        // Random rows over a small alphabet, so ties, NaNs, and
        // infinities land at every position, including the first and
        // the last.
        let alphabet = [nan, -inf, inf, -1.0, -0.0, 0.0, 1.0, 2.0];
        let mut rng = detrand::Rng::seed_from_u64(17);
        for case in 0..2000 {
            let len = 1 + rng.below(12);
            let row: Vec<f32> = (0..len).map(|_| alphabet[rng.below(alphabet.len())]).collect();
            assert_eq!(argmax_row(&row), argmax_branchy(&row), "case {case}: {row:?}");
        }
        let m = Matrix::from_rows(&[&[nan, 1.0], &[1.0, nan], &[inf, inf]]).unwrap();
        assert_eq!(m.argmax_rows(), vec![0, 0, 0]);
    }

    #[test]
    fn select_rows_extracts_in_order() {
        let (a, _) = abc();
        let s = a.select_rows(&[1, 0]).unwrap();
        assert_eq!(s.row(0), a.row(1));
        assert_eq!(s.row(1), a.row(0));
        assert!(a.select_rows(&[]).is_err());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn at_panics_out_of_bounds() {
        let (a, _) = abc();
        let _ = a.at(2, 0);
    }
}

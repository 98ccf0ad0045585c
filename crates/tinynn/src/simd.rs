//! Explicit-SIMD kernel paths and their runtime dispatch.
//!
//! The scalar kernels in [`crate::tensor`] define the numeric contract:
//! one `f32` accumulator per output element, walked in ascending
//! reduction index, with separate multiply and add (no FMA
//! contraction). The vector kernels here widen that recipe across
//! output elements — each SIMD lane *is* one output element's
//! accumulator, fed the identical ascending-`k` addend sequence — so
//! every path produces bit-identical results. Most kernels put output
//! columns in the lanes; the AVX-512 row kernel puts 16 output rows in
//! them, for the transposed-left product and for NN column tails
//! narrower than a vector (DESIGN.md §17). `kernel_proptests.rs` pins
//! that equivalence against the naive oracle for every path the host
//! supports.
//!
//! Two vector implementations sit beside the scalar kernels, behind
//! one dispatch point (`gemm_nn`, `gemm_nn_noskip`, `gemm_tn`):
//!
//! | path     | width | mechanism |
//! |----------|-------|-----------|
//! | `Avx512` | 16    | `std::arch` zmm intrinsics, row kernel for TN and narrow NN |
//! | `Avx2`   | 8     | `std::arch` ymm intrinsics, `maskload` tails |
//! | `Scalar` | 1     | safe register-blocked Rust in `tensor.rs` (any arch) |
//!
//! The active path is chosen once per process (first kernel call) from
//! CPU feature detection, overridable via `HELCFL_SIMD=off|auto`:
//! `off` pins the scalar kernels, `auto` (or unset) picks the best
//! detected path — `Scalar` on a host without AVX2, non-x86_64 hosts
//! included. Unrecognized values warn once on stderr and fall back to
//! `auto`, mirroring `threads_from_env` in `fl-sim`.
//!
//! The NN and TN kernels skip an addend whose left scalar is `±0.0`,
//! like the scalar kernels: a skipped addend leaves the accumulator
//! untouched. The vector paths implement the skip without a branch —
//! the product is always computed and added under a lane mask (AVX-512
//! `mask_add`, AVX2 `blendv`) that is empty for a zero scalar. On ReLU
//! activations about half the scalars are zero in no learnable
//! pattern, so a branch there is mispredicted about half the time.
//!
//! Why no FMA anywhere: a fused multiply-add rounds once where the
//! scalar contract rounds twice, so `mul`+`add` stay separate in every
//! kernel — the cost is a ~1.5× lower ceiling than the hardware's FMA
//! peak, the payoff is that histories, golden CSVs, and checkpoint
//! fingerprints are identical no matter which path ran. See DESIGN.md
//! §17.

// Crate-wide `#![deny(unsafe_code)]` is lifted for this module only:
// the AVX2/AVX-512 kernels are raw std::arch intrinsics. The scalar
// path stays safe code in `tensor.rs`.
#![allow(unsafe_code)]

use crate::tensor::gemm_row;
use std::cell::Cell;
use std::sync::OnceLock;

/// One kernel implementation selectable at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPath {
    /// The register-blocked scalar kernels in `tensor.rs` — the
    /// reference oracle every other path must match bit-for-bit, and
    /// the path of every host without AVX2 (non-x86_64 included).
    Scalar,
    /// 8-lane `std::arch` AVX2 kernels with `maskload`/`maskstore`
    /// column tails.
    Avx2,
    /// 16-lane `std::arch` AVX-512F kernels with `__mmask16` column
    /// tails.
    Avx512,
}

impl SimdPath {
    /// Short lower-case name (`scalar`, `avx2`, `avx512`) for logs and
    /// telemetry.
    pub fn name(self) -> &'static str {
        match self {
            SimdPath::Scalar => "scalar",
            SimdPath::Avx2 => "avx2",
            SimdPath::Avx512 => "avx512",
        }
    }

    /// f32 lanes per vector register on this path (1 for scalar) —
    /// a numeric stand-in for the path in gauges.
    pub fn lanes(self) -> usize {
        match self {
            SimdPath::Scalar => 1,
            SimdPath::Avx2 => 8,
            SimdPath::Avx512 => 16,
        }
    }
}

impl std::fmt::Display for SimdPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parsed intent of the `HELCFL_SIMD` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Pin the scalar reference kernels.
    Off,
    /// Pick the best detected path (the default).
    Auto,
}

/// Parses a raw `HELCFL_SIMD` value. Pure so tests can cover the
/// table; the process-wide caller warns on stderr exactly once for an
/// unrecognized value (second tuple element), like `threads_from_env`.
pub fn simd_mode_from_env_value(raw: Option<&str>) -> (SimdMode, Option<String>) {
    let Some(raw) = raw else { return (SimdMode::Auto, None) };
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => (SimdMode::Auto, None),
        "off" | "0" | "false" | "scalar" => (SimdMode::Off, None),
        _ => (
            SimdMode::Auto,
            Some(format!(
                "HELCFL_SIMD: unrecognized value {raw:?} (expected off|auto); using auto"
            )),
        ),
    }
}

/// The widest path this host supports (`Scalar` when no vector ISA is
/// detected, and on non-x86_64 architectures).
fn best_detected() -> SimdPath {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return SimdPath::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdPath::Avx2;
        }
    }
    SimdPath::Scalar
}

/// Every path the host can execute, scalar first. Property tests
/// iterate this to pin cross-path bit-equality on one machine.
pub fn available_paths() -> Vec<SimdPath> {
    let mut paths = vec![SimdPath::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            paths.push(SimdPath::Avx2);
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            paths.push(SimdPath::Avx512);
        }
    }
    paths
}

static ACTIVE: OnceLock<SimdPath> = OnceLock::new();

thread_local! {
    static FORCED: Cell<Option<SimdPath>> = const { Cell::new(None) };
}

/// Forces the calling thread's kernel path, bypassing the process-wide
/// choice. `None` restores normal dispatch. Test-only: one process can
/// otherwise never execute two paths, which is exactly what the
/// cross-path bit-equality suites need to compare.
#[doc(hidden)]
pub fn force_path_for_tests(path: Option<SimdPath>) {
    FORCED.with(|f| f.set(path));
}

/// The kernel path every `tensor.rs` `_into` kernel dispatches on.
///
/// Resolved once per process from `HELCFL_SIMD` + CPU detection (a
/// thread-local test override is consulted first). `off` → scalar,
/// `auto` → the best detected path.
pub fn active_path() -> SimdPath {
    if let Some(forced) = FORCED.with(|f| f.get()) {
        return forced;
    }
    *ACTIVE.get_or_init(|| {
        let raw = std::env::var("HELCFL_SIMD").ok();
        let (mode, warning) = simd_mode_from_env_value(raw.as_deref());
        if let Some(warning) = warning {
            eprintln!("{warning}");
        }
        match mode {
            SimdMode::Off => SimdPath::Scalar,
            SimdMode::Auto => best_detected(),
        }
    })
}

// ---------------------------------------------------------------------
// Dispatch entry points (crate-internal; every `tensor.rs` product
// kernel calls one of these, which run the active path).
// ---------------------------------------------------------------------

/// `out(m×n) = lhs(m×k) · rhs(k×n)` with the scalar kernels' zero-skip
/// on `lhs` entries, plus optional fused bias/ReLU epilogue.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_nn(
    lhs: &[f32],
    m: usize,
    k: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
    bias: Option<&[f32]>,
    relu: bool,
) {
    debug_assert_eq!(lhs.len(), m * k);
    debug_assert_eq!(rhs.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    debug_assert!(bias.is_none_or(|b| b.len() == n));
    match active_path() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only selects these paths when the CPU
        // reports the feature (best_detected / available_paths).
        SimdPath::Avx2 => unsafe { avx2::nn::<true>(lhs, m, k, rhs, n, out, bias, relu) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdPath::Avx512 => unsafe { avx512::nn::<true>(lhs, m, k, rhs, n, out, bias, relu) },
        // `Scalar`, the only path a non-x86_64 host resolves to.
        _ => {
            for (lhs_row, out_row) in lhs.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                gemm_row::<true>(lhs_row, 1, k, rhs, n, out_row, bias, relu);
            }
        }
    }
}

/// `out(m×n) = lhs(m×k) · panel(k×n)` with **no** zero-skip — the
/// packed-transpose form of `matmul_nt`, whose documented contract
/// computes every addend.
pub(crate) fn gemm_nn_noskip(
    lhs: &[f32],
    m: usize,
    k: usize,
    panel: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(lhs.len(), m * k);
    debug_assert_eq!(panel.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    match active_path() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: feature-gated by dispatch, as in `gemm_nn`.
        SimdPath::Avx2 => unsafe { avx2::nn::<false>(lhs, m, k, panel, n, out, None, false) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdPath::Avx512 => unsafe { avx512::nn::<false>(lhs, m, k, panel, n, out, None, false) },
        _ => {
            for (lhs_row, out_row) in lhs.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                gemm_row::<false>(lhs_row, 1, k, panel, n, out_row, None, false);
            }
        }
    }
}

/// `out(m×n) = lhs(k×m)ᵀ · rhs(k×n)` with the scalar kernel's
/// zero-skip on `lhs` entries (`lhs` is walked down its columns).
pub(crate) fn gemm_tn(lhs: &[f32], k: usize, m: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(lhs.len(), k * m);
    debug_assert_eq!(rhs.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    match active_path() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: feature-gated by dispatch, as in `gemm_nn`.
        SimdPath::Avx2 => unsafe { avx2::tn(lhs, k, m, rhs, n, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdPath::Avx512 => unsafe { avx512::tn(lhs, k, m, rhs, n, out) },
        _ => {
            // Element `r` of output row `i`'s reduction operand is
            // column `i` of left row `r`: `lhs[i + r * m]`.
            for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
                gemm_row::<true>(&lhs[i..], m, k, rhs, n, out_row, None, false);
            }
        }
    }
}

/// Runs `iters` passes of a register-only loop of 16 independent
/// 16-lane AVX-512 operations — 8 multiply chains and 8 add chains, no
/// FMA — and returns the FLOPs it executed (16 per instruction), or
/// `None` on a host without AVX-512. Timing it measures the no-FMA
/// ceiling the kernels' GFLOP/s are read against: every kernel product
/// is one such multiply and one such add.
pub fn mul_add_peak_flops(iters: usize) -> Option<f64> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: the feature was just detected.
        std::hint::black_box(unsafe { avx512::mul_add_peak(iters) });
        return Some(iters as f64 * 16.0 * 16.0);
    }
    let _ = iters;
    None
}

// ---------------------------------------------------------------------
// AVX-512F kernels (16-lane zmm: column strips for wide NN, a row
// kernel with 16 output rows per vector for TN and narrow NN).
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    #![allow(clippy::needless_range_loop)]

    use core::arch::x86_64::*;

    /// Bias/ReLU epilogue on one full vector. The ReLU uses an ordered
    /// `< 0.0` compare plus masked move — NOT `max(v, 0)` — so NaN and
    /// `-0.0` pass through exactly like the scalar `if v < 0.0`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn epilogue(mut v: __m512, bias: Option<&[f32]>, j: usize, relu: bool) -> __m512 {
        if let Some(bias) = bias {
            v = _mm512_add_ps(v, _mm512_loadu_ps(bias.as_ptr().add(j)));
        }
        if relu {
            let zero = _mm512_setzero_ps();
            let neg = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(v, zero);
            v = _mm512_mask_mov_ps(v, neg, zero);
        }
        v
    }

    /// Lanes that take the addend `av·bv`: all of them without `SKIP`,
    /// and with it every lane whose left scalar in `av` is not `±0.0`.
    /// `NEQ_UQ` is true for NaN, so a NaN scalar is accumulated, as in
    /// the scalar kernel.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn live<const SKIP: bool>(av: __m512) -> __mmask16 {
        if SKIP {
            _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(av, _mm512_setzero_ps())
        } else {
            !0
        }
    }

    /// `acc + av·bv` in the `live` lanes, `acc` untouched elsewhere: the
    /// zero-skip as a masked add instead of a branch on the data.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn accumulate(acc: __m512, live: __mmask16, av: __m512, bv: __m512) -> __m512 {
        _mm512_mask_add_ps(acc, live, acc, _mm512_mul_ps(av, bv))
    }

    /// The low `len` lanes (`len` ≤ 16).
    #[inline]
    fn low_lanes(len: usize) -> __mmask16 {
        debug_assert!(len <= 16);
        (((1u32 << len) - 1) & 0xFFFF) as __mmask16
    }

    /// [`epilogue`] for a masked tail vector (`mask` = active lanes).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn epilogue_masked(
        mut v: __m512,
        bias: Option<&[f32]>,
        j: usize,
        mask: __mmask16,
        relu: bool,
    ) -> __m512 {
        if let Some(bias) = bias {
            v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(mask, bias.as_ptr().add(j)));
        }
        if relu {
            let zero = _mm512_setzero_ps();
            let neg = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(v, zero);
            v = _mm512_mask_mov_ps(v, neg, zero);
        }
        v
    }

    /// In-register 16×16 transpose: lane `j` of `r[i]` moves to lane
    /// `i` of `r[j]`. Three rounds of 16 shuffles regroup pairs, then
    /// quads, then 128-bit lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose16(r: &mut [__m512; 16]) {
        // Pairs: t[2p] holds rows 2p and 2p+1 interleaved over columns
        // 4L, 4L+1 of each 128-bit lane L; t[2p+1] over 4L+2, 4L+3.
        let mut t = [_mm512_setzero_ps(); 16];
        for p in 0..8 {
            t[2 * p] = _mm512_unpacklo_ps(r[2 * p], r[2 * p + 1]);
            t[2 * p + 1] = _mm512_unpackhi_ps(r[2 * p], r[2 * p + 1]);
        }
        // Quads: u[4q + c] lane L holds column 4L + c of rows 4q..4q+4.
        let mut u = [_mm512_setzero_ps(); 16];
        for q in 0..4 {
            let pd = |v: __m512| _mm512_castps_pd(v);
            let (a, b) = (pd(t[4 * q]), pd(t[4 * q + 2]));
            let (c, d) = (pd(t[4 * q + 1]), pd(t[4 * q + 3]));
            u[4 * q] = _mm512_castpd_ps(_mm512_unpacklo_pd(a, b));
            u[4 * q + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(a, b));
            u[4 * q + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(c, d));
            u[4 * q + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(c, d));
        }
        // Lanes: column 4L + c gathers lane L of u[c], u[4+c], u[8+c],
        // u[12+c] — a 4×4 transpose of 128-bit lanes.
        for c in 0..4 {
            let v0 = _mm512_shuffle_f32x4::<0x44>(u[c], u[4 + c]);
            let v1 = _mm512_shuffle_f32x4::<0xEE>(u[c], u[4 + c]);
            let v2 = _mm512_shuffle_f32x4::<0x44>(u[8 + c], u[12 + c]);
            let v3 = _mm512_shuffle_f32x4::<0xEE>(u[8 + c], u[12 + c]);
            r[c] = _mm512_shuffle_f32x4::<0x88>(v0, v2);
            r[4 + c] = _mm512_shuffle_f32x4::<0xDD>(v0, v2);
            r[8 + c] = _mm512_shuffle_f32x4::<0x88>(v1, v3);
            r[12 + c] = _mm512_shuffle_f32x4::<0xDD>(v1, v3);
        }
    }

    /// The row kernel: lanes are 16 output rows, `acc[j]` is output
    /// column `j` of the tile. Step `s` loads the rows' 16 left scalars
    /// `a[s*a_stride..]` (lanes outside `amask` read as `0.0`), tests
    /// them against zero once, and adds `av·b[s*n + j]` into every
    /// column's accumulator under that one mask.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F. For every `s < steps`, the `amask`
    /// lanes of `a + s*a_stride` and the `NC` floats at `b + s*n` are
    /// readable.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn rows<const NC: usize, const SKIP: bool>(
        acc: &mut [__m512; NC],
        a: *const f32,
        a_stride: usize,
        amask: __mmask16,
        steps: usize,
        b: *const f32,
        n: usize,
    ) {
        for s in 0..steps {
            let av = _mm512_maskz_loadu_ps(amask, a.add(s * a_stride));
            let live = live::<SKIP>(av);
            let brow = b.add(s * n);
            for j in 0..NC {
                acc[j] = accumulate(acc[j], live, av, _mm512_set1_ps(*brow.add(j)));
            }
        }
    }

    /// Stores a row-kernel tile: transposes the `NC` column
    /// accumulators back to row vectors and writes the first `mr` rows
    /// of columns `j0..j0+NC` through the bias/ReLU epilogue.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F, `out` holds rows `i0..i0+mr` of an
    /// `n`-column matrix, `j0 + NC <= n`, and `bias` (if any) has `n`
    /// entries.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store_rows<const NC: usize>(
        acc: &[__m512; NC],
        out: &mut [f32],
        n: usize,
        i0: usize,
        mr: usize,
        j0: usize,
        bias: Option<&[f32]>,
        relu: bool,
    ) {
        let mut r = [_mm512_setzero_ps(); 16];
        r[..NC].copy_from_slice(acc);
        transpose16(&mut r);
        let mask = low_lanes(NC);
        for t in 0..mr {
            let cv = epilogue_masked(r[t], bias, j0, mask, relu);
            _mm512_mask_storeu_ps(out.as_mut_ptr().add((i0 + t) * n + j0), mask, cv);
        }
    }

    /// One 16-row × `NC`-column NN tile at `(i0, j0)`. Each 16×16 block
    /// of `lhs` rows `i0..i0+16` is transposed in registers, so that
    /// vector `q` holds reduction index `kk0 + q` of all 16 rows, and
    /// fed to [`rows`].
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F, `lhs` is `m×k` with `i0 + 16 <= m`,
    /// `rhs` is `k×n`, `out` is `m×n`, `j0 + NC <= n`, and `bias` (if
    /// any) has `n` entries.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    unsafe fn nn_rows<const NC: usize, const SKIP: bool>(
        lhs: &[f32],
        k: usize,
        rhs: &[f32],
        n: usize,
        i0: usize,
        j0: usize,
        out: &mut [f32],
        bias: Option<&[f32]>,
        relu: bool,
    ) {
        let mut acc = [_mm512_setzero_ps(); NC];
        let mut kk0 = 0;
        while kk0 < k {
            let kc = (k - kk0).min(16);
            let kmask = low_lanes(kc);
            let mut block = [_mm512_setzero_ps(); 16];
            for t in 0..16 {
                block[t] = _mm512_maskz_loadu_ps(kmask, lhs.as_ptr().add((i0 + t) * k + kk0));
            }
            transpose16(&mut block);
            let b = rhs.as_ptr().add(kk0 * n + j0);
            rows::<NC, SKIP>(&mut acc, block.as_ptr().cast(), 16, !0, kc, b, n);
            kk0 += 16;
        }
        store_rows::<NC>(&acc, out, n, i0, 16, j0, bias, relu);
    }

    /// One strip of `NV` full vectors (16·NV columns at `j0`), all
    /// rows. Per row: NV zmm accumulators live across the whole
    /// ascending-`k` reduction; one zero test on the broadcast scalar
    /// masks all NV adds.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    unsafe fn nn_strip<const NV: usize, const SKIP: bool>(
        lhs: &[f32],
        m: usize,
        k: usize,
        rhs: &[f32],
        n: usize,
        j0: usize,
        out: &mut [f32],
        bias: Option<&[f32]>,
        relu: bool,
    ) {
        for i in 0..m {
            let mut acc = [_mm512_setzero_ps(); NV];
            let arow = lhs.as_ptr().add(i * k);
            for kk in 0..k {
                let av = _mm512_set1_ps(*arow.add(kk));
                let live = live::<SKIP>(av);
                let brow = rhs.as_ptr().add(kk * n + j0);
                for v in 0..NV {
                    let bv = _mm512_loadu_ps(brow.add(v * 16));
                    acc[v] = accumulate(acc[v], live, av, bv);
                }
            }
            let orow = out.as_mut_ptr().add(i * n + j0);
            for v in 0..NV {
                let cv = epilogue(acc[v], bias, j0 + v * 16, relu);
                _mm512_storeu_ps(orow.add(v * 16), cv);
            }
        }
    }

    /// The sub-16-column tail (`rem = n - j0` lanes under `__mmask16`)
    /// for rows `i0..m`, four rows at a time so the masked `rhs` load
    /// is amortized across row accumulators. It serves the fewer than
    /// 16 rows that [`nn_rows`] leaves over.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    unsafe fn nn_tail<const SKIP: bool>(
        lhs: &[f32],
        i0: usize,
        m: usize,
        k: usize,
        rhs: &[f32],
        n: usize,
        j0: usize,
        out: &mut [f32],
        bias: Option<&[f32]>,
        relu: bool,
    ) {
        let rem = n - j0;
        debug_assert!((1..16).contains(&rem));
        let mask = low_lanes(rem);
        let mut i = i0;
        while i + 4 <= m {
            let mut acc = [_mm512_setzero_ps(); 4];
            for kk in 0..k {
                let bv = _mm512_maskz_loadu_ps(mask, rhs.as_ptr().add(kk * n + j0));
                for r in 0..4 {
                    let av = _mm512_set1_ps(*lhs.as_ptr().add((i + r) * k + kk));
                    acc[r] = accumulate(acc[r], live::<SKIP>(av), av, bv);
                }
            }
            for r in 0..4 {
                let cv = epilogue_masked(acc[r], bias, j0, mask, relu);
                _mm512_mask_storeu_ps(out.as_mut_ptr().add((i + r) * n + j0), mask, cv);
            }
            i += 4;
        }
        while i < m {
            let mut acc = _mm512_setzero_ps();
            for kk in 0..k {
                let av = _mm512_set1_ps(*lhs.as_ptr().add(i * k + kk));
                let bv = _mm512_maskz_loadu_ps(mask, rhs.as_ptr().add(kk * n + j0));
                acc = accumulate(acc, live::<SKIP>(av), av, bv);
            }
            let cv = epilogue_masked(acc, bias, j0, mask, relu);
            _mm512_mask_storeu_ps(out.as_mut_ptr().add(i * n + j0), mask, cv);
            i += 1;
        }
    }

    /// Calls `$f::<NC, ..>($args)` with the tile width `NC` equal to the
    /// runtime column count `$nc` (1..16), so every narrow tile keeps
    /// its accumulators in registers.
    macro_rules! with_tile_width {
        ($nc:expr, $f:ident::<_ $(, $g:tt)*>($($arg:expr),* $(,)?)) => {
            match $nc {
                1 => $f::<1 $(, $g)*>($($arg),*),
                2 => $f::<2 $(, $g)*>($($arg),*),
                3 => $f::<3 $(, $g)*>($($arg),*),
                4 => $f::<4 $(, $g)*>($($arg),*),
                5 => $f::<5 $(, $g)*>($($arg),*),
                6 => $f::<6 $(, $g)*>($($arg),*),
                7 => $f::<7 $(, $g)*>($($arg),*),
                8 => $f::<8 $(, $g)*>($($arg),*),
                9 => $f::<9 $(, $g)*>($($arg),*),
                10 => $f::<10 $(, $g)*>($($arg),*),
                11 => $f::<11 $(, $g)*>($($arg),*),
                12 => $f::<12 $(, $g)*>($($arg),*),
                13 => $f::<13 $(, $g)*>($($arg),*),
                14 => $f::<14 $(, $g)*>($($arg),*),
                15 => $f::<15 $(, $g)*>($($arg),*),
                nc => unreachable!("tile width {nc} is not in 1..16"),
            }
        };
    }

    /// NN driver: 64-column strips (4 zmm/row), then 16-column strips,
    /// then the sub-16-column tail — through the row kernel on each
    /// full 16-row block, and the 4-row [`nn_tail`] on the rows left
    /// over (a part-empty 16-row block measured slower than it at 20
    /// rows).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn nn<const SKIP: bool>(
        lhs: &[f32],
        m: usize,
        k: usize,
        rhs: &[f32],
        n: usize,
        out: &mut [f32],
        bias: Option<&[f32]>,
        relu: bool,
    ) {
        let mut j = 0;
        while j + 64 <= n {
            nn_strip::<4, SKIP>(lhs, m, k, rhs, n, j, out, bias, relu);
            j += 64;
        }
        while j + 16 <= n {
            nn_strip::<1, SKIP>(lhs, m, k, rhs, n, j, out, bias, relu);
            j += 16;
        }
        if j < n {
            let full = m - m % 16;
            for i0 in (0..full).step_by(16) {
                with_tile_width!(
                    n - j,
                    nn_rows::<_, SKIP>(lhs, k, rhs, n, i0, j, out, bias, relu)
                );
            }
            if full < m {
                nn_tail::<SKIP>(lhs, full, m, k, rhs, n, j, out, bias, relu);
            }
        }
    }

    /// One TN tile: output rows `i0..i0+mr` × columns `j0..j0+NC`. Row
    /// `r` of `lhs` already holds the tile's 16 left scalars
    /// contiguously (`lhs[r*m + i0..]`), so [`rows`] reads them in
    /// place, masked to `mr` lanes at the bottom edge.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F, `lhs` is `k×m` with `i0 + mr <= m`
    /// and `mr <= 16`, `rhs` is `k×n`, `out` is `m×n`, and
    /// `j0 + NC <= n`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    unsafe fn tn_tile<const NC: usize>(
        lhs: &[f32],
        k: usize,
        m: usize,
        rhs: &[f32],
        n: usize,
        i0: usize,
        mr: usize,
        j0: usize,
        out: &mut [f32],
    ) {
        let mut acc = [_mm512_setzero_ps(); NC];
        let (a, b) = (lhs.as_ptr().add(i0), rhs.as_ptr().add(j0));
        rows::<NC, true>(&mut acc, a, m, low_lanes(mr), k, b, n);
        store_rows::<NC>(&acc, out, n, i0, mr, j0, None, false);
    }

    /// TN driver: 16-row blocks (the last one masked), each in 16-column
    /// tiles and one narrower tile, all through the row kernel.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tn(lhs: &[f32], k: usize, m: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
        for i0 in (0..m).step_by(16) {
            let mr = (m - i0).min(16);
            let mut j = 0;
            while j + 16 <= n {
                tn_tile::<16>(lhs, k, m, rhs, n, i0, mr, j, out);
                j += 16;
            }
            if j < n {
                with_tile_width!(n - j, tn_tile::<_>(lhs, k, m, rhs, n, i0, mr, j, out));
            }
        }
    }
    /// The register-only loop behind [`super::mul_add_peak_flops`]. The
    /// operands pass through `black_box`, so the compiler can neither
    /// fold `x·1` and `x+0` away nor hoist the loop; the lane sum it
    /// returns keeps the chains live.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn mul_add_peak(iters: usize) -> f32 {
        let bb = std::hint::black_box;
        let (one, zero) = (bb(_mm512_set1_ps(1.0)), bb(_mm512_setzero_ps()));
        let mut chains = [bb(_mm512_set1_ps(0.5)); 16];
        for _ in 0..iters {
            for c in 0..8 {
                chains[c] = _mm512_mul_ps(chains[c], one);
                chains[8 + c] = _mm512_add_ps(chains[8 + c], zero);
            }
        }
        let mut sum = zero;
        for c in chains {
            sum = _mm512_add_ps(sum, c);
        }
        _mm512_reduce_add_ps(sum)
    }
}

// ---------------------------------------------------------------------
// AVX2 kernels (8-lane ymm, maskload/maskstore column tails).
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![allow(clippy::needless_range_loop)]

    use core::arch::x86_64::*;

    /// Lane mask for an `rem`-lane tail (`-1` in active lanes): the
    /// sign-bit form `maskload`/`maskstore` consume.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tail_mask(rem: usize) -> __m256i {
        let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(rem as i32), idx)
    }

    /// `acc + av·bv`, except that with `SKIP` every lane keeps `acc`
    /// when the broadcast scalar `av` is `±0.0`: the zero-skip as a
    /// blend instead of a branch on the data. `NEQ_UQ` is true for NaN,
    /// so a NaN scalar is accumulated, as in the scalar kernel.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn accumulate<const SKIP: bool>(acc: __m256, av: __m256, bv: __m256) -> __m256 {
        let sum = _mm256_add_ps(acc, _mm256_mul_ps(av, bv));
        if SKIP {
            let live = _mm256_cmp_ps::<_CMP_NEQ_UQ>(av, _mm256_setzero_ps());
            _mm256_blendv_ps(acc, sum, live)
        } else {
            sum
        }
    }

    /// Bias/ReLU epilogue: ordered `< 0.0` compare + `andnot`, so NaN
    /// and `-0.0` pass through exactly like the scalar `if v < 0.0`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn epilogue(mut v: __m256, bias_v: Option<__m256>, relu: bool) -> __m256 {
        if let Some(b) = bias_v {
            v = _mm256_add_ps(v, b);
        }
        if relu {
            let neg = _mm256_cmp_ps::<_CMP_LT_OQ>(v, _mm256_setzero_ps());
            v = _mm256_andnot_ps(neg, v);
        }
        v
    }

    /// One strip of `NV` full vectors (8·NV columns at `j0`), all rows.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn nn_strip<const NV: usize, const SKIP: bool>(
        lhs: &[f32],
        m: usize,
        k: usize,
        rhs: &[f32],
        n: usize,
        j0: usize,
        out: &mut [f32],
        bias: Option<&[f32]>,
        relu: bool,
    ) {
        for i in 0..m {
            let mut acc = [_mm256_setzero_ps(); NV];
            let arow = lhs.as_ptr().add(i * k);
            for kk in 0..k {
                let av = _mm256_set1_ps(*arow.add(kk));
                let brow = rhs.as_ptr().add(kk * n + j0);
                for v in 0..NV {
                    let bv = _mm256_loadu_ps(brow.add(v * 8));
                    acc[v] = accumulate::<SKIP>(acc[v], av, bv);
                }
            }
            let orow = out.as_mut_ptr().add(i * n + j0);
            for v in 0..NV {
                let bv = bias.map(|b| _mm256_loadu_ps(b.as_ptr().add(j0 + v * 8)));
                _mm256_storeu_ps(orow.add(v * 8), epilogue(acc[v], bv, relu));
            }
        }
    }

    /// Masked sub-8-column tail, four rows per pass with the masked
    /// `rhs` load hoisted across row accumulators.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn nn_tail<const SKIP: bool>(
        lhs: &[f32],
        m: usize,
        k: usize,
        rhs: &[f32],
        n: usize,
        j0: usize,
        out: &mut [f32],
        bias: Option<&[f32]>,
        relu: bool,
    ) {
        let rem = n - j0;
        debug_assert!((1..8).contains(&rem));
        let mask = tail_mask(rem);
        let bias_v = bias.map(|b| _mm256_maskload_ps(b.as_ptr().add(j0), mask));
        let mut i = 0;
        while i + 4 <= m {
            let mut acc = [_mm256_setzero_ps(); 4];
            for kk in 0..k {
                let bv = _mm256_maskload_ps(rhs.as_ptr().add(kk * n + j0), mask);
                for r in 0..4 {
                    let av = _mm256_set1_ps(*lhs.as_ptr().add((i + r) * k + kk));
                    acc[r] = accumulate::<SKIP>(acc[r], av, bv);
                }
            }
            for r in 0..4 {
                let cv = epilogue(acc[r], bias_v, relu);
                _mm256_maskstore_ps(out.as_mut_ptr().add((i + r) * n + j0), mask, cv);
            }
            i += 4;
        }
        while i < m {
            let mut acc = _mm256_setzero_ps();
            for kk in 0..k {
                let av = _mm256_set1_ps(*lhs.as_ptr().add(i * k + kk));
                let bv = _mm256_maskload_ps(rhs.as_ptr().add(kk * n + j0), mask);
                acc = accumulate::<SKIP>(acc, av, bv);
            }
            let cv = epilogue(acc, bias_v, relu);
            _mm256_maskstore_ps(out.as_mut_ptr().add(i * n + j0), mask, cv);
            i += 1;
        }
    }

    /// NN driver: 32-column strips (4 ymm/row), then 8-column strips,
    /// then one masked tail.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn nn<const SKIP: bool>(
        lhs: &[f32],
        m: usize,
        k: usize,
        rhs: &[f32],
        n: usize,
        out: &mut [f32],
        bias: Option<&[f32]>,
        relu: bool,
    ) {
        let mut j = 0;
        while j + 32 <= n {
            nn_strip::<4, SKIP>(lhs, m, k, rhs, n, j, out, bias, relu);
            j += 32;
        }
        while j + 8 <= n {
            nn_strip::<1, SKIP>(lhs, m, k, rhs, n, j, out, bias, relu);
            j += 8;
        }
        if j < n {
            nn_tail::<SKIP>(lhs, m, k, rhs, n, j, out, bias, relu);
        }
    }

    /// One `MI`-row × 8-column TN block; the `rhs` vector is loaded
    /// once per `k` and shared across the `MI` contiguous left scalars.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn tn_block<const MI: usize>(
        lhs: &[f32],
        k: usize,
        m: usize,
        rhs: &[f32],
        n: usize,
        i0: usize,
        j0: usize,
        out: &mut [f32],
    ) {
        let mut acc = [_mm256_setzero_ps(); MI];
        for r in 0..k {
            let bv = _mm256_loadu_ps(rhs.as_ptr().add(r * n + j0));
            let arow = lhs.as_ptr().add(r * m + i0);
            for t in 0..MI {
                acc[t] = accumulate::<true>(acc[t], _mm256_set1_ps(*arow.add(t)), bv);
            }
        }
        for t in 0..MI {
            _mm256_storeu_ps(out.as_mut_ptr().add((i0 + t) * n + j0), acc[t]);
        }
    }

    /// Masked-tail TN columns, four rows per pass.
    #[target_feature(enable = "avx2")]
    unsafe fn tn_tail(lhs: &[f32], k: usize, m: usize, rhs: &[f32], n: usize, j0: usize, out: &mut [f32]) {
        let rem = n - j0;
        debug_assert!((1..8).contains(&rem));
        let mask = tail_mask(rem);
        let mut i = 0;
        while i + 4 <= m {
            let mut acc = [_mm256_setzero_ps(); 4];
            for r in 0..k {
                let bv = _mm256_maskload_ps(rhs.as_ptr().add(r * n + j0), mask);
                let arow = lhs.as_ptr().add(r * m + i);
                for t in 0..4 {
                    acc[t] = accumulate::<true>(acc[t], _mm256_set1_ps(*arow.add(t)), bv);
                }
            }
            for t in 0..4 {
                _mm256_maskstore_ps(out.as_mut_ptr().add((i + t) * n + j0), mask, acc[t]);
            }
            i += 4;
        }
        while i < m {
            let mut acc = _mm256_setzero_ps();
            for r in 0..k {
                let av = _mm256_set1_ps(*lhs.as_ptr().add(r * m + i));
                let bv = _mm256_maskload_ps(rhs.as_ptr().add(r * n + j0), mask);
                acc = accumulate::<true>(acc, av, bv);
            }
            _mm256_maskstore_ps(out.as_mut_ptr().add(i * n + j0), mask, acc);
            i += 1;
        }
    }

    /// TN driver: 8-column strips in 8-row blocks (plus single-row
    /// remainder), then one masked tail.
    #[target_feature(enable = "avx2")]
    pub unsafe fn tn(lhs: &[f32], k: usize, m: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
        let mut j = 0;
        while j + 8 <= n {
            let mut i = 0;
            while i + 8 <= m {
                tn_block::<8>(lhs, k, m, rhs, n, i, j, out);
                i += 8;
            }
            while i < m {
                tn_block::<1>(lhs, k, m, rhs, n, i, j, out);
                i += 1;
            }
            j += 8;
        }
        if j < n {
            tn_tail(lhs, k, m, rhs, n, j, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parse_table() {
        assert_eq!(simd_mode_from_env_value(None), (SimdMode::Auto, None));
        for v in ["", "auto", " AUTO ", "Auto"] {
            assert_eq!(simd_mode_from_env_value(Some(v)), (SimdMode::Auto, None), "{v:?}");
        }
        for v in ["off", "OFF", "0", "false", "scalar", " Scalar "] {
            assert_eq!(simd_mode_from_env_value(Some(v)), (SimdMode::Off, None), "{v:?}");
        }
        // `on` and its aliases name no path: like any unknown value,
        // they warn, then run auto.
        for v in ["avx9000", "on", "ON", "1", "true", "simd", " SIMD "] {
            let (mode, warning) = simd_mode_from_env_value(Some(v));
            assert_eq!(mode, SimdMode::Auto, "{v:?}");
            let warning = warning.expect("unknown value must warn");
            assert!(warning.contains(v), "{warning}");
            assert!(warning.contains("off|auto"), "{warning}");
        }
    }

    #[test]
    fn available_paths_start_with_scalar() {
        let paths = available_paths();
        assert_eq!(paths[0], SimdPath::Scalar);
        // Whatever else the host offers must be a vector path.
        for p in &paths[1..] {
            assert!(matches!(p, SimdPath::Avx2 | SimdPath::Avx512));
        }
    }

    #[test]
    fn force_path_overrides_and_restores() {
        force_path_for_tests(Some(SimdPath::Scalar));
        assert_eq!(active_path(), SimdPath::Scalar);
        force_path_for_tests(None);
        // Back to the process-wide choice, whatever it is.
        let p = active_path();
        assert!(available_paths().contains(&p));
    }

    #[test]
    fn path_names_are_stable() {
        assert_eq!(SimdPath::Scalar.name(), "scalar");
        assert_eq!(SimdPath::Avx2.name(), "avx2");
        assert_eq!(SimdPath::Avx512.to_string(), "avx512");
    }
}

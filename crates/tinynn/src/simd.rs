//! Explicit-SIMD kernel paths and their runtime dispatch.
//!
//! The scalar kernels in [`crate::tensor`] define the numeric contract:
//! one `f32` accumulator per output element, walked in ascending
//! reduction index, with separate multiply and add (no FMA
//! contraction). The vector kernels here widen that recipe across the
//! output-column dimension — each SIMD lane *is* one output element's
//! accumulator, fed the identical ascending-`k` addend sequence — so
//! every path produces bit-identical results. `kernel_proptests.rs`
//! pins that equivalence against the naive oracle for every path the
//! host supports.
//!
//! Three vector implementations exist behind one dispatch point:
//!
//! | path        | width | mechanism |
//! |-------------|-------|-----------|
//! | `Avx512`    | 16    | `std::arch` zmm intrinsics, masked tails |
//! | `Avx2`      | 8     | `std::arch` ymm intrinsics, `maskload` tails |
//! | `Portable8` | 8     | safe 8-wide chunked Rust (any arch) |
//!
//! The active path is chosen once per process (first kernel call) from
//! CPU feature detection, overridable via `HELCFL_SIMD=off|on|auto`:
//! `off` pins the scalar reference kernels, `on` insists on a vector
//! path (portable fallback if no vector ISA is detected), `auto` (or
//! unset) picks the best detected path. Unrecognized values warn once
//! on stderr and fall back to `auto`, mirroring `threads_from_env` in
//! `fl-sim`.
//!
//! The NN and TN kernels skip an addend whose left scalar is `±0.0`,
//! like the scalar kernels: a skipped addend leaves the accumulator
//! untouched. The vector paths implement the skip without a branch —
//! the product is always computed and added under a lane mask (AVX-512
//! `mask_add`, AVX2 `blendv`, a select in `Portable8`) that is empty
//! for a zero scalar. On ReLU activations about half the scalars are
//! zero in no learnable pattern, so a branch there is mispredicted
//! about half the time.
//!
//! Why no FMA anywhere: a fused multiply-add rounds once where the
//! scalar contract rounds twice, so `mul`+`add` stay separate in every
//! kernel — the cost is a ~1.5× lower ceiling than the hardware's FMA
//! peak, the payoff is that histories, golden CSVs, and checkpoint
//! fingerprints are identical no matter which path ran. See DESIGN.md
//! §17.

// Crate-wide `#![deny(unsafe_code)]` is lifted for this module only:
// the AVX2/AVX-512 kernels are raw std::arch intrinsics. The portable
// and scalar paths remain safe code.
#![allow(unsafe_code)]

use std::cell::Cell;
use std::sync::OnceLock;

/// One kernel implementation selectable at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPath {
    /// The register-blocked scalar kernels in `tensor.rs` — the
    /// reference oracle every other path must match bit-for-bit.
    Scalar,
    /// Safe 8-wide chunked Rust; the fallback when no vector ISA is
    /// detected (or on non-x86_64 hosts).
    Portable8,
    /// 8-lane `std::arch` AVX2 kernels with `maskload`/`maskstore`
    /// column tails.
    Avx2,
    /// 16-lane `std::arch` AVX-512F kernels with `__mmask16` column
    /// tails.
    Avx512,
}

impl SimdPath {
    /// Short lower-case name (`scalar`, `portable8`, `avx2`,
    /// `avx512`) for logs and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            SimdPath::Scalar => "scalar",
            SimdPath::Portable8 => "portable8",
            SimdPath::Avx2 => "avx2",
            SimdPath::Avx512 => "avx512",
        }
    }

    /// f32 lanes per vector register on this path (1 for scalar) —
    /// a numeric stand-in for the path in gauges.
    pub fn lanes(self) -> usize {
        match self {
            SimdPath::Scalar => 1,
            SimdPath::Portable8 | SimdPath::Avx2 => 8,
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
    /// Insist on a vector path (portable fallback if none detected).
    On,
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
        "on" | "1" | "true" | "simd" => (SimdMode::On, None),
        _ => (
            SimdMode::Auto,
            Some(format!(
                "HELCFL_SIMD: unrecognized value {raw:?} (expected off|on|auto); using auto"
            )),
        ),
    }
}

/// The widest vector path this host supports (`Portable8` when no
/// vector ISA is detected, and on non-x86_64 architectures).
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
    SimdPath::Portable8
}

/// Every path the host can execute, scalar first. Property tests
/// iterate this to pin cross-path bit-equality on one machine.
pub fn available_paths() -> Vec<SimdPath> {
    let mut paths = vec![SimdPath::Scalar, SimdPath::Portable8];
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
/// `on`/`auto` → the best detected vector path.
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
            SimdMode::On | SimdMode::Auto => best_detected(),
        }
    })
}

// ---------------------------------------------------------------------
// Dispatch entry points (crate-internal; `tensor.rs` calls these for
// every non-scalar path).
// ---------------------------------------------------------------------

/// `out(m×n) = lhs(m×k) · rhs(k×n)` with the scalar kernels' zero-skip
/// on `lhs` entries, plus optional fused bias/ReLU epilogue.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_nn(
    path: SimdPath,
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
    match path {
        SimdPath::Scalar | SimdPath::Portable8 => {
            portable::nn::<true>(lhs, m, k, rhs, n, out, bias, relu);
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only selects these paths when the CPU
        // reports the feature (best_detected / available_paths).
        SimdPath::Avx2 => unsafe { avx2::nn::<true>(lhs, m, k, rhs, n, out, bias, relu) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdPath::Avx512 => unsafe { avx512::nn::<true>(lhs, m, k, rhs, n, out, bias, relu) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => portable::nn::<true>(lhs, m, k, rhs, n, out, bias, relu),
    }
}

/// `out(m×n) = lhs(m×k) · panel(k×n)` with **no** zero-skip — the
/// packed-transpose form of `matmul_nt`, whose documented contract
/// computes every addend.
pub(crate) fn gemm_nn_noskip(
    path: SimdPath,
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
    match path {
        SimdPath::Scalar | SimdPath::Portable8 => {
            portable::nn::<false>(lhs, m, k, panel, n, out, None, false);
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: feature-gated by dispatch, as in `gemm_nn`.
        SimdPath::Avx2 => unsafe { avx2::nn::<false>(lhs, m, k, panel, n, out, None, false) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdPath::Avx512 => unsafe { avx512::nn::<false>(lhs, m, k, panel, n, out, None, false) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => portable::nn::<false>(lhs, m, k, panel, n, out, None, false),
    }
}

/// `out(m×n) = lhs(k×m)ᵀ · rhs(k×n)` with the scalar kernel's
/// zero-skip on `lhs` entries (`lhs` is walked down its columns).
pub(crate) fn gemm_tn(
    path: SimdPath,
    lhs: &[f32],
    k: usize,
    m: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(lhs.len(), k * m);
    debug_assert_eq!(rhs.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    match path {
        SimdPath::Scalar | SimdPath::Portable8 => portable::tn(lhs, k, m, rhs, n, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: feature-gated by dispatch, as in `gemm_nn`.
        SimdPath::Avx2 => unsafe { avx2::tn(lhs, k, m, rhs, n, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdPath::Avx512 => unsafe { avx512::tn(lhs, k, m, rhs, n, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => portable::tn(lhs, k, m, rhs, n, out),
    }
}

// ---------------------------------------------------------------------
// Portable 8-wide chunked fallback (safe Rust, any architecture).
// ---------------------------------------------------------------------

mod portable {
    /// Finishes one chunk: optional bias add, optional ReLU clamp
    /// (`v < 0.0` — NaN and `-0.0` pass through, like the scalar
    /// epilogue), then store.
    #[inline]
    fn store(orow: &mut [f32], acc: &[f32], bias: Option<&[f32]>, j: usize, relu: bool) {
        for (l, (o, &s)) in orow.iter_mut().zip(acc).enumerate() {
            let v = match bias {
                Some(bias) => s + bias[j + l],
                None => s,
            };
            *o = if relu && v < 0.0 { 0.0 } else { v };
        }
    }

    /// `acc += a·b` lane by lane, except that a zero `a` (with `SKIP`)
    /// leaves `acc` untouched. The sum is always computed and the old
    /// accumulator selected back, so there is no branch on the data.
    #[inline]
    fn accumulate<const SKIP: bool>(acc: &mut [f32], a: f32, brow: &[f32]) {
        let skip = SKIP && a == 0.0;
        for (s, &b) in acc.iter_mut().zip(brow) {
            let sum = *s + a * b;
            *s = if skip { *s } else { sum };
        }
    }

    /// One output row in 8-wide column chunks plus one narrower tail
    /// chunk. The reduction operand is `lhs[base + kk*stride]`
    /// (`stride == 1` for NN, `stride == m` for TN), exactly like the
    /// scalar `gemm_row`.
    #[allow(clippy::too_many_arguments)]
    fn row<const SKIP: bool>(
        lhs: &[f32],
        base: usize,
        stride: usize,
        len: usize,
        rhs: &[f32],
        n: usize,
        orow: &mut [f32],
        bias: Option<&[f32]>,
        relu: bool,
    ) {
        let mut j = 0;
        while j + 8 <= n {
            let mut acc = [0.0f32; 8];
            for kk in 0..len {
                let brow = &rhs[kk * n + j..kk * n + j + 8];
                accumulate::<SKIP>(&mut acc, lhs[base + kk * stride], brow);
            }
            store(&mut orow[j..j + 8], &acc, bias, j, relu);
            j += 8;
        }
        if j < n {
            let rem = n - j;
            let mut acc = [0.0f32; 8];
            for kk in 0..len {
                let brow = &rhs[kk * n + j..kk * n + j + rem];
                accumulate::<SKIP>(&mut acc[..rem], lhs[base + kk * stride], brow);
            }
            store(&mut orow[j..], &acc[..rem], bias, j, relu);
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn nn<const SKIP: bool>(
        lhs: &[f32],
        m: usize,
        k: usize,
        rhs: &[f32],
        n: usize,
        out: &mut [f32],
        bias: Option<&[f32]>,
        relu: bool,
    ) {
        for (i, orow) in out.chunks_exact_mut(n).take(m).enumerate() {
            row::<SKIP>(lhs, i * k, 1, k, rhs, n, orow, bias, relu);
        }
    }

    pub fn tn(lhs: &[f32], k: usize, m: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
        for (i, orow) in out.chunks_exact_mut(n).take(m).enumerate() {
            row::<true>(lhs, i, m, k, rhs, n, orow, None, false);
        }
    }
}

// ---------------------------------------------------------------------
// AVX-512F kernels (16-lane zmm, masked column tails).
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
    /// none when the broadcast scalar `av` is `±0.0` with it. `NEQ_UQ`
    /// is true for NaN, so a NaN scalar is accumulated, as in the
    /// scalar kernel.
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

    /// The sub-16-column tail (`rem = n - j0` lanes under `__mmask16`),
    /// four rows at a time so the masked `rhs` load is amortized across
    /// row accumulators — this is the whole kernel for the n=10 logit
    /// shapes, not a slow path.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
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
        debug_assert!((1..16).contains(&rem));
        let mask: __mmask16 = (1u16 << rem) - 1;
        let mut i = 0;
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

    /// NN driver: 64-column strips (4 zmm/row), then 16-column strips,
    /// then one masked tail.
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
            nn_tail::<SKIP>(lhs, m, k, rhs, n, j, out, bias, relu);
        }
    }

    /// One `MI`-row × `NV`-vector block of the transposed-left product.
    /// Row `r` of `lhs` holds the `MI` reduction scalars for output
    /// rows `i0..i0+MI` *contiguously* (`lhs[r*m + i0 + t]`) — that
    /// contiguity is why TN blocks over output rows instead of walking
    /// one strided column per row like the scalar kernel.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    unsafe fn tn_block<const MI: usize, const NV: usize>(
        lhs: &[f32],
        k: usize,
        m: usize,
        rhs: &[f32],
        n: usize,
        i0: usize,
        j0: usize,
        out: &mut [f32],
    ) {
        let mut acc = [[_mm512_setzero_ps(); NV]; MI];
        for r in 0..k {
            let arow = lhs.as_ptr().add(r * m + i0);
            let brow = rhs.as_ptr().add(r * n + j0);
            for t in 0..MI {
                let av = _mm512_set1_ps(*arow.add(t));
                let live = live::<true>(av);
                for v in 0..NV {
                    let bv = _mm512_loadu_ps(brow.add(v * 16));
                    acc[t][v] = accumulate(acc[t][v], live, av, bv);
                }
            }
        }
        for t in 0..MI {
            let orow = out.as_mut_ptr().add((i0 + t) * n + j0);
            for v in 0..NV {
                _mm512_storeu_ps(orow.add(v * 16), acc[t][v]);
            }
        }
    }

    /// Masked-tail TN columns: `rem` lanes, four output rows per pass
    /// with the masked `rhs` load hoisted across them.
    #[target_feature(enable = "avx512f")]
    unsafe fn tn_tail(lhs: &[f32], k: usize, m: usize, rhs: &[f32], n: usize, j0: usize, out: &mut [f32]) {
        let rem = n - j0;
        debug_assert!((1..16).contains(&rem));
        let mask: __mmask16 = (1u16 << rem) - 1;
        let mut i = 0;
        while i + 4 <= m {
            let mut acc = [_mm512_setzero_ps(); 4];
            for r in 0..k {
                let bv = _mm512_maskz_loadu_ps(mask, rhs.as_ptr().add(r * n + j0));
                let arow = lhs.as_ptr().add(r * m + i);
                for t in 0..4 {
                    let av = _mm512_set1_ps(*arow.add(t));
                    acc[t] = accumulate(acc[t], live::<true>(av), av, bv);
                }
            }
            for t in 0..4 {
                _mm512_mask_storeu_ps(out.as_mut_ptr().add((i + t) * n + j0), mask, acc[t]);
            }
            i += 4;
        }
        while i < m {
            let mut acc = _mm512_setzero_ps();
            for r in 0..k {
                let av = _mm512_set1_ps(*lhs.as_ptr().add(r * m + i));
                let bv = _mm512_maskz_loadu_ps(mask, rhs.as_ptr().add(r * n + j0));
                acc = accumulate(acc, live::<true>(av), av, bv);
            }
            _mm512_mask_storeu_ps(out.as_mut_ptr().add(i * n + j0), mask, acc);
            i += 1;
        }
    }

    /// TN driver: 64-column strips in 8-row blocks (plus single-row
    /// remainder blocks), then 16-column strips, then one masked tail.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tn(lhs: &[f32], k: usize, m: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
        let mut j = 0;
        while j + 64 <= n {
            let mut i = 0;
            while i + 8 <= m {
                tn_block::<8, 4>(lhs, k, m, rhs, n, i, j, out);
                i += 8;
            }
            while i < m {
                tn_block::<1, 4>(lhs, k, m, rhs, n, i, j, out);
                i += 1;
            }
            j += 64;
        }
        while j + 16 <= n {
            let mut i = 0;
            while i + 8 <= m {
                tn_block::<8, 1>(lhs, k, m, rhs, n, i, j, out);
                i += 8;
            }
            while i < m {
                tn_block::<1, 1>(lhs, k, m, rhs, n, i, j, out);
                i += 1;
            }
            j += 16;
        }
        if j < n {
            tn_tail(lhs, k, m, rhs, n, j, out);
        }
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
        for v in ["on", "ON", "1", "true", "simd", " SIMD "] {
            assert_eq!(simd_mode_from_env_value(Some(v)), (SimdMode::On, None), "{v:?}");
        }
        let (mode, warning) = simd_mode_from_env_value(Some("avx9000"));
        assert_eq!(mode, SimdMode::Auto);
        let warning = warning.expect("unknown value must warn");
        assert!(warning.contains("avx9000"), "{warning}");
    }

    #[test]
    fn available_paths_start_with_scalar_and_portable() {
        let paths = available_paths();
        assert_eq!(paths[0], SimdPath::Scalar);
        assert_eq!(paths[1], SimdPath::Portable8);
        // Whatever else the host offers must be a vector path.
        for p in &paths[2..] {
            assert!(matches!(p, SimdPath::Avx2 | SimdPath::Avx512));
        }
    }

    #[test]
    fn force_path_overrides_and_restores() {
        force_path_for_tests(Some(SimdPath::Portable8));
        assert_eq!(active_path(), SimdPath::Portable8);
        force_path_for_tests(None);
        // Back to the process-wide choice, whatever it is.
        let p = active_path();
        assert!(available_paths().contains(&p));
    }

    #[test]
    fn path_names_are_stable() {
        assert_eq!(SimdPath::Scalar.name(), "scalar");
        assert_eq!(SimdPath::Portable8.name(), "portable8");
        assert_eq!(SimdPath::Avx2.name(), "avx2");
        assert_eq!(SimdPath::Avx512.to_string(), "avx512");
    }
}

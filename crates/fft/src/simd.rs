//! Runtime-dispatched SIMD backend: the workspace-wide `SLIME_SIMD` gate and
//! the AVX2+FMA kernels for the FFT hot loops.
//!
//! slime-fft is the dependency leaf shared by every crate that owns SIMD
//! kernels, so the control plane lives here: a one-time CPU-feature probe
//! (`is_x86_feature_detected!("avx2")` + `"fma"`) crossed with a tri-state
//! enabled flag that mirrors the `SLIME_POOL`/`SLIME_THREADS` pattern —
//! resolved lazily from the `SLIME_SIMD` env var, overridable at runtime via
//! [`set_enabled`] (the CLI's `--no-simd`). `slime-tensor` re-exports this
//! module's gate so the whole stack flips with one switch.
//!
//! # Determinism contract
//!
//! Each backend is individually deterministic: kernel results are a pure
//! function of their inputs and the selected backend, never of thread count,
//! pool state, or chunk boundaries. The AVX2 path is *not* bitwise identical
//! to the scalar path — FMA contraction and fixed-lane tree reductions round
//! differently — but lane structure depends only on slice length, so within
//! a backend the threads×pool bitwise guarantee of PR 2/3 still holds. The
//! scalar path reproduces the pre-SIMD loops operation for operation, so
//! `SLIME_SIMD=0` stays bitwise identical to historical results.

use crate::complex::Complex32;
use std::sync::atomic::{AtomicU8, Ordering};

const STATE_UNRESOLVED: u8 = 0;
const STATE_ON: u8 = 1;
const STATE_OFF: u8 = 2;

/// Tri-state enabled flag: resolved lazily from `SLIME_SIMD` on first use,
/// overridable at runtime via [`set_enabled`].
static STATE: AtomicU8 = AtomicU8::new(STATE_UNRESOLVED);

/// The kernel implementation selected at runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar loops — bitwise identical to the pre-SIMD kernels.
    Scalar = 0,
    /// 8-wide AVX2 + FMA kernels (x86_64 only, runtime-probed).
    Avx2Fma = 1,
}

impl Backend {
    /// Stable short name for logs, gauges, and bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2Fma => "avx2+fma",
        }
    }

    /// Numeric code for the `simd.backend` trace gauge (0 scalar, 1 avx2+fma).
    pub fn code(self) -> u8 {
        self as u8
    }
}

/// Whether SIMD is requested (env/CLI), resolving `SLIME_SIMD` on first call.
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => resolve_from_env(),
    }
}

fn resolve_from_env() -> bool {
    let off = std::env::var("SLIME_SIMD")
        .map(|v| matches!(v.trim(), "0" | "false" | "off"))
        .unwrap_or(false);
    let state = if off { STATE_OFF } else { STATE_ON };
    // A concurrent set_enabled may race this store; last writer wins, which
    // is fine — both derive from explicit user intent.
    STATE.store(state, Ordering::Relaxed);
    !off
}

/// Force SIMD dispatch on or off (wins over `SLIME_SIMD`). The CLI's
/// `--no-simd` calls this; parity tests use it to pin each path.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Whether the host CPU supports the AVX2+FMA kernels (cached probe,
/// independent of the `SLIME_SIMD` gate).
#[cfg(target_arch = "x86_64")]
pub fn avx2_fma_detected() -> bool {
    // The probe itself is cheap but not free; cache it once per process.
    static PROBE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *PROBE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// Non-x86_64 hosts never have the AVX2 kernels.
#[cfg(not(target_arch = "x86_64"))]
pub fn avx2_fma_detected() -> bool {
    false
}

/// The backend active right now: AVX2+FMA iff the gate is open *and* the
/// host supports it. One relaxed atomic load on the hot path.
#[inline]
pub fn backend() -> Backend {
    if enabled() && avx2_fma_detected() {
        Backend::Avx2Fma
    } else {
        Backend::Scalar
    }
}

/// The workspace-wide `SLIME_FUSE` gate: one switch for the fused SIMD
/// epilogues (bias+gelu, add+layernorm, filter×gate) *and* the hashed
/// dropout sampler in `slime-tensor`. Lives next to the `SLIME_SIMD` gate
/// because it is the same kind of control plane: a tri-state flag resolved
/// lazily from the environment, overridable at runtime (`--no-fuse`).
///
/// The gate selects a numeric variant: the fused kernels compute the
/// per-element expressions of the unfused compositions they replace, but
/// the hashed sampler draws different dropout masks than the sequential
/// one, so fuse on/off are two equally deterministic runs (DESIGN.md §14).
pub mod fuse {
    use std::sync::atomic::{AtomicU8, Ordering};

    const STATE_UNRESOLVED: u8 = 0;
    const STATE_ON: u8 = 1;
    const STATE_OFF: u8 = 2;

    /// Tri-state enabled flag: resolved lazily from `SLIME_FUSE` on first
    /// use, overridable at runtime via [`set_enabled`].
    static STATE: AtomicU8 = AtomicU8::new(STATE_UNRESOLVED);

    /// Whether fusion is requested (env/CLI), resolving `SLIME_FUSE` on
    /// first call.
    pub fn enabled() -> bool {
        match STATE.load(Ordering::Relaxed) {
            STATE_ON => true,
            STATE_OFF => false,
            _ => resolve_from_env(),
        }
    }

    fn resolve_from_env() -> bool {
        let off = std::env::var("SLIME_FUSE")
            .map(|v| matches!(v.trim(), "0" | "false" | "off"))
            .unwrap_or(false);
        let state = if off { STATE_OFF } else { STATE_ON };
        // A concurrent set_enabled may race this store; last writer wins,
        // which is fine — both derive from explicit user intent.
        STATE.store(state, Ordering::Relaxed);
        !off
    }

    /// Force fusion on or off (wins over `SLIME_FUSE`). The CLI's
    /// `--no-fuse` calls this; parity tests use it to pin each path.
    pub fn set_enabled(on: bool) {
        STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// FFT kernels: radix-2 butterflies and Bluestein pointwise products over
// interleaved `(re, im)` f32 pairs.
// ---------------------------------------------------------------------------

/// One radix-2 butterfly pass over a segment: for each `j`,
/// `p = v[j] * tw[j]; (u[j], v[j]) = (u[j] + p, u[j] - p)`.
///
/// `u` and `v` are the lower and upper halves of the segment (disjoint by
/// `split_at_mut` in the caller), `tw` the stage twiddles.
#[inline]
pub fn butterfly_pass(u: &mut [Complex32], v: &mut [Complex32], tw: &[Complex32]) {
    debug_assert_eq!(u.len(), v.len());
    debug_assert_eq!(u.len(), tw.len());
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2Fma {
        avx2::butterfly_pass(u, v, tw);
        return;
    }
    butterfly_pass_scalar(u, v, tw);
}

/// Scalar butterfly pass — the exact pre-SIMD loop body.
pub fn butterfly_pass_scalar(u: &mut [Complex32], v: &mut [Complex32], tw: &[Complex32]) {
    debug_assert!(
        v.len() >= u.len() && tw.len() >= u.len(),
        "halves/twiddles shorter than u"
    );
    for j in 0..u.len() {
        let a = u[j];
        let b = v[j] * tw[j];
        u[j] = a + b;
        v[j] = a - b;
    }
}

/// Pointwise complex product `a[k] *= b[k]` (Bluestein chirp/kernel stages).
#[inline]
pub fn cmul_inplace(a: &mut [Complex32], b: &[Complex32]) {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2Fma {
        avx2::cmul_inplace(a, b);
        return;
    }
    cmul_inplace_scalar(a, b);
}

/// Scalar pointwise complex product — the exact pre-SIMD loop body.
pub fn cmul_inplace_scalar(a: &mut [Complex32], b: &[Complex32]) {
    for (ai, bi) in a.iter_mut().zip(b.iter()) {
        *ai *= *bi;
    }
}

/// Widen a real signal into `(re, 0)` complex pairs (the rfft front door).
#[inline]
pub fn widen(src: &[f32], dst: &mut [Complex32]) {
    debug_assert_eq!(src.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2Fma {
        avx2::widen(src, dst);
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = Complex32::new(s, 0.0);
    }
}

/// Extract the real parts of a complex signal (the irfft back door).
#[inline]
pub fn extract_re(src: &[Complex32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2Fma {
        avx2::extract_re(src, dst);
        return;
    }
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = s.re;
    }
}

/// AVX2+FMA implementations. Each public wrapper performs the `unsafe` call
/// into a `#[target_feature]` function; safety rests on [`backend`] only
/// routing here after the runtime probe confirmed AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Complex32;
    use std::arch::x86_64::*;

    /// Complex multiply of 4 interleaved pairs: `a * b` lane-wise.
    ///
    /// With `a = (ar, ai)` and `b = (br, bi)` interleaved, `fmaddsub`
    /// computes `(ar*br - ai*bi, ai*br + ar*bi)` — the even lanes subtract,
    /// the odd lanes add.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    // lint-allow(unsafe): `#[target_feature]` impl, entered only via the probed wrapper
    unsafe fn cmul4(a: __m256, b: __m256) -> __m256 {
        let b_re = _mm256_moveldup_ps(b); // (br, br) per pair
        let b_im = _mm256_movehdup_ps(b); // (bi, bi) per pair
        let a_sw = _mm256_permute_ps(a, 0b1011_0001); // (ai, ar) per pair
        _mm256_fmaddsub_ps(a, b_re, _mm256_mul_ps(a_sw, b_im))
    }

    #[target_feature(enable = "avx2,fma")]
    // lint-allow(unsafe): `#[target_feature]` impl, entered only via the probed wrapper
    unsafe fn butterfly_pass_impl(u: &mut [Complex32], v: &mut [Complex32], tw: &[Complex32]) {
        debug_assert!(
            v.len() >= u.len() && tw.len() >= u.len(),
            "halves/twiddles shorter than u"
        );
        let half = u.len();
        let up = u.as_mut_ptr() as *mut f32;
        let vp = v.as_mut_ptr() as *mut f32;
        let tp = tw.as_ptr() as *const f32;
        let mut j = 0usize;
        // 4 complex butterflies (8 f32 lanes) per iteration.
        while j + 4 <= half {
            let o = 2 * j;
            let b = cmul4(_mm256_loadu_ps(vp.add(o)), _mm256_loadu_ps(tp.add(o)));
            let a = _mm256_loadu_ps(up.add(o));
            _mm256_storeu_ps(up.add(o), _mm256_add_ps(a, b));
            _mm256_storeu_ps(vp.add(o), _mm256_sub_ps(a, b));
            j += 4;
        }
        while j < half {
            let a = u[j];
            let b = v[j] * tw[j];
            u[j] = a + b;
            v[j] = a - b;
            j += 1;
        }
    }

    pub fn butterfly_pass(u: &mut [Complex32], v: &mut [Complex32], tw: &[Complex32]) {
        // SAFETY: backend() verified avx2+fma before dispatching here.
        // lint-allow(unsafe): runtime-feature-probed AVX2 kernel entry point
        unsafe { butterfly_pass_impl(u, v, tw) }
    }

    #[target_feature(enable = "avx2,fma")]
    // lint-allow(unsafe): `#[target_feature]` impl, entered only via the probed wrapper
    unsafe fn cmul_inplace_impl(a: &mut [Complex32], b: &[Complex32]) {
        debug_assert!(b.len() >= a.len(), "cmul rhs shorter than lhs");
        let n = a.len();
        let ap = a.as_mut_ptr() as *mut f32;
        let bp = b.as_ptr() as *const f32;
        let mut j = 0usize;
        while j + 4 <= n {
            let o = 2 * j;
            let p = cmul4(_mm256_loadu_ps(ap.add(o)), _mm256_loadu_ps(bp.add(o)));
            _mm256_storeu_ps(ap.add(o), p);
            j += 4;
        }
        while j < n {
            a[j] *= b[j];
            j += 1;
        }
    }

    pub fn cmul_inplace(a: &mut [Complex32], b: &[Complex32]) {
        // SAFETY: backend() verified avx2+fma before dispatching here.
        // lint-allow(unsafe): runtime-feature-probed AVX2 kernel entry point
        unsafe { cmul_inplace_impl(a, b) }
    }

    #[target_feature(enable = "avx2,fma")]
    // lint-allow(unsafe): `#[target_feature]` impl, entered only via the probed wrapper
    unsafe fn widen_impl(src: &[f32], dst: &mut [Complex32]) {
        debug_assert!(dst.len() >= src.len(), "widen dst shorter than src");
        let n = src.len();
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr() as *mut f32;
        let zero = _mm256_setzero_ps();
        let mut j = 0usize;
        // 8 reals -> two interleaved (re, 0) octets.
        while j + 8 <= n {
            let x = _mm256_loadu_ps(sp.add(j));
            let lo = _mm256_unpacklo_ps(x, zero);
            let hi = _mm256_unpackhi_ps(x, zero);
            // unpack works within 128-bit halves; reassemble in order.
            _mm256_storeu_ps(dp.add(2 * j), _mm256_permute2f128_ps(lo, hi, 0x20));
            _mm256_storeu_ps(dp.add(2 * j + 8), _mm256_permute2f128_ps(lo, hi, 0x31));
            j += 8;
        }
        while j < n {
            dst[j] = Complex32::new(src[j], 0.0);
            j += 1;
        }
    }

    pub fn widen(src: &[f32], dst: &mut [Complex32]) {
        // SAFETY: backend() verified avx2+fma before dispatching here.
        // lint-allow(unsafe): runtime-feature-probed AVX2 kernel entry point
        unsafe { widen_impl(src, dst) }
    }

    #[target_feature(enable = "avx2,fma")]
    // lint-allow(unsafe): `#[target_feature]` impl, entered only via the probed wrapper
    unsafe fn extract_re_impl(src: &[Complex32], dst: &mut [f32]) {
        debug_assert!(dst.len() >= src.len(), "extract_re dst shorter than src");
        let n = src.len();
        let sp = src.as_ptr() as *const f32;
        let dp = dst.as_mut_ptr();
        let mut j = 0usize;
        while j + 8 <= n {
            let lo = _mm256_loadu_ps(sp.add(2 * j)); // pairs 0..4
            let hi = _mm256_loadu_ps(sp.add(2 * j + 8)); // pairs 4..8
                                                         // Keep even (re) lanes of each 128-bit half, then reorder.
            let mixed = _mm256_shuffle_ps(lo, hi, 0b10_00_10_00);
            let fixed = _mm256_permutevar8x32_ps(mixed, _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7));
            _mm256_storeu_ps(dp.add(j), fixed);
            j += 8;
        }
        while j < n {
            dst[j] = src[j].re;
            j += 1;
        }
    }

    pub fn extract_re(src: &[Complex32], dst: &mut [f32]) {
        // SAFETY: backend() verified avx2+fma before dispatching here.
        // lint-allow(unsafe): runtime-feature-probed AVX2 kernel entry point
        unsafe { extract_re_impl(src, dst) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(n: usize) -> Vec<Complex32> {
        (0..n)
            .map(|i| Complex32::new((i as f32 * 0.7).sin(), (i as f32 * 0.3).cos()))
            .collect()
    }

    #[test]
    fn fuse_gate_flips() {
        fuse::set_enabled(false);
        assert!(!fuse::enabled());
        fuse::set_enabled(true);
        assert!(fuse::enabled());
    }

    #[test]
    fn backend_tracks_gate() {
        set_enabled(false);
        assert_eq!(backend(), Backend::Scalar);
        set_enabled(true);
        if avx2_fma_detected() {
            assert_eq!(backend(), Backend::Avx2Fma);
        } else {
            assert_eq!(backend(), Backend::Scalar);
        }
        assert_eq!(Backend::Scalar.code(), 0);
        assert_eq!(Backend::Avx2Fma.code(), 1);
        assert_eq!(Backend::Avx2Fma.name(), "avx2+fma");
    }

    #[test]
    fn butterfly_dispatched_matches_scalar() {
        for half in [1usize, 3, 4, 7, 16, 33] {
            let tw: Vec<Complex32> = (0..half)
                .map(|j| Complex32::cis(-std::f64::consts::PI * j as f64 / half as f64))
                .collect();
            let mut u_s = signal(half);
            let mut v_s = signal(half).iter().map(|c| c.conj()).collect::<Vec<_>>();
            let mut u_d = u_s.clone();
            let mut v_d = v_s.clone();
            butterfly_pass_scalar(&mut u_s, &mut v_s, &tw);
            set_enabled(true);
            butterfly_pass(&mut u_d, &mut v_d, &tw);
            for j in 0..half {
                assert!((u_s[j].re - u_d[j].re).abs() < 1e-5, "half={half} j={j}");
                assert!((u_s[j].im - u_d[j].im).abs() < 1e-5, "half={half} j={j}");
                assert!((v_s[j].re - v_d[j].re).abs() < 1e-5, "half={half} j={j}");
                assert!((v_s[j].im - v_d[j].im).abs() < 1e-5, "half={half} j={j}");
            }
        }
    }

    #[test]
    fn cmul_dispatched_matches_scalar() {
        for n in [1usize, 4, 5, 17, 64] {
            let b = signal(n);
            let mut a_s = signal(n);
            let mut a_d = a_s.clone();
            cmul_inplace_scalar(&mut a_s, &b);
            set_enabled(true);
            cmul_inplace(&mut a_d, &b);
            for j in 0..n {
                assert!((a_s[j].re - a_d[j].re).abs() < 1e-5, "n={n} j={j}");
                assert!((a_s[j].im - a_d[j].im).abs() < 1e-5, "n={n} j={j}");
            }
        }
    }

    #[test]
    fn widen_and_extract_round_trip() {
        set_enabled(true);
        for n in [0usize, 1, 7, 8, 9, 16, 31] {
            let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.25 - 1.0).collect();
            let mut c = vec![Complex32::ZERO; n];
            widen(&x, &mut c);
            for (i, ci) in c.iter().enumerate() {
                assert_eq!(ci.re, x[i], "n={n} i={i}");
                assert_eq!(ci.im, 0.0, "n={n} i={i}");
            }
            let mut back = vec![0f32; n];
            extract_re(&c, &mut back);
            assert_eq!(back, x, "n={n}");
        }
    }
}

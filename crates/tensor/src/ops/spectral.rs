//! The fused frequency-domain filter op at the heart of SLIME4Rec.
//!
//! Forward (paper Eqs. 12, 21, 25–27):
//!
//! ```text
//! X        = rfft(x)                          x: [B, N, D], X: [B, M, D] complex, M = N/2+1
//! F[k,c]   = sum_i coef_i * mask_i[k] * W_i[k,c]    (learnable complex filters W_i)
//! Y[k,c]   = X[k,c] * F[k,c]                  (elementwise complex product)
//! y        = irfft(Y)                         y: [B, N, D] real
//! ```
//!
//! With two branches — the Dynamic Frequency Selection filter at coefficient
//! `1 - gamma` and the Static Frequency Split filter at `gamma` — this is
//! exactly the paper's filter mixer. With one all-ones mask branch it is
//! FMLP-Rec's global filter.
//!
//! Backward (derived from the adjoints of the real FFT pair; all verified by
//! finite differences in `tests/gradcheck.rs`):
//!
//! ```text
//! G[b,k,c]     = (c_k / N) * rfft(grad_y[b,:,c])[k]   c_k = 1 at k = 0 and k = N/2 (even N), else 2
//!                with Im(G) zeroed at k = 0 and the even-N Nyquist bin
//! grad_X       = G * conj(F)
//! grad_W_i     = coef_i * mask_i[k] * sum_b G * conj(X)
//! grad_x[b,:,c]= Re( unnormalized-inverse-FFT( zero-pad(grad_X[b,:,c], N) ) )
//! ```

use slime_fft::{with_cached_plan, Complex32};
use slime_par::UnsafeSlice;

use crate::ndarray::NdArray;
use crate::tensor::{Op, Tensor};

/// FFT points per parallel task: each chunk covers roughly this many time
/// samples' worth of (batch, channel) transforms. A pure function of the
/// shape, so the chunk grid — and therefore the result bits — never depend
/// on the thread count.
const FFT_POINTS_PER_CHUNK: usize = 4096;

fn pairs_per_chunk(n: usize) -> usize {
    (FFT_POINTS_PER_CHUNK / n.max(1)).max(1)
}

/// Sequence lengths up to this run the rfft/irfft pair as small matmuls
/// against cached trig tables instead of per-(batch, channel) FFTs.
///
/// At recommendation lengths (`max_len` ~ 50) the transform is a `[M, N]`
/// contraction with `M = N/2 + 1` ~ 26 rows: the blocked `i-k-j` matmul
/// kernel streams it at vector width, while Bluestein's algorithm (needed
/// for non-power-of-two `N`) costs two length-128 complex FFTs *and a
/// scratch allocation* per transform — and one `[B, N, D]` pass runs
/// `B * D` of them. The matmul path is O(N^2) per pair versus the FFT's
/// O(N log N), so long sequences stay on the FFT path.
const DFT_MATMUL_MAX_N: usize = 128;

/// Cached rfft/irfft coefficient tables for one sequence length.
///
/// With `theta(k, t) = 2 pi (k * t mod n) / n` (reduced mod `n` in f64 so
/// the angle stays accurate) and the irfft fold weights `c_k / n`
/// (`c_k = 1` at DC and the even-`n` Nyquist bin, else 2):
///
/// * `cre[k * n + t] =  cos(theta)`, `cim[k * n + t] = -sin(theta)`:
///   `X = rfft(x)` is `Xre = cre @ x`, `Xim = cim @ x` per `[N, D]` plane.
/// * `dre[t * m + k] = (c_k / n) cos(theta)`, `dim[t * m + k] =
///   -(c_k / n) sin(theta)`: `y = irfft(Y)` is `dre @ Yre + dim @ Yim`.
///   The `dim` columns at DC and the even-`n` Nyquist bin are exactly
///   zero — that *is* the conjugate-symmetry projection the FFT path
///   applies by zeroing those imaginary parts.
///
/// The backward transforms are the transposes of these same tables (see
/// `SpectralOp::backward`), which the `matmul_tn_rows` kernel reads in
/// place.
struct DftTables {
    cre: Vec<f32>,
    cim: Vec<f32>,
    dre: Vec<f32>,
    dim: Vec<f32>,
}

impl DftTables {
    fn new(n: usize) -> DftTables {
        debug_assert!(n >= 1, "DFT tables need a non-empty signal");
        let m = n / 2 + 1;
        let mut cre = vec![0.0f32; m * n];
        let mut cim = vec![0.0f32; m * n];
        let mut dre = vec![0.0f32; n * m];
        let mut dim = vec![0.0f32; n * m];
        for k in 0..m {
            let ck = if k == 0 || (n % 2 == 0 && k == m - 1) {
                1.0
            } else {
                2.0
            };
            let fold = ck / n as f64;
            // Imaginary parts of the DC and even-n Nyquist bins are
            // discarded by irfft; their fold columns are exactly zero.
            let im_dropped = k == 0 || (n % 2 == 0 && k == m - 1);
            for t in 0..n {
                let theta = 2.0 * std::f64::consts::PI * ((k * t) % n) as f64 / n as f64;
                let (sin, cos) = theta.sin_cos();
                cre[k * n + t] = cos as f32;
                cim[k * n + t] = -sin as f32;
                dre[t * m + k] = (fold * cos) as f32;
                dim[t * m + k] = if im_dropped {
                    0.0
                } else {
                    (-fold * sin) as f32
                };
            }
        }
        DftTables { cre, cim, dre, dim }
    }
}

std::thread_local! {
    static DFT_TABLES: std::cell::RefCell<std::collections::HashMap<usize, std::rc::Rc<DftTables>>> =
        std::cell::RefCell::new(std::collections::HashMap::new());
}

/// Run `f` with the cached tables for length `n`, building them on first
/// use (a few KiB per length; lengths in a process are few).
fn with_dft_tables<R>(n: usize, f: impl FnOnce(&DftTables) -> R) -> R {
    let tables = DFT_TABLES.with(|cache| {
        std::rc::Rc::clone(
            cache
                .borrow_mut()
                .entry(n)
                .or_insert_with(|| std::rc::Rc::new(DftTables::new(n))),
        )
    });
    f(&tables)
}

/// One learnable filter branch of the mixer.
#[derive(Clone)]
pub struct SpectralBranch {
    /// Real part of the complex filter, shape `[M, D]`.
    pub w_re: Tensor,
    /// Imaginary part of the complex filter, shape `[M, D]`.
    pub w_im: Tensor,
    /// Frequency indicator window `sigma[k]` (paper Eq. 15/16), length `M`.
    pub mask: Vec<f32>,
    /// Mixing coefficient (`1 - gamma` for DFS, `gamma` for SFS; Eq. 26).
    pub coef: f32,
}

/// Apply a single learnable frequency filter (FMLP-Rec's global filter when
/// `mask` is all ones).
pub fn spectral_filter(x: &Tensor, w_re: &Tensor, w_im: &Tensor, mask: &[f32]) -> Tensor {
    assert_eq!(
        w_re.shape(),
        w_im.shape(),
        "spectral_filter: real/imag filter shapes must match"
    );
    spectral_filter_mix(
        x,
        &[SpectralBranch {
            w_re: w_re.clone(),
            w_im: w_im.clone(),
            mask: mask.to_vec(),
            coef: 1.0,
        }],
    )
}

/// Apply a mixture of masked learnable frequency filters along the time axis
/// of a `[B, N, D]` tensor.
#[allow(clippy::needless_range_loop)] // strided gather/scatter over (b, k, c) planes
pub fn spectral_filter_mix(x: &Tensor, branches: &[SpectralBranch]) -> Tensor {
    let _prof = super::fwd_prof("spectral_filter_mix", x.len());
    assert!(!branches.is_empty(), "need at least one filter branch");
    let shape = x.shape();
    assert_eq!(shape.len(), 3, "spectral filter expects [B, N, D]");
    let (b, n, d) = (shape[0], shape[1], shape[2]);
    assert!(n >= 1, "empty time axis");
    // Which transform path this shape takes (trig-matmul for short
    // sequences, per-channel FFT otherwise) — counted once per op call.
    if n <= DFT_MATMUL_MAX_N && d > 0 {
        slime_trace::metrics::counter_add("spectral.matmul_path", 1);
    } else {
        slime_trace::metrics::counter_add("spectral.fft_path", 1);
    }
    let m = n / 2 + 1;
    for (i, br) in branches.iter().enumerate() {
        assert_eq!(br.w_re.shape(), vec![m, d], "branch {i} w_re shape");
        assert_eq!(br.w_im.shape(), vec![m, d], "branch {i} w_im shape");
        assert_eq!(br.mask.len(), m, "branch {i} mask length");
    }

    let masks: Vec<Vec<f32>> = branches.iter().map(|br| br.mask.clone()).collect();
    let coefs: Vec<f32> = branches.iter().map(|br| br.coef).collect();
    let weights: Vec<(NdArray, NdArray)> = branches
        .iter()
        .map(|br| (br.w_re.value(), br.w_im.value()))
        .collect();
    let (fre, fim) = effective_filter(&masks, &coefs, &weights, m, d);
    let data = x.data();
    let (out, xre, xim) = spectral_transform(data.data(), &fre, &fim, b, n, d, m);
    drop(data);

    // F is pure scratch — hand it straight back to the buffer pool.
    crate::pool::recycle(fre);
    crate::pool::recycle(fim);

    let mut parents = Vec::with_capacity(1 + branches.len() * 2);
    parents.push(x.clone());
    for br in branches {
        parents.push(br.w_re.clone());
        parents.push(br.w_im.clone());
    }
    Tensor::from_op(
        NdArray::from_vec(vec![b, n, d], out),
        parents,
        Box::new(SpectralOp {
            b,
            n,
            d,
            xre,
            xim,
            masks,
            coefs,
        }),
    )
}

/// Transform body: `y = irfft(rfft(x) * F)` along the time axis. Returns
/// `(out, xre, xim)` — the output signal and the saved forward spectrum
/// planes the backward pass reads.
///
/// Short sequences (the recommendation case) run the transform as two
/// cached-table matmuls per [N, D] batch plane through the blocked row
/// kernel; long ones fall back to per-(batch, channel) FFTs. Both grids
/// are pure functions of the shape, so results never depend on the
/// thread count.
#[allow(clippy::needless_range_loop)] // strided gather/scatter over (b, k, c) planes
fn spectral_transform(
    src: &[f32],
    fre: &[f32],
    fim: &[f32],
    b: usize,
    n: usize,
    d: usize,
    m: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    debug_assert!(
        src.len() == b * n * d && fre.len() == m * d && fim.len() == m * d,
        "signal is [b, n, d] with [m, d] filter planes"
    );
    let mut xre = crate::pool::take_filled(b * m * d, 0.0);
    let mut xim = crate::pool::take_filled(b * m * d, 0.0);
    if n <= DFT_MATMUL_MAX_N && d > 0 {
        let wre = UnsafeSlice::new(&mut xre);
        let wim = UnsafeSlice::new(&mut xim);
        slime_par::parallel_for(b, 1, |lo, hi| {
            with_dft_tables(n, |tab| {
                for bi in lo..hi {
                    let x_plane = &src[bi * n * d..(bi + 1) * n * d];
                    // SAFETY: each batch plane is claimed by exactly one
                    // chunk, so these [M, D] slices are disjoint.
                    // lint-proof(l8): wre[lo * m * d .. hi * m * d]
                    // lint-proof(l8): wim[lo * m * d .. hi * m * d]
                    let ore = unsafe { wre.slice_mut(bi * m * d, m * d) };
                    let oim = unsafe { wim.slice_mut(bi * m * d, m * d) };
                    crate::ndarray::matmul_rows(&tab.cre, x_plane, ore, n, d);
                    crate::ndarray::matmul_rows(&tab.cim, x_plane, oim, n, d);
                }
            });
        });
    } else {
        // Workers fetch the length-n plan from their thread-local cache
        // once per chunk; because pool workers are persistent, the plan
        // survives across calls.
        let wre = UnsafeSlice::new(&mut xre);
        let wim = UnsafeSlice::new(&mut xim);
        slime_par::parallel_for(b * d, pairs_per_chunk(n), |lo, hi| {
            with_cached_plan(n, |plan| {
                let mut buf = vec![Complex32::ZERO; n];
                for p in lo..hi {
                    let (bi, c) = (p / d, p % d);
                    for (t, slot) in buf.iter_mut().enumerate() {
                        *slot = Complex32::new(src[(bi * n + t) * d + c], 0.0);
                    }
                    plan.forward(&mut buf);
                    for k in 0..m {
                        // SAFETY: distinct (bi, c) pairs touch disjoint
                        // (bi, k, c) slots, and each pair is claimed by
                        // exactly one chunk.
                        // lint-proof(l8): wre[(p / d * m + k) * d + p % d for p in lo..hi]
                        // lint-proof(l8): wim[(p / d * m + k) * d + p % d for p in lo..hi]
                        unsafe {
                            wre.write((bi * m + k) * d + c, buf[k].re);
                            wim.write((bi * m + k) * d + c, buf[k].im);
                        }
                    }
                }
            });
        });
    }

    // Y = X * F, then y = irfft(Y). Same decomposition as the forward
    // transform in each path.
    let mut out = crate::pool::take_filled(b * n * d, 0.0);
    if n <= DFT_MATMUL_MAX_N && d > 0 {
        // Elementwise complex product into pooled [B, M, D] planes, then
        // y[bi] = dre @ Yre[bi] + dim @ Yim[bi]: the row kernel accumulates
        // into the zeroed output, so the two matmuls fold in a fixed order.
        let mut yre = crate::pool::take_filled(b * m * d, 0.0);
        let mut yim = crate::pool::take_filled(b * m * d, 0.0);
        {
            let pre = UnsafeSlice::new(&mut yre);
            let pim = UnsafeSlice::new(&mut yim);
            let wout = UnsafeSlice::new(&mut out);
            let (xre, xim, fre, fim) = (&xre, &xim, &fre, &fim);
            slime_par::parallel_for(b, 1, |lo, hi| {
                with_dft_tables(n, |tab| {
                    for bi in lo..hi {
                        // SAFETY: disjoint per-plane slices (one chunk per
                        // batch index).
                        // lint-proof(l8): pre[lo * m * d .. hi * m * d]
                        // lint-proof(l8): pim[lo * m * d .. hi * m * d]
                        // lint-proof(l8): wout[lo * n * d .. hi * n * d]
                        let yre = unsafe { pre.slice_mut(bi * m * d, m * d) };
                        let yim = unsafe { pim.slice_mut(bi * m * d, m * d) };
                        let o = unsafe { wout.slice_mut(bi * n * d, n * d) };
                        for i in 0..m * d {
                            let xi = bi * m * d + i;
                            yre[i] = xre[xi] * fre[i] - xim[xi] * fim[i];
                            yim[i] = xre[xi] * fim[i] + xim[xi] * fre[i];
                        }
                        crate::ndarray::matmul_rows(&tab.dre, yre, o, m, d);
                        crate::ndarray::matmul_rows(&tab.dim, yim, o, m, d);
                    }
                });
            });
        }
        crate::pool::recycle(yre);
        crate::pool::recycle(yim);
    } else {
        let wout = UnsafeSlice::new(&mut out);
        let (xre, xim, fre, fim) = (&xre, &xim, &fre, &fim);
        slime_par::parallel_for(b * d, pairs_per_chunk(n), |lo, hi| {
            with_cached_plan(n, |plan| {
                let mut buf = vec![Complex32::ZERO; n];
                for p in lo..hi {
                    let (bi, c) = (p / d, p % d);
                    for k in 0..m {
                        let xi = (bi * m + k) * d + c;
                        let wi = k * d + c;
                        buf[k] = Complex32::new(
                            xre[xi] * fre[wi] - xim[xi] * fim[wi],
                            xre[xi] * fim[wi] + xim[xi] * fre[wi],
                        );
                    }
                    // Conjugate-symmetric extension with DC/Nyquist projection.
                    buf[0] = Complex32::new(buf[0].re, 0.0);
                    if n % 2 == 0 {
                        buf[m - 1] = Complex32::new(buf[m - 1].re, 0.0);
                    }
                    for k in 1..m {
                        if n - k >= m {
                            buf[n - k] = buf[k].conj();
                        }
                    }
                    plan.inverse(&mut buf);
                    // lint-proof(l8): wout[(p / d * n + t) * d + p % d for p in lo..hi]
                    for t in 0..n {
                        // SAFETY: disjoint (bi, t, c) slots per pair.
                        unsafe { wout.write((bi * n + t) * d + c, buf[t].re) };
                    }
                }
            });
        });
    }

    (out, xre, xim)
}

/// `F[k,c] = sum_i coef_i * mask_i[k] * W_i[k,c]` over the branches.
fn effective_filter(
    masks: &[Vec<f32>],
    coefs: &[f32],
    weights: &[(NdArray, NdArray)],
    m: usize,
    d: usize,
) -> (Vec<f32>, Vec<f32>) {
    debug_assert_eq!(masks.len(), coefs.len(), "one coefficient per branch mask");
    let mut fre = crate::pool::take_filled(m * d, 0.0);
    let mut fim = crate::pool::take_filled(m * d, 0.0);
    for ((mask, &coef), (wre, wim)) in masks.iter().zip(coefs).zip(weights) {
        let wre = wre.data();
        let wim = wim.data();
        for k in 0..m {
            let a = coef * mask[k];
            if a == 0.0 {
                continue;
            }
            for c in 0..d {
                fre[k * d + c] += a * wre[k * d + c];
                fim[k * d + c] += a * wim[k * d + c];
            }
        }
    }
    (fre, fim)
}

struct SpectralOp {
    b: usize,
    n: usize,
    d: usize,
    /// Saved forward spectrum, `[B, M, D]` planes.
    xre: Vec<f32>,
    xim: Vec<f32>,
    masks: Vec<Vec<f32>>,
    coefs: Vec<f32>,
}

impl Op for SpectralOp {
    #[allow(clippy::needless_range_loop)] // strided gather/scatter over (b, k, c) planes
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>> {
        let (b, n, d) = (self.b, self.n, self.d);
        let m = n / 2 + 1;
        let g = grad.data();
        debug_assert_eq!(g.len(), b * n * d, "grad is [b, n, d]");

        // Recompute F from the (unchanged) parent weights.
        let weights: Vec<(NdArray, NdArray)> = parents[1..]
            .chunks(2)
            .map(|p| (p[0].value(), p[1].value()))
            .collect();
        let (fre, fim) = effective_filter(&self.masks, &self.coefs, &weights, m, d);

        // Per-bin adjoint weights c_k / N.
        let mut ck = vec![2.0f32 / n as f32; m];
        ck[0] = 1.0 / n as f32;
        if n % 2 == 0 {
            ck[m - 1] = 1.0 / n as f32;
        }

        // G = (c_k/N) rfft(grad_y). On the matmul path this is exactly the
        // transpose of the irfft fold tables — `Gre = dre^T @ grad_y`,
        // `Gim = dim^T @ grad_y` per plane, with the zeroed `dim` columns
        // supplying the "no gradient to discarded imaginary parts" rule —
        // which `matmul_tn_rows` reads in place, no transpose materialized.
        let mut gre = crate::pool::take_filled(b * m * d, 0.0);
        let mut gim = crate::pool::take_filled(b * m * d, 0.0);
        if n <= DFT_MATMUL_MAX_N && d > 0 {
            let wre = UnsafeSlice::new(&mut gre);
            let wim = UnsafeSlice::new(&mut gim);
            slime_par::parallel_for(b, 1, |lo, hi| {
                with_dft_tables(n, |tab| {
                    for bi in lo..hi {
                        let g_plane = &g[bi * n * d..(bi + 1) * n * d];
                        // SAFETY: disjoint per-plane slices.
                        // lint-proof(l8): wre[lo * m * d .. hi * m * d]
                        // lint-proof(l8): wim[lo * m * d .. hi * m * d]
                        let ore = unsafe { wre.slice_mut(bi * m * d, m * d) };
                        let oim = unsafe { wim.slice_mut(bi * m * d, m * d) };
                        crate::ndarray::matmul_tn_rows(&tab.dre, g_plane, ore, 0, n, m, d);
                        crate::ndarray::matmul_tn_rows(&tab.dim, g_plane, oim, 0, n, m, d);
                    }
                });
            });
        } else {
            let wre = UnsafeSlice::new(&mut gre);
            let wim = UnsafeSlice::new(&mut gim);
            let ck = &ck;
            slime_par::parallel_for(b * d, pairs_per_chunk(n), |lo, hi| {
                with_cached_plan(n, |plan| {
                    let mut buf = vec![Complex32::ZERO; n];
                    for p in lo..hi {
                        let (bi, c) = (p / d, p % d);
                        for (t, slot) in buf.iter_mut().enumerate() {
                            *slot = Complex32::new(g[(bi * n + t) * d + c], 0.0);
                        }
                        plan.forward(&mut buf);
                        for k in 0..m {
                            let gi = (bi * m + k) * d + c;
                            // Imaginary parts of the DC and even-N Nyquist
                            // bins were discarded by irfft, so no gradient
                            // flows to them.
                            let drop_im = k == 0 || (n % 2 == 0 && k == m - 1);
                            // SAFETY: disjoint (bi, k, c) slots per pair.
                            // lint-proof(l8): wre[(p / d * m + k) * d + p % d for p in lo..hi]
                            // lint-proof(l8): wim[(p / d * m + k) * d + p % d for p in lo..hi]
                            unsafe {
                                wre.write(gi, buf[k].re * ck[k]);
                                wim.write(gi, if drop_im { 0.0 } else { buf[k].im * ck[k] });
                            }
                        }
                    }
                });
            });
        }

        // grad_F[k,c] = sum_b G * conj(X). Parallel over frequency-bin rows:
        // each chunk owns the rows `k0..k1` of the accumulator outright and
        // sums its batch contributions in ascending-`bi` order — the same
        // order as the serial loop — so the reduction is bitwise stable
        // regardless of thread count.
        let mut dfre = crate::pool::take_filled(m * d, 0.0);
        let mut dfim = crate::pool::take_filled(m * d, 0.0);
        let (xre, xim): (&[f32], &[f32]) = (&self.xre, &self.xim);
        {
            let wdre = UnsafeSlice::new(&mut dfre);
            let wdim = UnsafeSlice::new(&mut dfim);
            let (gre, gim) = (&gre, &gim);
            let rows_per_chunk = (FFT_POINTS_PER_CHUNK / (b * d).max(1)).max(1);
            slime_par::parallel_for(m, rows_per_chunk, |k0, k1| {
                // SAFETY: chunks partition `0..m`, so these row ranges are
                // disjoint across tasks.
                // lint-proof(l8): wdre[k0 * d .. k1 * d]
                // lint-proof(l8): wdim[k0 * d .. k1 * d]
                let dre = unsafe { wdre.slice_mut(k0 * d, (k1 - k0) * d) };
                let dim = unsafe { wdim.slice_mut(k0 * d, (k1 - k0) * d) };
                for bi in 0..b {
                    for k in k0..k1 {
                        for c in 0..d {
                            let i = (bi * m + k) * d + c;
                            let w = (k - k0) * d + c;
                            dre[w] += gre[i] * xre[i] + gim[i] * xim[i];
                            dim[w] += gim[i] * xre[i] - gre[i] * xim[i];
                        }
                    }
                }
            });
        }

        // grad_x via grad_X = G * conj(F), then the rfft adjoint. On the
        // matmul path the adjoint is the transposed forward tables:
        // `grad_x = cre^T @ Zre + cim^T @ Zim` per plane, again read in
        // place by the tn kernel and accumulated in a fixed order.
        let mut dx = crate::pool::take_filled(b * n * d, 0.0);
        if n <= DFT_MATMUL_MAX_N && d > 0 {
            let mut zre = crate::pool::take_filled(b * m * d, 0.0);
            let mut zim = crate::pool::take_filled(b * m * d, 0.0);
            {
                let pre = UnsafeSlice::new(&mut zre);
                let pim = UnsafeSlice::new(&mut zim);
                let wdx = UnsafeSlice::new(&mut dx);
                let (gre, gim, fre, fim) = (&gre, &gim, &fre, &fim);
                slime_par::parallel_for(b, 1, |lo, hi| {
                    with_dft_tables(n, |tab| {
                        for bi in lo..hi {
                            // SAFETY: disjoint per-plane slices.
                            // lint-proof(l8): pre[lo * m * d .. hi * m * d]
                            // lint-proof(l8): pim[lo * m * d .. hi * m * d]
                            // lint-proof(l8): wdx[lo * n * d .. hi * n * d]
                            let zre = unsafe { pre.slice_mut(bi * m * d, m * d) };
                            let zim = unsafe { pim.slice_mut(bi * m * d, m * d) };
                            let o = unsafe { wdx.slice_mut(bi * n * d, n * d) };
                            for i in 0..m * d {
                                let gi = bi * m * d + i;
                                zre[i] = gre[gi] * fre[i] + gim[gi] * fim[i];
                                zim[i] = gim[gi] * fre[i] - gre[gi] * fim[i];
                            }
                            crate::ndarray::matmul_tn_rows(&tab.cre, zre, o, 0, m, n, d);
                            crate::ndarray::matmul_tn_rows(&tab.cim, zim, o, 0, m, n, d);
                        }
                    });
                });
            }
            crate::pool::recycle(zre);
            crate::pool::recycle(zim);
        } else {
            let wdx = UnsafeSlice::new(&mut dx);
            let (gre, gim, fre, fim) = (&gre, &gim, &fre, &fim);
            slime_par::parallel_for(b * d, pairs_per_chunk(n), |lo, hi| {
                let mut buf = vec![Complex32::ZERO; n];
                for p in lo..hi {
                    let (bi, c) = (p / d, p % d);
                    buf.iter_mut().for_each(|s| *s = Complex32::ZERO);
                    for k in 0..m {
                        let i = (bi * m + k) * d + c;
                        let w = k * d + c;
                        buf[k] = Complex32::new(
                            gre[i] * fre[w] + gim[i] * fim[w],
                            gim[i] * fre[w] - gre[i] * fim[w],
                        );
                    }
                    // `ifft_unscaled` reuses this worker's cached plan.
                    slime_fft::ifft_unscaled(&mut buf);
                    // lint-proof(l8): wdx[(p / d * n + t) * d + p % d for p in lo..hi]
                    for t in 0..n {
                        // SAFETY: disjoint (bi, t, c) slots per pair.
                        unsafe { wdx.write((bi * n + t) * d + c, buf[t].re) };
                    }
                }
            });
        }

        let mut grads: Vec<Option<NdArray>> = vec![Some(NdArray::from_vec(vec![b, n, d], dx))];
        for (mask, &coef) in self.masks.iter().zip(&self.coefs) {
            let mut dwre = crate::pool::take_filled(m * d, 0.0);
            let mut dwim = crate::pool::take_filled(m * d, 0.0);
            for k in 0..m {
                let a = coef * mask[k];
                if a != 0.0 {
                    for c in 0..d {
                        dwre[k * d + c] = a * dfre[k * d + c];
                        dwim[k * d + c] = a * dfim[k * d + c];
                    }
                }
            }
            grads.push(Some(NdArray::from_vec(vec![m, d], dwre)));
            grads.push(Some(NdArray::from_vec(vec![m, d], dwim)));
        }
        // Everything else was backward-local scratch; recycle it.
        for buf in [gre, gim, fre, fim, dfre, dfim] {
            crate::pool::recycle(buf);
        }
        grads
    }
    fn name(&self) -> &'static str {
        "spectral_filter_mix"
    }
}

impl Drop for SpectralOp {
    fn drop(&mut self) {
        // The saved spectrum planes are plain `Vec`s (not `NdArray`s), so
        // recycle them by hand when the graph node dies.
        crate::pool::recycle(std::mem::take(&mut self.xre));
        crate::pool::recycle(std::mem::take(&mut self.xim));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{mul, sum_all};

    fn ones_branch(m: usize, d: usize) -> SpectralBranch {
        SpectralBranch {
            w_re: Tensor::param(NdArray::ones(vec![m, d])),
            w_im: Tensor::param(NdArray::zeros(vec![m, d])),
            mask: vec![1.0; m],
            coef: 1.0,
        }
    }

    #[test]
    fn identity_filter_is_identity() {
        // W = 1 + 0i with full mask leaves the signal unchanged.
        let (bsz, n, d) = (2, 8, 3);
        let m = n / 2 + 1;
        let x = Tensor::param(NdArray::from_vec(
            vec![bsz, n, d],
            (0..bsz * n * d).map(|i| (i as f32 * 0.37).sin()).collect(),
        ));
        let y = spectral_filter_mix(&x, &[ones_branch(m, d)]);
        for (a, b) in y.value().data().iter().zip(x.value().data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_mask_zeroes_output() {
        let (bsz, n, d) = (1, 6, 2);
        let m = n / 2 + 1;
        let mut br = ones_branch(m, d);
        br.mask = vec![0.0; m];
        let x = Tensor::param(NdArray::ones(vec![bsz, n, d]));
        let y = spectral_filter_mix(&x, &[br]);
        for v in y.value().data() {
            assert!(v.abs() < 1e-6);
        }
    }

    #[test]
    fn dc_only_mask_averages() {
        // Keeping only bin 0 projects each channel onto its mean.
        let (bsz, n, d) = (1, 4, 1);
        let m = n / 2 + 1;
        let mut br = ones_branch(m, d);
        br.mask = vec![1.0, 0.0, 0.0];
        let x = Tensor::param(NdArray::from_vec(vec![bsz, n, d], vec![1., 2., 3., 6.]));
        let y = spectral_filter_mix(&x, &[br]);
        for v in y.value().data() {
            assert!((v - 3.0).abs() < 1e-4, "{v}");
        }
    }

    #[test]
    fn two_branch_mix_is_linear() {
        let (bsz, n, d) = (1, 8, 2);
        let m = n / 2 + 1;
        let x = Tensor::param(NdArray::from_vec(
            vec![bsz, n, d],
            (0..bsz * n * d).map(|i| (i as f32 * 0.9).cos()).collect(),
        ));
        let gamma = 0.25;
        let b1 = SpectralBranch {
            coef: 1.0 - gamma,
            ..ones_branch(m, d)
        };
        let b2 = SpectralBranch {
            coef: gamma,
            ..ones_branch(m, d)
        };
        let mixed = spectral_filter_mix(&x, &[b1.clone(), b2]);
        let only1 = spectral_filter_mix(&x, &[SpectralBranch { coef: 1.0, ..b1 }]);
        // Since both filters are identical, the gamma-mix equals either branch alone.
        for (a, b) in mixed.value().data().iter().zip(only1.value().data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn gradients_flow_to_weights_and_input() {
        let (bsz, n, d) = (2, 6, 2);
        let m = n / 2 + 1;
        let br = ones_branch(m, d);
        let x = Tensor::param(NdArray::from_vec(
            vec![bsz, n, d],
            (0..bsz * n * d).map(|i| (i as f32 * 0.21).sin()).collect(),
        ));
        let w = Tensor::constant(NdArray::from_vec(
            vec![bsz, n, d],
            (0..bsz * n * d).map(|i| (i as f32 * 1.7).cos()).collect(),
        ));
        let y = spectral_filter_mix(&x, std::slice::from_ref(&br));
        sum_all(&mul(&y, &w)).backward();
        assert!(x.grad().is_some());
        assert!(br.w_re.grad().is_some());
        assert!(br.w_im.grad().is_some());
        let gw = br.w_re.grad().unwrap();
        assert!(gw.data().iter().any(|v| v.abs() > 1e-6));
    }

    #[test]
    fn masked_bins_receive_no_weight_gradient() {
        let (bsz, n, d) = (1, 8, 1);
        let m = n / 2 + 1;
        let mut br = ones_branch(m, d);
        br.mask = vec![0.0, 1.0, 1.0, 0.0, 0.0];
        let x = Tensor::param(NdArray::from_vec(
            vec![bsz, n, d],
            (0..n).map(|i| (i as f32).sin()).collect(),
        ));
        let y = spectral_filter_mix(&x, std::slice::from_ref(&br));
        sum_all(&mul(&y, &y)).backward();
        let g = br.w_re.grad().unwrap();
        assert_eq!(g.data()[0], 0.0);
        assert_eq!(g.data()[3], 0.0);
        assert_eq!(g.data()[4], 0.0);
        assert!(g.data()[1].abs() > 0.0 || g.data()[2].abs() > 0.0);
    }

    #[test]
    fn dft_tables_match_fft_plan_and_roundtrip() {
        // The cached-table matmul path computes the same rfft as the FFT
        // plan, and its irfft fold tables invert it (even and odd n, so
        // both Nyquist conventions are covered).
        for n in [4usize, 7, 50] {
            let m = n / 2 + 1;
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
            let tab = DftTables::new(n);
            let mut xre = vec![0.0f32; m];
            let mut xim = vec![0.0f32; m];
            crate::ndarray::matmul_rows(&tab.cre, &x, &mut xre, n, 1);
            crate::ndarray::matmul_rows(&tab.cim, &x, &mut xim, n, 1);
            with_cached_plan(n, |plan| {
                let mut buf: Vec<Complex32> = x.iter().map(|&v| Complex32::new(v, 0.0)).collect();
                plan.forward(&mut buf);
                for k in 0..m {
                    assert!((xre[k] - buf[k].re).abs() < 1e-3, "n={n} re bin {k}");
                    assert!((xim[k] - buf[k].im).abs() < 1e-3, "n={n} im bin {k}");
                }
            });
            let mut y = vec![0.0f32; n];
            crate::ndarray::matmul_rows(&tab.dre, &xre, &mut y, m, 1);
            crate::ndarray::matmul_rows(&tab.dim, &xim, &mut y, m, 1);
            for (t, (a, b)) in y.iter().zip(&x).enumerate() {
                assert!((a - b).abs() < 1e-4, "n={n} roundtrip t={t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn long_sequences_use_fft_path() {
        // n > DFT_MATMUL_MAX_N exercises the Bluestein/FFT branch end to
        // end: the identity filter must still be the identity and gradients
        // must still flow.
        let (bsz, n, d) = (1, DFT_MATMUL_MAX_N + 22, 2);
        let m = n / 2 + 1;
        let x = Tensor::param(NdArray::from_vec(
            vec![bsz, n, d],
            (0..bsz * n * d).map(|i| (i as f32 * 0.13).sin()).collect(),
        ));
        let y = spectral_filter_mix(&x, &[ones_branch(m, d)]);
        for (a, b) in y.value().data().iter().zip(x.value().data()) {
            assert!((a - b).abs() < 2e-3, "{a} vs {b}");
        }
        sum_all(&mul(&y, &y)).backward();
        assert!(x.grad().is_some());
    }

    #[test]
    fn odd_length_sequences_work() {
        let (bsz, n, d) = (1, 7, 2);
        let m = n / 2 + 1;
        let x = Tensor::param(NdArray::from_vec(
            vec![bsz, n, d],
            (0..bsz * n * d).map(|i| i as f32 * 0.1).collect(),
        ));
        let y = spectral_filter_mix(&x, &[ones_branch(m, d)]);
        for (a, b) in y.value().data().iter().zip(x.value().data()) {
            assert!((a - b).abs() < 1e-4);
        }
        sum_all(&y).backward();
        assert!(x.grad().is_some());
    }
}

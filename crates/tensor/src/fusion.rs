//! Fused forward epilogues: multi-op subgraphs collapsed into single graph
//! nodes backed by the fused entries of the SIMD dispatch table.
//!
//! The three fusions here target the SLIME block's elementwise tails, which
//! the unfused op chain executes as separate full passes over the activation
//! (and, for the broadcast bias-add and scalar-gate multiplies, as *scalar*
//! odometer walks that the per-element dispatch can't vectorize):
//!
//! * [`matmul_bias_gelu`] — the FFN's `gelu(x·W + b)` in one matmul plus one
//!   fused row pass ([`Kernels::bias_gelu`](crate::simd::Kernels)), instead
//!   of matmul → broadcast add → gelu (three passes, one of them scalar).
//! * [`add_layer_norm`] — the residual `LN(a + b)` with the sum, mean, and
//!   variance produced by one row pass
//!   ([`Kernels::add_mean_var`](crate::simd::Kernels)).
//! * [`gate_mix`] — the slide-filter gate `yd·(1-g) + ys·g` in one pass
//!   ([`Kernels::gate_mix`](crate::simd::Kernels)), instead of two broadcast
//!   multiplies and an add.
//!
//! # Parity contract
//!
//! On the scalar backend every fused op is bitwise identical to the op chain
//! it replaces (the kernels compute the same expressions in the same order).
//! On AVX2, [`add_layer_norm`] and [`gate_mix`] are bitwise identical to
//! their unfused counterparts for any width; [`matmul_bias_gelu`] is bitwise
//! identical when the output width is a multiple of 8 (the fused kernel's
//! GELU lane grouping restarts at each row, the flat unfused pass doesn't).
//! `tests/fusion_parity.rs` enforces all of this plus gradcheck agreement,
//! and `crates/core/tests/determinism.rs` pins the end-to-end contract.
//! See DESIGN.md §14.
//!
//! Callers gate on [`crate::simd::fuse::enabled`] (`SLIME_FUSE` /
//! `--no-fuse`) and fall back to the unfused chain when it is off.

use crate::ndarray::NdArray;
use crate::tensor::{Op, Tensor};

/// Fused `gelu(x·W + b)` for `x [m,k]`, `w [k,n]`, `bias [n]`.
///
/// One graph node replacing the matmul → broadcast-add → gelu chain; saves
/// the pre-activation `z = x·W + b` for the backward pass.
pub fn matmul_bias_gelu(x: &Tensor, w: &Tensor, bias: &Tensor) -> Tensor {
    let _prof = super::ops::fwd_prof("matmul_bias_gelu", x.len());
    let (sx, sw) = (x.shape(), w.shape());
    assert!(
        sx.len() == 2 && sw.len() == 2 && sx[1] == sw[0],
        "matmul_bias_gelu: incompatible shapes {sx:?} x {sw:?}"
    );
    assert_eq!(bias.shape(), vec![sw[1]], "bias must be [n]");
    let (out, z) = matmul_bias_gelu_fwd(&x.data(), &w.data(), &bias.data());
    Tensor::from_op(
        out,
        vec![x.clone(), w.clone(), bias.clone()],
        Box::new(MatmulBiasGeluOp { z }),
    )
}

/// Forward body: returns `(gelu(z), z)` with `z = x·W + b`.
fn matmul_bias_gelu_fwd(x: &NdArray, w: &NdArray, bias: &NdArray) -> (NdArray, NdArray) {
    let n = bias.len();
    let mut pre = x.matmul2d(w);
    let rows = pre.len() / n;
    debug_assert_eq!(pre.len(), rows * n, "matmul rows divide by the bias width");
    let mut out = crate::pool::take_filled(pre.len(), 0.0);
    let k = crate::simd::kernels();
    {
        // `pre` is freshly produced by the matmul, so this is a true
        // in-place epilogue (no copy-on-write).
        let pm = pre.data_mut();
        let bw = bias.data();
        for r in 0..rows {
            (k.bias_gelu)(
                &mut pm[r * n..(r + 1) * n],
                bw,
                &mut out[r * n..(r + 1) * n],
            );
        }
    }
    let shape = pre.shape().to_vec();
    (NdArray::from_vec(shape, out), pre)
}

struct MatmulBiasGeluOp {
    /// Pre-activation `z = x·W + b`.
    z: NdArray,
}

impl Op for MatmulBiasGeluOp {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>> {
        let z = &self.z;
        let shape = z.shape().to_vec();
        let n = shape[1];
        let rows = shape[0];
        let zd = z.data();
        let g = grad.data();
        let k = crate::simd::kernels();
        let mut dpre = crate::pool::take_filled(z.len(), 0.0);
        let mut db = crate::pool::take_filled(n, 0.0);
        // Rows accumulate into `db` in ascending order — the same column
        // order `reduce_to_shape` uses on the unfused chain.
        for r in 0..rows {
            (k.bias_gelu_bwd)(
                &zd[r * n..(r + 1) * n],
                &g[r * n..(r + 1) * n],
                &mut dpre[r * n..(r + 1) * n],
                &mut db,
            );
        }
        let dpre = NdArray::from_vec(shape, dpre);
        let dx = dpre.matmul2d_nt(&parents[1].data());
        let dw = parents[0].data().matmul2d_tn(&dpre);
        vec![Some(dx), Some(dw), Some(NdArray::from_vec(vec![n], db))]
    }
    fn name(&self) -> &'static str {
        "matmul_bias_gelu"
    }
}

/// Fused residual layer norm `LN(a + b)` over the last dimension
/// (`a.shape == b.shape`, `gamma`/`beta` 1-D of the last-dim size).
///
/// One graph node replacing the add → layer_norm chain; the sum and its
/// row statistics come out of a single fused pass.
pub fn add_layer_norm(a: &Tensor, b: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
    let _prof = super::ops::fwd_prof("add_layer_norm", a.len());
    let shape = a.shape();
    assert_eq!(shape, b.shape(), "add_layer_norm operands must match");
    assert!(!shape.is_empty(), "add_layer_norm needs >= 1 dim");
    let d = shape[shape.len() - 1];
    assert_eq!(gamma.shape(), vec![d], "gamma shape");
    assert_eq!(beta.shape(), vec![d], "beta shape");
    let (out, xhat, inv_std) =
        add_layer_norm_fwd(&a.data(), &b.data(), &gamma.data(), &beta.data(), eps, d);
    Tensor::from_op(
        out,
        vec![a.clone(), b.clone(), gamma.clone(), beta.clone()],
        Box::new(AddLayerNormOp { xhat, inv_std }),
    )
}

/// Forward body: returns `(out, xhat, inv_std)`.
fn add_layer_norm_fwd(
    a: &NdArray,
    b: &NdArray,
    gamma: &NdArray,
    beta: &NdArray,
    eps: f32,
    d: usize,
) -> (NdArray, NdArray, Vec<f32>) {
    let rows = a.len() / d;
    let ad = a.data();
    let bd = b.data();
    let gw = gamma.data();
    let bw = beta.data();
    debug_assert!(
        ad.len() == rows * d && bd.len() == ad.len() && gw.len() == d && bw.len() == d,
        "residual operands are [rows, d] with [d] affine params"
    );
    let mut sum = crate::pool::take_filled(a.len(), 0.0);
    let mut xhat = crate::pool::take_filled(a.len(), 0.0);
    let mut out = crate::pool::take_filled(a.len(), 0.0);
    let mut inv_std = crate::pool::take_filled(rows, 0.0);
    let k = crate::simd::kernels();
    for r in 0..rows {
        let row = r * d..(r + 1) * d;
        let (mean, var) =
            (k.add_mean_var)(&ad[row.clone()], &bd[row.clone()], &mut sum[row.clone()]);
        let istd = 1.0 / (var + eps).sqrt();
        inv_std[r] = istd;
        (k.layernorm_affine)(
            &sum[row.clone()],
            mean,
            istd,
            gw,
            bw,
            &mut xhat[row.clone()],
            &mut out[row],
        );
    }
    crate::pool::recycle(sum);
    let shape = a.shape().to_vec();
    (
        NdArray::from_vec(shape.clone(), out),
        NdArray::from_vec(shape, xhat),
        inv_std,
    )
}

struct AddLayerNormOp {
    xhat: NdArray,
    inv_std: Vec<f32>,
}

impl Op for AddLayerNormOp {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>> {
        // Identical to LayerNormOp's backward on the summed input; the sum's
        // gradient then flows unchanged to both addends.
        let gamma = parents[2].data();
        let d = gamma.len();
        let (xhat, inv_std) = (&self.xhat, &self.inv_std);
        let rows = xhat.len() / d;
        let xh = xhat.data();
        let g = grad.data();
        debug_assert_eq!(g.len(), xhat.len(), "grad matches saved xhat");
        let gw = gamma.data();
        let mut dx = crate::pool::take_filled(xhat.len(), 0.0);
        let mut dgamma = crate::pool::take_filled(d, 0.0);
        let mut dbeta = crate::pool::take_filled(d, 0.0);
        for r in 0..rows {
            let base = r * d;
            let mut mean_dxhat = 0.0f32;
            let mut mean_dxhat_xhat = 0.0f32;
            for j in 0..d {
                let dxh = g[base + j] * gw[j];
                mean_dxhat += dxh;
                mean_dxhat_xhat += dxh * xh[base + j];
                dgamma[j] += g[base + j] * xh[base + j];
                dbeta[j] += g[base + j];
            }
            mean_dxhat /= d as f32;
            mean_dxhat_xhat /= d as f32;
            let istd = inv_std[r];
            for j in 0..d {
                let dxh = g[base + j] * gw[j];
                dx[base + j] = istd * (dxh - mean_dxhat - xh[base + j] * mean_dxhat_xhat);
            }
        }
        let dx = NdArray::from_vec(xhat.shape().to_vec(), dx);
        vec![
            Some(dx.clone()),
            Some(dx),
            Some(NdArray::from_vec(vec![d], dgamma)),
            Some(NdArray::from_vec(vec![d], dbeta)),
        ]
    }
    fn name(&self) -> &'static str {
        "add_layer_norm"
    }
}

/// Fused slide-filter gate `yd·(1-g) + ys·g` for same-shape `yd`/`ys` and a
/// one-element gate `g` (a sigmoid output).
///
/// One graph node replacing neg → add_scalar → two broadcast muls → add.
/// Stateless: backward reads the parents' current values.
pub fn gate_mix(yd: &Tensor, ys: &Tensor, g: &Tensor) -> Tensor {
    let _prof = super::ops::fwd_prof("gate_mix", yd.len());
    assert_eq!(yd.shape(), ys.shape(), "gate_mix branches must match");
    assert_eq!(g.len(), 1, "gate must be one element");
    let out = gate_mix_fwd(&yd.data(), &ys.data(), &g.data());
    Tensor::from_op(
        out,
        vec![yd.clone(), ys.clone(), g.clone()],
        Box::new(GateMixOp),
    )
}

/// Forward body. `1 - g` is computed as `g * -1.0 + 1.0`, the exact
/// expression of the unfused neg → add_scalar chain.
fn gate_mix_fwd(yd: &NdArray, ys: &NdArray, g: &NdArray) -> NdArray {
    let gv = g.scalar_value();
    let om = gv * -1.0 + 1.0;
    let mut out = crate::pool::take_filled(yd.len(), 0.0);
    (crate::simd::kernels().gate_mix)(yd.data(), ys.data(), om, gv, &mut out);
    NdArray::from_vec(yd.shape().to_vec(), out)
}

struct GateMixOp;

impl Op for GateMixOp {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>> {
        let (yd, ys, gt) = (parents[0].data(), parents[1].data(), parents[2].data());
        let gv = gt.scalar_value();
        let om = gv * -1.0 + 1.0;
        let mut dyd = crate::pool::take_filled(yd.len(), 0.0);
        let mut dys = crate::pool::take_filled(ys.len(), 0.0);
        let (sum_gyd, sum_gys) = (crate::simd::kernels().gate_mix_bwd)(
            grad.data(),
            yd.data(),
            ys.data(),
            om,
            gv,
            &mut dyd,
            &mut dys,
        );
        // dg = Σ grad·ys − Σ grad·yd; written as `+ sum·(-1)` to mirror the
        // unfused chain's negate-then-accumulate bitwise.
        let dg = sum_gys + sum_gyd * -1.0;
        vec![
            Some(NdArray::from_vec(yd.shape().to_vec(), dyd)),
            Some(NdArray::from_vec(ys.shape().to_vec(), dys)),
            Some(NdArray::from_vec(gt.shape().to_vec(), vec![dg])),
        ]
    }
    fn name(&self) -> &'static str {
        "gate_mix"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn param(shape: &[usize], f: impl Fn(usize) -> f32) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::param(NdArray::from_vec(shape.to_vec(), (0..n).map(f).collect()))
    }

    #[test]
    fn matmul_bias_gelu_matches_unfused_chain() {
        let x = param(&[3, 4], |i| (i as f32 * 0.37).sin());
        let w = param(&[4, 8], |i| (i as f32 * 0.11).cos() * 0.5);
        let b = param(&[8], |i| i as f32 * 0.05 - 0.2);
        let fused = matmul_bias_gelu(&x, &w, &b);
        let unfused = ops::gelu(&ops::add(&ops::matmul(&x, &w), &b));
        assert_eq!(fused.value().data(), unfused.value().data());
    }

    #[test]
    fn add_layer_norm_matches_unfused_chain() {
        let a = param(&[2, 6], |i| (i as f32 * 0.7).sin());
        let b = param(&[2, 6], |i| (i as f32 * 0.3).cos());
        let gamma = param(&[6], |i| 1.0 + i as f32 * 0.1);
        let beta = param(&[6], |i| i as f32 * 0.05);
        let fused = add_layer_norm(&a, &b, &gamma, &beta, 1e-5);
        let unfused = ops::layer_norm(&ops::add(&a, &b), &gamma, &beta, 1e-5);
        assert_eq!(fused.value().data(), unfused.value().data());
    }

    #[test]
    fn gate_mix_matches_unfused_chain() {
        let yd = param(&[2, 5], |i| (i as f32 * 0.9).sin());
        let ys = param(&[2, 5], |i| (i as f32 * 0.4).cos());
        let g = param(&[1], |_| 0.3);
        let fused = gate_mix(&yd, &ys, &g);
        let om = ops::add_scalar(&ops::neg(&g), 1.0);
        let unfused = ops::add(&ops::mul(&yd, &om), &ops::mul(&ys, &g));
        assert_eq!(fused.value().data(), unfused.value().data());
    }
}

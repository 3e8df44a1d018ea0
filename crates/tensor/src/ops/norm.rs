//! Normalization ops: layer normalization (paper Eq. 10/28/30) and L2
//! normalization (used by the contrastive similarity).

use crate::ndarray::NdArray;
use crate::tensor::{Op, Tensor};

/// Layer normalization over the last dimension:
/// `y = (x - mean) / sqrt(var + eps) * gamma + beta`.
///
/// `gamma` and `beta` must be 1-D of the last-dim size.
pub fn layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
    let _prof = super::fwd_prof("layer_norm", x.len());
    let shape = x.shape();
    assert!(!shape.is_empty(), "layer_norm needs >= 1 dim");
    let d = shape[shape.len() - 1];
    assert_eq!(gamma.shape(), vec![d], "gamma shape");
    assert_eq!(beta.shape(), vec![d], "beta shape");
    let (out, xhat, inv_std) = layer_norm_fwd(&x.data(), &gamma.data(), &beta.data(), eps, d);
    Tensor::from_op(
        out,
        vec![x.clone(), gamma.clone(), beta.clone()],
        Box::new(LayerNormOp { xhat, inv_std }),
    )
}

/// Forward body: returns `(out, xhat, inv_std)`.
pub(crate) fn layer_norm_fwd(
    x: &NdArray,
    gamma: &NdArray,
    beta: &NdArray,
    eps: f32,
    d: usize,
) -> (NdArray, NdArray, Vec<f32>) {
    let rows = x.len() / d;
    let src = x.data();
    let gw = gamma.data();
    let bw = beta.data();
    debug_assert!(
        src.len() == rows * d && gw.len() == d && bw.len() == d,
        "layer_norm rows divide evenly and affine params are [d]"
    );
    let mut out = crate::pool::take_filled(x.len(), 0.0);
    let mut xhat = crate::pool::take_filled(x.len(), 0.0);
    let mut inv_std = crate::pool::take_filled(rows, 0.0);
    let k = crate::simd::kernels();
    for r in 0..rows {
        let row = &src[r * d..(r + 1) * d];
        let (mean, var) = (k.mean_var)(row);
        let istd = 1.0 / (var + eps).sqrt();
        inv_std[r] = istd;
        (k.layernorm_affine)(
            row,
            mean,
            istd,
            gw,
            bw,
            &mut xhat[r * d..(r + 1) * d],
            &mut out[r * d..(r + 1) * d],
        );
    }
    let shape = x.shape().to_vec();
    (
        NdArray::from_vec(shape.clone(), out),
        NdArray::from_vec(shape, xhat),
        inv_std,
    )
}

struct LayerNormOp {
    xhat: NdArray,
    inv_std: Vec<f32>,
}

impl Op for LayerNormOp {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>> {
        let gamma = parents[1].data();
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
            // dxhat = g * gamma
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
        vec![
            Some(NdArray::from_vec(xhat.shape().to_vec(), dx)),
            Some(NdArray::from_vec(vec![d], dgamma)),
            Some(NdArray::from_vec(vec![d], dbeta)),
        ]
    }
    fn name(&self) -> &'static str {
        "layer_norm"
    }
}

/// L2-normalize each row of the last dimension: `y = x / max(||x||, eps)`.
pub fn l2_normalize(x: &Tensor, eps: f32) -> Tensor {
    let _prof = super::fwd_prof("l2_normalize", x.len());
    let shape = x.shape();
    assert!(!shape.is_empty(), "l2_normalize needs >= 1 dim");
    let d = shape[shape.len() - 1];
    let (out, inv_norm) = l2_normalize_fwd(&x.data(), eps, d);
    let y = out.clone();
    Tensor::from_op(
        out,
        vec![x.clone()],
        Box::new(L2NormalizeOp { y, inv_norm, d }),
    )
}

/// Forward body: returns `(out, inv_norm)`.
fn l2_normalize_fwd(x: &NdArray, eps: f32, d: usize) -> (NdArray, Vec<f32>) {
    let rows = x.len() / d;
    let src = x.data();
    debug_assert_eq!(src.len(), rows * d, "l2_normalize rows divide evenly");
    let mut out = crate::pool::take_filled(x.len(), 0.0);
    let mut inv_norm = crate::pool::take_filled(rows, 0.0);
    let k = crate::simd::kernels();
    for r in 0..rows {
        let row = &src[r * d..(r + 1) * d];
        let norm = (k.dot)(row, row).sqrt().max(eps);
        let inv = 1.0 / norm;
        inv_norm[r] = inv;
        (k.scale)(row, inv, &mut out[r * d..(r + 1) * d]);
    }
    (NdArray::from_vec(x.shape().to_vec(), out), inv_norm)
}

struct L2NormalizeOp {
    y: NdArray,
    inv_norm: Vec<f32>,
    d: usize,
}

impl Op for L2NormalizeOp {
    fn backward(&self, grad: &NdArray, _parents: &[Tensor]) -> Vec<Option<NdArray>> {
        // dx = (g - y * (y . g)) / ||x||
        let d = self.d;
        let (saved, inv_norm) = (&self.y, &self.inv_norm);
        let rows = saved.len() / d;
        let y = saved.data();
        let g = grad.data();
        debug_assert_eq!(g.len(), saved.len(), "grad matches saved output");
        let mut dx = crate::pool::take_filled(saved.len(), 0.0);
        let k = crate::simd::kernels();
        for r in 0..rows {
            let base = r * d;
            let dot = (k.dot)(&y[base..base + d], &g[base..base + d]);
            let inv = inv_norm[r];
            for j in 0..d {
                dx[base + j] = (g[base + j] - y[base + j] * dot) * inv;
            }
        }
        vec![Some(NdArray::from_vec(saved.shape().to_vec(), dx))]
    }
    fn name(&self) -> &'static str {
        "l2_normalize"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::sum_all;

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let x = Tensor::constant(NdArray::from_vec(
            vec![2, 4],
            vec![1., 2., 3., 4., -2., 0., 2., 8.],
        ));
        let gamma = Tensor::constant(NdArray::ones(vec![4]));
        let beta = Tensor::constant(NdArray::zeros(vec![4]));
        let y = layer_norm(&x, &gamma, &beta, 1e-5).value();
        for r in 0..2 {
            let row = &y.data()[r * 4..(r + 1) * 4];
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layer_norm_affine_params() {
        let x = Tensor::constant(NdArray::from_vec(vec![1, 2], vec![0., 2.]));
        let gamma = Tensor::constant(NdArray::from_vec(vec![2], vec![2.0, 2.0]));
        let beta = Tensor::constant(NdArray::from_vec(vec![2], vec![1.0, 1.0]));
        let y = layer_norm(&x, &gamma, &beta, 1e-8).value();
        // normalized = [-1, 1] -> *2 + 1 = [-1, 3]
        assert!((y.data()[0] + 1.0).abs() < 1e-3);
        assert!((y.data()[1] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_input_grad_is_orthogonal_to_constants() {
        // Shifting the input by a constant doesn't change the output, so the
        // gradient must sum to ~0 per row.
        let x = Tensor::param(NdArray::from_vec(vec![1, 4], vec![0.5, -1.0, 2.0, 0.3]));
        let gamma = Tensor::constant(NdArray::from_vec(vec![4], vec![1.5, 0.5, 2.0, 1.0]));
        let beta = Tensor::constant(NdArray::zeros(vec![4]));
        let y = layer_norm(&x, &gamma, &beta, 1e-5);
        // Weighted sum so the grad is nontrivial.
        let w = Tensor::constant(NdArray::from_vec(vec![1, 4], vec![1.0, -2.0, 0.5, 3.0]));
        sum_all(&crate::ops::mul(&y, &w)).backward();
        let g = x.grad().unwrap();
        let s: f32 = g.data().iter().sum();
        assert!(s.abs() < 1e-4, "grad sum {s}");
    }

    #[test]
    fn l2_normalize_unit_norm() {
        let x = Tensor::constant(NdArray::from_vec(vec![2, 2], vec![3., 4., 0., 5.]));
        let y = l2_normalize(&x, 1e-12).value();
        assert!((y.data()[0] - 0.6).abs() < 1e-6);
        assert!((y.data()[1] - 0.8).abs() < 1e-6);
        assert!((y.data()[3] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_grad_orthogonal_to_direction() {
        // y has constant norm, so gradient of any function through y is
        // orthogonal to x: x . dx = 0.
        let x = Tensor::param(NdArray::from_vec(vec![1, 3], vec![1.0, 2.0, -0.5]));
        let w = Tensor::constant(NdArray::from_vec(vec![1, 3], vec![0.2, -1.0, 0.7]));
        sum_all(&crate::ops::mul(&l2_normalize(&x, 1e-12), &w)).backward();
        let g = x.grad().unwrap();
        let dot = g.data()[0] * 1.0 + g.data()[1] * 2.0 + g.data()[2] * -0.5;
        assert!(dot.abs() < 1e-5, "x.dx = {dot}");
    }
}

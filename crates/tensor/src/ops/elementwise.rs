//! Elementwise arithmetic and activation ops (with NumPy broadcasting for
//! the binary ones).

use super::{assert_broadcastable, unary};
use crate::ndarray::NdArray;
use crate::tensor::{Op, Tensor};

/// Same-shape binary fast path through the SIMD dispatch table; mismatched
/// shapes fall back to the general broadcasting walk. The scalar backend's
/// kernels compute the identical per-element expressions, so routing through
/// the table never changes values.
fn binary_dispatch(
    a: &NdArray,
    b: &NdArray,
    kernel: fn(&[f32], &[f32], &mut [f32]),
    fallback: impl Fn(f32, f32) -> f32,
) -> NdArray {
    if a.shape() == b.shape() {
        let mut out = crate::pool::take_filled(a.len(), 0.0);
        kernel(a.data(), b.data(), &mut out);
        NdArray::from_vec(a.shape().to_vec(), out)
    } else {
        a.broadcast_zip(b, fallback)
    }
}

/// `src * c` through the dispatch table.
fn scale_arr(a: &NdArray, c: f32) -> NdArray {
    let mut out = crate::pool::take_filled(a.len(), 0.0);
    (crate::simd::kernels().scale)(a.data(), c, &mut out);
    NdArray::from_vec(a.shape().to_vec(), out)
}

/// `a + b` with broadcasting.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    assert_broadcastable(&a.shape(), &b.shape(), "add");
    let out = binary_dispatch(&a.data(), &b.data(), crate::simd::kernels().add, |x, y| {
        x + y
    });
    Tensor::from_op(
        out,
        vec![a.clone(), b.clone()],
        Box::new(AddOp {
            a_shape: a.shape(),
            b_shape: b.shape(),
            sign: 1.0,
        }),
    )
}

/// `a - b` with broadcasting.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    assert_broadcastable(&a.shape(), &b.shape(), "sub");
    let out = binary_dispatch(&a.data(), &b.data(), crate::simd::kernels().sub, |x, y| {
        x - y
    });
    Tensor::from_op(
        out,
        vec![a.clone(), b.clone()],
        Box::new(AddOp {
            a_shape: a.shape(),
            b_shape: b.shape(),
            sign: -1.0,
        }),
    )
}

struct AddOp {
    a_shape: Vec<usize>,
    b_shape: Vec<usize>,
    /// +1 for add, -1 for sub (applied to `b`'s gradient).
    sign: f32,
}

impl Op for AddOp {
    fn backward(&self, grad: &NdArray, _parents: &[Tensor]) -> Vec<Option<NdArray>> {
        let ga = grad.reduce_to_shape(&self.a_shape);
        let mut gb = grad.reduce_to_shape(&self.b_shape);
        if self.sign < 0.0 {
            gb.map_inplace(|v| -v);
        }
        vec![Some(ga), Some(gb)]
    }
    fn name(&self) -> &'static str {
        "add"
    }
}

/// `a * b` elementwise with broadcasting.
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_broadcastable(&a.shape(), &b.shape(), "mul");
    let out = binary_dispatch(&a.data(), &b.data(), crate::simd::kernels().mul, |x, y| {
        x * y
    });
    Tensor::from_op(out, vec![a.clone(), b.clone()], Box::new(MulOp))
}

/// Stateless: backward reads the operands from the parent tensors.
struct MulOp;

impl Op for MulOp {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>> {
        debug_assert_eq!(parents.len(), 2, "mul has two parents");
        let k = crate::simd::kernels();
        let (a, b) = (parents[0].data(), parents[1].data());
        let ga = binary_dispatch(grad, &b, k.mul, |g, b| g * b).reduce_to_shape(a.shape());
        let gb = binary_dispatch(grad, &a, k.mul, |g, a| g * a).reduce_to_shape(b.shape());
        vec![Some(ga), Some(gb)]
    }
    fn name(&self) -> &'static str {
        "mul"
    }
}

/// `-a`.
pub fn neg(a: &Tensor) -> Tensor {
    scale(a, -1.0)
}

/// `c * a` for a constant scalar `c`.
pub fn scale(a: &Tensor, c: f32) -> Tensor {
    let out = scale_arr(&a.data(), c);
    unary("scale", a, out, NdArray::scalar(c), |g, saved| {
        scale_arr(g, saved.scalar_value())
    })
}

/// `a + c` for a constant scalar `c`.
pub fn add_scalar(a: &Tensor, c: f32) -> Tensor {
    let out = a.data().map(|v| v + c);
    unary("add_scalar", a, out, NdArray::scalar(c), |g, _| g.clone())
}

/// `exp(a)`.
pub fn exp(a: &Tensor) -> Tensor {
    let out = a.data().map(f32::exp);
    let saved = out.clone();
    unary("exp", a, out, saved, |g, y| g.zip_map(y, |g, y| g * y))
}

/// `ln(max(a, 1e-12))` — clamped to keep gradients finite near zero.
pub fn log(a: &Tensor) -> Tensor {
    const EPS: f32 = 1e-12;
    let out = a.data().map(|v| v.max(EPS).ln());
    unary("log", a, out, a.value(), |g, x| {
        g.zip_map(x, |g, x| g / x.max(EPS))
    })
}

/// Logistic sigmoid `1 / (1 + e^{-a})`.
pub fn sigmoid(a: &Tensor) -> Tensor {
    let out = a.data().map(|v| 1.0 / (1.0 + (-v).exp()));
    let saved = out.clone();
    unary("sigmoid", a, out, saved, |g, y| {
        g.zip_map(y, |g, y| g * y * (1.0 - y))
    })
}

/// Hyperbolic tangent.
pub fn tanh(a: &Tensor) -> Tensor {
    let out = a.data().map(f32::tanh);
    let saved = out.clone();
    unary("tanh", a, out, saved, |g, y| {
        g.zip_map(y, |g, y| g * (1.0 - y * y))
    })
}

/// Rectified linear unit.
pub fn relu(a: &Tensor) -> Tensor {
    let out = a.data().map(|v| v.max(0.0));
    unary("relu", a, out, a.value(), |g, x| {
        g.zip_map(x, |g, x| if x > 0.0 { g } else { 0.0 })
    })
}

/// GELU activation (tanh approximation, as used by BERT/the paper's FFN,
/// Eq. 29). The branch-free `fast_tanh` inner loop lives in
/// `crate::simd::scalar`, with an 8-wide FMA variant dispatched at runtime;
/// both forward and backward route through the table.
pub fn gelu(a: &Tensor) -> Tensor {
    let data = a.data();
    let out = gelu_arr(&data);
    drop(data);
    unary("gelu", a, out, a.value(), |g, x| {
        let mut dx = crate::pool::take_filled(g.len(), 0.0);
        (crate::simd::kernels().gelu_bwd)(x.data(), g.data(), &mut dx);
        NdArray::from_vec(g.shape().to_vec(), dx)
    })
}

fn gelu_arr(x: &NdArray) -> NdArray {
    let mut out = crate::pool::take_filled(x.len(), 0.0);
    (crate::simd::kernels().gelu_fwd)(x.data(), &mut out);
    NdArray::from_vec(x.shape().to_vec(), out)
}

/// Numerically-stable `softplus(a) = ln(1 + e^a)`.
pub fn softplus(a: &Tensor) -> Tensor {
    let out = a.data().map(softplus_scalar);
    unary("softplus", a, out, a.value(), |g, x| {
        g.zip_map(x, |g, x| g / (1.0 + (-x).exp()))
    })
}

fn softplus_scalar(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        (1.0 + x.exp()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::scalar::fast_tanh;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::param(NdArray::from_vec(shape.to_vec(), data.to_vec()))
    }

    #[test]
    fn fast_tanh_tracks_libm() {
        // Dense sweep across the useful range plus saturated tails.
        for i in -2000..=2000 {
            let x = i as f32 * 0.01;
            let err = (fast_tanh(x) - x.tanh()).abs();
            assert!(err < 2e-6, "fast_tanh({x}) off by {err}");
        }
        assert_eq!(fast_tanh(40.0), fast_tanh(9.0));
        assert_eq!(fast_tanh(-40.0), fast_tanh(-9.0));
    }

    #[test]
    fn add_broadcast_backward_reduces() {
        let a = t(&[2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = t(&[3], &[10., 20., 30.]);
        let y = add(&a, &b);
        assert_eq!(y.value().data(), &[11., 22., 33., 14., 25., 36.]);
        let loss = sum_all_helper(&y);
        loss.backward();
        assert_eq!(a.grad().unwrap().data(), &[1.; 6]);
        assert_eq!(b.grad().unwrap().data(), &[2., 2., 2.]);
    }

    #[test]
    fn sub_backward_negates_rhs() {
        let a = t(&[2], &[5., 6.]);
        let b = t(&[2], &[1., 2.]);
        let loss = sum_all_helper(&sub(&a, &b));
        loss.backward();
        assert_eq!(a.grad().unwrap().data(), &[1., 1.]);
        assert_eq!(b.grad().unwrap().data(), &[-1., -1.]);
    }

    #[test]
    fn mul_broadcast_grads() {
        let a = t(&[2, 2], &[1., 2., 3., 4.]);
        let b = t(&[2], &[10., 100.]);
        let loss = sum_all_helper(&mul(&a, &b));
        loss.backward();
        assert_eq!(a.grad().unwrap().data(), &[10., 100., 10., 100.]);
        assert_eq!(b.grad().unwrap().data(), &[4., 6.]);
    }

    #[test]
    fn activation_values() {
        let x = t(&[3], &[-1.0, 0.0, 2.0]);
        assert_eq!(relu(&x).value().data(), &[0.0, 0.0, 2.0]);
        let s = sigmoid(&x).value();
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        let th = tanh(&x).value();
        assert!((th.data()[2] - 2.0f32.tanh()).abs() < 1e-6);
        let g = gelu(&x).value();
        assert!(g.data()[1].abs() < 1e-6); // gelu(0) = 0
        assert!((g.data()[2] - 1.9545977).abs() < 1e-3); // gelu(2)
    }

    #[test]
    fn softplus_extremes_are_stable() {
        let x = t(&[3], &[-50.0, 0.0, 50.0]);
        let y = softplus(&x).value();
        assert!(y.data()[0] >= 0.0 && y.data()[0] < 1e-8);
        assert!((y.data()[1] - (2.0f32).ln()).abs() < 1e-6);
        assert!((y.data()[2] - 50.0).abs() < 1e-4);
    }

    #[test]
    fn log_is_clamped() {
        let x = t(&[2], &[0.0, 1.0]);
        let y = log(&x).value();
        assert!(y.data()[0].is_finite());
        assert_eq!(y.data()[1], 0.0);
    }

    fn sum_all_helper(x: &Tensor) -> Tensor {
        super::super::sum_all(x)
    }
}

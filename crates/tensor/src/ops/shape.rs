//! Shape-manipulation ops: reshape, permute, slicing, concatenation, and the
//! gather/unfold primitives used by the convolutional and BERT-style models.

use crate::ndarray::{numel, NdArray};
use crate::tensor::{Op, Tensor};

/// Reshape to a new shape with the same element count.
pub fn reshape(x: &Tensor, shape: impl Into<Vec<usize>>) -> Tensor {
    let out = x.data().reshape(shape.into());
    Tensor::from_op(
        out,
        vec![x.clone()],
        Box::new(ReshapeOp { orig: x.shape() }),
    )
}

struct ReshapeOp {
    orig: Vec<usize>,
}

impl Op for ReshapeOp {
    fn backward(&self, grad: &NdArray, _parents: &[Tensor]) -> Vec<Option<NdArray>> {
        vec![Some(grad.reshape(self.orig.clone()))]
    }
    fn name(&self) -> &'static str {
        "reshape"
    }
}

/// Permute dimensions.
pub fn permute(x: &Tensor, axes: &[usize]) -> Tensor {
    debug_assert_eq!(axes.len(), x.shape().len(), "one axis per dimension");
    let out = x.data().permute(axes);
    let mut inverse = vec![0usize; axes.len()];
    for (i, &a) in axes.iter().enumerate() {
        inverse[a] = i;
    }
    Tensor::from_op(out, vec![x.clone()], Box::new(PermuteOp { inverse }))
}

struct PermuteOp {
    inverse: Vec<usize>,
}

impl Op for PermuteOp {
    fn backward(&self, grad: &NdArray, _parents: &[Tensor]) -> Vec<Option<NdArray>> {
        vec![Some(grad.permute(&self.inverse))]
    }
    fn name(&self) -> &'static str {
        "permute"
    }
}

/// Select index `idx` along `axis`, removing that axis.
///
/// `index_axis(x, 1, N-1)` extracts the last time step of a `[B, N, D]`
/// tensor — the user representation `h_t^L` of the paper's Eq. 31.
pub fn index_axis(x: &Tensor, axis: usize, idx: usize) -> Tensor {
    slice_axis_impl(x, axis, idx, 1, true)
}

/// Slice `len` elements starting at `start` along `axis` (axis kept).
pub fn slice_axis(x: &Tensor, axis: usize, start: usize, len: usize) -> Tensor {
    slice_axis_impl(x, axis, start, len, false)
}

fn slice_axis_impl(x: &Tensor, axis: usize, start: usize, len: usize, squeeze: bool) -> Tensor {
    let shape = x.shape();
    assert!(axis < shape.len(), "axis out of range");
    assert!(start + len <= shape[axis], "slice out of range");
    let outer: usize = shape[..axis].iter().product();
    let mid = shape[axis];
    let inner: usize = shape[axis + 1..].iter().product();
    let data = x.data();
    let src = data.data();
    let mut out = crate::pool::take_empty(outer * len * inner);
    for o in 0..outer {
        let base = (o * mid + start) * inner;
        out.extend_from_slice(&src[base..base + len * inner]);
    }
    let mut out_shape = shape.clone();
    if squeeze && len == 1 {
        out_shape.remove(axis);
    } else {
        out_shape[axis] = len;
    }
    drop(data);
    Tensor::from_op(
        NdArray::from_vec(out_shape, out),
        vec![x.clone()],
        Box::new(SliceOp {
            shape,
            axis,
            start,
            len,
        }),
    )
}

struct SliceOp {
    shape: Vec<usize>,
    axis: usize,
    start: usize,
    len: usize,
}

impl Op for SliceOp {
    fn backward(&self, grad: &NdArray, _parents: &[Tensor]) -> Vec<Option<NdArray>> {
        let outer: usize = self.shape[..self.axis].iter().product();
        let mid = self.shape[self.axis];
        let inner: usize = self.shape[self.axis + 1..].iter().product();
        debug_assert!(self.start + self.len <= mid, "slice range within the axis");
        let mut out = crate::pool::take_filled(numel(&self.shape), 0.0);
        let g = grad.data();
        for o in 0..outer {
            let dst_base = (o * mid + self.start) * inner;
            let src_base = o * self.len * inner;
            out[dst_base..dst_base + self.len * inner]
                .copy_from_slice(&g[src_base..src_base + self.len * inner]);
        }
        vec![Some(NdArray::from_vec(self.shape.clone(), out))]
    }
    fn name(&self) -> &'static str {
        "slice"
    }
}

/// Concatenate tensors along `axis`. All other dimensions must match.
pub fn concat(xs: &[Tensor], axis: usize) -> Tensor {
    assert!(!xs.is_empty(), "concat of zero tensors");
    let first_shape = xs[0].shape();
    let nd = first_shape.len();
    assert!(axis < nd, "concat axis out of range");
    let mut sizes = Vec::with_capacity(xs.len());
    let mut total = 0usize;
    for x in xs {
        let s = x.shape();
        assert_eq!(s.len(), nd, "concat rank mismatch");
        for d in 0..nd {
            if d != axis {
                assert_eq!(s[d], first_shape[d], "concat dim {d} mismatch");
            }
        }
        sizes.push(s[axis]);
        total += s[axis];
    }
    let outer: usize = first_shape[..axis].iter().product();
    let inner: usize = first_shape[axis + 1..].iter().product();
    let mut out_shape = first_shape.clone();
    out_shape[axis] = total;
    let mut out = crate::pool::take_filled(numel(&out_shape), 0.0);
    let mut offset = 0usize;
    for (x, &sz) in xs.iter().zip(&sizes) {
        let data = x.data();
        let src = data.data();
        for o in 0..outer {
            let dst = (o * total + offset) * inner;
            let s = o * sz * inner;
            out[dst..dst + sz * inner].copy_from_slice(&src[s..s + sz * inner]);
        }
        offset += sz;
    }
    Tensor::from_op(
        NdArray::from_vec(out_shape, out),
        xs.to_vec(),
        Box::new(ConcatOp {
            axis,
            sizes,
            outer,
            inner,
            total,
        }),
    )
}

struct ConcatOp {
    axis: usize,
    sizes: Vec<usize>,
    outer: usize,
    inner: usize,
    total: usize,
}

impl Op for ConcatOp {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>> {
        let g = grad.data();
        debug_assert_eq!(
            g.len(),
            self.outer * self.total * self.inner,
            "grad is the concat shape"
        );
        let mut out = Vec::with_capacity(parents.len());
        let mut offset = 0usize;
        for (p, &sz) in parents.iter().zip(&self.sizes) {
            let mut buf = crate::pool::take_filled(p.len(), 0.0);
            for o in 0..self.outer {
                let src = (o * self.total + offset) * self.inner;
                let dst = o * sz * self.inner;
                buf[dst..dst + sz * self.inner].copy_from_slice(&g[src..src + sz * self.inner]);
            }
            out.push(Some(NdArray::from_vec(p.shape(), buf)));
            offset += sz;
        }
        let _ = self.axis;
        out
    }
    fn name(&self) -> &'static str {
        "concat"
    }
}

/// Sliding-window unfold over the time axis of a `[B, N, D]` tensor:
/// output `[B, N - w + 1, w * D]` where window `t` flattens rows
/// `x[b, t .. t + w, :]`.
///
/// This is the im2col primitive behind Caser's horizontal convolutions.
pub fn unfold_time(x: &Tensor, window: usize) -> Tensor {
    let shape = x.shape();
    assert_eq!(shape.len(), 3, "unfold_time expects [B, N, D]");
    let (b, n, d) = (shape[0], shape[1], shape[2]);
    assert!(window >= 1 && window <= n, "window out of range");
    let steps = n - window + 1;
    let data = x.data();
    let src = data.data();
    let mut out = crate::pool::take_empty(b * steps * window * d);
    for bi in 0..b {
        for t in 0..steps {
            let base = (bi * n + t) * d;
            out.extend_from_slice(&src[base..base + window * d]);
        }
    }
    drop(data);
    Tensor::from_op(
        NdArray::from_vec(vec![b, steps, window * d], out),
        vec![x.clone()],
        Box::new(UnfoldOp { b, n, d, window }),
    )
}

struct UnfoldOp {
    b: usize,
    n: usize,
    d: usize,
    window: usize,
}

impl Op for UnfoldOp {
    fn backward(&self, grad: &NdArray, _parents: &[Tensor]) -> Vec<Option<NdArray>> {
        let steps = self.n - self.window + 1;
        let g = grad.data();
        debug_assert_eq!(
            g.len(),
            self.b * steps * self.window * self.d,
            "grad is [b, steps, window, d]"
        );
        let mut out = crate::pool::take_filled(self.b * self.n * self.d, 0.0);
        for bi in 0..self.b {
            for t in 0..steps {
                let src = (bi * steps + t) * self.window * self.d;
                let dst = (bi * self.n + t) * self.d;
                for j in 0..self.window * self.d {
                    out[dst + j] += g[src + j];
                }
            }
        }
        vec![Some(NdArray::from_vec(vec![self.b, self.n, self.d], out))]
    }
    fn name(&self) -> &'static str {
        "unfold_time"
    }
}

/// Gather rows at `(batch, time)` positions from a `[B, N, D]` tensor,
/// producing `[P, D]`.
///
/// Used by BERT4Rec to pull the hidden states of masked positions.
pub fn gather_positions(x: &Tensor, positions: &[(usize, usize)]) -> Tensor {
    let shape = x.shape();
    assert_eq!(shape.len(), 3, "gather_positions expects [B, N, D]");
    let (b, n, d) = (shape[0], shape[1], shape[2]);
    let data = x.data();
    let src = data.data();
    let mut out = crate::pool::take_empty(positions.len() * d);
    for &(bi, t) in positions {
        assert!(bi < b && t < n, "position ({bi},{t}) out of range");
        let base = (bi * n + t) * d;
        out.extend_from_slice(&src[base..base + d]);
    }
    drop(data);
    Tensor::from_op(
        NdArray::from_vec(vec![positions.len(), d], out),
        vec![x.clone()],
        Box::new(GatherPositionsOp {
            b,
            n,
            d,
            positions: positions.to_vec(),
        }),
    )
}

struct GatherPositionsOp {
    b: usize,
    n: usize,
    d: usize,
    positions: Vec<(usize, usize)>,
}

impl Op for GatherPositionsOp {
    fn backward(&self, grad: &NdArray, _parents: &[Tensor]) -> Vec<Option<NdArray>> {
        let g = grad.data();
        debug_assert_eq!(
            g.len(),
            self.positions.len() * self.d,
            "one grad row per gathered position"
        );
        let mut out = crate::pool::take_filled(self.b * self.n * self.d, 0.0);
        for (p, &(bi, t)) in self.positions.iter().enumerate() {
            let dst = (bi * self.n + t) * self.d;
            for j in 0..self.d {
                out[dst + j] += g[p * self.d + j];
            }
        }
        vec![Some(NdArray::from_vec(vec![self.b, self.n, self.d], out))]
    }
    fn name(&self) -> &'static str {
        "gather_positions"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::sum_all;

    #[test]
    fn reshape_backward_restores_shape() {
        let x = Tensor::param(NdArray::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]));
        let y = reshape(&x, vec![3, 2]);
        sum_all(&y).backward();
        assert_eq!(x.grad().unwrap().shape(), &[2, 3]);
    }

    #[test]
    fn index_axis_extracts_last_step() {
        let x = Tensor::param(NdArray::from_vec(
            vec![2, 3, 2],
            (0..12).map(|v| v as f32).collect(),
        ));
        let y = index_axis(&x, 1, 2);
        assert_eq!(y.shape(), vec![2, 2]);
        assert_eq!(y.value().data(), &[4., 5., 10., 11.]);
        sum_all(&y).backward();
        let g = x.grad().unwrap();
        let expected: Vec<f32> = vec![0., 0., 0., 0., 1., 1., 0., 0., 0., 0., 1., 1.];
        assert_eq!(g.data(), expected.as_slice());
    }

    #[test]
    fn slice_axis_range() {
        let x = Tensor::param(NdArray::from_vec(vec![4], vec![1., 2., 3., 4.]));
        let y = slice_axis(&x, 0, 1, 2);
        assert_eq!(y.value().data(), &[2., 3.]);
        sum_all(&y).backward();
        assert_eq!(x.grad().unwrap().data(), &[0., 1., 1., 0.]);
    }

    #[test]
    fn concat_and_split_grads() {
        let a = Tensor::param(NdArray::from_vec(vec![2, 1], vec![1., 2.]));
        let b = Tensor::param(NdArray::from_vec(vec![2, 2], vec![3., 4., 5., 6.]));
        let y = concat(&[a.clone(), b.clone()], 1);
        assert_eq!(y.shape(), vec![2, 3]);
        assert_eq!(y.value().data(), &[1., 3., 4., 2., 5., 6.]);
        sum_all(&y).backward();
        assert_eq!(a.grad().unwrap().data(), &[1., 1.]);
        assert_eq!(b.grad().unwrap().data(), &[1., 1., 1., 1.]);
    }

    #[test]
    fn unfold_time_windows() {
        // B=1, N=4, D=1, window=2 -> [1, 3, 2]
        let x = Tensor::param(NdArray::from_vec(vec![1, 4, 1], vec![1., 2., 3., 4.]));
        let y = unfold_time(&x, 2);
        assert_eq!(y.shape(), vec![1, 3, 2]);
        assert_eq!(y.value().data(), &[1., 2., 2., 3., 3., 4.]);
        sum_all(&y).backward();
        // middle elements appear in two windows
        assert_eq!(x.grad().unwrap().data(), &[1., 2., 2., 1.]);
    }

    #[test]
    fn gather_positions_roundtrip() {
        let x = Tensor::param(NdArray::from_vec(
            vec![2, 2, 2],
            (0..8).map(|v| v as f32).collect(),
        ));
        let y = gather_positions(&x, &[(0, 1), (1, 0)]);
        assert_eq!(y.shape(), vec![2, 2]);
        assert_eq!(y.value().data(), &[2., 3., 4., 5.]);
        sum_all(&y).backward();
        assert_eq!(x.grad().unwrap().data(), &[0., 0., 1., 1., 1., 1., 0., 0.]);
    }

    #[test]
    fn permute_grad_has_original_shape() {
        let x = Tensor::param(NdArray::from_vec(
            vec![2, 3, 4],
            (0..24).map(|v| v as f32).collect(),
        ));
        let y = permute(&x, &[2, 0, 1]);
        assert_eq!(y.shape(), vec![4, 2, 3]);
        sum_all(&y).backward();
        assert_eq!(x.grad().unwrap().shape(), &[2, 3, 4]);
    }
}

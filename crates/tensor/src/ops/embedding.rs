//! Embedding lookup (paper Eq. 9) with scatter-add backward.

use crate::ndarray::NdArray;
use crate::tensor::{Op, Tensor};

/// Look up rows of `weight` (`[V, D]`) at `indices`, producing a tensor of
/// shape `batch_shape + [D]`.
///
/// `indices.len()` must equal the product of `batch_shape`. The backward pass
/// scatter-adds the output gradient into the rows of the weight gradient, so
/// repeated indices accumulate.
pub fn embedding(weight: &Tensor, indices: &[usize], batch_shape: &[usize]) -> Tensor {
    let _prof = super::fwd_prof("embedding", indices.len());
    let wshape = weight.shape();
    assert_eq!(wshape.len(), 2, "embedding weight must be [V, D]");
    let (v, d) = (wshape[0], wshape[1]);
    let n: usize = batch_shape.iter().product();
    assert_eq!(indices.len(), n, "indices length vs batch shape");
    let mut out_shape = batch_shape.to_vec();
    out_shape.push(d);
    let out = lookup(&weight.data(), indices, v, d, out_shape);
    Tensor::from_op(
        out,
        vec![weight.clone()],
        Box::new(EmbeddingOp {
            v,
            d,
            indices: indices.to_vec(),
        }),
    )
}

/// Gather the rows of `data` (`[v, d]`) at `indices` into `out_shape`.
fn lookup(data: &NdArray, indices: &[usize], v: usize, d: usize, out_shape: Vec<usize>) -> NdArray {
    let w = data.data();
    let mut out = crate::pool::take_empty(indices.len() * d);
    for &idx in indices {
        assert!(idx < v, "embedding index {idx} out of vocab {v}");
        out.extend_from_slice(&w[idx * d..(idx + 1) * d]);
    }
    NdArray::from_vec(out_shape, out)
}

struct EmbeddingOp {
    v: usize,
    d: usize,
    indices: Vec<usize>,
}

impl Op for EmbeddingOp {
    fn backward(&self, grad: &NdArray, _parents: &[Tensor]) -> Vec<Option<NdArray>> {
        let g = grad.data();
        let (v, d) = (self.v, self.d);
        let indices = &self.indices;
        debug_assert_eq!(g.len(), indices.len() * d, "grad is [rows, d]");
        // Stable counting sort of gradient rows by target vocab index. Each
        // vocab row's contributions are then applied in ascending gradient-row
        // order — exactly the order the serial scatter-add used — so the
        // parallel scatter below is bitwise identical to it at any thread
        // count (grid and order depend only on the data, never on threads).
        let mut starts = vec![0usize; v + 1];
        for &idx in indices.iter() {
            starts[idx + 1] += 1;
        }
        for u in 0..v {
            starts[u + 1] += starts[u];
        }
        let mut cursor = starts.clone();
        let mut order = vec![0usize; indices.len()];
        for (row, &idx) in indices.iter().enumerate() {
            order[cursor[idx]] = row;
            cursor[idx] += 1;
        }
        let mut dw = crate::pool::take_filled(v * d, 0.0);
        {
            let w = slime_par::UnsafeSlice::new(&mut dw);
            let (starts, order) = (&starts, &order);
            slime_par::parallel_for(v, (4096 / d.max(1)).max(1), |v0, v1| {
                // SAFETY: vocab ranges partition `0..v`, so the row slices
                // are disjoint across chunks.
                // lint-proof(l8): w[v0 * d .. v1 * d]
                let rows = unsafe { w.slice_mut(v0 * d, (v1 - v0) * d) };
                for u in v0..v1 {
                    let dst = (u - v0) * d;
                    for &row in &order[starts[u]..starts[u + 1]] {
                        let src = row * d;
                        for j in 0..d {
                            rows[dst + j] += g[src + j];
                        }
                    }
                }
            });
        }
        vec![Some(NdArray::from_vec(vec![v, d], dw))]
    }
    fn name(&self) -> &'static str {
        "embedding"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::sum_all;

    #[test]
    fn lookup_shapes_and_values() {
        let w = Tensor::param(NdArray::from_vec(vec![3, 2], vec![1., 2., 3., 4., 5., 6.]));
        let e = embedding(&w, &[2, 0, 2, 1], &[2, 2]);
        assert_eq!(e.shape(), vec![2, 2, 2]);
        assert_eq!(e.value().data(), &[5., 6., 1., 2., 5., 6., 3., 4.]);
    }

    #[test]
    fn repeated_indices_accumulate_grad() {
        let w = Tensor::param(NdArray::zeros(vec![3, 2]));
        let e = embedding(&w, &[1, 1, 0], &[3]);
        sum_all(&e).backward();
        let g = w.grad().unwrap();
        assert_eq!(g.data(), &[1., 1., 2., 2., 0., 0.]);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn rejects_out_of_range_index() {
        let w = Tensor::param(NdArray::zeros(vec![2, 2]));
        embedding(&w, &[5], &[1]);
    }
}

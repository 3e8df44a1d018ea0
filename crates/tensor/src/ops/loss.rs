//! Classification losses.

use crate::ndarray::NdArray;
use crate::tensor::{Op, Tensor};

/// Logit elements per parallel chunk of the cross-entropy row loop. Chunking
/// depends only on the `[B, V]` shape, so the per-chunk `f64` partial losses
/// — and their in-order fold — are bitwise identical at any thread count.
const CE_CHUNK_ELEMS: usize = 1 << 16;

fn rows_per_chunk(v: usize) -> usize {
    (CE_CHUNK_ELEMS / v.max(1)).max(1)
}

/// Mean softmax cross-entropy of `logits` (`[B, V]`) against integer
/// `targets`.
///
/// This is the recommendation objective of the paper's Eq. 31–32 (softmax
/// over the whole item set, negative log-likelihood of the ground-truth
/// item) and also the InfoNCE objective of Eq. 34 when `logits` are
/// similarity scores and `targets` index the positive column.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> Tensor {
    let _prof = super::fwd_prof("cross_entropy", logits.len());
    let shape = logits.shape();
    assert_eq!(shape.len(), 2, "cross_entropy expects [B, V] logits");
    let (b, v) = (shape[0], shape[1]);
    assert_eq!(targets.len(), b, "one target per row");
    for &t in targets {
        assert!(t < v, "target {t} out of range {v}");
    }
    let (softmax, loss) = softmax_and_loss(&logits.data(), targets, b, v);
    Tensor::from_op(
        NdArray::scalar(loss),
        vec![logits.clone()],
        Box::new(CrossEntropyOp {
            softmax,
            targets: targets.to_vec(),
        }),
    )
}

/// Row-parallel softmax + loss. Each chunk writes its own softmax rows and
/// returns an f64 partial loss; partials are folded in chunk order.
fn softmax_and_loss(data: &NdArray, targets: &[usize], b: usize, v: usize) -> (NdArray, f32) {
    let src = data.data();
    debug_assert!(
        src.len() == b * v && targets.len() == b,
        "logits are [b, v] with one target per row"
    );
    let mut softmax = crate::pool::take_filled(b * v, 0.0);
    let loss = {
        let w = slime_par::UnsafeSlice::new(&mut softmax);
        slime_par::parallel_map_reduce(
            b,
            rows_per_chunk(v),
            |r0, r1| {
                // SAFETY: row ranges partition `0..b`, disjoint across chunks.
                let sm = unsafe { w.slice_mut(r0 * v, (r1 - r0) * v) };
                let mut part = 0.0f64;
                for r in r0..r1 {
                    let row = &src[r * v..(r + 1) * v];
                    let out = &mut sm[(r - r0) * v..(r - r0 + 1) * v];
                    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let mut sum = 0.0f32;
                    for (o, &x) in out.iter_mut().zip(row) {
                        let e = (x - max).exp();
                        *o = e;
                        sum += e;
                    }
                    let inv = 1.0 / sum;
                    for o in out.iter_mut() {
                        *o *= inv;
                    }
                    let lse = max + sum.ln();
                    part += (lse - row[targets[r]]) as f64;
                }
                part
            },
            |a, b| a + b,
        )
        .unwrap_or(0.0)
    };
    (
        NdArray::from_vec(vec![b, v], softmax),
        (loss / b as f64) as f32,
    )
}

struct CrossEntropyOp {
    softmax: NdArray,
    targets: Vec<usize>,
}

impl Op for CrossEntropyOp {
    fn backward(&self, grad: &NdArray, _parents: &[Tensor]) -> Vec<Option<NdArray>> {
        let g = grad.scalar_value();
        let shape = self.softmax.shape().to_vec();
        let (b, v) = (shape[0], shape[1]);
        let targets = &self.targets[..];
        debug_assert_eq!(targets.len(), b, "one target per softmax row");
        let scale = g / b as f32;
        let sm = self.softmax.data();
        let mut dx = crate::pool::take_filled(b * v, 0.0);
        {
            let w = slime_par::UnsafeSlice::new(&mut dx);
            slime_par::parallel_for(b, rows_per_chunk(v), |r0, r1| {
                // SAFETY: row ranges partition `0..b`, disjoint across chunks.
                // lint-proof(l8): w[r0 * v .. r1 * v]
                let out = unsafe { w.slice_mut(r0 * v, (r1 - r0) * v) };
                out.copy_from_slice(&sm[r0 * v..r1 * v]);
                for r in r0..r1 {
                    out[(r - r0) * v + targets[r]] -= 1.0;
                }
                for o in out.iter_mut() {
                    *o *= scale;
                }
            });
        }
        vec![Some(NdArray::from_vec(shape, dx))]
    }
    fn name(&self) -> &'static str {
        "cross_entropy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_v() {
        let logits = Tensor::param(NdArray::zeros(vec![2, 4]));
        let loss = cross_entropy(&logits, &[0, 3]);
        assert!((loss.item() - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_logits_give_near_zero_loss() {
        let mut data = vec![0.0f32; 8];
        data[1] = 50.0; // row 0 target 1
        data[4 + 2] = 50.0; // row 1 target 2
        let logits = Tensor::param(NdArray::from_vec(vec![2, 4], data));
        let loss = cross_entropy(&logits, &[1, 2]);
        assert!(loss.item() < 1e-4);
    }

    #[test]
    fn gradient_is_softmax_minus_onehot_over_b() {
        let logits = Tensor::param(NdArray::zeros(vec![1, 2]));
        cross_entropy(&logits, &[0]).backward();
        let g = logits.grad().unwrap();
        assert!((g.data()[0] + 0.5).abs() < 1e-6);
        assert!((g.data()[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn loss_decreases_with_one_sgd_step() {
        let logits = Tensor::param(NdArray::from_vec(vec![1, 3], vec![0.1, 0.0, -0.1]));
        let before = cross_entropy(&logits, &[2]);
        before.backward();
        let g = logits.grad().unwrap();
        let stepped: Vec<f32> = logits
            .value()
            .data()
            .iter()
            .zip(g.data())
            .map(|(v, gv)| v - 1.0 * gv)
            .collect();
        let after = cross_entropy(&Tensor::param(NdArray::from_vec(vec![1, 3], stepped)), &[2]);
        assert!(after.item() < before.item());
    }
}

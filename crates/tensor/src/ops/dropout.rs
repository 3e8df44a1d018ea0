//! Inverted dropout.

use slime_rng::Rng;

use crate::ndarray::NdArray;
use crate::tensor::{Op, Tensor};

/// Inverted dropout: zero each element with probability `p` and scale the
/// survivors by `1/(1-p)` so expectations are preserved.
///
/// Dropout is the source of the "model-level augmentation" of the paper's
/// contrastive task (Section III-E): passing the same sequence through the
/// network twice with independent dropout masks yields two semantically
/// similar but numerically different views.
///
/// Two samplers, both deterministic under a seeded `rng`:
///
/// * **hashed** (fused fast path, [`crate::simd::fuse::enabled`]): one
///   `u64` drawn from `rng` seeds a counter-based per-index hash
///   ([`Kernels::dropout_mask`](crate::simd::Kernels)) — branchless, 8-lane
///   vectorizable, and bitwise identical across SIMD backends;
/// * **sequential** (`--no-fuse`): the historical draw-per-element walk,
///   kept bit-exact so the escape hatch reproduces pre-fusion results.
///
/// Callers implement eval mode by *not* applying dropout (there is no
/// internal training flag).
pub fn dropout(x: &Tensor, p: f32, rng: &mut impl Rng) -> Tensor {
    let _prof = super::fwd_prof("dropout", x.len());
    assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
    if p == 0.0 {
        // Identity but still a graph node, so callers can rely on a fresh tensor.
        return crate::ops::scale(x, 1.0);
    }
    let keep = 1.0 - p;
    let scale = 1.0 / keep;
    let data = x.data();
    let src = data.data();
    // One pass writing `mask` (0 or `scale`) and `out = src * mask`.
    let mut mask = crate::pool::take_filled(x.len(), 0.0);
    let mut out = crate::pool::take_filled(x.len(), 0.0);
    if crate::simd::fuse::enabled() {
        let seed = rng.gen::<u64>();
        (crate::simd::kernels().dropout_mask)(seed, keep, scale, src, &mut mask, &mut out);
    } else {
        for ((m, o), &v) in mask.iter_mut().zip(out.iter_mut()).zip(src) {
            if rng.gen::<f32>() < keep {
                *m = scale;
                *o = v * scale;
            }
        }
    }
    let shape = x.shape();
    drop(data);
    Tensor::from_op(
        NdArray::from_vec(shape.clone(), out),
        vec![x.clone()],
        Box::new(DropoutOp {
            mask: NdArray::from_vec(shape, mask),
        }),
    )
}

struct DropoutOp {
    mask: NdArray,
}

impl Op for DropoutOp {
    fn backward(&self, grad: &NdArray, _parents: &[Tensor]) -> Vec<Option<NdArray>> {
        vec![Some(grad.zip_map(&self.mask, |g, m| g * m))]
    }
    fn name(&self) -> &'static str {
        "dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::sum_all;
    use slime_rng::rngs::StdRng;
    use slime_rng::SeedableRng;
    use std::sync::Mutex;

    /// Serializes the tests that flip the process-global fuse gate: test
    /// threads share it, so one test's flip would switch another's sampler
    /// mid-test.
    static FUSE_GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn zero_p_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::param(NdArray::from_vec(vec![4], vec![1., 2., 3., 4.]));
        let y = dropout(&x, 0.0, &mut rng);
        assert_eq!(y.value().data(), x.value().data());
    }

    #[test]
    fn survivors_are_scaled_and_grad_matches_mask() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::param(NdArray::ones(vec![1000]));
        let y = dropout(&x, 0.5, &mut rng);
        let vals = y.value();
        let kept = vals.data().iter().filter(|&&v| v != 0.0).count();
        // Expect roughly half kept.
        assert!((300..700).contains(&kept), "kept {kept}");
        for &v in vals.data() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
        sum_all(&y).backward();
        let g = x.grad().unwrap();
        for (gv, yv) in g.data().iter().zip(vals.data()) {
            assert_eq!(*gv != 0.0, *yv != 0.0);
        }
    }

    #[test]
    fn expectation_roughly_preserved() {
        let mut rng = StdRng::seed_from_u64(42);
        let x = Tensor::constant(NdArray::ones(vec![10_000]));
        let y = dropout(&x, 0.3, &mut rng);
        let mean = y.value().mean_all();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn hashed_sampler_preserves_expectation_and_seed_determinism() {
        let _gate = FUSE_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let was = crate::simd::fuse::enabled();
        crate::simd::fuse::set_enabled(true);
        let x = Tensor::constant(NdArray::ones(vec![10_000]));
        let mut rng = StdRng::seed_from_u64(42);
        let y = dropout(&x, 0.3, &mut rng);
        let mean = y.value().mean_all();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // Same rng state -> same seed draw -> identical mask.
        let mut rng2 = StdRng::seed_from_u64(42);
        let y2 = dropout(&x, 0.3, &mut rng2);
        assert_eq!(y.value().data(), y2.value().data());
        // Different state -> a different mask (two contrastive views).
        let y3 = dropout(&x, 0.3, &mut rng2);
        assert_ne!(y2.value().data(), y3.value().data());
        crate::simd::fuse::set_enabled(was);
    }

    #[test]
    fn samplers_follow_the_fuse_gate() {
        // Sequential consumes one draw per element; hashed consumes one u64
        // (two PCG outputs) total — observable through the rng state.
        let _gate = FUSE_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let was = crate::simd::fuse::enabled();
        let x = Tensor::constant(NdArray::ones(vec![100]));
        crate::simd::fuse::set_enabled(false);
        let mut rng = StdRng::seed_from_u64(7);
        let _ = dropout(&x, 0.5, &mut rng);
        let mut reference = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let _ = reference.gen::<f32>();
        }
        assert_eq!(rng.gen::<u32>(), reference.gen::<u32>());
        crate::simd::fuse::set_enabled(true);
        let mut rng = StdRng::seed_from_u64(7);
        let _ = dropout(&x, 0.5, &mut rng);
        let mut reference = StdRng::seed_from_u64(7);
        let _ = reference.gen::<u64>();
        assert_eq!(rng.gen::<u32>(), reference.gen::<u32>());
        crate::simd::fuse::set_enabled(was);
    }
}

//! Contrastive regularization (paper Section III-E, Eqs. 33–35).
//!
//! Two views of each user representation are pulled together while all
//! other in-batch samples are pushed apart. The symmetric two-direction
//! objective of Eq. 33 is implemented in the standard concatenated form:
//! stack both views into `z = [h'; h'_s]` (2B rows), score every pair,
//! mask self-similarities, and cross-entropy each row against its partner
//! row — which is exactly `L(h', h'_s) + L(h'_s, h')` up to the 1/2B mean.
//!
//! `sim(., .)` is cosine similarity over temperature: the representations
//! that feed the softmax recommendation head grow in norm as training
//! sharpens the item logits, and unnormalized dot-product InfoNCE then
//! saturates at chance while flooding the encoder with large noisy
//! gradients. Normalizing bounds the logits to `[-1/tau, 1/tau]` and keeps
//! the contrastive term a well-behaved regularizer (the SimCLR convention).

use slime_tensor::{ops, NdArray, Tensor};

/// Symmetric InfoNCE between two `[B, d]` view matrices with in-batch
/// negatives.
///
/// `temperature` scales similarities (`cos_sim / tau`).
pub fn info_nce(h1: &Tensor, h2: &Tensor, temperature: f32) -> Tensor {
    info_nce_impl(h1, h2, temperature, None)
}

/// InfoNCE with *false-negative masking*: in-batch samples that share the
/// same target item as the anchor are excluded from the denominator (they
/// are semantically positive, so pushing them apart fights the
/// recommendation loss).
///
/// On the paper's datasets (12k–23k items) same-target collisions within a
/// batch are rare enough to ignore; on this reproduction's ~1/20-scale item
/// spaces they are frequent, and unmasked InfoNCE collapses the contrastive
/// models. Masking restores the paper's intended geometry at small scale
/// (see DESIGN.md §1).
pub fn info_nce_with_targets(
    h1: &Tensor,
    h2: &Tensor,
    targets: &[usize],
    temperature: f32,
) -> Tensor {
    assert_eq!(
        targets.len(),
        h1.shape()[0],
        "one target per contrastive sample"
    );
    info_nce_impl(h1, h2, temperature, Some(targets))
}

/// The `[2B, 2B]` additive logit mask: `-1e9` on the diagonal
/// (self-similarity), plus — when targets are known — on every same-target
/// pair that is not the anchor's designated partner.
fn pair_mask(b: usize, targets: Option<&[usize]>) -> Vec<f32> {
    let n = 2 * b;
    let mut mask = vec![0.0f32; n * n];
    for i in 0..n {
        mask[i * n + i] = -1e9;
    }
    if let Some(t) = targets {
        for i in 0..n {
            let partner = if i < b { i + b } else { i - b };
            for j in 0..n {
                if j == i || j == partner {
                    continue;
                }
                if t[i % b] == t[j % b] {
                    mask[i * n + j] = -1e9;
                }
            }
        }
    }
    mask
}

fn info_nce_impl(h1: &Tensor, h2: &Tensor, temperature: f32, targets: Option<&[usize]>) -> Tensor {
    let s1 = h1.shape();
    let s2 = h2.shape();
    assert_eq!(s1.len(), 2, "views must be [B, d]");
    assert_eq!(s1, s2, "view shapes must match");
    let b = s1[0];
    assert!(b >= 2, "contrastive batch needs >= 2 samples for negatives");
    assert!(temperature > 0.0);

    let z = ops::l2_normalize(&ops::concat(&[h1.clone(), h2.clone()], 0), 1e-8); // [2B, d]
    let zt = ops::permute(&z, &[1, 0]);
    let sim = ops::scale(&ops::matmul(&z, &zt), 1.0 / temperature); // [2B, 2B]

    let n = 2 * b;
    let mask_t = Tensor::constant(NdArray::from_vec(vec![n, n], pair_mask(b, targets)));
    let logits = ops::add(&sim, &mask_t);

    // Row i's positive is its partner view.
    let targets: Vec<usize> = (0..n).map(|i| if i < b { i + b } else { i - b }).collect();
    ops::cross_entropy(&logits, &targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slime_tensor::NdArray;

    fn t(shape: &[usize], data: Vec<f32>) -> Tensor {
        Tensor::param(NdArray::from_vec(shape.to_vec(), data))
    }

    #[test]
    fn aligned_views_give_low_loss() {
        // Views identical and strongly separated between samples.
        let h = vec![10.0, 0.0, 0.0, 10.0];
        let loss_aligned = info_nce(&t(&[2, 2], h.clone()), &t(&[2, 2], h), 1.0);
        // Views crossed: each sample's partner is the other sample.
        let crossed = vec![0.0, 10.0, 10.0, 0.0];
        let loss_crossed = info_nce(
            &t(&[2, 2], vec![10.0, 0.0, 0.0, 10.0]),
            &t(&[2, 2], crossed),
            1.0,
        );
        assert!(
            loss_aligned.item() < loss_crossed.item(),
            "{} vs {}",
            loss_aligned.item(),
            loss_crossed.item()
        );
    }

    #[test]
    fn loss_is_symmetric_in_views() {
        let a = t(&[3, 2], vec![1., 0., 0.5, 0.5, -1., 0.3]);
        let b = t(&[3, 2], vec![0.9, 0.1, 0.4, 0.6, -0.8, 0.2]);
        let lab = info_nce(&a, &b, 0.5).item();
        let lba = info_nce(&b, &a, 0.5).item();
        assert!((lab - lba).abs() < 1e-5);
    }

    #[test]
    fn gradients_flow_to_both_views() {
        let a = t(&[2, 2], vec![1., 0., 0., 1.]);
        let b = t(&[2, 2], vec![0.9, 0.1, 0.2, 0.8]);
        info_nce(&a, &b, 1.0).backward();
        assert!(a.grad().is_some());
        assert!(b.grad().is_some());
    }

    #[test]
    fn training_on_info_nce_aligns_views() {
        // Gradient descent on the loss should increase partner similarity.
        let a = t(&[2, 2], vec![0.5, 0.5, 0.5, -0.5]);
        let b = t(&[2, 2], vec![-0.1, 0.8, 0.7, 0.1]);
        let before = info_nce(&a, &b, 1.0).item();
        for _ in 0..50 {
            a.zero_grad();
            b.zero_grad();
            info_nce(&a, &b, 1.0).backward();
            for p in [&a, &b] {
                let g = p.grad().unwrap();
                p.with_data_mut(|d| d.add_scaled_assign(&g, -0.5));
            }
        }
        let after = info_nce(&a, &b, 1.0).item();
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn target_masking_removes_false_negative_pressure() {
        // Two samples share a target; their cross-similarity must not
        // contribute gradient when masked.
        let a = t(&[2, 2], vec![1.0, 0.0, 0.9, 0.1]);
        let b = t(&[2, 2], vec![0.95, 0.05, 0.85, 0.15]);
        // Unmasked: samples repel each other despite the shared target.
        let plain = info_nce(&a, &b, 1.0).item();
        // Masked: the only logit left per row is the true partner.
        let masked = info_nce_with_targets(&a, &b, &[7, 7], 1.0).item();
        assert!(
            masked < plain,
            "masking shared-target negatives must lower the loss: {masked} vs {plain}"
        );
        assert!(masked < 1e-3, "all negatives masked -> near-zero loss");
    }

    #[test]
    fn target_masking_keeps_distinct_target_negatives() {
        let a = t(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let b = t(&[2, 2], vec![0.9, 0.1, 0.1, 0.9]);
        let masked = info_nce_with_targets(&a, &b, &[1, 2], 1.0).item();
        let plain = info_nce(&a, &b, 1.0).item();
        // Distinct targets: nothing is masked, losses agree.
        assert!((masked - plain).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "one target per")]
    fn rejects_wrong_target_count() {
        let a = t(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let b = t(&[2, 2], vec![0.9, 0.1, 0.1, 0.9]);
        info_nce_with_targets(&a, &b, &[1], 1.0);
    }

    #[test]
    #[should_panic(expected = ">= 2")]
    fn rejects_batch_of_one() {
        let a = t(&[1, 2], vec![1., 0.]);
        let b = t(&[1, 2], vec![0., 1.]);
        info_nce(&a, &b, 1.0);
    }
}

//! Matrix-multiplication ops.
//!
//! Backward passes here never materialize a transpose: the adjoints
//! `dA = G B^T` and `dB = A^T G` route through the transpose-free
//! `matmul2d_nt` / `matmul2d_tn` kernels (and their `bmm` analogues) on the
//! saved *untransposed* operands, cutting one full read+write of each
//! operand per op per step.

use crate::ndarray::NdArray;
use crate::tensor::{Op, Tensor};

/// 2-D matrix multiply `[m,k] x [k,n] -> [m,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let _prof = super::fwd_prof("matmul", a.len());
    let (sa, sb) = (a.shape(), b.shape());
    assert!(
        sa.len() == 2 && sb.len() == 2 && sa[1] == sb[0],
        "matmul: incompatible shapes {sa:?} x {sb:?}"
    );
    let out = a.data().matmul2d(&b.data());
    Tensor::from_op(out, vec![a.clone(), b.clone()], Box::new(MatMulOp))
}

/// Stateless: backward reads the operands from the parent tensors.
struct MatMulOp;

impl Op for MatMulOp {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>> {
        debug_assert_eq!(parents.len(), 2, "matmul has two parents");
        // dA = G B^T ([m,n] x [k,n]^T); dB = A^T G ([m,k]^T x [m,n]).
        let ga = grad.matmul2d_nt(&parents[1].data());
        let gb = parents[0].data().matmul2d_tn(grad);
        vec![Some(ga), Some(gb)]
    }
    fn name(&self) -> &'static str {
        "matmul"
    }
}

/// 2-D matrix multiply against a transposed right operand:
/// `[m,k] x [n,k]^T -> [m,n]`, without ever materializing the transpose.
///
/// This is the full-catalog scoring shape — `repr [B,d] x item_emb [V,d]^T`
/// — and attention-style similarity against a row-major table in general.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let _prof = super::fwd_prof("matmul_nt", a.len());
    let (sa, sb) = (a.shape(), b.shape());
    assert!(
        sa.len() == 2 && sb.len() == 2 && sa[1] == sb[1],
        "matmul_nt: incompatible shapes {sa:?} x {sb:?}^T"
    );
    let out = a.data().matmul2d_nt(&b.data());
    Tensor::from_op(out, vec![a.clone(), b.clone()], Box::new(MatMulNtOp))
}

struct MatMulNtOp;

impl Op for MatMulNtOp {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>> {
        debug_assert_eq!(parents.len(), 2, "matmul_nt has two parents");
        // Y = A B^T: dA = G B ([m,n] x [n,k]); dB = G^T A ([m,n]^T x [m,k]).
        let ga = grad.matmul2d(&parents[1].data());
        let gb = grad.matmul2d_tn(&parents[0].data());
        vec![Some(ga), Some(gb)]
    }
    fn name(&self) -> &'static str {
        "matmul_nt"
    }
}

/// Batched matrix multiply `[b,m,k] x [b,k,n] -> [b,m,n]`.
pub fn bmm(a: &Tensor, b: &Tensor) -> Tensor {
    let _prof = super::fwd_prof("bmm", a.len());
    let (sa, sb) = (a.shape(), b.shape());
    assert!(
        sa.len() == 3 && sb.len() == 3 && sa[0] == sb[0] && sa[2] == sb[1],
        "bmm: incompatible shapes {sa:?} x {sb:?}"
    );
    let out = a.data().bmm(&b.data());
    Tensor::from_op(out, vec![a.clone(), b.clone()], Box::new(BmmOp))
}

struct BmmOp;

impl Op for BmmOp {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>> {
        debug_assert_eq!(parents.len(), 2, "bmm has two parents");
        // Per plane: dA = G B^T; dB = A^T G — transpose-free as in MatMulOp.
        let ga = grad.bmm_nt(&parents[1].data());
        let gb = parents[0].data().bmm_tn(grad);
        vec![Some(ga), Some(gb)]
    }
    fn name(&self) -> &'static str {
        "bmm"
    }
}

/// Batched matrix multiply against transposed right operands:
/// `[b,m,k] x [b,n,k]^T -> [b,m,n]`, without materializing the transposes.
///
/// This is attention's `Q K^T`: both operands come out of the projection
/// layers row-major, and the old `permute`-then-`bmm` route copied the full
/// key tensor per layer per step just to feed the `i-k-j` kernel.
pub fn bmm_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let _prof = super::fwd_prof("bmm_nt", a.len());
    let (sa, sb) = (a.shape(), b.shape());
    assert!(
        sa.len() == 3 && sb.len() == 3 && sa[0] == sb[0] && sa[2] == sb[2],
        "bmm_nt: incompatible shapes {sa:?} x {sb:?}^T"
    );
    let out = a.data().bmm_nt(&b.data());
    Tensor::from_op(out, vec![a.clone(), b.clone()], Box::new(BmmNtOp))
}

struct BmmNtOp;

impl Op for BmmNtOp {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>> {
        debug_assert_eq!(parents.len(), 2, "bmm_nt has two parents");
        // Per plane: Y = A B^T, so dA = G B and dB = G^T A.
        let ga = grad.bmm(&parents[1].data());
        let gb = grad.bmm_tn(&parents[0].data());
        vec![Some(ga), Some(gb)]
    }
    fn name(&self) -> &'static str {
        "bmm_nt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::sum_all;

    #[test]
    fn matmul_forward_and_grads() {
        let a = Tensor::param(NdArray::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]));
        let b = Tensor::param(NdArray::from_vec(
            vec![3, 2],
            vec![7., 8., 9., 10., 11., 12.],
        ));
        let y = matmul(&a, &b);
        assert_eq!(y.value().data(), &[58., 64., 139., 154.]);
        sum_all(&y).backward();
        // dA = 1s (2x2) @ B^T: each row = [col-sums of B rows] = [15, 19, 23]
        assert_eq!(a.grad().unwrap().data(), &[15., 19., 23., 15., 19., 23.]);
        // dB = A^T @ 1s: row i = [sum of A col i] repeated
        assert_eq!(b.grad().unwrap().data(), &[5., 5., 7., 7., 9., 9.]);
    }

    #[test]
    fn matmul_nt_matches_matmul_of_transpose() {
        let a = Tensor::param(NdArray::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]));
        // bt is [n, k]; matmul_nt(a, bt) == matmul(a, bt^T).
        let bt = Tensor::param(NdArray::from_vec(
            vec![2, 3],
            vec![7., 9., 11., 8., 10., 12.],
        ));
        let y = matmul_nt(&a, &bt);
        assert_eq!(y.value().data(), &[58., 64., 139., 154.]);
        sum_all(&y).backward();
        assert_eq!(a.grad().unwrap().data(), &[15., 19., 23., 15., 19., 23.]);
        // dB^T = (A^T @ 1s)^T: row j of bt's grad = col-sums of A = [5,7,9]
        assert_eq!(bt.grad().unwrap().data(), &[5., 7., 9., 5., 7., 9.]);
    }

    #[test]
    fn bmm_batches_are_independent() {
        let a = Tensor::param(NdArray::from_vec(vec![2, 1, 2], vec![1., 2., 3., 4.]));
        let b = Tensor::param(NdArray::from_vec(vec![2, 2, 1], vec![5., 6., 7., 8.]));
        let y = bmm(&a, &b);
        assert_eq!(y.value().data(), &[17., 53.]);
        sum_all(&y).backward();
        assert_eq!(a.grad().unwrap().data(), &[5., 6., 7., 8.]);
        assert_eq!(b.grad().unwrap().data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn bmm_nt_matches_bmm_of_transpose() {
        let a = Tensor::param(NdArray::from_vec(vec![2, 1, 2], vec![1., 2., 3., 4.]));
        // bt planes are [n, k] = [2, 2].
        let bt = Tensor::param(NdArray::from_vec(
            vec![2, 2, 2],
            vec![5., 7., 6., 8., 1., 0., 0., 1.],
        ));
        let y = bmm_nt(&a, &bt);
        assert_eq!(
            y.value().data(),
            a.value().bmm(&bt.value().transpose_last2()).data()
        );
        sum_all(&y).backward();
        let a2 = Tensor::param(a.value());
        let b2 = Tensor::param(bt.value().transpose_last2());
        sum_all(&bmm(&a2, &b2)).backward();
        assert_eq!(a.grad().unwrap().data(), a2.grad().unwrap().data());
        assert_eq!(
            bt.grad().unwrap().data(),
            b2.grad().unwrap().transpose_last2().data()
        );
    }
}

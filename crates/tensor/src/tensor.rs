//! The autodiff `Tensor`: an `Rc`-shared graph node recording the op that
//! produced it, with reverse-mode backpropagation.

use std::cell::{Ref, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::ndarray::NdArray;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A differentiable operation in the computation graph.
///
/// Implementors store whatever forward state their backward pass needs
/// (saved inputs/outputs are cheap `NdArray` clones — the buffer is shared).
pub trait Op {
    /// Given the gradient w.r.t. this op's output and the parent tensors,
    /// return the gradient w.r.t. each parent (`None` for parents that do not
    /// require grad or receive no gradient).
    fn backward(&self, grad_out: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>>;

    /// Op name for error messages and graph debugging.
    fn name(&self) -> &'static str;
}

static NODES_ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// Lifetime count of graph nodes allocated by [`Tensor::from_op`]
/// (gradient-tracking outputs only); published as the
/// `tape.nodes_allocated` gauge.
pub fn nodes_allocated() -> u64 {
    NODES_ALLOCATED.load(Ordering::Relaxed)
}

struct Node {
    parents: Vec<Tensor>,
    op: Box<dyn Op>,
}

impl Drop for Inner {
    // Dropping a deep graph naively recurses through the parent chain and
    // overflows the stack (a 20k-op chain is routine for RNNs / long training
    // graphs). Flatten the destruction into an explicit worklist instead.
    //
    // Invariant this relies on: `Op` implementations never store `Tensor`s
    // (only `NdArray` values and plain data), so `node.parents` is the only
    // place graph edges live.
    fn drop(&mut self) {
        let Some(node) = self.node.take() else { return };
        let mut worklist: Vec<Tensor> = node.parents;
        while let Some(t) = worklist.pop() {
            if let Ok(mut inner) = Rc::try_unwrap(t.inner) {
                if let Some(n) = inner.node.take() {
                    worklist.extend(n.parents);
                }
                // `inner` now has node == None; its Drop is trivial.
            }
        }
    }
}

struct Inner {
    id: u64,
    data: RefCell<NdArray>,
    grad: RefCell<Option<NdArray>>,
    requires_grad: bool,
    node: Option<Node>,
}

/// A tensor in the autodiff graph.
///
/// Cloning a `Tensor` clones the handle, not the storage. Leaf tensors
/// created with [`Tensor::param`] accumulate gradients in-place when
/// [`Tensor::backward`] runs on a scalar loss downstream of them.
#[derive(Clone)]
pub struct Tensor {
    inner: Rc<Inner>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tensor")
            .field("id", &self.inner.id)
            .field("shape", &self.shape())
            .field("requires_grad", &self.inner.requires_grad)
            .field(
                "op",
                &self
                    .inner
                    .node
                    .as_ref()
                    .map(|n| n.op.name())
                    .unwrap_or("leaf"),
            )
            .finish()
    }
}

impl Tensor {
    /// A constant leaf (no gradient tracking).
    pub fn constant(data: NdArray) -> Tensor {
        Self::leaf(data, false)
    }

    /// A trainable leaf parameter (accumulates gradients).
    pub fn param(data: NdArray) -> Tensor {
        Self::leaf(data, true)
    }

    fn leaf(data: NdArray, requires_grad: bool) -> Tensor {
        Tensor {
            inner: Rc::new(Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                data: RefCell::new(data),
                grad: RefCell::new(None),
                requires_grad,
                node: None,
            }),
        }
    }

    /// Construct a non-leaf tensor produced by `op` from `parents`.
    ///
    /// Gradient tracking is enabled iff any parent requires grad.
    ///
    /// With the `sanitize` feature enabled, the freshly computed output is
    /// scanned for NaN/Inf so numeric corruption is attributed to the op
    /// that produced it instead of surfacing as garbage metrics downstream.
    pub fn from_op(data: NdArray, parents: Vec<Tensor>, op: Box<dyn Op>) -> Tensor {
        #[cfg(feature = "sanitize")]
        sanitize_check("output", op.name(), &data, &parents);
        let requires_grad = parents.iter().any(|p| p.requires_grad());
        if requires_grad {
            NODES_ALLOCATED.fetch_add(1, Ordering::Relaxed);
        }
        Tensor {
            inner: Rc::new(Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                data: RefCell::new(data),
                grad: RefCell::new(None),
                requires_grad,
                node: if requires_grad {
                    Some(Node { parents, op })
                } else {
                    None
                },
            }),
        }
    }

    /// Unique id of this tensor node.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Whether gradients flow to/through this tensor.
    pub fn requires_grad(&self) -> bool {
        self.inner.requires_grad
    }

    /// Whether this is a leaf (no producing op).
    pub fn is_leaf(&self) -> bool {
        self.inner.node.is_none()
    }

    /// Borrow the tensor's value.
    pub fn data(&self) -> Ref<'_, NdArray> {
        self.inner.data.borrow()
    }

    /// Clone of the tensor's value (cheap: shared buffer).
    pub fn value(&self) -> NdArray {
        self.inner.data.borrow().clone()
    }

    /// Shape of the tensor.
    pub fn shape(&self) -> Vec<usize> {
        self.inner.data.borrow().shape().to_vec()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.data.borrow().len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scalar value of a one-element tensor.
    pub fn item(&self) -> f32 {
        self.inner.data.borrow().scalar_value()
    }

    /// Replace the value in place (used by optimizers).
    ///
    /// # Panics
    /// Panics if the new shape differs.
    pub fn set_data(&self, data: NdArray) {
        let mut slot = self.inner.data.borrow_mut();
        assert_eq!(slot.shape(), data.shape(), "set_data shape mismatch");
        *slot = data;
    }

    /// Mutate the value in place through a closure (used by optimizers).
    pub fn with_data_mut(&self, f: impl FnOnce(&mut NdArray)) {
        f(&mut self.inner.data.borrow_mut());
    }

    /// The accumulated gradient of a leaf parameter, if any.
    pub fn grad(&self) -> Option<NdArray> {
        self.inner.grad.borrow().clone()
    }

    /// Clear the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.inner.grad.borrow_mut() = None;
    }

    /// Mutate the gradient slot directly (used by gradient clipping).
    pub fn with_grad_mut(&self, f: impl FnOnce(&mut Option<NdArray>)) {
        f(&mut self.inner.grad.borrow_mut());
    }

    /// A new constant leaf sharing this tensor's current value
    /// (cuts the graph; no gradient flows through).
    pub fn detach(&self) -> Tensor {
        Tensor::constant(self.value())
    }

    /// Reverse-mode backpropagation from a scalar tensor.
    ///
    /// Accumulates gradients into every reachable leaf with
    /// `requires_grad == true`. Gradients of intermediate nodes are held in a
    /// temporary map and dropped when backprop finishes.
    ///
    /// # Panics
    /// Panics if called on a non-scalar tensor.
    pub fn backward(&self) {
        assert_eq!(
            self.len(),
            1,
            "backward() requires a scalar loss, got shape {:?}",
            self.shape()
        );
        let seed = NdArray::full(self.shape(), 1.0);
        self.backward_with(seed);
    }

    /// Backpropagation with an explicit output gradient (any shape).
    pub fn backward_with(&self, seed: NdArray) {
        assert_eq!(
            seed.shape(),
            self.shape().as_slice(),
            "seed gradient shape mismatch"
        );
        if !self.requires_grad() {
            return;
        }
        let order = topo_order(self);
        let mut grads: HashMap<u64, NdArray> = HashMap::new();
        grads.insert(self.id(), seed);
        // `order` is parents-before-children; traverse children first.
        for t in order.iter().rev() {
            let Some(grad) = grads.remove(&t.id()) else {
                continue;
            };
            if t.is_leaf() {
                if t.requires_grad() {
                    let mut slot = t.inner.grad.borrow_mut();
                    match slot.as_mut() {
                        Some(existing) => existing.add_scaled_assign(&grad, 1.0),
                        None => *slot = Some(grad),
                    }
                }
                continue;
            }
            let node = t.inner.node.as_ref().expect("non-leaf has node");
            // Generic backward profiling hook: one timer per op application,
            // keyed by the op's static name and carrying the output
            // gradient's size for ns-per-element normalization. Free when
            // tracing is off (a single relaxed atomic load).
            let parent_grads = {
                crate::ops::ensure_attr_probe();
                let _prof = slime_trace::prof::timer_n(
                    node.op.name(),
                    slime_trace::prof::Phase::Backward,
                    grad.len() as u64,
                );
                node.op.backward(&grad, &node.parents)
            };
            assert_eq!(
                parent_grads.len(),
                node.parents.len(),
                "op {} returned wrong number of gradients",
                node.op.name()
            );
            for (p, g) in node.parents.iter().zip(parent_grads) {
                let Some(g) = g else { continue };
                if !p.requires_grad() {
                    continue;
                }
                #[cfg(feature = "sanitize")]
                sanitize_check("gradient", node.op.name(), &g, &node.parents);
                debug_assert_eq!(
                    g.shape(),
                    p.shape().as_slice(),
                    "op {} produced gradient of wrong shape for parent",
                    node.op.name()
                );
                match grads.get_mut(&p.id()) {
                    Some(existing) => existing.add_scaled_assign(&g, 1.0),
                    None => {
                        grads.insert(p.id(), g);
                    }
                }
            }
        }
    }
}

/// Runtime numeric sanitizer (enabled by the `sanitize` cargo feature):
/// panic as soon as an op emits a non-finite output or gradient, naming the
/// op and the shapes involved. See DESIGN.md "Runtime sanitizer".
#[cfg(feature = "sanitize")]
// lint-allow(panic): panicking on the first non-finite value is the sanitizer's contract
fn sanitize_check(kind: &str, op: &str, data: &NdArray, parents: &[Tensor]) {
    let Some(idx) = data.data().iter().position(|v| !v.is_finite()) else {
        return;
    };
    // lint-allow(panic): `idx` came from `position` on this same buffer
    let bad = data.data()[idx];
    let parent_shapes: Vec<Vec<usize>> = parents.iter().map(Tensor::shape).collect();
    // lint-allow(panic): loud first-failure diagnosis is the sanitizer's contract
    panic!(
        "sanitize: non-finite {kind} ({bad}) at index {idx} produced by op '{op}' \
         ({kind} shape {:?}, operand shapes {:?})",
        data.shape(),
        parent_shapes
    );
}

/// Iterative post-order topological sort (parents before children).
fn topo_order(root: &Tensor) -> Vec<Tensor> {
    let mut order = Vec::new();
    let mut visited: HashMap<u64, ()> = HashMap::new();
    // Stack of (tensor, children_pushed) frames.
    let mut stack: Vec<(Tensor, bool)> = vec![(root.clone(), false)];
    while let Some((t, expanded)) = stack.pop() {
        if expanded {
            order.push(t);
            continue;
        }
        if visited.contains_key(&t.id()) || !t.requires_grad() {
            continue;
        }
        visited.insert(t.id(), ());
        stack.push((t.clone(), true));
        if let Some(node) = t.inner.node.as_ref() {
            for p in &node.parents {
                if !visited.contains_key(&p.id()) && p.requires_grad() {
                    stack.push((p.clone(), false));
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn leaf_properties() {
        let c = Tensor::constant(NdArray::scalar(2.0));
        assert!(c.is_leaf());
        assert!(!c.requires_grad());
        let p = Tensor::param(NdArray::scalar(3.0));
        assert!(p.requires_grad());
        assert_eq!(p.item(), 3.0);
    }

    #[test]
    fn backward_through_simple_chain() {
        // loss = mean((2x)^2) for x = [1, 2] -> d/dx = 8x/2 = 4x
        let x = Tensor::param(NdArray::from_vec(vec![2], vec![1.0, 2.0]));
        let y = ops::scale(&x, 2.0);
        let sq = ops::mul(&y, &y);
        let loss = ops::mean_all(&sq);
        loss.backward();
        let g = x.grad().unwrap();
        assert!((g.data()[0] - 4.0).abs() < 1e-5);
        assert!((g.data()[1] - 8.0).abs() < 1e-5);
    }

    #[test]
    fn grad_accumulates_across_backwards() {
        let x = Tensor::param(NdArray::scalar(5.0));
        let loss = ops::scale(&x, 3.0);
        loss.backward();
        let loss2 = ops::scale(&x, 3.0);
        loss2.backward();
        assert_eq!(x.grad().unwrap().scalar_value(), 6.0);
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn diamond_graph_accumulates_path_grads() {
        // y = x + x -> dy/dx = 2
        let x = Tensor::param(NdArray::scalar(1.0));
        let y = ops::add(&x, &x);
        y.backward();
        assert_eq!(x.grad().unwrap().scalar_value(), 2.0);
    }

    #[test]
    fn constants_get_no_grad() {
        let x = Tensor::param(NdArray::scalar(1.0));
        let c = Tensor::constant(NdArray::scalar(10.0));
        let y = ops::mul(&x, &c);
        y.backward();
        assert_eq!(x.grad().unwrap().scalar_value(), 10.0);
        assert!(c.grad().is_none());
    }

    #[test]
    fn detach_cuts_graph() {
        let x = Tensor::param(NdArray::scalar(2.0));
        let y = ops::scale(&x, 3.0).detach();
        let z = ops::scale(&y, 4.0);
        assert!(!z.requires_grad());
        assert!(x.grad().is_none());
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_rejects_non_scalar() {
        let x = Tensor::param(NdArray::zeros(vec![2]));
        ops::scale(&x, 1.0).backward();
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut t = Tensor::param(NdArray::scalar(1.0));
        let root = t.clone();
        for _ in 0..20_000 {
            t = ops::scale(&t, 1.0);
        }
        t.backward();
        assert_eq!(root.grad().unwrap().scalar_value(), 1.0);
    }
}

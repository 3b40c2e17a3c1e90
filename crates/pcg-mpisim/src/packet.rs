//! Typed message payloads and reduction operators.
//!
//! Messages carry one of a small set of concrete element types; the
//! [`Elem`] trait lets the point-to-point and collective APIs stay
//! generic while byte counts (for the cost model) and reduction
//! semantics stay exact.
//!
//! Payloads are `Arc`-shared: cloning a [`Packet`] (a collective
//! forwarding a buffer to its next hop, or an allreduce handing a
//! block's combined result to every rank of the block) is a
//! reference-count bump, not a data copy. A receiver that wants an owned
//! `Vec` gets copy-on-write semantics from [`Elem::unwrap`] — the data is
//! only duplicated if another rank still holds a reference. The cost
//! model is unaffected: it charges by [`Packet::byte_len`], which is a
//! property of the logical payload, not of how many copies exist in host
//! memory.
//!
//! [`combine_into`] (in place) and [`combine`] (into a new buffer) are
//! the elementwise kernel of the reduction collectives (`reduce`,
//! `allreduce`, `scan`).

use std::sync::Arc;

/// A message payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// 64-bit floats.
    F64s(Arc<Vec<f64>>),
    /// 64-bit signed integers.
    I64s(Arc<Vec<i64>>),
    /// 32-bit unsigned integers (graph/sparse indices).
    U32s(Arc<Vec<u32>>),
    /// Raw bytes.
    Bytes(Arc<Vec<u8>>),
}

impl Packet {
    /// Payload size in bytes, as charged by the cost model.
    pub fn byte_len(&self) -> usize {
        match self {
            Packet::F64s(v) => v.len() * 8,
            Packet::I64s(v) => v.len() * 8,
            Packet::U32s(v) => v.len() * 4,
            Packet::Bytes(v) => v.len(),
        }
    }

    /// Short type tag used in mismatch diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Packet::F64s(_) => "f64",
            Packet::I64s(_) => "i64",
            Packet::U32s(_) => "u32",
            Packet::Bytes(_) => "bytes",
        }
    }

    /// Whether both packets share one buffer (`Arc` identity, not equal
    /// contents).
    pub(crate) fn same_buffer(&self, other: &Packet) -> bool {
        match (self, other) {
            (Packet::F64s(a), Packet::F64s(b)) => Arc::ptr_eq(a, b),
            (Packet::I64s(a), Packet::I64s(b)) => Arc::ptr_eq(a, b),
            (Packet::U32s(a), Packet::U32s(b)) => Arc::ptr_eq(a, b),
            (Packet::Bytes(a), Packet::Bytes(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Whether this is the buffer's only reference, so that
    /// [`Elem::unwrap`] takes it without a copy.
    pub(crate) fn is_unique(&self) -> bool {
        match self {
            Packet::F64s(v) => Arc::strong_count(v) == 1,
            Packet::I64s(v) => Arc::strong_count(v) == 1,
            Packet::U32s(v) => Arc::strong_count(v) == 1,
            Packet::Bytes(v) => Arc::strong_count(v) == 1,
        }
    }

    /// Whether every [`ReduceOp`] is exactly commutative on this
    /// payload's element type: `op(a, b)` and `op(b, a)` are the same
    /// bits. True for the integers (wrapping `Sum`/`Prod`, `Min`, `Max`).
    /// False for `f64`, whose `min`/`max` leave the sign of a zero result
    /// unspecified, so a rank must combine in its own operand order.
    pub(crate) fn commutes(&self) -> bool {
        matches!(self, Packet::I64s(_) | Packet::U32s(_))
    }
}

/// Unwrap an `Arc` payload without copying when this is the last
/// reference (the common case for point-to-point receives), cloning
/// otherwise (a collective hop still holds the buffer).
fn unshare<T: Clone>(a: Arc<Vec<T>>) -> Vec<T> {
    Arc::try_unwrap(a).unwrap_or_else(|shared| (*shared).clone())
}

/// Built-in reduction operators (the `MPI_Op` analog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise product.
    Prod,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

/// Bind `$f` to `$op`'s combine for `$T` as a closure with a constant
/// operator, then evaluate `$body`: the match on the operator happens
/// once per buffer, and each arm is a plain loop the compiler vectorises.
macro_rules! with_op {
    ($T:ty, $op:expr, |$f:ident| $body:expr) => {
        match $op {
            ReduceOp::Sum => {
                let $f = |a: $T, b: $T| <$T>::apply(ReduceOp::Sum, a, b);
                $body
            }
            ReduceOp::Prod => {
                let $f = |a: $T, b: $T| <$T>::apply(ReduceOp::Prod, a, b);
                $body
            }
            ReduceOp::Min => {
                let $f = |a: $T, b: $T| <$T>::apply(ReduceOp::Min, a, b);
                $body
            }
            ReduceOp::Max => {
                let $f = |a: $T, b: $T| <$T>::apply(ReduceOp::Max, a, b);
                $body
            }
        }
    };
}

/// The in-place combine kernel of the reduction collectives:
/// `acc[i] = op(acc[i], rhs[i])`, or `op(rhs[i], acc[i])` when
/// `rhs_first`. Every element is combined in the given operand order, so
/// results are bit-identical to a per-element [`Elem::apply`] loop.
pub(crate) fn combine_into<T: Elem>(op: ReduceOp, acc: &mut [T], rhs: &[T], rhs_first: bool) {
    with_op!(T, op, |f| {
        if rhs_first {
            acc.iter_mut().zip(rhs).for_each(|(a, &b)| *a = f(b, *a));
        } else {
            acc.iter_mut().zip(rhs).for_each(|(a, &b)| *a = f(*a, b));
        }
    })
}

/// [`combine_into`] into a new buffer: `op(lhs[i], rhs[i])`, one pass
/// over both inputs.
pub(crate) fn combine<T: Elem>(op: ReduceOp, lhs: &[T], rhs: &[T]) -> Vec<T> {
    with_op!(T, op, |f| lhs.iter().zip(rhs).map(|(&a, &b)| f(a, b)).collect())
}

/// An element type that can travel in a [`Packet`] and be reduced.
pub trait Elem: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// Wrap a vector of elements into a packet (no copy: the vector is
    /// moved behind the `Arc`).
    fn wrap(v: Vec<Self>) -> Packet;
    /// Unwrap a packet into an owned vector, `None` on type mismatch.
    /// Copy-on-write: copies only if the buffer is still shared.
    fn unwrap(p: Packet) -> Option<Vec<Self>>;
    /// Borrow a packet's payload without taking ownership, `None` on
    /// type mismatch. The zero-copy read path for collectives.
    fn view(p: &Packet) -> Option<&[Self]>;
    /// Size of one element in bytes.
    const BYTES: usize;
    /// Apply a reduction operator to a pair.
    fn apply(op: ReduceOp, a: Self, b: Self) -> Self;
    /// The operator's identity element.
    fn identity(op: ReduceOp) -> Self;
}

impl Elem for f64 {
    fn wrap(v: Vec<f64>) -> Packet {
        Packet::F64s(Arc::new(v))
    }
    fn unwrap(p: Packet) -> Option<Vec<f64>> {
        match p {
            Packet::F64s(v) => Some(unshare(v)),
            _ => None,
        }
    }
    fn view(p: &Packet) -> Option<&[f64]> {
        match p {
            Packet::F64s(v) => Some(v),
            _ => None,
        }
    }
    const BYTES: usize = 8;
    #[inline]
    fn apply(op: ReduceOp, a: f64, b: f64) -> f64 {
        match op {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
    fn identity(op: ReduceOp) -> f64 {
        match op {
            ReduceOp::Sum => 0.0,
            ReduceOp::Prod => 1.0,
            ReduceOp::Min => f64::INFINITY,
            ReduceOp::Max => f64::NEG_INFINITY,
        }
    }
}

impl Elem for i64 {
    fn wrap(v: Vec<i64>) -> Packet {
        Packet::I64s(Arc::new(v))
    }
    fn unwrap(p: Packet) -> Option<Vec<i64>> {
        match p {
            Packet::I64s(v) => Some(unshare(v)),
            _ => None,
        }
    }
    fn view(p: &Packet) -> Option<&[i64]> {
        match p {
            Packet::I64s(v) => Some(v),
            _ => None,
        }
    }
    const BYTES: usize = 8;
    #[inline]
    fn apply(op: ReduceOp, a: i64, b: i64) -> i64 {
        match op {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Prod => a.wrapping_mul(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
    fn identity(op: ReduceOp) -> i64 {
        match op {
            ReduceOp::Sum => 0,
            ReduceOp::Prod => 1,
            ReduceOp::Min => i64::MAX,
            ReduceOp::Max => i64::MIN,
        }
    }
}

impl Elem for u32 {
    fn wrap(v: Vec<u32>) -> Packet {
        Packet::U32s(Arc::new(v))
    }
    fn unwrap(p: Packet) -> Option<Vec<u32>> {
        match p {
            Packet::U32s(v) => Some(unshare(v)),
            _ => None,
        }
    }
    fn view(p: &Packet) -> Option<&[u32]> {
        match p {
            Packet::U32s(v) => Some(v),
            _ => None,
        }
    }
    const BYTES: usize = 4;
    #[inline]
    fn apply(op: ReduceOp, a: u32, b: u32) -> u32 {
        match op {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Prod => a.wrapping_mul(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
    fn identity(op: ReduceOp) -> u32 {
        match op {
            ReduceOp::Sum => 0,
            ReduceOp::Prod => 1,
            ReduceOp::Min => u32::MAX,
            ReduceOp::Max => u32::MIN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_lengths() {
        assert_eq!(f64::wrap(vec![0.0; 3]).byte_len(), 24);
        assert_eq!(i64::wrap(vec![0; 2]).byte_len(), 16);
        assert_eq!(u32::wrap(vec![0; 5]).byte_len(), 20);
        assert_eq!(Packet::Bytes(Arc::new(vec![0; 7])).byte_len(), 7);
    }

    #[test]
    fn wrap_unwrap_roundtrip() {
        let v = vec![1.5f64, -2.0];
        assert_eq!(f64::unwrap(f64::wrap(v.clone())), Some(v));
        assert_eq!(i64::unwrap(f64::wrap(vec![1.0])), None);
        assert_eq!(u32::unwrap(u32::wrap(vec![7])), Some(vec![7]));
    }

    #[test]
    fn view_borrows_without_copy() {
        let p = i64::wrap(vec![3, 4, 5]);
        assert_eq!(i64::view(&p), Some(&[3i64, 4, 5][..]));
        assert_eq!(f64::view(&p), None);
        // Still intact afterwards.
        assert_eq!(i64::unwrap(p), Some(vec![3, 4, 5]));
    }

    #[test]
    fn unwrap_is_copy_on_write() {
        let p = f64::wrap(vec![1.0, 2.0]);
        let q = p.clone();
        // Shared: unwrap must copy, leaving the other reference intact.
        let owned = f64::unwrap(p).unwrap();
        assert_eq!(owned, vec![1.0, 2.0]);
        assert_eq!(f64::view(&q), Some(&[1.0, 2.0][..]));
        // Sole reference: unwrap reuses the allocation (observable via
        // the data pointer surviving the unwrap).
        let addr = f64::view(&q).unwrap().as_ptr();
        let owned = f64::unwrap(q).unwrap();
        assert_eq!(owned.as_ptr(), addr, "sole-owner unwrap must not copy");
    }

    #[test]
    fn identities_are_identities() {
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max] {
            for x in [-3.5f64, 0.0, 7.25] {
                assert_eq!(f64::apply(op, f64::identity(op), x), x, "{op:?} {x}");
            }
            for x in [-3i64, 0, 7] {
                assert_eq!(i64::apply(op, i64::identity(op), x), x, "{op:?} {x}");
            }
        }
    }

    #[test]
    fn combine_kernel_keeps_the_operand_order_it_is_given() {
        // `min`/`max` of opposite zeros depend on operand order; long
        // enough inputs that the vector loops run too.
        let ops = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max];
        let a: Vec<f64> =
            [0.0, -0.0, 1.0, f64::NAN, -3.5].iter().copied().cycle().take(75).collect();
        let b: Vec<f64> =
            [-0.0, 0.0, -1.0, 2.0, f64::INFINITY].iter().copied().cycle().take(75).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for op in ops {
            let scalar = |x: &[f64], y: &[f64]| -> Vec<u64> {
                let f = |p: f64, q: f64| f64::apply(op, std::hint::black_box(p), q);
                x.iter().zip(y).map(|(&p, &q)| f(p, q).to_bits()).collect()
            };
            let mut acc = a.clone();
            combine_into(op, &mut acc, &b, false);
            assert_eq!(bits(&acc), scalar(&a, &b), "{op:?} in place");
            let mut acc = a.clone();
            combine_into(op, &mut acc, &b, true);
            assert_eq!(bits(&acc), scalar(&b, &a), "{op:?} in place, rhs first");
            assert_eq!(bits(&combine(op, &a, &b)), scalar(&a, &b), "{op:?} into a new buffer");
        }
        let x: Vec<i64> = (0..75).map(|i| i * 7 - 200).collect();
        let y: Vec<i64> = (0..75).map(|i| i64::MAX - i * 3).collect();
        for op in ops {
            let want: Vec<i64> = x.iter().zip(&y).map(|(&p, &q)| i64::apply(op, p, q)).collect();
            assert_eq!(combine(op, &x, &y), want, "{op:?}");
        }
    }

    #[test]
    fn packet_identity_and_sharing() {
        let p = i64::wrap(vec![1, 2]);
        assert!(p.is_unique());
        let q = p.clone();
        assert!(p.same_buffer(&q) && !p.is_unique());
        assert!(!p.same_buffer(&i64::wrap(vec![1, 2])), "equal contents are not the same buffer");
        assert!(p.commutes() && u32::wrap(vec![]).commutes());
        assert!(!f64::wrap(vec![]).commutes());
    }

    #[test]
    fn ops_compute() {
        assert_eq!(f64::apply(ReduceOp::Max, 2.0, 5.0), 5.0);
        assert_eq!(i64::apply(ReduceOp::Prod, 3, 4), 12);
        assert_eq!(u32::apply(ReduceOp::Min, 3, 4), 3);
    }
}

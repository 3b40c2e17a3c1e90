//! A per-rank reference for `Comm::allreduce`, shared by the fiber-path
//! and thread-per-rank test binaries.
//!
//! The reference combines every rank's accumulator on its own, in its own
//! operand order, with each rank's own op: recursive doubling on
//! power-of-two worlds, binomial reduce to rank 0 plus broadcast
//! otherwise. That is what every rank computed before allreduce shared
//! combines across a block, so the simulator must match it bit for bit.

use pcg_mpisim::{CostModel, Elem, ReduceOp, World};

/// Every reduction operator.
pub const OPS: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max];

/// Powers of two (recursive doubling) and non-powers (reduce + bcast).
pub const SIZES: [usize; 13] = [2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64];

/// splitmix64: the test data stream.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An element type with a spelled-out reference combine and a bitwise
/// view (so that `f64` NaNs and signed zeros compare exactly).
pub trait RefElem: Elem {
    fn reference(op: ReduceOp, a: Self, b: Self) -> Self;
    fn bits(self) -> u64;
    /// A test value drawn from `x`.
    fn draw(x: u64) -> Self;
}

impl RefElem for i64 {
    fn reference(op: ReduceOp, a: i64, b: i64) -> i64 {
        match op {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Prod => a.wrapping_mul(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
    fn bits(self) -> u64 {
        self as u64
    }
    fn draw(x: u64) -> i64 {
        // Mostly small values, some full-width ones that wrap.
        if x.is_multiple_of(4) {
            x as i64
        } else {
            (x % 41) as i64 - 20
        }
    }
}

impl RefElem for u32 {
    fn reference(op: ReduceOp, a: u32, b: u32) -> u32 {
        match op {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Prod => a.wrapping_mul(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
    fn bits(self) -> u64 {
        u64::from(self)
    }
    fn draw(x: u64) -> u32 {
        if x.is_multiple_of(4) {
            x as u32
        } else {
            (x % 37) as u32
        }
    }
}

impl RefElem for f64 {
    /// One scalar operation per element, operands kept in order (the
    /// `black_box`es stop the compiler from vectorising or commuting).
    fn reference(op: ReduceOp, a: f64, b: f64) -> f64 {
        let (a, b) = (std::hint::black_box(a), std::hint::black_box(b));
        match op {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
    fn bits(self) -> u64 {
        self.to_bits()
    }
    /// Signed zeros, NaNs with distinct payloads, infinities and a few
    /// ordinary values.
    fn draw(x: u64) -> f64 {
        const PALETTE: [u64; 9] = [
            0x0000_0000_0000_0000, // +0.0
            0x8000_0000_0000_0000, // -0.0
            0x7FF8_0000_0000_0001, // quiet NaN, payload 1
            0xFFF8_0000_0000_0002, // negative quiet NaN, payload 2
            0x7FF0_0000_0000_0000, // +inf
            0xFFF0_0000_0000_0000, // -inf
            0x3FF0_0000_0000_0000, // 1.0
            0xBFF0_0000_0000_0000, // -1.0
            0x4000_0000_0000_0000, // 2.0
        ];
        f64::from_bits(PALETTE[(x % PALETTE.len() as u64) as usize])
    }
}

/// Rank `rank`'s input: `len` values drawn from `seed`.
pub fn local<T: RefElem>(seed: u64, rank: usize, len: usize) -> Vec<T> {
    (0..len).map(|i| T::draw(mix(seed ^ mix((rank * 1_000_003 + i) as u64)))).collect()
}

/// Per-rank ops drawn from `palette` by `seed` (each rank picks its own).
pub fn mixed_ops(seed: u64, size: usize, palette: &[ReduceOp]) -> Vec<ReduceOp> {
    (0..size)
        .map(|r| palette[(mix(seed ^ (r as u64) << 8) % palette.len() as u64) as usize])
        .collect()
}

fn combine<T: RefElem>(op: ReduceOp, own: &[T], other: &[T]) -> Vec<T> {
    own.iter().zip(other).map(|(&a, &b)| T::reference(op, a, b)).collect()
}

/// What every rank's `allreduce` must return, computed rank by rank.
pub fn reference<T: RefElem>(locals: &[Vec<T>], ops: &[ReduceOp]) -> Vec<Vec<T>> {
    let p = locals.len();
    let mut acc = locals.to_vec();
    let mut mask = 1;
    if p.is_power_of_two() {
        while mask < p {
            let prev = acc.clone();
            for r in 0..p {
                acc[r] = combine(ops[r], &prev[r], &prev[r ^ mask]);
            }
            mask <<= 1;
        }
        acc
    } else {
        // Binomial reduce to rank 0: at each mask, every rank that is a
        // multiple of 2 * mask folds in the (final) accumulator of the
        // rank `mask` above it.
        while mask < p {
            for r in (0..p).step_by(2 * mask) {
                if r + mask < p {
                    acc[r] = combine(ops[r], &acc[r], &acc[r + mask]);
                }
            }
            mask <<= 1;
        }
        vec![acc[0].clone(); p]
    }
}

/// Run one allreduce of `locals` on a `size`-rank world, rank `r` using
/// `ops[r]`, and return each rank's result.
pub fn run_allreduce<T: RefElem>(locals: &[Vec<T>], ops: &[ReduceOp]) -> Vec<Vec<T>> {
    World::new(locals.len())
        .with_cost_model(CostModel::deterministic())
        .run(|comm| comm.allreduce(&locals[comm.rank()], ops[comm.rank()]))
        .unwrap()
        .per_rank
}

/// Assert that an allreduce of `len` values drawn from `seed` gives
/// every rank exactly the reference's bits.
pub fn check_allreduce<T: RefElem>(size: usize, len: usize, seed: u64, ops: &[ReduceOp]) {
    let locals: Vec<Vec<T>> = (0..size).map(|r| local(seed, r, len)).collect();
    let bits = |v: &Vec<Vec<T>>| -> Vec<Vec<u64>> {
        v.iter().map(|r| r.iter().map(|&x| x.bits()).collect()).collect()
    };
    let got = run_allreduce(&locals, ops);
    let want = reference(&locals, ops);
    for r in 0..size {
        assert_eq!(
            bits(&got)[r],
            bits(&want)[r],
            "{} allreduce, size {size}, len {len}, seed {seed}, ops {ops:?}: rank {r} differs",
            std::any::type_name::<T>()
        );
    }
}

/// The `f64` ops whose per-element result is fixed by operand order.
/// (`Sum` and `Prod` differ only in which NaN payload survives, which the
/// compiler may pick either way, since it treats `+` and `*` as
/// commutative.)
pub const F64_ORDERED_OPS: [ReduceOp; 2] = [ReduceOp::Min, ReduceOp::Max];

/// The equivalence battery: `i64` and `u32` under every op and under
/// per-rank mixed ops, and `f64` `Min`/`Max` on signed zeros and NaNs, at
/// every size in [`SIZES`].
pub fn equivalence_battery(len: usize, seed: u64) {
    for size in SIZES {
        for op in OPS {
            let ops = vec![op; size];
            check_allreduce::<i64>(size, len, seed, &ops);
            check_allreduce::<u32>(size, len, seed, &ops);
        }
        for op in F64_ORDERED_OPS {
            check_allreduce::<f64>(size, len, seed, &vec![op; size]);
        }
        let ops = mixed_ops(seed, size, &OPS);
        check_allreduce::<i64>(size, len, seed, &ops);
        check_allreduce::<u32>(size, len, seed, &ops);
        check_allreduce::<f64>(size, len, seed, &mixed_ops(seed, size, &F64_ORDERED_OPS));
    }
}

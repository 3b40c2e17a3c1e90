//! The shared-write types stay sound under real OS threads. A `Pool`
//! runs every member on its caller, but `AtomicF64` and `UnsafeSlice`
//! are `Sync` and make that promise to any caller.

use pcg_shmem::{AtomicF64, UnsafeSlice};

#[test]
fn atomic_add_is_atomic_under_contention() {
    let acc = AtomicF64::new(0.0);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..10_000 {
                    acc.fetch_add(1.0);
                }
            });
        }
    });
    assert_eq!(acc.load(), 80_000.0);
}

#[test]
fn atomic_max_and_min() {
    let m = AtomicF64::new(f64::NEG_INFINITY);
    std::thread::scope(|s| {
        for t in 0..4 {
            let m = &m;
            s.spawn(move || {
                for i in 0..1000 {
                    m.fetch_max((t * 1000 + i) as f64);
                }
            });
        }
    });
    assert_eq!(m.load(), 3999.0);

    let m = AtomicF64::new(f64::INFINITY);
    m.fetch_min(3.5);
    m.fetch_min(7.0);
    assert_eq!(m.load(), 3.5);
}

#[test]
fn unsafe_slice_disjoint_parallel_writes() {
    let mut v = vec![0usize; 1000];
    let s = UnsafeSlice::new(&mut v);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let s = &s;
            scope.spawn(move || {
                for i in (t..1000).step_by(4) {
                    unsafe { s.write(i, i * 2) };
                }
            });
        }
    });
    assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
}

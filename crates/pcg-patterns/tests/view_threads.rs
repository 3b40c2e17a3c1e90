//! A `View` is a shallow, `Sync` handle: clones written from real OS
//! threads at disjoint indices all land in the one shared array.

use pcg_patterns::View;

#[test]
fn concurrent_disjoint_writes() {
    let v: View<usize> = View::new("v", 1000);
    std::thread::scope(|s| {
        for t in 0..4 {
            let v = v.clone();
            s.spawn(move || {
                for i in (t..1000).step_by(4) {
                    unsafe { v.set(i, i) };
                }
            });
        }
    });
    assert!(v.to_vec().iter().enumerate().all(|(i, &x)| x == i));
}

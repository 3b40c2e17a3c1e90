//! What a warm MPI world pays for its fiber helpers.
//!
//! A warm world runs its ranks as fibers on the calling thread plus
//! `min(compute tokens, ranks) - 1` scoped helper threads, spawned per
//! world. On a C-core host that is C - 1 spawns per world. This probe
//! prints two things for helper counts up to 63 (a 64-core host):
//!
//! - the bare cost of spawning and joining that many scoped threads
//!   with the helpers' 2 MiB stacks, which is what each world adds;
//! - the wall time of the 512-rank world of the MPI multiplexing gate
//!   at that many compute tokens. On a host with fewer cores than
//!   tokens this also counts the oversubscription, so it is an upper
//!   bound on the spawn cost there.
//!
//! Run: `cargo run --release -p pcg-mpisim --example helper_spawn_cost`

use pcg_mpisim::{sched, CostModel, ReduceOp, World};
use std::time::Instant;

const REPS: usize = 21;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn spawn_join_s(helpers: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            std::thread::Builder::new()
                .stack_size(1 << 21)
                .spawn_scoped(scope, || {})
                .expect("spawn");
        }
    });
    t0.elapsed().as_secs_f64()
}

fn world_s(tokens: usize) -> f64 {
    let t0 = Instant::now();
    World::new(512)
        .with_cost_model(CostModel::cluster())
        .with_max_tokens(tokens)
        .run(move |comm| {
            let rank = comm.rank();
            let local: Vec<f64> = (0..64).map(|i| (rank * 64 + i) as f64).collect();
            let total = comm.allreduce_one(local.iter().map(|x| x * x).sum::<f64>(), ReduceOp::Sum);
            let right = (rank + 1) % comm.size();
            let left = (rank + comm.size() - 1) % comm.size();
            total + comm.sendrecv(right, 1, &local, left, 1)[0]
        })
        .expect("512-rank world");
    t0.elapsed().as_secs_f64()
}

fn main() {
    assert!(sched::should_multiplex(), "needs the warm fiber path (an x86-64 unix target)");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host: {cores} cores; medians of {REPS} runs");
    let mut tokens: Vec<usize> = vec![cores, 16, 32, 64];
    tokens.sort_unstable();
    tokens.dedup();
    for t in tokens {
        let spawn = median((0..REPS).map(|_| spawn_join_s(t - 1)).collect());
        let world = median((0..REPS).map(|_| world_s(t)).collect());
        println!(
            "tokens {t:>3}: {:>2} helpers spawn+join {:>8.1} us; 512-rank world {:>8.2} ms",
            t - 1,
            spawn * 1e6,
            world * 1e3
        );
    }
}

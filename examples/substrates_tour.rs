//! A tour of the five execution substrates, used directly (the APIs a
//! "generated candidate" program targets).
//!
//! ```sh
//! cargo run --release --example substrates_tour
//! ```

use pcgbench::gpusim::{cuda, GpuBuffer, Launch};
use pcgbench::hybrid::HybridWorld;
use pcgbench::mpisim::{block_range, CostModel, ReduceOp, World};
use pcgbench::patterns::{ExecSpace, View};
use pcgbench::shmem::{Pool, Schedule, UnsafeSlice};

fn main() {
    let n = 1 << 16;
    let xs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let want: f64 = xs.iter().map(|x| x * x).sum();
    println!("reference sum of squares = {want:.4}\n");

    // 1. pcg-shmem: the OpenMP analog (a work-sharing team of 4 members,
    // run on this thread, with a modelled elapsed time).
    let pool = Pool::new(4);
    let shmem = pool.parallel_for_reduce(0..n, 0.0, |a, i| a + xs[i] * xs[i], |a, b| a + b);
    println!("shmem     (4-member team):       {shmem:.4}  [modelled {:.2e}s]", pool.virtual_elapsed());

    // ... with an output array and a schedule clause.
    let mut doubled = vec![0.0; n];
    {
        let out = UnsafeSlice::new(&mut doubled);
        pool.parallel_for(0..n, Schedule::Dynamic { chunk: 1024 }, |i| unsafe {
            out.write(i, 2.0 * xs[i]);
        });
    }
    assert_eq!(doubled[7], 2.0 * xs[7]);

    // 2. pcg-patterns: the Kokkos analog (views + patterns).
    let space = ExecSpace::new(4);
    let view = View::from_slice("xs", &xs);
    let kokkos = space.parallel_reduce(n, 0.0, |i| view.get(i) * view.get(i), |a, b| a + b);
    println!("patterns  (4-member team):       {kokkos:.4}  [modelled {:.2e}s]", space.virtual_elapsed());

    // 3. pcg-mpisim: the MPI analog (virtual-time message passing).
    let world = World::new(8).with_cost_model(CostModel::cluster());
    let outcome = world
        .run(|comm| {
            let rg = block_range(n, comm.size(), comm.rank());
            let local: f64 = rg.map(|i| xs[i] * xs[i]).sum();
            comm.allreduce_one(local, ReduceOp::Sum)
        })
        .expect("world runs");
    println!("mpisim    (8 ranks):             {:.4}  [sim elapsed {:.2e}s]", outcome.root(), outcome.elapsed);

    // 4. pcg-hybrid: MPI + threads.
    let hybrid = HybridWorld::new(2, 4);
    let outcome = hybrid
        .run(|ctx| {
            let comm = ctx.comm();
            let rg = block_range(n, comm.size(), comm.rank());
            let local = ctx.par_reduce(rg, 0.0, |a, i| a + xs[i] * xs[i], |a, b| a + b);
            comm.allreduce_one(local, ReduceOp::Sum)
        })
        .expect("hybrid world runs");
    println!("hybrid    (2 ranks x 4 threads): {:.4}  [sim elapsed {:.2e}s]", outcome.root(), outcome.elapsed);

    // 5. pcg-gpusim: the CUDA analog (SIMT emulation + device model).
    let gpu = cuda::device();
    let x = GpuBuffer::from_slice(&xs);
    let acc = GpuBuffer::<f64>::zeroed(1);
    gpu.launch_each(Launch::over(n, 256), |t, ctx| {
        let i = t.global_id();
        if i < x.len() {
            let v = ctx.read(&x, i);
            ctx.atomic_add(&acc, 0, v * v);
        }
    });
    println!("gpusim    ({}):           {:.4}  [device time {:.2e}s]", gpu.profile().name, acc.load(0), gpu.elapsed());
}

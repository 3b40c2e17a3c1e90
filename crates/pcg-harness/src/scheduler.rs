//! Parallel evaluation scheduler.
//!
//! Fans a static grid of evaluation cells (task × model here, but any
//! `Send` item works) across a bounded worker pool. Design constraints,
//! in order:
//!
//! 1. **Determinism independent of scheduling.** Results come back in
//!    slot order (the input order), and nothing a cell computes may
//!    depend on which worker ran it or when. The harness guarantees the
//!    latter by keying every RNG stream on grid coordinates
//!    (`pcg_core::rng::rng_for`), never on worker identity; this module
//!    guarantees the former by writing each result into its input slot.
//! 2. **Isolation.** A panicking cell is captured (`catch_unwind`) and
//!    reported per-slot; the worker survives and keeps draining the
//!    queue. (Candidate-level panic/timeout isolation is one layer
//!    down, in `runner`.)
//! 3. **Balance.** Every worker pops the next cell from one shared FIFO
//!    queue, so a free worker always takes the next cell and none idles
//!    while work remains — dynamic scheduling with chunk 1, in the
//!    spirit of `pcg_shmem::Schedule::Dynamic`, but without that pool's
//!    fork-join region semantics (grid cells are coarse and
//!    independent). The queue is a cursor into the dispatch sequence,
//!    advanced with one atomic increment, so no worker ever holds a
//!    lock.
//!
//! The worker count comes from `--jobs N` (see
//! [`crate::pipeline::parse_args`]); `--jobs 1` degrades to an in-place
//! serial loop with identical results, which is the A/B lever the
//! benchmarks use.

use pcg_core::cancel::panic_message;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One completed grid cell.
#[derive(Debug)]
pub struct Cell<R> {
    /// The cell's computation, or the captured panic message.
    pub value: Result<R, String>,
    /// Time the cell's computation ran.
    pub exec: Duration,
}

/// Run `f` over every item of `items` on `jobs` workers, returning the
/// results in input order regardless of completion order.
///
/// `f` receives `(slot_index, &item)`. Cell panics are captured into
/// `Cell::value`; worker threads never die mid-grid.
pub fn run_grid<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<Cell<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_grid_prioritized(items, jobs, None, f, |_, _| {})
}

/// [`run_grid`] with a dispatch order and a completion observer.
///
/// Workers *pick up* cells in `order` (longest processing time first,
/// when the caller sorts by cost priors), or in slot order when `order`
/// is `None`, from one shared front-pop queue: the next free worker
/// takes the next cell, the classic list-scheduling discipline. Results
/// still come back in slot order and each cell's computation is
/// untouched: dispatch order changes wall-clock tail latency, never
/// bytes. `order` must be a permutation of `0..items.len()`;
/// out-of-range or duplicate entries panic.
///
/// `observe(slot, &cell)` runs on the *calling* thread as each cell
/// completes, in completion order (not slot order). This is the hook
/// the write-ahead journal appends from. Workers never wait for the
/// observer: finished cells queue in the completion channel until it
/// takes them, so a slow observer delays journaling, not evaluation,
/// and a crash loses every queued cell. The journal therefore only
/// writes here; its syncer thread makes the frames durable off this
/// thread.
pub fn run_grid_prioritized<T, R, F, O>(
    items: Vec<T>,
    jobs: usize,
    order: Option<Vec<usize>>,
    f: F,
    mut observe: O,
) -> Vec<Cell<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    O: FnMut(usize, &Cell<R>),
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));

    let sequence = match order {
        Some(order) => {
            let mut seen = vec![false; n];
            for &slot in &order {
                assert!(slot < n, "dispatch order entry {slot} out of range for {n} items");
                assert!(!seen[slot], "dispatch order repeats slot {slot}");
                seen[slot] = true;
            }
            assert!(seen.iter().all(|&s| s), "dispatch order must cover every slot");
            order
        }
        None => (0..n).collect(),
    };

    let run_cell = |slot: usize| -> Cell<R> {
        let started = Instant::now();
        let value = catch_unwind(AssertUnwindSafe(|| f(slot, &items[slot])))
            .map_err(|p| panic_message(&*p));
        Cell { value, exec: started.elapsed() }
    };

    let mut slots: Vec<Option<Cell<R>>> = (0..n).map(|_| None).collect();
    if jobs == 1 {
        // Serial A/B path: same code path per cell, no worker threads,
        // so a single-threaded process stays single-threaded.
        for &slot in &sequence {
            let cell = run_cell(slot);
            observe(slot, &cell);
            slots[slot] = Some(cell);
        }
    } else {
        // The queue is a cursor into `sequence`: each `fetch_add` hands
        // out a distinct position, so every slot is popped exactly once.
        // `Relaxed` suffices because the cursor publishes no data —
        // `sequence` is built before the workers start, and results
        // come back over the channel, which synchronizes. Rather than
        // reason about disjoint slot writes with unsafe code, collect
        // over that channel and scatter here.
        let next = AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Cell<R>)>();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                let tx = tx.clone();
                let (next, sequence, run_cell) = (&next, &sequence, &run_cell);
                scope.spawn(move || {
                    while let Some(&slot) = sequence.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let _ = tx.send((slot, run_cell(slot)));
                    }
                });
            }
            drop(tx);
            for (slot, cell) in rx {
                observe(slot, &cell);
                slots[slot] = Some(cell);
            }
        });
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, c)| c.unwrap_or_else(|| panic!("grid slot {i} never completed")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    #[test]
    fn results_come_back_in_slot_order() {
        let items: Vec<usize> = (0..97).collect();
        let cells = run_grid(items, 8, |i, &x| {
            assert_eq!(i, x);
            // Vary the work so completion order scrambles.
            let mut acc = 0u64;
            for k in 0..((x % 7) * 1000) {
                acc = acc.wrapping_add(k as u64);
            }
            (x * 2, acc)
        });
        assert_eq!(cells.len(), 97);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.value.as_ref().unwrap().0, i * 2);
        }
    }

    #[test]
    fn jobs_one_matches_jobs_many() {
        let f = |i: usize, x: &u64| x.wrapping_mul(31).wrapping_add(i as u64);
        let items: Vec<u64> = (0..64).map(|i| i * 3).collect();
        let serial: Vec<u64> =
            run_grid(items.clone(), 1, f).into_iter().map(|c| c.value.unwrap()).collect();
        let parallel: Vec<u64> =
            run_grid(items, 8, f).into_iter().map(|c| c.value.unwrap()).collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let cells = run_grid((0..1000).collect::<Vec<_>>(), 6, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert_eq!(cells.len(), 1000);
    }

    #[test]
    fn cell_panic_is_captured_and_grid_completes() {
        let cells = run_grid((0..20).collect::<Vec<_>>(), 4, |_, &x| {
            if x == 7 {
                panic!("boom on {x}");
            }
            x
        });
        for (i, c) in cells.iter().enumerate() {
            if i == 7 {
                assert_eq!(c.value.as_ref().unwrap_err(), "boom on 7");
            } else {
                assert_eq!(*c.value.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn empty_grid_and_oversized_jobs() {
        let cells = run_grid(Vec::<u32>::new(), 8, |_, &x| x);
        assert!(cells.is_empty());
        let cells = run_grid(vec![5u32, 6], 64, |_, &x| x + 1);
        assert_eq!(
            cells.into_iter().map(|c| c.value.unwrap()).collect::<Vec<_>>(),
            vec![6, 7]
        );
    }

    #[test]
    fn stealing_drains_a_lopsided_grid() {
        // Every fourth cell is slow and the rest are instant: the shared
        // queue must still hand every cell to exactly one worker, with
        // free workers draining the fast cells while others sleep.
        let items: Vec<usize> = (0..64).collect();
        let slow = AtomicUsize::new(0);
        let cells = run_grid(items, 4, |_, &x| {
            if x % 4 == 0 {
                slow.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
            x
        });
        assert_eq!(slow.load(Ordering::Relaxed), 16);
        assert_eq!(cells.len(), 64);
    }

    #[test]
    fn exec_time_is_recorded() {
        let cells = run_grid(vec![1u32; 8], 2, |_, _| {
            std::thread::sleep(Duration::from_millis(2));
        });
        for c in &cells {
            assert!(c.exec >= Duration::from_millis(2));
        }
    }

    #[test]
    fn tiny_grids_drain_without_lock_order_deadlock() {
        // Workers that find the queue empty at the same moment all exit
        // at once, which is when a dispatch scheme holding more than one
        // lock could close a lock cycle. Tiny no-op grids make that
        // moment as frequent as possible; debug builds widen the window.
        // A deadlock shows up as the timeout, not as a hung test run:
        // the stress thread is joined only once it has reported back.
        let (tx, rx) = std::sync::mpsc::channel();
        let stress = std::thread::spawn(move || {
            for _round in 0..200 {
                for jobs in 2..=6 {
                    for n in 0..=12usize {
                        let cells = run_grid((0..n).collect::<Vec<_>>(), jobs, |_, &x| x);
                        assert!(cells.iter().enumerate().all(|(i, c)| c.value == Ok(i)));
                    }
                }
            }
            let _ = tx.send(());
        });
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
            rx.recv_timeout(Duration::from_secs(120))
        {
            panic!("run_grid stalled: workers deadlocked draining tiny grids");
        }
        stress.join().expect("every tiny grid returns its items in slot order");
    }

    #[test]
    fn prioritized_dispatch_respects_order_and_slot_results() {
        // At jobs=1 the execution sequence IS the order; observe()
        // records it, while results still land slot-ordered.
        let order: Vec<usize> = (0..17).rev().collect();
        let mut executed = Vec::new();
        let cells = run_grid_prioritized(
            (0..17).collect::<Vec<usize>>(),
            1,
            Some(order.clone()),
            |i, &x| {
                assert_eq!(i, x);
                x * 10
            },
            |slot, _| executed.push(slot),
        );
        assert_eq!(executed, order, "jobs=1 must execute exactly in dispatch order");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(*c.value.as_ref().unwrap(), i * 10);
        }

        // Without an order, jobs=1 executes in identity (slot) order.
        let mut executed = Vec::new();
        run_grid_prioritized((0..17).collect::<Vec<usize>>(), 1, None, |_, &x| x, |slot, _| {
            executed.push(slot)
        });
        assert_eq!(executed, (0..17).collect::<Vec<_>>(), "no order means slot order");

        // At jobs>1 results are still slot-ordered and byte-identical
        // to the unordered run; only pickup order differs.
        let f = |i: usize, x: &u64| x.wrapping_mul(31).wrapping_add(i as u64);
        let items: Vec<u64> = (0..64).map(|i| i * 3).collect();
        let plain: Vec<u64> =
            run_grid(items.clone(), 8, f).into_iter().map(|c| c.value.unwrap()).collect();
        let ordered: Vec<u64> =
            run_grid_prioritized(items, 8, Some((0..64).rev().collect()), f, |_, _| {})
                .into_iter()
                .map(|c| c.value.unwrap())
                .collect();
        assert_eq!(plain, ordered);
    }

    #[test]
    fn prioritized_dispatch_runs_long_cells_first() {
        // The head of the dispatch order must be among the first cells
        // picked up. With 2 workers each holding one cell, no third
        // pop can happen until one of the first two completes, and a
        // barrier makes both first pickups rendezvous inside `f` — so
        // the first two `f` entries are exactly the first two queue
        // pops, deterministically.
        let long_slot = 9usize;
        let order: Vec<usize> = std::iter::once(long_slot)
            .chain((0..16).filter(|&i| i != long_slot))
            .collect();
        let barrier = std::sync::Barrier::new(2);
        let entries = AtomicUsize::new(0);
        let first_two = Mutex::new(Vec::new());
        run_grid_prioritized(
            (0..16).collect::<Vec<usize>>(),
            2,
            Some(order),
            |slot, _| {
                if entries.fetch_add(1, Ordering::SeqCst) < 2 {
                    first_two.lock().push(slot);
                    barrier.wait();
                }
            },
            |_, _| {},
        );
        assert!(
            first_two.lock().contains(&long_slot),
            "the head of the dispatch order must be picked up first"
        );
    }

    #[test]
    #[should_panic(expected = "dispatch order")]
    fn prioritized_dispatch_rejects_non_permutations() {
        run_grid_prioritized(
            vec![1u32, 2, 3],
            2,
            Some(vec![0, 0, 1]),
            |_, &x| x,
            |_, _| {},
        );
    }
}

//! The execution space and dispatch patterns.
//!
//! Mirrors the subset of Kokkos dispatch the paper's prompts exercise:
//! `parallel_for` over `RangePolicy` and `MDRangePolicy`,
//! `parallel_reduce` with a join operator, the two-pass `parallel_scan`,
//! and a CPU-style `TeamPolicy` where each league entry is handled by one
//! pool thread (team vector lanes execute serially, as Kokkos' `Threads`
//! backend commonly configures).

use parking_lot::Mutex;
use pcg_core::{usage, ExecutionModel};
use pcg_shmem::{Pool, Schedule, ThreadCostModel};

/// A Kokkos-style execution space backed by a `pcg-shmem` thread pool.
pub struct ExecSpace {
    pool: Pool,
}

/// Per-team context for [`ExecSpace::parallel_for_teams`].
pub struct TeamCtx {
    league_rank: usize,
    league_size: usize,
}

impl TeamCtx {
    /// This team's index within the league.
    pub fn league_rank(&self) -> usize {
        self.league_rank
    }

    /// Number of teams in the league.
    pub fn league_size(&self) -> usize {
        self.league_size
    }

    /// Serial "vector lane" loop within the team (`TeamThreadRange`
    /// analog with team_size 1).
    pub fn team_for(&self, n: usize, mut f: impl FnMut(usize)) {
        for i in 0..n {
            f(i);
        }
    }

    /// Serial team-level reduction (`parallel_reduce(TeamThreadRange)`).
    pub fn team_reduce<T>(&self, n: usize, identity: T, mut f: impl FnMut(T, usize) -> T) -> T {
        let mut acc = identity;
        for i in 0..n {
            acc = f(acc, i);
        }
        acc
    }
}

impl ExecSpace {
    /// Initialize an execution space with `nthreads` threads (the
    /// `Kokkos::initialize` analog).
    pub fn new(nthreads: usize) -> ExecSpace {
        ExecSpace { pool: Pool::new(nthreads) }
    }

    /// Initialize a timed execution space: dispatches account virtual
    /// time on the underlying pool (see `pcg_shmem::timing`).
    pub fn new_timed(nthreads: usize) -> ExecSpace {
        ExecSpace { pool: Pool::new_timed(nthreads, ThreadCostModel::default()) }
    }

    /// Accumulated virtual time of all dispatches (timed spaces only).
    pub fn virtual_elapsed(&self) -> f64 {
        self.pool.virtual_elapsed()
    }

    /// Reset the virtual clock.
    pub fn reset_virtual_clock(&self) {
        self.pool.reset_virtual_clock()
    }

    /// Concurrency of the space.
    pub fn concurrency(&self) -> usize {
        self.pool.num_threads()
    }

    /// `parallel_for(RangePolicy(0, n), f)`.
    pub fn parallel_for<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        usage::record(ExecutionModel::Kokkos);
        self.pool.parallel_for(0..n, Schedule::Static { chunk: 0 }, f);
    }

    /// `parallel_for(MDRangePolicy<Rank<2>>({0,0},{rows,cols}), f)`.
    /// Iterations are distributed over rows; `f(i, j)` runs for every
    /// pair.
    pub fn parallel_for_2d<F>(&self, rows: usize, cols: usize, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        usage::record(ExecutionModel::Kokkos);
        self.pool.parallel_for(0..rows, Schedule::Static { chunk: 0 }, |i| {
            for j in 0..cols {
                f(i, j);
            }
        });
    }

    /// `parallel_reduce(RangePolicy(0, n), f, join)`: fold `contrib(i)`
    /// into per-thread accumulators, join deterministically in thread
    /// order.
    pub fn parallel_reduce<T, C, J>(&self, n: usize, identity: T, contrib: C, join: J) -> T
    where
        T: Clone + Send + Sync,
        C: Fn(usize) -> T + Sync,
        J: Fn(T, T) -> T + Sync,
    {
        usage::record(ExecutionModel::Kokkos);
        self.pool.parallel_for_reduce(0..n, identity, |acc, i| join(acc, contrib(i)), &join)
    }

    /// `parallel_scan(RangePolicy(0, n), functor)`: the classic two-pass
    /// block scan. `contrib(i)` is element `i`'s contribution, `join`
    /// combines prefixes (must be associative), and `emit(i, inclusive)`
    /// receives the *inclusive* prefix for index `i` in the final pass.
    /// Returns the total (the full-range prefix).
    pub fn parallel_scan<T, C, J, E>(
        &self,
        n: usize,
        identity: T,
        contrib: C,
        join: J,
        emit: E,
    ) -> T
    where
        T: Clone + Send + Sync,
        C: Fn(usize) -> T + Sync,
        J: Fn(T, T) -> T + Sync,
        E: Fn(usize, T) + Sync,
    {
        usage::record(ExecutionModel::Kokkos);
        let nthreads = self.pool.num_threads();
        let per = n.div_ceil(nthreads).max(1);

        // Pass 1: per-thread block totals. Dispatched as a work-sharing
        // loop over block indices so timed pools meter the work.
        let block_totals: Mutex<Vec<Option<T>>> = Mutex::new(vec![None; nthreads]);
        self.pool.parallel_for(0..nthreads, Schedule::Static { chunk: 1 }, |b| {
            let lo = (per * b).min(n);
            let hi = (per * (b + 1)).min(n);
            let mut acc = identity.clone();
            for i in lo..hi {
                acc = join(acc, contrib(i));
            }
            block_totals.lock()[b] = Some(acc);
        });

        // Exclusive scan of block totals (serial: nthreads is tiny).
        let totals: Vec<T> = block_totals
            .into_inner()
            .into_iter()
            .map(|t| t.unwrap_or_else(|| identity.clone()))
            .collect();
        let mut offsets = Vec::with_capacity(nthreads);
        let mut running = identity.clone();
        for t in &totals {
            offsets.push(running.clone());
            running = join(running.clone(), t.clone());
        }
        let grand_total = running;

        // Pass 2: emit inclusive prefixes using block offsets.
        self.pool.parallel_for(0..nthreads, Schedule::Static { chunk: 1 }, |b| {
            let lo = (per * b).min(n);
            let hi = (per * (b + 1)).min(n);
            let mut acc = offsets[b].clone();
            for i in lo..hi {
                acc = join(acc, contrib(i));
                emit(i, acc.clone());
            }
        });

        grand_total
    }

    /// `parallel_for(TeamPolicy(league_size, 1), f)`: each league entry
    /// runs on one pool thread with a [`TeamCtx`].
    pub fn parallel_for_teams<F>(&self, league_size: usize, f: F)
    where
        F: Fn(&TeamCtx) + Sync,
    {
        usage::record(ExecutionModel::Kokkos);
        self.pool.parallel_for(0..league_size, Schedule::Dynamic { chunk: 1 }, |league_rank| {
            f(&TeamCtx { league_rank, league_size });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{View, View2D};

    #[test]
    fn parallel_for_covers_range() {
        let space = ExecSpace::new(4);
        let v: View<i64> = View::new("v", 257);
        let v2 = v.clone();
        space.parallel_for(v.len(), |i| unsafe { v2.set(i, i as i64) });
        assert!(v.to_vec().iter().enumerate().all(|(i, &x)| x == i as i64));
    }

    #[test]
    fn reduce_sum_and_max() {
        let space = ExecSpace::new(3);
        let xs: Vec<f64> = (0..1001).map(|i| i as f64).collect();
        let x = View::from_slice("x", &xs);
        let sum = space.parallel_reduce(x.len(), 0.0, |i| x.get(i), |a, b| a + b);
        assert_eq!(sum, 500_500.0);
        let max = space.parallel_reduce(x.len(), f64::NEG_INFINITY, |i| x.get(i), f64::max);
        assert_eq!(max, 1000.0);
    }

    #[test]
    fn scan_matches_sequential_prefix_sum() {
        let space = ExecSpace::new(4);
        let xs: Vec<i64> = (1..=100).collect();
        let out: View<i64> = View::new("out", xs.len());
        let xs_ref = &xs;
        let out2 = out.clone();
        let total = space.parallel_scan(
            xs.len(),
            0i64,
            |i| xs_ref[i],
            |a, b| a + b,
            |i, inc| unsafe { out2.set(i, inc) },
        );
        assert_eq!(total, 5050);
        let mut want = vec![];
        let mut acc = 0;
        for &x in &xs {
            acc += x;
            want.push(acc);
        }
        assert_eq!(out.to_vec(), want);
    }

    #[test]
    fn scan_empty_range() {
        let space = ExecSpace::new(4);
        let total = space.parallel_scan(0, 0i64, |_| 1, |a, b| a + b, |_, _| {});
        assert_eq!(total, 0);
    }

    #[test]
    fn scan_non_commutative_join_keeps_order() {
        // join = string-ish composition encoded as (first, last) pairs:
        // verifies the scan respects left-to-right order.
        let space = ExecSpace::new(4);
        let n = 64;
        let out: View<i64> = View::new("out", n);
        let out2 = out.clone();
        // Use max-so-far (order-sensitive against wrong offsets).
        let xs: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 19).collect();
        let xs_ref = &xs;
        space.parallel_scan(
            n,
            i64::MIN,
            |i| xs_ref[i],
            |a, b| a.max(b),
            |i, inc| unsafe { out2.set(i, inc) },
        );
        let mut want = vec![];
        let mut m = i64::MIN;
        for &x in &xs {
            m = m.max(x);
            want.push(m);
        }
        assert_eq!(out.to_vec(), want);
    }

    #[test]
    fn md_range_visits_all_pairs() {
        let space = ExecSpace::new(4);
        let m: View2D<i64> = View2D::new("m", 13, 7);
        let m2 = m.clone();
        space.parallel_for_2d(13, 7, |i, j| unsafe { m2.set(i, j, (i * 7 + j) as i64) });
        assert!(m.to_vec().iter().enumerate().all(|(k, &x)| x == k as i64));
    }

    #[test]
    fn teams_cover_league() {
        let space = ExecSpace::new(4);
        let hits: View<i64> = View::new("hits", 33);
        let hits2 = hits.clone();
        space.parallel_for_teams(33, |team| {
            assert_eq!(team.league_size(), 33);
            let partial = team.team_reduce(4, 0i64, |acc, lane| acc + lane as i64);
            unsafe { hits2.set(team.league_rank(), partial) };
        });
        assert!(hits.to_vec().iter().all(|&x| x == 6));
    }

    #[test]
    fn timed_space_accounts_dispatches() {
        let space = ExecSpace::new_timed(4);
        let x: View<f64> = View::new("x", 10_000);
        let x2 = x.clone();
        space.parallel_for(10_000, |i| unsafe { x2.set(i, i as f64) });
        let sum = space.parallel_reduce(10_000, 0.0, |i| x.get(i), |a, b| a + b);
        assert_eq!(sum, (10_000.0f64 * 9_999.0) / 2.0);
        assert!(space.virtual_elapsed() > 0.0);
        space.reset_virtual_clock();
        assert_eq!(space.virtual_elapsed(), 0.0);
    }

    #[test]
    fn team_for_runs_serially_in_order() {
        let space = ExecSpace::new(2);
        let out: View<i64> = View::new("o", 1);
        let out2 = out.clone();
        space.parallel_for_teams(1, |team| {
            let mut last = -1i64;
            team.team_for(10, |lane| {
                assert_eq!(lane as i64, last + 1);
                last = lane as i64;
            });
            unsafe { out2.set(0, last) };
        });
        assert_eq!(out.get(0), 9);
    }
}

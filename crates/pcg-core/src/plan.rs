//! The cell-addressed work model: global cell identities and
//! deterministic work plans.
//!
//! An evaluation grid is the cross product (model × task). Every cell
//! of that grid has a **globally stable address** — a [`CellId`], the
//! FNV-1a hash of `(config hash, model name, task)` — that is identical
//! in every process that enumerates the same configuration. The
//! write-ahead journal keys its entries by cell id (making each line
//! self-checking), resume matches journaled cells by id, and the
//! multi-process sharder partitions the grid by `id % shard_count`, so
//! one process can own an arbitrary slice of the grid and a later
//! `merge` can stitch the slices back together without any coordination
//! beyond the shared configuration.
//!
//! A [`WorkPlan`] is the deterministic enumeration of one grid:
//! model-major over a fixed model list and task list, each cell tagged
//! with its id. Plans are never persisted — any process derives the
//! identical plan from the configuration, which is what makes sharded
//! execution coordination-free.

use crate::task::TaskId;
use serde::{Deserialize, Serialize};

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into an FNV-1a accumulator. Start from
/// [`fnv1a_start`] and chain freely; the hash of a concatenation is
/// the chained hash of its parts.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The FNV-1a offset basis (the hash of the empty string).
pub fn fnv1a_start() -> u64 {
    FNV_OFFSET
}

/// FNV-1a of one byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(fnv1a_start(), bytes)
}

/// Globally stable address of one evaluation cell.
///
/// Two processes that agree on the configuration hash, the model name,
/// and the task compute the same `CellId` — across hosts, worker
/// counts, and runs. The id is used as the journal key, the shard
/// partition key, and a per-line integrity check (a journal entry
/// whose recomputed id mismatches its stored id is treated as corrupt).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u64);

impl CellId {
    /// Address the cell `(model, task)` under the configuration
    /// identified by `config_hash`.
    ///
    /// The encoding hashes the config hash (little-endian), the model
    /// name, a `0xff` separator (model names are UTF-8 and can never
    /// contain `0xff`, so the framing is unambiguous), and the task's
    /// dense index.
    pub fn new(config_hash: u64, model: &str, task: TaskId) -> CellId {
        let mut h = fnv1a_extend(fnv1a_start(), &config_hash.to_le_bytes());
        h = fnv1a_extend(h, model.as_bytes());
        h = fnv1a_extend(h, &[0xff]);
        h = fnv1a_extend(h, &(task.index() as u64).to_le_bytes());
        CellId(h)
    }
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Which deterministic slice of a plan a process owns: shard `index`
/// of `count`. The whole grid is shard `0/1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// This process's shard, `0..count`.
    pub index: u32,
    /// Total number of shards the plan is split into.
    pub count: u32,
}

impl ShardSpec {
    /// The trivial single-shard spec: every cell belongs to it.
    pub const WHOLE: ShardSpec = ShardSpec { index: 0, count: 1 };

    /// Construct, panicking on `index >= count` or `count == 0`.
    pub fn new(index: u32, count: u32) -> ShardSpec {
        assert!(count >= 1, "shard count must be >= 1");
        assert!(index < count, "shard index {index} out of range for {count} shards");
        ShardSpec { index, count }
    }

    /// Parse a `k/N` spec (`"0/3"`), rejecting malformed or
    /// out-of-range values.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (k, n) = s.split_once('/').ok_or_else(|| format!("expected k/N, got {s:?}"))?;
        let index: u32 =
            k.trim().parse().map_err(|_| format!("bad shard index in {s:?}"))?;
        let count: u32 =
            n.trim().parse().map_err(|_| format!("bad shard count in {s:?}"))?;
        if count == 0 {
            return Err(format!("shard count must be >= 1 in {s:?}"));
        }
        if index >= count {
            return Err(format!("shard index {index} out of range for {count} shards"));
        }
        Ok(ShardSpec { index, count })
    }

    /// Whether `id` belongs to this shard. Partitioning is by
    /// `id % count`, so the shards of a plan are disjoint, exhaustive,
    /// and statistically balanced regardless of grid shape.
    pub fn contains(self, id: CellId) -> bool {
        id.0 % u64::from(self.count) == u64::from(self.index)
    }

    /// Whether this spec is the whole grid.
    pub fn is_whole(self) -> bool {
        self.count == 1
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// One enumerated cell of a [`WorkPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCell {
    /// Index into the plan's model list.
    pub model: usize,
    /// Index into the plan's task list.
    pub task_idx: usize,
    /// The task itself.
    pub task: TaskId,
    /// The cell's global address.
    pub id: CellId,
}

/// The deterministic enumeration of one evaluation grid.
///
/// Cells are ordered model-major (all tasks of model 0, then model 1,
/// …) — the canonical record order — and every cell carries its
/// [`CellId`]. Any process holding the same `(config_hash, models,
/// tasks)` derives an identical plan.
#[derive(Debug, Clone)]
pub struct WorkPlan {
    config_hash: u64,
    models: Vec<String>,
    tasks: Vec<TaskId>,
}

impl WorkPlan {
    /// Build the plan for `models` × `tasks` under `config_hash`.
    pub fn new(config_hash: u64, models: Vec<String>, tasks: Vec<TaskId>) -> WorkPlan {
        WorkPlan { config_hash, models, tasks }
    }

    /// The configuration hash the plan (and every cell id) is pinned to.
    pub fn config_hash(&self) -> u64 {
        self.config_hash
    }

    /// Model names, record order.
    pub fn models(&self) -> &[String] {
        &self.models
    }

    /// Tasks, canonical order.
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks
    }

    /// Total number of cells in the grid.
    pub fn len(&self) -> usize {
        self.models.len() * self.tasks.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The address of cell `(model index, task index)`.
    pub fn id_of(&self, model: usize, task_idx: usize) -> CellId {
        CellId::new(self.config_hash, &self.models[model], self.tasks[task_idx])
    }

    /// Enumerate every cell, model-major.
    pub fn cells(&self) -> impl Iterator<Item = PlanCell> + '_ {
        self.models.iter().enumerate().flat_map(move |(mi, name)| {
            self.tasks.iter().enumerate().map(move |(ti, &task)| PlanCell {
                model: mi,
                task_idx: ti,
                task,
                id: CellId::new(self.config_hash, name, task),
            })
        })
    }

    /// The cells belonging to `shard`, in plan order.
    pub fn shard(&self, shard: ShardSpec) -> Vec<PlanCell> {
        self.cells().filter(|c| shard.contains(c.id)).collect()
    }

    /// The cells belonging to `shard` under a cost-weighted partition:
    /// greedy LPT bin-packing of the whole grid into `shard.count`
    /// bins, returning this shard's bin in plan order.
    ///
    /// Cells are considered in descending `cost_fn` order (ties broken
    /// by ascending cell id, so the packing is total-order
    /// deterministic) and each is assigned to the currently
    /// least-loaded bin (ties to the lowest bin index). Every process
    /// that derives the same plan and the same cost function derives
    /// the identical partition — the partition is still disjoint,
    /// exhaustive, and coordination-free, just balanced by expected
    /// cost instead of by hash residue. Non-finite or negative costs
    /// are clamped to zero rather than poisoning the sort; a table
    /// that clamps to zero *everywhere* carries no balance signal and
    /// falls back to the unweighted `id % count` partition (greedy
    /// packing of all-equal loads would dump the entire grid into
    /// bin 0 and starve every other worker).
    pub fn shard_weighted(
        &self,
        shard: ShardSpec,
        mut cost_fn: impl FnMut(&PlanCell) -> f64,
    ) -> Vec<PlanCell> {
        let cells: Vec<PlanCell> = self.cells().collect();
        if shard.count <= 1 {
            return cells;
        }
        let weights: Vec<f64> = cells
            .iter()
            .map(|c| {
                let w = cost_fn(c);
                if w.is_finite() && w > 0.0 {
                    w
                } else {
                    0.0
                }
            })
            .collect();
        if weights.iter().all(|&w| w == 0.0) {
            return cells.into_iter().filter(|c| shard.contains(c.id)).collect();
        }
        let mut order: Vec<usize> = (0..cells.len()).collect();
        order.sort_by(|&a, &b| {
            weights[b].total_cmp(&weights[a]).then(cells[a].id.cmp(&cells[b].id))
        });
        let mut load = vec![0.0f64; shard.count as usize];
        let mut owner = vec![0u32; cells.len()];
        for &i in &order {
            let bin = (0..load.len())
                .min_by(|&a, &b| load[a].total_cmp(&load[b]))
                .expect("shard.count >= 1");
            owner[i] = bin as u32;
            load[bin] += weights[i];
        }
        cells
            .into_iter()
            .enumerate()
            .filter(|(i, _)| owner[*i] == shard.index)
            .map(|(_, c)| c)
            .collect()
    }

    /// The cells belonging to `shard`, weighted by `priors` when a
    /// table is supplied, else by the `id % count` fallback. This is
    /// the single partition entry point the harness uses: passing the
    /// same `Option<&CostPriors>` (validated by hash stamp) in every
    /// process guarantees identical slices.
    pub fn shard_with(
        &self,
        shard: ShardSpec,
        priors: Option<&crate::priors::CostPriors>,
    ) -> Vec<PlanCell> {
        match priors {
            Some(p) => self.shard_weighted(shard, |c| p.cost(&self.models[c.model], c.task)),
            None => self.shard(shard),
        }
    }

    /// The order a thief should try to steal `shard`'s cells: the
    /// exact **reverse** of the victim's own [`dispatch_order`], so the
    /// thief starts from the cells the victim would reach *last* and
    /// the victim keeps its in-flight (heaviest-first under LPT) work.
    pub fn steal_order(
        &self,
        shard: ShardSpec,
        priors: Option<&crate::priors::CostPriors>,
    ) -> Vec<PlanCell> {
        let owned = self.shard_with(shard, priors);
        dispatch_order(&owned, &self.models, priors).into_iter().rev().map(|i| owned[i]).collect()
    }
}

/// The order a worker hands `cells` to its threads, as indices into
/// `cells`: model-major, like the plan. With priors, each model row is
/// list-scheduled by LPT — descending expected cost, ties broken by
/// ascending cell id, so every process holding an identically-stamped
/// table derives the same order; without priors, the cells' own (plan)
/// order. Priors never interleave rows: the rows of one task share
/// their computations, so cells of different tasks keep concurrent
/// workers apart, where a model-blind table would tie a task's rows
/// next to each other and have one worker wait on another's
/// computation. `models` are the row labels the cells' `model` indices
/// name.
pub fn dispatch_order(
    cells: &[PlanCell],
    models: &[String],
    priors: Option<&crate::priors::CostPriors>,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells.len()).collect();
    if let Some(p) = priors {
        let cost: Vec<f64> = cells.iter().map(|c| p.cost(&models[c.model], c.task)).collect();
        order.sort_by(|&a, &b| {
            cells[a].model
                .cmp(&cells[b].model)
                .then(cost[b].total_cmp(&cost[a]))
                .then(cells[a].id.cmp(&cells[b].id))
        });
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::all_tasks;

    fn plan() -> WorkPlan {
        WorkPlan::new(
            0xdead_beef,
            vec!["GPT-4".into(), "CodeLlama-7B".into(), "StarCoderBase".into()],
            all_tasks().take(40).collect(),
        )
    }

    #[test]
    fn cell_ids_are_stable_and_distinct() {
        let p = plan();
        let ids: Vec<CellId> = p.cells().map(|c| c.id).collect();
        assert_eq!(ids.len(), p.len());
        let mut uniq = ids.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len(), "cell ids must be collision-free on a grid");
        // Re-derived plans address identically.
        let again: Vec<CellId> = plan().cells().map(|c| c.id).collect();
        assert_eq!(ids, again);
        // And ids depend on every coordinate.
        let c0 = p.cells().next().unwrap();
        assert_ne!(CellId::new(1, "GPT-4", c0.task), c0.id);
        assert_ne!(CellId::new(0xdead_beef, "GPT-3.5", c0.task), c0.id);
    }

    #[test]
    fn shards_partition_the_grid() {
        let p = plan();
        let all: Vec<CellId> = p.cells().map(|c| c.id).collect();
        let mut seen = Vec::new();
        for k in 0..3 {
            let shard = p.shard(ShardSpec::new(k, 3));
            for c in &shard {
                assert!(ShardSpec::new(k, 3).contains(c.id));
            }
            seen.extend(shard.iter().map(|c| c.id));
        }
        seen.sort();
        let mut want = all.clone();
        want.sort();
        assert_eq!(seen, want, "3 shards must cover every cell exactly once");
        // No shard is pathologically empty on a 120-cell grid.
        for k in 0..3 {
            assert!(p.shard(ShardSpec::new(k, 3)).len() > 10);
        }
        // The whole-grid spec is the identity.
        assert_eq!(p.shard(ShardSpec::WHOLE).len(), p.len());
    }

    #[test]
    fn plan_order_is_model_major() {
        let p = plan();
        let cells: Vec<PlanCell> = p.cells().collect();
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.model, i / p.tasks().len());
            assert_eq!(c.task_idx, i % p.tasks().len());
            assert_eq!(c.task, p.tasks()[c.task_idx]);
            assert_eq!(c.id, p.id_of(c.model, c.task_idx));
        }
    }

    #[test]
    fn shard_spec_parses() {
        assert_eq!(ShardSpec::parse("0/3"), Ok(ShardSpec::new(0, 3)));
        assert_eq!(ShardSpec::parse("2/3"), Ok(ShardSpec::new(2, 3)));
        assert_eq!(ShardSpec::parse("0/1"), Ok(ShardSpec::WHOLE));
        assert!(ShardSpec::parse("3/3").is_err(), "index must be < count");
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("1").is_err());
        assert!(ShardSpec::parse("a/b").is_err());
        assert!(ShardSpec::parse("-1/3").is_err());
        assert_eq!(ShardSpec::new(1, 4).to_string(), "1/4");
        assert!(ShardSpec::WHOLE.is_whole());
        assert!(!ShardSpec::new(0, 2).is_whole());
    }

    #[test]
    fn weighted_shards_partition_the_grid() {
        let p = plan();
        let all: Vec<CellId> = p.cells().map(|c| c.id).collect();
        // A skewed cost function: a handful of cells are 50× the rest.
        let cost = |c: &PlanCell| if c.id.0.is_multiple_of(7) { 50.0 } else { 1.0 };
        let mut seen = Vec::new();
        for k in 0..3 {
            let shard = p.shard_weighted(ShardSpec::new(k, 3), cost);
            // Plan order is preserved within the slice.
            let ids: Vec<CellId> = shard.iter().map(|c| c.id).collect();
            let order: Vec<usize> =
                shard.iter().map(|c| c.model * p.tasks().len() + c.task_idx).collect();
            assert!(order.windows(2).all(|w| w[0] < w[1]), "slice must stay plan-ordered");
            // Deterministic across re-derivation.
            assert_eq!(
                ids,
                plan()
                    .shard_weighted(ShardSpec::new(k, 3), cost)
                    .iter()
                    .map(|c| c.id)
                    .collect::<Vec<_>>()
            );
            seen.extend(ids);
        }
        seen.sort();
        let mut want = all.clone();
        want.sort();
        assert_eq!(seen, want, "weighted shards must cover every cell exactly once");
        // LPT balance bound: max load - min load <= max single cost.
        let loads: Vec<f64> = (0..3)
            .map(|k| p.shard_weighted(ShardSpec::new(k, 3), cost).iter().map(cost).sum())
            .collect();
        let max = loads.iter().cloned().fold(f64::MIN, f64::max);
        let min = loads.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min <= 50.0, "LPT spread {max}-{min} exceeds the largest cell");
        // Degenerate cost functions (everything clamps to zero) fall
        // back to the unweighted partition — no worker is starved.
        for degenerate in [f64::NAN, 0.0, -3.0, f64::INFINITY] {
            for k in 0..3 {
                let spec = ShardSpec::new(k, 3);
                assert_eq!(
                    p.shard_weighted(spec, |_| degenerate),
                    p.shard(spec),
                    "all-{degenerate} costs must fall back to id % count"
                );
            }
        }
        // count == 1 is the identity.
        assert_eq!(p.shard_weighted(ShardSpec::WHOLE, cost).len(), p.len());
    }

    #[test]
    fn weighted_shards_survive_degenerate_plans() {
        // More bins than cells: every cell lands somewhere, the extra
        // bins are empty, and nothing panics.
        let tiny = WorkPlan::new(7, vec!["GPT-4".into()], all_tasks().take(2).collect());
        let cost = |c: &PlanCell| (c.id.0 % 5) as f64 + 1.0;
        let mut seen = Vec::new();
        let mut empty = 0;
        for k in 0..8 {
            let owned = tiny.shard_weighted(ShardSpec::new(k, 8), cost);
            if owned.is_empty() {
                empty += 1;
            }
            seen.extend(owned.iter().map(|c| c.id));
        }
        assert_eq!(seen.len(), tiny.len(), "count > cells must not drop or duplicate cells");
        assert_eq!(empty, 8 - tiny.len() as i32, "exactly count - cells bins stay empty");

        // A single-cell plan: the cell goes to exactly one bin,
        // deterministically.
        let one = WorkPlan::new(7, vec!["GPT-4".into()], all_tasks().take(1).collect());
        let owners: Vec<u32> = (0..3)
            .filter(|&k| !one.shard_weighted(ShardSpec::new(k, 3), cost).is_empty())
            .collect();
        assert_eq!(owners.len(), 1, "a single cell has a single owner");
        let again: Vec<u32> = (0..3)
            .filter(|&k| !one.shard_weighted(ShardSpec::new(k, 3), cost).is_empty())
            .collect();
        assert_eq!(owners, again);
        // And the zero-signal single-cell case matches the unweighted
        // fallback exactly.
        for k in 0..3 {
            let spec = ShardSpec::new(k, 3);
            assert_eq!(one.shard_weighted(spec, |_| 0.0), one.shard(spec));
        }
    }

    #[test]
    fn steal_order_reverses_the_victims_dispatch() {
        let p = plan();
        // Without priors the victim runs its slice in plan order, so
        // the steal order is that slice reversed.
        for k in 0..3 {
            let spec = ShardSpec::new(k, 3);
            let mut expect = p.shard(spec);
            expect.reverse();
            assert_eq!(p.steal_order(spec, None), expect);
        }
        // With priors: same cell set as the weighted slice, in
        // descending model row, each row ascending cost with ties on
        // descending id — the reverse of dispatch (model-major, each
        // row by descending cost, ties ascending id).
        let priors = crate::priors::CostPriors::default_profile();
        for k in 0..3 {
            let spec = ShardSpec::new(k, 3);
            let order = p.steal_order(spec, Some(&priors));
            let mut want: Vec<CellId> =
                p.shard_with(spec, Some(&priors)).iter().map(|c| c.id).collect();
            want.sort();
            let mut got: Vec<CellId> = order.iter().map(|c| c.id).collect();
            got.sort();
            assert_eq!(got, want, "steal order must be a permutation of the owned slice");
            let cost = |c: &PlanCell| priors.cost(&p.models()[c.model], c.task);
            assert!(
                order.windows(2).all(|w| {
                    w[0].model > w[1].model
                        || (w[0].model == w[1].model
                            && (cost(&w[0]) < cost(&w[1])
                                || (cost(&w[0]) == cost(&w[1]) && w[0].id > w[1].id)))
                }),
                "steal order must be descending row, then ascending cost, ties descending id"
            );
        }
    }

    #[test]
    fn shard_with_dispatches_on_priors() {
        let p = plan();
        for k in 0..3 {
            let spec = ShardSpec::new(k, 3);
            assert_eq!(p.shard_with(spec, None), p.shard(spec));
        }
        let priors = crate::priors::CostPriors::default_profile();
        let mut seen: Vec<CellId> = (0..3)
            .flat_map(|k| p.shard_with(ShardSpec::new(k, 3), Some(&priors)))
            .map(|c| c.id)
            .collect();
        seen.sort();
        let mut want: Vec<CellId> = p.cells().map(|c| c.id).collect();
        want.sort();
        assert_eq!(seen, want);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        // Chaining is concatenation.
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}

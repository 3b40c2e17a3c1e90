//! Property tests for the shard partition and steal-order laws.
//!
//! `shard_weighted` is the only coordination between shard workers:
//! every process derives the partition independently and trusts the
//! others derived the same one. So the laws below must hold for *any*
//! cost function and *any* geometry, including the degenerate corners
//! (more bins than cells, a single-cell plan, a zero-signal table)
//! that a hand-picked unit grid never exercises:
//!
//! 1. Disjoint + exhaustive: every cell is owned by exactly one shard.
//! 2. Plan-ordered: each shard's slice preserves plan order.
//! 3. Deterministic: re-deriving from the same inputs is identical.
//! 4. Zero-signal fallback: a table that clamps to zero everywhere
//!    yields exactly the unweighted `id % count` partition.
//! 5. Steal order is a permutation of the owned slice (a thief can
//!    never enumerate a cell the victim does not own).
//! 6. Steal order is the exact reverse of the victim's dispatch order
//!    ([`dispatch_order`], the order `evaluate_cells_priors` hands a
//!    shard's cells to its workers), with and without priors, and
//!    under tables whose costs tie.
//! 7. With priors, dispatch is model-major (rows in plan order) and
//!    cost-descending within each row, ties by ascending cell id.

use pcg_core::plan::{dispatch_order, CellId, PlanCell, ShardSpec, WorkPlan};
use proptest::prelude::*;

fn arb_plan(models: usize, tasks: usize) -> WorkPlan {
    let names: Vec<String> = (0..models).map(|m| format!("model-{m}")).collect();
    WorkPlan::new(0x5eed, names, pcg_core::task::all_tasks().take(tasks).collect())
}

/// A deterministic pseudo-random cost keyed on the cell id and a seed,
/// mixing in zero / negative / non-finite values so the clamp path is
/// exercised alongside real weights.
fn cost(seed: u64, id: CellId) -> f64 {
    let h = seed ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    match h % 16 {
        0 => 0.0,
        1 => -1.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        _ => ((h >> 4) % 1000) as f64 / 10.0 + 0.1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn weighted_partition_laws(
        models in 1usize..4,
        tasks in 1usize..16,
        count in 1u32..10,
        seed in 0u64..=u64::MAX,
    ) {
        let plan = arb_plan(models, tasks);
        let mut seen: Vec<CellId> = Vec::new();
        for k in 0..count {
            let spec = ShardSpec::new(k, count);
            let owned = plan.shard_weighted(spec, |c| cost(seed, c.id));
            // Law 2: plan order within the slice.
            let pos: Vec<usize> =
                owned.iter().map(|c| c.model * plan.tasks().len() + c.task_idx).collect();
            prop_assert!(pos.windows(2).all(|w| w[0] < w[1]), "slice must stay plan-ordered");
            // Law 3: deterministic re-derivation.
            let again = arb_plan(models, tasks).shard_weighted(spec, |c| cost(seed, c.id));
            prop_assert_eq!(&owned, &again);
            seen.extend(owned.iter().map(|c| c.id));
        }
        // Law 1: disjoint + exhaustive.
        let mut want: Vec<CellId> = plan.cells().map(|c| c.id).collect();
        seen.sort();
        want.sort();
        prop_assert_eq!(seen, want, "every cell owned exactly once");
    }

    #[test]
    fn zero_signal_tables_fall_back_to_unweighted(
        models in 1usize..4,
        tasks in 1usize..16,
        count in 1u32..10,
        mix in 0u64..=u64::MAX,
    ) {
        let degenerate = [0.0f64, -5.0, f64::NAN, f64::NEG_INFINITY];
        let plan = arb_plan(models, tasks);
        for k in 0..count {
            let spec = ShardSpec::new(k, count);
            let pick = |c: &PlanCell| degenerate[((c.id.0 ^ mix) % 4) as usize];
            prop_assert_eq!(
                plan.shard_weighted(spec, pick),
                plan.shard(spec),
                "zero-signal costs must match the unweighted fallback"
            );
        }
    }

    #[test]
    fn steal_order_is_a_permutation_of_the_owned_slice(
        models in 1usize..4,
        tasks in 1usize..16,
        count in 2u32..8,
    ) {
        let plan = arb_plan(models, tasks);
        let priors = pcg_core::CostPriors::default_profile();
        for withp in [None, Some(&priors)] {
            for k in 0..count {
                let spec = ShardSpec::new(k, count);
                let mut owned: Vec<CellId> =
                    plan.shard_with(spec, withp).iter().map(|c| c.id).collect();
                let mut steal: Vec<CellId> =
                    plan.steal_order(spec, withp).iter().map(|c| c.id).collect();
                owned.sort();
                steal.sort();
                prop_assert_eq!(owned, steal);
            }
        }
    }

    #[test]
    fn steal_order_reverses_the_dispatch_order(
        models in 1usize..4,
        tasks in 1usize..24,
        count in 1u32..8,
        seed in 0u64..=u64::MAX,
    ) {
        let plan = arb_plan(models, tasks);
        // Three distinct measured costs, so most cells tie with others
        // and the id tie-break decides their order.
        let measured = pcg_core::CostPriors::from_entries(
            "three-costs",
            plan.cells().map(|c| {
                let cost = 1.0 + ((seed ^ c.id.0) % 3) as f64;
                (plan.models()[c.model].clone(), c.task.index() as u32, cost)
            }),
        );
        let default = pcg_core::CostPriors::default_profile();
        for withp in [None, Some(&default), Some(&measured)] {
            for k in 0..count {
                let spec = ShardSpec::new(k, count);
                let owned = plan.shard_with(spec, withp);
                let dispatched: Vec<CellId> = dispatch_order(&owned, plan.models(), withp)
                    .into_iter()
                    .map(|i| owned[i].id)
                    .collect();
                let mut stolen: Vec<CellId> =
                    plan.steal_order(spec, withp).iter().map(|c| c.id).collect();
                stolen.reverse();
                prop_assert_eq!(stolen, dispatched);
            }
        }
    }

    #[test]
    fn priors_reorder_cells_only_within_a_model_row(
        models in 1usize..5,
        tasks in 1usize..24,
        count in 1u32..4,
        seed in 0u64..=u64::MAX,
    ) {
        let plan = arb_plan(models, tasks);
        // Few distinct costs, so ties exercise the id tie-break.
        let measured = pcg_core::CostPriors::from_entries(
            "three-costs",
            plan.cells().map(|c| {
                let cost = 1.0 + ((seed ^ c.id.0) % 3) as f64;
                (plan.models()[c.model].clone(), c.task.index() as u32, cost)
            }),
        );
        let default = pcg_core::CostPriors::default_profile();
        for priors in [&default, &measured] {
            for k in 0..count {
                let owned = plan.shard_with(ShardSpec::new(k, count), Some(priors));
                let cost = |c: &PlanCell| priors.cost(&plan.models()[c.model], c.task);
                let dispatched: Vec<PlanCell> = dispatch_order(&owned, plan.models(), Some(priors))
                    .into_iter()
                    .map(|i| owned[i])
                    .collect();
                prop_assert_eq!(dispatched.len(), owned.len());
                for w in dispatched.windows(2) {
                    prop_assert!(w[0].model <= w[1].model, "rows must stay model-major");
                    if w[0].model == w[1].model {
                        prop_assert!(
                            cost(&w[0]) > cost(&w[1])
                                || (cost(&w[0]) == cost(&w[1]) && w[0].id < w[1].id),
                            "within a row: descending cost, ties ascending id"
                        );
                    }
                }
            }
        }
    }
}

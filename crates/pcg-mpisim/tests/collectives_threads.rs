//! The allreduce equivalence battery of `collectives_prop.rs` on the
//! thread-per-rank path, where ranks of a block race to publish their
//! shared combine: results must still match the per-rank reference bit
//! for bit.

mod common;

use pcg_core::usage::{Context, Settings, UsageScope};

#[test]
fn allreduce_matches_the_per_rank_reference_on_rank_threads() {
    let thread_per_rank = Settings { warm: false, ..Settings::default() };
    let _reference = UsageScope::begin_in(Context::new(thread_per_rank));
    for seed in 0..4 {
        common::equivalence_battery(7 + seed as usize * 11, seed);
    }
}

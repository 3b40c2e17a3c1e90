//! The allreduce equivalence battery of `collectives_prop.rs` on the
//! thread-per-rank path, where ranks of a block race to publish their
//! shared combine: results must still match the per-rank reference bit
//! for bit.
//!
//! One `#[test]`: the warm-path flag it turns off is process-global.

mod common;

use pcg_core::warm;

#[test]
fn allreduce_matches_the_per_rank_reference_on_rank_threads() {
    warm::set_enabled(false);
    for seed in 0..4 {
        common::equivalence_battery(7 + seed as usize * 11, seed);
    }
}

//! The legacy-proposer reference run shared by the plan-equivalence
//! tests.

use rand::rngs::StdRng;
use rand::SeedableRng;

use salsa_alloc::{improve, initial_binding, polish, Allocator, BindingParts, ImproveStats};

/// Runs the `restarts` chains `allocator` would run from `seed`, on the
/// legacy re-derive proposers (switched on through the
/// `Binding::set_plan_enabled` test hook), and reduces them the way the
/// portfolio does: the `(cost, slot)`-minimal chain wins. Returns the
/// winner's cost, binding image and search statistics with the timing
/// zeroed.
pub fn legacy_winner(
    allocator: &Allocator<'_>,
    seed: u64,
    restarts: usize,
) -> (u64, BindingParts, ImproveStats) {
    let (ctx, config) = allocator.prepare().expect("the pool fits the schedule");
    let (mut initial, _) = initial_binding(&ctx, config.warm.as_deref());
    initial.set_plan_enabled(false);
    (0..restarts)
        .map(|slot| {
            let mut binding = initial.clone();
            assert!(!binding.plan_enabled(), "clones inherit the legacy proposers");
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(slot as u64));
            let mut stats = improve(&mut binding, &config, &mut rng);
            stats.final_cost = polish(&mut binding, &config.weights, &config.move_set);
            stats.elapsed_nanos = 0;
            (stats.final_cost, slot, binding.to_parts(), stats)
        })
        .min_by_key(|&(cost, slot, ..)| (cost, slot))
        .map(|(cost, _, parts, stats)| (cost, parts, stats))
        .expect("at least one chain")
}

/// The `(cost, winner, stats)` triple of a compiled-plan allocation run,
/// in the shape [`legacy_winner`] returns.
pub fn plan_winner(allocator: &Allocator<'_>) -> (u64, BindingParts, ImproveStats) {
    let result = allocator.run().expect("allocation succeeds");
    let stats = ImproveStats { elapsed_nanos: 0, ..result.stats };
    (result.cost, result.winner, stats)
}

//! The determinism contract of the search: a run is a pure function of
//! its seed (annealing and polish included), and the compiled move plan
//! never changes a trajectory — the legacy re-derive proposers, reached
//! through the `Binding::set_plan_enabled` test hook, walk bit-for-bit
//! the same moves. The `salsa-serve` result cache keys on this contract.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use salsa_alloc::{
    anneal, improve, initial_allocation, polish, AllocContext, AnnealConfig, Allocator, Binding,
    ImproveConfig, ImproveStats, MoveSet,
};
use salsa_cdfg::{benchmarks, random_cdfg, Cdfg, RandomCdfgConfig};
use salsa_datapath::{CostWeights, Datapath};
use salsa_sched::{asap, fds_schedule, FuLibrary, Schedule};

fn quick() -> ImproveConfig {
    ImproveConfig { max_trials: 3, moves_per_trial: Some(400), ..ImproveConfig::default() }
}

fn pool_for(graph: &Cdfg, schedule: &Schedule, library: &FuLibrary, extra: usize) -> Datapath {
    Datapath::new(
        &schedule.fu_demand(graph, library),
        schedule.register_demand(graph, library) + extra,
    )
}

/// One improvement run from the constructive start; `plan: false` runs
/// the legacy proposers through the test hook.
fn search<'a>(
    ctx: &'a AllocContext<'a>,
    seed: u64,
    config: &ImproveConfig,
    plan: bool,
) -> (Binding<'a>, ImproveStats) {
    let mut binding = initial_allocation(ctx);
    binding.set_plan_enabled(plan);
    let mut rng = StdRng::seed_from_u64(seed);
    let stats = improve(&mut binding, config, &mut rng);
    (binding, stats)
}

/// The counters that must agree between equivalent runs (timing excluded).
fn counters(stats: &ImproveStats) -> [usize; 5] {
    [stats.trials, stats.attempted, stats.applied, stats.accepted, stats.uphill_accepted]
}

#[test]
fn annealing_is_a_pure_function_of_the_seed() {
    let graph = benchmarks::ewf();
    let library = FuLibrary::standard();
    let cp = asap(&graph, &library).length;
    let schedule = fds_schedule(&graph, &library, cp + 2).unwrap();
    let datapath = pool_for(&graph, &schedule, &library, 1);
    let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
    let config = AnnealConfig {
        initial_temperature: 10.0,
        moves_per_level: Some(300),
        ..AnnealConfig::default()
    };

    let run = |seed: u64| {
        let mut binding = initial_allocation(&ctx);
        let mut rng = StdRng::seed_from_u64(seed);
        let stats = anneal(&mut binding, &config, &mut rng);
        (binding, stats)
    };
    let (first, first_stats) = run(7);
    let (again, again_stats) = run(7);
    assert!(first == again, "same seed, same annealed binding");
    assert_eq!(first_stats, again_stats, "same seed, same annealing statistics");
    assert!(first_stats.final_cost <= first_stats.initial_cost, "best-so-far never worsens");

    let (other, other_stats) = run(8);
    assert!(
        !(other == first) || other_stats != first_stats,
        "a different seed should explore differently"
    );
}

#[test]
fn polish_reaches_a_deterministic_fixpoint() {
    let graph = benchmarks::dct();
    let library = FuLibrary::standard();
    let cp = asap(&graph, &library).length;
    let schedule = fds_schedule(&graph, &library, cp + 2).unwrap();
    let datapath = pool_for(&graph, &schedule, &library, 1);
    let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
    let weights = CostWeights::default();
    let cost_of = |b: &Binding<'_>| weights.evaluate(&b.breakdown());

    // Two identical stochastic starts, polished independently, must land
    // on the same local optimum: the sweep order is fixed, so polish is
    // as deterministic as the binding it starts from.
    let (mut first, _) = search(&ctx, 3, &quick(), true);
    let (mut twin, _) = search(&ctx, 3, &quick(), true);
    let before = cost_of(&first);
    let polished = polish(&mut first, &weights, &MoveSet::full());
    let twin_polished = polish(&mut twin, &weights, &MoveSet::full());
    assert_eq!(polished, twin_polished, "identical inputs polish to identical costs");
    assert!(first == twin, "identical inputs polish to identical bindings");
    assert!(polished <= before, "polish never worsens the binding");
    assert_eq!(polished, cost_of(&first), "returned cost matches the final binding");

    // A fixpoint is a fixpoint: polishing again changes nothing.
    let again = polish(&mut first, &weights, &MoveSet::full());
    assert_eq!(again, polished);
    assert!(first == twin, "re-polishing at the fixpoint is a no-op");
}

/// The compiled-move-plan contract: plan-on and plan-off runs enumerate
/// identical candidate lists in identical order, so for any seed the
/// trajectories — not just the outcomes — are bit-for-bit the same.
#[test]
fn compiled_plan_matches_legacy_proposers_bit_for_bit() {
    let library = FuLibrary::standard();
    for graph in [benchmarks::ewf(), benchmarks::dct()] {
        let cp = asap(&graph, &library).length;
        let schedule = fds_schedule(&graph, &library, cp + 2).unwrap();
        let datapath = pool_for(&graph, &schedule, &library, 1);
        let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();

        for seed in [7u64, 23] {
            let (on, on_stats) = search(&ctx, seed, &quick(), true);
            let (off, off_stats) = search(&ctx, seed, &quick(), false);
            assert!(
                on == off,
                "{} seed {seed}: the compiled plan diverged from the legacy proposers",
                graph.name()
            );
            assert_eq!(counters(&on_stats), counters(&off_stats));
            assert_eq!(on_stats.final_cost, off_stats.final_cost);
        }
    }
}

/// Plan on/off equivalence through the full portfolio driver: multiple
/// restart chains, reduction and polish included.
#[test]
fn compiled_plan_matches_legacy_through_the_portfolio() {
    let graph = benchmarks::ewf();
    let library = FuLibrary::standard();
    let cp = asap(&graph, &library).length;
    let schedule = fds_schedule(&graph, &library, cp + 2).unwrap();
    for threads in [1, 2] {
        let allocator = Allocator::new(&graph, &schedule, &library)
            .seed(5)
            .extra_registers(1)
            .restarts(3)
            .threads(threads)
            .config(quick());
        assert_eq!(
            common::plan_winner(&allocator),
            common::legacy_winner(&allocator, 5, 3),
            "{threads} threads: plan on/off changed the portfolio outcome"
        );
    }
}

/// The sequential DCT job at its paper budget (10 steps, seed 42, four
/// restarts on one thread) lands on the same winner with either
/// proposer implementation.
#[test]
fn compiled_plan_matches_legacy_on_the_sequential_dct_job() {
    let graph = benchmarks::dct();
    let library = FuLibrary::standard();
    let schedule = fds_schedule(&graph, &library, 10).unwrap();
    let allocator = Allocator::new(&graph, &schedule, &library).seed(42).restarts(4).threads(1);
    assert_eq!(common::plan_winner(&allocator), common::legacy_winner(&allocator, 42, 4));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Plan on ≡ plan off on arbitrary graphs: same final binding, same
    /// counters, for any seed.
    #[test]
    fn compiled_plan_is_exact_on_random_graphs(
        graph_seed in 0u64..500,
        search_seed in 0u64..100,
        ops in 8usize..20,
        states in 0usize..3,
        slack in 0usize..3,
        extra_regs in 0usize..3,
    ) {
        let cfg = RandomCdfgConfig { ops, states, ..RandomCdfgConfig::default() };
        let graph = random_cdfg(&cfg, graph_seed);
        let library = FuLibrary::standard();
        let cp = asap(&graph, &library).length;
        let schedule = fds_schedule(&graph, &library, cp + slack).unwrap();
        let datapath = pool_for(&graph, &schedule, &library, extra_regs);
        let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
        let config = ImproveConfig {
            max_trials: 3,
            moves_per_trial: Some(250),
            ..ImproveConfig::default()
        };

        let (on, on_stats) = search(&ctx, search_seed, &config, true);
        let (off, off_stats) = search(&ctx, search_seed, &config, false);
        prop_assert!(on == off, "plan on/off trajectories diverged");
        prop_assert_eq!(counters(&on_stats), counters(&off_stats));
        prop_assert_eq!(on_stats.final_cost, off_stats.final_cost);
    }
}

//! The determinism contract of the search: a run is a pure function of
//! its seed, annealing and polish included. The `salsa-serve` result
//! cache keys on this contract. What the move proposers draw, and the
//! winners the search reaches from them, are pinned by
//! `tests/golden/proposals.txt`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use salsa_alloc::{
    anneal, improve, initial_allocation, polish, AllocContext, AnnealConfig, Binding,
    ImproveConfig, MoveSet,
};
use salsa_cdfg::{benchmarks, Cdfg};
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

/// One improvement run from the constructive start.
fn search<'a>(ctx: &'a AllocContext<'a>, seed: u64, config: &ImproveConfig) -> Binding<'a> {
    let mut binding = initial_allocation(ctx);
    let mut rng = StdRng::seed_from_u64(seed);
    improve(&mut binding, config, &mut rng);
    binding
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
    let mut first = search(&ctx, 3, &quick());
    let mut twin = search(&ctx, 3, &quick());
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

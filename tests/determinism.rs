//! Allocation determinism: the full allocator pipeline (portfolio
//! restarts, two-phase improvement, polish) must produce bit-identical
//! results for a fixed seed. The transactional move engine keeps this true
//! in debug and release alike because its rollback cross-checks are
//! selected by a deterministic counter, never the search RNG. The parallel
//! portfolio keeps it true across worker counts because chains are pure
//! functions of their seed, every chain runs to completion, and the
//! reduction orders by `(cost, slot)` — see DESIGN.md §7.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use salsa_alloc::{
    improve, initial_allocation, lower, polish, AllocContext, AllocResult, Allocator,
    ImproveConfig, MoveSet,
};
use salsa_cdfg::{random_cdfg, Cdfg, RandomCdfgConfig};
use salsa_datapath::{Claims, Datapath, Rtl};
use salsa_sched::{asap, fds_schedule, FuLibrary};

fn allocate(graph: &Cdfg, steps: usize, seed: u64) -> AllocResult {
    let library = FuLibrary::standard();
    let schedule = fds_schedule(graph, &library, steps).unwrap();
    Allocator::new(graph, &schedule, &library)
        .seed(seed)
        .config(ImproveConfig {
            max_trials: 3,
            moves_per_trial: Some(600),
            move_set: MoveSet::full(),
            ..ImproveConfig::default()
        })
        .restarts(2)
        .run()
        .unwrap()
}

fn assert_identical(graph: &Cdfg, steps: usize) {
    for seed in 0..4 {
        let a = allocate(graph, steps, seed);
        let b = allocate(graph, steps, seed);
        // `stats.elapsed_nanos` is wall-clock and legitimately differs;
        // everything the allocation *is* must match exactly.
        assert_eq!(a.cost, b.cost, "cost diverged at seed {seed}");
        assert_eq!(a.breakdown, b.breakdown, "breakdown diverged at seed {seed}");
        assert_eq!(a.datapath, b.datapath, "datapath diverged at seed {seed}");
        assert_eq!(a.rtl, b.rtl, "rtl diverged at seed {seed}");
        assert_eq!(a.claims, b.claims, "claims diverged at seed {seed}");
        assert_eq!(
            a.stats.attempted, b.stats.attempted,
            "move trajectory diverged at seed {seed}"
        );
        assert_eq!(a.stats.accepted, b.stats.accepted, "accept trace diverged at seed {seed}");
    }
}

#[test]
fn ewf_allocations_are_bit_identical_per_seed() {
    assert_identical(&salsa_cdfg::benchmarks::ewf(), 19);
}

#[test]
fn dct_allocations_are_bit_identical_per_seed() {
    assert_identical(&salsa_cdfg::benchmarks::dct(), 10);
}

fn quick_config() -> ImproveConfig {
    ImproveConfig {
        max_trials: 3,
        moves_per_trial: Some(600),
        move_set: MoveSet::full(),
        ..ImproveConfig::default()
    }
}

/// The pre-portfolio sequential multi-seed loop, reconstructed from the
/// public search primitives: clone one initial allocation per seed,
/// improve, polish, keep the first lowest-cost result.
fn sequential_reference(graph: &Cdfg, steps: usize, seed: u64, restarts: usize) -> (u64, Rtl, Claims) {
    let library = FuLibrary::standard();
    let schedule = fds_schedule(graph, &library, steps).unwrap();
    let config = quick_config();
    let datapath = Datapath::new(
        &schedule.fu_demand(graph, &library),
        schedule.register_demand(graph, &library).max(1),
    );
    let ctx = AllocContext::new(graph, &schedule, &library, datapath).unwrap();
    let initial = initial_allocation(&ctx);
    let mut best: Option<(u64, Rtl, Claims)> = None;
    for slot in 0..restarts {
        let mut binding = initial.clone();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(slot as u64));
        improve(&mut binding, &config, &mut rng);
        let cost = polish(&mut binding, &config.weights, &config.move_set);
        if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
            let (rtl, claims) = lower(&binding);
            best = Some((cost, rtl, claims));
        }
    }
    best.unwrap()
}

fn allocate_threads(graph: &Cdfg, steps: usize, seed: u64, threads: usize) -> AllocResult {
    let library = FuLibrary::standard();
    let schedule = fds_schedule(graph, &library, steps).unwrap();
    Allocator::new(graph, &schedule, &library)
        .seed(seed)
        .config(quick_config())
        .restarts(4)
        .threads(threads)
        .run()
        .unwrap()
}

/// `threads(1)` is not merely deterministic — it reproduces the legacy
/// sequential multi-seed loop bit-for-bit.
fn assert_matches_sequential_reference(graph: &Cdfg, steps: usize) {
    let (cost, rtl, claims) = sequential_reference(graph, steps, 5, 4);
    let result = allocate_threads(graph, steps, 5, 1);
    assert_eq!(result.cost, cost, "threads(1) diverged from the sequential loop");
    assert_eq!(result.rtl, rtl, "threads(1) rtl diverged from the sequential loop");
    assert_eq!(result.claims.placements, claims.placements, "claims diverged");
}

#[test]
fn single_thread_portfolio_is_the_sequential_loop_on_ewf() {
    assert_matches_sequential_reference(&salsa_cdfg::benchmarks::ewf(), 19);
}

#[test]
fn single_thread_portfolio_is_the_sequential_loop_on_dct() {
    assert_matches_sequential_reference(&salsa_cdfg::benchmarks::dct(), 10);
}

/// The worker count is a performance knob, never a result knob: 1, 2 and 4
/// threads must agree on the winning allocation exactly.
fn assert_thread_count_invariant(graph: &Cdfg, steps: usize) {
    let base = allocate_threads(graph, steps, 11, 1);
    for threads in [2, 4] {
        let other = allocate_threads(graph, steps, 11, threads);
        assert_eq!(base.cost, other.cost, "cost diverged at {threads} threads");
        assert_eq!(base.rtl, other.rtl, "rtl diverged at {threads} threads");
        assert_eq!(
            base.claims.placements, other.claims.placements,
            "claims diverged at {threads} threads"
        );
        assert_eq!(base.breakdown, other.breakdown, "breakdown diverged at {threads} threads");
    }
}

#[test]
fn thread_count_does_not_change_the_winner_on_ewf() {
    assert_thread_count_invariant(&salsa_cdfg::benchmarks::ewf(), 19);
}

#[test]
fn thread_count_does_not_change_the_winner_on_dct() {
    assert_thread_count_invariant(&salsa_cdfg::benchmarks::dct(), 10);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 60, ..ProptestConfig::default() })]

    /// Across random designs and seeds, the portfolio returns the identical
    /// final cost and winning allocation at 1, 2 and 4 worker threads
    /// (DESIGN.md §7).
    #[test]
    fn portfolio_winner_is_thread_count_independent(
        graph_seed in 0u64..400,
        ops in 6usize..16,
        seed in 0u64..1000,
    ) {
        let cfg = RandomCdfgConfig { ops, states: 1, ..RandomCdfgConfig::default() };
        let graph = random_cdfg(&cfg, graph_seed);
        let library = FuLibrary::standard();
        let cp = asap(&graph, &library).length;
        let schedule = fds_schedule(&graph, &library, cp + 1).expect("cp + 1 is feasible");
        let config = ImproveConfig {
            max_trials: 3,
            moves_per_trial: Some(150),
            move_set: MoveSet::full(),
            ..ImproveConfig::default()
        };
        let run = |threads: usize| {
            Allocator::new(&graph, &schedule, &library)
                .seed(seed)
                .config(config.clone())
                .restarts(3)
                .threads(threads)
                .run()
                .unwrap()
        };
        let one = run(1);
        for threads in [2usize, 4] {
            let multi = run(threads);
            prop_assert_eq!(one.cost, multi.cost, "cost diverged at {} threads", threads);
            prop_assert_eq!(&one.rtl, &multi.rtl, "rtl diverged at {} threads", threads);
            prop_assert_eq!(
                &one.claims.placements, &multi.claims.placements,
                "claims diverged at {} threads", threads
            );
        }
    }
}

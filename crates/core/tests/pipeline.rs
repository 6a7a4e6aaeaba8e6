//! End-to-end pipeline tests: constructive allocation, iterative
//! improvement with the full SALSA move set, lowering and verification on
//! every benchmark CDFG.

use rand::rngs::StdRng;
use rand::SeedableRng;

use salsa_alloc::{
    improve, initial_allocation, lower, AllocContext, Allocator, ImproveConfig, MoveSet,
};
use salsa_cdfg::benchmarks;
use salsa_datapath::{verify, Datapath};
use salsa_sched::{fds_schedule, FuLibrary, Schedule};

fn quick_config() -> ImproveConfig {
    ImproveConfig {
        max_trials: 4,
        moves_per_trial: Some(600),
        ..ImproveConfig::default()
    }
}

fn pool_for(
    graph: &salsa_cdfg::Cdfg,
    schedule: &Schedule,
    library: &FuLibrary,
    extra_regs: usize,
) -> Datapath {
    Datapath::new(
        &schedule.fu_demand(graph, library),
        schedule.register_demand(graph, library) + extra_regs,
    )
}

#[test]
fn initial_allocation_is_consistent_and_verifiable_everywhere() {
    for graph in benchmarks::all() {
        for library in [FuLibrary::standard(), FuLibrary::pipelined()] {
            let cp = salsa_sched::asap(&graph, &library).length;
            for slack in [0, 2] {
                let schedule = fds_schedule(&graph, &library, cp + slack).unwrap();
                let ctx = AllocContext::new(
                    &graph,
                    &schedule,
                    &library,
                    pool_for(&graph, &schedule, &library, 0),
                )
                .unwrap();
                let binding = initial_allocation(&ctx);
                binding.check_consistency();
                let (rtl, claims) = lower(&binding);
                verify(&graph, &schedule, &library, &ctx.datapath, &rtl, &claims)
                    .unwrap_or_else(|e| {
                        panic!("{} (+{slack} steps): initial allocation invalid: {e}", graph.name())
                    });
            }
        }
    }
}

#[test]
fn improvement_reduces_cost_and_stays_verifiable() {
    let graph = benchmarks::ewf();
    let library = FuLibrary::standard();
    let schedule = fds_schedule(&graph, &library, 19).unwrap();
    let ctx = AllocContext::new(
        &graph,
        &schedule,
        &library,
        pool_for(&graph, &schedule, &library, 1),
    )
    .unwrap();
    let mut binding = initial_allocation(&ctx);
    let mut rng = StdRng::seed_from_u64(3);
    let stats = improve(&mut binding, &quick_config(), &mut rng);
    assert!(
        stats.final_cost <= stats.initial_cost,
        "improvement must never worsen the best allocation"
    );
    assert!(stats.applied > 0, "some moves must apply");
    binding.check_consistency();
    let (rtl, claims) = lower(&binding);
    verify(&graph, &schedule, &library, &ctx.datapath, &rtl, &claims)
        .expect("improved allocation verifies");
}

#[test]
fn allocator_runs_every_benchmark() {
    for graph in benchmarks::all() {
        let library = FuLibrary::standard();
        let cp = salsa_sched::asap(&graph, &library).length;
        let schedule = fds_schedule(&graph, &library, cp + 1).unwrap();
        let result = Allocator::new(&graph, &schedule, &library)
            .seed(11)
            .config(quick_config())
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", graph.name()));
        assert!(result.verified());
        assert!(
            result.merged.post_merge <= result.merged.pre_merge,
            "{}: merging must not increase mux count",
            graph.name()
        );
        assert!(result.breakdown.mux_equiv > 0, "{}: nontrivial interconnect", graph.name());
    }
}

#[test]
fn allocator_is_deterministic_per_seed() {
    let graph = benchmarks::diffeq();
    let library = FuLibrary::standard();
    let schedule = fds_schedule(&graph, &library, 8).unwrap();
    let run = |seed| {
        Allocator::new(&graph, &schedule, &library)
            .seed(seed)
            .config(quick_config())
            .run()
            .unwrap()
    };
    let (a, b) = (run(5), run(5));
    assert_eq!(a.cost, b.cost);
    assert_eq!(a.rtl, b.rtl);
    assert_eq!(a.claims.placements, b.claims.placements);
}

#[test]
fn extra_registers_are_usable() {
    let graph = benchmarks::ewf();
    let library = FuLibrary::standard();
    let schedule = fds_schedule(&graph, &library, 17).unwrap();
    let base = schedule.register_demand(&graph, &library);
    let result = Allocator::new(&graph, &schedule, &library)
        .extra_registers(2)
        .seed(1)
        .config(quick_config())
        .run()
        .unwrap();
    assert_eq!(result.datapath.num_regs(), base + 2);
    assert!(result.breakdown.used_regs <= base + 2);
}

#[test]
fn salsa_move_set_beats_or_matches_traditional_on_ewf() {
    // The paper's core claim, in miniature: with identical schedule,
    // datapath and search effort, the extended binding model finds an
    // allocation with at most as many equivalent 2-1 multiplexers as the
    // traditional model — usually fewer.
    let graph = benchmarks::ewf();
    let library = FuLibrary::standard();
    let schedule = fds_schedule(&graph, &library, 17).unwrap();
    let run = |move_set: MoveSet| {
        let config = ImproveConfig {
            max_trials: 6,
            moves_per_trial: Some(1500),
            move_set,
            ..ImproveConfig::default()
        };
        Allocator::new(&graph, &schedule, &library)
            .seed(42)
            .config(config)
            .restarts(2)
            .run()
            .unwrap()
    };
    let salsa = run(MoveSet::full());
    let traditional = run(MoveSet::traditional());
    assert!(
        salsa.merged_mux_count() <= traditional.merged_mux_count(),
        "SALSA {} muxes > traditional {} muxes",
        salsa.merged_mux_count(),
        traditional.merged_mux_count()
    );
}

#[test]
fn restarts_never_hurt() {
    let graph = benchmarks::ar_lattice();
    let library = FuLibrary::standard();
    let cp = salsa_sched::asap(&graph, &library).length;
    let schedule = fds_schedule(&graph, &library, cp + 2).unwrap();
    let one = Allocator::new(&graph, &schedule, &library)
        .seed(9)
        .config(quick_config())
        .run()
        .unwrap();
    let three = Allocator::new(&graph, &schedule, &library)
        .seed(9)
        .config(quick_config())
        .restarts(3)
        .run()
        .unwrap();
    assert!(three.cost <= one.cost);
}

#[test]
fn chain_pool_recycles_on_a_sustained_move_stream() {
    // The arena-lite chain pool's claim: on a long move stream, chain
    // register buffers come out of the binding's free list, not the
    // allocator. The DCT design has enough values (and therefore enough
    // copy/segment churn) that reuse dominates within a few hundred moves.
    let graph = benchmarks::dct();
    let library = FuLibrary::standard();
    let schedule = fds_schedule(&graph, &library, 10).unwrap();
    let ctx = AllocContext::new(
        &graph,
        &schedule,
        &library,
        pool_for(&graph, &schedule, &library, 1),
    )
    .unwrap();
    let mut binding = initial_allocation(&ctx);
    let mut rng = StdRng::seed_from_u64(7);
    let set = MoveSet::full();
    let weights = salsa_datapath::CostWeights::default();
    let mut current = weights.evaluate(&binding.breakdown());
    for _ in 0..5_000 {
        let kind = set.pick(&mut rng);
        binding.begin();
        if !salsa_alloc::moves::try_move(&mut binding, kind, &mut rng) {
            binding.rollback();
            continue;
        }
        let after = weights.evaluate(&binding.breakdown());
        if after <= current {
            current = after;
            binding.commit();
        } else {
            binding.rollback();
        }
    }
    binding.check_consistency();
    let (reused, fresh) = binding.chain_pool_stats();
    assert!(reused > 0, "the stream must exercise chain buffers at all");
    assert!(
        reused > fresh,
        "pool must satisfy most chain-buffer requests (reused {reused} vs fresh {fresh})"
    );
}


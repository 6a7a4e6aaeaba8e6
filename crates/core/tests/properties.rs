//! Property-based tests: for arbitrary CDFGs, schedules and random move
//! sequences, the binding's incremental state stays exactly consistent
//! with a from-scratch rebuild, and every reachable allocation lowers to a
//! datapath that passes end-to-end verification.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use salsa_alloc::{
    improve, initial_allocation, lower, moves, polish_segment_candidate, AllocContext, Allocator,
    Binding, BindingParts, ImproveConfig, MoveSet, Proposal,
};
use salsa_cdfg::{random_cdfg, RandomCdfgConfig};
use salsa_datapath::{verify, Datapath};
use salsa_sched::{asap, fds_schedule, FuClass, FuLibrary};

fn build_case(
    graph_seed: u64,
    ops: usize,
    states: usize,
    slack: usize,
    extra_regs: usize,
    pipelined: bool,
) -> (salsa_cdfg::Cdfg, salsa_sched::Schedule, FuLibrary, usize) {
    let cfg = RandomCdfgConfig { ops, states, ..RandomCdfgConfig::default() };
    let graph = random_cdfg(&cfg, graph_seed);
    let library = if pipelined { FuLibrary::pipelined() } else { FuLibrary::standard() };
    let cp = asap(&graph, &library).length;
    let schedule = fds_schedule(&graph, &library, cp + slack).expect("cp + slack is feasible");
    (graph, schedule, library, extra_regs)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random move sequences preserve full incremental-state consistency
    /// and end in a verifiable datapath.
    #[test]
    fn random_move_sequences_stay_consistent(
        graph_seed in 0u64..500,
        move_seed in 0u64..500,
        ops in 8usize..24,
        states in 0usize..4,
        slack in 0usize..3,
        extra_regs in 0usize..3,
        pipelined in any::<bool>(),
    ) {
        let (graph, schedule, library, extra) =
            build_case(graph_seed, ops, states, slack, extra_regs, pipelined);
        let datapath = Datapath::new(
            &schedule.fu_demand(&graph, &library),
            schedule.register_demand(&graph, &library) + extra,
        );
        let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
        let mut binding = initial_allocation(&ctx);
        binding.check_consistency();

        let set = MoveSet::full();
        let mut rng = StdRng::seed_from_u64(move_seed);
        let mut applied = 0;
        for i in 0..160 {
            let kind = set.pick(&mut rng);
            if moves::try_move(&mut binding, kind, &mut rng) {
                applied += 1;
            }
            if i % 20 == 19 {
                binding.check_consistency();
            }
        }
        binding.check_consistency();
        prop_assert!(applied > 0, "some moves should be feasible");

        let (rtl, claims) = lower(&binding);
        verify(&graph, &schedule, &library, &ctx.datapath, &rtl, &claims)
            .map_err(|e| TestCaseError::fail(format!("verify failed after moves: {e}")))?;
    }

    /// Every reachable allocation survives the wire: serializing to
    /// [`BindingParts`] and rebuilding yields an equal binding (equality
    /// covers all derived tables, so reports downstream are identical).
    #[test]
    fn binding_parts_roundtrip_reachable_states(
        graph_seed in 0u64..500,
        move_seed in 0u64..500,
        ops in 8usize..24,
        states in 0usize..4,
        slack in 0usize..3,
        extra_regs in 0usize..3,
        pipelined in any::<bool>(),
    ) {
        let (graph, schedule, library, extra) =
            build_case(graph_seed, ops, states, slack, extra_regs, pipelined);
        let datapath = Datapath::new(
            &schedule.fu_demand(&graph, &library),
            schedule.register_demand(&graph, &library) + extra,
        );
        let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
        let mut binding = initial_allocation(&ctx);
        let set = MoveSet::full();
        let mut rng = StdRng::seed_from_u64(move_seed);
        for _ in 0..160 {
            moves::try_move(&mut binding, set.pick(&mut rng), &mut rng);
        }

        let parts = binding.to_parts();
        let rebuilt = Binding::from_parts(&ctx, &parts)
            .map_err(|e| TestCaseError::fail(format!("from_parts rejected own parts: {e}")))?;
        prop_assert!(rebuilt == binding, "rebuilt binding differs from the original");
        prop_assert_eq!(rebuilt.to_parts(), parts.clone());
        // The parts text (the shipped and warm-seed image) is exact too.
        prop_assert_eq!(BindingParts::decode(&parts.encode()), Ok(parts));

        // Corrupted images are rejected with an error, never a panic and
        // never silent acceptance: here, a unit table that no longer
        // matches the design's operation count.
        let mut corrupt = binding.to_parts();
        corrupt.op_fu.pop();
        prop_assert!(Binding::from_parts(&ctx, &corrupt).is_err());
    }

    /// The full search pipeline produces verified, never-worse allocations
    /// on arbitrary graphs.
    #[test]
    fn improvement_pipeline_on_random_graphs(
        graph_seed in 0u64..500,
        search_seed in 0u64..100,
        ops in 8usize..20,
        states in 0usize..3,
        slack in 0usize..3,
    ) {
        let (graph, schedule, library, _) =
            build_case(graph_seed, ops, states, slack, 1, false);
        let datapath = Datapath::new(
            &schedule.fu_demand(&graph, &library),
            schedule.register_demand(&graph, &library) + 1,
        );
        let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
        let mut binding = initial_allocation(&ctx);
        let config = ImproveConfig {
            max_trials: 3,
            moves_per_trial: Some(250),
            ..ImproveConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(search_seed);
        let stats = improve(&mut binding, &config, &mut rng);
        prop_assert!(stats.final_cost <= stats.initial_cost);
        binding.check_consistency();
        let (rtl, claims) = lower(&binding);
        verify(&graph, &schedule, &library, &ctx.datapath, &rtl, &claims)
            .map_err(|e| TestCaseError::fail(format!("verify failed after improve: {e}")))?;
    }
}

proptest! {
    // The rollback property runs more cases than the end-to-end pipeline
    // tests above: each case is cheap, and the journal must hold for every
    // move kind from many distinct reachable states.
    #![proptest_config(ProptestConfig { cases: 120, ..ProptestConfig::default() })]

    /// The transactional move engine's two core invariants, on arbitrary
    /// graphs: rolling back the undo journal restores the binding *exactly*
    /// (full structural equality with a pre-move clone), and the
    /// incrementally maintained cost caches match a from-scratch recompute
    /// at every point of a random committed/rolled-back walk.
    #[test]
    fn rollback_restores_premove_state(
        graph_seed in 0u64..1000,
        move_seed in 0u64..1000,
        ops in 8usize..20,
        states in 0usize..3,
        slack in 0usize..3,
        extra_regs in 0usize..3,
        pipelined in any::<bool>(),
    ) {
        let (graph, schedule, library, extra) =
            build_case(graph_seed, ops, states, slack, extra_regs, pipelined);
        let datapath = Datapath::new(
            &schedule.fu_demand(&graph, &library),
            schedule.register_demand(&graph, &library) + extra,
        );
        let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
        let mut binding = initial_allocation(&ctx);
        prop_assert_eq!(binding.breakdown(), binding.recomputed_breakdown());

        let set = MoveSet::full();
        let mut rng = StdRng::seed_from_u64(move_seed);
        for _ in 0..40 {
            // A rolled-back attempt must restore the pre-move state exactly.
            let snapshot = binding.clone();
            let kind = set.pick(&mut rng);
            binding.begin();
            if moves::try_move(&mut binding, kind, &mut rng) {
                prop_assert_eq!(binding.breakdown(), binding.recomputed_breakdown());
            }
            binding.rollback();
            prop_assert!(
                binding == snapshot,
                "rollback of {:?} diverged from the pre-move snapshot",
                kind
            );
            prop_assert_eq!(binding.breakdown(), binding.recomputed_breakdown());

            // Then advance the walk with a committed attempt, so rollback is
            // exercised from many distinct reachable states.
            let kind = set.pick(&mut rng);
            binding.begin();
            if moves::try_move(&mut binding, kind, &mut rng) {
                binding.commit();
            } else {
                binding.rollback();
            }
            prop_assert_eq!(binding.breakdown(), binding.recomputed_breakdown());
        }
        binding.check_consistency();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The polish segment kernel retracts and re-asserts only the owners
    /// whose items can reference the moved segment's register, and the
    /// sweep accepts or rejects on the cost it reads there. So from any
    /// reachable state (copies, passes, memory banks) every candidate must
    /// land on exactly the binding — connection matrix and cost breakdown
    /// included — that the full-retraction segment move reaches. An owner
    /// the kernel misses leaves a stale item and fails here.
    #[test]
    fn polish_segment_kernel_matches_the_full_segment_move(
        graph_seed in 0u64..1000,
        move_seed in 0u64..1000,
        ops in 8usize..28,
        states in 0usize..4,
        arrays in 0usize..3,
        slack in 0usize..3,
        extra_regs in 0usize..3,
    ) {
        let cfg = RandomCdfgConfig { ops, states, arrays, ..RandomCdfgConfig::default() };
        let graph = random_cdfg(&cfg, graph_seed);
        let library = FuLibrary::standard();
        let cp = asap(&graph, &library).length;
        let schedule = fds_schedule(&graph, &library, cp + slack).expect("cp + slack is feasible");
        let allocator = Allocator::new(&graph, &schedule, &library).extra_registers(extra_regs);
        let (ctx, config) = allocator.prepare().expect("the pool fits the schedule");
        let mut binding = initial_allocation(&ctx);
        let mut rng = StdRng::seed_from_u64(move_seed);
        let mut checked = 0;
        for round in 0..32 {
            // Walk on, so candidates start from states with copies and
            // passes, not just the constructive binding.
            for _ in 0..6 {
                moves::try_move(&mut binding, config.move_set.pick(&mut rng), &mut rng);
            }
            let stored: Vec<_> =
                graph.value_ids().filter(|&v| binding.primal(v).is_some()).collect();
            let Some(&value) = stored.choose(&mut rng) else { continue };
            let chains: Vec<(usize, usize, usize)> =
                binding.chains_of(value).map(|(s, c)| (s, c.lo(), c.hi())).collect();
            let &(slot, lo, hi) = chains.choose(&mut rng).expect("stored value has chains");
            let idx = rng.gen_range(lo..=hi);
            let step = ctx.lifetimes.get(value).expect("stored").steps()[idx];
            let free: Vec<_> =
                ctx.datapath.reg_ids().filter(|&r| binding.reg_free(r, step)).collect();
            let Some(&target) = free.choose(&mut rng) else { continue };

            let mut full = binding.clone();
            full.begin();
            let proposal = Proposal::SegmentMove { value, slot, idx, target };
            prop_assert!(moves::apply_proposal(&mut full, proposal));
            full.commit();
            let mut kernel = binding.clone();
            kernel.begin();
            prop_assert!(polish_segment_candidate(&mut kernel, value, slot, idx, target));
            kernel.commit();

            prop_assert_eq!(kernel.breakdown(), full.breakdown());
            prop_assert_eq!(kernel.connections(), full.connections());
            prop_assert!(kernel == full, "kernel diverged from the full move on {:?}", proposal);
            kernel.check_consistency();
            checked += 1;
            if round % 4 == 3 {
                binding = kernel;
            }
        }
        prop_assert!(checked > 0, "some segment had a free register");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// F1 applies as a label swap of two same-class units. From any
    /// reachable state (copies, passes, memory banks) the swapped binding
    /// must equal a from-scratch derivation of its own assignments, keep
    /// the cost breakdown unchanged, and roll back to the pre-move
    /// binding exactly.
    #[test]
    fn unit_exchange_is_an_exact_relabel(
        graph_seed in 0u64..1000,
        move_seed in 0u64..1000,
        ops in 8usize..28,
        states in 0usize..4,
        arrays in 0usize..3,
        slack in 0usize..3,
        extra_regs in 0usize..3,
    ) {
        let cfg = RandomCdfgConfig { ops, states, arrays, ..RandomCdfgConfig::default() };
        let graph = random_cdfg(&cfg, graph_seed);
        let library = FuLibrary::standard();
        let cp = asap(&graph, &library).length;
        let schedule = fds_schedule(&graph, &library, cp + slack).expect("cp + slack is feasible");
        let allocator = Allocator::new(&graph, &schedule, &library).extra_registers(extra_regs);
        let (ctx, config) = allocator.prepare().expect("the pool fits the schedule");
        let pairs: Vec<_> = ctx
            .datapath
            .fus()
            .flat_map(|a| ctx.datapath.fus().map(move |z| (a, z)))
            .filter(|(a, z)| a.id() != z.id() && a.class() == z.class())
            .filter(|(a, _)| a.class() != FuClass::Mem)
            .map(|(a, z)| (a.id(), z.id()))
            .collect();
        let mut binding = initial_allocation(&ctx);
        let mut rng = StdRng::seed_from_u64(move_seed);
        let mut swapped = 0;
        for _ in 0..16 {
            for _ in 0..12 {
                moves::try_move(&mut binding, config.move_set.pick(&mut rng), &mut rng);
            }
            let Some(&(a, z)) = pairs.choose(&mut rng) else { break };
            let before = binding.clone();
            let cost = binding.breakdown();
            binding.begin();
            let exchange = Proposal::FuExchange { a, z };
            if !moves::apply_proposal(&mut binding, exchange) {
                // Only a pair with nothing bound to either unit refuses.
                let idle = |fu| graph.op_ids().all(|o| before.op_fu(o) != fu)
                    && before.passes().iter().all(|(_, &f)| f != fu);
                prop_assert!(idle(a) && idle(z), "F1 {:?}<->{:?} refused with cargo", a, z);
                binding.rollback();
                prop_assert!(binding == before);
                continue;
            }
            let rebuilt = Binding::from_parts(&ctx, &binding.to_parts())
                .map_err(|e| TestCaseError::fail(format!("swapped state is invalid: {e}")))?;
            prop_assert!(rebuilt == binding, "F1 {:?}<->{:?} diverged from a rebuild", a, z);
            prop_assert_eq!(binding.breakdown(), cost);
            binding.rollback();
            prop_assert!(binding == before, "rollback of F1 {:?}<->{:?} diverged", a, z);
            // Walk on from the swapped state half of the time.
            if rng.gen_bool(0.5) {
                let exchange = Proposal::FuExchange { a, z };
                binding.begin();
                prop_assert!(moves::apply_proposal(&mut binding, exchange));
                binding.commit();
                binding.check_consistency();
            }
            swapped += 1;
        }
        prop_assert!(pairs.is_empty() || swapped > 0, "some exchange applied");
    }
}

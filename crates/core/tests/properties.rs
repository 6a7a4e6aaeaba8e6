//! Property-based tests: for arbitrary CDFGs, schedules and random move
//! sequences, the binding's incremental state stays exactly consistent
//! with a from-scratch rebuild, and every reachable allocation lowers to a
//! datapath that passes end-to-end verification.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use salsa_alloc::{
    improve, initial_allocation, lower, moves, AllocContext, Allocator,
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

/// A random R2 candidate: a live segment and a register free at its step.
fn draw_segment_move(binding: &Binding<'_>, rng: &mut StdRng) -> Option<Proposal> {
    let ctx = binding.ctx();
    let stored: Vec<_> =
        ctx.graph.value_ids().filter(|&v| binding.primal(v).is_some()).collect();
    let &value = stored.choose(rng)?;
    let chains: Vec<(usize, usize, usize)> =
        binding.chains_of(value).map(|(s, c)| (s, c.lo(), c.hi())).collect();
    let &(slot, lo, hi) = chains.choose(rng).expect("stored value has chains");
    let idx = rng.gen_range(lo..=hi);
    let step = ctx.lifetimes.get(value).expect("stored").steps()[idx];
    let free: Vec<_> = ctx.datapath.reg_ids().filter(|&r| binding.reg_free(r, step)).collect();
    let &target = free.choose(rng)?;
    Some(Proposal::SegmentMove { value, slot, idx, target })
}

/// A random R1 candidate: two registers occupied at one step.
fn draw_segment_exchange(binding: &Binding<'_>, rng: &mut StdRng) -> Option<Proposal> {
    let ctx = binding.ctx();
    let step = rng.gen_range(0..ctx.n_steps());
    let occupied: Vec<_> = ctx
        .datapath
        .reg_ids()
        .filter_map(|r| binding.reg_occupant(r, step).map(|o| (r, o)))
        .collect();
    if occupied.len() < 2 {
        return None;
    }
    let i = rng.gen_range(0..occupied.len());
    let j = (i + rng.gen_range(1..occupied.len())) % occupied.len();
    let ((r1, (v1, s1)), (r2, (v2, s2))) = (occupied[i], occupied[j]);
    Some(Proposal::SegmentExchange { step, v1, s1, r1, v2, s2, r2 })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// R1 and R2 retract and re-assert only the owners whose items can
    /// reference a moved segment's register (R1 the union over its two
    /// segments), and drop stale passes on those owners' transfer keys
    /// only. From any reachable state (copies, passes, memory banks) each
    /// applied move must equal a from-scratch derivation of its own
    /// assignments, keep the cost caches exact, and roll back to the
    /// pre-move binding exactly. An owner the kernel misses leaves a stale
    /// item in the matrix, and a pass it fails to drop is left bound to a
    /// transfer that no longer exists; either fails here. An R1 of a
    /// segment with itself must be refused.
    #[test]
    fn segment_moves_match_a_rebuild(
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
        let mut applied = [0usize; 2];
        for _ in 0..32 {
            // Walk on, so moves start from states with copies and passes,
            // not just the constructive binding.
            for _ in 0..6 {
                moves::try_move(&mut binding, config.move_set.pick(&mut rng), &mut rng);
            }
            let draws: [fn(&Binding<'_>, &mut StdRng) -> Option<Proposal>; 2] =
                [draw_segment_move, draw_segment_exchange];
            for (draw, applied) in draws.into_iter().zip(&mut applied) {
                let Some(proposal) = draw(&binding, &mut rng) else { continue };
                let before = binding.clone();
                if let Proposal::SegmentExchange { step, v1, s1, r1, .. } = proposal {
                    // A segment exchanged with itself, as a decoded trace
                    // step can carry, is refused and changes nothing.
                    let itself =
                        Proposal::SegmentExchange { step, v1, s1, r1, v2: v1, s2: s1, r2: r1 };
                    binding.begin();
                    let refused = !moves::apply_proposal(&mut binding, itself);
                    prop_assert!(refused, "{:?} applied", itself);
                    binding.rollback();
                    prop_assert!(binding == before, "refused {:?} changed the binding", itself);
                }
                binding.begin();
                prop_assert!(moves::apply_proposal(&mut binding, proposal));
                let rebuilt = Binding::from_parts(&ctx, &binding.to_parts()).map_err(|e| {
                    TestCaseError::fail(format!("{proposal:?} left an invalid state: {e}"))
                })?;
                prop_assert!(rebuilt == binding, "{:?} diverged from a rebuild", proposal);
                prop_assert_eq!(binding.breakdown(), binding.recomputed_breakdown());
                binding.rollback();
                prop_assert!(binding == before, "rollback of {:?} diverged", proposal);
                // Walk on from the moved state half of the time.
                if rng.gen_bool(0.5) {
                    binding.begin();
                    prop_assert!(moves::apply_proposal(&mut binding, proposal));
                    binding.commit();
                    binding.check_consistency();
                }
                *applied += 1;
            }
        }
        prop_assert!(applied[0] > 0, "some segment had a free register");
        prop_assert!(applied[1] > 0, "some step held two segments");
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

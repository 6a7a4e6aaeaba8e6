//! The memory-binding subsystem's acceptance contract: bank violations
//! are rejected by the symbolic verifier, the M move family strictly
//! improves on frozen bank assignment for both memory benchmarks, and
//! the determinism contract (a run is a pure function of its seed,
//! sequential and portfolio) holds on memory graphs exactly as it does on
//! scalar ones.

use salsa_alloc::{Allocator, BindingParts, ImproveConfig, ImproveStats, MoveSet};
use salsa_cdfg::{benchmarks, Cdfg};
use salsa_datapath::VerifyError;
use salsa_sched::{fds_schedule, FuLibrary};

fn mem_config() -> ImproveConfig {
    ImproveConfig { max_trials: 4, moves_per_trial: Some(800), ..ImproveConfig::default() }
}

fn allocate(graph: &Cdfg, mem_moves: bool) -> (u64, BindingParts) {
    let library = FuLibrary::standard();
    let cp = salsa_sched::asap(graph, &library).length;
    let schedule = fds_schedule(graph, &library, cp + 1).unwrap();
    let result = Allocator::new(graph, &schedule, &library)
        .seed(7)
        .restarts(2)
        .threads(1)
        .config(mem_config())
        .mem_moves(mem_moves)
        .run()
        .unwrap();
    (result.cost, result.winner)
}

#[test]
fn bank_violating_claims_are_rejected_by_the_verifier() {
    // A certified memory result carries the array→bank table in its
    // claims; the verifier must refuse any tampering with it — an
    // access issued on a port outside its array's claimed bank, a bank
    // index beyond the pool, or a truncated table.
    let graph = benchmarks::matmul();
    let library = FuLibrary::standard();
    let cp = salsa_sched::asap(&graph, &library).length;
    let schedule = fds_schedule(&graph, &library, cp + 1).unwrap();
    let result = Allocator::new(&graph, &schedule, &library)
        .seed(7)
        .config(mem_config())
        .run()
        .unwrap();
    assert!(result.datapath.num_banks() >= 2, "mm2's default pool is banked per array");
    let check = |claims: &salsa_datapath::Claims| {
        salsa_datapath::verify(&graph, &schedule, &library, &result.datapath, &result.rtl, claims)
    };
    check(&result.claims).expect("the allocator's own result verifies");

    // Re-claiming an array in a different bank strands its accesses on
    // out-of-bank ports: the port-limit/bank discipline must catch it.
    let mut wrong_bank = result.claims.clone();
    wrong_bank.array_banks[0] = (wrong_bank.array_banks[0] + 1) % result.datapath.num_banks() as u32;
    assert!(
        matches!(check(&wrong_bank), Err(VerifyError::BankMismatch { .. })),
        "an access outside its array's claimed bank must be refused"
    );

    // A bank index beyond the pool and a truncated table are malformed
    // claims, not panics.
    let mut out_of_range = result.claims.clone();
    out_of_range.array_banks[0] = result.datapath.num_banks() as u32;
    assert!(check(&out_of_range).is_err());
    let mut truncated = result.claims.clone();
    truncated.array_banks.pop();
    assert!(check(&truncated).is_err());
}

#[test]
fn memory_moves_strictly_beat_frozen_bank_assignment() {
    // The M-off ablation freezes memory port assignment at the initial
    // greedy placement (F1/F2 never touch Mem-class units). With the M
    // family on, the same budget must end strictly cheaper on both
    // memory benchmarks — the paper-style "extended model wins" claim,
    // transplanted to memory binding.
    for graph in [benchmarks::fir_array(), benchmarks::matmul()] {
        let (off, _) = allocate(&graph, false);
        let (on, _) = allocate(&graph, true);
        assert!(
            on < off,
            "{}: M-on must strictly beat M-off (on={on} off={off})",
            graph.name()
        );
    }
}

#[test]
fn memory_search_determinism_contract() {
    // The portfolio is a pure function of the seed, whatever the thread
    // count: four restarts on one thread and on two land on the same
    // winner with the same statistics — at a quick budget one step above
    // the critical path, and at exactly what `salsa-hls bench fir8a|mm2
    // --seed 7` runs (the ASAP-length schedule and the default search
    // budget). The winners themselves, sequential and as the 2-thread
    // portfolio, are pinned by `tests/golden/proposals.txt`.
    let library = FuLibrary::standard();
    for graph in [benchmarks::fir_array(), benchmarks::matmul()] {
        let cp = salsa_sched::asap(&graph, &library).length;
        for (steps, config) in [(cp + 1, mem_config()), (cp, ImproveConfig::default())] {
            let schedule = fds_schedule(&graph, &library, steps).unwrap();
            let winner = |threads: usize| {
                let result = Allocator::new(&graph, &schedule, &library)
                    .seed(7)
                    .restarts(4)
                    .threads(threads)
                    .config(config.clone())
                    .run()
                    .expect("allocation succeeds");
                let stats = ImproveStats { elapsed_nanos: 0, ..result.stats };
                (result.cost, result.winner, stats)
            };
            assert_eq!(
                winner(1),
                winner(2),
                "{} at {steps} steps: the thread count changed the winner",
                graph.name()
            );
        }
    }
}

#[test]
fn scalar_trajectories_are_untouched_by_the_memory_subsystem() {
    // A scalar design must allocate bit-identically whether or not the
    // M upgrade is requested: the upgrade is conditional on the graph
    // declaring arrays, and the move set stays the historical 11 kinds.
    let graph = benchmarks::ewf();
    let with_mem = allocate(&graph, true);
    let without = allocate(&graph, false);
    assert_eq!(with_mem, without);
    for (kind, _) in salsa_alloc::MoveKind::all() {
        assert_eq!(MoveSet::full().contains(kind), !kind.is_memory());
        assert!(MoveSet::with_memory().contains(kind));
    }
}

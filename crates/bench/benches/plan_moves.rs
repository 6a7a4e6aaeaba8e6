//! Per-move-kind propose/apply cost under the compiled move plan. The
//! plan's allocation claim (steady-state proposes make no heap
//! allocation) is a tier-1 test: `crates/core/tests/propose_allocations.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use salsa_alloc::{initial_allocation, moves, AllocContext, Binding, MoveKind, MoveSet};
use salsa_cdfg::benchmarks::ewf;
use salsa_datapath::{CostWeights, Datapath};
use salsa_sched::{fds_schedule, FuLibrary};

/// Runs the engine's accept loop for `n` moves — the cheapest way to put
/// a binding (and its scratch buffers) into a realistic mid-search state.
fn warm_up(binding: &mut Binding<'_>, rng: &mut StdRng, set: &MoveSet, n: usize) {
    let weights = CostWeights::default();
    let mut current = weights.evaluate(&binding.breakdown());
    for _ in 0..n {
        let kind = set.pick(rng);
        binding.begin();
        if !moves::try_move(binding, kind, rng) {
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
}

fn bench_plan_moves(c: &mut Criterion) {
    let library = FuLibrary::standard();
    let graph = ewf();
    let schedule = fds_schedule(&graph, &library, 19).unwrap();
    let pool = Datapath::new(
        &schedule.fu_demand(&graph, &library),
        schedule.register_demand(&graph, &library) + 1,
    );
    let ctx = AllocContext::new(&graph, &schedule, &library, pool).unwrap();
    let set = MoveSet::full();

    // One warmed-up mid-search binding shared (by clone) across all the
    // per-kind benches, so every kind is measured against the same state.
    let mut warmed = initial_allocation(&ctx);
    let mut warm_rng = StdRng::seed_from_u64(7);
    warm_up(&mut warmed, &mut warm_rng, &set, 2_000);

    for (kind, label) in MoveKind::all() {
        // Propose only: enumerate candidates, rank, draw — then discard.
        // The binding never changes, so one clone serves every iteration.
        let mut binding = warmed.clone();
        let mut rng = StdRng::seed_from_u64(11);
        c.bench_function(&format!("plan_moves/propose_{label}_ewf19"), |b| {
            b.iter(|| moves::propose(&mut binding, kind, &mut rng))
        });

        // Propose + apply + rollback: the full per-attempt cycle the
        // search pays for a rejected move. Rolling back returns the
        // binding to the warmed state, so the measurement is stationary.
        let mut binding = warmed.clone();
        let mut rng = StdRng::seed_from_u64(11);
        c.bench_function(&format!("plan_moves/apply_{label}_ewf19"), |b| {
            b.iter(|| {
                binding.begin();
                let applied = moves::try_move(&mut binding, kind, &mut rng);
                binding.rollback();
                applied
            })
        });
    }

    c.bench_function("plan_moves/propose_mixed_ewf19", |b| {
        let mut binding = warmed.clone();
        let mut rng = StdRng::seed_from_u64(29);
        b.iter(|| {
            let kind = set.pick(&mut rng);
            moves::propose(&mut binding, kind, &mut rng)
        })
    });
}

criterion_group!(benches, bench_plan_moves);
criterion_main!(benches);

//! Move-application throughput: the paper's iterative improvement hinges
//! on cheap move evaluation ("costs are recalculated after every move",
//! §4).
//!
//! The two `accept_loop` benches run the *same* seeded move stream with
//! the same accept rule under the two mutation protocols the engine has
//! supported: the undo-journal transactions the search uses now
//! (`begin`/`commit`/`rollback`) and the snapshot protocol it replaced
//! (clone the whole binding before every move, assign it back on reject).
//! Their ratio is the per-move speedup of the transactional engine.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use salsa_alloc::{initial_allocation, moves, AllocContext, Binding, MoveSet};
use salsa_cdfg::benchmarks::{dct, ewf};
use salsa_cdfg::Cdfg;
use salsa_datapath::{CostWeights, Datapath};
use salsa_sched::{fds_schedule, FuLibrary, Schedule};

const MOVES_PER_ITER: usize = 100;

/// The engine's current inner loop: open a transaction per move, roll the
/// journal back on infeasible/rejected moves, commit on accept.
fn journal_loop<'a>(mut binding: Binding<'a>, mut rng: StdRng, set: &MoveSet) -> Binding<'a> {
    let weights = CostWeights::default();
    let mut current = weights.evaluate(&binding.breakdown());
    for _ in 0..MOVES_PER_ITER {
        let kind = set.pick(&mut rng);
        binding.begin();
        if !moves::try_move(&mut binding, kind, &mut rng) {
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
    binding
}

/// The protocol the transactional engine replaced: clone the entire
/// binding before every attempt, assign the snapshot back to undo, and
/// recompute the cost breakdown from scratch after each applied move (the
/// incremental cost caches arrived with the transactional engine). Same
/// seed, same move stream, same accept rule as [`journal_loop`].
fn snapshot_loop<'a>(mut binding: Binding<'a>, mut rng: StdRng, set: &MoveSet) -> Binding<'a> {
    let weights = CostWeights::default();
    let mut current = weights.evaluate(&binding.recomputed_breakdown());
    for _ in 0..MOVES_PER_ITER {
        let kind = set.pick(&mut rng);
        let snapshot = binding.clone();
        if !moves::try_move(&mut binding, kind, &mut rng) {
            binding = snapshot;
            continue;
        }
        let after = weights.evaluate(&binding.recomputed_breakdown());
        if after <= current {
            current = after;
        } else {
            binding = snapshot;
        }
    }
    binding
}

fn schedule_for(graph: &Cdfg, library: &FuLibrary, steps: usize) -> Schedule {
    fds_schedule(graph, library, steps).unwrap()
}

fn bench_moves(c: &mut Criterion) {
    let library = FuLibrary::standard();
    let graph = ewf();
    let schedule = schedule_for(&graph, &library, 19);
    let pool = Datapath::new(
        &schedule.fu_demand(&graph, &library),
        schedule.register_demand(&graph, &library) + 1,
    );
    let ctx = AllocContext::new(&graph, &schedule, &library, pool).unwrap();
    let base = initial_allocation(&ctx);
    let set = MoveSet::full();

    c.bench_function("moves/100_random_on_ewf19", |b| {
        b.iter_batched(
            || (base.clone(), StdRng::seed_from_u64(7)),
            |(mut binding, mut rng)| {
                for _ in 0..MOVES_PER_ITER {
                    let kind = set.pick(&mut rng);
                    moves::try_move(&mut binding, kind, &mut rng);
                }
                binding
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("moves/accept_loop_journal_ewf19", |b| {
        b.iter_batched(
            || (base.clone(), StdRng::seed_from_u64(7)),
            |(binding, rng)| journal_loop(binding, rng, &set),
            BatchSize::SmallInput,
        )
    });

    c.bench_function("moves/accept_loop_snapshot_ewf19", |b| {
        b.iter_batched(
            || (base.clone(), StdRng::seed_from_u64(7)),
            |(binding, rng)| snapshot_loop(binding, rng, &set),
            BatchSize::SmallInput,
        )
    });

    c.bench_function("moves/snapshot_clone_ewf19", |b| b.iter(|| base.clone()));

    c.bench_function("moves/cost_breakdown_ewf19", |b| b.iter(|| base.breakdown()));

    // The same protocol comparison on the larger DCT design, where the
    // whole-binding snapshot is proportionally more expensive than the
    // handful of cells one move touches.
    let dct_graph = dct();
    let dct_schedule = schedule_for(&dct_graph, &library, 10);
    let dct_pool = Datapath::new(
        &dct_schedule.fu_demand(&dct_graph, &library),
        dct_schedule.register_demand(&dct_graph, &library) + 1,
    );
    let dct_ctx = AllocContext::new(&dct_graph, &dct_schedule, &library, dct_pool).unwrap();
    let dct_base = initial_allocation(&dct_ctx);

    c.bench_function("moves/accept_loop_journal_dct10", |b| {
        b.iter_batched(
            || (dct_base.clone(), StdRng::seed_from_u64(7)),
            |(binding, rng)| journal_loop(binding, rng, &set),
            BatchSize::SmallInput,
        )
    });

    c.bench_function("moves/accept_loop_snapshot_dct10", |b| {
        b.iter_batched(
            || (dct_base.clone(), StdRng::seed_from_u64(7)),
            |(binding, rng)| snapshot_loop(binding, rng, &set),
            BatchSize::SmallInput,
        )
    });

    c.bench_function("moves/snapshot_clone_dct10", |b| b.iter(|| dct_base.clone()));
}

criterion_group!(benches, bench_moves);
criterion_main!(benches);

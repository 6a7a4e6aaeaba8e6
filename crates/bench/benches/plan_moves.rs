//! Per-move-kind propose/apply cost under the compiled move plan, plus
//! the allocation profile the plan promises: once the scratch buffers
//! have warmed up, *proposing* a move — candidate enumeration, ranking,
//! every RNG draw — performs no heap allocation at all.
//!
//! The counting allocator lives here rather than in `salsa-alloc`
//! because the core crate forbids unsafe code; wrapping the global
//! allocator is the one place the zero-allocation claim can be verified
//! from outside without instrumenting every call site.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use salsa_alloc::{initial_allocation, moves, AllocContext, Binding, MoveKind, MoveSet};
use salsa_cdfg::benchmarks::ewf;
use salsa_datapath::{CostWeights, Datapath};
use salsa_sched::{fds_schedule, FuLibrary};

/// Counts every allocation and reallocation that reaches the system
/// allocator. Frees are not counted: the claim under test is that the
/// steady-state propose path requests no memory, and a free without a
/// matching alloc inside the window cannot occur anyway.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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

    // The allocation claim, enforced rather than timed. Proposing never
    // mutates the binding, so replaying the measured stream once first
    // walks the scratch buffers (and the ranked moves' transient journal)
    // through exactly the capacities the measured pass will need — after
    // that warm-up replay, the identical stream must not touch the
    // allocator at all.
    let mut binding = warmed.clone();
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..10_000 {
        let kind = set.pick(&mut rng);
        moves::propose(&mut binding, kind, &mut rng);
    }
    let mut rng = StdRng::seed_from_u64(23);
    ALLOCATIONS.store(0, Ordering::SeqCst);
    for _ in 0..10_000 {
        let kind = set.pick(&mut rng);
        moves::propose(&mut binding, kind, &mut rng);
    }
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);
    eprintln!(
        "plan_moves/alloc_profile_ewf19: 10000 steady-state proposes made {allocations} \
         allocations"
    );
    assert_eq!(
        allocations, 0,
        "the propose path allocated {allocations} times in 10000 steady-state draws; it \
         must be allocation-free"
    );

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

//! The allocation profile the search loop relies on: once the scratch
//! buffers have warmed up, *proposing* a move — candidate enumeration,
//! R2's and F4's rankings, every RNG draw — and *previewing* its cost
//! perform no heap allocation at all, and restoring a best binding with
//! `clone_from` reuses every buffer.
//!
//! The counting allocator needs `unsafe`, which the library crate
//! forbids, so the claim is checked from this separate test binary. It
//! counts per thread, so the test harness's own threads cannot disturb
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;

use salsa_alloc::{initial_allocation, moves, Allocator, Binding, MoveKind, MoveSet};
use salsa_cdfg::benchmarks::{ewf, fir_array};
use salsa_cdfg::Cdfg;
use salsa_datapath::CostWeights;
use salsa_sched::{asap, fds_schedule, FuLibrary};

/// Counts every allocation and reallocation the current thread requests.
/// Frees are not counted: the claim is that the steady-state propose path
/// requests no memory.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` because the allocator also serves thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the counter
// is a const-initialised thread-local cell, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
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

/// Draws `DRAWS` proposals from a warmed mid-search binding of `graph`,
/// scheduled `slack` steps past its critical path, previewing each one,
/// and returns how many allocations a replay of the identical stream made,
/// how many of the replayed draws were R2 proposals and how many
/// proposals the replay previewed.
fn steady_state_allocations(graph: &Cdfg, slack: usize) -> (u64, usize, usize) {
    const DRAWS: usize = 10_000;
    let library = FuLibrary::standard();
    let steps = asap(graph, &library).length + slack;
    let schedule = fds_schedule(graph, &library, steps).unwrap();
    let allocator = Allocator::new(graph, &schedule, &library).extra_registers(1);
    let (ctx, config) = allocator.prepare().unwrap();
    let set = &config.move_set;
    let mut binding = initial_allocation(&ctx);
    warm_up(&mut binding, &mut StdRng::seed_from_u64(7), set, 2_000);

    // Neither proposing nor previewing mutates the binding, so one pass of
    // the stream walks the scratch buffers through exactly the capacities
    // the replay needs.
    let weights = CostWeights::default();
    let current = weights.evaluate(&binding.breakdown());
    let draw = |binding: &mut Binding<'_>, rng: &mut StdRng| {
        let kind = set.pick(rng);
        match moves::propose(binding, kind, rng) {
            Some(proposal) => {
                let previewed = moves::preview(binding, proposal, &weights, current).is_some();
                (kind == MoveKind::SegmentMove, previewed)
            }
            None => (false, false),
        }
    };
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..DRAWS {
        draw(&mut binding, &mut rng);
    }
    let mut rng = StdRng::seed_from_u64(23);
    let before = ALLOCATIONS.with(Cell::get);
    let (mut r2, mut previews) = (0, 0);
    for _ in 0..DRAWS {
        let (is_r2, previewed) = draw(&mut binding, &mut rng);
        r2 += usize::from(is_r2);
        previews += usize::from(previewed);
    }
    (ALLOCATIONS.with(Cell::get) - before, r2, previews)
}

#[test]
fn steady_state_proposes_do_not_allocate() {
    // EWF (at 19 steps) draws F1–R6; the array FIR adds M1–M3.
    for (graph, slack) in [(ewf(), 2), (fir_array(), 1)] {
        let (allocations, r2, previews) = steady_state_allocations(&graph, slack);
        assert!(r2 > 500, "{}: only {r2} R2 proposals drawn", graph.name());
        assert!(previews > 2_000, "{}: only {previews} proposals previewed", graph.name());
        assert_eq!(
            allocations,
            0,
            "{}: 10000 steady-state proposes and their previews allocated {allocations} \
             times; the propose and preview paths must be allocation-free",
            graph.name()
        );
    }
}

/// Restoring a best binding — `clone_from` between two bindings of one
/// design in different mid-search states — reuses every buffer of the
/// destination once it has held both states.
#[test]
fn steady_state_clone_from_does_not_allocate() {
    let graph = ewf();
    let library = FuLibrary::standard();
    let schedule = fds_schedule(&graph, &library, 19).unwrap();
    let allocator = Allocator::new(&graph, &schedule, &library).extra_registers(1);
    let (ctx, config) = allocator.prepare().unwrap();
    let set = &config.move_set;
    let mut a = initial_allocation(&ctx);
    warm_up(&mut a, &mut StdRng::seed_from_u64(7), set, 2_000);
    let mut b = initial_allocation(&ctx);
    warm_up(&mut b, &mut StdRng::seed_from_u64(8), set, 2_000);
    assert!(a != b, "the two warm-ups reach different states");

    let mut dest = a.clone();
    dest.clone_from(&b);
    dest.clone_from(&a);
    let before = ALLOCATIONS.with(Cell::get);
    for i in 0..10 {
        dest.clone_from(if i % 2 == 0 { &b } else { &a });
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(dest == a, "the last restore copies `a`");
    assert_eq!(allocations, 0, "10 steady-state clone_from calls allocated {allocations} times");
}

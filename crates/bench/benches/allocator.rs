//! End-to-end allocation benchmarks (the paper reports 8-10 CPU minutes
//! per EWF allocation on a Sun Sparcstation 1; these measure the same
//! full pipeline on modern hardware).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use salsa_alloc::{
    improve, initial_allocation, polish, AllocContext, Allocator, ImproveConfig, MoveSet,
};
use salsa_cdfg::benchmarks::{diffeq, ewf, paper_example};
use salsa_cdfg::{random_cdfg, RandomCdfgConfig};
use salsa_datapath::Datapath;
use salsa_sched::{asap, fds_schedule, FuLibrary};

fn quick(move_set: MoveSet) -> ImproveConfig {
    ImproveConfig {
        max_trials: 3,
        moves_per_trial: Some(400),
        move_set,
        ..ImproveConfig::default()
    }
}

fn bench_allocator(c: &mut Criterion) {
    let library = FuLibrary::standard();

    // Constructive initial allocation alone.
    let ewf_graph = ewf();
    let ewf_schedule = fds_schedule(&ewf_graph, &library, 17).unwrap();
    let pool = Datapath::new(
        &ewf_schedule.fu_demand(&ewf_graph, &library),
        ewf_schedule.register_demand(&ewf_graph, &library),
    );
    let ctx = AllocContext::new(&ewf_graph, &ewf_schedule, &library, pool).unwrap();
    c.bench_function("initial_allocation/ewf17", |b| {
        b.iter(|| initial_allocation(black_box(&ctx)))
    });

    // Full pipeline on the small designs.
    let mut group = c.benchmark_group("allocate");
    group.sample_size(10);
    let example = paper_example();
    let example_schedule = fds_schedule(&example, &library, 4).unwrap();
    group.bench_function("paper_example/salsa", |b| {
        b.iter(|| {
            Allocator::new(&example, &example_schedule, &library)
                .seed(1)
                .config(quick(MoveSet::full()))
                .run()
                .unwrap()
        })
    });
    let deq = diffeq();
    let deq_schedule = fds_schedule(&deq, &library, 8).unwrap();
    group.bench_function("diffeq/salsa", |b| {
        b.iter(|| {
            Allocator::new(&deq, &deq_schedule, &library)
                .seed(1)
                .config(quick(MoveSet::full()))
                .run()
                .unwrap()
        })
    });
    group.bench_function("diffeq/traditional", |b| {
        b.iter(|| {
            Allocator::new(&deq, &deq_schedule, &library)
                .seed(1)
                .config(quick(MoveSet::traditional()))
                .run()
                .unwrap()
        })
    });
    group.finish();

    // The portfolio on the same restart set, sequentially and spread over
    // worker threads: the wall-clock ratio is the realized multi-thread
    // speedup of the parallel portfolio (hardware-dependent; on a
    // single-core box the two are expected to tie).
    let mut group = c.benchmark_group("portfolio");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_function(&format!("ewf17_4_chains/{threads}_threads"), |b| {
            b.iter(|| {
                Allocator::new(&ewf_graph, &ewf_schedule, &library)
                    .seed(7)
                    .config(quick(MoveSet::full()))
                    .restarts(4)
                    .threads(threads)
                    .run()
                    .unwrap()
            })
        });
    }
    group.finish();

    // Polish alone, from a fixed post-search binding (one trial of 400
    // moves, the short search of perfbench's large-random workload),
    // cloned per iteration.
    let mut group = c.benchmark_group("polish");
    group.sample_size(20);
    let random100 = random_cdfg(
        &RandomCdfgConfig { ops: 100, inputs: 4, states: 4, ..RandomCdfgConfig::default() },
        7919,
    );
    let random100_steps = asap(&random100, &library).length + 2;
    for (name, graph, steps) in
        [("random100", &random100, random100_steps), ("ewf19", &ewf_graph, 19)]
    {
        let schedule = fds_schedule(graph, &library, steps).unwrap();
        let allocator = Allocator::new(graph, &schedule, &library).config(ImproveConfig {
            max_trials: 1,
            moves_per_trial: Some(400),
            ..ImproveConfig::default()
        });
        let (ctx, config) = allocator.prepare().unwrap();
        let mut searched = initial_allocation(&ctx);
        improve(&mut searched, &config, &mut StdRng::seed_from_u64(7));
        group.bench_function(name, |b| {
            b.iter_batched(
                || searched.clone(),
                |mut binding| polish(&mut binding, &config.weights, &config.move_set),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_allocator);
criterion_main!(benches);

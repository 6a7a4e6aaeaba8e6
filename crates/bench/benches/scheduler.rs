//! Scheduling benchmarks: ASAP, force-directed, and list scheduling on the
//! paper's designs, plus force-directed scheduling of two seeded random
//! designs with slack, where the demand descent dominates.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;

use salsa_cdfg::benchmarks::{dct, ewf};
use salsa_cdfg::{random_cdfg, Cdfg, RandomCdfgConfig};
use salsa_sched::{asap, fds_schedule, list_schedule, FuClass, FuLibrary};

/// A seeded random design like the `large-random` perfbench workload's.
fn random_design(ops: usize, arrays: usize) -> Cdfg {
    let config = RandomCdfgConfig {
        ops,
        inputs: 4,
        states: 4,
        arrays,
        mem_ratio: 0.15,
        ..RandomCdfgConfig::default()
    };
    random_cdfg(&config, 7919)
}

fn bench_scheduler(c: &mut Criterion) {
    let library = FuLibrary::standard();
    let ewf_graph = ewf();
    let dct_graph = dct();
    let random100 = random_design(100, 0);
    let random60_2arr = random_design(60, 2);

    c.bench_function("asap/ewf", |b| {
        b.iter(|| asap(black_box(&ewf_graph), black_box(&library)))
    });

    let mut group = c.benchmark_group("fds");
    group.sample_size(20);
    group.bench_function("ewf/17", |b| {
        b.iter(|| fds_schedule(black_box(&ewf_graph), &library, 17).unwrap())
    });
    group.bench_function("ewf/21", |b| {
        b.iter(|| fds_schedule(black_box(&ewf_graph), &library, 21).unwrap())
    });
    group.bench_function("dct/8", |b| {
        b.iter(|| fds_schedule(black_box(&dct_graph), &library, 8).unwrap())
    });
    group.bench_function("dct/10", |b| {
        b.iter(|| fds_schedule(black_box(&dct_graph), &library, 10).unwrap())
    });
    for (name, graph) in [("random100", &random100), ("random60_2arr", &random60_2arr)] {
        let steps = asap(graph, &library).length + 2;
        group.bench_function(name, |b| {
            b.iter(|| fds_schedule(black_box(graph), &library, steps).unwrap())
        });
    }
    group.finish();

    let limits = BTreeMap::from([(FuClass::Alu, 2), (FuClass::Mul, 2)]);
    c.bench_function("list/ewf", |b| {
        b.iter(|| list_schedule(black_box(&ewf_graph), &library, &limits).unwrap())
    });
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);

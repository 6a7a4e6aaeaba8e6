//! End-to-end cluster tests over real sockets: the bit-exact contract
//! (a cluster of any size reproduces the local sequential portfolio in
//! canonical report form), fault injection (a worker killed mid-job or
//! stalled past its lease never changes the final bytes), cross-process
//! bound gossip (cutoff preserves winner identity), and the service
//! backend seam.
//!
//! Canonical form zeroes exactly the wall-clock report fields
//! (`search.elapsed_ms`, `search.moves_per_sec`, `portfolio.speedup`);
//! everything else must match byte for byte.

use std::net::SocketAddr;
use std::thread::JoinHandle;

use proptest::prelude::*;
use salsa_cdfg::benchmarks::paper_example;
use salsa_cdfg::{random_cdfg, Cdfg, RandomCdfgConfig};
use salsa_cluster::{run_worker, ClusterBackend, ClusterConfig, Coordinator, FaultPlan, WorkerConfig};
use salsa_serve::{canonicalize_report, run_allocation, Json, Knobs};

/// The local reference: the sequential portfolio (`threads = 1`), which
/// the PR 2 contract pins to the plain restart loop.
fn local_canonical(graph: &Cdfg, knobs: &Knobs) -> String {
    let sequential = Knobs { threads: Some(1), ..knobs.clone() };
    let mut report = run_allocation(graph, &sequential, None).expect("local allocation");
    canonicalize_report(&mut report);
    report.to_string_compact()
}

fn spawn_worker(addr: SocketAddr, name: &str, fault: FaultPlan) -> JoinHandle<()> {
    let config = WorkerConfig {
        fault,
        poll_ms: 5,
        heartbeat_ms: 40,
        max_reconnects: 3,
        ..WorkerConfig::new(addr.to_string(), name)
    };
    std::thread::spawn(move || {
        let _ = run_worker(config);
    })
}

/// Runs one job on a fresh coordinator with one worker per fault entry,
/// shuts the fleet down, and returns the canonical report bytes.
fn cluster_canonical(
    graph: &Cdfg,
    knobs: &Knobs,
    config: ClusterConfig,
    faults: &[FaultPlan],
) -> String {
    let mut report = cluster_report(graph, knobs, config, faults);
    canonicalize_report(&mut report);
    report.to_string_compact()
}

fn cluster_report(graph: &Cdfg, knobs: &Knobs, config: ClusterConfig, faults: &[FaultPlan]) -> Json {
    let coordinator = Coordinator::bind("127.0.0.1:0", config).expect("bind coordinator");
    let addr = coordinator.local_addr();
    let workers: Vec<JoinHandle<()>> = faults
        .iter()
        .enumerate()
        .map(|(i, fault)| spawn_worker(addr, &format!("w{i}"), *fault))
        .collect();
    let report = coordinator.allocate(graph, knobs, None).expect("cluster allocation");
    coordinator.shutdown();
    for worker in workers {
        let _ = worker.join();
    }
    report
}

#[test]
fn one_worker_cluster_reproduces_local_portfolio_bytes() {
    // The memory designs with `mem_moves: false` pin that every knob
    // reaches the fleet: the M-off ablation must freeze bank assignment
    // on a worker exactly as it does locally.
    let no_mem_moves = Knobs { restarts: 2, mem_moves: false, ..Knobs::default() };
    for (graph, knobs) in [
        (paper_example(), Knobs { restarts: 4, ..Knobs::default() }),
        (salsa_cdfg::benchmarks::fir_array(), no_mem_moves.clone()),
        (salsa_cdfg::benchmarks::matmul(), no_mem_moves),
    ] {
        let local = local_canonical(&graph, &knobs);
        let cluster =
            cluster_canonical(&graph, &knobs, ClusterConfig::default(), &[FaultPlan::None]);
        assert_eq!(
            cluster,
            local,
            "{}: 1-worker cluster must be byte-identical to the local portfolio",
            graph.name()
        );
    }
}

#[test]
fn two_workers_and_multi_chain_shards_do_not_change_the_bytes() {
    let graph = paper_example();
    let knobs = Knobs { restarts: 5, seed: 7, extra_regs: 1, ..Knobs::default() };
    let local = local_canonical(&graph, &knobs);
    let config = ClusterConfig { shard_chains: 2, ..ClusterConfig::default() };
    let cluster =
        cluster_canonical(&graph, &knobs, config, &[FaultPlan::None, FaultPlan::None]);
    assert_eq!(cluster, local, "worker count and shard size must be invisible in the report");
}

#[test]
fn worker_killed_mid_job_is_invisible_in_the_report() {
    let graph = paper_example();
    let knobs = Knobs { restarts: 6, seed: 3, ..Knobs::default() };
    let local = local_canonical(&graph, &knobs);
    // One of three workers drops its connection after finishing a single
    // chain, without ever reporting it. Its lease must expire and the
    // shard must be re-run by a survivor.
    let config = ClusterConfig { lease_ms: 200, ..ClusterConfig::default() };
    let faults = [FaultPlan::ExitAfterChains(1), FaultPlan::None, FaultPlan::None];
    let cluster = cluster_canonical(&graph, &knobs, config, &faults);
    assert_eq!(cluster, local, "a killed worker must not change the final report");
}

#[test]
fn stalled_worker_is_reassigned_and_its_late_result_deduped() {
    let graph = paper_example();
    let knobs = Knobs { restarts: 6, seed: 11, ..Knobs::default() };
    let local = local_canonical(&graph, &knobs);
    // One worker goes silent (no heartbeats) for far longer than the
    // lease after finishing its first shard, then reports late. The
    // shard is reassigned meanwhile; first-write-wins drops whichever
    // result arrives second — byte-identical either way, by determinism.
    let config = ClusterConfig { lease_ms: 150, ..ClusterConfig::default() };
    let faults = [
        FaultPlan::StallAfterChains { chains: 1, stall_ms: 600 },
        FaultPlan::None,
        FaultPlan::None,
    ];
    let cluster = cluster_canonical(&graph, &knobs, config, &faults);
    assert_eq!(cluster, local, "a stalled worker must not change the final report");
}

#[test]
fn cutoff_gossip_preserves_winner_identity() {
    let graph = paper_example();
    let knobs = Knobs { restarts: 6, seed: 5, ..Knobs::default() };
    // Reference run without pruning: full determinism.
    let reference = cluster_report(
        &graph,
        &knobs,
        ClusterConfig::default(),
        &[FaultPlan::None],
    );
    // Same job with the cross-process cutoff enabled on two workers:
    // chains may be abandoned, but bound dominance guarantees the
    // winning chain always completes, so cost and winner slot survive.
    let config = ClusterConfig { cutoff: Some(1.05), ..ClusterConfig::default() };
    let pruned = cluster_report(&graph, &knobs, config, &[FaultPlan::None, FaultPlan::None]);
    let cost = |r: &Json| r.get("cost").and_then(Json::as_u64).expect("cost");
    let winner = |r: &Json| {
        r.get("portfolio")
            .and_then(|p| p.get("winner_slot"))
            .and_then(Json::as_u64)
            .expect("winner_slot")
    };
    assert_eq!(cost(&pruned), cost(&reference), "cutoff must not change the winning cost");
    assert_eq!(winner(&pruned), winner(&reference), "cutoff must not change the winning slot");
    assert_eq!(
        pruned.get("verified").and_then(Json::as_bool),
        Some(true),
        "pruned run still verifies"
    );
}

#[test]
fn cluster_backend_plugs_into_the_service() {
    use std::sync::Arc;

    use salsa_serve::{parse_json, Server, ServerConfig};
    use salsa_wire::{Connection, Protocol};

    let coordinator =
        Arc::new(Coordinator::bind("127.0.0.1:0", ClusterConfig::default()).expect("bind"));
    let worker = spawn_worker(coordinator.local_addr(), "w0", FaultPlan::None);
    let server = Server::bind_with_backend(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::new(ClusterBackend::new(Arc::clone(&coordinator))),
    )
    .expect("bind server");

    let mut conn = Connection::connect(&server.local_addr().to_string(), Protocol::Binary)
        .expect("connect");
    let request =
        parse_json(r#"{"cmd":"allocate","bench":"paper_example","restarts":2,"timeout_ms":60000}"#)
            .unwrap();
    let mut served = conn.call(&request).expect("round trip");
    assert_eq!(served.get("status").and_then(Json::as_str), Some("ok"), "{served}");

    let graph = paper_example();
    let knobs = Knobs { restarts: 2, ..Knobs::default() };
    canonicalize_report(&mut served);
    let report = served.get("report").expect("report").to_string_compact();
    assert_eq!(report, local_canonical(&graph, &knobs));

    server.shutdown();
    coordinator.begin_shutdown();
    let _ = worker.join();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The bit-exact contract holds over random DFGs, not just the paper
    /// example: a 1-worker cluster reproduces the local sequential
    /// portfolio byte for byte.
    #[test]
    fn random_graphs_are_byte_identical_through_the_cluster(
        graph_seed in 0u64..200,
        ops in 8usize..16,
        states in 0usize..3,
        job_seed in 0u64..1000,
    ) {
        let cfg = RandomCdfgConfig { ops, states, ..RandomCdfgConfig::default() };
        let graph = random_cdfg(&cfg, graph_seed);
        let knobs = Knobs { restarts: 2, seed: job_seed, ..Knobs::default() };
        let local = local_canonical(&graph, &knobs);
        let cluster =
            cluster_canonical(&graph, &knobs, ClusterConfig::default(), &[FaultPlan::None]);
        prop_assert_eq!(cluster, local);
    }
}

/// A binding image is keyed by value indices, and a programmatically
/// built graph may number its values differently than its canonical
/// text form (the ewf benchmark does). Both sides of the protocol must
/// therefore derive their search context from the canonical wire text —
/// this pins the invariant that makes an image from one fleet member
/// meaningful to another: an image built against one wire-derived
/// context, sent through the worker's and coordinator's own codec
/// helpers, rebuilds bit-for-bit in an independently wire-derived one.
/// A codec that broke here would silently demote every cluster job to
/// seed replay while the byte-diff tests kept passing.
#[test]
fn binding_images_survive_the_canonical_text_boundary() {
    use salsa_cluster::plan::plan_job;
    use salsa_cluster::protocol::{image_from_json, image_to_json};

    for (graph, steps, seed) in [
        (salsa_cdfg::benchmarks::ewf(), 19usize, 7u64),
        (salsa_cdfg::benchmarks::dct(), 10, 42),
        (paper_example(), 4, 3),
        // Memory design: the bank table crosses the wire too.
        (salsa_cdfg::benchmarks::fir_array(), 8, 7),
    ] {
        let knobs = Knobs { steps: Some(steps), seed, restarts: 1, ..Knobs::default() };
        let text = graph.canonical_text();
        let wire_graph = salsa_cdfg::parse_cdfg(&text).expect("canonical text parses");

        // Sender: run a chain on a wire-derived context and image its
        // best binding, exactly as a worker does.
        let plan_a = plan_job(&wire_graph, &knobs).unwrap();
        let alloc_a = plan_a.allocator(&wire_graph, None);
        let (ctx_a, config_a) = alloc_a.prepare().unwrap();
        let (chain, binding) =
            salsa_alloc::replay_slot(&ctx_a, &config_a, knobs.seed, 0).unwrap();
        let parts = binding.to_parts();
        assert_eq!(parts.array_banks.len(), wire_graph.num_arrays());
        let wire = image_to_json(0, &parts).to_string_compact();

        // Receiver: an independent context derived the same way, as the
        // coordinator's finalize builds it, and the image decoded the
        // way the coordinator decodes it.
        let received = salsa_serve::parse_json(&wire).expect("result message parses");
        let (slot, image) = image_from_json(&received).expect("image fields present");
        assert_eq!(slot, 0);
        let decoded = salsa_alloc::BindingParts::decode(image).expect("image decodes");
        assert_eq!(decoded, parts);
        let receiver_graph = salsa_cdfg::parse_cdfg(&text).expect("canonical text parses");
        let plan_b = plan_job(&receiver_graph, &knobs).unwrap();
        let alloc_b = plan_b.allocator(&receiver_graph, None);
        let (ctx_b, config_b) = alloc_b.prepare().unwrap();
        let rebuilt = salsa_alloc::Binding::from_parts(&ctx_b, &decoded)
            .expect("image rebuilds across the wire boundary");
        assert_eq!(
            config_b.weights.evaluate(&rebuilt.breakdown()),
            chain.cost.expect("chain completed"),
            "rebuilt binding must reproduce the reported cost"
        );
    }
}

//! Load generator for the allocation service: drives a fixed request mix
//! against `salsa-serve` over real sockets with several concurrent
//! clients, measures throughput and latency percentiles, and appends the
//! results to the `history` array of `BENCH_alloc.json` (schema in
//! EXPERIMENTS.md).
//!
//! Each client holds **one** connection for its whole share of the run
//! and keeps up to `--pipeline` requests in flight on it, paired to
//! responses by correlation id.
//!
//! By default an in-process server is spun up on a loopback port so the
//! run is self-contained; pass `--addr HOST:PORT` to aim at an external
//! `salsa-hls serve` instead (the external server's stats are still read
//! over the wire).
//!
//! The mix deliberately repeats (benchmark, knobs) pairs so the
//! content-addressed cache sees real hits — the measured throughput is
//! the *service's*, cache included, which is the number an operator cares
//! about.
//!
//! `--verify-mix F` sends a fraction `F` of the requests with a
//! `verify` knob (`--verify-mode`, default `sample` — the mode built for
//! exactly this always-on-under-load role; `full` is audit-grade),
//! exercising the verifier lane under load. The run then measures
//! **two** passes against fresh in-process servers — a baseline with
//! verification off, then the mixed pass — and records both throughputs
//! plus the verifier-lane latency percentiles in a `loadgen-verify` row,
//! quantifying what certificates cost the allocation path.
//!
//! `--warm-mix` measures the warm-start path instead: a base EWF job
//! seeds the service's similarity index, a one-op variant is resubmitted
//! through the `reallocate` verb (warm), and the same variant runs cold
//! against a fresh server. Both jobs carry `verify: full`, so the warm
//! result's certificate is checked, and the row records how many trials
//! the warm search needed to reach its best against the cold job's whole
//! trial budget — the ISSUE 9 acceptance ratio (< 0.25).
//!
//! `--mem-mix` swaps the request mix for the memory benchmarks (fir8a,
//! mm2) and records the ISSUE 10 acceptance row: the mixed pass's
//! throughput/latency plus, for each memory benchmark, the certified
//! (`verify: full`) cost with the M move family on against the
//! `mem_moves: false` ablation (banks frozen at the initial round-robin
//! binding) — M-on must be strictly cheaper on both.
//!
//! Usage: `cargo run -p salsa-bench --bin loadgen --release --
//! [--quick] [--clients N] [--requests N] [--pipeline N]
//! [--verify-mix F]
//! [--verify-mode sample|full] [--repeats N] [--warm-mix] [--mem-mix]
//! [--addr HOST:PORT] [--pr LABEL] [--no-write]`

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use salsa_bench::jsonstore::{
    existing_benchmark_rows, history_entry, prior_history, render_bench_file, same_label_rows,
    BENCH_FILE,
};
use salsa_serve::stats::percentile_ms;
use salsa_serve::{Json, Server, ServerConfig};
use salsa_wire::{Backoff, Connection, Protocol, WireCounts};

/// A request mix: the (bench, seed, restarts) tuples cycled across all
/// requests, plus the unique-tuple id of each entry (repeats share an id
/// so a verified tuple is verified *everywhere* it occurs, and become
/// cache hits after their first completion).
#[derive(Clone, Copy)]
struct Mix {
    entries: &'static [(&'static str, u64, u64)],
    tuples: &'static [usize],
}

/// The default scalar mix; `hal`/`fir` exercise the alias path.
const SCALAR_MIX: Mix = Mix {
    entries: &[
        ("ewf", 1, 2),
        ("dct", 1, 1),
        ("hal", 2, 2),
        ("ewf", 1, 2), // repeat → cache hit
        ("fir", 3, 1),
        ("dct", 1, 1), // repeat → cache hit
    ],
    tuples: &[0, 1, 2, 0, 3, 1],
};

/// The `--mem-mix` mix: memory benchmarks dominate (with repeats for
/// cache hits), one scalar job keeps the cache-key namespaces honest —
/// a memory row must never alias a scalar one.
const MEM_MIX: Mix = Mix {
    entries: &[
        ("fir8a", 7, 2),
        ("mm2", 7, 1),
        ("ewf", 1, 2),
        ("fir8a", 7, 2), // repeat → cache hit
        ("mm2", 7, 1),   // repeat → cache hit
        ("fir8a", 11, 1),
    ],
    tuples: &[0, 1, 2, 0, 1, 3],
};

struct ClientOutcome {
    ok: usize,
    errors: usize,
    retries: usize,
    latencies_us: Vec<u64>,
    /// Completion instants of *unverified* requests, as offsets from the
    /// pass epoch. The verifier-lane overhead metric is the throughput of
    /// these: requests that did not ask for a certificate must not slow
    /// down because others did.
    unverified_finish_us: Vec<u64>,
    counts: WireCounts,
}

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Which requests of a pass carry a `verify` knob, and which mode.
///
/// Selection is per unique job tuple, not per request index: operators
/// certify *job classes* (a design and knobs they will sign off on), so
/// every occurrence of a selected tuple asks for the same certificate —
/// and identical certified jobs dedupe through the result cache, exactly
/// as mixed production traffic would.
#[derive(Clone, Copy)]
struct VerifySpec {
    /// Verified share of the mix's unique job tuples, in permille.
    permille: usize,
    /// The `verify` value the selected requests carry.
    mode: &'static str,
    /// Whether selected requests actually carry the knob. A baseline
    /// pass uses `send: false` with the mixed pass's permille: requests
    /// are *classified* identically (so the two passes' unverified
    /// shares cover the same request indices and their throughputs
    /// compare like with like) but none ask for a certificate.
    send: bool,
}

impl VerifySpec {
    const OFF: VerifySpec = VerifySpec { permille: 0, mode: "off", send: false };

    /// The classification-only twin of this spec, for baseline passes.
    fn baseline_of(self) -> VerifySpec {
        VerifySpec { send: false, ..self }
    }

    /// Whether request `i` of the sequence is verified: the Bresenham
    /// spread of `permille`/1000 over the mix's unique tuples, so the
    /// verified share is deterministic and exact to one tuple.
    fn selected(&self, mix: Mix, i: usize) -> bool {
        let tuple = mix.tuples[i % mix.tuples.len()];
        ((tuple + 1) * self.permille) / 1000 > (tuple * self.permille) / 1000
    }
}

fn request_json(mix: Mix, mix_index: usize, verify: VerifySpec) -> Json {
    let (bench, seed, restarts) = mix.entries[mix_index % mix.entries.len()];
    let mut fields = vec![
        ("cmd", Json::Str("allocate".into())),
        ("bench", Json::Str(bench.into())),
        ("seed", Json::Int(seed as i64)),
        ("restarts", Json::Int(restarts as i64)),
        ("threads", Json::Int(1)),
        ("timeout_ms", Json::Int(120_000)),
    ];
    if verify.send && verify.selected(mix, mix_index) {
        fields.push(("verify", Json::Str(verify.mode.into())));
    }
    Json::obj(fields)
}

/// The shape of one pass's load: how many clients share how many
/// requests, and each client's in-flight window.
#[derive(Clone, Copy)]
struct Load {
    clients: usize,
    requests: usize,
    pipeline: usize,
}

/// One client: its share of the request sequence over a single reused
/// connection, keeping up to `load.pipeline` requests in flight and
/// retrying backpressure rejections after the server's hint.
fn client(
    addr: &str,
    load: Load,
    client_id: usize,
    mix: Mix,
    verify: VerifySpec,
    epoch: Instant,
) -> ClientOutcome {
    let Load { clients, requests: total, pipeline } = load;
    let mut conn = connect(addr);
    let mut outcome = ClientOutcome {
        ok: 0,
        errors: 0,
        retries: 0,
        latencies_us: Vec::new(),
        unverified_finish_us: Vec::new(),
        counts: WireCounts::default(),
    };
    // Jittered exponential backoff for backpressure, seeded per client so
    // runs are reproducible but clients never retry in lockstep. The
    // server's `retry_after_ms` hint stays a floor: never come back early.
    let mut backoff = Backoff::new(
        0x10ad_6e4e ^ client_id as u64,
        std::time::Duration::from_millis(10),
        std::time::Duration::from_secs(2),
    );
    let mut todo: VecDeque<usize> = (client_id..total).step_by(clients).collect();
    // Correlation id → (mix index, first-send time). Latency spans the
    // whole request lifetime including backpressure retries, as before.
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
    while !todo.is_empty() || !in_flight.is_empty() {
        while in_flight.len() < pipeline.max(1) {
            let Some(request_no) = todo.pop_front() else { break };
            let started = Instant::now();
            let id = conn.send(&request_json(mix, request_no, verify)).expect("send");
            in_flight.insert(id, (request_no, started));
        }
        let (id, response) = conn.recv_any().expect("receive");
        let (request_no, started) = in_flight.remove(&id).expect("known correlation id");
        match response.get("status").and_then(Json::as_str) {
            Some("rejected") => {
                outcome.retries += 1;
                let hint = response.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(100);
                let delay = backoff.next_delay().max(std::time::Duration::from_millis(hint));
                // Sleeping stalls this client's whole window, which is
                // the point: backpressure means the server is saturated.
                std::thread::sleep(delay);
                let id = conn.send(&request_json(mix, request_no, verify)).expect("resend");
                in_flight.insert(id, (request_no, started));
            }
            Some("ok") => {
                outcome.ok += 1;
                backoff.reset();
                outcome
                    .latencies_us
                    .push(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                if !verify.selected(mix, request_no) {
                    outcome
                        .unverified_finish_us
                        .push(epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                }
            }
            _ => {
                outcome.errors += 1;
                outcome
                    .latencies_us
                    .push(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
            }
        }
    }
    outcome.counts = conn.counts();
    outcome
}

fn connect(addr: &str) -> Connection {
    Connection::connect(addr, Protocol::Binary).expect("connect")
}

fn server_stats(addr: &str) -> Json {
    let mut conn = connect(addr);
    let reply = conn
        .call(&Json::obj(vec![("cmd", Json::Str("stats".into()))]))
        .expect("stats");
    reply.get("stats").expect("stats body").clone()
}

fn stat(stats: &Json, path: &[&str]) -> u64 {
    node_at(stats, path).as_u64().unwrap_or(0)
}

fn statf(stats: &Json, path: &[&str]) -> f64 {
    node_at(stats, path).as_f64().unwrap_or(0.0)
}

fn node_at<'a>(stats: &'a Json, path: &[&str]) -> &'a Json {
    let mut node = stats;
    for key in path {
        node = node.get(key).unwrap_or(&Json::Null);
    }
    node
}

/// Everything one measured pass produces: client-side aggregates plus
/// the server's own stats snapshot taken right after the last response.
struct Pass {
    ok: usize,
    errors: usize,
    retries: usize,
    wall_secs: f64,
    throughput: f64,
    /// Throughput of the unverified share alone: count over the time to
    /// its own last completion. For a pass with verification off this is
    /// the overall throughput; for a mixed pass it isolates what the
    /// verifier lane cost the allocation path.
    unverified_throughput: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    wire: WireCounts,
    stats: Json,
}

/// Drives the full request sequence against `addr` and gathers the
/// pass's metrics. The server (when in-process) is managed by the
/// caller, so back-to-back passes can run against fresh caches.
///
/// With `warm`, one request per mix entry is issued (with this pass's
/// own verify spec) before the clock starts: cold allocations and
/// first-time certificates are one-off costs a service pays once per
/// job class, so the timed portion measures the steady state — where
/// the verifier lane's per-request cost is whatever the verdict cache
/// leaves. The server's stats still cover the warm-up, so the cold
/// certificate cost stays visible in the verify latency percentiles.
fn run_pass(addr: &str, load: Load, mix: Mix, verify: VerifySpec, warm: bool) -> Pass {
    if warm {
        let mut conn = connect(addr);
        for i in 0..mix.entries.len() {
            loop {
                let reply = conn.call(&request_json(mix, i, verify)).expect("warmup request");
                match reply.get("status").and_then(Json::as_str) {
                    Some("rejected") => std::thread::sleep(std::time::Duration::from_millis(
                        reply.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(50),
                    )),
                    _ => break,
                }
            }
        }
    }
    let started = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..load.clients)
            .map(|id| scope.spawn(move || client(addr, load, id, mix, verify, started)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
    });
    let wall_secs = started.elapsed().as_secs_f64();
    let stats = server_stats(addr);

    let ok: usize = outcomes.iter().map(|o| o.ok).sum();
    let errors: usize = outcomes.iter().map(|o| o.errors).sum();
    let retries: usize = outcomes.iter().map(|o| o.retries).sum();
    let mut wire = WireCounts::default();
    for outcome in &outcomes {
        wire.absorb(&outcome.counts);
    }
    let mut latencies: Vec<u64> =
        outcomes.iter().flat_map(|o| o.latencies_us.iter().copied()).collect();
    latencies.sort_unstable();
    let unverified: Vec<u64> =
        outcomes.iter().flat_map(|o| o.unverified_finish_us.iter().copied()).collect();
    let unverified_throughput = match unverified.iter().max() {
        Some(&last) if last > 0 => unverified.len() as f64 / (last as f64 / 1e6),
        _ => ok as f64 / wall_secs.max(1e-9),
    };
    Pass {
        ok,
        errors,
        retries,
        wall_secs,
        throughput: ok as f64 / wall_secs.max(1e-9),
        unverified_throughput,
        p50: percentile_ms(&latencies, 50.0),
        p95: percentile_ms(&latencies, 95.0),
        p99: percentile_ms(&latencies, 99.0),
        wire,
        stats,
    }
}

fn in_process_server() -> (Server, String) {
    let config = ServerConfig { workers: 2, queue_capacity: 8, ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn main() {
    let quick = has_flag("--quick");
    let clients: usize = flag_value("--clients")
        .map(|v| v.parse().expect("--clients takes a number"))
        .unwrap_or(if quick { 3 } else { 4 })
        .max(1);
    let requests: usize = flag_value("--requests")
        .map(|v| v.parse().expect("--requests takes a number"))
        .unwrap_or(if quick { 12 } else { 36 })
        .max(clients);
    // Default depth 1: this mix repeats (bench, knobs) pairs, and
    // pipelining duplicates-in-flight defeats the content-addressed
    // cache (every copy of a request misses until the first completes).
    // Deeper windows are for cache-cold mixes and the CI pipelining
    // smoke; the win for this mix comes from connection reuse + nodelay.
    let pipeline: usize = flag_value("--pipeline")
        .map(|v| v.parse().expect("--pipeline takes a number"))
        .unwrap_or(1)
        .max(1);
    let load = Load { clients, requests, pipeline };
    let verify_permille: usize = flag_value("--verify-mix")
        .map(|v| {
            let f: f64 = v.parse().expect("--verify-mix takes a fraction in 0..=1");
            assert!((0.0..=1.0).contains(&f), "--verify-mix takes a fraction in 0..=1");
            (f * 1000.0).round() as usize
        })
        .unwrap_or(0);
    let verify_mode: &'static str = match flag_value("--verify-mode").as_deref() {
        None | Some("sample") => "sample",
        Some("full") => "full",
        Some(other) => panic!("--verify-mode takes sample or full, not '{other}'"),
    };
    let pr = flag_value("--pr").unwrap_or_else(|| "PR3-loadgen".to_string());

    if has_flag("--warm-mix") {
        assert!(
            flag_value("--addr").is_none(),
            "--warm-mix compares against a cold fresh server and needs the \
             in-process one; drop --addr"
        );
        let warm_pr = flag_value("--pr").unwrap_or_else(|| "PR9-warmstart".to_string());
        run_warm_comparison(&warm_pr);
        return;
    }

    if has_flag("--mem-mix") {
        assert!(
            flag_value("--addr").is_none(),
            "--mem-mix certifies the M-move ablation against fresh in-process \
             servers; drop --addr"
        );
        let mem_pr = flag_value("--pr").unwrap_or_else(|| "PR10-memory".to_string());
        run_mem_comparison(load, &mem_pr);
        return;
    }

    if verify_permille > 0 {
        assert!(
            flag_value("--addr").is_none(),
            "--verify-mix measures a baseline pass against a fresh server and \
             needs the in-process one; drop --addr"
        );
        let verify = VerifySpec { permille: verify_permille, mode: verify_mode, send: true };
        run_verify_comparison(load, verify, &pr);
        return;
    }

    let mix = SCALAR_MIX;
    // In-process server unless aimed at an external one. A small queue
    // relative to the client count keeps backpressure observable.
    let (server, addr) = match flag_value("--addr") {
        Some(addr) => (None, addr),
        None => {
            let (server, addr) = in_process_server();
            (Some(server), addr)
        }
    };

    let pass = run_pass(&addr, load, mix, VerifySpec::OFF, false);
    if let Some(server) = server {
        server.shutdown();
    }

    let cache_hits = stat(&pass.stats, &["cache", "hits"]);
    let cache_misses = stat(&pass.stats, &["cache", "misses"]);
    let completed = stat(&pass.stats, &["completed"]);
    let rejected = stat(&pass.stats, &["rejected"]);
    let (ok, errors, retries) = (pass.ok, pass.errors, pass.retries);
    let wall_secs = pass.wall_secs;
    let throughput = pass.throughput;
    let (p50, p95, p99) = (pass.p50, pass.p95, pass.p99);
    let wire = pass.wire;
    let messages = wire.frames_in + wire.frames_out;
    let bytes_per_message = if messages == 0 {
        0.0
    } else {
        (wire.bytes_in + wire.bytes_out) as f64 / messages as f64
    };
    let messages_per_sec = messages as f64 / wall_secs.max(1e-9);

    assert_eq!(ok + errors, requests, "every request must resolve");
    assert_eq!(errors, 0, "the fixed mix contains no failing requests");

    println!(
        "loadgen: {requests} requests, {clients} clients, pipeline {pipeline} -> \
         {ok} ok, {errors} errors, {retries} backpressure retries in {wall_secs:.2}s \
         ({throughput:.1} req/s)"
    );
    println!(
        "         server: {completed} jobs completed, {rejected} rejected, cache {cache_hits} \
         hits / {cache_misses} misses"
    );
    println!(
        "         wire: {} B in, {} B out, {messages} messages ({bytes_per_message:.0} B/msg, \
         {messages_per_sec:.1} msg/s)",
        wire.bytes_in, wire.bytes_out
    );
    println!("         latency p50={p50:.1}ms p95={p95:.1}ms p99={p99:.1}ms");

    if has_flag("--no-write") {
        return;
    }
    let row = format!(
        "{{\"name\": \"loadgen-mix1\", \"mode\": \"service\", \"protocol\": \"binary\", \
         \"pipeline\": {pipeline}, \"host_cores\": {cores}, \"clients\": {clients}, \
         \"requests\": {requests}, \"ok\": {ok}, \"backpressure_retries\": {retries}, \
         \"jobs_completed\": {completed}, \"cache_hits\": {cache_hits}, \
         \"cache_misses\": {cache_misses}, \"wall_time_sec\": {wall_secs:.4}, \
         \"throughput_rps\": {throughput:.2}, \"bytes_per_message\": {bytes_per_message:.1}, \
         \"messages_per_sec\": {messages_per_sec:.1}, \"p50_ms\": {p50:.1}, \
         \"p95_ms\": {p95:.1}, \"p99_ms\": {p99:.1}}}",
        cores = salsa_bench::host_cores(),
    );
    write_row(&pr, "loadgen-mix1", pipeline, row);
}

/// The `--verify-mix` comparison: a verification-off baseline and the
/// mixed pass, each against a fresh in-process server warmed with one
/// request per mix entry (under its own verify spec, so the mixed
/// side's first-time certificates land in the warm-up), reported as one
/// `loadgen-verify` row.
fn run_verify_comparison(load: Load, verify: VerifySpec, pr: &str) {
    let Load { clients, requests, pipeline, .. } = load;
    // Alternate baseline/mixed passes and keep each side's median (by
    // its lane throughput): single passes on a small box are noisy, and
    // interleaving spreads ambient jitter evenly over both sides.
    let repeats: usize = flag_value("--repeats")
        .map(|v| v.parse().expect("--repeats takes a number"))
        .unwrap_or(3)
        .max(1);
    let mut baselines = Vec::new();
    let mut passes = Vec::new();
    for _ in 0..repeats {
        let (server, addr) = in_process_server();
        baselines.push(run_pass(&addr, load, SCALAR_MIX, verify.baseline_of(), true));
        server.shutdown();
        let (server, addr) = in_process_server();
        passes.push(run_pass(&addr, load, SCALAR_MIX, verify, true));
        server.shutdown();
    }
    for (label, p) in baselines
        .iter()
        .map(|p| ("baseline", p))
        .chain(passes.iter().map(|p| ("verify", p)))
    {
        assert_eq!(p.ok + p.errors, requests, "{label}: every request must resolve");
        assert_eq!(p.errors, 0, "{label}: the fixed mix contains no failing requests");
    }
    let median = |mut v: Vec<Pass>| -> Pass {
        v.sort_by(|a, b| {
            a.unverified_throughput.partial_cmp(&b.unverified_throughput).expect("finite")
        });
        v.remove(v.len() / 2)
    };
    let baseline = median(baselines);
    let pass = median(passes);

    let verify_fraction = verify.permille as f64 / 1000.0;
    let verified = stat(&pass.stats, &["verifier", "verified"]);
    let verify_failed = stat(&pass.stats, &["verifier", "failed"]);
    let vcache_hits = stat(&pass.stats, &["verifier", "cache", "hits"]);
    let vcache_misses = stat(&pass.stats, &["verifier", "cache", "misses"]);
    let v50 = statf(&pass.stats, &["verifier", "latency_ms", "p50"]);
    let v95 = statf(&pass.stats, &["verifier", "latency_ms", "p95"]);
    let v99 = statf(&pass.stats, &["verifier", "latency_ms", "p99"]);
    // The lane-isolation metric: requests that did NOT ask for a
    // certificate, at the pace they completed, against the same pace
    // with verification off entirely. Verified requests pay for their
    // own certificates; unverified ones must not.
    let ratio = pass.unverified_throughput / baseline.unverified_throughput.max(1e-9);
    let e2e_ratio = pass.throughput / baseline.throughput.max(1e-9);

    assert_eq!(verify_failed, 0, "certified jobs must not refute their own reports");
    assert!(verified > 0, "the mixed pass must actually verify something");

    println!(
        "loadgen verify-mix {verify_fraction:.2} ({vmode}): {requests} requests, \
         {clients} clients, pipeline {pipeline}",
        vmode = verify.mode,
    );
    println!(
        "         baseline (verify off): {} ok in {:.2}s ({:.1} req/s, p95 {:.1}ms)",
        baseline.ok, baseline.wall_secs, baseline.throughput, baseline.p95
    );
    println!(
        "         mixed: {} ok in {:.2}s ({:.1} req/s end-to-end, {:.1}% of baseline)",
        pass.ok,
        pass.wall_secs,
        pass.throughput,
        e2e_ratio * 100.0
    );
    println!(
        "         allocation lane (unverified share): {:.1} req/s vs {:.1} baseline \
         -> {:.1}% kept",
        pass.unverified_throughput,
        baseline.unverified_throughput,
        ratio * 100.0
    );
    println!(
        "         verifier lane: {verified} certified ({vcache_hits} verdict-cache hits / \
         {vcache_misses} misses), verify p50={v50:.1}ms p95={v95:.1}ms p99={v99:.1}ms"
    );

    if has_flag("--no-write") {
        return;
    }
    let row = format!(
        "{{\"name\": \"loadgen-verify\", \"mode\": \"service\", \"protocol\": \"binary\", \
         \"pipeline\": {pipeline}, \"host_cores\": {cores}, \"clients\": {clients}, \
         \"requests\": {requests}, \
         \"repeats\": {repeats}, \"verify_fraction\": {verify_fraction:.3}, \"verify_mode\": \"{vmode}\", \
         \"ok\": {ok}, \
         \"baseline_throughput_rps\": {base_tp:.2}, \"throughput_rps\": {tp:.2}, \
         \"end_to_end_ratio\": {e2e_ratio:.3}, \
         \"alloc_lane_throughput_rps\": {lane_tp:.2}, \
         \"alloc_lane_baseline_rps\": {lane_base:.2}, \"alloc_lane_ratio\": {ratio:.3}, \
         \"verified\": {verified}, \
         \"verdict_cache_hits\": {vcache_hits}, \"verdict_cache_misses\": {vcache_misses}, \
         \"p95_ms\": {p95:.1}, \"verify_p50_ms\": {v50:.1}, \"verify_p95_ms\": {v95:.1}, \
         \"verify_p99_ms\": {v99:.1}}}",
        cores = salsa_bench::host_cores(),
        vmode = verify.mode,
        ok = pass.ok,
        base_tp = baseline.throughput,
        tp = pass.throughput,
        lane_tp = pass.unverified_throughput,
        lane_base = baseline.unverified_throughput,
        p95 = pass.p95,
    );
    write_row(pr, "loadgen-verify", pipeline, row);
}

/// The `--mem-mix` comparison: the ISSUE 10 memory-binding acceptance run.
///
/// A throughput pass drives the memory-heavy mix (fir8a + mm2, with
/// repeats for cache hits) against an in-process server; then each
/// memory benchmark is allocated twice over a fresh server — M moves on
/// with `verify: full` (the certificate the row records) and the M-off
/// ablation (`mem_moves: false`, banks frozen at the initial round-robin
/// binding). The row proves the tentpole claim: the extended move family
/// reaches a strictly lower certified cost on both benchmarks under the
/// same budget.
fn run_mem_comparison(load: Load, pr: &str) {
    let Load { clients, requests, pipeline } = load;
    let (server, addr) = in_process_server();
    let pass = run_pass(&addr, load, MEM_MIX, VerifySpec::OFF, false);
    server.shutdown();
    assert_eq!(pass.ok + pass.errors, requests, "every request must resolve");
    assert_eq!(pass.errors, 0, "the memory mix contains no failing requests");

    let call_ok = |conn: &mut Connection, request: &Json| -> Json {
        loop {
            let reply = conn.call(request).expect("mem-mix request");
            match reply.get("status").and_then(Json::as_str) {
                Some("rejected") => std::thread::sleep(std::time::Duration::from_millis(
                    reply.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(50),
                )),
                Some("ok") => return reply,
                other => panic!("mem-mix: {other:?}: {}", reply.to_string_compact()),
            }
        }
    };
    let report_u64 = |reply: &Json, path: &[&str]| -> u64 {
        let mut node = reply.get("report").unwrap_or(&Json::Null);
        for key in path {
            node = node.get(key).unwrap_or(&Json::Null);
        }
        node.as_u64().unwrap_or(0)
    };

    // The certified ablation runs against one fresh server: the knobs
    // differ so the cache keys differ (a memory job never aliases its
    // own ablation), and a shared server keeps the pass self-contained.
    let (server, addr) = in_process_server();
    let mut conn = connect(&addr);
    let mut rows = Vec::new();
    for bench in ["fir8a", "mm2"] {
        let base = vec![
            ("cmd", Json::Str("allocate".into())),
            ("bench", Json::Str(bench.into())),
            ("seed", Json::Int(7)),
            ("restarts", Json::Int(2)),
            ("threads", Json::Int(1)),
            ("timeout_ms", Json::Int(120_000)),
        ];
        let mut on_request = base.clone();
        on_request.push(("verify", Json::Str("full".into())));
        let on = call_ok(&mut conn, &Json::obj(on_request));
        let mut off_request = base;
        off_request.push(("mem_moves", Json::Bool(false)));
        let off = call_ok(&mut conn, &Json::obj(off_request));

        let cost_on = report_u64(&on, &["cost"]);
        let cost_off = report_u64(&off, &["cost"]);
        let banks_on = report_u64(&on, &["breakdown", "mem_banks"]);
        let banks_off = report_u64(&off, &["breakdown", "mem_banks"]);
        let verdict = on
            .get("report")
            .and_then(|r| r.get("certificate"))
            .and_then(|c| c.get("verdict"))
            .and_then(Json::as_str)
            .unwrap_or("missing")
            .to_string();
        assert_eq!(verdict, "certified", "{bench}: the M-on result must pass verify: full");
        assert!(
            cost_on < cost_off,
            "{bench}: M moves must strictly beat the frozen-bank ablation \
             (on={cost_on} off={cost_off})"
        );
        rows.push((bench, cost_on, cost_off, banks_on, banks_off, verdict));
    }
    server.shutdown();

    println!(
        "loadgen mem-mix: {requests} requests, {clients} clients, \
         pipeline {pipeline} -> {ok} ok in {wall:.2}s ({tp:.1} req/s, p99 {p99:.1}ms)",
        ok = pass.ok,
        wall = pass.wall_secs,
        tp = pass.throughput,
        p99 = pass.p99,
    );
    for (bench, cost_on, cost_off, banks_on, banks_off, verdict) in &rows {
        println!(
            "         {bench}: M-on cost={cost_on} ({banks_on} banks, {verdict}) vs \
             M-off cost={cost_off} ({banks_off} banks) -> {pct:.1}% kept",
            pct = *cost_on as f64 / (*cost_off).max(1) as f64 * 100.0,
        );
    }

    if has_flag("--no-write") {
        return;
    }
    let per_bench: Vec<String> = rows
        .iter()
        .map(|(bench, cost_on, cost_off, banks_on, banks_off, verdict)| {
            format!(
                "\"{bench}_cost\": {cost_on}, \"{bench}_cost_frozen\": {cost_off}, \
                 \"{bench}_banks\": {banks_on}, \"{bench}_banks_frozen\": {banks_off}, \
                 \"{bench}_certificate\": \"{verdict}\""
            )
        })
        .collect();
    let row = format!(
        "{{\"name\": \"loadgen-memory\", \"mode\": \"service\", \"protocol\": \"binary\", \
         \"pipeline\": {pipeline}, \"host_cores\": {cores}, \"clients\": {clients}, \
         \"requests\": {requests}, \"ok\": {ok}, \"backpressure_retries\": {retries}, \
         \"wall_time_sec\": {wall:.4}, \"throughput_rps\": {tp:.2}, \"p50_ms\": {p50:.1}, \
         \"p95_ms\": {p95:.1}, \"p99_ms\": {p99:.1}, {per_bench}}}",
        cores = salsa_bench::host_cores(),
        ok = pass.ok,
        retries = pass.retries,
        wall = pass.wall_secs,
        tp = pass.throughput,
        p50 = pass.p50,
        p95 = pass.p95,
        p99 = pass.p99,
        per_bench = per_bench.join(", "),
    );
    write_row(pr, "loadgen-memory", pipeline, row);
}

/// The `--warm-mix` comparison: the ISSUE 9 warm-start acceptance run.
///
/// One server allocates the EWF baseline (seeding its similarity index
/// with the winner), then re-allocates a one-op variant through the
/// `reallocate` verb; a second, fresh server runs the identical variant
/// cold. All jobs share knobs and `verify: full`, so the warm report's
/// provenance and certificate are both checked, and the recorded ratio —
/// warm trials-to-best over the cold job's total trial budget — is the
/// acceptance metric (must land under 0.25).
fn run_warm_comparison(pr: &str) {
    let variant = {
        let graph = salsa_cdfg::benchmarks::ewf();
        graph.canonical_text().replacen("= add", "= sub", 1)
    };
    let knobs: &[(&str, Json)] = &[
        ("seed", Json::Int(1)),
        ("restarts", Json::Int(2)),
        ("threads", Json::Int(1)),
        ("verify", Json::Str("full".into())),
        ("timeout_ms", Json::Int(120_000)),
    ];
    let request = |head: Vec<(&'static str, Json)>| {
        let mut fields = head;
        fields.extend(knobs.iter().map(|(k, v)| (*k, v.clone())));
        Json::obj(fields)
    };
    let call_ok = |conn: &mut Connection, request: &Json| -> Json {
        loop {
            let reply = conn.call(request).expect("warm-mix request");
            match reply.get("status").and_then(Json::as_str) {
                Some("rejected") => std::thread::sleep(std::time::Duration::from_millis(
                    reply.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(50),
                )),
                Some("ok") => return reply,
                other => panic!("warm-mix: {other:?}: {}", reply.to_string_compact()),
            }
        }
    };

    // Warm side: base job banks its winner, reallocate rides on it.
    let (server, addr) = in_process_server();
    let mut conn = connect(&addr);
    let base = call_ok(
        &mut conn,
        &request(vec![("cmd", Json::Str("allocate".into())), ("bench", Json::Str("ewf".into()))]),
    );
    let base_id = base.get("id").and_then(Json::as_str).expect("base job id").to_string();
    let warm = call_ok(
        &mut conn,
        &request(vec![
            ("cmd", Json::Str("reallocate".into())),
            ("base", Json::Str(base_id.clone())),
            ("cdfg", Json::Str(variant.clone())),
        ]),
    );
    server.shutdown();

    // Cold side: the identical variant and knobs against a fresh server
    // whose seed index has never seen EWF.
    let (server, addr) = in_process_server();
    let mut conn = connect(&addr);
    let cold = call_ok(
        &mut conn,
        &request(vec![("cmd", Json::Str("allocate".into())), ("cdfg", Json::Str(variant))]),
    );
    server.shutdown();

    let report = |reply: &Json, path: &[&str]| -> u64 {
        let mut node = reply.get("report").unwrap_or(&Json::Null);
        for key in path {
            node = node.get(key).unwrap_or(&Json::Null);
        }
        node.as_u64().unwrap_or(0)
    };
    let base_cost = report(&base, &["cost"]);
    let cold_cost = report(&cold, &["cost"]);
    let warm_cost = report(&warm, &["cost"]);
    let cold_trials = report(&cold, &["search", "trials"]);
    let cold_ttb = report(&cold, &["search", "trials_to_best"]);
    let warm_ttb = report(&warm, &["search", "trials_to_best"]);
    let ratio = warm_ttb as f64 / (cold_trials as f64).max(1.0);
    let warm_start = warm.get("report").and_then(|r| r.get("warm_start")).cloned();
    let warm_mode = warm_start
        .as_ref()
        .and_then(|w| w.get("mode"))
        .and_then(Json::as_str)
        .unwrap_or("missing")
        .to_string();
    let distance = warm_start
        .as_ref()
        .and_then(|w| w.get("distance"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let verdict = |reply: &Json| {
        reply
            .get("report")
            .and_then(|r| r.get("certificate"))
            .and_then(|c| c.get("verdict"))
            .and_then(Json::as_str)
            .unwrap_or("missing")
            .to_string()
    };
    let warm_verdict = verdict(&warm);
    let cold_verdict = verdict(&cold);

    assert_eq!(
        warm_start.as_ref().and_then(|w| w.get("source")).and_then(Json::as_str),
        Some(base_id.as_str()),
        "warm job must credit the base job as its seed"
    );
    assert!(cold.get("report").and_then(|r| r.get("warm_start")).is_none(), "cold twin seeded");
    assert_eq!(warm_verdict, "certified", "warm certificate must pass verify: full");
    assert_eq!(cold_verdict, "certified", "cold certificate must pass verify: full");
    assert!(warm_cost <= cold_cost, "warm ({warm_cost}) must not lose to cold ({cold_cost})");
    assert!(
        ratio < 0.25,
        "warm trials-to-best {warm_ttb} is not under 25% of the cold budget {cold_trials}"
    );

    println!("loadgen warm-mix: base ewf cost={base_cost} id={base_id}");
    println!(
        "         cold variant: cost={cold_cost} in {cold_trials} trials \
         (best at trial {cold_ttb}), certificate {cold_verdict}"
    );
    println!(
        "         warm variant: cost={warm_cost}, best at trial {warm_ttb} \
         (mode {warm_mode}, sketch distance {distance}), certificate {warm_verdict}"
    );
    println!(
        "         warm reached its best in {:.1}% of the cold trial budget (target < 25%)",
        ratio * 100.0
    );

    if has_flag("--no-write") {
        return;
    }
    let row = format!(
        "{{\"name\": \"loadgen-warm\", \"mode\": \"service\", \"protocol\": \"binary\", \
         \"pipeline\": 1, \"host_cores\": {cores}, \"base_cost\": {base_cost}, \
         \"cold_cost\": {cold_cost}, \"warm_cost\": {warm_cost}, \
         \"cold_trials\": {cold_trials}, \"cold_trials_to_best\": {cold_ttb}, \
         \"warm_trials_to_best\": {warm_ttb}, \"trial_ratio\": {ratio:.3}, \
         \"warm_mode\": \"{warm_mode}\", \"sketch_distance\": {distance}, \
         \"certificate\": \"{warm_verdict}\"}}",
        cores = salsa_bench::host_cores(),
    );
    write_row(pr, "loadgen-warm", 1, row);
}

/// Appends `row` to the `history` entry for `pr`, replacing a prior run
/// of the same configuration (same name and pipeline depth) and keeping
/// that label's other rows.
fn write_row(pr: &str, name: &str, pipeline: usize, row: String) {
    let existing = std::fs::read_to_string(BENCH_FILE).unwrap_or_default();
    let benchmark_rows = existing_benchmark_rows(&existing);
    let dup_marker = format!(
        "\"name\": \"{name}\", \"mode\": \"service\", \"protocol\": \"binary\", \
         \"pipeline\": {pipeline},"
    );
    let mut rows: Vec<String> = same_label_rows(&existing, pr)
        .into_iter()
        .filter(|prior| !prior.contains(&dup_marker))
        .collect();
    rows.push(row);
    let mut history = prior_history(&existing, pr);
    history.push(history_entry(pr, &rows));
    let json = render_bench_file(&benchmark_rows, &history);
    std::fs::write(BENCH_FILE, &json).unwrap_or_else(|e| panic!("writing {BENCH_FILE}: {e}"));
    println!("wrote {BENCH_FILE}");
}

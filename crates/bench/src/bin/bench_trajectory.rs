//! Allocation-trajectory timings: runs the EWF and DCT allocations at
//! fixed seeds — once sequentially (`threads = 1`, the legacy multi-seed
//! loop), once as a parallel portfolio, and once as a single chain
//! (`inner-sequential`, the inner loop's own throughput) — and writes
//! `BENCH_alloc.json` at the repository root.
//!
//! The JSON carries two sections (schema documented in EXPERIMENTS.md):
//!
//! * `"benchmarks"` — the newest history entry's sequential rows,
//!   projected verbatim every run (the flat record earlier revisions
//!   emitted, kept for compatibility and guaranteed in step with the
//!   history by construction);
//! * `"history"` — one entry per PR label, **appended** across runs so the
//!   file accumulates a cross-revision performance trail. Re-running with
//!   the same `--pr` label replaces that label's entry instead of
//!   duplicating it. A pre-history `"benchmarks"` array found in the file
//!   is migrated into the history as a `"pre-history"` entry.
//!
//! The fixed seeds make the final costs comparable run-to-run, and the
//! sequential/portfolio cost match on each benchmark is printed (the
//! portfolio's determinism contract says they agree given default cutoff
//! headroom).
//!
//! A third family of rows measures the distributed path: the same job run
//! locally (`cluster-local`), on a 1-worker cluster and on a 2-worker
//! cluster (in-process coordinator + worker threads over loopback TCP).
//! The cluster contract makes all three costs identical; the rows record
//! what the wire, leases and heartbeats cost in wall time.
//!
//! Usage: `cargo run -p salsa-bench --bin bench_trajectory --release --
//! [--quick] [--threads N] [--pr LABEL]`

use std::fmt::Write as _;
use std::time::Instant;

use salsa_alloc::{Allocator, MoveSet};
use salsa_bench::jsonstore::{
    history_entry, latest_flat_rows, prior_history, render_bench_file, same_label_rows,
    BENCH_FILE,
};
use salsa_bench::Effort;
use salsa_cdfg::Cdfg;
use salsa_cluster::{run_worker, ClusterConfig, Coordinator, FaultPlan, WorkerConfig};
use salsa_sched::{fds_schedule, FuLibrary};
use salsa_serve::{run_allocation, Json, Knobs};

struct Record {
    name: &'static str,
    mode: &'static str,
    steps: usize,
    seed: u64,
    threads: usize,
    chains: usize,
    completed: usize,
    cutoff: usize,
    wall_secs: f64,
    final_cost: u64,
    attempted: usize,
    moves_per_sec: f64,
    speedup_vs_sequential: Option<f64>,
    verified: bool,
}

#[allow(clippy::too_many_arguments)]
fn run(
    name: &'static str,
    mode: &'static str,
    graph: &Cdfg,
    steps: usize,
    seed: u64,
    effort: Effort,
    chains: usize,
    threads: usize,
) -> Record {
    let library = FuLibrary::standard();
    let schedule = fds_schedule(graph, &library, steps).unwrap_or_else(|e| panic!("{name}: {e}"));
    let start = Instant::now();
    let result = Allocator::new(graph, &schedule, &library)
        .seed(seed)
        .config(effort.config(MoveSet::full()))
        .restarts(chains)
        .threads(threads)
        .run()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let wall_secs = start.elapsed().as_secs_f64();
    Record {
        name,
        mode,
        steps,
        seed,
        threads,
        chains,
        completed: result.portfolio.completed(),
        cutoff: result.portfolio.abandoned(),
        wall_secs,
        final_cost: result.cost,
        attempted: result.portfolio.aggregate.attempted.max(result.stats.attempted),
        moves_per_sec: result.stats.moves_per_sec(),
        speedup_vs_sequential: None,
        verified: result.verified(),
    }
}

/// Runs the same job through the service's local path (`workers == 0`)
/// or an in-process loopback cluster of `workers` worker threads, and
/// reduces the report to a [`Record`] row. The cluster pins each chain to
/// one thread, so `cluster-local` is the honest overhead baseline.
fn cluster_run(
    name: &'static str,
    mode: &'static str,
    graph: &Cdfg,
    steps: usize,
    seed: u64,
    chains: usize,
    workers: usize,
) -> Record {
    let knobs = Knobs {
        steps: Some(steps),
        seed,
        restarts: chains,
        threads: Some(1),
        ..Knobs::default()
    };
    let start = Instant::now();
    let mut wall_secs = 0.0;
    let report = if workers == 0 {
        run_allocation(graph, &knobs, None).unwrap_or_else(|e| panic!("{name}: {e:?}"))
    } else {
        let coordinator = Coordinator::bind("127.0.0.1:0", ClusterConfig::default())
            .unwrap_or_else(|e| panic!("{name}: bind coordinator: {e}"));
        let addr = coordinator.local_addr();
        let fleet: Vec<_> = (0..workers)
            .map(|i| {
                let config = WorkerConfig {
                    poll_ms: 5,
                    heartbeat_ms: 100,
                    fault: FaultPlan::None,
                    ..WorkerConfig::new(addr.to_string(), format!("bench-w{i}"))
                };
                std::thread::spawn(move || {
                    let _ = run_worker(config);
                })
            })
            .collect();
        let report = coordinator
            .allocate(graph, &knobs, None)
            .unwrap_or_else(|e| panic!("{name}: cluster allocate: {e:?}"));
        // The row measures job latency; fleet teardown is not billed.
        wall_secs = start.elapsed().as_secs_f64();
        coordinator.shutdown();
        for worker in fleet {
            let _ = worker.join();
        }
        report
    };
    if workers == 0 {
        wall_secs = start.elapsed().as_secs_f64();
    }
    let field = |path: &[&str]| {
        let mut node = &report;
        for key in path {
            node = node.get(key).unwrap_or(&Json::Null);
        }
        node.as_u64().unwrap_or(0)
    };
    Record {
        name,
        mode,
        steps,
        seed,
        threads: workers.max(1),
        chains,
        completed: field(&["portfolio", "completed"]) as usize,
        cutoff: field(&["portfolio", "cutoff"]) as usize,
        wall_secs,
        final_cost: field(&["cost"]),
        attempted: field(&["search", "attempted"]) as usize,
        moves_per_sec: report
            .get("search")
            .and_then(|s| s.get("moves_per_sec"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        speedup_vs_sequential: None,
        verified: report.get("verified").and_then(Json::as_bool).unwrap_or(false),
    }
}

fn record_json(r: &Record) -> String {
    let mut row = format!(
        "{{\"name\": \"{}\", \"mode\": \"{}\", \"steps\": {}, \"seed\": {}, \"threads\": {}, \
         \"host_cores\": {}, \"chains\": {}, \"chains_completed\": {}, \"chains_cutoff\": {}, \
         \"wall_time_sec\": {:.4}, \"final_cost\": {}, \"moves_attempted\": {}, \
         \"moves_per_sec\": {:.0}, \"verified\": {}",
        r.name,
        r.mode,
        r.steps,
        r.seed,
        r.threads,
        salsa_bench::host_cores(),
        r.chains,
        r.completed,
        r.cutoff,
        r.wall_secs,
        r.final_cost,
        r.attempted,
        r.moves_per_sec,
        r.verified
    );
    if let Some(s) = r.speedup_vs_sequential {
        let _ = write!(row, ", \"speedup_vs_sequential\": {s:.2}");
    }
    row.push('}');
    row
}

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let effort = Effort::from_args();
    let threads: usize = flag_value("--threads")
        .map(|v| v.parse().expect("--threads takes a number"))
        .unwrap_or(4)
        .max(2);
    let pr = flag_value("--pr").unwrap_or_else(|| "PR7-wire".to_string());
    // Enough chains that the portfolio has real work to spread; both modes
    // run the identical seed set so the wall-clock ratio is an honest
    // same-work speedup.
    let chains = match effort {
        Effort::Quick => 4,
        Effort::Full => 6,
    };

    let cases: [(&'static str, Cdfg, usize, u64); 2] = [
        ("ewf19", salsa_cdfg::benchmarks::ewf(), 19, 7),
        ("dct10", salsa_cdfg::benchmarks::dct(), 10, 42),
    ];
    let mut records = Vec::new();
    for (name, graph, steps, seed) in &cases {
        let seq = run(name, "sequential", graph, *steps, *seed, effort, chains, 1);
        let mut par = run(name, "portfolio", graph, *steps, *seed, effort, chains, threads);
        par.speedup_vs_sequential = Some(seq.wall_secs / par.wall_secs.max(1e-9));
        records.push(seq);
        records.push(par);

        // The inner loop's own throughput: one chain, one thread.
        records.push(run(name, "inner-sequential", graph, *steps, *seed, effort, 1, 1));

        // The distributed path: the identical job run locally and on
        // loopback clusters of one and two workers. Costs must agree
        // (the cluster's bit-exact contract); the wall-clock spread is
        // the price of the wire, leases and heartbeats.
        let local = cluster_run(name, "cluster-local", graph, *steps, *seed, chains, 0);
        let mut one_worker = cluster_run(name, "cluster-1w", graph, *steps, *seed, chains, 1);
        one_worker.speedup_vs_sequential = Some(local.wall_secs / one_worker.wall_secs.max(1e-9));
        let mut two_workers = cluster_run(name, "cluster-2w", graph, *steps, *seed, chains, 2);
        two_workers.speedup_vs_sequential =
            Some(local.wall_secs / two_workers.wall_secs.max(1e-9));
        records.push(local);
        records.push(one_worker);
        records.push(two_workers);
    }

    let path = BENCH_FILE;
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut history = prior_history(&existing, &pr);
    let mut rows: Vec<String> = records.iter().map(record_json).collect();
    // Merge, don't clobber: keep service rows (loadgen's) already written
    // under this label — only the trajectory rows are regenerated here.
    rows.extend(
        same_label_rows(&existing, &pr)
            .into_iter()
            .filter(|row| row.contains("\"mode\": \"service\"")),
    );
    history.push(history_entry(&pr, &rows));

    // The flat block is a projection of the entry just appended — never a
    // separately rendered copy that can drift out of step with history.
    let latest = latest_flat_rows(history.last().expect("entry just pushed"));
    let json = render_bench_file(&latest, &history);
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));

    for r in &records {
        let speedup = r
            .speedup_vs_sequential
            .map(|s| format!(" speedup={s:.2}x"))
            .unwrap_or_default();
        println!(
            "{:<16} {:<16} threads={:<2} chains={} ({} completed, {} cutoff) {:.2}s cost={} \
             {} moves ({:.0} moves/sec){} verified={}",
            r.name, r.mode, r.threads, r.chains, r.completed, r.cutoff, r.wall_secs,
            r.final_cost, r.attempted, r.moves_per_sec, speedup, r.verified
        );
    }
    for group in records.chunks(6) {
        if let [seq, par, inner, local, one_worker, two_workers] = group {
            let mark = if seq.final_cost == par.final_cost { "match" } else { "DIFFER" };
            println!("{:<8} sequential vs portfolio cost: {mark}", seq.name);
            println!(
                "{:<8} inner loop: {:.0} moves/sec on one chain (cost {})",
                seq.name, inner.moves_per_sec, inner.final_cost
            );
            let cluster_mark = if local.final_cost == one_worker.final_cost
                && local.final_cost == two_workers.final_cost
            {
                "match"
            } else {
                "DIFFER"
            };
            println!(
                "{:<8} cluster cost (local / 1w / 2w): {} / {} / {} — {cluster_mark}; \
                 wall {:.2}s / {:.2}s / {:.2}s",
                seq.name,
                local.final_cost,
                one_worker.final_cost,
                two_workers.final_cost,
                local.wall_secs,
                one_worker.wall_secs,
                two_workers.wall_secs
            );
        }
    }
    println!("wrote {path}");
}

//! The cluster coordinator: shard leasing, worker liveness, bound
//! gossip, and the deterministic final reduction.
//!
//! A job's `restarts` chains occupy slots `0..restarts`, split into
//! contiguous shards of [`shard_chains`](ClusterConfig::shard_chains)
//! slots. Each shard moves through a small lease state machine:
//!
//! ```text
//! pending ──poll──▶ leased ──result──▶ done
//!    ▲                 │
//!    └──lease expiry───┘   (heartbeats renew; death/stall stops them)
//! ```
//!
//! Reassignment after expiry is sound because chains are pure functions
//! of `(job inputs, seed)`: a shard run by two workers produces the same
//! chains, and the coordinator keeps the first result per shard
//! (first-write-wins), so duplicates are dropped without affecting the
//! reduction. The reduction itself is the portfolio's deterministic
//! `(cost, slot)` minimum; the winning binding arrives serialized with
//! its shard's result and is rebuilt here (validated structurally, then
//! cost-verified against the reported cost). Seed replay — rerunning the
//! winning chain locally, which the purity above makes byte-equivalent —
//! remains the fallback whenever a shipped binding is absent, malformed
//! or disagrees with its report.
//!
//! With no cutoff configured (the default) every chain completes and the
//! canonical report is byte-identical to a local sequential portfolio of
//! the same job — for any worker count, any shard size, and any failure
//! pattern. Enabling a cutoff turns on cross-process bound gossip: the
//! contract then weakens to winner identity, exactly as it does for
//! local multi-threaded portfolios (bound dominance: every published
//! bound is an achieved cost, hence `>=` the best final cost, so the
//! winner always survives given the PR 2 headroom invariant).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use salsa_alloc::{
    replay_slot, Binding, BindingParts, CancelToken, ChainOutcome, ImproveStats, InitialBinding,
    PortfolioOutcome, PortfolioStats,
};
use salsa_cdfg::Cdfg;
use salsa_serve::json::Json;
use salsa_serve::{knobs_to_json, map_alloc_error, ErrorKind, Knobs, ServeError};
use salsa_wire::frame::Payload;
use salsa_wire::net::{Handler, NetConfig, NetServer};

use crate::plan::{plan_job, JobPlan};
use crate::protocol::{bound_from_json, bound_to_json, chain_from_json, image_from_json};

/// How often a waiting job re-checks its cancel token and results.
const JOB_POLL: Duration = Duration::from_millis(25);
/// How long the I/O loop keeps serving after shutdown begins, so a
/// worker's in-flight poll still gets its `shutdown` answer instead of a
/// dropped connection (which would send it into reconnect backoff).
const SHUTDOWN_LINGER: Duration = Duration::from_secs(1);

/// Coordinator tuning. All fields have serviceable defaults.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Slots per shard (min 1). Smaller shards reassign at finer grain;
    /// larger shards amortize dispatch overhead.
    pub shard_chains: usize,
    /// Lease duration; a worker that has not heartbeat within this long
    /// loses its shard to the next polling worker (min 1 ms).
    pub lease_ms: u64,
    /// The `retry_after_ms` hint sent to workers when no work is pending.
    pub idle_retry_ms: u64,
    /// Cross-process best-bound cutoff factor. `None` (default) disables
    /// pruning: every chain completes and reports are byte-identical in
    /// canonical form regardless of worker count or failures. `Some(f)`
    /// gossips the bound and guarantees winner identity only.
    pub cutoff: Option<f64>,
    /// Trials a chain must complete before its first cutoff check
    /// (mirrors [`PortfolioConfig`](salsa_alloc::PortfolioConfig)).
    pub min_trials: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shard_chains: 1,
            lease_ms: 3000,
            idle_retry_ms: 25,
            cutoff: None,
            min_trials: 2,
        }
    }
}

/// A contiguous slot range, the unit of dispatch and reassignment.
#[derive(Debug, Clone, Copy)]
struct Shard {
    slot_start: usize,
    slot_end: usize,
}

#[derive(Debug)]
struct Lease {
    worker: String,
    expires_at: Instant,
}

/// Everything the coordinator tracks about one in-flight job.
struct JobState {
    cdfg_text: String,
    knobs_json: Json,
    shards: Vec<Shard>,
    pending: VecDeque<usize>,
    leases: HashMap<usize, Lease>,
    results: BTreeMap<usize, Vec<ChainOutcome>>,
    /// Shipped best-binding images in the parts text, keyed by slot
    /// (first write wins, like `results`). Decoded only for the winning
    /// slot.
    bindings: HashMap<usize, String>,
    bound: u64,
    cutoff: Option<f64>,
    failed: Option<String>,
    base_seed: u64,
}

impl JobState {
    fn complete(&self) -> bool {
        self.results.len() == self.shards.len()
    }

    /// Returns expired leases to the front of the pending queue.
    fn reap_expired(&mut self, now: Instant) {
        let expired: Vec<usize> = self
            .leases
            .iter()
            .filter(|(_, lease)| lease.expires_at <= now)
            .map(|(shard, _)| *shard)
            .collect();
        for shard in expired {
            self.leases.remove(&shard);
            if !self.results.contains_key(&shard) {
                self.pending.push_front(shard);
            }
        }
    }
}

struct CoState {
    next_job: u64,
    jobs: BTreeMap<u64, JobState>,
}

struct Shared {
    state: Mutex<CoState>,
    wake: Condvar,
    shutdown: Arc<AtomicBool>,
    config: ClusterConfig,
}

/// A running cluster coordinator. Bind with [`Coordinator::bind`], point
/// workers at [`local_addr`](Coordinator::local_addr), submit jobs with
/// [`allocate`](Coordinator::allocate), stop with
/// [`shutdown`](Coordinator::shutdown).
pub struct Coordinator {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    net: Option<NetServer>,
}

impl Coordinator {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting workers,
    /// which connect with `salsa-wire`'s binary hello.
    pub fn bind(addr: &str, config: ClusterConfig) -> io::Result<Coordinator> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            state: Mutex::new(CoState { next_job: 0, jobs: BTreeMap::new() }),
            wake: Condvar::new(),
            shutdown: Arc::clone(&shutdown),
            config,
        });
        let handler_shared = Arc::clone(&shared);
        let handler: Handler = Box::new(move |request, handle| {
            handle.send(Arc::new(Payload::new(handle_request(&request, &handler_shared))));
        });
        let net_config = NetConfig {
            shutdown,
            // Workers heartbeat every few hundred ms while running and
            // poll continuously while idle; a minute of true silence
            // means the peer is gone.
            idle_timeout: Some(Duration::from_secs(60)),
            shutdown_linger: SHUTDOWN_LINGER,
            ..NetConfig::default()
        };
        let net = NetServer::bind(addr, net_config, handler)?;
        let local_addr = net.local_addr();
        Ok(Coordinator { local_addr, shared, net: Some(net) })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Runs one job across the worker fleet and returns its report —
    /// the distributed counterpart of the service's local execution
    /// path, with the identical report contract.
    ///
    /// Blocks until every shard has a result (workers may come, die and
    /// be replaced while it waits), the cancel token trips, or a worker
    /// reports the job itself as unrunnable.
    pub fn allocate(
        &self,
        graph: &Cdfg,
        knobs: &Knobs,
        cancel: Option<CancelToken>,
    ) -> Result<Json, ServeError> {
        let start = Instant::now();
        // The job's identity on the wire is its canonical text, and the
        // coordinator derives its own search context from that text
        // exactly as every worker does. This makes value numbering — and
        // with it every index inside a shipped binding image — agree
        // across the fleet by construction: a programmatically built
        // graph may order its values differently than its canonical
        // form, and an index-keyed image from one numbering is garbage
        // under the other.
        let cdfg_text = graph.canonical_text();
        let graph = &salsa_cdfg::parse_cdfg(&cdfg_text).map_err(|e| {
            ServeError::new(ErrorKind::Parse, format!("canonical CDFG did not reparse: {e}"))
        })?;
        // Plan and validate locally before involving any worker: an
        // infeasible schedule or oversized pool fails here, identically
        // to the local path.
        let plan = plan_job(graph, knobs)?;

        let restarts = plan.knobs().restarts;
        let shard_chains = self.shared.config.shard_chains.max(1);
        let shards: Vec<Shard> = (0..restarts)
            .step_by(shard_chains)
            .map(|s| Shard { slot_start: s, slot_end: (s + shard_chains).min(restarts) })
            .collect();
        let cutoff = plan.knobs().cutoff.or(self.shared.config.cutoff);

        let job_id = {
            let mut state = self.shared.state.lock().expect("coordinator state");
            state.next_job += 1;
            let id = state.next_job;
            state.jobs.insert(
                id,
                JobState {
                    cdfg_text,
                    knobs_json: knobs_to_json(plan.knobs()),
                    pending: (0..shards.len()).collect(),
                    shards,
                    leases: HashMap::new(),
                    results: BTreeMap::new(),
                    bindings: HashMap::new(),
                    bound: u64::MAX,
                    cutoff,
                    failed: None,
                    base_seed: plan.knobs().seed,
                },
            );
            id
        };

        // Build the coordinator's own search context — needed only for
        // the final winner replay — *after* the job is visible, so the
        // fleet starts crunching shards while this thread prepares.
        let allocator = plan.allocator(graph, cancel.clone());
        let (ctx, improve_config) = match allocator.prepare() {
            Ok(prepared) => prepared,
            Err(e) => {
                // Withdrawing the job revokes every lease; stray results
                // for it are acked and dropped.
                let mut state = self.shared.state.lock().expect("coordinator state");
                state.jobs.remove(&job_id);
                return Err(map_alloc_error(e));
            }
        };

        // Wait for the fleet. Workers pull shards by polling; all this
        // thread does is watch for completion, failure or cancellation.
        let outcome = (|| {
            let mut state = self.shared.state.lock().expect("coordinator state");
            loop {
                let job = state.jobs.get(&job_id).expect("job registered");
                if let Some(message) = &job.failed {
                    let message = message.clone();
                    state.jobs.remove(&job_id);
                    return Err(ServeError::new(ErrorKind::Alloc, message));
                }
                if job.complete() {
                    return Ok(state.jobs.remove(&job_id).expect("job registered"));
                }
                if cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                    // Removing the job revokes every lease: heartbeats
                    // on it answer `revoked`, which aborts the shard.
                    state.jobs.remove(&job_id);
                    return Err(map_alloc_error(salsa_alloc::AllocError::Cancelled));
                }
                if self.shared.shutdown.load(Ordering::SeqCst) {
                    // Workers stop polling once told to shut down, so
                    // an incomplete job can never finish; fail it
                    // cleanly.
                    state.jobs.remove(&job_id);
                    return Err(ServeError::new(
                        ErrorKind::ShuttingDown,
                        "coordinator is shutting down; job abandoned",
                    ));
                }
                let (next, _) = self
                    .shared
                    .wake
                    .wait_timeout(state, JOB_POLL)
                    .expect("coordinator state");
                state = next;
            }
        })();

        finalize(graph, &plan, &allocator, &ctx, &improve_config, outcome?, start)
    }

    /// Starts the drain: pending polls answer `shutdown`, new jobs are
    /// rejected by [`allocate`] callers holding no results. Idempotent.
    pub fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
    }

    /// Whether shutdown has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// [`begin_shutdown`](Coordinator::begin_shutdown), then waits for
    /// the I/O loop to finish its linger and flush every open reply.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        if let Some(net) = self.net.take() {
            net.join();
        }
    }
}

/// The deterministic final reduction: order chains by slot, pick the
/// `(cost, slot)`-minimal completed chain, rebuild its shipped binding
/// (falling back to local seed replay when absent, malformed, or in
/// disagreement with the reported cost), and finish with the ordinary
/// lower → verify → report pipeline.
fn finalize<'a>(
    graph: &Cdfg,
    plan: &JobPlan,
    allocator: &salsa_alloc::Allocator<'_>,
    ctx: &'a salsa_alloc::AllocContext<'a>,
    improve_config: &salsa_alloc::ImproveConfig,
    mut job: JobState,
    start: Instant,
) -> Result<Json, ServeError> {
    let mut bindings = std::mem::take(&mut job.bindings);
    let mut chains: Vec<ChainOutcome> = job.results.into_values().flatten().collect();
    chains.sort_by_key(|c| (c.stat.slot, c.stat.seed));

    let winner_slot = chains
        .iter()
        .filter(|c| c.cost.is_some())
        .min_by_key(|c| (c.cost.expect("filtered"), c.stat.slot, c.stat.seed))
        .map(|c| c.stat.slot);

    let (winner, binding) = match winner_slot {
        Some(slot) => {
            let reported = chains
                .iter()
                .find(|c| c.stat.slot == slot)
                .cloned()
                .expect("winner slot has a reported chain");
            let reported_cost = reported.cost.expect("winner completed");
            // The shipped image is accepted only when it rebuilds cleanly
            // AND its recomputed weighted cost equals the reported one AND
            // it passes the same symbolic verification gate the audit lane
            // runs — a bogus image can downgrade us to a replay but never
            // alter the result or smuggle in an unrealizable datapath.
            let rebuilt: Option<Binding<'_>> = bindings
                .remove(&slot)
                .and_then(|image| BindingParts::decode(&image).ok())
                .and_then(|parts| Binding::from_parts(ctx, &parts).ok())
                .filter(|b| improve_config.weights.evaluate(&b.breakdown()) == reported_cost)
                .filter(|b| salsa_alloc::verify_binding(b).is_certified());
            match rebuilt {
                Some(binding) => (reported, binding),
                None => {
                    let (replayed, binding) =
                        replay_slot(ctx, improve_config, job.base_seed, slot)
                            .map_err(map_alloc_error)?;
                    if replayed.cost != Some(reported_cost) {
                        // A replay that disagrees with the report means the
                        // worker and coordinator did not run the same job —
                        // never paper over a broken bit-exact contract with
                        // the wrong binding.
                        return Err(ServeError::new(
                            ErrorKind::Alloc,
                            format!(
                                "seed replay of winning slot {slot} produced cost {:?}, worker reported {reported_cost}",
                                replayed.cost
                            ),
                        ));
                    }
                    (replayed, binding)
                }
            }
        }
        None => {
            // Safety net, mirroring the local portfolio: if the cutoff
            // abandoned every chain (impossible while bound dominance
            // holds, but never unrecoverable), run slot 0 unwatched.
            let (replayed, binding) =
                replay_slot(ctx, improve_config, job.base_seed, 0).map_err(map_alloc_error)?;
            chains.insert(0, replayed.clone());
            (replayed, binding)
        }
    };

    let mut aggregate = ImproveStats::default();
    for chain in &chains {
        aggregate.merge(&chain.improve);
    }
    let portfolio = PortfolioStats {
        threads: 1,
        chains: chains.iter().map(|c| c.stat.clone()).collect(),
        winner_slot: winner.stat.slot,
        wall_nanos: start.elapsed().as_nanos() as u64,
        aggregate,
    };
    let cost = winner.cost.expect("winner completed");
    let outcome = PortfolioOutcome {
        binding,
        stats: winner.improve,
        cost,
        portfolio,
        initial: InitialBinding::Constructive,
    };
    let result = allocator.complete(ctx, outcome).map_err(map_alloc_error)?;
    Ok(plan.report(graph, &result))
}

fn error_json(message: &str) -> Json {
    Json::obj(vec![
        ("status", Json::Str("error".into())),
        ("message", Json::Str(message.into())),
    ])
}

/// Dispatch, run on the I/O thread: every verb is a quick bookkeeping
/// operation under the state mutex, so answering inline keeps the loop
/// responsive without a worker pool of its own.
fn handle_request(request: &Json, shared: &Arc<Shared>) -> Json {
    let Some(cmd) = request.get("cmd").and_then(Json::as_str) else {
        return error_json("missing string field 'cmd'");
    };
    let worker = request.get("worker").and_then(Json::as_str).unwrap_or("anonymous").to_string();
    match cmd {
        "poll" => handle_poll(shared, &worker),
        "heartbeat" => handle_heartbeat(shared, &worker, request),
        "result" => handle_result(shared, &worker, request),
        other => error_json(&format!("unknown cmd '{other}' (expected poll, heartbeat or result)")),
    }
}

fn handle_poll(shared: &Arc<Shared>, worker: &str) -> Json {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Json::obj(vec![("status", Json::Str("shutdown".into()))]);
    }
    let now = Instant::now();
    let lease = Duration::from_millis(shared.config.lease_ms.max(1));
    let mut state = shared.state.lock().expect("coordinator state");
    for (job_id, job) in state.jobs.iter_mut() {
        if job.failed.is_some() {
            continue;
        }
        job.reap_expired(now);
        while let Some(shard_id) = job.pending.pop_front() {
            if job.results.contains_key(&shard_id) {
                continue; // a late duplicate landed while this sat queued
            }
            let shard = job.shards[shard_id];
            job.leases
                .insert(shard_id, Lease { worker: worker.to_string(), expires_at: now + lease });
            return Json::obj(vec![
                ("status", Json::Str("assign".into())),
                ("job", Json::Int(*job_id as i64)),
                ("shard", Json::Int(shard_id as i64)),
                ("slot_start", Json::Int(shard.slot_start as i64)),
                ("slot_end", Json::Int(shard.slot_end as i64)),
                ("cdfg", Json::Str(job.cdfg_text.clone())),
                ("knobs", job.knobs_json.clone()),
                ("lease_ms", Json::Int(shared.config.lease_ms as i64)),
                ("bound", bound_to_json(job.bound)),
                (
                    "cutoff",
                    match job.cutoff {
                        Some(f) => Json::Float(f),
                        None => Json::Null,
                    },
                ),
                ("min_trials", Json::Int(shared.config.min_trials as i64)),
            ]);
        }
    }
    Json::obj(vec![
        ("status", Json::Str("idle".into())),
        ("retry_after_ms", Json::Int(shared.config.idle_retry_ms as i64)),
    ])
}

fn ack_json(bound: u64, revoked: bool, cancelled: bool, accepted: Option<bool>) -> Json {
    let mut pairs = vec![
        ("status", Json::Str("ack".into())),
        ("bound", bound_to_json(bound)),
        ("revoked", Json::Bool(revoked)),
        ("cancelled", Json::Bool(cancelled)),
    ];
    if let Some(accepted) = accepted {
        pairs.push(("accepted", Json::Bool(accepted)));
    }
    Json::obj(pairs)
}

fn handle_heartbeat(shared: &Arc<Shared>, worker: &str, request: &Json) -> Json {
    let (Some(job_id), Some(shard_id)) = (
        request.get("job").and_then(Json::as_u64),
        request.get("shard").and_then(Json::as_u64).map(|s| s as usize),
    ) else {
        return error_json("heartbeat needs 'job' and 'shard'");
    };
    let lease = Duration::from_millis(shared.config.lease_ms.max(1));
    let mut state = shared.state.lock().expect("coordinator state");
    let Some(job) = state.jobs.get_mut(&job_id) else {
        // Completed or cancelled: the shard no longer matters.
        return ack_json(u64::MAX, true, false, None);
    };
    job.bound = job.bound.min(bound_from_json(request.get("bound")));
    let renewed = match job.leases.get_mut(&shard_id) {
        Some(held) if held.worker == worker => {
            held.expires_at = Instant::now() + lease;
            true
        }
        _ => false, // expired and reassigned, or never leased to this worker
    };
    let revoked = !renewed || job.results.contains_key(&shard_id);
    ack_json(job.bound, revoked, false, None)
}

fn handle_result(shared: &Arc<Shared>, worker: &str, request: &Json) -> Json {
    let (Some(job_id), Some(shard_id)) = (
        request.get("job").and_then(Json::as_u64),
        request.get("shard").and_then(Json::as_u64).map(|s| s as usize),
    ) else {
        return error_json("result needs 'job' and 'shard'");
    };
    let mut state = shared.state.lock().expect("coordinator state");
    let Some(job) = state.jobs.get_mut(&job_id) else {
        return ack_json(u64::MAX, true, false, Some(false));
    };
    job.bound = job.bound.min(bound_from_json(request.get("bound")));

    // A worker that could not run the job at all (e.g. its environment
    // failed to prepare it) fails the job: retrying a deterministic
    // failure elsewhere would loop forever.
    if let Some(message) = request.get("error").and_then(Json::as_str) {
        job.failed = Some(format!("worker {worker}: {message}"));
        shared.wake.notify_all();
        return ack_json(job.bound, true, false, Some(false));
    }

    if job.results.contains_key(&shard_id) || shard_id >= job.shards.len() {
        // First write wins: a stalled worker's late duplicate is dropped
        // (the chains are identical by determinism anyway).
        let bound = job.bound;
        return ack_json(bound, true, false, Some(false));
    }

    let shard = job.shards[shard_id];
    let parsed: Option<Vec<ChainOutcome>> = request
        .get("chains")
        .and_then(|c| match c {
            Json::Arr(items) => Some(items),
            _ => None,
        })
        .map(|items| items.iter().map(chain_from_json).collect::<Option<Vec<_>>>())
        .unwrap_or(None);
    let valid = parsed.as_ref().is_some_and(|chains| {
        chains.len() == shard.slot_end - shard.slot_start
            && chains.iter().zip(shard.slot_start..shard.slot_end).all(|(c, slot)| {
                c.stat.slot == slot && c.stat.seed == job.base_seed.wrapping_add(slot as u64)
            })
    });
    if !valid {
        // Malformed result: drop it, release the lease, and let the
        // shard be re-dispatched.
        job.leases.remove(&shard_id);
        if !job.pending.contains(&shard_id) {
            job.pending.push_front(shard_id);
        }
        let bound = job.bound;
        return ack_json(bound, true, false, Some(false));
    }

    // The shard's best-binding image rides along with the result. It is
    // advisory: finalize rebuilds and cost-verifies it before use, so an
    // out-of-range or bogus image is dropped there (replay fallback), and
    // losing one here never affects the reduction.
    if let Some((slot, image)) = request.get("binding").and_then(image_from_json) {
        if (shard.slot_start..shard.slot_end).contains(&slot) {
            job.bindings.entry(slot).or_insert_with(|| image.to_string());
        }
    }
    job.results.insert(shard_id, parsed.expect("validated"));
    job.leases.remove(&shard_id);
    let bound = job.bound;
    let done = job.complete();
    if done {
        shared.wake.notify_all();
    }
    ack_json(bound, false, false, Some(true))
}

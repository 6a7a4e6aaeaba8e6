//! The cluster worker: poll for a shard, run its chains on the local
//! portfolio engine, heartbeat while they run, report the outcome.
//!
//! One worker process drives one shard at a time over a single reused
//! binary-framed [`Connection`]. The connection is owned by the main
//! thread, which heartbeats on a timer while an executor thread runs the
//! chains; the two share a local
//! [`SearchBound`] (fed by gossip from heartbeat acks) and a
//! [`CancelToken`] (tripped when the coordinator revokes the lease or
//! cancels the job). Chains are side-effect-free, so abandoning a shard
//! mid-run needs no cleanup — the coordinator simply re-leases it.
//!
//! [`FaultPlan`] exists for the failover tests: a worker can be told to
//! die (drop the connection without reporting) or stall (go silent past
//! its lease, then report late) after a set number of chains, exercising
//! lease expiry, reassignment, and first-write-wins deduplication
//! exactly as a real crash or hang would — both are TCP-observable in
//! the same way.

use std::io;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use salsa_alloc::{
    run_chain_slots, AllocError, CancelToken, ChainOutcome, SearchBound, SearchWatch, ShardBest,
};
use salsa_cdfg::parse_cdfg;
use salsa_serve::json::Json;
use salsa_serve::knobs_from_json;
use salsa_wire::{Backoff, Connection, Protocol};

use crate::plan::plan_job;
use crate::protocol::{bound_from_json, bound_to_json, chain_to_json, image_to_json};

/// Injected failure behaviour, for the failover tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// Behave normally.
    None,
    /// After running this many chains (across the worker's lifetime),
    /// drop the connection and exit without reporting — a crash.
    ExitAfterChains(usize),
    /// After running this many chains, go silent (no heartbeats) for
    /// `stall_ms` before reporting — a hang that outlives the lease.
    /// Triggers once; the worker behaves normally afterwards.
    StallAfterChains {
        /// Chains to run before stalling.
        chains: usize,
        /// How long to stay silent, in milliseconds.
        stall_ms: u64,
    },
}

/// Worker tuning.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address, e.g. `"127.0.0.1:7742"`.
    pub addr: String,
    /// Worker name, carried in every request (lease bookkeeping, logs).
    pub name: String,
    /// Idle poll fallback when the coordinator sends no retry hint.
    pub poll_ms: u64,
    /// Heartbeat period while a shard is running. Keep this a small
    /// fraction of the coordinator's lease.
    pub heartbeat_ms: u64,
    /// Injected failure behaviour ([`FaultPlan::None`] in production).
    pub fault: FaultPlan,
    /// Give up after this many consecutive failed connection attempts
    /// (the coordinator is gone for good, not just restarting).
    pub max_reconnects: u32,
}

impl WorkerConfig {
    /// A production-default configuration for `addr`.
    pub fn new(addr: impl Into<String>, name: impl Into<String>) -> WorkerConfig {
        WorkerConfig {
            addr: addr.into(),
            name: name.into(),
            poll_ms: 25,
            heartbeat_ms: 250,
            fault: FaultPlan::None,
            max_reconnects: 40,
        }
    }
}

/// Why a connection ended deliberately (I/O errors surface as `Err` and
/// trigger a reconnect instead).
enum Exit {
    /// Coordinator told us to shut down.
    Shutdown,
    /// Injected fault: die now.
    Fault,
}

/// Deterministic per-name seed for the reconnect backoff (FNV-1a), so a
/// fleet restarting together does not retry in lockstep.
fn seed_from_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Runs a worker until the coordinator shuts it down, an injected fault
/// kills it, or the coordinator stays unreachable past the reconnect
/// budget.
pub fn run_worker(config: WorkerConfig) -> io::Result<()> {
    let mut backoff = Backoff::new(
        seed_from_name(&config.name),
        Duration::from_millis(50),
        Duration::from_secs(2),
    );
    let mut chains_done = 0usize;
    let mut stalled = false;
    loop {
        match Connection::connect(&config.addr, Protocol::Binary) {
            Ok(conn) => {
                backoff.reset();
                match serve_connection(&config, conn, &mut chains_done, &mut stalled) {
                    Ok(Exit::Shutdown) | Ok(Exit::Fault) => return Ok(()),
                    Err(_) => {}
                }
            }
            Err(e) => {
                if backoff.attempts() >= config.max_reconnects {
                    return Err(e);
                }
            }
        }
        std::thread::sleep(backoff.next_delay());
    }
}

/// How a job loop hands control back to the connection loop.
enum JobEnd {
    /// Stop the worker entirely (shutdown or injected fault).
    Exit(Exit),
    /// The coordinator answered with something other than another shard
    /// of the same job (a different job, idle, shutdown); the connection
    /// loop should process this reply instead of polling again.
    Switch(Json),
    /// The prepared state was consumed (prepare failed, or the cancel
    /// token tripped mid-shard); poll fresh and re-prepare if assigned.
    Repoll,
}

fn poll_message(config: &WorkerConfig) -> Json {
    Json::obj(vec![
        ("cmd", Json::Str("poll".into())),
        ("worker", Json::Str(config.name.clone())),
    ])
}

fn serve_connection(
    config: &WorkerConfig,
    mut conn: Connection,
    chains_done: &mut usize,
    stalled: &mut bool,
) -> io::Result<Exit> {
    // A reply already in hand (the job loop's last poll answer) is
    // consumed before polling again — no request is ever duplicated.
    let mut pending: Option<Json> = None;
    loop {
        let reply = match pending.take() {
            Some(reply) => reply,
            None => conn.call(&poll_message(config))?,
        };
        match reply.get("status").and_then(Json::as_str) {
            Some("shutdown") => return Ok(Exit::Shutdown),
            Some("assign") => match run_job(config, &mut conn, reply, chains_done, stalled)? {
                JobEnd::Exit(exit) => return Ok(exit),
                JobEnd::Switch(next) => pending = Some(next),
                JobEnd::Repoll => {}
            },
            Some("idle") => {
                let hint = reply.get("retry_after_ms").and_then(Json::as_u64);
                std::thread::sleep(Duration::from_millis(hint.unwrap_or(config.poll_ms).max(1)));
            }
            _ => std::thread::sleep(Duration::from_millis(config.poll_ms.max(1))),
        }
    }
}

/// Runs every consecutive shard of one job from a single prepared search
/// context. Parsing the CDFG, force-directed scheduling, and compiling
/// the move plan are identical for every shard of a job, so the worker
/// pays them once per job instead of once per shard — on short jobs that
/// preparation, not the chains, used to dominate the shard turnaround.
fn run_job(
    config: &WorkerConfig,
    conn: &mut Connection,
    first_assign: Json,
    chains_done: &mut usize,
    stalled: &mut bool,
) -> io::Result<JobEnd> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("bad assign: {what}"));
    let job_id = first_assign.get("job").and_then(Json::as_u64).ok_or_else(|| bad("job"))?;
    let first_shard =
        first_assign.get("shard").and_then(Json::as_u64).ok_or_else(|| bad("shard"))?;
    let cdfg_text = first_assign.get("cdfg").and_then(Json::as_str).ok_or_else(|| bad("cdfg"))?;
    let knobs_json = first_assign.get("knobs").ok_or_else(|| bad("knobs"))?;

    // Prepare the job exactly as the coordinator (and the local path)
    // does. A deterministic failure here would fail on every worker, so
    // report it as a job error instead of letting the shard bounce
    // between workers forever.
    let prepared = (|| {
        let graph = parse_cdfg(cdfg_text).map_err(|e| format!("cdfg did not parse: {e}"))?;
        let knobs = knobs_from_json(knobs_json).map_err(|e| e.message)?;
        let plan = plan_job(&graph, &knobs).map_err(|e| e.message)?;
        Ok::<_, String>((graph, knobs, plan))
    })();
    let (graph, knobs, plan) = match prepared {
        Ok(prepared) => prepared,
        Err(message) => {
            report_shard_error(config, conn, job_id, first_shard, message)?;
            return Ok(JobEnd::Repoll);
        }
    };
    let cancel = CancelToken::new();
    let allocator = plan.allocator(&graph, Some(cancel.clone()));
    let (ctx, improve_config) = match allocator.prepare() {
        Ok(prepared) => prepared,
        Err(e) => {
            report_shard_error(config, conn, job_id, first_shard, e.to_string())?;
            return Ok(JobEnd::Repoll);
        }
    };

    let mut assign = first_assign;
    loop {
        let shard_id = assign.get("shard").and_then(Json::as_u64).ok_or_else(|| bad("shard"))?;
        let slot_start = assign
            .get("slot_start")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("slot_start"))? as usize;
        let slot_end =
            assign.get("slot_end").and_then(Json::as_u64).ok_or_else(|| bad("slot_end"))? as usize;
        let cutoff = assign.get("cutoff").and_then(Json::as_f64);
        let min_trials = assign.get("min_trials").and_then(Json::as_u64).unwrap_or(2) as usize;
        let heartbeat = Duration::from_millis(config.heartbeat_ms.max(1));

        let local_bound = SearchBound::new();
        let initial_bound = bound_from_json(assign.get("bound"));
        if initial_bound != u64::MAX {
            local_bound.publish(initial_bound);
        }

        // Executor thread runs the chains; this thread keeps the lease
        // alive and relays bound gossip until it finishes. Completion is
        // signalled through a condvar, so the monitor sleeps in
        // heartbeat-sized stretches and wakes the instant the chains end
        // — polling `is_finished` on a millisecond timer both delayed
        // the result report by the poll quantum and, on a single-CPU
        // host, measurably preempted the executor's move loop.
        type ShardResult<'a> = Result<(Vec<ChainOutcome>, ShardBest<'a>), AllocError>;
        let finished = (Mutex::new(false), Condvar::new());
        let result: ShardResult<'_> = std::thread::scope(|scope| {
            let handle = {
                let local_bound = &local_bound;
                let ctx = &ctx;
                let improve_config = &improve_config;
                let finished = &finished;
                scope.spawn(move || {
                    let watch = cutoff.map(|factor| SearchWatch {
                        bound: local_bound,
                        cutoff_factor: factor,
                        min_trials,
                    });
                    let result = run_chain_slots(
                        ctx,
                        improve_config,
                        knobs.seed,
                        slot_start..slot_end,
                        watch.as_ref(),
                    );
                    *finished.0.lock().expect("finish flag") = true;
                    finished.1.notify_all();
                    result
                })
            };
            let mut last_beat = Instant::now();
            loop {
                let wait = heartbeat.saturating_sub(last_beat.elapsed());
                let flag = finished.0.lock().expect("finish flag");
                let (flag, _) = finished.1.wait_timeout(flag, wait).expect("finish flag");
                let done = *flag;
                drop(flag);
                if done {
                    break;
                }
                if last_beat.elapsed() >= heartbeat {
                    last_beat = Instant::now();
                    let beat = Json::obj(vec![
                        ("cmd", Json::Str("heartbeat".into())),
                        ("worker", Json::Str(config.name.clone())),
                        ("job", Json::Int(job_id as i64)),
                        ("shard", Json::Int(shard_id as i64)),
                        ("bound", bound_to_json(local_bound.get())),
                    ]);
                    match conn.call(&beat) {
                        Ok(ack) => {
                            let gossip = bound_from_json(ack.get("bound"));
                            if gossip != u64::MAX {
                                local_bound.publish(gossip);
                            }
                            let revoked =
                                ack.get("revoked").and_then(Json::as_bool).unwrap_or(false);
                            let cancelled =
                                ack.get("cancelled").and_then(Json::as_bool).unwrap_or(false);
                            if revoked || cancelled {
                                cancel.cancel();
                            }
                        }
                        // Connection trouble: abandon the shard; the
                        // lease will expire and someone else takes it.
                        Err(_) => cancel.cancel(),
                    }
                }
            }
            handle.join().expect("shard executor")
        });
        let final_bound = local_bound.get();

        match result {
            Ok((chains, best)) => {
                *chains_done += chains.len();
                match config.fault {
                    FaultPlan::ExitAfterChains(limit) if *chains_done >= limit => {
                        // Die without reporting: the connection drops,
                        // the heartbeats stop, the lease expires.
                        return Ok(JobEnd::Exit(Exit::Fault));
                    }
                    FaultPlan::StallAfterChains { chains: limit, stall_ms }
                        if *chains_done >= limit && !*stalled =>
                    {
                        // Hang silently past the lease, then report late.
                        *stalled = true;
                        std::thread::sleep(Duration::from_millis(stall_ms));
                    }
                    _ => {}
                }
                let mut pairs = vec![
                    ("cmd", Json::Str("result".into())),
                    ("worker", Json::Str(config.name.clone())),
                    ("job", Json::Int(job_id as i64)),
                    ("shard", Json::Int(shard_id as i64)),
                    ("bound", bound_to_json(final_bound)),
                    ("chains", Json::Arr(chains.iter().map(chain_to_json).collect())),
                ];
                // Ship the shard's best binding so the coordinator can
                // rebuild the winner without replaying its chain.
                if let Some((slot, binding)) = &best {
                    pairs.push(("binding", image_to_json(*slot, &binding.to_parts())));
                }
                let report = Json::obj(pairs);
                let _ = conn.call(&report)?;
            }
            // Revoked or cancelled mid-shard: report nothing (the shard
            // is someone else's now). The cancel token is tripped for
            // good, so the prepared context is spent — re-prepare on the
            // next assignment.
            Err(AllocError::Cancelled) => return Ok(JobEnd::Repoll),
            Err(other) => {
                report_shard_error(config, conn, job_id, shard_id, other.to_string())?;
                return Ok(JobEnd::Repoll);
            }
        }

        // Ask for the next shard right away: if it belongs to the same
        // job, the prepared context serves it with zero setup cost.
        let reply = conn.call(&poll_message(config))?;
        let same_job = reply.get("status").and_then(Json::as_str) == Some("assign")
            && reply.get("job").and_then(Json::as_u64) == Some(job_id);
        if same_job {
            assign = reply;
        } else {
            return Ok(JobEnd::Switch(reply));
        }
    }
}

fn report_shard_error(
    config: &WorkerConfig,
    conn: &mut Connection,
    job_id: u64,
    shard_id: u64,
    message: String,
) -> io::Result<()> {
    let report = Json::obj(vec![
        ("cmd", Json::Str("result".into())),
        ("worker", Json::Str(config.name.clone())),
        ("job", Json::Int(job_id as i64)),
        ("shard", Json::Int(shard_id as i64)),
        ("error", Json::Str(message)),
    ]);
    let _ = conn.call(&report)?;
    Ok(())
}

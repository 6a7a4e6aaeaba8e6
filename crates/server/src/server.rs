//! The TCP service: a poll-based I/O core, the fixed worker pool, and
//! graceful drain-then-exit shutdown.
//!
//! Thread layout:
//!
//! ```text
//! net-io thread ── one nonblocking readiness loop over every
//!                  connection (accept, hello, split frames,
//!                  dispatch); cache hits, stats, ping
//!                  and admission-control decisions answered inline,
//!                  misses pushed to the bounded queue (or rejected
//!                  with backpressure) carrying the reply handle
//! worker pool (fixed) ── pop → schedule → portfolio search under the
//!                        job's deadline token → build the response
//!                        payload → cache → complete the reply handle
//! ```
//!
//! The I/O loop lives in [`salsa_wire::net`]; this module supplies the
//! dispatch handler. Responses are [`Payload`]s — one JSON document with
//! a lazily cached binary rendering — so the byte-replay cache serves
//! every client identical bytes from one entry, and pipelined clients
//! get per-request correlation ids.
//!
//! Shutdown (via [`Server::begin_shutdown`] or the wire `shutdown`
//! command) closes the queue: no new admissions, queued jobs still run
//! to completion, workers exit when the queue drains, and the I/O loop
//! exits once every outstanding reply is flushed; [`Server::join`]
//! collects everything.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use salsa_alloc::CancelToken;
use salsa_audit::VerifyMode;
use salsa_wire::frame::Payload;
use salsa_wire::net::{Handler, NetConfig, NetMetrics, NetServer, ReplyHandle};

use crate::admission::AdmissionCache;
use crate::cache::ResultCache;
use crate::exec::run_artifact;
use crate::json::Json;
use crate::protocol::{
    cache_key, error_response, ok_response_keyed, parse_command, rejected_response, Command,
    ErrorKind, Knobs, ServeError,
};
use crate::queue::{JobQueue, PushError};
use crate::similarity::{build_warm_spec, SeedEntry, SeedIndex};
use crate::stats::ServerStats;
use crate::verifier::{
    certificate_json, certify_job, parse_trace_id, result_fingerprint, set_cache_provenance,
    CertEntry, LaneJob, VerdictCache, VerifyJob,
};

/// Service tuning. All fields have serviceable defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Fixed allocation worker pool size (min 1).
    pub workers: usize,
    /// Bounded job-queue capacity; pushes beyond it are rejected with
    /// backpressure (min 1).
    pub queue_capacity: usize,
    /// Result-cache capacity, in responses (min 1).
    pub cache_capacity: usize,
    /// Deadline applied to jobs that do not carry their own
    /// `timeout_ms` (`None` = unbounded).
    pub default_timeout_ms: Option<u64>,
    /// The `retry_after_ms` hint sent with backpressure rejections.
    pub retry_after_ms: u64,
    /// Max pipelined requests in flight per connection; beyond it the
    /// wire core answers with the same backpressure rejection (0 =
    /// unlimited).
    pub max_in_flight: usize,
    /// Evict connections idle (no traffic, no pending work) for this
    /// long (`None` = never).
    pub idle_timeout_ms: Option<u64>,
    /// Verifier-lane worker pool size (min 1). The lane only runs for
    /// jobs submitted with `verify: sample|full`; keeping it small and
    /// separate means symbolic replay never occupies an allocation
    /// worker.
    pub verify_workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 64,
            default_timeout_ms: None,
            retry_after_ms: 200,
            max_in_flight: 64,
            idle_timeout_ms: Some(60_000),
            verify_workers: 1,
        }
    }
}

/// One queued allocation job. The design is admitted (artifact resolved,
/// warm seed attached, cache consulted) at dispatch, so workers only
/// ever see well-formed work. The reply handle completes the originating
/// request on its connection.
struct Job {
    artifact: Arc<crate::admission::AdmissionArtifact>,
    knobs: Knobs,
    key: u128,
    deadline: Option<Instant>,
    accepted_at: Instant,
    reply: ReplyHandle,
}

struct Shared {
    queue: JobQueue<Job>,
    verify_queue: JobQueue<LaneJob>,
    cache: ResultCache,
    verdicts: VerdictCache,
    admission: AdmissionCache,
    seeds: SeedIndex,
    warm_seeded: AtomicU64,
    reallocs: AtomicU64,
    stats: ServerStats,
    vstats: ServerStats,
    shutdown: Arc<AtomicBool>,
    wire: Arc<NetMetrics>,
    config: ServerConfig,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Only the admission queue closes here: jobs already through
        // allocation must still reach the verifier lane, which drains
        // after the allocation workers exit (see Server::join).
        self.queue.close();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running allocation service. Bind with [`Server::bind`], stop with
/// [`Server::shutdown`] (or the wire `shutdown` command followed by
/// [`Server::join`]).
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    net: Option<NetServer>,
    workers: Vec<JoinHandle<()>>,
    verifiers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an OS-assigned port) and
    /// starts the I/O loop and worker threads.
    pub fn bind(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let wire = Arc::new(NetMetrics::default());
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            verify_queue: JobQueue::new(config.queue_capacity),
            cache: ResultCache::new(config.cache_capacity),
            verdicts: VerdictCache::new(config.cache_capacity),
            admission: AdmissionCache::new(config.cache_capacity),
            seeds: SeedIndex::new(config.cache_capacity),
            warm_seeded: AtomicU64::new(0),
            reallocs: AtomicU64::new(0),
            stats: ServerStats::new(),
            vstats: ServerStats::new(),
            shutdown: Arc::clone(&shutdown),
            wire: Arc::clone(&wire),
            config: config.clone(),
        });

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("salsa-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let verifiers = (0..config.verify_workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("salsa-verify-worker-{i}"))
                    .spawn(move || verifier_loop(&shared))
                    .expect("spawn verifier")
            })
            .collect();

        let handler_shared = Arc::clone(&shared);
        let handler: Handler =
            Box::new(move |request, handle| dispatch(&handler_shared, request, handle));
        let net_config = NetConfig {
            shutdown,
            in_flight_limit: (config.max_in_flight > 0)
                .then(|| (config.max_in_flight, rejected_response(config.retry_after_ms))),
            idle_timeout: config.idle_timeout_ms.map(Duration::from_millis),
            metrics: wire,
        };
        let net = NetServer::bind(addr, net_config, handler)?;
        let local_addr = net.local_addr();

        Ok(Server { local_addr, shared, net: Some(net), workers, verifiers })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Starts the graceful drain: stop admitting, finish what is queued.
    /// Idempotent; does not block.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for the service to exit: the I/O loop (which drains every
    /// outstanding reply before stopping) and every worker. Blocks until
    /// the wire `shutdown` command or
    /// [`begin_shutdown`](Server::begin_shutdown) triggers the drain.
    pub fn join(mut self) {
        if let Some(net) = self.net.take() {
            net.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Only after the allocation workers exit can no new verify jobs
        // appear; close the lane and let it finish what is queued.
        self.shared.verify_queue.close();
        for verifier in self.verifiers.drain(..) {
            let _ = verifier.join();
        }
    }

    /// Convenience: [`begin_shutdown`](Server::begin_shutdown) then
    /// [`join`](Server::join).
    pub fn shutdown(self) {
        self.begin_shutdown();
        self.join();
    }
}

fn payload(json: Json) -> Arc<Payload> {
    Arc::new(Payload::new(json))
}

/// The wire dispatch handler, run on the I/O thread. Everything cheap is
/// answered inline; allocation misses carry their reply handle into the
/// worker queue.
fn dispatch(shared: &Arc<Shared>, request: Json, handle: ReplyHandle) {
    let command = match parse_command(&request) {
        Ok(command) => command,
        Err(e) => {
            handle.send(payload(error_response(&e)));
            return;
        }
    };
    match command {
        Command::Ping => handle.send(payload(Json::obj(vec![
            ("status", Json::Str("ok".into())),
            ("pong", Json::Bool(true)),
        ]))),
        Command::Stats => handle.send(payload(stats_response(shared))),
        Command::Shutdown => {
            shared.begin_shutdown();
            handle.send_then_close(payload(Json::obj(vec![
                ("status", Json::Str("ok".into())),
                ("shutting_down", Json::Bool(true)),
            ])));
        }
        Command::Allocate(request) => {
            handle_allocate(shared, request.source, request.knobs, request.timeout_ms, None, handle)
        }
        Command::Reallocate(realloc) => {
            let request = realloc.request;
            handle_allocate(
                shared,
                request.source,
                request.knobs,
                request.timeout_ms,
                Some(realloc.base),
                handle,
            )
        }
        Command::Trace(id) => {
            // The verdict cache keeps no trace text: the artifact is
            // re-recorded on the verifier lane, never on this thread.
            let Some(entry) =
                parse_trace_id(&id).and_then(|trace_id| shared.verdicts.get_by_trace(trace_id))
            else {
                handle.send(payload(error_response(&ServeError::new(
                    ErrorKind::BadRequest,
                    format!("unknown trace id '{id}' (certificates are cached; re-run the job)"),
                ))));
                return;
            };
            match shared.verify_queue.try_push(LaneJob::Trace { entry, reply: handle }) {
                Err(PushError::Full(LaneJob::Trace { reply, .. })) => {
                    reply.send(payload(rejected_response(shared.config.retry_after_ms)));
                }
                Err(PushError::Closed(LaneJob::Trace { reply, .. })) => {
                    let err = ServeError::new(ErrorKind::ShuttingDown, "server is draining");
                    reply.send(payload(error_response(&err)));
                }
                _ => {}
            }
        }
    }
}

fn handle_allocate(
    shared: &Arc<Shared>,
    source: crate::protocol::GraphSource,
    mut knobs: Knobs,
    timeout_ms: Option<u64>,
    base: Option<u128>,
    handle: ReplyHandle,
) {
    if shared.shutting_down() {
        let err = ServeError::new(ErrorKind::ShuttingDown, "server is draining; not accepting jobs");
        handle.send(payload(error_response(&err)));
        return;
    }
    let artifact = match shared.admission.resolve(&source) {
        Ok(artifact) => artifact,
        Err(e) => {
            handle.send(payload(error_response(&e)));
            return;
        }
    };

    // Warm-start attachment happens *before* the cache key is computed:
    // the seed is part of the job's search identity, so a warm job and
    // its cold twin occupy distinct cache slots and can never alias.
    if knobs.warm.is_none() {
        if let Some(base_key) = base {
            // The explicit `reallocate` verb: seed from a named prior
            // winner, or fail loudly — silently running cold would hide
            // an expired base id from an incremental flow.
            match shared.seeds.peek(base_key) {
                Some(entry) => {
                    let distance = artifact.sketch.distance(&entry.sketch);
                    knobs.warm =
                        Some(Arc::new(build_warm_spec(&entry, &artifact.graph, distance)));
                    shared.reallocs.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    let err = ServeError::new(
                        ErrorKind::BadRequest,
                        format!(
                            "unknown base job '{base_key:032x}' (the seed index keeps recent \
                             winners only; resubmit as 'allocate')"
                        ),
                    );
                    handle.send(payload(error_response(&err)));
                    return;
                }
            }
        } else if let Some((entry, distance)) = shared.seeds.nearest(&artifact.sketch) {
            // Transparent similarity seeding — but never from the same
            // design: an identical resubmission is either an exact cache
            // hit (same knobs) or a deliberate knob change whose cold
            // result must stay reproducible and verdict-cache-shareable.
            if entry.graph != artifact.graph {
                knobs.warm = Some(Arc::new(build_warm_spec(&entry, &artifact.graph, distance)));
                shared.warm_seeded.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    let key = cache_key(&artifact.canonical_text, &knobs);
    if let Some(hit) = shared.cache.get(key) {
        // Exact hit: replay the stored payload — byte-verbatim, since
        // the rendering lives in the payload itself.
        handle.send(hit);
        return;
    }

    let deadline = timeout_ms
        .or(shared.config.default_timeout_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let job = Job { artifact, knobs, key, deadline, accepted_at: Instant::now(), reply: handle };
    match shared.queue.try_push(job) {
        Ok(()) => shared.stats.record_accepted(),
        Err(PushError::Full(job)) => {
            shared.stats.record_rejected();
            job.reply.send(payload(rejected_response(shared.config.retry_after_ms)));
        }
        Err(PushError::Closed(job)) => {
            let err =
                ServeError::new(ErrorKind::ShuttingDown, "server is draining; not accepting jobs");
            job.reply.send(payload(error_response(&err)));
        }
    }
}

fn stats_response(shared: &Arc<Shared>) -> Json {
    let snap = shared.stats.snapshot();
    let vsnap = shared.vstats.snapshot();
    let cache = &shared.cache;
    let wire = &shared.wire;
    let w = |counter: &std::sync::atomic::AtomicU64| Json::Int(counter.load(Ordering::Relaxed) as i64);
    Json::obj(vec![
        ("status", Json::Str("ok".into())),
        (
            "stats",
            Json::obj(vec![
                ("accepted", Json::Int(snap.accepted as i64)),
                ("rejected", Json::Int(snap.rejected as i64)),
                ("completed", Json::Int(snap.completed as i64)),
                ("failed", Json::Int(snap.failed as i64)),
                ("timeouts", Json::Int(snap.timeouts as i64)),
                (
                    "cache",
                    Json::obj(vec![
                        ("hits", Json::Int(cache.hits() as i64)),
                        ("misses", Json::Int(cache.misses() as i64)),
                        ("evictions", Json::Int(cache.evictions() as i64)),
                        ("entries", Json::Int(cache.len() as i64)),
                        ("hit_rate", Json::Float(cache.hit_rate())),
                    ]),
                ),
                (
                    "queue",
                    Json::obj(vec![
                        ("depth", Json::Int(shared.queue.depth() as i64)),
                        ("capacity", Json::Int(shared.queue.capacity() as i64)),
                    ]),
                ),
                (
                    "wire",
                    Json::obj(vec![
                        ("bytes_in", w(&wire.bytes_in)),
                        ("bytes_out", w(&wire.bytes_out)),
                        ("frames_in", w(&wire.frames_in)),
                        ("frames_out", w(&wire.frames_out)),
                        ("conns_opened", w(&wire.conns_opened)),
                        ("conns_active", w(&wire.conns_active)),
                        ("idle_evicted", w(&wire.idle_evicted)),
                    ]),
                ),
                (
                    "latency_ms",
                    Json::obj(vec![
                        ("p50", Json::Float(snap.p50_ms)),
                        ("p95", Json::Float(snap.p95_ms)),
                        ("p99", Json::Float(snap.p99_ms)),
                        ("samples", Json::Int(snap.samples as i64)),
                    ]),
                ),
                (
                    "verifier",
                    Json::obj(vec![
                        ("workers", Json::Int(shared.config.verify_workers.max(1) as i64)),
                        ("queue_depth", Json::Int(shared.verify_queue.depth() as i64)),
                        ("verified", Json::Int(vsnap.completed as i64)),
                        ("failed", Json::Int(vsnap.failed as i64)),
                        (
                            "cache",
                            Json::obj(vec![
                                ("hits", Json::Int(shared.verdicts.hits() as i64)),
                                ("misses", Json::Int(shared.verdicts.misses() as i64)),
                                ("entries", Json::Int(shared.verdicts.len() as i64)),
                            ]),
                        ),
                        (
                            "latency_ms",
                            Json::obj(vec![
                                ("p50", Json::Float(vsnap.p50_ms)),
                                ("p95", Json::Float(vsnap.p95_ms)),
                                ("p99", Json::Float(vsnap.p99_ms)),
                                ("samples", Json::Int(vsnap.samples as i64)),
                            ]),
                        ),
                    ]),
                ),
                (
                    "warm",
                    Json::obj(vec![
                        ("seeds", Json::Int(shared.seeds.len() as i64)),
                        ("seed_hits", Json::Int(shared.seeds.hits() as i64)),
                        ("seed_misses", Json::Int(shared.seeds.misses() as i64)),
                        ("seeded", w(&shared.warm_seeded)),
                        ("reallocations", w(&shared.reallocs)),
                        (
                            "admission",
                            Json::obj(vec![
                                ("hits", Json::Int(shared.admission.hits() as i64)),
                                ("misses", Json::Int(shared.admission.misses() as i64)),
                                ("entries", Json::Int(shared.admission.len() as i64)),
                            ]),
                        ),
                    ]),
                ),
                ("workers", Json::Int(shared.config.workers as i64)),
            ]),
        ),
    ])
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        process_job(shared, job);
    }
}

fn process_job(shared: &Arc<Shared>, job: Job) {
    let cancel = job.deadline.map(CancelToken::with_deadline);
    let outcome = run_artifact(&job.artifact, &job.knobs, cancel);
    let latency = job.accepted_at.elapsed();
    let body = match outcome {
        Ok((report, winner)) => {
            shared.stats.record_completed(latency);
            // Bank the winner so future near-duplicate designs
            // warm-start from it. The job key doubles as the
            // `reallocate` base id the response carries.
            let cost = report.get("cost").and_then(Json::as_u64).unwrap_or(0);
            let entry = SeedEntry {
                key: job.key,
                graph: Arc::clone(&job.artifact.graph),
                parts: winner,
                cost,
                sketch: Arc::clone(&job.artifact.sketch),
            };
            shared.seeds.insert(job.key, Arc::new(entry));
            if job.knobs.verify != VerifyMode::Off {
                // Hand the completed report (and the reply) to the
                // verifier lane; this worker goes straight back to
                // allocation. The response is not cached yet — the
                // cached payload for a verifying job must carry its
                // certificate.
                let handoff = VerifyJob {
                    artifact: job.artifact,
                    knobs: job.knobs,
                    key: job.key,
                    accepted_at: job.accepted_at,
                    reply: job.reply,
                    report,
                };
                if let Err(PushError::Full(LaneJob::Certify(missed)))
                | Err(PushError::Closed(LaneJob::Certify(missed))) =
                    shared.verify_queue.push_wait(LaneJob::Certify(handoff))
                {
                    // Shutdown race: the lane is gone, so answer
                    // uncertified rather than dropping the reply (and
                    // leave the cache alone).
                    missed.reply.send(payload(ok_response_keyed(missed.report, missed.key)));
                }
                return;
            }
            let body = payload(ok_response_keyed(report, job.key));
            shared.cache.insert(job.key, Arc::clone(&body));
            body
        }
        Err(err) => {
            if err.kind == ErrorKind::Timeout {
                shared.stats.record_timeout(latency);
            } else {
                shared.stats.record_failed(latency);
            }
            payload(error_response(&err))
        }
    };
    // The client may have disconnected while waiting; the handle is a
    // no-op then.
    job.reply.send(body);
}

fn verifier_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.verify_queue.pop() {
        match job {
            LaneJob::Certify(job) => process_verify(shared, job),
            LaneJob::Trace { entry, reply } => {
                let response = match entry.trace_artifact() {
                    Ok(artifact) => Json::obj(vec![
                        ("status", Json::Str("ok".into())),
                        ("artifact", artifact.to_json()),
                    ]),
                    Err(err) => error_response(&err),
                };
                reply.send(payload(response));
            }
        }
    }
}

/// Certifies one completed allocation and completes its reply: verdict
/// cache lookup by result fingerprint, the full record/replay/verify
/// pipeline on a miss, then the certified response is cached under the
/// job's result key and sent.
fn process_verify(shared: &Arc<Shared>, job: VerifyJob) {
    let started = Instant::now();
    let mode = job.knobs.verify;
    let mut canonical = job.report.clone();
    crate::report::canonicalize_report(&mut canonical);
    // The artifact already holds the rendered canonical text — the lane
    // neither re-parses nor re-renders what admission produced.
    let fingerprint =
        result_fingerprint(&job.artifact.canonical_text, &canonical.to_string_compact(), mode);

    let (entry, provenance) = match shared.verdicts.get(fingerprint) {
        Some(hit) => (hit, "hit"),
        None => match certify_job(&job.artifact.graph, &job.knobs, &job.report) {
            Ok((cert, artifact)) => {
                let verify_ms = started.elapsed().as_secs_f64() * 1e3;
                let entry = Arc::new(CertEntry {
                    trace_id: cert.trace.fingerprint(),
                    certificate: certificate_json(&cert, mode, verify_ms, "miss"),
                    admission: Arc::clone(&job.artifact),
                    knobs: job.knobs.clone(),
                    slot: artifact.slot,
                    cost: artifact.cost,
                    report: artifact.report,
                });
                shared.verdicts.insert(fingerprint, Arc::clone(&entry));
                (entry, "miss")
            }
            Err(err) => {
                shared.vstats.record_failed(started.elapsed());
                job.reply.send(payload(error_response(&err)));
                return;
            }
        },
    };

    let mut certificate = entry.certificate.clone();
    set_cache_provenance(&mut certificate, provenance);
    let mut report = job.report;
    if let Json::Obj(pairs) = &mut report {
        pairs.push(("certificate".to_string(), certificate));
    }
    let body = payload(ok_response_keyed(report, job.key));
    shared.cache.insert(job.key, Arc::clone(&body));
    // The lane's reservoir tracks verification latency only; the job's
    // end-to-end latency was recorded by the allocation worker.
    shared.vstats.record_completed(started.elapsed());
    job.reply.send(body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use salsa_wire::{Connection, Protocol};

    fn connect(server: &Server) -> Connection {
        Connection::connect(&server.local_addr().to_string(), Protocol::Binary).unwrap()
    }

    fn roundtrip(conn: &mut Connection, request: &str) -> Json {
        conn.call(&parse_json(request).unwrap()).unwrap()
    }

    #[test]
    fn ping_stats_and_shutdown_over_the_wire() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut conn = connect(&server);

        let pong = roundtrip(&mut conn, r#"{"cmd":"ping"}"#);
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

        let stats = roundtrip(&mut conn, r#"{"cmd":"stats"}"#);
        let body = stats.get("stats").expect("stats body");
        assert_eq!(body.get("accepted").and_then(Json::as_u64), Some(0));
        assert_eq!(
            body.get("queue").and_then(|q| q.get("capacity")).and_then(Json::as_u64),
            Some(ServerConfig::default().queue_capacity as u64)
        );
        // The wire counters are live: this connection's traffic shows up.
        let wire = body.get("wire").expect("wire counters");
        assert!(wire.get("bytes_in").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(wire.get("conns_opened").and_then(Json::as_u64), Some(1));

        let bye = roundtrip(&mut conn, r#"{"cmd":"shutdown"}"#);
        assert_eq!(bye.get("shutting_down").and_then(Json::as_bool), Some(true));
        server.join();
    }

    #[test]
    fn verify_full_certifies_and_serves_the_trace_artifact() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut conn = connect(&server);

        let response = roundtrip(
            &mut conn,
            r#"{"cmd":"allocate","bench":"paper_example","restarts":2,"threads":2,"verify":"full"}"#,
        );
        assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
        let report = response.get("report").expect("report");
        let cert = report.get("certificate").expect("certificate section");
        assert_eq!(cert.get("verdict").and_then(Json::as_str), Some("certified"));
        assert_eq!(cert.get("mode").and_then(Json::as_str), Some("full"));
        assert_eq!(cert.get("cache").and_then(Json::as_str), Some("miss"));
        assert!(cert.get("commits").and_then(Json::as_u64).unwrap() > 0);
        assert!(cert.get("verify_ms").and_then(Json::as_f64).is_some());
        let trace_id = cert.get("trace_id").and_then(Json::as_str).unwrap().to_string();

        // The artifact behind the certificate is served by `trace`, and
        // its embedded report is the canonical form of the live one.
        let traced = roundtrip(&mut conn, &format!(r#"{{"cmd":"trace","id":"{trace_id}"}}"#));
        assert_eq!(traced.get("status").and_then(Json::as_str), Some("ok"));
        let artifact = traced.get("artifact").expect("artifact");
        assert_eq!(
            artifact.get("format").and_then(Json::as_str),
            Some(salsa_audit::ARTIFACT_FORMAT)
        );
        let mut canonical = report.clone();
        if let Json::Obj(pairs) = &mut canonical {
            pairs.retain(|(k, _)| k != "certificate");
        }
        crate::report::canonicalize_report(&mut canonical);
        assert_eq!(
            artifact.get("report").and_then(Json::as_str),
            Some(canonical.to_string_compact().as_str())
        );

        // A result-invariant knob change (a thread cap of 3 against 2 on
        // two restarts: both run two workers) is a fresh job but the same
        // result: the verdict comes from the cache.
        let replayed = roundtrip(
            &mut conn,
            r#"{"cmd":"allocate","bench":"paper_example","restarts":2,"threads":3,"verify":"full"}"#,
        );
        let cert2 = replayed.get("report").and_then(|r| r.get("certificate")).unwrap();
        assert_eq!(cert2.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(cert2.get("trace_id").and_then(Json::as_str), Some(trace_id.as_str()));

        // Unknown trace ids get a structured error; the stats response
        // shows the verifier lane's counters.
        let missing = roundtrip(&mut conn, r#"{"cmd":"trace","id":"00"}"#);
        assert_eq!(missing.get("status").and_then(Json::as_str), Some("error"));
        let stats = roundtrip(&mut conn, r#"{"cmd":"stats"}"#);
        let verifier = stats.get("stats").and_then(|s| s.get("verifier")).expect("verifier");
        assert_eq!(verifier.get("verified").and_then(Json::as_u64), Some(2));
        let vcache = verifier.get("cache").unwrap();
        assert_eq!(vcache.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(vcache.get("entries").and_then(Json::as_u64), Some(1));

        server.shutdown();
    }

    #[test]
    fn trace_after_a_verdict_cache_hit_replays() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut conn = connect(&server);
        let request = r#"{"cmd":"allocate","bench":"diffeq","restarts":2,"threads":2,"seed":9,"verify":"sample"}"#;
        let first = roundtrip(&mut conn, request);
        let cert = first.get("report").and_then(|r| r.get("certificate")).unwrap();
        assert_eq!(cert.get("cache").and_then(Json::as_str), Some("miss"));
        // Two restarts run two workers under a cap of 2 or 3: a fresh job
        // with the same result, so the verdict comes from the cache.
        let second = roundtrip(&mut conn, &request.replace(r#""threads":2"#, r#""threads":3"#));
        let cert = second.get("report").and_then(|r| r.get("certificate")).unwrap();
        assert_eq!(cert.get("cache").and_then(Json::as_str), Some("hit"));
        let trace_id = cert.get("trace_id").and_then(Json::as_str).unwrap();

        let traced = roundtrip(&mut conn, &format!(r#"{{"cmd":"trace","id":"{trace_id}"}}"#));
        assert_eq!(traced.get("status").and_then(Json::as_str), Some("ok"));
        let artifact =
            salsa_audit::TraceArtifact::from_json(traced.get("artifact").unwrap()).unwrap();
        let trace = artifact.decode_trace().expect("the served trace decodes");
        assert_eq!(crate::verifier::trace_id_hex(trace.fingerprint()), trace_id);
        let graph = salsa_cdfg::parse_cdfg(&artifact.design).unwrap();
        let knobs = crate::protocol::knobs_from_json(&artifact.knobs).unwrap();
        let replayed = crate::exec::with_replay_env(&graph, &knobs, |ctx, config| {
            salsa_alloc::replay_trace(ctx, config, &trace, salsa_alloc::ReplayCheck::Full)
                .map(|binding| binding.breakdown())
        })
        .unwrap();
        assert!(replayed.is_ok(), "the served trace replays: {replayed:?}");
        assert_eq!(trace.final_cost, artifact.cost);
        server.shutdown();
    }

    #[test]
    fn malformed_json_gets_a_structured_error_not_a_hangup() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut conn = connect(&server);
        // A well-framed document that is not a request object.
        let err = conn.call(&Json::Str("{not json".into())).unwrap();
        assert_eq!(err.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("bad-request"));
        // The connection survives the bad request.
        let pong = roundtrip(&mut conn, r#"{"cmd":"ping"}"#);
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
        server.shutdown();
    }

    #[test]
    fn duplicate_feedback_gets_a_parse_error_and_the_server_lives() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut conn = connect(&server);
        // A second feedback source for one state is parsed on the I/O
        // thread: a panic there would take the listener down with it.
        let design = "cdfg t\ninput x\nstate s\nop y = add x s\n\
                      feedback s <- y\nfeedback s <- y\noutput y\n";
        let request = Json::obj(vec![
            ("cmd", Json::Str("allocate".into())),
            ("cdfg", Json::Str(design.into())),
        ]);
        let err = conn.call(&request).unwrap();
        assert_eq!(err.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("parse"));
        assert_eq!(err.get("line").and_then(Json::as_i64), Some(6));
        // The same server still answers, on the same and a new connection.
        let pong = roundtrip(&mut conn, r#"{"cmd":"ping"}"#);
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
        let pong = roundtrip(&mut connect(&server), r#"{"cmd":"ping"}"#);
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
        server.shutdown();
    }
}

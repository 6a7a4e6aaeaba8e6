//! The `serve-mix` workload: an in-process `Server` on loopback driven by
//! two closed-loop clients, each holding one binary connection and
//! waiting for every reply before sending its next request.
//!
//! The seeded mix: about 75% repeats of completed jobs (result-cache
//! hits), 10% fresh designs with `verify: sample` (the verifier lane),
//! 10% fresh designs without (misses that run a full search) and 5%
//! one-op edits of completed jobs sent through `reallocate` (warm starts).

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use salsa_cdfg::{cdfg_to_text, random_cdfg, RandomCdfgConfig};
use salsa_serve::{Server, ServerConfig};
use salsa_wire::{Connection, Json, Protocol, WireCounts};

use crate::inproc::reproduce_service_jobs;
use crate::stats::{median, mix, percentile, ratio};
use crate::trace::Tracer;
use crate::Report;

/// Closed-loop clients, one per core of the reference host.
const CLIENTS: usize = 2;

/// Times the server is brought up; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// The paper designs primed into the result cache (the repeat targets and
/// the bases of the one-op edits), and whether each carries
/// `verify: sample`. Their search seeds are fixed, so the exact metrics
/// of this workload do not depend on the workload seed.
fn pool_designs() -> [(salsa_cdfg::Cdfg, bool); 6] {
    use salsa_cdfg::benchmarks::{ar_lattice, dct, diffeq, ewf, fft_stage, fir16};
    [
        (ewf(), false),
        (dct(), true),
        (fir16(), false),
        (ar_lattice(), false),
        (fft_stage(), true),
        (diffeq(), false),
    ]
}

/// Fresh designs pre-generated per client and request class. They
/// alternate between 20–39 and 40–60 operations, so each deck's two
/// verified and two plain fresh designs are one small and one large each.
const FRESH_PER_CLIENT: usize = 200;

/// One deck of request classes: about 75% hits, 10% verified fresh
/// designs, 10% plain fresh designs and 5% reallocations.
const DECK: [(Kind, usize); 4] = [
    (Kind::Hit, 15),
    (Kind::Verify, 2),
    (Kind::Miss, 2),
    (Kind::Realloc, 1),
];

/// Per-request deadline; a timeout is a failure.
const TIMEOUT_MS: i64 = 60_000;

/// The percentile reported as `job_tail_ms`.
const TAIL_PCT: f64 = 95.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Realloc,
    Verify,
}

impl Kind {
    fn tag(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Miss => "miss",
            Kind::Realloc => "realloc",
            Kind::Verify => "verify",
        }
    }
}

/// The workload's generated inputs.
struct Inputs {
    /// `(text, seed, verify)` of each primed design.
    pool: Vec<(String, u64, bool)>,
    /// Fresh design texts per client: `[verified, plain]`.
    fresh: Vec<[Vec<String>; 2]>,
    /// One-op edits `(pool index, edited text)`, one list per client.
    edits: Vec<Vec<(usize, String)>>,
}

fn scalar_design(ops: usize, seed: u64) -> String {
    let config = RandomCdfgConfig {
        ops,
        inputs: 3,
        states: 2,
        ..RandomCdfgConfig::default()
    };
    cdfg_to_text(&random_cdfg(&config, seed))
}

/// Every design one edit away from `text` that keeps its structure and
/// schedule length: one `sub` turned into an `add`, or one multiplier
/// coefficient changed.
///
/// Edits turning an `add` into a `sub` are left out: warm-starting such
/// an edit from the base job's winner can fail verification ("expected
/// operand ..."), apparently because the base binding may have swapped
/// the commutative add's operands.
fn one_op_edits(text: &str) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut edits = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let edited_line = if line.starts_with("op ") && line.contains(" = sub ") {
            line.replacen(" = sub ", " = add ", 1)
        } else if let Some((head, value)) = line
            .strip_prefix("const ")
            .and_then(|l| l.rsplit_once(" = "))
        {
            let Ok(value) = value.trim().parse::<i64>() else {
                continue;
            };
            format!("const {head} = {}", value + 64)
        } else {
            continue;
        };
        let mut edited: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        edited[i] = edited_line;
        edits.push(edited.join("\n") + "\n");
    }
    edits
}

fn make_inputs(seed: u64) -> Inputs {
    let pool: Vec<(String, u64, bool)> = pool_designs()
        .iter()
        .enumerate()
        .map(|(i, (graph, verify))| (cdfg_to_text(graph), 1 + i as u64, *verify))
        .collect();
    let mut rng = StdRng::seed_from_u64(mix(seed, 2000));
    let mut fresh_list = || -> Vec<String> {
        (0..FRESH_PER_CLIENT)
            .map(|j| {
                let ops = if j % 2 == 0 {
                    rng.gen_range(20..40)
                } else {
                    rng.gen_range(40..=60)
                };
                scalar_design(ops, rng.gen())
            })
            .collect()
    };
    let fresh = (0..CLIENTS).map(|_| [fresh_list(), fresh_list()]).collect();
    let mut all_edits: Vec<(usize, String)> = pool
        .iter()
        .enumerate()
        .flat_map(|(i, (text, _, _))| one_op_edits(text).into_iter().map(move |t| (i, t)))
        .collect();
    shuffle(&mut all_edits, &mut rng);
    let mut edits = vec![Vec::new(); CLIENTS];
    for (k, edit) in all_edits.into_iter().enumerate() {
        edits[k % CLIENTS].push(edit);
    }
    Inputs { pool, fresh, edits }
}

fn allocate_request(text: &str, seed: u64, verify: bool) -> Json {
    let mut fields = vec![
        ("cmd", Json::Str("allocate".into())),
        ("cdfg", Json::Str(text.into())),
        ("seed", Json::Int(seed as i64)),
        ("threads", Json::Int(1)),
        ("timeout_ms", Json::Int(TIMEOUT_MS)),
    ];
    if verify {
        fields.push(("verify", Json::Str("sample".into())));
    }
    Json::obj(fields)
}

fn reallocate_request(base: &str, text: &str, seed: u64) -> Json {
    Json::obj(vec![
        ("cmd", Json::Str("reallocate".into())),
        ("base", Json::Str(base.into())),
        ("cdfg", Json::Str(text.into())),
        ("seed", Json::Int(seed as i64)),
        ("threads", Json::Int(1)),
        ("timeout_ms", Json::Int(TIMEOUT_MS)),
    ])
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
    path.iter()
        .fold(doc, |node, key| node.get(key).unwrap_or(&Json::Null))
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    field(doc, path).as_f64().unwrap_or(0.0)
}

/// One primed, cache-resident job: the request that replays it and the
/// exact response a hit returns.
struct PoolEntry {
    request: Json,
    response: String,
    id: String,
    seed: u64,
    cost: u64,
    mux: u64,
}

fn call_ok(conn: &mut Connection, request: &Json) -> Result<Json, String> {
    let response = conn
        .call(request)
        .map_err(|e| format!("request failed: {e}"))?;
    match field(&response, &["status"]).as_str() {
        Some("ok") => Ok(response),
        _ => Err(format!("not ok: {}", response.to_string_compact())),
    }
}

/// Submits each pool design until its result is cached under its cold
/// key. A design warm-started from an earlier pool entry is resubmitted:
/// once its own winner is banked, the server seeds it from nothing, and
/// that cold result is what later repeats replay.
fn prime(conn: &mut Connection, designs: &[(String, u64, bool)]) -> Result<Vec<PoolEntry>, String> {
    let mut pool = Vec::with_capacity(designs.len());
    for (text, seed, verify) in designs {
        let request = allocate_request(text, *seed, *verify);
        let mut response = call_ok(conn, &request)?;
        for _ in 0..3 {
            if field(&response, &["report", "warm_start"]) == &Json::Null {
                break;
            }
            response = call_ok(conn, &request)?;
        }
        let replay = call_ok(conn, &request)?;
        let response = response.to_string_compact();
        if replay.to_string_compact() != response {
            return Err("a primed job does not replay from the result cache".into());
        }
        pool.push(PoolEntry {
            id: field(&replay, &["id"])
                .as_str()
                .unwrap_or_default()
                .to_string(),
            cost: field(&replay, &["report", "cost"]).as_u64().unwrap_or(0),
            mux: field(&replay, &["report", "mux", "merged"])
                .as_u64()
                .unwrap_or(0),
            seed: *seed,
            request,
            response,
        });
    }
    Ok(pool)
}

/// One client: its connection, its request-class deck and its share of
/// the pre-generated inputs.
struct Client {
    conn: Connection,
    rng: StdRng,
    /// Fresh designs for `verify: sample` requests and for plain misses.
    fresh: [Vec<String>; 2],
    edits: Vec<(usize, String)>,
    next_fresh: [usize; 2],
    next_edit: usize,
    /// Request classes still to draw from the current deck.
    deck: Vec<Kind>,
}

struct Live {
    server: Server,
    clients: Vec<Client>,
    /// `(text, seed, verify)` of each primed design.
    pool_designs: Vec<(String, u64, bool)>,
    pool: Vec<PoolEntry>,
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: CLIENTS,
        // Large enough that nothing a run submits is ever evicted.
        cache_capacity: 4096,
        verify_workers: 1,
        ..ServerConfig::default()
    }
}

/// Binds the server, connects and pings every client, and primes the
/// result cache.
fn bring_up(inputs: Inputs, seed: u64) -> Result<Live, String> {
    let server = Server::bind("127.0.0.1:0", server_config()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let Inputs {
        pool: pool_designs,
        fresh,
        edits,
    } = inputs;
    let connected = (|| {
        let mut clients = Vec::with_capacity(CLIENTS);
        for (c, (fresh, edits)) in fresh.into_iter().zip(edits).enumerate() {
            let mut conn = Connection::connect(&addr, Protocol::Binary)
                .map_err(|e| format!("connect: {e}"))?;
            call_ok(
                &mut conn,
                &Json::obj(vec![("cmd", Json::Str("ping".into()))]),
            )?;
            let rng = StdRng::seed_from_u64(mix(seed, 3000 + c as u64));
            clients.push(Client {
                conn,
                rng,
                fresh,
                edits,
                next_fresh: [0; 2],
                next_edit: 0,
                deck: Vec::new(),
            });
        }
        let pool = prime(&mut clients[0].conn, &pool_designs)?;
        Ok((clients, pool))
    })();
    match connected {
        Ok((clients, pool)) => Ok(Live {
            server,
            clients,
            pool_designs,
            pool,
        }),
        Err(e) => {
            server.shutdown();
            Err(e)
        }
    }
}

/// One request's outcome, classified after the timed region.
struct Sample {
    kind: Kind,
    latency_ms: f64,
    response: Result<Json, String>,
    /// The pool entry a hit request replays.
    pool_index: Option<usize>,
}

/// One deck's requests; `wall_s` is set once the deck is complete.
struct Deck {
    traced: bool,
    samples: Vec<Sample>,
    wall_s: Option<f64>,
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

impl Client {
    /// The next request and its class. Decks keep the mix's proportions
    /// exact in every 20 requests; only the order within a deck is random.
    fn next_request(&mut self, pool: &[PoolEntry]) -> (Kind, Json, Option<usize>) {
        if self.deck.is_empty() {
            self.deck = DECK
                .iter()
                .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
                .collect();
            shuffle(&mut self.deck, &mut self.rng);
        }
        let kind = self.deck.pop().expect("deck was just refilled");
        match kind {
            Kind::Hit => {
                let p = self.rng.gen_range(0..pool.len());
                (kind, pool[p].request.clone(), Some(p))
            }
            Kind::Miss | Kind::Verify => {
                let list = usize::from(kind == Kind::Miss);
                let text = &self.fresh[list][self.next_fresh[list] % FRESH_PER_CLIENT];
                self.next_fresh[list] += 1;
                (kind, allocate_request(text, 1, kind == Kind::Verify), None)
            }
            Kind::Realloc => {
                let (base, text) = &self.edits[self.next_edit % self.edits.len()];
                self.next_edit += 1;
                (
                    kind,
                    reallocate_request(&pool[*base].id, text, pool[*base].seed),
                    None,
                )
            }
        }
    }

    /// The closed loop: send, wait for the reply, repeat until `deadline`.
    /// With a tracer, every other deck records a span per request, so
    /// traced and untraced decks share the same host conditions.
    fn drive(
        &mut self,
        pool: &[PoolEntry],
        deadline: Instant,
        mut tracer: Option<&mut Tracer>,
    ) -> Vec<Deck> {
        let mut decks: Vec<Deck> = Vec::new();
        let mut deck_start = Instant::now();
        let mut id = 0u64;
        while Instant::now() < deadline {
            if self.deck.is_empty() {
                let now = Instant::now();
                if let Some(last) = decks.last_mut() {
                    last.wall_s = Some((now - deck_start).as_secs_f64());
                }
                deck_start = now;
                let traced = tracer.is_some() && decks.len() % 2 == 1;
                decks.push(Deck {
                    traced,
                    samples: Vec::new(),
                    wall_s: None,
                });
            }
            let (kind, request, pool_index) = self.next_request(pool);
            let deck = decks.last_mut().expect("a deck is open");
            let span = match tracer.as_deref_mut() {
                Some(tracer) if deck.traced => {
                    Some((tracer.begin("request", kind.tag(), id, None), tracer))
                }
                _ => None,
            };
            let t = Instant::now();
            let response = self.conn.call(&request).map_err(|e| e.to_string());
            let latency_ms = t.elapsed().as_secs_f64() * 1e3;
            if let Some((index, tracer)) = span {
                tracer.end(index);
            }
            id += 1;
            let stop = response.is_err();
            deck.samples.push(Sample {
                kind,
                latency_ms,
                response,
                pool_index,
            });
            if stop {
                break;
            }
        }
        if let (true, Some(last)) = (self.deck.is_empty(), decks.last_mut()) {
            last.wall_s = Some(deck_start.elapsed().as_secs_f64());
        }
        decks
    }
}

/// Each client's decks from one timed run.
struct Run {
    decks: Vec<Vec<Deck>>,
}

impl Run {
    fn samples(&self, traced: bool) -> impl Iterator<Item = &Sample> {
        self.decks
            .iter()
            .flatten()
            .filter(move |d| d.traced == traced)
            .flat_map(|d| &d.samples)
    }

    /// Completed requests per second: each client's deck size over its
    /// median complete deck time, summed over clients. Every deck has the
    /// same mix, so a slow spell of the host moves the median deck little.
    fn jobs_per_s(&self, traced: bool) -> f64 {
        let deck_len: usize = DECK.iter().map(|&(_, n)| n).sum();
        self.decks
            .iter()
            .map(|decks| {
                let walls: Vec<f64> = decks
                    .iter()
                    .filter(|d| d.traced == traced)
                    .filter_map(|d| d.wall_s)
                    .collect();
                ratio(deck_len as f64, median(&walls))
            })
            .sum()
    }
}

fn run_clients(live: &mut Live, seconds: Duration, tracers: &mut [Tracer], trace: bool) -> Run {
    let deadline = Instant::now() + seconds;
    let pool = &live.pool;
    let decks = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(client, tracer)| {
                let tracer = trace.then_some(tracer);
                scope.spawn(move || client.drive(pool, deadline, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Run { decks }
}

/// Checks every response of a run; returns the cache hits among `traced`
/// decks' requests.
fn check_run(run: &Run, pool: &[PoolEntry], traced: bool, report: &mut Report) -> usize {
    let mut hits = 0;
    for deck in run.decks.iter().flatten() {
        for sample in &deck.samples {
            let label = format!("{} request", sample.kind.tag());
            let response = match &sample.response {
                Ok(response) => response,
                Err(e) => {
                    report.fail(format!("{label}: {e}"));
                    continue;
                }
            };
            if field(response, &["status"]).as_str() != Some("ok") {
                report.fail(format!("{label}: {}", response.to_string_compact()));
                continue;
            }
            if sample.kind == Kind::Verify
                && field(response, &["report", "certificate", "verdict"]).as_str()
                    != Some("certified")
            {
                report.fail(format!("{label}: no certified verdict"));
            }
            if let Some(p) = sample.pool_index {
                if deck.traced == traced && response.to_string_compact() == pool[p].response {
                    hits += 1;
                }
            }
        }
    }
    hits
}

fn stats(conn: &mut Connection) -> Result<Json, String> {
    let reply = call_ok(conn, &Json::obj(vec![("cmd", Json::Str("stats".into()))]))?;
    Ok(field(&reply, &["stats"]).clone())
}

pub fn run(seed: u64, seconds: Duration, trace: bool) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut live: Option<Live> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = live.take() {
            drop(previous.clients);
            previous.server.shutdown();
        }
        let t = Instant::now();
        live = Some(bring_up(make_inputs(seed), seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setups));
    let mut live = live.expect("at least one set-up");

    let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::new(epoch)).collect();
    let run = run_clients(&mut live, seconds, &mut tracers, trace);
    let server_stats = stats(&mut live.clients[0].conn);
    let mut wire = WireCounts::default();
    for client in &live.clients {
        wire.absorb(&client.conn.counts());
    }
    let Live {
        server,
        clients,
        pool_designs,
        pool,
    } = live;
    drop(clients);
    server.shutdown();
    let server_stats = server_stats?;

    let hits = check_run(&run, &pool, trace, &mut report);
    let latencies: Vec<f64> = run.samples(false).map(|s| s.latency_ms).collect();
    report.set("jobs_per_s", run.jobs_per_s(false));
    report.set("job_p50_ms", median(&latencies));
    report.set("job_tail_ms", percentile(&latencies, TAIL_PCT));
    report.notes.push(format!(
        "job_tail_ms is p{TAIL_PCT} of {} requests ({} beyond it)",
        latencies.len(),
        crate::stats::beyond(latencies.len(), TAIL_PCT)
    ));
    report.attempted = run.decks.iter().flatten().map(|d| d.samples.len()).sum();

    // The exact metrics cover the primed jobs, the deterministic part of
    // the mix; their in-process reproduction supplies the Verilog and
    // checks the served costs and the RTL against the reference.
    report.set("cost_sum", pool.iter().map(|p| p.cost as f64).sum());
    report.set("mux_sum", pool.iter().map(|p| p.mux as f64).sum());
    let designs: Vec<(String, String, u64)> = pool_designs
        .iter()
        .enumerate()
        .map(|(i, (text, seed, _))| (format!("pool{i}"), text.clone(), *seed))
        .collect();
    let mut layer_tracer = Tracer::new(epoch);
    let reproduced =
        reproduce_service_jobs(&designs, trace.then_some(&mut layer_tracer), &mut report);
    let mut verilog_bytes = 0;
    for (i, (entry, again)) in pool.iter().zip(&reproduced).enumerate() {
        if let Some(again) = again {
            verilog_bytes += again.verilog_bytes;
            if again.cost != entry.cost || again.mux as u64 != entry.mux {
                report.fail(format!(
                    "pool{i}: served cost {} / {} muxes, in-process {} / {}",
                    entry.cost, entry.mux, again.cost, again.mux
                ));
            }
        }
    }
    report.set("verilog_bytes", verilog_bytes as f64);

    if trace {
        layer_metrics(&mut report, &run, hits, &server_stats, &wire);
        let mut all = Tracer::new(epoch);
        for tracer in tracers {
            all.absorb(tracer);
        }
        all.absorb(layer_tracer);
        crate::write_spans(
            &mut report,
            &all,
            &format!("perfbench/out/trace-serve-mix-{seed}.jsonl"),
        );
    }
    Ok(report)
}

fn layer_metrics(report: &mut Report, run: &Run, hits: usize, stats: &Json, wire: &WireCounts) {
    let traced: Vec<&Sample> = run.samples(true).collect();
    let of = |kinds: &[Kind], value: &dyn Fn(&Sample, &Json) -> f64| -> Vec<f64> {
        traced
            .iter()
            .filter(|s| kinds.contains(&s.kind))
            .filter_map(|s| s.response.as_ref().ok().map(|r| value(s, r)))
            .collect()
    };
    let hit_rtt = of(&[Kind::Hit], &|s, _| s.latency_ms);
    let searched = [Kind::Miss, Kind::Realloc];
    let search_ms = of(&searched, &|_, r| {
        num(r, &["report", "search", "elapsed_ms"])
    });
    let overhead = of(&searched, &|s, r| {
        s.latency_ms - num(r, &["report", "search", "elapsed_ms"])
    });
    report.set("wire.hit_rtt_ms", median(&hit_rtt));
    report.set("server.search_ms", median(&search_ms));
    report.set("server.miss_overhead_ms", median(&overhead));
    report.set(
        "wire.bytes_per_msg",
        ratio(
            (wire.bytes_in + wire.bytes_out) as f64,
            (wire.frames_in + wire.frames_out) as f64,
        ),
    );
    report.set("server.cache.hit_ratio", num(stats, &["cache", "hit_rate"]));
    let admission_hits = num(stats, &["warm", "admission", "hits"]);
    let admission_misses = num(stats, &["warm", "admission", "misses"]);
    report.set(
        "server.admission.hit_ratio",
        ratio(admission_hits, admission_hits + admission_misses),
    );
    report.set("server.rejected", num(stats, &["rejected"]));
    report.set("server.warm.seeded", num(stats, &["warm", "seeded"]));
    report.set(
        "server.verifier.p50_ms",
        num(stats, &["verifier", "latency_ms", "p50"]),
    );
    let verdict_hits = num(stats, &["verifier", "cache", "hits"]);
    let verdict_misses = num(stats, &["verifier", "cache", "misses"]);
    report.set(
        "server.verifier.cache_hit_ratio",
        ratio(verdict_hits, verdict_hits + verdict_misses),
    );
    let hit_frac = ratio(hits as f64, traced.len() as f64);
    report.set("serve.hit_frac", hit_frac);
    let untraced_jobs_per_s = run.jobs_per_s(false);
    let traced_jobs_per_s = run.jobs_per_s(true);
    report.set("trace.jobs_per_s_untraced", untraced_jobs_per_s);
    report.set("trace.jobs_per_s_traced", traced_jobs_per_s);
    report.set(
        "trace.overhead_frac",
        1.0 - ratio(traced_jobs_per_s, untraced_jobs_per_s),
    );
    crate::record_isolation(
        report,
        &[(
            "cache hits are at least half of the requests",
            hit_frac >= 0.5,
        )],
    );
}

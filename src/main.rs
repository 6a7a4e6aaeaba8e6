//! `salsa-hls` — command-line front end for the SALSA reproduction.
//!
//! ```text
//! salsa-hls info     <file.cdfg>                      parse, statistics, critical path
//! salsa-hls dot      <file.cdfg>                      Graphviz rendering of the CDFG
//! salsa-hls schedule <file.cdfg> [--steps N] [--pipelined]
//! salsa-hls allocate <file.cdfg> [--steps N] [--extra-regs K] [--seed S]
//!                    [--restarts R] [--threads T]
//!                    [--pipelined] [--traditional] [--controller]
//!                    [--verilog PATH] [--testbench PATH] [--dot PATH]
//! salsa-hls bench    <name|--list>                    run a built-in benchmark
//! salsa-hls serve    [--addr H:P] [--workers N] [--queue N] [--cache N]
//! salsa-hls submit   [--addr H:P] (--bench NAME | <file.cdfg>) [knobs...]
//!                    [--verify off|sample|full] [--dump-trace PATH]
//! salsa-hls audit    <artifact.json>                  offline replay of a dumped trace
//! ```
//!
//! `<file.cdfg>` uses the text format documented in
//! [`salsa_cdfg::parse_cdfg`]; pass `-` to read standard input.

use std::io::{Read as _, Write as _};
use std::process::ExitCode;

use salsa_hls::cdfg::{parse_cdfg, Cdfg};
use salsa_hls::datapath::{bus_allocate, traffic_from_rtl};
use salsa_hls::rtlgen::{control_table, generate_testbench, generate_verilog, VerilogOptions};
use salsa_hls::sched::{asap, FuClass, FuLibrary};
use salsa_hls::serve::{
    canonicalize_report, check_threads, knobs_to_json, parse_verify, plan_job, resolve_graph,
    trace_id_hex, verifier, ErrorKind, GraphSource, Json, JobPlan, Knobs, Server, ServerConfig,
};
use salsa_hls::wire::{Connection, Protocol};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    reject_removed_flags(args)?;
    let command = args.first().map(String::as_str).unwrap_or("help");
    match command {
        "info" => info(args),
        "dot" => dot(args),
        "schedule" => schedule_cmd(args),
        "allocate" => allocate(args),
        "bench" => bench(args),
        "serve" => serve(args),
        "submit" => submit(args),
        "reallocate" => submit(args),
        "audit" => audit(args),
        "help" | "--help" | "-h" => {
            print!("{}", HELP);
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try 'salsa-hls help')")),
    }
}

const HELP: &str = "\
salsa-hls - data path allocation with the SALSA extended binding model

usage:
  salsa-hls info     <file.cdfg>
  salsa-hls dot      <file.cdfg>
  salsa-hls schedule <file.cdfg> [--steps N] [--pipelined]
  salsa-hls allocate <file.cdfg> [--steps N] [--extra-regs K] [--seed S]
                     [--restarts R] [--threads T]
                     [--pipelined] [--traditional] [--no-mem-moves]
                     [--controller]
                     [--report] [--json] [--canonical]
                     [--verilog PATH] [--testbench PATH]
                     [--dot PATH]
  salsa-hls bench    <name|--list>
  salsa-hls serve    [--addr HOST:PORT] [--workers N] [--verify-workers N]
                     [--queue N] [--cache N]
                     [--default-timeout-ms MS] [--max-in-flight N]
                     [--idle-timeout-ms MS]
  salsa-hls submit   [--addr HOST:PORT] (--bench NAME | <file.cdfg>)
                     [--steps N] [--extra-regs K] [--seed S] [--restarts R]
                     [--threads T] [--pipelined]
                     [--traditional] [--verify off|sample|full]
                     [--dump-trace PATH] [--timeout-ms MS] [--pretty]
  salsa-hls submit   [--addr HOST:PORT] (--ping | --stats | --shutdown)
  salsa-hls reallocate --base JOB_ID [--addr HOST:PORT]
                     (--bench NAME | <file.cdfg>) [submit knobs...]
  salsa-hls audit    <artifact.json>

--restarts runs R independent seeded search chains and keeps the best;
--threads caps the portfolio workers spreading those chains (at most 64;
default: the machine's parallelism). Every chain runs to completion, so
the winner is the same at any thread count: the cap is not part of the
job, its cache key or its canonical report.
--no-mem-moves disables the M move family on memory (array) designs,
freezing bank assignment at the initial placement — the ablation
baseline; scalar designs are unaffected.
--canonical prints the report as compact JSON with its wall-clock fields
zeroed (search.elapsed_ms, search.moves_per_sec) and without
portfolio.threads and portfolio.speedup, the form byte-diffs, the golden
reports and audit compare; it is the same at any thread count.

serve starts the allocation service (default 127.0.0.1:7741, port 0
picks a free port) and runs until a shutdown command drains it. It
speaks length-prefixed binary frames opened by a client hello (see
DESIGN.md section 12). submit sends one request and prints the response
document as compact JSON, the serializer --json reports use. A
backpressure rejection exits 1 with the server's retry hint.

submit --verify full asks the server to certify the result on its
verifier lane (own worker pool, --verify-workers): the winning chain's
committed-move trace is recorded, replayed with a cost check at every
commit, compared bit-for-bit against the recorded binding and
symbolically verified; the response's report gains a certificate
section (verdict, mode, verify_ms, trace_id, commits). --verify sample
is another spelling of full: the same job, the same cache entry, and a
certificate whose mode reads full. --dump-trace PATH then fetches the
portable trace artifact behind the certificate (the wire trace command)
and writes it to PATH. 'salsa-hls audit PATH' replays such an artifact
offline — no server, no search — re-deriving the binding move-by-move,
verifying it symbolically, re-running the full allocation and
byte-diffing the reproduced canonical report against the artifact's.

reallocate resubmits an *edited* design against a prior job: --base
JOB_ID names the 'id' field of an earlier ok response, and the server
warm-starts the search from that job's winning allocation (label-matched
across the edit, with delta-local move bias); the base lives as long as
its cached response. Plain submits also warm-start transparently when
the server's result cache holds a structurally similar prior design;
the report's warm_start section records the seed's provenance either
way, and warm and cold runs never share a result-cache entry.

<file.cdfg> is the text CDFG format ('-' reads stdin), e.g.:
  cdfg iir1
  input x
  state yprev
  const k = 13
  op scaled = mul yprev k
  op y = add x scaled
  feedback yprev <- y
  output y
";

/// Flags of removed options. They fail loudly instead of being skipped,
/// which would silently change the job — and `--batch K`,
/// `--protocol P`, `--backend B` or `--retry N` would leave their value
/// behind to be read as the design path.
const REMOVED_FLAGS: &[(&str, &str)] = &[
    ("--batch", "the speculative batch engine is gone; the search applies one move at a time"),
    ("--no-plan", "the compiled move plan is always on"),
    ("--protocol", "the service speaks only binary frames"),
    ("--backend", "the distributed backend is gone; the service runs every job in-process"),
    ("--cluster-listen", "the distributed backend is gone; the service runs every job in-process"),
    ("--cutoff", "every restart chain runs to completion"),
    ("--retry", "submit sends one request; resubmit a rejected job yourself"),
];

fn reject_removed_flags(args: &[String]) -> Result<(), String> {
    match REMOVED_FLAGS.iter().find(|(flag, _)| has_flag(args, flag)) {
        Some((flag, why)) => Err(format!("{flag} was removed: {why}")),
        None => Ok(()),
    }
}

fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn flag_parse<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match flag_value(args, flag)? {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag}: '{raw}' is not valid")),
    }
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn load_graph(args: &[String]) -> Result<Cdfg, String> {
    let path = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or("expected a .cdfg file (or '-' for stdin)")?;
    let source = if path == "-" {
        let mut buffer = String::new();
        std::io::stdin()
            .read_to_string(&mut buffer)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buffer
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    parse_cdfg(&source).map_err(|e| format!("{path}: {e}"))
}

fn info(args: &[String]) -> Result<(), String> {
    let graph = load_graph(args)?;
    println!("{graph}");
    let lib = FuLibrary::standard();
    println!("critical path: {} control steps (add=1, mul=2)", asap(&graph, &lib).length);
    Ok(())
}

fn dot(args: &[String]) -> Result<(), String> {
    let graph = load_graph(args)?;
    print!("{}", graph.to_dot());
    Ok(())
}

fn schedule_cmd(args: &[String]) -> Result<(), String> {
    let graph = load_graph(args)?;
    let job = plan(&graph, args)?;
    let (schedule, lib) = (job.schedule(), job.library());
    print!("{}", schedule.display(&graph));
    let demand = schedule.fu_demand(&graph, lib);
    println!(
        "demand: {} mul, {} alu, {} registers",
        demand[&FuClass::Mul],
        demand[&FuClass::Alu],
        schedule.register_demand(&graph, lib)
    );
    Ok(())
}

/// The job the knob flags describe on `graph`, derived exactly as the
/// service and verifier derive it.
fn plan(graph: &Cdfg, args: &[String]) -> Result<JobPlan, String> {
    plan_job(graph, &knobs_from_args(args)?).map_err(|e| e.message)
}

fn allocate(args: &[String]) -> Result<(), String> {
    let graph = load_graph(args)?;
    allocate_graph(&graph, args)
}

fn allocate_graph(graph: &Cdfg, args: &[String]) -> Result<(), String> {
    let job = plan(graph, args)?;
    let result = job.run(graph, None, threads_from_args(args)?).map_err(|e| e.message)?;
    let (schedule, lib) = (job.schedule(), job.library());

    if has_flag(args, "--canonical") {
        // Canonical form for byte-exact diffs against the service's
        // report: compact, with the wall-clock fields zeroed.
        let mut report = job.report(graph, &result);
        canonicalize_report(&mut report);
        println!("{}", report.to_string_compact());
    } else if has_flag(args, "--json") {
        // Same serializer as the server's allocate responses.
        println!("{}", job.report(graph, &result).to_string_pretty());
    } else {
        println!("{}", result.datapath);
        println!("cost breakdown: {}", result.breakdown);
        println!(
            "equivalent 2-1 muxes: {} point-to-point, {} after merging",
            result.breakdown.mux_equiv,
            result.merged_mux_count()
        );
        let bus = bus_allocate(&traffic_from_rtl(&result.rtl));
        println!(
            "bus style: {} buses, {} total 2-1 equivalents",
            bus.num_buses(),
            bus.total_mux_equiv()
        );
        println!("\n{}", result.rtl);
    }
    if has_flag(args, "--report") {
        println!("{}", salsa_hls::alloc::report(graph, schedule, &result));
    }
    if has_flag(args, "--controller") {
        println!("{}", control_table(graph, &result));
    }

    let options = VerilogOptions { module_name: format!("dp_{}", graph.name()), width: 16 };
    if let Some(path) = flag_value(args, "--verilog")? {
        let verilog = generate_verilog(graph, schedule, lib, &result, &options);
        std::fs::write(&path, verilog).map_err(|e| format!("{path}: {e}"))?;
        println!("verilog written to {path}");
    }
    if let Some(path) = flag_value(args, "--testbench")? {
        // Smoke vectors: three iterations of small deterministic inputs,
        // zero-initialized loop state.
        let inputs: Vec<std::collections::BTreeMap<_, i64>> = (0..3)
            .map(|k| {
                graph
                    .values()
                    .filter(|v| {
                        v.source() == salsa_hls::cdfg::ValueSource::Input && !v.is_state()
                    })
                    .enumerate()
                    .map(|(i, v)| (v.id(), (k as i64 + 1) * 10 + i as i64))
                    .collect()
            })
            .collect();
        let state = graph.state_values().map(|s| (s, 0i64)).collect();
        let tb = generate_testbench(graph, schedule, lib, &result, &options, &inputs, &state)
            .map_err(|e| e.to_string())?;
        std::fs::write(&path, tb).map_err(|e| format!("{path}: {e}"))?;
        println!("self-checking testbench written to {path}");
    }
    if let Some(path) = flag_value(args, "--dot")? {
        std::fs::write(&path, graph.to_dot()).map_err(|e| format!("{path}: {e}"))?;
        println!("dot written to {path}");
    }
    Ok(())
}

const DEFAULT_ADDR: &str = "127.0.0.1:7741";

fn serve(args: &[String]) -> Result<(), String> {
    let addr = flag_value(args, "--addr")?.unwrap_or_else(|| DEFAULT_ADDR.to_string());
    let mut config = ServerConfig::default();
    if let Some(workers) = flag_parse(args, "--workers")? {
        config.workers = workers;
    }
    if let Some(workers) = flag_parse(args, "--verify-workers")? {
        config.verify_workers = workers;
    }
    if let Some(capacity) = flag_parse(args, "--queue")? {
        config.queue_capacity = capacity;
    }
    if let Some(capacity) = flag_parse(args, "--cache")? {
        config.cache_capacity = capacity;
    }
    if let Some(ms) = flag_parse(args, "--default-timeout-ms")? {
        config.default_timeout_ms = Some(ms);
    }
    if let Some(limit) = flag_parse(args, "--max-in-flight")? {
        config.max_in_flight = limit;
    }
    if let Some(ms) = flag_parse(args, "--idle-timeout-ms")? {
        // 0 disables eviction (a debugging convenience).
        config.idle_timeout_ms = if ms == 0 { None } else { Some(ms) };
    }

    let server = Server::bind(&addr, config).map_err(|e| format!("{addr}: {e}"))?;
    println!("listening on {}", server.local_addr());
    // The banner must reach pipes promptly: scripts wait for it before
    // submitting.
    let _ = std::io::stdout().flush();
    server.join();
    println!("drained and stopped");
    Ok(())
}

/// The allocation knobs the flags spell, shared by `schedule`,
/// `allocate`, `bench`, `submit` and `reallocate`. They pass the same
/// range checks as a wire request's knobs.
fn knobs_from_args(args: &[String]) -> Result<Knobs, String> {
    let knobs = Knobs {
        steps: flag_parse(args, "--steps")?,
        extra_regs: flag_parse(args, "--extra-regs")?.unwrap_or(0),
        seed: flag_parse(args, "--seed")?.unwrap_or(42),
        restarts: flag_parse(args, "--restarts")?.unwrap_or(1),
        pipelined: has_flag(args, "--pipelined"),
        traditional: has_flag(args, "--traditional"),
        mem_moves: !has_flag(args, "--no-mem-moves"),
        verify: match flag_value(args, "--verify")? {
            Some(raw) => {
                parse_verify(&raw).map_err(|e| format!("[{}] {}", e.kind.as_str(), e.message))?
            }
            None => false,
        },
        warm: None,
    };
    knobs.check_bounds().map_err(|e| format!("[{}] {}", e.kind.as_str(), e.message))?;
    Ok(knobs)
}

/// The `--threads` worker cap, an execution hint beside the knobs: it
/// passes the wire's bound but is not part of the job.
fn threads_from_args(args: &[String]) -> Result<Option<usize>, String> {
    let threads = flag_parse(args, "--threads")?;
    check_threads(threads).map_err(|e| format!("[{}] {}", e.kind.as_str(), e.message))?;
    Ok(threads)
}

fn submit(args: &[String]) -> Result<(), String> {
    let addr = flag_value(args, "--addr")?.unwrap_or_else(|| DEFAULT_ADDR.to_string());
    let request = build_submit_request(args)?;
    let mut conn = Connection::connect(&addr, Protocol::Binary)
        .map_err(|e| format!("{addr}: {e} (is 'salsa-hls serve' running?)"))?;
    let parsed = conn.call(&request).map_err(|e| format!("{addr}: {e}"))?;
    if has_flag(args, "--pretty") {
        println!("{}", parsed.to_string_pretty());
    } else {
        println!("{}", parsed.to_string_compact());
    }
    match parsed.get("status").and_then(Json::as_str) {
        Some("ok") => {
            if let Some(path) = flag_value(args, "--dump-trace")? {
                dump_trace(&mut conn, &parsed, &path)?;
            }
            Ok(())
        }
        Some("rejected") => {
            let hint = parsed.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(0);
            Err(format!("rejected with backpressure (retry after {hint} ms)"))
        }
        Some("error") => {
            let kind = parsed.get("kind").and_then(Json::as_str).unwrap_or("?");
            let message = parsed.get("message").and_then(Json::as_str).unwrap_or("");
            Err(format!("server error [{kind}]: {message}"))
        }
        other => Err(format!("unexpected response status {other:?}")),
    }
}

/// Fetches the trace artifact behind a certified response (the wire
/// `trace` command, on the already-open connection) and writes it to
/// `path` for `salsa-hls audit`.
fn dump_trace(conn: &mut Connection, response: &Json, path: &str) -> Result<(), String> {
    let trace_id = response
        .get("report")
        .and_then(|r| r.get("certificate"))
        .and_then(|c| c.get("trace_id"))
        .and_then(Json::as_str)
        .ok_or("--dump-trace needs a certified response (add --verify full)")?;
    let request = Json::obj(vec![
        ("cmd", Json::Str("trace".to_string())),
        ("id", Json::Str(trace_id.to_string())),
    ]);
    let reply = conn.call(&request).map_err(|e| format!("fetching trace {trace_id}: {e}"))?;
    let artifact = reply
        .get("artifact")
        .ok_or_else(|| format!("trace fetch failed: {}", reply.to_string_compact()))?;
    let mut text = artifact.to_string_pretty();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("trace artifact {trace_id} written to {path}");
    Ok(())
}

/// Offline audit of a dumped trace artifact ([`verifier::audit`]):
/// replay, symbolic verification, re-run and canonical report diff.
fn audit(args: &[String]) -> Result<(), String> {
    let path = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or("expected a trace artifact file (from 'salsa-hls submit --dump-trace')")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = salsa_hls::serve::parse_json(text.trim())
        .map_err(|e| format!("{path}: invalid JSON: {e:?}"))?;
    let audited = verifier::audit(&doc)
        .map_err(|e| format!("{path}: [{}] {}", e.kind.as_str(), e.message))?;
    println!(
        "trace {}: replayed {} commits at cost {}; symbolic verdict: certified",
        trace_id_hex(audited.trace_id),
        audited.commits,
        audited.cost
    );
    println!("report: identical ({} bytes, canonical form)", audited.report_bytes);
    Ok(())
}

/// The first token after `submit` that is neither a flag nor the value
/// of a value-taking flag — the `.cdfg` path operand.
fn submit_positional(args: &[String]) -> Option<&String> {
    const VALUE_FLAGS: &[&str] = &[
        "--addr", "--bench", "--steps", "--extra-regs", "--seed", "--restarts", "--threads",
        "--timeout-ms", "--verify", "--dump-trace", "--base",
    ];
    let mut i = 1;
    while i < args.len() {
        let arg = &args[i];
        if arg.starts_with("--") {
            i += if VALUE_FLAGS.contains(&arg.as_str()) { 2 } else { 1 };
        } else {
            return Some(arg);
        }
    }
    None
}

fn build_submit_request(args: &[String]) -> Result<Json, String> {
    for (flag, cmd) in [("--ping", "ping"), ("--stats", "stats"), ("--shutdown", "shutdown")] {
        if has_flag(args, flag) {
            return Ok(Json::obj(vec![("cmd", Json::Str(cmd.to_string()))]));
        }
    }
    // `salsa-hls reallocate` shares submit's whole pipeline (connection,
    // knob flags); it only swaps the verb and adds the base id.
    let realloc = args.first().is_some_and(|a| a == "reallocate");
    let verb = if realloc { "reallocate" } else { "allocate" };
    let mut pairs = vec![("cmd".to_string(), Json::Str(verb.to_string()))];
    if realloc {
        let base = flag_value(args, "--base")?
            .ok_or("reallocate needs --base JOB_ID (the 'id' field of a prior ok response)")?;
        pairs.push(("base".to_string(), Json::Str(base)));
    }
    if let Some(bench) = flag_value(args, "--bench")? {
        pairs.push(("bench".to_string(), Json::Str(bench)));
    } else {
        let path = submit_positional(args)
            .ok_or("submit needs --bench NAME, a .cdfg file ('-' for stdin), or --ping/--stats/--shutdown")?;
        let text = if path == "-" {
            let mut buffer = String::new();
            std::io::stdin()
                .read_to_string(&mut buffer)
                .map_err(|e| format!("reading stdin: {e}"))?;
            buffer
        } else {
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
        };
        pairs.push(("cdfg".to_string(), Json::Str(text)));
    }
    // The knobs travel in their one request spelling, so `submit`
    // accepts exactly the knob flags `allocate` and `bench` do.
    if let Json::Obj(knobs) = knobs_to_json(&knobs_from_args(args)?) {
        pairs.extend(knobs);
    }
    if let Some(threads) = threads_from_args(args)? {
        pairs.push(("threads".to_string(), Json::Int(threads as i64)));
    }
    if let Some(timeout) = flag_parse::<u64>(args, "--timeout-ms")? {
        pairs.push(("timeout_ms".to_string(), Json::Int(timeout as i64)));
    }
    Ok(Json::Obj(pairs))
}

fn bench(args: &[String]) -> Result<(), String> {
    let all = salsa_hls::cdfg::benchmarks::all();
    if has_flag(args, "--list") || args.len() < 2 {
        println!("built-in benchmarks:");
        for g in &all {
            println!("  {:<14} {}", g.name(), g.stats());
        }
        return Ok(());
    }
    // The graph the service, trace artifacts and `allocate` of the
    // canonical text allocate: the benchmark re-parsed from its canonical
    // text. A constructed graph can number its values differently, and
    // the numbering steers the search.
    let name = &args[1];
    let graph = resolve_graph(&GraphSource::Bench(name.clone())).map_err(|e| match e.kind {
        ErrorKind::BadRequest => {
            format!("unknown benchmark '{name}' (try 'salsa-hls bench --list')")
        }
        _ => e.message,
    })?;
    allocate_graph(&graph, args)
}

//! The request grammar: request parsing, response shapes, structured
//! errors, and the content-address of a job.
//!
//! Each request is one JSON object sent as one binary frame (see
//! `salsa_wire::frame`); the server answers each with exactly one
//! object, under the request's correlation id. Commands:
//!
//! ```json
//! {"cmd":"allocate","bench":"ewf","seed":1,"restarts":4,"timeout_ms":5000}
//! {"cmd":"allocate","cdfg":"cdfg t\ninput x\n...","steps":6}
//! {"cmd":"allocate","bench":"ewf","verify":"full"}
//! {"cmd":"reallocate","base":"<job id>","cdfg":"cdfg t\n...edited...","seed":1}
//! {"cmd":"trace","id":"<certificate trace_id>"}
//! {"cmd":"stats"}
//! {"cmd":"ping"}
//! {"cmd":"shutdown"}
//! ```
//!
//! `reallocate` is `allocate` plus a `base`: the job id of a prior
//! result (every ok response carries its `id`) whose winning allocation
//! seeds the new search. The design is the *edited* CDFG; the server
//! matches it against the base by label and warm-starts from the old
//! winner.
//!
//! Responses carry a `status` of `ok`, `error` (with a machine-readable
//! `kind`, and `line`/`column` for CDFG parse errors), or `rejected`
//! (backpressure, with a `retry_after_ms` hint). The wire core answers
//! broken framing itself, in the same flat error shape with `kind`
//! `bad-frame` (and `internal` for a job dropped without a reply).

use std::sync::Arc;

use salsa_alloc::WarmSpec;
use salsa_cdfg::{fnv1a_128, ParseError};

use crate::json::Json;

/// Benchmarks servable by name, with the paper's aliases mapped onto the
/// workspace's canonical names.
pub const BENCH_ALIASES: &[(&str, &str)] = &[
    ("hal", "diffeq"),
    ("fir", "fir16"),
    ("ar", "ar_lattice"),
    ("fir-array", "fir8a"),
    ("matmul", "mm2"),
];

/// A parsed client command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run (or replay from cache) an allocation.
    Allocate(AllocRequest),
    /// Re-allocate an edited design warm-started from a prior job's
    /// winner, named by its job id.
    Reallocate(ReallocRequest),
    /// Fetch a certified job's trace artifact by its certificate's
    /// `trace_id`, for offline audit (`salsa audit`).
    Trace(String),
    /// Report service counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Begin the graceful drain-then-exit.
    Shutdown,
}

/// Where the design comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSource {
    /// A built-in benchmark, by (possibly aliased) name.
    Bench(String),
    /// Inline CDFG text in the request.
    Text(String),
}

/// Search knobs: the job's identity. Every field participates in the
/// cache key, so two requests with any knob differing are different jobs.
/// Admission resolves the knobs first (`AdmissionArtifact::resolve`), so
/// spellings of one job — `steps` omitted or set to the ASAP length,
/// `mem_moves` either way on a design without memory — are one key.
/// How a job is executed (`threads`, `timeout_ms`) lives on the
/// [`AllocRequest`] instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Knobs {
    /// Schedule length (control steps); `None` = the ASAP length, which
    /// admission fills in.
    pub steps: Option<usize>,
    /// Registers beyond the schedule's minimum.
    pub extra_regs: usize,
    /// Base random seed.
    pub seed: u64,
    /// Independent restart chains.
    pub restarts: usize,
    /// Use the pipelined functional-unit library.
    pub pipelined: bool,
    /// Restrict to the traditional (pre-SALSA) move set.
    pub traditional: bool,
    /// Enable the M move family on memory graphs (the default). A
    /// scalar design ignores it; on a memory design turning it off
    /// freezes bank assignment at the initial greedy placement — the
    /// M-off ablation. Admission resolves it to `true` on a design
    /// without memory.
    pub mem_moves: bool,
    /// Certify the result (wire `verify`: `sample` and `full` are two
    /// spellings of `true`, see [`parse_verify`]). The response's report
    /// then gains a `certificate` section produced by the verifier lane.
    /// Part of the cache key: certified and uncertified responses are
    /// different payloads.
    pub verify: bool,
    /// The warm-start seed the search begins from (`None` = cold,
    /// constructive start). Part of the cache key — a warm and a cold
    /// run of the same design are different jobs and must never alias —
    /// and of the trace artifact, so offline audit replays the seeded
    /// trajectory. Requests rarely spell this directly; the server
    /// attaches it at admission (similarity seeding, `reallocate`).
    pub warm: Option<Arc<WarmSpec>>,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            steps: None,
            extra_regs: 0,
            seed: 42,
            restarts: 1,
            pipelined: false,
            traditional: false,
            mem_moves: true,
            verify: false,
            warm: None,
        }
    }
}

/// An allocation request: the design, the knobs, and how to execute
/// them (worker cap and deadline).
#[derive(Debug, Clone, PartialEq)]
pub struct AllocRequest {
    /// The design to allocate.
    pub source: GraphSource,
    /// Search configuration (all cache-keyed).
    pub knobs: Knobs,
    /// Portfolio worker cap (at least 1, at most [`MAX_THREADS`]); `None`
    /// = machine parallelism. Not part of the cache key — every restart
    /// chain runs to completion, so the result is the same at any count.
    pub threads: Option<usize>,
    /// Per-job deadline in milliseconds; `None` = the server default.
    /// Not part of the cache key — the result of a completed job does
    /// not depend on how long it was allowed to take.
    pub timeout_ms: Option<u64>,
}

/// A `reallocate` request: an ordinary allocation of the edited design,
/// warm-started from the named base job's winner.
#[derive(Debug, Clone, PartialEq)]
pub struct ReallocRequest {
    /// The base job id (an ok response's `id`: the result-cache key in
    /// hex) whose winning allocation seeds the search.
    pub base: u128,
    /// The edited design and its knobs, exactly as `allocate` takes
    /// them.
    pub request: AllocRequest,
}

/// Machine-readable error categories carried in the `kind` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed JSON, missing/invalid fields, or an unknown benchmark.
    BadRequest,
    /// The CDFG text failed to parse (carries line/column).
    Parse,
    /// Scheduling failed (e.g. infeasible step count).
    Schedule,
    /// The allocation itself failed.
    Alloc,
    /// The certification pipeline failed (broken trace, cost
    /// disagreement, or a malformed report handed to the verifier).
    Audit,
    /// The job's deadline expired before the search completed.
    Timeout,
    /// The server is draining and no longer admits jobs.
    ShuttingDown,
}

impl ErrorKind {
    /// The wire spelling of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Parse => "parse",
            ErrorKind::Schedule => "schedule",
            ErrorKind::Alloc => "alloc",
            ErrorKind::Audit => "audit",
            ErrorKind::Timeout => "timeout",
            ErrorKind::ShuttingDown => "shutting-down",
        }
    }
}

/// A structured service error, renderable as an error response.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    /// Category for programmatic handling.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// 1-based source line, for [`ErrorKind::Parse`].
    pub line: Option<usize>,
    /// 1-based byte column, for [`ErrorKind::Parse`].
    pub column: Option<usize>,
}

impl ServeError {
    /// An error with no source position.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ServeError { kind, message: message.into(), line: None, column: None }
    }

    /// Wraps a CDFG parse error, preserving its position.
    pub fn from_parse(err: &ParseError) -> Self {
        ServeError {
            kind: ErrorKind::Parse,
            message: err.to_string(),
            line: (err.line > 0).then_some(err.line),
            column: (err.column > 0).then_some(err.column),
        }
    }
}

/// Renders the `{"status":"error",...}` response object.
pub fn error_response(err: &ServeError) -> Json {
    let mut pairs = vec![
        ("status", Json::Str("error".into())),
        ("kind", Json::Str(err.kind.as_str().into())),
        ("message", Json::Str(err.message.clone())),
    ];
    if let Some(line) = err.line {
        pairs.push(("line", Json::Int(line as i64)));
    }
    if let Some(column) = err.column {
        pairs.push(("column", Json::Int(column as i64)));
    }
    Json::obj(pairs)
}

/// Renders the backpressure rejection response.
pub fn rejected_response(retry_after_ms: u64) -> Json {
    Json::obj(vec![
        ("status", Json::Str("rejected".into())),
        ("retry_after_ms", Json::Int(retry_after_ms as i64)),
    ])
}

/// Renders a successful allocation response around a report object.
pub fn ok_response(report: Json) -> Json {
    Json::obj(vec![("status", Json::Str("ok".into())), ("report", report)])
}

/// [`ok_response`] plus the job's `id` — the result-cache key in hex,
/// which `reallocate` accepts as its `base`. Deterministic in
/// `(canonical text, knobs)`, so cached response bytes stay replayable.
pub fn ok_response_keyed(report: Json, key: u128) -> Json {
    Json::obj(vec![
        ("status", Json::Str("ok".into())),
        ("id", Json::Str(format!("{key:032x}"))),
        ("report", report),
    ])
}

/// Resolves a benchmark alias (`hal` → `diffeq`, …) to its canonical
/// workspace name.
pub fn canonical_bench_name(name: &str) -> &str {
    BENCH_ALIASES
        .iter()
        .find(|(alias, _)| *alias == name)
        .map(|(_, canonical)| *canonical)
        .unwrap_or(name)
}

fn field_u64(obj: &Json, key: &str) -> Result<Option<u64>, ServeError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ServeError::new(ErrorKind::BadRequest, format!("'{key}' must be a non-negative integer"))
        }),
    }
}

fn field_bool(obj: &Json, key: &str) -> Result<bool, ServeError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| ServeError::new(ErrorKind::BadRequest, format!("'{key}' must be a boolean"))),
    }
}

/// Rejects the knobs of removed search options in a wire request with a
/// structured error rather than ignoring them: a `batch` job would
/// otherwise run a different trajectory than its sender asked for. Only
/// the spellings that select today's behaviour pass — `batch` absent,
/// null or 1, `plan` absent, null or true, and `cutoff` absent or null.
/// Stored knobs (trace artifacts under audit) are not checked: neither
/// `plan` nor `cutoff` ever changed a completing chain's trajectory, and
/// an artifact of the removed batch engine fails its audit as a report
/// mismatch.
fn reject_removed_knobs(obj: &Json) -> Result<(), ServeError> {
    match obj.get("batch") {
        None | Some(Json::Null) => {}
        Some(v) if v.as_u64() == Some(1) => {}
        Some(_) => {
            return Err(ServeError::new(
                ErrorKind::BadRequest,
                "'batch' was removed with the speculative batch engine; omit it (or send 1)",
            ))
        }
    }
    match obj.get("plan") {
        None | Some(Json::Null) | Some(Json::Bool(true)) => {}
        Some(_) => {
            return Err(ServeError::new(
                ErrorKind::BadRequest,
                "'plan' was removed: the compiled move plan is always on; omit it (or send true)",
            ))
        }
    }
    match obj.get("cutoff") {
        None | Some(Json::Null) => Ok(()),
        Some(_) => Err(ServeError::new(
            ErrorKind::BadRequest,
            "'cutoff' was removed: every restart chain runs to completion; omit it",
        )),
    }
}

/// Upper bound on `restarts` per job — the queue bounds jobs, this bounds
/// the work a single job may demand.
pub const MAX_RESTARTS: usize = 4096;

/// Upper bound on `threads`: a job starts `min(threads, restarts)` scoped
/// worker threads, so this bounds the OS threads a single job may start.
pub const MAX_THREADS: usize = 64;

/// Upper bound on `steps`. FDS, pool construction and plan compile run
/// before the search first polls its cancel token, so a job's deadline
/// cannot stop them; their cost grows with the schedule length.
pub const MAX_STEPS: usize = 256;

/// Upper bound on `extra_regs`, for the same reason as [`MAX_STEPS`]:
/// the register pool is built before the deadline is first checked.
pub const MAX_EXTRA_REGS: usize = 256;

/// Parses one request object into a [`Command`].
pub fn parse_command(request: &Json) -> Result<Command, ServeError> {
    if !matches!(request, Json::Obj(_)) {
        return Err(ServeError::new(ErrorKind::BadRequest, "request must be a JSON object"));
    }
    let cmd = request
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::new(ErrorKind::BadRequest, "missing string field 'cmd'"))?;
    match cmd {
        "stats" => Ok(Command::Stats),
        "ping" => Ok(Command::Ping),
        "shutdown" => Ok(Command::Shutdown),
        "allocate" => Ok(Command::Allocate(parse_alloc_request(request)?)),
        "reallocate" => {
            let base = request.get("base").and_then(Json::as_str).ok_or_else(|| {
                ServeError::new(
                    ErrorKind::BadRequest,
                    "reallocate needs a string field 'base' (a prior response's job id)",
                )
            })?;
            let base = (!base.is_empty() && base.len() <= 32)
                .then(|| u128::from_str_radix(base, 16).ok())
                .flatten()
                .ok_or_else(|| {
                    ServeError::new(ErrorKind::BadRequest, format!("bad job id '{base}'"))
                })?;
            Ok(Command::Reallocate(ReallocRequest { base, request: parse_alloc_request(request)? }))
        }
        "trace" => {
            let id = request.get("id").and_then(Json::as_str).ok_or_else(|| {
                ServeError::new(ErrorKind::BadRequest, "trace needs a string field 'id'")
            })?;
            Ok(Command::Trace(id.to_string()))
        }
        other => Err(ServeError::new(
            ErrorKind::BadRequest,
            format!(
                "unknown cmd '{other}' (expected allocate, reallocate, trace, stats, ping or shutdown)"
            ),
        )),
    }
}

fn parse_alloc_request(obj: &Json) -> Result<AllocRequest, ServeError> {
    let bench = obj.get("bench").and_then(Json::as_str);
    let text = obj.get("cdfg").and_then(Json::as_str);
    let source = match (bench, text) {
        (Some(name), None) => GraphSource::Bench(name.to_string()),
        (None, Some(src)) => GraphSource::Text(src.to_string()),
        (Some(_), Some(_)) => {
            return Err(ServeError::new(
                ErrorKind::BadRequest,
                "give either 'bench' or 'cdfg', not both",
            ))
        }
        (None, None) => {
            return Err(ServeError::new(
                ErrorKind::BadRequest,
                "allocate needs a design: 'bench' (name) or 'cdfg' (text)",
            ))
        }
    };
    reject_removed_knobs(obj)?;
    let knobs = knobs_from_json(obj)?;
    let threads = field_u64(obj, "threads")?.map(|t| (t as usize).max(1));
    check_threads(threads)?;
    Ok(AllocRequest { source, knobs, threads, timeout_ms: field_u64(obj, "timeout_ms")? })
}

/// Rejects a worker cap above [`MAX_THREADS`]. Applied to every parsed
/// request's `threads` and to the CLI's `--threads`.
pub fn check_threads(threads: Option<usize>) -> Result<(), ServeError> {
    match threads {
        Some(t) if t > MAX_THREADS => Err(ServeError::new(
            ErrorKind::BadRequest,
            format!("'threads' must be at most {MAX_THREADS}"),
        )),
        _ => Ok(()),
    }
}

/// Parses the knob fields out of a request-shaped object (unset fields
/// take their [`Knobs::default`] values). Shared by `allocate` request
/// parsing and the audit of a trace artifact, which stores a job's knobs
/// in exactly the request spelling.
pub fn knobs_from_json(obj: &Json) -> Result<Knobs, ServeError> {
    let knobs = Knobs {
        steps: field_u64(obj, "steps")?.map(|s| s as usize),
        extra_regs: field_u64(obj, "extra_regs")?.map(|e| e as usize).unwrap_or(0),
        seed: field_u64(obj, "seed")?.unwrap_or(42),
        restarts: field_u64(obj, "restarts")?.map(|r| r as usize).unwrap_or(1),
        pipelined: field_bool(obj, "pipelined")?,
        traditional: field_bool(obj, "traditional")?,
        // Unlike the other booleans, absent means *true*.
        mem_moves: match obj.get("mem_moves") {
            None | Some(Json::Null) => true,
            Some(v) => v.as_bool().ok_or_else(|| {
                ServeError::new(ErrorKind::BadRequest, "'mem_moves' must be a boolean")
            })?,
        },
        verify: match obj.get("verify") {
            None | Some(Json::Null) => false,
            Some(v) => parse_verify(v.as_str().unwrap_or_default())?,
        },
        warm: match obj.get("warm") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let text = v.as_str().ok_or_else(|| {
                    ServeError::new(ErrorKind::BadRequest, "'warm' must be a seed string")
                })?;
                Some(Arc::new(WarmSpec::decode(text).map_err(|e| {
                    ServeError::new(ErrorKind::BadRequest, format!("bad 'warm' seed: {e}"))
                })?))
            }
        },
    };
    knobs.check_bounds()?;
    Ok(knobs)
}

/// Parses a `verify` spelling: `off` is `false`; `sample` and `full` are
/// both `true`, since they always ran the same certification (replay
/// checked at every commit). Shared by request parsing, stored trace
/// artifacts (which may say `sample`) and the CLI's `--verify`.
pub fn parse_verify(spelling: &str) -> Result<bool, ServeError> {
    match spelling {
        "off" => Ok(false),
        "sample" | "full" => Ok(true),
        _ => Err(ServeError::new(ErrorKind::BadRequest, "'verify' must be off, sample or full")),
    }
}

impl Knobs {
    /// Rejects knobs outside the ranges a job may ask for: `steps` in
    /// `1..=MAX_STEPS`, `extra_regs` up to [`MAX_EXTRA_REGS`], `restarts`
    /// in `1..=MAX_RESTARTS`.
    /// [`knobs_from_json`] applies it to every parsed request, and the CLI
    /// to the knobs its flags spell.
    pub fn check_bounds(&self) -> Result<(), ServeError> {
        let bad = |message: String| Err(ServeError::new(ErrorKind::BadRequest, message));
        if self.steps.is_some_and(|s| s == 0 || s > MAX_STEPS) {
            return bad(format!("'steps' must be in 1..={MAX_STEPS}"));
        }
        if self.extra_regs > MAX_EXTRA_REGS {
            return bad(format!("'extra_regs' must be at most {MAX_EXTRA_REGS}"));
        }
        if self.restarts == 0 || self.restarts > MAX_RESTARTS {
            return bad(format!("'restarts' must be in 1..={MAX_RESTARTS}"));
        }
        Ok(())
    }
}

/// Renders knobs as a JSON object in the request spelling, the inverse
/// of [`knobs_from_json`]: unset options are omitted, `verify` is always
/// spelled `full`, and the rendering round-trips exactly.
pub fn knobs_to_json(knobs: &Knobs) -> Json {
    let mut pairs = Vec::with_capacity(8);
    if let Some(steps) = knobs.steps {
        pairs.push(("steps", Json::Int(steps as i64)));
    }
    pairs.push(("extra_regs", Json::Int(knobs.extra_regs as i64)));
    pairs.push(("seed", Json::Int(knobs.seed as i64)));
    pairs.push(("restarts", Json::Int(knobs.restarts as i64)));
    if knobs.pipelined {
        pairs.push(("pipelined", Json::Bool(true)));
    }
    if knobs.traditional {
        pairs.push(("traditional", Json::Bool(true)));
    }
    if !knobs.mem_moves {
        pairs.push(("mem_moves", Json::Bool(false)));
    }
    if knobs.verify {
        pairs.push(("verify", Json::Str("full".into())));
    }
    if let Some(warm) = &knobs.warm {
        pairs.push(("warm", Json::Str(warm.encode())));
    }
    Json::obj(pairs)
}

/// The content address of a job: FNV-1a 128 over the canonical CDFG text
/// plus the knobs' request spelling ([`knobs_to_json`], whose rendering
/// round-trips every knob). Sound as a cache key
/// because the canonical text is a print/parse fixpoint and the search is
/// deterministic in (text, knobs) — see the crate docs.
pub fn cache_key(canonical_text: &str, knobs: &Knobs) -> u128 {
    let knobs = knobs_to_json(knobs).to_string_compact();
    let mut keyed = String::with_capacity(canonical_text.len() + knobs.len() + 8);
    keyed.push_str(canonical_text);
    keyed.push_str("\x00knobs\x00");
    keyed.push_str(&knobs);
    fnv1a_128(keyed.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    #[test]
    fn parses_a_full_allocate_request() {
        let req = parse_json(
            r#"{"cmd":"allocate","bench":"ewf","steps":17,"seed":7,"restarts":4,
                "threads":2,"extra_regs":1,"pipelined":true,
                "traditional":true,"verify":"full","timeout_ms":2000}"#,
        )
        .unwrap();
        let Command::Allocate(alloc) = parse_command(&req).unwrap() else {
            panic!("expected allocate")
        };
        assert_eq!(alloc.source, GraphSource::Bench("ewf".into()));
        assert_eq!(alloc.knobs.steps, Some(17));
        assert_eq!(alloc.knobs.seed, 7);
        assert_eq!(alloc.knobs.restarts, 4);
        assert_eq!(alloc.threads, Some(2));
        assert_eq!(alloc.knobs.extra_regs, 1);
        assert!(alloc.knobs.pipelined);
        assert!(alloc.knobs.traditional);
        assert!(alloc.knobs.verify);
        assert_eq!(alloc.timeout_ms, Some(2000));
    }

    #[test]
    fn defaults_mirror_the_cli() {
        let req = parse_json(r#"{"cmd":"allocate","bench":"dct"}"#).unwrap();
        let Command::Allocate(alloc) = parse_command(&req).unwrap() else {
            panic!("expected allocate")
        };
        assert_eq!(alloc.knobs, Knobs::default());
        assert_eq!(alloc.knobs.seed, 42);
        assert_eq!(alloc.threads, None);
        assert_eq!(alloc.timeout_ms, None);
        // The removed knobs' spellings that select today's behaviour
        // still parse, to the defaults.
        for extra in
            [r#""batch":1"#, r#""batch":null"#, r#""plan":true"#, r#""plan":null"#, r#""cutoff":null"#]
        {
            let raw = format!(r#"{{"cmd":"allocate","bench":"dct",{extra}}}"#);
            let Ok(Command::Allocate(alloc)) = parse_command(&parse_json(&raw).unwrap()) else {
                panic!("{raw} should parse")
            };
            assert_eq!(alloc.knobs, Knobs::default(), "{raw}");
        }
    }

    #[test]
    fn rejects_malformed_requests_with_bad_request() {
        let cases = [
            (r#"[1,2]"#, "object"),
            (r#"{"bench":"ewf"}"#, "cmd"),
            (r#"{"cmd":"frobnicate"}"#, "unknown cmd"),
            (r#"{"cmd":"allocate"}"#, "needs a design"),
            (r#"{"cmd":"allocate","bench":"ewf","cdfg":"x"}"#, "not both"),
            (r#"{"cmd":"allocate","bench":"ewf","steps":0}"#, "steps"),
            (r#"{"cmd":"allocate","bench":"ewf","steps":257}"#, "'steps' must be in 1..=256"),
            (r#"{"cmd":"allocate","bench":"ewf","steps":100000000}"#, "steps"),
            (r#"{"cmd":"allocate","bench":"ewf","extra_regs":257}"#, "'extra_regs' must be at most 256"),
            (r#"{"cmd":"allocate","bench":"ewf","extra_regs":100000000}"#, "extra_regs"),
            (r#"{"cmd":"allocate","bench":"ewf","restarts":0}"#, "restarts"),
            (r#"{"cmd":"allocate","bench":"ewf","restarts":4097}"#, "restarts"),
            (r#"{"cmd":"allocate","bench":"ewf","threads":65}"#, "'threads' must be at most 64"),
            // Rejected at parse: no worker thread starts.
            (
                r#"{"cmd":"allocate","bench":"ewf","restarts":4096,"threads":4096}"#,
                "'threads' must be at most 64",
            ),
            (
                r#"{"cmd":"reallocate","base":"ab","bench":"ewf","threads":65}"#,
                "'threads' must be at most 64",
            ),
            (r#"{"cmd":"allocate","bench":"ewf","seed":-3}"#, "seed"),
            (r#"{"cmd":"allocate","bench":"ewf","pipelined":"yes"}"#, "boolean"),
            (r#"{"cmd":"allocate","bench":"ewf","verify":"loud"}"#, "verify"),
            (r#"{"cmd":"allocate","bench":"ewf","warm":"garbage"}"#, "warm"),
            (r#"{"cmd":"reallocate","bench":"ewf"}"#, "base"),
            (r#"{"cmd":"reallocate","base":"xyz","bench":"ewf"}"#, "job id"),
            (r#"{"cmd":"trace"}"#, "id"),
            // The batch engine, the plan on/off toggle and the portfolio
            // cutoff are gone; a job asking for them fails loudly instead
            // of running something else.
            (r#"{"cmd":"allocate","bench":"ewf","batch":8}"#, "'batch' was removed"),
            (r#"{"cmd":"allocate","bench":"ewf","batch":0}"#, "'batch' was removed"),
            (r#"{"cmd":"allocate","bench":"ewf","batch":"8"}"#, "'batch' was removed"),
            (r#"{"cmd":"reallocate","base":"ab","bench":"ewf","batch":2}"#, "'batch' was removed"),
            (r#"{"cmd":"allocate","bench":"ewf","plan":false}"#, "'plan' was removed"),
            (r#"{"cmd":"allocate","bench":"ewf","plan":"off"}"#, "'plan' was removed"),
            (r#"{"cmd":"allocate","bench":"ewf","cutoff":1.25}"#, "'cutoff' was removed"),
            (r#"{"cmd":"reallocate","base":"ab","bench":"ewf","cutoff":2}"#, "'cutoff' was removed"),
        ];
        for (raw, needle) in cases {
            let req = parse_json(raw).unwrap();
            let err = parse_command(&req).expect_err(raw);
            assert_eq!(err.kind, ErrorKind::BadRequest, "{raw}");
            assert!(err.message.contains(needle), "{raw}: {}", err.message);
        }
    }

    #[test]
    fn seeds_above_i64_survive_the_wire() {
        // u64 seeds near the top of the range are Int-encoded losslessly
        // up to i64::MAX; beyond that the protocol rejects rather than
        // silently rounding through a double.
        let req = parse_json(&format!(r#"{{"cmd":"allocate","bench":"ewf","seed":{}}}"#, i64::MAX))
            .unwrap();
        let Command::Allocate(alloc) = parse_command(&req).unwrap() else { panic!() };
        assert_eq!(alloc.knobs.seed, i64::MAX as u64);
    }

    #[test]
    fn cache_key_separates_every_knob() {
        let text = "cdfg t\ninput x\nop y = add x x\noutput y\n";
        let base = Knobs::default();
        let key = |k: &Knobs| cache_key(text, k);
        let variants = [
            Knobs { steps: Some(9), ..base.clone() },
            Knobs { extra_regs: 1, ..base.clone() },
            Knobs { seed: 43, ..base.clone() },
            Knobs { restarts: 2, ..base.clone() },
            Knobs { pipelined: true, ..base.clone() },
            Knobs { traditional: true, ..base.clone() },
            Knobs { mem_moves: false, ..base.clone() },
            Knobs { verify: true, ..base.clone() },
            Knobs { warm: Some(Arc::new(WarmSpec::new())), ..base.clone() },
            Knobs {
                warm: Some(Arc::new(WarmSpec { source: 7, ..WarmSpec::new() })),
                ..base.clone()
            },
        ];
        let base_key = key(&base);
        for v in &variants {
            assert_ne!(key(v), base_key, "{v:?}");
        }
        // Different text, same knobs — different key too.
        assert_ne!(cache_key("cdfg u\ninput x\nop y = add x x\noutput y\n", &base), base_key);
        // Stable for identical inputs.
        assert_eq!(key(&base), base_key);
    }

    #[test]
    fn verify_mode_wire_spellings() {
        // One certifying mode: both certifying spellings parse to it, on
        // the wire and in stored knobs, and it renders as `full`.
        let verify = |raw: &str| {
            knobs_from_json(&parse_json(&format!(r#"{{"verify":{raw}}}"#)).unwrap()).map(|k| k.verify)
        };
        assert_eq!(verify(r#""off""#), Ok(false));
        assert_eq!(verify("null"), Ok(false));
        assert_eq!(verify(r#""sample""#), Ok(true));
        assert_eq!(verify(r#""full""#), Ok(true));
        assert!(verify(r#""loud""#).is_err() && verify("true").is_err());
        assert_eq!(parse_verify("sample"), parse_verify("full"));
        let sample = verify(r#""sample""#).unwrap();
        let rendered = knobs_to_json(&Knobs { verify: sample, ..Knobs::default() });
        assert_eq!(rendered.get("verify").and_then(Json::as_str), Some("full"));
        assert_eq!(knobs_to_json(&Knobs::default()).get("verify"), None);
    }

    #[test]
    fn thread_caps_do_not_separate_cache_keys() {
        // `threads` is an execution hint on the request, not a knob: the
        // same job sent under any cap (or none) has one key.
        let text = "cdfg t\ninput x\nop y = add x x\noutput y\n";
        let mut keys = Vec::new();
        for threads in ["", r#","threads":1"#, r#","threads":2"#, r#","threads":64"#] {
            let raw = format!(r#"{{"cmd":"allocate","cdfg":"x","restarts":4{threads}}}"#);
            let Ok(Command::Allocate(alloc)) = parse_command(&parse_json(&raw).unwrap()) else {
                panic!("{raw} should parse")
            };
            keys.push(cache_key(text, &alloc.knobs));
        }
        assert!(keys.windows(2).all(|w| w[0] == w[1]), "{keys:x?}");
        assert!(!knobs_to_json(&Knobs::default()).to_string_compact().contains("threads"));
    }

    #[test]
    fn knobs_roundtrip_through_their_wire_spelling() {
        let full = Knobs {
            steps: Some(17),
            extra_regs: 1,
            seed: 7,
            restarts: 4,
            pipelined: true,
            traditional: true,
            mem_moves: false,
            verify: true,
            warm: Some(Arc::new(WarmSpec {
                op_fu: vec![(0, 2), (3, 1)],
                focus_ops: vec![4],
                source: 0xabcd,
                distance: 3,
                ..WarmSpec::new()
            })),
        };
        for knobs in [Knobs::default(), full] {
            let rendered = knobs_to_json(&knobs);
            let reparsed = parse_json(&rendered.to_string_compact()).unwrap();
            assert_eq!(knobs_from_json(&reparsed).unwrap(), knobs);
        }
    }

    #[test]
    fn stored_knobs_of_removed_options_still_parse() {
        // Trace artifacts dumped before the plan toggle and the cutoff
        // went away carry `"plan":false` or a `"cutoff"`; neither changed
        // a recorded (completed) chain's trajectory, so the artifact must
        // still audit. Only the wire rejects them.
        let stored =
            parse_json(r#"{"seed":7,"restarts":2,"plan":false,"cutoff":1.25}"#).unwrap();
        let knobs = knobs_from_json(&stored).unwrap();
        assert_eq!(knobs, Knobs { seed: 7, restarts: 2, ..Knobs::default() });
    }

    #[test]
    fn error_response_carries_position_for_parse_errors() {
        let parse_err = salsa_cdfg::parse_cdfg("cdfg t\ninput x\nop y = add x nosuch\noutput y\n")
            .expect_err("dangling reference");
        let err = ServeError::from_parse(&parse_err);
        let json = error_response(&err);
        assert_eq!(json.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(json.get("kind").and_then(Json::as_str), Some("parse"));
        assert_eq!(json.get("line").and_then(Json::as_i64), Some(3));
        assert!(json.get("column").and_then(Json::as_i64).is_some());
    }

    #[test]
    fn aliases_resolve_to_canonical_benchmarks() {
        assert_eq!(canonical_bench_name("hal"), "diffeq");
        assert_eq!(canonical_bench_name("fir"), "fir16");
        assert_eq!(canonical_bench_name("ar"), "ar_lattice");
        assert_eq!(canonical_bench_name("ewf"), "ewf");
        assert_eq!(canonical_bench_name("dct"), "dct");
    }
}

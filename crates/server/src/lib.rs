//! `salsa-serve` — an allocation service for the SALSA reproduction.
//!
//! A std-only multi-threaded TCP server speaking `salsa-wire`'s binary
//! frames: clients submit a CDFG (inline text or a benchmark name) plus
//! resource constraints and search knobs as a JSON document; the server
//! runs the parallel portfolio allocator and returns the allocation
//! report as one. See [`protocol`] for the request grammar.
//!
//! The service is built from small, independently tested parts:
//!
//! - [`queue`] — a bounded job queue with explicit backpressure: when
//!   full, requests are *rejected with a retry hint*, never buffered
//!   unboundedly;
//! - [`server`] — the accept loop, a fixed worker pool (with per-worker
//!   scratch buffers reused across jobs), per-job deadlines delivered as
//!   cooperative [`CancelToken`](salsa_alloc::CancelToken)s into the
//!   search, and graceful drain-then-exit shutdown;
//! - [`cache`] — the one bounded FIFO cache behind the result cache
//!   (keyed by the FNV-1a 128 fingerprint of `(canonical CDFG text,
//!   knobs)`), the verdict cache, the admission cache and the seed index;
//! - [`stats`] — job counters and p50/p95/p99 latency for the wire
//!   `stats` command;
//! - [`json`] / [`report`] — a std-only JSON model and the report
//!   serializer shared with the CLI's `--json` mode;
//! - [`exec`] — the request → schedule → allocate → report pipeline,
//!   built on [`plan_job`], the one derivation of a job's setup from its
//!   knobs that the CLI and verifier share;
//! - [`verifier`] — verification as a service: jobs submitted with
//!   `verify: sample|full` are certified on a dedicated worker lane
//!   (record the winning chain's move trace, replay it with cost
//!   cross-checks, verify symbolically) before the response — which
//!   gains a `certificate` section — is sent; verdicts are cached
//!   content-addressed beside the result cache, and the wire `trace`
//!   command re-records the portable artifact on the same lane for
//!   offline audit.
//!
//! # Why an exact-hit cache is sound
//!
//! Two requests whose canonical CDFG text and knobs agree are the *same
//! job*: canonicalization collapses spelling variants (the canonical
//! text is a fixpoint of `parse ∘ print`), and the portfolio search is
//! deterministic for identical inputs — identical seeds, restart
//! derivation and reduction order. The cache therefore replays the
//! stored response bytes, and a hit is byte-identical to what a fresh
//! run would have produced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod exec;
pub mod similarity;
pub use salsa_wire::json;
pub mod protocol;
pub mod queue;
pub mod report;
pub mod server;
pub mod stats;
pub mod verifier;

pub use admission::{AdmissionArtifact, AdmissionCache};
pub use cache::ResultCache;
pub use exec::{
    map_alloc_error, plan_job, resolve_graph, run_allocation, run_artifact, with_replay_env,
    JobPlan,
};
pub use json::{parse_json, Json, JsonError};
pub use protocol::{
    cache_key, knobs_from_json, knobs_to_json, ok_response_keyed, parse_command, AllocRequest,
    Command, ErrorKind, GraphSource, Knobs, ReallocRequest, ServeError,
};
pub use similarity::{build_warm_spec, SeedEntry, SeedIndex, Sketch};
pub use queue::{JobQueue, PushError};
pub use report::{canonicalize_report, report_json};
pub use server::{Server, ServerConfig};
pub use stats::{ServerStats, StatsSnapshot};
pub use verifier::{result_fingerprint, trace_id_hex, VerdictCache, VerifyJob};

//! The certificate pipeline: certification of completed allocations on
//! the verifier lane, the `trace` lookup over the result cache, the
//! portable [`TraceArtifact`] envelope, and offline [`audit`].
//!
//! Jobs submitted with `verify` on (`sample` and `full` are one mode) do
//! not reply from the allocation worker. Instead the completed report is
//! handed (with its reply handle) to this lane, which re-derives the
//! winning chain with trace recording on, replays the trace move-by-move
//! with a cost check at every commit, compares the replayed binding
//! bit-for-bit with the recorded one, runs the full symbolic
//! verification, and only then replies — with a `certificate` section
//! appended to the report. The lane has its own small worker pool so
//! symbolic replay never blocks allocation throughput, and its own
//! latency reservoir so operators can watch the two lanes separately.
//!
//! A certified job's result-cache entry ([`JobEntry`](crate::cache::JobEntry))
//! carries a [`CertEntry`]: what the artifact is made from — the shared
//! admission artifact, the knobs, the winning slot, the cost and the
//! canonical report — but not the trace text, which for a long search
//! is hundreds of kilobytes. The certificate itself lives in the cached
//! response, so a repeat of a cached job is a result-cache hit and is
//! not certified again. The wire `trace` command finds the entry by
//! trace id and costs one chain run: it re-records the slot's trace on
//! this lane, checks its fingerprint against the certificate's
//! `trace_id`, and serves the byte-identical artifact.
//!
//! [`audit`] is the offline half (`salsa-hls audit`): from the artifact
//! alone it replays the trace through the same checked replay step
//! certification uses, then re-runs the job and byte-compares the
//! canonical reports. No server, no cache, no search beyond the re-run.

use std::sync::Arc;

use salsa_alloc::{
    record_slot_trace, replay_trace, verify_binding, AllocContext, Binding, ImproveConfig,
    MoveTrace,
};
use salsa_cdfg::parse_cdfg;
use salsa_datapath::Verdict;
use salsa_wire::net::ReplyHandle;

use crate::admission::AdmissionArtifact;
use crate::cache::ResultCache;
use crate::exec::{plan_job, run_allocation};
use crate::json::Json;
use crate::protocol::{knobs_from_json, knobs_to_json, ErrorKind, Knobs, ServeError};
use crate::report::canonicalize_report;
use crate::similarity::SeedEntry;

/// A completed allocation awaiting certification. Carries everything the
/// lane needs to re-derive the result — and the reply handle, because
/// the response is not sent until the certificate exists.
pub struct VerifyJob {
    /// The job's admission artifact: the resolved design plus its
    /// already-rendered canonical text, so the lane never re-parses or
    /// re-renders what admission already has.
    pub artifact: Arc<AdmissionArtifact>,
    /// The job's resolved knobs.
    pub knobs: Knobs,
    /// The winner to bank; its `key` is the job's result-cache key, under
    /// which the certified response is cached.
    pub seed: SeedEntry,
    /// Completes the originating request.
    pub reply: ReplyHandle,
    /// The allocation report the certificate is appended to.
    pub report: Json,
}

/// The wire spelling of a trace id: the trace fingerprint as 32 hex
/// digits.
pub fn trace_id_hex(fingerprint: u128) -> String {
    format!("{fingerprint:032x}")
}

/// Parses the wire spelling back to a fingerprint.
pub fn parse_trace_id(id: &str) -> Option<u128> {
    (!id.is_empty() && id.len() <= 32).then(|| u128::from_str_radix(id, 16).ok())?
}

/// Work for the verifier lane.
pub enum LaneJob {
    /// Certify a completed allocation and complete its reply.
    Certify(Box<VerifyJob>),
    /// Re-derive a cached certificate's trace artifact for the wire
    /// `trace` command.
    Trace {
        /// The certificate whose artifact is requested.
        entry: Arc<CertEntry>,
        /// Completes the `trace` request.
        reply: ReplyHandle,
    },
}

/// One certification: what re-deriving the trace artifact behind a
/// cached certificate needs. The trace text itself is not kept.
pub struct CertEntry {
    /// The trace fingerprint the `trace` command looks entries up by.
    pub trace_id: u128,
    /// The job's admission artifact, shared with the admission cache:
    /// the design and its canonical text.
    pub admission: Arc<AdmissionArtifact>,
    /// The job's knobs.
    pub knobs: Knobs,
    /// The winning portfolio slot the trace records.
    pub slot: usize,
    /// The certified final weighted cost.
    pub cost: u64,
    /// The canonical (timing-zeroed) compact report.
    pub report: String,
}

impl CertEntry {
    /// Re-records the winning slot's trace and packages the artifact —
    /// byte-identical to the one certification produced, since the
    /// recording is a pure function of `(design, knobs, slot)`. Costs
    /// one chain run, so it belongs on the verifier lane.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] of kind [`ErrorKind::Audit`] if the
    /// re-run fails or its trace fingerprint differs from
    /// [`trace_id`](Self::trace_id).
    pub fn trace_artifact(&self) -> Result<TraceArtifact, ServeError> {
        let job = self.admission.plan(&self.knobs)?;
        let trace = job.with_replay_env(&self.admission.graph, |ctx, config| {
            record_slot_trace(ctx, config, self.knobs.seed, self.slot).map(|(trace, _)| trace)
        })?
        .map_err(|e| audit_error(format!("re-recording the trace: {e}")))?;
        let derived = trace.fingerprint();
        if derived != self.trace_id {
            return Err(audit_error(format!(
                "re-recorded trace {} differs from the certified {}",
                trace_id_hex(derived),
                trace_id_hex(self.trace_id)
            )));
        }
        Ok(assemble_artifact(
            self.admission.canonical_text.clone(),
            &self.knobs,
            self.slot,
            &trace,
            self.cost,
            self.report.clone(),
        ))
    }
}

/// Packages a certified job's trace into the portable envelope — the
/// one assembly both certification and the `trace` command use.
fn assemble_artifact(
    design: String,
    knobs: &Knobs,
    slot: usize,
    trace: &MoveTrace,
    cost: u64,
    report: String,
) -> TraceArtifact {
    TraceArtifact { design, knobs: knobs_to_json(knobs), slot, trace: trace.encode(), cost, report }
}

fn audit_error(message: impl Into<String>) -> ServeError {
    ServeError::new(ErrorKind::Audit, message)
}

/// The portable JSON envelope of a certified job's trace: everything
/// [`audit`] needs to re-derive the result offline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArtifact {
    /// The canonical CDFG text of the design.
    pub design: String,
    /// The request knobs, in their wire spelling.
    pub knobs: Json,
    /// The winning portfolio slot the trace records.
    pub slot: usize,
    /// The encoded [`MoveTrace`].
    pub trace: String,
    /// The result's final weighted cost.
    pub cost: u64,
    /// The canonical (timing-zeroed) compact report the trace certifies.
    pub report: String,
}

/// The format marker of the artifact envelope.
pub const ARTIFACT_FORMAT: &str = "salsa-trace-artifact/1";

impl TraceArtifact {
    /// Renders the artifact as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("format", Json::Str(ARTIFACT_FORMAT.to_string())),
            ("design", Json::Str(self.design.clone())),
            ("knobs", self.knobs.clone()),
            ("slot", Json::Int(self.slot as i64)),
            ("trace", Json::Str(self.trace.clone())),
            ("cost", Json::Int(self.cost as i64)),
            ("report", Json::Str(self.report.clone())),
        ])
    }

    /// Parses an artifact envelope.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] of kind [`ErrorKind::Audit`] naming the
    /// missing or mistyped field, or the unsupported format.
    pub fn from_json(doc: &Json) -> Result<TraceArtifact, ServeError> {
        let missing =
            |field: &str| audit_error(format!("bad trace artifact: missing or bad `{field}`"));
        let text = |field: &str| {
            doc.get(field).and_then(Json::as_str).map(str::to_string).ok_or_else(|| missing(field))
        };
        let number =
            |field: &str| doc.get(field).and_then(Json::as_u64).ok_or_else(|| missing(field));
        let format = text("format")?;
        if format != ARTIFACT_FORMAT {
            return Err(audit_error(format!(
                "bad trace artifact: unsupported format `{format}` (expected `{ARTIFACT_FORMAT}`)"
            )));
        }
        Ok(TraceArtifact {
            design: text("design")?,
            knobs: doc.get("knobs").cloned().ok_or_else(|| missing("knobs"))?,
            slot: number("slot")? as usize,
            trace: text("trace")?,
            cost: number("cost")?,
            report: text("report")?,
        })
    }
}

impl ResultCache {
    /// The certification of the newest cached job whose certificate
    /// carries `trace_id` (the `trace` command's path; not counted as a
    /// hit or miss).
    pub fn get_by_trace(&self, trace_id: u128) -> Option<Arc<CertEntry>> {
        let mut found = None;
        self.scan(|entry| {
            if let Some(cert) = entry.cert.as_ref().filter(|cert| cert.trace_id == trace_id) {
                found = Some(Arc::clone(cert));
            }
        });
        found
    }
}

/// Renders the `certificate` response section from the verdict and the
/// trace it was reached by. Its `mode` always reads `full`: that is the
/// one certification there is.
pub fn certificate_json(verdict: &Verdict, trace: &MoveTrace, verify_ms: f64) -> Json {
    Json::obj(vec![
        ("verdict", Json::Str(verdict.as_str().into())),
        ("mode", Json::Str("full".into())),
        ("verify_ms", Json::Float(verify_ms)),
        ("trace_id", Json::Str(trace_id_hex(trace.fingerprint()))),
        ("commits", Json::Int(trace.commits() as i64)),
    ])
}

/// The replay step certification and [`audit`] share: check the trace's
/// final cost against the `cost` the result claims, replay the trace
/// with a cost check at every commit, and verify the replayed binding
/// symbolically. No search runs. A refuted verdict is returned, not
/// raised.
fn replay_checked<'a>(
    ctx: &'a AllocContext<'a>,
    config: &ImproveConfig,
    trace: &MoveTrace,
    cost: u64,
) -> Result<(Binding<'a>, Verdict), ServeError> {
    if trace.final_cost != cost {
        return Err(audit_error(format!(
            "re-derived cost {} disagrees with the reported {cost}",
            trace.final_cost
        )));
    }
    let binding = replay_trace(ctx, config, trace)
        .map_err(|e| audit_error(format!("trace replay failed: {e}")))?;
    let verdict = verify_binding(&binding);
    Ok((binding, verdict))
}

/// Certifies one completed job: rebuild the allocation environment from
/// the admission artifact's cached plan (no second schedule or plan
/// compile), record the winning slot's trace, replay it through the
/// checked replay step, compare the replayed binding bit-for-bit with
/// the recorded one, and package the portable artifact. Returns the
/// verdict, the trace and the artifact. Pure in `(design, knobs,
/// report)`.
///
/// # Errors
///
/// Returns a [`ServeError`] of kind [`ErrorKind::Audit`] if the report
/// is missing its cost or winner slot, or if any link of the chain
/// (re-run, cost check, replay, bit-for-bit comparison) breaks. A
/// *refuted* symbolic verdict is not an error — it is carried in the
/// certificate.
pub fn certify_job(
    admission: &AdmissionArtifact,
    knobs: &Knobs,
    report: &Json,
) -> Result<(Verdict, MoveTrace, TraceArtifact), ServeError> {
    let cost = report
        .get("cost")
        .and_then(Json::as_u64)
        .ok_or_else(|| audit_error("report has no 'cost' to certify"))?;
    let slot = report
        .get("portfolio")
        .and_then(|p| p.get("winner_slot"))
        .and_then(Json::as_u64)
        .ok_or_else(|| audit_error("report has no 'portfolio.winner_slot' to replay"))?
        as usize;

    let job = admission.plan(knobs)?;
    let (verdict, trace) = job.with_replay_env(&admission.graph, |ctx, config| {
        let (trace, recorded) = record_slot_trace(ctx, config, knobs.seed, slot)
            .map_err(|e| audit_error(format!("audit re-run failed: {e}")))?;
        let (replayed, verdict) = replay_checked(ctx, config, &trace, cost)?;
        if replayed != recorded {
            return Err(audit_error("replayed binding diverged from the recorded one"));
        }
        Ok((verdict, trace))
    })??;

    let mut canonical = report.clone();
    canonicalize_report(&mut canonical);
    let artifact = assemble_artifact(
        admission.canonical_text.clone(),
        knobs,
        slot,
        &trace,
        cost,
        canonical.to_string_compact(),
    );
    Ok((verdict, trace, artifact))
}

/// What a passed [`audit`] established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditOutcome {
    /// The replayed trace's fingerprint (its wire spelling is
    /// [`trace_id_hex`]).
    pub trace_id: u128,
    /// Committed moves replayed.
    pub commits: usize,
    /// The certified final weighted cost.
    pub cost: u64,
    /// Length of the reproduced canonical report, identical to the
    /// artifact's.
    pub report_bytes: usize,
}

/// Offline audit of a trace artifact, or of a saved `trace` response
/// that wraps one: replay the trace against the artifact's design and
/// knobs through the checked replay step, then re-run the whole job
/// through [`run_allocation`] and byte-compare the reproduced canonical
/// report with the artifact's. The artifact is untrusted input: every
/// defect is an error, never a panic.
///
/// # Errors
///
/// Returns a [`ServeError`] of kind [`ErrorKind::Audit`] for a malformed
/// envelope, design, knobs or trace, a cost or replay divergence, a
/// refuted verdict, or a differing report. Planning and the re-run keep
/// their own error kinds.
pub fn audit(doc: &Json) -> Result<AuditOutcome, ServeError> {
    let artifact = TraceArtifact::from_json(doc.get("artifact").unwrap_or(doc))?;
    let graph = parse_cdfg(&artifact.design)
        .map_err(|e| audit_error(format!("artifact design: {e}")))?;
    let knobs = knobs_from_json(&artifact.knobs)
        .map_err(|e| audit_error(format!("artifact knobs: {}", e.message)))?;
    let trace = MoveTrace::decode(&artifact.trace)
        .map_err(|e| audit_error(format!("artifact trace: {e}")))?;
    let trace_id = trace.fingerprint();

    let verdict = plan_job(&graph, &knobs)?.with_replay_env(&graph, |ctx, config| {
        replay_checked(ctx, config, &trace, artifact.cost).map(|(_, verdict)| verdict)
    })??;
    if !verdict.is_certified() {
        return Err(audit_error(format!(
            "trace {}: replayed binding was refuted: {verdict}",
            trace_id_hex(trace_id)
        )));
    }

    // Independent reproduction: the full search from the artifact's
    // knobs must land on the byte-identical canonical report.
    let mut report = run_allocation(&graph, &knobs, None)?;
    canonicalize_report(&mut report);
    let reproduced = report.to_string_compact();
    if reproduced != artifact.report {
        return Err(audit_error(format!(
            "trace {}: reproduced canonical report differs from the artifact's\n\
             reproduced: {reproduced}\nartifact:   {}",
            trace_id_hex(trace_id),
            artifact.report
        )));
    }
    Ok(AuditOutcome {
        trace_id,
        commits: trace.commits(),
        cost: artifact.cost,
        report_bytes: reproduced.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::JobEntry;
    use crate::exec::{resolve_graph, run_artifact};
    use crate::protocol::{cache_key, GraphSource};
    use salsa_alloc::BindingParts;
    use salsa_wire::frame::Payload;

    #[test]
    fn trace_ids_roundtrip_and_reject_junk() {
        for fp in [0u128, 1, u128::MAX, 0xdead_beef] {
            assert_eq!(parse_trace_id(&trace_id_hex(fp)), Some(fp));
        }
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("zz"), None);
        assert_eq!(parse_trace_id(&"f".repeat(33)), None);
    }

    #[test]
    fn artifact_roundtrips_through_json() {
        let artifact = TraceArtifact {
            design: "design d { }".to_string(),
            knobs: Json::obj(vec![("seed", Json::Int(7))]),
            slot: 3,
            trace: "salsa-trace/1 base=7 slot=3 seed=10 init=9 searched=9 final=9 n=0"
                .to_string(),
            cost: 9,
            report: "{\"design\":\"d\"}".to_string(),
        };
        let text = artifact.to_json().to_string_compact();
        let parsed = TraceArtifact::from_json(&crate::json::parse_json(&text).unwrap()).unwrap();
        assert_eq!(parsed, artifact);
        assert!(MoveTrace::decode(&parsed.trace).is_ok());

        let err = TraceArtifact::from_json(&Json::obj(vec![("format", Json::Str("x".into()))]))
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Audit);
        assert!(err.message.contains("unsupported format"), "{}", err.message);
    }

    fn job(trace_id: Option<u128>) -> Arc<JobEntry> {
        let graph = resolve_graph(&GraphSource::Bench("paper_example".into())).unwrap();
        let admission = Arc::new(AdmissionArtifact::new(graph));
        let seed = SeedEntry {
            key: 0,
            graph: Arc::clone(&admission.graph),
            parts: BindingParts {
                op_fu: Vec::new(),
                op_swap: Vec::new(),
                chains: Vec::new(),
                use_chain: Vec::new(),
                passes: Vec::new(),
                array_banks: Vec::new(),
            },
            cost: 0,
            sketch: Arc::clone(&admission.sketch),
        };
        let cert = trace_id.map(|trace_id| {
            Arc::new(CertEntry {
                trace_id,
                admission,
                knobs: Knobs::default(),
                slot: 0,
                cost: 0,
                report: String::new(),
            })
        });
        Arc::new(JobEntry { payload: Arc::new(Payload::new(Json::Null)), seed, cert })
    }

    #[test]
    fn verdict_cache_serves_both_indexes_and_evicts_fifo() {
        // Certificates live in the result cache: a job is found by its key
        // (counted) and by its certificate's trace id (not counted).
        let cache = ResultCache::new(2);
        assert!(cache.get(1).is_none());
        cache.insert(1, job(Some(11)));
        cache.insert(2, job(Some(22)));
        assert_eq!(cache.get(1).unwrap().cert.as_ref().unwrap().trace_id, 11);
        assert_eq!(cache.get_by_trace(22).unwrap().trace_id, 22);
        assert!(cache.get_by_trace(33).is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 1), "trace lookups are not counted");

        // A later uncertified job evicts the oldest entry from both
        // lookups: a trace id expires with the response that named it.
        cache.insert(3, job(None));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1).is_none());
        assert!(cache.get_by_trace(11).is_none());
        assert_eq!(cache.get_by_trace(22).unwrap().trace_id, 22);
    }

    #[test]
    fn trace_lookup_outlives_an_evicted_twin() {
        // Two distinct cached jobs whose certificates carry one trace id.
        // Evicting the older must not hide the live one from `trace`.
        let cache = ResultCache::new(2);
        let twin = job(Some(7));
        cache.insert(1, job(Some(7)));
        cache.insert(2, Arc::clone(&twin));
        cache.insert(3, job(Some(8)));
        let found = cache.get_by_trace(7).expect("the younger twin is still cached");
        assert!(Arc::ptr_eq(&found, twin.cert.as_ref().unwrap()));
    }

    #[test]
    fn certify_job_certifies_a_real_report_and_result_invariant_knobs_share_a_fingerprint() {
        let graph = resolve_graph(&GraphSource::Bench("paper_example".into())).unwrap();
        let admission = AdmissionArtifact::new(graph);
        let spelled = Knobs { restarts: 2, verify: true, ..Knobs::default() };
        let knobs = admission.resolve(&spelled);
        assert!(knobs.steps.is_some(), "admission resolves the step count");
        let (report, _) = run_artifact(&admission, &knobs, None, Some(2)).unwrap();
        let (verdict, trace, artifact) = certify_job(&admission, &knobs, &report).unwrap();
        assert!(verdict.is_certified(), "{verdict}");
        assert!(trace.commits() > 0);
        assert_eq!(artifact.cost, report.get("cost").and_then(Json::as_u64).unwrap());
        assert_eq!(artifact.design, admission.canonical_text);
        assert_eq!(MoveTrace::decode(&artifact.trace).unwrap(), trace);
        let certificate = certificate_json(&verdict, &trace, 1.5);
        assert_eq!(certificate.get("mode").and_then(Json::as_str), Some("full"));
        assert!(certificate.get("cache").is_none());

        // The artifact's embedded report is the canonical form of the
        // live one, and its knobs are the resolved ones.
        let mut canonical = report.clone();
        canonicalize_report(&mut canonical);
        assert_eq!(artifact.report, canonical.to_string_compact());
        assert_eq!(crate::protocol::knobs_from_json(&artifact.knobs).unwrap(), knobs);

        // `steps` omitted and the explicit ASAP length are one job with
        // one key, and a fresh run of the omitted spelling computes the
        // report that key stands for.
        let text = &admission.canonical_text;
        assert_eq!(cache_key(text, &admission.resolve(&spelled)), cache_key(text, &knobs));
        let (mut other, _) = run_artifact(&admission, &spelled, None, Some(1)).unwrap();
        canonicalize_report(&mut other);
        assert_eq!(other.to_string_compact(), artifact.report, "the ASAP length is the default");

        // A tampered report cost is refused.
        let mut lied = report.clone();
        if let Json::Obj(pairs) = &mut lied {
            for (key, value) in pairs.iter_mut() {
                if key == "cost" {
                    *value = Json::Int(Json::as_i64(value).unwrap() + 1);
                }
            }
        }
        let err = certify_job(&admission, &knobs, &lied).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Audit);
    }

    #[test]
    fn an_artifact_certified_at_two_threads_reproduces_at_one() {
        // What offline audit does on a host with fewer cores: re-derive
        // the job from the artifact alone, on one worker, and compare
        // canonical reports.
        let graph = resolve_graph(&GraphSource::Bench("diffeq".into())).unwrap();
        let admission = AdmissionArtifact::new(graph);
        let knobs = Knobs { seed: 9, restarts: 4, verify: true, ..Knobs::default() };
        let (report, _) = run_artifact(&admission, &knobs, None, Some(2)).unwrap();
        let (_, _, artifact) = certify_job(&admission, &knobs, &report).unwrap();

        let graph = salsa_cdfg::parse_cdfg(&artifact.design).unwrap();
        let stored = crate::protocol::knobs_from_json(&artifact.knobs).unwrap();
        assert_eq!(stored, knobs);
        let job = crate::exec::plan_job(&graph, &stored).unwrap();
        let result = job.run(&graph, None, Some(1)).unwrap();
        assert_eq!(result.portfolio.threads, 1);
        let mut reproduced = job.report(&graph, &result);
        canonicalize_report(&mut reproduced);
        assert_eq!(reproduced.to_string_compact(), artifact.report);
    }

    #[test]
    fn cached_entries_re_derive_the_certified_artifact() {
        let graph = resolve_graph(&GraphSource::Bench("paper_example".into())).unwrap();
        let admission = Arc::new(AdmissionArtifact::new(graph));
        let knobs = Knobs { restarts: 3, verify: true, ..Knobs::default() };
        let (report, _) = run_artifact(&admission, &knobs, None, Some(1)).unwrap();
        let (_, trace, artifact) = certify_job(&admission, &knobs, &report).unwrap();
        let entry = CertEntry {
            trace_id: trace.fingerprint(),
            admission,
            knobs,
            slot: artifact.slot,
            cost: artifact.cost,
            report: artifact.report.clone(),
        };
        let derived = entry.trace_artifact().unwrap();
        assert_eq!(derived, artifact, "re-recording reproduces the certified artifact");
        assert_eq!(
            derived.to_json().to_string_compact(),
            artifact.to_json().to_string_compact()
        );

        // An entry whose trace id the re-run cannot reproduce is an
        // audit failure, not a silently different artifact.
        let forged = CertEntry { trace_id: entry.trace_id ^ 1, ..entry };
        let err = forged.trace_artifact().unwrap_err();
        assert_eq!(err.kind, ErrorKind::Audit);
        assert!(err.message.contains("differs"), "{}", err.message);
    }
}

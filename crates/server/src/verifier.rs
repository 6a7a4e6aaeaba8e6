//! The verifier lane: certification of completed allocations on a
//! dedicated worker pool, and the `trace` lookup over the result cache.
//!
//! Jobs submitted with `verify` on (`sample` and `full` are one mode) do
//! not reply from the allocation worker. Instead the completed report is
//! handed (with its reply handle) to this lane, which re-derives the
//! winning chain with trace recording on, replays the trace move-by-move
//! with a cost check at every commit, runs the full symbolic
//! verification, and only then replies — with a `certificate` section
//! appended to the report. The lane has its own small worker pool so
//! symbolic replay never blocks allocation throughput, and its own
//! latency reservoir so operators can watch the two lanes separately.
//!
//! A certified job's result-cache entry ([`JobEntry`](crate::cache::JobEntry))
//! carries a [`CertEntry`]: what the portable [`TraceArtifact`] envelope
//! is made from — the shared admission artifact, the knobs, the winning
//! slot, the cost and the canonical report — but not the trace text,
//! which for a long search is hundreds of kilobytes. The certificate
//! itself lives in the cached response, so a repeat of a cached job is a
//! result-cache hit and is not certified again. The wire `trace` command
//! finds the entry by trace id and costs one chain run: it re-records
//! the slot's trace on this lane, checks its fingerprint against the
//! certificate's `trace_id`, and serves the byte-identical artifact for
//! offline audit (`salsa audit`).

use std::sync::Arc;

use salsa_alloc::{record_slot_trace, MoveTrace};
use salsa_audit::{certify, Certification, TraceArtifact};
use salsa_wire::net::ReplyHandle;

use crate::admission::AdmissionArtifact;
use crate::cache::ResultCache;
use crate::json::Json;
use crate::protocol::{knobs_to_json, ErrorKind, Knobs, ServeError};
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
        .map_err(|e| ServeError::new(ErrorKind::Audit, format!("re-recording the trace: {e}")))?;
        let derived = trace.fingerprint();
        if derived != self.trace_id {
            return Err(ServeError::new(
                ErrorKind::Audit,
                format!(
                    "re-recorded trace {} differs from the certified {}",
                    trace_id_hex(derived),
                    trace_id_hex(self.trace_id)
                ),
            ));
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

/// Renders the `certificate` response section. Its `mode` always reads
/// `full`: that is the one certification there is.
pub fn certificate_json(cert: &Certification, verify_ms: f64) -> Json {
    Json::obj(vec![
        ("verdict", Json::Str(cert.verdict.as_str().into())),
        ("mode", Json::Str("full".into())),
        ("verify_ms", Json::Float(verify_ms)),
        ("trace_id", Json::Str(trace_id_hex(cert.trace.fingerprint()))),
        ("commits", Json::Int(cert.commits as i64)),
    ])
}

/// Runs the certification pipeline for one completed job: rebuild the
/// allocation environment from the admission artifact's cached plan (no
/// second schedule or plan compile), record the winning slot's trace,
/// replay it with a cost check at every commit, verify symbolically, and
/// package the portable artifact. Pure in `(design, knobs, report)`.
///
/// # Errors
///
/// Returns a [`ServeError`] of kind [`ErrorKind::Audit`] if the report
/// is missing its cost or winner slot, or if any link of the audit chain
/// (re-run, replay, bit-for-bit comparison) breaks. A *refuted* symbolic
/// verdict is not an error — it is carried in the certificate.
pub fn certify_job(
    admission: &AdmissionArtifact,
    knobs: &Knobs,
    report: &Json,
) -> Result<(Certification, TraceArtifact), ServeError> {
    let cost = report
        .get("cost")
        .and_then(Json::as_u64)
        .ok_or_else(|| ServeError::new(ErrorKind::Audit, "report has no 'cost' to certify"))?;
    let slot = report
        .get("portfolio")
        .and_then(|p| p.get("winner_slot"))
        .and_then(Json::as_u64)
        .ok_or_else(|| {
            ServeError::new(ErrorKind::Audit, "report has no 'portfolio.winner_slot' to replay")
        })? as usize;

    let job = admission.plan(knobs)?;
    let cert = job
        .with_replay_env(&admission.graph, |ctx, config| {
            certify(ctx, config, knobs.seed, slot, cost)
        })?
        .map_err(|e| ServeError::new(ErrorKind::Audit, e.to_string()))?;

    let mut canonical = report.clone();
    canonicalize_report(&mut canonical);
    let artifact = assemble_artifact(
        admission.canonical_text.clone(),
        knobs,
        slot,
        &cert.trace,
        cost,
        canonical.to_string_compact(),
    );
    Ok((cert, artifact))
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
        let (cert, artifact) = certify_job(&admission, &knobs, &report).unwrap();
        assert!(cert.verdict.is_certified(), "{}", cert.verdict);
        assert!(cert.commits > 0);
        assert_eq!(artifact.cost, report.get("cost").and_then(Json::as_u64).unwrap());
        assert_eq!(artifact.design, admission.canonical_text);
        assert!(artifact.decode_trace().is_ok());
        let certificate = certificate_json(&cert, 1.5);
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
        let (_, artifact) = certify_job(&admission, &knobs, &report).unwrap();

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
        let (cert, artifact) = certify_job(&admission, &knobs, &report).unwrap();
        let entry = CertEntry {
            trace_id: cert.trace.fingerprint(),
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

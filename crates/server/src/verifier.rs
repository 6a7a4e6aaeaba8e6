//! The verifier lane: certification of completed allocations on a
//! dedicated worker pool, and the content-addressed verdict cache.
//!
//! Jobs submitted with `verify: sample|full` do not reply from the
//! allocation worker. Instead the completed report is handed (with its
//! reply handle) to this lane, which re-derives the winning chain with
//! trace recording on, replays the trace move-by-move with cost
//! cross-checks, runs the full symbolic verification, and only then
//! replies — with a `certificate` section appended to the report. The
//! lane has its own small worker pool so symbolic replay never blocks
//! allocation throughput, and its own latency reservoir so operators can
//! watch the two lanes separately.
//!
//! Verdicts are cached content-addressed by **result fingerprint** —
//! FNV-1a 128 over `(canonical design text, canonical report, verify
//! mode)` — beside the existing result cache. Two jobs whose knobs
//! differ only in result-invariant ways produce the same canonical report
//! and therefore share one verdict: the second certification is a cache
//! hit, recorded in the certificate's `cache` field. The worker count is
//! in the canonical report (`portfolio.threads`), so only thread caps at
//! or above the restart count, which all run one worker per chain,
//! collapse. Each cached entry also
//! keeps what the portable [`TraceArtifact`] envelope is made from — the
//! shared admission artifact, the knobs, the winning slot, the cost and
//! the canonical report — but not the trace text, which for a long
//! search is hundreds of kilobytes. The wire `trace` command therefore
//! costs one chain run: it re-records the slot's trace on this lane,
//! checks its fingerprint against the certificate's `trace_id`, and
//! serves the byte-identical artifact for offline audit (`salsa audit`).

use std::sync::Arc;
use std::time::Instant;

use salsa_alloc::{record_slot_trace, MoveTrace};
use salsa_audit::{certify, Certification, TraceArtifact, VerifyMode};
use salsa_cdfg::{fnv1a_128, Cdfg};
use salsa_wire::net::ReplyHandle;

use crate::admission::AdmissionArtifact;
use crate::cache::FifoCache;
use crate::exec::with_replay_env;
use crate::json::Json;
use crate::protocol::{knobs_to_json, ErrorKind, Knobs, ServeError};
use crate::report::canonicalize_report;

/// A completed allocation awaiting certification. Carries everything the
/// lane needs to re-derive the result — and the reply handle, because
/// the response is not sent until the certificate exists.
pub struct VerifyJob {
    /// The job's admission artifact: the resolved design plus its
    /// already-rendered canonical text, so the lane never re-parses or
    /// re-renders what admission already has.
    pub artifact: Arc<AdmissionArtifact>,
    /// The job's knobs (including the verify mode).
    pub knobs: Knobs,
    /// The job's result-cache key; the certified response is cached
    /// under it.
    pub key: u128,
    /// When the request was admitted (end-to-end latency basis).
    pub accepted_at: Instant,
    /// Completes the originating request.
    pub reply: ReplyHandle,
    /// The allocation report the certificate is appended to.
    pub report: Json,
}

/// The content address of a verdict: the canonical design text, the
/// canonical (timing-zeroed) compact report, and the verify mode. Sound
/// for the same reason the result cache is — both inputs are
/// deterministic in `(design, knobs)` — but deliberately *coarser* than
/// the result-cache key: knobs that never change the canonical report
/// collapse onto one fingerprint. The worker count is in that report, so
/// of the thread caps only those at or above the restart count (one
/// worker per chain either way) collapse.
pub fn result_fingerprint(canonical_text: &str, canonical_report: &str, mode: VerifyMode) -> u128 {
    let mut keyed =
        String::with_capacity(canonical_text.len() + canonical_report.len() + 16);
    keyed.push_str(canonical_text);
    keyed.push('\x00');
    keyed.push_str(canonical_report);
    keyed.push('\x00');
    keyed.push_str(mode.as_str());
    fnv1a_128(keyed.as_bytes())
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
    Certify(VerifyJob),
    /// Re-derive a cached certificate's trace artifact for the wire
    /// `trace` command.
    Trace {
        /// The certificate whose artifact is requested.
        entry: Arc<CertEntry>,
        /// Completes the `trace` request.
        reply: ReplyHandle,
    },
}

/// One cached certification: the certificate section (as first
/// computed, provenance `miss`) and what re-deriving the trace artifact
/// behind it needs. The trace text itself is not kept.
pub struct CertEntry {
    /// The trace fingerprint the `trace` command looks entries up by.
    pub trace_id: u128,
    /// The `certificate` JSON section (provenance field patched per
    /// reply).
    pub certificate: Json,
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
        let trace = with_replay_env(&self.admission.graph, &self.knobs, |ctx, config| {
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

/// Bounded FIFO verdict cache keyed by [`result_fingerprint`].
pub type VerdictCache = FifoCache<CertEntry>;

impl FifoCache<CertEntry> {
    /// Looks up a verdict by trace id (the `trace` command's path; not
    /// counted as a hit or miss). Several results can share one trace —
    /// the same job certified at `sample` and at `full` — so the scan
    /// answers with the newest live entry carrying it.
    pub fn get_by_trace(&self, trace_id: u128) -> Option<Arc<CertEntry>> {
        let mut found = None;
        self.scan(|entry| {
            if entry.trace_id == trace_id {
                found = Some(Arc::clone(entry));
            }
        });
        found
    }
}

/// Renders the `certificate` response section.
pub fn certificate_json(
    cert: &Certification,
    mode: VerifyMode,
    verify_ms: f64,
    cache: &str,
) -> Json {
    Json::obj(vec![
        ("verdict", Json::Str(cert.verdict.as_str().into())),
        ("mode", Json::Str(mode.as_str().into())),
        ("verify_ms", Json::Float(verify_ms)),
        ("trace_id", Json::Str(trace_id_hex(cert.trace.fingerprint()))),
        ("cache", Json::Str(cache.into())),
        ("commits", Json::Int(cert.commits as i64)),
    ])
}

/// Overwrites `certificate`'s `cache` provenance field in place.
pub fn set_cache_provenance(certificate: &mut Json, provenance: &str) {
    if let Json::Obj(pairs) = certificate {
        for (key, value) in pairs.iter_mut() {
            if key == "cache" {
                *value = Json::Str(provenance.into());
            }
        }
    }
}

/// Runs the certification pipeline for one completed job: rebuild the
/// allocation environment, record the winning slot's trace, replay it at
/// the requested depth, verify symbolically, and package the portable
/// artifact. Pure in `(graph, knobs, report)`.
///
/// # Errors
///
/// Returns a [`ServeError`] of kind [`ErrorKind::Audit`] if the report
/// is missing its cost or winner slot, or if any link of the audit chain
/// (re-run, replay, bit-for-bit comparison) breaks. A *refuted* symbolic
/// verdict is not an error — it is carried in the certificate.
pub fn certify_job(
    graph: &Cdfg,
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

    let cert = with_replay_env(graph, knobs, |ctx, config| {
        certify(ctx, config, knobs.seed, slot, cost, knobs.verify)
    })?
    .map_err(|e| ServeError::new(ErrorKind::Audit, e.to_string()))?;

    let mut canonical = report.clone();
    canonicalize_report(&mut canonical);
    let artifact = assemble_artifact(
        graph.canonical_text(),
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
    use crate::exec::{resolve_graph, run_allocation};
    use crate::protocol::{cache_key, GraphSource};

    #[test]
    fn trace_ids_roundtrip_and_reject_junk() {
        for fp in [0u128, 1, u128::MAX, 0xdead_beef] {
            assert_eq!(parse_trace_id(&trace_id_hex(fp)), Some(fp));
        }
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("zz"), None);
        assert_eq!(parse_trace_id(&"f".repeat(33)), None);
    }

    fn entry(trace_id: u128) -> Arc<CertEntry> {
        let graph = resolve_graph(&GraphSource::Bench("paper_example".into())).unwrap();
        Arc::new(CertEntry {
            trace_id,
            certificate: Json::obj(vec![("cache", Json::Str("miss".into()))]),
            admission: Arc::new(AdmissionArtifact::new(graph)),
            knobs: Knobs::default(),
            slot: 0,
            cost: 0,
            report: String::new(),
        })
    }

    #[test]
    fn verdict_cache_serves_both_indexes_and_evicts_fifo() {
        let cache = VerdictCache::new(2);
        assert!(cache.get(1).is_none());
        cache.insert(1, entry(11));
        cache.insert(2, entry(22));
        assert_eq!(cache.get(1).unwrap().trace_id, 11);
        assert_eq!(cache.get_by_trace(22).unwrap().trace_id, 22);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // Eviction drops the oldest entry from both lookups.
        cache.insert(3, entry(33));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1).is_none());
        assert!(cache.get_by_trace(11).is_none());
        assert!(cache.get_by_trace(33).is_some());

        // Provenance patching rewrites only the cache field.
        let mut cert = Json::obj(vec![
            ("verdict", Json::Str("certified".into())),
            ("cache", Json::Str("miss".into())),
        ]);
        set_cache_provenance(&mut cert, "hit");
        assert_eq!(cert.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(cert.get("verdict").and_then(Json::as_str), Some("certified"));
    }

    #[test]
    fn trace_lookup_outlives_an_evicted_twin() {
        // One job certified at `sample` and then at `full`: two result
        // fingerprints, one trace id. Evicting the older entry must not
        // hide the live one from `trace`.
        let cache = VerdictCache::new(2);
        let (sample, full) = (entry(7), entry(7));
        cache.insert(1, sample);
        cache.insert(2, Arc::clone(&full));
        cache.insert(3, entry(8));
        let found = cache.get_by_trace(7).expect("fp2's certificate is still cached");
        assert!(Arc::ptr_eq(&found, &full));
    }

    #[test]
    fn certify_job_certifies_a_real_report_and_result_invariant_knobs_share_a_fingerprint() {
        let graph = resolve_graph(&GraphSource::Bench("paper_example".into())).unwrap();
        let knobs = Knobs {
            restarts: 2,
            threads: Some(2),
            verify: VerifyMode::Full,
            ..Knobs::default()
        };
        let report = run_allocation(&graph, &knobs, None).unwrap();
        let (cert, artifact) = certify_job(&graph, &knobs, &report).unwrap();
        assert!(cert.verdict.is_certified(), "{}", cert.verdict);
        assert!(cert.commits > 0);
        assert_eq!(artifact.cost, report.get("cost").and_then(Json::as_u64).unwrap());
        assert!(artifact.decode_trace().is_ok());

        // The artifact's embedded report is the canonical form of the
        // live one.
        let mut canonical = report.clone();
        canonicalize_report(&mut canonical);
        assert_eq!(artifact.report, canonical.to_string_compact());

        // A knob the canonical report does not reflect (a thread cap of 3
        // against 2 on two restarts: both run two workers) makes a
        // different job with the identical report, so it lands on the
        // same verdict fingerprint; the verify mode does not.
        let canon = canonical.to_string_compact();
        let text = graph.canonical_text();
        let fp = result_fingerprint(&text, &canon, VerifyMode::Full);
        let toggled = Knobs { threads: Some(3), ..knobs.clone() };
        assert_ne!(cache_key(&text, &toggled), cache_key(&text, &knobs));
        let mut other = run_allocation(&graph, &toggled, None).unwrap();
        canonicalize_report(&mut other);
        assert_eq!(other.to_string_compact(), canon, "both caps run two workers");
        assert_eq!(
            result_fingerprint(&text, &other.to_string_compact(), VerifyMode::Full),
            fp
        );
        assert_ne!(result_fingerprint(&text, &canon, VerifyMode::Sample), fp);

        // A tampered report cost is refused.
        let mut lied = report.clone();
        if let Json::Obj(pairs) = &mut lied {
            for (key, value) in pairs.iter_mut() {
                if key == "cost" {
                    *value = Json::Int(Json::as_i64(value).unwrap() + 1);
                }
            }
        }
        let err = certify_job(&graph, &knobs, &lied).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Audit);
    }

    #[test]
    fn cached_entries_re_derive_the_certified_artifact() {
        let graph = resolve_graph(&GraphSource::Bench("paper_example".into())).unwrap();
        let knobs = Knobs {
            restarts: 3,
            threads: Some(1),
            verify: VerifyMode::Sample,
            ..Knobs::default()
        };
        let report = run_allocation(&graph, &knobs, None).unwrap();
        let (cert, artifact) = certify_job(&graph, &knobs, &report).unwrap();
        let entry = CertEntry {
            trace_id: cert.trace.fingerprint(),
            certificate: Json::Null,
            admission: Arc::new(AdmissionArtifact::new(graph)),
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

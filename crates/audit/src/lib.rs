//! **Verification as a service** for the SALSA allocator: record/replay
//! certificates that turn the determinism contract into a user-facing,
//! machine-checked guarantee.
//!
//! The allocator's results are pure functions of `(canonical design text,
//! knobs)`, every accepted move is a transaction, and the winning chain's
//! committed-move sequence is recordable as a compact
//! [`MoveTrace`](salsa_alloc::MoveTrace). This crate composes those
//! properties into an audit pipeline:
//!
//! 1. [`certify`] — re-run a result's winning portfolio slot with
//!    recording on, cross-check its cost against the report, replay the
//!    trace move-by-move (cost-checked at each commit), compare the
//!    replayed binding bit-for-bit against the recorded one, and run the
//!    full symbolic verification on the result. The output is a
//!    [`Certification`]: the trace plus a structured
//!    [`Verdict`](salsa_datapath::Verdict).
//! 2. [`replay_and_verify`] — the offline half: given a trace artifact
//!    (dumped by the server or attached to a bug report), re-derive the
//!    binding and verdict with no searching at all.
//! 3. [`TraceArtifact`] — the portable JSON envelope binding a trace to
//!    the canonical design text, the request knobs and the canonical
//!    report it certifies, so `salsa audit` can re-derive everything
//!    from one file.
//!
//! The serving layer runs this pipeline on a dedicated verifier lane
//! (its own worker pool) so symbolic replay never blocks allocation
//! throughput, for jobs that ask for a certificate (`verify`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use salsa_alloc::{
    record_slot_trace, replay_trace, verify_binding, AllocContext, AllocError, Binding,
    ImproveConfig, MoveTrace, TraceError,
};
use salsa_datapath::Verdict;
use salsa_wire::json::Json;

/// Why an audit failed before reaching (or at) the verification gate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AuditError {
    /// Re-running the winning slot failed (cancelled or infeasible pool).
    Alloc(AllocError),
    /// The trace failed to decode or to replay.
    Trace(TraceError),
    /// The artifact envelope is not a valid trace artifact.
    Artifact(String),
    /// The re-derived final cost disagrees with the cost the report
    /// claims — the result and the trace describe different runs.
    CostDisagreement {
        /// The cost the report (or artifact) carries.
        reported: u64,
        /// The cost the re-derivation produced.
        derived: u64,
    },
    /// The replayed binding differs structurally from the recorded one
    /// despite matching costs — a broken replay contract.
    Diverged,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Alloc(e) => write!(f, "audit re-run failed: {e}"),
            AuditError::Trace(e) => write!(f, "trace replay failed: {e}"),
            AuditError::Artifact(detail) => write!(f, "bad trace artifact: {detail}"),
            AuditError::CostDisagreement { reported, derived } => write!(
                f,
                "re-derived cost {derived} disagrees with the reported {reported}"
            ),
            AuditError::Diverged => {
                f.write_str("replayed binding diverged from the recorded one")
            }
        }
    }
}

impl std::error::Error for AuditError {}

impl From<AllocError> for AuditError {
    fn from(e: AllocError) -> Self {
        AuditError::Alloc(e)
    }
}

impl From<TraceError> for AuditError {
    fn from(e: TraceError) -> Self {
        AuditError::Trace(e)
    }
}

/// A completed certification: the recorded trace and what checking it
/// established.
#[derive(Debug, Clone)]
pub struct Certification {
    /// The winning chain's recorded trace.
    pub trace: MoveTrace,
    /// The symbolic-verification verdict on the replayed binding.
    pub verdict: Verdict,
    /// Committed moves replayed.
    pub commits: usize,
}

/// Runs the full certification pipeline for one allocation result:
/// record the winning slot's trace, check its final cost against
/// `expected_cost` (the report's), replay it with a cost check at every
/// commit, compare the replayed binding bit-for-bit against the recorded one,
/// and symbolically verify the outcome.
///
/// # Errors
///
/// Any broken link in that chain returns the corresponding
/// [`AuditError`]; a *refuted* verification is **not** an error — it is
/// a successful audit whose [`Certification::verdict`] carries the
/// violation.
pub fn certify(
    ctx: &AllocContext<'_>,
    config: &ImproveConfig,
    base_seed: u64,
    winner_slot: usize,
    expected_cost: u64,
) -> Result<Certification, AuditError> {
    let (trace, recorded) = record_slot_trace(ctx, config, base_seed, winner_slot)?;
    if trace.final_cost != expected_cost {
        return Err(AuditError::CostDisagreement {
            reported: expected_cost,
            derived: trace.final_cost,
        });
    }
    let replayed = replay_trace(ctx, config, &trace)?;
    if replayed != recorded {
        return Err(AuditError::Diverged);
    }
    let verdict = verify_binding(&replayed);
    let commits = trace.commits();
    Ok(Certification { trace, verdict, commits })
}

/// The offline half of the pipeline: replay a decoded trace, cost-checked
/// at every commit, confirm its final cost equals `expected_cost`, and verify the
/// result symbolically. No search is run — this is the cheap path a bug
/// report or a fault-injection test re-derives a result through.
///
/// # Errors
///
/// Returns [`AuditError`] on any replay or cost divergence (a refuted
/// verdict, as with [`certify`], is a successful audit).
pub fn replay_and_verify<'a>(
    ctx: &'a AllocContext<'a>,
    config: &ImproveConfig,
    trace: &MoveTrace,
    expected_cost: u64,
) -> Result<(Binding<'a>, Verdict), AuditError> {
    if trace.final_cost != expected_cost {
        return Err(AuditError::CostDisagreement {
            reported: expected_cost,
            derived: trace.final_cost,
        });
    }
    let binding = replay_trace(ctx, config, trace)?;
    let verdict = verify_binding(&binding);
    Ok((binding, verdict))
}

/// The portable JSON envelope of a dumped trace: everything `salsa
/// audit` needs to re-derive a result offline.
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
    /// Returns [`AuditError::Artifact`] naming the missing or mistyped
    /// field.
    pub fn from_json(doc: &Json) -> Result<TraceArtifact, AuditError> {
        let missing = |field: &str| AuditError::Artifact(format!("missing or bad `{field}`"));
        let format = doc.get("format").and_then(Json::as_str).ok_or_else(|| missing("format"))?;
        if format != ARTIFACT_FORMAT {
            return Err(AuditError::Artifact(format!(
                "unsupported format `{format}` (expected `{ARTIFACT_FORMAT}`)"
            )));
        }
        Ok(TraceArtifact {
            design: doc
                .get("design")
                .and_then(Json::as_str)
                .ok_or_else(|| missing("design"))?
                .to_string(),
            knobs: doc.get("knobs").cloned().ok_or_else(|| missing("knobs"))?,
            slot: doc.get("slot").and_then(Json::as_u64).ok_or_else(|| missing("slot"))?
                as usize,
            trace: doc
                .get("trace")
                .and_then(Json::as_str)
                .ok_or_else(|| missing("trace"))?
                .to_string(),
            cost: doc.get("cost").and_then(Json::as_u64).ok_or_else(|| missing("cost"))?,
            report: doc
                .get("report")
                .and_then(Json::as_str)
                .ok_or_else(|| missing("report"))?
                .to_string(),
        })
    }

    /// Decodes the embedded [`MoveTrace`].
    ///
    /// # Errors
    ///
    /// Returns the decoder's [`TraceError`] on a corrupt trace string.
    pub fn decode_trace(&self) -> Result<MoveTrace, TraceError> {
        MoveTrace::decode(&self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salsa_alloc::{portfolio_search, Allocator, PortfolioConfig};
    use salsa_cdfg::benchmarks::paper_example;
    use salsa_sched::{fds_schedule, FuLibrary};
    use salsa_wire::json::parse_json;

    #[test]
    fn certify_reproduces_and_certifies_a_portfolio_result() {
        let graph = paper_example();
        let library = FuLibrary::standard();
        let schedule = fds_schedule(&graph, &library, 4).unwrap();
        let (ctx, config) = Allocator::new(&graph, &schedule, &library).prepare().unwrap();
        let outcome =
            portfolio_search(&ctx, &config, &PortfolioConfig::default(), 42, 2).unwrap();

        let cert = certify(&ctx, &config, 42, outcome.portfolio.winner_slot, outcome.cost)
            .expect("certification pipeline succeeds");
        assert!(cert.verdict.is_certified(), "winner verifies: {}", cert.verdict);
        assert!(cert.commits > 0);

        // The offline path agrees with the online one.
        let (binding, verdict) =
            replay_and_verify(&ctx, &config, &cert.trace, outcome.cost).unwrap();
        assert!(verdict.is_certified());
        assert!(binding == outcome.binding, "offline replay lands on the winner");

        // A wrong reported cost is refused, not papered over.
        assert!(matches!(
            certify(&ctx, &config, 42, outcome.portfolio.winner_slot, outcome.cost + 1),
            Err(AuditError::CostDisagreement { .. })
        ));
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
        let parsed = TraceArtifact::from_json(&parse_json(&text).unwrap()).unwrap();
        assert_eq!(parsed, artifact);
        assert!(parsed.decode_trace().is_ok());

        assert!(matches!(
            TraceArtifact::from_json(&Json::obj(vec![("format", Json::Str("x".into()))])),
            Err(AuditError::Artifact(_))
        ));
    }
}

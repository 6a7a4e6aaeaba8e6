//! The admission artifact cache: everything a job derives from its
//! design *before* search — parsed graph, canonical text, similarity
//! sketch, ASAP lengths, and per-knob-shape job plans with their compiled
//! move plans — computed once per design and shared by every subsequent
//! job over it.
//!
//! Admission used to repeat this work per request: parse (or rebuild) the
//! graph, re-render the canonical text for the cache key, re-run
//! force-directed scheduling and recompile the
//! [`MovePlan`](salsa_alloc::MovePlan) even when the
//! previous job had the identical design and knob shape. All of it is a
//! pure function of `(design, pipelined, steps, extra_regs)`, so a repeat
//! miss now skips straight to the portfolio search.
//!
//! Keyed by the FNV-1a 128 fingerprint of the *request spelling* (raw
//! CDFG text or benchmark name), so a repeat admission doesn't even
//! re-parse to discover it holds a known design. Distinct spellings of
//! one canonical design simply occupy two artifact slots — the artifact
//! is derived state, never an identity, so aliasing costs memory, not
//! correctness; the result cache still keys on canonical text.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use salsa_cdfg::{fnv1a_128, Cdfg};
use salsa_sched::asap;

use crate::cache::FifoCache;
use crate::exec::{map_alloc_error, plan_job, resolve_graph, resolve_knobs, JobPlan};
use crate::protocol::{GraphSource, Knobs, ServeError};
use crate::similarity::Sketch;

/// The knob shape a schedule/plan pair depends on: the library choice,
/// the *resolved* step count, and the register headroom (which sets the
/// pool the plan was stamped against).
type ShapeKey = (bool, Option<usize>, usize);

/// Everything admission derives from one design.
pub struct AdmissionArtifact {
    /// The resolved (and, for benchmarks, canonicalized) graph, shared
    /// with the banked winners (seed entries) of this design's jobs.
    pub graph: Arc<Cdfg>,
    /// `graph.canonical_text()`, rendered once — the result-cache key
    /// and the verifier both read it from here.
    pub canonical_text: String,
    /// The similarity sketch for warm-start seeding, shared like `graph`.
    pub sketch: Arc<Sketch>,
    /// The ASAP length under the standard and the pipelined library,
    /// computed on first use: resolving a request's knobs, which every
    /// cache hit does on the I/O thread, schedules nothing after that.
    asap: [OnceLock<usize>; 2],
    /// One job plan per knob shape, holding the shared schedule and
    /// compiled move plan.
    shapes: Mutex<HashMap<ShapeKey, JobPlan>>,
}

impl AdmissionArtifact {
    /// Builds the artifact for a resolved graph.
    pub fn new(graph: Cdfg) -> Self {
        let canonical_text = graph.canonical_text();
        let sketch = Arc::new(Sketch::of(&graph));
        let graph = Arc::new(graph);
        AdmissionArtifact {
            graph,
            canonical_text,
            sketch,
            asap: Default::default(),
            shapes: Mutex::new(HashMap::new()),
        }
    }

    /// `knobs` as this design resolves them — the job's identity, which
    /// the result-cache key, the job and its trace artifact all carry:
    /// `steps` set (the memoised ASAP length when unset) and `mem_moves`
    /// on when the design has no memory.
    pub fn resolve(&self, knobs: &Knobs) -> Knobs {
        let memo = &self.asap[usize::from(knobs.pipelined)];
        resolve_knobs(&self.graph, knobs, |library| {
            *memo.get_or_init(|| asap(&self.graph, library).length)
        })
        .1
    }

    /// The job plan for this design under `knobs`, with the schedule and
    /// compiled move plan shared by every job of the same knob shape —
    /// derived by [`plan_job`] and `Allocator::prepare` on first use.
    /// Scheduling failures are not cached — a later request with
    /// feasible knobs must not be poisoned by an earlier infeasible one.
    pub fn plan(&self, knobs: &Knobs) -> Result<JobPlan, ServeError> {
        let knobs = self.resolve(knobs);
        let key = (knobs.pipelined, knobs.steps, knobs.extra_regs);
        if let Some(shape) = self.shapes.lock().expect("admission poisoned").get(&key) {
            return Ok(JobPlan { knobs, ..shape.clone() });
        }
        let mut job = plan_job(&self.graph, &knobs)?;
        // Compiling the plan needs the prepared context; the throwaway
        // borrow is the point — the Arc'd plan survives it and every
        // later job skips the compile.
        let compiled = job
            .allocator(&self.graph, None)
            .prepare()
            .map(|(ctx, _)| Arc::clone(&ctx.plan))
            .map_err(map_alloc_error)?;
        job.compiled = Some(compiled);
        self.shapes
            .lock()
            .expect("admission poisoned")
            .entry(key)
            .or_insert_with(|| job.clone());
        Ok(job)
    }
}

/// Bounded FIFO cache of admission artifacts, keyed by request spelling.
pub type AdmissionCache = FifoCache<AdmissionArtifact>;

impl FifoCache<AdmissionArtifact> {
    fn source_key(source: &GraphSource) -> u128 {
        match source {
            GraphSource::Bench(name) => {
                fnv1a_128(format!("bench\x00{}", crate::protocol::canonical_bench_name(name)).as_bytes())
            }
            GraphSource::Text(text) => fnv1a_128(text.as_bytes()),
        }
    }

    /// Resolves a request source to its admission artifact, parsing and
    /// sketching only on the first sighting of this spelling.
    pub fn resolve(&self, source: &GraphSource) -> Result<Arc<AdmissionArtifact>, ServeError> {
        let key = Self::source_key(source);
        if let Some(hit) = self.get(key) {
            return Ok(hit);
        }
        let artifact = Arc::new(AdmissionArtifact::new(resolve_graph(source)?));
        self.insert(key, Arc::clone(&artifact));
        Ok(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_admissions_share_one_artifact_and_one_derivation() {
        let cache = AdmissionCache::new(4);
        let source = GraphSource::Bench("ewf".into());
        let a = cache.resolve(&source).unwrap();
        let b = cache.resolve(&source).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "repeat admission must reuse the artifact");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // Aliases land on the same slot as their canonical name.
        let aliased = cache.resolve(&GraphSource::Bench("hal".into())).unwrap();
        let canonical = cache.resolve(&GraphSource::Bench("diffeq".into())).unwrap();
        assert!(Arc::ptr_eq(&aliased, &canonical));

        // Plans dedupe per knob shape and share the schedule and the
        // compiled move plan; other knobs ride along per job.
        let compiled = |job: &JobPlan| Arc::clone(job.compiled.as_ref().expect("compiled"));
        let d1 = a.plan(&Knobs::default()).unwrap();
        let d2 = b.plan(&Knobs { seed: 7, ..Knobs::default() }).unwrap();
        assert!(Arc::ptr_eq(&d1.schedule, &d2.schedule), "same knob shape must reuse the schedule");
        assert!(Arc::ptr_eq(&compiled(&d1), &compiled(&d2)), "and the compiled plan");
        assert_eq!(d2.knobs.seed, 7);
        let other = a.plan(&Knobs { extra_regs: 1, ..Knobs::default() }).unwrap();
        assert!(
            !Arc::ptr_eq(&compiled(&d1), &compiled(&other)),
            "extra_regs changes the pool and the plan"
        );
        assert_eq!(d1.knobs.steps, other.knobs.steps);
    }

    #[test]
    fn infeasible_steps_fail_without_poisoning_the_artifact() {
        let cache = AdmissionCache::new(4);
        let artifact = cache.resolve(&GraphSource::Bench("ewf".into())).unwrap();
        let bad = Knobs { steps: Some(1), ..Knobs::default() };
        let err = artifact.plan(&bad).expect_err("1 step is infeasible");
        assert_eq!(err.kind, crate::protocol::ErrorKind::Schedule);
        assert!(artifact.plan(&Knobs::default()).is_ok());
    }

    #[test]
    fn text_spellings_key_on_raw_bytes() {
        let cache = AdmissionCache::new(4);
        let text = "cdfg t\ninput a\nop x = add a a\noutput x\n";
        let a = cache.resolve(&GraphSource::Text(text.into())).unwrap();
        let b = cache.resolve(&GraphSource::Text(text.into())).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.canonical_text, a.graph.canonical_text());
    }
}

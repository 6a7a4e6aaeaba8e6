//! Job execution: resolve the request's design, derive the job's setup
//! from its knobs, run the portfolio allocator under the job's cancel
//! token, and serialize the report.
//!
//! [`plan_job`] is the one place the allocation setup is derived from
//! `(graph, knobs)`: library, step count and force-directed schedule,
//! and — through [`JobPlan::allocator`] — move set, seed, register
//! headroom, restarts, threads, warm seed and `mem_moves`. The
//! server's workers, the verifier lane, offline audit and the CLI all go
//! through it, so every entry point prepares a job bit-identically by
//! construction.

use std::sync::Arc;

use salsa_alloc::{
    AllocContext, AllocError, AllocResult, Allocator, BindingParts, CancelToken, ImproveConfig,
    MovePlan, MoveSet,
};
use salsa_cdfg::{parse_cdfg, Cdfg};
use salsa_sched::{asap, fds_schedule, FuLibrary, Schedule};

use crate::admission::AdmissionArtifact;
use crate::json::Json;
use crate::protocol::{
    canonical_bench_name, ErrorKind, GraphSource, Knobs, ServeError, BENCH_ALIASES,
};
use crate::report::report_json;

/// Resolves the request's design into a graph: benchmark lookup (with
/// alias mapping) or CDFG text parse (structured errors with positions).
///
/// Benchmark graphs are **canonicalized** — reparsed from their canonical
/// text — before use. Builder-constructed graphs can number ops and
/// values differently from the parse of their own canonical text, and
/// the serving layer's identities all flow through that text: the result
/// cache keys on it, and a certificate's trace artifact embeds it for
/// offline replay. Canonicalizing here makes every holder of the same
/// canonical text hold the *same graph*, IDs included, so a cached
/// response, a verifier-lane replay and an offline `salsa audit` all
/// re-derive the job bit-for-bit. (Parsed graphs are already a fixpoint
/// of this round-trip, so the `text` arm needs nothing extra.)
pub fn resolve_graph(source: &GraphSource) -> Result<Cdfg, ServeError> {
    match source {
        GraphSource::Bench(name) => {
            let canonical = canonical_bench_name(name);
            let graphs = salsa_cdfg::benchmarks::all();
            let Some(graph) = graphs.iter().find(|g| g.name() == canonical) else {
                // The hint names everything servable: each registered
                // benchmark, then the paper's aliases.
                let names: Vec<&str> = graphs
                    .iter()
                    .map(|g| g.name())
                    .chain(BENCH_ALIASES.iter().map(|&(alias, _)| alias))
                    .collect();
                return Err(ServeError::new(
                    ErrorKind::BadRequest,
                    format!("unknown benchmark '{name}' (try {})", names.join(", ")),
                ));
            };
            parse_cdfg(&graph.canonical_text()).map_err(|e| ServeError::from_parse(&e))
        }
        GraphSource::Text(text) => parse_cdfg(text).map_err(|e| ServeError::from_parse(&e)),
    }
}

/// A job's allocation setup, derived from `(graph, knobs)` by
/// [`plan_job`]: everything the search needs before it starts. Only
/// [`plan_job`] (and the admission cache, from its result) builds one,
/// so the schedule always matches the library and knobs beside it.
#[derive(Debug, Clone)]
pub struct JobPlan {
    pub(crate) library: FuLibrary,
    pub(crate) schedule: Arc<Schedule>,
    pub(crate) knobs: Knobs,
    /// A move plan compiled earlier for this exact schedule and pool
    /// (the admission cache's); `None` compiles one in `prepare`.
    pub(crate) compiled: Option<Arc<MovePlan>>,
}

/// The library `knobs` select for `graph`, and `knobs` with the step
/// count resolved (the ASAP length when unset).
pub(crate) fn resolve_knobs(graph: &Cdfg, knobs: &Knobs) -> (FuLibrary, Knobs) {
    let library = if knobs.pipelined { FuLibrary::pipelined() } else { FuLibrary::standard() };
    let steps = knobs.steps.unwrap_or_else(|| asap(graph, &library).length);
    (library, Knobs { steps: Some(steps), ..knobs.clone() })
}

/// Derives a job's setup from `(graph, knobs)`: the library, the step
/// count and the force-directed schedule. Deterministic: the same inputs
/// yield the same plan on every host.
pub fn plan_job(graph: &Cdfg, knobs: &Knobs) -> Result<JobPlan, ServeError> {
    let (library, knobs) = resolve_knobs(graph, knobs);
    let steps = knobs.steps.expect("resolved above");
    let schedule = fds_schedule(graph, &library, steps)
        .map_err(|e| ServeError::new(ErrorKind::Schedule, e.to_string()))?;
    Ok(JobPlan { library, schedule: Arc::new(schedule), knobs, compiled: None })
}

impl JobPlan {
    /// The functional-unit library the knobs select.
    pub fn library(&self) -> &FuLibrary {
        &self.library
    }

    /// The force-directed schedule at the resolved step count.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The job's knobs with `steps` resolved (always `Some`).
    pub fn knobs(&self) -> &Knobs {
        &self.knobs
    }

    /// The allocator for this job over `graph` (the graph it was planned
    /// from), with every knob applied. `prepare` on it sizes the pool and
    /// resolves the move set; `run` executes the whole job.
    pub fn allocator<'a>(&'a self, graph: &'a Cdfg, cancel: Option<CancelToken>) -> Allocator<'a> {
        let knobs = &self.knobs;
        let move_set = if knobs.traditional { MoveSet::traditional() } else { MoveSet::full() };
        let config =
            ImproveConfig { move_set, cancel, warm: knobs.warm.clone(), ..ImproveConfig::default() };
        let mut allocator = Allocator::new(graph, &self.schedule, &self.library)
            .seed(knobs.seed)
            .extra_registers(knobs.extra_regs)
            .restarts(knobs.restarts)
            .config(config)
            .mem_moves(knobs.mem_moves);
        if let Some(threads) = knobs.threads {
            allocator = allocator.threads(threads);
        }
        if let Some(plan) = &self.compiled {
            allocator = allocator.compiled_plan(Arc::clone(plan));
        }
        allocator
    }

    /// Runs the whole allocation, polling `cancel` cooperatively.
    pub fn run(&self, graph: &Cdfg, cancel: Option<CancelToken>) -> Result<AllocResult, ServeError> {
        self.allocator(graph, cancel).run().map_err(map_alloc_error)
    }

    /// The protocol report of `result`, a run of this job over `graph`.
    pub fn report(&self, graph: &Cdfg, result: &AllocResult) -> Json {
        report_json(graph, &self.schedule, self.knobs.seed, result)
    }
}

/// Runs the allocation described by `knobs` on `graph`, polling `cancel`
/// cooperatively, and returns the report object.
pub fn run_allocation(
    graph: &Cdfg,
    knobs: &Knobs,
    cancel: Option<CancelToken>,
) -> Result<Json, ServeError> {
    let job = plan_job(graph, knobs)?;
    let result = job.run(graph, cancel)?;
    Ok(job.report(graph, &result))
}

/// Maps an allocator error onto the service's error taxonomy.
pub fn map_alloc_error(e: AllocError) -> ServeError {
    match e {
        AllocError::Cancelled => ServeError::new(
            ErrorKind::Timeout,
            "allocation cancelled before completion (deadline or shutdown)",
        ),
        other => ServeError::new(ErrorKind::Alloc, other.to_string()),
    }
}

/// Runs an allocation over an admission artifact: the schedule and the
/// compiled move plan come from the artifact's derivation cache, so a
/// repeat design pays neither force-directed scheduling nor plan
/// compilation again. Returns the report *and* the winner's context-free
/// binding image — the serving layer banks the latter in its seed index
/// to warm-start future near-duplicate jobs.
///
/// Result-identical to [`run_allocation`]: the cached schedule is the
/// same pure function of `(graph, knobs)`, and compiled plans never
/// affect trajectories, only wall-clock.
pub fn run_artifact(
    artifact: &AdmissionArtifact,
    knobs: &Knobs,
    cancel: Option<CancelToken>,
) -> Result<(Json, BindingParts), ServeError> {
    let job = artifact.plan(knobs)?;
    let result = job.run(&artifact.graph, cancel)?;
    Ok((job.report(&artifact.graph, &result), result.winner))
}

/// Prepares the allocation environment a job runs under — the context
/// (pool and compiled plan) and the resolved improvement configuration,
/// exactly as [`run_allocation`] prepares them — and hands it to `f`.
/// This is the audit seam: trace recording and replay must happen
/// against a bit-identical context or the re-derived trajectory diverges
/// from the one the report describes. (The `AllocContext` borrows the
/// schedule, so the environment can only be lent downward, not
/// returned.)
pub fn with_replay_env<R>(
    graph: &Cdfg,
    knobs: &Knobs,
    f: impl FnOnce(&AllocContext<'_>, &ImproveConfig) -> R,
) -> Result<R, ServeError> {
    let job = plan_job(graph, knobs)?;
    let (ctx, config) = job.allocator(graph, None).prepare().map_err(map_alloc_error)?;
    Ok(f(&ctx, &config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn bench_aliases_resolve_and_allocate() {
        for name in ["ewf", "hal", "fir", "ar"] {
            let g = resolve_graph(&GraphSource::Bench(name.into())).unwrap_or_else(|e| {
                panic!("{name}: {}", e.message);
            });
            assert!(g.num_ops() > 0, "{name}");
        }
        let err = resolve_graph(&GraphSource::Bench("nosuch".into())).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn unknown_benchmark_hint_names_every_servable_name() {
        let err = resolve_graph(&GraphSource::Bench("nosuch".into())).unwrap_err();
        let graphs = salsa_cdfg::benchmarks::all();
        let names = graphs.iter().map(|g| g.name()).chain(BENCH_ALIASES.iter().map(|&(a, _)| a));
        for name in names {
            assert!(
                err.message.split([' ', ',', '(', ')']).any(|word| word == name),
                "hint omits '{name}': {}",
                err.message
            );
        }
    }

    #[test]
    fn bench_and_its_canonical_text_resolve_to_the_same_graph() {
        // The cache-key argument requires it: a `bench` request and a
        // `text` request carrying that benchmark's canonical form share a
        // key, so they must resolve to the *same graph*, IDs included —
        // and the trace artifact's offline replay reparses that text.
        //
        // Every registered benchmark is covered, not a hand-kept list: a
        // newly added builder-constructed graph (whose op/value numbering
        // can differ from the parse of its own canonical text — the
        // memory benchmarks fir8a/mm2 are built that way) must land here
        // automatically or its serve-layer identities silently fork.
        for g in salsa_cdfg::benchmarks::all() {
            let name = g.name().to_string();
            let by_name = resolve_graph(&GraphSource::Bench(name.clone())).unwrap();
            let by_text = resolve_graph(&GraphSource::Text(by_name.canonical_text())).unwrap();
            assert_eq!(by_name, by_text, "{name}: bench and text resolution diverge");
        }
        // The memory workloads resolve through their aliases too.
        for alias in ["fir-array", "matmul"] {
            let g = resolve_graph(&GraphSource::Bench(alias.into())).unwrap();
            assert!(g.has_memory(), "{alias} should resolve to a memory benchmark");
        }
    }

    #[test]
    fn text_source_reports_structured_parse_errors() {
        let err = resolve_graph(&GraphSource::Text(
            "cdfg t\ninput x\nop y = add x nosuch\noutput y\n".into(),
        ))
        .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Parse);
        assert_eq!(err.line, Some(3));
        assert!(err.column.is_some());
    }

    #[test]
    fn identical_requests_produce_identical_reports() {
        // The cache-soundness property, exercised end to end: same design
        // + same knobs ⇒ byte-identical report apart from timing, and in
        // particular identical cost/breakdown.
        let knobs = Knobs { restarts: 2, threads: Some(2), ..Knobs::default() };
        let graph = resolve_graph(&GraphSource::Bench("paper_example".into())).unwrap();
        let a = run_allocation(&graph, &knobs, None).unwrap();
        let b = run_allocation(&graph, &knobs, None).unwrap();
        assert_eq!(
            a.get("cost").and_then(Json::as_u64),
            b.get("cost").and_then(Json::as_u64)
        );
        assert_eq!(
            a.get("breakdown").map(Json::to_string_compact),
            b.get("breakdown").map(Json::to_string_compact)
        );
        assert_eq!(
            a.get("portfolio").and_then(|p| p.get("winner_slot")).and_then(Json::as_u64),
            b.get("portfolio").and_then(|p| p.get("winner_slot")).and_then(Json::as_u64)
        );
    }

    #[test]
    fn expired_deadline_yields_timeout_not_panic() {
        let knobs = Knobs { restarts: 4, threads: Some(1), ..Knobs::default() };
        let graph = resolve_graph(&GraphSource::Bench("ewf".into())).unwrap();
        // A deadline already in the past: the search must bail out at its
        // first poll with Cancelled, mapped to a timeout error.
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let err = run_allocation(&graph, &knobs, Some(token)).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Timeout);
    }

    #[test]
    fn plans_resolve_steps_and_are_repeatable() {
        let graph = salsa_cdfg::benchmarks::paper_example();
        let knobs = Knobs { restarts: 2, ..Knobs::default() };
        let plan = plan_job(&graph, &knobs).unwrap();
        // Unset steps resolve to the ASAP length, and the schedule spans
        // exactly the resolved count.
        let steps = plan.knobs().steps.expect("steps resolved");
        assert_eq!(steps, asap(&graph, plan.library()).length);
        assert_eq!(plan.schedule().n_steps(), steps);
        // Planning twice is bit-identical input to the search.
        let again = plan_job(&graph, &knobs).unwrap();
        assert_eq!(plan.knobs(), again.knobs());
        assert_eq!(plan.schedule(), again.schedule());
    }

    #[test]
    fn infeasible_steps_yield_schedule_error() {
        let knobs = Knobs { steps: Some(1), ..Knobs::default() };
        let graph = resolve_graph(&GraphSource::Bench("ewf".into())).unwrap();
        let err = run_allocation(&graph, &knobs, None).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Schedule);
    }
}

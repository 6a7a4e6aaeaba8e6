//! Shared job planning: coordinator and workers must prepare a job
//! *identically* — same library, same schedule, same allocator
//! configuration — or the bit-exact contract breaks at the first
//! diverging schedule. This module is the single definition both sides
//! call, mirroring the service's `exec` pipeline with the search itself
//! left out.

use salsa_alloc::{AllocError, Allocator, CancelToken, ImproveConfig, MoveSet};
use salsa_cdfg::Cdfg;
use salsa_sched::{asap, fds_schedule, FuLibrary, Schedule};
use salsa_serve::{ErrorKind, Knobs, ServeError};

/// A planned job: the inputs every participant derives the same way.
#[derive(Debug)]
pub struct JobPlan {
    /// The functional-unit library (standard or pipelined).
    pub library: FuLibrary,
    /// The force-directed schedule at the resolved step count.
    pub schedule: Schedule,
    /// The knobs with cluster-relevant fields resolved: `steps` is
    /// always `Some` (so workers never re-derive it) and `threads` is
    /// pinned to 1 (each chain runs sequentially wherever it lands; the
    /// cluster's parallelism is workers, not threads).
    pub knobs: Knobs,
}

/// Plans a job from a graph and raw knobs. Deterministic: the same
/// `(graph, knobs)` yields the same plan on every host.
pub fn plan_job(graph: &Cdfg, knobs: &Knobs) -> Result<JobPlan, ServeError> {
    let library = if knobs.pipelined { FuLibrary::pipelined() } else { FuLibrary::standard() };
    let steps = knobs.steps.unwrap_or_else(|| asap(graph, &library).length);
    let schedule = fds_schedule(graph, &library, steps)
        .map_err(|e| ServeError::new(ErrorKind::Schedule, e.to_string()))?;
    let mut resolved = knobs.clone();
    resolved.steps = Some(steps);
    resolved.threads = Some(1);
    Ok(JobPlan { library, schedule, knobs: resolved })
}

/// Builds the allocator for a planned job — the exact construction the
/// service's local path uses, pinned to one thread. The cutoff knob is
/// deliberately *not* applied here: cluster-wide pruning runs through the
/// coordinator's bound gossip, not the local portfolio driver.
pub fn build_allocator<'a>(
    graph: &'a Cdfg,
    plan: &'a JobPlan,
    cancel: Option<CancelToken>,
) -> Allocator<'a> {
    let knobs = &plan.knobs;
    let move_set = if knobs.traditional { MoveSet::traditional() } else { MoveSet::full() };
    let config =
        ImproveConfig { move_set, cancel, warm: knobs.warm.clone(), ..ImproveConfig::default() };
    Allocator::new(graph, &plan.schedule, &plan.library)
        .seed(knobs.seed)
        .extra_registers(knobs.extra_regs)
        .restarts(knobs.restarts)
        .config(config)
        .threads(1)
}

/// Maps an allocator error onto the service's error taxonomy, the same
/// way the local execution path does.
pub fn map_alloc_error(err: AllocError) -> ServeError {
    match err {
        AllocError::Cancelled => ServeError::new(
            ErrorKind::Timeout,
            "allocation cancelled before completion (deadline or shutdown)",
        ),
        other => ServeError::new(ErrorKind::Alloc, other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salsa_cdfg::benchmarks::paper_example;

    #[test]
    fn plans_resolve_steps_and_pin_threads() {
        let graph = paper_example();
        let knobs = Knobs { restarts: 2, ..Knobs::default() };
        let plan = plan_job(&graph, &knobs).unwrap();
        assert!(plan.knobs.steps.is_some(), "steps resolved for the wire");
        assert_eq!(plan.knobs.threads, Some(1));
        assert_eq!(plan.schedule.n_steps(), plan.knobs.steps.unwrap());
        // Planning twice is bit-identical input to every participant.
        let again = plan_job(&graph, &knobs).unwrap();
        assert_eq!(plan.knobs, again.knobs);
    }

    #[test]
    fn infeasible_steps_surface_as_schedule_errors() {
        let graph = paper_example();
        let knobs = Knobs { steps: Some(1), ..Knobs::default() };
        let err = plan_job(&graph, &knobs).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Schedule);
    }
}

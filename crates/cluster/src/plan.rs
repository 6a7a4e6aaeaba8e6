//! Cluster job planning: coordinator and workers must prepare a job
//! *identically* — same library, same schedule, same allocator
//! configuration — or the bit-exact contract breaks at the first
//! diverging schedule. Both sides derive it through the service's
//! [`salsa_serve::plan_job`], the one derivation every entry point
//! shares; this module adds only the cluster's own rule.

use salsa_cdfg::Cdfg;
use salsa_serve::{Knobs, ServeError};

pub use salsa_serve::JobPlan;

/// Plans a cluster job: [`salsa_serve::plan_job`] with `threads` pinned
/// to 1 — each chain runs sequentially wherever it lands; the cluster's
/// parallelism is workers, not threads. The resolved knobs (`steps`
/// always `Some`) are what the coordinator ships, so workers never
/// re-derive the step count.
pub fn plan_job(graph: &Cdfg, knobs: &Knobs) -> Result<JobPlan, ServeError> {
    salsa_serve::plan_job(graph, &Knobs { threads: Some(1), ..knobs.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use salsa_cdfg::benchmarks::paper_example;
    use salsa_serve::ErrorKind;

    #[test]
    fn plans_resolve_steps_and_pin_threads() {
        let graph = paper_example();
        let knobs = Knobs { restarts: 2, ..Knobs::default() };
        let plan = plan_job(&graph, &knobs).unwrap();
        assert!(plan.knobs().steps.is_some(), "steps resolved for the wire");
        assert_eq!(plan.knobs().threads, Some(1));
        assert_eq!(plan.schedule().n_steps(), plan.knobs().steps.unwrap());
        // Planning twice is bit-identical input to every participant.
        let again = plan_job(&graph, &knobs).unwrap();
        assert_eq!(plan.knobs(), again.knobs());
    }

    #[test]
    fn infeasible_steps_surface_as_schedule_errors() {
        let graph = paper_example();
        let knobs = Knobs { steps: Some(1), ..Knobs::default() };
        let err = plan_job(&graph, &knobs).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Schedule);
    }
}

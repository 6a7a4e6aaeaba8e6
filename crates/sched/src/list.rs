//! Resource-constrained list scheduling.

use std::collections::BTreeMap;

use salsa_cdfg::Cdfg;

use crate::topology::Topology;
use crate::{asap, FuClass, FuLibrary, Schedule, SchedError};

/// Schedules the graph with at most `limits[class]` units of each class,
/// minimizing latency greedily (classic list scheduling with
/// least-slack-first priority).
///
/// Classes missing from `limits` are unconstrained.
///
/// # Errors
///
/// Returns [`SchedError`] only if the produced schedule fails validation
/// (which would indicate an internal bug); a zero limit for a needed class
/// panics instead.
///
/// # Panics
///
/// Panics if `limits` contains a zero for a class the graph needs.
pub fn list_schedule(
    graph: &Cdfg,
    library: &FuLibrary,
    limits: &BTreeMap<FuClass, usize>,
) -> Result<Schedule, SchedError> {
    for op in graph.ops() {
        let class = FuClass::for_op(op.kind());
        if let Some(&0) = limits.get(&class) {
            panic!("limit for {class} is zero but the graph contains {class} operations");
        }
    }
    let topology = Topology::new(graph, library, asap(graph, library).length);
    let limits = FuClass::all().map(|c| limits.get(&c).copied().unwrap_or(usize::MAX));
    let issue = list_issue(&topology, limits, None).expect("without a horizon every op issues");
    let n_steps = (0..issue.len()).map(|op| issue[op] + topology.delay[op]).max().unwrap_or(1);
    Schedule::from_issue_times(graph, library, issue, n_steps)
}

/// The list scheduler's core on a compiled topology. Step by step from 0,
/// it issues the operations whose operands are born, least slack first
/// (lowest ALAP, then lowest index), each while its class has a unit free
/// for its whole occupancy; `limits` caps the units per class, indexed like
/// [`Topology::class`]. The ALAP order does not depend on the topology's
/// `n_steps`: a longer schedule shifts every ALAP step by the same amount.
///
/// With a `horizon`, returns `None` as soon as an operation issues too late
/// to complete by it, which is exactly when the finished table would be
/// longer than `horizon`: the steps already taken are the ones an unbounded
/// run takes.
pub(crate) fn list_issue(
    topology: &Topology,
    limits: [usize; 3],
    horizon: Option<usize>,
) -> Option<Vec<usize>> {
    let n = topology.class.len();
    let mut issue = vec![usize::MAX; n];
    // Per operation: producers not yet issued, and the step by which every
    // issued producer's result is born.
    let mut waiting: Vec<usize> = topology.preds.iter().map(Vec::len).collect();
    let mut born = vec![0; n];
    // Unissued operations with every producer issued.
    let mut pending: Vec<usize> = (0..n).filter(|&op| waiting[op] == 0).collect();
    let mut ready = Vec::new();
    // lanes[class][step]: units of the class busy at the step.
    let mut lanes: [Vec<usize>; 3] = Default::default();
    // Every step before the last issue has some operation in flight, so a
    // run that issues at all ends within the total delay.
    let bound: usize = topology.delay.iter().sum();
    let mut left = n;
    let mut step = 0;
    while left > 0 {
        ready.clear();
        ready.extend(pending.iter().copied().filter(|&op| born[op] <= step));
        ready.sort_unstable_by_key(|&op| (topology.alap[op], op));
        for &op in &ready {
            let (class, occupancy) = (topology.class[op], topology.occupancy[op]);
            let lanes = &mut lanes[class];
            if lanes.len() < step + occupancy {
                lanes.resize(step + occupancy, 0);
            }
            let busy = &mut lanes[step..step + occupancy];
            if busy.iter().any(|&used| used >= limits[class]) {
                continue;
            }
            let done = step + topology.delay[op];
            if horizon.is_some_and(|h| done > h) {
                return None;
            }
            for used in busy {
                *used += 1;
            }
            issue[op] = step;
            left -= 1;
            for &succ in &topology.succs[op] {
                born[succ] = born[succ].max(done);
                waiting[succ] -= 1;
                if waiting[succ] == 0 {
                    pending.push(succ);
                }
            }
        }
        pending.retain(|&op| issue[op] == usize::MAX);
        step += 1;
        assert!(step <= bound, "list scheduling failed to converge");
    }
    Some(issue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use salsa_cdfg::benchmarks::{dct, ewf};
    use salsa_cdfg::{random_cdfg, RandomCdfgConfig};

    fn limits(alu: usize, mul: usize) -> BTreeMap<FuClass, usize> {
        BTreeMap::from([(FuClass::Alu, alu), (FuClass::Mul, mul)])
    }

    #[test]
    fn unconstrained_list_matches_critical_path() {
        let g = ewf();
        let lib = FuLibrary::standard();
        let s = list_schedule(&g, &lib, &BTreeMap::new()).unwrap();
        assert_eq!(s.n_steps(), 17);
    }

    #[test]
    fn constrained_schedules_are_valid_and_respect_limits() {
        let g = ewf();
        let lib = FuLibrary::standard();
        for (alu, mul) in [(3, 3), (2, 2), (2, 1), (1, 1)] {
            let s = list_schedule(&g, &lib, &limits(alu, mul)).unwrap();
            s.validate(&g, &lib).unwrap();
            let demand = s.fu_demand(&g, &lib);
            assert!(demand[&FuClass::Alu] <= alu);
            assert!(demand[&FuClass::Mul] <= mul);
        }
    }

    #[test]
    fn fewer_units_never_shorten_the_schedule() {
        let g = dct();
        let lib = FuLibrary::standard();
        let tight = list_schedule(&g, &lib, &limits(2, 2)).unwrap();
        let loose = list_schedule(&g, &lib, &limits(8, 8)).unwrap();
        assert!(tight.n_steps() >= loose.n_steps());
    }

    #[test]
    fn pipelining_reduces_multiplier_pressure() {
        let g = dct();
        let np = list_schedule(&g, &FuLibrary::standard(), &limits(4, 2)).unwrap();
        let pp = list_schedule(&g, &FuLibrary::pipelined(), &limits(4, 2)).unwrap();
        assert!(pp.n_steps() <= np.n_steps());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The horizon core returns a table exactly when the unbounded list
        /// schedule fits the horizon, and then the same table, whatever the
        /// schedule length its topology was built for.
        #[test]
        fn horizon_cuts_exactly_the_tables_that_overrun(
            seed in 0u64..10_000,
            ops in 4usize..=60,
            arrays in 0usize..=2,
            which_library in 0usize..3,
            alu in 1usize..=4,
            mul in 1usize..=4,
            mem in 1usize..=3,
            extra in 0usize..=12,
        ) {
            let config = RandomCdfgConfig { ops, arrays, ..RandomCdfgConfig::default() };
            let graph = random_cdfg(&config, seed);
            let library = FuLibrary::for_tests(which_library);
            let units = [alu, mul, mem];
            let limits = BTreeMap::from([
                (FuClass::Alu, units[0]),
                (FuClass::Mul, units[1]),
                (FuClass::Mem, units[2]),
            ]);
            let full = list_schedule(&graph, &library, &limits).unwrap();
            let horizon = asap(&graph, &library).length + extra;
            let topology = Topology::new(&graph, &library, horizon);
            let cut = list_issue(&topology, units, Some(horizon));
            if full.n_steps() <= horizon {
                prop_assert_eq!(cut.as_deref(), Some(full.issue_times()));
            } else {
                prop_assert!(cut.is_none());
            }
        }
    }

    #[test]
    #[should_panic(expected = "limit for mul is zero")]
    fn zero_limit_panics() {
        let g = dct();
        let lib = FuLibrary::standard();
        let _ = list_schedule(&g, &lib, &limits(2, 0));
    }
}

//! ASAP/ALAP analysis and operation mobility.

use salsa_cdfg::{Cdfg, ValueSource};

use crate::{FuLibrary, SchedError};

/// Result of an ASAP pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsapResult {
    /// Earliest feasible issue step per operation.
    pub issue: Vec<usize>,
    /// Critical-path length: the minimum schedule length in control steps.
    pub length: usize,
}

/// Computes the earliest issue step of every operation and the
/// critical-path length of the graph.
pub fn asap(graph: &Cdfg, library: &FuLibrary) -> AsapResult {
    let mut avail = vec![0usize; graph.num_values()];
    let mut issue = vec![0usize; graph.num_ops()];
    let mut length = 0;
    for op in graph.ops() {
        let mut earliest = 0;
        for operand in op.inputs() {
            if !matches!(graph.value(operand).source(), ValueSource::Const(_)) {
                earliest = earliest.max(avail[operand.index()]);
            }
        }
        issue[op.id().index()] = earliest;
        let finish = earliest + library.delay(op.kind());
        avail[op.output().index()] = finish;
        length = length.max(finish);
    }
    AsapResult { issue, length }
}

/// Computes the latest feasible issue step of every operation for a schedule
/// of `n_steps` control steps.
///
/// # Errors
///
/// Returns [`SchedError::TooShort`] if `n_steps` is below the critical path.
pub fn alap(graph: &Cdfg, library: &FuLibrary, n_steps: usize) -> Result<Vec<usize>, SchedError> {
    let too_short =
        || SchedError::TooShort { requested: n_steps, critical_path: asap(graph, library).length };
    // deadline[v]: latest step at which value v may be born.
    let mut deadline = vec![n_steps; graph.num_values()];
    let mut latest = vec![0usize; graph.num_ops()];
    for op in graph.ops().collect::<Vec<_>>().into_iter().rev() {
        let t = deadline[op.output().index()]
            .checked_sub(library.delay(op.kind()))
            .ok_or_else(too_short)?;
        latest[op.id().index()] = t;
        for operand in op.inputs() {
            if !matches!(graph.value(operand).source(), ValueSource::Const(_)) {
                let d = &mut deadline[operand.index()];
                *d = (*d).min(t);
            }
        }
    }
    Ok(latest)
}

/// Computes per-operation mobility (`alap - asap`) for an `n_steps`
/// schedule.
///
/// # Errors
///
/// Returns [`SchedError::TooShort`] if `n_steps` is below the critical path.
pub fn mobility(
    graph: &Cdfg,
    library: &FuLibrary,
    n_steps: usize,
) -> Result<Vec<usize>, SchedError> {
    let early = asap(graph, library);
    let late = alap(graph, library, n_steps)?;
    Ok(early
        .issue
        .iter()
        .zip(&late)
        .map(|(&e, &l)| l.checked_sub(e).expect("ALAP >= ASAP"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use salsa_cdfg::benchmarks::{dct, ewf};

    #[test]
    fn ewf_critical_path_is_17() {
        let lib = FuLibrary::standard();
        assert_eq!(asap(&ewf(), &lib).length, 17);
        // Pipelining does not change data delays, only occupancy.
        assert_eq!(asap(&ewf(), &FuLibrary::pipelined()).length, 17);
    }

    #[test]
    fn dct_critical_path_is_8() {
        let lib = FuLibrary::standard();
        assert_eq!(asap(&dct(), &lib).length, 8);
    }

    #[test]
    fn alap_respects_deadline_and_bounds() {
        let g = ewf();
        let lib = FuLibrary::standard();
        let early = asap(&g, &lib);
        let late = alap(&g, &lib, 19).unwrap();
        for (op, (&e, &l)) in g.ops().zip(early.issue.iter().zip(&late)) {
            assert!(e <= l, "{}: asap {e} > alap {l}", op.id());
            assert!(l + lib.delay(op.kind()) <= 19);
        }
    }

    #[test]
    fn alap_too_short_errors() {
        let g = ewf();
        let lib = FuLibrary::standard();
        let err = alap(&g, &lib, 16).unwrap_err();
        assert_eq!(err, SchedError::TooShort { requested: 16, critical_path: 17 });
    }

    #[test]
    fn mobility_zero_on_critical_path_schedule() {
        let g = dct();
        let lib = FuLibrary::standard();
        let m = mobility(&g, &lib, 8).unwrap();
        assert!(m.contains(&0), "critical ops have zero mobility");
        let m10 = mobility(&g, &lib, 10).unwrap();
        assert!(m10.iter().zip(&m).all(|(&a, &b)| a >= b));
        assert!(m10.iter().all(|&x| x >= 2), "two slack steps everywhere");
    }
}

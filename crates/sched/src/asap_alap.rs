//! ASAP analysis: earliest issue steps and the critical-path length.
//! The per-deadline frames (ASAP and ALAP steps under fixations) are
//! `Topology::frames`, which FDS and the list scheduler share.

use salsa_cdfg::{Cdfg, ValueSource};

use crate::FuLibrary;

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
}

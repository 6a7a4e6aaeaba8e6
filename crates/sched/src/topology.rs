//! The graph as the schedulers see it: per-operation flat arrays, built once
//! per scheduling call and shared by every table the call builds.

use salsa_cdfg::Cdfg;

use crate::{FuClass, FuLibrary};

/// Position of a class in per-class arrays, in [`FuClass::all`] order.
pub(crate) fn class_index(class: FuClass) -> usize {
    match class {
        FuClass::Alu => 0,
        FuClass::Mul => 1,
        FuClass::Mem => 2,
    }
}

/// The graph flattened for one schedule length.
///
/// Operation indices are topological (the CDFG stores operations in that
/// order), so a walk in index order settles every producer before its
/// consumers.
pub(crate) struct Topology {
    pub(crate) n_steps: usize,
    /// Area of each class, indexed by [`class_index`].
    pub(crate) area: [usize; 3],
    /// Per operation: class index, occupancy and delay.
    pub(crate) class: Vec<usize>,
    pub(crate) occupancy: Vec<usize>,
    pub(crate) delay: Vec<usize>,
    /// Operations producing an operand of each operation, and consuming
    /// its result, in ascending index order.
    pub(crate) preds: Vec<Vec<usize>>,
    pub(crate) succs: Vec<Vec<usize>>,
    /// The static frame: earliest and latest feasible issue step.
    pub(crate) asap: Vec<usize>,
    pub(crate) alap: Vec<usize>,
}

impl Topology {
    /// Flattens `graph` for an `n_steps` schedule.
    ///
    /// # Panics
    ///
    /// Panics if `n_steps` is below the critical path.
    pub(crate) fn new(graph: &Cdfg, library: &FuLibrary, n_steps: usize) -> Self {
        let n = graph.num_ops();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for op in graph.ops() {
            let o = op.id().index();
            for operand in op.inputs() {
                if let Some(p) = graph.value(operand).source().op() {
                    if !preds[o].contains(&p.index()) {
                        preds[o].push(p.index());
                        succs[p.index()].push(o);
                    }
                }
            }
        }
        let mut topology = Topology {
            n_steps,
            area: FuClass::all().map(|c| library.spec(c).area),
            class: graph.ops().map(|o| class_index(FuClass::for_op(o.kind()))).collect(),
            occupancy: graph.ops().map(|o| library.occupancy(o.kind())).collect(),
            delay: graph.ops().map(|o| library.delay(o.kind())).collect(),
            preds,
            succs,
            asap: vec![0; n],
            alap: vec![0; n],
        };
        let (mut asap, mut alap) = (vec![0; n], vec![0; n]);
        assert!(
            topology.frames(&vec![None; n], &mut asap, &mut alap),
            "n_steps covers the critical path"
        );
        (topology.asap, topology.alap) = (asap, alap);
        topology
    }

    /// Writes every operation's earliest and latest issue step into
    /// `early` and `late`, honouring the issue steps `fixed` pins. Returns
    /// `false` when no table meets the pins within `n_steps`: a pinned
    /// operation issues before its operands are born or too late for its
    /// consumers, or some operation would have to issue before step 0.
    pub(crate) fn frames(
        &self,
        fixed: &[Option<usize>],
        early: &mut [usize],
        late: &mut [usize],
    ) -> bool {
        for op in 0..fixed.len() {
            let ready = self.preds[op].iter().map(|&p| early[p] + self.delay[p]).max();
            let earliest = ready.unwrap_or(0);
            early[op] = match fixed[op] {
                Some(t) if t < earliest => return false,
                Some(t) => t,
                None => earliest,
            };
        }
        for op in (0..fixed.len()).rev() {
            let deadline = self.succs[op].iter().map(|&s| late[s]).fold(self.n_steps, usize::min);
            let Some(latest) = deadline.checked_sub(self.delay[op]) else {
                return false;
            };
            late[op] = match fixed[op] {
                Some(t) if t > latest => return false,
                Some(t) => t,
                None => latest,
            };
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salsa_cdfg::CdfgBuilder;

    #[test]
    fn frames_detect_infeasible_fixations() {
        let mut b = CdfgBuilder::new("f");
        let x = b.input("x");
        let k = b.constant(2);
        let m = b.mul(x, k);
        let y = b.add(m, x);
        b.mark_output(y, "y");
        let g = b.finish().unwrap();
        let lib = FuLibrary::standard();
        let topology = Topology::new(&g, &lib, 3);
        let (mut early, mut late) = ([0; 2], [0; 2]);
        // add fixed at step 1 but the mul result is born at step 2.
        assert!(!topology.frames(&[None, Some(1)], &mut early, &mut late));
        assert!(topology.frames(&[None, Some(2)], &mut early, &mut late));
        assert_eq!((early, late), ([0, 2], [0, 2]));
        // mul fixed later than the add allows.
        assert!(!topology.frames(&[Some(2), None], &mut early, &mut late));
    }
}

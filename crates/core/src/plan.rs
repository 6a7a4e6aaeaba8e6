//! The compiled move plan: flat per-job candidate tables.
//!
//! The move proposers used to re-derive their candidate spaces on every
//! draw — collecting same-class units, commutative operators, stored
//! values, pass-capable units and lifetime positions from the graph,
//! schedule and datapath each time a move kind came up. All of that is a
//! pure function of the `(CDFG, schedule, datapath)` triple, so it is
//! compiled **once per job admission** into a [`MovePlan`] of flat index
//! tables held by the [`AllocContext`](crate::AllocContext). Every
//! `propose_*` then becomes an indexed draw into a prebuilt slice (plus a
//! cheap dynamic-feasibility filter through a reusable scratch buffer),
//! and the hot owner/connection enumeration in
//! [`Binding`](crate::Binding) resolves operand reads and lifetime
//! positions through O(1) lookups instead of linear scans.
//!
//! **Determinism.** Every table has a fixed iteration order (datapath
//! order for units, id order for ops and values, port order for reads).
//! Each draw indexes into that order, so recorded move traces and the
//! golden proposal streams in `crates/core/tests/golden/proposals.txt`
//! depend on it.

use salsa_cdfg::{Cdfg, OpId, ValueId};
use salsa_datapath::{Datapath, FuId};
use salsa_sched::{FuClass, FuLibrary, Lifetimes, Schedule};

use crate::TransferKey;

/// A compiled operand read: `(input port, operand value, lifetime index
/// of the operand at the reader's issue step)`. The port and index are
/// schedule-static; only the chain slot serving the read is binding state.
pub(crate) type OpRead = (u8, ValueId, u32);

/// Flat candidate tables compiled once per `(CDFG, datapath)` pair at job
/// admission. See the module docs for the ordering contract.
#[derive(Debug)]
pub struct MovePlan {
    /// Indices into [`class_units`](Self::class_units) of classes with at
    /// least two units — the F1 exchange population, in `FuClass::all()`
    /// order. `Mem` is excluded: port assignment belongs to the M family
    /// exclusively, so the F moves never touch memory units.
    pub(crate) exchange_classes: Vec<usize>,
    /// Per-class unit id lists in datapath order, indexed parallel to
    /// `FuClass::all()`.
    pub(crate) class_units: Vec<Vec<FuId>>,
    /// Per-op index into [`class_units`](Self::class_units) (the F2
    /// candidate list for that op).
    pub(crate) op_class: Vec<usize>,
    /// Commutative operations in id order (the F3 population).
    pub(crate) commutative: Vec<OpId>,
    /// Pass-capable units in datapath order (the F4 candidate pool).
    pub(crate) pass_units: Vec<FuId>,
    /// Values with a non-empty stored lifetime, in id order — the
    /// candidate population of the register moves (R2–R6). Every one of
    /// them has a primal chain in any binding: `Binding::from_parts`
    /// rejects a stored value without one, and no move removes it.
    pub(crate) storable: Vec<ValueId>,
    /// Dense `value × step → lifetime index` table (`u32::MAX` = not
    /// stored at that step); replaces the per-read linear scan.
    lt_index: Vec<u32>,
    n_steps: usize,
    /// Per-op compiled operand reads, in port order.
    pub(crate) op_reads: Vec<Vec<OpRead>>,
    /// Per-op output value.
    pub(crate) op_output: Vec<ValueId>,
    /// Whether the op's output lifetime is empty (boundary-born result:
    /// the producer writes the fed state registers directly).
    pub(crate) op_out_empty: Vec<bool>,
    /// The states a boundary-born output feeds (empty for stored
    /// outputs).
    pub(crate) op_out_states: Vec<Vec<ValueId>>,
    /// Per-value static operation owners (producer, consumers, and the
    /// feedback-source producer when that source is boundary-born),
    /// sorted and deduplicated.
    pub(crate) value_op_owners: Vec<Vec<OpId>>,
    /// Per-value compiled reads of the value: `(reader, input port,
    /// lifetime index at the reader's issue step)`, in op order.
    pub(crate) value_reads: Vec<Vec<(OpId, u8, u32)>>,
    /// Per-value static boundary transfer keys: one per fed state, plus
    /// the value's own boundary when it is a state.
    pub(crate) value_boundaries: Vec<Vec<TransferKey>>,
    /// Per-value producing op.
    pub(crate) value_producer: Vec<Option<OpId>>,
    /// Per-value producer of the boundary-born feedback source (the op
    /// that writes this state's register directly), if any.
    pub(crate) value_fb_producer: Vec<Option<OpId>>,
    /// Per-value stored-lifetime length (0 = unstored or empty).
    pub(crate) value_lt_len: Vec<u32>,
    /// Memory accesses (loads and stores) in op-id order — the M3
    /// population, and the scan set of the on-demand memory cost terms.
    pub(crate) mem_ops: Vec<OpId>,
    /// Per-op array index (`None` for scalar ops).
    pub(crate) op_array: Vec<Option<u32>>,
    /// Number of arrays of the graph (the M1/M2 population size).
    pub(crate) num_arrays: usize,
    /// Per-bank `Mem`-unit id lists in datapath order — the M1/M3
    /// re-porting candidate tables.
    pub(crate) bank_units: Vec<Vec<FuId>>,
    /// Dimension stamp `(ops, values, steps, fus, regs, arrays, banks)`
    /// of the inputs the plan was compiled from — the defensive shape
    /// check a shared (cached) plan is validated against before reuse.
    stamp: (usize, usize, usize, usize, usize, usize, usize),
}

impl MovePlan {
    /// Compiles the plan. Called once from
    /// [`AllocContext::new`](crate::AllocContext::new).
    pub(crate) fn compile(
        graph: &Cdfg,
        schedule: &Schedule,
        library: &FuLibrary,
        datapath: &Datapath,
        lifetimes: &Lifetimes,
    ) -> Self {
        let n_steps = schedule.n_steps();
        let num_ops = graph.num_ops();
        let num_values = graph.num_values();

        let classes = FuClass::all();
        let class_units: Vec<Vec<FuId>> = classes
            .iter()
            .map(|&c| datapath.fus_of_class(c).map(|f| f.id()).collect())
            .collect();
        let exchange_classes: Vec<usize> = (0..classes.len())
            .filter(|&i| classes[i] != FuClass::Mem && class_units[i].len() >= 2)
            .collect();
        let class_of = |op: OpId| FuClass::for_op(graph.op(op).kind());
        let op_class: Vec<usize> = graph
            .op_ids()
            .map(|op| {
                let c = class_of(op);
                classes.iter().position(|&k| k == c).expect("op class in FuClass::all()")
            })
            .collect();
        let commutative: Vec<OpId> = graph
            .ops()
            .filter(|o| o.kind().is_commutative())
            .map(|o| o.id())
            .collect();
        let pass_units: Vec<FuId> = datapath
            .fus()
            .filter(|f| library.spec(f.class()).can_pass_through)
            .map(|f| f.id())
            .collect();

        let mut lt_index = vec![u32::MAX; num_values * n_steps];
        let mut value_lt_len = vec![0u32; num_values];
        let storable: Vec<ValueId> = graph
            .value_ids()
            .filter(|&v| lifetimes.get(v).is_some_and(|lt| !lt.is_empty()))
            .collect();
        for value in graph.value_ids() {
            let Some(lt) = lifetimes.get(value) else { continue };
            value_lt_len[value.index()] = lt.len() as u32;
            for (idx, &step) in lt.steps().iter().enumerate() {
                lt_index[value.index() * n_steps + step] = idx as u32;
            }
        }

        let is_stored =
            |v: ValueId| !matches!(graph.value(v).source(), salsa_cdfg::ValueSource::Const(_));
        let mut op_reads = Vec::with_capacity(num_ops);
        let mut value_reads: Vec<Vec<(OpId, u8, u32)>> = vec![Vec::new(); num_values];
        let mut op_output = Vec::with_capacity(num_ops);
        let mut op_out_empty = Vec::with_capacity(num_ops);
        let mut op_out_states = Vec::with_capacity(num_ops);
        for op in graph.ops() {
            let issue = schedule.issue(op.id());
            let mut reads: Vec<OpRead> = Vec::new();
            for (port, operand) in op.inputs().into_iter().enumerate() {
                if !is_stored(operand) {
                    continue;
                }
                let idx = lt_index[operand.index() * n_steps + issue];
                assert_ne!(idx, u32::MAX, "operand stored at issue step");
                reads.push((port as u8, operand, idx));
                value_reads[operand.index()].push((op.id(), port as u8, idx));
            }
            op_reads.push(reads);
            let out = op.output();
            op_output.push(out);
            let lt = lifetimes.get(out).expect("op outputs are stored values");
            op_out_empty.push(lt.is_empty());
            op_out_states.push(if lt.is_empty() { lt.feeds().to_vec() } else { Vec::new() });
        }

        let mem_ops: Vec<OpId> = graph.memory_ops().map(|o| o.id()).collect();
        let op_array: Vec<Option<u32>> =
            graph.ops().map(|o| o.array().map(|a| a.index() as u32)).collect();
        let bank_units: Vec<Vec<FuId>> =
            (0..datapath.num_banks()).map(|b| datapath.bank_fus(b).collect()).collect();

        let value_producer: Vec<Option<OpId>> =
            graph.value_ids().map(|v| graph.value(v).source().op()).collect();
        let mut value_fb_producer = vec![None; num_values];
        let mut value_op_owners = Vec::with_capacity(num_values);
        let mut value_boundaries = Vec::with_capacity(num_values);
        for value in graph.value_ids() {
            let mut ops: Vec<OpId> = Vec::new();
            if let Some(p) = value_producer[value.index()] {
                ops.push(p);
            }
            for u in graph.value(value).uses() {
                ops.push(u.op);
            }
            if let Some(src) = graph.value(value).feedback_from() {
                if lifetimes.get(src).is_some_and(|lt| lt.is_empty()) {
                    if let Some(p) = value_producer[src.index()] {
                        value_fb_producer[value.index()] = Some(p);
                        ops.push(p);
                    }
                }
            }
            ops.sort_unstable();
            ops.dedup();
            value_op_owners.push(ops);

            let mut bounds: Vec<TransferKey> = Vec::new();
            if let Some(lt) = lifetimes.get(value) {
                for &state in lt.feeds() {
                    bounds.push(TransferKey::Boundary { state });
                }
            }
            if graph.value(value).is_state() {
                bounds.push(TransferKey::Boundary { state: value });
            }
            value_boundaries.push(bounds);
        }

        MovePlan {
            exchange_classes,
            class_units,
            op_class,
            commutative,
            pass_units,
            storable,
            lt_index,
            n_steps,
            op_reads,
            op_output,
            op_out_empty,
            op_out_states,
            value_op_owners,
            value_reads,
            value_boundaries,
            value_producer,
            value_fb_producer,
            value_lt_len,
            mem_ops,
            op_array,
            num_arrays: graph.num_arrays(),
            bank_units,
            stamp: (
                num_ops,
                num_values,
                n_steps,
                datapath.num_fus(),
                datapath.num_regs(),
                graph.num_arrays(),
                datapath.num_banks(),
            ),
        }
    }

    /// Whether this plan was compiled for inputs of exactly this shape.
    /// A dimension match is necessary but not sufficient for identity —
    /// the admission cache only shares plans between jobs holding the
    /// same canonical design text, where it *is* sufficient.
    pub(crate) fn matches(&self, graph: &Cdfg, schedule: &Schedule, datapath: &Datapath) -> bool {
        self.stamp
            == (
                graph.num_ops(),
                graph.num_values(),
                schedule.n_steps(),
                datapath.num_fus(),
                datapath.num_regs(),
                graph.num_arrays(),
                datapath.num_banks(),
            )
    }

    /// O(1) lifetime position of `step` within `value`'s stored lifetime.
    #[inline]
    pub(crate) fn lifetime_index(&self, value: ValueId, step: usize) -> Option<usize> {
        match self.lt_index[value.index() * self.n_steps + step] {
            u32::MAX => None,
            idx => Some(idx as usize),
        }
    }

    /// The F2 candidate unit list for an op (its class's units in
    /// datapath order).
    #[inline]
    pub(crate) fn units_for_op(&self, op: OpId) -> &[FuId] {
        &self.class_units[self.op_class[op.index()]]
    }

    /// Whether the op is a memory access (names an array).
    #[inline]
    pub(crate) fn is_memory_op(&self, op: OpId) -> bool {
        self.op_array[op.index()].is_some()
    }
}

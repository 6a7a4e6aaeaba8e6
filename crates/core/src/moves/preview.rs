//! Cost before apply: the exact weighted cost an R1, R2, R4, F2 or F3
//! proposal would produce, read without applying it (DESIGN.md §19).
//!
//! The search keeps only downhill, sideways and a few bounded uphill
//! moves, so most applied moves used to be journaled, costed and rolled
//! back. A preview reads the items of the owners the move re-routes twice
//! — as they are, and with the move's registers or unit written in —
//! keeps the items that differ, and trades them on the count-based
//! connection matrix, whose running wire and mux totals give the change.
//! The counters the move can flip are read off their transitions:
//! `used_regs` for R2 and R4, and `fu_area` for F2 and for the passes a
//! collapsed transfer drops. None of these moves touches an array bank or
//! a memory access, so the memory terms stand. Because the result is
//! exact, a search that applies a previewed move only when its acceptance
//! rule keeps it makes every decision, RNG draw and commit of one that
//! applies them all.

use salsa_cdfg::{OpId, ValueId};
use salsa_datapath::{ConnectionMatrix, CostWeights, FuId, RegId, Sink, Source};

use crate::binding::Owner;
use crate::moves::reg::{segment_owners, value_fits};
use crate::moves::Proposal;
use crate::Binding;

/// Reusable buffers of the preview, kept in the binding's move scratch.
#[derive(Debug, Default)]
pub(crate) struct PreviewScratch {
    /// The items the move retracts.
    old: Vec<(Source, Sink)>,
    /// The items the move asserts in their place.
    new: Vec<(Source, Sink)>,
    /// The re-routed owners' items as they are, owner by owner.
    owner_items: Vec<(Source, Sink)>,
    /// How many of those items each owner has.
    owner_lens: Vec<usize>,
    /// The pass units a collapsed transfer drops, one entry per pass.
    dropped: Vec<FuId>,
    /// The segment writes of an R4, one per primal index it changes.
    writes: Vec<SegmentWrite>,
    /// The registers the written segments held, in write order.
    held: Vec<RegId>,
}

impl PreviewScratch {
    /// The weighted change in wires and muxes of retracting the old items
    /// and asserting the new ones. The trade is made on the matrix itself,
    /// unjournaled, whose running totals give the change, and undone
    /// before returning; every old item is one of its cell's uses, so no
    /// count underflows.
    fn interconnect(&self, conn: &mut ConnectionMatrix, weights: &CostWeights) -> i64 {
        let before = (conn.connections() as i64, conn.mux_equiv() as i64);
        for &(src, sink) in &self.old {
            conn.remove(src, sink);
        }
        for &(src, sink) in &self.new {
            conn.add(src, sink);
        }
        let after = (conn.connections() as i64, conn.mux_equiv() as i64);
        for &(src, sink) in &self.new {
            conn.remove(src, sink);
        }
        for &(src, sink) in &self.old {
            conn.add(src, sink);
        }
        weights.conn as i64 * (after.0 - before.0) + weights.mux as i64 * (after.1 - before.1)
    }
}

/// The exact weighted cost `binding` would have after applying a freshly
/// drawn R1, R2, R4, F2 or F3 `proposal`, given its current weighted cost
/// `current`. `None` for every other kind, and for a proposal whose apply
/// would refuse it. Leaves the binding as it found it and journals
/// nothing: R1, R2 and R4 write the moved registers into the chains to read
/// the owners' items, and every kind trades the changed items on the
/// connection matrix to read its totals, all unjournaled and undone
/// before returning.
pub fn preview(
    binding: &mut Binding<'_>,
    proposal: Proposal,
    weights: &CostWeights,
    current: u64,
) -> Option<u64> {
    let mut pv = std::mem::take(&mut binding.scratch.preview);
    pv.old.clear();
    pv.new.clear();
    let delta = match proposal {
        Proposal::FuMove { op, target } => preview_fu_move(binding, &mut pv, weights, op, target),
        Proposal::OperandReverse { op } => preview_operand_reverse(binding, &mut pv, weights, op),
        Proposal::SegmentExchange { step, v1, s1, r1, v2, s2, r2 } => {
            preview_segment_exchange(binding, &mut pv, weights, step, (v1, s1, r1), (v2, s2, r2))
        }
        Proposal::SegmentMove { value, slot, idx, target } => {
            preview_segment_move(binding, &mut pv, weights, (value, slot, idx, target))
        }
        Proposal::ValueMove { value, target } => {
            preview_value_move(binding, &mut pv, weights, value, target)
        }
        _ => None,
    };
    binding.scratch.preview = pv;
    delta.map(|d| current.checked_add_signed(d).expect("a weighted cost is never negative"))
}

/// F2: every item of the op names its unit, and moves to `target`; a unit
/// costs its area while it carries an item.
fn preview_fu_move(
    b: &mut Binding<'_>,
    pv: &mut PreviewScratch,
    weights: &CostWeights,
    op: OpId,
    target: FuId,
) -> Option<i64> {
    let from = b.op_fu(op);
    // A memory access's unit enters the memory terms; F2 never draws one.
    if target == from || !b.fu_exec_free(target, op) || b.ctx.plan.is_memory_op(op) {
        return None;
    }
    b.items_into(Owner::Op(op), &mut pv.old);
    pv.new.extend(pv.old.iter().map(|&(src, sink)| {
        let src = if src == Source::FuOut(from) { Source::FuOut(target) } else { src };
        let sink = match sink {
            Sink::FuIn(fu, port) if fu == from => Sink::FuIn(target, port),
            other => other,
        };
        (src, sink)
    }));
    let mut area = 0;
    if b.fu_item_count[from.index()] == 1 {
        area -= b.fu_area_of(from) as i64;
    }
    if b.fu_item_count[target.index()] == 0 {
        area += b.fu_area_of(target) as i64;
    }
    Some(pv.interconnect(&mut b.conn, weights) + weights.fu_area as i64 * area)
}

/// F3: the op's operand reads trade ports; its writes stay. Only a
/// commutative op may swap them.
fn preview_operand_reverse(
    b: &mut Binding<'_>,
    pv: &mut PreviewScratch,
    weights: &CostWeights,
    op: OpId,
) -> Option<i64> {
    if !b.ctx.graph.op(op).kind().is_commutative() {
        return None;
    }
    b.items_into(Owner::Op(op), &mut pv.old);
    pv.old.retain(|&(_, sink)| matches!(sink, Sink::FuIn(..)));
    pv.new.extend(pv.old.iter().map(|&(src, sink)| match sink {
        Sink::FuIn(fu, port) => (src, Sink::FuIn(fu, port.other())),
        Sink::RegIn(_) => unreachable!("only reads are kept"),
    }));
    Some(pv.interconnect(&mut b.conn, weights))
}

/// One segment's register change: `(value, slot, lifetime index, new
/// register)`.
type SegmentWrite = (ValueId, usize, usize, RegId);

/// R1, R2 and R4: the items of the owners the moved segments re-route
/// ([`segment_owners`]), read as they are and with the new registers
/// written into the chains, plus the area of the pass units left idle
/// when their transfers collapse (the apply drops those passes). Returns
/// the weighted change, and leaves the registers the segments held in
/// `pv.held`, in write order.
fn segment_delta(
    b: &mut Binding<'_>,
    pv: &mut PreviewScratch,
    weights: &CostWeights,
    writes: &[SegmentWrite],
) -> i64 {
    let mut owners = std::mem::take(&mut b.scratch.affected);
    owners.clear();
    for &(v, slot, idx, _) in writes {
        segment_owners(b, v, slot, idx, &mut owners);
    }
    pv.owner_items.clear();
    pv.owner_lens.clear();
    for &o in &owners {
        let len = pv.owner_items.len();
        b.items_into(o, &mut pv.owner_items);
        pv.owner_lens.push(pv.owner_items.len() - len);
    }

    pv.held.clear();
    for &(v, slot, idx, reg) in writes {
        pv.held.push(b.replace_chain_reg(v, slot, idx, reg));
    }
    pv.dropped.clear();
    let mut at = 0;
    for (k, &o) in owners.iter().enumerate() {
        let before = &pv.owner_items[at..at + pv.owner_lens[k]];
        at += before.len();
        let start = pv.new.len();
        b.items_into(o, &mut pv.new);
        let after = pv.new.len() - start;
        if after == before.len() {
            // An owner lists its items in a fixed order, so only the items
            // that differ in place change the matrix.
            let mut kept = start;
            for (j, &old) in before.iter().enumerate() {
                let new = pv.new[start + j];
                if new != old {
                    pv.old.push(old);
                    pv.new[kept] = new;
                    kept += 1;
                }
            }
            pv.new.truncate(kept);
        } else {
            pv.old.extend_from_slice(before);
            // Only a transfer's item count changes. One left with none
            // collapsed, and the apply drops its pass.
            if let (Owner::Transfer(key), 0) = (o, after) {
                if let Some(&fu) = b.passes().get(&key) {
                    pv.dropped.push(fu);
                }
            }
        }
    }
    for (&(v, slot, idx, _), &reg) in writes.iter().zip(&pv.held).rev() {
        b.replace_chain_reg(v, slot, idx, reg);
    }
    b.scratch.affected = owners;

    // A unit goes idle when every item it carries is a dropped pass.
    pv.dropped.sort_unstable();
    let mut idle = 0;
    for run in pv.dropped.chunk_by(|a, z| a == z) {
        if b.fu_item_count[run[0].index()] == run.len() {
            idle += b.fu_area_of(run[0]) as i64;
        }
    }
    pv.interconnect(&mut b.conn, weights) - weights.fu_area as i64 * idle
}

/// R1: two segments of one step trade registers, so no register's
/// segment count changes.
fn preview_segment_exchange(
    b: &mut Binding<'_>,
    pv: &mut PreviewScratch,
    weights: &CostWeights,
    step: usize,
    (v1, s1, r1): (ValueId, usize, RegId),
    (v2, s2, r2): (ValueId, usize, RegId),
) -> Option<i64> {
    if r1 == r2
        || b.reg_occupant(r1, step) != Some((v1, s1))
        || b.reg_occupant(r2, step) != Some((v2, s2))
    {
        return None;
    }
    let idx1 = b.ctx.lifetime_index(v1, step).expect("occupant is stored at step");
    let idx2 = b.ctx.lifetime_index(v2, step).expect("occupant is stored at step");
    Some(segment_delta(b, pv, weights, &[(v1, s1, idx1, r2), (v2, s2, idx2, r1)]))
}

/// R2: the segment leaves its register for a free one; each register
/// counts while it holds a segment.
fn preview_segment_move(
    b: &mut Binding<'_>,
    pv: &mut PreviewScratch,
    weights: &CostWeights,
    write: SegmentWrite,
) -> Option<i64> {
    let (v, slot, idx, target) = write;
    if !b.chain(v, slot).is_some_and(|c| c.covers(idx)) {
        return None;
    }
    let step = b.ctx.lifetimes.get(v).expect("stored").steps()[idx];
    if !b.reg_free(target, step) {
        return None;
    }
    let delta = segment_delta(b, pv, weights, &[write]);
    let from = pv.held[0];
    let regs = i64::from(b.reg_seg_count[target.index()] == 0)
        - i64::from(b.reg_seg_count[from.index()] == 1);
    Some(delta + weights.reg as i64 * regs)
}

/// R4: every primal segment not already in `target` moves there. A
/// register counts while it holds a segment, so `target` starts counting
/// when it held none, and a register the value leaves stops when the
/// value's segments were all it held. Feasible exactly when the apply is:
/// `target` is free or the value's own over the whole lifetime, and the
/// value does not already sit in it alone.
fn preview_value_move(
    b: &mut Binding<'_>,
    pv: &mut PreviewScratch,
    weights: &CostWeights,
    v: ValueId,
    target: RegId,
) -> Option<i64> {
    let primal = b.primal(v).expect("stored value has a primal chain");
    if !value_fits(b, v, target) || (primal.is_uniform() && primal.regs()[0] == target) {
        return None;
    }
    let mut writes = std::mem::take(&mut pv.writes);
    writes.clear();
    writes.extend(
        (primal.lo()..=primal.hi())
            .filter(|&idx| primal.reg_at(idx) != target)
            .map(|idx| (v, 0, idx, target)),
    );
    let delta = segment_delta(b, pv, weights, &writes);
    pv.writes = writes;
    let mut regs = i64::from(b.reg_seg_count[target.index()] == 0);
    pv.held.sort_unstable();
    for run in pv.held.chunk_by(|a, z| a == z) {
        regs -= i64::from(b.reg_seg_count[run[0].index()] == run.len());
    }
    Some(delta + weights.reg as i64 * regs)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    use salsa_cdfg::benchmarks::{dct, ewf, fir_array};
    use salsa_cdfg::{random_cdfg, Cdfg, RandomCdfgConfig};
    use salsa_datapath::{Datapath, MemConfig};
    use salsa_sched::{asap, fds_schedule, FuClass, FuLibrary};

    use super::*;
    use crate::improve::weighted_cost;
    use crate::moves::{apply_proposal, propose, MoveKind, MoveSet};
    use crate::{initial_allocation, AllocContext};

    /// Table 2's weights: registers below one multiplexer.
    const TABLE2: CostWeights = CostWeights {
        fu_area: 100,
        reg: 2,
        mux: 4,
        conn: 1,
        bank: 80,
        conflict: 100_000,
    };

    fn previewed(kind: MoveKind) -> bool {
        matches!(
            kind,
            MoveKind::SegmentExchange
                | MoveKind::SegmentMove
                | MoveKind::ValueMove
                | MoveKind::FuMove
                | MoveKind::OperandReverse
        )
    }

    /// Per-kind tallies: previews checked, and previews whose move changed
    /// the register count or the unit area; and per forged case, how many
    /// proposals both the preview and the apply refused.
    #[derive(Default)]
    struct Tally {
        checked: [usize; 14],
        regs_changed: [usize; 14],
        area_changed: [usize; 14],
        refused: BTreeMap<&'static str, usize>,
    }

    /// Forges R1, R2, R4, F2 and F3 proposals no proposer draws, each
    /// labelled with the case it probes: a unit the op already runs on, a
    /// unit of its class that may be busy, a memory access, an op that may
    /// not be commutative, a register that may be occupied, a lifetime
    /// index the chain may not cover, a segment pair that may be one
    /// register or name an empty one, a whole-value target that may be
    /// occupied, and a value already alone in its target.
    fn forge(b: &Binding<'_>, rng: &mut StdRng) -> Vec<(&'static str, Proposal)> {
        let ctx = b.ctx;
        let mut out = Vec::new();
        let op = OpId::from_index(rng.gen_range(0..ctx.graph.num_ops()));
        let peers: Vec<FuId> =
            ctx.datapath.fus_of_class(ctx.class_of(op)).map(|f| f.id()).collect();
        let peer = *peers.choose(rng).expect("the op's class has a unit");
        if ctx.plan.is_memory_op(op) {
            out.push(("memory op", Proposal::FuMove { op, target: peer }));
        } else {
            out.push(("same unit", Proposal::FuMove { op, target: b.op_fu(op) }));
            out.push(("busy unit", Proposal::FuMove { op, target: peer }));
        }
        out.push(("non-commutative op", Proposal::OperandReverse { op }));

        let regs = ctx.datapath.num_regs();
        let reg = |rng: &mut StdRng| RegId::from_index(rng.gen_range(0..regs));
        if let Some(&value) = ctx.plan.storable.choose(rng) {
            if let Some(primal) = b.primal(value) {
                let (idx, target) = (rng.gen_range(0..primal.len()), reg(rng));
                let moved = Proposal::SegmentMove { value, slot: 0, idx, target };
                out.push(("occupied register", moved));
                let (slot, idx) = (rng.gen_range(0..=3), rng.gen_range(0..primal.len()));
                let target = reg(rng);
                let moved = Proposal::SegmentMove { value, slot, idx, target };
                out.push(("uncovered index", moved));
                out.push(("occupied target", Proposal::ValueMove { value, target: reg(rng) }));
            }
        }
        let uniform: Vec<(ValueId, RegId)> = ctx
            .plan
            .storable
            .iter()
            .filter_map(|&v| b.primal(v).filter(|c| c.is_uniform()).map(|c| (v, c.regs()[0])))
            .collect();
        if let Some(&(value, target)) = uniform.choose(rng) {
            out.push(("already in target", Proposal::ValueMove { value, target }));
        }
        let step = rng.gen_range(0..ctx.n_steps());
        let (r1, r2) = (reg(rng), reg(rng));
        let occupant = |r: RegId| b.reg_occupant(r, step).unwrap_or((ValueId::from_index(0), 0));
        let ((v1, s1), (v2, s2)) = (occupant(r1), occupant(r2));
        let exchanged = Proposal::SegmentExchange { step, v1, s1, r1, v2, s2, r2 };
        out.push(("same or empty register", exchanged));
        out
    }

    /// Previews and applies every forged proposal from the committed state:
    /// the preview must read `None` exactly when the apply refuses the
    /// move, and the applied cost otherwise, and leave the binding as it
    /// was either way.
    fn check_forged(
        b: &mut Binding<'_>,
        weights: &CostWeights,
        current: u64,
        rng: &mut StdRng,
        tally: &mut Tally,
    ) {
        for (case, proposal) in forge(b, rng) {
            let before = b.clone();
            let read = preview(b, proposal, weights, current);
            assert!(*b == before, "the preview of {proposal:?} changed the binding");
            b.begin();
            let applied = apply_proposal(b, proposal);
            if applied {
                assert_eq!(read, Some(weighted_cost(weights, b)), "{case}: {proposal:?}");
            } else {
                assert_eq!(read, None, "{case}: the apply refused {proposal:?}");
                *tally.refused.entry(case).or_default() += 1;
            }
            b.rollback();
        }
    }

    /// Walks 400 draws of the full move set on `graph` at `slack` steps
    /// past its critical path, with `spare` units of every scalar class
    /// beyond the schedule's demand (so F2 can idle or wake a unit). Every
    /// feasible proposal is previewed and then applied: the preview must
    /// leave the binding and its journal as they were, read the applied
    /// cost exactly for R1, R2, R4, F2 and F3, and read `None` for every
    /// other kind. The walk keeps a move within a small uphill margin, so
    /// it reaches states with copies, passes, collapsed transfers and
    /// re-banked arrays.
    fn check_design(
        graph: &Cdfg,
        slack: usize,
        spare: usize,
        seed: u64,
        weights: &CostWeights,
        tally: &mut Tally,
    ) {
        let library = FuLibrary::standard();
        let cp = asap(graph, &library).length;
        let schedule = fds_schedule(graph, &library, cp + slack).expect("cp + slack is feasible");
        let mut fu_counts = schedule.fu_demand(graph, &library);
        for (&class, n) in fu_counts.iter_mut() {
            if class != FuClass::Mem && *n > 0 {
                *n += spare;
            }
        }
        let regs = schedule.register_demand(graph, &library) + 1;
        let (datapath, move_set) = if graph.has_memory() {
            let ports = fu_counts[&FuClass::Mem].max(1);
            let mem = MemConfig::uniform(graph.num_arrays(), ports);
            (
                Datapath::new_with_memory(&fu_counts, regs, &mem),
                MoveSet::with_memory(),
            )
        } else {
            (Datapath::new(&fu_counts, regs), MoveSet::full())
        };
        let ctx = AllocContext::new(graph, &schedule, &library, datapath).expect("the pool fits");
        let mut b = initial_allocation(&ctx);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut current = weighted_cost(weights, &b);
        for draw in 0..400 {
            if draw % 8 == 0 {
                check_forged(&mut b, weights, current, &mut rng, tally);
            }
            let kind = move_set.pick(&mut rng);
            b.begin();
            let Some(mut proposal) = propose(&mut b, kind, &mut rng) else {
                b.rollback();
                continue;
            };
            // Half the passes go to a random free unit, often a spare one
            // that carries nothing else, and every pass is kept: a segment
            // move collapsing such a transfer idles the unit.
            if let Proposal::PassBind { key, fu } = &mut proposal {
                let (_, _, step) = b.transfer_endpoints(*key).expect("an active transfer");
                let free: Vec<FuId> = ctx
                    .plan
                    .pass_units
                    .iter()
                    .copied()
                    .filter(|&f| b.fu_pass_free(f, step))
                    .collect();
                if rng.gen_bool(0.5) {
                    *fu = *free.choose(&mut rng).expect("the ranked unit is free");
                }
            }
            let before = b.clone();
            let journaled = b.journal_len();
            let read = preview(&mut b, proposal, weights, current);
            assert!(
                b == before,
                "the preview of {proposal:?} changed the binding"
            );
            assert_eq!(
                b.journal_len(),
                journaled,
                "the preview of {proposal:?} journaled"
            );
            let breakdown = b.breakdown();
            assert!(apply_proposal(&mut b, proposal), "a fresh proposal applies");
            let after = weighted_cost(weights, &b);
            if previewed(kind) {
                assert_eq!(
                    read,
                    Some(after),
                    "preview of {proposal:?} against the applied cost"
                );
                let i = kind as usize;
                tally.checked[i] += 1;
                tally.regs_changed[i] +=
                    usize::from(b.breakdown().used_regs != breakdown.used_regs);
                tally.area_changed[i] += usize::from(b.breakdown().fu_area != breakdown.fu_area);
            } else {
                assert_eq!(read, None, "{kind:?} is not previewed");
            }
            if kind == MoveKind::PassBind || after <= current + rng.gen_range(0..=8u64) {
                b.commit();
                current = after;
            } else {
                b.rollback();
            }
        }
        b.check_consistency();
    }

    /// The preview reads the exact applied cost for every drawn R1, R2,
    /// R4, F2 and F3 proposal, from reachable states of random scalar and
    /// array designs with states, and of EWF, DCT and the array FIR,
    /// under the default and Table 2 weights. For forged proposals of the
    /// same kinds it reads `None` exactly when the apply refuses the move,
    /// which polish relies on when it decides through the preview.
    #[test]
    fn previews_read_the_applied_cost() {
        let mut tally = Tally::default();
        for weights in [CostWeights::default(), TABLE2] {
            for case in 0..24u64 {
                let cfg = RandomCdfgConfig {
                    ops: 10 + 5 * (case % 5) as usize,
                    states: (case % 4) as usize,
                    arrays: (case % 3) as usize,
                    ..RandomCdfgConfig::default()
                };
                let graph = random_cdfg(&cfg, case);
                let (slack, spare) = ((case % 3) as usize, (case % 2) as usize);
                check_design(&graph, slack, spare, case, &weights, &mut tally);
            }
            check_design(&ewf(), 2, 1, 7, &weights, &mut tally);
            check_design(&dct(), 0, 0, 7, &weights, &mut tally);
            check_design(&fir_array(), 1, 1, 7, &weights, &mut tally);
        }
        let [r1, r2, r4, f2, f3] = [
            MoveKind::SegmentExchange,
            MoveKind::SegmentMove,
            MoveKind::ValueMove,
            MoveKind::FuMove,
            MoveKind::OperandReverse,
        ]
        .map(|kind| kind as usize);
        for (kind, floor) in [(r1, 1000), (r2, 1000), (r4, 300), (f2, 1000), (f3, 500)] {
            assert!(
                tally.checked[kind] > floor,
                "only {} previews of kind {kind}",
                tally.checked[kind]
            );
        }
        assert!(tally.regs_changed[r2] > 0, "no R2 freed or used a register");
        assert!(tally.regs_changed[r4] > 0, "no R4 freed or used a register");
        assert!(tally.area_changed[f2] > 0, "no F2 idled or woke a unit");
        assert!(
            tally.area_changed[r1] + tally.area_changed[r2] > 0,
            "no segment move idled a pass unit"
        );
        for case in [
            "same unit",
            "busy unit",
            "memory op",
            "non-commutative op",
            "occupied register",
            "uncovered index",
            "same or empty register",
            "occupied target",
            "already in target",
        ] {
            let refused = tally.refused.get(case).copied().unwrap_or(0);
            assert!(refused > 0, "no forged `{case}` proposal was refused");
        }
    }
}

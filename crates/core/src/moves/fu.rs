//! Functional-unit moves F1-F5, split into propose (draw + resolve every
//! random decision, no net state change) and apply (replay the resolved
//! move inside the caller's transaction).
//!
//! Every proposer draws its candidates from the
//! [`MovePlan`](crate::MovePlan)'s prebuilt tables through the binding's
//! scratch buffers, so proposing is allocation-free in steady state. The
//! draw streams are pinned by `tests/golden/proposals.txt`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use salsa_cdfg::OpId;
use salsa_datapath::{FuId, Port, Sink, Source};
use salsa_sched::FuClass;

use crate::binding::Owner;
use crate::moves::Proposal;
use crate::{Binding, TransferKey};

/// Returns `true` if either unit carries any op or pass binding.
fn has_exchange_cargo(b: &Binding<'_>, a: FuId, z: FuId) -> bool {
    b.fu_item_count[a.index()] + b.fu_item_count[z.index()] > 0
}

/// F1 — exchange the complete bindings (operators and pass-throughs) of
/// two same-class units.
pub(crate) fn propose_fu_exchange(b: &mut Binding<'_>, rng: &mut StdRng) -> Option<Proposal> {
    let plan = &b.ctx.plan;
    let &class_idx = plan.exchange_classes.choose(rng)?;
    let units = &plan.class_units[class_idx];
    let a = units[rng.gen_range(0..units.len())];
    let mut z = units[rng.gen_range(0..units.len())];
    if a == z {
        z = units[(units.iter().position(|&u| u == a).unwrap() + 1) % units.len()];
    }
    if !has_exchange_cargo(b, a, z) {
        return None;
    }
    Some(Proposal::FuExchange { a, z })
}

/// Applies F1 as a label swap ([`Binding::exchange_fus`]). A decoded
/// trace is untrusted, so the pair is checked here: two distinct units
/// of one non-`Mem` class, at least one of them in use. A memory port
/// is not a pure label — its bank enters the memory cost terms — and
/// port assignment belongs to the M family.
pub(crate) fn apply_fu_exchange(b: &mut Binding<'_>, a: FuId, z: FuId) -> bool {
    let class = b.ctx.datapath.fu(a).class();
    if a == z
        || class != b.ctx.datapath.fu(z).class()
        || class == FuClass::Mem
        || !has_exchange_cargo(b, a, z)
    {
        return false;
    }
    b.exchange_fus(a, z);
    true
}

/// F2 — reassign one operator to another unit that is idle over the
/// operator's occupancy window.
pub(crate) fn propose_fu_move(b: &mut Binding<'_>, rng: &mut StdRng) -> Option<Proposal> {
    let ctx = b.ctx;
    let op = OpId::from_index(rng.gen_range(0..ctx.graph.num_ops()));
    if ctx.plan.is_memory_op(op) {
        // Memory accesses belong to the M family (M3 re-ports them inside
        // their array's bank); F2 migrating one across banks would create
        // a bank conflict the F moves cannot repair. The infeasible
        // outcome keeps the draw count — and the scalar trajectory —
        // unchanged.
        return None;
    }
    let current = b.op_fu(op);
    let mut candidates = std::mem::take(&mut b.scratch.fus);
    candidates.clear();
    for &f in ctx.plan.units_for_op(op) {
        if f != current && b.fu_exec_free(f, op) {
            candidates.push(f);
        }
    }
    let pick = candidates.choose(rng).copied();
    b.scratch.fus = candidates;
    let target = pick?;
    Some(Proposal::FuMove { op, target })
}

/// Applies F2. A decoded trace is untrusted, so the move is checked here:
/// a memory access is refused, as F1 refuses `Mem` units, since its port
/// carries a bank and port assignment belongs to the M family.
pub(crate) fn apply_fu_move(b: &mut Binding<'_>, op: OpId, target: FuId) -> bool {
    if b.ctx.plan.is_memory_op(op) || target == b.op_fu(op) || !b.fu_exec_free(target, op) {
        return false;
    }
    b.retract_owner(Owner::Op(op));
    b.vacate_op(op);
    b.occupy_op(op, target);
    b.assert_owner(Owner::Op(op));
    true
}

/// F3 — switch the input ports of a commutative operator.
pub(crate) fn propose_operand_reverse(b: &mut Binding<'_>, rng: &mut StdRng) -> Option<Proposal> {
    let &op = b.ctx.plan.commutative.choose(rng)?;
    Some(Proposal::OperandReverse { op })
}

/// Applies F3, refusing a non-commutative operator: its operands are not
/// interchangeable, so swapping them would change what it computes.
pub(crate) fn apply_operand_reverse(b: &mut Binding<'_>, op: OpId) -> bool {
    if !b.ctx.graph.op(op).kind().is_commutative() {
        return false;
    }
    b.retract_owner(Owner::Op(op));
    let swapped = b.op_swapped(op);
    b.set_op_swap(op, !swapped);
    b.assert_owner(Owner::Op(op));
    true
}

/// F4 — bind an unserved transfer to an idle, pass-capable unit,
/// converting a register-register connection into reuse of the unit's
/// existing paths.
///
/// Pass-throughs pay off only when they reuse the unit's existing
/// connections (Figure 3); the proposal ranks candidates by added
/// interconnect (random tie-break). A pass through unit `g` implies the
/// two items `RegOut(src) → FuIn(g, Left)` and `FuOut(g) → RegIn(dst)`,
/// costed against the matrix with the transfer's direct connection
/// retracted. Binding the pass writes no connection cell, so the items
/// are costed without binding it (DESIGN.md §19).
pub(crate) fn propose_pass_bind(b: &mut Binding<'_>, rng: &mut StdRng) -> Option<Proposal> {
    let ctx = b.ctx;
    let mut units = std::mem::take(&mut b.scratch.fus);
    units.clear();
    let mut unbound = std::mem::take(&mut b.scratch.transfers);
    b.active_transfers_into(&mut unbound);
    unbound.retain(|&(key, ..)| !b.passes().contains_key(&key));
    let pick = unbound.choose(rng).copied();
    b.scratch.transfers = unbound;
    let Some((key, src, dst, step)) = pick else {
        b.scratch.fus = units;
        return None;
    };
    units.extend(ctx.plan.pass_units.iter().copied().filter(|&f| b.fu_pass_free(f, step)));
    if units.is_empty() {
        b.scratch.fus = units;
        return None;
    }

    // The direct connection comes back before the proposal returns, so
    // the matrix is left as it was and nothing is journaled.
    let direct = (Source::RegOut(src), Sink::RegIn(dst));
    b.conn.remove(direct.0, direct.1);
    let mut best = std::mem::take(&mut b.scratch.best_fus);
    best.clear();
    let mut best_cost = u64::MAX;
    for &cand in &units {
        let cost = b.item_cost(Source::RegOut(src), Sink::FuIn(cand, Port::Left))
            + b.item_cost(Source::FuOut(cand), Sink::RegIn(dst));
        match cost.cmp(&best_cost) {
            std::cmp::Ordering::Less => {
                best_cost = cost;
                best.clear();
                best.push(cand);
            }
            std::cmp::Ordering::Equal => best.push(cand),
            std::cmp::Ordering::Greater => {}
        }
    }
    b.conn.add(direct.0, direct.1);
    let fu = *best.choose(rng).expect("at least one candidate");
    b.scratch.fus = units;
    b.scratch.best_fus = best;
    Some(Proposal::PassBind { key, fu })
}

pub(crate) fn apply_pass_bind(b: &mut Binding<'_>, key: TransferKey, fu: FuId) -> bool {
    let Some((_, _, step)) = b.transfer_endpoints(key) else { return false };
    if b.passes().contains_key(&key) || !b.fu_pass_free(fu, step) {
        return false;
    }
    b.retract_owner(Owner::Transfer(key));
    b.set_pass(key, Some(fu));
    b.assert_owner(Owner::Transfer(key));
    true
}

/// F5 — eliminate a pass-through binding, reverting the transfer to a
/// direct register-register connection, drawn from the key-sorted pass
/// map's entries.
pub(crate) fn propose_pass_unbind(b: &mut Binding<'_>, rng: &mut StdRng) -> Option<Proposal> {
    let &(key, _) = b.passes().as_slice().choose(rng)?;
    Some(Proposal::PassUnbind { key })
}

pub(crate) fn apply_pass_unbind(b: &mut Binding<'_>, key: TransferKey) -> bool {
    if !b.passes().contains_key(&key) {
        return false;
    }
    b.retract_owner(Owner::Transfer(key));
    b.set_pass(key, None);
    b.assert_owner(Owner::Transfer(key));
    true
}

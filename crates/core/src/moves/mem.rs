//! Memory-binding moves M1-M3, following the same propose/apply split as
//! the F and R families.
//!
//! | Move | Name | Function |
//! |------|------|----------|
//! | M1 | `ArrayRebank` | re-home an array (and all its accesses) to another bank |
//! | M2 | `BankExchange` | exchange the banks of two arrays |
//! | M3 | `AccessReport` | reassign one access to another port of its array's bank |
//!
//! The M family *exclusively* owns memory port assignment: F1/F2 skip
//! `Mem`-class units and accesses entirely, so with M moves disabled the
//! ports stay frozen at their initial greedy placement (the M-off
//! ablation baseline). Like the F and R proposers, all three draw from
//! the compiled [`MovePlan`](crate::MovePlan) tables, and their draw
//! streams on fir8a and mm2 are pinned by `tests/golden/proposals.txt`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use salsa_cdfg::OpId;
use salsa_datapath::FuId;

use crate::binding::Owner;
use crate::moves::Proposal;
use crate::Binding;

/// Retracts, vacates and greedily re-homes every access of the listed
/// arrays after their banks changed: each access takes the first
/// exec-free `Mem` unit of its (new) owning bank, in op-id order.
/// Returns `false` mid-way when some access finds no free port — the
/// binding is then partially mutated and the caller **must** roll the
/// journal back (propose does so via its checkpoint; a stale apply
/// leaves it to the engine's transaction rollback).
fn rebank_and_rehome(b: &mut Binding<'_>, rebanks: &[(usize, u32)]) -> bool {
    let ctx = b.ctx;
    let plan = &ctx.plan;
    let mut ops = std::mem::take(&mut b.scratch.ops);
    ops.clear();
    ops.extend(plan.mem_ops.iter().copied().filter(|&o| {
        plan.op_array[o.index()]
            .is_some_and(|a| rebanks.iter().any(|&(array, _)| array == a as usize))
    }));
    let mut owners = std::mem::take(&mut b.scratch.owners);
    owners.clear();
    owners.extend(ops.iter().map(|&o| Owner::Op(o)));

    for &o in &owners {
        b.retract_owner(o);
    }
    for &op in &ops {
        b.vacate_op(op);
    }
    for &(array, bank) in rebanks {
        b.set_array_bank(array, bank);
    }
    for &op in &ops {
        let array = plan.op_array[op.index()].expect("memory op names an array") as usize;
        let bank = b.array_bank(array) as usize;
        let target = plan.bank_units[bank].iter().copied().find(|&f| b.fu_exec_free(f, op));
        let Some(target) = target else {
            b.scratch.ops = ops;
            b.scratch.owners = owners;
            return false;
        };
        b.occupy_op(op, target);
    }
    for &o in &owners {
        b.assert_owner(o);
    }
    b.scratch.ops = ops;
    b.scratch.owners = owners;
    true
}

/// Trial-applies a re-banking under a journal checkpoint and reverts it,
/// reporting whether it would go through — the feasibility proof a fresh
/// M1/M2 proposal carries.
fn rebank_feasible(b: &mut Binding<'_>, rebanks: &[(usize, u32)]) -> bool {
    let outer = b.in_txn();
    if !outer {
        b.begin();
    }
    let mark = b.journal_len();
    let ok = rebank_and_rehome(b, rebanks);
    b.undo_to(mark);
    if !outer {
        b.rollback();
    }
    ok
}

/// M1 — move one array to another bank, re-homing all its accesses onto
/// that bank's ports.
pub(crate) fn propose_array_rebank(b: &mut Binding<'_>, rng: &mut StdRng) -> Option<Proposal> {
    let ctx = b.ctx;
    let num_arrays = ctx.plan.num_arrays;
    let num_banks = ctx.datapath.num_banks();
    if num_arrays == 0 || num_banks < 2 {
        return None;
    }
    let array = rng.gen_range(0..num_arrays);
    let current = b.array_bank(array);
    let mut bank = rng.gen_range(0..num_banks - 1) as u32;
    if bank >= current {
        bank += 1;
    }
    if !rebank_feasible(b, &[(array, bank)]) {
        return None;
    }
    Some(Proposal::ArrayRebank { array, bank })
}

pub(crate) fn apply_array_rebank(b: &mut Binding<'_>, array: usize, bank: u32) -> bool {
    if array >= b.ctx.plan.num_arrays
        || bank as usize >= b.ctx.datapath.num_banks()
        || b.array_bank(array) == bank
    {
        return false;
    }
    rebank_and_rehome(b, &[(array, bank)])
}

/// M2 — exchange the banks of two arrays, re-homing both access sets.
/// Both sets are vacated before either is re-placed, so the exchange is
/// feasible whenever each bank can host the other's arriving accesses.
pub(crate) fn propose_bank_exchange(b: &mut Binding<'_>, rng: &mut StdRng) -> Option<Proposal> {
    let ctx = b.ctx;
    let num_arrays = ctx.plan.num_arrays;
    if num_arrays < 2 {
        return None;
    }
    let a1 = rng.gen_range(0..num_arrays);
    let mut a2 = rng.gen_range(0..num_arrays);
    if a1 == a2 {
        a2 = (a1 + 1) % num_arrays;
    }
    let (b1, b2) = (b.array_bank(a1), b.array_bank(a2));
    if b1 == b2 {
        return None;
    }
    if !rebank_feasible(b, &[(a1, b2), (a2, b1)]) {
        return None;
    }
    Some(Proposal::BankExchange { a1, a2 })
}

pub(crate) fn apply_bank_exchange(b: &mut Binding<'_>, a1: usize, a2: usize) -> bool {
    let num_arrays = b.ctx.plan.num_arrays;
    if a1 >= num_arrays || a2 >= num_arrays || a1 == a2 {
        return false;
    }
    let (b1, b2) = (b.array_bank(a1), b.array_bank(a2));
    if b1 == b2 {
        return false;
    }
    rebank_and_rehome(b, &[(a1, b2), (a2, b1)])
}

/// M3 — reassign one memory access to another exec-free port of its
/// array's bank (the memory analogue of F2, restricted to stay inside
/// the bank the array lives in).
pub(crate) fn propose_access_report(b: &mut Binding<'_>, rng: &mut StdRng) -> Option<Proposal> {
    let ctx = b.ctx;
    let &op = ctx.plan.mem_ops.choose(rng)?;
    let current = b.op_fu(op);
    let array = ctx.plan.op_array[op.index()].expect("memory op names an array") as usize;
    let bank = b.array_bank(array) as usize;
    let mut candidates = std::mem::take(&mut b.scratch.fus);
    candidates.clear();
    for &f in &ctx.plan.bank_units[bank] {
        if f != current && b.fu_exec_free(f, op) {
            candidates.push(f);
        }
    }
    let pick = candidates.choose(rng).copied();
    b.scratch.fus = candidates;
    let target = pick?;
    Some(Proposal::AccessReport { op, target })
}

pub(crate) fn apply_access_report(b: &mut Binding<'_>, op: OpId, target: FuId) -> bool {
    let ctx = b.ctx;
    let Some(array) = ctx.plan.op_array.get(op.index()).copied().flatten() else {
        return false;
    };
    if ctx.datapath.bank_of_mem_fu(target) != Some(b.array_bank(array as usize) as usize) {
        return false;
    }
    if target == b.op_fu(op) || !b.fu_exec_free(target, op) {
        return false;
    }
    b.retract_owner(Owner::Op(op));
    b.vacate_op(op);
    b.occupy_op(op, target);
    b.assert_owner(Owner::Op(op));
    true
}

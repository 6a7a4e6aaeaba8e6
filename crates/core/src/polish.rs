//! Deterministic greedy polish: after the stochastic search, sweep the
//! complete single-move neighborhood — every operator against every unit,
//! every operand reversal, every whole-value register move, every
//! pass-through binding/unbinding, every single-segment move — accepting
//! strict improvements until a fixpoint. This squeezes out the "one obvious
//! move away" residue random sampling leaves behind, in the spirit of the
//! rip-up-and-reallocate refinement the paper cites [Tsai & Hsu 12].
//!
//! The register sweeps, which dominate polish time, evaluate candidates
//! incrementally. Per candidate group — one segment for R2, one value for
//! R4 — the owners the group can re-route are retracted and its segments
//! vacated once, under a journal checkpoint; each target register is then
//! written, re-asserted, costed and undone back to the checkpoint. The
//! sweeps accept the same candidates in the same order as re-deriving each
//! candidate from the committed state would (DESIGN.md §17).

use salsa_cdfg::ValueId;
use salsa_datapath::{CostWeights, FuId, RegId};

use crate::binding::Owner;
use crate::improve::weighted_cost;
use crate::moves::{
    apply_proposal, collect_owners, place_segment, retract_segment, Proposal, Rerouted,
};
use crate::{Binding, MoveKind, MoveSet};

/// Runs greedy descent to a fixpoint over the neighborhoods the move set
/// permits (a traditional-model polish stays within the traditional model);
/// returns the final cost. The binding is left at the (local) optimum;
/// never worse than the input.
pub fn polish(binding: &mut Binding<'_>, weights: &CostWeights, move_set: &MoveSet) -> u64 {
    let mut best = weighted_cost(weights, binding);
    loop {
        let mut improved = false;
        if move_set.contains(MoveKind::FuMove) {
            improved |= sweep_op_moves(binding, weights, &mut best);
        }
        if move_set.contains(MoveKind::OperandReverse) {
            improved |= sweep_operand_reversals(binding, weights, &mut best);
        }
        if move_set.contains(MoveKind::ValueMove) {
            improved |= sweep_value_moves(binding, weights, &mut best);
        }
        if move_set.contains(MoveKind::PassBind) {
            improved |= sweep_passes(binding, weights, &mut best);
        }
        if move_set.contains(MoveKind::SegmentMove) {
            improved |= sweep_segment_moves(binding, weights, &mut best);
        }
        if move_set.contains(MoveKind::AccessReport) {
            improved |= sweep_access_reports(binding, weights, &mut best);
        }
        if move_set.contains(MoveKind::ArrayRebank) {
            improved |= sweep_array_rebanks(binding, weights, &mut best);
        }
        if !improved {
            return best;
        }
    }
}

/// Keeps the candidate in the open transaction when it strictly improves
/// on `best`: commits it and records the new cost. Leaves the transaction
/// open otherwise, for the caller to roll back or undo to a checkpoint.
fn accept(binding: &mut Binding<'_>, weights: &CostWeights, best: &mut u64) -> bool {
    let after = weighted_cost(weights, binding);
    if after >= *best {
        return false;
    }
    binding.commit();
    *best = after;
    // The register sweeps decide acceptance from partial retractions;
    // an owner they missed would leave the matrix off its rebuild.
    #[cfg(debug_assertions)]
    binding.check_consistency();
    true
}

/// Resolves the open transaction: commits when the candidate strictly
/// improves on `best`, rolls the journal back otherwise.
fn accept_or_rollback(binding: &mut Binding<'_>, weights: &CostWeights, best: &mut u64) -> bool {
    let accepted = accept(binding, weights, best);
    if !accepted {
        binding.rollback();
    }
    accepted
}

/// F2 over the complete (operation, unit) grid. Memory accesses are
/// skipped — the M family owns port assignment (see `moves/mem.rs`), and
/// the M3 sweep covers them when the move set permits.
fn sweep_op_moves(binding: &mut Binding<'_>, weights: &CostWeights, best: &mut u64) -> bool {
    let ctx = binding.ctx;
    let mut improved = false;
    for op in ctx.graph.op_ids() {
        if ctx.plan.is_memory_op(op) {
            continue;
        }
        for fu in ctx.datapath.fus_of_class(ctx.class_of(op)).map(|f| f.id()) {
            if fu == binding.op_fu(op) || !binding.fu_exec_free(fu, op) {
                continue;
            }
            binding.begin();
            binding.retract_owner(Owner::Op(op));
            binding.vacate_op(op);
            binding.occupy_op(op, fu);
            binding.assert_owner(Owner::Op(op));
            improved |= accept_or_rollback(binding, weights, best);
        }
    }
    improved
}

/// F3 over every commutative operation.
fn sweep_operand_reversals(
    binding: &mut Binding<'_>,
    weights: &CostWeights,
    best: &mut u64,
) -> bool {
    let ctx = binding.ctx;
    let mut improved = false;
    for op in ctx.graph.ops().filter(|o| o.kind().is_commutative()).map(|o| o.id()) {
        binding.begin();
        let swapped = binding.op_swapped(op);
        binding.retract_owner(Owner::Op(op));
        binding.set_op_swap(op, !swapped);
        binding.assert_owner(Owner::Op(op));
        improved |= accept_or_rollback(binding, weights, best);
    }
    improved
}

/// Whether the value's primal chain sits wholly in `reg`, which makes an
/// R4 move there a no-op.
fn already_in(binding: &Binding<'_>, v: ValueId, reg: RegId) -> bool {
    let primal = binding.primal(v).expect("stored");
    primal.is_uniform() && primal.regs()[0] == reg
}

/// R4 over every (value, register) pair feasible for the whole lifetime.
/// Per value, every owner is retracted and the primal chain vacated once;
/// each target is then written, re-asserted, costed and undone back to
/// that checkpoint.
fn sweep_value_moves(binding: &mut Binding<'_>, weights: &CostWeights, best: &mut u64) -> bool {
    let ctx = binding.ctx;
    let mut improved = false;
    let mut targets: Vec<RegId> = Vec::new();
    let mut group = Rerouted::default();
    for &v in &ctx.plan.storable {
        let Some(primal) = binding.primal(v) else { continue };
        let len = primal.len();
        let steps = ctx.lifetimes.get(v).expect("stored").steps();
        targets.clear();
        targets.extend(ctx.datapath.reg_ids().filter(|&r| {
            steps.iter().all(|&s| match binding.reg_occupant(r, s) {
                None => true,
                Some((occ_v, occ_slot)) => occ_v == v && occ_slot == 0,
            })
        }));
        if targets.iter().all(|&r| already_in(binding, v, r)) {
            continue;
        }
        collect_owners(binding, &[v], &mut group.owners);
        group.set_keys();
        let open = |binding: &mut Binding<'_>, group: &Rerouted| {
            binding.begin();
            group.retract(binding);
            for idx in 0..len {
                binding.vacate_seg(v, 0, idx);
            }
            binding.journal_len()
        };
        let mut mark = open(binding, &group);
        for &target in &targets {
            // Reads the committed chain: vacating and `undo_to` leave the
            // chain registers as committed.
            if already_in(binding, v, target) {
                continue;
            }
            for idx in 0..len {
                binding.chain_reg_mut(v, 0, idx, target);
                binding.occupy_seg(v, 0, idx);
            }
            group.reassert(binding);
            if accept(binding, weights, best) {
                improved = true;
                mark = open(binding, &group);
            } else {
                binding.undo_to(mark);
            }
        }
        binding.rollback();
    }
    improved
}

/// F4/F5 over every active transfer and every pass-capable unit.
fn sweep_passes(binding: &mut Binding<'_>, weights: &CostWeights, best: &mut u64) -> bool {
    let ctx = binding.ctx;
    let mut improved = false;
    let mut keys = Vec::new();
    binding.active_transfers_into(&mut keys);
    let mut candidates: Vec<Option<FuId>> = Vec::new();
    for (key, _, _, step) in keys {
        // Candidates: every pass-capable idle unit, plus "no pass".
        let current = binding.passes().get(&key).copied();
        candidates.clear();
        candidates.extend(
            ctx.datapath
                .fus()
                .map(|f| f.id())
                .filter(|&f| Some(f) != current && binding.fu_pass_free(f, step))
                .map(Some),
        );
        if current.is_some() {
            candidates.push(None);
        }
        for &cand in &candidates {
            binding.begin();
            binding.retract_owner(Owner::Transfer(key));
            binding.set_pass(key, None);
            if let Some(fu) = cand {
                binding.set_pass(key, Some(fu));
            }
            binding.assert_owner(Owner::Transfer(key));
            improved |= accept_or_rollback(binding, weights, best);
        }
    }
    improved
}

/// R2 over every segment and every register free at its step. Per
/// segment, only the owners whose items can reference its register are
/// retracted ([`Rerouted::select_segment`]), once; each target is then
/// placed through the kernel R2's apply uses ([`place_segment`]), costed
/// and undone back to that checkpoint. The other owners' items are the
/// same for every target, so the cost read equals the full
/// retract-and-reassert cost.
fn sweep_segment_moves(binding: &mut Binding<'_>, weights: &CostWeights, best: &mut u64) -> bool {
    let ctx = binding.ctx;
    let mut improved = false;
    let mut group = Rerouted::default();
    let mut chains: Vec<(usize, usize, usize)> = Vec::new();
    let mut free: Vec<RegId> = Vec::new();
    for &v in &ctx.plan.storable {
        if binding.primal(v).is_none() {
            continue;
        }
        chains.clear();
        chains.extend(binding.chains_of(v).map(|(slot, chain)| (slot, chain.lo(), chain.hi())));
        let steps = ctx.lifetimes.get(v).expect("stored").steps();
        for &(slot, lo, hi) in &chains {
            // idx is a lifetime index, not just a steps[] cursor.
            #[allow(clippy::needless_range_loop)]
            for idx in lo..=hi {
                free.clear();
                free.extend(ctx.datapath.reg_ids().filter(|&r| binding.reg_free(r, steps[idx])));
                if free.is_empty() {
                    continue;
                }
                group.select_segment(binding, v, slot, idx);
                let open = |binding: &mut Binding<'_>, group: &Rerouted| {
                    binding.begin();
                    retract_segment(binding, group, v, slot, idx);
                    binding.journal_len()
                };
                let mut mark = open(binding, &group);
                for &target in &free {
                    place_segment(binding, &group, v, slot, idx, target);
                    if accept(binding, weights, best) {
                        improved = true;
                        mark = open(binding, &group);
                    } else {
                        binding.undo_to(mark);
                    }
                }
                binding.rollback();
            }
        }
    }
    improved
}

/// M3 over the complete (access, bank port) grid: each load/store against
/// every other unit of its array's current bank.
fn sweep_access_reports(
    binding: &mut Binding<'_>,
    weights: &CostWeights,
    best: &mut u64,
) -> bool {
    let ctx = binding.ctx;
    let plan = &ctx.plan;
    let mut improved = false;
    for &op in &plan.mem_ops {
        let array = plan.op_array[op.index()].expect("memory op names an array") as usize;
        let bank = binding.array_bank(array) as usize;
        for &fu in &plan.bank_units[bank] {
            if fu == binding.op_fu(op) || !binding.fu_exec_free(fu, op) {
                continue;
            }
            binding.begin();
            binding.retract_owner(Owner::Op(op));
            binding.vacate_op(op);
            binding.occupy_op(op, fu);
            binding.assert_owner(Owner::Op(op));
            improved |= accept_or_rollback(binding, weights, best);
        }
    }
    improved
}

/// M1 over the complete (array, bank) grid. A rebank that cannot re-home
/// every access (ports exhausted) fails its apply and rolls back.
fn sweep_array_rebanks(
    binding: &mut Binding<'_>,
    weights: &CostWeights,
    best: &mut u64,
) -> bool {
    let mut improved = false;
    let num_arrays = binding.ctx.plan.num_arrays;
    let num_banks = binding.ctx.datapath.num_banks();
    for array in 0..num_arrays {
        for bank in 0..num_banks as u32 {
            if binding.array_bank(array) == bank {
                continue;
            }
            binding.begin();
            if !apply_proposal(binding, Proposal::ArrayRebank { array, bank }) {
                binding.rollback();
                continue;
            }
            improved |= accept_or_rollback(binding, weights, best);
        }
    }
    improved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{initial_allocation, AllocContext};
    use salsa_cdfg::benchmarks::{diffeq, ewf};
    use salsa_datapath::Datapath;
    use salsa_sched::{fds_schedule, FuLibrary};

    fn ctx_for<'a>(
        graph: &'a salsa_cdfg::Cdfg,
        schedule: &'a salsa_sched::Schedule,
        library: &'a FuLibrary,
    ) -> AllocContext<'a> {
        let pool = Datapath::new(
            &schedule.fu_demand(graph, library),
            schedule.register_demand(graph, library),
        );
        AllocContext::new(graph, schedule, library, pool).unwrap()
    }

    #[test]
    fn polish_improves_the_initial_allocation_and_verifies() {
        let graph = ewf();
        let library = FuLibrary::standard();
        let schedule = fds_schedule(&graph, &library, 17).unwrap();
        let ctx = ctx_for(&graph, &schedule, &library);
        let mut binding = initial_allocation(&ctx);
        let weights = CostWeights::default();
        let before = weights.evaluate(&binding.breakdown());
        let after = polish(&mut binding, &weights, &crate::MoveSet::full());
        assert!(after <= before);
        assert!(after < before, "the initial allocation always has slack");
        binding.check_consistency();
        let verdict = crate::verify_binding(&binding);
        assert!(verdict.is_certified(), "polished allocation verifies: {verdict}");
    }

    #[test]
    fn polish_is_idempotent() {
        let graph = diffeq();
        let library = FuLibrary::standard();
        let schedule = fds_schedule(&graph, &library, 9).unwrap();
        let ctx = ctx_for(&graph, &schedule, &library);
        let mut binding = initial_allocation(&ctx);
        let weights = CostWeights::default();
        let set = crate::MoveSet::full();
        let first = polish(&mut binding, &weights, &set);
        let second = polish(&mut binding, &weights, &set);
        assert_eq!(first, second, "a fixpoint stays fixed");
    }
}

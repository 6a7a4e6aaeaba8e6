//! Deterministic greedy polish: after the stochastic search, sweep the
//! complete single-move neighborhood — every operator against every unit,
//! every operand reversal, every whole-value register move, every
//! pass-through binding/unbinding, every single-segment move — accepting
//! strict improvements until a fixpoint. This squeezes out the "one obvious
//! move away" residue random sampling leaves behind, in the spirit of the
//! rip-up-and-reallocate refinement the paper cites [Tsai & Hsu 12].
//!
//! Every sweep but the pass sweep builds a [`Proposal`] per candidate and
//! decides it the way the search does ([`decide`]): R2, R4, F2 and F3
//! are costed by the exact [`preview`] and applied only when they strictly
//! improve; the other kinds are applied and rolled back when they do not.
//! So polish shares the search's applies and needs no cost kernel of its
//! own (DESIGN.md §17).

use salsa_datapath::{CostWeights, FuId, RegId};

use crate::binding::Owner;
use crate::improve::weighted_cost;
use crate::moves::{apply_proposal, preview, Proposal};
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

/// Resolves the open transaction: commits when the candidate strictly
/// improves on `best` and records the new cost, rolls the journal back
/// otherwise.
fn accept_or_rollback(binding: &mut Binding<'_>, weights: &CostWeights, best: &mut u64) -> bool {
    let after = weighted_cost(weights, binding);
    if after >= *best {
        binding.rollback();
        return false;
    }
    binding.commit();
    *best = after;
    // The applies re-cost only the owners a move re-routes; an owner they
    // missed would leave the matrix off its rebuild.
    #[cfg(debug_assertions)]
    binding.check_consistency();
    true
}

/// Decides one candidate as the search decides a move: a proposal the
/// preview costs (R2, R4, F2, F3) is applied only when it strictly
/// improves on `best`; any other is applied and rolled back unless it
/// does. A proposal whose apply refuses it is rejected either way, so the
/// sweeps rest on the preview and the apply agreeing on feasibility.
fn decide(
    binding: &mut Binding<'_>,
    weights: &CostWeights,
    best: &mut u64,
    proposal: Proposal,
) -> bool {
    let previewed = preview(binding, proposal, weights, *best);
    if previewed.is_some_and(|after| after >= *best) {
        return false;
    }
    binding.begin();
    if !apply_proposal(binding, proposal) {
        binding.rollback();
        return false;
    }
    debug_assert!(
        previewed.is_none_or(|after| after == weighted_cost(weights, binding)),
        "the preview of {proposal:?} must read the applied cost"
    );
    accept_or_rollback(binding, weights, best)
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
            improved |= decide(binding, weights, best, Proposal::FuMove { op, target: fu });
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
    let mut improved = false;
    for &op in &binding.ctx.plan.commutative {
        improved |= decide(binding, weights, best, Proposal::OperandReverse { op });
    }
    improved
}

/// R4 over every (value, register) pair feasible for the whole lifetime.
/// A target already holding the whole primal chain is no move, and its
/// preview and apply refuse it.
fn sweep_value_moves(binding: &mut Binding<'_>, weights: &CostWeights, best: &mut u64) -> bool {
    let ctx = binding.ctx;
    let mut improved = false;
    let mut targets: Vec<RegId> = Vec::new();
    for &value in &ctx.plan.storable {
        if binding.primal(value).is_none() {
            continue;
        }
        let steps = ctx.lifetimes.get(value).expect("stored").steps();
        targets.clear();
        targets.extend(ctx.datapath.reg_ids().filter(|&r| {
            steps.iter().all(|&s| match binding.reg_occupant(r, s) {
                None => true,
                Some((occ_v, occ_slot)) => occ_v == value && occ_slot == 0,
            })
        }));
        for &target in &targets {
            improved |= decide(binding, weights, best, Proposal::ValueMove { value, target });
        }
    }
    improved
}

/// F4/F5 over every active transfer and every pass-capable unit. Moving a
/// bound pass to another unit is an unbind and a bind in one candidate, so
/// this sweep opens its own transaction.
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

/// R2 over every segment and every register free at its step.
fn sweep_segment_moves(binding: &mut Binding<'_>, weights: &CostWeights, best: &mut u64) -> bool {
    let ctx = binding.ctx;
    let mut improved = false;
    let mut chains: Vec<(usize, usize, usize)> = Vec::new();
    let mut free: Vec<RegId> = Vec::new();
    for &value in &ctx.plan.storable {
        if binding.primal(value).is_none() {
            continue;
        }
        chains.clear();
        chains.extend(binding.chains_of(value).map(|(slot, c)| (slot, c.lo(), c.hi())));
        let steps = ctx.lifetimes.get(value).expect("stored").steps();
        for &(slot, lo, hi) in &chains {
            // idx is a lifetime index, not just a steps[] cursor.
            #[allow(clippy::needless_range_loop)]
            for idx in lo..=hi {
                free.clear();
                free.extend(ctx.datapath.reg_ids().filter(|&r| binding.reg_free(r, steps[idx])));
                for &target in &free {
                    let proposal = Proposal::SegmentMove { value, slot, idx, target };
                    improved |= decide(binding, weights, best, proposal);
                }
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
            let proposal = Proposal::AccessReport { op, target: fu };
            improved |= decide(binding, weights, best, proposal);
        }
    }
    improved
}

/// M1 over the complete (array, bank) grid. A rebank that cannot re-home
/// every access (ports exhausted) fails its apply and is rejected.
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
            improved |= decide(binding, weights, best, Proposal::ArrayRebank { array, bank });
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

//! The paper's Table 1 move set.
//!
//! | Move | Name | Function |
//! |------|------|----------|
//! | F1 | [`MoveKind::FuExchange`] | exchange the bindings of two units |
//! | F2 | [`MoveKind::FuMove`] | reassign an operator to an idle unit |
//! | F3 | [`MoveKind::OperandReverse`] | switch a commutative operator's inputs |
//! | F4 | [`MoveKind::PassBind`] | assign a transfer to a pass-through unit |
//! | F5 | [`MoveKind::PassUnbind`] | eliminate a pass-through binding |
//! | R1 | [`MoveKind::SegmentExchange`] | exchange two value segments' registers |
//! | R2 | [`MoveKind::SegmentMove`] | reassign a segment to an unused register |
//! | R3 | [`MoveKind::ValueExchange`] | exchange two whole values' registers |
//! | R4 | [`MoveKind::ValueMove`] | assign all segments of a value to one register |
//! | R5 | [`MoveKind::ValueSplit`] | copy a value segment (create/extend a copy chain) |
//! | R6 | [`MoveKind::ValueMerge`] | eliminate a copy of a value |
//!
//! Every move is *atomic*: it either applies completely (returning `true`)
//! or leaves the binding untouched (returning `false`). The improvement
//! engine opens a transaction ([`Binding::begin`](crate::Binding::begin))
//! before each attempt and rolls the undo journal back when the cost
//! function rejects the result — the paper's accept/reverse scheme (§4)
//! without a per-move snapshot clone. For R1, R2, R4, F2 and F3 it reads
//! the cost first ([`preview`]) and applies only a move it keeps.

mod fu;
mod mem;
mod preview;
mod reg;

pub use preview::preview;
pub(crate) use preview::PreviewScratch;
pub(crate) use reg::SegmentRanking;

use rand::rngs::StdRng;
use rand::Rng;

use salsa_cdfg::{OpId, ValueId};
use salsa_datapath::{FuId, RegId};

use crate::{Binding, TransferKey};

/// The eleven move types of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MoveKind {
    /// F1 — exchange the complete bindings of two same-class units.
    FuExchange,
    /// F2 — reassign one operator to another (idle) unit.
    FuMove,
    /// F3 — switch the inputs of a commutative operator.
    OperandReverse,
    /// F4 — bind a register-to-register transfer to a pass-through unit.
    PassBind,
    /// F5 — eliminate a pass-through binding.
    PassUnbind,
    /// R1 — exchange the registers of two segments in one control step.
    SegmentExchange,
    /// R2 — move one segment to a register free at that step.
    SegmentMove,
    /// R3 — exchange the registers of two (contiguously bound) values.
    ValueExchange,
    /// R4 — bind all segments of a value to one register.
    ValueMove,
    /// R5 — split: create or extend a copy of a value.
    ValueSplit,
    /// R6 — merge: eliminate a copy of a value.
    ValueMerge,
    /// M1 — re-home an array (and all its accesses) to another bank.
    ArrayRebank,
    /// M2 — exchange the banks of two arrays.
    BankExchange,
    /// M3 — reassign a memory access to another port of its array's bank.
    AccessReport,
}

impl MoveKind {
    /// All move kinds with their table labels: the paper's Table 1
    /// (F1-R6) plus this crate's memory extension (M1-M3).
    pub fn all() -> [(MoveKind, &'static str); 14] {
        [
            (MoveKind::FuExchange, "F1"),
            (MoveKind::FuMove, "F2"),
            (MoveKind::OperandReverse, "F3"),
            (MoveKind::PassBind, "F4"),
            (MoveKind::PassUnbind, "F5"),
            (MoveKind::SegmentExchange, "R1"),
            (MoveKind::SegmentMove, "R2"),
            (MoveKind::ValueExchange, "R3"),
            (MoveKind::ValueMove, "R4"),
            (MoveKind::ValueSplit, "R5"),
            (MoveKind::ValueMerge, "R6"),
            (MoveKind::ArrayRebank, "M1"),
            (MoveKind::BankExchange, "M2"),
            (MoveKind::AccessReport, "M3"),
        ]
    }

    /// Whether this is a memory-binding move (the M family). Memory moves
    /// are opt-in: [`MoveSet::full`] excludes them so scalar searches and
    /// historical trajectories are untouched; [`MoveSet::with_memory`]
    /// adds them for graphs with arrays.
    pub fn is_memory(self) -> bool {
        matches!(
            self,
            MoveKind::ArrayRebank | MoveKind::BankExchange | MoveKind::AccessReport
        )
    }

    /// The default selection weight: "the random selection process is
    /// weighted to pick complex moves such as value move and value
    /// interchange less often to control execution times" (§4).
    pub fn default_weight(self) -> u32 {
        match self {
            MoveKind::FuExchange => 8,
            MoveKind::FuMove => 12,
            MoveKind::OperandReverse => 8,
            MoveKind::PassBind => 8,
            MoveKind::PassUnbind => 4,
            MoveKind::SegmentExchange => 10,
            MoveKind::SegmentMove => 14,
            MoveKind::ValueExchange => 3,
            MoveKind::ValueMove => 3,
            MoveKind::ValueSplit => 4,
            MoveKind::ValueMerge => 3,
            MoveKind::ArrayRebank => 6,
            MoveKind::BankExchange => 2,
            MoveKind::AccessReport => 6,
        }
    }
}

/// A weighted subset of the move kinds, used to configure the search (and
/// to restrict it to the traditional binding model for baselines and
/// ablations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveSet {
    kinds: Vec<(MoveKind, u32)>,
}

impl MoveSet {
    /// The full SALSA move set (F1-R6) with default weights. Memory
    /// moves are excluded — they only make sense on graphs with arrays;
    /// see [`MoveSet::with_memory`].
    pub fn full() -> Self {
        MoveSet {
            kinds: MoveKind::all()
                .into_iter()
                .filter(|(k, _)| !k.is_memory())
                .map(|(k, _)| (k, k.default_weight()))
                .collect(),
        }
    }

    /// The full move set plus the memory family (M1-M3), for graphs with
    /// arrays and a banked memory pool.
    pub fn with_memory() -> Self {
        MoveSet {
            kinds: MoveKind::all()
                .into_iter()
                .map(|(k, _)| (k, k.default_weight()))
                .collect(),
        }
    }

    /// The traditional-binding-model subset: whole-value register moves
    /// only — no segments, no copies, no pass-throughs. Used as the
    /// paper-comparable baseline.
    pub fn traditional() -> Self {
        MoveSet {
            kinds: [
                MoveKind::FuExchange,
                MoveKind::FuMove,
                MoveKind::OperandReverse,
                MoveKind::ValueExchange,
                MoveKind::ValueMove,
            ]
            .into_iter()
            .map(|k| (k, k.default_weight()))
            .collect(),
        }
    }

    /// Removes one move kind (for ablations).
    pub fn without(mut self, kind: MoveKind) -> Self {
        self.kinds.retain(|(k, _)| *k != kind);
        self
    }

    /// Adds one move kind at its default weight (no-op when already
    /// present). Appending in `MoveKind::all()` order reproduces
    /// [`MoveSet::with_memory`] from [`MoveSet::full`] exactly — the
    /// allocator's automatic memory upgrade relies on this so every
    /// participant of a distributed run derives the identical set.
    pub fn with(mut self, kind: MoveKind) -> Self {
        if !self.contains(kind) {
            self.kinds.push((kind, kind.default_weight()));
        }
        self
    }

    /// Returns `true` if the set contains the kind.
    pub fn contains(&self, kind: MoveKind) -> bool {
        self.kinds.iter().any(|(k, _)| *k == kind)
    }

    /// Returns `true` if no move kinds remain.
    pub fn is_drained(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Draws a move kind according to the weights.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn pick(&self, rng: &mut StdRng) -> MoveKind {
        let total: u32 = self.kinds.iter().map(|(_, w)| w).sum();
        assert!(total > 0, "cannot pick from an empty move set");
        let mut roll = rng.gen_range(0..total);
        for &(kind, weight) in &self.kinds {
            if roll < weight {
                return kind;
            }
            roll -= weight;
        }
        unreachable!("weighted pick is exhaustive")
    }
}

impl Default for MoveSet {
    fn default() -> Self {
        Self::full()
    }
}

/// A fully resolved move: every random decision (which entities, which
/// target) has been drawn, so applying it is deterministic. Proposals are
/// `Copy`, carry no borrows, and can be replayed against any binding in
/// the same state as the one they were proposed on. They are the unit of
/// record of a [`MoveTrace`](crate::MoveTrace): a committed-move sequence
/// re-derives a search result without re-running the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proposal {
    /// F1 — exchange the complete bindings of units `a` and `z`.
    FuExchange {
        /// First unit.
        a: FuId,
        /// Second unit (same class, distinct from `a`).
        z: FuId,
    },
    /// F2 — reassign `op` to `target`.
    FuMove {
        /// The operation to move.
        op: OpId,
        /// The idle unit to move it to.
        target: FuId,
    },
    /// F3 — toggle the operand swap of `op`.
    OperandReverse {
        /// The commutative operation.
        op: OpId,
    },
    /// F4 — bind transfer `key` to pass-through unit `fu`.
    PassBind {
        /// The unbound transfer.
        key: TransferKey,
        /// The ranked-best pass-capable unit.
        fu: FuId,
    },
    /// F5 — unbind the pass-through serving `key`.
    PassUnbind {
        /// The bound transfer.
        key: TransferKey,
    },
    /// R1 — exchange the registers of two segments stored at `step`.
    SegmentExchange {
        /// The control step both segments occupy.
        step: usize,
        /// First segment's value, chain slot and register.
        v1: ValueId,
        /// First segment's chain slot.
        s1: usize,
        /// First segment's register.
        r1: RegId,
        /// Second segment's value.
        v2: ValueId,
        /// Second segment's chain slot.
        s2: usize,
        /// Second segment's register.
        r2: RegId,
    },
    /// R2 — move one segment of `value` to `target`.
    SegmentMove {
        /// The value whose segment moves.
        value: ValueId,
        /// The chain slot holding the segment.
        slot: usize,
        /// The lifetime index of the segment.
        idx: usize,
        /// The ranked-best free register.
        target: RegId,
    },
    /// R3 — exchange the registers of two contiguously bound values.
    ValueExchange {
        /// First value.
        v1: ValueId,
        /// First value's (uniform) register.
        r1: RegId,
        /// Second value.
        v2: ValueId,
        /// Second value's (uniform) register.
        r2: RegId,
    },
    /// R4 — bind every primal segment of `value` to `target`.
    ValueMove {
        /// The value to make contiguous.
        value: ValueId,
        /// The register all segments move to.
        target: RegId,
    },
    /// R5 (extend form) — extend copy chain `slot` of `value` by one
    /// segment.
    ValueSplitExtend {
        /// The value being split.
        value: ValueId,
        /// The copy chain being extended.
        slot: usize,
        /// Extend toward earlier steps (`true`) or later.
        front: bool,
        /// The free register for the new segment.
        reg: RegId,
    },
    /// R5 (create form) — create a one-segment copy of `value`.
    ValueSplitNew {
        /// The value being split.
        value: ValueId,
        /// The lifetime index the copy covers.
        idx: usize,
        /// The free register for the copy.
        reg: RegId,
    },
    /// R6 — shrink (or remove) copy chain `slot` of `value`.
    ValueMerge {
        /// The value being merged.
        value: ValueId,
        /// The copy chain shrinking.
        slot: usize,
        /// Shrink from the front (`true`) or the back.
        front: bool,
    },
    /// M1 — re-home `array` (and all its accesses) to `bank`.
    ArrayRebank {
        /// The array to re-bank.
        array: usize,
        /// The destination bank.
        bank: u32,
    },
    /// M2 — exchange the banks of arrays `a1` and `a2`.
    BankExchange {
        /// First array.
        a1: usize,
        /// Second array (in a different bank).
        a2: usize,
    },
    /// M3 — reassign memory access `op` to `target`, another port of its
    /// array's bank.
    AccessReport {
        /// The load or store to move.
        op: OpId,
        /// The exec-free `Mem` unit in the same bank.
        target: FuId,
    },
}

/// Draws one move of the given kind, resolving every random decision
/// against the current binding, **without changing it**. Returns `None`
/// when the drawn parameters admit no feasible move (the sequential
/// engine's "infeasible" outcome).
///
/// The RNG draw sequence is identical to the historical combined
/// `try_move` for every kind, so a `propose` + [`apply_proposal`] pair
/// walks the exact same trajectory as the old code — the contract trace
/// recording and replay rest on. The ranked moves (F4, R2) cost their
/// candidates against the connection matrix read-only: they open no
/// transaction and journal nothing (DESIGN.md §19). M1 and M2 prove
/// feasibility by trial-applying the re-banking under a journal
/// checkpoint ([`Binding::undo_to`]) and revert it before returning.
pub fn propose(binding: &mut Binding<'_>, kind: MoveKind, rng: &mut StdRng) -> Option<Proposal> {
    match kind {
        MoveKind::FuExchange => fu::propose_fu_exchange(binding, rng),
        MoveKind::FuMove => fu::propose_fu_move(binding, rng),
        MoveKind::OperandReverse => fu::propose_operand_reverse(binding, rng),
        MoveKind::PassBind => fu::propose_pass_bind(binding, rng),
        MoveKind::PassUnbind => fu::propose_pass_unbind(binding, rng),
        MoveKind::SegmentExchange => reg::propose_segment_exchange(binding, rng),
        MoveKind::SegmentMove => reg::propose_segment_move(binding, rng),
        MoveKind::ValueExchange => reg::propose_value_exchange(binding, rng),
        MoveKind::ValueMove => reg::propose_value_move(binding, rng),
        MoveKind::ValueSplit => reg::propose_value_split(binding, rng),
        MoveKind::ValueMerge => reg::propose_value_merge(binding, rng),
        MoveKind::ArrayRebank => mem::propose_array_rebank(binding, rng),
        MoveKind::BankExchange => mem::propose_bank_exchange(binding, rng),
        MoveKind::AccessReport => mem::propose_access_report(binding, rng),
    }
}

/// Applies a resolved proposal inside the caller's open transaction.
/// Returns `false` — leaving whatever it journaled for the caller to roll
/// back — when the binding has drifted from the state the proposal was
/// drawn against (a *stale* proposal: its precondition no longer holds).
/// Fresh proposals always apply.
pub fn apply_proposal(binding: &mut Binding<'_>, proposal: Proposal) -> bool {
    match proposal {
        Proposal::FuExchange { a, z } => fu::apply_fu_exchange(binding, a, z),
        Proposal::FuMove { op, target } => fu::apply_fu_move(binding, op, target),
        Proposal::OperandReverse { op } => fu::apply_operand_reverse(binding, op),
        Proposal::PassBind { key, fu } => fu::apply_pass_bind(binding, key, fu),
        Proposal::PassUnbind { key } => fu::apply_pass_unbind(binding, key),
        Proposal::SegmentExchange { step, v1, s1, r1, v2, s2, r2 } => {
            reg::apply_segment_exchange(binding, step, v1, s1, r1, v2, s2, r2)
        }
        Proposal::SegmentMove { value, slot, idx, target } => {
            reg::apply_segment_move(binding, value, slot, idx, target)
        }
        Proposal::ValueExchange { v1, r1, v2, r2 } => {
            reg::apply_value_exchange(binding, v1, r1, v2, r2)
        }
        Proposal::ValueMove { value, target } => reg::apply_value_move(binding, value, target),
        Proposal::ValueSplitExtend { value, slot, front, reg } => {
            reg::apply_value_split_extend(binding, value, slot, front, reg)
        }
        Proposal::ValueSplitNew { value, idx, reg } => {
            reg::apply_value_split_new(binding, value, idx, reg)
        }
        Proposal::ValueMerge { value, slot, front } => {
            reg::apply_value_merge(binding, value, slot, front)
        }
        Proposal::ArrayRebank { array, bank } => mem::apply_array_rebank(binding, array, bank),
        Proposal::BankExchange { a1, a2 } => mem::apply_bank_exchange(binding, a1, a2),
        Proposal::AccessReport { op, target } => mem::apply_access_report(binding, op, target),
    }
}

/// Draws one move through the optional warm-start delta bias: with no
/// bias this is exactly `set.pick` + [`propose`] (identical RNG
/// draw sequence — the cold trajectory is untouched). Under a bias, a
/// feasible draw that misses the focus set gets **one** re-draw, and the
/// re-draw is kept only when it touches the focus set — doubling the
/// selection weight of delta-local moves without ever forfeiting a
/// feasible proposal. Proposing is net-zero on the binding, so the
/// double draw is safe inside the caller's open transaction.
pub(crate) fn propose_biased(
    binding: &mut Binding<'_>,
    set: &MoveSet,
    rng: &mut StdRng,
    bias: Option<&crate::WarmSpec>,
) -> Option<Proposal> {
    let kind = set.pick(rng);
    let first = propose(binding, kind, rng);
    let Some(w) = bias else { return first };
    match first {
        Some(p) if !w.touches(&p) => {
            let kind2 = set.pick(rng);
            match propose(binding, kind2, rng) {
                Some(p2) if w.touches(&p2) => Some(p2),
                _ => Some(p),
            }
        }
        other => other,
    }
}

/// Attempts one move of the given kind with random parameters, inside the
/// caller's open transaction. Returns `true` if the move applied; `false`
/// leaves the binding untouched. Implemented as
/// [`propose`] + [`apply_proposal`]: the proposal resolved against
/// the current state is never stale, so the apply cannot fail.
pub fn try_move(binding: &mut Binding<'_>, kind: MoveKind, rng: &mut StdRng) -> bool {
    match propose(binding, kind, rng) {
        Some(proposal) => {
            let applied = apply_proposal(binding, proposal);
            debug_assert!(applied, "a fresh proposal must apply: {proposal:?}");
            applied
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn move_set_composition() {
        let full = MoveSet::full();
        assert!(full.contains(MoveKind::ValueSplit));
        assert!(full.contains(MoveKind::PassBind));
        assert!(!full.contains(MoveKind::ArrayRebank));
        assert!(!full.contains(MoveKind::AccessReport));
        let mem = MoveSet::with_memory();
        assert!(mem.contains(MoveKind::ArrayRebank));
        assert!(mem.contains(MoveKind::BankExchange));
        assert!(mem.contains(MoveKind::AccessReport));
        assert!(mem.contains(MoveKind::ValueSplit));
        let trad = MoveSet::traditional();
        assert!(!trad.contains(MoveKind::SegmentMove));
        assert!(!trad.contains(MoveKind::PassBind));
        assert!(!trad.contains(MoveKind::ValueSplit));
        assert!(trad.contains(MoveKind::ValueMove));
        let ablated = MoveSet::full().without(MoveKind::PassBind);
        assert!(!ablated.contains(MoveKind::PassBind));
        assert!(ablated.contains(MoveKind::SegmentMove));
    }

    #[test]
    fn weighted_pick_honors_membership() {
        let set = MoveSet::traditional();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            assert!(set.contains(set.pick(&mut rng)));
        }
    }

    #[test]
    fn labels_cover_f1_to_m3() {
        let labels: Vec<&str> = MoveKind::all().iter().map(|(_, l)| *l).collect();
        assert_eq!(
            labels,
            ["F1", "F2", "F3", "F4", "F5", "R1", "R2", "R3", "R4", "R5", "R6", "M1", "M2", "M3"]
        );
    }
}

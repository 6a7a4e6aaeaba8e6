//! Register moves R1-R6: segments, whole values, splits and merges —
//! split into propose (draw + resolve, no net state change) and apply
//! (replay inside the caller's transaction).
//!
//! As in the [`fu`](super::fu) module, each proposer draws from the
//! compiled plan's candidate tables through scratch buffers.
//! The segment moves use an incremental delta kernel: only the owners
//! whose connection items can reference a moved segment's register (see
//! [`segment_owners`]) are retracted and re-asserted by the R1 and R2
//! applies, R2's ranking costs only those of their items a target can
//! change ([`SegmentRanking`]), and the preview reads only their items
//! (DESIGN.md §19). Polish decides its R2 and R4 candidates through the
//! same preview and applies (DESIGN.md §17).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use salsa_cdfg::ValueId;
use salsa_datapath::{ConnectionMatrix, Port, RegId, Sink, Source};

use crate::binding::{added_item_cost, Owner};
use crate::moves::Proposal;
use crate::{Binding, TransferKey};

/// Upper bound on concurrent copies per value, keeping the configuration
/// space (and undo state) bounded.
const MAX_COPIES: usize = 2;

/// Collects the sorted, deduplicated owner set of the given values into
/// `out`. Sorting reproduces the iteration order of the `BTreeSet` this
/// replaced (`Owner` derives `Ord`; keys are unique per value, so
/// first-insert ties cannot reorder).
fn collect_owners(b: &Binding<'_>, values: &[ValueId], out: &mut Vec<Owner>) {
    out.clear();
    for &v in values {
        b.owners_of_value_into(v, out);
    }
    out.sort_unstable();
    out.dedup();
}

/// Retracts every owner of the given values. The returned buffer is the
/// binding's owner scratch — callers must hand it back via
/// `b.scratch.owners = owners` when done with the list.
fn retract_values(b: &mut Binding<'_>, values: &[ValueId]) -> Vec<Owner> {
    let mut owners = std::mem::take(&mut b.scratch.owners);
    collect_owners(b, values, &mut owners);
    for &o in &owners {
        b.retract_owner(o);
    }
    owners
}

/// Re-asserts the owner set of the given values, re-derived from the
/// post-mutation state (transfer keys may have changed).
fn assert_values(b: &mut Binding<'_>, values: &[ValueId]) {
    let mut owners = std::mem::take(&mut b.scratch.owners);
    collect_owners(b, values, &mut owners);
    for &o in &owners {
        b.assert_owner(o);
    }
    b.scratch.owners = owners;
}

/// The owners an R1 or R2 move re-routes (the [`segment_owners`] subset),
/// and their transfer keys — the only keys whose pass can go stale when
/// the moved segments change register.
struct Rerouted {
    owners: Vec<Owner>,
    keys: Vec<TransferKey>,
}

impl Rerouted {
    /// Borrows the binding's scratch buffers; hand them back with
    /// [`restore`](Self::restore).
    fn take(b: &mut Binding<'_>) -> Self {
        Rerouted {
            owners: std::mem::take(&mut b.scratch.affected),
            keys: std::mem::take(&mut b.scratch.keys),
        }
    }

    fn restore(self, b: &mut Binding<'_>) {
        b.scratch.affected = self.owners;
        b.scratch.keys = self.keys;
    }

    /// Re-derives the transfer keys from `owners`.
    fn set_keys(&mut self) {
        self.keys.clear();
        self.keys.extend(self.owners.iter().filter_map(|&o| match o {
            Owner::Transfer(key) => Some(key),
            Owner::Op(_) => None,
        }));
    }

    fn retract(&self, b: &mut Binding<'_>) {
        for &o in &self.owners {
            b.retract_owner(o);
        }
    }

    /// Drops the passes the move left stale, then re-asserts the owners.
    fn reassert(&self, b: &mut Binding<'_>) {
        b.drop_stale_passes(self.keys.iter().copied());
        for &o in &self.owners {
            b.assert_owner(o);
        }
    }
}

fn drop_stale_for(b: &mut Binding<'_>, values: &[ValueId]) {
    let mut keys = std::mem::take(&mut b.scratch.keys);
    for &v in values {
        keys.clear();
        b.transfer_keys_into(v, &mut keys);
        b.drop_stale_passes(keys.iter().copied());
    }
    keys.clear();
    b.scratch.keys = keys;
}

/// R1 — exchange the registers of two segments stored in the same control
/// step.
pub(crate) fn propose_segment_exchange(b: &mut Binding<'_>, rng: &mut StdRng) -> Option<Proposal> {
    let ctx = b.ctx;
    let step = rng.gen_range(0..ctx.n_steps());
    let mut occupied = std::mem::take(&mut b.scratch.occupied);
    occupied.clear();
    occupied
        .extend(ctx.datapath.reg_ids().filter_map(|r| b.reg_occupant(r, step).map(|o| (r, o))));
    let picked = if occupied.len() < 2 {
        None
    } else {
        let i = rng.gen_range(0..occupied.len());
        let mut j = rng.gen_range(0..occupied.len());
        if i == j {
            j = (j + 1) % occupied.len();
        }
        Some((occupied[i], occupied[j]))
    };
    b.scratch.occupied = occupied;
    let ((r1, (v1, s1)), (r2, (v2, s2))) = picked?;
    Some(Proposal::SegmentExchange { step, v1, s1, r1, v2, s2, r2 })
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_segment_exchange(
    b: &mut Binding<'_>,
    step: usize,
    v1: ValueId,
    s1: usize,
    r1: RegId,
    v2: ValueId,
    s2: usize,
    r2: RegId,
) -> bool {
    // A segment exchanged with itself (a decoded trace can carry one) is
    // not a move, as F1 refuses a unit exchanged with itself.
    if r1 == r2
        || b.reg_occupant(r1, step) != Some((v1, s1))
        || b.reg_occupant(r2, step) != Some((v2, s2))
    {
        return false;
    }
    let idx1 = b.ctx.lifetime_index(v1, step).expect("occupant is stored at step");
    let idx2 = b.ctx.lifetime_index(v2, step).expect("occupant is stored at step");

    // Only the owners that can reference either moved segment's register
    // change; an owner of both is retracted once.
    let mut group = Rerouted::take(b);
    group.owners.clear();
    segment_owners(b, v1, s1, idx1, &mut group.owners);
    segment_owners(b, v2, s2, idx2, &mut group.owners);
    group.set_keys();

    group.retract(b);
    b.vacate_seg(v1, s1, idx1);
    b.vacate_seg(v2, s2, idx2);
    b.chain_reg_mut(v1, s1, idx1, r2);
    b.chain_reg_mut(v2, s2, idx2, r1);
    b.occupy_seg(v1, s1, idx1);
    b.occupy_seg(v2, s2, idx2);
    group.reassert(b);
    group.restore(b);
    true
}

/// The segment delta kernel: appends to `out` the owners whose
/// connection items can reference the register of segment
/// `(v, slot, idx)`, skipping any already listed (an owner of both R1
/// segments is re-routed once). Every other owner's items are identical
/// for every register the segment can hold. So R2's ranking costs only
/// this subset (a constant drops out of every candidate's sum: same
/// argmin, tie set and tie order), the R1 and R2 applies retract and
/// re-assert only it (an unchanged owner's retract and re-assert cancel),
/// and the preview costs only its items.
///
/// The owners are enumerated directly — the value's readers, producer
/// and feedback producer from the plan, at most two chain adjacencies,
/// the copy feeds of the value's chains and its boundaries — without
/// building the value's whole owner set. Over-approximation is safe;
/// omission is not, so the conditions mirror [`Binding::items_into`]
/// and [`Binding::transfer_endpoints`] case by case.
pub(crate) fn segment_owners(
    b: &Binding<'_>,
    v: ValueId,
    slot: usize,
    idx: usize,
    out: &mut Vec<Owner>,
) {
    let plan = &b.ctx.plan;
    let (lo, hi) = {
        let chain = b.chain(v, slot).expect("live chain");
        (chain.lo(), chain.hi())
    };
    let mut push = |owner: Owner| {
        if !out.contains(&owner) {
            out.push(owner);
        }
    };
    // The consumers reading the moved segment through this slot.
    for &(op, port, ridx) in &plan.value_reads[v.index()] {
        if ridx as usize == idx && b.use_chain(op, port as usize) == slot {
            push(Owner::Op(op));
        }
    }
    if idx == 0 {
        // The producer writes the head register of every chain starting
        // at lifetime index 0.
        if let (0, Some(op)) = (lo, plan.value_producer[v.index()]) {
            push(Owner::Op(op));
        }
        // A boundary-born feedback source's producer writes this state's
        // primal head directly.
        if let (0, Some(op)) = (slot, plan.value_fb_producer[v.index()]) {
            push(Owner::Op(op));
        }
    }
    // The chain's adjacencies into and out of the segment.
    if idx > lo {
        push(Owner::Transfer(TransferKey::Intra { value: v, chain: slot, idx: idx - 1 }));
    }
    if idx < hi {
        push(Owner::Transfer(TransferKey::Intra { value: v, chain: slot, idx }));
    }
    // A copy feed reads its donor from the primal chain one index before
    // the copy starts, and writes the copy's head.
    for (chain, c) in b.chains_of(v).filter(|&(s, _)| s > 0) {
        let c_lo = c.lo();
        if (slot == 0 && c_lo > 0 && idx == c_lo - 1) || (chain == slot && idx == c_lo) {
            push(Owner::Transfer(TransferKey::CopyFeed { value: v, chain }));
        }
    }
    // Boundaries touch only the primal chain: this state's head, or the
    // tail of the source feeding another state.
    if slot == 0 {
        let lt_len = plan.value_lt_len[v.index()] as usize;
        for &key in &plan.value_boundaries[v.index()] {
            let touches = match key {
                TransferKey::Boundary { state } if state == v => idx == 0,
                _ => idx + 1 == lt_len,
            };
            if touches {
                push(Owner::Transfer(key));
            }
        }
    }
}

/// R2's ranking of the registers a segment can move to, read-only: no
/// transaction, no journal entry, no matrix write (DESIGN.md §19).
///
/// The exact ranking costs the items of the owners the move re-routes
/// ([`segment_owners`]) with the candidate written into the segment,
/// against the matrix with *every* owner of the value
/// retracted, each item on its own. [`prepare`](Self::prepare) reads
/// those items once with an out-of-range sentinel in the segment and
/// keeps as terms only the ones a candidate can change: an op item that
/// names the sentinel, and every item of a transfer with a sentinel
/// endpoint, tagged with its other endpoint (a candidate equal to it
/// collapses the transfer, and all its items vanish). Every other item is
/// the same for every candidate, so it adds a constant to each sum and
/// leaves the argmin, the tie set and the tie order unchanged. The
/// retracted matrix is the live one seen through [`Retracted`], which
/// subtracts the value's own owner items.
#[derive(Debug, Default)]
pub(crate) struct SegmentRanking {
    /// The items of every owner of the value, in the current state.
    own: Vec<(Source, Sink)>,
    /// One affected owner's items, read with the sentinel in place.
    probe: Vec<(Source, Sink)>,
    terms: Vec<Term>,
}

/// One kept item with its candidate-invariant part costed.
#[derive(Debug, Clone, Copy)]
enum Term {
    /// `RegOut(target) -> sink`; costs `miss` when that wire is absent
    /// (the sink's retracted fan-in does not depend on the target).
    FromTarget { sink: Sink, miss: u64, collapse: Option<RegId> },
    /// `src -> RegIn(target)`.
    IntoTarget { src: Source, collapse: Option<RegId> },
    /// An item of a transfer from or to the segment that names neither
    /// side's target, such as a pass unit's output into the transfer's
    /// far register: it costs `cost` unless the target collapses the
    /// transfer.
    Fixed { cost: u64, collapse: RegId },
}

/// The connection matrix as it reads with the given items retracted,
/// without writing it: per cell the uses the items contribute come off,
/// and per sink the sources whose every use is among them vanish.
struct Retracted<'m> {
    conn: &'m ConnectionMatrix,
    own: &'m [(Source, Sink)],
}

impl Retracted<'_> {
    // The items are asserted in the matrix, so neither subtraction below
    // can underflow: each item is one of its cell's uses, and each
    // vanished source is a distinct live source of its sink.
    fn uses(&self, src: Source, sink: Sink) -> usize {
        let live = self.conn.uses(src, sink);
        if live == 0 {
            return 0;
        }
        live - self.own.iter().filter(|&&item| item == (src, sink)).count()
    }

    fn fanin(&self, sink: Sink) -> usize {
        let live = self.conn.fanin(sink);
        if live == 0 {
            return 0;
        }
        let vanished = self
            .own
            .iter()
            .enumerate()
            .filter(|&(i, &(src, k))| {
                k == sink && !self.own[..i].contains(&(src, k)) && self.uses(src, k) == 0
            })
            .count();
        live - vanished
    }

    /// [`Binding::item_cost`] against the retracted matrix.
    fn item_cost(&self, src: Source, sink: Sink) -> u64 {
        added_item_cost(self.uses(src, sink) > 0, self.fanin(sink) > 0)
    }
}

impl SegmentRanking {
    /// Builds the terms for a move of segment `(v, slot, idx)`.
    pub(crate) fn prepare(&mut self, b: &mut Binding<'_>, v: ValueId, slot: usize, idx: usize) {
        // One value's owners are distinct, so the view needs no sort.
        let mut owners = std::mem::take(&mut b.scratch.owners);
        owners.clear();
        b.owners_of_value_into(v, &mut owners);
        self.own.clear();
        for &o in &owners {
            b.items_into(o, &mut self.own);
        }
        let mut affected = std::mem::take(&mut b.scratch.affected);
        affected.clear();
        segment_owners(b, v, slot, idx, &mut affected);

        let sentinel = RegId::from_index(b.ctx.datapath.num_regs());
        let held = b.replace_chain_reg(v, slot, idx, sentinel);
        let view = Retracted { conn: b.connections(), own: &self.own };
        self.terms.clear();
        for &o in &affected {
            let collapse = match o {
                Owner::Op(_) => None,
                Owner::Transfer(key) => match b.transfer_endpoints(key) {
                    Some((src, dst, _)) if src == sentinel => Some(dst),
                    Some((src, dst, _)) if dst == sentinel => Some(src),
                    // No endpoint in the segment, or no movement for any
                    // candidate: the same items for every candidate.
                    _ => continue,
                },
            };
            self.probe.clear();
            b.items_into(o, &mut self.probe);
            for &(src, sink) in &self.probe {
                let term = if src == Source::RegOut(sentinel) {
                    let miss = added_item_cost(false, view.fanin(sink) > 0);
                    Term::FromTarget { sink, miss, collapse }
                } else if sink == Sink::RegIn(sentinel) {
                    Term::IntoTarget { src, collapse }
                } else if let Some(collapse) = collapse {
                    Term::Fixed { cost: view.item_cost(src, sink), collapse }
                } else {
                    continue; // an op item that does not read or write the segment
                };
                self.terms.push(term);
            }
        }
        b.replace_chain_reg(v, slot, idx, held);
        b.scratch.owners = owners;
        b.scratch.affected = affected;
    }

    /// The prepared move's ranking cost with the segment in `target`: the
    /// exact ranking's sum less a constant that is the same for every
    /// target.
    pub(crate) fn cost(&self, conn: &ConnectionMatrix, target: RegId) -> u64 {
        let view = Retracted { conn, own: &self.own };
        self.terms
            .iter()
            .map(|&term| match term {
                Term::FromTarget { sink, miss, collapse } => {
                    if collapse == Some(target) || view.uses(Source::RegOut(target), sink) > 0 {
                        0
                    } else {
                        miss
                    }
                }
                Term::IntoTarget { src, collapse } => {
                    if collapse == Some(target) {
                        0
                    } else {
                        view.item_cost(src, Sink::RegIn(target))
                    }
                }
                Term::Fixed { cost, collapse } => {
                    if collapse == target {
                        0
                    } else {
                        cost
                    }
                }
            })
            .sum()
    }
}

/// R2 — move one segment to a register free at its step. The segment is
/// chosen at random; among the free target registers the one adding the
/// least interconnect is taken (random tie-break), which makes individual
/// segment moves productive instead of noise. [`SegmentRanking`] costs
/// the candidates without changing the binding.
pub(crate) fn propose_segment_move(b: &mut Binding<'_>, rng: &mut StdRng) -> Option<Proposal> {
    let ctx = b.ctx;
    let v = *ctx.plan.storable.choose(rng)?;
    let mut slots = std::mem::take(&mut b.scratch.slots);
    slots.clear();
    slots.extend(b.chains_of(v).map(|(slot, _)| slot));
    let pick = slots.choose(rng).copied();
    b.scratch.slots = slots;
    let slot = pick.expect("stored value has chains");
    let (lo, hi) = {
        let chain = b.chains_of(v).find(|(s, _)| *s == slot).unwrap().1;
        (chain.lo(), chain.hi())
    };
    let idx = rng.gen_range(lo..=hi);
    let step = ctx.lifetimes.get(v).expect("stored").steps()[idx];
    let mut free = std::mem::take(&mut b.scratch.regs);
    free.clear();
    free.extend(ctx.datapath.reg_ids().filter(|&r| b.reg_free(r, step)));
    if free.is_empty() {
        b.scratch.regs = free;
        return None;
    }

    let journaled = b.journal_len();
    let mut ranking = std::mem::take(&mut b.scratch.ranking);
    ranking.prepare(b, v, slot, idx);
    let mut best = std::mem::take(&mut b.scratch.best_regs);
    best.clear();
    let mut best_cost = u64::MAX;
    for &cand in &free {
        let cost = ranking.cost(b.connections(), cand);
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
    debug_assert_eq!(b.journal_len(), journaled, "R2's ranking journals nothing");
    let target = *best.choose(rng).expect("at least one free candidate");
    b.scratch.regs = free;
    b.scratch.ranking = ranking;
    b.scratch.best_regs = best;
    Some(Proposal::SegmentMove { value: v, slot, idx, target })
}

pub(crate) fn apply_segment_move(
    b: &mut Binding<'_>,
    v: ValueId,
    slot: usize,
    idx: usize,
    target: RegId,
) -> bool {
    let covers = b.chains_of(v).find(|(s, _)| *s == slot).is_some_and(|(_, c)| c.covers(idx));
    if !covers {
        return false;
    }
    let step = b.ctx.lifetimes.get(v).expect("stored").steps()[idx];
    if !b.reg_free(target, step) {
        return false;
    }
    let mut group = Rerouted::take(b);
    group.owners.clear();
    segment_owners(b, v, slot, idx, &mut group.owners);
    group.set_keys();
    group.retract(b);
    b.vacate_seg(v, slot, idx);
    b.chain_reg_mut(v, slot, idx, target);
    b.occupy_seg(v, slot, idx);
    group.reassert(b);
    group.restore(b);
    true
}

/// Feasibility of a value exchange: each value's steps in the other's
/// register are free or occupied by the primal chain being vacated.
fn exchange_ok(b: &Binding<'_>, value: ValueId, other: ValueId, target: RegId) -> bool {
    b.ctx
        .lifetimes
        .get(value)
        .expect("stored")
        .steps()
        .iter()
        .all(|&s| match b.reg_occupant(target, s) {
            None => true,
            Some((occ_v, occ_slot)) => occ_v == other && occ_slot == 0,
        })
}

/// R3 — exchange the registers of two contiguously bound values.
pub(crate) fn propose_value_exchange(b: &mut Binding<'_>, rng: &mut StdRng) -> Option<Proposal> {
    let mut uniform = std::mem::take(&mut b.scratch.uniform);
    uniform.clear();
    for &v in &b.ctx.plan.storable {
        let Some(primal) = b.primal(v) else { continue };
        if primal.is_uniform() {
            uniform.push((v, primal.regs()[0]));
        }
    }
    let pick = if uniform.len() < 2 {
        None
    } else {
        let i = rng.gen_range(0..uniform.len());
        let mut j = rng.gen_range(0..uniform.len());
        if i == j {
            j = (j + 1) % uniform.len();
        }
        Some((uniform[i], uniform[j]))
    };
    b.scratch.uniform = uniform;
    let ((v1, r1), (v2, r2)) = pick?;
    if r1 == r2 {
        return None;
    }
    if !exchange_ok(b, v1, v2, r2) || !exchange_ok(b, v2, v1, r1) {
        return None;
    }
    Some(Proposal::ValueExchange { v1, r1, v2, r2 })
}

pub(crate) fn apply_value_exchange(
    b: &mut Binding<'_>,
    v1: ValueId,
    r1: RegId,
    v2: ValueId,
    r2: RegId,
) -> bool {
    let uniform_at = |v: ValueId, r: RegId, b: &Binding<'_>| {
        b.primal(v).is_some_and(|p| p.is_uniform() && p.regs()[0] == r)
    };
    if r1 == r2
        || !uniform_at(v1, r1, b)
        || !uniform_at(v2, r2, b)
        || !exchange_ok(b, v1, v2, r2)
        || !exchange_ok(b, v2, v1, r1)
    {
        return false;
    }

    let owners = retract_values(b, &[v1, v2]);
    b.scratch.owners = owners;
    let len1 = b.primal(v1).unwrap().len();
    let len2 = b.primal(v2).unwrap().len();
    for idx in 0..len1 {
        b.vacate_seg(v1, 0, idx);
    }
    for idx in 0..len2 {
        b.vacate_seg(v2, 0, idx);
    }
    for idx in 0..len1 {
        b.chain_reg_mut(v1, 0, idx, r2);
        b.occupy_seg(v1, 0, idx);
    }
    for idx in 0..len2 {
        b.chain_reg_mut(v2, 0, idx, r1);
        b.occupy_seg(v2, 0, idx);
    }
    drop_stale_for(b, &[v1, v2]);
    assert_values(b, &[v1, v2]);
    true
}

/// Whether register `r` can hold every primal segment of `v`: at each
/// step of the lifetime it is free or holds the value's own primal
/// segment. R4's proposer, apply and preview share this test.
pub(crate) fn value_fits(b: &Binding<'_>, v: ValueId, r: RegId) -> bool {
    b.ctx.lifetimes.get(v).expect("stored").steps().iter().all(|&s| {
        match b.reg_occupant(r, s) {
            None => true,
            Some((occ_v, occ_slot)) => occ_v == v && occ_slot == 0,
        }
    })
}

/// R4 — bind every (primal) segment of a value to one register.
pub(crate) fn propose_value_move(b: &mut Binding<'_>, rng: &mut StdRng) -> Option<Proposal> {
    let ctx = b.ctx;
    let v = *ctx.plan.storable.choose(rng)?;
    let mut candidates = std::mem::take(&mut b.scratch.regs);
    candidates.clear();
    candidates.extend(ctx.datapath.reg_ids().filter(|&r| value_fits(b, v, r)));
    let pick = candidates.choose(rng).copied();
    b.scratch.regs = candidates;
    let target = pick?;
    if b.primal(v).unwrap().is_uniform() && b.primal(v).unwrap().regs()[0] == target {
        return None;
    }
    Some(Proposal::ValueMove { value: v, target })
}

pub(crate) fn apply_value_move(b: &mut Binding<'_>, v: ValueId, target: RegId) -> bool {
    let primal = b.primal(v).expect("stored value has a primal chain");
    if !value_fits(b, v, target) || (primal.is_uniform() && primal.regs()[0] == target) {
        return false;
    }

    let owners = retract_values(b, &[v]);
    b.scratch.owners = owners;
    let len = b.primal(v).unwrap().len();
    for idx in 0..len {
        b.vacate_seg(v, 0, idx);
    }
    for idx in 0..len {
        b.chain_reg_mut(v, 0, idx, target);
        b.occupy_seg(v, 0, idx);
    }
    drop_stale_for(b, &[v]);
    assert_values(b, &[v]);
    true
}

/// R5 — value split: create a copy of a value segment in a free register,
/// or extend an existing copy by one step; consumers covered by the copy
/// rebind greedily to whichever chain adds less interconnect.
pub(crate) fn propose_value_split(b: &mut Binding<'_>, rng: &mut StdRng) -> Option<Proposal> {
    let ctx = b.ctx;
    let v = *ctx.plan.storable.choose(rng)?;
    let lt = ctx.lifetimes.get(v).expect("stored");
    let lt_len = lt.len();
    let steps = lt.steps();

    // Choose: create a new copy, or extend an existing one.
    let mut copies = std::mem::take(&mut b.scratch.slots);
    copies.clear();
    copies.extend(b.chains_of(v).map(|(s, _)| s).filter(|&s| s > 0));
    let extend = !copies.is_empty() && rng.gen_bool(0.5);
    let slot_pick = if extend { copies.choose(rng).copied() } else { None };
    b.scratch.slots = copies;

    if let Some(slot) = slot_pick {
        let (lo, hi) = {
            let c = b.chains_of(v).find(|(s, _)| *s == slot).unwrap().1;
            (c.lo(), c.hi())
        };
        let mut dirs = [false; 2];
        let mut n_dirs = 0;
        if lo > b.min_copy_index(v) {
            dirs[n_dirs] = true;
            n_dirs += 1;
        }
        if hi + 1 < lt_len {
            dirs[n_dirs] = false;
            n_dirs += 1;
        }
        let &front = dirs[..n_dirs].choose(rng)?;
        let idx = if front { lo - 1 } else { hi + 1 };
        let mut free = std::mem::take(&mut b.scratch.regs);
        free.clear();
        free.extend(ctx.datapath.reg_ids().filter(|&r| b.reg_free(r, steps[idx])));
        let pick = free.choose(rng).copied();
        b.scratch.regs = free;
        let reg = pick?;
        Some(Proposal::ValueSplitExtend { value: v, slot, front, reg })
    } else {
        if b.num_copies(v) >= MAX_COPIES {
            return None;
        }
        let min_idx = b.min_copy_index(v);
        if min_idx >= lt_len {
            return None;
        }
        let idx = rng.gen_range(min_idx..lt_len);
        let mut free = std::mem::take(&mut b.scratch.regs);
        free.clear();
        free.extend(ctx.datapath.reg_ids().filter(|&r| b.reg_free(r, steps[idx])));
        let pick = free.choose(rng).copied();
        b.scratch.regs = free;
        let reg = pick?;
        Some(Proposal::ValueSplitNew { value: v, idx, reg })
    }
}

pub(crate) fn apply_value_split_extend(
    b: &mut Binding<'_>,
    v: ValueId,
    slot: usize,
    front: bool,
    reg: RegId,
) -> bool {
    let ctx = b.ctx;
    let lt = ctx.lifetimes.get(v).expect("stored");
    let lt_len = lt.len();
    let steps = lt.steps();
    let Some((_, chain)) = b.chains_of(v).find(|(s, _)| *s == slot) else { return false };
    let (lo, hi) = (chain.lo(), chain.hi());
    let idx = if front {
        if lo <= b.min_copy_index(v) {
            return false;
        }
        lo - 1
    } else {
        if hi + 1 >= lt_len {
            return false;
        }
        hi + 1
    };
    if !b.reg_free(reg, steps[idx]) {
        return false;
    }

    let owners = retract_values(b, &[v]);
    b.scratch.owners = owners;
    if front {
        // The copy-feed step moves earlier; a pass bound to the old
        // feed step would become inconsistent.
        let key = TransferKey::CopyFeed { value: v, chain: slot };
        if b.passes().contains_key(&key) {
            b.set_pass(key, None);
        }
    }
    b.extend_copy(v, slot, front, reg);
    rebind_uses_greedily(b, v, slot);
    drop_stale_for(b, &[v]);
    assert_values(b, &[v]);
    true
}

pub(crate) fn apply_value_split_new(
    b: &mut Binding<'_>,
    v: ValueId,
    idx: usize,
    reg: RegId,
) -> bool {
    let steps = b.ctx.lifetimes.get(v).expect("stored").steps();
    if b.num_copies(v) >= MAX_COPIES || !b.reg_free(reg, steps[idx]) {
        return false;
    }

    let owners = retract_values(b, &[v]);
    b.scratch.owners = owners;
    let slot = b.add_copy_chain(v, idx, reg);
    rebind_uses_greedily(b, v, slot);
    drop_stale_for(b, &[v]);
    assert_values(b, &[v]);
    true
}

/// After a split, each consumer read of `v` at a step covered by chain
/// `slot` picks the cheaper source register (fewer added multiplexer
/// inputs), measured against the retracted connection matrix.
fn rebind_uses_greedily(b: &mut Binding<'_>, v: ValueId, slot: usize) {
    let ctx = b.ctx;
    for u in ctx.graph.value(v).uses() {
        let (op, port) = (u.op, u.port);
        let issue = ctx.schedule.issue(op);
        let Some(idx) = ctx.lifetime_index(v, issue) else { continue };
        let covered = b
            .chains_of(v)
            .find(|(s, _)| *s == slot)
            .is_some_and(|(_, c)| c.covers(idx));
        if !covered {
            continue;
        }
        let fu = b.op_fu(op);
        let actual = if b.op_swapped(op) { 1 - port } else { port };
        let sink = Sink::FuIn(fu, Port::from_index(actual));
        let cost_of = |chain_slot: usize, b: &Binding<'_>| {
            let reg = b
                .chains_of(v)
                .find(|(s, _)| *s == chain_slot)
                .expect("live chain")
                .1
                .reg_at(idx);
            b.connections().added_mux_cost(Source::RegOut(reg), sink)
        };
        let current = b.use_chain(op, port);
        let (cur_cost, new_cost) = (cost_of(current, b), cost_of(slot, b));
        if new_cost < cur_cost {
            b.set_use_chain(op, port, slot);
        }
    }
}

/// R6 — value merge: shrink a copy chain by one segment (reversing a
/// split), removing the chain entirely when its last segment goes.
/// Consumers that were reading the vanished segments rebind to the primal
/// chain.
pub(crate) fn propose_value_merge(b: &mut Binding<'_>, rng: &mut StdRng) -> Option<Proposal> {
    let mut values = std::mem::take(&mut b.scratch.values);
    values.clear();
    values.extend(b.ctx.plan.storable.iter().copied().filter(|&v| b.num_copies(v) > 0));
    let pick = values.choose(rng).copied();
    b.scratch.values = values;
    let v = pick?;
    let mut copies = std::mem::take(&mut b.scratch.slots);
    copies.clear();
    copies.extend(b.chains_of(v).map(|(s, _)| s).filter(|&s| s > 0));
    let pick = copies.choose(rng).copied();
    b.scratch.slots = copies;
    let slot = pick.expect("nonempty");
    let front = rng.gen_bool(0.5);
    Some(Proposal::ValueMerge { value: v, slot, front })
}

pub(crate) fn apply_value_merge(
    b: &mut Binding<'_>,
    v: ValueId,
    slot: usize,
    front: bool,
) -> bool {
    // Slot 0 is the primal chain, which covers the whole lifetime and is
    // never merged away (a decoded trace can name it).
    if slot == 0 {
        return false;
    }
    let Some((_, chain)) = b.chains_of(v).find(|(s, _)| *s == slot) else { return false };
    let (lo, hi) = (chain.lo(), chain.hi());
    let removed_idx = if front { lo } else { hi };
    let whole_chain = lo == hi;

    let owners = retract_values(b, &[v]);
    b.scratch.owners = owners;
    // Clear passes on transfer keys this shrink invalidates, while their
    // endpoints can still be resolved: the adjacency at the vanished end
    // and — when the front moves — the copy feed (its step changes).
    let mut stale = [TransferKey::CopyFeed { value: v, chain: slot }; 2];
    let mut n_stale = 0;
    if whole_chain || front {
        stale[n_stale] = TransferKey::CopyFeed { value: v, chain: slot };
        n_stale += 1;
    }
    if !whole_chain {
        let idx = if front { lo } else { hi - 1 };
        stale[n_stale] = TransferKey::Intra { value: v, chain: slot, idx };
        n_stale += 1;
    }
    for &key in &stale[..n_stale] {
        if b.passes().contains_key(&key) {
            b.set_pass(key, None);
        }
    }
    // Rebind uses served by the vanishing segment(s).
    let ctx = b.ctx;
    for u in ctx.graph.value(v).uses() {
        let (op, port) = (u.op, u.port);
        if b.use_chain(op, port) != slot {
            continue;
        }
        let issue = ctx.schedule.issue(op);
        let idx = ctx.lifetime_index(v, issue).expect("operand alive at issue");
        if whole_chain || idx == removed_idx {
            b.set_use_chain(op, port, 0);
        }
    }
    if whole_chain {
        b.remove_copy_chain(v, slot);
    } else {
        b.shrink_copy(v, slot, front);
    }
    drop_stale_for(b, &[v]);
    assert_values(b, &[v]);
    true
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use salsa_cdfg::benchmarks::{ewf, fir_array};
    use salsa_cdfg::{random_cdfg, Cdfg, RandomCdfgConfig};
    use salsa_sched::{asap, fds_schedule, FuLibrary};

    use super::*;
    use crate::{initial_allocation, moves, Allocator};

    /// The old segment kernel, kept only as the oracle for
    /// [`segment_owners`]: of `owners`, the sorted owner set of `v`,
    /// appends those whose items can reference the register of segment
    /// `(v, slot, idx)`.
    fn owner_set_filter(
        b: &Binding<'_>,
        owners: &[Owner],
        v: ValueId,
        slot: usize,
        idx: usize,
        out: &mut Vec<Owner>,
    ) {
        let plan = &b.ctx.plan;
        let moved_lo =
            b.chains_of(v).find(|(s, _)| *s == slot).expect("live chain").1.lo();
        let lt_len = plan.value_lt_len[v.index()] as usize;
        for &owner in owners {
            let affected = match owner {
                Owner::Op(op) => {
                    let reads = plan.op_reads[op.index()].iter().any(|&(port, val, ridx)| {
                        val == v && ridx as usize == idx && b.use_chain(op, port as usize) == slot
                    });
                    let writes = plan.value_producer[v.index()] == Some(op)
                        && moved_lo == 0
                        && idx == 0;
                    let feeds = plan.value_fb_producer[v.index()] == Some(op)
                        && slot == 0
                        && idx == 0;
                    reads || writes || feeds
                }
                Owner::Transfer(key) => match key {
                    TransferKey::Intra { value, chain, idx: j } => {
                        value == v && chain == slot && (j == idx || j + 1 == idx)
                    }
                    TransferKey::CopyFeed { value, chain } => {
                        value == v && {
                            let c_lo = b
                                .chains_of(v)
                                .find(|(s, _)| *s == chain)
                                .map(|(_, c)| c.lo())
                                .unwrap_or(0);
                            (slot == 0 && c_lo > 0 && idx == c_lo - 1)
                                || (chain == slot && idx == c_lo)
                        }
                    }
                    TransferKey::Boundary { state } => {
                        if state == v {
                            slot == 0 && idx == 0
                        } else {
                            slot == 0 && idx + 1 == lt_len
                        }
                    }
                },
            };
            if affected {
                out.push(owner);
            }
        }
    }

    /// The exact ranking as the proposer used to run it: every owner of
    /// `v` retracted through the journal, the segment vacated, and each
    /// candidate written in turn while the affected owners' items are
    /// costed one by one against the retracted matrix. Also returns the
    /// part of each sum that no candidate can change — the affected op
    /// items that do not touch the segment and the items of affected
    /// transfers with no endpoint in it, read with an out-of-range probe
    /// register in the segment — and how many candidates equal the far
    /// endpoint of a transfer to or from the segment.
    fn full_retraction(
        b: &mut Binding<'_>,
        v: ValueId,
        slot: usize,
        idx: usize,
        free: &[RegId],
    ) -> (Vec<u64>, u64, usize) {
        let before = b.clone();
        b.begin();
        let mut owners = Vec::new();
        collect_owners(b, &[v], &mut owners);
        for &o in &owners {
            b.retract_owner(o);
        }
        b.vacate_seg(v, slot, idx);
        let mut affected = Vec::new();
        owner_set_filter(b, &owners, v, slot, idx, &mut affected);
        let cost_of = |b: &Binding<'_>, items: &[(Source, Sink)]| -> u64 {
            items.iter().map(|&(src, sink)| b.item_cost(src, sink)).sum()
        };
        let costs = free
            .iter()
            .map(|&cand| {
                b.chain_reg_mut(v, slot, idx, cand);
                affected.iter().map(|&o| cost_of(b, &b.items(o))).sum()
            })
            .collect();

        let probe = RegId::from_index(b.ctx.datapath.num_regs() + 7);
        b.chain_reg_mut(v, slot, idx, probe);
        let (mut invariant, mut collapsible) = (0, 0);
        for &o in &affected {
            let items = b.items(o);
            match o {
                Owner::Op(_) => {
                    let untouched: Vec<_> = items
                        .into_iter()
                        .filter(|&(src, sink)| {
                            src != Source::RegOut(probe) && sink != Sink::RegIn(probe)
                        })
                        .collect();
                    invariant += cost_of(b, &untouched);
                }
                Owner::Transfer(key) => match b.transfer_endpoints(key) {
                    Some((src, dst, _)) if src == probe || dst == probe => {
                        let far = if src == probe { dst } else { src };
                        collapsible += usize::from(free.contains(&far));
                    }
                    _ => invariant += cost_of(b, &items),
                },
            }
        }
        b.rollback();
        assert!(*b == before, "the reference ranking left the binding changed");
        (costs, invariant, collapsible)
    }

    /// Walks a random move stream on `graph` at `slack` steps past its
    /// critical path and hands every eighth state to `visit`, so checks
    /// start from states with copies, passes and re-banked arrays, not
    /// just the constructive binding.
    fn walk_design(
        graph: &Cdfg,
        slack: usize,
        extra_regs: usize,
        seed: u64,
        visit: &mut dyn FnMut(&mut Binding<'_>, &mut StdRng),
    ) {
        let library = FuLibrary::standard();
        let cp = asap(graph, &library).length;
        let schedule = fds_schedule(graph, &library, cp + slack).expect("cp + slack is feasible");
        let allocator = Allocator::new(graph, &schedule, &library).extra_registers(extra_regs);
        let (ctx, config) = allocator.prepare().expect("the pool fits the schedule");
        let mut b = initial_allocation(&ctx);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..24 {
            for _ in 0..8 {
                moves::try_move(&mut b, config.move_set.pick(&mut rng), &mut rng);
            }
            visit(&mut b, &mut rng);
        }
    }

    /// Random scalar and array designs with states, then EWF and the
    /// array FIR, each walked by [`walk_design`].
    fn walk_designs(visit: &mut dyn FnMut(&mut Binding<'_>, &mut StdRng)) {
        for case in 0..40u64 {
            let cfg = RandomCdfgConfig {
                ops: 8 + 4 * (case % 6) as usize,
                states: (case % 4) as usize,
                arrays: (case % 3) as usize,
                ..RandomCdfgConfig::default()
            };
            let graph = random_cdfg(&cfg, case);
            walk_design(&graph, (case % 3) as usize, (case % 3) as usize, case, visit);
        }
        walk_design(&ewf(), 2, 1, 7, visit);
        walk_design(&fir_array(), 1, 1, 7, visit);
    }

    /// The direct enumeration of the owners a segment move re-routes
    /// lists exactly the owners the old filter over the value's whole
    /// owner set selected, for every segment of every stored value in
    /// reachable states, and lists each once.
    #[test]
    fn segment_owners_match_the_owner_set_filter() {
        let (mut segments, mut transfers) = (0usize, 0usize);
        let (mut owners, mut direct, mut filtered) = (Vec::new(), Vec::new(), Vec::new());
        walk_designs(&mut |b, _| {
            for &v in &b.ctx.plan.storable {
                collect_owners(b, &[v], &mut owners);
                let chains: Vec<_> = b.chains_of(v).map(|(s, c)| (s, c.lo(), c.hi())).collect();
                for (slot, lo, hi) in chains {
                    for idx in lo..=hi {
                        direct.clear();
                        segment_owners(b, v, slot, idx, &mut direct);
                        filtered.clear();
                        owner_set_filter(b, &owners, v, slot, idx, &mut filtered);
                        let listed = direct.len();
                        direct.sort_unstable();
                        direct.dedup();
                        let twice = format!("({v}, {slot}, {idx}) listed an owner twice");
                        assert_eq!(direct.len(), listed, "{twice}");
                        assert_eq!(direct, filtered, "segment ({v}, {slot}, {idx})");
                        segments += 1;
                        transfers +=
                            direct.iter().filter(|o| matches!(o, Owner::Transfer(_))).count();
                    }
                }
            }
        });
        assert!(segments > 10_000, "only {segments} segments compared");
        assert!(transfers > 0, "no segment re-routed a transfer");
    }

    fn check_rankings(b: &mut Binding<'_>, rng: &mut StdRng, tally: &mut [usize; 5]) {
        let ctx = b.ctx;
        let mut costs = Vec::new();
        for _ in 0..4 {
            let Some(&v) = ctx.plan.storable.choose(rng) else { return };
            let chains: Vec<_> = b.chains_of(v).map(|(s, c)| (s, c.lo(), c.hi())).collect();
            let &(slot, lo, hi) = chains.choose(rng).expect("stored value has chains");
            let idx = rng.gen_range(lo..=hi);
            let step = ctx.lifetimes.get(v).expect("stored").steps()[idx];
            let free: Vec<_> = ctx.datapath.reg_ids().filter(|&r| b.reg_free(r, step)).collect();
            if free.is_empty() {
                continue;
            }
            let (expected, invariant, collapsible) = full_retraction(b, v, slot, idx, &free);

            let before = b.clone();
            let mut ranking = SegmentRanking::default();
            ranking.prepare(b, v, slot, idx);
            assert!(*b == before, "the ranking changed the binding");
            costs.clear();
            costs.extend(free.iter().map(|&c| ranking.cost(b.connections(), c) + invariant));
            assert_eq!(
                costs, expected,
                "segment ({v}, {slot}, {idx}) over {free:?}: the ranking plus the \
                 candidate-invariant items must equal the full retraction"
            );
            tally[0] += 1;
            tally[1] += collapsible;
            tally[2] += usize::from(invariant > 0);
            tally[3] += usize::from(!b.passes().is_empty());
            tally[4] += usize::from(b.num_copies(v) > 0);
        }
    }

    /// R2 ranks a segment's free registers against a read-only view of
    /// the fully retracted matrix, over only the items a target can
    /// change. For every free candidate of random segments, from reachable
    /// states of scalar and memory designs with copies, passes and
    /// arrays, the ranking cost plus the cost of the affected items no
    /// target can change must equal the old full-retraction ranking
    /// exactly; so the argmin, the tie set and the tie order are the old
    /// ones. A candidate equal to the far endpoint of a transfer to or
    /// from the segment must be seen, since it collapses that transfer.
    #[test]
    fn segment_ranking_matches_the_full_retraction() {
        let mut tally = [0usize; 5];
        walk_designs(&mut |b, rng| check_rankings(b, rng, &mut tally));
        let [ranked, collapsible, with_constant, with_passes, with_copies] = tally;
        assert!(ranked > 1000, "only {ranked} segments ranked");
        assert!(collapsible > 0, "no candidate collapsed a transfer");
        assert!(with_constant > 0, "no ranking carried a candidate-invariant item");
        assert!(with_passes > 0, "no ranking ran with a pass bound");
        assert!(with_copies > 0, "no ranked value had a copy");
    }
}

//! The complete allocation state under the extended binding model, with
//! incrementally maintained interconnect cost.
//!
//! A [`Binding`] assigns every operation to a functional unit (with
//! optional commutative operand reversal), every value-lifetime *segment*
//! to a register through one or more [`Chain`]s (chain 0 is the *primal*
//! chain covering the whole lifetime; further chains are *copies* created
//! by value splitting), every operand read to a chain, and register-to-
//! register transfers optionally to pass-through units.
//!
//! Interconnect accounting is **owner-based**: every point-to-point
//! connection use is owned either by an operation (operand reads, producer
//! writes) or by a [`TransferKey`] (segment movement, copy feeds, loop
//! boundaries). Moves retract the owners they disturb, mutate the state,
//! and re-assert them; the refcounted
//! [`ConnectionMatrix`](salsa_datapath::ConnectionMatrix) keeps equivalent
//! 2-1 multiplexer counts exact throughout.
//!
//! Mutation is **transactional**: between [`Binding::begin`] and
//! [`Binding::commit`]/[`Binding::rollback`], every primitive write (an
//! occupancy cell, a chain slot, a pass entry, a connection use, a counter)
//! appends its previous value to an undo journal. `rollback` replays the
//! journal in reverse, restoring the binding cell-for-cell — so the search
//! loops evaluate candidate moves without ever cloning the binding.

use salsa_cdfg::{OpId, ValueId};
use salsa_datapath::{ConnectionMatrix, CostBreakdown, FuId, Port, RegId, Sink, Source};

use crate::moves::{PreviewScratch, SegmentRanking};
use crate::{AllocContext, TransferKey};

/// What one connection item adds to a matrix, in the weights the moves
/// rank candidates by (new-wire and new-mux-input weights fixed at the
/// default 1:4 ratio): nothing when the connection exists, else one wire,
/// plus one mux input when the sink is already driven.
pub(crate) fn added_item_cost(exists: bool, sink_driven: bool) -> u64 {
    if exists {
        0
    } else {
        1 + 4 * u64::from(sink_driven)
    }
}

/// The default bank of each array: round-robin over the pool's banks
/// (array `i` → bank `i % num_banks`). The constructive initial
/// allocation places each array's accesses on ports of this bank, so a
/// fresh binding starts bank-conflict-free.
pub(crate) fn default_array_banks(ctx: &AllocContext<'_>) -> Vec<u32> {
    let banks = ctx.datapath.num_banks().max(1);
    (0..ctx.plan.num_arrays).map(|i| (i % banks) as u32).collect()
}

/// A run of consecutive lifetime segments of one value bound to registers.
#[derive(Debug, PartialEq, Eq)]
pub struct Chain {
    /// First covered lifetime index.
    pub(crate) lo: usize,
    /// Register per covered index (`regs[i]` covers lifetime index
    /// `lo + i`).
    pub(crate) regs: Vec<RegId>,
}

impl Clone for Chain {
    fn clone(&self) -> Self {
        Chain { lo: self.lo, regs: self.regs.clone() }
    }

    /// Reuses the destination's register buffer — chains are cloned in bulk
    /// by [`Binding::clone_from`] on every best-allocation restore, and
    /// buffer reuse there is what keeps the search loop allocation-free.
    fn clone_from(&mut self, source: &Self) {
        self.lo = source.lo;
        self.regs.clone_from(&source.regs);
    }
}

impl Chain {
    /// First covered lifetime index.
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// Last covered lifetime index.
    pub fn hi(&self) -> usize {
        self.lo + self.regs.len() - 1
    }

    /// Number of covered segments.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Always false — chains have at least one segment.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns `true` if the chain covers the lifetime index.
    pub fn covers(&self, idx: usize) -> bool {
        idx >= self.lo && idx <= self.hi()
    }

    /// The register covering lifetime index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the chain does not cover `idx`.
    pub fn reg_at(&self, idx: usize) -> RegId {
        assert!(self.covers(idx), "chain does not cover lifetime index {idx}");
        self.regs[idx - self.lo]
    }

    /// The registers in lifetime order.
    pub fn regs(&self) -> &[RegId] {
        &self.regs
    }

    /// Returns `true` if all segments share one register (a *contiguous*
    /// binding in the paper's sense).
    pub fn is_uniform(&self) -> bool {
        self.regs.windows(2).all(|w| w[0] == w[1])
    }
}

/// What occupies a functional unit during one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FuOcc {
    /// An executing operation (for its whole initiation interval).
    Exec(OpId),
    /// A pass-through forwarding a transfer.
    Pass(TransferKey),
}

/// A connection owner: the entity whose existence implies a set of
/// point-to-point connection uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Owner {
    Op(OpId),
    Transfer(TransferKey),
}

/// The pass-through assignment map, keyed by [`TransferKey`].
///
/// Backed by a sorted vector with binary-search lookup instead of a
/// `BTreeMap`: pass counts are tiny (a handful of entries), iteration
/// order is identical (sorted by key), and — decisively for the
/// compiled-plan propose path — `insert`/`remove` retain the vector's
/// capacity, so the transient pass placements the F4 ranking loop makes
/// stay off the global allocator.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct PassMap {
    entries: Vec<(TransferKey, FuId)>,
}

impl Clone for PassMap {
    fn clone(&self) -> Self {
        PassMap { entries: self.entries.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

impl PassMap {
    fn position(&self, key: &TransferKey) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Number of bound passes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no pass is bound.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The unit bound to a transfer, if any.
    pub fn get(&self, key: &TransferKey) -> Option<&FuId> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Returns `true` if the transfer has a bound pass unit.
    pub fn contains_key(&self, key: &TransferKey) -> bool {
        self.position(key).is_ok()
    }

    /// The bound transfer keys in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &TransferKey> + '_ {
        self.entries.iter().map(|(k, _)| k)
    }

    /// The `(key, unit)` entries in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&TransferKey, &FuId)> + '_ {
        self.entries.iter().map(|(k, f)| (k, f))
    }

    /// The entries as a slice, for indexed random draws.
    pub fn as_slice(&self) -> &[(TransferKey, FuId)] {
        &self.entries
    }

    fn insert(&mut self, key: TransferKey, fu: FuId) -> Option<FuId> {
        match self.position(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, fu)),
            Err(i) => {
                self.entries.insert(i, (key, fu));
                None
            }
        }
    }

    fn remove(&mut self, key: &TransferKey) -> Option<FuId> {
        match self.position(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }
}

impl std::ops::Index<&TransferKey> for PassMap {
    type Output = FuId;

    fn index(&self, key: &TransferKey) -> &FuId {
        self.get(key).expect("no pass bound to this transfer")
    }
}

/// One reversal record of the undo journal: the previous value of a single
/// mutated cell. [`Binding::rollback`] replays these newest-first, so a cell
/// written twice in one transaction ends at its oldest (pre-transaction)
/// value.
#[derive(Debug, Clone)]
enum UndoOp {
    OpFu { op: OpId, old: FuId },
    OpSwap { op: OpId, old: bool },
    UseChain { op: OpId, port: usize, old: usize },
    FuOccCell { fu: FuId, step: usize, old: Option<FuOcc> },
    FuCompleteCell { fu: FuId, step: usize, old: Option<OpId> },
    RegOccCell { reg: RegId, step: usize, old: Option<(ValueId, usize)> },
    FuItemCount { fu: FuId, old: usize },
    RegSegCount { reg: RegId, old: usize },
    PassEntry { key: TransferKey, old: Option<FuId> },
    ChainSlot { value: ValueId, slot: usize, old: Option<Chain> },
    /// A new (empty) chain slot was pushed; undo pops it.
    ChainSlotPushed { value: ValueId },
    ConnAdd { src: Source, sink: Sink },
    ConnRemove { src: Source, sink: Sink },
    ArrayBank { array: usize, old: u32 },
    /// Two same-class units exchanged their bindings; the swap is its
    /// own inverse.
    FuSwap { a: FuId, z: FuId },
}

/// Reusable candidate/owner buffers for the move proposers. Scratch state
/// like the [`ChainPool`]: excluded from equality, reset (not copied) by
/// plain clones, and kept by `clone_from` — which is what makes the
/// steady-state propose/apply stream allocation-free under the compiled
/// plan.
#[derive(Debug, Default)]
pub(crate) struct MoveScratch {
    pub(crate) fus: Vec<FuId>,
    pub(crate) best_fus: Vec<FuId>,
    pub(crate) regs: Vec<RegId>,
    pub(crate) best_regs: Vec<RegId>,
    pub(crate) values: Vec<ValueId>,
    pub(crate) slots: Vec<usize>,
    pub(crate) ops: Vec<OpId>,
    pub(crate) keys: Vec<TransferKey>,
    pub(crate) transfers: Vec<(TransferKey, RegId, RegId, usize)>,
    pub(crate) seen_states: Vec<ValueId>,
    pub(crate) owners: Vec<Owner>,
    pub(crate) affected: Vec<Owner>,
    pub(crate) occupied: Vec<(RegId, (ValueId, usize))>,
    pub(crate) uniform: Vec<(ValueId, RegId)>,
    pub(crate) ranking: SegmentRanking,
    pub(crate) preview: PreviewScratch,
}

/// An arena-lite free list of register buffers for [`Chain`] storage.
///
/// Chain mutations are the allocation hot spot of the move stream: every
/// journaled chain snapshot, every copy-chain creation and every rollback
/// used to allocate (and drop) a fresh `Vec<RegId>`. The pool recycles
/// those buffers instead — [`take`](ChainPool::take) pops a cleared buffer
/// off the free list (falling back to a fresh allocation only when the
/// list is empty) and [`recycle`](ChainPool::recycle) returns retired
/// buffers to it. Chains are a few registers long, so the retained
/// capacity is tiny; the free list is capped anyway as a safety valve.
///
/// Every buffer handed out by `take` carries at least `min_capacity` —
/// the longest lifetime in the design, so no chain snapshot can outgrow
/// it. Without the floor, a short buffer recycled from a short chain
/// could land on a long chain and force a growth reallocation mid-stream;
/// with it, each buffer pays at most one reserve on its first `take` and
/// the steady-state move stream never touches the allocator.
///
/// The pool is scratch state: it is excluded from equality and *not*
/// carried across [`Binding::clone`] (clones start empty; `clone_from`
/// keeps the destination's pool, which is why the search loops restore
/// best allocations with it).
#[derive(Debug, Default)]
pub(crate) struct ChainPool {
    free: Vec<Vec<RegId>>,
    min_capacity: usize,
    reused: usize,
    fresh: usize,
}

impl ChainPool {
    /// Free-list cap: beyond this, retired buffers are dropped. Far above
    /// anything the move set reaches (a move touches a handful of chains),
    /// so in practice the list never sheds capacity.
    const MAX_FREE: usize = 256;

    /// An empty pool whose buffers will all carry at least `min_capacity`.
    fn with_min_capacity(min_capacity: usize) -> Self {
        ChainPool { min_capacity, ..ChainPool::default() }
    }

    /// A cleared register buffer, recycled when one is available.
    fn take(&mut self) -> Vec<RegId> {
        match self.free.pop() {
            Some(mut buf) => {
                self.reused += 1;
                buf.reserve(self.min_capacity);
                buf
            }
            None => {
                self.fresh += 1;
                Vec::with_capacity(self.min_capacity)
            }
        }
    }

    /// Returns a retired buffer to the free list.
    fn recycle(&mut self, mut buf: Vec<RegId>) {
        if buf.capacity() > 0 && self.free.len() < Self::MAX_FREE {
            buf.clear();
            self.free.push(buf);
        }
    }
}

/// One imaged chain slot: `None` marks a dead slot; a live slot is
/// `(lo, regs)` — first covered lifetime index and one register per
/// covered index.
pub type ChainSlotImage = Option<(usize, Vec<RegId>)>;

/// An owned, context-free image of a complete allocation: exactly the
/// assignment state of a [`Binding`] (unit per operation, operand swaps,
/// chain slots, serving chains, pass-throughs) with every derived table
/// stripped. This is what a serving layer banks for a job's winner so a
/// later warm start can rebuild it with [`Binding::from_parts`] instead
/// of replaying the whole search.
///
/// Dead chain slots are preserved as `None`: slot indices are allocation
/// state (serving-chain references and transfer keys name them), so a
/// rebuilt binding must reproduce the slot layout exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindingParts {
    /// The executing unit of every operation, in operation order.
    pub op_fu: Vec<FuId>,
    /// The commutative operand-swap flag of every operation.
    pub op_swap: Vec<bool>,
    /// Chain slots per value ([`ChainSlotImage`] semantics); empty for
    /// values without storage.
    pub chains: Vec<Vec<ChainSlotImage>>,
    /// The chain slot serving each operand read, per operation and port.
    pub use_chain: Vec<[usize; 2]>,
    /// Pass-through units, keyed by transfer (sorted by key).
    pub passes: Vec<(TransferKey, FuId)>,
    /// The memory bank of each array, in array order (empty for scalar
    /// designs).
    pub array_banks: Vec<u32>,
}

impl BindingParts {
    /// Serializes the image to its one-token text form, the spelling of a
    /// warm seed's `parts=` field. No spaces (a warm seed's fields are
    /// whitespace-separated tokens). Sections are `;`-joined: `u=` one
    /// `<fu>.<swap>.<uc0>.<uc1>` entry per op (`,`), `c=` one chain list
    /// per value (`,`; slots `|`-joined, a dead slot is `-`, a live slot
    /// `<lo>:r.r.r`), `p=` the pass map (`,`; `<key>:<fu>` with the move
    /// trace's transfer-key spelling), `b=` the array banks (`.`; `-`
    /// when none). Round-trips exactly through [`BindingParts::decode`].
    pub fn encode(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(16 * self.op_fu.len() + 16);
        out.push_str("u=");
        for i in 0..self.op_fu.len() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}.{}.{}.{}",
                self.op_fu[i].index(),
                u8::from(self.op_swap[i]),
                self.use_chain[i][0],
                self.use_chain[i][1]
            );
        }
        out.push_str(";c=");
        for (vi, chains) in self.chains.iter().enumerate() {
            if vi > 0 {
                out.push(',');
            }
            for (si, slot) in chains.iter().enumerate() {
                if si > 0 {
                    out.push('|');
                }
                match slot {
                    None => out.push('-'),
                    Some((lo, regs)) => {
                        let _ = write!(out, "{lo}:");
                        for (ri, r) in regs.iter().enumerate() {
                            if ri > 0 {
                                out.push('.');
                            }
                            let _ = write!(out, "{}", r.index());
                        }
                    }
                }
            }
        }
        out.push_str(";p=");
        for (pi, (key, fu)) in self.passes.iter().enumerate() {
            if pi > 0 {
                out.push(',');
            }
            key.write_token(&mut out);
            let _ = write!(out, ":{}", fu.index());
        }
        out.push_str(";b=");
        if self.array_banks.is_empty() {
            out.push('-');
        } else {
            for (bi, bank) in self.array_banks.iter().enumerate() {
                if bi > 0 {
                    out.push('.');
                }
                let _ = write!(out, "{bank}");
            }
        }
        out
    }

    /// Parses the text form produced by [`BindingParts::encode`]. Input is
    /// untrusted wire data: every failure is a structured message, never
    /// a panic. Only the syntax is checked here — id ranges and allocation
    /// invariants are [`Binding::from_parts`]'s job.
    pub fn decode(text: &str) -> Result<BindingParts, String> {
        let mut parts = BindingParts {
            op_fu: Vec::new(),
            op_swap: Vec::new(),
            chains: Vec::new(),
            use_chain: Vec::new(),
            passes: Vec::new(),
            array_banks: Vec::new(),
        };
        for section in text.split(';') {
            let (tag, body) =
                section.split_once('=').ok_or_else(|| format!("bad parts section `{section}`"))?;
            match tag {
                "u" => {
                    for entry in body.split(',').filter(|e| !e.is_empty()) {
                        let nums: Vec<usize> = entry
                            .split('.')
                            .map(|p| p.parse().map_err(|_| format!("bad op entry `{entry}`")))
                            .collect::<Result<_, _>>()?;
                        let [fu, swap, uc0, uc1] = nums[..] else {
                            return Err(format!("bad op entry `{entry}`"));
                        };
                        parts.op_fu.push(FuId::from_index(fu));
                        parts.op_swap.push(swap != 0);
                        parts.use_chain.push([uc0, uc1]);
                    }
                }
                "c" => {
                    if body.is_empty() {
                        continue;
                    }
                    for value in body.split(',') {
                        let chains: Vec<ChainSlotImage> = if value.is_empty() {
                            Vec::new()
                        } else {
                            value
                                .split('|')
                                .map(decode_slot)
                                .collect::<Result<_, _>>()?
                        };
                        parts.chains.push(chains);
                    }
                }
                "p" => {
                    for entry in body.split(',').filter(|e| !e.is_empty()) {
                        let (key, fu) = entry
                            .rsplit_once(':')
                            .ok_or_else(|| format!("bad pass entry `{entry}`"))?;
                        let fu: usize =
                            fu.parse().map_err(|_| format!("bad pass entry `{entry}`"))?;
                        parts.passes.push((TransferKey::parse_token(key)?, FuId::from_index(fu)));
                    }
                }
                "b" => {
                    if body != "-" && !body.is_empty() {
                        parts.array_banks = body
                            .split('.')
                            .map(|p| p.parse().map_err(|_| format!("bad array bank `{p}`")))
                            .collect::<Result<_, _>>()?;
                    }
                }
                other => return Err(format!("unknown parts section `{other}`")),
            }
        }
        Ok(parts)
    }
}

fn decode_slot(text: &str) -> Result<ChainSlotImage, String> {
    if text == "-" {
        return Ok(None);
    }
    let (lo, regs) = text.split_once(':').ok_or_else(|| format!("bad chain slot `{text}`"))?;
    let lo: usize = lo.parse().map_err(|_| format!("bad chain slot `{text}`"))?;
    let regs: Vec<RegId> = regs
        .split('.')
        .map(|r| {
            r.parse::<usize>()
                .map(RegId::from_index)
                .map_err(|_| format!("bad chain slot `{text}`"))
        })
        .collect::<Result<_, _>>()?;
    if regs.is_empty() {
        return Err(format!("bad chain slot `{text}`"));
    }
    Ok(Some((lo, regs)))
}

/// A complete allocation under the SALSA extended binding model.
#[derive(Debug)]
pub struct Binding<'a> {
    pub(crate) ctx: &'a AllocContext<'a>,
    // Assignments.
    pub(crate) op_fu: Vec<FuId>,
    pub(crate) op_swap: Vec<bool>,
    pub(crate) chains: Vec<Vec<Option<Chain>>>,
    pub(crate) use_chain: Vec<[usize; 2]>,
    pub(crate) passes: PassMap,
    // Derived occupancy and cost state.
    pub(crate) fu_occ: Vec<Vec<Option<FuOcc>>>,
    pub(crate) fu_completes: Vec<Vec<Option<OpId>>>,
    pub(crate) reg_occ: Vec<Vec<Option<(ValueId, usize)>>>,
    pub(crate) conn: ConnectionMatrix,
    pub(crate) reg_seg_count: Vec<usize>,
    pub(crate) fu_item_count: Vec<usize>,
    /// The memory bank holding each array (indexed by array id). The
    /// memory cost terms are derived on demand from this table and the
    /// access placements — memory designs are small enough that an O(1)
    /// cache would cost more in journal traffic than the scan.
    array_bank: Vec<u32>,
    // O(1) cost caches, maintained on 0<->1 transitions of the counters.
    used_regs: usize,
    fu_area: usize,
    // Transaction state.
    journal: Vec<UndoOp>,
    recording: bool,
    // Scratch (excluded from equality and plain clones).
    pool: ChainPool,
    items_scratch: Vec<(Source, Sink)>,
    pub(crate) scratch: MoveScratch,
}

impl Clone for Binding<'_> {
    fn clone(&self) -> Self {
        Binding {
            ctx: self.ctx,
            op_fu: self.op_fu.clone(),
            op_swap: self.op_swap.clone(),
            chains: self.chains.clone(),
            use_chain: self.use_chain.clone(),
            passes: self.passes.clone(),
            fu_occ: self.fu_occ.clone(),
            fu_completes: self.fu_completes.clone(),
            reg_occ: self.reg_occ.clone(),
            conn: self.conn.clone(),
            reg_seg_count: self.reg_seg_count.clone(),
            fu_item_count: self.fu_item_count.clone(),
            array_bank: self.array_bank.clone(),
            used_regs: self.used_regs,
            fu_area: self.fu_area,
            journal: Vec::new(),
            recording: false,
            pool: ChainPool::with_min_capacity(self.pool.min_capacity),
            items_scratch: Vec::new(),
            scratch: MoveScratch::default(),
        }
    }

    /// Copies the allocation state while keeping every one of the
    /// destination's heap buffers — including the chain pool and the
    /// journal's capacity. The search loops restore best-so-far
    /// allocations with this, so steady-state trials run without touching
    /// the allocator at all.
    fn clone_from(&mut self, source: &Self) {
        debug_assert!(!self.recording, "clone_from inside a transaction");
        self.ctx = source.ctx;
        self.op_fu.clone_from(&source.op_fu);
        self.op_swap.clone_from(&source.op_swap);
        self.clone_chains_from(&source.chains);
        self.use_chain.clone_from(&source.use_chain);
        self.passes.clone_from(&source.passes);
        self.fu_occ.clone_from(&source.fu_occ);
        self.fu_completes.clone_from(&source.fu_completes);
        self.reg_occ.clone_from(&source.reg_occ);
        self.conn.clone_from(&source.conn);
        self.reg_seg_count.clone_from(&source.reg_seg_count);
        self.fu_item_count.clone_from(&source.fu_item_count);
        self.array_bank.clone_from(&source.array_bank);
        self.used_regs = source.used_regs;
        self.fu_area = source.fu_area;
        self.journal.clear();
        self.recording = false;
    }
}

impl Binding<'_> {
    /// Copies every chain slot of `source` into this binding's, reusing a
    /// chain's register buffer where both hold a chain and going through
    /// the pool where only one does: a copy chain one side has and the
    /// other lacks would otherwise allocate or free on every restore.
    fn clone_chains_from(&mut self, source: &[Vec<Option<Chain>>]) {
        for (slots, from) in self.chains.iter_mut().zip(source) {
            while slots.len() > from.len() {
                if let Some(Some(chain)) = slots.pop() {
                    self.pool.recycle(chain.regs);
                }
            }
            for (i, from) in from.iter().enumerate() {
                if i == slots.len() {
                    slots.push(None);
                }
                match (&mut slots[i], from) {
                    (Some(chain), Some(from)) => chain.clone_from(from),
                    (slot @ None, Some(from)) => {
                        let mut regs = self.pool.take();
                        regs.extend_from_slice(&from.regs);
                        *slot = Some(Chain { lo: from.lo, regs });
                    }
                    (slot, None) => {
                        if let Some(chain) = slot.take() {
                            self.pool.recycle(chain.regs);
                        }
                    }
                }
            }
        }
    }
}

/// Equality of allocation state: assignments, occupancy, connections and
/// cost caches. The context reference and any in-flight transaction journal
/// are deliberately excluded — two bindings are equal when they describe
/// the same allocation.
impl PartialEq for Binding<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.op_fu == other.op_fu
            && self.op_swap == other.op_swap
            && self.chains == other.chains
            && self.use_chain == other.use_chain
            && self.passes == other.passes
            && self.fu_occ == other.fu_occ
            && self.fu_completes == other.fu_completes
            && self.reg_occ == other.reg_occ
            && self.conn == other.conn
            && self.reg_seg_count == other.reg_seg_count
            && self.fu_item_count == other.fu_item_count
            && self.array_bank == other.array_bank
            && self.used_regs == other.used_regs
            && self.fu_area == other.fu_area
    }
}

impl Eq for Binding<'_> {}

impl<'a> Binding<'a> {
    /// Extracts the serializable assignment state. Round-trips through
    /// [`from_parts`](Self::from_parts) to an allocation equal to this one
    /// (`PartialEq` covers every derived table, so equality here means
    /// byte-identical downstream reports).
    pub fn to_parts(&self) -> BindingParts {
        BindingParts {
            op_fu: self.op_fu.clone(),
            op_swap: self.op_swap.clone(),
            chains: self
                .chains
                .iter()
                .map(|slots| {
                    slots.iter().map(|c| c.as_ref().map(|c| (c.lo, c.regs.clone()))).collect()
                })
                .collect(),
            use_chain: self.use_chain.clone(),
            passes: self.passes.iter().map(|(&key, &fu)| (key, fu)).collect(),
            array_banks: self.array_bank.clone(),
        }
    }

    /// Rebuilds an allocation from shipped assignment state, deriving all
    /// occupancy tables and the connection matrix from scratch.
    ///
    /// Every structural invariant the derivation relies on is validated
    /// first — table lengths, id ranges, chain coverage, occupancy
    /// conflicts, serving-chain liveness, pass-transfer activity — so
    /// arbitrary (untrusted) parts are rejected with an error instead of
    /// corrupting state. Validation does not prove the parts describe the
    /// *claimed* allocation; callers verifying a remote result should
    /// compare the rebuilt binding's cost against the reported one.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn from_parts(ctx: &'a AllocContext<'a>, parts: &BindingParts) -> Result<Self, String> {
        let num_ops = ctx.graph.num_ops();
        let num_values = ctx.graph.num_values();
        let num_fus = ctx.datapath.num_fus();
        let num_regs = ctx.datapath.num_regs();
        if parts.op_fu.len() != num_ops
            || parts.op_swap.len() != num_ops
            || parts.use_chain.len() != num_ops
            || parts.chains.len() != num_values
            || parts.array_banks.len() != ctx.plan.num_arrays
        {
            return Err("assignment tables do not match the design's dimensions".into());
        }
        if let Some(&bad) =
            parts.array_banks.iter().find(|&&b| b as usize >= ctx.datapath.num_banks())
        {
            return Err(format!("array bound to nonexistent memory bank {bad}"));
        }
        // Operand swap (F3) is only sound on commutative ops: a swapped
        // `sub` computes the negated difference. Images from outside the
        // search (warm seeds remapped across an edit) can carry a swap
        // onto an op whose kind no longer commutes.
        if let Some(op) = ctx
            .graph
            .ops()
            .find(|o| parts.op_swap[o.id().index()] && !o.kind().is_commutative())
        {
            return Err(format!("non-commutative op {} has swapped operands", op.id()));
        }

        let n = ctx.n_steps();
        let mut binding = Binding {
            ctx,
            op_fu: vec![FuId::from_index(0); num_ops],
            op_swap: vec![false; num_ops],
            chains: vec![Vec::new(); num_values],
            use_chain: vec![[0, 0]; num_ops],
            passes: PassMap::default(),
            fu_occ: vec![vec![None; n]; num_fus],
            fu_completes: vec![vec![None; n]; num_fus],
            reg_occ: vec![vec![None; n]; num_regs],
            conn: ConnectionMatrix::with_capacity(num_fus, num_regs),
            reg_seg_count: vec![0; num_regs],
            fu_item_count: vec![0; num_fus],
            array_bank: default_array_banks(ctx),
            used_regs: 0,
            fu_area: 0,
            journal: Vec::new(),
            recording: false,
            pool: ChainPool::with_min_capacity(
                ctx.plan.value_lt_len.iter().map(|&l| l as usize).max().unwrap_or(0),
            ),
            items_scratch: Vec::new(),
            scratch: MoveScratch::default(),
        };

        // Operations: class- and conflict-checked unit placement. This is
        // deliberately `occupy_op`'s own invariant set, not `fu_exec_free`
        // (whose completion-step obstruction test is a *move* legality
        // rule and rejects reachable pipelined overlaps when ops are
        // placed one at a time).
        for (op, &fu) in ctx.graph.op_ids().zip(&parts.op_fu) {
            if fu.index() >= num_fus {
                return Err(format!("op {op} bound to nonexistent unit {fu}"));
            }
            if ctx.datapath.fu(fu).class() != ctx.class_of(op) {
                return Err(format!("op {op} bound to wrong-class unit {fu}"));
            }
            let free = ctx.occupied_steps(op).all(|s| binding.fu_occ[fu.index()][s].is_none())
                && binding.fu_completes[fu.index()][ctx.completion_step(op)].is_none();
            if !free {
                return Err(format!("op {op} conflicts with another op on {fu}"));
            }
            binding.occupy_op(op, fu);
        }
        binding.op_swap.clone_from(&parts.op_swap);
        binding.array_bank.clone_from(&parts.array_banks);

        // Chains: range-validated against the lifetimes, then occupied
        // segment by segment with explicit conflict checks.
        for (value, slots) in ctx.graph.value_ids().zip(&parts.chains) {
            let stored = ctx.lifetimes.get(value).is_some_and(|lt| !lt.is_empty());
            if slots.is_empty() {
                if stored {
                    return Err(format!("stored value {value} has no chains"));
                }
                continue;
            }
            if !stored {
                return Err(format!("chains on unstored value {value}"));
            }
            let lt = ctx.lifetimes.get(value).expect("checked stored");
            match &slots[0] {
                // The primal chain covers the whole lifetime; copy feeds
                // and boundary transfers index into it unconditionally.
                Some((0, regs)) if regs.len() == lt.len() => {}
                _ => return Err(format!("primal chain of {value} does not cover its lifetime")),
            }
            for (slot, entry) in slots.iter().enumerate() {
                let Some((lo, regs)) = entry else { continue };
                if regs.is_empty() || lo + regs.len() > lt.len() {
                    return Err(format!("chain {value}.{slot} exceeds the lifetime"));
                }
                if regs.iter().any(|r| r.index() >= num_regs) {
                    return Err(format!("chain {value}.{slot} uses a nonexistent register"));
                }
            }
            binding.chains[value.index()] = slots
                .iter()
                .map(|entry| {
                    entry.as_ref().map(|(lo, regs)| Chain { lo: *lo, regs: regs.clone() })
                })
                .collect();
            for (slot, entry) in slots.iter().enumerate() {
                let Some((lo, regs)) = entry else { continue };
                for idx in *lo..lo + regs.len() {
                    let reg = regs[idx - lo];
                    let step = lt.steps()[idx];
                    if binding.reg_occ[reg.index()][step].is_some() {
                        return Err(format!("register conflict at {reg} step {step}"));
                    }
                    binding.occupy_seg(value, slot, idx);
                }
            }
        }

        // Serving chains: every operand read must name a live chain
        // covering its read index (connection accounting relies on it).
        for op in ctx.graph.op_ids() {
            for &(port, operand, idx) in &ctx.plan.op_reads[op.index()] {
                let slot = parts.use_chain[op.index()][port as usize];
                match binding.chain(operand, slot) {
                    Some(chain) if chain.covers(idx as usize) => {}
                    _ => {
                        return Err(format!(
                            "op {op} reads {operand} through dead or short chain slot {slot}"
                        ));
                    }
                }
            }
        }
        binding.use_chain.clone_from(&parts.use_chain);

        // Passes: each key must name an in-range value, resolve to an
        // active transfer, and land on a unit free to pass at that step.
        for &(key, fu) in &parts.passes {
            let value = match key {
                TransferKey::Intra { value, .. } | TransferKey::CopyFeed { value, .. } => value,
                TransferKey::Boundary { state } => state,
            };
            if value.index() >= num_values || fu.index() >= num_fus {
                return Err(format!("pass {key} -> {fu} references out-of-range ids"));
            }
            let Some((_, _, step)) = binding.transfer_endpoints(key) else {
                return Err(format!("pass {key} does not name an active transfer"));
            };
            if !binding.fu_pass_free(fu, step) {
                return Err(format!("pass {key} unit {fu} is not free at step {step}"));
            }
            binding.set_pass(key, Some(fu));
        }

        // Connections derive from the now-complete assignment state.
        for owner in binding.all_owners() {
            binding.assert_owner(owner);
        }
        Ok(binding)
    }

    /// The context this binding runs against.
    pub fn ctx(&self) -> &AllocContext<'a> {
        self.ctx
    }

    // ------------------------------------------------------------------
    // Read accessors.
    // ------------------------------------------------------------------

    /// The unit executing an operation.
    pub fn op_fu(&self, op: OpId) -> FuId {
        self.op_fu[op.index()]
    }

    /// Whether the operation's operands are delivered on swapped ports
    /// (move F3).
    pub fn op_swapped(&self, op: OpId) -> bool {
        self.op_swap[op.index()]
    }

    /// Iterates over the live chains of a value as `(slot, chain)`.
    pub fn chains_of(&self, value: ValueId) -> impl Iterator<Item = (usize, &Chain)> + '_ {
        self.chains[value.index()]
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (i, c)))
    }

    /// The primal chain of a stored value, if the value has storage.
    pub fn primal(&self, value: ValueId) -> Option<&Chain> {
        self.chains[value.index()].first().and_then(|c| c.as_ref())
    }

    /// The chain slot serving an operand read.
    pub fn use_chain(&self, op: OpId, port: usize) -> usize {
        self.use_chain[op.index()][port]
    }

    /// The pass-through assignments.
    pub fn passes(&self) -> &PassMap {
        &self.passes
    }

    /// Number of live copy chains of a value.
    pub fn num_copies(&self, value: ValueId) -> usize {
        self.chains_of(value).filter(|(slot, _)| *slot > 0).count()
    }

    /// The current interconnect state.
    pub fn connections(&self) -> &ConnectionMatrix {
        &self.conn
    }

    /// Chain-buffer pool accounting as `(reused, fresh)`: how many chain
    /// register buffers were recycled from the pool versus freshly
    /// allocated since this binding was created (or plain-cloned — clones
    /// start with an empty pool). On any sustained move stream, reused
    /// dwarfs fresh.
    pub fn chain_pool_stats(&self) -> (usize, usize) {
        (self.pool.reused, self.pool.fresh)
    }

    /// Measured resource usage. `used_regs` and `fu_area` are cached
    /// incrementally on counter transitions, and the connection matrix
    /// keeps its totals running; the memory terms are rederived from the
    /// (tiny) access set on each call — see
    /// [`memory_terms`](Self::memory_terms).
    pub fn breakdown(&self) -> CostBreakdown {
        let (mem_banks, addr_mux, bank_conflicts) = self.memory_terms();
        CostBreakdown {
            fu_area: self.fu_area,
            used_regs: self.used_regs,
            mux_equiv: self.conn.mux_equiv(),
            connections: self.conn.connections(),
            mem_banks,
            addr_mux,
            bank_conflicts,
        }
    }

    /// From-scratch recomputation of [`breakdown`](Self::breakdown) by
    /// scanning the pools — validation only.
    pub fn recomputed_breakdown(&self) -> CostBreakdown {
        let fu_area = self
            .ctx
            .datapath
            .fus()
            .filter(|fu| self.fu_item_count[fu.id().index()] > 0)
            .map(|fu| self.ctx.library.spec(fu.class()).area)
            .sum();
        let (mem_banks, addr_mux, bank_conflicts) = self.memory_terms();
        CostBreakdown {
            fu_area,
            used_regs: self.reg_seg_count.iter().filter(|&&c| c > 0).count(),
            mux_equiv: self.conn.mux_equiv(),
            connections: self.conn.connections(),
            mem_banks,
            addr_mux,
            bank_conflicts,
        }
    }

    /// The memory cost terms `(mem_banks, addr_mux, bank_conflicts)`:
    /// distinct banks holding an array, equivalent 2-1 address muxes
    /// (a port serving `k` distinct arrays needs `k - 1`), and accesses
    /// issued on a port outside their array's bank. Derived on demand —
    /// the scans are quadratic in the access/array counts, which are tiny
    /// (an allocation-free pass over prebuilt plan tables), so this stays
    /// off the allocator and cheaper than journaling a cache.
    fn memory_terms(&self) -> (usize, usize, usize) {
        let plan = &*self.ctx.plan;
        if plan.mem_ops.is_empty() {
            return (0, 0, 0);
        }
        let mut mem_banks = 0;
        for (i, &b) in self.array_bank.iter().enumerate() {
            if !self.array_bank[..i].contains(&b) {
                mem_banks += 1;
            }
        }
        let mut port_array_pairs = 0;
        let mut used_ports = 0;
        let mut bank_conflicts = 0;
        for (i, &op) in plan.mem_ops.iter().enumerate() {
            let fu = self.op_fu[op.index()];
            let array = plan.op_array[op.index()].expect("memory op names an array") as usize;
            if self.ctx.datapath.bank_of_mem_fu(fu) != Some(self.array_bank[array] as usize) {
                bank_conflicts += 1;
            }
            let mut new_port = true;
            let mut new_pair = true;
            for &prev in &plan.mem_ops[..i] {
                if self.op_fu[prev.index()] == fu {
                    new_port = false;
                    if plan.op_array[prev.index()] == plan.op_array[op.index()] {
                        new_pair = false;
                        break;
                    }
                }
            }
            used_ports += usize::from(new_port);
            port_array_pairs += usize::from(new_pair);
        }
        (mem_banks, port_array_pairs - used_ports, bank_conflicts)
    }

    /// The memory bank currently holding an array.
    pub fn array_bank(&self, array: usize) -> u32 {
        self.array_bank[array]
    }

    /// The bank of every array, in array order.
    pub fn array_banks(&self) -> &[u32] {
        &self.array_bank
    }

    /// Re-banks an array (journaled). Callers re-port the array's accesses
    /// themselves — the table only records the assignment.
    pub(crate) fn set_array_bank(&mut self, array: usize, bank: u32) {
        debug_assert!((bank as usize) < self.ctx.datapath.num_banks());
        self.j(UndoOp::ArrayBank { array, old: self.array_bank[array] });
        self.array_bank[array] = bank;
    }

    /// Returns `true` if the register is unoccupied at the step.
    pub fn reg_free(&self, reg: RegId, step: usize) -> bool {
        self.reg_occ[reg.index()][step].is_none()
    }

    /// The occupant of a register at a step.
    pub fn reg_occupant(&self, reg: RegId, step: usize) -> Option<(ValueId, usize)> {
        self.reg_occ[reg.index()][step]
    }

    /// Returns `true` if `fu` could execute `op` (class matches, occupancy
    /// window free, completion step unobstructed).
    pub fn fu_exec_free(&self, fu: FuId, op: OpId) -> bool {
        if self.ctx.datapath.fu(fu).class() != self.ctx.class_of(op) {
            return false;
        }
        let row = &self.fu_occ[fu.index()];
        if !self.ctx.occupied_steps(op).all(|s| row[s].is_none()) {
            return false;
        }
        let done = self.ctx.completion_step(op);
        row[done].is_none() && self.fu_completes[fu.index()][done].is_none()
    }

    /// Returns `true` if `fu` can act as pass-through at `step`.
    pub fn fu_pass_free(&self, fu: FuId, step: usize) -> bool {
        let class = self.ctx.datapath.fu(fu).class();
        self.ctx.library.spec(class).can_pass_through
            && self.fu_occ[fu.index()][step].is_none()
            && self.fu_completes[fu.index()][step].is_none()
    }

    // ------------------------------------------------------------------
    // Transfers.
    // ------------------------------------------------------------------

    /// Resolves a transfer key to `(source_reg, dest_reg, step)`, or `None`
    /// when no register-to-register movement is required (coincident
    /// registers, producer-direct boundary, producer-fed copy).
    pub fn transfer_endpoints(&self, key: TransferKey) -> Option<(RegId, RegId, usize)> {
        match key {
            TransferKey::Intra { value, chain, idx } => {
                let c = self.chain(value, chain)?;
                if !c.covers(idx) || !c.covers(idx + 1) {
                    return None;
                }
                let (a, b) = (c.reg_at(idx), c.reg_at(idx + 1));
                if a == b {
                    return None;
                }
                let step = self.ctx.lifetimes.get(value)?.steps()[idx];
                Some((a, b, step))
            }
            TransferKey::CopyFeed { value, chain } => {
                let c = self.chain(value, chain)?;
                if chain == 0 || c.lo == 0 {
                    return None;
                }
                let donor = self.primal(value)?.reg_at(c.lo - 1);
                let dst = c.regs[0];
                if donor == dst {
                    return None;
                }
                let step = self.ctx.lifetimes.get(value)?.steps()[c.lo - 1];
                Some((donor, dst, step))
            }
            TransferKey::Boundary { state } => {
                let src_value = self.ctx.graph.value(state).feedback_from()?;
                let src_lt = self.ctx.lifetimes.get(src_value)?;
                if src_lt.is_empty() {
                    return None; // producer writes the state register directly
                }
                let src = self.primal(src_value)?.reg_at(src_lt.len() - 1);
                let dst = self.primal(state)?.regs[0];
                if src == dst {
                    return None;
                }
                Some((src, dst, self.ctx.n_steps() - 1))
            }
        }
    }

    /// Replaces `out` with every active transfer (one that moves a value
    /// between two distinct registers) as `(key, src, dst, step)`, in
    /// first-encounter order over the values in id order — the order of
    /// [`transfer_keys_into`](Self::transfer_keys_into), with the
    /// endpoints of [`transfer_endpoints`](Self::transfer_endpoints).
    /// Chain transfers are read off the chains' register pairs directly;
    /// only boundary keys are resolved through `transfer_endpoints`. A
    /// boundary key is listed by both its state and its source value, and
    /// only its first listing counts.
    pub(crate) fn active_transfers_into(
        &mut self,
        out: &mut Vec<(TransferKey, RegId, RegId, usize)>,
    ) {
        let mut seen_states = std::mem::take(&mut self.scratch.seen_states);
        seen_states.clear();
        out.clear();
        let ctx = self.ctx;
        let mut push = |key: TransferKey, src: RegId, dst: RegId, step: usize| {
            if src != dst {
                out.push((key, src, dst, step));
            }
        };
        for value in ctx.graph.value_ids() {
            if let Some(primal) = self.primal(value) {
                let steps = ctx.lifetimes.get(value).expect("stored").steps();
                for (slot, chain) in self.chains_of(value) {
                    let lo = chain.lo;
                    for (i, pair) in chain.regs.windows(2).enumerate() {
                        let key = TransferKey::Intra { value, chain: slot, idx: lo + i };
                        push(key, pair[0], pair[1], steps[lo + i]);
                    }
                    if slot > 0 && lo > 0 {
                        let key = TransferKey::CopyFeed { value, chain: slot };
                        push(key, primal.reg_at(lo - 1), chain.regs[0], steps[lo - 1]);
                    }
                }
            }
            for &key in &ctx.plan.value_boundaries[value.index()] {
                if let TransferKey::Boundary { state } = key {
                    if seen_states.contains(&state) {
                        continue;
                    }
                    seen_states.push(state);
                }
                if let Some((src, dst, step)) = self.transfer_endpoints(key) {
                    push(key, src, dst, step);
                }
            }
        }
        self.scratch.seen_states = seen_states;
    }

    pub(crate) fn chain(&self, value: ValueId, slot: usize) -> Option<&Chain> {
        self.chains[value.index()].get(slot).and_then(|c| c.as_ref())
    }

    /// All structural transfer keys of a value in its current state (live
    /// chains' adjacencies, copy feeds, boundaries it participates in).
    pub fn transfer_keys_of(&self, value: ValueId) -> Vec<TransferKey> {
        let mut keys = Vec::new();
        self.transfer_keys_into(value, &mut keys);
        keys
    }

    /// Appends a value's structural transfer keys to `out` (not cleared) —
    /// the allocation-free core of
    /// [`transfer_keys_of`](Self::transfer_keys_of). The boundary keys are
    /// binding-independent and come from the compiled plan.
    pub(crate) fn transfer_keys_into(&self, value: ValueId, out: &mut Vec<TransferKey>) {
        for (slot, chain) in self.chains_of(value) {
            for idx in chain.lo..chain.hi() {
                out.push(TransferKey::Intra { value, chain: slot, idx });
            }
            if slot > 0 {
                out.push(TransferKey::CopyFeed { value, chain: slot });
            }
        }
        out.extend(self.ctx.plan.value_boundaries[value.index()].iter().copied());
    }

    // ------------------------------------------------------------------
    // Owner-based connection accounting.
    // ------------------------------------------------------------------

    /// Appends the owner set whose connection items may reference a
    /// value's registers: its producer, its consumers, its transfers, plus
    /// the producer of its feedback source when that source is
    /// boundary-born (it writes this state's register directly). The
    /// static operation owners come pre-sorted from the compiled plan; the
    /// appended list as a whole is *unsorted* — callers sort and
    /// deduplicate once over all values they collect (which reproduces the
    /// order of the `BTreeSet` this replaced, since `Owner` orders ops
    /// before transfers).
    pub(crate) fn owners_of_value_into(&self, value: ValueId, out: &mut Vec<Owner>) {
        out.extend(
            self.ctx.plan.value_op_owners[value.index()].iter().map(|&op| Owner::Op(op)),
        );
        for (slot, chain) in self.chains_of(value) {
            for idx in chain.lo..chain.hi() {
                out.push(Owner::Transfer(TransferKey::Intra { value, chain: slot, idx }));
            }
            if slot > 0 {
                out.push(Owner::Transfer(TransferKey::CopyFeed { value, chain: slot }));
            }
        }
        out.extend(
            self.ctx.plan.value_boundaries[value.index()].iter().map(|&k| Owner::Transfer(k)),
        );
    }

    /// Every owner in the binding (for full rebuilds and validation).
    pub(crate) fn all_owners(&self) -> Vec<Owner> {
        let mut owners: Vec<Owner> = self.ctx.graph.op_ids().map(Owner::Op).collect();
        for value in self.ctx.graph.value_ids() {
            for key in self.transfer_keys_of(value) {
                // Boundary keys are enumerated both from the state and the
                // source; deduplicate.
                if !owners.contains(&Owner::Transfer(key)) {
                    owners.push(Owner::Transfer(key));
                }
            }
        }
        owners
    }

    /// Appends the connection uses an owner currently implies to `out`
    /// (which is *not* cleared — callers reuse one buffer across owners).
    /// The allocation-free core of [`items`](Self::items): the hot paths
    /// ([`assert_owner`](Self::assert_owner),
    /// [`retract_owner`](Self::retract_owner), R2's ranking) drive it
    /// through scratch buffers so the steady-state move stream stays off
    /// the global allocator.
    pub(crate) fn items_into(&self, owner: Owner, out: &mut Vec<(Source, Sink)>) {
        match owner {
            Owner::Op(op_id) => {
                // The schedule-static parts of an op's items (which
                // operands are stored, their lifetime index at the issue
                // step, the output's boundary-born states) come from the
                // compiled plan; only the unit, swap, serving chains and
                // their registers are binding state.
                let plan = &self.ctx.plan;
                let fu = self.op_fu[op_id.index()];
                for &(port, operand, idx) in &plan.op_reads[op_id.index()] {
                    let port = port as usize;
                    let slot = self.use_chain[op_id.index()][port];
                    let chain = self.chain(operand, slot).expect("use references a live chain");
                    let actual = if self.op_swap[op_id.index()] { 1 - port } else { port };
                    out.push((
                        Source::RegOut(chain.reg_at(idx as usize)),
                        Sink::FuIn(fu, Port::from_index(actual)),
                    ));
                }
                if plan.op_out_empty[op_id.index()] {
                    for &state in &plan.op_out_states[op_id.index()] {
                        let dst = self.primal(state).expect("states have storage").regs[0];
                        out.push((Source::FuOut(fu), Sink::RegIn(dst)));
                    }
                } else {
                    let out_value = plan.op_output[op_id.index()];
                    for (_, chain) in self.chains_of(out_value) {
                        if chain.lo == 0 {
                            out.push((Source::FuOut(fu), Sink::RegIn(chain.regs[0])));
                        }
                    }
                }
            }
            Owner::Transfer(key) => match self.transfer_endpoints(key) {
                None => {}
                Some((src, dst, _)) => match self.passes.get(&key) {
                    Some(&g) => {
                        out.push((Source::RegOut(src), Sink::FuIn(g, Port::Left)));
                        out.push((Source::FuOut(g), Sink::RegIn(dst)));
                    }
                    None => out.push((Source::RegOut(src), Sink::RegIn(dst))),
                },
            },
        }
    }

    /// The connection uses an owner currently implies, as a fresh vector —
    /// validation paths only; the move stream uses
    /// [`items_into`](Self::items_into) through the scratch buffer.
    pub(crate) fn items(&self, owner: Owner) -> Vec<(Source, Sink)> {
        let mut items = Vec::new();
        self.items_into(owner, &mut items);
        items
    }

    /// What one connection item would add to the current matrix, in the
    /// weights of [`added_item_cost`]. The moves rank candidate targets
    /// by the sum over the items a target implies; removals are identical
    /// across candidates, so ranking by additions is sound.
    pub(crate) fn item_cost(&self, src: Source, sink: Sink) -> u64 {
        added_item_cost(self.conn.contains(src, sink), self.conn.fanin(sink) > 0)
    }

    pub(crate) fn assert_owner(&mut self, owner: Owner) {
        let mut items = std::mem::take(&mut self.items_scratch);
        items.clear();
        self.items_into(owner, &mut items);
        for &(src, sink) in &items {
            self.conn.add(src, sink);
            self.j(UndoOp::ConnAdd { src, sink });
        }
        items.clear();
        self.items_scratch = items;
    }

    pub(crate) fn retract_owner(&mut self, owner: Owner) {
        let mut items = std::mem::take(&mut self.items_scratch);
        items.clear();
        self.items_into(owner, &mut items);
        for &(src, sink) in &items {
            self.conn.remove(src, sink);
            self.j(UndoOp::ConnRemove { src, sink });
        }
        items.clear();
        self.items_scratch = items;
    }

    // ------------------------------------------------------------------
    // Transactions: the undo journal.
    // ------------------------------------------------------------------

    /// Opens a transaction: every primitive mutation from here on is
    /// journaled until [`commit`](Self::commit) or
    /// [`rollback`](Self::rollback). Transactions do not nest.
    pub fn begin(&mut self) {
        debug_assert!(!self.recording, "transactions do not nest");
        debug_assert!(self.journal.is_empty(), "journal leak from a previous transaction");
        self.recording = true;
    }

    /// Accepts the mutations since [`begin`](Self::begin) and discards the
    /// journal (retaining its capacity for the next transaction). Chain
    /// snapshots held by the discarded journal return to the pool instead
    /// of being dropped.
    pub fn commit(&mut self) {
        debug_assert!(self.recording, "commit outside a transaction");
        self.recording = false;
        for entry in self.journal.drain(..) {
            if let UndoOp::ChainSlot { old: Some(chain), .. } = entry {
                self.pool.recycle(chain.regs);
            }
        }
    }

    /// Reverts every mutation since [`begin`](Self::begin) by replaying the
    /// journal newest-first, restoring the binding cell-for-cell.
    pub fn rollback(&mut self) {
        debug_assert!(self.recording, "rollback outside a transaction");
        self.recording = false;
        while let Some(entry) = self.journal.pop() {
            self.undo(entry);
        }
    }

    /// Returns `true` while a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.recording
    }

    /// The current journal length — a checkpoint for
    /// [`undo_to`](Self::undo_to). Only meaningful inside a transaction.
    pub(crate) fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Reverts every mutation journaled after the `mark` checkpoint,
    /// newest-first, leaving the transaction open. This is how move
    /// *proposal* explores candidate placements (which requires transient
    /// mutations for exact cost ranking) without disturbing the enclosing
    /// transaction: checkpoint, mutate, rank, revert.
    pub(crate) fn undo_to(&mut self, mark: usize) {
        debug_assert!(self.recording, "undo_to outside a transaction");
        debug_assert!(mark <= self.journal.len(), "checkpoint from a different transaction");
        while self.journal.len() > mark {
            let entry = self.journal.pop().expect("length checked");
            self.undo(entry);
        }
    }

    #[inline]
    fn j(&mut self, entry: UndoOp) {
        if self.recording {
            self.journal.push(entry);
        }
    }

    fn undo(&mut self, entry: UndoOp) {
        match entry {
            UndoOp::OpFu { op, old } => self.op_fu[op.index()] = old,
            UndoOp::OpSwap { op, old } => self.op_swap[op.index()] = old,
            UndoOp::UseChain { op, port, old } => self.use_chain[op.index()][port] = old,
            UndoOp::FuOccCell { fu, step, old } => self.fu_occ[fu.index()][step] = old,
            UndoOp::FuCompleteCell { fu, step, old } => {
                self.fu_completes[fu.index()][step] = old;
            }
            UndoOp::RegOccCell { reg, step, old } => self.reg_occ[reg.index()][step] = old,
            // The apply_* setters re-derive the used_regs/fu_area caches
            // from the counter transition, so undo keeps them exact.
            UndoOp::FuItemCount { fu, old } => self.apply_fu_item_count(fu, old),
            UndoOp::RegSegCount { reg, old } => self.apply_reg_seg_count(reg, old),
            UndoOp::PassEntry { key, old } => match old {
                Some(fu) => {
                    self.passes.insert(key, fu);
                }
                None => {
                    self.passes.remove(&key);
                }
            },
            UndoOp::ChainSlot { value, slot, old } => {
                let displaced = std::mem::replace(&mut self.chains[value.index()][slot], old);
                if let Some(chain) = displaced {
                    self.pool.recycle(chain.regs);
                }
            }
            UndoOp::ChainSlotPushed { value } => {
                let popped = self.chains[value.index()].pop();
                debug_assert_eq!(popped, Some(None), "pushed slot must be empty at undo");
            }
            UndoOp::ConnAdd { src, sink } => self.conn.remove(src, sink),
            UndoOp::ConnRemove { src, sink } => self.conn.add(src, sink),
            UndoOp::ArrayBank { array, old } => self.array_bank[array] = old,
            UndoOp::FuSwap { a, z } => self.swap_fus(a, z),
        }
    }

    // ------------------------------------------------------------------
    // Journaled cell/counter setters: all primitive mutations funnel
    // through these so every write is reversible.
    // ------------------------------------------------------------------

    fn set_fu_occ_cell(&mut self, fu: FuId, step: usize, new: Option<FuOcc>) {
        self.j(UndoOp::FuOccCell { fu, step, old: self.fu_occ[fu.index()][step] });
        self.fu_occ[fu.index()][step] = new;
    }

    fn set_fu_complete_cell(&mut self, fu: FuId, step: usize, new: Option<OpId>) {
        self.j(UndoOp::FuCompleteCell { fu, step, old: self.fu_completes[fu.index()][step] });
        self.fu_completes[fu.index()][step] = new;
    }

    fn set_reg_occ_cell(&mut self, reg: RegId, step: usize, new: Option<(ValueId, usize)>) {
        self.j(UndoOp::RegOccCell { reg, step, old: self.reg_occ[reg.index()][step] });
        self.reg_occ[reg.index()][step] = new;
    }

    fn journal_chain(&mut self, value: ValueId, slot: usize) {
        if !self.recording {
            return;
        }
        // Snapshot into a pooled buffer instead of `Chain::clone` — chain
        // journaling is the allocation hot spot of the move stream.
        let old = if self.chains[value.index()][slot].is_some() {
            let mut regs = self.pool.take();
            let chain = self.chains[value.index()][slot].as_ref().unwrap();
            regs.extend_from_slice(&chain.regs);
            Some(Chain { lo: chain.lo, regs })
        } else {
            None
        };
        self.journal.push(UndoOp::ChainSlot { value, slot, old });
    }

    pub(crate) fn fu_area_of(&self, fu: FuId) -> usize {
        self.ctx.library.spec(self.ctx.datapath.fu(fu).class()).area
    }

    /// Writes a fu item count, moving the `fu_area` cache across 0<->1
    /// transitions.
    fn apply_fu_item_count(&mut self, fu: FuId, new: usize) {
        let old = self.fu_item_count[fu.index()];
        self.fu_item_count[fu.index()] = new;
        if old == 0 && new > 0 {
            self.fu_area += self.fu_area_of(fu);
        } else if old > 0 && new == 0 {
            self.fu_area -= self.fu_area_of(fu);
        }
    }

    /// Writes a register segment count, moving the `used_regs` cache across
    /// 0<->1 transitions.
    fn apply_reg_seg_count(&mut self, reg: RegId, new: usize) {
        let old = self.reg_seg_count[reg.index()];
        self.reg_seg_count[reg.index()] = new;
        if old == 0 && new > 0 {
            self.used_regs += 1;
        } else if old > 0 && new == 0 {
            self.used_regs -= 1;
        }
    }

    fn fu_item_inc(&mut self, fu: FuId) {
        let old = self.fu_item_count[fu.index()];
        self.j(UndoOp::FuItemCount { fu, old });
        self.apply_fu_item_count(fu, old + 1);
    }

    fn fu_item_dec(&mut self, fu: FuId) {
        let old = self.fu_item_count[fu.index()];
        self.j(UndoOp::FuItemCount { fu, old });
        self.apply_fu_item_count(fu, old - 1);
    }

    fn reg_seg_inc(&mut self, reg: RegId) {
        let old = self.reg_seg_count[reg.index()];
        self.j(UndoOp::RegSegCount { reg, old });
        self.apply_reg_seg_count(reg, old + 1);
    }

    fn reg_seg_dec(&mut self, reg: RegId) {
        let old = self.reg_seg_count[reg.index()];
        self.j(UndoOp::RegSegCount { reg, old });
        self.apply_reg_seg_count(reg, old - 1);
    }

    // ------------------------------------------------------------------
    // Occupancy mutation primitives (no connection accounting; callers
    // retract/assert owners around these).
    // ------------------------------------------------------------------

    /// Exchanges the complete bindings (operations and pass-throughs) of
    /// two same-class units as one journaled relabel. A unit is only its
    /// id and class, so every cost term is invariant under the swap; the
    /// tables end cell for cell where retracting both units' cargo and
    /// re-occupying it on the other unit would leave them.
    pub(crate) fn exchange_fus(&mut self, a: FuId, z: FuId) {
        self.j(UndoOp::FuSwap { a, z });
        self.swap_fus(a, z);
    }

    fn swap_fus(&mut self, a: FuId, z: FuId) {
        debug_assert_eq!(
            self.ctx.datapath.fu(a).class(),
            self.ctx.datapath.fu(z).class(),
            "only same-class units relabel without changing fu_area"
        );
        let relabel = |fu: &mut FuId| {
            if *fu == a {
                *fu = z;
            } else if *fu == z {
                *fu = a;
            }
        };
        self.op_fu.iter_mut().for_each(relabel);
        // Pass keys are untouched, so the map stays sorted.
        self.passes.entries.iter_mut().for_each(|(_, fu)| relabel(fu));
        self.fu_occ.swap(a.index(), z.index());
        self.fu_completes.swap(a.index(), z.index());
        self.fu_item_count.swap(a.index(), z.index());
        self.conn.swap_fus(a, z);
    }

    pub(crate) fn occupy_op(&mut self, op: OpId, fu: FuId) {
        self.j(UndoOp::OpFu { op, old: self.op_fu[op.index()] });
        self.op_fu[op.index()] = fu;
        for s in self.ctx.occupied_steps(op) {
            debug_assert!(self.fu_occ[fu.index()][s].is_none(), "fu occupancy conflict");
            self.set_fu_occ_cell(fu, s, Some(FuOcc::Exec(op)));
        }
        let done = self.ctx.completion_step(op);
        debug_assert!(self.fu_completes[fu.index()][done].is_none());
        self.set_fu_complete_cell(fu, done, Some(op));
        self.fu_item_inc(fu);
    }

    pub(crate) fn vacate_op(&mut self, op: OpId) {
        let fu = self.op_fu[op.index()];
        for s in self.ctx.occupied_steps(op) {
            self.set_fu_occ_cell(fu, s, None);
        }
        let done = self.ctx.completion_step(op);
        self.set_fu_complete_cell(fu, done, None);
        self.fu_item_dec(fu);
    }

    pub(crate) fn occupy_seg(&mut self, value: ValueId, slot: usize, idx: usize) {
        let reg = self.chain(value, slot).expect("live chain").reg_at(idx);
        let step = self.ctx.lifetimes.get(value).expect("stored").steps()[idx];
        debug_assert!(
            self.reg_occ[reg.index()][step].is_none(),
            "register occupancy conflict at {reg}@{step}"
        );
        self.set_reg_occ_cell(reg, step, Some((value, slot)));
        self.reg_seg_inc(reg);
    }

    pub(crate) fn vacate_seg(&mut self, value: ValueId, slot: usize, idx: usize) {
        let reg = self.chain(value, slot).expect("live chain").reg_at(idx);
        let step = self.ctx.lifetimes.get(value).expect("stored").steps()[idx];
        debug_assert_eq!(self.reg_occ[reg.index()][step], Some((value, slot)));
        self.set_reg_occ_cell(reg, step, None);
        self.reg_seg_dec(reg);
    }

    pub(crate) fn set_pass(&mut self, key: TransferKey, fu: Option<FuId>) {
        if let Some(&old) = self.passes.get(&key) {
            let (_, _, step) = self
                .transfer_endpoints(key)
                .expect("existing pass implies an active transfer");
            debug_assert_eq!(self.fu_occ[old.index()][step], Some(FuOcc::Pass(key)));
            self.j(UndoOp::PassEntry { key, old: Some(old) });
            self.passes.remove(&key);
            self.set_fu_occ_cell(old, step, None);
            self.fu_item_dec(old);
        }
        if let Some(new) = fu {
            let (_, _, step) = self
                .transfer_endpoints(key)
                .expect("pass requires an active transfer");
            debug_assert!(self.fu_occ[new.index()][step].is_none());
            self.j(UndoOp::PassEntry { key, old: None });
            self.passes.insert(key, new);
            self.set_fu_occ_cell(new, step, Some(FuOcc::Pass(key)));
            self.fu_item_inc(new);
        }
    }

    /// Creates a one-segment copy chain at lifetime index `lo` in `reg`;
    /// returns the slot.
    pub(crate) fn add_copy_chain(&mut self, value: ValueId, lo: usize, reg: RegId) -> usize {
        let slot = match self.chains[value.index()].iter().position(|c| c.is_none()) {
            Some(free) => free,
            None => {
                self.j(UndoOp::ChainSlotPushed { value });
                let slots = &mut self.chains[value.index()];
                slots.push(None);
                slots.len() - 1
            }
        };
        assert!(slot > 0, "slot 0 is reserved for the primal chain");
        self.j(UndoOp::ChainSlot { value, slot, old: None });
        let mut regs = self.pool.take();
        regs.push(reg);
        self.chains[value.index()][slot] = Some(Chain { lo, regs });
        self.occupy_seg(value, slot, lo);
        slot
    }

    /// Extends a copy chain by one segment at the front (`front = true`,
    /// toward earlier steps) or back.
    pub(crate) fn extend_copy(&mut self, value: ValueId, slot: usize, front: bool, reg: RegId) {
        self.journal_chain(value, slot);
        let chain = self.chains[value.index()][slot].as_mut().expect("live chain");
        let idx = if front {
            chain.lo -= 1;
            chain.regs.insert(0, reg);
            chain.lo
        } else {
            chain.regs.push(reg);
            chain.hi()
        };
        self.occupy_seg(value, slot, idx);
    }

    /// Shrinks a copy chain by one segment; removes it entirely when the
    /// last segment goes. Attached passes on vanishing transfer keys must
    /// have been cleared by the caller beforehand.
    pub(crate) fn shrink_copy(&mut self, value: ValueId, slot: usize, front: bool) {
        self.journal_chain(value, slot);
        let len = self.chain(value, slot).expect("live chain").len();
        if len == 1 {
            let lo = self.chain(value, slot).unwrap().lo;
            self.vacate_seg(value, slot, lo);
            if let Some(chain) = self.chains[value.index()][slot].take() {
                self.pool.recycle(chain.regs);
            }
            return;
        }
        let chain = self.chains[value.index()][slot].as_ref().unwrap();
        let idx = if front { chain.lo } else { chain.hi() };
        self.vacate_seg(value, slot, idx);
        let chain = self.chains[value.index()][slot].as_mut().unwrap();
        if front {
            chain.lo += 1;
            chain.regs.remove(0);
        } else {
            chain.regs.pop();
        }
    }

    /// Overwrites one chain cell and returns the register it held,
    /// journaling nothing and touching neither occupancy nor the matrix.
    /// R2's ranking writes an out-of-range sentinel here to read which
    /// items name the cell, and writes the old register back before it
    /// returns; the binding is inconsistent in between.
    pub(crate) fn replace_chain_reg(
        &mut self,
        value: ValueId,
        slot: usize,
        idx: usize,
        reg: RegId,
    ) -> RegId {
        let chain = self.chains[value.index()][slot].as_mut().expect("live chain");
        let offset = idx - chain.lo;
        std::mem::replace(&mut chain.regs[offset], reg)
    }

    /// Directly rewrites a chain's register without touching occupancy —
    /// for multi-segment rewrites where the caller vacates/occupies in
    /// bulk.
    pub(crate) fn chain_reg_mut(&mut self, value: ValueId, slot: usize, idx: usize, reg: RegId) {
        self.journal_chain(value, slot);
        let chain = self.chains[value.index()][slot].as_mut().expect("live chain");
        let offset = idx - chain.lo;
        chain.regs[offset] = reg;
    }

    /// Removes a whole copy chain. Passes on its transfer keys must have
    /// been cleared and uses rebound by the caller.
    pub(crate) fn remove_copy_chain(&mut self, value: ValueId, slot: usize) {
        assert!(slot > 0, "the primal chain cannot be removed");
        self.journal_chain(value, slot);
        let (lo, hi) = {
            let c = self.chain(value, slot).expect("live chain");
            (c.lo, c.hi())
        };
        for idx in lo..=hi {
            self.vacate_seg(value, slot, idx);
        }
        if let Some(chain) = self.chains[value.index()][slot].take() {
            self.pool.recycle(chain.regs);
        }
    }

    /// The smallest lifetime index at which a copy of `value` may start:
    /// copies of environment-provided values (inputs and states) may not
    /// cover step 0, because nothing would refresh them at the iteration
    /// boundary; copies of operation results may start at birth (producer
    /// fan-out).
    pub(crate) fn min_copy_index(&self, value: ValueId) -> usize {
        match self.ctx.graph.value(value).source() {
            salsa_cdfg::ValueSource::Input => 1,
            _ => 0,
        }
    }

    pub(crate) fn set_use_chain(&mut self, op: OpId, port: usize, slot: usize) {
        self.j(UndoOp::UseChain { op, port, old: self.use_chain[op.index()][port] });
        self.use_chain[op.index()][port] = slot;
    }

    pub(crate) fn set_op_swap(&mut self, op: OpId, swapped: bool) {
        self.j(UndoOp::OpSwap { op, old: self.op_swap[op.index()] });
        self.op_swap[op.index()] = swapped;
    }

    /// Drops passes attached to transfer keys that no longer correspond to
    /// an active transfer. Called after mutations that may have collapsed a
    /// transfer (e.g. two adjacent segments moved into one register).
    pub(crate) fn drop_stale_passes(&mut self, keys: impl IntoIterator<Item = TransferKey>) {
        for key in keys {
            if let Some(&fu) = self.passes.get(&key) {
                if self.transfer_endpoints(key).is_none() {
                    // The occupancy entry was placed at the *old* step; we
                    // cannot resolve it through endpoints anymore, so clear
                    // by scan.
                    self.j(UndoOp::PassEntry { key, old: Some(fu) });
                    self.passes.remove(&key);
                    for step in 0..self.ctx.n_steps() {
                        if self.fu_occ[fu.index()][step] == Some(FuOcc::Pass(key)) {
                            self.set_fu_occ_cell(fu, step, None);
                        }
                    }
                    self.fu_item_dec(fu);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Validation (tests and debug assertions).
    // ------------------------------------------------------------------

    /// Fully recomputes the connection matrix, occupancy tables and
    /// counters and checks them against the incrementally maintained state.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on any divergence — used by tests and
    /// periodically by the improvement engine under `debug_assertions`.
    pub fn check_consistency(&self) {
        // Connections.
        let mut rebuilt = ConnectionMatrix::new();
        for owner in self.all_owners() {
            for (src, sink) in self.items(owner) {
                rebuilt.add(src, sink);
            }
        }
        assert_eq!(
            rebuilt, self.conn,
            "incremental connection matrix diverged from rebuild"
        );

        // Register occupancy.
        let mut reg_occ = vec![vec![None; self.ctx.n_steps()]; self.ctx.datapath.num_regs()];
        let mut reg_seg_count = vec![0usize; self.ctx.datapath.num_regs()];
        for value in self.ctx.graph.value_ids() {
            let Some(lt) = self.ctx.lifetimes.get(value) else { continue };
            for (slot, chain) in self.chains_of(value) {
                for idx in chain.lo..=chain.hi() {
                    let reg = chain.reg_at(idx);
                    let step = lt.steps()[idx];
                    assert!(
                        reg_occ[reg.index()][step].is_none(),
                        "rebuild found register conflict at {reg}@{step}"
                    );
                    reg_occ[reg.index()][step] = Some((value, slot));
                    reg_seg_count[reg.index()] += 1;
                }
            }
        }
        assert_eq!(reg_occ, self.reg_occ, "register occupancy diverged");
        assert_eq!(reg_seg_count, self.reg_seg_count, "register usage counts diverged");

        // Functional-unit occupancy.
        let mut fu_occ: Vec<Vec<Option<FuOcc>>> =
            vec![vec![None; self.ctx.n_steps()]; self.ctx.datapath.num_fus()];
        let mut fu_completes: Vec<Vec<Option<OpId>>> =
            vec![vec![None; self.ctx.n_steps()]; self.ctx.datapath.num_fus()];
        let mut fu_item_count = vec![0usize; self.ctx.datapath.num_fus()];
        for op in self.ctx.graph.op_ids() {
            let fu = self.op_fu[op.index()];
            for s in self.ctx.occupied_steps(op) {
                assert!(fu_occ[fu.index()][s].is_none(), "rebuild found fu conflict");
                fu_occ[fu.index()][s] = Some(FuOcc::Exec(op));
            }
            fu_completes[fu.index()][self.ctx.completion_step(op)] = Some(op);
            fu_item_count[fu.index()] += 1;
        }
        for (&key, &fu) in self.passes.iter() {
            let (_, _, step) =
                self.transfer_endpoints(key).expect("pass on an active transfer");
            assert!(fu_occ[fu.index()][step].is_none(), "pass rebuild conflict");
            assert!(
                fu_completes[fu.index()][step].is_none(),
                "pass contends with completion"
            );
            fu_occ[fu.index()][step] = Some(FuOcc::Pass(key));
            fu_item_count[fu.index()] += 1;
        }
        assert_eq!(fu_occ, self.fu_occ, "fu occupancy diverged");
        assert_eq!(fu_completes, self.fu_completes, "fu completions diverged");
        assert_eq!(fu_item_count, self.fu_item_count, "fu usage counts diverged");

        // O(1) cost caches.
        assert_eq!(
            self.breakdown(),
            self.recomputed_breakdown(),
            "incremental cost caches diverged from recomputation"
        );

        // Array→bank table shape.
        assert_eq!(self.array_bank.len(), self.ctx.plan.num_arrays, "array table diverged");
        assert!(
            self.array_bank.iter().all(|&b| (b as usize) < self.ctx.datapath.num_banks()),
            "array bound to a nonexistent bank"
        );

        // Use bindings reference live chains that cover the read step.
        for op in self.ctx.graph.ops() {
            let issue = self.ctx.schedule.issue(op.id());
            for (port, operand) in op.inputs().into_iter().enumerate() {
                if !self.ctx.is_stored(operand) {
                    continue;
                }
                let slot = self.use_chain[op.id().index()][port];
                let idx = self
                    .ctx
                    .lifetime_index(operand, issue)
                    .expect("operand alive at issue");
                let chain = self
                    .chain(operand, slot)
                    .unwrap_or_else(|| panic!("{}: use references dead chain", op.id()));
                assert!(chain.covers(idx), "{}: use chain does not cover read step", op.id());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial_allocation;
    use salsa_cdfg::benchmarks::diffeq;
    use salsa_datapath::Datapath;
    use salsa_sched::{asap, fds_schedule, FuLibrary};

    #[test]
    fn binding_parts_text_roundtrips_exactly() {
        // Hand-built to reach every spelling: all three transfer-key
        // variants, dead chain slots, a value without storage and a bank
        // table.
        let parts = BindingParts {
            op_fu: vec![FuId::from_index(2), FuId::from_index(0)],
            op_swap: vec![true, false],
            chains: vec![
                vec![
                    Some((0, vec![RegId::from_index(1), RegId::from_index(3)])),
                    None,
                    Some((1, vec![RegId::from_index(0)])),
                ],
                vec![],
            ],
            use_chain: vec![[0, 2], [0, 0]],
            passes: vec![
                (
                    TransferKey::Intra { value: ValueId::from_index(0), chain: 0, idx: 0 },
                    FuId::from_index(1),
                ),
                (
                    TransferKey::CopyFeed { value: ValueId::from_index(0), chain: 2 },
                    FuId::from_index(2),
                ),
                (TransferKey::Boundary { state: ValueId::from_index(1) }, FuId::from_index(0)),
            ],
            array_banks: vec![1, 0],
        };
        let text = parts.encode();
        assert_eq!(text, "u=2.1.0.2,0.0.0.0;c=0:1.3|-|1:0,;p=i0.0.0:1,c0.2:2,b1:0;b=1.0");
        assert_eq!(BindingParts::decode(&text), Ok(parts));

        // Untrusted text fails with a message, never a panic.
        for bad in ["u=1.0", "x=1", "c=0:", "p=q0:1", "p=é1:0", "b=z", "u"] {
            assert!(BindingParts::decode(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn from_parts_rejects_swapped_operands_on_non_commutative_ops() {
        let graph = diffeq();
        let library = FuLibrary::standard();
        let schedule = fds_schedule(&graph, &library, asap(&graph, &library).length).unwrap();
        let datapath = Datapath::new(
            &schedule.fu_demand(&graph, &library),
            schedule.register_demand(&graph, &library),
        );
        let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
        let parts = initial_allocation(&ctx).to_parts();
        let op_of = |commutative: bool| {
            graph.ops().find(|o| o.kind().is_commutative() == commutative).unwrap().id()
        };

        // Swapping a commutative op is a legal image.
        let mut add_swapped = parts.clone();
        add_swapped.op_swap[op_of(true).index()] ^= true;
        assert!(Binding::from_parts(&ctx, &add_swapped).is_ok());

        // Swapping a non-commutative one changes what the design computes.
        let mut sub_swapped = parts.clone();
        sub_swapped.op_swap[op_of(false).index()] = true;
        let err = Binding::from_parts(&ctx, &sub_swapped).unwrap_err();
        assert!(err.contains("non-commutative"), "{err}");
    }
}

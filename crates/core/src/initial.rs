//! The constructive initial allocation of paper §4.
//!
//! 1. operators are assigned to functional units on a first-available
//!    basis per control step;
//! 2. loop-carried (state) values are bound to registers first, so
//!    consistency across iterations is established up front;
//! 3. values live in the maximum-register-demand steps are bound next;
//! 4. remaining values are bound minimizing added interconnections;
//! 5. values are bound contiguously unless no single register has space,
//!    in which case they are split into segments that fit (the initial
//!    allocation already exploits the extended model when forced to).

use std::collections::HashSet;

use salsa_cdfg::{OpId, ValueId};
use salsa_datapath::{FuId, Port, RegId, Sink, Source};

use crate::warm::WarmSpec;
use crate::{AllocContext, Binding, BindingParts, ChainSlotImage};

/// How the improvement search's starting binding was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialBinding {
    /// The paper's constructive initial allocation (the cold path).
    Constructive,
    /// A prior winner's [`BindingParts`](crate::BindingParts) image,
    /// validated structurally by [`Binding::from_parts`].
    Seeded,
    /// The constructive algorithm guided by a warm seed's remapped
    /// unit/register preferences (the image didn't fit — e.g. the CDFG
    /// delta changed the design's dimensions — so the preferences steer
    /// construction instead).
    Guided,
}

impl InitialBinding {
    /// The report spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            InitialBinding::Constructive => "constructive",
            InitialBinding::Seeded => "seeded",
            InitialBinding::Guided => "guided",
        }
    }
}

/// Builds the starting binding for a search configured with an optional
/// warm seed. Tries the seed's full image first (exact dimensions +
/// structural validation via [`Binding::from_parts`]), then the
/// preference-guided constructive path, then the plain constructive
/// allocation — every fallback is silent and deterministic, so a chain is
/// always a pure function of `(ctx, warm, seed)`.
pub fn initial_binding<'a>(
    ctx: &'a AllocContext<'a>,
    warm: Option<&WarmSpec>,
) -> (Binding<'a>, InitialBinding) {
    if let Some(w) = warm {
        if let Some(parts) = &w.parts {
            if let Ok(binding) = Binding::from_parts(ctx, parts) {
                return (binding, InitialBinding::Seeded);
            }
        }
        if w.guided() {
            return (build(ctx, Some(w)), InitialBinding::Guided);
        }
    }
    (initial_allocation(ctx), InitialBinding::Constructive)
}

/// Builds the starting binding. Infallible given a pool that passed
/// [`AllocContext::new`]'s demand checks.
///
/// # Panics
///
/// Panics if the context's pool checks were bypassed and resources are in
/// fact insufficient.
pub fn initial_allocation<'a>(ctx: &'a AllocContext<'a>) -> Binding<'a> {
    build(ctx, None)
}

/// The constructive allocator, optionally honouring a warm seed's
/// preferences. Each preference is taken only when it is feasible at the
/// point the constructive order reaches the entity; otherwise the normal
/// rule (first-available unit, fewest-added-connections register)
/// applies, so preferences can never make construction fail.
fn build<'a>(ctx: &'a AllocContext<'a>, warm: Option<&WarmSpec>) -> Binding<'a> {
    let n = ctx.n_steps();

    // --- Step 1: operators onto first-available units. ------------------
    let default_banks = crate::binding::default_array_banks(ctx);
    let mut fu_busy = vec![vec![false; n]; ctx.datapath.num_fus()];
    let mut op_fu = vec![FuId::from_index(0); ctx.graph.num_ops()];
    let mut ops: Vec<OpId> = ctx.graph.op_ids().collect();
    ops.sort_by_key(|&o| (ctx.schedule.issue(o), o));
    for op in ops {
        let window: Vec<usize> = ctx.occupied_steps(op).collect();
        let free = |f: &FuId| window.iter().all(|&s| !fu_busy[f.index()][s]);
        let fu = if let Some(array) = ctx.plan.op_array[op.index()] {
            // Memory accesses start in their array's default bank (the
            // same round-robin table a fresh binding derives its
            // array→bank state from), so construction is conflict-free.
            // A warm preference is honoured only inside that bank: an
            // out-of-bank preference would start the search conflicted,
            // which only the M moves could repair — an M-off run would
            // be stuck with it. The any-free-unit fallback covers
            // explicit bank layouts narrower than the schedule's demand.
            let bank = default_banks[array as usize] as usize;
            let preferred = warm
                .and_then(|w| w.op_pref(op.index()))
                .map(FuId::from_index)
                .filter(|p| ctx.plan.bank_units[bank].contains(p))
                .filter(free);
            preferred.unwrap_or_else(|| {
                ctx.plan.bank_units[bank]
                    .iter()
                    .copied()
                    .find(free)
                    .or_else(|| {
                        ctx.datapath.fus_of_class(ctx.class_of(op)).map(|f| f.id()).find(free)
                    })
                    .expect("pool demand check guarantees a free unit")
            })
        } else {
            let preferred = warm
                .and_then(|w| w.op_pref(op.index()))
                .map(FuId::from_index)
                .filter(|&p| ctx.datapath.fus_of_class(ctx.class_of(op)).any(|f| f.id() == p))
                .filter(free);
            preferred.unwrap_or_else(|| {
                ctx.datapath
                    .fus_of_class(ctx.class_of(op))
                    .map(|f| f.id())
                    .find(free)
                    .expect("pool demand check guarantees a free unit")
            })
        };
        for &s in &window {
            fu_busy[fu.index()][s] = true;
        }
        op_fu[op.index()] = fu;
    }

    // --- Step 2: order values (states, max-demand steps, rest). ---------
    let max_live = ctx.lifetimes.max_live();
    let peak_steps: HashSet<usize> = (0..n)
        .filter(|&s| ctx.lifetimes.live_at(s) == max_live)
        .collect();
    let mut values: Vec<ValueId> = ctx
        .graph
        .value_ids()
        .filter(|&v| ctx.lifetimes.get(v).is_some_and(|lt| !lt.is_empty()))
        .collect();
    let group = |v: ValueId| -> usize {
        if ctx.graph.value(v).is_state() {
            0
        } else if ctx
            .lifetimes
            .get(v)
            .expect("stored")
            .steps()
            .iter()
            .any(|s| peak_steps.contains(s))
        {
            1
        } else {
            2
        }
    };
    values.sort_by_key(|&v| (group(v), v));

    // --- Steps 3-5: registers, contiguous first, interconnect-aware. ----
    let mut reg_busy = vec![vec![false; n]; ctx.datapath.num_regs()];
    // Proto-interconnect: sink fan-in sets used to estimate added
    // multiplexer inputs before the real matrix exists.
    let mut proto: HashSet<(Source, Sink)> = HashSet::new();
    let mut chains: Vec<Vec<ChainSlotImage>> = vec![Vec::new(); ctx.graph.num_values()];

    for v in values {
        let steps: Vec<usize> = ctx.lifetimes.get(v).expect("stored").steps().to_vec();
        let contiguous: Vec<RegId> = ctx
            .datapath
            .reg_ids()
            .filter(|r| steps.iter().all(|&s| !reg_busy[r.index()][s]))
            .collect();
        let preferred = warm
            .and_then(|w| w.value_pref(v.index()))
            .filter(|&p| p < ctx.datapath.num_regs())
            .map(RegId::from_index);
        let assignment: Vec<RegId> = if contiguous.is_empty() {
            // Split across whatever registers fit, staying in the previous
            // register when possible to minimize transfers. A warm
            // preference seeds `prev`, so the split chain starts in the
            // seed's register whenever it has room.
            let mut regs = Vec::with_capacity(steps.len());
            let mut prev: Option<RegId> = preferred;
            for &s in &steps {
                let reg = prev
                    .filter(|r| !reg_busy[r.index()][s])
                    .or_else(|| {
                        ctx.datapath.reg_ids().find(|r| !reg_busy[r.index()][s])
                    })
                    .expect("register demand check guarantees space per step");
                regs.push(reg);
                prev = Some(reg);
            }
            regs
        } else if let Some(p) = preferred.filter(|p| contiguous.contains(p)) {
            // A feasible warm preference wins outright: reproducing the
            // seed's placement matters more here than the local
            // connection estimate — the moves the estimate would save
            // are exactly what the seeded search re-optimizes.
            vec![p; steps.len()]
        } else {
            // Contiguous: pick the candidate adding the fewest new
            // interconnections (paper step: "bound to registers in a way
            // that attempts to avoid adding more interconnections").
            let best = contiguous
                .into_iter()
                .min_by_key(|&r| {
                    (estimate_added_connections(ctx, &proto, &op_fu, v, r, &steps), r)
                })
                .expect("nonempty");
            vec![best; steps.len()]
        };
        for (&s, &r) in steps.iter().zip(&assignment) {
            reg_busy[r.index()][s] = true;
        }
        record_proto(ctx, &mut proto, &op_fu, v, &assignment, &steps);
        chains[v.index()] = vec![Some((0, assignment))];
    }

    // Every stored value starts as one primal chain read at slot 0, with
    // no swaps, copies or passes.
    let num_ops = ctx.graph.num_ops();
    let parts = BindingParts {
        op_fu,
        op_swap: vec![false; num_ops],
        chains,
        use_chain: vec![[0, 0]; num_ops],
        passes: Vec::new(),
        array_banks: default_banks,
    };
    Binding::from_parts(ctx, &parts).expect("constructive allocation is conflict-free")
}

/// New (source, sink) pairs this contiguous candidate would add.
fn estimate_added_connections(
    ctx: &AllocContext<'_>,
    proto: &HashSet<(Source, Sink)>,
    op_fu: &[FuId],
    v: ValueId,
    reg: RegId,
    steps: &[usize],
) -> usize {
    let mut added = 0;
    for (src, sink) in value_edges(ctx, op_fu, v, &vec![reg; steps.len()]) {
        if !proto.contains(&(src, sink)) {
            added += 1;
        }
    }
    added
}

fn record_proto(
    ctx: &AllocContext<'_>,
    proto: &mut HashSet<(Source, Sink)>,
    op_fu: &[FuId],
    v: ValueId,
    regs: &[RegId],
    steps: &[usize],
) {
    debug_assert_eq!(regs.len(), steps.len());
    for edge in value_edges(ctx, op_fu, v, regs) {
        proto.insert(edge);
    }
}

/// The producer-write and consumer-read edges a register assignment of `v`
/// implies (transfers and boundaries are omitted from the estimate).
fn value_edges(
    ctx: &AllocContext<'_>,
    op_fu: &[FuId],
    v: ValueId,
    regs: &[RegId],
) -> Vec<(Source, Sink)> {
    let mut edges = Vec::new();
    if let Some(p) = ctx.producer(v) {
        edges.push((Source::FuOut(op_fu[p.index()]), Sink::RegIn(regs[0])));
    }
    for u in ctx.graph.value(v).uses() {
        let issue = ctx.schedule.issue(u.op);
        if let Some(idx) = ctx.lifetime_index(v, issue) {
            edges.push((
                Source::RegOut(regs[idx]),
                Sink::FuIn(op_fu[u.op.index()], Port::from_index(u.port)),
            ));
        }
    }
    edges
}

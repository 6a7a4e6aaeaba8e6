//! Move-trace recording and replay: the audit subsystem's view into the
//! search.
//!
//! A [`MoveTrace`] is the compact, plain-data witness of one improvement
//! chain: its seed and slot, and the exact sequence of *committed* moves
//! (as fully-resolved [`Proposal`]s) plus best-restore points, each commit
//! annotated with the weighted cost the binding reached. Because the
//! search engine is transactional — every accepted move is a
//! `begin`/`apply`/`commit` triple, every restore a `clone_from(&best)` —
//! the committed sequence alone re-derives the final binding without
//! re-running any rejected or rolled-back work. Replay is therefore much
//! cheaper than a seed re-run (it skips the ~99% of attempted moves that
//! were rejected) and is independently checkable: the recorded cost at
//! each commit cross-checks the incremental cost model move by move.
//!
//! The trace contract rests on two engine properties:
//!
//! 1. **Proposals are self-contained.** A [`Proposal`] carries every
//!    random decision already resolved, so applying it needs no RNG and
//!    no context beyond a binding in the state it was drawn against.
//! 2. **The best-snapshot rule is deterministic.** Both search loops keep
//!    `best` and update it with the same strict-`<` rule immediately
//!    after each commit; ILS restarts and phase exits restore from it.
//!    Recording a [`TraceStep::Restore`] marker at every
//!    `clone_from(&best)` lets the replayer maintain its own snapshot
//!    with the identical rule and land on the identical binding.
//!
//! After the committed stream, the winning chain runs the deterministic,
//! RNG-free [`polish`] sweep; replay re-runs it and checks the recorded
//! final cost. The result reproduces the winning binding bit-for-bit
//! (validated by `Binding`'s structural equality in the property tests).

use std::fmt;

use salsa_cdfg::{fnv1a_128, OpId, ValueId};
use salsa_datapath::{FuId, RegId};

use crate::improve::weighted_cost;
use crate::moves::{apply_proposal, Proposal};
use crate::portfolio::run_chain;
use crate::{initial_binding, polish, AllocContext, AllocError, Binding, ImproveConfig, TransferKey};

/// One recorded step of a search trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStep {
    /// A committed move and the weighted cost immediately after it.
    Commit {
        /// The fully-resolved move that was committed.
        proposal: Proposal,
        /// `weighted_cost` of the binding right after the commit.
        cost_after: u64,
    },
    /// A restore from the best-so-far snapshot (an ILS restart or a
    /// phase exit).
    Restore,
}

/// The compact plain-data artifact describing one winning chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveTrace {
    /// The portfolio's base seed.
    pub base_seed: u64,
    /// The restart slot of the recorded chain.
    pub slot: usize,
    /// The chain's RNG seed (`base_seed + slot`).
    pub seed: u64,
    /// Weighted cost of the initial allocation.
    pub initial_cost: u64,
    /// Weighted cost after the improvement search (before polish).
    pub searched_cost: u64,
    /// Weighted cost after the polish sweep — the chain's final cost.
    pub final_cost: u64,
    /// The committed-move / restore sequence.
    pub steps: Vec<TraceStep>,
}

/// Collects [`TraceStep`]s as the search engine commits and restores,
/// and the chain's cost between search and polish.
#[derive(Debug, Default)]
pub(crate) struct TraceRecorder {
    pub(crate) steps: Vec<TraceStep>,
    pub(crate) searched_cost: u64,
}

impl TraceRecorder {
    pub(crate) fn record_commit(&mut self, proposal: Proposal, cost_after: u64) {
        self.steps.push(TraceStep::Commit { proposal, cost_after });
    }

    pub(crate) fn record_restore(&mut self) {
        self.steps.push(TraceStep::Restore);
    }
}

/// How a trace failed to replay (or to parse).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// The trace text (or artifact) could not be decoded.
    Malformed {
        /// What was wrong with the encoding.
        detail: String,
    },
    /// The initial allocation's cost disagrees with the recorded one —
    /// the trace belongs to a different design or resource pool.
    InitialCostMismatch {
        /// The cost the trace recorded.
        expected: u64,
        /// The cost the rebuilt initial allocation has.
        actual: u64,
    },
    /// A recorded proposal no longer applies at its position in the
    /// stream — the trace is corrupt or out of order.
    InfeasibleStep {
        /// The index of the offending step.
        step: usize,
    },
    /// The cost after replaying a commit disagrees with the recorded
    /// value — the incremental cost model and the trace diverge.
    CostMismatch {
        /// The index of the offending step.
        step: usize,
        /// The recorded cost.
        expected: u64,
        /// The replayed cost.
        actual: u64,
    },
    /// The cost after the full committed stream disagrees with the
    /// recorded post-search cost.
    SearchedCostMismatch {
        /// The recorded post-search cost.
        expected: u64,
        /// The replayed cost.
        actual: u64,
    },
    /// The cost after the polish sweep disagrees with the recorded final
    /// cost.
    FinalCostMismatch {
        /// The recorded final cost.
        expected: u64,
        /// The replayed cost.
        actual: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Malformed { detail } => write!(f, "malformed trace: {detail}"),
            TraceError::InitialCostMismatch { expected, actual } => write!(
                f,
                "initial allocation cost {actual} does not match the recorded {expected}"
            ),
            TraceError::InfeasibleStep { step } => {
                write!(f, "recorded move at step {step} no longer applies")
            }
            TraceError::CostMismatch { step, expected, actual } => write!(
                f,
                "cost after step {step} is {actual}, trace recorded {expected}"
            ),
            TraceError::SearchedCostMismatch { expected, actual } => write!(
                f,
                "post-search cost is {actual}, trace recorded {expected}"
            ),
            TraceError::FinalCostMismatch { expected, actual } => write!(
                f,
                "post-polish cost is {actual}, trace recorded {expected}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Re-runs one primary portfolio slot with move recording enabled and
/// returns its trace together with the finished binding.
///
/// The re-run is the search's own chain runner — an unwatched chain at
/// seed `base_seed + slot`, improved to convergence, then polished, the
/// trajectory the sequential portfolio walks for that slot — so
/// recording the portfolio winner's slot after the fact yields exactly
/// the trace the winning chain would have produced live. Recording off
/// the serving path keeps the allocation lane overhead-free when
/// verification is disabled.
///
/// # Errors
///
/// Returns [`AllocError::Cancelled`] if the improve configuration
/// carries a tripped cancel token (the only way a chain can fail to
/// complete).
pub fn record_slot_trace<'a>(
    ctx: &'a AllocContext<'a>,
    config: &ImproveConfig,
    base_seed: u64,
    slot: usize,
) -> Result<(MoveTrace, Binding<'a>), AllocError> {
    let initial = initial_binding(ctx, config.warm.as_deref()).0;
    let seed = base_seed.wrapping_add(slot as u64);
    let mut rec = TraceRecorder::default();
    let run = run_chain(&initial, config, seed, slot, Some(&mut rec));
    let (final_cost, binding) = run.result.ok_or(AllocError::Cancelled)?;
    let trace = MoveTrace {
        base_seed,
        slot,
        seed,
        initial_cost: run.improve.initial_cost,
        searched_cost: rec.searched_cost,
        final_cost,
        steps: rec.steps,
    };
    Ok((trace, binding))
}

/// Structural pre-check of a decoded proposal against the replay
/// environment: every id in range, every value a move binds actually a
/// stored value, every segment index inside the value's lifetime.
///
/// The apply functions assume these invariants — the proposers uphold
/// them by construction, so checking there would be dead weight on the
/// search's hot path — but a decoded trace is untrusted input: a trace
/// replayed against the wrong design (or a tampered one) must surface as
/// a structured [`TraceError::InfeasibleStep`], never a panic.
fn proposal_in_bounds(ctx: &AllocContext<'_>, p: &Proposal) -> bool {
    let fu = |f: FuId| f.index() < ctx.datapath.num_fus();
    let reg = |r: RegId| r.index() < ctx.datapath.num_regs();
    let op = |o: OpId| o.index() < ctx.graph.num_ops();
    let in_range = |v: ValueId| v.index() < ctx.graph.num_values();
    // Store tokens and boundary-born feedback sources have an empty
    // lifetime: nothing binds them to a register.
    let stored =
        |v: ValueId| in_range(v) && ctx.lifetimes.get(v).is_some_and(|lt| !lt.is_empty());
    let lt_len = |v: ValueId| ctx.lifetimes.get(v).map_or(0, |lt| lt.len());
    let key_ok = |k: &TransferKey| match *k {
        TransferKey::Intra { value, .. } | TransferKey::CopyFeed { value, .. } => in_range(value),
        TransferKey::Boundary { state } => in_range(state),
    };
    match *p {
        Proposal::FuExchange { a, z } => fu(a) && fu(z),
        Proposal::FuMove { op: o, target } => op(o) && fu(target),
        Proposal::OperandReverse { op: o } => op(o),
        Proposal::PassBind { key, fu: f } => key_ok(&key) && fu(f),
        Proposal::PassUnbind { key } => key_ok(&key),
        Proposal::SegmentExchange { step, v1, r1, v2, r2, .. } => {
            step < ctx.n_steps() && stored(v1) && stored(v2) && reg(r1) && reg(r2)
        }
        Proposal::SegmentMove { value, idx, target, .. } => {
            stored(value) && idx < lt_len(value) && reg(target)
        }
        Proposal::ValueExchange { v1, r1, v2, r2 } => {
            stored(v1) && stored(v2) && reg(r1) && reg(r2)
        }
        Proposal::ValueMove { value, target } => stored(value) && reg(target),
        Proposal::ValueSplitExtend { value, reg: r, .. } => stored(value) && reg(r),
        Proposal::ValueSplitNew { value, idx, reg: r } => {
            stored(value) && idx < lt_len(value) && reg(r)
        }
        Proposal::ValueMerge { value, .. } => stored(value),
        Proposal::ArrayRebank { array, bank } => {
            array < ctx.plan.num_arrays && (bank as usize) < ctx.datapath.num_banks()
        }
        Proposal::BankExchange { a1, a2 } => {
            a1 < ctx.plan.num_arrays && a2 < ctx.plan.num_arrays
        }
        Proposal::AccessReport { op: o, target } => {
            op(o) && ctx.plan.is_memory_op(o) && fu(target)
        }
    }
}

/// Re-derives a binding move by move from a recorded trace,
/// cross-checking the weighted cost against the recorded value after
/// every commit, then
/// re-runs the deterministic polish sweep and checks the final cost.
///
/// Only `config.weights` and `config.move_set` participate (for the cost
/// model and the polish sweep); search knobs like the trial budget affect
/// which trace gets *recorded*, never how one replays.
///
/// # Errors
///
/// Any divergence between the trace and the re-derivation returns the
/// structured [`TraceError`] naming the offending step.
pub fn replay_trace<'a>(
    ctx: &'a AllocContext<'a>,
    config: &ImproveConfig,
    trace: &MoveTrace,
) -> Result<Binding<'a>, TraceError> {
    let weights = &config.weights;
    let mut binding = initial_binding(ctx, config.warm.as_deref()).0;
    let initial = weighted_cost(weights, &binding);
    if initial != trace.initial_cost {
        return Err(TraceError::InitialCostMismatch {
            expected: trace.initial_cost,
            actual: initial,
        });
    }
    let mut best = binding.clone();
    let mut best_cost = initial;
    for (i, step) in trace.steps.iter().enumerate() {
        match *step {
            TraceStep::Commit { proposal, cost_after } => {
                if !proposal_in_bounds(ctx, &proposal) {
                    return Err(TraceError::InfeasibleStep { step: i });
                }
                binding.begin();
                if !apply_proposal(&mut binding, proposal) {
                    binding.rollback();
                    return Err(TraceError::InfeasibleStep { step: i });
                }
                binding.commit();
                let actual = weighted_cost(weights, &binding);
                if actual != cost_after {
                    return Err(TraceError::CostMismatch { step: i, expected: cost_after, actual });
                }
                // The engines' best-snapshot rule, verbatim: strict `<`
                // immediately after each commit.
                if cost_after < best_cost {
                    best_cost = cost_after;
                    best.clone_from(&binding);
                }
            }
            TraceStep::Restore => {
                binding.clone_from(&best);
            }
        }
    }
    let searched = weighted_cost(weights, &binding);
    if searched != trace.searched_cost {
        return Err(TraceError::SearchedCostMismatch {
            expected: trace.searched_cost,
            actual: searched,
        });
    }
    let final_cost = polish(&mut binding, weights, &config.move_set);
    if final_cost != trace.final_cost {
        return Err(TraceError::FinalCostMismatch {
            expected: trace.final_cost,
            actual: final_cost,
        });
    }
    Ok(binding)
}

fn encode_proposal(p: Proposal, out: &mut String) {
    use std::fmt::Write;
    match p {
        Proposal::FuExchange { a, z } => {
            let _ = write!(out, "F1:{},{}", a.index(), z.index());
        }
        Proposal::FuMove { op, target } => {
            let _ = write!(out, "F2:{},{}", op.index(), target.index());
        }
        Proposal::OperandReverse { op } => {
            let _ = write!(out, "F3:{}", op.index());
        }
        Proposal::PassBind { key, fu } => {
            let _ = write!(out, "F4:");
            key.write_token(out);
            let _ = write!(out, ",{}", fu.index());
        }
        Proposal::PassUnbind { key } => {
            let _ = write!(out, "F5:");
            key.write_token(out);
        }
        Proposal::SegmentExchange { step, v1, s1, r1, v2, s2, r2 } => {
            let _ = write!(
                out,
                "R1:{},{},{},{},{},{},{}",
                step,
                v1.index(),
                s1,
                r1.index(),
                v2.index(),
                s2,
                r2.index()
            );
        }
        Proposal::SegmentMove { value, slot, idx, target } => {
            let _ = write!(out, "R2:{},{},{},{}", value.index(), slot, idx, target.index());
        }
        Proposal::ValueExchange { v1, r1, v2, r2 } => {
            let _ =
                write!(out, "R3:{},{},{},{}", v1.index(), r1.index(), v2.index(), r2.index());
        }
        Proposal::ValueMove { value, target } => {
            let _ = write!(out, "R4:{},{}", value.index(), target.index());
        }
        Proposal::ValueSplitExtend { value, slot, front, reg } => {
            let _ = write!(
                out,
                "R5e:{},{},{},{}",
                value.index(),
                slot,
                if front { "f" } else { "b" },
                reg.index()
            );
        }
        Proposal::ValueSplitNew { value, idx, reg } => {
            let _ = write!(out, "R5n:{},{},{}", value.index(), idx, reg.index());
        }
        Proposal::ValueMerge { value, slot, front } => {
            let _ = write!(
                out,
                "R6:{},{},{}",
                value.index(),
                slot,
                if front { "f" } else { "b" }
            );
        }
        Proposal::ArrayRebank { array, bank } => {
            let _ = write!(out, "M1:{array},{bank}");
        }
        Proposal::BankExchange { a1, a2 } => {
            let _ = write!(out, "M2:{a1},{a2}");
        }
        Proposal::AccessReport { op, target } => {
            let _ = write!(out, "M3:{},{}", op.index(), target.index());
        }
    }
}

fn decode_proposal(tok: &str) -> Result<Proposal, TraceError> {
    let malformed = || TraceError::Malformed { detail: format!("bad move token `{tok}`") };
    let (tag, body) = tok.split_once(':').ok_or_else(malformed)?;
    let parts: Vec<&str> = body.split(',').collect();
    let num = |s: &str| -> Result<usize, TraceError> { s.parse().map_err(|_| malformed()) };
    let transfer_key = |s: &str| {
        TransferKey::parse_token(s).map_err(|detail| TraceError::Malformed { detail })
    };
    let flag = |s: &str| -> Result<bool, TraceError> {
        match s {
            "f" => Ok(true),
            "b" => Ok(false),
            _ => Err(malformed()),
        }
    };
    match (tag, parts.as_slice()) {
        ("F1", [a, z]) => Ok(Proposal::FuExchange {
            a: FuId::from_index(num(a)?),
            z: FuId::from_index(num(z)?),
        }),
        ("F2", [op, fu]) => Ok(Proposal::FuMove {
            op: OpId::from_index(num(op)?),
            target: FuId::from_index(num(fu)?),
        }),
        ("F3", [op]) => Ok(Proposal::OperandReverse { op: OpId::from_index(num(op)?) }),
        ("F4", [key, fu]) => {
            Ok(Proposal::PassBind { key: transfer_key(key)?, fu: FuId::from_index(num(fu)?) })
        }
        ("F5", [key]) => Ok(Proposal::PassUnbind { key: transfer_key(key)? }),
        ("R1", [step, v1, s1, r1, v2, s2, r2]) => Ok(Proposal::SegmentExchange {
            step: num(step)?,
            v1: ValueId::from_index(num(v1)?),
            s1: num(s1)?,
            r1: RegId::from_index(num(r1)?),
            v2: ValueId::from_index(num(v2)?),
            s2: num(s2)?,
            r2: RegId::from_index(num(r2)?),
        }),
        ("R2", [v, slot, idx, r]) => Ok(Proposal::SegmentMove {
            value: ValueId::from_index(num(v)?),
            slot: num(slot)?,
            idx: num(idx)?,
            target: RegId::from_index(num(r)?),
        }),
        ("R3", [v1, r1, v2, r2]) => Ok(Proposal::ValueExchange {
            v1: ValueId::from_index(num(v1)?),
            r1: RegId::from_index(num(r1)?),
            v2: ValueId::from_index(num(v2)?),
            r2: RegId::from_index(num(r2)?),
        }),
        ("R4", [v, r]) => Ok(Proposal::ValueMove {
            value: ValueId::from_index(num(v)?),
            target: RegId::from_index(num(r)?),
        }),
        ("R5e", [v, slot, fr, r]) => Ok(Proposal::ValueSplitExtend {
            value: ValueId::from_index(num(v)?),
            slot: num(slot)?,
            front: flag(fr)?,
            reg: RegId::from_index(num(r)?),
        }),
        ("R5n", [v, idx, r]) => Ok(Proposal::ValueSplitNew {
            value: ValueId::from_index(num(v)?),
            idx: num(idx)?,
            reg: RegId::from_index(num(r)?),
        }),
        ("R6", [v, slot, fr]) => Ok(Proposal::ValueMerge {
            value: ValueId::from_index(num(v)?),
            slot: num(slot)?,
            front: flag(fr)?,
        }),
        ("M1", [array, bank]) => Ok(Proposal::ArrayRebank {
            array: num(array)?,
            bank: num(bank)? as u32,
        }),
        ("M2", [a1, a2]) => Ok(Proposal::BankExchange { a1: num(a1)?, a2: num(a2)? }),
        ("M3", [op, fu]) => Ok(Proposal::AccessReport {
            op: OpId::from_index(num(op)?),
            target: FuId::from_index(num(fu)?),
        }),
        _ => Err(malformed()),
    }
}

impl MoveTrace {
    /// Serializes the trace into its compact single-line text form:
    /// a header of `key=value` fields, then one token per step —
    /// `!` for a restore, `<label>:<fields>@<cost>` for a commit, with
    /// the paper's Table 1 labels (`F1`..`R6`) naming the move kind.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "salsa-trace/1 base={} slot={} seed={} init={} searched={} final={} n={}",
            self.base_seed,
            self.slot,
            self.seed,
            self.initial_cost,
            self.searched_cost,
            self.final_cost,
            self.steps.len()
        );
        for step in &self.steps {
            out.push(' ');
            match *step {
                TraceStep::Restore => out.push('!'),
                TraceStep::Commit { proposal, cost_after } => {
                    encode_proposal(proposal, &mut out);
                    out.push('@');
                    out.push_str(&cost_after.to_string());
                }
            }
        }
        out
    }

    /// Parses the text form produced by [`encode`](MoveTrace::encode).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Malformed`] describing the first offending
    /// token.
    pub fn decode(text: &str) -> Result<MoveTrace, TraceError> {
        let mut toks = text.split_ascii_whitespace();
        if toks.next() != Some("salsa-trace/1") {
            return Err(TraceError::Malformed {
                detail: "missing `salsa-trace/1` header".to_string(),
            });
        }
        let mut field = |name: &str| -> Result<u64, TraceError> {
            let tok = toks.next().unwrap_or("");
            tok.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix('='))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| TraceError::Malformed {
                    detail: format!("expected `{name}=<int>`, found `{tok}`"),
                })
        };
        let base_seed = field("base")?;
        let slot = field("slot")? as usize;
        let seed = field("seed")?;
        let initial_cost = field("init")?;
        let searched_cost = field("searched")?;
        let final_cost = field("final")?;
        let n = field("n")? as usize;
        // `n` is untrusted: preallocate no more steps than the text can
        // hold (each takes a separator and at least one character).
        let mut steps = Vec::with_capacity(n.min(text.len() / 2));
        for tok in toks {
            if tok == "!" {
                steps.push(TraceStep::Restore);
                continue;
            }
            let (mv, cost) = tok.rsplit_once('@').ok_or_else(|| TraceError::Malformed {
                detail: format!("commit token `{tok}` lacks `@<cost>`"),
            })?;
            let cost_after = cost.parse().map_err(|_| TraceError::Malformed {
                detail: format!("bad cost in `{tok}`"),
            })?;
            steps.push(TraceStep::Commit { proposal: decode_proposal(mv)?, cost_after });
        }
        if steps.len() != n {
            return Err(TraceError::Malformed {
                detail: format!("header says {n} steps, found {}", steps.len()),
            });
        }
        Ok(MoveTrace {
            base_seed,
            slot,
            seed,
            initial_cost,
            searched_cost,
            final_cost,
            steps,
        })
    }

    /// Content address of the trace: FNV-1a/128 over the canonical text
    /// form, rendered by the serving layer as the certificate's trace id.
    pub fn fingerprint(&self) -> u128 {
        fnv1a_128(self.encode().as_bytes())
    }

    /// Committed moves in the trace.
    pub fn commits(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, TraceStep::Commit { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{portfolio_search, PortfolioConfig};
    use salsa_cdfg::benchmarks::{diffeq, ewf, paper_example};
    use salsa_cdfg::{random_cdfg, Cdfg, RandomCdfgConfig};
    use salsa_datapath::Datapath;
    use salsa_sched::{asap, fds_schedule, FuLibrary, Schedule};

    fn schedule_for(graph: &Cdfg, library: &FuLibrary, slack: usize) -> Schedule {
        let cp = asap(graph, library).length;
        fds_schedule(graph, library, cp + slack).expect("cp + slack is feasible")
    }

    fn datapath_for(graph: &Cdfg, schedule: &Schedule, library: &FuLibrary) -> Datapath {
        Datapath::new(
            &schedule.fu_demand(graph, library),
            schedule.register_demand(graph, library),
        )
    }

    /// An in-range value the design never stores, if it has one.
    fn first_unstored(ctx: &AllocContext<'_>) -> Option<salsa_cdfg::ValueId> {
        ctx.graph.value_ids().find(|&v| ctx.lifetimes.get(v).is_none())
    }

    fn small_config() -> ImproveConfig {
        ImproveConfig { max_trials: 3, moves_per_trial: Some(150), ..ImproveConfig::default() }
    }

    /// Runs a portfolio, records the winning slot's trace, and checks
    /// the recorded binding, the decoded round-trip and the full replay
    /// all land bit-for-bit on the portfolio winner.
    fn check_roundtrip(ctx: &AllocContext<'_>, config: &ImproveConfig, threads: usize) {
        let pconfig = PortfolioConfig { threads: Some(threads) };
        let outcome = portfolio_search(ctx, config, &pconfig, 42, 2).expect("search completes");
        let (trace, recorded) =
            record_slot_trace(ctx, config, 42, outcome.portfolio.winner_slot)
                .expect("recording completes");
        assert_eq!(trace.final_cost, outcome.cost, "recorded cost matches the winner");
        assert!(recorded == outcome.binding, "recorded binding is the winner, bit-for-bit");

        let decoded = MoveTrace::decode(&trace.encode()).expect("canonical text decodes");
        assert_eq!(decoded, trace, "text encoding round-trips");

        let replayed = replay_trace(ctx, config, &decoded).expect("replay succeeds");
        assert!(replayed == outcome.binding, "replayed binding is the winner, bit-for-bit");
    }

    #[test]
    fn record_replay_reproduces_the_winner_on_the_paper_example() {
        let graph = paper_example();
        let library = FuLibrary::standard();
        let schedule = fds_schedule(&graph, &library, 4).unwrap();
        let datapath = datapath_for(&graph, &schedule, &library);
        let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
        check_roundtrip(&ctx, &small_config(), 1);
        check_roundtrip(&ctx, &small_config(), 2);
    }

    #[test]
    fn corrupted_traces_are_rejected_with_structured_errors() {
        let graph = paper_example();
        let library = FuLibrary::standard();
        let schedule = fds_schedule(&graph, &library, 4).unwrap();
        let datapath = datapath_for(&graph, &schedule, &library);
        let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
        let config = small_config();
        let (trace, _) = record_slot_trace(&ctx, &config, 42, 0).unwrap();
        assert!(trace.commits() > 0, "the search commits at least one move");

        // A tampered commit cost is caught at exactly that step.
        let mut tampered = trace.clone();
        let idx = tampered
            .steps
            .iter()
            .position(|s| matches!(s, TraceStep::Commit { .. }))
            .unwrap();
        if let TraceStep::Commit { cost_after, .. } = &mut tampered.steps[idx] {
            *cost_after += 1;
        }
        match replay_trace(&ctx, &config, &tampered) {
            Err(TraceError::CostMismatch { step, .. }) => assert_eq!(step, idx),
            other => panic!("expected CostMismatch, got {other:?}"),
        }

        // A truncated stream fails the post-search cross-check.
        let mut truncated = trace.clone();
        truncated.steps.truncate(idx + 1);
        match replay_trace(&ctx, &config, &truncated) {
            Err(
                TraceError::SearchedCostMismatch { .. } | TraceError::FinalCostMismatch { .. },
            ) => {}
            other => panic!("expected a final cost mismatch, got {other:?}"),
        }

        // A wrong initial cost means a foreign design or pool.
        let mut foreign = trace.clone();
        foreign.initial_cost += 1;
        assert!(matches!(
            replay_trace(&ctx, &config, &foreign),
            Err(TraceError::InitialCostMismatch { .. })
        ));

        // A trace naming a foreign value — out of range entirely, or a
        // constant this design never stores — is an infeasible step, not
        // a panic: decoded traces are untrusted input.
        for value in std::iter::once(ValueId::from_index(9999)).chain(first_unstored(&ctx)) {
            let mut foreign_move = trace.clone();
            foreign_move.steps.insert(
                0,
                TraceStep::Commit {
                    proposal: Proposal::ValueMove { value, target: RegId::from_index(0) },
                    cost_after: trace.initial_cost,
                },
            );
            assert!(matches!(
                replay_trace(&ctx, &config, &foreign_move),
                Err(TraceError::InfeasibleStep { step: 0 })
            ));
        }

        // So is one naming a value with an empty lifetime — a store token
        // or a boundary-born feedback source — which has no register.
        let mut empty_lifetimes = 0;
        for (graph, slack) in [(ewf(), 0), (ewf(), 1), (diffeq(), 0)] {
            let schedule = schedule_for(&graph, &library, slack);
            let datapath = datapath_for(&graph, &schedule, &library);
            let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
            let (trace, _) = record_slot_trace(&ctx, &config, 42, 0).unwrap();
            let empty = ctx.graph.value_ids().filter(|&v| {
                ctx.lifetimes.get(v).is_some_and(|lt| lt.is_empty())
            });
            for value in empty {
                let proposal = Proposal::ValueMove { value, target: RegId::from_index(0) };
                let mut tampered = trace.clone();
                tampered
                    .steps
                    .insert(0, TraceStep::Commit { proposal, cost_after: trace.initial_cost });
                assert!(
                    matches!(
                        replay_trace(&ctx, &config, &tampered),
                        Err(TraceError::InfeasibleStep { step: 0 })
                    ),
                    "{proposal:?} on {} at ASAP+{slack}",
                    graph.name()
                );
                empty_lifetimes += 1;
            }
        }
        assert!(empty_lifetimes >= 3, "the designs carry values with an empty lifetime");

        // R6 shrinks a copy chain; slot 0 is the primal chain, which must
        // keep covering its value's lifetime. Shrinking it from the back
        // left a read of the dropped segment to panic, and from the front
        // diverged the cost.
        let graph = ewf();
        let schedule = fds_schedule(&graph, &library, 19).unwrap();
        let datapath = datapath_for(&graph, &schedule, &library);
        let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
        let (trace, _) = record_slot_trace(&ctx, &config, 42, 0).unwrap();
        assert!(ctx.lifetimes.get(ValueId::from_index(0)).is_some_and(|lt| lt.len() > 1));
        for token in ["R6:0,0,b", "R6:0,0,f"] {
            let proposal = decode_proposal(token).unwrap();
            let mut tampered = trace.clone();
            tampered
                .steps
                .insert(0, TraceStep::Commit { proposal, cost_after: trace.initial_cost });
            assert!(
                matches!(
                    replay_trace(&ctx, &config, &tampered),
                    Err(TraceError::InfeasibleStep { step: 0 })
                ),
                "`{token}` must be an infeasible step"
            );
        }

        // F2 never draws a memory access, and F3 only a commutative op.
        // Moving fir8a's first access to another port (a cross-bank one
        // raises a bank conflict) or swapping a non-commutative diffeq
        // op's operands (which lowers its cost) must not replay.
        let graph = salsa_cdfg::benchmarks::fir_array();
        let schedule = schedule_for(&graph, &library, 2);
        let mem = salsa_datapath::MemConfig::uniform(graph.num_arrays().max(1), 2);
        let datapath = Datapath::new_with_memory(
            &schedule.fu_demand(&graph, &library),
            schedule.register_demand(&graph, &library).max(1),
            &mem,
        );
        let mem_ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
        let mem_config =
            ImproveConfig { move_set: crate::MoveSet::with_memory(), ..small_config() };
        let (mem_trace, _) = record_slot_trace(&mem_ctx, &mem_config, 42, 0).unwrap();
        let access = mem_ctx.plan.mem_ops[0];
        let initial = initial_binding(&mem_ctx, None).0;
        let port = mem_ctx
            .datapath
            .fus_of_class(salsa_sched::FuClass::Mem)
            .map(|f| f.id())
            .find(|&f| f != initial.op_fu(access) && initial.fu_exec_free(f, access))
            .expect("a free second port");
        let graph = diffeq();
        let schedule = schedule_for(&graph, &library, 0);
        let datapath = datapath_for(&graph, &schedule, &library);
        let diffeq_ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
        let (diffeq_trace, _) = record_slot_trace(&diffeq_ctx, &config, 42, 0).unwrap();
        assert!(!graph.ops().nth(6).unwrap().kind().is_commutative());
        for (token, ctx, config, trace) in [
            (format!("F2:{},{}", access.index(), port.index()), &mem_ctx, &mem_config, &mem_trace),
            ("F3:6".to_string(), &diffeq_ctx, &config, &diffeq_trace),
        ] {
            let proposal = decode_proposal(&token).unwrap();
            let mut tampered = trace.clone();
            tampered
                .steps
                .insert(0, TraceStep::Commit { proposal, cost_after: trace.initial_cost });
            assert!(
                matches!(
                    replay_trace(ctx, config, &tampered),
                    Err(TraceError::InfeasibleStep { step: 0 })
                ),
                "`{token}` must be an infeasible step"
            );
        }

        // Mangled text forms are structured parse errors, never panics.
        for bad in [
            "",
            "salsa-trace/2 base=0",
            "salsa-trace/1 base=1 slot=0 seed=1 init=1 searched=1 final=1 n=2 !",
            "salsa-trace/1 base=1 slot=0 seed=1 init=1 searched=1 final=1 n=1 Q9:1@2",
            "salsa-trace/1 base=1 slot=0 seed=1 init=1 searched=1 final=1 n=1 R4:1,2",
            "salsa-trace/1 base=1 slot=0 seed=1 init=1 searched=1 final=1 n=1 F4:x,1@2",
            // A step count no text can hold must not size an allocation.
            "salsa-trace/1 base=1 slot=0 seed=1 init=1 searched=1 final=0 n=1000000000000 !",
        ] {
            assert!(
                matches!(MoveTrace::decode(bad), Err(TraceError::Malformed { .. })),
                "`{bad}` must be rejected as malformed"
            );
        }
    }

    #[test]
    fn untrusted_unit_exchanges_are_rejected() {
        use salsa_datapath::MemConfig;
        use salsa_sched::FuClass;
        // F1 applies as a relabel, which is only cost-neutral between two
        // distinct same-class units. A tampered trace exchanging an ALU
        // with a multiplier would otherwise leave ops on wrong-class
        // units at an unchanged cost.
        let graph = salsa_cdfg::benchmarks::ewf();
        let library = FuLibrary::standard();
        let schedule = fds_schedule(&graph, &library, 19).unwrap();
        let datapath = datapath_for(&graph, &schedule, &library);
        let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
        let config = small_config();
        let (trace, _) = record_slot_trace(&ctx, &config, 42, 0).unwrap();
        let unit = |class: FuClass| ctx.datapath.fus_of_class(class).next().unwrap().id();
        let (alu, mul) = (unit(FuClass::Alu), unit(FuClass::Mul));

        for proposal in [
            Proposal::FuExchange { a: alu, z: mul },
            Proposal::FuExchange { a: mul, z: alu },
            Proposal::FuExchange { a: alu, z: alu },
        ] {
            let mut tampered = trace.clone();
            let at = tampered.steps.len() / 2;
            tampered.steps.insert(at, TraceStep::Commit { proposal, cost_after: 0 });
            assert!(
                matches!(
                    replay_trace(&ctx, &config, &tampered),
                    Err(TraceError::InfeasibleStep { step }) if step == at
                ),
                "{proposal:?} must be an infeasible step"
            );
        }

        // Memory ports carry a bank, so exchanging two is not a relabel.
        let graph = salsa_cdfg::benchmarks::fir_array();
        let schedule = schedule_for(&graph, &library, 2);
        let fu_counts = schedule.fu_demand(&graph, &library);
        let mem = MemConfig::uniform(graph.num_arrays().max(1), 2);
        let datapath = Datapath::new_with_memory(
            &fu_counts,
            schedule.register_demand(&graph, &library).max(1),
            &mem,
        );
        let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
        let config = ImproveConfig { move_set: crate::MoveSet::with_memory(), ..small_config() };
        let (trace, _) = record_slot_trace(&ctx, &config, 42, 0).unwrap();
        // A port the initial binding uses, so the pair carries cargo.
        let busy = initial_binding(&ctx, None).0.op_fu(ctx.plan.mem_ops[0]);
        let idle = ctx.datapath.fus_of_class(FuClass::Mem).map(|f| f.id()).find(|&f| f != busy);
        let mut tampered = trace.clone();
        tampered.steps.insert(
            0,
            TraceStep::Commit {
                proposal: Proposal::FuExchange { a: busy, z: idle.expect("two ports") },
                cost_after: trace.initial_cost,
            },
        );
        assert!(matches!(
            replay_trace(&ctx, &config, &tampered),
            Err(TraceError::InfeasibleStep { step: 0 })
        ));
    }

    #[test]
    fn memory_traces_are_rejected_against_scalar_graphs() {
        use salsa_datapath::FuId;
        // A trace carrying M moves replayed against a scalar design (no
        // arrays, no banks) is foreign input: every memory step must be
        // a structured InfeasibleStep, never a panic.
        let graph = paper_example();
        let library = FuLibrary::standard();
        let schedule = fds_schedule(&graph, &library, 4).unwrap();
        let datapath = datapath_for(&graph, &schedule, &library);
        let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
        let config = small_config();
        let (trace, _) = record_slot_trace(&ctx, &config, 42, 0).unwrap();

        let memory_steps = [
            Proposal::ArrayRebank { array: 0, bank: 1 },
            Proposal::BankExchange { a1: 0, a2: 1 },
            Proposal::AccessReport { op: salsa_cdfg::OpId::from_index(0), target: FuId::from_index(0) },
        ];
        for proposal in memory_steps {
            let mut foreign = trace.clone();
            foreign.steps.insert(
                0,
                TraceStep::Commit { proposal, cost_after: trace.initial_cost },
            );
            assert!(
                matches!(
                    replay_trace(&ctx, &config, &foreign),
                    Err(TraceError::InfeasibleStep { step: 0 })
                ),
                "memory step {proposal:?} must be rejected on a scalar graph"
            );
        }
    }

    #[test]
    fn corrupted_memory_traces_are_rejected_with_structured_errors() {
        use salsa_datapath::{FuId, MemConfig};
        // The memory half of the untrusted-input contract: a genuine
        // memory-design trace with out-of-range arrays/banks, or an
        // access reported onto a port outside the array's bank, fails
        // with a structured error at exactly the corrupted step.
        let graph = salsa_cdfg::benchmarks::fir_array();
        let library = FuLibrary::standard();
        let schedule = schedule_for(&graph, &library, 2);
        let fu_counts = schedule.fu_demand(&graph, &library);
        let ports = fu_counts.get(&salsa_sched::FuClass::Mem).copied().unwrap_or(1).max(1);
        let mem = MemConfig::uniform(graph.num_arrays().max(1), ports);
        let datapath = Datapath::new_with_memory(
            &fu_counts,
            schedule.register_demand(&graph, &library).max(1),
            &mem,
        );
        let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
        let config = ImproveConfig {
            move_set: crate::MoveSet::with_memory(),
            ..small_config()
        };
        let (trace, _) = record_slot_trace(&ctx, &config, 42, 0).unwrap();

        // The genuine trace round-trips through its text encoding,
        // M steps included.
        let decoded = MoveTrace::decode(&trace.encode()).unwrap();
        assert_eq!(decoded, trace);

        let scalar_op = graph
            .ops()
            .find(|o| o.array().is_none())
            .expect("fir8a mixes arithmetic with loads")
            .id();
        let corrupt = [
            Proposal::ArrayRebank { array: 9999, bank: 0 },
            Proposal::ArrayRebank { array: 0, bank: 9999 },
            Proposal::BankExchange { a1: 0, a2: 9999 },
            // An access report on an op that is not a memory access.
            Proposal::AccessReport { op: scalar_op, target: FuId::from_index(0) },
            // A target FU index beyond the pool.
            Proposal::AccessReport {
                op: ctx.plan.mem_ops[0],
                target: FuId::from_index(9999),
            },
        ];
        for proposal in corrupt {
            let mut tampered = trace.clone();
            tampered.steps.insert(
                0,
                TraceStep::Commit { proposal, cost_after: trace.initial_cost },
            );
            assert!(
                matches!(
                    replay_trace(&ctx, &config, &tampered),
                    Err(TraceError::InfeasibleStep { step: 0 })
                ),
                "corrupt memory step {proposal:?} must be rejected"
            );
        }
    }

    use proptest::prelude::*;

    proptest! {
        // The ISSUE's replay contract on arbitrary graphs: the recorded
        // trace of the portfolio winner re-derives the winning binding
        // bit-for-bit under the sequential and multi-thread portfolio
        // engines, through the text encoding.
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        #[test]
        fn replay_reproduces_random_graph_winners(
            graph_seed in 0u64..500,
            ops in 8usize..16,
            states in 0usize..3,
            slack in 0usize..2,
            threads in 1usize..3,
        ) {
            let cfg = RandomCdfgConfig { ops, states, ..RandomCdfgConfig::default() };
            let graph = random_cdfg(&cfg, graph_seed);
            let library = FuLibrary::standard();
            let schedule = schedule_for(&graph, &library, slack);
            let datapath = datapath_for(&graph, &schedule, &library);
            let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
            check_roundtrip(&ctx, &small_config(), threads);
        }
    }
}

//! Lowering a binding to the verifiable RTL program + storage claims.

use std::collections::BTreeSet;

use salsa_cdfg::ValueSource;
use salsa_datapath::{Claims, Exec, Load, LoadSrc, OperandSrc, Pass, Rtl, Verdict};

use crate::{Binding, TransferKey};

/// Lowers a binding and runs the full symbolic verification against its
/// own context, returning the lowered program alongside the structured
/// [`Verdict`] — the one shared gate every consumer (the allocator's
/// completion, the audit lane, the cluster coordinator's rebuilt-image
/// acceptance, the search-stage tests) funnels through.
pub fn verify_lowered(binding: &Binding<'_>) -> (Rtl, Claims, Verdict) {
    let (rtl, claims) = lower(binding);
    let ctx = binding.ctx();
    let verdict = salsa_datapath::verdict(
        ctx.graph,
        ctx.schedule,
        ctx.library,
        &ctx.datapath,
        &rtl,
        &claims,
    );
    (rtl, claims, verdict)
}

/// [`verify_lowered`], discarding the lowered program: the structured
/// verdict of symbolically verifying `binding`.
pub fn verify_binding(binding: &Binding<'_>) -> Verdict {
    verify_lowered(binding).2
}

/// Lowers a complete binding into the register-transfer program it
/// describes and the storage claims it makes — the inputs to
/// [`salsa_datapath::verify`].
pub fn lower(binding: &Binding<'_>) -> (Rtl, Claims) {
    let ctx = binding.ctx();
    let n = ctx.n_steps();
    let mut rtl = Rtl::new(n);
    let mut claims = Claims { array_banks: binding.array_banks().to_vec(), ..Claims::default() };

    // Operation issues and result loads.
    for op in ctx.graph.ops() {
        let issue = ctx.schedule.issue(op.id());
        let fu = binding.op_fu(op.id());
        let operand_src = |port: usize| -> OperandSrc {
            let value = op.input(port);
            match ctx.graph.value(value).source() {
                ValueSource::Const(c) => OperandSrc::Const(c),
                _ => {
                    let slot = binding.use_chain(op.id(), port);
                    let idx = ctx
                        .lifetime_index(value, issue)
                        .expect("operand stored at issue");
                    let chain = binding
                        .chains_of(value)
                        .find(|(s, _)| *s == slot)
                        .expect("use references a live chain")
                        .1;
                    OperandSrc::Reg(chain.reg_at(idx))
                }
            }
        };
        let (left, right) = if binding.op_swapped(op.id()) {
            (operand_src(1), operand_src(0))
        } else {
            (operand_src(0), operand_src(1))
        };
        rtl.steps[issue].execs.push(Exec { fu, op: op.id(), left, right });

        let done = ctx.completion_step(op.id());
        let out = op.output();
        let lt = ctx.lifetimes.get(out).expect("op outputs are stored");
        if lt.is_empty() {
            // Boundary-born feedback source: write each fed state's step-0
            // register directly.
            for &state in lt.feeds() {
                let dst = binding.primal(state).expect("states have storage").regs()[0];
                rtl.steps[done].loads.push(Load { reg: dst, src: LoadSrc::Fu(fu) });
            }
        } else {
            for (_, chain) in binding.chains_of(out) {
                if chain.lo() == 0 {
                    rtl.steps[done]
                        .loads
                        .push(Load { reg: chain.regs()[0], src: LoadSrc::Fu(fu) });
                }
            }
        }
    }

    // Register-to-register transfers (segment movement, copy feeds, loop
    // boundaries), possibly through pass-through units.
    let mut keys: BTreeSet<TransferKey> = BTreeSet::new();
    for value in ctx.graph.value_ids() {
        keys.extend(binding.transfer_keys_of(value));
    }
    for key in keys {
        let Some((src, dst, step)) = binding.transfer_endpoints(key) else { continue };
        match binding.passes().get(&key) {
            Some(&fu) => {
                rtl.steps[step].passes.push(Pass { fu, from: src });
                rtl.steps[step].loads.push(Load { reg: dst, src: LoadSrc::PassThrough(fu) });
            }
            None => {
                rtl.steps[step].loads.push(Load { reg: dst, src: LoadSrc::Reg(src) });
            }
        }
    }

    // Storage claims: every segment of every chain.
    for value in ctx.graph.value_ids() {
        let Some(lt) = ctx.lifetimes.get(value) else { continue };
        for (_, chain) in binding.chains_of(value) {
            for idx in chain.lo()..=chain.hi() {
                claims.claim(value, lt.steps()[idx], chain.reg_at(idx));
            }
        }
    }

    (rtl, claims)
}

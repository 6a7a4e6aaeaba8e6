//! Warm-start seeds: a prior winner's allocation image plus the delta
//! between its design and the one being allocated, packaged so the search
//! can start from (or be guided by) the previous answer instead of the
//! constructive initial allocation.
//!
//! A [`WarmSpec`] is **part of the job identity**: the serving layer
//! carries it inside the request knobs, so the result-cache key, the
//! recorded trace artifact and the offline audit replay all see the same
//! seed. That keeps the determinism contract intact — a warm-started job
//! is a pure function of `(design, knobs-including-seed)` and replays
//! byte-for-byte, exactly like a cold one.
//!
//! Three ingredients, all optional and composable:
//!
//! 1. **Image** ([`WarmSpec::parts`]) — the full [`BindingParts`] of the
//!    base winner. When the new design has identical dimensions and the
//!    image passes [`Binding::from_parts`]'s structural validation, the
//!    search starts exactly there ([`InitialBinding::Seeded`](crate::InitialBinding)).
//! 2. **Preferences** ([`WarmSpec::op_fu`] / [`WarmSpec::value_reg`]) —
//!    per-operation unit and per-value register choices remapped onto the
//!    *new* design's numbering by the caller (the server matches ops and
//!    values across the delta by label). The constructive allocator
//!    honours each preference when it is feasible and falls back to its
//!    normal first-available / fewest-connections rule when it is not.
//! 3. **Focus** ([`WarmSpec::focus_ops`] / [`WarmSpec::focus_values`]) —
//!    the ops/values touched by the CDFG delta. For the first
//!    [`bias_trials`](WarmSpec::bias_trials) trials the move draw is
//!    biased toward proposals touching the focus set (a non-focus draw
//!    gets one re-draw), concentrating early search effort where the
//!    design actually changed.

use crate::moves::Proposal;
use crate::{BindingParts, TransferKey};

/// The text-codec header (versioned like `salsa-trace/1`).
const HEADER: &str = "salsa-seed/1";

/// A warm-start seed: prior winner image, remapped preferences and the
/// delta focus set. See the module docs for the three ingredients.
///
/// All indices refer to the **new** design's canonical numbering (the
/// graph the seeded job allocates), except [`parts`](Self::parts), which
/// is the base winner's image and is only usable when the dimensions
/// still match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmSpec {
    /// The base winner's full allocation image, if dimension-compatible
    /// seeding should be attempted.
    pub parts: Option<BindingParts>,
    /// `(op index, preferred unit index)` pairs, sorted by op index.
    pub op_fu: Vec<(u32, u32)>,
    /// `(value index, preferred register index)` pairs, sorted by value
    /// index.
    pub value_reg: Vec<(u32, u32)>,
    /// Ops touched by the CDFG delta, sorted.
    pub focus_ops: Vec<u32>,
    /// Values touched by the CDFG delta, sorted.
    pub focus_values: Vec<u32>,
    /// Trials over which the delta-local move bias is active.
    pub bias_trials: u32,
    /// Provenance: the base job's result-cache key (0 when unset).
    pub source: u128,
    /// Provenance: the similarity-sketch distance between base and new
    /// design (0 for an exact-text base).
    pub distance: u64,
}

impl WarmSpec {
    /// An empty spec with the default bias window.
    pub fn new() -> Self {
        WarmSpec {
            parts: None,
            op_fu: Vec::new(),
            value_reg: Vec::new(),
            focus_ops: Vec::new(),
            focus_values: Vec::new(),
            bias_trials: 4,
            source: 0,
            distance: 0,
        }
    }

    /// Whether the spec carries any guided-constructive preferences.
    pub fn guided(&self) -> bool {
        !self.op_fu.is_empty() || !self.value_reg.is_empty()
    }

    /// Whether the spec carries a delta focus set to bias toward.
    pub fn has_focus(&self) -> bool {
        !self.focus_ops.is_empty() || !self.focus_values.is_empty()
    }

    /// The preferred unit index for an op, if any.
    pub(crate) fn op_pref(&self, op: usize) -> Option<usize> {
        let op = u32::try_from(op).ok()?;
        let i = self.op_fu.binary_search_by_key(&op, |&(o, _)| o).ok()?;
        Some(self.op_fu[i].1 as usize)
    }

    /// The preferred register index for a value, if any.
    pub(crate) fn value_pref(&self, value: usize) -> Option<usize> {
        let value = u32::try_from(value).ok()?;
        let i = self.value_reg.binary_search_by_key(&value, |&(v, _)| v).ok()?;
        Some(self.value_reg[i].1 as usize)
    }

    fn focus_op(&self, op: usize) -> bool {
        u32::try_from(op).is_ok_and(|o| self.focus_ops.binary_search(&o).is_ok())
    }

    fn focus_value(&self, value: usize) -> bool {
        u32::try_from(value).is_ok_and(|v| self.focus_values.binary_search(&v).is_ok())
    }

    fn focus_key(&self, key: &TransferKey) -> bool {
        match *key {
            TransferKey::Intra { value, .. } | TransferKey::CopyFeed { value, .. } => {
                self.focus_value(value.index())
            }
            TransferKey::Boundary { state } => self.focus_value(state.index()),
        }
    }

    /// Whether a resolved proposal touches the delta focus set. Unit
    /// exchanges (F1) carry no op identity and count as non-focus.
    pub fn touches(&self, p: &Proposal) -> bool {
        match *p {
            Proposal::FuExchange { .. } => false,
            Proposal::FuMove { op, .. } | Proposal::OperandReverse { op } => {
                self.focus_op(op.index())
            }
            Proposal::PassBind { ref key, .. } | Proposal::PassUnbind { ref key } => {
                self.focus_key(key)
            }
            Proposal::SegmentExchange { v1, v2, .. } | Proposal::ValueExchange { v1, v2, .. } => {
                self.focus_value(v1.index()) || self.focus_value(v2.index())
            }
            Proposal::SegmentMove { value, .. }
            | Proposal::ValueMove { value, .. }
            | Proposal::ValueSplitExtend { value, .. }
            | Proposal::ValueSplitNew { value, .. }
            | Proposal::ValueMerge { value, .. } => self.focus_value(value.index()),
            // Re-banking moves have no single-op identity (they re-home a
            // whole access set), so like F1 they never count as
            // delta-local; M3 is an op-targeted move like F2.
            Proposal::ArrayRebank { .. } | Proposal::BankExchange { .. } => false,
            Proposal::AccessReport { op, .. } => self.focus_op(op.index()),
        }
    }

    /// Serializes the spec to its single-line text form
    /// (`salsa-seed/1 src=.. dist=.. bias=.. fo=.. fv=.. of=.. vr=.. parts=..`).
    /// The encoding round-trips exactly through [`WarmSpec::decode`]; the
    /// serving layer embeds it in the request knobs, so it joins the
    /// result-cache key and the trace artifact verbatim.
    pub fn encode(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(256);
        let _ = write!(
            &mut out,
            "{HEADER} src={:032x} dist={} bias={}",
            self.source, self.distance, self.bias_trials
        );
        out.push_str(" fo=");
        encode_list(&mut out, &self.focus_ops);
        out.push_str(" fv=");
        encode_list(&mut out, &self.focus_values);
        out.push_str(" of=");
        encode_pairs(&mut out, &self.op_fu);
        out.push_str(" vr=");
        encode_pairs(&mut out, &self.value_reg);
        out.push_str(" parts=");
        match &self.parts {
            None => out.push('-'),
            Some(parts) => out.push_str(&parts.encode()),
        }
        out
    }

    /// Parses the text form produced by [`WarmSpec::encode`]. Input is
    /// untrusted wire data: every failure is a structured message, never
    /// a panic. (A decoded spec that names out-of-range entities is still
    /// *safe* — seeding validates against the target context and falls
    /// back to the constructive allocation.)
    pub fn decode(text: &str) -> Result<WarmSpec, String> {
        let mut tokens = text.split_ascii_whitespace();
        if tokens.next() != Some(HEADER) {
            return Err(format!("warm seed must start with `{HEADER}`"));
        }
        let mut spec = WarmSpec::new();
        for tok in tokens {
            let (key, val) = tok.split_once('=').ok_or_else(|| format!("bad token `{tok}`"))?;
            match key {
                "src" => {
                    spec.source = u128::from_str_radix(val, 16)
                        .map_err(|_| format!("bad source `{val}`"))?;
                }
                "dist" => {
                    spec.distance = val.parse().map_err(|_| format!("bad distance `{val}`"))?;
                }
                "bias" => {
                    spec.bias_trials = val.parse().map_err(|_| format!("bad bias `{val}`"))?;
                }
                "fo" => spec.focus_ops = decode_list(val)?,
                "fv" => spec.focus_values = decode_list(val)?,
                "of" => spec.op_fu = decode_pairs(val)?,
                "vr" => spec.value_reg = decode_pairs(val)?,
                "parts" => {
                    spec.parts =
                        if val == "-" { None } else { Some(BindingParts::decode(val)?) };
                }
                other => return Err(format!("unknown field `{other}`")),
            }
        }
        if !spec.focus_ops.is_sorted() || !spec.focus_values.is_sorted() {
            return Err("focus sets must be sorted".into());
        }
        if !spec.op_fu.is_sorted_by_key(|&(o, _)| o) || !spec.value_reg.is_sorted_by_key(|&(v, _)| v)
        {
            return Err("preference tables must be sorted".into());
        }
        Ok(spec)
    }
}

impl Default for WarmSpec {
    fn default() -> Self {
        Self::new()
    }
}

fn encode_list(out: &mut String, list: &[u32]) {
    use std::fmt::Write;
    if list.is_empty() {
        out.push('-');
        return;
    }
    for (i, n) in list.iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        let _ = write!(out, "{n}");
    }
}

fn decode_list(text: &str) -> Result<Vec<u32>, String> {
    if text == "-" {
        return Ok(Vec::new());
    }
    text.split('.')
        .map(|p| p.parse().map_err(|_| format!("bad index `{p}`")))
        .collect()
}

fn encode_pairs(out: &mut String, pairs: &[(u32, u32)]) {
    use std::fmt::Write;
    if pairs.is_empty() {
        out.push('-');
        return;
    }
    for (i, (a, b)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{a}:{b}");
    }
}

fn decode_pairs(text: &str) -> Result<Vec<(u32, u32)>, String> {
    if text == "-" {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|p| {
            let (a, b) = p.split_once(':').ok_or_else(|| format!("bad pair `{p}`"))?;
            Ok((
                a.parse().map_err(|_| format!("bad pair `{p}`"))?,
                b.parse().map_err(|_| format!("bad pair `{p}`"))?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{initial_allocation, AllocContext};
    use salsa_datapath::{FuId, RegId};
    use salsa_cdfg::benchmarks::paper_example;
    use salsa_datapath::Datapath;
    use salsa_sched::{fds_schedule, FuLibrary};

    fn spec_with_parts() -> WarmSpec {
        let graph = paper_example();
        let library = FuLibrary::standard();
        let schedule = fds_schedule(&graph, &library, 4).unwrap();
        let datapath = Datapath::new(
            &schedule.fu_demand(&graph, &library),
            schedule.register_demand(&graph, &library),
        );
        let ctx = AllocContext::new(&graph, &schedule, &library, datapath).unwrap();
        let binding = initial_allocation(&ctx);
        WarmSpec {
            parts: Some(binding.to_parts()),
            op_fu: vec![(0, 2), (5, 1)],
            value_reg: vec![(3, 4)],
            focus_ops: vec![1, 5, 9],
            focus_values: vec![2, 7],
            bias_trials: 6,
            source: 0xdead_beef_dead_beef_dead_beef_dead_beef,
            distance: 17,
        }
    }

    #[test]
    fn codec_round_trips_exactly() {
        let spec = spec_with_parts();
        let text = spec.encode();
        let back = WarmSpec::decode(&text).expect("decode");
        assert_eq!(spec, back);
        assert_eq!(back.encode(), text, "re-encode must be byte-identical");
    }

    #[test]
    fn empty_spec_round_trips() {
        let spec = WarmSpec::new();
        let back = WarmSpec::decode(&spec.encode()).expect("decode");
        assert_eq!(spec, back);
    }

    #[test]
    fn corrupted_specs_are_rejected_not_panicked() {
        let good = spec_with_parts().encode();
        assert!(WarmSpec::decode("salsa-seed/2 src=0").is_err(), "wrong header");
        assert!(WarmSpec::decode(&good.replace("dist=17", "dist=x")).is_err());
        assert!(WarmSpec::decode(&good.replace("fo=1.5.9", "fo=9.5.1")).is_err(), "unsorted");
        assert!(WarmSpec::decode(&good.replace("src=", "zzz=")).is_err());
        for cut in [good.len() / 3, good.len() / 2, 2 * good.len() / 3] {
            // Truncation must fail cleanly or parse to *some* valid spec —
            // never panic.
            let _ = WarmSpec::decode(&good[..cut]);
        }
    }

    #[test]
    fn touches_matches_focus_membership() {
        use salsa_cdfg::{OpId, ValueId};
        let spec = spec_with_parts();
        assert!(spec.touches(&Proposal::OperandReverse { op: OpId::from_index(5) }));
        assert!(!spec.touches(&Proposal::OperandReverse { op: OpId::from_index(4) }));
        assert!(spec.touches(&Proposal::ValueMove {
            value: ValueId::from_index(7),
            target: RegId::from_index(0),
        }));
        assert!(!spec.touches(&Proposal::FuExchange {
            a: FuId::from_index(0),
            z: FuId::from_index(1),
        }));
        assert!(spec.touches(&Proposal::PassUnbind {
            key: TransferKey::Boundary { state: ValueId::from_index(2) },
        }));
    }
}

//! The coordinator↔worker wire protocol.
//!
//! Workers drive every exchange (the coordinator never initiates), one
//! JSON object per line, one response per request:
//!
//! ```json
//! > {"cmd":"poll","worker":"w0","bound":null}
//! < {"status":"assign","job":1,"shard":0,"slot_start":0,"slot_end":2,
//!    "cdfg":"...","knobs":{...},"lease_ms":5000,"bound":null,
//!    "cutoff":null,"min_trials":2}
//! < {"status":"idle","retry_after_ms":50}
//! < {"status":"shutdown"}
//!
//! > {"cmd":"heartbeat","worker":"w0","job":1,"shard":0,"bound":612}
//! < {"status":"ack","bound":598,"revoked":false,"cancelled":false}
//!
//! > {"cmd":"result","worker":"w0","job":1,"shard":0,"bound":598,
//!    "chains":[{...}]}
//! < {"status":"ack","bound":598,"accepted":true,"revoked":false,
//!    "cancelled":false}
//! ```
//!
//! Chains travel as their statistics only — slot, seed, completion, cost
//! and the improvement counters — plus, per result, the serialized
//! assignment state ([`BindingParts`]) of the shard's best chain under a
//! `"binding"` key. The coordinator rebuilds the winning allocation from
//! that image (cost-verified against the reported cost) and falls back to
//! seed replay when the field is absent, malformed, or disagrees.

use salsa_alloc::{BindingParts, ChainOutcome, ChainStat, FuId, ImproveStats, RegId, TransferKey};
use salsa_cdfg::ValueId;
use salsa_serve::json::Json;

/// Bounds travel as `null` (no bound yet) or the cost integer. `u64::MAX`
/// is the in-memory "no bound" sentinel, mirroring
/// [`SearchBound`](salsa_alloc::SearchBound).
pub fn bound_to_json(bound: u64) -> Json {
    if bound == u64::MAX {
        Json::Null
    } else {
        Json::Int(bound as i64)
    }
}

/// Inverse of [`bound_to_json`]; absent/null/garbage all mean "no bound"
/// (a lost bound only costs pruning, never correctness).
pub fn bound_from_json(value: Option<&Json>) -> u64 {
    value.and_then(Json::as_u64).unwrap_or(u64::MAX)
}

fn usize_field(obj: &Json, key: &str) -> Option<usize> {
    obj.get(key).and_then(Json::as_u64).map(|v| v as usize)
}

/// Serializes one chain outcome for a `result` message.
pub fn chain_to_json(chain: &ChainOutcome) -> Json {
    let s = &chain.improve;
    Json::obj(vec![
        ("slot", Json::Int(chain.stat.slot as i64)),
        ("seed", Json::Int(chain.stat.seed as i64)),
        ("completed", Json::Bool(chain.stat.completed)),
        (
            "cost",
            match chain.cost {
                Some(cost) => Json::Int(cost as i64),
                None => Json::Null,
            },
        ),
        ("wall_nanos", Json::Int(chain.stat.wall_nanos as i64)),
        ("initial_cost", Json::Int(s.initial_cost as i64)),
        ("final_cost", Json::Int(s.final_cost as i64)),
        ("trials", Json::Int(s.trials as i64)),
        ("attempted", Json::Int(s.attempted as i64)),
        ("applied", Json::Int(s.applied as i64)),
        ("accepted", Json::Int(s.accepted as i64)),
        ("uphill_accepted", Json::Int(s.uphill_accepted as i64)),
        ("trials_to_best", Json::Int(s.trials_to_best as i64)),
        ("elapsed_nanos", Json::Int(s.elapsed_nanos as i64)),
    ])
}

/// Parses one chain outcome out of a `result` message. Returns `None` on
/// a malformed entry (the coordinator then rejects the whole result and
/// lets the lease run its course).
pub fn chain_from_json(obj: &Json) -> Option<ChainOutcome> {
    let improve = ImproveStats {
        initial_cost: obj.get("initial_cost")?.as_u64()?,
        final_cost: obj.get("final_cost")?.as_u64()?,
        trials: usize_field(obj, "trials")?,
        attempted: usize_field(obj, "attempted")?,
        applied: usize_field(obj, "applied")?,
        accepted: usize_field(obj, "accepted")?,
        uphill_accepted: usize_field(obj, "uphill_accepted")?,
        trials_to_best: usize_field(obj, "trials_to_best").unwrap_or(0),
        elapsed_nanos: obj.get("elapsed_nanos")?.as_u64()?,
    };
    let completed = obj.get("completed")?.as_bool()?;
    let cost = match obj.get("cost") {
        Some(Json::Null) | None => None,
        Some(v) => Some(v.as_u64()?),
    };
    if completed != cost.is_some() {
        return None;
    }
    let stat = ChainStat {
        slot: usize_field(obj, "slot")?,
        seed: obj.get("seed")?.as_u64()?,
        completed,
        trials: improve.trials,
        attempted: improve.attempted,
        best_cost: improve.final_cost,
        moves_per_sec: improve.moves_per_sec(),
        wall_nanos: obj.get("wall_nanos")?.as_u64()?,
    };
    Some(ChainOutcome { stat, improve, cost })
}

/// Serializes a shard's best binding for a `result` message: the winning
/// slot plus the full assignment image, id indices as plain integers.
pub fn binding_to_json(slot: usize, parts: &BindingParts) -> Json {
    Json::obj(vec![
        ("slot", Json::Int(slot as i64)),
        (
            "op_fu",
            Json::Arr(parts.op_fu.iter().map(|f| Json::Int(f.index() as i64)).collect()),
        ),
        ("op_swap", Json::Arr(parts.op_swap.iter().map(|&s| Json::Bool(s)).collect())),
        (
            "chains",
            Json::Arr(
                parts
                    .chains
                    .iter()
                    .map(|slots| {
                        Json::Arr(
                            slots
                                .iter()
                                .map(|entry| match entry {
                                    None => Json::Null,
                                    Some((lo, regs)) => Json::Arr(vec![
                                        Json::Int(*lo as i64),
                                        Json::Arr(
                                            regs.iter()
                                                .map(|r| Json::Int(r.index() as i64))
                                                .collect(),
                                        ),
                                    ]),
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "use_chain",
            Json::Arr(
                parts
                    .use_chain
                    .iter()
                    .map(|[a, b]| Json::Arr(vec![Json::Int(*a as i64), Json::Int(*b as i64)]))
                    .collect(),
            ),
        ),
        (
            "passes",
            Json::Arr(parts.passes.iter().map(|&(key, fu)| pass_to_json(key, fu)).collect()),
        ),
        (
            "array_banks",
            Json::Arr(parts.array_banks.iter().map(|&b| Json::Int(b as i64)).collect()),
        ),
    ])
}

fn pass_to_json(key: TransferKey, fu: FuId) -> Json {
    let fu = Json::Int(fu.index() as i64);
    match key {
        TransferKey::Intra { value, chain, idx } => Json::obj(vec![
            ("kind", Json::Str("intra".into())),
            ("value", Json::Int(value.index() as i64)),
            ("chain", Json::Int(chain as i64)),
            ("idx", Json::Int(idx as i64)),
            ("fu", fu),
        ]),
        TransferKey::CopyFeed { value, chain } => Json::obj(vec![
            ("kind", Json::Str("feed".into())),
            ("value", Json::Int(value.index() as i64)),
            ("chain", Json::Int(chain as i64)),
            ("fu", fu),
        ]),
        TransferKey::Boundary { state } => Json::obj(vec![
            ("kind", Json::Str("boundary".into())),
            ("value", Json::Int(state.index() as i64)),
            ("fu", fu),
        ]),
    }
}

/// The slot a shipped binding claims to be, if the field parses.
pub fn binding_slot(obj: &Json) -> Option<usize> {
    usize_field(obj, "slot")
}

/// Parses a shipped binding image. Structure only — id ranges and
/// allocation invariants are checked by
/// [`Binding::from_parts`](salsa_alloc::Binding::from_parts); `None` (like
/// any downstream rejection) just sends the coordinator to seed replay.
pub fn binding_parts_from_json(obj: &Json) -> Option<BindingParts> {
    let arr = |key: &str| match obj.get(key) {
        Some(Json::Arr(items)) => Some(items),
        _ => None,
    };
    let op_fu = arr("op_fu")?
        .iter()
        .map(|v| v.as_u64().map(|i| FuId::from_index(i as usize)))
        .collect::<Option<Vec<_>>>()?;
    let op_swap = arr("op_swap")?.iter().map(Json::as_bool).collect::<Option<Vec<_>>>()?;
    let chains = arr("chains")?
        .iter()
        .map(|slots| match slots {
            Json::Arr(entries) => entries
                .iter()
                .map(|entry| match entry {
                    Json::Null => Some(None),
                    Json::Arr(pair) if pair.len() == 2 => {
                        let lo = pair[0].as_u64()? as usize;
                        let regs = match &pair[1] {
                            Json::Arr(regs) => regs
                                .iter()
                                .map(|r| r.as_u64().map(|i| RegId::from_index(i as usize)))
                                .collect::<Option<Vec<_>>>(),
                            _ => None,
                        }?;
                        Some(Some((lo, regs)))
                    }
                    _ => None,
                })
                .collect::<Option<Vec<_>>>(),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    let use_chain = arr("use_chain")?
        .iter()
        .map(|pair| match pair {
            Json::Arr(items) if items.len() == 2 => {
                Some([items[0].as_u64()? as usize, items[1].as_u64()? as usize])
            }
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    let passes = arr("passes")?.iter().map(pass_from_json).collect::<Option<Vec<_>>>()?;
    // Absent on images from peers predating the memory model: an empty
    // table is valid for scalar graphs, and `from_parts` rejects it (→
    // seed replay) when the graph declares arrays.
    let array_banks = match obj.get("array_banks") {
        Some(Json::Arr(items)) => {
            items.iter().map(|v| v.as_u64().map(|b| b as u32)).collect::<Option<Vec<_>>>()?
        }
        _ => Vec::new(),
    };
    Some(BindingParts { op_fu, op_swap, chains, use_chain, passes, array_banks })
}

fn pass_from_json(obj: &Json) -> Option<(TransferKey, FuId)> {
    let fu = FuId::from_index(usize_field(obj, "fu")?);
    let value = ValueId::from_index(usize_field(obj, "value")?);
    let key = match obj.get("kind")?.as_str()? {
        "intra" => TransferKey::Intra {
            value,
            chain: usize_field(obj, "chain")?,
            idx: usize_field(obj, "idx")?,
        },
        "feed" => TransferKey::CopyFeed { value, chain: usize_field(obj, "chain")? },
        "boundary" => TransferKey::Boundary { state: value },
        _ => return None,
    };
    Some((key, fu))
}

#[cfg(test)]
mod tests {
    use super::*;
    use salsa_serve::json::parse_json;

    fn sample() -> ChainOutcome {
        let improve = ImproveStats {
            initial_cost: 700,
            final_cost: 612,
            trials: 9,
            attempted: 5400,
            applied: 2100,
            accepted: 1800,
            uphill_accepted: 40,
            trials_to_best: 7,
            elapsed_nanos: 123_456_789,
        };
        ChainOutcome {
            stat: ChainStat {
                slot: 3,
                seed: 45,
                        completed: true,
                trials: improve.trials,
                attempted: improve.attempted,
                best_cost: improve.final_cost,
                moves_per_sec: improve.moves_per_sec(),
                wall_nanos: 130_000_000,
            },
            improve,
            cost: Some(612),
        }
    }

    #[test]
    fn chains_roundtrip_exactly() {
        let chain = sample();
        let wire = chain_to_json(&chain).to_string_compact();
        let back = chain_from_json(&parse_json(&wire).unwrap()).unwrap();
        assert_eq!(back.improve, chain.improve);
        assert_eq!(back.cost, chain.cost);
        assert_eq!(back.stat.slot, chain.stat.slot);
        assert_eq!(back.stat.seed, chain.stat.seed);
        assert_eq!(back.stat.completed, chain.stat.completed);
        assert_eq!(back.stat.wall_nanos, chain.stat.wall_nanos);
    }

    #[test]
    fn completion_and_cost_must_agree() {
        let chain = sample();
        let mut wire = chain_to_json(&chain);
        if let Json::Obj(pairs) = &mut wire {
            for (k, v) in pairs.iter_mut() {
                if k == "cost" {
                    *v = Json::Null;
                }
            }
        }
        assert!(chain_from_json(&wire).is_none(), "completed chain without a cost is malformed");
    }

    #[test]
    fn binding_parts_roundtrip_exactly() {
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
        let wire = binding_to_json(5, &parts).to_string_compact();
        let parsed = parse_json(&wire).unwrap();
        assert_eq!(binding_slot(&parsed), Some(5));
        assert_eq!(binding_parts_from_json(&parsed).unwrap(), parts);
    }

    #[test]
    fn bounds_use_null_for_unset() {
        assert_eq!(bound_to_json(u64::MAX), Json::Null);
        assert_eq!(bound_to_json(612), Json::Int(612));
        assert_eq!(bound_from_json(Some(&Json::Null)), u64::MAX);
        assert_eq!(bound_from_json(Some(&Json::Int(612))), 612);
        assert_eq!(bound_from_json(None), u64::MAX);
    }
}

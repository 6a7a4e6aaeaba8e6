//! The coordinator↔worker wire protocol.
//!
//! Workers drive every exchange (the coordinator never initiates), one
//! JSON object per binary frame, one response per request:
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
//! and the improvement counters — plus, per result, the assignment image
//! ([`BindingParts`]) of the shard's best chain under a `"binding"` key:
//! `{"slot":3,"parts":"u=...;c=...;p=...;b=..."}`, the parts text a warm
//! seed also embeds. The coordinator rebuilds the winning allocation from
//! that image (cost-verified against the reported cost) and falls back to
//! seed replay when the field is absent, malformed, or disagrees.

use salsa_alloc::{BindingParts, ChainOutcome, ChainStat, ImproveStats};
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

/// The `binding` field of a `result` message: the shard's best slot and
/// its assignment image in the [`BindingParts::encode`] text.
pub fn image_to_json(slot: usize, parts: &BindingParts) -> Json {
    Json::obj(vec![("slot", Json::Int(slot as i64)), ("parts", Json::Str(parts.encode()))])
}

/// The slot and the still-encoded parts text of a shipped image, if both
/// fields are present. Decoding is left to the coordinator, which needs
/// only the winner's image; an image from an older worker (a JSON object
/// in place of the text) fails there and sends the job to seed replay.
pub fn image_from_json(obj: &Json) -> Option<(usize, &str)> {
    Some((usize_field(obj, "slot")?, obj.get("parts")?.as_str()?))
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
    fn bounds_use_null_for_unset() {
        assert_eq!(bound_to_json(u64::MAX), Json::Null);
        assert_eq!(bound_to_json(612), Json::Int(612));
        assert_eq!(bound_from_json(Some(&Json::Null)), u64::MAX);
        assert_eq!(bound_from_json(Some(&Json::Int(612))), 612);
        assert_eq!(bound_from_json(None), u64::MAX);
    }
}

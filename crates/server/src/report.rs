//! The allocation report as JSON — the one serializer shared by the
//! server's `allocate` responses and the CLI's `--json` output mode, so a
//! report reads identically whether it came over the wire or off the
//! terminal.
//!
//! Key order is fixed (insertion-ordered objects), so serializing the
//! same result twice yields the same bytes except for the fields that
//! measure the run that produced them: the timings and the portfolio's
//! worker count and speedup.

use salsa_alloc::AllocResult;
use salsa_cdfg::Cdfg;
use salsa_datapath::{bus_allocate, traffic_from_rtl};
use salsa_sched::Schedule;

use crate::json::Json;

/// Serializes an allocation result (plus the schedule and knobs it was
/// produced under) into the protocol's report object.
pub fn report_json(graph: &Cdfg, schedule: &Schedule, seed: u64, result: &AllocResult) -> Json {
    let bus = bus_allocate(&traffic_from_rtl(&result.rtl));
    let stats = &result.stats;
    let portfolio = &result.portfolio;
    let mut breakdown = vec![
        ("fu_area", Json::Int(result.breakdown.fu_area as i64)),
        ("registers", Json::Int(result.breakdown.used_regs as i64)),
        ("mux_equiv", Json::Int(result.breakdown.mux_equiv as i64)),
        ("connections", Json::Int(result.breakdown.connections as i64)),
    ];
    if graph.has_memory() {
        // Memory terms appear only for memory designs, keeping scalar
        // reports byte-identical to their pre-memory form.
        breakdown.push(("mem_banks", Json::Int(result.breakdown.mem_banks as i64)));
        breakdown.push(("addr_mux", Json::Int(result.breakdown.addr_mux as i64)));
        breakdown.push(("bank_conflicts", Json::Int(result.breakdown.bank_conflicts as i64)));
    }
    let mut pairs = vec![
        ("design", Json::Str(graph.name().to_string())),
        ("steps", Json::Int(schedule.n_steps() as i64)),
        ("seed", Json::Int(seed as i64)),
        ("cost", Json::Int(result.cost as i64)),
        ("breakdown", Json::obj(breakdown)),
        (
            "mux",
            Json::obj(vec![
                ("point_to_point", Json::Int(result.breakdown.mux_equiv as i64)),
                ("merged", Json::Int(result.merged_mux_count() as i64)),
            ]),
        ),
        (
            "bus",
            Json::obj(vec![
                ("buses", Json::Int(bus.num_buses() as i64)),
                ("mux_equiv", Json::Int(bus.total_mux_equiv() as i64)),
            ]),
        ),
        (
            "search",
            Json::obj(vec![
                ("trials", Json::Int(stats.trials as i64)),
                ("attempted", Json::Int(stats.attempted as i64)),
                ("accepted", Json::Int(stats.accepted as i64)),
                ("uphill_accepted", Json::Int(stats.uphill_accepted as i64)),
                ("initial_cost", Json::Int(stats.initial_cost as i64)),
                ("final_cost", Json::Int(stats.final_cost as i64)),
                ("trials_to_best", Json::Int(stats.trials_to_best as i64)),
                ("elapsed_ms", Json::Float(stats.elapsed_nanos as f64 / 1e6)),
                ("moves_per_sec", Json::Float(stats.moves_per_sec())),
            ]),
        ),
        (
            "portfolio",
            Json::obj(vec![
                ("threads", Json::Int(portfolio.threads as i64)),
                ("chains", Json::Int(portfolio.chains.len() as i64)),
                ("winner_slot", Json::Int(portfolio.winner_slot as i64)),
                ("speedup", Json::Float(portfolio.speedup())),
            ]),
        ),
        ("verified", Json::Bool(result.verified())),
    ];
    // Warm-start provenance, present exactly when the job carried a
    // seed: how the search actually started, where the seed came from,
    // how far the base design was, and how fast the best was reached.
    // Deterministic in `(inputs, knobs)` like the rest of the report, so
    // it survives canonicalization and byte-replay untouched.
    if let Some(warm) = &result.warm {
        let section = Json::obj(vec![
            ("mode", Json::Str(warm.mode.as_str().to_string())),
            ("source", Json::Str(format!("{:032x}", warm.source))),
            ("distance", Json::Int(warm.distance as i64)),
            ("bias_trials", Json::Int(warm.bias_trials as i64)),
            ("trials_to_best", Json::Int(stats.trials_to_best as i64)),
        ]);
        let at = pairs.iter().position(|(k, _)| *k == "verified").unwrap_or(pairs.len());
        pairs.insert(at, ("warm_start", section));
    }
    Json::obj(pairs)
}

/// Puts a report in canonical form, in place: zeroes the wall-clock
/// fields `search.elapsed_ms`, `search.moves_per_sec` and
/// `certificate.verify_ms`, and drops `portfolio.threads` and
/// `portfolio.speedup`.
///
/// Everything else in a report is deterministic in `(design, knobs)`;
/// only these fields measure the run that produced them, and the worker
/// count is an execution hint, not a knob. The canonical form is
/// therefore the same at any thread count; the byte-exact contract, the
/// CI report diffs, the golden reports, the verdict fingerprint and
/// offline audit compare reports in it. Accepts either a bare report
/// object or a full `{"status":"ok","report":{...}}` response.
pub fn canonicalize_report(json: &mut Json) {
    if let Json::Obj(pairs) = json {
        for (key, value) in pairs.iter_mut() {
            match key.as_str() {
                "report" => canonicalize_report(value),
                "search" => zero_fields(value, &["elapsed_ms", "moves_per_sec"]),
                "portfolio" => {
                    if let Json::Obj(fields) = value {
                        fields.retain(|(k, _)| k != "threads" && k != "speedup");
                    }
                }
                "certificate" => zero_fields(value, &["verify_ms"]),
                _ => {}
            }
        }
    }
}

fn zero_fields(obj: &mut Json, keys: &[&str]) {
    if let Json::Obj(pairs) = obj {
        for (key, value) in pairs.iter_mut() {
            if keys.contains(&key.as_str()) {
                *value = Json::Float(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salsa_alloc::{Allocator, ImproveConfig};
    use salsa_sched::{fds_schedule, FuLibrary};

    #[test]
    fn report_has_the_full_shape_and_consistent_numbers() {
        let graph = salsa_cdfg::benchmarks::paper_example();
        let library = FuLibrary::standard();
        let schedule = fds_schedule(&graph, &library, 4).unwrap();
        let result = Allocator::new(&graph, &schedule, &library)
            .seed(3)
            .config(ImproveConfig {
                max_trials: 2,
                moves_per_trial: Some(100),
                ..ImproveConfig::default()
            })
            .run()
            .unwrap();
        let json = report_json(&graph, &schedule, 3, &result);

        assert_eq!(json.get("design").and_then(Json::as_str), Some("paper_example"));
        assert_eq!(json.get("steps").and_then(Json::as_u64), Some(4));
        assert_eq!(json.get("seed").and_then(Json::as_u64), Some(3));
        assert_eq!(json.get("cost").and_then(Json::as_u64), Some(result.cost));
        assert_eq!(json.get("verified").and_then(Json::as_bool), Some(true));
        let breakdown = json.get("breakdown").expect("breakdown");
        assert_eq!(
            breakdown.get("registers").and_then(Json::as_u64),
            Some(result.breakdown.used_regs as u64)
        );
        let mux = json.get("mux").expect("mux");
        assert!(
            mux.get("merged").and_then(Json::as_u64).unwrap()
                <= mux.get("point_to_point").and_then(Json::as_u64).unwrap(),
            "merging never increases the mux count"
        );
        let search = json.get("search").expect("search");
        assert!(search.get("attempted").is_some());
        assert!(json.get("portfolio").and_then(|p| p.get("chains")).is_some());

        // The serializer is stable: same result, same bytes.
        assert_eq!(
            json.to_string_compact(),
            report_json(&graph, &schedule, 3, &result).to_string_compact()
        );

        // Canonicalization zeroes exactly the wall-clock fields and
        // drops the worker count and speedup, whether the report is bare
        // or wrapped in an ok response.
        let mut bare = json.clone();
        canonicalize_report(&mut bare);
        let search = bare.get("search").unwrap();
        assert_eq!(search.get("elapsed_ms"), Some(&Json::Float(0.0)));
        assert_eq!(search.get("moves_per_sec"), Some(&Json::Float(0.0)));
        let portfolio = bare.get("portfolio").unwrap();
        assert_eq!(portfolio.get("threads"), None);
        assert_eq!(portfolio.get("speedup"), None);
        assert!(json.get("portfolio").unwrap().get("threads").is_some());
        assert_eq!(portfolio.get("winner_slot"), json.get("portfolio").unwrap().get("winner_slot"));
        assert_eq!(search.get("trials"), json.get("search").unwrap().get("trials"));
        let mut wrapped = crate::protocol::ok_response(json.clone());
        canonicalize_report(&mut wrapped);
        assert_eq!(wrapped.get("report"), Some(&bare));
    }

    #[test]
    fn canonicalization_zeroes_certificate_timing_but_keeps_its_substance() {
        let mut report = Json::obj(vec![
            ("cost", Json::Int(42)),
            (
                "certificate",
                Json::obj(vec![
                    ("verdict", Json::Str("certified".into())),
                    ("verify_ms", Json::Float(3.25)),
                    ("trace_id", Json::Str("abc123".into())),
                ]),
            ),
        ]);
        canonicalize_report(&mut report);
        let cert = report.get("certificate").unwrap();
        assert_eq!(cert.get("verify_ms"), Some(&Json::Float(0.0)));
        assert_eq!(cert.get("verdict").and_then(Json::as_str), Some("certified"));
        assert_eq!(cert.get("trace_id").and_then(Json::as_str), Some("abc123"));
        assert_eq!(report.get("cost"), Some(&Json::Int(42)));
    }
}

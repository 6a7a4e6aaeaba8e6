//! Warm-start end to end: the similarity sketch's renumbering
//! invariance (property-tested over random designs), the warm-vs-cold
//! cost contract at equal trial budget, and the `reallocate` verb's
//! full wire flow — provenance in the report, certification under
//! `verify: full`, and the guarantee that warm and cold runs of one
//! design never share a result-cache entry.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use salsa_cdfg::{parse_cdfg, random_cdfg, OpKind, RandomCdfgConfig};
use salsa_serve::{
    build_warm_spec, parse_json, resolve_graph, run_artifact, AdmissionArtifact, GraphSource,
    Json, Knobs, SeedEntry, Server, ServerConfig, Sketch,
};
use salsa_wire::{Connection, Protocol};

/// Re-spells a canonical CDFG: every op renamed and the op statements
/// emitted in a *different* (but still valid) topological order, so the
/// reparse numbers ops and values differently. Structure is untouched —
/// the sketch must not move at all.
fn renumbered(text: &str) -> String {
    let mut header = Vec::new();
    let mut ops: Vec<(String, String)> = Vec::new(); // (label, full line)
    let mut outputs = Vec::new();
    let mut defined: Vec<String> = Vec::new();
    for line in text.lines() {
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some("op") => {
                let label = tokens.next().expect("op label").to_string();
                ops.push((label, line.to_string()));
            }
            Some("output") => outputs.push(line.to_string()),
            Some("input") | Some("state") | Some("const") | Some("array") => {
                defined.push(tokens.next().expect("decl name").to_string());
                header.push(line.to_string());
            }
            _ => header.push(line.to_string()),
        }
    }

    // Kahn's algorithm, preferring the *last* ready op — a different but
    // equally valid topological order whenever any two ops are
    // independent.
    let mut emitted: Vec<(String, String)> = Vec::new();
    let mut pending = ops;
    while !pending.is_empty() {
        let ready = pending
            .iter()
            .rposition(|(_, line)| {
                line.split_whitespace().skip(4).all(|operand| {
                    defined.iter().any(|d| d.as_str() == operand)
                        || emitted.iter().any(|(l, _)| l.as_str() == operand)
                        || operand.parse::<i64>().is_ok()
                })
            })
            .expect("canonical text is topologically ordered");
        let (label, line) = pending.remove(ready);
        defined.push(label.clone());
        emitted.push((label, line));
    }

    // Rename every op label in emission order; inputs keep their names.
    let renames: BTreeMap<String, String> = emitted
        .iter()
        .enumerate()
        .map(|(i, (label, _))| (label.clone(), format!("rn{i}")))
        .collect();
    let rename = |token: &str| renames.get(token).cloned().unwrap_or_else(|| token.to_string());

    let mut out = header.join("\n");
    for (_, line) in &emitted {
        let tokens: Vec<String> = line.split_whitespace().map(&rename).collect();
        out.push('\n');
        out.push_str(&tokens.join(" "));
    }
    for line in &outputs {
        let tokens: Vec<String> = line.split_whitespace().map(&rename).collect();
        out.push('\n');
        out.push_str(&tokens.join(" "));
    }
    out.push('\n');
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The sketch consults neither ids nor labels, so renaming every op
    /// and renumbering via a different topological order must land at
    /// distance exactly 0 — the invariance the seed index relies on to
    /// recognize a resubmitted design under fresh spelling.
    #[test]
    fn sketch_is_invariant_under_renumbering_and_relabeling(
        seed in 0u64..500,
        ops in 4usize..30,
        inputs in 1usize..4,
        mul_ratio in 0.0f64..0.8,
    ) {
        let cfg = RandomCdfgConfig {
            ops,
            inputs,
            states: 0,
            mul_ratio,
            const_coeff_ratio: 0.0,
            ..RandomCdfgConfig::default()
        };
        let graph = random_cdfg(&cfg, seed);
        let text = graph.canonical_text();
        let respelled = renumbered(&text);
        let reparsed = parse_cdfg(&respelled)
            .map_err(|e| TestCaseError::fail(format!("respelled text unparsable: {e}\n{respelled}")))?;
        let (a, b) = (Sketch::of(&graph), Sketch::of(&reparsed));
        prop_assert_eq!(a.distance(&b), 0, "sketch moved under renumbering:\n{}\n{}", text, respelled);
    }

    /// The same invariance over memory designs: arrays, loads and stores
    /// are structural mass like any other, and a respelling that
    /// renumbers every op must still land at distance exactly 0.
    #[test]
    fn sketch_invariance_holds_on_memory_graphs(
        seed in 0u64..500,
        ops in 6usize..30,
        inputs in 1usize..4,
        arrays in 1usize..4,
        mem_ratio in 0.05f64..0.5,
    ) {
        let cfg = RandomCdfgConfig {
            ops,
            inputs,
            states: 0,
            const_coeff_ratio: 0.0,
            arrays,
            mem_ratio,
            ..RandomCdfgConfig::default()
        };
        let graph = random_cdfg(&cfg, seed);
        prop_assert!(graph.has_memory());
        let text = graph.canonical_text();
        let respelled = renumbered(&text);
        let reparsed = parse_cdfg(&respelled)
            .map_err(|e| TestCaseError::fail(format!("respelled text unparsable: {e}\n{respelled}")))?;
        let (a, b) = (Sketch::of(&graph), Sketch::of(&reparsed));
        prop_assert_eq!(a.distance(&b), 0, "sketch moved under renumbering:\n{}\n{}", text, respelled);
    }
}

#[test]
fn memory_and_scalar_designs_never_seed_each_other() {
    // A memory design and its scalar look-alike (loads flattened to
    // arithmetic) bind incompatible resources — bank tables, memory
    // ports — so the sketch must hold them outside seeding distance even
    // when the surrounding arithmetic is identical.
    let mem = parse_cdfg(
        "cdfg m\narray t 4 = 1 2 3 4\ninput a\nop l0 = load t a\nop y = add l0 a\noutput y\n",
    )
    .unwrap();
    let scalar =
        parse_cdfg("cdfg s\ninput a\nop l0 = add a a\nop y = add l0 a\noutput y\n").unwrap();
    let (sm, ss) = (Sketch::of(&mem), Sketch::of(&scalar));
    let d = sm.distance(&ss);
    assert!(d > 0, "memory structure must register in the sketch");
    assert!(!sm.accepts(d), "a scalar winner must not warm-start a memory job (d={d})");
    assert!(!ss.accepts(d), "a memory winner must not warm-start a scalar job (d={d})");
}

/// One-add-flipped variant of a design's canonical text — the
/// incremental-edit shape the warm path exists for.
fn flipped_variant(canonical: &str) -> String {
    let variant = canonical.replacen("= add", "= sub", 1);
    assert_ne!(variant, canonical, "design has an add op to flip");
    variant
}

#[test]
fn warm_start_cost_never_exceeds_cold_at_equal_budget() {
    let knobs = Knobs { seed: 1, restarts: 2, threads: Some(1), ..Knobs::default() };
    let base = AdmissionArtifact::new(resolve_graph(&GraphSource::Bench("ewf".into())).unwrap());
    let (base_report, base_winner) = run_artifact(&base, &knobs, None).unwrap();
    let entry = SeedEntry {
        key: 0xb0b,
        graph: base.graph.clone(),
        parts: base_winner,
        cost: base_report.get("cost").and_then(Json::as_u64).unwrap(),
        sketch: base.sketch.clone(),
    };

    let variant =
        AdmissionArtifact::new(parse_cdfg(&flipped_variant(&base.canonical_text)).unwrap());
    let distance = variant.sketch.distance(&entry.sketch);
    assert!(variant.sketch.accepts(distance), "a one-op flip must stay seedable");

    let (cold, _) = run_artifact(&variant, &knobs, None).unwrap();
    let warm_spec = Arc::new(build_warm_spec(&entry, &variant.graph, distance));
    let warm_knobs = Knobs { warm: Some(warm_spec), ..knobs };
    let (warm, _) = run_artifact(&variant, &warm_knobs, None).unwrap();

    let cold_cost = cold.get("cost").and_then(Json::as_u64).unwrap();
    let warm_cost = warm.get("cost").and_then(Json::as_u64).unwrap();
    assert!(
        warm_cost <= cold_cost,
        "warm start must not lose ground at equal budget: warm={warm_cost} cold={cold_cost}"
    );

    // Provenance rides the report: the cold run has no warm_start
    // section, the warm run names its seed and how the search started.
    assert!(cold.get("warm_start").is_none());
    let warm_start = warm.get("warm_start").expect("warm_start section");
    assert_eq!(
        warm_start.get("source").and_then(Json::as_str),
        Some(format!("{:032x}", 0xb0b).as_str())
    );
    assert_eq!(warm_start.get("distance").and_then(Json::as_u64), Some(distance));
    let mode = warm_start.get("mode").and_then(Json::as_str).unwrap();
    assert!(
        ["seeded", "guided", "constructive"].contains(&mode),
        "unknown warm mode {mode}"
    );
    assert!(warm_start.get("trials_to_best").and_then(Json::as_u64).is_some());

    // The warm search reaches its best in under a quarter of the cold
    // run's trial budget (deterministic: best at trial 1 of 10).
    let search = |report: &Json, key: &str| {
        report.get("search").and_then(|s| s.get(key)).and_then(Json::as_u64).unwrap()
    };
    let (warm_ttb, cold_trials) = (search(&warm, "trials_to_best"), search(&cold, "trials"));
    assert!(
        (warm_ttb as f64) < 0.25 * cold_trials as f64,
        "warm best at trial {warm_ttb} is not under 25% of the cold budget {cold_trials}"
    );
}

fn connect(server: &Server) -> Connection {
    Connection::connect(&server.local_addr().to_string(), Protocol::Binary).unwrap()
}

fn send_json(conn: &mut Connection, request: &str) -> Json {
    conn.call(&parse_json(request).unwrap()).expect("round trip")
}

#[test]
fn reallocate_verb_warm_starts_certifies_and_never_aliases_cold() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut conn = connect(&server);

    // Base job: cold (the seed index is empty at admission), certified.
    let base_response = send_json(
        &mut conn,
        r#"{"cmd":"allocate","bench":"ewf","seed":1,"restarts":2,"threads":1,"verify":"full","timeout_ms":60000}"#,
    );
    assert_eq!(base_response.get("status").and_then(Json::as_str), Some("ok"));
    let base_id = base_response.get("id").and_then(Json::as_str).unwrap().to_string();
    assert_eq!(base_id.len(), 32, "the ok response carries the job id");
    let base_report = base_response.get("report").unwrap();
    assert!(base_report.get("warm_start").is_none(), "nothing to seed the first job from");

    // The edited design: one op kind flipped in the base's canonical
    // text — the incremental resubmission `reallocate` exists for.
    let base_text =
        resolve_graph(&GraphSource::Bench("ewf".into())).unwrap().canonical_text();
    let edited = flipped_variant(&base_text);
    let knob_tail =
        r#""seed":1,"restarts":2,"threads":1,"verify":"full","timeout_ms":60000"#;
    let realloc = Json::obj(vec![
        ("cmd", Json::Str("reallocate".into())),
        ("base", Json::Str(base_id.clone())),
        ("cdfg", Json::Str(edited.clone())),
    ]);
    // Splice the knobs into the rendered request (same spelling as the
    // allocate requests above).
    let realloc_line =
        format!("{},{knob_tail}}}", realloc.to_string_compact().trim_end_matches('}'));

    let warm_response = send_json(&mut conn, &realloc_line);
    assert_eq!(
        warm_response.get("status").and_then(Json::as_str),
        Some("ok"),
        "{warm_response}"
    );
    let warm_id = warm_response.get("id").and_then(Json::as_str).unwrap().to_string();
    assert_ne!(warm_id, base_id, "an edited design is a different job");
    let warm_report = warm_response.get("report").unwrap();
    let warm_start = warm_report.get("warm_start").expect("warm provenance in the report");
    assert_eq!(
        warm_start.get("source").and_then(Json::as_str),
        Some(base_id.as_str()),
        "the seed's provenance is the base job"
    );
    assert!(warm_start.get("distance").and_then(Json::as_u64).unwrap() > 0);
    // The warm job certifies like any other: record, replay, verify.
    let cert = warm_report.get("certificate").expect("certificate");
    assert_eq!(cert.get("verdict").and_then(Json::as_str), Some("certified"));
    assert_eq!(cert.get("mode").and_then(Json::as_str), Some("full"));

    // The cold twin: the same edited design as a plain allocate. The
    // nearest seed is the edited design itself (distance 0), which the
    // server refuses to self-seed from — so this runs cold, lands on a
    // different cache key, and neither replays the warm payload.
    let cold_line = format!(
        r#"{{"cmd":"allocate","cdfg":{},{knob_tail}}}"#,
        Json::Str(edited.clone()).to_string_compact()
    );
    let cold_response = send_json(&mut conn, &cold_line);
    assert_eq!(cold_response.get("status").and_then(Json::as_str), Some("ok"));
    let cold_id = cold_response.get("id").and_then(Json::as_str).unwrap().to_string();
    assert_ne!(cold_id, warm_id, "warm and cold runs must never share a cache entry");
    let cold_report = cold_response.get("report").unwrap();
    assert!(cold_report.get("warm_start").is_none());
    // Both sides certify, and the warm start does not lose to cold.
    let cold_cert = cold_report.get("certificate").expect("cold certificate");
    assert_eq!(cold_cert.get("verdict").and_then(Json::as_str), Some("certified"));
    let cost = |report: &Json| report.get("cost").and_then(Json::as_u64).unwrap();
    assert!(
        cost(warm_report) <= cost(cold_report),
        "warm ({}) must not lose to cold ({})",
        cost(warm_report),
        cost(cold_report)
    );

    // Both entries replay independently and byte-identically.
    let warm_replay = send_json(&mut conn, &realloc_line);
    let cold_replay = send_json(&mut conn, &cold_line);
    assert_eq!(warm_replay.to_string_compact(), warm_response.to_string_compact());
    assert_eq!(cold_replay.to_string_compact(), cold_response.to_string_compact());

    // An expired/unknown base fails loudly rather than silently cold.
    let bogus = format!(
        r#"{{"cmd":"reallocate","base":"{:032x}","bench":"ewf",{knob_tail}}}"#,
        0xdead_beefu64
    );
    let err = send_json(&mut conn, &bogus);
    assert_eq!(err.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("bad-request"));

    // The operator counters saw the warm machinery work.
    let stats = send_json(&mut conn, r#"{"cmd":"stats"}"#);
    let warm_stats = stats.get("stats").and_then(|s| s.get("warm")).expect("warm stats");
    // Two reallocate requests landed (the replay re-attaches its seed
    // before discovering the cache hit).
    assert_eq!(warm_stats.get("reallocations").and_then(Json::as_u64), Some(2));
    assert!(warm_stats.get("seeds").and_then(Json::as_u64).unwrap() >= 2);
    let admission = warm_stats.get("admission").unwrap();
    assert!(admission.get("hits").and_then(Json::as_u64).unwrap() >= 1);

    server.shutdown();
}

#[test]
fn reallocating_an_add_to_sub_edit_of_a_swapped_add_certifies() {
    // The base winner swapped the operands of one of its adds (legal:
    // add commutes). The edit turns exactly that add into a sub, so the
    // label-matched warm image carries a swap onto an op that no longer
    // commutes. The seeded start must refuse the image (falling back to
    // guided construction) instead of allocating `b - a` for `a - b`.
    const DESIGN: &str = "cdfg swapedit\ninput a\ninput b\nop x1 = add a b\n\
        op x2 = mul x1 a\nop x3 = add x2 b\nop x4 = add x3 x1\nop x5 = mul x4 x2\n\
        op x6 = add x5 x3\nop x7 = add x6 x1\noutput x7\n";
    let base = AdmissionArtifact::new(parse_cdfg(DESIGN).unwrap());
    let (seed, label) = (1u64..=32)
        .find_map(|seed| {
            let knobs = Knobs { seed, restarts: 2, threads: Some(1), ..Knobs::default() };
            let (_, winner) = run_artifact(&base, &knobs, None).unwrap();
            base.graph
                .ops()
                .find(|op| op.kind() == OpKind::Add && winner.op_swap[op.id().index()])
                .map(|op| (seed, op.label().to_string()))
        })
        .expect("some seed's winner swaps an add");
    let edited = base.canonical_text.replacen(
        &format!("op {label} = add"),
        &format!("op {label} = sub"),
        1,
    );
    assert_ne!(edited, base.canonical_text, "the swapped add is spelled in the text");

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut conn = connect(&server);
    let knob_tail = format!(r#""seed":{seed},"restarts":2,"threads":1,"verify":"full""#);
    let base_line = format!(
        r#"{{"cmd":"allocate","cdfg":{},{knob_tail}}}"#,
        Json::Str(base.canonical_text.clone()).to_string_compact()
    );
    let base_response = send_json(&mut conn, &base_line);
    assert_eq!(base_response.get("status").and_then(Json::as_str), Some("ok"));
    let base_id = base_response.get("id").and_then(Json::as_str).unwrap();

    let realloc_line = format!(
        r#"{{"cmd":"reallocate","base":"{base_id}","cdfg":{},{knob_tail}}}"#,
        Json::Str(edited).to_string_compact()
    );
    let warm = send_json(&mut conn, &realloc_line);
    assert_eq!(warm.get("status").and_then(Json::as_str), Some("ok"), "{warm}");
    let report = warm.get("report").unwrap();
    let warm_start = report.get("warm_start").expect("warm provenance");
    assert_ne!(
        warm_start.get("mode").and_then(Json::as_str),
        Some("seeded"),
        "the swapped image must not seed the edited design"
    );
    let cert = report.get("certificate").expect("certificate");
    assert_eq!(cert.get("verdict").and_then(Json::as_str), Some("certified"), "{warm}");
    server.shutdown();
}

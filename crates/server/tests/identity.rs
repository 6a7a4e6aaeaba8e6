//! One job, one key: every spelling of a job shares its result-cache key
//! (the response `id`), its allocation and its certificate, and every
//! knob that changes the job changes the key.

use std::collections::BTreeSet;

use salsa_alloc::WarmSpec;
use salsa_serve::{
    canonicalize_report, parse_json, plan_job, resolve_graph, GraphSource, Json, Knobs, Server,
    ServerConfig,
};
use salsa_wire::{Connection, Protocol};

fn connect(server: &Server) -> Connection {
    Connection::connect(&server.local_addr().to_string(), Protocol::Binary).unwrap()
}

/// Sends one allocate of `bench` with the request fields `fields`.
fn allocate(conn: &mut Connection, bench: &str, fields: &str) -> Json {
    let request = format!(r#"{{"cmd":"allocate","bench":"{bench}",{fields}}}"#);
    let response = conn.call(&parse_json(&request).unwrap()).unwrap();
    assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"), "{request}: {response}");
    response
}

/// The response with its wall-clock fields zeroed: the id, the report
/// and the certificate, as bytes.
fn canonical(response: &Json) -> String {
    let mut response = response.clone();
    canonicalize_report(&mut response);
    response.to_string_compact()
}

fn stat(conn: &mut Connection, path: &[&str]) -> u64 {
    let stats = conn.call(&parse_json(r#"{"cmd":"stats"}"#).unwrap()).unwrap();
    path.iter()
        .fold(stats.get("stats").unwrap(), |node, key| node.get(key).unwrap())
        .as_u64()
        .unwrap()
}

fn asap_steps(bench: &str) -> usize {
    let graph = resolve_graph(&GraphSource::Bench(bench.into())).unwrap();
    plan_job(&graph, &Knobs::default()).unwrap().knobs().steps.unwrap()
}

#[test]
fn knob_spellings_of_one_job_share_one_key_and_every_other_knob_splits_it() {
    const BASE: &str = r#""restarts":2,"seed":3,"verify":"full""#;
    let steps = asap_steps("paper_example");

    // Spellings of one job: each side computed on its own server must
    // give the same id and the same canonical report and certificate;
    // on one server the second spelling is a result-cache hit, with one
    // allocation and one certification between them.
    let same = [
        (BASE.to_string(), format!(r#"{BASE},"steps":{steps}"#)),
        (BASE.replace("full", "sample"), BASE.to_string()),
        (BASE.to_string(), format!(r#"{BASE},"mem_moves":false"#)),
        (format!(r#"{BASE},"threads":1"#), format!(r#"{BASE},"threads":2"#)),
    ];
    for (a, b) in &same {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut conn = connect(&server);
        let first = allocate(&mut conn, "paper_example", a);
        let other = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let fresh = allocate(&mut connect(&other), "paper_example", b);
        other.shutdown();
        assert_eq!(canonical(&fresh), canonical(&first), "{a} vs {b}");

        let hit = allocate(&mut conn, "paper_example", b);
        assert_eq!(hit.to_string_compact(), first.to_string_compact(), "{a} vs {b}");
        assert_eq!(stat(&mut conn, &["completed"]), 1, "{a} vs {b}");
        assert_eq!(stat(&mut conn, &["cache", "hits"]), 1, "{a} vs {b}");
        assert_eq!(stat(&mut conn, &["verifier", "verified"]), 1, "{a} vs {b}");
        server.shutdown();
    }

    // Every other knob is a different job with its own key.
    let warm = Json::Str(WarmSpec::new().encode()).to_string_compact();
    let split = [
        BASE.to_string(),
        BASE.replace(r#""seed":3"#, r#""seed":4"#),
        BASE.replace(r#""restarts":2"#, r#""restarts":3"#),
        format!(r#"{BASE},"extra_regs":1"#),
        format!(r#"{BASE},"pipelined":true"#),
        format!(r#"{BASE},"traditional":true"#),
        format!(r#"{BASE},"steps":{}"#, steps + 1),
        BASE.replace(r#","verify":"full""#, ""),
        format!(r#"{BASE},"warm":{warm}"#),
    ];
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut conn = connect(&server);
    let mut ids = BTreeSet::new();
    for fields in &split {
        let response = allocate(&mut conn, "paper_example", fields);
        let id = response.get("id").and_then(Json::as_str).unwrap().to_string();
        assert!(ids.insert(id), "{fields} shares a key with an earlier knob set");
    }
    // On a design with memory, `mem_moves` is part of the job.
    for fields in [r#""seed":3"#, r#""seed":3,"mem_moves":false"#] {
        let response = allocate(&mut conn, "fir8a", fields);
        let id = response.get("id").and_then(Json::as_str).unwrap().to_string();
        assert!(ids.insert(id), "fir8a {fields} shares a key with an earlier knob set");
    }
    assert_eq!(stat(&mut conn, &["cache", "hits"]), 0);
    server.shutdown();
}

//! End-to-end service tests over real sockets: concurrent jobs, the
//! content-addressed cache (byte-identical replay, observable only via
//! the stats counters), per-job deadlines that do not poison their
//! worker, queue-overflow backpressure, and graceful shutdown.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use salsa_serve::{parse_json, Json, Server, ServerConfig};
use salsa_wire::{Connection, Protocol};

fn connect_to(addr: SocketAddr) -> Connection {
    Connection::connect(&addr.to_string(), Protocol::Binary).expect("connect")
}

fn connect(server: &Server) -> Connection {
    connect_to(server.local_addr())
}

fn send_json(conn: &mut Connection, request: &str) -> Json {
    conn.call(&parse_json(request).unwrap()).expect("round trip")
}

/// Sends one request and returns the response in compact text form —
/// what `salsa-hls submit` prints, and what the byte-replay assertions
/// compare.
fn send_text(conn: &mut Connection, request: &str) -> String {
    send_json(conn, request).to_string_compact()
}

fn stats(server: &Server) -> Json {
    let mut conn = connect(server);
    let response = send_json(&mut conn, r#"{"cmd":"stats"}"#);
    response.get("stats").expect("stats body").clone()
}

fn stat_u64(stats: &Json, path: &[&str]) -> u64 {
    let mut node = stats;
    for key in path {
        node = node.get(key).unwrap_or_else(|| panic!("missing {path:?}"));
    }
    node.as_u64().unwrap_or_else(|| panic!("{path:?} not a u64"))
}

#[test]
fn concurrent_jobs_then_cache_replay_then_graceful_shutdown() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();

    // Two different benchmarks allocated concurrently on separate
    // connections.
    let ewf_request =
        r#"{"cmd":"allocate","bench":"ewf","seed":1,"restarts":2,"threads":1,"timeout_ms":60000}"#;
    let dct_request =
        r#"{"cmd":"allocate","bench":"dct","seed":1,"restarts":1,"threads":1,"timeout_ms":60000}"#;
    let (first_ewf, dct_response) = std::thread::scope(|scope| {
        let addr = server.local_addr();
        let ewf = scope.spawn(move || send_text(&mut connect_to(addr), ewf_request));
        let dct = scope.spawn(move || send_text(&mut connect_to(addr), dct_request));
        (ewf.join().unwrap(), dct.join().unwrap())
    });
    for (raw, design) in [(&first_ewf, "ewf"), (&dct_response, "dct")] {
        let json = parse_json(raw).unwrap();
        assert_eq!(json.get("status").and_then(Json::as_str), Some("ok"), "{raw}");
        let report = json.get("report").expect("report");
        assert_eq!(report.get("design").and_then(Json::as_str), Some(design));
        assert_eq!(report.get("verified").and_then(Json::as_bool), Some(true));
        assert!(report.get("cost").and_then(Json::as_u64).unwrap() > 0);
    }
    let after_misses = stats(&server);
    assert_eq!(stat_u64(&after_misses, &["accepted"]), 2);
    assert_eq!(stat_u64(&after_misses, &["completed"]), 2);
    assert_eq!(stat_u64(&after_misses, &["cache", "hits"]), 0);
    assert_eq!(stat_u64(&after_misses, &["cache", "misses"]), 2);

    // The identical request again: served from the cache — observable
    // only through the counters — and byte-identical to the first reply.
    let replay = send_text(&mut connect(&server), ewf_request);
    assert_eq!(replay, first_ewf, "cache replay must be byte-identical");
    let after_hit = stats(&server);
    assert_eq!(stat_u64(&after_hit, &["cache", "hits"]), 1);
    assert_eq!(stat_u64(&after_hit, &["completed"]), 2, "no new job ran for the hit");
    assert_eq!(stat_u64(&after_hit, &["accepted"]), 2, "the hit never touched the queue");

    // Graceful shutdown over the wire: the drain acknowledges, the
    // server exits, and the port stops accepting.
    let bye = send_json(&mut connect(&server), r#"{"cmd":"shutdown"}"#);
    assert_eq!(bye.get("shutting_down").and_then(Json::as_bool), Some(true));
    let addr = server.local_addr();
    server.join();
    std::thread::sleep(Duration::from_millis(50));
    let refused = TcpStream::connect_timeout(&addr.to_string().parse().unwrap(), Duration::from_millis(200));
    assert!(refused.is_err(), "listener still accepting after graceful shutdown");
}

#[test]
fn cache_replays_are_byte_identical_across_connections() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let request = parse_json(
        r#"{"cmd":"allocate","bench":"ewf","seed":1,"restarts":2,"threads":1,"timeout_ms":60000}"#,
    )
    .unwrap();

    // The first connection runs the job (and populates the cache)...
    let first = connect(&server).call(&request).expect("first call");
    assert_eq!(first.get("status").and_then(Json::as_str), Some("ok"), "{first}");
    // ...a second connection gets the same frame body back.
    let second = connect(&server).call(&request).expect("second call");
    assert_eq!(
        salsa_wire::binary::encode(&second),
        salsa_wire::binary::encode(&first),
        "a cache replay must carry the identical response bytes"
    );
    assert_eq!(second.to_string_compact(), first.to_string_compact());

    // The hit came from the cache: one job ran, the second connection
    // replayed its payload.
    let snapshot = stats(&server);
    assert_eq!(stat_u64(&snapshot, &["completed"]), 1);
    assert_eq!(stat_u64(&snapshot, &["cache", "hits"]), 1);

    server.shutdown();
}

#[test]
fn pipelined_requests_on_one_connection_and_wire_counters() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr, Protocol::Binary).expect("binary connect");

    // Six requests in flight on one socket before any response is read;
    // correlation ids pair each answer to its question whatever order
    // completions arrive in. Every other request asks for a sampled
    // certificate, so the verifier lane runs under the pipelined load.
    let benches = ["ewf", "dct", "paper_example", "ewf", "dct", "paper_example"];
    let verified = |i: usize| i.is_multiple_of(2);
    let ids: Vec<u64> = benches
        .iter()
        .enumerate()
        .map(|(i, bench)| {
            let verify = if verified(i) { r#","verify":"sample""# } else { "" };
            let request = format!(
                r#"{{"cmd":"allocate","bench":"{bench}","seed":2,"threads":1,"timeout_ms":60000{verify}}}"#
            );
            conn.send(&parse_json(&request).unwrap()).expect("pipelined send")
        })
        .collect();
    assert_eq!(conn.in_flight(), benches.len());
    // Collect out of submission order on purpose.
    for (i, (id, bench)) in ids.iter().zip(benches).enumerate().rev() {
        let reply = conn.recv_for(*id).expect("pipelined recv");
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"), "{bench}");
        let report = reply.get("report").unwrap();
        let design = report.get("design").and_then(Json::as_str);
        assert_eq!(design, Some(bench), "correlation id must pair request and response");
        let verdict =
            report.get("certificate").and_then(|c| c.get("verdict")).and_then(Json::as_str);
        assert_eq!(verdict, verified(i).then_some("certified"), "{bench} #{i}");
    }
    assert_eq!(conn.in_flight(), 0);

    // The client-side counters saw all the traffic, and the server's
    // stats verb surfaces its own view of the same wire.
    let counts = conn.counts();
    assert_eq!(counts.frames_out, benches.len() as u64);
    assert_eq!(counts.frames_in, benches.len() as u64);
    assert!(counts.bytes_out > 0 && counts.bytes_in > 0);
    let snapshot = stats(&server);
    assert!(stat_u64(&snapshot, &["wire", "bytes_in"]) >= counts.bytes_out);
    assert!(stat_u64(&snapshot, &["wire", "frames_in"]) >= counts.frames_out);
    assert!(stat_u64(&snapshot, &["wire", "conns_opened"]) >= 1);
    assert!(stat_u64(&snapshot, &["verifier", "verified"]) > 0);
    assert_eq!(stat_u64(&snapshot, &["verifier", "failed"]), 0);

    server.shutdown();
}

#[test]
fn deadline_timeout_does_not_poison_the_worker() {
    // One worker: if the timed-out job left it wedged, the follow-up job
    // could never complete.
    let config = ServerConfig { workers: 1, queue_capacity: 4, ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let mut conn = connect(&server);

    // 4096 restarts of EWF cannot finish in 300 ms; the deadline trips
    // the cooperative cancel and the job reports a timeout.
    let timeout = send_json(
        &mut conn,
        r#"{"cmd":"allocate","bench":"ewf","restarts":4096,"threads":1,"timeout_ms":300}"#,
    );
    assert_eq!(timeout.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(timeout.get("kind").and_then(Json::as_str), Some("timeout"));

    // The same worker then serves a normal job.
    let ok = send_json(
        &mut conn,
        r#"{"cmd":"allocate","bench":"paper_example","seed":5,"timeout_ms":60000}"#,
    );
    assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"), "{ok}");

    let snapshot = stats(&server);
    assert_eq!(stat_u64(&snapshot, &["timeouts"]), 1);
    assert_eq!(stat_u64(&snapshot, &["completed"]), 1);
    server.shutdown();
}

#[test]
fn queue_overflow_yields_backpressure_rejection() {
    // One worker, queue of one: a running job plus a queued job saturate
    // the service; the third submission must be rejected, not buffered.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_ms: 125,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    let slow = |seed: u64| {
        format!(
            r#"{{"cmd":"allocate","bench":"ewf","seed":{seed},"restarts":4096,"threads":1,"timeout_ms":1500}}"#
        )
    };
    std::thread::scope(|scope| {
        let occupant = scope.spawn(|| send_text(&mut connect_to(addr), &slow(1)));
        std::thread::sleep(Duration::from_millis(250)); // worker now busy
        let queued = scope.spawn(|| send_text(&mut connect_to(addr), &slow(2)));
        std::thread::sleep(Duration::from_millis(250)); // queue now full

        let rejection = send_json(&mut connect_to(addr), &slow(3));
        assert_eq!(
            rejection.get("status").and_then(Json::as_str),
            Some("rejected"),
            "{rejection}"
        );
        assert_eq!(rejection.get("retry_after_ms").and_then(Json::as_u64), Some(125));

        // The in-flight jobs still resolve (as timeouts, given their
        // short deadlines) — rejection sheds load without breaking them.
        occupant.join().unwrap();
        queued.join().unwrap();
    });
    let snapshot = stats(&server);
    assert!(stat_u64(&snapshot, &["rejected"]) >= 1);
    assert_eq!(stat_u64(&snapshot, &["accepted"]), 2);
    server.shutdown();
}

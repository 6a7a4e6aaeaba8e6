//! A non-blocking, poll-based server core (std-only).
//!
//! A single I/O thread drives every connection through nonblocking
//! sockets: accept, check the binary hello, buffer reads, split complete
//! frames, dispatch them to an app handler, and flush queued responses —
//! all from one readiness loop with a short (1 ms) idle tick. The std
//! library has no portable readiness API, so the loop is a scan over the
//! (small) connection registry with `WouldBlock` as the readiness
//! signal; per iteration it does strictly bounded work per connection,
//! and it only sleeps when a full pass made no progress.
//!
//! Responses flow through [`ReplyHandle`]s. A handler either replies
//! synchronously (cache hits, stats, ping) or moves the
//! handle into a job for a worker pool to complete later; the loop
//! drains completed replies into per-connection write buffers on its
//! next pass and writes them as they land, tagged with the request's
//! correlation id — that is what makes pipelining safe.
//!
//! Per-connection bounds: a read-buffer cap (no unbounded frames), an
//! in-flight request limit answered with the app's backpressure reply,
//! and idle-timeout eviction for connections with no traffic and no
//! pending work. Errors the core answers itself use the app's flat
//! `{status, kind, message}` error shape:
//!
//! - a first byte other than [`MAGIC`] gets one compact JSON line,
//!   `{"status":"error","kind":"bad-frame","message":"binary protocol required"}`,
//!   and the connection closes once it is flushed;
//! - a corrupt or oversized frame gets a `bad-frame` error frame on the
//!   reserved id 0, then the connection closes;
//! - a dropped [`ReplyHandle`] (a job lost on a closed queue, a panicked
//!   worker) completes its slot with `kind: "internal"` rather than
//!   leaving the client hanging.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use crate::frame::{self, Payload, MAGIC, MAX_FRAME, WIRE_VERSION};
use crate::json::Json;

/// Sleep between passes that made no progress.
const TICK: Duration = Duration::from_millis(1);

/// Tuning for one [`NetServer`].
pub struct NetConfig {
    /// Cooperative shutdown flag: the app sets it (usually from a
    /// handler) and the loop stops accepting, drains, and exits.
    pub shutdown: Arc<AtomicBool>,
    /// Max requests in flight per connection, and the immediate reply
    /// (the app's backpressure shape) for requests over it, which are
    /// not dispatched. `None` disables the limit.
    pub in_flight_limit: Option<(usize, Json)>,
    /// Evict connections with no traffic and no pending work for this
    /// long. `None` keeps idle connections forever.
    pub idle_timeout: Option<Duration>,
    /// Wire counters, shared so the app can surface them (e.g. in a
    /// `stats` verb). A fresh default is fine when nobody else reads it.
    pub metrics: Arc<NetMetrics>,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            shutdown: Arc::new(AtomicBool::new(false)),
            in_flight_limit: None,
            idle_timeout: Some(Duration::from_secs(60)),
            metrics: Arc::new(NetMetrics::default()),
        }
    }
}

/// Server-wide wire counters (atomics; read them directly).
#[derive(Debug, Default)]
pub struct NetMetrics {
    /// Bytes read off client sockets.
    pub bytes_in: AtomicU64,
    /// Bytes written to client sockets.
    pub bytes_out: AtomicU64,
    /// Frames received.
    pub frames_in: AtomicU64,
    /// Frames sent.
    pub frames_out: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub conns_opened: AtomicU64,
    /// Connections currently registered.
    pub conns_active: AtomicU64,
    /// Connections evicted by the idle timeout.
    pub idle_evicted: AtomicU64,
}

/// The app-side dispatch callback, run on the I/O thread with one decoded
/// request. Reply synchronously via the handle, or move the handle into
/// a job.
pub type Handler = Box<dyn FnMut(Json, ReplyHandle) + Send>;

/// Completed replies queued by handles, drained by the I/O loop.
struct Outbox {
    completed: Mutex<Vec<(u64, Arc<Payload>, bool)>>,
}

/// The write side of one request slot. Send exactly one reply; dropping
/// the handle unsent produces a structured internal error instead.
pub struct ReplyHandle {
    outbox: Weak<Outbox>,
    seq: u64,
    sent: bool,
}

impl ReplyHandle {
    /// Completes the request with `payload`.
    pub fn send(mut self, payload: Arc<Payload>) {
        self.deliver(payload, false);
    }

    /// Completes the request and closes the connection once flushed
    /// (the `shutdown` acknowledgement path).
    pub fn send_then_close(mut self, payload: Arc<Payload>) {
        self.deliver(payload, true);
    }

    fn deliver(&mut self, payload: Arc<Payload>, close: bool) {
        self.sent = true;
        if let Some(outbox) = self.outbox.upgrade() {
            outbox.completed.lock().expect("outbox lock").push((self.seq, payload, close));
        }
    }
}

impl Drop for ReplyHandle {
    fn drop(&mut self) {
        if !self.sent {
            let error = error_json("internal", "request dropped without a reply");
            self.deliver(Arc::new(Payload::new(error)), false);
        }
    }
}

/// The flat `{status, kind, message}` error document.
fn error_json(kind: &str, message: &str) -> Json {
    Json::Obj(vec![
        ("status".into(), Json::Str("error".into())),
        ("kind".into(), Json::Str(kind.into())),
        ("message".into(), Json::Str(message.into())),
    ])
}

struct Slot {
    seq: u64,
    /// Correlation id of the request.
    id: u64,
    done: Option<(Arc<Payload>, bool)>,
}

struct Conn {
    stream: TcpStream,
    /// The hello has been answered; frames follow.
    greeted: bool,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    slots: Vec<Slot>,
    next_seq: u64,
    outbox: Arc<Outbox>,
    last_activity: Instant,
    /// Stop reading; flush what is queued, then close.
    closing: bool,
}

/// A running poll-based server: one I/O thread, many connections.
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<NetMetrics>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` and starts the I/O thread.
    pub fn bind(addr: &str, config: NetConfig, handler: Handler) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let metrics = Arc::clone(&config.metrics);
        let shutdown = Arc::clone(&config.shutdown);
        let loop_metrics = Arc::clone(&metrics);
        let thread = std::thread::Builder::new()
            .name("net-io".into())
            .spawn(move || io_loop(listener, config, handler, loop_metrics))
            .expect("spawn net-io thread");
        Ok(NetServer { addr: local, shutdown, metrics, thread: Some(thread) })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The cooperative shutdown flag (same Arc as in the config).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The server-wide wire counters.
    pub fn metrics(&self) -> Arc<NetMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Waits for the I/O loop to drain and exit (after shutdown).
    pub fn join(mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Read-buffer cap: one max frame plus framing slack.
const RBUF_CAP: usize = MAX_FRAME + 1024;
/// Per-pass read chunk.
const READ_CHUNK: usize = 64 * 1024;

fn io_loop(listener: TcpListener, config: NetConfig, mut handler: Handler, metrics: Arc<NetMetrics>) {
    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = 0u64;
    let mut scratch = vec![0u8; READ_CHUNK];

    loop {
        let mut progress = false;
        let shutting_down = config.shutdown.load(Ordering::SeqCst);
        if shutting_down {
            // Refuse new connections immediately: drop the listener so
            // post-shutdown connects are refused, not silently queued.
            if listener.take().is_some() {
                progress = true;
            }
        }

        if let Some(l) = listener.as_ref() {
            loop {
                match l.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        metrics.conns_opened.fetch_add(1, Ordering::Relaxed);
                        conns.insert(
                            next_token,
                            Conn {
                                stream,
                                greeted: false,
                                rbuf: Vec::new(),
                                wbuf: Vec::new(),
                                slots: Vec::new(),
                                next_seq: 0,
                                outbox: Arc::new(Outbox { completed: Mutex::new(Vec::new()) }),
                                last_activity: Instant::now(),
                                closing: false,
                            },
                        );
                        next_token += 1;
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        let now = Instant::now();
        let mut dead: Vec<u64> = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            match drive_conn(conn, &config, &mut handler, &metrics, &mut scratch, now) {
                Ok(made_progress) => progress |= made_progress,
                Err(_) => {
                    dead.push(token);
                    progress = true;
                }
            }
            if conn.closing && conn.wbuf.is_empty() {
                dead.push(token);
                progress = true;
            }
        }
        for token in dead {
            conns.remove(&token);
        }
        metrics.conns_active.store(conns.len() as u64, Ordering::Relaxed);

        if shutting_down && conns.values().all(|c| c.slots.is_empty() && c.wbuf.is_empty()) {
            return;
        }

        if !progress {
            std::thread::sleep(TICK);
        }
    }
}

/// One pass over one connection: drain completed replies, read, parse
/// and dispatch complete messages, stage writable responses, write.
/// `Err` means the connection is gone (or protocol-fatal) and must be
/// dropped.
fn drive_conn(
    conn: &mut Conn,
    config: &NetConfig,
    handler: &mut Handler,
    metrics: &NetMetrics,
    scratch: &mut [u8],
    now: Instant,
) -> io::Result<bool> {
    let mut progress = false;

    // 1. Replies completed by handles since the last pass.
    {
        let mut completed = conn.outbox.completed.lock().expect("outbox lock");
        for (seq, payload, close) in completed.drain(..) {
            if let Some(slot) = conn.slots.iter_mut().find(|s| s.seq == seq) {
                slot.done = Some((payload, close));
                progress = true;
            }
        }
    }

    // 2. Read what the socket has (bounded per pass).
    if !conn.closing {
        loop {
            if conn.rbuf.len() >= RBUF_CAP {
                // A frame larger than the cap: protocol-fatal.
                return Err(io::Error::new(io::ErrorKind::InvalidData, "read buffer cap exceeded"));
            }
            match conn.stream.read(scratch) {
                Ok(0) => {
                    // Peer finished sending. Serve what is in flight,
                    // flush, then close.
                    conn.closing = true;
                    progress = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&scratch[..n]);
                    metrics.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                    conn.last_activity = now;
                    progress = true;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    // 3. Answer the hello, or reject a peer that does not open with one.
    if !conn.greeted && !conn.rbuf.is_empty() {
        if conn.rbuf[0] != MAGIC {
            let mut line = error_json("bad-frame", "binary protocol required").to_string_compact();
            line.push('\n');
            conn.wbuf.extend_from_slice(line.as_bytes());
            conn.rbuf.clear();
            conn.closing = true;
            progress = true;
        } else if conn.rbuf.len() >= 3 {
            if conn.rbuf[2] != b'\n' || conn.rbuf[1] == 0 {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "malformed binary hello"));
            }
            let version = conn.rbuf[1].min(WIRE_VERSION);
            conn.rbuf.drain(..3);
            conn.wbuf.extend_from_slice(&[MAGIC, version, b'\n']);
            conn.greeted = true;
            progress = true;
        }
    }

    // 4. Split and dispatch complete frames.
    while conn.greeted {
        let (id, request) = match frame::split_frame(&conn.rbuf) {
            Ok(None) => break,
            Ok(Some((consumed, id, doc))) => {
                conn.rbuf.drain(..consumed);
                (id, doc)
            }
            Err(e) => {
                // Framing is unrecoverable: best-effort error frame on
                // reserved id 0, then drop the connection.
                let payload = Payload::new(error_json("bad-frame", &e.to_string()));
                frame::append_frame(&mut conn.wbuf, 0, payload.bin());
                flush_wbuf(conn, metrics)?;
                return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
        };
        metrics.frames_in.fetch_add(1, Ordering::Relaxed);
        progress = true;

        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.slots.push(Slot { seq, id, done: None });
        let handle = ReplyHandle { outbox: Arc::downgrade(&conn.outbox), seq, sent: false };
        match &config.in_flight_limit {
            Some((limit, busy)) if conn.slots.len() > *limit => {
                handle.send(Arc::new(Payload::new(busy.clone())))
            }
            _ => handler(request, handle),
        }
    }

    // 5. Stage completed replies into the write buffer, in completion
    // order, tagged with their correlation ids.
    {
        // Drain handles that completed synchronously in step 4.
        let mut completed = conn.outbox.completed.lock().expect("outbox lock");
        for (seq, payload, close) in completed.drain(..) {
            if let Some(slot) = conn.slots.iter_mut().find(|s| s.seq == seq) {
                slot.done = Some((payload, close));
            }
        }
    }
    let mut i = 0;
    while i < conn.slots.len() {
        if conn.slots[i].done.is_some() {
            let slot = conn.slots.remove(i);
            let (payload, close) = slot.done.expect("checked done");
            frame::append_frame(&mut conn.wbuf, slot.id, payload.bin());
            metrics.frames_out.fetch_add(1, Ordering::Relaxed);
            if close {
                conn.closing = true;
            }
            progress = true;
        } else {
            i += 1;
        }
    }

    // 6. Flush.
    if !conn.wbuf.is_empty() {
        progress |= flush_wbuf(conn, metrics)?;
        if !conn.wbuf.is_empty() {
            conn.last_activity = now;
        }
    }

    // 7. Idle eviction: no pending work, no buffered bytes, long quiet.
    if let Some(idle) = config.idle_timeout {
        if conn.slots.is_empty()
            && conn.wbuf.is_empty()
            && conn.rbuf.is_empty()
            && now.duration_since(conn.last_activity) >= idle
        {
            metrics.idle_evicted.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(io::ErrorKind::TimedOut, "idle timeout"));
        }
    }

    Ok(progress)
}

fn flush_wbuf(conn: &mut Conn, metrics: &NetMetrics) -> io::Result<bool> {
    let mut written = 0usize;
    let result = loop {
        if written == conn.wbuf.len() {
            break Ok(());
        }
        match conn.stream.write(&conn.wbuf[written..]) {
            Ok(0) => break Err(io::Error::new(io::ErrorKind::WriteZero, "socket closed")),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => break Err(e),
        }
    };
    if written > 0 {
        conn.wbuf.drain(..written);
        metrics.bytes_out.fetch_add(written as u64, Ordering::Relaxed);
    }
    result.map(|()| written > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use crate::proto::{Connection, Protocol};

    fn echo_server(in_flight_limit: Option<(usize, Json)>) -> NetServer {
        let config = NetConfig {
            in_flight_limit,
            idle_timeout: Some(Duration::from_secs(30)),
            ..NetConfig::default()
        };
        let handler: Handler = Box::new(|doc, handle| handle.send(Arc::new(Payload::new(doc))));
        NetServer::bind("127.0.0.1:0", config, handler).unwrap()
    }

    /// A raw client socket that has exchanged the hello.
    fn greeted(server: &NetServer) -> TcpStream {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(&[MAGIC, WIRE_VERSION, b'\n']).unwrap();
        let mut hello = [0u8; 3];
        stream.read_exact(&mut hello).unwrap();
        assert_eq!(hello, [MAGIC, WIRE_VERSION, b'\n']);
        stream
    }

    fn read_all(mut stream: TcpStream) -> Vec<u8> {
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).unwrap();
        reply
    }

    fn kind(doc: &Json) -> Option<&str> {
        doc.get("kind").and_then(Json::as_str)
    }

    /// Binary is the only protocol left, so "side by side" is now two
    /// binary clients on one server, each answered independently.
    #[test]
    fn serves_json_and_binary_clients_side_by_side() {
        let server = echo_server(None);
        let addr = server.local_addr().to_string();
        let request = parse_json(r#"{"cmd":"ping","n":1}"#).unwrap();

        let mut first = Connection::connect(&addr, Protocol::Binary).unwrap();
        let mut second = Connection::connect(&addr, Protocol::Binary).unwrap();
        assert_eq!(first.call(&request).unwrap(), request);
        assert_eq!(second.call(&request).unwrap(), request);

        let metrics = server.metrics();
        assert_eq!(metrics.frames_in.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.conns_opened.load(Ordering::Relaxed), 2);
        server.shutdown_flag().store(true, Ordering::SeqCst);
        server.join();
    }

    #[test]
    fn pipelined_requests_come_back_in_order_per_protocol() {
        let server = echo_server(None);
        let addr = server.local_addr().to_string();
        for protocol in [Protocol::Binary] {
            let mut conn = Connection::connect(&addr, protocol).unwrap();
            let ids: Vec<u64> = (0..8)
                .map(|n| conn.send(&Json::Obj(vec![("n".into(), Json::Int(n))])).unwrap())
                .collect();
            for (n, id) in ids.iter().enumerate() {
                let doc = conn.recv_for(*id).unwrap();
                assert_eq!(doc.get("n").and_then(Json::as_i64), Some(n as i64));
            }
        }
        server.shutdown_flag().store(true, Ordering::SeqCst);
        server.join();
    }

    #[test]
    fn over_limit_requests_get_the_busy_reply() {
        let busy = parse_json(r#"{"status":"rejected"}"#).unwrap();
        // Echo replies synchronously, so in-flight never exceeds 1 from
        // the server's view per message; use a handler that never
        // replies to pile slots up instead.
        let config = NetConfig { in_flight_limit: Some((2, busy)), ..NetConfig::default() };
        let parked: Arc<Mutex<Vec<ReplyHandle>>> = Arc::new(Mutex::new(Vec::new()));
        let parked_in = Arc::clone(&parked);
        let handler: Handler = Box::new(move |_, handle| parked_in.lock().unwrap().push(handle));
        let server = NetServer::bind("127.0.0.1:0", config, handler).unwrap();
        let mut conn =
            Connection::connect(&server.local_addr().to_string(), Protocol::Binary).unwrap();
        let a = conn.send(&parse_json(r#"{"n":1}"#).unwrap()).unwrap();
        let b = conn.send(&parse_json(r#"{"n":2}"#).unwrap()).unwrap();
        let c = conn.send(&parse_json(r#"{"n":3}"#).unwrap()).unwrap();
        // The third is over the limit: busy reply, out of order is fine.
        let doc = conn.recv_for(c).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("rejected"));
        // Release the parked two so the server can drain and exit.
        {
            let mut handles = parked.lock().unwrap();
            for handle in handles.drain(..) {
                handle.send(Arc::new(Payload::new(parse_json(r#"{"status":"ok"}"#).unwrap())));
            }
        }
        assert!(conn.recv_for(a).is_ok());
        assert!(conn.recv_for(b).is_ok());
    }

    #[test]
    fn dropped_reply_handle_gets_a_flat_internal_error() {
        let handler: Handler = Box::new(|_, handle| drop(handle));
        let server = NetServer::bind("127.0.0.1:0", NetConfig::default(), handler).unwrap();
        let mut conn =
            Connection::connect(&server.local_addr().to_string(), Protocol::Binary).unwrap();
        let reply = conn.call(&parse_json(r#"{"cmd":"ping"}"#).unwrap()).unwrap();
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(kind(&reply), Some("internal"), "{reply}");
        assert!(reply.get("message").and_then(Json::as_str).is_some(), "{reply}");
    }

    #[test]
    fn corrupt_binary_frame_gets_error_frame_then_close() {
        let server = echo_server(None);
        let mut stream = greeted(&server);
        // A frame whose body is garbage (unknown tag).
        stream.write_all(&[3, 1, 0xff, 0xff]).unwrap();
        let reply = read_all(stream);
        let (consumed, id, doc) = frame::split_frame(&reply).unwrap().expect("error frame");
        assert_eq!(consumed, reply.len(), "nothing after the error frame");
        assert_eq!(id, 0, "connection-level error id");
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(kind(&doc), Some("bad-frame"), "{doc}");
    }

    #[test]
    fn hostile_peers_never_stall_the_poll_core() {
        let server = echo_server(None);
        let mut witness =
            Connection::connect(&server.local_addr().to_string(), Protocol::Binary).unwrap();
        let ping = parse_json(r#"{"cmd":"ping"}"#).unwrap();
        let mut check_witness = || assert_eq!(witness.call(&ping).unwrap(), ping);

        // A request trickling in one byte at a time, with the witness
        // served between bytes; it is answered once whole.
        let mut slow = TcpStream::connect(server.local_addr()).unwrap();
        slow.set_nodelay(true).unwrap();
        slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let request = parse_json(r#"{"cmd":"allocate","bench":"ewf"}"#).unwrap();
        let mut bytes = vec![MAGIC, WIRE_VERSION, b'\n'];
        frame::append_frame(&mut bytes, 41, &crate::binary::encode(&request));
        for (i, byte) in bytes.iter().enumerate() {
            slow.write_all(&[*byte]).unwrap();
            std::thread::sleep(Duration::from_millis(2));
            if i % 8 == 0 {
                check_witness();
            }
        }
        let mut reader = std::io::BufReader::new(slow);
        let mut hello = [0u8; 3];
        reader.read_exact(&mut hello).unwrap();
        assert_eq!(hello[0], MAGIC);
        let (id, echoed) = frame::read_frame(&mut reader).unwrap().expect("reply frame");
        assert_eq!((id, echoed), (41, request));

        // A length prefix past MAX_FRAME: a flat bad-frame error, then close.
        let mut oversized = greeted(&server);
        let mut prefix = Vec::new();
        crate::binary::write_varint(&mut prefix, (MAX_FRAME + 1) as u64);
        oversized.write_all(&prefix).unwrap();
        let reply = read_all(oversized);
        let (_, id, doc) = frame::split_frame(&reply).unwrap().expect("error frame");
        assert_eq!((id, kind(&doc)), (0, Some("bad-frame")), "{doc}");
        check_witness();

        // A JSON line where the hello belongs: one structured rejection
        // line, then close.
        let mut line = TcpStream::connect(server.local_addr()).unwrap();
        line.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        line.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
        let reply = String::from_utf8(read_all(line)).unwrap();
        assert_eq!(
            reply,
            "{\"status\":\"error\",\"kind\":\"bad-frame\",\"message\":\"binary protocol required\"}\n"
        );
        check_witness();

        // Malformed hellos (version 0, no newline): closed, no reply.
        for hello in [[MAGIC, 0, b'\n'], [MAGIC, WIRE_VERSION, b'x']] {
            let mut bad = TcpStream::connect(server.local_addr()).unwrap();
            bad.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            bad.write_all(&hello).unwrap();
            assert!(read_all(bad).is_empty(), "{hello:?}");
            check_witness();
        }
    }

    #[test]
    fn idle_connections_are_evicted() {
        let config = NetConfig {
            idle_timeout: Some(Duration::from_millis(50)),
            ..NetConfig::default()
        };
        let handler: Handler = Box::new(|_, handle| {
            handle.send(Arc::new(Payload::new(Json::Null)));
        });
        let server = NetServer::bind("127.0.0.1:0", config, handler).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut buf = [0u8; 8];
        // The server closes the quiet socket: read returns 0.
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(stream.read(&mut buf).unwrap(), 0);
        assert_eq!(server.metrics().idle_evicted.load(Ordering::Relaxed), 1);
    }
}

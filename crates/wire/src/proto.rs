//! Client-side connections: the binary hello, connection reuse and
//! request pipelining.
//!
//! A [`Connection`] holds one TCP socket for its whole life (no
//! per-request reconnects), opens it with the 3-byte binary hello (see
//! [`frame`]) and keeps multiple requests in flight. Responses carry
//! correlation ids and may return out of order:
//! [`send`] returns an id, [`recv_for`]/[`call`] deliver the matching
//! response (stashing any other completions for their own waiters).
//!
//! A peer that does not echo the hello (it closes, or sends anything
//! else) fails the connect with
//! [`io::ErrorKind::InvalidData`] instead of hanging.
//!
//! Every connection counts its own traffic ([`WireCounts`]): socket
//! bytes in/out and frames in/out, the numbers loadgen and the bench
//! harness report as bytes/message.
//!
//! [`send`]: Connection::send
//! [`recv_for`]: Connection::recv_for
//! [`call`]: Connection::call

use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::frame::{write_frame, MAGIC, MAX_FRAME, WIRE_VERSION};
use crate::json::Json;
use crate::{binary, frame};

/// The wire protocol a [`Connection`] speaks. Binary frames are the only
/// one; [`Connection::connect`] still takes it so its callers keep their
/// signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Varint length-prefixed binary frames with correlation ids.
    Binary,
}

/// Traffic counters for one connection (socket bytes and whole frames).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCounts {
    /// Bytes read off the socket.
    pub bytes_in: u64,
    /// Bytes written to the socket.
    pub bytes_out: u64,
    /// Frames received.
    pub frames_in: u64,
    /// Frames sent.
    pub frames_out: u64,
}

impl WireCounts {
    /// Adds another connection's counters into this one (fleet totals).
    pub fn absorb(&mut self, other: &WireCounts) {
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
    }
}

/// `Read` adapter that counts bytes as they come off the socket.
#[derive(Debug)]
struct CountRead {
    inner: TcpStream,
    count: Arc<AtomicU64>,
}

impl Read for CountRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// One reusable, pipelined client connection.
#[derive(Debug)]
pub struct Connection {
    writer: TcpStream,
    reader: BufReader<CountRead>,
    next_id: u64,
    /// Outstanding request ids.
    pending: Vec<u64>,
    /// Responses that arrived for ids other than the one being awaited.
    stash: Vec<(u64, Json)>,
    bytes_in: Arc<AtomicU64>,
    bytes_out: u64,
    frames_in: u64,
    frames_out: u64,
    scratch: Vec<u8>,
}

impl Connection {
    /// Connects to `addr` and exchanges the binary hello.
    pub fn connect(addr: &str, protocol: Protocol) -> io::Result<Connection> {
        let Protocol::Binary = protocol;
        let stream = TcpStream::connect(addr)?;
        // Small request/response messages interact badly with Nagle +
        // delayed ACK (tens of ms per round trip); every connection in
        // the system is latency-bound, so opt out unconditionally.
        stream.set_nodelay(true)?;
        let bytes_in = Arc::new(AtomicU64::new(0));
        let reader =
            BufReader::new(CountRead { inner: stream.try_clone()?, count: Arc::clone(&bytes_in) });
        let mut conn = Connection {
            writer: stream,
            reader,
            next_id: 1,
            pending: Vec::new(),
            stash: Vec::new(),
            bytes_in,
            bytes_out: 0,
            frames_in: 0,
            frames_out: 0,
            scratch: Vec::new(),
        };
        conn.hello()?;
        Ok(conn)
    }

    /// Sends the binary hello and checks the peer echoes one back.
    fn hello(&mut self) -> io::Result<()> {
        self.writer.write_all(&[MAGIC, WIRE_VERSION, b'\n'])?;
        self.writer.flush()?;
        self.bytes_out += 3;
        let mut first = [0u8; 1];
        match self.reader.read_exact(&mut first) {
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(invalid("peer does not speak the binary protocol (closed on hello)"));
            }
            other => other?,
        }
        if first[0] != MAGIC {
            return Err(invalid("peer does not speak the binary protocol"));
        }
        let mut rest = [0u8; 2];
        self.reader.read_exact(&mut rest)?;
        if rest[1] != b'\n' || rest[0].min(WIRE_VERSION) == 0 {
            return Err(invalid("malformed binary hello from peer"));
        }
        Ok(())
    }

    /// Number of requests sent and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Snapshot of this connection's traffic counters.
    pub fn counts(&self) -> WireCounts {
        WireCounts {
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out,
            frames_in: self.frames_in,
            frames_out: self.frames_out,
        }
    }

    /// Sends one request without waiting; returns its correlation id.
    pub fn send(&mut self, message: &Json) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.scratch.clear();
        binary::encode_into(message, &mut self.scratch);
        if self.scratch.len() > MAX_FRAME {
            return Err(invalid("request exceeds MAX_FRAME"));
        }
        let before = self.scratch.len();
        let body = std::mem::take(&mut self.scratch);
        write_frame(&mut self.writer, id, &body)?;
        self.scratch = body;
        // Frame overhead: length prefix + id varint.
        self.bytes_out += before as u64 + varint_len(id) + varint_len(before as u64 + varint_len(id));
        self.frames_out += 1;
        self.pending.push(id);
        Ok(id)
    }

    /// Blocks for the next response from the wire (or the stash), in
    /// completion order, returning `(correlation_id, document)`.
    pub fn recv_any(&mut self) -> io::Result<(u64, Json)> {
        if !self.stash.is_empty() {
            let (id, doc) = self.stash.remove(0);
            return Ok((id, doc));
        }
        self.recv_wire()
    }

    /// Blocks for the next response off the socket, bypassing the stash
    /// (so [`recv_for`](Connection::recv_for)'s stash-then-retry loop
    /// cannot feed itself its own stashed entries).
    fn recv_wire(&mut self) -> io::Result<(u64, Json)> {
        let (id, doc) = frame::read_frame(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed before replying"))?;
        self.pending.retain(|&p| p != id);
        self.frames_in += 1;
        Ok((id, doc))
    }

    /// Blocks until the response for `id` arrives, stashing any other
    /// completions for their own waiters.
    pub fn recv_for(&mut self, id: u64) -> io::Result<Json> {
        if let Some(at) = self.stash.iter().position(|(sid, _)| *sid == id) {
            return Ok(self.stash.remove(at).1);
        }
        loop {
            let (got, doc) = self.recv_wire()?;
            if got == id {
                return Ok(doc);
            }
            self.stash.push((got, doc));
        }
    }

    /// One blocking request/response round trip on the reused socket.
    pub fn call(&mut self, message: &Json) -> io::Result<Json> {
        let id = self.send(message)?;
        self.recv_for(id)
    }
}

fn varint_len(value: u64) -> u64 {
    let mut n = 1;
    let mut v = value >> 7;
    while v != 0 {
        n += 1;
        v >>= 7;
    }
    n
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    /// A peer that reads one line and answers it with a JSON error line,
    /// or hangs up on the first byte, then closes: neither speaks the
    /// binary protocol.
    fn line_peer(hang_up: bool) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut line = Vec::new();
            reader.read_until(b'\n', &mut line).unwrap();
            if !hang_up {
                let mut writer = stream;
                writer.write_all(b"{\"status\":\"error\",\"kind\":\"parse\"}\n").unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn strict_binary_fails_against_a_line_server() {
        for hang_up in [false, true] {
            let (addr, handle) = line_peer(hang_up);
            let err = Connection::connect(&addr.to_string(), Protocol::Binary).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "hang_up={hang_up}: {err}");
            handle.join().unwrap();
        }
    }
}

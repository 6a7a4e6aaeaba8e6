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
//! Bytes read off the socket collect in a buffer and are decoded with
//! [`frame::split_frame`], the decoder the server core uses, so both
//! ends split frames one way. A peer that does not echo the hello (it
//! closes, or sends anything else) fails the connect with
//! [`io::ErrorKind::InvalidData`] instead of hanging.
//!
//! Every connection counts its own traffic ([`WireCounts`]): socket
//! bytes in/out and frames in/out, which the repository benchmark
//! (`perfbench/`) reports as bytes per message.
//!
//! [`send`]: Connection::send
//! [`recv_for`]: Connection::recv_for
//! [`call`]: Connection::call

use std::io::{self, Read, Write};
use std::net::TcpStream;

use crate::binary;
use crate::frame::{self, MAGIC, MAX_FRAME, WIRE_VERSION};
use crate::json::Json;

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

/// Bytes asked of the socket per read.
const READ_CHUNK: usize = 16 * 1024;

/// One reusable, pipelined client connection.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    /// Bytes read off the socket and not yet split into frames.
    rbuf: Vec<u8>,
    next_id: u64,
    /// Outstanding request ids.
    pending: Vec<u64>,
    /// Responses that arrived for ids other than the one being awaited.
    stash: Vec<(u64, Json)>,
    counts: WireCounts,
    /// The request body being encoded, and its frame.
    body: Vec<u8>,
    wbuf: Vec<u8>,
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
        let mut conn = Connection {
            stream,
            rbuf: Vec::new(),
            next_id: 1,
            pending: Vec::new(),
            stash: Vec::new(),
            counts: WireCounts::default(),
            body: Vec::new(),
            wbuf: Vec::new(),
        };
        conn.hello()?;
        Ok(conn)
    }

    /// Sends the binary hello and checks the peer echoes one back.
    fn hello(&mut self) -> io::Result<()> {
        self.stream.write_all(&[MAGIC, WIRE_VERSION, b'\n'])?;
        self.counts.bytes_out += 3;
        loop {
            match self.rbuf.first() {
                Some(&first) if first != MAGIC => {
                    return Err(invalid("peer does not speak the binary protocol"));
                }
                _ if self.rbuf.len() >= 3 => break,
                _ => {}
            }
            if self.fill()? == 0 {
                return Err(invalid(if self.rbuf.is_empty() {
                    "peer does not speak the binary protocol (closed on hello)"
                } else {
                    "malformed binary hello from peer"
                }));
            }
        }
        if self.rbuf[2] != b'\n' || self.rbuf[1].min(WIRE_VERSION) == 0 {
            return Err(invalid("malformed binary hello from peer"));
        }
        self.rbuf.drain(..3);
        Ok(())
    }

    /// Reads what the socket has into the buffer; returns the byte
    /// count, 0 at end of stream.
    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; READ_CHUNK];
        let n = loop {
            match self.stream.read(&mut chunk) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                read => break read?,
            }
        };
        self.rbuf.extend_from_slice(&chunk[..n]);
        self.counts.bytes_in += n as u64;
        Ok(n)
    }

    /// Number of requests sent and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Snapshot of this connection's traffic counters.
    pub fn counts(&self) -> WireCounts {
        self.counts
    }

    /// Sends one request without waiting; returns its correlation id.
    pub fn send(&mut self, message: &Json) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.body.clear();
        binary::encode_into(message, &mut self.body);
        if self.body.len() > MAX_FRAME {
            return Err(invalid("request exceeds MAX_FRAME"));
        }
        self.wbuf.clear();
        frame::append_frame(&mut self.wbuf, id, &self.body);
        self.stream.write_all(&self.wbuf)?;
        self.counts.bytes_out += self.wbuf.len() as u64;
        self.counts.frames_out += 1;
        self.pending.push(id);
        Ok(id)
    }

    /// Blocks until the response for `id` arrives, stashing any other
    /// completions for their own waiters. Oversized or undecodable
    /// frames surface as [`io::ErrorKind::InvalidData`].
    pub fn recv_for(&mut self, id: u64) -> io::Result<Json> {
        if let Some(at) = self.stash.iter().position(|(sid, _)| *sid == id) {
            return Ok(self.stash.remove(at).1);
        }
        loop {
            let Some((consumed, got, doc)) =
                frame::split_frame(&self.rbuf).map_err(|e| invalid(e.to_string()))?
            else {
                if self.fill()? == 0 {
                    return Err(if self.rbuf.is_empty() {
                        io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed before replying")
                    } else {
                        invalid("peer closed mid-frame")
                    });
                }
                continue;
            };
            self.rbuf.drain(..consumed);
            self.pending.retain(|&p| p != got);
            self.counts.frames_in += 1;
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
    fn foreign_peer(hang_up: bool) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
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
            let (addr, handle) = foreign_peer(hang_up);
            let err = Connection::connect(&addr.to_string(), Protocol::Binary).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "hang_up={hang_up}: {err}");
            handle.join().unwrap();
        }
    }
}

//! Binary message framing.
//!
//! Each frame wraps the [`binary`] codec: a varint byte length, then a
//! varint correlation id and one encoded document. The correlation id
//! lets a pipelined connection keep many requests in flight and match
//! responses out of order.
//!
//! A connection opens with a 3-byte hello (see [`MAGIC`]/[`WIRE_VERSION`]):
//! the client sends `[MAGIC, version, b'\n']` and the server echoes the
//! same shape with the minimum of the two versions. A peer whose first
//! byte is not [`MAGIC`] is not speaking this protocol; the server
//! answers it with one JSON error line and closes (see
//! [`net`](crate::net)).
//!
//! This module also holds [`Payload`], the render-once response body:
//! one [`Json`] document with a lazily cached binary rendering, so a
//! byte-replay cache serves stored bytes without re-encoding.

use std::io::{self, BufRead, Write};
use std::sync::OnceLock;

use crate::binary::{self, CodecError};
use crate::json::Json;

/// First byte of a binary-protocol hello. No JSON text can start with
/// it, so the server tells a foreign peer apart from its first byte.
pub const MAGIC: u8 = 0xb5;

/// The binary protocol version this build speaks. Peers agree on the
/// minimum of their versions during the hello exchange.
pub const WIRE_VERSION: u8 = 1;

/// Hard cap on one frame's body length. Larger declared lengths are a
/// protocol error (the connection is closed), bounding per-connection
/// memory no matter what a peer claims.
pub const MAX_FRAME: usize = 32 << 20;

/// Writes one binary frame: `varint(total) varint(id) body`, flushed.
/// `body` is the [`binary`] encoding of one document (see
/// [`Payload::bin`] for the cached render).
pub fn write_frame<W: Write>(writer: &mut W, id: u64, body: &[u8]) -> io::Result<()> {
    let mut head = Vec::with_capacity(20);
    binary::write_varint(&mut head, id);
    let id_len = head.len();
    let mut prefix = Vec::with_capacity(10);
    binary::write_varint(&mut prefix, (id_len + body.len()) as u64);
    writer.write_all(&prefix)?;
    writer.write_all(&head)?;
    writer.write_all(body)?;
    writer.flush()
}

/// Appends one binary frame to an in-memory buffer (the poll loop's write
/// path: no flush semantics, the loop drains the buffer as the socket
/// accepts it).
pub fn append_frame(out: &mut Vec<u8>, id: u64, body: &[u8]) {
    let mut head = Vec::with_capacity(20);
    binary::write_varint(&mut head, id);
    binary::write_varint(out, (head.len() + body.len()) as u64);
    out.extend_from_slice(&head);
    out.extend_from_slice(body);
}

/// Blocking read of one binary frame: `Ok(None)` on a clean EOF at a
/// frame boundary; oversized, truncated or undecodable frames surface as
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame<R: BufRead>(reader: &mut R) -> io::Result<Option<(u64, Json)>> {
    let Some(len) = read_varint_stream(reader, true)? else {
        return Ok(None);
    };
    if len as usize > MAX_FRAME {
        return Err(invalid(format!("frame length {len} exceeds MAX_FRAME {MAX_FRAME}")));
    }
    let mut body = vec![0u8; len as usize];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            invalid("peer closed mid-frame")
        } else {
            e
        }
    })?;
    let mut pos = 0usize;
    let id = binary::read_varint(&body, &mut pos).map_err(|e| invalid(e.to_string()))?;
    let doc = binary::decode_at(&body, &mut pos, 0).map_err(|e| invalid(e.to_string()))?;
    if pos != body.len() {
        return Err(invalid("trailing bytes after frame document"));
    }
    Ok(Some((id, doc)))
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Reads a varint byte-by-byte from a stream. With `eof_ok`, a clean EOF
/// before the first byte returns `Ok(None)`; EOF mid-varint is always an
/// error.
fn read_varint_stream<R: BufRead>(reader: &mut R, eof_ok: bool) -> io::Result<Option<u64>> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        match reader.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && shift == 0 && eof_ok => {
                return Ok(None);
            }
            Err(e) => return Err(e),
        }
        let b = byte[0];
        if shift == 63 && b > 1 {
            return Err(invalid("frame varint overflows u64"));
        }
        value |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(Some(value));
        }
        shift += 7;
        if shift > 63 {
            return Err(invalid("frame varint longer than 10 bytes"));
        }
    }
}

/// Scans an in-memory buffer for one complete binary frame (the poll
/// loop's read path). Returns `Ok(None)` while the frame is still
/// arriving, or `Ok(Some((consumed, id, doc)))` once whole. Errors are
/// fatal to the connection (oversized length, corrupt body).
pub fn split_frame(buf: &[u8]) -> Result<Option<(usize, u64, Json)>, CodecError> {
    let mut pos = 0usize;
    let len = match binary::read_varint(buf, &mut pos) {
        Ok(len) => len,
        // A truncated varint at the buffer head just means "need more
        // bytes" — unless it is already over the 10-byte limit.
        Err(_) if buf.len() < 10 => return Ok(None),
        Err(e) => return Err(e),
    };
    if len as usize > MAX_FRAME {
        return Err(CodecError { offset: 0, message: format!("frame length {len} exceeds MAX_FRAME {MAX_FRAME}") });
    }
    let body_end = pos + len as usize;
    if buf.len() < body_end {
        return Ok(None);
    }
    let body = &buf[pos..body_end];
    let mut at = 0usize;
    let id = binary::read_varint(body, &mut at)?;
    let doc = binary::decode_at(body, &mut at, 0)?;
    if at != body.len() {
        return Err(CodecError { offset: pos + at, message: "trailing bytes after frame document".into() });
    }
    Ok(Some((body_end, id, doc)))
}

/// A response body rendered once, shared by reference.
///
/// Built from the response [`Json`] (without any correlation id — ids are
/// per-request and framed separately), it caches the binary encoding on
/// first use. The server's result cache stores `Arc<Payload>`, so a cache
/// hit replays stored bytes verbatim — the byte-replay determinism
/// contract.
pub struct Payload {
    json: Json,
    bin: OnceLock<Vec<u8>>,
}

impl Payload {
    /// Wraps a response document.
    pub fn new(json: Json) -> Payload {
        Payload { json, bin: OnceLock::new() }
    }

    /// The underlying document.
    pub fn json(&self) -> &Json {
        &self.json
    }

    /// Binary rendering (frame body sans correlation id), rendered once.
    pub fn bin(&self) -> &[u8] {
        self.bin.get_or_init(|| binary::encode(&self.json))
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Payload").field("json", &self.json).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use std::io::BufReader;

    #[test]
    fn binary_frames_roundtrip_with_ids() {
        let doc = parse_json(r#"{"cmd":"allocate","seed":42}"#).unwrap();
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, &crate::binary::encode(&doc)).unwrap();
        write_frame(&mut wire, 300, &crate::binary::encode(&doc)).unwrap();
        let mut reader = BufReader::new(std::io::Cursor::new(wire));
        let (id1, d1) = read_frame(&mut reader).unwrap().unwrap();
        let (id2, d2) = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!((id1, id2), (7, 300));
        assert_eq!(d1, doc);
        assert_eq!(d2, doc);
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn split_frame_distinguishes_partial_from_corrupt() {
        let doc = parse_json(r#"{"a":[1,2,3]}"#).unwrap();
        let mut wire = Vec::new();
        append_frame(&mut wire, 9, &crate::binary::encode(&doc));
        // Every proper prefix is "still arriving", never an error.
        for cut in 0..wire.len() {
            assert!(matches!(split_frame(&wire[..cut]), Ok(None)), "prefix {cut}");
        }
        let (consumed, id, back) = split_frame(&wire).unwrap().unwrap();
        assert_eq!((consumed, id), (wire.len(), 9));
        assert_eq!(back, doc);
        // An oversized declared length is fatal immediately.
        let mut huge = Vec::new();
        crate::binary::write_varint(&mut huge, (MAX_FRAME + 1) as u64);
        assert!(split_frame(&huge).is_err());
    }

    #[test]
    fn payload_renders_the_binary_body_once() {
        let doc = parse_json(r#"{"status":"ok","cost":12}"#).unwrap();
        let payload = Payload::new(doc.clone());
        assert_eq!(crate::binary::decode(payload.bin()).unwrap(), doc);
        assert!(std::ptr::eq(payload.bin(), payload.bin()), "one cached rendering");
    }
}

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

/// Appends one binary frame, `varint(total) varint(id) body`, to an
/// in-memory buffer. `body` is the [`binary`] encoding of one document
/// (see [`Payload::bin`] for the cached render). Both ends write through
/// it: the poll loop drains its buffer as the socket accepts it, and a
/// client writes the buffer whole.
pub fn append_frame(out: &mut Vec<u8>, id: u64, body: &[u8]) {
    let mut head = Vec::with_capacity(20);
    binary::write_varint(&mut head, id);
    binary::write_varint(out, (head.len() + body.len()) as u64);
    out.extend_from_slice(&head);
    out.extend_from_slice(body);
}

/// Scans an in-memory buffer for one complete binary frame (the read
/// path of both the poll loop and the client). Returns `Ok(None)` while
/// the frame is still arriving, or `Ok(Some((consumed, id, doc)))` once
/// whole. Errors are fatal to the connection (oversized length, corrupt
/// body).
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

    #[test]
    fn binary_frames_roundtrip_with_ids() {
        let doc = parse_json(r#"{"cmd":"allocate","seed":42}"#).unwrap();
        let mut wire = Vec::new();
        append_frame(&mut wire, 7, &crate::binary::encode(&doc));
        append_frame(&mut wire, 300, &crate::binary::encode(&doc));
        let (used1, id1, d1) = split_frame(&wire).unwrap().unwrap();
        let (used2, id2, d2) = split_frame(&wire[used1..]).unwrap().unwrap();
        assert_eq!((id1, id2), (7, 300));
        assert_eq!(d1, doc);
        assert_eq!(d2, doc);
        assert_eq!(used1 + used2, wire.len(), "two frames, no trailing bytes");
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

//! Compact binary encoding of the [`Json`] document model.
//!
//! The wire transports exactly the values of the JSON text form — a
//! [`Json`] tree in, the identical [`Json`] tree out — so every
//! determinism contract stated over the text (byte-replay caches,
//! canonical report diffs) holds over the
//! wire for free: both sides render reports from the same document with
//! the same serializer.
//!
//! Encoding, one tag byte per node:
//!
//! | tag | value   | payload                                            |
//! |-----|---------|----------------------------------------------------|
//! | 0   | null    | —                                                  |
//! | 1   | false   | —                                                  |
//! | 2   | true    | —                                                  |
//! | 3   | int     | zigzag(i64) as LEB128 varint                       |
//! | 4   | float   | 8 bytes, IEEE-754 bits little-endian               |
//! | 5   | string  | varint byte length + UTF-8 bytes                   |
//! | 6   | array   | varint count + that many encoded values            |
//! | 7   | object  | varint count + (varint key length + key, value)*   |
//!
//! Integers round-trip exactly (zigzag over the full `i64` domain) and
//! floats round-trip bit-for-bit (raw IEEE bits, no text formatting), so
//! `decode(encode(x)) == x` for every well-formed document.
//!
//! Decoding is defensive: every length is checked against the bytes
//! actually present before any allocation sizing trusts it, nesting depth
//! is capped, and all failures come back as a structured [`CodecError`]
//! with the byte offset of the offending token — corrupt input can never
//! panic or over-allocate.

use crate::json::Json;

/// Nesting depth cap for decoded documents. Service messages are a few
/// levels deep; anything beyond this is corrupt or hostile input.
pub const MAX_DEPTH: usize = 64;

/// A structured decode failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset into the buffer at which decoding failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl CodecError {
    fn new(offset: usize, message: impl Into<String>) -> CodecError {
        CodecError { offset, message: message.into() }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "binary codec error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for CodecError {}

/// Appends `value` as an LEB128 varint (7 bits per byte, high bit set on
/// continuation bytes; at most 10 bytes for a full `u64`).
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `buf[*pos..]`, advancing `*pos`.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let start = *pos;
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*pos) else {
            return Err(CodecError::new(start, "truncated varint"));
        };
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(CodecError::new(start, "varint overflows u64"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::new(start, "varint longer than 10 bytes"));
        }
    }
}

/// Zigzag-maps a signed integer onto the unsigned varint domain, so small
/// magnitudes of either sign encode in few bytes.
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_ARR: u8 = 6;
const TAG_OBJ: u8 = 7;

/// Appends the binary encoding of `value` to `out`.
pub fn encode_into(value: &Json, out: &mut Vec<u8>) {
    match value {
        Json::Null => out.push(TAG_NULL),
        Json::Bool(false) => out.push(TAG_FALSE),
        Json::Bool(true) => out.push(TAG_TRUE),
        Json::Int(i) => {
            out.push(TAG_INT);
            write_varint(out, zigzag(*i));
        }
        Json::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Json::Str(s) => {
            out.push(TAG_STR);
            write_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Json::Arr(items) => {
            out.push(TAG_ARR);
            write_varint(out, items.len() as u64);
            for item in items {
                encode_into(item, out);
            }
        }
        Json::Obj(entries) => {
            out.push(TAG_OBJ);
            write_varint(out, entries.len() as u64);
            for (key, item) in entries {
                write_varint(out, key.len() as u64);
                out.extend_from_slice(key.as_bytes());
                encode_into(item, out);
            }
        }
    }
}

/// Encodes `value` into a fresh buffer.
pub fn encode(value: &Json) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_into(value, &mut out);
    out
}

/// Decodes one document from the whole of `buf`; trailing bytes after the
/// document are an error (a frame carries exactly one document).
pub fn decode(buf: &[u8]) -> Result<Json, CodecError> {
    let mut pos = 0usize;
    let value = decode_at(buf, &mut pos, 0)?;
    if pos != buf.len() {
        return Err(CodecError::new(pos, format!("{} trailing bytes after document", buf.len() - pos)));
    }
    Ok(value)
}

/// Decodes one document from `buf[*pos..]`, advancing `*pos` past it.
pub fn decode_at(buf: &[u8], pos: &mut usize, depth: usize) -> Result<Json, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError::new(*pos, "nesting deeper than MAX_DEPTH"));
    }
    let at = *pos;
    let Some(&tag) = buf.get(at) else {
        return Err(CodecError::new(at, "truncated document: missing tag"));
    };
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Json::Null),
        TAG_FALSE => Ok(Json::Bool(false)),
        TAG_TRUE => Ok(Json::Bool(true)),
        TAG_INT => Ok(Json::Int(unzigzag(read_varint(buf, pos)?))),
        TAG_FLOAT => {
            let Some(bytes) = buf.get(*pos..*pos + 8) else {
                return Err(CodecError::new(*pos, "truncated float"));
            };
            let bits = u64::from_le_bytes(bytes.try_into().expect("slice is 8 bytes"));
            *pos += 8;
            Ok(Json::Float(f64::from_bits(bits)))
        }
        TAG_STR => Ok(Json::Str(decode_string(buf, pos)?)),
        TAG_ARR => {
            let count = checked_count(buf, pos)?;
            let mut items = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                items.push(decode_at(buf, pos, depth + 1)?);
            }
            Ok(Json::Arr(items))
        }
        TAG_OBJ => {
            let count = checked_count(buf, pos)?;
            let mut entries = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let key = decode_string(buf, pos)?;
                let value = decode_at(buf, pos, depth + 1)?;
                entries.push((key, value));
            }
            Ok(Json::Obj(entries))
        }
        other => Err(CodecError::new(at, format!("unknown tag byte 0x{other:02x}"))),
    }
}

/// Reads a count varint and sanity-checks it against the bytes actually
/// remaining (every element needs at least one byte), so corrupt counts
/// cannot drive huge allocations or long loops.
fn checked_count(buf: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    let at = *pos;
    let count = read_varint(buf, pos)?;
    let remaining = (buf.len() - *pos) as u64;
    if count > remaining {
        return Err(CodecError::new(at, format!("count {count} exceeds {remaining} remaining bytes")));
    }
    Ok(count as usize)
}

fn decode_string(buf: &[u8], pos: &mut usize) -> Result<String, CodecError> {
    let at = *pos;
    let len = read_varint(buf, pos)?;
    let remaining = (buf.len() - *pos) as u64;
    if len > remaining {
        return Err(CodecError::new(at, format!("string length {len} exceeds {remaining} remaining bytes")));
    }
    let end = *pos + len as usize;
    let text = std::str::from_utf8(&buf[*pos..end])
        .map_err(|e| CodecError::new(*pos + e.valid_up_to(), "string is not valid UTF-8"))?;
    let owned = text.to_string();
    *pos = end;
    Ok(owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    #[test]
    fn varints_roundtrip_at_the_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_covers_the_full_domain() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn documents_roundtrip_exactly() {
        let doc = parse_json(
            r#"{"cmd":"allocate","graph":"cdfg ewf\nop a = add b c\n","knobs":{"steps":19,"seed":-7,"cutoff":null,"pipelined":false,"rate":0.52},"tags":["a","b",3,4.0]}"#,
        )
        .unwrap();
        let bytes = encode(&doc);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, doc);
        // Compact text is the determinism contract's surface: identical too.
        assert_eq!(back.to_string_compact(), doc.to_string_compact());
    }

    #[test]
    fn audit_lane_documents_roundtrip_exactly() {
        // The verification-as-a-service surface: a request carrying the
        // per-job `verify` knob, a certified response (float `verify_ms`
        // must survive bit-for-bit — the canonicalizer, not the codec,
        // is what zeroes it), and the `trace` verb with its artifact.
        // Offline audit byte-diffs reports fetched over the wire, so the
        // compact text must come back identical too.
        for raw in [
            r#"{"cmd":"allocate","bench":"ewf","seed":1,"restarts":2,"verify":"full"}"#,
            r#"{"status":"ok","report":{"cost":2315,"certificate":{"verdict":"certified","mode":"full","verify_ms":96.593347,"trace_id":"4741f1f2b13990270848578bea51c16d","cache":"miss","commits":15922}}}"#,
            r#"{"cmd":"trace","id":"4741f1f2b13990270848578bea51c16d"}"#,
            r#"{"status":"ok","artifact":{"design":"cdfg ewf\n","cost":2315,"trace":"salsa-trace/1 base=2378 slot=1\n!\n"}}"#,
        ] {
            let doc = parse_json(raw).unwrap();
            let back = decode(&encode(&doc)).unwrap();
            assert_eq!(back, doc);
            assert_eq!(back.to_string_compact(), doc.to_string_compact());
        }
    }

    #[test]
    fn truncations_error_cleanly() {
        let doc = parse_json(r#"{"a":[1,2.5,"xyz"],"b":true}"#).unwrap();
        let bytes = encode(&doc);
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(err.offset <= cut, "offset {} past cut {}", err.offset, cut);
        }
    }

    #[test]
    fn corrupt_counts_do_not_allocate() {
        // Array claiming u64::MAX elements with no bytes behind it.
        let mut buf = vec![TAG_ARR];
        write_varint(&mut buf, u64::MAX);
        let err = decode(&buf).unwrap_err();
        assert!(err.message.contains("exceeds"));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&Json::Int(5));
        bytes.push(0);
        let err = decode(&bytes).unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn invalid_utf8_is_an_error_not_a_panic() {
        let mut buf = vec![TAG_STR];
        write_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let err = decode(&buf).unwrap_err();
        assert!(err.message.contains("UTF-8"));
    }
}

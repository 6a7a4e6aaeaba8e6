//! `salsa-wire` — the shared wire substrate of the SALSA services.
//!
//! Both the allocation service (`salsa-serve`) and the distributed
//! portfolio cluster (`salsa-cluster`) speak one protocol over TCP:
//! varint length-prefixed binary frames with correlation ids, opened by
//! a 3-byte hello. This crate holds the pieces they share, with the
//! workspace's no-external-dependencies policy intact (std only):
//!
//! - [`json`] — the hand-rolled JSON document model: insertion-ordered
//!   objects (deterministic serialization, which the byte-replay caches
//!   and the cluster's bit-exact reduction contract rely on) and a
//!   parser that distinguishes integers from floats;
//! - [`binary`] — a compact tagged binary encoding of the same document
//!   model (varint integers, raw IEEE float bits), lossless in both
//!   directions, so every determinism contract stated over the JSON
//!   text carries over the wire;
//! - [`frame`] — the frame format and the hello, plus
//!   [`frame::Payload`], the render-once response body a byte-replay
//!   cache serves verbatim;
//! - [`proto`] — client connections: the hello, connection reuse,
//!   request pipelining with correlation ids, and per-connection
//!   traffic counters;
//! - [`net`] — the non-blocking poll-based server core (one I/O thread
//!   over nonblocking sockets) that `salsa-serve` and the cluster
//!   coordinator both run on, with per-connection buffers, bounded
//!   in-flight limits and idle-timeout eviction;
//! - [`backoff`] — seeded, jittered exponential backoff for retry loops
//!   (backpressure resubmission, worker reconnects), deterministic per
//!   seed so load-generator runs stay reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod binary;
pub mod frame;
pub mod json;
pub mod net;
pub mod proto;

pub use backoff::Backoff;
pub use frame::Payload;
pub use json::{parse_json, Json, JsonError};
pub use net::{Handler, NetConfig, NetMetrics, NetServer, ReplyHandle};
pub use proto::{Connection, Protocol, WireCounts};

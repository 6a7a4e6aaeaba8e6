//! `salsa-cluster` — distributed portfolio search for the SALSA allocator.
//!
//! PR 2 made the portfolio reduction deterministic in `(cost, seed)` no
//! matter how chains are scheduled; this crate cashes that property in at
//! process scale. A **coordinator** ([`Coordinator`]) shards a job's
//! restart chains into contiguous slot ranges, leases them over the
//! `salsa-wire` binary-framed TCP protocol ([`protocol`])
//! to **worker processes** ([`run_worker`]), and reduces the reported
//! `(cost, slot)` pairs with the same deterministic minimum the local
//! engine uses. Each result ships its shard's best binding as a
//! [`BindingParts`](salsa_alloc::BindingParts) image in the parts text;
//! the coordinator rebuilds the winner from it and, when the image is
//! absent, malformed or disagrees with its reported cost, *replays* the
//! winning slot locally ([`salsa_alloc::replay_slot`]) — chains are pure
//! functions of their seed. Either way it finishes with the ordinary
//! lower → verify → report pipeline.
//!
//! Robustness model:
//!
//! - **Leases + heartbeats.** A dispatched shard carries a lease; the
//!   worker renews it by heartbeating. A worker that dies (connection
//!   gone, no heartbeats) or hangs (stops renewing) lets its lease
//!   expire, and the shard is handed to the next polling worker. Replays
//!   are safe because chains are side-effect-free and seed-replayable —
//!   a shard run twice returns identical bytes, and the coordinator
//!   keeps the first result per shard.
//! - **Bound gossip.** Worker heartbeats and results carry the worker's
//!   local best bound; acks carry the global minimum back. With a cutoff
//!   enabled this makes the PR 2 best-bound pruning work across
//!   processes. The default leaves the cutoff off, so every chain
//!   completes and the final report is byte-identical (in canonical
//!   form) for *any* worker count and any failure pattern.
//! - **Cancellation.** A job deadline trips the coordinator-side
//!   [`CancelToken`](salsa_alloc::CancelToken); heartbeat acks relay the
//!   cancellation to workers, whose own tokens abort the shard.
//!
//! [`ClusterBackend`] plugs a coordinator into `salsa-serve`'s backend
//! seam, so the queue, cache and stats layers sit unchanged on top of a
//! worker fleet.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod coordinator;
pub mod plan;
pub mod protocol;
pub mod worker;

pub use backend::ClusterBackend;
pub use coordinator::{ClusterConfig, Coordinator};
pub use worker::{run_worker, FaultPlan, WorkerConfig};

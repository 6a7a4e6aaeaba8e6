//! # salsa-hls
//!
//! Facade crate for the reproduction of *Data Path Allocation using an
//! Extended Binding Model* (Krishnamoorthy & Nestor, DAC 1992).
//!
//! Re-exports the workspace crates under stable module names so examples
//! and downstream users need a single dependency:
//!
//! * [`cdfg`] — control/data flow graphs and benchmark designs,
//! * [`sched`] — ASAP/ALAP, list and force-directed scheduling,
//! * [`datapath`] — datapath model, interconnect cost, mux merging,
//!   verification,
//! * [`alloc`] — the SALSA extended binding model and allocator (the
//!   paper's contribution),
//! * [`audit`] — verification as a service: move-trace certificates,
//!   record/replay re-derivation of results, portable trace artifacts,
//! * [`baseline`] — traditional-binding-model comparators,
//! * [`rtlgen`] — structural Verilog export of allocated datapaths,
//! * [`serve`] — the TCP allocation service (bounded job queue,
//!   content-addressed result cache, worker pool with per-job
//!   deadlines) and the JSON report serializer,
//! * [`wire`] — the service's wire layer (JSON model, binary frames,
//!   the poll-based server core, seeded retry backoff).
//!
//! # Quickstart
//!
//! ```
//! use salsa_hls::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = salsa_hls::cdfg::benchmarks::paper_example();
//! let library = FuLibrary::standard();
//! let schedule = fds_schedule(&graph, &library, 4)?;
//! let result = Allocator::new(&graph, &schedule, &library)
//!     .seed(1)
//!     .run()?;
//! assert!(result.verified());
//! # Ok(())
//! # }
//! ```

pub use salsa_alloc as alloc;
pub use salsa_audit as audit;
pub use salsa_baseline as baseline;
pub use salsa_cdfg as cdfg;
pub use salsa_rtlgen as rtlgen;
pub use salsa_datapath as datapath;
pub use salsa_sched as sched;
pub use salsa_serve as serve;
pub use salsa_wire as wire;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use salsa_alloc::Allocator;
    pub use salsa_cdfg::{Cdfg, CdfgBuilder};
    pub use salsa_datapath::CostWeights;
    pub use salsa_sched::{fds_schedule, FuLibrary, Schedule};
}

//! The **SALSA extended binding model** and data path allocator — the
//! primary contribution of *Data Path Allocation using an Extended Binding
//! Model* (Krishnamoorthy & Nestor, DAC 1992), reimplemented in Rust.
//!
//! The traditional binding model assigns each value to one register for its
//! entire lifetime. The SALSA model adds three degrees of freedom (paper
//! §2):
//!
//! 1. **Value segments** — slack nodes break each value's lifetime into
//!    one-control-step segments that may live in *different* registers,
//!    creating register-to-register transfers the allocator can trade
//!    against multiplexer inputs elsewhere;
//! 2. **Value copies** — the *value split* / *value merge* transformations
//!    maintain several concurrent copies of a value so different consumers
//!    can read from different registers (Figure 4);
//! 3. **Functional-unit pass-throughs** — an idle, pass-capable unit
//!    forwards a value from input to output, implementing a transfer over
//!    existing connections instead of a new multiplexer input (Figure 3).
//!
//! [`Binding`] holds a complete allocation under this model with
//! incrementally-maintained interconnect cost; [`moves`] implements the
//! full move set of the paper's Table 1 (F1-F5, R1-R6);
//! [`initial_allocation`] is the constructive starting point of §4; and
//! [`Allocator`] runs the paper's iterative-improvement search (random
//! moves, bounded uphill acceptance per trial) and returns a lowered,
//! **verified** datapath.
//!
//! # Example
//!
//! ```
//! use salsa_alloc::Allocator;
//! use salsa_cdfg::benchmarks::paper_example;
//! use salsa_sched::{fds_schedule, FuLibrary};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = paper_example();
//! let library = FuLibrary::standard();
//! let schedule = fds_schedule(&graph, &library, 4)?;
//! let result = Allocator::new(&graph, &schedule, &library).seed(7).run()?;
//! println!("{} equivalent 2-1 muxes", result.breakdown.mux_equiv);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocator;
mod anneal;
mod binding;
mod cancel;
mod context;
mod error;
mod improve;
mod initial;
mod lower;
pub mod moves;
mod plan;
mod polish;
pub mod portfolio;
mod report;
mod trace;
mod transfer;
mod warm;

pub use allocator::{AllocResult, Allocator, WarmStart};
pub use anneal::{anneal, AnnealConfig, AnnealStats};
pub use binding::{Binding, BindingParts, Chain, ChainSlotImage, PassMap};
pub use cancel::{CancelToken, CANCEL_POLL_PERIOD};
pub use context::AllocContext;
pub use error::AllocError;
pub use improve::{improve, ImproveConfig, ImproveStats};
pub use initial::{initial_allocation, initial_binding, InitialBinding};
pub use lower::{lower, verify_binding, verify_lowered};
pub use plan::MovePlan;
pub use polish::polish;
pub use portfolio::{
    portfolio_search, ChainStat, PortfolioConfig, PortfolioOutcome, PortfolioStats,
};
pub use report::{portfolio_table, register_chart, report, unit_schedule};
pub use moves::{MoveKind, MoveSet, Proposal};
pub use trace::{record_slot_trace, replay_trace, MoveTrace, TraceError, TraceStep};
pub use transfer::TransferKey;
pub use warm::WarmSpec;

//! Scheduling substrate for the SALSA extended-binding-model reproduction.
//!
//! The paper allocates *scheduled* CDFGs produced by the SALSA scheduler
//! [Nestor & Krishnamoorthy, ICCAD-90]; this crate rebuilds the scheduling
//! layer the allocator depends on:
//!
//! * a functional-unit library ([`FuLibrary`]) with multi-cycle and
//!   **pipelined** units (the paper's §5 hardware assumptions: 1-step
//!   adders, 2-step multipliers, pipelined multipliers with an initiation
//!   interval of one step),
//! * [`asap`] analysis (earliest issue steps, critical-path length),
//! * resource-constrained **list scheduling** ([`list_schedule`]),
//! * time-constrained **force-directed scheduling** ([`fds_schedule`],
//!   Paulin/Knight style) used to generate the Table 2/3 schedules, which
//!   fix the minimum functional-unit and register counts,
//! * the value **lifetime analysis** ([`lifetimes`]) shared with the
//!   allocator: per-step stored spans including loop-carried (state) values
//!   and iteration-boundary wrapping.
//!
//! # Example
//!
//! ```
//! use salsa_cdfg::benchmarks::ewf;
//! use salsa_sched::{asap, fds_schedule, FuLibrary};
//!
//! # fn main() -> Result<(), salsa_sched::SchedError> {
//! let graph = ewf();
//! let library = FuLibrary::standard();
//! // The EWF critical path is 17 control steps...
//! assert_eq!(asap(&graph, &library).length, 17);
//! // ...and a 19-step schedule needs fewer functional units.
//! let schedule = fds_schedule(&graph, &library, 19)?;
//! schedule.validate(&graph, &library)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asap_alap;
mod error;
mod fds;
mod fu;
mod lifetime;
mod list;
mod schedule;
mod topology;

pub use asap_alap::{asap, AsapResult};
pub use error::SchedError;
pub use fds::{fds_schedule, fds_schedule_with, FdsOptions};
pub use fu::{FuClass, FuLibrary, FuSpec};
pub use lifetime::{lifetimes, Lifetime, Lifetimes};
pub use list::list_schedule;
pub use schedule::Schedule;

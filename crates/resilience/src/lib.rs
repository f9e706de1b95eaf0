//! Resilience layer for the Sunder workspace.
//!
//! Three building blocks, dependency-free so every other crate can use
//! them without cycles:
//!
//! - [`budget`] — cooperative cancellation ([`CancelToken`]) and
//!   wall-clock budgets ([`Budget`]) for long-running loops, designed so
//!   an unset budget costs a single branch per run.
//! - [`supervisor`] — a panic-isolating parallel job supervisor
//!   ([`supervise`]) that turns worker panics, timeouts, and errors into
//!   structured [`JobOutcome`]s instead of tearing down the batch.
//! - [`fault`] — deterministic, serializable fault injection
//!   ([`FaultPlan`]) for driving panics, stalls, build failures, input
//!   corruption, and cycle-model faults through the stack in tests and CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod fault;
pub mod supervisor;

pub use budget::{Budget, CancelToken, RunOutcome, StopReason, DEFAULT_CHECK_EVERY};
pub use fault::{corrupt, Fault, FaultKind, FaultPlan, JobFaults, SplitMix64};
pub use supervisor::{
    panic_message, supervise, JobContext, JobError, JobOutcome, JobReport, JobValue,
    SupervisorPolicy, SupervisorSummary,
};

//! Functional automata simulator (the repository's VASim equivalent).
//!
//! The paper uses the Virtual Automata Simulator to (a) collect the
//! reporting-behavior statistics of Table 1 and (b) produce the per-cycle
//! report streams that drive the reporting-architecture models. This crate
//! plays both roles: [`Simulator`] executes any [`sunder_automata::Nfa`]
//! (any symbol width, any stride) cycle by cycle and streams report events
//! into a pluggable [`ReportSink`].
//!
//! Three engines share the [`Engine`] trait and produce byte-identical
//! report traces: the sparse frontier [`Simulator`], the bit-parallel
//! [`DenseEngine`] (one cycle = a few wide word operations over the whole
//! state set, mirroring the subarray's row-read/AND pipeline), and the
//! density-sampling [`AdaptiveEngine`] that switches between them at
//! runtime. Pick one by name with [`EngineKind`].
//!
//! # Quick start
//!
//! ```
//! use sunder_automata::regex::compile_rule_set;
//! use sunder_automata::InputView;
//! use sunder_sim::{DynamicStatsSink, Simulator};
//!
//! let nfa = compile_rule_set(&["GET /", "POST /"])?;
//! let input = InputView::new(b"GET /index.html", 8, 1)?;
//! let mut sim = Simulator::new(&nfa);
//! let mut stats = DynamicStatsSink::new();
//! sim.run(&input, &mut stats);
//! assert_eq!(stats.finish().reports, 1);
//! # Ok::<(), sunder_automata::AutomataError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod dense;
pub mod engine;
pub mod exec;
// Public (but doc-hidden) so the `sunder-artifact` mapped-database loader
// can assemble the compiled tables from borrowed slices; not a supported
// API surface for anyone else.
#[doc(hidden)]
pub mod fastpath;
pub mod histogram;
pub mod profile;
pub mod sharded;
pub mod simd;
pub mod sink;
pub mod stats;
pub mod storage;
mod subset;

pub use adaptive::{AdaptiveEngine, AdaptiveLimits, DegradeReason};
pub use dense::{DenseBuildError, DenseEngine};
pub use engine::{run_trace, Simulator};
pub use exec::{Engine, EngineKind, EngineState};
pub use histogram::BurstHistogramSink;
pub use profile::{hybrid_split, ActivationProfileSink, HybridSplit};
pub use sharded::{ShardedEngine, ShardedState};
pub use sink::{BoundedTraceSink, CountSink, NullSink, ReportEvent, ReportSink, TraceSink};
pub use stats::{DynamicStats, DynamicStatsSink};
pub use storage::TableBuf;
// Budget types are re-exported so engine callers need not depend on
// sunder-resilience directly.
pub use sunder_resilience::{Budget, CancelToken, RunOutcome, StopReason};

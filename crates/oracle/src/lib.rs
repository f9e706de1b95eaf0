//! Cross-layer conformance oracle for the Sunder pipeline.
//!
//! Every layer of this workspace transforms or executes automata — the
//! FlexAmata nibble decomposition, Impala temporal striding, three
//! functional engines, several report sinks — and all of them must agree
//! on one observable: the `(symbol position, report id)` trace of the
//! *original* automaton over the *original* input. This crate is the
//! subsystem that enforces that agreement:
//!
//! * [`reference`] — an independent reference executor (on-the-fly subset
//!   construction over the original automaton) producing the canonical
//!   trace. It shares no execution code with `sunder-sim`.
//! * [`check`] — the equivalence checker: runs every pipeline
//!   configuration (identity, nibble, stride×2, stride×4 × every engine),
//!   folds reports back to original coordinates with
//!   [`sunder_transform::PositionMap`], and diffs against the oracle.
//! * [`fuzz`] — a seeded structured fuzzer generating random
//!   regexes/automata and inputs, shrinking any divergence to a minimal
//!   `(automaton, input)` pair and rendering it as a self-contained
//!   reproducer file.
//! * [`shard`] — the sharding equivalence suite: sharded execution
//!   ([`sunder_sim::ShardedEngine`]) must be report-trace-identical to
//!   monolithic execution *and* agree with the oracle, for every
//!   configuration × engine × shard count.
//! * [`seeds`] — replays the historical proptest regression corpus
//!   through the full pipeline matrix.
//! * [`cli`] — the `conformance` binary's implementation
//!   (`cargo run --release --bin conformance -- --seed N --cases M`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod cli;
pub mod fuzz;
pub mod reference;
pub mod seeds;
pub mod shard;

pub use check::{check_pipelines, check_suite, compare_transformed, Divergence};
pub use fuzz::{corruption_plan, run_fuzz, run_fuzz_with_plan, Failure, FuzzOptions, FuzzOutcome};
pub use reference::{oracle_trace, OracleTrace, ReferenceOracle};
pub use shard::{check_sharded_pipelines, check_sharded_suite, DEFAULT_SHARD_COUNTS};
pub use sunder_transform::PipelineConfig;

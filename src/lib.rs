//! # Sunder — in-SRAM pattern matching with in-place reporting
//!
//! A full software reproduction of *"Sunder: Enabling Low-Overhead and
//! Scalable Near-Data Pattern Matching Acceleration"* (MICRO '21). This
//! facade re-exports the workspace crates; see the README for the map.
//!
//! * [`automata`] — homogeneous NFAs, symbol sets, the regex compiler, the
//!   textual exchange format;
//! * [`transform`] — FlexAmata-style nibble transformation and vectorized
//!   temporal striding (the paper's Section 4);
//! * [`sim`] — the functional, VASim-style simulator;
//! * [`arch`] — the cycle-level Sunder machine: subarrays, placement,
//!   interconnect, and the in-place reporting architecture (Section 5);
//! * [`baselines`] — the Micron AP reporting model, with and without RAD;
//! * [`tech`] — the 14 nm technology model: timing, area, throughput;
//! * [`llc`] — Section 6's system integration: sliced-LLC addressing,
//!   CAT way isolation, host configuration/readout traffic;
//! * [`workloads`] — calibrated synthetic ANMLZoo/Regex benchmarks;
//! * [`core`] — the end-to-end [`Engine`] most users want;
//! * [`oracle`] — the cross-layer conformance oracle: a reference
//!   executor independent of the simulator, pipeline equivalence
//!   checking, and the structured fuzzer behind the `conformance` binary;
//! * [`shard`] — the sharded multi-stream execution service: automaton
//!   partitioning into per-subarray shards, a stream scheduler on the
//!   supervisor's worker pool, and a content-addressed compiled-pipeline
//!   cache;
//! * [`artifact`] — zero-copy mmap-able compiled pattern databases
//!   (`.sdb`): the versioned on-disk format, the corruption-hardened
//!   validator, and the zero-deserialization loader.
//!
//! ```
//! use sunder::Engine;
//!
//! let engine = Engine::default();
//! let program = engine.compile_patterns(&[r"GET /[a-z]+", r"\x00\x00evil"])?;
//! let mut session = engine.load(&program)?;
//! let outcome = session.run(b"GET /index HTTP/1.1")?;
//! assert!(outcome.matched_rules.contains(&0));
//! # Ok::<(), sunder::CoreError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use sunder_arch as arch;
pub use sunder_artifact as artifact;
pub use sunder_automata as automata;
pub use sunder_baselines as baselines;
pub use sunder_core as core;
pub use sunder_llc as llc;
pub use sunder_oracle as oracle;
pub use sunder_resilience as resilience;
pub use sunder_shard as shard;
pub use sunder_sim as sim;
pub use sunder_tech as tech;
pub use sunder_telemetry as telemetry;
pub use sunder_transform as transform;
pub use sunder_workloads as workloads;

pub use sunder_arch::{RunStats, SunderConfig, SunderMachine};
pub use sunder_automata::{AutomataError, InputView, Nfa, StartKind, StateId, Ste, SymbolSet};
pub use sunder_core::{CoreError, Engine, Outcome, Program, Session};
pub use sunder_transform::Rate;
pub use sunder_workloads::{Benchmark, Scale};

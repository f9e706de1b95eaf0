//! Automata transformation toolchain: bitwidth conversion and temporal
//! striding.
//!
//! The paper relies on two published transformations that had to be rebuilt
//! for this reproduction:
//!
//! * **FlexAmata** (ASPLOS '20) — converts an `m`-bit automaton into an
//!   equivalent 4-bit *nibble* automaton, which needs only 2⁴ memory rows
//!   for one-hot symbol encoding instead of 2⁸. [`nibble`] implements the
//!   hardware-aware variant used by Sunder (per-state trie decomposition
//!   with prefix/suffix minimization).
//! * **Vectorized temporal striding** (Impala, HPCA '20) — repeatedly
//!   squares the automaton's input so one cycle consumes a vector of
//!   nibbles. [`stride`] implements doubling with report-offset tracking
//!   and mid-vector start states.
//!
//! [`PipelineConfig::apply`] chains both into the one compile path that
//! prepares an automaton for any of Sunder's three processing rates,
//! [`stats::TransformStats`] measures the state/transition overheads the
//! paper reports in Table 3, and [`map::PositionMap`] folds transformed
//! report positions back into original-symbol coordinates — the contract
//! the `sunder-oracle` conformance layer checks.
//!
//! ```
//! use sunder_automata::regex::compile_rule_set;
//! use sunder_transform::{PipelineConfig, Rate};
//!
//! let byte_nfa = compile_rule_set(&["virus", "worm[0-9]"])?;
//! let (sixteen_bit, _map) = PipelineConfig::from(Rate::Nibble4).apply(&byte_nfa)?;
//! assert_eq!(sixteen_bit.bits_per_cycle(), 16);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod map;
pub mod nibble;
pub mod rate;
pub mod stats;
pub mod stride;

pub use map::{MisalignedReport, PositionMap};
pub use nibble::to_nibble_automaton;
pub use rate::{transform_to_rate_with, PipelineConfig, Rate, TransformOptions};
pub use stats::TransformStats;
pub use stride::{double_stride, stride_times};

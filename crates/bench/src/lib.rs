//! Shared helpers for the bench binaries that regenerate the paper's tables
//! and figures. See `src/bin/` for one binary per artifact and DESIGN.md
//! for the experiment index.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod error;
pub mod harness;
pub mod suite;
pub mod table;

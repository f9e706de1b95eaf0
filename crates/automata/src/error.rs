//! Error types shared across the automata toolchain.

use std::error::Error;
use std::fmt;

/// Errors produced by automata construction, parsing, and transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AutomataError {
    /// Two symbol sets (or automata) with different symbol widths were mixed.
    WidthMismatch {
        /// Width the operation required.
        expected: u8,
        /// Width that was actually provided.
        found: u8,
    },
    /// A state id referred to a state that does not exist.
    InvalidState {
        /// The offending state index.
        index: u32,
        /// Number of states in the automaton.
        len: u32,
    },
    /// A state's charset vector did not match the automaton stride.
    StrideMismatch {
        /// Stride of the automaton.
        expected: usize,
        /// Length of the state's charset vector.
        found: usize,
    },
    /// A report offset pointed past the end of the stride vector.
    InvalidReportOffset {
        /// The offending offset.
        offset: u8,
        /// Stride of the automaton.
        stride: usize,
    },
    /// Failure while parsing the textual automaton format.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
    /// Failure while compiling a regular expression.
    Regex {
        /// Byte offset in the pattern.
        position: usize,
        /// Explanation of the failure.
        message: String,
    },
    /// The symbol width requested is unsupported.
    UnsupportedWidth(u8),
    /// A placement unit (connected component), or a pattern's expansion,
    /// exceeded a capacity budget.
    Capacity {
        /// STEs the component or pattern needs (for a pattern's follow
        /// relation, transitions).
        needed: usize,
        /// What the budget allows, in the same unit.
        budget: usize,
    },
}

impl fmt::Display for AutomataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutomataError::WidthMismatch { expected, found } => {
                write!(
                    f,
                    "symbol width mismatch: expected {expected} bits, found {found}"
                )
            }
            AutomataError::InvalidState { index, len } => {
                write!(
                    f,
                    "state index {index} out of bounds for automaton with {len} states"
                )
            }
            AutomataError::StrideMismatch { expected, found } => {
                write!(
                    f,
                    "charset vector length {found} does not match stride {expected}"
                )
            }
            AutomataError::InvalidReportOffset { offset, stride } => {
                write!(f, "report offset {offset} exceeds stride {stride}")
            }
            AutomataError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            AutomataError::Regex { position, message } => {
                write!(f, "regex error at byte {position}: {message}")
            }
            AutomataError::UnsupportedWidth(bits) => {
                write!(f, "unsupported symbol width: {bits} bits")
            }
            AutomataError::Capacity { needed, budget } => {
                write!(
                    f,
                    "needs {needed} but the budget is {budget} (STEs of a connected component, \
                     which is never split across shards, or of a pattern's expanded repeats; \
                     or a pattern's follow transitions)"
                )
            }
        }
    }
}

impl Error for AutomataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = AutomataError::WidthMismatch {
            expected: 4,
            found: 8,
        };
        assert!(e.to_string().contains("expected 4"));
        let e = AutomataError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AutomataError>();
    }
}

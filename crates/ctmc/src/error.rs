//! Error types for the CTMC engine.

use std::error::Error;
use std::fmt;

/// Errors produced while building or analyzing a continuous-time Markov chain.
#[derive(Debug, Clone, PartialEq)]
pub enum CtmcError {
    /// A transition rate was negative, NaN, or infinite.
    InvalidRate {
        /// Label of the source state.
        from: String,
        /// Label of the destination state.
        to: String,
        /// The offending rate.
        rate: f64,
    },
    /// A state label was used twice when declaring states.
    DuplicateState(String),
    /// The chain has no states.
    EmptyChain,
    /// The chain is not irreducible (or the requested analysis needs a
    /// recurrent class that could not be reached), so the steady-state
    /// distribution is not unique.
    NotIrreducible {
        /// Index of a state detected as unreachable from the rest of the
        /// chain during elimination.
        state: usize,
    },
    /// A linear system was singular to working precision.
    SingularSystem,
    /// An initial distribution was invalid (negative entries, wrong length,
    /// or it does not sum to one).
    InvalidDistribution(String),
    /// A first-passage query is invalid: its start lies in the target set
    /// or outside the chain, or no target is reachable from the start.
    InvalidTargetSet(String),
    /// A dimension mismatch between a vector/matrix and the chain.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        actual: usize,
    },
}

impl fmt::Display for CtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtmcError::InvalidRate { from, to, rate } => {
                write!(f, "invalid rate {rate} on transition {from} -> {to}")
            }
            CtmcError::DuplicateState(label) => {
                write!(f, "state `{label}` declared more than once")
            }
            CtmcError::EmptyChain => write!(f, "chain has no states"),
            CtmcError::NotIrreducible { state } => {
                write!(
                    f,
                    "chain is not irreducible (state index {state} isolated during elimination)"
                )
            }
            CtmcError::SingularSystem => {
                write!(f, "linear system is singular to working precision")
            }
            CtmcError::InvalidDistribution(msg) => {
                write!(f, "invalid probability distribution: {msg}")
            }
            CtmcError::InvalidTargetSet(msg) => {
                write!(f, "invalid target set: {msg}")
            }
            CtmcError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl Error for CtmcError {}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, CtmcError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = CtmcError::InvalidRate {
            from: "OP".into(),
            to: "EXP".into(),
            rate: -1.0,
        };
        let msg = e.to_string();
        assert!(msg.contains("OP -> EXP"));
        assert!(msg.starts_with("invalid rate"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CtmcError>();
    }

    #[test]
    fn dimension_mismatch_reports_both_sizes() {
        let e = CtmcError::DimensionMismatch {
            expected: 4,
            actual: 2,
        };
        assert_eq!(e.to_string(), "dimension mismatch: expected 4, got 2");
    }
}

//! Error types for the CTMC kernel.

use std::error::Error;
use std::fmt;

/// Errors produced while analyzing a continuous-time Markov chain.
#[derive(Debug, Clone, PartialEq)]
pub enum CtmcError {
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
}

impl fmt::Display for CtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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
        let e = CtmcError::NotIrreducible { state: 3 };
        let msg = e.to_string();
        assert!(msg.contains("state index 3"));
        assert!(msg.starts_with("chain is not irreducible"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CtmcError>();
    }
}

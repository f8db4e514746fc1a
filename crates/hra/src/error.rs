//! Error types for the human-reliability crate.

use std::error::Error;
use std::fmt;

/// Errors from HRA model construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum HraError {
    /// A probability was outside `[0, 1]`.
    InvalidProbability(f64),
}

impl fmt::Display for HraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HraError::InvalidProbability(p) => {
                write!(f, "probability {p} outside the interval [0, 1]")
            }
        }
    }
}

impl Error for HraError {}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, HraError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(HraError::InvalidProbability(2.0).to_string().contains("2"));
    }
}

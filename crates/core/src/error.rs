//! Unified error type for the availability models.

use availsim_ctmc::CtmcError;
use availsim_hra::HraError;
use availsim_sim::SimError;
use availsim_storage::StorageError;
use std::error::Error;
use std::fmt;

/// Errors from model construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A model parameter was invalid.
    InvalidParameter(String),
    /// The underlying Markov engine failed.
    Markov(CtmcError),
    /// The underlying simulator failed.
    Sim(SimError),
    /// The storage substrate rejected an operation.
    Storage(StorageError),
    /// The HRA substrate rejected a quantity.
    Hra(HraError),
    /// A cooperative deadline or cancellation tripped before the run
    /// finished. Carries how far the run got, for diagnostics only — the
    /// partial work is discarded, never reported as an estimate, so a
    /// timed-out query has exactly one observable outcome.
    DeadlineExpired {
        /// Iterations fully completed before the cancellation was observed.
        completed: u64,
        /// Iterations the run was asked for.
        requested: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            CoreError::Markov(e) => write!(f, "markov engine: {e}"),
            CoreError::Sim(e) => write!(f, "simulator: {e}"),
            CoreError::Storage(e) => write!(f, "storage model: {e}"),
            CoreError::Hra(e) => write!(f, "hra model: {e}"),
            CoreError::DeadlineExpired {
                completed,
                requested,
            } => write!(
                f,
                "deadline expired: run cancelled after {completed} of {requested} iterations"
            ),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::InvalidParameter(_) | CoreError::DeadlineExpired { .. } => None,
            CoreError::Markov(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            CoreError::Storage(e) => Some(e),
            CoreError::Hra(e) => Some(e),
        }
    }
}

impl From<CtmcError> for CoreError {
    fn from(e: CtmcError) -> Self {
        CoreError::Markov(e)
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<HraError> for CoreError {
    fn from(e: HraError) -> Self {
        CoreError::Hra(e)
    }
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sub_errors_with_source() {
        let e: CoreError = CtmcError::EmptyChain.into();
        assert!(e.to_string().contains("markov"));
        assert!(e.source().is_some());

        let e: CoreError = SimError::InvalidProbability(2.0).into();
        assert!(e.to_string().contains("simulator"));

        let e: CoreError = HraError::InvalidProbability(2.0).into();
        assert!(matches!(e, CoreError::Hra(_)));
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<CoreError>();
    }
}

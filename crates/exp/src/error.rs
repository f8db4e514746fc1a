//! Unified error type for the experiment subsystem.

use crate::spec::Origin;
use availsim_core::CoreError;
use availsim_hra::HraError;
use availsim_storage::StorageError;
use std::error::Error;
use std::fmt;

/// Errors from spec parsing, planning, running, and reporting.
#[derive(Debug)]
pub enum ExpError {
    /// A scenario value broke a rule; `origin` says where the value came
    /// from (spec line, CLI flag, or JSON path).
    Parse {
        /// Where the offending value came from.
        origin: Origin,
        /// What went wrong.
        message: String,
    },
    /// The spec parsed but describes an invalid or empty campaign.
    InvalidSpec(String),
    /// A model failed while executing a cell.
    Model {
        /// Index of the failing cell in the plan.
        cell: u64,
        /// The underlying model error.
        source: CoreError,
    },
    /// An I/O failure while reading a spec or writing a report.
    Io(std::io::Error),
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::Parse { origin, message } => write!(f, "{origin}: {message}"),
            ExpError::InvalidSpec(msg) => write!(f, "invalid campaign: {msg}"),
            ExpError::Model { cell, source } => write!(f, "cell {cell}: {source}"),
            ExpError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl Error for ExpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExpError::Model { source, .. } => Some(source),
            ExpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ExpError {
    fn from(e: std::io::Error) -> Self {
        ExpError::Io(e)
    }
}

impl From<StorageError> for ExpError {
    fn from(e: StorageError) -> Self {
        ExpError::InvalidSpec(e.to_string())
    }
}

impl From<HraError> for ExpError {
    fn from(e: HraError) -> Self {
        ExpError::InvalidSpec(e.to_string())
    }
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, ExpError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line_numbers() {
        let e = ExpError::Parse {
            origin: Origin::Line(7),
            message: "bad key".into(),
        };
        assert!(e.to_string().contains("line 7"));
        let e = ExpError::Parse {
            origin: Origin::Line(0),
            message: "no [campaign] section".into(),
        };
        assert!(!e.to_string().contains("line"));
    }

    #[test]
    fn model_errors_carry_cell_and_source() {
        let e = ExpError::Model {
            cell: 3,
            source: CoreError::InvalidParameter("x".into()),
        };
        assert!(e.to_string().starts_with("cell 3"));
        assert!(e.source().is_some());
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<ExpError>();
    }
}

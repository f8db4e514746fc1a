//! Error types for the storage substrate.

use std::error::Error;
use std::fmt;

/// Errors from constructing disk-subsystem models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A RAID geometry was invalid (e.g. zero data disks).
    InvalidGeometry(String),
    /// A capacity request cannot be satisfied by the geometry.
    CapacityMismatch {
        /// Usable units requested.
        requested: u64,
        /// Usable units provided per array.
        per_array: u64,
    },
    /// A configuration parameter was out of range.
    InvalidConfig(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::InvalidGeometry(msg) => write!(f, "invalid raid geometry: {msg}"),
            StorageError::CapacityMismatch {
                requested,
                per_array,
            } => {
                write!(
                    f,
                    "usable capacity {requested} is not a multiple of per-array capacity {per_array}"
                )
            }
            StorageError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for StorageError {}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::InvalidGeometry("k must be at least 2".into());
        assert!(e.to_string().contains("k must be at least 2"));
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<StorageError>();
    }
}

//! Service rates of the maintenance organization.
//!
//! The paper contrasts two disk-replacement disciplines:
//!
//! * **Conventional** — upon a failure the technician replaces the failed
//!   disk right away and starts the rebuild; a human error during this
//!   service window takes the array down.
//! * **Automatic fail-over (delayed replacement)** — a hot spare absorbs the
//!   rebuild with no human involvement; the physical replacement of the dead
//!   disk is deferred until after the on-line rebuild completes, so human
//!   error can no longer coincide with the exposed window.

use crate::error::{Result, StorageError};

/// Service rates of the maintenance organization, mirroring the paper's
/// parameters (all per hour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceRates {
    /// `μ_DF` — disk-failure recovery (replacement + rebuild) rate.
    pub disk_repair: f64,
    /// `μ_DDF` — double-disk-failure recovery (restore from backup) rate.
    pub backup_restore: f64,
    /// `μ_he` — human-error recovery (undo wrong replacement) rate.
    pub human_error_recovery: f64,
    /// `μ_ch` — physical disk change rate under automatic fail-over.
    pub disk_change: f64,
    /// `λ_crash` — crash rate of a wrongly removed disk while outside the
    /// chassis.
    pub removed_disk_crash: f64,
}

impl ServiceRates {
    /// The paper's experimental values (§V-B): `μ_DF = 0.1`, `μ_DDF = 0.03`,
    /// `μ_he = 1`, `μ_ch = 1` ("μ_s"), `λ_crash = 0.01`.
    pub fn paper_defaults() -> Self {
        ServiceRates {
            disk_repair: 0.1,
            backup_restore: 0.03,
            human_error_recovery: 1.0,
            disk_change: 1.0,
            removed_disk_crash: 0.01,
        }
    }

    /// Validates that every rate is positive and finite.
    ///
    /// # Errors
    /// Returns [`StorageError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        let fields = [
            ("disk_repair", self.disk_repair),
            ("backup_restore", self.backup_restore),
            ("human_error_recovery", self.human_error_recovery),
            ("disk_change", self.disk_change),
            ("removed_disk_crash", self.removed_disk_crash),
        ];
        for (name, v) in fields {
            if !(v.is_finite() && v > 0.0) {
                return Err(StorageError::InvalidConfig(format!(
                    "service rate `{name}` must be positive and finite, got {v}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for ServiceRates {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_v() {
        let r = ServiceRates::paper_defaults();
        assert_eq!(r.disk_repair, 0.1);
        assert_eq!(r.backup_restore, 0.03);
        assert_eq!(r.human_error_recovery, 1.0);
        assert_eq!(r.disk_change, 1.0);
        assert_eq!(r.removed_disk_crash, 0.01);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn validation_names_bad_field() {
        let mut r = ServiceRates::paper_defaults();
        r.backup_restore = 0.0;
        let err = r.validate().unwrap_err();
        assert!(err.to_string().contains("backup_restore"));

        let mut r = ServiceRates::paper_defaults();
        r.disk_change = f64::NAN;
        assert!(r.validate().is_err());
    }
}

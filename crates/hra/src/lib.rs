//! # availsim-hra
//!
//! Human Reliability Assessment (HRA) substrate: the human error
//! probability (hep) that the availability models consume.
//!
//! * [`Hep`] — a validated probability newtype with the paper's literature
//!   and enterprise bands.
//! * [`DependenceLevel`] — THERP dependence between consecutive actions,
//!   which escalates the hep of concurrent or repeated operator actions
//!   ([`escalated`], [`all_attempts_fail`]).
//!
//! # Examples
//!
//! A high-dependence second attempt is far likelier to fail than the
//! first:
//!
//! ```
//! use availsim_hra::{DependenceLevel, Hep};
//!
//! # fn main() -> Result<(), availsim_hra::HraError> {
//! let hep = Hep::new(0.01)?;
//! assert!(hep.is_within_enterprise_band());
//! let second = DependenceLevel::High.conditional_hep(hep);
//! assert!(second.value() > 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dependence;
mod error;
mod hep;

pub use dependence::{all_attempts_fail, escalated, DependenceLevel};
pub use error::{HraError, Result};
pub use hep::Hep;

//! # availsim-hra
//!
//! Human Reliability Assessment (HRA) substrate: the human error
//! probability (hep) that the availability models consume.
//!
//! * [`Hep`] — a validated probability newtype; `hep = 0` is the paper's
//!   baseline that ignores human error.
//! * [`DependenceLevel`] — THERP dependence between consecutive actions,
//!   which escalates the hep of concurrent operator actions
//!   ([`escalated`]).
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

pub use dependence::{escalated, DependenceLevel};
pub use error::{HraError, Result};
pub use hep::Hep;

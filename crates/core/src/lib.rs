//! # availsim-core
//!
//! Availability models for data storage systems under disk failures *and*
//! human errors — a full reproduction of Kishani, Eftekhari & Asadi,
//! "Evaluating Impact of Human Errors on the Availability of Data Storage
//! Systems" (DATE 2017).
//!
//! ## Models
//!
//! * [`markov::Raid5Conventional`] — the paper's Fig. 2 CTMC (conventional
//!   disk replacement; also RAID1 with `n = 2`).
//! * [`markov::Raid5FailOver`] — the paper's Fig. 3 twelve-state CTMC
//!   (automatic fail-over with hot spares).
//! * [`markov::GenericKofN`] — a `(failed, wrongly-removed)` chain
//!   generator that reduces exactly to Fig. 2 at `m = 1` and extends the
//!   paper to RAID6.
//!
//! Every exact answer comes from cancellation-free GTH elimination on the
//! model's chain definition: the steady-state unavailability directly, and
//! the mean time to data loss by the renewal argument.
//! * [`mc::ConventionalMc`] / [`mc::FailOverMc`] — the Monte-Carlo
//!   reference models (per-disk Weibull clocks for the conventional policy).
//!
//! ## Analyses
//!
//! * [`analysis`] — downtime-underestimation factors (the paper's "up to
//!   263X") and the conventional-vs-fail-over comparison (Fig. 7).
//! * [`volume`] — equivalent-usable-capacity RAID comparison (Fig. 6).
//! * [`nines`] — availability ↔ nines ↔ downtime conversions.
//!
//! # Examples
//!
//! The headline effect — ignoring human error underestimates downtime by
//! orders of magnitude:
//!
//! ```
//! use availsim_core::analysis::underestimation;
//! use availsim_core::ModelParams;
//! use availsim_hra::Hep;
//!
//! # fn main() -> Result<(), availsim_core::CoreError> {
//! let params = ModelParams::raid5_3plus1(5e-7, Hep::new(0.01)?)?;
//! let u = underestimation(params)?;
//! assert!(u.factor() > 100.0); // the paper reports "up to 263X"
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod error;
pub mod markov;
pub mod mc;
pub mod nines;
mod params;
pub mod report;
pub mod volume;

pub use error::{CoreError, Result};
pub use params::ModelParams;

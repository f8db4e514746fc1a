//! Statistics for Monte-Carlo output analysis.
//!
//! * [`RunningStats`] — one-pass mean/variance (Welford), mergeable for
//!   parallel reductions.
//! * [`ci`] — Student-t and Wilson confidence intervals.
//! * [`gof`] — Kolmogorov–Smirnov and chi-square goodness-of-fit tests used
//!   to validate the samplers.
//! * [`special`] / [`student_t`] — the underlying special functions
//!   (`ln Γ`, incomplete gamma/beta, normal and t quantiles).

pub mod ci;
pub mod gof;
pub mod special;
pub mod student_t;
pub mod welford;

pub use ci::{t_interval, wilson_interval, ConfidenceInterval};
pub use gof::{chi_square_test, ks_test, ks_test_cdf, ChiSquareResult, KsResult};
pub use welford::RunningStats;

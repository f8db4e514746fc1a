//! # availsim-exp
//!
//! Declarative experiment campaigns for the availsim workspace. The paper's
//! results (Figs. 4–7, the under-estimation table) are each a *campaign* —
//! a sweep over disk failure rates, human-error probabilities, RAID
//! geometries, and repair policies. This crate turns such sweeps into
//! first-class objects with four layers:
//!
//! | layer | module | contents |
//! |-------|--------|----------|
//! | spec | [`spec`] | [`spec::Scenario`], the [`spec::ScenarioBuilder`] every front door feeds, and a std-only line-oriented spec-file parser |
//! | plan | [`plan`] | cartesian grid expansion into [`plan::Cell`]s with per-cell substream seeds |
//! | run | [`run`] | a scoped-thread worker pool, bit-reproducible at any worker count |
//! | report | [`report`] | deterministic CSV/JSON writers + a summary table with per-cell timing |
//!
//! # Quickstart
//!
//! ```
//! use availsim_exp::{plan, report, run, spec::Scenario};
//!
//! # fn main() -> Result<(), availsim_exp::ExpError> {
//! let scenario = Scenario::parse(
//!     "[campaign]\n\
//!      name = demo\n\
//!      seed = 42\n\
//!      [axes]\n\
//!      lambda = [1e-6, 1e-5]\n\
//!      hep = [0, 0.01]\n",
//! )?;
//! let plan = plan::expand(&scenario)?;
//! assert_eq!(plan.len(), 4);
//! let result = run::run(&plan, &run::RunConfig::default())?;
//! let csv = report::to_csv(&result);
//! assert!(csv.lines().count() == 5); // header + four cells
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod plan;
pub mod report;
pub mod run;
pub mod spec;

pub use error::{ExpError, Result};

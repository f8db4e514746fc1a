//! # availsim-sim
//!
//! Discrete-event Monte-Carlo simulation kernel for availability studies:
//!
//! * [`rng`] — deterministic xoshiro256++ PRNG with substream derivation for
//!   parallel, bit-reproducible experiments.
//! * [`distributions`] — the exponential and Weibull lifetime models the
//!   engines sample, with exact CDFs and quantiles.
//! * [`indexed_queue`] — the event queue: a flat 4-ary indexed min-heap
//!   with FIFO tie-breaking, O(log n) in-place cancellation and no
//!   per-operation hashing, pop-order-identical to the lazy-tombstone
//!   reference queue its property tests keep.
//! * [`stats`] — Welford accumulators, Student-t confidence intervals (the
//!   paper's "t-student coefficient" machinery), and goodness-of-fit tests.
//! * [`telemetry`] — deterministic engine counters (mask-gated, block-merged
//!   in worker-count-independent order), phase spans, and Prometheus text
//!   exposition.
//! * [`json`] — the one JSON writer: a string writer, a number writer
//!   (non-finite values as `null`) and a streaming object writer, shared by
//!   the campaign reports, the serve bodies and the CLI's `--metrics`.
//!
//! # Examples
//!
//! Estimating the mean of an exponential with a 99% confidence interval:
//!
//! ```
//! use availsim_sim::distributions::{Exponential, Lifetime};
//! use availsim_sim::rng::SimRng;
//! use availsim_sim::stats::{t_interval, RunningStats};
//!
//! # fn main() -> Result<(), availsim_sim::SimError> {
//! let dist = Exponential::new(0.1)?;
//! let mut rng = SimRng::seed_from(7);
//! let mut stats = RunningStats::new();
//! for _ in 0..10_000 {
//!     stats.push(dist.sample(&mut rng));
//! }
//! let ci = t_interval(&stats, 0.99)?;
//! assert!(ci.contains(10.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributions;
mod error;
pub mod indexed_queue;
pub mod json;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod telemetry;

pub use distributions::Lifetime;
pub use error::{Result, SimError};
pub use indexed_queue::{IndexedEventHandle, IndexedEventQueue, QueueStats};
pub use rng::SimRng;

//! # availsim
//!
//! Umbrella crate for the *availsim* workspace — a full Rust reproduction of
//! Kishani, Eftekhari & Asadi, **"Evaluating Impact of Human Errors on the
//! Availability of Data Storage Systems"** (DATE 2017).
//!
//! This facade re-exports the workspace crates under one roof:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`ctmc`] | `availsim-ctmc` | Dense-matrix CTMC kernel: GTH steady state and mean first passage (MTTDL), uniformization transient |
//! | [`sim`] | `availsim-sim` | Monte-Carlo kernel: PRNG, lifetime distributions, the indexed event queue, statistics, telemetry, the JSON writer |
//! | [`storage`] | `availsim-storage` | RAID geometry, failure models, LSE scrubbing, traces, volumes, fleet arithmetic |
//! | [`hra`] | `availsim-hra` | Human reliability: the validated hep, THERP dependence |
//! | [`core`] | `availsim-core` | The paper's models and analyses (Markov + MC, Figs. 4–7, headline tables) |
//! | [`exp`] | `availsim-exp` | Experiment campaigns: spec files, grid planning, the parallel deterministic batch runner, reports |
//! | [`serve`] | `availsim-serve` | The availability service: HTTP/1.1 daemon, result cache, admission control, deadlines, graceful drain |
//!
//! # Quickstart
//!
//! ```
//! use availsim::core::markov::Raid5Conventional;
//! use availsim::core::ModelParams;
//! use availsim::hra::Hep;
//!
//! # fn main() -> Result<(), availsim::core::CoreError> {
//! let params = ModelParams::raid5_3plus1(1e-6, Hep::new(0.001)?)?;
//! let solved = Raid5Conventional::new(params)?.solve()?;
//! println!("availability: {:.3} nines", solved.nines());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use availsim_core as core;
pub use availsim_ctmc as ctmc;
pub use availsim_exp as exp;
pub use availsim_hra as hra;
pub use availsim_serve as serve;
pub use availsim_sim as sim;
pub use availsim_storage as storage;

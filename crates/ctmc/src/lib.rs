//! # availsim-ctmc
//!
//! A small, self-contained continuous-time Markov chain (CTMC) kernel built
//! for dependability and availability models.
//!
//! Every function reads one dense rate matrix: `a[i][j]` is the rate of the
//! transition `i → j`, and the diagonal is ignored.
//!
//! * **Steady state** — [`steady_state_gth_rates`] runs the
//!   cancellation-free GTH elimination, which keeps componentwise relative
//!   accuracy even when stationary probabilities span many orders of
//!   magnitude, as they do in availability chains.
//! * **Mean first passage** — [`mean_first_passage_gth`] gives the mean
//!   time to reach a target set (MTTF / MTTDL) by the renewal argument on
//!   GTH, with the same accuracy.
//! * **Transient analysis** — [`transient`] implements uniformization
//!   (Jensen's method) with numerically stable Poisson weights. A row of
//!   zeros is an absorbing state, whose mass at time `t` is the
//!   probability of having entered it by `t`.
//!
//! # Examples
//!
//! A repairable two-state system with failure rate λ and repair rate μ has
//! steady-state availability μ/(λ+μ):
//!
//! ```
//! use availsim_ctmc::{steady_state_gth_rates, transient};
//!
//! # fn main() -> Result<(), availsim_ctmc::CtmcError> {
//! // State 0 is up, state 1 is down: λ = 1e-4, μ = 0.1.
//! let rates = vec![vec![0.0, 1e-4], vec![1e-1, 0.0]];
//! let pi = steady_state_gth_rates(&mut rates.clone())?;
//! assert!((pi[0] - 0.1 / (0.1 + 1e-4)).abs() < 1e-15);
//! // Started up, the chain has forgotten its start after 1000 hours.
//! let p = transient(&rates, &[1.0, 0.0], 1e3, 1e-12)?;
//! assert!((p[0] - pi[0]).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod gth;
mod transient;

pub use error::{CtmcError, Result};
pub use gth::{mean_first_passage_gth, steady_state_gth_rates};
pub use transient::transient;

/// Validates that `p` is a probability distribution of length `n`.
pub(crate) fn validate_distribution(p: &[f64], n: usize) -> Result<()> {
    if p.len() != n {
        return Err(CtmcError::InvalidDistribution(format!(
            "length {} does not match state count {n}",
            p.len()
        )));
    }
    let mut total = 0.0;
    for &v in p {
        if !v.is_finite() || v < 0.0 {
            return Err(CtmcError::InvalidDistribution(format!(
                "entry {v} is not a probability"
            )));
        }
        total += v;
    }
    if (total - 1.0).abs() > 1e-9 {
        return Err(CtmcError::InvalidDistribution(format!(
            "entries sum to {total}, expected 1"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_validation() {
        assert!(validate_distribution(&[0.5, 0.5], 2).is_ok());
        assert!(validate_distribution(&[0.5], 2).is_err());
        assert!(validate_distribution(&[1.5, -0.5], 2).is_err());
        assert!(validate_distribution(&[0.2, 0.2], 2).is_err());
        assert!(validate_distribution(&[f64::NAN, 1.0], 2).is_err());
    }
}

//! # availsim-ctmc
//!
//! A small, self-contained continuous-time Markov chain (CTMC) engine built
//! for dependability and availability models.
//!
//! One exact method answers both stationary questions: the
//! cancellation-free GTH elimination.
//!
//! * **Steady state** — [`steady_state_gth_rates`] solves a dense rate
//!   matrix and [`Ctmc::steady_state`] a built chain. GTH keeps
//!   componentwise relative accuracy even when stationary probabilities
//!   span many orders of magnitude, as they do in availability chains.
//! * **Mean first passage** — [`mean_first_passage_gth`] gives the mean
//!   time to reach a target set (MTTF / MTTDL) by the renewal argument on
//!   GTH, with the same accuracy.
//! * **Transient analysis** — [`Ctmc::transient`] implements uniformization
//!   (Jensen's method) with numerically stable Poisson weights.
//!
//! # Examples
//!
//! A repairable two-state system with failure rate λ and repair rate μ has
//! steady-state availability μ/(λ+μ):
//!
//! ```
//! use availsim_ctmc::CtmcBuilder;
//!
//! # fn main() -> Result<(), availsim_ctmc::CtmcError> {
//! let mut b = CtmcBuilder::new();
//! let up = b.state("up")?;
//! let down = b.state("down")?;
//! b.transition(up, down, 1e-4)?; // λ
//! b.transition(down, up, 1e-1)?; // μ
//! let chain = b.build()?;
//! let pi = chain.steady_state()?;
//! assert!((pi[up.index()] - 0.1 / (0.1 + 1e-4)).abs() < 1e-15);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod gth;
mod sparse;
mod state;
mod transient;

pub use builder::CtmcBuilder;
pub use error::{CtmcError, Result};
pub use gth::{mean_first_passage_gth, steady_state_gth, steady_state_gth_rates};
pub use sparse::CsrMatrix;
pub use state::{StateId, StateSpace};

/// A continuous-time Markov chain with labeled states.
///
/// Construct with [`CtmcBuilder`]. All probability vectors returned by the
/// analyses are indexed by [`StateId::index`].
#[derive(Debug, Clone)]
pub struct Ctmc {
    states: StateSpace,
    /// Outgoing adjacency per state: sorted `(dst, rate)` with `rate > 0`.
    adjacency: Vec<Vec<(usize, f64)>>,
    exit_rates: Vec<f64>,
}

impl Ctmc {
    pub(crate) fn from_parts(states: StateSpace, adjacency: Vec<Vec<(usize, f64)>>) -> Self {
        let exit_rates = adjacency
            .iter()
            .map(|row| row.iter().map(|&(_, r)| r).sum())
            .collect();
        Ctmc {
            states,
            adjacency,
            exit_rates,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of distinct transitions with positive rate.
    pub fn num_transitions(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }

    /// The labeled state space.
    pub fn states(&self) -> &StateSpace {
        &self.states
    }

    /// Looks a state up by label.
    pub fn find_state(&self, label: &str) -> Option<StateId> {
        self.states.find(label)
    }

    /// Iterates over all transitions as `(from, to, rate)`.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, StateId, f64)> + '_ {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().map(move |&(j, r)| (StateId(i), StateId(j), r)))
    }

    /// Total outgoing rate of a state.
    ///
    /// # Panics
    /// Panics if `s` does not belong to this chain.
    pub fn exit_rate(&self, s: StateId) -> f64 {
        self.exit_rates[s.0]
    }

    /// Rate of the transition `from -> to` (zero if absent).
    pub fn rate(&self, from: StateId, to: StateId) -> f64 {
        self.adjacency[from.0]
            .iter()
            .find(|&&(c, _)| c == to.0)
            .map_or(0.0, |&(_, r)| r)
    }

    /// The uniformized probability matrix `P = I + Q/Λ` (CSR) and the
    /// uniformization rate `Λ = 1.02 · max_i exit_rate(i)`, whose margin
    /// makes the uniformized DTMC aperiodic.
    pub fn uniformized(&self) -> (CsrMatrix, f64) {
        let max = self.exit_rates.iter().fold(0.0f64, |m, &r| m.max(r));
        let lambda = if max == 0.0 { 1.0 } else { max * 1.02 };
        let n = self.num_states();
        let mut triplets = Vec::with_capacity(self.num_transitions() + n);
        for (i, row) in self.adjacency.iter().enumerate() {
            for &(j, r) in row {
                triplets.push((i, j, r / lambda));
            }
            triplets.push((i, i, 1.0 - self.exit_rates[i] / lambda));
        }
        let p = CsrMatrix::from_triplets(n, n, &triplets)
            .expect("uniformized matrix indices are in range by construction");
        (p, lambda)
    }

    /// Stationary distribution via GTH elimination (the recommended solver).
    ///
    /// # Errors
    /// Returns [`CtmcError::NotIrreducible`] for reducible chains.
    pub fn steady_state(&self) -> Result<Vec<f64>> {
        gth::steady_state_gth(self)
    }

    /// State distribution at time `t` starting from `p0`, via uniformization
    /// with truncation error below `tol`.
    ///
    /// # Errors
    /// Returns [`CtmcError::InvalidDistribution`] if `p0` is not a probability
    /// vector over the chain's states.
    pub fn transient(&self, p0: &[f64], t: f64, tol: f64) -> Result<Vec<f64>> {
        transient::transient(self, p0, t, tol)
    }
}

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

    fn repairable_pair() -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.state("up").unwrap();
        let down = b.state("down").unwrap();
        b.transition(up, down, 0.25).unwrap();
        b.transition(down, up, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        // Each exit rate is its row's diagonal: it cancels the row's
        // off-diagonal rates.
        let chain = repairable_pair();
        let mut rows = vec![0.0; chain.num_states()];
        for (from, _, rate) in chain.transitions() {
            rows[from.index()] += rate;
        }
        for (id, _) in chain.states().iter() {
            assert!((rows[id.index()] - chain.exit_rate(id)).abs() < 1e-15);
        }
    }

    #[test]
    fn rate_lookup() {
        let chain = repairable_pair();
        let up = chain.find_state("up").unwrap();
        let down = chain.find_state("down").unwrap();
        assert_eq!(chain.rate(up, down), 0.25);
        assert_eq!(chain.rate(down, up), 1.0);
        assert_eq!(chain.rate(up, up), 0.0);
        assert_eq!(chain.exit_rate(up), 0.25);
    }

    #[test]
    fn uniformized_rows_are_stochastic() {
        let chain = repairable_pair();
        let (p, lambda) = chain.uniformized();
        assert!(lambda >= 1.0);
        for r in 0..p.rows() {
            let sum: f64 = p.row(r).map(|(_, v)| v).sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn distribution_validation() {
        assert!(validate_distribution(&[0.5, 0.5], 2).is_ok());
        assert!(validate_distribution(&[0.5], 2).is_err());
        assert!(validate_distribution(&[1.5, -0.5], 2).is_err());
        assert!(validate_distribution(&[0.2, 0.2], 2).is_err());
        assert!(validate_distribution(&[f64::NAN, 1.0], 2).is_err());
    }
}

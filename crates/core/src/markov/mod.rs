//! Markov (CTMC) availability models.
//!
//! * [`Raid5Conventional`] — the paper's Fig. 2 four-state chain
//!   (conventional disk replacement; also covers RAID1 with `n = 2`).
//! * [`Raid5FailOver`] — the paper's Fig. 3 twelve-state chain
//!   (automatic fail-over with a hot spare).
//! * [`GenericKofN`] — a `(failed, wrongly-removed)` chain generator for any
//!   `k+m` geometry, which reduces to Fig. 2 at `m = 1` and extends the
//!   paper to RAID6.
//!
//! The two paper chains are declared once each, as a [`ChainDef`]: the
//! exact solver builds its CTMC from the definition, and the Monte-Carlo
//! jump chains compile the same definition into their exit tables.

mod chain;
mod failover;
mod generic;
mod raid5;

pub use chain::{ChainDef, ChainEdge, ChainState, EdgeTag, StateClass};
pub(crate) use failover::fig3_chain;
pub use failover::Raid5FailOver;
pub use generic::GenericKofN;
pub(crate) use raid5::fig2_chain;
pub use raid5::{Raid5Conventional, WrongReplacementTiming};

use crate::error::Result;
use crate::nines;
use availsim_ctmc::{Ctmc, StateId};

/// A solved chain: stationary distribution plus an up/down classification.
#[derive(Debug, Clone)]
pub struct SolvedChain {
    chain: Ctmc,
    pi: Vec<f64>,
    down: Vec<bool>,
}

impl SolvedChain {
    /// Solves the chain's steady state (GTH) and classifies the listed
    /// labels as down states.
    ///
    /// # Errors
    /// Propagates solver errors; unknown labels are ignored deliberately so
    /// model variants can share down-label lists.
    pub fn solve(chain: Ctmc, down_labels: &[&str]) -> Result<Self> {
        let pi = chain.steady_state()?;
        let mut down = vec![false; chain.num_states()];
        for label in down_labels {
            if let Some(id) = chain.find_state(label) {
                down[id.index()] = true;
            }
        }
        Ok(SolvedChain { chain, pi, down })
    }

    /// The underlying chain.
    pub fn chain(&self) -> &Ctmc {
        &self.chain
    }

    /// The stationary distribution.
    pub fn probabilities(&self) -> &[f64] {
        &self.pi
    }

    /// Stationary probability of a labeled state.
    pub fn probability(&self, label: &str) -> Option<f64> {
        self.chain.find_state(label).map(|id| self.pi[id.index()])
    }

    /// Steady-state unavailability, computed as the *sum of down-state
    /// probabilities* — each solved to full relative accuracy by GTH, so the
    /// result is meaningful even at the 1e-12 level where `1 − A` would be
    /// pure round-off.
    pub fn unavailability(&self) -> f64 {
        self.pi
            .iter()
            .zip(&self.down)
            .filter(|(_, &d)| d)
            .map(|(p, _)| p)
            .sum()
    }

    /// Steady-state availability.
    pub fn availability(&self) -> f64 {
        1.0 - self.unavailability()
    }

    /// Availability expressed as a number of nines.
    pub fn nines(&self) -> f64 {
        nines::nines_from_unavailability(self.unavailability())
    }

    /// Expected downtime in minutes per year.
    pub fn downtime_minutes_per_year(&self) -> f64 {
        nines::downtime_minutes_per_year(self.unavailability())
    }

    /// The down states of this model.
    pub fn down_states(&self) -> Vec<StateId> {
        (0..self.chain.num_states())
            .filter(|&i| self.down[i])
            .map(|i| self.chain.states().nth(i).expect("index in range"))
            .collect()
    }

    /// A labeled view of the stationary distribution, sorted by state index.
    pub fn labeled_probabilities(&self) -> Vec<(String, f64)> {
        self.chain
            .states()
            .iter()
            .map(|(id, label)| (label.to_string(), self.pi[id.index()]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use availsim_ctmc::CtmcBuilder;

    fn toy() -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.state("up").unwrap();
        let down = b.state("down").unwrap();
        b.transition(up, down, 0.1).unwrap();
        b.transition(down, up, 0.9).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn solved_chain_basics() {
        let s = SolvedChain::solve(toy(), &["down"]).unwrap();
        assert!((s.unavailability() - 0.1).abs() < 1e-12);
        assert!((s.availability() - 0.9).abs() < 1e-12);
        assert!((s.nines() - 1.0).abs() < 1e-9);
        assert_eq!(s.down_states().len(), 1);
        assert!((s.probability("up").unwrap() - 0.9).abs() < 1e-12);
        assert!(s.probability("nope").is_none());
    }

    #[test]
    fn unknown_down_labels_are_ignored() {
        let s = SolvedChain::solve(toy(), &["down", "DUns1"]).unwrap();
        assert!((s.unavailability() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn labeled_probabilities_sum_to_one() {
        let s = SolvedChain::solve(toy(), &["down"]).unwrap();
        let total: f64 = s.labeled_probabilities().iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}

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
//! Each model declares its chain once, as a [`ChainDef`]: the exact solver
//! reads the definition directly — GTH for the steady state, and the
//! renewal argument on GTH for the mean time to data loss — and the
//! Monte-Carlo jump chains compile the same definition into their exit
//! tables.

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

use crate::nines;
use std::borrow::Cow;

/// A solved chain: the stationary distribution over its definition's
/// classified states.
#[derive(Debug, Clone)]
pub struct SolvedChain {
    pi: Vec<f64>,
    states: Cow<'static, [ChainState]>,
}

impl SolvedChain {
    pub(crate) fn new(pi: Vec<f64>, states: Cow<'static, [ChainState]>) -> Self {
        SolvedChain { pi, states }
    }

    /// The stationary distribution, in the definition's state order.
    pub fn probabilities(&self) -> &[f64] {
        &self.pi
    }

    /// Stationary probability of a labeled state.
    pub fn probability(&self, label: &str) -> Option<f64> {
        let i = self.states.iter().position(|s| s.label == label)?;
        Some(self.pi[i])
    }

    /// Steady-state unavailability, computed as the *sum of down-state
    /// probabilities* — each solved to full relative accuracy by GTH, so the
    /// result is meaningful even at the 1e-12 level where `1 − A` would be
    /// pure round-off.
    pub fn unavailability(&self) -> f64 {
        self.pi
            .iter()
            .zip(self.states.iter())
            .filter(|(_, s)| !s.class.is_up())
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
}

#[cfg(test)]
mod tests {
    use super::chain::edge;
    use super::*;

    fn toy() -> SolvedChain {
        static STATES: [ChainState; 2] = [
            ChainState::new("up", StateClass::Up),
            ChainState::new("down", StateClass::HumanErrorDown),
        ];
        ChainDef::new(
            &STATES[..],
            vec![
                edge(0, 1, 0.1, EdgeTag::HumanError),
                edge(1, 0, 0.9, EdgeTag::Service),
            ],
        )
        .solve()
        .unwrap()
    }

    #[test]
    fn solved_chain_basics() {
        let s = toy();
        assert!((s.unavailability() - 0.1).abs() < 1e-12);
        assert!((s.availability() - 0.9).abs() < 1e-12);
        assert!((s.nines() - 1.0).abs() < 1e-9);
        assert!((s.probability("up").unwrap() - 0.9).abs() < 1e-12);
        assert!(s.probability("nope").is_none());
    }
}

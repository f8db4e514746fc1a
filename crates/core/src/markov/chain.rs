//! Chain definitions: each paper model declared once, as an ordered list of
//! classified states and an ordered list of tagged edges.
//!
//! The exact solver reads a definition directly ([`ChainDef::solve`],
//! [`ChainDef::mttdl_hours`]), and the single-array Monte-Carlo engines
//! (the jump chain and both event-queue engines) compile the same
//! definition into their exit tables, so all of them read one object. The
//! declared order is part of the contract: the solver sums parallel edges
//! in that order, the jump chain picks among a state's exits in that
//! order, and the event-queue engines arm their exit clocks in it, which
//! fixes how they consume the RNG stream.

use super::SolvedChain;
use crate::error::Result;
use availsim_ctmc::{mean_first_passage_gth, steady_state_gth_rates};
use std::borrow::Cow;

/// Whether a state serves I/O, and if not, why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateClass {
    /// The array serves I/O (possibly degraded).
    Up,
    /// Down after a human error; no data is lost (the paper's `DU` class).
    HumanErrorDown,
    /// Down with data lost, restoring from backup (the `DL` class).
    DataLossDown,
}

impl StateClass {
    /// Whether the array serves I/O in this state.
    pub fn is_up(self) -> bool {
        self == StateClass::Up
    }

    /// Whether the state is a data-loss outage.
    pub fn is_data_loss(self) -> bool {
        self == StateClass::DataLossDown
    }
}

/// What drives a transition. Failure biasing inflates every edge whose tag
/// is not [`EdgeTag::Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeTag {
    /// A disk failure (rate proportional to λ).
    Failure,
    /// A slip during a service action (rate proportional to `hep`).
    HumanError,
    /// A crash of a wrongly removed disk.
    Crash,
    /// A service or recovery action completing.
    Service,
    /// A rebuild whose reads hit a latent sector error and lost data.
    RebuildLoss,
}

/// One state of a chain definition. The paper's chains label their
/// states with static names; generated chains own theirs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainState {
    /// The state's label.
    pub label: Cow<'static, str>,
    /// The state's class.
    pub class: StateClass,
}

impl ChainState {
    pub(crate) const fn new(label: &'static str, class: StateClass) -> Self {
        ChainState {
            label: Cow::Borrowed(label),
            class,
        }
    }
}

/// One edge of a chain definition; `from` and `to` index
/// [`ChainDef::states`]. The indices are 16-bit so an edge packs into 16
/// bytes: every exact solve rebuilds its definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainEdge {
    /// Source state.
    pub from: u16,
    /// Target state.
    pub to: u16,
    /// Rate per hour (zero disables the edge).
    pub rate: f64,
    /// What drives the transition.
    pub tag: EdgeTag,
}

pub(crate) fn edge(from: u16, to: u16, rate: f64, tag: EdgeTag) -> ChainEdge {
    ChainEdge {
        from,
        to,
        rate,
        tag,
    }
}

/// A declared chain. The first state is the fresh, fully working start
/// state of every analysis and mission.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainDef {
    states: Cow<'static, [ChainState]>,
    edges: Vec<ChainEdge>,
}

impl ChainDef {
    pub(crate) fn new(
        states: impl Into<Cow<'static, [ChainState]>>,
        edges: Vec<ChainEdge>,
    ) -> Self {
        ChainDef {
            states: states.into(),
            edges,
        }
    }

    /// The states, in declared order.
    pub fn states(&self) -> &[ChainState] {
        &self.states
    }

    /// The edges, in declared order.
    pub fn edges(&self) -> &[ChainEdge] {
        &self.edges
    }

    /// The dense rate matrix: every edge added in declared order.
    fn rates(&self) -> Vec<Vec<f64>> {
        let n = self.states.len();
        let mut a = vec![vec![0.0; n]; n];
        for e in &self.edges {
            a[usize::from(e.from)][usize::from(e.to)] += e.rate;
        }
        a
    }

    /// Solves the stationary distribution (GTH) with every non-up state
    /// down.
    ///
    /// # Errors
    /// Propagates solver errors.
    pub fn solve(&self) -> Result<SolvedChain> {
        let pi = steady_state_gth_rates(&mut self.rates())?;
        Ok(SolvedChain::new(pi, self.states.clone()))
    }

    /// Mean time to data loss (hours): expected first passage from the
    /// start state into any data-loss state, by the renewal argument on
    /// GTH ([`mean_first_passage_gth`]).
    ///
    /// # Errors
    /// Propagates solver errors.
    pub fn mttdl_hours(&self) -> Result<f64> {
        let loss: Vec<bool> = self.states.iter().map(|s| s.class.is_data_loss()).collect();
        Ok(mean_first_passage_gth(&self.rates(), 0, &loss)?)
    }
}

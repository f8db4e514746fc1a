//! Chain definitions: each paper model declared once, as an ordered list of
//! classified states and an ordered list of tagged edges.
//!
//! The exact solver builds its [`Ctmc`] from a definition
//! ([`ChainDef::build`]), and the Monte-Carlo jump chains compile the same
//! definition into their exit tables, so both read one object. The
//! declared order is part of the contract: the builder merges parallel
//! edges in that order, and the samplers pick among a state's exits in that
//! order, which fixes how they consume the RNG stream.

use super::SolvedChain;
use crate::error::Result;
use availsim_ctmc::{Ctmc, CtmcBuilder, StateId};

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

/// One state of a chain definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainState {
    /// The state's label in the built chain.
    pub label: &'static str,
    /// The state's class.
    pub class: StateClass,
}

impl ChainState {
    pub(crate) const fn new(label: &'static str, class: StateClass) -> Self {
        ChainState { label, class }
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
    states: &'static [ChainState],
    edges: Vec<ChainEdge>,
}

impl ChainDef {
    pub(crate) fn new(states: &'static [ChainState], edges: Vec<ChainEdge>) -> Self {
        ChainDef { states, edges }
    }

    /// The states, in declared (and built) order.
    pub fn states(&self) -> &[ChainState] {
        self.states
    }

    /// The edges, in declared order.
    pub fn edges(&self) -> &[ChainEdge] {
        &self.edges
    }

    /// Builds the CTMC. States keep their declared order; the builder
    /// drops zero-rate edges and merges parallel ones in declared order.
    ///
    /// # Errors
    /// Propagates chain-construction errors (none occur for validated
    /// parameters).
    pub fn build(&self) -> Result<Ctmc> {
        let mut b = CtmcBuilder::new();
        let ids = self
            .states
            .iter()
            .map(|s| b.state(s.label))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        for e in &self.edges {
            b.transition(ids[usize::from(e.from)], ids[usize::from(e.to)], e.rate)?;
        }
        Ok(b.build()?)
    }

    /// The ids, in `chain` (built by [`Self::build`]), of the states whose
    /// class satisfies `keep`.
    pub fn state_ids(&self, chain: &Ctmc, keep: impl Fn(StateClass) -> bool) -> Vec<StateId> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| keep(s.class))
            .map(|(i, _)| chain.states().nth(i).expect("built from this definition"))
            .collect()
    }

    /// The distribution concentrated on the start state.
    pub fn start_distribution(&self) -> Vec<f64> {
        let mut p0 = vec![0.0; self.states.len()];
        p0[0] = 1.0;
        p0
    }

    /// Solves the stationary distribution with every non-up state down.
    ///
    /// # Errors
    /// Propagates solver errors.
    pub fn solve(&self) -> Result<SolvedChain> {
        let down: Vec<&str> = self
            .states
            .iter()
            .filter(|s| !s.class.is_up())
            .map(|s| s.label)
            .collect();
        SolvedChain::solve(self.build()?, &down)
    }

    /// Mean time to data loss (hours): expected first passage from the
    /// start state into any data-loss state.
    ///
    /// # Errors
    /// Propagates absorbing-analysis errors.
    pub fn mttdl_hours(&self) -> Result<f64> {
        let chain = self.build()?;
        let loss = self.state_ids(&chain, StateClass::is_data_loss);
        Ok(chain
            .absorption(&self.start_distribution(), &loss)?
            .mean_time)
    }
}

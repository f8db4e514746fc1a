//! Chain definitions: each paper model declared once, as an ordered list of
//! classified states and an ordered list of tagged edges.
//!
//! The exact solver reads a definition directly ([`ChainDef::solve`],
//! [`ChainDef::mttdl_hours`], or both from one rate matrix with
//! [`ChainDef::solve_with_mttdl`]), and the single-array Monte-Carlo engines
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
///
/// The exact answers read one dense rate matrix, built from the edges into
/// a single allocation. [`solve`](Self::solve) and
/// [`mttdl_hours`](Self::mttdl_hours) build one each; the one-pass
/// [`solve_with_mttdl`](Self::solve_with_mttdl), which every exact
/// campaign cell runs, builds one for both and returns the same bits.
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

    /// Runs `f` on the rows of the dense rate matrix, every edge added in
    /// declared order. The rows are slices of one allocation.
    fn with_rates<T>(&self, f: impl FnOnce(&mut [&mut [f64]]) -> T) -> T {
        let n = self.states.len();
        let mut flat = vec![0.0; n * n];
        for e in &self.edges {
            flat[usize::from(e.from) * n + usize::from(e.to)] += e.rate;
        }
        let mut rows: Vec<&mut [f64]> = flat.chunks_exact_mut(n.max(1)).collect();
        f(&mut rows)
    }

    /// Which states are data-loss outages, in declared order.
    fn loss_states(&self) -> Vec<bool> {
        self.states.iter().map(|s| s.class.is_data_loss()).collect()
    }

    /// Solves the stationary distribution (GTH) with every non-up state
    /// down.
    ///
    /// # Errors
    /// Propagates solver errors.
    pub fn solve(&self) -> Result<SolvedChain> {
        let pi = self.with_rates(|a| steady_state_gth_rates(a))?;
        Ok(SolvedChain::new(pi, self.states.clone()))
    }

    /// Mean time to data loss (hours): expected first passage from the
    /// start state into any data-loss state, by the renewal argument on
    /// GTH ([`mean_first_passage_gth`]).
    ///
    /// # Errors
    /// Propagates solver errors.
    pub fn mttdl_hours(&self) -> Result<f64> {
        let loss = self.loss_states();
        Ok(self.with_rates(|a| mean_first_passage_gth(a, 0, &loss))?)
    }

    /// The one-pass solve: [`solve`](Self::solve) and
    /// [`mttdl_hours`](Self::mttdl_hours) from one rate matrix, which the
    /// first-passage reduction reads before GTH consumes it. Both answers
    /// are bit for bit those of the two calls, and so is the error when
    /// either fails (the steady state's first).
    ///
    /// # Errors
    /// Propagates solver errors.
    pub fn solve_with_mttdl(self) -> Result<(SolvedChain, f64)> {
        let loss = self.loss_states();
        let (pi, mttdl) = self.with_rates(|a| {
            let mttdl = mean_first_passage_gth(a, 0, &loss);
            (steady_state_gth_rates(a), mttdl)
        });
        Ok((SolvedChain::new(pi?, self.states), mttdl?))
    }
}

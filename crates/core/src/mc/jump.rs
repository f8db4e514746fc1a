//! The jump-chain sampler every exponential model shares: a
//! [`ChainDef`] compiled once into a flat, `Copy` exit table, and the one
//! mission loop that replays it, naive or failure-biased.
//!
//! Per transition the loop draws one exponential sojourn from the state's
//! total exit rate and, in states with more than one declared exit, one
//! uniform to pick the winner; no event queue, no per-disk clocks. The
//! exits keep their declared order, which fixes the RNG stream.
//!
//! Both event-queue engines run on the same table: they arm one clock per
//! exit from its reciprocal rates and take the winner through [`Tally`].

use crate::markov::{ChainDef, EdgeTag, StateClass};
use availsim_sim::rng::SimRng;
use availsim_sim::telemetry::{Counter, Telemetry};
use availsim_storage::{DowntimeLog, OutageCause};

use super::{IterationOutcome, SimWorkspace};

/// Most states a compiled chain may have (Fig. 3 has twelve).
const MAX_STATES: usize = 12;
/// Most exits a state may have.
pub(crate) const MAX_EXITS: usize = 4;

/// What taking an exit does to the downtime log, fixed by the classes of
/// its two ends: a class change closes the open outage (if the source is
/// down) and opens one of the target's class (if the target is down), so a
/// down-to-down change — a crash of a wrongly removed disk, say —
/// re-attributes the outage at that instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Effect {
    end: bool,
    begin: StateClass,
}

/// One state's exits, in declared order. Rows are 128 bytes apart, so the
/// next-state lookup on each transition's critical path is a shift.
#[derive(Debug, Clone, Copy)]
#[repr(align(128))]
struct Row {
    len: usize,
    total: f64,
    rate: [f64; MAX_EXITS],
    /// Left-to-right prefix sums of `rate`.
    prefix: [f64; MAX_EXITS],
    to: [u8; MAX_EXITS],
    effect: [Effect; MAX_EXITS],
    tag: [EdgeTag; MAX_EXITS],
    /// The telemetry counters each exit feeds.
    counters: [[Option<Counter>; 2]; MAX_EXITS],
}

/// A chain definition compiled for sampling: per state, its class and the
/// exits in declared order with their rates, prefix sums, targets and tags,
/// plus the total exit rate; and the reciprocal rates the event-queue
/// engines arm their clocks from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExitTable {
    rows: [Row; MAX_STATES],
    /// Reciprocal rates (`∞` for a disabled exit).
    inv: [[f64; MAX_EXITS]; MAX_STATES],
    class: [StateClass; MAX_STATES],
}

impl ExitTable {
    /// Compiles `def`. `edge_counter` names the telemetry counter an edge
    /// feeds, if any, from its source and target labels; rebuild-loss
    /// edges also feed [`Counter::RebuildLseHits`].
    ///
    /// # Panics
    /// If the definition exceeds the table's fixed capacity (a bug in a
    /// chain definition, not in its parameters).
    pub(crate) fn compile(
        def: &ChainDef,
        edge_counter: impl Fn(&str, &str) -> Option<Counter>,
    ) -> Self {
        let states = def.states();
        assert!(states.len() <= MAX_STATES, "chain has too many states");
        let no_effect = Effect {
            end: false,
            begin: StateClass::Up,
        };
        let mut t = ExitTable {
            rows: [Row {
                rate: [0.0; MAX_EXITS],
                prefix: [0.0; MAX_EXITS],
                tag: [EdgeTag::Service; MAX_EXITS],
                to: [0; MAX_EXITS],
                counters: [[None; 2]; MAX_EXITS],
                effect: [no_effect; MAX_EXITS],
                len: 0,
                total: 0.0,
            }; MAX_STATES],
            inv: [[f64::INFINITY; MAX_EXITS]; MAX_STATES],
            class: [StateClass::Up; MAX_STATES],
        };
        for (class, state) in t.class.iter_mut().zip(states) {
            *class = state.class;
        }
        for e in def.edges() {
            let (from, to) = (usize::from(e.from), usize::from(e.to));
            let row = &mut t.rows[from];
            let k = row.len;
            assert!(k < MAX_EXITS, "state has too many exits");
            row.rate[k] = e.rate;
            row.total += e.rate;
            row.prefix[k] = row.total;
            row.tag[k] = e.tag;
            row.to[k] = to as u8;
            let (was, now) = (states[from].class, states[to].class);
            if was != now {
                row.effect[k] = Effect {
                    end: !was.is_up(),
                    begin: now,
                };
            }
            row.counters[k] = [
                edge_counter(&states[from].label, &states[to].label),
                (e.tag == EdgeTag::RebuildLoss).then_some(Counter::RebuildLseHits),
            ];
            row.len += 1;
            t.inv[from][k] = e.rate.recip();
        }
        t
    }

    /// Number of declared exits of state `s`.
    pub(crate) fn exits(&self, s: usize) -> usize {
        self.rows[s].len
    }

    /// Rate, target and tag of exit `k` of state `s`.
    #[cfg(test)]
    pub(crate) fn exit(&self, s: usize, k: usize) -> (f64, usize, EdgeTag) {
        let row = &self.rows[s];
        (row.rate[k], usize::from(row.to[k]), row.tag[k])
    }

    /// Reciprocal rate of exit `k` of state `s` (`∞` when disabled).
    pub(crate) fn inv_rate(&self, s: usize, k: usize) -> f64 {
        self.inv[s][k]
    }

    /// Tag of exit `k` of state `s`.
    pub(crate) fn tag(&self, s: usize, k: usize) -> EdgeTag {
        self.rows[s].tag[k]
    }

    /// Class of state `s`.
    pub(crate) fn class(&self, s: usize) -> StateClass {
        self.class[s]
    }

    /// The first exit of state `s` tagged [`EdgeTag::Failure`], if any.
    pub(crate) fn failure_exit(&self, s: usize) -> Option<usize> {
        let row = &self.rows[s];
        row.tag[..row.len]
            .iter()
            .position(|&t| t == EdgeTag::Failure)
    }

    /// One mission from the start state over `[0, horizon]`.
    ///
    /// With `bias`, the mission is importance-sampled: the first sojourn is
    /// forced into the window (its hit probability multiplies the weight),
    /// and every pick goes through [`biased_pick`], whose likelihood-ratio
    /// factor multiplies the weight too. Later sojourns stay nominal: their
    /// paths carry accrued downtime, so the proposal keeps them reachable.
    pub(crate) fn mission(
        &self,
        horizon: f64,
        bias: Option<f64>,
        rng: &mut SimRng,
        ws: &mut SimWorkspace,
    ) -> IterationOutcome {
        let (log, tele) = (&mut ws.log, &mut ws.telemetry);
        // Monomorphized per sampling scheme, and per telemetry state so a
        // mission with telemetry off counts no edges at all.
        match (bias, tele.enabled()) {
            (None, false) => self.replay::<false, false>(horizon, 0.0, rng, log, tele),
            (None, true) => self.replay::<false, true>(horizon, 0.0, rng, log, tele),
            (Some(b), false) => self.replay::<true, false>(horizon, b, rng, log, tele),
            (Some(b), true) => self.replay::<true, true>(horizon, b, rng, log, tele),
        }
    }

    fn replay<const BIASED: bool, const EDGES: bool>(
        &self,
        horizon: f64,
        bias: f64,
        rng: &mut SimRng,
        log: &mut DowntimeLog,
        tele: &mut Telemetry,
    ) -> IterationOutcome {
        log.clear();
        let mut tally = Tally::new();
        let mut weight = 1.0f64;
        let mut row = &self.rows[0];
        let mut t = 0.0;
        let mut forced = BIASED;
        loop {
            let dt = if BIASED && forced {
                forced = false;
                match rng.sample_exp_within(row.total, horizon) {
                    Some((dt, p_hit)) => {
                        weight *= p_hit;
                        dt
                    }
                    None => break,
                }
            } else {
                match rng.sample_exp(row.total) {
                    Some(dt) => dt,
                    None => break, // absorbing state: no enabled exits
                }
            };
            tally.exp_draws += 1;
            t += dt;
            if t > horizon {
                break;
            }
            let k = if row.len > 1 {
                tally.uniform_draws += 1;
                if BIASED {
                    let (k, ratio) = biased_pick(
                        rng,
                        &row.rate[..row.len],
                        &row.tag[..row.len],
                        row.total,
                        bias,
                    );
                    weight *= ratio;
                    k
                } else {
                    row.pick(rng.next_f64() * row.total)
                }
            } else {
                0
            };
            if EDGES {
                for &c in row.counters[k].iter().flatten() {
                    tele.add(c, 1);
                }
            }
            row = &self.rows[tally.step(row, k, t, log)];
        }
        log.finalize(horizon);
        tally.flush(tele);
        tally.outcome(log, weight)
    }
}

impl Row {
    /// Rate-proportional pick for `u` uniform in `[0, total)`: the first
    /// exit whose prefix sum exceeds `u`, skipping disabled exits. When
    /// `fl(u·total)` rounds up to the total, the last enabled exit wins, so
    /// a zero-rate exit never does.
    #[inline(always)]
    fn pick(&self, u: f64) -> usize {
        let n = self.len;
        let mut k = 0;
        for (j, (&rate, &prefix)) in self.rate[..n].iter().zip(&self.prefix[..n]).enumerate() {
            if rate <= 0.0 {
                continue;
            }
            k = j;
            if u < prefix {
                break;
            }
        }
        k
    }
}

/// One mission's tallies, kept in locals and flushed into the registry once
/// per mission.
#[derive(Debug)]
pub(crate) struct Tally {
    du_events: u64,
    dl_events: u64,
    first_loss: f64,
    transitions: u64,
    pub(crate) exp_draws: u64,
    uniform_draws: u64,
}

impl Tally {
    pub(crate) fn new() -> Self {
        Tally {
            du_events: 0,
            dl_events: 0,
            first_loss: f64::INFINITY,
            transitions: 0,
            exp_draws: 0,
            uniform_draws: 0,
        }
    }

    /// Takes exit `k` of `row` at time `t`, logging its [`Effect`], and
    /// returns the target state.
    #[inline(always)]
    fn step(&mut self, row: &Row, k: usize, t: f64, log: &mut DowntimeLog) -> usize {
        self.transitions += 1;
        let fx = row.effect[k];
        if fx.end {
            log.end(t);
        }
        match fx.begin {
            StateClass::Up => {}
            StateClass::HumanErrorDown => {
                self.du_events += 1;
                log.begin(t, OutageCause::HumanError);
            }
            StateClass::DataLossDown => {
                self.dl_events += 1;
                self.first_loss = self.first_loss.min(t);
                log.begin(t, OutageCause::DataLoss);
            }
        }
        usize::from(row.to[k])
    }

    /// [`Self::step`] by state index, for engines that track the state.
    pub(crate) fn step_from(
        &mut self,
        table: &ExitTable,
        s: usize,
        k: usize,
        t: f64,
        log: &mut DowntimeLog,
    ) -> usize {
        self.step(&table.rows[s], k, t, log)
    }

    pub(crate) fn flush(&self, tele: &mut Telemetry) {
        if !tele.enabled() {
            return;
        }
        tele.add(Counter::RngExpDraws, self.exp_draws);
        tele.add(Counter::RngUniformDraws, self.uniform_draws);
        tele.add(Counter::JumpTransitions, self.transitions);
        tele.add(Counter::DataLossEvents, self.dl_events);
    }

    pub(crate) fn outcome(&self, log: &DowntimeLog, weight: f64) -> IterationOutcome {
        IterationOutcome {
            downtime_hours: log.total_downtime(),
            du_downtime_hours: log.downtime_by_cause(OutageCause::HumanError),
            dl_downtime_hours: log.downtime_by_cause(OutageCause::DataLoss),
            du_events: self.du_events,
            dl_events: self.dl_events,
            first_loss_hours: self.first_loss,
            weight,
        }
    }
}

/// Balanced-failure-biased selection of one exit among a state's competing
/// transitions.
///
/// The biased set (every exit not tagged [`EdgeTag::Service`]: failures,
/// human errors, crashes, rebuild losses) receives total proposal
/// probability `bias`, split **equally** among its positive-rate members
/// ("balanced"), while the remaining `1 − bias` is distributed over the
/// service exits proportionally to their nominal rates. Returns the chosen
/// exit's index and the likelihood-ratio factor `p_nominal / p_proposal`
/// for the weight. Only the order within each set matters.
///
/// Draws exactly one uniform. Falls back to plain rate-proportional
/// selection (factor 1) when the biased set is empty, the service set has
/// no positive rate to carry the remaining mass, or `bias <= 0`; a disabled
/// exit never wins.
fn biased_pick(
    rng: &mut SimRng,
    rates: &[f64],
    tags: &[EdgeTag],
    total_rate: f64,
    bias: f64,
) -> (usize, f64) {
    let biased = |k: usize| tags[k] != EdgeTag::Service && rates[k] > 0.0;
    let service = |k: usize| tags[k] == EdgeTag::Service && rates[k] > 0.0;
    let biased_count = (0..rates.len()).filter(|&k| biased(k)).count();
    let service_rate: f64 = (0..rates.len())
        .filter(|&k| service(k))
        .map(|k| rates[k])
        .sum();
    if bias <= 0.0 || biased_count == 0 || service_rate <= 0.0 {
        let u = rng.next_f64() * total_rate;
        return (proportional(rates, u, |k| rates[k] > 0.0), 1.0);
    }
    let u = rng.next_f64();
    if u < bias {
        // Equal split among the biased positive-rate exits; `u / bias` is
        // uniform in [0, 1), so the sub-index reuses the same draw.
        let pick = (((u / bias) * biased_count as f64) as usize).min(biased_count - 1);
        let idx = (0..rates.len())
            .filter(|&k| biased(k))
            .nth(pick)
            .expect("pick < biased_count");
        (idx, rates[idx] * biased_count as f64 / (total_rate * bias))
    } else {
        // p_nom/p_prop = service_rate / ((1 − bias)·total) for every
        // service exit, so the factor needs no per-exit bookkeeping.
        let target = (u - bias) / (1.0 - bias) * service_rate;
        (
            proportional(rates, target, service),
            service_rate / ((1.0 - bias) * total_rate),
        )
    }
}

/// Proportional selection among the exits `member` admits, consuming
/// `target` left to right; the final member wins on round-up.
fn proportional(rates: &[f64], mut target: f64, member: impl Fn(usize) -> bool) -> usize {
    let mut idx = 0;
    for k in (0..rates.len()).filter(|&k| member(k)) {
        idx = k;
        if target < rates[k] {
            break;
        }
        target -= rates[k];
    }
    idx
}

//! Monte-Carlo model of a single-fault-tolerant array under conventional
//! replacement — the simulation behind the paper's Fig. 1, Fig. 4, Fig. 5.
//!
//! Both engines run on the Fig. 2 chain definition the exact solver builds
//! from ([`fig2_chain`]), compiled once into an exit table. With
//! exponential failures [`McEngine::Auto`](super::McEngine) replays it on
//! the shared jump chain, with no event queue and no per-disk clocks.
//!
//! The general engine keeps **per-disk clocks** drawn from any
//! [`FailureModel`] (exponential or the paper's Weibull field fits), so it
//! covers the non-Markovian regime the analytical model cannot. A disk
//! clock takes the state's failure exit; every other exit races as an
//! exponential clock at the definition's rate. Disks are renewed on every
//! return to the start state (regenerative assumption, standard for repair
//! simulations).

use super::jump::{ExitTable, Tally, MAX_EXITS};
use super::{
    ArrayBook, AvailabilityEstimate, IterationOutcome, McConfig, McEngine, McVariance, SimWorkspace,
};
use crate::error::{CoreError, Result};
use crate::markov::{fig2_chain, EdgeTag, StateClass, WrongReplacementTiming};
use crate::params::ModelParams;
use availsim_sim::indexed_queue::{IndexedEventHandle, IndexedEventQueue, QueueStats};
use availsim_sim::rng::SimRng;
use availsim_sim::telemetry::Counter;
use availsim_storage::{DowntimeLog, EventTrace, FailureModel, OutageCause, TraceKind};

/// Event payload, deliberately 8 bytes so a queue entry stays compact:
/// `slot` fits a `u16` and the per-mission `gen`/`epoch` guards never
/// approach `u32::MAX` within one mission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Failure of a disk slot; `gen` guards against stale clocks.
    Fail { slot: u16, gen: u32 },
    /// Exit `exit` of the state armed at `epoch`.
    Exit { exit: u8, epoch: u32 },
}

/// Reusable scratch of the general event-queue engine: the event queue and
/// the per-slot failure-clock generation counters. Cleared (capacity
/// retained) at the start of every mission.
#[derive(Debug, Default)]
pub(crate) struct ConvScratch {
    queue: IndexedEventQueue<Ev>,
    slot_gen: Vec<u32>,
}

/// How a mission actually runs once engine *and* variance scheme are
/// resolved against the failure model.
#[derive(Debug, Clone, Copy)]
enum RunMode {
    /// Plain sampling; `fast` selects the jump chain vs the event queue.
    Naive { fast: bool },
    /// Importance sampling on the jump chain (forcing + failure biasing).
    Biased { bias: f64 },
    /// Fixed-effort multilevel splitting on the event-queue engine.
    Split { effort: u64 },
}

/// Splitting checkpoint: first entry into the degraded state (one failed
/// disk), with the surviving slots' pending absolute failure times — the
/// full restartable state of the event-queue engine at that instant.
#[derive(Debug, Clone)]
struct ExpEntry {
    t: f64,
    failed_slot: usize,
    pending: Vec<(usize, f64)>,
}

/// Splitting checkpoint: first entry into a down state.
#[derive(Debug, Clone, Copy)]
struct DownEntry {
    t: f64,
    state: usize,
}

/// Where an event-queue mission starts (splitting restarts mid-mission).
enum EqStart<'a> {
    /// Mission start: all disks fresh at `t = 0`.
    Fresh,
    /// Restart at a degraded-state entry checkpoint.
    Exp(&'a ExpEntry),
    /// Restart at a down-state entry checkpoint.
    Down(DownEntry),
}

/// Monomorphized trace sink of the event-queue engine: the hot path runs
/// with [`NoTrace`] (every record compiles to nothing), while traced
/// missions pass the real [`EventTrace`] — no per-event `Option` branches
/// either way.
trait Tracer {
    /// Records taking an exit tagged `tag` from a state of class `from` to
    /// one of class `to` at `t`; `disk` is the slot whose clock fired last.
    fn exit(&mut self, t: f64, tag: EdgeTag, from: StateClass, to: StateClass, disk: usize);
}

/// The no-op sink of untraced missions.
struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn exit(&mut self, _t: f64, _tag: EdgeTag, _from: StateClass, _to: StateClass, _disk: usize) {}
}

/// The Fig. 1 story: one record for what drove the exit, and one more for
/// an outage it opens.
impl Tracer for EventTrace {
    fn exit(&mut self, t: f64, tag: EdgeTag, from: StateClass, to: StateClass, disk: usize) {
        let disk = disk as u32;
        self.record(
            t,
            match (tag, from) {
                (EdgeTag::Failure, _) => TraceKind::DiskFailure { disk },
                (EdgeTag::HumanError, _) => TraceKind::WrongReplacement { removed_disk: 0 },
                (EdgeTag::Crash, _) => TraceKind::RemovedDiskCrashed,
                (EdgeTag::RebuildLoss, _) => TraceKind::RebuildLse,
                (EdgeTag::Service, StateClass::Up) => TraceKind::RepairComplete { disk },
                (EdgeTag::Service, StateClass::HumanErrorDown) => TraceKind::WrongReplacementUndone,
                (EdgeTag::Service, StateClass::DataLossDown) => TraceKind::BackupRestoreComplete,
            },
        );
        if from != to {
            match to {
                StateClass::Up => {}
                StateClass::HumanErrorDown => self.record(t, TraceKind::DataUnavailable),
                StateClass::DataLossDown => self.record(t, TraceKind::DataLoss),
            }
        }
    }
}

/// One event-queue mission in flight: the chain state, the clocks armed
/// for its exits, and the per-slot failure clocks.
///
/// Exits that lose their race are **cancelled in place** the moment the
/// winner fires (the indexed queue makes that O(log n) with no
/// tombstones), so the loop never pays a pop for a dead event; the epoch
/// guard stays as a defensive invariant.
struct EqMission<'a, T> {
    table: &'a ExitTable,
    failures: &'a FailureModel,
    horizon: f64,
    stop_at_down: bool,
    rng: &'a mut SimRng,
    queue: &'a mut IndexedEventQueue<Ev>,
    slot_gen: &'a mut [u32],
    log: &'a mut DowntimeLog,
    trace: &'a mut T,
    tally: Tally,
    state: usize,
    epoch: u32,
    /// The slot whose clock fired last: the disk a repair renews.
    failed: usize,
    /// The armed exit clocks of the current state, by exit index.
    armed: [Option<IndexedEventHandle>; MAX_EXITS],
    ttf_draws: u64,
    lse_hits: u64,
}

impl<T: Tracer> EqMission<'_, T> {
    /// Queues `ev` at `t`. An event due after the horizon can never pop,
    /// so it never enters the queue: its delay is still drawn (the RNG
    /// stream is part of the engine's contract), but the queue only holds
    /// events that can fire.
    fn schedule(&mut self, t: f64, ev: Ev) -> Option<IndexedEventHandle> {
        if t <= self.horizon {
            self.queue.schedule_at(t, ev).ok()
        } else {
            self.queue.note_expired();
            None
        }
    }

    /// Starts a fresh lifetime clock for `slot` at `t`.
    fn renew(&mut self, slot: usize, t: f64) {
        self.slot_gen[slot] += 1;
        let gen = self.slot_gen[slot];
        let ttf = self.failures.sample_ttf(self.rng);
        self.ttf_draws += 1;
        self.schedule(
            t + ttf,
            Ev::Fail {
                slot: slot as u16,
                gen,
            },
        );
    }

    /// Arms one clock at `t` for every non-failure exit of the current
    /// state, in declared order; a disabled exit draws nothing.
    fn arm(&mut self, t: f64) {
        let s = self.state;
        for k in 0..self.table.exits(s) {
            if self.table.tag(s, k) == EdgeTag::Failure {
                continue;
            }
            if let Some(dt) = self.rng.sample_exp_inv(self.table.inv_rate(s, k)) {
                self.tally.exp_draws += 1;
                let epoch = self.epoch;
                self.armed[k] = self.schedule(
                    t + dt,
                    Ev::Exit {
                        exit: k as u8,
                        epoch,
                    },
                );
            }
        }
    }

    /// The clock of `slot` fires at `t`: the slot stops ticking, and the
    /// state's failure exit is taken. Down states have none, so the slot
    /// stays quiesced until a return to the start state renews it.
    fn fail(&mut self, slot: usize, t: f64) -> Option<DownEntry> {
        self.slot_gen[slot] += 1;
        let k = self.table.failure_exit(self.state)?;
        self.failed = slot;
        self.take(k, t)
    }

    /// Takes exit `k` of the current state at `t`. Returns the entry into
    /// a down state when the mission stops there.
    fn take(&mut self, k: usize, t: f64) -> Option<DownEntry> {
        for h in self.armed.iter_mut().filter_map(Option::take) {
            self.queue.cancel(h);
        }
        self.epoch += 1;
        let (from, tag) = (self.state, self.table.tag(self.state, k));
        self.state = self.tally.step_from(self.table, from, k, t, self.log);
        let (was, now) = (self.table.class(from), self.table.class(self.state));
        self.trace.exit(t, tag, was, now, self.failed);
        if tag == EdgeTag::RebuildLoss {
            self.lse_hits += 1;
        }
        if self.stop_at_down && !now.is_up() {
            return Some(DownEntry {
                t,
                state: self.state,
            });
        }
        if self.state == 0 {
            // A repair renews the failed disk; leaving an outage renews
            // every disk.
            if was.is_up() {
                self.renew(self.failed, t);
            } else {
                for slot in 0..self.slot_gen.len() {
                    self.renew(slot, t);
                }
            }
        }
        self.arm(t);
        None
    }
}

impl ConvScratch {
    /// Empties the queue and re-zeroes the generation counters for an
    /// `n`-disk mission, retaining all allocated capacity.
    pub(crate) fn reset(&mut self, n: usize) {
        self.queue.clear();
        self.slot_gen.clear();
        self.slot_gen.resize(n, 0);
    }

    /// Cumulative traffic counters of the mission event queue.
    pub(crate) fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }
}

/// The per-edge telemetry counters of the Fig. 2 jump chain.
fn fig2_edge_counter(from: &str, to: &str) -> Option<Counter> {
    Some(match (from, to) {
        ("OP", "EXP") => Counter::JumpOpToExp,
        ("EXP", "OP") => Counter::JumpExpToOp,
        ("EXP", "DU") => Counter::JumpExpToDu,
        ("EXP", "DL") => Counter::JumpExpToDl,
        ("DU", "OP") => Counter::JumpDuToOp,
        ("DU", "DL") => Counter::JumpDuToDl,
        ("DL", "OP") => Counter::JumpDlToOp,
        _ => return None,
    })
}

/// Compiles the Fig. 2 chain both engines run on, at the exponential
/// failure model's rate. Under other lifetimes only the event-queue engine
/// runs, and its disk clocks stand in for the failure-tagged rates.
fn exit_table(
    params: &ModelParams,
    failures: &FailureModel,
    timing: WrongReplacementTiming,
) -> ExitTable {
    let mut p = *params;
    if let FailureModel::Exponential(d) = failures {
        p.disk_failure_rate = d.rate();
    }
    ExitTable::compile(&fig2_chain(&p, timing), fig2_edge_counter)
}

/// The conventional-replacement Monte-Carlo model.
#[derive(Debug)]
pub struct ConventionalMc {
    params: ModelParams,
    failures: FailureModel,
    engine: McEngine,
    table: ExitTable,
}

impl ConventionalMc {
    /// Largest supported array: the event-queue engine stores disk slots
    /// as `u16` in its 8-byte event payloads.
    pub const MAX_DISKS: u32 = 1 << 16;

    /// Creates the model with exponential failures at the params' rate.
    ///
    /// # Errors
    /// Propagates parameter validation errors; the geometry may have at
    /// most [`Self::MAX_DISKS`] disks.
    pub fn new(params: ModelParams) -> Result<Self> {
        let failures = FailureModel::exponential(params.disk_failure_rate)?;
        ConventionalMc::with_failure_model(params, failures)
    }

    /// Creates the model with an explicit failure distribution (e.g. a
    /// Weibull field fit); the params' `disk_failure_rate` is ignored for
    /// sampling.
    ///
    /// # Errors
    /// Propagates parameter validation errors; the geometry may have at
    /// most [`Self::MAX_DISKS`] disks.
    pub fn with_failure_model(params: ModelParams, failures: FailureModel) -> Result<Self> {
        params.validate()?;
        if params.geometry.total_disks() > Self::MAX_DISKS {
            return Err(CoreError::InvalidParameter(format!(
                "the Monte-Carlo engines support at most {} disks per array, got {}",
                Self::MAX_DISKS,
                params.geometry.total_disks()
            )));
        }
        Ok(ConventionalMc {
            table: exit_table(&params, &failures, WrongReplacementTiming::default()),
            params,
            failures,
            engine: McEngine::Auto,
        })
    }

    /// Selects the wrong-replacement timing reading (must match the Markov
    /// model being validated against).
    pub fn with_timing(mut self, timing: WrongReplacementTiming) -> Self {
        self.table = exit_table(&self.params, &self.failures, timing);
        self
    }

    /// Selects the per-mission engine (see [`McEngine`] for the `Auto`
    /// fast-path selection rule).
    pub fn with_engine(mut self, engine: McEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Whether the jump-chain fast path is applicable: it replays the
    /// Fig. 2 CTMC, which is only distribution-equivalent to the per-disk
    /// simulation when disk lifetimes are memoryless.
    fn jump_chain_applicable(&self) -> bool {
        matches!(self.failures, FailureModel::Exponential(_))
    }

    /// Resolves the configured engine to "use the fast path?".
    fn resolve_fast_path(&self) -> bool {
        self.engine == McEngine::Auto && self.jump_chain_applicable()
    }

    /// Resolves the configured engine and variance scheme to a concrete
    /// per-mission run mode.
    ///
    /// * `FailureBiasing` needs the jump chain (a tractable path density),
    ///   so it rejects Weibull models and a forced [`McEngine::EventQueue`];
    ///   `bias = 0` degenerates exactly to the naive run.
    /// * `Splitting` is defined on the general event-queue engine (it is
    ///   the rare-event scheme for models with *no* tractable density); a
    ///   single level degenerates exactly to the naive event-queue run.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameter`] for the incompatible combinations
    /// above (and invalid scheme parameters via [`McVariance::validate`]).
    fn resolve_run_mode(&self, variance: McVariance) -> Result<RunMode> {
        variance.validate()?;
        match variance {
            McVariance::Naive => Ok(RunMode::Naive {
                fast: self.resolve_fast_path(),
            }),
            McVariance::FailureBiasing { bias } => {
                if matches!(self.engine, McEngine::EventQueue) {
                    return Err(CoreError::InvalidParameter(
                        "failure biasing runs on the jump-chain fast path; \
                         do not force McEngine::EventQueue with it"
                            .into(),
                    ));
                }
                if !self.jump_chain_applicable() {
                    return Err(CoreError::InvalidParameter(
                        "failure biasing requires exponential failures (the jump \
                         chain carries the likelihood ratio); use \
                         McVariance::Splitting for Weibull models"
                            .into(),
                    ));
                }
                if bias <= 0.0 {
                    // Exactly the naive estimator, by construction.
                    Ok(RunMode::Naive { fast: true })
                } else {
                    Ok(RunMode::Biased { bias })
                }
            }
            McVariance::Splitting { levels, effort } => {
                if levels <= 1 {
                    // One level = no intermediate threshold: a plain
                    // event-queue run, bit-for-bit.
                    Ok(RunMode::Naive { fast: false })
                } else {
                    // The conventional model's degraded-state depth is 2
                    // (OP → one-failed → down); deeper level ladders clamp.
                    Ok(RunMode::Split { effort })
                }
            }
        }
    }

    /// Runs the full Monte-Carlo estimation.
    ///
    /// Each worker thread allocates one [`SimWorkspace`] and reuses it for
    /// every mission it claims, so the mission loop is allocation-free in
    /// steady state on both engines (splitting replications allocate their
    /// checkpoint lists; they are not the nanosecond path).
    ///
    /// # Errors
    /// Propagates configuration errors and rejects engine/variance
    /// combinations that cannot work (see [`McVariance`]).
    pub fn run(&self, config: &McConfig) -> Result<AvailabilityEstimate> {
        self.run_with_cancel(config, None)
    }

    /// [`run`](Self::run) plus an optional cooperative
    /// [`CancelToken`](availsim_sim::parallel::CancelToken): a tripped
    /// deadline or explicit cancel stops the block scheduler and returns
    /// [`CoreError::DeadlineExpired`] instead of an estimate. Uncancelled
    /// runs are bit-identical to [`run`](Self::run).
    ///
    /// # Errors
    /// As [`run`](Self::run), plus `DeadlineExpired` on cancellation.
    pub fn run_with_cancel(
        &self,
        config: &McConfig,
        cancel: Option<&availsim_sim::parallel::CancelToken>,
    ) -> Result<AvailabilityEstimate> {
        let mode = self.resolve_run_mode(config.variance)?;
        super::run_blocks(
            config,
            f64::from(self.params.geometry.usable_capacity()),
            cancel,
            ArrayBook::new(config.horizon_hours),
            |ws, i| self.mission(config, mode, ws, i),
        )
    }

    /// Runs batches of missions, growing the sample until the availability
    /// confidence interval's half-width drops below `target_half_width`
    /// (or `max_iterations` missions have been spent). `config.iterations`
    /// seeds the pilot batch size (clamped to a non-degenerate minimum).
    ///
    /// # Errors
    /// Propagates configuration errors; the target must be positive.
    pub fn run_to_precision(
        &self,
        config: &McConfig,
        target_half_width: f64,
        max_iterations: u64,
    ) -> Result<AvailabilityEstimate> {
        let mode = self.resolve_run_mode(config.variance)?;
        super::run_to_precision(
            config,
            target_half_width,
            max_iterations,
            f64::from(self.params.geometry.usable_capacity()),
            |ws, i| self.mission(config, mode, ws, i),
        )
    }

    /// Mission `i` of a run in `mode`, drawn from seed substream `i`.
    fn mission(
        &self,
        config: &McConfig,
        mode: RunMode,
        ws: &mut SimWorkspace,
        i: u64,
    ) -> IterationOutcome {
        let horizon = config.horizon_hours;
        let rng = &mut SimRng::substream(config.seed, i);
        match mode {
            RunMode::Naive { fast: true } => self.table.mission(horizon, None, rng, ws),
            RunMode::Naive { fast: false } => self.simulate_event_queue(horizon, rng, ws, None),
            RunMode::Biased { bias } => self.table.mission(horizon, Some(bias), rng, ws),
            RunMode::Split { effort } => self.simulate_split_replication(horizon, effort, rng, ws),
        }
    }

    /// Simulates a single mission, optionally recording a Fig. 1-style
    /// event trace (used by the `mc_trace` example).
    ///
    /// Allocates a fresh scratch workspace per call; hot loops should use
    /// [`Self::simulate_once_with`] instead. Engine selection follows
    /// [`Self::with_engine`], except that a requested trace always runs the
    /// general engine — the fast path replays aggregate state transitions
    /// and has no per-disk events to record.
    pub fn simulate_once(
        &self,
        horizon: f64,
        rng: &mut SimRng,
        trace: Option<&mut EventTrace>,
    ) -> IterationOutcome {
        let mut ws = SimWorkspace::new();
        if trace.is_none() && self.resolve_fast_path() {
            self.table.mission(horizon, None, rng, &mut ws)
        } else {
            self.simulate_event_queue(horizon, rng, &mut ws, trace)
        }
    }

    /// Simulates a single mission on a reusable [`SimWorkspace`] —
    /// allocation-free once the workspace buffers have grown.
    ///
    /// The mission fully resets the workspace state it reads, so the same
    /// workspace can be reused across missions (and models) without
    /// leaking state between iterations. Engine selection follows
    /// [`Self::with_engine`].
    pub fn simulate_once_with(
        &self,
        horizon: f64,
        rng: &mut SimRng,
        ws: &mut SimWorkspace,
    ) -> IterationOutcome {
        if self.resolve_fast_path() {
            self.table.mission(horizon, None, rng, ws)
        } else {
            self.simulate_event_queue(horizon, rng, ws, None)
        }
    }

    /// Simulates one importance-sampled mission on a reusable workspace:
    /// the jump chain with failure forcing and balanced failure biasing at
    /// the given `bias` (see [`McVariance::FailureBiasing`]). The returned
    /// outcome's `weight` carries the path's likelihood ratio; averaging
    /// `weight × downtime` over missions is unbiased for the nominal
    /// expected downtime.
    ///
    /// `bias <= 0` (or a non-exponential failure model, where the fast path
    /// does not apply) falls back to the naive engine selection of
    /// [`Self::simulate_once_with`], with weight 1 — mirroring how the
    /// batch entry points degenerate.
    pub fn simulate_once_biased_with(
        &self,
        horizon: f64,
        bias: f64,
        rng: &mut SimRng,
        ws: &mut SimWorkspace,
    ) -> IterationOutcome {
        if bias > 0.0 && self.jump_chain_applicable() {
            self.table.mission(horizon, Some(bias), rng, ws)
        } else {
            self.simulate_once_with(horizon, rng, ws)
        }
    }

    /// The general discrete-event engine with per-disk failure clocks —
    /// the only engine that supports non-exponential lifetimes and event
    /// traces. Runs on the reusable workspace scratch; every buffer is
    /// cleared (capacity retained) before use.
    fn simulate_event_queue(
        &self,
        horizon: f64,
        rng: &mut SimRng,
        ws: &mut SimWorkspace,
        trace: Option<&mut EventTrace>,
    ) -> IterationOutcome {
        match trace {
            Some(tr) => {
                self.run_event_queue(horizon, rng, ws, tr, EqStart::Fresh, false)
                    .0
            }
            None => {
                self.run_event_queue(horizon, rng, ws, &mut NoTrace, EqStart::Fresh, false)
                    .0
            }
        }
    }

    /// The event-queue engine core, restartable from a splitting checkpoint
    /// and stoppable at the first entry into a down state.
    ///
    /// A splitting restart reconstructs the full engine state at its
    /// checkpoint (pending failure clocks via absolute-time scheduling,
    /// fresh exit draws at the entry instant), so a continuation is
    /// distribution-identical to a mission that reached that state on its
    /// own.
    ///
    /// `FleetMc` transcribes the same Fig. 2 semantics by hand, with
    /// array-indexed state; the fleet oracle suite holds it to the exact
    /// chain and to this engine.
    fn run_event_queue<T: Tracer>(
        &self,
        horizon: f64,
        rng: &mut SimRng,
        ws: &mut SimWorkspace,
        trace: &mut T,
        start: EqStart<'_>,
        stop_at_down: bool,
    ) -> (IterationOutcome, Option<DownEntry>) {
        ws.conventional.reset(self.params.disks() as usize);
        ws.log.clear();
        let ConvScratch { queue, slot_gen } = &mut ws.conventional;
        let mut m = EqMission {
            table: &self.table,
            failures: &self.failures,
            horizon,
            stop_at_down,
            rng,
            queue,
            slot_gen,
            log: &mut ws.log,
            trace,
            tally: Tally::new(),
            state: 0,
            epoch: 0,
            failed: 0,
            armed: [None; MAX_EXITS],
            ttf_draws: 0,
            lse_hits: 0,
        };
        let mut down = match start {
            EqStart::Fresh => {
                for slot in 0..m.slot_gen.len() {
                    m.renew(slot, 0.0);
                }
                None
            }
            EqStart::Exp(entry) => {
                for &(slot, t) in &entry.pending {
                    m.schedule(
                        t,
                        Ev::Fail {
                            slot: slot as u16,
                            gen: 0,
                        },
                    );
                }
                // The checkpoint is the failed slot's clock firing.
                m.fail(entry.failed_slot, entry.t)
            }
            EqStart::Down(entry) => {
                m.state = entry.state;
                let cause = if m.table.class(entry.state).is_data_loss() {
                    OutageCause::DataLoss
                } else {
                    OutageCause::HumanError
                };
                m.log.begin(entry.t, cause);
                m.arm(entry.t);
                None
            }
        };
        while down.is_none() {
            let Some((t, ev)) = m.queue.pop_due(horizon) else {
                break;
            };
            down = match ev {
                Ev::Fail { slot, gen } if gen == m.slot_gen[usize::from(slot)] => {
                    m.fail(usize::from(slot), t)
                }
                Ev::Exit { exit, epoch } if epoch == m.epoch => {
                    let k = usize::from(exit);
                    m.armed[k] = None;
                    m.take(k, t)
                }
                _ => None, // a stale clock (defensive for exits)
            };
        }

        m.log.finalize(horizon);
        let out = m.tally.outcome(m.log, 1.0);
        let tele = &mut ws.telemetry;
        if tele.enabled() {
            tele.add(Counter::RngExpDraws, m.tally.exp_draws);
            tele.add(Counter::RngLifetimeDraws, m.ttf_draws);
            tele.add(Counter::RebuildLseHits, m.lse_hits);
            tele.add(Counter::DataLossEvents, out.dl_events);
        }
        (out, down)
    }

    /// Stage-1 splitting trial: sample every slot's lifetime and take the
    /// earliest — the mission's first entry into the degraded state, with
    /// the survivors' pending clocks, or `None` if no disk fails within the
    /// horizon. (Before the first failure nothing else can happen, so no
    /// event queue is needed.)
    fn sample_first_failure(&self, horizon: f64, rng: &mut SimRng) -> Option<ExpEntry> {
        let n = self.params.disks() as usize;
        let mut times = Vec::with_capacity(n);
        let (mut first_slot, mut first_t) = (0usize, f64::INFINITY);
        for slot in 0..n {
            let t = self.failures.sample_ttf(rng);
            times.push(t);
            if t < first_t {
                first_t = t;
                first_slot = slot;
            }
        }
        if first_t > horizon {
            return None;
        }
        let pending = times
            .into_iter()
            .enumerate()
            .filter(|&(slot, _)| slot != first_slot)
            .collect();
        Some(ExpEntry {
            t: first_t,
            failed_slot: first_slot,
            pending,
        })
    }

    /// One fixed-effort multilevel-splitting replication on the event-queue
    /// engine, splitting on degraded-state depth (OP → one-failed → down).
    ///
    /// Stage 1 runs `effort` trials to the first disk failure; stage 2 runs
    /// `effort` continuations — each from a uniformly drawn stage-1 entry
    /// state — to the first down-state entry; stage 3 runs `effort`
    /// continuations from uniformly drawn down entries to the horizon,
    /// measuring the full remaining downtime (including any later outages).
    /// The replication's estimate is `p̂₁ · p̂₂ · mean(downtime)`, which is
    /// unbiased for the expected mission downtime: every mission's downtime
    /// occurs after its first down entry, each stage's empirical mean is
    /// conditionally unbiased given the previous stage's entry set, and the
    /// tower property telescopes the product.
    ///
    /// The event counts are raw tallies over all trials (diagnostics, not
    /// estimates); the downtime fields are the weighted estimates with
    /// `weight = 1` (the weighting already happened internally).
    fn simulate_split_replication(
        &self,
        horizon: f64,
        effort: u64,
        rng: &mut SimRng,
        ws: &mut SimWorkspace,
    ) -> IterationOutcome {
        let mut entries: Vec<ExpEntry> = Vec::new();
        for _ in 0..effort {
            if let Some(e) = self.sample_first_failure(horizon, rng) {
                entries.push(e);
            }
        }
        let p1 = entries.len() as f64 / effort as f64;
        if ws.telemetry.enabled() {
            // Every stage-1 trial samples all n disk lifetimes.
            let n = u64::from(self.params.disks());
            ws.telemetry.add(Counter::RngLifetimeDraws, effort * n);
            ws.telemetry
                .add(Counter::SplitStage1Survivors, entries.len() as u64);
        }
        if entries.is_empty() {
            return IterationOutcome::default();
        }

        let (mut du_events, mut dl_events) = (0u64, 0u64);
        let mut downs: Vec<DownEntry> = Vec::new();
        for _ in 0..effort {
            let e = &entries[rng.next_bounded(entries.len() as u64) as usize];
            let (out, down) =
                self.run_event_queue(horizon, rng, ws, &mut NoTrace, EqStart::Exp(e), true);
            du_events += out.du_events;
            dl_events += out.dl_events;
            if let Some(d) = down {
                downs.push(d);
            }
        }
        let p2 = downs.len() as f64 / effort as f64;
        if ws.telemetry.enabled() {
            // One uniform per stage-2 continuation picks the entry state.
            ws.telemetry.add(Counter::RngUniformDraws, effort);
            ws.telemetry
                .add(Counter::SplitStage2Survivors, downs.len() as u64);
        }
        if downs.is_empty() {
            return IterationOutcome {
                du_events,
                dl_events,
                ..IterationOutcome::default()
            };
        }

        let (mut sum_dt, mut sum_du, mut sum_dl) = (0.0, 0.0, 0.0);
        for _ in 0..effort {
            let d = downs[rng.next_bounded(downs.len() as u64) as usize];
            let (out, _) =
                self.run_event_queue(horizon, rng, ws, &mut NoTrace, EqStart::Down(d), false);
            du_events += out.du_events;
            dl_events += out.dl_events;
            sum_dt += out.downtime_hours;
            sum_du += out.du_downtime_hours;
            sum_dl += out.dl_downtime_hours;
        }
        let scale = p1 * p2 / effort as f64;
        if ws.telemetry.enabled() {
            // One uniform per stage-3 continuation picks the down entry.
            ws.telemetry.add(Counter::RngUniformDraws, effort);
        }
        IterationOutcome {
            downtime_hours: scale * sum_dt,
            du_downtime_hours: scale * sum_du,
            dl_downtime_hours: scale * sum_dl,
            du_events,
            dl_events,
            // A splitting replication estimates downtime from conditioned
            // partial trials; it has no unweighted per-mission loss
            // indicator, so it reports "no loss observed" by contract
            // (see `IterationOutcome::first_loss_hours`).
            first_loss_hours: f64::INFINITY,
            weight: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use availsim_hra::Hep;

    fn params(lambda: f64, hep: f64) -> ModelParams {
        ModelParams::raid5_3plus1(lambda, Hep::new(hep).unwrap()).unwrap()
    }

    fn quick_config(iterations: u64) -> McConfig {
        McConfig {
            iterations,
            horizon_hours: 10_000.0,
            seed: 7,
            confidence: 0.99,
            threads: 2,
            ..McConfig::default()
        }
    }

    #[test]
    fn arrays_wider_than_the_slot_id_space_are_rejected() {
        // Regression: disk slots travel as u16 in the event payload; a
        // wider geometry must be refused instead of silently aliasing
        // slot ids (slot 0 vs slot 65536).
        let geom = availsim_storage::RaidGeometry::raid5(70_000).unwrap();
        let p = ModelParams::paper_defaults(geom, 1e-6, Hep::new(0.01).unwrap()).unwrap();
        let err = ConventionalMc::new(p).unwrap_err();
        assert!(err.to_string().contains("at most"), "{err}");
        // The widest supported geometry still constructs.
        let geom = availsim_storage::RaidGeometry::raid5(ConventionalMc::MAX_DISKS - 1).unwrap();
        let p = ModelParams::paper_defaults(geom, 1e-6, Hep::new(0.01).unwrap()).unwrap();
        assert!(ConventionalMc::new(p).is_ok());
    }

    #[test]
    fn no_failures_means_full_availability() {
        // Absurdly small λ: no events within the horizon — on both engines.
        for engine in [McEngine::Auto, McEngine::EventQueue] {
            let mc = ConventionalMc::new(params(1e-15, 0.01))
                .unwrap()
                .with_engine(engine);
            let est = mc.run(&quick_config(10)).unwrap();
            assert_eq!(est.overall_availability, 1.0);
            assert_eq!(est.du_events + est.dl_events, 0);
        }
    }

    #[test]
    fn hep_zero_produces_no_du_events() {
        for engine in [McEngine::Auto, McEngine::EventQueue] {
            let mc = ConventionalMc::new(params(1e-3, 0.0))
                .unwrap()
                .with_engine(engine);
            let est = mc.run(&quick_config(200)).unwrap();
            assert_eq!(est.du_events, 0);
            assert!(est.dl_events > 0, "with λ=1e-3 double failures must occur");
            assert!(est.overall_availability < 1.0);
        }
    }

    #[test]
    fn zero_crash_rate_is_supported_by_both_engines() {
        // removed_crash_rate is validated as *non-negative*: with it at 0
        // the DU → DL edge is disabled and must never win the jump-chain
        // race (zero-rate exits are fenced off explicitly).
        let mut p = params(1e-3, 0.05);
        p.removed_crash_rate = 0.0;
        for engine in [McEngine::Auto, McEngine::EventQueue] {
            let mc = ConventionalMc::new(p).unwrap().with_engine(engine);
            let est = mc.run(&quick_config(300)).unwrap();
            assert!(est.du_events > 0, "{engine:?}");
        }
    }

    #[test]
    fn human_errors_add_du_outages() {
        let mc = ConventionalMc::new(params(1e-3, 0.05)).unwrap();
        let est = mc.run(&quick_config(200)).unwrap();
        assert!(est.du_events > 0);
        assert!(est.du_downtime_share > 0.0);
    }

    #[test]
    fn availability_decreases_with_hep() {
        let lo = ConventionalMc::new(params(5e-4, 0.0)).unwrap();
        let hi = ConventionalMc::new(params(5e-4, 0.05)).unwrap();
        let cfg = quick_config(400);
        let a_lo = lo.run(&cfg).unwrap().overall_availability;
        let a_hi = hi.run(&cfg).unwrap().overall_availability;
        assert!(a_hi < a_lo, "{a_hi} !< {a_lo}");
    }

    #[test]
    fn matches_markov_at_high_rates() {
        // λ large enough that 600 × 10kh missions resolve the unavailability
        // to a few percent — the fast path and the general engine must both
        // contain the Fig. 2 answer in their confidence intervals.
        use crate::markov::Raid5Conventional;
        let p = params(1e-3, 0.01);
        let markov = Raid5Conventional::new(p).unwrap().solve().unwrap();
        for engine in [McEngine::Auto, McEngine::EventQueue] {
            let mc = ConventionalMc::new(p).unwrap().with_engine(engine);
            let est = mc.run(&quick_config(600)).unwrap();
            assert!(
                est.is_consistent_with(markov.availability()),
                "{engine:?}: markov {} outside CI {}",
                markov.availability(),
                est.availability
            );
        }
    }

    #[test]
    fn auto_resolves_to_jump_chain_for_exponential_models() {
        let mc = ConventionalMc::new(params(1e-3, 0.01)).unwrap();
        assert!(mc.resolve_fast_path());
        let cfg = quick_config(100);
        let auto = mc.run(&cfg).unwrap();
        // Zero-bias failure biasing runs the naive jump chain by definition.
        let jump = mc
            .run(&McConfig {
                variance: McVariance::FailureBiasing { bias: 0.0 },
                ..cfg
            })
            .unwrap();
        assert_eq!(
            auto.overall_availability.to_bits(),
            jump.overall_availability.to_bits()
        );
    }

    #[test]
    fn jump_chain_rejects_weibull_models() {
        // Auto on a Weibull model resolves to the general engine, and
        // failure biasing, which needs the jump chain, is refused.
        let p = params(1e-4, 0.01);
        let weibull = FailureModel::weibull(1e-3, 1.48).unwrap();
        let mc = ConventionalMc::with_failure_model(p, weibull).unwrap();
        assert!(!mc.resolve_fast_path());
        let biased = McConfig {
            variance: McVariance::failure_biasing(),
            ..quick_config(10)
        };
        assert!(mc.run(&biased).is_err());
    }

    #[test]
    fn weibull_failures_are_supported() {
        let p = params(1e-4, 0.01);
        let weibull = FailureModel::weibull(1e-3, 1.48).unwrap();
        let mc = ConventionalMc::with_failure_model(p, weibull).unwrap();
        let est = mc.run(&quick_config(100)).unwrap();
        assert!(est.overall_availability < 1.0);
        assert!(est.overall_availability > 0.5);
    }

    #[test]
    fn trace_records_the_story() {
        let p = params(2e-3, 0.2);
        let mc = ConventionalMc::new(p).unwrap();
        let mut rng = SimRng::seed_from(123);
        let mut trace = EventTrace::new();
        let _ = mc.simulate_once(50_000.0, &mut rng, Some(&mut trace));
        assert!(!trace.is_empty());
        let failures = trace.count_where(|k| matches!(k, TraceKind::DiskFailure { .. }));
        assert!(failures > 0);
    }

    #[test]
    fn disk_clocks_drive_exactly_the_failure_exits() {
        // OP and EXP each take one failure exit when a disk clock fires;
        // the down states have none, so their disk clocks stay quiesced.
        let t = ConventionalMc::new(params(1e-4, 0.01)).unwrap().table;
        let targets: Vec<_> = (0..4)
            .map(|s| t.failure_exit(s).map(|k| t.class(t.exit(s, k).1)))
            .collect();
        assert_eq!(
            targets,
            [
                Some(StateClass::Up),
                Some(StateClass::DataLossDown),
                None,
                None
            ]
        );
    }

    #[test]
    fn trace_records_rebuild_losses() {
        // Every rebuild-loss exit writes the LSE record and the data-loss
        // outage it opens, at the same instant.
        let scrub = availsim_storage::ScrubbingModel::new(1e-2, 1_000.0).unwrap();
        let mc = ConventionalMc::new(params(2e-3, 0.0).with_scrubbing(scrub)).unwrap();
        let mut trace = EventTrace::new();
        let out = mc.simulate_once(50_000.0, &mut SimRng::seed_from(5), Some(&mut trace));
        let events = trace.events();
        let hits: Vec<usize> = (0..events.len())
            .filter(|&i| events[i].kind == TraceKind::RebuildLse)
            .collect();
        assert!(!hits.is_empty());
        for i in hits {
            assert_eq!(events[i + 1].kind, TraceKind::DataLoss);
            assert_eq!(events[i + 1].time.to_bits(), events[i].time.to_bits());
        }
        let losses = trace.count_where(|k| *k == TraceKind::DataLoss);
        assert_eq!(losses as u64, out.dl_events);
    }

    #[test]
    fn precision_run_tightens_the_interval() {
        let mc = ConventionalMc::new(params(1e-3, 0.01)).unwrap();
        let cfg = McConfig {
            iterations: 50,
            ..quick_config(50)
        };
        let pilot = mc.run(&cfg).unwrap();
        let target = pilot.availability.half_width / 3.0;
        let refined = mc.run_to_precision(&cfg, target, 200_000).unwrap();
        assert!(
            refined.availability.half_width <= target,
            "refined hw {} vs target {target}",
            refined.availability.half_width
        );
        assert!(refined.iterations > pilot.iterations);
    }

    #[test]
    fn precision_run_respects_iteration_cap() {
        let mc = ConventionalMc::new(params(1e-3, 0.01)).unwrap();
        let cfg = quick_config(50);
        // Impossible target, tiny cap: must stop at the cap.
        let est = mc.run_to_precision(&cfg, 1e-15, 200).unwrap();
        assert!(est.iterations <= 200);
        assert!(mc.run_to_precision(&cfg, 0.0, 100).is_err());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Both engines must be bit-identical at any thread count.
        for engine in [McEngine::Auto, McEngine::EventQueue] {
            let p = params(1e-3, 0.01);
            let mc = ConventionalMc::new(p).unwrap().with_engine(engine);
            let mut cfg = quick_config(100);
            cfg.threads = 1;
            let a = mc.run(&cfg).unwrap();
            cfg.threads = 4;
            let b = mc.run(&cfg).unwrap();
            assert_eq!(
                a.overall_availability.to_bits(),
                b.overall_availability.to_bits(),
                "{engine:?}"
            );
            assert_eq!(
                a.mean_downtime_hours.to_bits(),
                b.mean_downtime_hours.to_bits(),
                "{engine:?}"
            );
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_workspaces_bitwise() {
        // A workspace that has already simulated missions (including a
        // deliberately poisoned one) must produce the same bits as a fresh
        // workspace for the same seed, on both engines.
        let p = params(2e-3, 0.05);
        for engine in [McEngine::Auto, McEngine::EventQueue] {
            let mc = ConventionalMc::new(p).unwrap().with_engine(engine);
            let mut reused = SimWorkspace::new();
            // Dirty the workspace: several missions with unrelated seeds,
            // then poison the log with an open outage mid-state.
            for s in 1000..1004 {
                let mut rng = SimRng::seed_from(s);
                let _ = mc.simulate_once_with(30_000.0, &mut rng, &mut reused);
            }
            reused.log.begin(1.0, OutageCause::HumanError);

            let mut fresh = SimWorkspace::new();
            let mut rng_a = SimRng::seed_from(42);
            let mut rng_b = SimRng::seed_from(42);
            let a = mc.simulate_once_with(30_000.0, &mut rng_a, &mut reused);
            let b = mc.simulate_once_with(30_000.0, &mut rng_b, &mut fresh);
            assert_eq!(
                a.downtime_hours.to_bits(),
                b.downtime_hours.to_bits(),
                "{engine:?}"
            );
            assert_eq!(
                a.du_downtime_hours.to_bits(),
                b.du_downtime_hours.to_bits(),
                "{engine:?}"
            );
            assert_eq!(a.du_events, b.du_events, "{engine:?}");
            assert_eq!(a.dl_events, b.dl_events, "{engine:?}");
        }
    }

    #[test]
    fn failure_biasing_covers_markov_where_naive_sees_nothing() {
        // λ so small that 400 × 10kh missions essentially never fail a
        // disk: naive MC returns a degenerate full-availability estimate,
        // while the biased estimator still brackets the exact chain.
        let p = params(1e-8, 0.01);
        let exact = crate::markov::Raid5Conventional::new(p)
            .unwrap()
            .solve()
            .unwrap()
            .unavailability();
        let cfg = McConfig {
            variance: McVariance::failure_biasing(),
            ..quick_config(400)
        };
        let est = ConventionalMc::new(p).unwrap().run(&cfg).unwrap();
        assert!(est.unavailability() > 0.0);
        assert!(
            est.is_consistent_with_unavailability(exact),
            "exact {exact:.3e} outside CI {} (U_est {:.3e})",
            est.availability,
            est.unavailability()
        );
        assert!(est.max_weight.is_finite() && est.max_weight > 0.0);
        assert!(est.effective_sample_size > 0.0);

        let naive = ConventionalMc::new(p)
            .unwrap()
            .run(&quick_config(400))
            .unwrap();
        assert_eq!(naive.du_events + naive.dl_events, 0);
        assert!(!naive.is_consistent_with_unavailability(exact));
    }

    #[test]
    fn zero_bias_degenerates_to_the_naive_estimator_bitwise() {
        let p = params(1e-3, 0.01);
        let mc = ConventionalMc::new(p).unwrap();
        let naive = mc.run(&quick_config(300)).unwrap();
        let biased = mc
            .run(&McConfig {
                variance: McVariance::FailureBiasing { bias: 0.0 },
                ..quick_config(300)
            })
            .unwrap();
        assert_eq!(
            naive.overall_availability.to_bits(),
            biased.overall_availability.to_bits()
        );
        assert_eq!(
            naive.availability.half_width.to_bits(),
            biased.availability.half_width.to_bits()
        );
        assert_eq!(naive.du_events, biased.du_events);
        assert_eq!(naive.max_weight.to_bits(), biased.max_weight.to_bits());
    }

    #[test]
    fn failure_biasing_rejects_weibull_and_forced_event_queue() {
        let cfg = McConfig {
            variance: McVariance::failure_biasing(),
            ..quick_config(10)
        };
        let weibull = FailureModel::weibull(1e-3, 1.48).unwrap();
        let mc = ConventionalMc::with_failure_model(params(1e-4, 0.01), weibull).unwrap();
        assert!(mc.run(&cfg).is_err());
        let mc = ConventionalMc::new(params(1e-4, 0.01))
            .unwrap()
            .with_engine(McEngine::EventQueue);
        assert!(mc.run(&cfg).is_err());
    }

    #[test]
    fn splitting_single_level_is_bitwise_the_event_queue_run() {
        let weibull = FailureModel::weibull(1e-3, 1.48).unwrap();
        let mc = ConventionalMc::with_failure_model(params(1e-4, 0.01), weibull).unwrap();
        let naive = mc
            .run(&McConfig {
                variance: McVariance::Naive,
                ..quick_config(100)
            })
            .unwrap();
        let split = mc
            .run(&McConfig {
                variance: McVariance::Splitting {
                    levels: 1,
                    effort: 32,
                },
                ..quick_config(100)
            })
            .unwrap();
        assert_eq!(
            naive.overall_availability.to_bits(),
            split.overall_availability.to_bits()
        );
        assert_eq!(
            naive.availability.half_width.to_bits(),
            split.availability.half_width.to_bits()
        );
        assert_eq!(naive.du_events, split.du_events);
        assert_eq!(naive.dl_events, split.dl_events);
    }

    #[test]
    fn splitting_estimates_track_the_naive_estimate_at_moderate_rates() {
        // Where naive MC converges fine, splitting must land in the same
        // place (CIs overlap) — exponential model so the chain's general
        // engine is exercised end to end.
        let p = params(1e-3, 0.02);
        let mc = ConventionalMc::new(p)
            .unwrap()
            .with_engine(McEngine::EventQueue);
        let naive = mc.run(&quick_config(600)).unwrap();
        let split = ConventionalMc::new(p)
            .unwrap()
            .run(&McConfig {
                variance: McVariance::Splitting {
                    levels: 2,
                    effort: 32,
                },
                ..quick_config(200)
            })
            .unwrap();
        assert!(split.unavailability() > 0.0);
        let gap = (naive.availability.mean - split.availability.mean).abs();
        assert!(
            gap <= naive.availability.half_width + split.availability.half_width,
            "naive {} vs split {}",
            naive.availability,
            split.availability
        );
    }

    #[test]
    fn zero_lse_rate_is_bitwise_identical_to_no_scrubbing_model() {
        // An attached scrubbing model with lse_rate = 0 must not perturb a
        // single RNG draw or result bit on any engine or variance scheme —
        // the "disabled features draw nothing" contract.
        let base = params(1e-3, 0.02);
        let with_zero =
            base.with_scrubbing(availsim_storage::ScrubbingModel::new(0.0, 336.0).unwrap());
        for engine in [McEngine::Auto, McEngine::EventQueue] {
            let a = ConventionalMc::new(base)
                .unwrap()
                .with_engine(engine)
                .run(&quick_config(300))
                .unwrap();
            let b = ConventionalMc::new(with_zero)
                .unwrap()
                .with_engine(engine)
                .run(&quick_config(300))
                .unwrap();
            assert_eq!(
                a.overall_availability.to_bits(),
                b.overall_availability.to_bits(),
                "{engine:?}"
            );
            assert_eq!(
                a.availability.half_width.to_bits(),
                b.availability.half_width.to_bits(),
                "{engine:?}"
            );
            assert_eq!(a.dl_events, b.dl_events, "{engine:?}");
            assert_eq!(a.loss_missions, b.loss_missions, "{engine:?}");
            assert_eq!(a.nomdl_per_tb.to_bits(), b.nomdl_per_tb.to_bits());
        }
        // Same for failure biasing (the 4th biased exit is fenced at 0).
        let cfg = McConfig {
            variance: McVariance::failure_biasing(),
            ..quick_config(300)
        };
        let a = ConventionalMc::new(base).unwrap().run(&cfg).unwrap();
        let b = ConventionalMc::new(with_zero).unwrap().run(&cfg).unwrap();
        assert_eq!(
            a.overall_availability.to_bits(),
            b.overall_availability.to_bits()
        );
        assert_eq!(a.max_weight.to_bits(), b.max_weight.to_bits());
    }

    #[test]
    fn lse_exposure_produces_rebuild_losses_on_both_engines() {
        // A deliberately hostile scrub policy: ~78% of rebuilds, each
        // reading the three surviving disks, hit an LSE.
        let scrub = availsim_storage::ScrubbingModel::new(1e-3, 1_000.0).unwrap();
        assert!(scrub.rebuild_failure_probability(3) > 0.3);
        let p = params(1e-3, 0.0).with_scrubbing(scrub);
        let mut cfg = quick_config(400);
        cfg.telemetry = true;
        for engine in [McEngine::Auto, McEngine::EventQueue] {
            let est = ConventionalMc::new(p)
                .unwrap()
                .with_engine(engine)
                .run(&cfg)
                .unwrap();
            assert!(est.loss_missions > 0, "{engine:?}");
            assert!(est.p_data_loss.mean > 0.0, "{engine:?}");
            assert!(est.nomdl_per_tb > 0.0, "{engine:?}");
            let mttfl = est.mean_time_to_first_loss_hours.expect("losses occurred");
            assert!(mttfl > 0.0 && mttfl < cfg.horizon_hours, "{engine:?}");
            use availsim_sim::telemetry::Counter;
            let hits = est.counters.get(Counter::RebuildLseHits);
            let dl = est.counters.get(Counter::DataLossEvents);
            assert!(hits > 0, "{engine:?}");
            assert_eq!(dl, est.dl_events, "{engine:?}");
            assert!(hits <= dl, "{engine:?}");
            // More loss than the LSE-free model: every hit is extra DL.
            let base = ConventionalMc::new(params(1e-3, 0.0))
                .unwrap()
                .with_engine(engine)
                .run(&cfg)
                .unwrap();
            assert!(est.dl_events > base.dl_events, "{engine:?}");
            assert!(
                est.p_data_loss.mean > base.p_data_loss.mean,
                "{engine:?}: live LSE must raise the loss probability"
            );
            assert_eq!(base.counters.get(Counter::RebuildLseHits), 0);
        }
    }

    #[test]
    fn lse_first_loss_time_is_the_earliest_dl_entry() {
        // Single traced mission with heavy LSE exposure: the outcome's
        // first-loss time must match the first DATA LOSS outage start.
        let scrub = availsim_storage::ScrubbingModel::new(1e-2, 1_000.0).unwrap();
        let p = params(2e-3, 0.0).with_scrubbing(scrub);
        let mc = ConventionalMc::new(p).unwrap();
        let mut ws = SimWorkspace::new();
        let mut found = false;
        for seed in 0..50u64 {
            let mut rng = SimRng::seed_from(seed);
            let out = mc.simulate_once_with(50_000.0, &mut rng, &mut ws);
            if out.first_loss_hours.is_finite() {
                found = true;
                let first_dl = ws
                    .log
                    .outages()
                    .iter()
                    .filter(|o| o.cause == OutageCause::DataLoss)
                    .map(|o| o.start)
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(out.first_loss_hours.to_bits(), first_dl.to_bits());
                assert!(out.dl_events > 0);
            } else {
                assert_eq!(
                    ws.log.count_by_cause(OutageCause::DataLoss),
                    0,
                    "seed {seed}"
                );
            }
        }
        assert!(found, "no mission lost data despite heavy LSE exposure");
    }
}

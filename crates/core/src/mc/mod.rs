//! Monte-Carlo availability models (the paper's reference models).
//!
//! The simulators replay the semantics of the Markov chains:
//!
//! * [`ConventionalMc`] — conventional replacement with *per-disk* failure
//!   clocks, so non-exponential (Weibull) lifetimes are supported; this is
//!   the model behind the paper's Fig. 1, Fig. 4, and Fig. 5.
//! * [`FailOverMc`] — automatic fail-over; a replay of the Fig. 3 chain.
//!
//! Both run on the chain definition the exact solver builds from
//! ([`crate::markov::ChainDef`]), so Monte-Carlo and Markov read the same
//! object: the shared jump chain replays it, and the event-queue engines
//! (the only option for Weibull lifetimes) arm their exit clocks from the
//! same compiled table. [`FleetMc`] keeps its own hand-written Fig. 2
//! state machine as the independent cross-check.
//! * [`FleetMc`] — a whole fleet of conventional arrays per mission on
//!   one shared event queue, reporting fleet-level availability and the
//!   distribution of simultaneously degraded arrays (the paper's
//!   datacenter intro arithmetic as a simulated scenario); optional
//!   shared-resource couplings — repair crews, operator dependence,
//!   failure domains, and a bounded Fig. 3 DR site with plain vs
//!   DR-credited availability books.
//!
//! The availability estimator follows the paper: total uptime over total
//! simulated time, with a Student-t confidence interval over per-iteration
//! availabilities ("the error of MC simulations is inversely proportional to
//! the root square of the number of iterations and the t-student coefficient
//! for a target confidence level").
//!
//! Every engine — and [`ConventionalMc::run_to_precision`] — runs its
//! missions through one block runner: it cuts the missions into fixed
//! blocks, gives each worker thread one [`SimWorkspace`], drains the
//! telemetry counters per block, honours a cancel token between blocks,
//! and merges the blocks in block order, so no thread count changes a bit.
//! Each estimate supplies one accumulator (its per-mission push, its block
//! merge and its finish step); the runner divides the NOMDL numerator by
//! the engine's usable capacity, so `nomdl_per_tb` is per TB on every
//! engine.

mod conventional;
mod failover;
mod fleet;
mod jump;

pub use conventional::ConventionalMc;
pub use failover::FailOverMc;
pub use fleet::{
    DomainFailures, FleetCoupling, FleetEstimate, FleetMc, FleetOutcome, DEGRADED_BINS,
};

use crate::error::{CoreError, Result};
use crate::nines;
use availsim_sim::indexed_queue::QueueStats;
use availsim_sim::parallel::{ordered_parallel_map_cancellable, CancelToken};
use availsim_sim::stats::{t_interval, wilson_interval, ConfidenceInterval, RunningStats};
use availsim_sim::telemetry::{Counter, CounterSnapshot, Telemetry};
use availsim_storage::DowntimeLog;

/// Which per-mission engine a Monte-Carlo model runs.
///
/// # Fast-path selection rule
///
/// Under [`McEngine::Auto`] (the default) a model takes the **jump-chain
/// fast path** exactly when every transition in it is exponential, because
/// then the mission is a replay of a small continuous-time Markov chain:
/// in `OP` the next failure is `Exp(n·λ)` (minimum of `n` memoryless disk
/// clocks), and in the degraded and down states the competing services and
/// failures are a race of exponentials, so the simulator can sample one
/// sojourn time from the total exit rate and pick the winning transition
/// with a single extra uniform — no event queue, no per-disk clocks.
///
/// * [`ConventionalMc`]: exponential [`availsim_storage::FailureModel`] →
///   fast path; Weibull (or any other non-memoryless lifetime) → the
///   general event-queue engine with per-disk failure clocks.
/// * [`FailOverMc`]: all Fig. 3 transitions are exponential races, so
///   `Auto` always resolves to the fast path.
///
/// Both engines honour the [`McConfig::threads`] determinism contract and
/// draw every mission from the same per-iteration RNG substream, but they
/// consume that stream differently, so their estimates differ by Monte-
/// Carlo noise (they are distribution-identical, which the statistical
/// equivalence suite checks against the Fig. 2 chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum McEngine {
    /// Resolve automatically (see the fast-path selection rule above).
    #[default]
    Auto,
    /// Always run the general discrete-event engine, even when the model is
    /// fully exponential — the cross-validation reference for the fast
    /// path, and the only engine that can record an
    /// [`EventTrace`](availsim_storage::EventTrace).
    EventQueue,
}

/// Variance-reduction scheme of a Monte-Carlo run — how the missions are
/// sampled, not what they estimate. Every scheme returns an **unbiased**
/// [`AvailabilityEstimate`]; the rare-event schemes reach a target relative
/// precision with orders of magnitude fewer missions when outages are rare
/// (paper-grade λ, where naive MC needs ~`1/U` missions per digit).
///
/// * [`McVariance::Naive`] — every mission is drawn from the nominal model
///   with weight 1. The default, and the right choice whenever outages are
///   common enough that a few thousand missions observe many of them.
/// * [`McVariance::FailureBiasing`] — importance sampling on the jump-chain
///   fast path: the first failure is *forced* into the mission window
///   (truncated-exponential sojourn) and, in states with competing exits,
///   *balanced failure biasing* gives the failure / human-error transitions
///   a total probability `bias` (split equally among them) instead of their
///   tiny nominal share. Each mission carries the likelihood ratio of its
///   path; the estimator weights missions by it, so the result is unbiased,
///   and [`AvailabilityEstimate::effective_sample_size`] /
///   [`AvailabilityEstimate::max_weight`] report how well-behaved the
///   weights were. Requires the jump chain (exponential failures).
/// * [`McVariance::Splitting`] — fixed-effort multilevel splitting on the
///   general event-queue engine (the only option for Weibull lifetimes,
///   where no likelihood ratio is tractable): each iteration becomes one
///   *replication* that runs `effort` trials per degraded-state depth level
///   (OP → degraded → down), restarts trials from the entry states of the
///   previous level, and multiplies the per-level hit fractions into an
///   unbiased downtime estimate.
///
/// # Examples
///
/// ```
/// use availsim_core::mc::{ConventionalMc, McConfig, McVariance};
/// use availsim_core::ModelParams;
/// use availsim_hra::Hep;
///
/// # fn main() -> availsim_core::Result<()> {
/// // λ so small that 2000 naive ten-year missions would usually see no
/// // outage at all; failure biasing resolves the unavailability anyway.
/// let params = ModelParams::raid5_3plus1(1e-8, Hep::new(0.01)?)?;
/// let est = ConventionalMc::new(params)?.run(&McConfig {
///     iterations: 2_000,
///     variance: McVariance::FailureBiasing { bias: 0.5 },
///     ..McConfig::default()
/// })?;
/// assert!(est.unavailability() > 0.0);
/// assert!(est.max_weight.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum McVariance {
    /// Plain Monte-Carlo: nominal-model missions, unit weights.
    #[default]
    Naive,
    /// Importance sampling via failure forcing + balanced failure biasing
    /// on the jump-chain fast path.
    FailureBiasing {
        /// Total proposal probability of the biased (failure / human-error)
        /// exit set in states with competing exits, in `[0, 1)`; `0`
        /// degenerates exactly to [`McVariance::Naive`]. `0.5` is the
        /// standard balanced choice.
        bias: f64,
    },
    /// Fixed-effort multilevel splitting on the event-queue engine.
    Splitting {
        /// Number of splitting stages over the degraded-state depth
        /// (clamped to the model's depth; `1` degenerates exactly to a
        /// naive event-queue run).
        levels: u32,
        /// Trials per stage within one replication (one configured
        /// iteration = one replication of `levels × effort` partial
        /// missions).
        effort: u64,
    },
}

impl McVariance {
    /// Default `bias` of [`Self::failure_biasing`] — the single source the
    /// CLI and campaign-spec defaults flow from.
    pub const DEFAULT_BIAS: f64 = 0.5;
    /// Default `levels` of [`Self::splitting`].
    pub const DEFAULT_LEVELS: u32 = 2;
    /// Default `effort` of [`Self::splitting`].
    pub const DEFAULT_EFFORT: u64 = 64;

    /// The standard balanced-failure-biasing configuration
    /// (`bias = `[`Self::DEFAULT_BIAS`]).
    pub fn failure_biasing() -> Self {
        McVariance::FailureBiasing {
            bias: Self::DEFAULT_BIAS,
        }
    }

    /// The default splitting configuration ([`Self::DEFAULT_LEVELS`]
    /// levels, [`Self::DEFAULT_EFFORT`] trials each).
    pub fn splitting() -> Self {
        McVariance::Splitting {
            levels: Self::DEFAULT_LEVELS,
            effort: Self::DEFAULT_EFFORT,
        }
    }

    /// Validates the scheme's parameters.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] for a bias outside `[0, 1)`
    /// or a degenerate splitting configuration.
    pub fn validate(&self) -> Result<()> {
        match *self {
            McVariance::Naive => Ok(()),
            McVariance::FailureBiasing { bias } => {
                if bias.is_finite() && (0.0..1.0).contains(&bias) {
                    Ok(())
                } else {
                    Err(CoreError::InvalidParameter(format!(
                        "failure-biasing bias must be in [0, 1), got {bias} \
                         (bias = 1 would starve the repair exits, whose paths \
                         have positive nominal probability)"
                    )))
                }
            }
            McVariance::Splitting { levels, effort } => {
                if levels < 1 {
                    return Err(CoreError::InvalidParameter(
                        "splitting needs at least one level".into(),
                    ));
                }
                if effort < 2 {
                    return Err(CoreError::InvalidParameter(format!(
                        "splitting effort must be at least 2, got {effort}"
                    )));
                }
                Ok(())
            }
        }
    }
}

impl std::fmt::Display for McVariance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            McVariance::Naive => f.write_str("naive"),
            McVariance::FailureBiasing { bias } => {
                write!(f, "failure-biasing(bias={bias:?})")
            }
            McVariance::Splitting { levels, effort } => {
                write!(f, "splitting(levels={levels}, effort={effort})")
            }
        }
    }
}

/// Reusable per-worker simulation scratch: every buffer a mission needs,
/// allocated once and recycled, so the per-mission loop performs **zero
/// heap allocations after warm-up**.
///
/// [`ConventionalMc::run`], [`FailOverMc::run`] and [`FleetMc::run`] run
/// their missions through one block runner, which builds one workspace per
/// worker thread and reuses it for every mission that worker claims. Each
/// mission fully resets the parts of the workspace it reads before
/// touching them, so results never depend on what a previous mission left
/// behind — the bit-identity-across-thread-counts contract of
/// [`McConfig::threads`] holds even though workspaces are shared across
/// missions.
///
/// For single-mission use, pair a workspace with
/// [`ConventionalMc::simulate_once_with`] /
/// [`FailOverMc::simulate_once_with`]:
///
/// ```
/// use availsim_core::mc::{ConventionalMc, SimWorkspace};
/// use availsim_core::ModelParams;
/// use availsim_hra::Hep;
/// use availsim_sim::rng::SimRng;
///
/// # fn main() -> availsim_core::Result<()> {
/// let params = ModelParams::raid5_3plus1(1e-3, Hep::new(0.01)?)?;
/// let mc = ConventionalMc::new(params)?;
/// let mut ws = SimWorkspace::new();
/// let mut total = 0.0;
/// for i in 0..100 {
///     let mut rng = SimRng::substream(7, i);
///     total += mc.simulate_once_with(10_000.0, &mut rng, &mut ws).downtime_hours;
/// }
/// assert!(total >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SimWorkspace {
    /// Event queue + per-slot failure-clock generations for
    /// [`ConventionalMc`]'s general engine.
    pub(crate) conventional: conventional::ConvScratch,
    /// Event queue for [`FailOverMc`]'s general engine.
    pub(crate) failover: failover::FoScratch,
    /// Shared queue + per-array state tables for [`FleetMc`].
    pub(crate) fleet: fleet::FleetScratch,
    /// Downtime accounting, shared by every engine.
    pub(crate) log: DowntimeLog,
    /// Mask-gated telemetry registry every engine hook reports into
    /// (disabled — branch-free no-ops — unless built via
    /// [`Self::with_telemetry`]).
    pub(crate) telemetry: Telemetry,
    /// Queue-traffic totals already drained into a snapshot; the next
    /// drain reports deltas against this.
    queue_baseline: QueueStats,
}

impl SimWorkspace {
    /// Creates an empty workspace. Buffers grow on first use and are then
    /// recycled by every subsequent mission. Telemetry is disabled (every
    /// counter update is a branch-free no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace whose telemetry registry is enabled or disabled
    /// for its whole lifetime (see [`McConfig::telemetry`]).
    pub fn with_telemetry(enabled: bool) -> Self {
        SimWorkspace {
            telemetry: Telemetry::new(enabled),
            ..Self::default()
        }
    }

    /// Cumulative traffic totals over the workspace's event queues: flow
    /// counters sum, the depth high-water mark is the maximum (each engine
    /// drives one queue, so the max is the per-mission peak).
    fn queue_stats_total(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for s in [
            self.conventional.queue_stats(),
            self.failover.queue_stats(),
            self.fleet.queue_stats(),
        ] {
            total.scheduled += s.scheduled;
            total.fired += s.fired;
            total.cancelled += s.cancelled;
            total.expired += s.expired;
            total.heap_crossings += s.heap_crossings;
            total.depth_high_water = total.depth_high_water.max(s.depth_high_water);
        }
        total
    }

    /// Takes every counter recorded since the previous drain. The block
    /// runner drains once per scheduling block and merges the snapshots in
    /// block order, so the aggregate is the same at any worker count.
    fn drain_counters(&mut self) -> CounterSnapshot {
        if !self.telemetry.enabled() {
            return CounterSnapshot::default();
        }
        let mut snap = self.telemetry.take();
        // Queue traffic is tracked inside the queues (always-on, cumulative
        // across missions); report the delta since the previous drain. The
        // high-water mark has no meaningful delta — the cumulative maximum
        // is reported and max-merged, which yields the run-wide maximum
        // regardless of how blocks were assigned to workers.
        let totals = self.queue_stats_total();
        let base = self.queue_baseline;
        snap.add(Counter::QueueScheduled, totals.scheduled - base.scheduled);
        snap.add(Counter::QueueFired, totals.fired - base.fired);
        snap.add(Counter::QueueCancelled, totals.cancelled - base.cancelled);
        snap.add(Counter::QueueExpired, totals.expired - base.expired);
        snap.add(
            Counter::QueueHeapCrossings,
            totals.heap_crossings - base.heap_crossings,
        );
        snap.record_max(Counter::QueueDepthHighWater, totals.depth_high_water);
        self.queue_baseline = totals;
        snap
    }
}

/// Configuration of a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// Number of independent iterations (missions).
    pub iterations: u64,
    /// Mission time per iteration, hours.
    pub horizon_hours: f64,
    /// Base seed; iteration `i` always uses substream `i`, so results do not
    /// depend on the number of worker threads.
    pub seed: u64,
    /// Confidence level for the availability interval (e.g. `0.99`).
    pub confidence: f64,
    /// Worker threads; `0` (auto) means clamp to the machine's
    /// [`std::thread::available_parallelism`].
    ///
    /// # Determinism contract
    ///
    /// The thread count never changes any result bit. Iterations are
    /// scheduled in fixed-size blocks whose boundaries depend only on
    /// `iterations` (never on `threads`), each iteration draws from its own
    /// seed substream, and block partials are merged in block order — so
    /// `threads = 1` and `threads = N` produce identical estimates down to
    /// the last floating-point bit. Only wall-clock time varies.
    ///
    /// The contract extends to every [`McVariance`] scheme: per-mission
    /// likelihood-ratio weights (and splitting replication estimates) are
    /// accumulated per scheduling block and merged in index order.
    pub threads: usize,
    /// Variance-reduction scheme (see [`McVariance`]); defaults to
    /// [`McVariance::Naive`].
    pub variance: McVariance,
    /// Whether engine telemetry is recorded
    /// ([`AvailabilityEstimate::counters`] /
    /// [`FleetEstimate::counters`]). Telemetry only counts — it never
    /// draws from the RNG or reorders events — so enabling it preserves
    /// bit-identical estimates; disabled (the default), every counter
    /// update is a branch-free masked no-op with no measurable cost.
    pub telemetry: bool,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            iterations: 10_000,
            horizon_hours: 87_600.0, // ten years
            seed: 0x5EED_DA7A,
            confidence: 0.99,
            threads: 0,
            variance: McVariance::Naive,
            telemetry: false,
        }
    }
}

impl McConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] for zero iterations, a
    /// non-positive horizon, or a confidence outside `(0, 1)`.
    pub fn validate(&self) -> Result<()> {
        if self.iterations < 2 {
            return Err(CoreError::InvalidParameter(
                "at least two iterations are needed for a confidence interval".into(),
            ));
        }
        if !(self.horizon_hours.is_finite() && self.horizon_hours > 0.0) {
            return Err(CoreError::InvalidParameter(format!(
                "horizon must be positive, got {}",
                self.horizon_hours
            )));
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(CoreError::InvalidParameter(format!(
                "confidence must be in (0,1), got {}",
                self.confidence
            )));
        }
        self.variance.validate()
    }

    /// Resolves `threads`: an explicit count is used as-is; `0` (auto) is
    /// clamped to the machine's available parallelism (1 if unknown).
    fn effective_threads(&self) -> usize {
        availsim_sim::parallel::resolve_workers(self.threads)
    }
}

/// Outcome of one simulated mission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationOutcome {
    /// Total downtime within the mission, hours.
    pub downtime_hours: f64,
    /// Downtime caused by human errors (DU class), hours.
    pub du_downtime_hours: f64,
    /// Downtime caused by data loss (DL class), hours.
    pub dl_downtime_hours: f64,
    /// Number of data-unavailability events.
    pub du_events: u64,
    /// Number of data-loss events.
    pub dl_events: u64,
    /// Time of the mission's **first** data-loss event, hours —
    /// [`f64::INFINITY`] when the mission never lost data (the loss
    /// *indicator* is `first_loss_hours.is_finite()`). Splitting
    /// replications report `INFINITY`: their partial trials estimate
    /// downtime, not an unweighted per-mission loss indicator, so the
    /// loss metrics are only meaningful under naive sampling and failure
    /// biasing.
    pub first_loss_hours: f64,
    /// Likelihood-ratio weight of the mission: the nominal-model probability
    /// density of the sampled path over the proposal's. Exactly `1.0` for
    /// naive sampling and for splitting replications (which weight
    /// internally); under [`McVariance::FailureBiasing`] the unbiased
    /// estimator averages `weight × downtime`.
    pub weight: f64,
}

impl Default for IterationOutcome {
    fn default() -> Self {
        IterationOutcome {
            downtime_hours: 0.0,
            du_downtime_hours: 0.0,
            dl_downtime_hours: 0.0,
            du_events: 0,
            dl_events: 0,
            first_loss_hours: f64::INFINITY,
            weight: 1.0,
        }
    }
}

/// Aggregate result of a Monte-Carlo availability run.
#[derive(Debug, Clone)]
pub struct AvailabilityEstimate {
    /// Per-iteration availability interval (Student-t).
    pub availability: ConfidenceInterval,
    /// Total uptime over total time — the paper's point estimator.
    pub overall_availability: f64,
    /// Mean downtime per mission, hours.
    pub mean_downtime_hours: f64,
    /// Share of downtime caused by human error (`DU`), in `[0, 1]`.
    pub du_downtime_share: f64,
    /// Total DU events across all **simulated paths**. Under
    /// [`McVariance::Naive`] this is the nominal mission event count; under
    /// failure biasing it counts events on the *proposal* paths (nearly
    /// every forced mission fails, so it vastly exceeds the nominal rate),
    /// and under splitting it tallies every partial trial of every
    /// replication. In the rare-event modes treat it as a
    /// did-the-run-see-anything diagnostic, not an estimate — the weighted
    /// downtime fields carry the unbiased estimates.
    pub du_events: u64,
    /// Total DL events across all simulated paths (same caveat as
    /// [`Self::du_events`]).
    pub dl_events: u64,
    /// Probability that a mission loses data at least once within the
    /// horizon — the fraction of missions whose
    /// [`IterationOutcome::first_loss_hours`] was finite, with a Wilson
    /// score interval at [`McConfig::confidence`]. The count is
    /// **unweighted**: under variance reduction this is a proposal-path
    /// diagnostic, not an unbiased nominal-model estimate (the weighted
    /// downtime fields carry those).
    pub p_data_loss: ConfidenceInterval,
    /// NOMDL: expected data-loss events per mission, normalized by the
    /// array's usable capacity ([`availsim_storage::RaidGeometry::usable_capacity`],
    /// in capacity units ≙ TB) — the journal extension's "normalized
    /// magnitude of data loss" estimator, weighted so it stays unbiased
    /// under failure biasing.
    pub nomdl_per_tb: f64,
    /// Mean time to the *first* data loss over the missions that lost
    /// data, hours; `None` when no mission lost data.
    pub mean_time_to_first_loss_hours: Option<f64>,
    /// Number of missions that lost data at least once (the numerator of
    /// [`Self::p_data_loss`]).
    pub loss_missions: u64,
    /// Number of iterations.
    pub iterations: u64,
    /// Mission time per iteration, hours.
    pub horizon_hours: f64,
    /// Kish's effective sample size `(Σw)² / Σw²` over the per-mission
    /// likelihood-ratio weights. Equals `iterations` for naive sampling; a
    /// value far below the iteration count warns that a few huge weights
    /// dominate an importance-sampled estimate and its CI is optimistic.
    pub effective_sample_size: f64,
    /// Largest per-mission likelihood-ratio weight observed — the
    /// complementary importance-sampling diagnostic (a single weight close
    /// to `Σw` means the estimate hinges on one path).
    pub max_weight: f64,
    /// Deterministic engine counters of the run (all-zero unless
    /// [`McConfig::telemetry`] was enabled). Merged in block order, so the
    /// snapshot is identical at any thread count.
    pub counters: CounterSnapshot,
}

impl AvailabilityEstimate {
    /// Unavailability of the point estimator.
    pub fn unavailability(&self) -> f64 {
        1.0 - self.overall_availability
    }

    /// Availability in nines (from the overall estimator).
    pub fn nines(&self) -> f64 {
        nines::nines(self.overall_availability)
    }

    /// Whether an external availability value (e.g. from a Markov model)
    /// is consistent with this run — shorthand for
    /// [`Self::is_consistent_with_unavailability`] on `1 − availability`.
    /// Prefer the unavailability form when the reference is tiny: near-zero
    /// unavailabilities vanish when rounded through availability space
    /// (`1.0 - 1e-18 == 1.0` in `f64`).
    pub fn is_consistent_with(&self, availability: f64) -> bool {
        self.is_consistent_with_unavailability(1.0 - availability)
    }

    /// Whether an external unavailability value (e.g. the exact CTMC
    /// solution) is consistent with this run's confidence interval.
    ///
    /// The comparison is scale-aware: the tolerance is the interval
    /// half-width itself, applied in unavailability space, and a
    /// **degenerate zero-width interval is never consistent with a value it
    /// did not literally estimate**. In particular a run that observed no
    /// failures (every availability sample exactly 1, half-width 0) does
    /// not trivially "validate" an arbitrarily small positive
    /// unavailability — it resolved nothing at that scale.
    pub fn is_consistent_with_unavailability(&self, unavailability: f64) -> bool {
        // Exact for means in [0.5, 1] (Sterbenz), which every availability
        // model here satisfies; keeps tiny unavailabilities comparable.
        let u_est = 1.0 - self.availability.mean;
        let hw = self.availability.half_width;
        if hw <= 0.0 {
            return u_est == unavailability;
        }
        (u_est - unavailability).abs() <= hw
    }
}

/// Iterations per scheduling block (minimum). Block boundaries depend only
/// on the iteration count, never on the thread count — the cornerstone of
/// the [`McConfig::threads`] determinism contract.
const BLOCK_ITERATIONS: u64 = 256;

/// Cap on the number of scheduling blocks, so the per-block sums kept for
/// the ordered merge stay a few hundred kilobytes even for billion-
/// iteration runs (blocks grow past [`BLOCK_ITERATIONS`] instead).
const MAX_BLOCKS: u64 = 4096;

/// One estimate's running sums over a run of missions. [`run_blocks`]
/// starts every scheduling block from a copy of the empty accumulator an
/// engine hands it, pushes each mission's outcome, and merges the blocks
/// in block order.
trait Accumulator: Clone + Send + Sync {
    /// What one mission reports.
    type Outcome;
    /// The finished estimate.
    type Estimate;
    /// Adds one mission.
    fn push(&mut self, out: &Self::Outcome);
    /// Adds the sums of the next block.
    fn merge(&mut self, block: &Self);
    /// The NOMDL numerator: data-loss events summed over the missions
    /// (likelihood-weighted where the missions carry weights).
    fn loss_events(&self) -> f64;
    /// Turns the sums over `config.iterations` missions into the estimate.
    ///
    /// # Errors
    /// When an interval cannot be formed at `config.confidence`.
    fn finish(
        self,
        config: &McConfig,
        nomdl_per_tb: f64,
        counters: CounterSnapshot,
    ) -> Result<Self::Estimate>;
}

/// Runs `config.iterations` missions of `mission` and folds them into the
/// estimate of `empty` — the one block scheduler of every Monte-Carlo
/// engine.
///
/// `mission(ws, i)` must be deterministic given the index `i` alone (it
/// draws from seed substream `i` and fully resets whatever workspace state
/// it reads). Each worker thread builds one [`SimWorkspace`] and reuses it
/// for every mission it claims, so the mission loop is allocation-free.
/// Threads claim fixed-size blocks from a shared cursor; each block starts
/// from a copy of `empty` and ends by draining the workspace's counters,
/// and the blocks merge in block order, so the estimate is bit-identical at
/// any thread count. NOMDL is the accumulator's loss events per mission
/// over `usable_capacity` (capacity units ≙ TB).
///
/// `cancel`, when present, is polled once per claimed block, so
/// cancellation latency is one block's runtime and the per-mission path is
/// untouched. When it trips before every block completes, the partial work
/// is **discarded** and [`CoreError::DeadlineExpired`] is returned: a
/// partial aggregate would depend on wall-clock timing, and the same config
/// and seed must give the same bytes, which callers may cache.
fn run_blocks<A: Accumulator>(
    config: &McConfig,
    usable_capacity: f64,
    cancel: Option<&CancelToken>,
    empty: A,
    mission: impl Fn(&mut SimWorkspace, u64) -> A::Outcome + Sync,
) -> Result<A::Estimate> {
    config.validate()?;
    let iterations = config.iterations;
    let block_size = BLOCK_ITERATIONS.max(iterations.div_ceil(MAX_BLOCKS));
    let blocks = iterations.div_ceil(block_size);
    let partials = ordered_parallel_map_cancellable(
        blocks,
        config.effective_threads(),
        || SimWorkspace::with_telemetry(config.telemetry),
        |ws, block| {
            let lo = block * block_size;
            let hi = (lo + block_size).min(iterations);
            let mut acc = empty.clone();
            for i in lo..hi {
                acc.push(&mission(ws, i));
            }
            let mut counters = ws.drain_counters();
            if config.telemetry {
                counters.add(Counter::Missions, hi - lo);
            }
            (acc, counters)
        },
        |_| false,
        cancel,
    );
    if (partials.len() as u64) < blocks {
        // Block claims are sequential, so the completed blocks are exactly
        // 0..len, all of them full.
        return Err(CoreError::DeadlineExpired {
            completed: partials.len() as u64 * block_size,
            requested: iterations,
        });
    }
    let (mut total, mut counters) = (empty, CounterSnapshot::default());
    for (acc, c) in &partials {
        total.merge(acc);
        counters.merge(c);
    }
    let nomdl_per_tb = total.loss_events() / iterations as f64 / usable_capacity;
    total.finish(config, nomdl_per_tb, counters)
}

/// The sums behind an [`AvailabilityEstimate`]: the accumulator of the
/// single-array engines.
#[derive(Debug, Clone, Copy, Default)]
struct ArrayBook {
    /// Mission time, hours (context, not summed).
    horizon: f64,
    /// Per-mission availability `1 − w·downtime/horizon`.
    stats: RunningStats,
    downtime: f64,
    du_downtime: f64,
    du_events: u64,
    dl_events: u64,
    loss_missions: u64,
    first_loss_sum: f64,
    loss_magnitude: f64,
    weight_sum: f64,
    weight_sq_sum: f64,
    weight_max: f64,
}

impl ArrayBook {
    /// The empty accumulator for missions of `horizon` hours.
    fn new(horizon: f64) -> Self {
        ArrayBook {
            horizon,
            ..Self::default()
        }
    }
}

impl Accumulator for ArrayBook {
    type Outcome = IterationOutcome;
    type Estimate = AvailabilityEstimate;

    fn push(&mut self, out: &IterationOutcome) {
        // `weight` is exactly 1.0 for naive sampling, and `1.0 * x` is a
        // bit-exact identity — the naive estimator is unchanged down to
        // the last bit.
        self.stats
            .push(1.0 - out.weight * out.downtime_hours / self.horizon);
        self.downtime += out.weight * out.downtime_hours;
        self.du_downtime += out.weight * out.du_downtime_hours;
        self.du_events += out.du_events;
        self.dl_events += out.dl_events;
        if out.first_loss_hours.is_finite() {
            self.loss_missions += 1;
            self.first_loss_sum += out.first_loss_hours;
        }
        self.loss_magnitude += out.weight * out.dl_events as f64;
        self.weight_sum += out.weight;
        self.weight_sq_sum += out.weight * out.weight;
        self.weight_max = self.weight_max.max(out.weight);
    }

    fn merge(&mut self, b: &Self) {
        self.stats.merge(&b.stats);
        self.downtime += b.downtime;
        self.du_downtime += b.du_downtime;
        self.du_events += b.du_events;
        self.dl_events += b.dl_events;
        self.loss_missions += b.loss_missions;
        self.first_loss_sum += b.first_loss_sum;
        self.loss_magnitude += b.loss_magnitude;
        self.weight_sum += b.weight_sum;
        self.weight_sq_sum += b.weight_sq_sum;
        self.weight_max = self.weight_max.max(b.weight_max);
    }

    fn loss_events(&self) -> f64 {
        self.loss_magnitude
    }

    fn finish(
        self,
        config: &McConfig,
        nomdl_per_tb: f64,
        counters: CounterSnapshot,
    ) -> Result<AvailabilityEstimate> {
        let iterations = config.iterations;
        let availability = t_interval(&self.stats, config.confidence).map_err(CoreError::from)?;
        let p_data_loss = wilson_interval(self.loss_missions, iterations, config.confidence)
            .map_err(CoreError::from)?;
        let total_time = config.horizon_hours * iterations as f64;
        Ok(AvailabilityEstimate {
            availability,
            overall_availability: 1.0 - self.downtime / total_time,
            mean_downtime_hours: self.downtime / iterations as f64,
            du_downtime_share: if self.downtime > 0.0 {
                self.du_downtime / self.downtime
            } else {
                0.0
            },
            du_events: self.du_events,
            dl_events: self.dl_events,
            p_data_loss,
            nomdl_per_tb,
            mean_time_to_first_loss_hours: if self.loss_missions > 0 {
                Some(self.first_loss_sum / self.loss_missions as f64)
            } else {
                None
            },
            loss_missions: self.loss_missions,
            iterations,
            horizon_hours: config.horizon_hours,
            effective_sample_size: if self.weight_sq_sum > 0.0 {
                self.weight_sum * self.weight_sum / self.weight_sq_sum
            } else {
                0.0
            },
            max_weight: self.weight_max,
            counters,
        })
    }
}

/// Minimum pilot batch for [`run_to_precision`]. [`McConfig::validate`]
/// accepts `iterations >= 2`, but a 2-mission pilot has a degenerate
/// variance estimate — with two identical samples the Student-t half-width
/// collapses to zero and the precision loop would declare victory on no
/// statistical evidence. The pilot is therefore clamped up to this floor
/// before the first batch.
const MIN_PILOT_ITERATIONS: u64 = 32;

/// Runs batches of missions through [`run_blocks`] until the availability
/// interval's half-width falls below `target_half_width` (absolute, on
/// availability) or `max_iterations` is reached — the sequential version of
/// the paper's "iterations vs error" relationship.
///
/// The iteration indices (and therefore RNG substreams) continue across
/// batches, so the sequential run is exactly a prefix-extension of a fixed
/// run with the same seed. `config.iterations` seeds the pilot batch,
/// clamped up to [`MIN_PILOT_ITERATIONS`] so the first variance estimate
/// is non-degenerate — but never past `max_iterations`, which stays a hard
/// budget.
fn run_to_precision(
    config: &McConfig,
    target_half_width: f64,
    max_iterations: u64,
    usable_capacity: f64,
    mission: impl Fn(&mut SimWorkspace, u64) -> IterationOutcome + Sync,
) -> Result<AvailabilityEstimate> {
    if target_half_width.is_nan() || target_half_width <= 0.0 {
        return Err(CoreError::InvalidParameter(format!(
            "target half-width must be positive, got {target_half_width}"
        )));
    }
    // The degenerate-variance floor applies only as far as the caller's
    // iteration budget allows (and ≥ 2 keeps the config valid).
    let mut total = config
        .iterations
        .max(MIN_PILOT_ITERATIONS)
        .min(max_iterations)
        .max(2);
    loop {
        let cfg = McConfig {
            iterations: total,
            ..*config
        };
        let empty = ArrayBook::new(cfg.horizon_hours);
        let est = run_blocks(&cfg, usable_capacity, None, empty, &mission)?;
        // A zero-width interval is *degenerate*, not converged: every
        // sample was identical — typically a rare-event run whose batch
        // observed no failure at all. Declaring victory there would report
        // an impossibly tight CI around an estimate of nothing, so the
        // loop keeps growing the sample (geometrically, having learnt no
        // variance to extrapolate from) until the budget runs out.
        let degenerate = est.availability.half_width <= 0.0;
        if total >= max_iterations
            || (!degenerate && est.availability.half_width <= target_half_width)
        {
            return Ok(est);
        }
        let next = if degenerate {
            total.saturating_mul(4)
        } else {
            // Quadratic growth rule: required n scales with (hw/target)².
            let ratio = (est.availability.half_width / target_half_width).powi(2);
            ((total as f64) * ratio * 1.2).ceil() as u64
        };
        total = next.clamp(total + 1, max_iterations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs synthetic missions through the block runner at unit capacity.
    fn run_iterations(
        config: &McConfig,
        sim: impl Fn(u64) -> IterationOutcome + Sync,
    ) -> Result<AvailabilityEstimate> {
        let empty = ArrayBook::new(config.horizon_hours);
        run_blocks(config, 1.0, None, empty, |_, i| sim(i))
    }

    #[test]
    fn config_validation() {
        let mut c = McConfig::default();
        assert!(c.validate().is_ok());
        c.iterations = 1;
        assert!(c.validate().is_err());
        c = McConfig {
            horizon_hours: 0.0,
            ..McConfig::default()
        };
        assert!(c.validate().is_err());
        c = McConfig {
            confidence: 1.0,
            ..McConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn variance_validation() {
        let with = |variance| McConfig {
            variance,
            ..McConfig::default()
        };
        assert!(with(McVariance::Naive).validate().is_ok());
        assert!(with(McVariance::failure_biasing()).validate().is_ok());
        assert!(with(McVariance::FailureBiasing { bias: 0.0 })
            .validate()
            .is_ok());
        assert!(with(McVariance::FailureBiasing { bias: 1.0 })
            .validate()
            .is_err());
        assert!(with(McVariance::FailureBiasing { bias: -0.1 })
            .validate()
            .is_err());
        assert!(with(McVariance::FailureBiasing { bias: f64::NAN })
            .validate()
            .is_err());
        assert!(with(McVariance::splitting()).validate().is_ok());
        assert!(with(McVariance::Splitting {
            levels: 0,
            effort: 8
        })
        .validate()
        .is_err());
        assert!(with(McVariance::Splitting {
            levels: 2,
            effort: 1
        })
        .validate()
        .is_err());
    }

    #[test]
    fn variance_display_is_stable() {
        assert_eq!(McVariance::Naive.to_string(), "naive");
        assert_eq!(
            McVariance::failure_biasing().to_string(),
            "failure-biasing(bias=0.5)"
        );
        assert_eq!(
            McVariance::splitting().to_string(),
            "splitting(levels=2, effort=64)"
        );
    }

    #[test]
    fn runner_aggregates_deterministically_across_thread_counts() {
        let sim = |i: u64| IterationOutcome {
            downtime_hours: (i % 10) as f64,
            du_downtime_hours: (i % 10) as f64 / 2.0,
            dl_downtime_hours: (i % 10) as f64 / 2.0,
            du_events: i % 3,
            dl_events: i % 2,
            first_loss_hours: if i % 2 == 1 { 50.0 } else { f64::INFINITY },
            weight: 1.0,
        };
        let mk = |threads| McConfig {
            iterations: 1000,
            horizon_hours: 100.0,
            seed: 1,
            confidence: 0.95,
            threads,
            ..McConfig::default()
        };
        let one = run_iterations(&mk(1), sim).unwrap();
        let many = run_iterations(&mk(4), sim).unwrap();
        assert_eq!(
            one.overall_availability.to_bits(),
            many.overall_availability.to_bits()
        );
        assert_eq!(one.du_events, many.du_events);
        assert!((one.availability.mean - many.availability.mean).abs() < 1e-12);
        // Loss metrics obey the same block-order merge contract.
        assert_eq!(one.loss_missions, many.loss_missions);
        assert_eq!(
            one.p_data_loss.mean.to_bits(),
            many.p_data_loss.mean.to_bits()
        );
        assert_eq!(one.nomdl_per_tb.to_bits(), many.nomdl_per_tb.to_bits());
        assert_eq!(
            one.mean_time_to_first_loss_hours.unwrap().to_bits(),
            many.mean_time_to_first_loss_hours.unwrap().to_bits()
        );
    }

    #[test]
    fn a_cancelled_run_reports_its_completed_prefix_and_no_estimate() {
        let cfg = McConfig {
            iterations: 1_000,
            horizon_hours: 100.0,
            threads: 2,
            ..McConfig::default()
        };
        let token = CancelToken::new();
        token.cancel();
        let empty = ArrayBook::new(cfg.horizon_hours);
        let err = run_blocks(&cfg, 1.0, Some(&token), empty, |_, _| {
            IterationOutcome::default()
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::DeadlineExpired {
                    completed: 0,
                    requested: 1_000
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn real_model_is_bit_identical_at_1_and_4_threads() {
        // Regression for the determinism contract on McConfig::threads: the
        // full ConventionalMc (real floating-point downtimes, not synthetic
        // integers) must produce identical bits at any thread count.
        let params =
            crate::ModelParams::raid5_3plus1(1e-3, availsim_hra::Hep::new(0.01).unwrap()).unwrap();
        for engine in [McEngine::Auto, McEngine::EventQueue] {
            let mc = ConventionalMc::new(params).unwrap().with_engine(engine);
            let run = |threads| {
                mc.run(&McConfig {
                    iterations: 700, // not a multiple of the block size
                    horizon_hours: 20_000.0,
                    seed: 99,
                    confidence: 0.95,
                    threads,
                    ..McConfig::default()
                })
                .unwrap()
            };
            let one = run(1);
            let four = run(4);
            assert_eq!(
                one.overall_availability.to_bits(),
                four.overall_availability.to_bits()
            );
            assert_eq!(
                one.availability.mean.to_bits(),
                four.availability.mean.to_bits()
            );
            assert_eq!(
                one.availability.half_width.to_bits(),
                four.availability.half_width.to_bits()
            );
            assert_eq!(
                one.mean_downtime_hours.to_bits(),
                four.mean_downtime_hours.to_bits()
            );
            assert_eq!(
                one.du_downtime_share.to_bits(),
                four.du_downtime_share.to_bits()
            );
            assert_eq!(one.du_events, four.du_events);
            assert_eq!(one.dl_events, four.dl_events);
            // Sanity: the run actually simulated something.
            assert!(one.mean_downtime_hours > 0.0);
        }
    }

    #[test]
    fn auto_threads_matches_explicit_available_parallelism() {
        // threads = 0 must behave exactly like the clamped explicit count —
        // same bits, since chunking is thread-count independent anyway.
        let sim = |i: u64| IterationOutcome {
            downtime_hours: (i as f64).sin().abs(),
            ..IterationOutcome::default()
        };
        let mk = |threads| McConfig {
            iterations: 300,
            horizon_hours: 10.0,
            seed: 1,
            confidence: 0.95,
            threads,
            ..McConfig::default()
        };
        let auto = run_iterations(&mk(0), sim).unwrap();
        let explicit = run_iterations(&mk(mk(0).effective_threads()), sim).unwrap();
        assert_eq!(
            auto.overall_availability.to_bits(),
            explicit.overall_availability.to_bits()
        );
        assert_eq!(
            auto.availability.half_width.to_bits(),
            explicit.availability.half_width.to_bits()
        );
    }

    #[test]
    fn precision_pilot_is_clamped_to_a_nondegenerate_batch() {
        // Regression: `McConfig::validate` accepts `iterations >= 2`, and a
        // 2-mission pilot whose two samples happen to coincide has zero
        // sample variance — the old loop declared the (impossibly tight)
        // target met after 2 missions. The pilot must be clamped up.
        let sim = |i: u64| IterationOutcome {
            // Identical for the first two missions, varying afterwards.
            downtime_hours: if i < 2 { 1.0 } else { (i % 5) as f64 },
            ..IterationOutcome::default()
        };
        let cfg = McConfig {
            iterations: 2,
            horizon_hours: 100.0,
            seed: 1,
            confidence: 0.95,
            threads: 1,
            ..McConfig::default()
        };
        let est = run_to_precision(&cfg, 1e-9, MIN_PILOT_ITERATIONS, 1.0, |_, i| sim(i)).unwrap();
        assert!(
            est.iterations >= MIN_PILOT_ITERATIONS,
            "pilot ran only {} iterations",
            est.iterations
        );
        // The degenerate 2-sample CI would have claimed half-width 0.
        assert!(est.availability.half_width > 0.0);

        // The floor never overrides the caller's hard budget.
        let capped = run_to_precision(&cfg, 1e-9, 8, 1.0, |_, i| sim(i)).unwrap();
        assert_eq!(capped.iterations, 8);
    }

    #[test]
    fn estimator_arithmetic() {
        let sim = |_i: u64| IterationOutcome {
            downtime_hours: 1.0,
            du_downtime_hours: 1.0,
            dl_downtime_hours: 0.0,
            du_events: 1,
            dl_events: 0,
            first_loss_hours: f64::INFINITY,
            weight: 1.0,
        };
        let cfg = McConfig {
            iterations: 100,
            horizon_hours: 100.0,
            seed: 0,
            confidence: 0.95,
            threads: 2,
            ..McConfig::default()
        };
        let est = run_iterations(&cfg, sim).unwrap();
        assert!((est.overall_availability - 0.99).abs() < 1e-12);
        assert!((est.mean_downtime_hours - 1.0).abs() < 1e-12);
        assert!((est.du_downtime_share - 1.0).abs() < 1e-12);
        assert_eq!(est.du_events, 100);
        assert!((est.nines() - 2.0).abs() < 1e-9);
        assert!(est.is_consistent_with(0.99));
        // Naive weights: ESS equals the sample size, max weight is one.
        assert!((est.effective_sample_size - 100.0).abs() < 1e-9);
        assert_eq!(est.max_weight, 1.0);
        // No mission lost data: the Wilson center shrinks toward z²/2/(n+z²)
        // rather than 0, but the interval must cover 0.
        assert_eq!(est.loss_missions, 0);
        assert!(est.p_data_loss.mean <= est.p_data_loss.half_width);
        assert_eq!(est.nomdl_per_tb, 0.0);
        assert!(est.mean_time_to_first_loss_hours.is_none());
    }

    #[test]
    fn loss_estimators_aggregate_indicator_time_and_magnitude() {
        // Every 4th mission loses data at t = 10 h with 2 loss events.
        let sim = |i: u64| {
            if i.is_multiple_of(4) {
                IterationOutcome {
                    downtime_hours: 5.0,
                    dl_downtime_hours: 5.0,
                    dl_events: 2,
                    first_loss_hours: 10.0,
                    ..IterationOutcome::default()
                }
            } else {
                IterationOutcome::default()
            }
        };
        let cfg = McConfig {
            iterations: 400,
            horizon_hours: 100.0,
            seed: 0,
            confidence: 0.95,
            threads: 2,
            ..McConfig::default()
        };
        let est = run_iterations(&cfg, sim).unwrap();
        assert_eq!(est.loss_missions, 100);
        assert!((est.p_data_loss.mean - 0.25).abs() < 0.01); // Wilson shrinks slightly
        assert!(est.p_data_loss.half_width > 0.0);
        // Wilson interval covers the empirical fraction.
        assert!((0.25f64 - est.p_data_loss.mean).abs() <= est.p_data_loss.half_width);
        // 2 events × 100 missions / 400 iterations, per capacity unit.
        assert!((est.nomdl_per_tb - 0.5).abs() < 1e-12);
        assert_eq!(est.mean_time_to_first_loss_hours, Some(10.0));
        // The runner divides the magnitude by the engine's usable capacity.
        let empty = ArrayBook::new(cfg.horizon_hours);
        let per_tb = run_blocks(&cfg, 4.0, None, empty, |_, i| sim(i)).unwrap();
        assert_eq!(per_tb.nomdl_per_tb.to_bits(), (0.5f64 / 4.0).to_bits());
    }

    #[test]
    fn weighted_outcomes_produce_unbiased_aggregate_and_diagnostics() {
        // Synthetic importance-sampled stream: every mission observes
        // downtime 10 h with weight 0.1 — the weighted mean downtime is
        // 1 h, and the skew shows up in the ESS.
        let sim = |i: u64| IterationOutcome {
            downtime_hours: 10.0,
            du_downtime_hours: 10.0,
            weight: if i.is_multiple_of(2) { 0.1 } else { 0.19 },
            ..IterationOutcome::default()
        };
        let cfg = McConfig {
            iterations: 100,
            horizon_hours: 100.0,
            seed: 0,
            confidence: 0.95,
            threads: 2,
            ..McConfig::default()
        };
        let est = run_iterations(&cfg, sim).unwrap();
        let mean_weighted_downtime = (0.1 + 0.19) / 2.0 * 10.0;
        assert!((est.mean_downtime_hours - mean_weighted_downtime).abs() < 1e-12);
        assert!((est.overall_availability - (1.0 - mean_weighted_downtime / 100.0)).abs() < 1e-12);
        assert_eq!(est.max_weight, 0.19);
        let (w_sum, w_sq) = (50.0 * (0.1 + 0.19), 50.0 * (0.01 + 0.0361));
        assert!((est.effective_sample_size - w_sum * w_sum / w_sq).abs() < 1e-9);
    }

    #[test]
    fn degenerate_interval_is_not_consistent_with_near_zero_unavailability() {
        // Regression for the scale-aware consistency check: a run whose
        // every sample was exactly 1.0 (no failures observed) has a
        // zero-width interval and must NOT claim agreement with a tiny but
        // positive exact unavailability.
        let cfg = McConfig {
            iterations: 64,
            horizon_hours: 100.0,
            seed: 0,
            confidence: 0.99,
            threads: 1,
            ..McConfig::default()
        };
        let est = run_iterations(&cfg, |_| IterationOutcome::default()).unwrap();
        assert_eq!(est.availability.half_width, 0.0);
        assert!(est.is_consistent_with_unavailability(0.0));
        assert!(!est.is_consistent_with_unavailability(1e-12));
        assert!(!est.is_consistent_with_unavailability(1e-18));
        // A non-degenerate interval keeps CI-half-width tolerance.
        let est = run_iterations(&cfg, |i| IterationOutcome {
            downtime_hours: (i % 2) as f64,
            ..IterationOutcome::default()
        })
        .unwrap();
        assert!(est.availability.half_width > 0.0);
        let u = 1.0 - est.availability.mean;
        assert!(est.is_consistent_with_unavailability(u + est.availability.half_width / 2.0));
        assert!(!est.is_consistent_with_unavailability(u + est.availability.half_width * 2.0));
    }

    #[test]
    fn precision_loop_does_not_converge_on_a_degenerate_zero_event_pilot() {
        // Regression: a rare-event pilot whose missions all observe zero
        // downtime yields a zero-width CI; the old loop declared the target
        // met on no evidence. It must now keep growing to the budget.
        let sim = |i: u64| IterationOutcome {
            // The first event appears only at iteration 500.
            downtime_hours: if i >= 500 { 1.0 } else { 0.0 },
            ..IterationOutcome::default()
        };
        let cfg = McConfig {
            iterations: 32,
            horizon_hours: 100.0,
            seed: 1,
            confidence: 0.95,
            threads: 1,
            ..McConfig::default()
        };
        let est = run_to_precision(&cfg, 1e-3, 4096, 1.0, |_, i| sim(i)).unwrap();
        assert!(
            est.iterations > 500,
            "stopped at {} iterations with a degenerate CI",
            est.iterations
        );
        assert!(est.availability.half_width > 0.0);
    }
}

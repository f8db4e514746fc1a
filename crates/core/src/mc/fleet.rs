//! Fleet-scale Monte-Carlo: one mission simulates a whole datacenter row
//! of independent RAID arrays on a single event queue.
//!
//! The paper motivates everything with an exabyte datacenter — "at least a
//! disk failure per hour" and multiple human errors a day — but its models
//! (and [`ConventionalMc`](super::ConventionalMc)) describe a *single*
//! array. [`FleetMc`] turns the intro arithmetic into a first-class
//! simulated scenario: a mission advances `A` independent conventional
//! arrays (Fig. 2 semantics each, per-disk failure clocks, any
//! [`FailureModel`]) through one shared
//! [`IndexedEventQueue`](availsim_sim::indexed_queue::IndexedEventQueue)
//! and one shared workspace, reporting
//!
//! * the per-array availability (which matches the single-array model —
//!   the arrays are independent),
//! * the *fleet* availability (no array down) and its expected annual
//!   any-array-down hours — the number a datacenter operator actually
//!   plans maintenance staffing around, and
//! * the time-weighted distribution of **simultaneously degraded arrays**
//!   (arrays not fully operational), the paper's failure-per-hour claim
//!   made measurable.
//!
//! The engine is the general event-queue engine throughout — a fleet
//! mission is exactly the workload the indexed queue's heap regime exists
//! for (thousands of concurrent disk clocks). Disk and shelf clocks ride
//! the queue's clock lane, and the service races and the DR fail-back
//! race its timer lane
//! ([`schedule_timer`](availsim_sim::indexed_queue::IndexedEventQueue::schedule_timer)):
//! a race timer lives hours and every race's loser is cancelled, while a
//! disk clock pends for most of the mission, so the timers are most of a
//! large fleet's queue traffic, and on their own lane they touch a few
//! entries instead of the whole disk-clock heap. The lanes share one
//! `(time, seq)` order, so the split moves no pop, draw or queue counter.
//! Missions run through the same block runner as the single-array
//! engines; the fleet supplies only its accumulator, and NOMDL is per unit
//! of the fleet's usable capacity.
//!
//! # Shared resources and correlated human error
//!
//! Real fleets are *not* independent: one maintenance team serves many
//! arrays, and a stressed operator errs more. Three optional couplings
//! model this, each reducing exactly to the independent fleet when
//! disabled (bit for bit — the RNG draw sequence is untouched):
//!
//! * **Finite repair crews** ([`FleetSpec::with_repairmen`]): at most `c`
//!   arrays are in service concurrently; further degraded arrays wait in
//!   FIFO order with no service clocks running (the machine-repairman
//!   model, validated against its exact closed form in
//!   `crates/core/tests/fleet.rs`). A waiting array is still exposed to
//!   further disk failures and to domain knockouts.
//! * **Operator dependence** ([`FleetCoupling::dependence`]): the hep of
//!   a service action beginning while `d` *other* arrays are degraded is
//!   escalated by `d` THERP conditional steps
//!   ([`availsim_hra::escalated`]) — concurrent incidents share the
//!   operator's attention.
//! * **Domain failures** ([`DomainFailures`]): the fleet is partitioned
//!   into consecutive shelves of `domain_arrays` arrays; each shelf has
//!   its own Poisson clock that knocks every member array into the DL
//!   (restore-from-backup) state at once.
//! * **Shared DR site** ([`FleetSpec::with_failover`]): the paper's
//!   Fig. 3 fail-over target at fleet scale. An array leaving OP requests
//!   one of `capacity` DR slots; admitted arrays serve degraded from DR
//!   (their down time is *credited* — see
//!   [`FleetEstimate::credited_availability`]) and, back in OP, run the
//!   Fig. 3 switch-back race — successful fail-back at `(1−hep)·φ`
//!   against a botched, DU-causing switch-back at `hep·φ` — holding the
//!   slot until the fail-back completes. Arrays beyond capacity queue
//!   FIFO (or are rejected under the Erlang-loss
//!   [`FailoverPolicy::Loss`]) and accrue full downtime, which is
//!   exactly how a domain strike flooring a whole shelf saturates the DR
//!   site and degrades the fleet gracefully instead of cliff-dropping.
//!   An unbounded capacity is the ideal-DR limit: every episode is
//!   absorbed with an instantaneous, error-free switch-back, drawing
//!   nothing from the RNG — bit-identical to the no-failover engine.

use super::failover::failback_race_inv;
use super::{Accumulator, McConfig, McVariance, SimWorkspace};
use crate::error::{CoreError, Result};
use crate::params::ModelParams;
use availsim_hra::{escalated, DependenceLevel};
use availsim_sim::indexed_queue::{IndexedEventHandle, IndexedEventQueue, QueueStats};
use availsim_sim::rng::SimRng;
use availsim_sim::stats::{t_interval, wilson_interval, ConfidenceInterval, RunningStats};
use availsim_sim::telemetry::{Counter, CounterSnapshot};
use availsim_storage::{FailoverPolicy, FailureModel, FleetSpec, HOURS_PER_YEAR};
use std::collections::VecDeque;

/// Operating mode of one member array (the Fig. 2 states).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Mode {
    /// All disks operational.
    #[default]
    Op,
    /// One failed disk, service in progress (degraded but serving).
    Exp,
    /// Down: wrong replacement pulled a live disk.
    Du,
    /// Down: data lost, restoring from backup.
    Dl,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Service {
    /// EXP → OP at (1−hep)·μ_DF.
    RepairOk,
    /// EXP → DU at hep·μ_s.
    WrongPull,
    /// DU → OP at (1−hep)·μ_he.
    RecoveryOk,
    /// DU → DL at λ_crash.
    RemovedCrash,
    /// DL → OP at μ_DDF.
    Restore,
    /// DR switch-back succeeds at (1−hep)·φ: the slot is released.
    FailbackOk,
    /// DR switch-back botched at hep·φ (the Fig. 3 DR-side human
    /// error): the array goes DU while still holding its slot.
    FailbackSlip,
}

/// Relationship of one array to the shared DR site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum DrState {
    /// No slot held, not in line.
    #[default]
    None,
    /// Waiting FIFO for a slot (full downtime accrues meanwhile).
    Queued,
    /// Holding a slot: serving degraded from DR while non-OP, failing
    /// back (switch-back race armed) while OP.
    Serving,
}

/// Event payload. `slot` fits a `u8` (per-array disk counts are bounded
/// by [`FleetSpec::MAX_DISKS_PER_ARRAY`]); `gen`/`epoch` are per-slot /
/// per-array counters that reset every mission — `u32` so that even an
/// absurd `λ·horizon` cannot wrap them within one mission (2^32 events on
/// one slot is beyond any simulable mission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FleetEv {
    /// Failure of one disk slot of one array.
    Fail { array: u32, slot: u8, gen: u32 },
    /// A service transition of one array.
    Service {
        array: u32,
        kind: Service,
        epoch: u32,
    },
    /// A whole-shelf knockout (the shelf's Poisson clock fired). Always
    /// live: the clock is re-armed only when it fires, so no generation
    /// guard is needed.
    Domain { domain: u32 },
}

/// Per-array simulation state, 8 bytes so a 64k-array fleet's state table
/// stays cache-friendly.
#[derive(Debug, Clone, Copy, Default)]
struct ArrayState {
    mode: Mode,
    epoch: u32,
    failed_slot: u8,
    /// Degraded but queued for a repair crew (no service clocks armed).
    /// Every non-OP array either waits or holds exactly one crew.
    waiting: bool,
    /// Standing with the shared DR site (always `None` without one).
    dr: DrState,
}

/// Reusable scratch of the fleet engine: the shared event queue, the
/// per-array state table, and the flattened per-slot failure-clock
/// generations. Cleared (capacity retained) at the start of every mission.
#[derive(Debug, Default)]
pub(crate) struct FleetScratch {
    queue: IndexedEventQueue<FleetEv>,
    arrays: Vec<ArrayState>,
    slot_gen: Vec<u32>,
    /// Pending service handles per array, by race lane (0 = the
    /// recovery-flavoured exit, 1 = the failure-flavoured one): when one
    /// fires, the sibling is cancelled in place instead of surfacing
    /// later as a stale pop in the shared heap.
    svc: Vec<[Option<IndexedEventHandle>; 2]>,
    /// Arrays waiting for a repair crew, FIFO. An array appears at most
    /// once per degraded episode (it can only return to OP through a
    /// service, which requires the crew it is waiting for).
    fifo: VecDeque<u32>,
    /// Arrays waiting for a DR slot, FIFO, as `(array, token)` pairs.
    /// Unlike the crew queue an array *can* leave this line early (by
    /// repairing to OP while still queued), so entries carry the
    /// admission token current at enqueue time and stale entries are
    /// skipped on pop.
    dr_fifo: VecDeque<(u32, u32)>,
    /// Per-array DR admission token, bumped whenever the array's queue
    /// membership is invalidated.
    dr_token: Vec<u32>,
}

impl FleetScratch {
    /// Re-zeroes the state tables for an `arrays × disks` mission,
    /// retaining all allocated capacity.
    pub(crate) fn reset(&mut self, arrays: usize, disks: usize) {
        self.queue.clear();
        self.arrays.clear();
        self.arrays.resize(arrays, ArrayState::default());
        self.slot_gen.clear();
        self.slot_gen.resize(arrays * disks, 0);
        self.svc.clear();
        self.svc.resize(arrays, [None, None]);
        self.fifo.clear();
        self.dr_fifo.clear();
        self.dr_token.clear();
        self.dr_token.resize(arrays, 0);
    }

    /// Cumulative traffic counters of the shared fleet event queue.
    pub(crate) fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }
}

/// One shelf-failure process: the fleet is partitioned into consecutive
/// shelves of `domain_arrays` arrays (the last shelf may be short), and
/// each shelf's own Poisson clock at `rate` knocks every member array
/// into the DL (restore-from-backup) state at once — a rack power feed or
/// backplane failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainFailures {
    /// Arrays per shelf, at least 1 and at most the fleet size.
    pub domain_arrays: u32,
    /// Shelf knockouts per hour per shelf, positive and finite.
    pub rate: f64,
}

/// Correlated-failure configuration of a fleet mission. The default
/// (`Zero` dependence, no domains) is the independent fleet; together
/// with an unlimited crew pool it reproduces the uncoupled engine bit
/// for bit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetCoupling {
    /// THERP dependence between service actions of concurrently degraded
    /// arrays: the hep of an incident beginning while `d` other arrays
    /// are degraded is escalated by `d` conditional steps.
    pub dependence: DependenceLevel,
    /// Optional whole-shelf knockout process.
    pub domains: Option<DomainFailures>,
}

/// Number of bins of the simultaneous-degraded-arrays distribution: exact
/// counts `0..=31`, with the final bin absorbing `>= 32` (a fleet sick
/// enough to exceed it is far outside the paper's operating regime).
pub const DEGRADED_BINS: usize = 33;

/// Outcome of one fleet mission.
#[derive(Debug, Clone, Copy)]
pub struct FleetOutcome {
    /// Human-error (DU) downtime summed over all member arrays, hours.
    pub du_downtime_hours: f64,
    /// Data-loss (DL) downtime summed over all member arrays, hours.
    pub dl_downtime_hours: f64,
    /// Mission time during which **at least one** array was down, hours.
    pub any_down_hours: f64,
    /// Data-unavailability events across the fleet.
    pub du_events: u64,
    /// Data-loss events across the fleet. A domain strike contributes one
    /// event per member array it takes down.
    pub dl_events: u64,
    /// Mission time of the first DL entry of **any** member array, hours
    /// ([`f64::INFINITY`] when no array ever lost data).
    pub first_loss_hours: f64,
    /// Peak number of simultaneously degraded (not fully operational)
    /// arrays observed during the mission.
    pub max_degraded: u32,
    /// Time spent with exactly `k` arrays degraded, hours
    /// (`degraded_hours[DEGRADED_BINS - 1]` absorbs `k >= 32`); sums to
    /// the mission horizon.
    pub degraded_hours: [f64; DEGRADED_BINS],
    /// Array-downtime hours **not** served from the DR site — what the
    /// DR coupling cannot credit. Accrued directly (not derived by
    /// subtraction) so the ideal-DR limit reports an exact zero; equals
    /// `du + dl` downtime without a DR site.
    pub uncovered_down_hours: f64,
    /// Mission time during which at least one array was down **and not
    /// DR-served**; equals `any_down_hours` without a DR site.
    pub uncovered_any_down_hours: f64,
    /// Time spent with exactly `k` DR slots occupied, hours (last bin
    /// absorbs `k >= 32`); all-zero without a DR site, otherwise sums to
    /// the mission horizon.
    pub dr_occupancy_hours: [f64; DEGRADED_BINS],
    /// Array-hours spent waiting in the DR admission queue.
    pub dr_queue_wait_hours: f64,
    /// DR admissions (immediate or from the queue).
    pub failovers: u64,
    /// Completed switch-backs from DR to primary.
    pub failbacks: u64,
    /// Arrays that found the site full and joined the FIFO queue.
    pub dr_queue_waits: u64,
    /// Arrays rejected by a full site under [`FailoverPolicy::Loss`].
    pub dr_rejections: u64,
}

impl FleetOutcome {
    /// Total array-downtime of the mission (DU + DL, summed over arrays),
    /// hours.
    pub fn array_downtime_hours(&self) -> f64 {
        self.du_downtime_hours + self.dl_downtime_hours
    }

    /// Array-downtime hours after crediting DR-served time — what the
    /// fleet's users actually lost.
    pub fn credited_array_downtime_hours(&self) -> f64 {
        self.uncovered_down_hours
    }
}

/// Aggregate result of a fleet Monte-Carlo run.
#[derive(Debug, Clone)]
pub struct FleetEstimate {
    /// Student-t interval over per-mission *per-array* availability (each
    /// mission contributes `1 − downtime/(A·horizon)`).
    pub availability: ConfidenceInterval,
    /// Overall per-array availability: total array-uptime over total
    /// array-time — directly comparable to the single-array models.
    pub overall_array_availability: f64,
    /// Fleet availability under the all-arrays-serving definition:
    /// fraction of time **no** array was down.
    pub fleet_availability: f64,
    /// Mean downtime per array per mission, hours.
    pub mean_array_downtime_hours: f64,
    /// Expected annual downtime of one array, hours — the per-array
    /// unavailability scaled by [`HOURS_PER_YEAR`].
    pub annual_array_downtime_hours: f64,
    /// Expected hours per year with at least one array down — the fleet
    /// operator's maintenance-exposure number.
    pub annual_any_down_hours: f64,
    /// Share of array-downtime caused by human error (DU), in `[0, 1]`.
    pub du_downtime_share: f64,
    /// Total DU events across all missions.
    pub du_events: u64,
    /// Total DL events across all missions.
    pub dl_events: u64,
    /// Wilson interval over the per-mission data-loss indicator: the
    /// probability that at least one member array enters DL during a
    /// mission (second disk failure, removed-disk crash, domain strike,
    /// or an LSE-failed rebuild).
    pub p_data_loss: ConfidenceInterval,
    /// NOMDL: expected data-loss events per mission, normalized by the
    /// fleet's usable capacity ([`FleetSpec::usable_capacity`], in disk
    /// units).
    pub nomdl_per_tb: f64,
    /// Mean mission time of the first fleet-wide DL entry, hours, over
    /// the missions that lost data (`None` when none did).
    pub mean_time_to_first_loss_hours: Option<f64>,
    /// Missions in which at least one array entered DL.
    pub loss_missions: u64,
    /// Time-share distribution of simultaneously degraded arrays: entry
    /// `k` is the fraction of simulated time with exactly `k` arrays not
    /// fully operational (last entry: `>= 32`). Sums to 1.
    pub degraded_time_share: [f64; DEGRADED_BINS],
    /// Peak simultaneously-degraded count across all missions.
    pub max_degraded: u32,
    /// Student-t interval over per-mission per-array availability **with
    /// DR credit**: downtime served degraded from the DR site does not
    /// count against it. Matches [`Self::availability`] (to accumulation
    /// rounding) without a DR site, and is exactly 1 in the ideal-DR
    /// limit, where every down hour is covered.
    pub credited_availability: ConfidenceInterval,
    /// Overall per-array availability with DR credit (total array-uptime
    /// plus DR-served time, over total array-time).
    pub overall_credited_array_availability: f64,
    /// Fleet availability with DR credit: fraction of time no array was
    /// down-and-uncovered. Equals [`Self::fleet_availability`] without a
    /// DR site.
    pub credited_fleet_availability: f64,
    /// Time-share distribution of occupied DR slots: entry `k` is the
    /// fraction of simulated time with exactly `k` slots busy (last
    /// entry: `>= 32`). All-zero without a DR site, otherwise sums to 1.
    pub dr_occupancy_share: [f64; DEGRADED_BINS],
    /// Total array-hours spent waiting in the DR admission queue, across
    /// all missions.
    pub dr_queue_wait_hours: f64,
    /// Total DR admissions across all missions.
    pub failovers: u64,
    /// Total completed switch-backs across all missions.
    pub failbacks: u64,
    /// Total DR queue joins across all missions.
    pub dr_queue_waits: u64,
    /// Total Erlang-loss rejections across all missions.
    pub dr_rejections: u64,
    /// Number of missions.
    pub iterations: u64,
    /// Mission time per iteration, hours.
    pub horizon_hours: f64,
    /// Member arrays per mission.
    pub arrays: u32,
    /// Engine telemetry counters, merged in block order (all-zero unless
    /// [`McConfig::telemetry`] is enabled).
    pub counters: CounterSnapshot,
}

impl FleetEstimate {
    /// Per-array unavailability of the overall estimator.
    pub fn array_unavailability(&self) -> f64 {
        1.0 - self.overall_array_availability
    }

    /// Expected simultaneously-degraded arrays (mean of the time-share
    /// distribution; the overflow bin counts as its lower edge, a
    /// negligible underestimate in any realistic regime).
    pub fn mean_degraded(&self) -> f64 {
        self.degraded_time_share
            .iter()
            .enumerate()
            .map(|(k, share)| k as f64 * share)
            .sum()
    }

    /// Per-array unavailability with DR credit.
    pub fn credited_array_unavailability(&self) -> f64 {
        1.0 - self.overall_credited_array_availability
    }

    /// Expected occupied DR slots (mean of the occupancy distribution;
    /// same overflow-bin caveat as [`Self::mean_degraded`]).
    pub fn mean_dr_occupancy(&self) -> f64 {
        self.dr_occupancy_share
            .iter()
            .enumerate()
            .map(|(k, share)| k as f64 * share)
            .sum()
    }

    /// Mean time an array that joined the DR queue spent waiting, hours
    /// (0 when nothing ever queued).
    pub fn mean_dr_queue_wait_hours(&self) -> f64 {
        if self.dr_queue_waits == 0 {
            0.0
        } else {
            self.dr_queue_wait_hours / self.dr_queue_waits as f64
        }
    }
}

/// Running hour sums of a [`DEGRADED_BINS`]-wide time-share histogram.
#[derive(Debug, Clone, Copy)]
struct Bins([f64; DEGRADED_BINS]);

impl Default for Bins {
    fn default() -> Self {
        Bins([0.0; DEGRADED_BINS])
    }
}

impl Bins {
    fn add(&mut self, hours: &[f64; DEGRADED_BINS]) {
        for (acc, h) in self.0.iter_mut().zip(hours) {
            *acc += h;
        }
    }
}

/// The sums behind a [`FleetEstimate`]: the fleet engine's accumulator.
#[derive(Debug, Clone, Copy, Default)]
struct FleetBook {
    /// Member arrays and mission time, hours (context, not summed).
    arrays: u32,
    horizon: f64,
    /// Per-mission per-array availability, plain and with DR credit.
    stats: RunningStats,
    credited_stats: RunningStats,
    du_dt: f64,
    dl_dt: f64,
    any_down: f64,
    uncovered: f64,
    uncovered_any: f64,
    dr_queue_wait: f64,
    du_events: u64,
    dl_events: u64,
    loss_missions: u64,
    first_loss_sum: f64,
    failovers: u64,
    failbacks: u64,
    dr_queue_waits: u64,
    dr_rejections: u64,
    max_degraded: u32,
    hist: Bins,
    dr_hist: Bins,
}

impl Accumulator for FleetBook {
    type Outcome = FleetOutcome;
    type Estimate = FleetEstimate;

    fn push(&mut self, out: &FleetOutcome) {
        let array_time = f64::from(self.arrays) * self.horizon;
        self.stats
            .push(1.0 - out.array_downtime_hours() / array_time);
        // Uncovered downtime is accrued directly, so the ideal-DR limit
        // (everything covered) pushes an exact 1.0 here every mission.
        self.credited_stats
            .push(1.0 - out.credited_array_downtime_hours() / array_time);
        self.du_dt += out.du_downtime_hours;
        self.dl_dt += out.dl_downtime_hours;
        self.any_down += out.any_down_hours;
        self.uncovered += out.uncovered_down_hours;
        self.uncovered_any += out.uncovered_any_down_hours;
        self.dr_queue_wait += out.dr_queue_wait_hours;
        self.du_events += out.du_events;
        self.dl_events += out.dl_events;
        if out.first_loss_hours.is_finite() {
            self.loss_missions += 1;
            self.first_loss_sum += out.first_loss_hours;
        }
        self.failovers += out.failovers;
        self.failbacks += out.failbacks;
        self.dr_queue_waits += out.dr_queue_waits;
        self.dr_rejections += out.dr_rejections;
        self.max_degraded = self.max_degraded.max(out.max_degraded);
        self.hist.add(&out.degraded_hours);
        self.dr_hist.add(&out.dr_occupancy_hours);
    }

    fn merge(&mut self, b: &Self) {
        self.stats.merge(&b.stats);
        self.credited_stats.merge(&b.credited_stats);
        self.du_dt += b.du_dt;
        self.dl_dt += b.dl_dt;
        self.any_down += b.any_down;
        self.uncovered += b.uncovered;
        self.uncovered_any += b.uncovered_any;
        self.dr_queue_wait += b.dr_queue_wait;
        self.du_events += b.du_events;
        self.dl_events += b.dl_events;
        self.loss_missions += b.loss_missions;
        self.first_loss_sum += b.first_loss_sum;
        self.failovers += b.failovers;
        self.failbacks += b.failbacks;
        self.dr_queue_waits += b.dr_queue_waits;
        self.dr_rejections += b.dr_rejections;
        self.max_degraded = self.max_degraded.max(b.max_degraded);
        self.hist.add(&b.hist.0);
        self.dr_hist.add(&b.dr_hist.0);
    }

    fn loss_events(&self) -> f64 {
        self.dl_events as f64
    }

    fn finish(
        self,
        config: &McConfig,
        nomdl_per_tb: f64,
        counters: CounterSnapshot,
    ) -> Result<FleetEstimate> {
        let iterations = config.iterations;
        let arrays = f64::from(self.arrays);
        let availability = t_interval(&self.stats, config.confidence).map_err(CoreError::from)?;
        let credited_availability =
            t_interval(&self.credited_stats, config.confidence).map_err(CoreError::from)?;
        let p_data_loss = wilson_interval(self.loss_missions, iterations, config.confidence)
            .map_err(CoreError::from)?;
        let total_time = self.horizon * iterations as f64;
        let downtime = self.du_dt + self.dl_dt;
        let array_u = downtime / (arrays * total_time);
        let credited_u = self.uncovered / (arrays * total_time);
        let any_down_u = self.any_down / total_time;
        let uncovered_any_u = self.uncovered_any / total_time;
        Ok(FleetEstimate {
            availability,
            overall_array_availability: 1.0 - array_u,
            fleet_availability: 1.0 - any_down_u,
            mean_array_downtime_hours: downtime / (arrays * iterations as f64),
            annual_array_downtime_hours: array_u * HOURS_PER_YEAR,
            annual_any_down_hours: any_down_u * HOURS_PER_YEAR,
            du_downtime_share: if downtime > 0.0 {
                self.du_dt / downtime
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
            degraded_time_share: self.hist.0.map(|h| h / total_time),
            max_degraded: self.max_degraded,
            credited_availability,
            overall_credited_array_availability: 1.0 - credited_u,
            credited_fleet_availability: 1.0 - uncovered_any_u,
            dr_occupancy_share: self.dr_hist.0.map(|h| h / total_time),
            dr_queue_wait_hours: self.dr_queue_wait,
            failovers: self.failovers,
            failbacks: self.failbacks,
            dr_queue_waits: self.dr_queue_waits,
            dr_rejections: self.dr_rejections,
            iterations,
            horizon_hours: self.horizon,
            arrays: self.arrays,
            counters,
        })
    }
}

/// The fleet-scale Monte-Carlo engine (see the module docs).
#[derive(Debug)]
pub struct FleetMc {
    spec: FleetSpec,
    params: ModelParams,
    failures: FailureModel,
    coupling: FleetCoupling,
}

impl FleetMc {
    /// Creates the engine with exponential failures at the params' rate.
    ///
    /// # Errors
    /// Propagates parameter validation errors; the params' geometry must
    /// be the fleet's geometry.
    pub fn new(spec: FleetSpec, params: ModelParams) -> Result<Self> {
        let failures = FailureModel::exponential(params.disk_failure_rate)?;
        FleetMc::with_failure_model(spec, params, failures)
    }

    /// Creates the engine with an explicit failure distribution (e.g. a
    /// Weibull field fit); the params' `disk_failure_rate` is ignored for
    /// sampling.
    ///
    /// # Errors
    /// Propagates parameter validation errors; the params' geometry must
    /// be the fleet's geometry.
    pub fn with_failure_model(
        spec: FleetSpec,
        params: ModelParams,
        failures: FailureModel,
    ) -> Result<Self> {
        params.validate()?;
        if params.geometry != spec.geometry() {
            return Err(CoreError::InvalidParameter(format!(
                "fleet geometry {} does not match model geometry {}",
                spec.geometry().label(),
                params.geometry.label()
            )));
        }
        Ok(FleetMc {
            spec,
            params,
            failures,
            coupling: FleetCoupling::default(),
        })
    }

    /// Enables correlated-failure couplings (operator dependence and/or
    /// domain knockouts). The repair-crew pool lives on the
    /// [`FleetSpec`] ([`FleetSpec::with_repairmen`]).
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] for a domain shelf of zero
    /// arrays, wider than the fleet, or a non-positive knockout rate.
    pub fn with_coupling(mut self, coupling: FleetCoupling) -> Result<Self> {
        if let Some(d) = coupling.domains {
            if d.domain_arrays == 0 {
                return Err(CoreError::InvalidParameter(
                    "failure domain needs at least one array per shelf".into(),
                ));
            }
            if d.domain_arrays > self.spec.arrays() {
                return Err(CoreError::InvalidParameter(format!(
                    "failure domain of {} arrays exceeds the fleet of {}",
                    d.domain_arrays,
                    self.spec.arrays()
                )));
            }
            if !(d.rate.is_finite() && d.rate > 0.0) {
                return Err(CoreError::InvalidParameter(format!(
                    "domain failure rate must be positive and finite, got {}",
                    d.rate
                )));
            }
        }
        self.coupling = coupling;
        Ok(self)
    }

    /// The correlated-failure configuration.
    pub fn coupling(&self) -> FleetCoupling {
        self.coupling
    }

    /// The fleet specification.
    pub fn spec(&self) -> FleetSpec {
        self.spec
    }

    /// The per-array model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Runs the full fleet Monte-Carlo estimation.
    ///
    /// Missions run through the same block runner as the single-array
    /// models, and the per-block sums (the degraded and DR histograms
    /// included) merge in block order, so the [`McConfig::threads`]
    /// determinism contract holds: `threads = 1` and `threads = N` produce
    /// byte-identical estimates.
    ///
    /// # Errors
    /// Propagates configuration errors. Rare-event schemes are rejected:
    /// fleet missions aggregate many arrays, so outages are *common* at
    /// fleet scale and [`McVariance::Naive`] is the meaningful sampler.
    pub fn run(&self, config: &McConfig) -> Result<FleetEstimate> {
        self.run_with_cancel(config, None)
    }

    /// [`run`](Self::run) plus an optional cooperative
    /// [`CancelToken`](availsim_sim::parallel::CancelToken): a tripped
    /// deadline or explicit cancel stops the block scheduler and returns
    /// [`CoreError::DeadlineExpired`](crate::CoreError::DeadlineExpired)
    /// instead of an estimate (partial fleet aggregates would be
    /// timing-dependent). Uncancelled runs are bit-identical to
    /// [`run`](Self::run).
    ///
    /// # Errors
    /// As [`run`](Self::run), plus `DeadlineExpired` on cancellation.
    pub fn run_with_cancel(
        &self,
        config: &McConfig,
        cancel: Option<&availsim_sim::parallel::CancelToken>,
    ) -> Result<FleetEstimate> {
        config.validate()?;
        if config.variance != McVariance::Naive {
            return Err(CoreError::InvalidParameter(format!(
                "fleet simulation supports only naive sampling \
                 (fleet-level outages are not rare events), got {}",
                config.variance
            )));
        }
        let empty = FleetBook {
            arrays: self.spec.arrays(),
            horizon: config.horizon_hours,
            ..FleetBook::default()
        };
        super::run_blocks(
            config,
            self.spec.usable_capacity() as f64,
            cancel,
            empty,
            |ws, i| {
                let mut rng = SimRng::substream(config.seed, i);
                self.simulate_once_with(config.horizon_hours, &mut rng, ws)
            },
        )
    }

    /// Simulates one fleet mission on a reusable [`SimWorkspace`] —
    /// allocation-free once the workspace buffers have grown. The mission
    /// fully resets the fleet scratch it uses, so workspaces can be shared
    /// across missions and models.
    ///
    /// The per-array transition semantics are the Fig. 2 chain written out
    /// by hand (per-disk clocks, gen/epoch staleness guards, service races
    /// with loser cancellation, full renewal on every return to OP) with
    /// array-indexed state. They stay apart from the chain definition on
    /// purpose: this independent transcription is what
    /// `crates/core/tests/fleet.rs` holds to the exact chain (A = 1) and
    /// to the single-array engines (per-array CI overlap at A = 16).
    pub fn simulate_once_with(
        &self,
        horizon: f64,
        rng: &mut SimRng,
        ws: &mut SimWorkspace,
    ) -> FleetOutcome {
        let a = self.spec.arrays() as usize;
        let n = self.spec.geometry().total_disks() as usize;
        let p = &self.params;
        let hep = p.hep.value();
        // Reciprocal service rates: the armed draws multiply by a cached
        // 1/rate (∞ = disabled, drawing nothing, like `sample_exp(0)`).
        let repair_ok_inv = ((1.0 - hep) * p.disk_repair_rate).recip();
        let wrong_inv = (hep * p.disk_change_rate).recip();
        let recover_inv = ((1.0 - hep) * p.human_recovery_rate).recip();
        let crash_inv = p.removed_crash_rate.recip();
        let restore_inv = p.ddf_recovery_rate.recip();
        // Shared-resource couplings. An unlimited crew pool is the `busy`
        // counter never reaching the cap: the serve-immediately branch is
        // the exact uncoupled code path (no extra draws, FIFO untouched).
        let crew_cap = self.spec.repairmen().unwrap_or(u32::MAX);
        let mut busy = 0u32;
        let level = self.coupling.dependence;
        let domain_inv = match self.coupling.domains {
            Some(d) => d.rate.recip(),
            None => f64::INFINITY,
        };
        // Shared DR site (Fig. 3 fail-over). The ideal limit (`capacity:
        // None`) admits everything and fails back instantly without a
        // switch-back race — no draws, so its stream is bit-identical to
        // the no-DR engine; only the downtime credit differs.
        let dr = self.spec.failover();
        let dr_on = dr.is_some();
        let dr_ideal = matches!(dr, Some(f) if f.capacity.is_none());
        let dr_cap = match dr {
            Some(f) => f.capacity.unwrap_or(u32::MAX),
            None => 0,
        };
        let dr_policy = dr.map(|f| f.policy).unwrap_or_default();
        let (fb_ok_inv, fb_slip_inv) = match dr {
            Some(f) if !dr_ideal => failback_race_inv(hep, f.failback_rate),
            _ => (f64::INFINITY, f64::INFINITY),
        };
        let mut dr_busy = 0u32; // slots held (serving or failing back)
        let mut dr_queued = 0u32; // arrays in the DR FIFO
        let mut covered = 0u32; // down arrays served from DR
        let (mut failovers, mut failbacks) = (0u64, 0u64);
        let (mut dr_queue_waits, mut dr_rejections) = (0u64, 0u64);

        ws.fleet.reset(a, n);
        let tele = &mut ws.telemetry;
        let FleetScratch {
            queue,
            arrays,
            slot_gen,
            svc,
            fifo,
            dr_fifo,
            dr_token,
        } = &mut ws.fleet;
        // Draw and coupling tallies, accumulated locally and flushed once
        // per mission (queue traffic is counted inside the queue itself).
        let (mut ttf_draws, mut exp_draws) = (0u64, 0u64);
        let (mut crew_waits, mut domain_strikes) = (0u64, 0u64);
        // Rebuild-LSE exposure: a completed rebuild loses data with this
        // probability. Zero keeps the mission draw-free on that branch
        // (the Bernoulli uniform is only drawn when the rate is live).
        let p_lse = p.rebuild_lse_probability();
        let (mut uniform_draws, mut lse_hits) = (0u64, 0u64);

        let mut out = FleetOutcome {
            du_downtime_hours: 0.0,
            dl_downtime_hours: 0.0,
            any_down_hours: 0.0,
            du_events: 0,
            dl_events: 0,
            first_loss_hours: f64::INFINITY,
            max_degraded: 0,
            degraded_hours: [0.0; DEGRADED_BINS],
            uncovered_down_hours: 0.0,
            uncovered_any_down_hours: 0.0,
            dr_occupancy_hours: [0.0; DEGRADED_BINS],
            dr_queue_wait_hours: 0.0,
            failovers: 0,
            failbacks: 0,
            dr_queue_waits: 0,
            dr_rejections: 0,
        };
        // Fleet-wide occupancy counters, updated on every transition; the
        // interval between consecutive events is accrued against them.
        let mut not_op = 0u32; // arrays degraded or down
        let mut in_du = 0u32; // arrays in DU
        let mut in_dl = 0u32; // arrays in DL
        let mut t_prev = 0.0f64;

        // Seed every disk clock of every array. Draws happen for all
        // clocks (the stream is the contract); only sub-horizon events
        // enter the queue — with realistic λ·horizon that is a small
        // fraction, which keeps the heap shallow.
        for array in 0..a {
            for slot in 0..n {
                let t = self.failures.sample_ttf(rng);
                ttf_draws += 1;
                if t <= horizon {
                    let _ = queue.schedule_at(
                        t,
                        FleetEv::Fail {
                            array: array as u32,
                            slot: slot as u8,
                            gen: 0,
                        },
                    );
                } else {
                    queue.note_expired();
                }
            }
        }
        // Seed the shelf clocks after the disk clocks (drawing nothing
        // when domains are off — the independent limit's stream contract).
        if let Some(d) = self.coupling.domains {
            let shelves = a.div_ceil(d.domain_arrays as usize);
            for domain in 0..shelves {
                if let Some(t) = rng.sample_exp_inv(domain_inv) {
                    exp_draws += 1;
                    if t <= horizon {
                        let _ = queue.schedule_at(
                            t,
                            FleetEv::Domain {
                                domain: domain as u32,
                            },
                        );
                    } else {
                        queue.note_expired();
                    }
                }
            }
        }

        macro_rules! accrue {
            ($t:expr) => {{
                let dt = $t - t_prev;
                if dt > 0.0 {
                    let bin = (not_op as usize).min(DEGRADED_BINS - 1);
                    out.degraded_hours[bin] += dt;
                    if in_du > 0 {
                        out.du_downtime_hours += f64::from(in_du) * dt;
                    }
                    if in_dl > 0 {
                        out.dl_downtime_hours += f64::from(in_dl) * dt;
                    }
                    if in_du + in_dl > 0 {
                        out.any_down_hours += dt;
                    }
                    if in_du + in_dl > covered {
                        out.uncovered_down_hours += f64::from(in_du + in_dl - covered) * dt;
                        out.uncovered_any_down_hours += dt;
                    }
                    if dr_on {
                        let bin = (dr_busy as usize).min(DEGRADED_BINS - 1);
                        out.dr_occupancy_hours[bin] += dt;
                        if dr_queued > 0 {
                            out.dr_queue_wait_hours += f64::from(dr_queued) * dt;
                        }
                    }
                    t_prev = $t;
                }
            }};
        }
        // Arms one exit of a service or fail-back race. Race timers ride
        // the timer lane, so that on a large fleet their schedules,
        // cancels and pops touch a few timers instead of sifting through
        // the pending disk clocks (see the module doc).
        macro_rules! arm {
            ($array:expr, $epoch:expr, $lane:expr, $kind:expr, $inv_rate:expr) => {
                svc[$array as usize][$lane] = match rng.sample_exp_inv($inv_rate) {
                    Some(dt) => {
                        exp_draws += 1;
                        if queue.now() + dt <= horizon {
                            queue
                                .schedule_timer(
                                    dt,
                                    FleetEv::Service {
                                        array: $array,
                                        kind: $kind,
                                        epoch: $epoch,
                                    },
                                )
                                .ok()
                        } else {
                            queue.note_expired();
                            None
                        }
                    }
                    None => None,
                };
            };
        }
        macro_rules! cancel_svc {
            ($array:expr, $lane:expr) => {
                if let Some(h) = svc[$array as usize][$lane].take() {
                    queue.cancel(h);
                }
            };
        }
        macro_rules! reseed_slot {
            ($array:expr, $slot:expr) => {{
                let idx = $array as usize * n + $slot as usize;
                slot_gen[idx] += 1;
                let tt = self.failures.sample_ttf(rng);
                ttf_draws += 1;
                if queue.now() + tt <= horizon {
                    let _ = queue.schedule(
                        tt,
                        FleetEv::Fail {
                            array: $array,
                            slot: $slot,
                            gen: slot_gen[idx],
                        },
                    );
                } else {
                    queue.note_expired();
                }
            }};
        }
        // Per-incident service rates under THERP operator dependence:
        // `$others` concurrently degraded arrays escalate the hep by as
        // many conditional steps. Zero dependence (or no concurrency)
        // short-circuits to the precomputed reciprocals — the formulas
        // below are identical, so the shortcut is bit-exact.
        macro_rules! svc_rates {
            ($others:expr) => {{
                let others: u32 = $others;
                if level == DependenceLevel::Zero || others == 0 {
                    (repair_ok_inv, wrong_inv, recover_inv)
                } else {
                    let h = escalated(p.hep, level, others).value();
                    (
                        ((1.0 - h) * p.disk_repair_rate).recip(),
                        (h * p.disk_change_rate).recip(),
                        ((1.0 - h) * p.human_recovery_rate).recip(),
                    )
                }
            }};
        }
        // Arms the crew-bound service race for `$array`'s current mode —
        // used both when a crew is free at degradation time and when a
        // released crew reaches a waiting array.
        macro_rules! start_service {
            ($array:expr, $epoch:expr, $mode:expr) => {{
                match $mode {
                    Mode::Exp => {
                        let (ri, wi, _) = svc_rates!(not_op - 1);
                        arm!($array, $epoch, 0, Service::RepairOk, ri);
                        arm!($array, $epoch, 1, Service::WrongPull, wi);
                    }
                    Mode::Dl => {
                        arm!($array, $epoch, 0, Service::Restore, restore_inv);
                    }
                    // Reachable only through the DR fail-back slip, which
                    // can leave a DU array waiting for a crew.
                    Mode::Du => {
                        let (_, _, rec) = svc_rates!(not_op - 1);
                        arm!($array, $epoch, 0, Service::RecoveryOk, rec);
                        arm!($array, $epoch, 1, Service::RemovedCrash, crash_inv);
                    }
                    // A crew is never dispatched to a healthy array.
                    Mode::Op => {}
                }
            }};
        }
        // Returns one crew to the pool: hand it to the first waiting
        // array (FIFO), or free it. In the unlimited-pool limit the queue
        // is always empty and this is a bare counter decrement — no
        // draws, no stream perturbation.
        macro_rules! release_crew {
            () => {{
                let mut handed_over = false;
                while let Some(next) = fifo.pop_front() {
                    let ns = &mut arrays[next as usize];
                    if !ns.waiting {
                        continue; // defensive: episodes enqueue once
                    }
                    ns.waiting = false;
                    let (mode, epoch) = (ns.mode, ns.epoch);
                    start_service!(next, epoch, mode);
                    handed_over = true;
                    break;
                }
                if !handed_over {
                    busy -= 1;
                }
            }};
        }
        // An array leaving OP asks the DR site for a slot: admitted if one
        // is free, queued FIFO or rejected (loss policy) otherwise. An
        // array re-struck mid fail-back already holds a slot — the
        // switch-back race is simply voided. Draw-free on every path.
        macro_rules! dr_request {
            ($array:expr, $st:expr) => {
                if dr_on {
                    match $st.dr {
                        DrState::Serving => {
                            cancel_svc!($array, 0);
                            cancel_svc!($array, 1);
                        }
                        DrState::None => {
                            if dr_busy < dr_cap {
                                dr_busy += 1;
                                $st.dr = DrState::Serving;
                                failovers += 1;
                            } else if dr_policy == FailoverPolicy::Queue {
                                $st.dr = DrState::Queued;
                                dr_token[$array as usize] += 1;
                                dr_fifo.push_back(($array, dr_token[$array as usize]));
                                dr_queued += 1;
                                dr_queue_waits += 1;
                            } else {
                                dr_rejections += 1;
                            }
                        }
                        // Queued arrays are non-OP, and every request
                        // site fires on an array leaving OP.
                        DrState::Queued => {}
                    }
                }
            };
        }
        // Frees one DR slot: hand it to the first still-queued array
        // (token-guarded — arrays leave the queue early by repairing to
        // OP), or release it.
        macro_rules! dr_release {
            () => {{
                let mut handed_over = false;
                while let Some((next, tok)) = dr_fifo.pop_front() {
                    let ni = next as usize;
                    if dr_token[ni] != tok {
                        continue; // left the queue on an earlier return to OP
                    }
                    let ns = &mut arrays[ni];
                    ns.dr = DrState::Serving;
                    dr_queued -= 1;
                    failovers += 1;
                    if matches!(ns.mode, Mode::Du | Mode::Dl) {
                        covered += 1;
                    }
                    handed_over = true;
                    break;
                }
                if !handed_over {
                    dr_busy -= 1;
                }
            }};
        }
        // An array returning to OP settles with the DR site: a serving
        // array starts the Fig. 3 switch-back race (or, in the ideal
        // limit, fails back instantly and draw-free); a queued array
        // abandons its place.
        macro_rules! dr_return {
            ($array:expr, $epoch:expr) => {
                if dr_on {
                    let ai = $array as usize;
                    match arrays[ai].dr {
                        DrState::Serving => {
                            if dr_ideal {
                                arrays[ai].dr = DrState::None;
                                failbacks += 1;
                                dr_busy -= 1;
                            } else {
                                arm!($array, $epoch, 0, Service::FailbackOk, fb_ok_inv);
                                arm!($array, $epoch, 1, Service::FailbackSlip, fb_slip_inv);
                            }
                        }
                        DrState::Queued => {
                            arrays[ai].dr = DrState::None;
                            dr_token[ai] += 1;
                            dr_queued -= 1;
                        }
                        DrState::None => {}
                    }
                }
            };
        }

        while let Some((t, ev)) = queue.pop_due(horizon) {
            match ev {
                FleetEv::Fail { array, slot, gen } => {
                    let idx = array as usize * n + slot as usize;
                    if gen != slot_gen[idx] {
                        continue; // stale clock
                    }
                    slot_gen[idx] += 1; // no longer ticking
                    let st = &mut arrays[array as usize];
                    match st.mode {
                        Mode::Op => {
                            accrue!(t);
                            st.mode = Mode::Exp;
                            st.epoch += 1;
                            st.failed_slot = slot;
                            not_op += 1;
                            out.max_degraded = out.max_degraded.max(not_op);
                            dr_request!(array, st);
                            let epoch = st.epoch;
                            if busy < crew_cap {
                                busy += 1;
                                start_service!(array, epoch, Mode::Exp);
                            } else {
                                st.waiting = true;
                                fifo.push_back(array);
                                crew_waits += 1;
                            }
                        }
                        Mode::Exp => {
                            // Second failure: data loss.
                            accrue!(t);
                            st.mode = Mode::Dl;
                            st.epoch += 1;
                            out.dl_events += 1;
                            out.first_loss_hours = out.first_loss_hours.min(t);
                            in_dl += 1;
                            if st.dr == DrState::Serving {
                                covered += 1;
                            }
                            // The pending service race is void.
                            cancel_svc!(array, 0);
                            cancel_svc!(array, 1);
                            if !st.waiting {
                                // In service: the crew switches to the
                                // restore. A waiting array keeps its FIFO
                                // place and restores once a crew arrives.
                                let epoch = st.epoch;
                                arm!(array, epoch, 0, Service::Restore, restore_inv);
                            }
                        }
                        // Quiesced while down; resampled on return to OP.
                        Mode::Du | Mode::Dl => {}
                    }
                }
                FleetEv::Service {
                    array,
                    kind,
                    epoch: ev_epoch,
                } => {
                    let st = &mut arrays[array as usize];
                    if ev_epoch != st.epoch {
                        continue; // stale service event
                    }
                    match (st.mode, kind) {
                        (Mode::Exp, Service::RepairOk) => {
                            accrue!(t);
                            st.epoch += 1;
                            svc[array as usize][0] = None;
                            cancel_svc!(array, 1);
                            // A completed rebuild read every surviving
                            // disk; with a scrubbing model attached it hit
                            // a latent sector error with probability
                            // `p_lse` and actually lost data. The uniform
                            // is drawn only when the rate is live, so the
                            // `p_lse = 0` stream is bit-identical.
                            let lse_hit = p_lse > 0.0 && {
                                uniform_draws += 1;
                                rng.next_f64() < p_lse
                            };
                            if lse_hit {
                                st.mode = Mode::Dl;
                                out.dl_events += 1;
                                out.first_loss_hours = out.first_loss_hours.min(t);
                                lse_hits += 1;
                                in_dl += 1;
                                if st.dr == DrState::Serving {
                                    covered += 1;
                                }
                                // RepairOk only fires on an in-service
                                // array, so the crew is on site and
                                // switches to the restore; `not_op` is
                                // unchanged (still degraded).
                                let epoch = st.epoch;
                                arm!(array, epoch, 0, Service::Restore, restore_inv);
                            } else {
                                st.mode = Mode::Op;
                                not_op -= 1;
                                let slot = st.failed_slot;
                                let epoch = st.epoch;
                                reseed_slot!(array, slot);
                                release_crew!();
                                dr_return!(array, epoch);
                            }
                        }
                        (Mode::Exp, Service::WrongPull) => {
                            accrue!(t);
                            st.mode = Mode::Du;
                            st.epoch += 1;
                            out.du_events += 1;
                            in_du += 1;
                            if st.dr == DrState::Serving {
                                covered += 1;
                            }
                            svc[array as usize][1] = None;
                            cancel_svc!(array, 0);
                            let epoch = st.epoch;
                            // The crew stays on the array; its recovery
                            // attempt runs at the escalated-hep rate.
                            let (_, _, rec) = svc_rates!(not_op - 1);
                            arm!(array, epoch, 0, Service::RecoveryOk, rec);
                            arm!(array, epoch, 1, Service::RemovedCrash, crash_inv);
                        }
                        (Mode::Du, Service::RecoveryOk) => {
                            accrue!(t);
                            st.mode = Mode::Op;
                            st.epoch += 1;
                            in_du -= 1;
                            not_op -= 1;
                            if st.dr == DrState::Serving {
                                covered -= 1;
                            }
                            svc[array as usize][0] = None;
                            cancel_svc!(array, 1);
                            let epoch = st.epoch;
                            for slot in 0..n {
                                reseed_slot!(array, slot as u8);
                            }
                            release_crew!();
                            dr_return!(array, epoch);
                        }
                        (Mode::Du, Service::RemovedCrash) => {
                            accrue!(t);
                            st.mode = Mode::Dl;
                            st.epoch += 1;
                            out.dl_events += 1;
                            out.first_loss_hours = out.first_loss_hours.min(t);
                            in_du -= 1;
                            in_dl += 1;
                            svc[array as usize][1] = None;
                            cancel_svc!(array, 0);
                            let epoch = st.epoch;
                            arm!(array, epoch, 0, Service::Restore, restore_inv);
                        }
                        (Mode::Dl, Service::Restore) => {
                            accrue!(t);
                            st.mode = Mode::Op;
                            st.epoch += 1;
                            in_dl -= 1;
                            not_op -= 1;
                            if st.dr == DrState::Serving {
                                covered -= 1;
                            }
                            svc[array as usize][0] = None;
                            let epoch = st.epoch;
                            for slot in 0..n {
                                reseed_slot!(array, slot as u8);
                            }
                            release_crew!();
                            dr_return!(array, epoch);
                        }
                        (Mode::Op, Service::FailbackOk) => {
                            // Clean switch-back: the array drops its DR
                            // slot, which goes to the next queued array.
                            accrue!(t);
                            st.epoch += 1;
                            st.dr = DrState::None;
                            svc[array as usize][0] = None;
                            cancel_svc!(array, 1);
                            failbacks += 1;
                            dr_release!();
                        }
                        (Mode::Op, Service::FailbackSlip) => {
                            // Botched switch-back (Fig. 3 DR-side human
                            // error): the primary goes DU; the array keeps
                            // its slot and keeps serving from DR while a
                            // crew recovers the primary.
                            accrue!(t);
                            st.mode = Mode::Du;
                            st.epoch += 1;
                            out.du_events += 1;
                            in_du += 1;
                            not_op += 1;
                            out.max_degraded = out.max_degraded.max(not_op);
                            covered += 1; // still Serving by construction
                            svc[array as usize][1] = None;
                            cancel_svc!(array, 0);
                            let epoch = st.epoch;
                            if busy < crew_cap {
                                busy += 1;
                                start_service!(array, epoch, Mode::Du);
                            } else {
                                st.waiting = true;
                                fifo.push_back(array);
                                crew_waits += 1;
                            }
                        }
                        // Stale/impossible pair.
                        _ => {}
                    }
                }
                FleetEv::Domain { domain } => {
                    let d = self
                        .coupling
                        .domains
                        .expect("domain events only exist when domains are on");
                    accrue!(t);
                    domain_strikes += 1;
                    let lo = domain as usize * d.domain_arrays as usize;
                    let hi = (lo + d.domain_arrays as usize).min(a);
                    for (hit, st) in arrays.iter_mut().enumerate().take(hi).skip(lo) {
                        let array = hit as u32;
                        match st.mode {
                            // Already lost; the strike adds nothing.
                            Mode::Dl => {}
                            Mode::Op => {
                                st.mode = Mode::Dl;
                                st.epoch += 1;
                                not_op += 1;
                                out.max_degraded = out.max_degraded.max(not_op);
                                in_dl += 1;
                                out.dl_events += 1;
                                out.first_loss_hours = out.first_loss_hours.min(t);
                                dr_request!(array, st);
                                if st.dr == DrState::Serving {
                                    covered += 1;
                                }
                                let epoch = st.epoch;
                                if busy < crew_cap {
                                    busy += 1;
                                    start_service!(array, epoch, Mode::Dl);
                                } else {
                                    st.waiting = true;
                                    fifo.push_back(array);
                                    crew_waits += 1;
                                }
                            }
                            Mode::Exp => {
                                st.mode = Mode::Dl;
                                st.epoch += 1;
                                in_dl += 1;
                                out.dl_events += 1;
                                out.first_loss_hours = out.first_loss_hours.min(t);
                                if st.dr == DrState::Serving {
                                    covered += 1;
                                }
                                cancel_svc!(array, 0);
                                cancel_svc!(array, 1);
                                if !st.waiting {
                                    // The crew already on site switches
                                    // to the restore.
                                    let epoch = st.epoch;
                                    arm!(array, epoch, 0, Service::Restore, restore_inv);
                                }
                            }
                            Mode::Du => {
                                st.mode = Mode::Dl;
                                st.epoch += 1;
                                in_du -= 1;
                                in_dl += 1;
                                out.dl_events += 1;
                                out.first_loss_hours = out.first_loss_hours.min(t);
                                cancel_svc!(array, 0);
                                cancel_svc!(array, 1);
                                if !st.waiting {
                                    // In service (a fail-back slip can
                                    // leave DU arrays waiting): the crew
                                    // on site switches to the restore.
                                    let epoch = st.epoch;
                                    arm!(array, epoch, 0, Service::Restore, restore_inv);
                                }
                            }
                        }
                    }
                    // Re-arm the shelf clock.
                    if let Some(dt) = rng.sample_exp_inv(domain_inv) {
                        exp_draws += 1;
                        if queue.now() + dt <= horizon {
                            let _ = queue.schedule(dt, FleetEv::Domain { domain });
                        } else {
                            queue.note_expired();
                        }
                    }
                }
            }
        }
        accrue!(horizon);
        let _ = t_prev; // final accrual's cursor write is intentionally dead
        out.failovers = failovers;
        out.failbacks = failbacks;
        out.dr_queue_waits = dr_queue_waits;
        out.dr_rejections = dr_rejections;
        if tele.enabled() {
            tele.add(Counter::RngLifetimeDraws, ttf_draws);
            tele.add(Counter::RngExpDraws, exp_draws);
            tele.add(Counter::RngUniformDraws, uniform_draws);
            tele.add(Counter::RebuildLseHits, lse_hits);
            tele.add(Counter::DataLossEvents, out.dl_events);
            tele.add(Counter::FleetCrewWaits, crew_waits);
            tele.add(Counter::FleetDomainStrikes, domain_strikes);
            tele.add(Counter::FleetFailovers, failovers);
            tele.add(Counter::FleetDrQueueWaits, dr_queue_waits);
            tele.add(Counter::FleetDrRejections, dr_rejections);
            tele.add(Counter::FleetFailbacks, failbacks);
        }
        out
    }
}

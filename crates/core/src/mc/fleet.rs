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
//! One mission in flight is a private `FleetMission`, which owns the
//! scratch tables and the RNG, the fleet's occupancy counts (arrays not
//! in OP, in DU, in DL and DR-covered; crews and DR slots busy or queued),
//! the [`FleetOutcome`] being built and the draw tallies. Each Fig. 2
//! decision is one method of it, written once: accrue to `t`; schedule an
//! event or count it expired; arm or void a race; renew a disk; enter EXP,
//! DU or DL (an array leaving OP asks the DR site for a slot, then takes
//! a crew or joins the crew FIFO); return to OP; hand on a crew or a DR
//! slot; settle with the DR site.
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
use availsim_sim::telemetry::{Counter, CounterSnapshot, Telemetry};
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

impl Mode {
    /// Whether the array is down (DU or DL).
    fn is_down(self) -> bool {
        matches!(self, Mode::Du | Mode::Dl)
    }
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

impl Service {
    /// The race lane the exit rides: 0 for the recovery-flavoured exit,
    /// 1 for the failure-flavoured one.
    fn lane(self) -> usize {
        match self {
            Service::RepairOk | Service::RecoveryOk | Service::Restore | Service::FailbackOk => 0,
            Service::WrongPull | Service::RemovedCrash | Service::FailbackSlip => 1,
        }
    }
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
    /// Pending service handles per array, by race lane
    /// ([`Service::lane`]): when one fires, the sibling is cancelled in
    /// place instead of surfacing later as a stale pop in the shared heap.
    svc: Vec<[Option<IndexedEventHandle>; 2]>,
    /// Arrays waiting for a repair crew, FIFO: exactly the arrays whose
    /// `waiting` flag is set. An array appears at most once per degraded
    /// episode (it can only return to OP through a service, which
    /// requires the crew it is waiting for).
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
    /// A mission before its first event, and the identity of `add`.
    const EMPTY: FleetOutcome = FleetOutcome {
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

    /// Adds `b`'s hours and counts, keeping the higher degraded peak and
    /// the earlier first loss.
    fn add(&mut self, b: &FleetOutcome) {
        self.du_downtime_hours += b.du_downtime_hours;
        self.dl_downtime_hours += b.dl_downtime_hours;
        self.any_down_hours += b.any_down_hours;
        self.du_events += b.du_events;
        self.dl_events += b.dl_events;
        self.first_loss_hours = self.first_loss_hours.min(b.first_loss_hours);
        self.max_degraded = self.max_degraded.max(b.max_degraded);
        for (acc, h) in self.degraded_hours.iter_mut().zip(&b.degraded_hours) {
            *acc += h;
        }
        self.uncovered_down_hours += b.uncovered_down_hours;
        self.uncovered_any_down_hours += b.uncovered_any_down_hours;
        for (acc, h) in self
            .dr_occupancy_hours
            .iter_mut()
            .zip(&b.dr_occupancy_hours)
        {
            *acc += h;
        }
        self.dr_queue_wait_hours += b.dr_queue_wait_hours;
        self.failovers += b.failovers;
        self.failbacks += b.failbacks;
        self.dr_queue_waits += b.dr_queue_waits;
        self.dr_rejections += b.dr_rejections;
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

/// The sums behind a [`FleetEstimate`]: the fleet engine's accumulator.
#[derive(Debug, Clone, Copy)]
struct FleetBook {
    /// Member arrays and mission time, hours (context, not summed).
    arrays: u32,
    horizon: f64,
    /// Per-mission per-array availability, plain and with DR credit.
    stats: RunningStats,
    credited_stats: RunningStats,
    /// The missions' outcomes, added up.
    sums: FleetOutcome,
    /// Missions that lost data, and their first-loss times summed.
    loss_missions: u64,
    first_loss_sum: f64,
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
        self.sums.add(out);
        if out.first_loss_hours.is_finite() {
            self.loss_missions += 1;
            self.first_loss_sum += out.first_loss_hours;
        }
    }

    fn merge(&mut self, b: &Self) {
        self.stats.merge(&b.stats);
        self.credited_stats.merge(&b.credited_stats);
        self.sums.add(&b.sums);
        self.loss_missions += b.loss_missions;
        self.first_loss_sum += b.first_loss_sum;
    }

    fn loss_events(&self) -> f64 {
        self.sums.dl_events as f64
    }

    fn finish(
        self,
        config: &McConfig,
        nomdl_per_tb: f64,
        counters: CounterSnapshot,
    ) -> Result<FleetEstimate> {
        let iterations = config.iterations;
        let arrays = f64::from(self.arrays);
        let s = &self.sums;
        let availability = t_interval(&self.stats, config.confidence).map_err(CoreError::from)?;
        let credited_availability =
            t_interval(&self.credited_stats, config.confidence).map_err(CoreError::from)?;
        let p_data_loss = wilson_interval(self.loss_missions, iterations, config.confidence)
            .map_err(CoreError::from)?;
        let total_time = self.horizon * iterations as f64;
        let downtime = s.du_downtime_hours + s.dl_downtime_hours;
        let array_u = downtime / (arrays * total_time);
        let credited_u = s.uncovered_down_hours / (arrays * total_time);
        let any_down_u = s.any_down_hours / total_time;
        let uncovered_any_u = s.uncovered_any_down_hours / total_time;
        Ok(FleetEstimate {
            availability,
            overall_array_availability: 1.0 - array_u,
            fleet_availability: 1.0 - any_down_u,
            mean_array_downtime_hours: downtime / (arrays * iterations as f64),
            annual_array_downtime_hours: array_u * HOURS_PER_YEAR,
            annual_any_down_hours: any_down_u * HOURS_PER_YEAR,
            du_downtime_share: if downtime > 0.0 {
                s.du_downtime_hours / downtime
            } else {
                0.0
            },
            du_events: s.du_events,
            dl_events: s.dl_events,
            p_data_loss,
            nomdl_per_tb,
            mean_time_to_first_loss_hours: if self.loss_missions > 0 {
                Some(self.first_loss_sum / self.loss_missions as f64)
            } else {
                None
            },
            loss_missions: self.loss_missions,
            degraded_time_share: s.degraded_hours.map(|h| h / total_time),
            max_degraded: s.max_degraded,
            credited_availability,
            overall_credited_array_availability: 1.0 - credited_u,
            credited_fleet_availability: 1.0 - uncovered_any_u,
            dr_occupancy_share: s.dr_occupancy_hours.map(|h| h / total_time),
            dr_queue_wait_hours: s.dr_queue_wait_hours,
            failovers: s.failovers,
            failbacks: s.failbacks,
            dr_queue_waits: s.dr_queue_waits,
            dr_rejections: s.dr_rejections,
            iterations,
            horizon_hours: self.horizon,
            arrays: self.arrays,
            counters,
        })
    }
}

/// The reciprocal rates of a service action at operator error
/// probability `hep`: the successful repair, the wrong pull and the
/// successful DU recovery (`∞` disables an exit, drawing nothing).
fn service_inv(p: &ModelParams, hep: f64) -> (f64, f64, f64) {
    (
        ((1.0 - hep) * p.disk_repair_rate).recip(),
        (hep * p.disk_change_rate).recip(),
        ((1.0 - hep) * p.human_recovery_rate).recip(),
    )
}

/// One fleet mission in flight (see the module docs): what it runs on,
/// what it counts, and one method per Fig. 2 decision.
///
/// It builds the outcome in the caller's value, and its leaf helpers
/// (`arm`, `void_race`, `renew`, `start_service`) are always inlined, as
/// the macros they replace were: copying the outcome out cost a 2-array
/// mission about 5 %, and outlined helpers a 100-array one about 3 %.
struct FleetMission<'a> {
    params: &'a ModelParams,
    failures: &'a FailureModel,
    horizon: f64,
    /// Disks per array.
    disks: usize,
    /// Service reciprocals at the unescalated hep ([`service_inv`]), and
    /// the crash, restore, fail-back and shelf-strike reciprocals.
    service_inv: (f64, f64, f64),
    crash_inv: f64,
    restore_inv: f64,
    failback_ok_inv: f64,
    failback_slip_inv: f64,
    domain_inv: f64,
    /// Arrays per shelf (0 without domain failures).
    shelf: usize,
    dependence: DependenceLevel,
    /// Probability that a completed rebuild hits a latent sector error.
    p_lse: f64,
    /// Repair crews (`u32::MAX` for an unlimited pool).
    crew_cap: u32,
    /// The DR site: whether there is one, whether it is the ideal
    /// unbounded limit, its slots and its policy when full.
    dr_on: bool,
    dr_ideal: bool,
    dr_cap: u32,
    dr_policy: FailoverPolicy,
    rng: &'a mut SimRng,
    queue: &'a mut IndexedEventQueue<FleetEv>,
    arrays: &'a mut [ArrayState],
    slot_gen: &'a mut [u32],
    svc: &'a mut [[Option<IndexedEventHandle>; 2]],
    fifo: &'a mut VecDeque<u32>,
    dr_fifo: &'a mut VecDeque<(u32, u32)>,
    dr_token: &'a mut [u32],
    /// Arrays not in OP, in DU, in DL, and down but served from DR.
    not_op: u32,
    in_du: u32,
    in_dl: u32,
    covered: u32,
    /// Crews at work; DR slots held (serving or failing back); arrays in
    /// the DR FIFO.
    busy: u32,
    dr_busy: u32,
    dr_queued: u32,
    /// Time of the last accrual, hours.
    t_prev: f64,
    /// The outcome being built, from `FleetOutcome::EMPTY`.
    out: &'a mut FleetOutcome,
    /// Draw and coupling tallies, flushed into the telemetry once per
    /// mission (queue traffic is counted inside the queue itself).
    ttf_draws: u64,
    exp_draws: u64,
    uniform_draws: u64,
    lse_hits: u64,
    crew_waits: u64,
    domain_strikes: u64,
}

impl<'a> FleetMission<'a> {
    /// Resets `scratch` for a mission of `mc` that builds `out`, starting
    /// at time 0 before any clock is seeded.
    fn new(
        mc: &'a FleetMc,
        horizon: f64,
        rng: &'a mut SimRng,
        scratch: &'a mut FleetScratch,
        out: &'a mut FleetOutcome,
    ) -> Self {
        let p = &mc.params;
        let disks = mc.spec.geometry().total_disks() as usize;
        scratch.reset(mc.spec.arrays() as usize, disks);
        let FleetScratch {
            queue,
            arrays,
            slot_gen,
            svc,
            fifo,
            dr_fifo,
            dr_token,
        } = scratch;
        // The ideal DR limit (`capacity: None`) admits everything and
        // fails back at once without a switch-back race: no draws, so its
        // stream is bit-identical to the no-DR engine's.
        let dr = mc.spec.failover();
        let dr_ideal = matches!(dr, Some(f) if f.capacity.is_none());
        let (failback_ok_inv, failback_slip_inv) = match dr {
            Some(f) if !dr_ideal => failback_race_inv(p.hep.value(), f.failback_rate),
            _ => (f64::INFINITY, f64::INFINITY),
        };
        let domains = mc.coupling.domains;
        FleetMission {
            params: p,
            failures: &mc.failures,
            horizon,
            disks,
            service_inv: service_inv(p, p.hep.value()),
            crash_inv: p.removed_crash_rate.recip(),
            restore_inv: p.ddf_recovery_rate.recip(),
            failback_ok_inv,
            failback_slip_inv,
            domain_inv: domains.map_or(f64::INFINITY, |d| d.rate.recip()),
            shelf: domains.map_or(0, |d| d.domain_arrays as usize),
            dependence: mc.coupling.dependence,
            p_lse: p.rebuild_lse_probability(),
            crew_cap: mc.spec.repairmen().unwrap_or(u32::MAX),
            dr_on: dr.is_some(),
            dr_ideal,
            dr_cap: dr.map_or(0, |f| f.capacity.unwrap_or(u32::MAX)),
            dr_policy: dr.map(|f| f.policy).unwrap_or_default(),
            rng,
            queue,
            arrays,
            slot_gen,
            svc,
            fifo,
            dr_fifo,
            dr_token,
            not_op: 0,
            in_du: 0,
            in_dl: 0,
            covered: 0,
            busy: 0,
            dr_busy: 0,
            dr_queued: 0,
            t_prev: 0.0,
            out,
            ttf_draws: 0,
            exp_draws: 0,
            uniform_draws: 0,
            lse_hits: 0,
            crew_waits: 0,
            domain_strikes: 0,
        }
    }

    /// Seeds every disk clock of every array, then the shelf clocks
    /// (drawing nothing when domains are off — the independent limit's
    /// stream contract).
    fn seed_clocks(&mut self) {
        for array in 0..self.arrays.len() as u32 {
            // An array may hold 256 disks: each slot fits a `u8`, the count not.
            for slot in 0..self.disks {
                let t = self.failures.sample_ttf(self.rng);
                self.ttf_draws += 1;
                let slot = slot as u8;
                self.schedule(
                    t,
                    FleetEv::Fail {
                        array,
                        slot,
                        gen: 0,
                    },
                );
            }
        }
        if self.shelf > 0 {
            for domain in 0..self.arrays.len().div_ceil(self.shelf) as u32 {
                self.arm_shelf(domain);
            }
        }
    }

    /// Books the time since the last accrual against the occupancy counts.
    fn accrue(&mut self, t: f64) {
        let dt = t - self.t_prev;
        if dt > 0.0 {
            let out = &mut self.out;
            let (down, covered) = (self.in_du + self.in_dl, self.covered);
            out.degraded_hours[(self.not_op as usize).min(DEGRADED_BINS - 1)] += dt;
            if self.in_du > 0 {
                out.du_downtime_hours += f64::from(self.in_du) * dt;
            }
            if self.in_dl > 0 {
                out.dl_downtime_hours += f64::from(self.in_dl) * dt;
            }
            if down > 0 {
                out.any_down_hours += dt;
            }
            if down > covered {
                out.uncovered_down_hours += f64::from(down - covered) * dt;
                out.uncovered_any_down_hours += dt;
            }
            if self.dr_on {
                out.dr_occupancy_hours[(self.dr_busy as usize).min(DEGRADED_BINS - 1)] += dt;
                if self.dr_queued > 0 {
                    out.dr_queue_wait_hours += f64::from(self.dr_queued) * dt;
                }
            }
            self.t_prev = t;
        }
    }

    /// Files `ev` `dt` hours from now: a service or fail-back race on the
    /// queue's timer lane, a disk or shelf clock on its clock lane. An
    /// event due after the horizon can never pop, so it never enters the
    /// queue: its delay is still drawn (the RNG stream is the contract),
    /// and the queue only counts it expired.
    fn schedule(&mut self, dt: f64, ev: FleetEv) -> Option<IndexedEventHandle> {
        if self.queue.now() + dt <= self.horizon {
            match ev {
                FleetEv::Service { .. } => self.queue.schedule_timer(dt, ev),
                _ => self.queue.schedule(dt, ev),
            }
            .ok()
        } else {
            self.queue.note_expired();
            None
        }
    }

    /// Arms exit `kind` of array `a`'s race on its lane, at the array's
    /// current epoch.
    #[inline(always)]
    fn arm(&mut self, a: u32, kind: Service, inv_rate: f64) {
        let epoch = self.arrays[a as usize].epoch;
        self.svc[a as usize][kind.lane()] = match self.rng.sample_exp_inv(inv_rate) {
            Some(dt) => {
                self.exp_draws += 1;
                self.schedule(
                    dt,
                    FleetEv::Service {
                        array: a,
                        kind,
                        epoch,
                    },
                )
            }
            None => None,
        };
    }

    /// Voids array `a`'s pending race: both lanes are cancelled in place.
    #[inline(always)]
    fn void_race(&mut self, a: u32) {
        for h in self.svc[a as usize].iter_mut().filter_map(Option::take) {
            self.queue.cancel(h);
        }
    }

    /// Starts a fresh lifetime clock for disk `slot` of array `a`.
    #[inline(always)]
    fn renew(&mut self, a: u32, slot: u8) {
        let idx = a as usize * self.disks + usize::from(slot);
        self.slot_gen[idx] += 1;
        let gen = self.slot_gen[idx];
        let ttf = self.failures.sample_ttf(self.rng);
        self.ttf_draws += 1;
        self.schedule(
            ttf,
            FleetEv::Fail {
                array: a,
                slot,
                gen,
            },
        );
    }

    /// Re-arms (or first arms) the clock of shelf `domain`.
    fn arm_shelf(&mut self, domain: u32) {
        if let Some(dt) = self.rng.sample_exp_inv(self.domain_inv) {
            self.exp_draws += 1;
            self.schedule(dt, FleetEv::Domain { domain });
        }
    }

    /// Moves array `a` to `mode` at `t` under a new epoch, keeping the
    /// occupancy counts and the DU/DL books. Returns the mode it left.
    fn set_mode(&mut self, a: u32, mode: Mode, t: f64) -> Mode {
        let st = &mut self.arrays[a as usize];
        let from = std::mem::replace(&mut st.mode, mode);
        st.epoch += 1;
        // A down array holding a DR slot is served from DR.
        if st.dr == DrState::Serving && from.is_down() != mode.is_down() {
            if mode.is_down() {
                self.covered += 1;
            } else {
                self.covered -= 1;
            }
        }
        match from {
            Mode::Op => {
                self.not_op += 1;
                self.out.max_degraded = self.out.max_degraded.max(self.not_op);
            }
            Mode::Exp => {}
            Mode::Du => self.in_du -= 1,
            Mode::Dl => self.in_dl -= 1,
        }
        match mode {
            Mode::Op => self.not_op -= 1,
            Mode::Exp => {}
            Mode::Du => {
                self.in_du += 1;
                self.out.du_events += 1;
            }
            Mode::Dl => {
                self.in_dl += 1;
                self.out.dl_events += 1;
                self.out.first_loss_hours = self.out.first_loss_hours.min(t);
            }
        }
        from
    }

    /// The reciprocal service rates of an action that begins now. Under
    /// THERP operator dependence the other degraded arrays escalate the
    /// hep by as many conditional steps; zero dependence (or no
    /// concurrency) takes the precomputed reciprocals, which the same
    /// formulas give bit for bit.
    fn service_now(&self) -> (f64, f64, f64) {
        let others = self.not_op - 1;
        if self.dependence == DependenceLevel::Zero || others == 0 {
            self.service_inv
        } else {
            let hep = escalated(self.params.hep, self.dependence, others).value();
            service_inv(self.params, hep)
        }
    }

    /// A crew starts on array `a`: it arms the race of the array's mode.
    #[inline(always)]
    fn start_service(&mut self, a: u32) {
        match self.arrays[a as usize].mode {
            Mode::Exp => {
                let (repair, wrong, _) = self.service_now();
                self.arm(a, Service::RepairOk, repair);
                self.arm(a, Service::WrongPull, wrong);
            }
            Mode::Dl => self.arm(a, Service::Restore, self.restore_inv),
            // Reached at dispatch after a DR fail-back slip, and when the
            // crew on site sees a wrong pull.
            Mode::Du => {
                let (_, _, recover) = self.service_now();
                self.arm(a, Service::RecoveryOk, recover);
                self.arm(a, Service::RemovedCrash, self.crash_inv);
            }
            // A crew is never dispatched to a healthy array.
            Mode::Op => {}
        }
    }

    /// Array `a` enters `mode` (EXP, DU or DL) at `t`, and whatever race
    /// it had pending is void. An array leaving OP then asks for a DR
    /// slot and a crew; a crew already on site starts the new mode's
    /// service at once; a waiting array keeps its place in the crew FIFO.
    fn enter(&mut self, a: u32, mode: Mode, t: f64) {
        let from = self.set_mode(a, mode, t);
        self.void_race(a);
        if from == Mode::Op {
            self.leave_op(a);
        } else if !self.arrays[a as usize].waiting {
            self.start_service(a);
        }
    }

    /// Array `a` has just left OP. It asks the DR site for a slot:
    /// admitted if one is free, else queued FIFO or rejected (loss
    /// policy). An array struck mid fail-back still holds its slot, and
    /// a queued array is never in OP. Then it takes a free crew, or joins
    /// the crew FIFO with no service clocks running. Draw-free except for
    /// the crew's race.
    fn leave_op(&mut self, a: u32) {
        let ai = a as usize;
        if self.dr_on && self.arrays[ai].dr == DrState::None {
            if self.dr_busy < self.dr_cap {
                self.dr_busy += 1;
                self.admit(a);
            } else if self.dr_policy == FailoverPolicy::Queue {
                self.arrays[ai].dr = DrState::Queued;
                self.dr_token[ai] += 1;
                self.dr_fifo.push_back((a, self.dr_token[ai]));
                self.dr_queued += 1;
                self.out.dr_queue_waits += 1;
            } else {
                self.out.dr_rejections += 1;
            }
        }
        if self.busy < self.crew_cap {
            self.busy += 1;
            self.start_service(a);
        } else {
            self.arrays[ai].waiting = true;
            self.fifo.push_back(a);
            self.crew_waits += 1;
        }
    }

    /// Array `a` takes a DR slot; if it is down, DR now serves it.
    fn admit(&mut self, a: u32) {
        let st = &mut self.arrays[a as usize];
        st.dr = DrState::Serving;
        self.out.failovers += 1;
        if st.mode.is_down() {
            self.covered += 1;
        }
    }

    /// Array `a` returns to OP at `t`. A repair renews the failed disk,
    /// and leaving an outage renews every disk; the crew moves on, and
    /// the array settles with the DR site.
    fn return_to_op(&mut self, a: u32, t: f64) {
        if self.set_mode(a, Mode::Op, t) == Mode::Exp {
            self.renew(a, self.arrays[a as usize].failed_slot);
        } else {
            for slot in 0..self.disks {
                self.renew(a, slot as u8);
            }
        }
        self.hand_on_crew();
        self.settle_dr(a);
    }

    /// A crew finishes: it goes to the first array in the crew FIFO, or
    /// back to the pool. With an unlimited pool the FIFO is always empty
    /// and this is a bare decrement: no draws, no stream perturbation.
    fn hand_on_crew(&mut self) {
        match self.fifo.pop_front() {
            Some(next) => {
                self.arrays[next as usize].waiting = false;
                self.start_service(next);
            }
            None => self.busy -= 1,
        }
    }

    /// Array `a`, back in OP, settles with the DR site: a serving array
    /// starts the Fig. 3 switch-back race (or, in the ideal limit, fails
    /// back at once and draw-free), and a queued array gives up its place.
    fn settle_dr(&mut self, a: u32) {
        let ai = a as usize;
        match self.arrays[ai].dr {
            DrState::Serving if self.dr_ideal => self.fail_back(a),
            DrState::Serving => {
                self.arm(a, Service::FailbackOk, self.failback_ok_inv);
                self.arm(a, Service::FailbackSlip, self.failback_slip_inv);
            }
            DrState::Queued => {
                self.arrays[ai].dr = DrState::None;
                self.dr_token[ai] += 1;
                self.dr_queued -= 1;
            }
            DrState::None => {}
        }
    }

    /// Array `a` switches back from the DR site and frees its slot.
    fn fail_back(&mut self, a: u32) {
        self.arrays[a as usize].dr = DrState::None;
        self.out.failbacks += 1;
        self.hand_on_dr_slot();
    }

    /// A DR slot frees: it goes to the first array still in the DR FIFO
    /// (token-guarded, since arrays leave the line early by returning to
    /// OP), or back to the site.
    fn hand_on_dr_slot(&mut self) {
        while let Some((next, token)) = self.dr_fifo.pop_front() {
            if self.dr_token[next as usize] == token {
                self.dr_queued -= 1;
                self.admit(next);
                return;
            }
        }
        self.dr_busy -= 1;
    }

    /// Handles one popped event at `t`.
    fn fire(&mut self, t: f64, ev: FleetEv) {
        match ev {
            FleetEv::Fail { array, slot, gen } => {
                let idx = array as usize * self.disks + usize::from(slot);
                if gen != self.slot_gen[idx] {
                    return; // stale clock
                }
                self.slot_gen[idx] += 1; // no longer ticking
                let st = &mut self.arrays[array as usize];
                match st.mode {
                    Mode::Op => {
                        st.failed_slot = slot;
                        self.accrue(t);
                        self.enter(array, Mode::Exp, t);
                    }
                    // A second failure loses the data.
                    Mode::Exp => {
                        self.accrue(t);
                        self.enter(array, Mode::Dl, t);
                    }
                    // Quiesced while down; renewed on the return to OP.
                    Mode::Du | Mode::Dl => {}
                }
            }
            FleetEv::Service { array, kind, epoch } => {
                if epoch == self.arrays[array as usize].epoch {
                    self.serve(array, kind, t);
                }
            }
            FleetEv::Domain { domain } => self.strike(domain, t),
        }
    }

    /// Exit `kind` of array `a`'s race fires at `t`: the loser is
    /// cancelled, and the array takes the exit. Each exit fires only in
    /// the mode that armed it, since every mode change bumps the epoch.
    fn serve(&mut self, a: u32, kind: Service, t: f64) {
        self.accrue(t);
        self.svc[a as usize][kind.lane()] = None;
        self.void_race(a);
        match kind {
            Service::RepairOk => {
                // A completed rebuild read every surviving disk; with a
                // scrubbing model attached it hit a latent sector error
                // with probability `p_lse` and lost data. The uniform is
                // drawn only when the rate is live, so the `p_lse = 0`
                // stream is bit-identical.
                let lse_hit = self.p_lse > 0.0 && {
                    self.uniform_draws += 1;
                    self.rng.next_f64() < self.p_lse
                };
                if lse_hit {
                    self.lse_hits += 1;
                    self.enter(a, Mode::Dl, t);
                } else {
                    self.return_to_op(a, t);
                }
            }
            // A botched switch-back (Fig. 3 DR-side human error) keeps
            // the slot: DR serves the array while a crew recovers it.
            Service::WrongPull | Service::FailbackSlip => self.enter(a, Mode::Du, t),
            Service::RemovedCrash => self.enter(a, Mode::Dl, t),
            Service::RecoveryOk | Service::Restore => self.return_to_op(a, t),
            Service::FailbackOk => {
                self.arrays[a as usize].epoch += 1;
                self.fail_back(a);
            }
        }
    }

    /// Shelf `domain`'s clock fires at `t`: every member array not
    /// already in DL loses its data at once, and the clock re-arms.
    fn strike(&mut self, domain: u32, t: f64) {
        self.accrue(t);
        self.domain_strikes += 1;
        let lo = domain as usize * self.shelf;
        let hi = (lo + self.shelf).min(self.arrays.len());
        for a in lo as u32..hi as u32 {
            if self.arrays[a as usize].mode != Mode::Dl {
                self.enter(a, Mode::Dl, t);
            }
        }
        self.arm_shelf(domain);
    }

    /// Accrues to the horizon and flushes the tallies into `tele`.
    fn finish(mut self, tele: &mut Telemetry) {
        self.accrue(self.horizon);
        let out = &self.out;
        if tele.enabled() {
            tele.add(Counter::RngLifetimeDraws, self.ttf_draws);
            tele.add(Counter::RngExpDraws, self.exp_draws);
            tele.add(Counter::RngUniformDraws, self.uniform_draws);
            tele.add(Counter::RebuildLseHits, self.lse_hits);
            tele.add(Counter::DataLossEvents, out.dl_events);
            tele.add(Counter::FleetCrewWaits, self.crew_waits);
            tele.add(Counter::FleetDomainStrikes, self.domain_strikes);
            tele.add(Counter::FleetFailovers, out.failovers);
            tele.add(Counter::FleetDrQueueWaits, out.dr_queue_waits);
            tele.add(Counter::FleetDrRejections, out.dr_rejections);
            tele.add(Counter::FleetFailbacks, out.failbacks);
        }
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
            stats: RunningStats::default(),
            credited_stats: RunningStats::default(),
            sums: FleetOutcome::EMPTY,
            loss_missions: 0,
            first_loss_sum: 0.0,
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
    /// array-indexed state, as one method per decision of a mission
    /// object (see the module docs). They stay apart from the chain
    /// definition on purpose: this independent transcription is what
    /// `crates/core/tests/fleet.rs` holds to the exact chain (A = 1) and
    /// to the single-array engines (per-array CI overlap at A = 16).
    pub fn simulate_once_with(
        &self,
        horizon: f64,
        rng: &mut SimRng,
        ws: &mut SimWorkspace,
    ) -> FleetOutcome {
        let mut out = FleetOutcome::EMPTY;
        let mut m = FleetMission::new(self, horizon, rng, &mut ws.fleet, &mut out);
        m.seed_clocks();
        while let Some((t, ev)) = m.queue.pop_due(horizon) {
            m.fire(t, ev);
        }
        m.finish(&mut ws.telemetry);
        out
    }
}

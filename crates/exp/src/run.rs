//! The parallel batch runner.
//!
//! # Determinism contract
//!
//! Worker threads claim cells one at a time in index order, so *which*
//! thread executes a cell is racy — but every cell's result depends only
//! on the cell itself (its own derived seed; Monte-Carlo cells default to
//! single-threaded internally, and `[mc] threads` is a pure speed knob:
//! estimates are bit-identical at any count), and each result is written
//! into **its cell's slot** of the campaign's row vector, which every
//! aggregation then reads in index order. The merged Welford accumulators
//! and every reported metric are therefore bit-identical for 1 worker and
//! N workers. Only the wall-clock timings differ between runs.

use crate::error::{ExpError, Result};
use crate::plan::{Cell, Plan};
use crate::spec::{ModelKind, Policy, Scenario};
use availsim_core::markov::{ChainDef, GenericKofN, Raid5Conventional, Raid5FailOver};
use availsim_core::mc::{
    AvailabilityEstimate, ConventionalMc, FailOverMc, FleetEstimate, FleetMc, McConfig,
};
use availsim_core::{nines, CoreError, ModelParams};
use availsim_hra::Hep;
use availsim_sim::parallel::{ordered_parallel_map_with, CancelToken};
use availsim_sim::stats::RunningStats;
use availsim_sim::telemetry::CounterSnapshot;
use availsim_storage::{FleetSpec, Volume};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Progress sink for [`run_with_progress`]: called once per finished cell
/// with a preformatted `cell k/N done (U=…, ±…)` line. Called from worker
/// threads, hence `Sync`; `k` counts completions, not cell indices.
pub type ProgressSink<'a> = dyn Fn(&str) + Sync + 'a;

/// Runner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunConfig {
    /// Worker threads; `0` (the default) means the machine's available
    /// parallelism. The effective count is clamped to the number of cells.
    pub workers: usize,
    /// Continue past failing cells instead of aborting the campaign: each
    /// failure becomes a report row carrying its error string, placed
    /// deterministically at the cell's index.
    pub keep_going: bool,
}

impl RunConfig {
    /// The worker count actually used for `cells` cells.
    pub fn effective_workers(&self, cells: usize) -> usize {
        availsim_sim::parallel::resolve_workers(self.workers).clamp(1, cells.max(1))
    }
}

/// Equal-capacity volume metrics of one cell (present when the campaign
/// sets `capacity`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VolumeMetrics {
    /// Member arrays at the campaign's usable capacity.
    pub arrays: u64,
    /// Total physical disks.
    pub total_disks: u64,
    /// Series-system unavailability of the volume.
    pub unavailability: f64,
    /// Volume availability in nines.
    pub nines: f64,
}

/// All metrics produced by one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell that produced these metrics.
    pub cell: Cell,
    /// Per-array unavailability (steady-state or MC point estimate).
    pub unavailability: f64,
    /// Per-array availability in nines.
    pub nines: f64,
    /// Downtime, minutes per year.
    pub downtime_min_per_year: f64,
    /// Mean time to data loss in hours (Markov models only).
    pub mttdl_hours: Option<f64>,
    /// Half-width of the availability confidence interval (MC only).
    pub ci_half_width: Option<f64>,
    /// DR-credited per-array unavailability: down time not covered by the
    /// disaster-recovery site. Present only for fleet cells with a
    /// `failover_capacity` coupling.
    pub credited_unavailability: Option<f64>,
    /// Fraction of missions that lost data within the horizon. Present
    /// only for MC cells of an `[lse]` campaign.
    pub p_data_loss: Option<f64>,
    /// NOMDL: data-loss events per mission, normalized by the cell's
    /// usable capacity (capacity units ≙ TB). Present only for MC cells
    /// of an `[lse]` campaign.
    pub nomdl_per_tb: Option<f64>,
    /// Volume metrics (only when the campaign sets `capacity`).
    pub volume: Option<VolumeMetrics>,
    /// Engine telemetry counters for this cell (all-zero unless the
    /// scenario's `[telemetry]` section enables metrics; Markov cells
    /// report none). Deterministic: depends only on the cell's seed.
    pub counters: CounterSnapshot,
    /// Wall-clock time this cell took, microseconds. Excluded from the
    /// deterministic CSV/JSON reports; summarised in the text report.
    pub elapsed_micros: u64,
    /// The cell's error string when it failed under a keep-going run;
    /// `None` for a successful cell. Failed cells carry NaN metrics and
    /// are excluded from every campaign aggregate.
    pub error: Option<String>,
}

impl CellResult {
    /// The deterministic placeholder row a failed cell leaves behind under
    /// `--keep-going`: NaN metrics, zeroed counters, and the error string.
    fn failed(cell: &Cell, error: String) -> Self {
        CellResult {
            cell: cell.clone(),
            unavailability: f64::NAN,
            nines: f64::NAN,
            downtime_min_per_year: f64::NAN,
            mttdl_hours: None,
            ci_half_width: None,
            credited_unavailability: None,
            p_data_loss: None,
            nomdl_per_tb: None,
            volume: None,
            counters: CounterSnapshot::default(),
            elapsed_micros: 0,
            error: Some(error),
        }
    }

    /// Whether the cell failed (keep-going runs only).
    pub fn is_failed(&self) -> bool {
        self.error.is_some()
    }
}

/// Aggregate outcome of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Per-cell results, in cell-index order.
    pub cells: Vec<CellResult>,
    /// Welford accumulator over per-array unavailability across cells,
    /// merged in cell-index order (bit-reproducible).
    pub unavailability_stats: RunningStats,
    /// Welford accumulator over per-cell wall-clock times (microseconds).
    pub timing_stats: RunningStats,
    /// Campaign-wide telemetry counters, merged in cell-index order
    /// (bit-reproducible at any worker count).
    pub counters: CounterSnapshot,
    /// Workers actually used.
    pub workers: usize,
    /// Whether the run continued past failures ([`RunConfig::keep_going`]);
    /// reports add `status`/`error` columns only for keep-going runs so
    /// plain campaigns keep their byte-stable layout.
    pub keep_going: bool,
    /// Failed cells recorded by a keep-going run; always `0` otherwise
    /// (a failure aborts the campaign instead).
    pub failed_cells: usize,
    /// Total wall-clock time of the run, microseconds.
    pub wall_micros: u64,
}

impl CampaignResult {
    /// Fraction of the worker pool's combined wall-clock budget spent
    /// inside cells: `sum(cell micros) ÷ wall micros ÷ workers`. Near 1.0
    /// means the workers stayed busy; a low value flags load imbalance
    /// (e.g. one slow cell serialising the campaign). Nondeterministic —
    /// shown in the text summary only, never in the CSV/JSON reports.
    pub fn worker_utilization(&self) -> f64 {
        let busy: f64 = self.cells.iter().map(|c| c.elapsed_micros as f64).sum();
        let budget = self.wall_micros.max(1) as f64 * self.workers.max(1) as f64;
        (busy / budget).min(1.0)
    }
}

/// Expands nothing — runs an already expanded plan.
///
/// # Errors
/// Returns the lowest-indexed failure among the cells that ran; a failing
/// cell also stops workers from claiming further cells, so an early
/// misconfiguration does not burn the whole campaign's compute first.
/// With [`RunConfig::keep_going`] set, cell failures never abort: each
/// failed cell becomes a placeholder row (NaN metrics, the error string)
/// at its own index, and the run errs only on campaign-level problems.
pub fn run(plan: &Plan, config: &RunConfig) -> Result<CampaignResult> {
    run_with_progress(plan, config, None)
}

/// [`run`] with a live progress sink: each finished cell emits one
/// `cell k/N done (U=…, ±…)` line. Progress lines stream in completion
/// order (racy by design) and never touch the deterministic results —
/// the sink is for a human watching the campaign, not for reports.
///
/// # Errors
/// As [`run`].
pub fn run_with_progress(
    plan: &Plan,
    config: &RunConfig,
    progress: Option<&ProgressSink<'_>>,
) -> Result<CampaignResult> {
    let n = plan.cells.len();
    let workers = config.effective_workers(n);
    let started = Instant::now();
    let completed = AtomicUsize::new(0);

    // Workers claim cells in index order and each row lands in its cell's
    // slot (the determinism contract). A failed cell leaves its
    // placeholder row; without keep-going the lowest-indexed error is kept
    // and returned once the workers stop.
    let first_error: Mutex<Option<(u64, ExpError)>> = Mutex::new(None);
    let cells = ordered_parallel_map_with(
        n as u64,
        workers,
        || (),
        |(), i| {
            let cell = &plan.cells[i as usize];
            let row = run_cell(&plan.scenario, cell).unwrap_or_else(|e| {
                let row = CellResult::failed(cell, e.to_string());
                if !config.keep_going {
                    let mut first = first_error.lock().expect("no panic while held");
                    if first.as_ref().is_none_or(|&(j, _)| i < j) {
                        *first = Some((i, e));
                    }
                }
                row
            });
            if let Some(sink) = progress {
                let k = completed.fetch_add(1, Ordering::Relaxed) + 1;
                match &row.error {
                    None => {
                        let ci = row
                            .ci_half_width
                            .map(|h| format!(", ±{h:?}"))
                            .unwrap_or_default();
                        sink(&format!(
                            "cell {k}/{n} done (U={:?}{ci})",
                            row.unavailability
                        ));
                    }
                    Some(e) if config.keep_going => sink(&format!("cell {k}/{n} FAILED ({e})")),
                    Some(_) => {}
                }
            }
            row
        },
        |row| !config.keep_going && row.is_failed(),
    );
    if let Some((_, e)) = first_error.into_inner().expect("no panic while held") {
        return Err(e);
    }
    let failed_cells = cells.iter().filter(|c| c.is_failed()).count();

    let mut unavailability_stats = RunningStats::new();
    let mut timing_stats = RunningStats::new();
    let mut counters = CounterSnapshot::default();
    for c in cells.iter().filter(|c| !c.is_failed()) {
        unavailability_stats.push(c.unavailability);
        timing_stats.push(c.elapsed_micros as f64);
        counters.merge(&c.counters);
    }

    Ok(CampaignResult {
        scenario: plan.scenario.clone(),
        cells,
        unavailability_stats,
        timing_stats,
        counters,
        workers,
        keep_going: config.keep_going,
        failed_cells,
        wall_micros: round_micros(started.elapsed()),
    })
}

/// `d` in microseconds, rounded to the nearest: an exact cell takes
/// about a microsecond, and truncating would record half of them as 0.
fn round_micros(d: Duration) -> u64 {
    u64::try_from(d.as_nanos().saturating_add(500) / 1000).unwrap_or(u64::MAX)
}

/// Executes one cell with the scenario's solver backend.
///
/// # Errors
/// Wraps model failures in [`ExpError::Model`] with the cell index.
pub fn run_cell(scenario: &Scenario, cell: &Cell) -> Result<CellResult> {
    run_cell_cancellable(scenario, cell, None)
}

/// [`run_cell`] plus an optional cooperative cancel token threaded into the
/// Monte-Carlo block scheduler (Markov cells solve in microseconds and are
/// not interruptible). A tripped token surfaces as [`ExpError::Model`]
/// wrapping [`CoreError::DeadlineExpired`].
///
/// # Errors
/// As [`run_cell`], plus the deadline error on cancellation.
pub fn run_cell_cancellable(
    scenario: &Scenario,
    cell: &Cell,
    cancel: Option<&CancelToken>,
) -> Result<CellResult> {
    let started = Instant::now();
    let model = |e: CoreError| ExpError::Model {
        cell: cell.index,
        source: e,
    };
    let (unavailability, mttdl_hours, ci_half_width, credited_unavailability, loss, counters) =
        match estimate(scenario, cell, cancel).map_err(model)? {
            Estimate::Exact {
                unavailability,
                mttdl_hours,
            } => (
                unavailability,
                Some(mttdl_hours),
                None,
                None,
                None,
                CounterSnapshot::default(),
            ),
            Estimate::Array(est) => (
                est.unavailability(),
                None,
                Some(est.availability.half_width),
                None,
                Some((est.p_data_loss.mean, est.nomdl_per_tb)),
                est.counters,
            ),
            Estimate::Fleet(est, spec) => (
                est.array_unavailability(),
                None,
                Some(est.availability.half_width),
                spec.failover().map(|_| est.credited_array_unavailability()),
                Some((est.p_data_loss.mean, est.nomdl_per_tb)),
                est.counters,
            ),
        };
    // The loss columns report only under an [lse] section so plain
    // campaigns keep their byte-stable layout.
    let loss = loss.filter(|_| scenario.lse.is_some());

    let volume = match scenario.capacity {
        Some(cap) => {
            let v = Volume::with_usable_capacity(cell.raid, cap)
                .map_err(|e| model(CoreError::Storage(e)))?;
            let vu = v.series_unavailability(unavailability);
            Some(VolumeMetrics {
                arrays: v.arrays(),
                total_disks: v.total_disks(),
                unavailability: vu,
                nines: nines::nines_from_unavailability(vu),
            })
        }
        None => None,
    };

    Ok(CellResult {
        cell: cell.clone(),
        unavailability,
        nines: nines::nines_from_unavailability(unavailability),
        downtime_min_per_year: nines::downtime_minutes_per_year(unavailability),
        mttdl_hours,
        ci_half_width,
        credited_unavailability,
        p_data_loss: loss.map(|(p, _)| p),
        nomdl_per_tb: loss.map(|(_, n)| n),
        volume,
        counters,
        elapsed_micros: round_micros(started.elapsed()),
        error: None,
    })
}

/// The full answer of one cell's engine, before it is flattened into a
/// report row. The CLI prints from it directly (ESS, the degraded
/// histogram, the DR books), so the model dispatch lives only here.
#[derive(Debug, Clone)]
pub enum Estimate {
    /// An exact chain's steady state.
    Exact {
        /// Steady-state unavailability (sum of down-state probabilities).
        unavailability: f64,
        /// Mean time to data loss, hours.
        mttdl_hours: f64,
    },
    /// A single-array Monte-Carlo engine's estimate.
    Array(Box<AvailabilityEstimate>),
    /// The fleet engine's estimate, with the fleet it simulated.
    Fleet(Box<FleetEstimate>, FleetSpec),
}

/// Runs one cell with the scenario's solver backend and returns the
/// engine's full estimate. Monte-Carlo cells run single-threaded unless
/// `[mc] threads` says otherwise (a speed knob only: bit-identical at any
/// count). With a `[fleet]` section the cell runs the fleet engine; an
/// omitted `failback_rate` defaults to the disk-change rate (switching
/// back is an operator-driven swap action).
///
/// # Errors
/// The model's error (including [`CoreError::DeadlineExpired`] when
/// `cancel` trips).
pub fn estimate(
    scenario: &Scenario,
    cell: &Cell,
    cancel: Option<&CancelToken>,
) -> availsim_core::Result<Estimate> {
    let hep = Hep::new(cell.hep).map_err(CoreError::Hra)?;
    let mut params = ModelParams::paper_defaults(cell.raid, cell.lambda, hep)?;
    if let Some(lse) = scenario.lse {
        // Scenario validation already restricts live rates to the MC
        // engines and the generic chain; a zero rate is a bit-identical
        // no-op everywhere.
        params = params.with_scrubbing(lse.model());
    }
    // One rate matrix answers both exact columns.
    let exact = |chain: ChainDef| {
        let (solved, mttdl_hours) = chain.solve_with_mttdl()?;
        Ok(Estimate::Exact {
            unavailability: solved.unavailability(),
            mttdl_hours,
        })
    };
    match (scenario.model, cell.policy) {
        (ModelKind::Mc, policy) => {
            let config = McConfig {
                iterations: scenario.mc.iterations,
                horizon_hours: scenario.mc.horizon_hours,
                seed: cell.seed,
                confidence: scenario.mc.confidence,
                threads: scenario.mc.threads,
                variance: scenario.mc.variance,
                telemetry: scenario.telemetry.enabled(),
            };
            let Some(fleet) = scenario.fleet else {
                return Ok(Estimate::Array(Box::new(match policy {
                    Policy::Conventional => {
                        ConventionalMc::new(params)?.run_with_cancel(&config, cancel)?
                    }
                    Policy::Failover => {
                        FailOverMc::new(params)?.run_with_cancel(&config, cancel)?
                    }
                })));
            };
            // Scenario validation already bounds the counts to u32 and
            // restricts fleets to the conventional policy and naive
            // sampling.
            let count = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
            let mut spec = FleetSpec::new(count(fleet.arrays), params.geometry)?;
            if let Some(crews) = fleet.repairmen {
                spec = spec.with_repairmen(count(crews))?;
            }
            if let Some(failover) = fleet.failover(params.disk_change_rate) {
                spec = spec.with_failover(failover)?;
            }
            let est = FleetMc::new(spec, params)?
                .with_coupling(fleet.coupling())?
                .run_with_cancel(&config, cancel)?;
            Ok(Estimate::Fleet(Box::new(est), spec))
        }
        (_, Policy::Failover) => exact(Raid5FailOver::new(params)?.chain()),
        // The Fig. 2 chain models single-fault-tolerant arrays; the
        // generic k-of-n chain takes every other conventional cell.
        (model, Policy::Conventional)
            if model != ModelKind::GenericKofN && cell.raid.fault_tolerance() == 1 =>
        {
            exact(Raid5Conventional::new(params)?.chain())
        }
        (_, Policy::Conventional) => exact(GenericKofN::new(params)?.chain()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::expand;

    fn markov_scenario() -> Scenario {
        Scenario::parse(
            "[campaign]\nname = t\nseed = 3\ncapacity = 21\n[axes]\nraid = [r1, r5-3, r5-7]\nhep = [0, 0.01]\nlambda = 1e-5\n",
        )
        .unwrap()
    }

    #[test]
    fn runs_every_cell_in_order() {
        let plan = expand(&markov_scenario()).unwrap();
        let out = run(
            &plan,
            &RunConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.cells.len(), 6);
        for (i, c) in out.cells.iter().enumerate() {
            assert_eq!(c.cell.index, i as u64);
            assert!(c.unavailability > 0.0 && c.unavailability < 1.0);
            assert!(c.mttdl_hours.unwrap() > 0.0);
            let v = c.volume.unwrap();
            assert!(v.unavailability >= c.unavailability);
        }
        assert_eq!(out.workers, 2);
        assert_eq!(out.unavailability_stats.count(), 6);
    }

    #[test]
    fn worker_count_does_not_change_any_metric_bit() {
        let plan = expand(&markov_scenario()).unwrap();
        let one = run(
            &plan,
            &RunConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let many = run(
            &plan,
            &RunConfig {
                workers: 3,
                ..Default::default()
            },
        )
        .unwrap();
        for (a, b) in one.cells.iter().zip(&many.cells) {
            assert_eq!(a.unavailability.to_bits(), b.unavailability.to_bits());
            assert_eq!(a.nines.to_bits(), b.nines.to_bits());
            assert_eq!(
                a.volume.unwrap().unavailability.to_bits(),
                b.volume.unwrap().unavailability.to_bits()
            );
        }
        assert_eq!(
            one.unavailability_stats.mean().to_bits(),
            many.unavailability_stats.mean().to_bits()
        );
    }

    #[test]
    fn mc_cells_are_seed_deterministic_across_workers() {
        let s = Scenario::parse(
            "[campaign]\nname = m\nseed = 11\nmodel = mc\n[axes]\nlambda = [1e-3, 2e-3]\nhep = [0.01, 0.05]\n[mc]\niterations = 200\nhorizon_hours = 10000\n",
        )
        .unwrap();
        let plan = expand(&s).unwrap();
        let one = run(
            &plan,
            &RunConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let four = run(
            &plan,
            &RunConfig {
                workers: 4,
                ..Default::default()
            },
        )
        .unwrap();
        for (a, b) in one.cells.iter().zip(&four.cells) {
            assert_eq!(a.unavailability.to_bits(), b.unavailability.to_bits());
            assert_eq!(
                a.ci_half_width.unwrap().to_bits(),
                b.ci_half_width.unwrap().to_bits()
            );
            assert!(a.mttdl_hours.is_none());
        }
    }

    fn mc_scenario() -> Scenario {
        Scenario::parse(
            "[campaign]\nname = m\nseed = 11\nmodel = mc\n[axes]\nlambda = [1e-3, 2e-3]\nhep = [0.01, 0.05]\n[mc]\niterations = 200\nhorizon_hours = 10000\n",
        )
        .unwrap()
    }

    #[test]
    fn telemetry_counters_merge_deterministically_across_workers() {
        let mut s = mc_scenario();
        s.telemetry.metrics = Some("m.json".into());
        let plan = expand(&s).unwrap();
        let one = run(
            &plan,
            &RunConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let four = run(
            &plan,
            &RunConfig {
                workers: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!one.counters.is_empty(), "mc cells must report counters");
        assert_eq!(one.counters, four.counters);
        for (a, b) in one.cells.iter().zip(&four.cells) {
            assert_eq!(a.counters, b.counters);
        }
        // Estimates are bit-identical with telemetry on vs off: counters
        // never touch the RNG stream.
        let off = run(
            &expand(&mc_scenario()).unwrap(),
            &RunConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(off.counters.is_empty(), "disabled telemetry stays all-zero");
        for (a, b) in one.cells.iter().zip(&off.cells) {
            assert_eq!(a.unavailability.to_bits(), b.unavailability.to_bits());
        }
    }

    #[test]
    fn progress_sink_gets_one_line_per_cell_and_utilization_is_sane() {
        use std::sync::Mutex;
        let plan = expand(&mc_scenario()).unwrap();
        let lines = Mutex::new(Vec::new());
        let sink = |l: &str| lines.lock().unwrap().push(l.to_string());
        let out = run_with_progress(
            &plan,
            &RunConfig {
                workers: 2,
                ..Default::default()
            },
            Some(&sink),
        )
        .unwrap();
        let lines = lines.into_inner().unwrap();
        assert_eq!(lines.len(), plan.len());
        for l in &lines {
            assert!(l.contains("done (U=") && l.contains('±'), "{l}");
            assert!(l.contains(&format!("/{}", plan.len())), "{l}");
        }
        let util = out.worker_utilization();
        assert!(util > 0.0 && util <= 1.0, "utilization {util}");
    }

    #[test]
    fn cell_times_round_to_the_nearest_microsecond() {
        let ns = Duration::from_nanos;
        assert_eq!(round_micros(ns(400)), 0);
        assert_eq!(round_micros(ns(1_499)), 1);
        assert_eq!(round_micros(ns(1_500)), 2);
    }

    #[test]
    fn effective_workers_clamps_to_cells_and_floor_of_one() {
        let c = RunConfig {
            workers: 64,
            ..Default::default()
        };
        assert_eq!(c.effective_workers(3), 3);
        assert_eq!(c.effective_workers(0), 1);
        let auto = RunConfig {
            workers: 0,
            ..Default::default()
        };
        assert!(auto.effective_workers(1000) >= 1);
        assert_eq!(RunConfig::default().workers, 0);
    }

    #[test]
    fn failover_policy_uses_the_fig3_chain() {
        let s = Scenario::parse(
            "[campaign]\nname = f\n[axes]\nraid = r5-3\npolicy = [conventional, failover]\nhep = 0.01\nlambda = 1e-5\n",
        )
        .unwrap();
        let out = run(
            &expand(&s).unwrap(),
            &RunConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // Fail-over removes the human-error exposure window, so it must be
        // strictly more available at hep > 0 (the paper's Fig. 7).
        assert!(out.cells[1].unavailability < out.cells[0].unavailability);
    }

    #[test]
    fn cell_errors_name_the_cell() {
        // RAID6 under the failover (Fig. 3) chain is invalid: ft must be 1.
        let s = Scenario::parse(
            "[campaign]\nname = bad\nmodel = markov-failover\n[axes]\nraid = r6-4\n",
        )
        .unwrap();
        let err = run(
            &expand(&s).unwrap(),
            &RunConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().starts_with("cell 0"), "{err}");
    }

    #[test]
    fn keep_going_records_the_failing_cell_and_continues() {
        // r6-4 under the Fig. 3 fail-over chain is invalid (ft must be 1),
        // so exactly cell 1 of this two-cell campaign fails.
        let s = Scenario::parse(
            "[campaign]\nname = kg\nmodel = markov-failover\n[axes]\nraid = [r5-3, r6-4]\nhep = 0.01\nlambda = 1e-5\n",
        )
        .unwrap();
        let plan = expand(&s).unwrap();
        assert!(run(
            &plan,
            &RunConfig {
                workers: 1,
                ..Default::default()
            }
        )
        .is_err());

        let cfg = |workers| RunConfig {
            workers,
            keep_going: true,
        };
        let one = run(&plan, &cfg(1)).unwrap();
        let four = run(&plan, &cfg(4)).unwrap();
        for out in [&one, &four] {
            assert_eq!(out.cells.len(), 2);
            assert_eq!(out.failed_cells, 1);
            assert!(!out.cells[0].is_failed());
            assert!(out.cells[1].is_failed());
            assert!(out.cells[1].unavailability.is_nan());
            assert!(
                out.cells[1].error.as_deref().unwrap().starts_with("cell 1"),
                "{:?}",
                out.cells[1].error
            );
            // Aggregates skip the failed placeholder row.
            assert_eq!(out.unavailability_stats.count(), 1);
        }
        assert_eq!(
            one.cells[0].unavailability.to_bits(),
            four.cells[0].unavailability.to_bits()
        );
        assert_eq!(one.cells[1].error, four.cells[1].error);
    }

    #[test]
    fn expired_deadline_surfaces_the_cell_deadline_error() {
        // A deadline already in the past trips inside the cell's block
        // scheduler before any block is claimed.
        let s = Scenario::parse(
            "[campaign]\nname = d\nseed = 5\nmodel = mc\n[axes]\nlambda = 1e-3\nhep = 0.01\n[mc]\niterations = 100000\nhorizon_hours = 10000\n",
        )
        .unwrap();
        let plan = expand(&s).unwrap();
        let token =
            CancelToken::with_deadline(Instant::now() - std::time::Duration::from_millis(1));
        let err = run_cell_cancellable(&plan.scenario, &plan.cells[0], Some(&token)).unwrap_err();
        match &err {
            ExpError::Model { source, .. } => {
                assert!(matches!(source, CoreError::DeadlineExpired { .. }), "{err}");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn uncancelled_token_changes_no_result_bit() {
        let plan = expand(&mc_scenario()).unwrap();
        let plain = run(
            &plan,
            &RunConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let token =
            CancelToken::with_deadline(Instant::now() + std::time::Duration::from_secs(600));
        for (a, cell) in plain.cells.iter().zip(&plan.cells) {
            let b = run_cell_cancellable(&plan.scenario, cell, Some(&token)).unwrap();
            assert_eq!(a.unavailability.to_bits(), b.unavailability.to_bits());
        }
    }

    #[test]
    fn mc_threads_setting_is_a_pure_speed_knob() {
        // `[mc] threads`: 1, an explicit count, and the documented auto
        // spelling (0) all produce bit-identical cells.
        let spec = |threads: &str| {
            Scenario::parse(&format!(
                "[campaign]\nname = t\nseed = 11\nmodel = mc\n[axes]\nlambda = 1e-3\nhep = 0.01\n[mc]\niterations = 600\nhorizon_hours = 10000\nthreads = {threads}\n",
            ))
            .unwrap()
        };
        let run_one = |threads: &str| {
            let plan = expand(&spec(threads)).unwrap();
            run(
                &plan,
                &RunConfig {
                    workers: 1,
                    ..Default::default()
                },
            )
            .unwrap()
            .cells[0]
                .unavailability
                .to_bits()
        };
        let one = run_one("1");
        assert_eq!(one, run_one("4"));
        assert_eq!(one, run_one("0"), "threads = 0 is auto, same bits");
    }

    #[test]
    fn fleet_failover_cells_report_a_credited_column() {
        let dr = Scenario::parse(
            "[campaign]\nname = dr\nseed = 7\nmodel = mc\n[axes]\nlambda = 1e-4\nhep = 0.05\n[mc]\niterations = 120\nhorizon_hours = 20000\n[fleet]\narrays = 6\nfailover_capacity = inf\n",
        )
        .unwrap();
        let out = run(
            &expand(&dr).unwrap(),
            &RunConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let c = &out.cells[0];
        // An ideal DR site covers every outage: exactly zero credited
        // unavailability, not merely a small one.
        assert_eq!(c.credited_unavailability, Some(0.0));
        assert!(c.unavailability > 0.0);

        // Without the coupling there is no credited column, and the ideal
        // site draws nothing, so the plain estimate is bit-identical.
        let plain = Scenario::parse(
            "[campaign]\nname = dr\nseed = 7\nmodel = mc\n[axes]\nlambda = 1e-4\nhep = 0.05\n[mc]\niterations = 120\nhorizon_hours = 20000\n[fleet]\narrays = 6\n",
        )
        .unwrap();
        let base = run(
            &expand(&plain).unwrap(),
            &RunConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(base.cells[0].credited_unavailability, None);
        assert_eq!(
            base.cells[0].unavailability.to_bits(),
            c.unavailability.to_bits()
        );
    }
}

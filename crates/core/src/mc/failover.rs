//! Monte-Carlo model of the automatic fail-over policy: a replay of the
//! Fig. 3 chain.
//!
//! Every transition is an exponential race, so both engines replay the
//! chain definition the exact solver builds from ([`fig3_chain`]): the
//! shared jump chain, and the general event-queue engine, which arms one
//! exponential clock per enabled exit and lets the queue race them.

use super::jump::{ExitTable, Tally};
use super::{
    ArrayBook, AvailabilityEstimate, IterationOutcome, McConfig, McEngine, McVariance, SimWorkspace,
};
use crate::error::{CoreError, Result};
use crate::markov::fig3_chain;
use crate::params::ModelParams;
use availsim_sim::indexed_queue::{IndexedEventQueue, QueueStats};
use availsim_sim::rng::SimRng;

/// The Fig. 3 switch-back race out of the network-storage serving states,
/// shared with the fleet engine's DR coupling ([`super::FleetMc`]): a
/// successful fail-back at `(1 − hep)·φ` races a botched switch-back
/// (DR-side human error) at `hep·φ`. Returned as reciprocal rates (`∞`
/// disables a lane, and `sample_exp_inv` then draws nothing) so callers
/// multiply instead of divide.
pub(crate) fn failback_race_inv(hep: f64, failback_rate: f64) -> (f64, f64) {
    (
        ((1.0 - hep) * failback_rate).recip(),
        (hep * failback_rate).recip(),
    )
}

/// Event payload of the general engine: the exit that fired, 8 bytes so a
/// queue entry stays 24 (the per-mission `epoch` guard never approaches
/// `u32::MAX`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Jump {
    exit: u8,
    epoch: u32,
}

/// Reusable scratch of the general event-queue engine. Cleared (capacity
/// retained) at the start of every mission.
#[derive(Debug, Default)]
pub(crate) struct FoScratch {
    queue: IndexedEventQueue<Jump>,
}

impl FoScratch {
    /// Empties the queue, retaining its allocated capacity.
    pub(crate) fn reset(&mut self) {
        self.queue.clear();
    }

    /// Cumulative traffic counters of the mission event queue.
    pub(crate) fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }
}

/// The automatic fail-over Monte-Carlo model.
#[derive(Debug, Clone, Copy)]
pub struct FailOverMc {
    params: ModelParams,
    engine: McEngine,
    table: ExitTable,
}

impl FailOverMc {
    /// Creates the model.
    ///
    /// # Errors
    /// Propagates parameter validation errors. A live LSE/scrubbing model
    /// is rejected: the Fig. 3 chain has no rebuild-completion data-loss
    /// branch, and silently ignoring the exposure would overstate
    /// availability (a zero-rate model is accepted — it is numerically
    /// off).
    pub fn new(params: ModelParams) -> Result<Self> {
        params.validate()?;
        if params.rebuild_lse_probability() > 0.0 {
            return Err(CoreError::InvalidParameter(
                "the fail-over model does not support LSE-aware rebuilds; \
                 remove the scrubbing model (or set `lse_rate = 0`), or use \
                 the conventional/fleet Monte-Carlo engines"
                    .into(),
            ));
        }
        Ok(FailOverMc {
            params,
            engine: McEngine::Auto,
            table: ExitTable::compile(&fig3_chain(&params), |_, _| None),
        })
    }

    /// Selects the per-mission engine. Every Fig. 3 transition is
    /// exponential, so [`McEngine::Auto`] resolves to the jump-chain fast
    /// path; [`McEngine::EventQueue`] forces the general engine.
    pub fn with_engine(mut self, engine: McEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Whether the configured engine resolves to the fast path.
    fn fast_path(&self) -> bool {
        self.engine == McEngine::Auto
    }

    /// Resolves the variance scheme against the configured engine: every
    /// Fig. 3 transition is exponential, so failure biasing always applies
    /// (on the fast path), while splitting — the scheme for models with no
    /// tractable path density — has nothing to offer here and is rejected.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameter`] for splitting, for biasing on a
    /// forced [`McEngine::EventQueue`], or for invalid scheme parameters.
    fn resolve_bias(&self, variance: McVariance) -> Result<Option<f64>> {
        variance.validate()?;
        match variance {
            McVariance::Naive => Ok(None),
            McVariance::FailureBiasing { bias } => {
                if matches!(self.engine, McEngine::EventQueue) {
                    Err(CoreError::InvalidParameter(
                        "failure biasing runs on the jump-chain fast path; \
                         do not force McEngine::EventQueue with it"
                            .into(),
                    ))
                } else if bias <= 0.0 {
                    Ok(None) // exactly the naive estimator
                } else {
                    Ok(Some(bias))
                }
            }
            McVariance::Splitting { .. } => Err(CoreError::InvalidParameter(
                "splitting targets the conventional model's event-queue engine \
                 (non-exponential lifetimes); the fail-over chain is fully \
                 exponential — use McVariance::FailureBiasing instead"
                    .into(),
            )),
        }
    }

    /// Runs the full Monte-Carlo estimation.
    ///
    /// Each worker thread allocates one [`SimWorkspace`] and reuses it for
    /// every mission it claims, so the mission loop is allocation-free in
    /// steady state on both engines.
    ///
    /// # Errors
    /// Propagates configuration errors and invalid engine/variance
    /// combinations (see [`McVariance`]).
    pub fn run(&self, config: &McConfig) -> Result<AvailabilityEstimate> {
        self.run_with_cancel(config, None)
    }

    /// [`run`](Self::run) plus an optional cooperative
    /// [`CancelToken`](availsim_sim::parallel::CancelToken): a tripped
    /// deadline or explicit cancel stops the block scheduler and returns
    /// [`CoreError::DeadlineExpired`](crate::CoreError::DeadlineExpired)
    /// instead of an estimate. Uncancelled runs are bit-identical to
    /// [`run`](Self::run).
    ///
    /// # Errors
    /// As [`run`](Self::run), plus `DeadlineExpired` on cancellation.
    pub fn run_with_cancel(
        &self,
        config: &McConfig,
        cancel: Option<&availsim_sim::parallel::CancelToken>,
    ) -> Result<AvailabilityEstimate> {
        let fast = self.fast_path();
        let bias = self.resolve_bias(config.variance)?;
        super::run_blocks(
            config,
            f64::from(self.params.geometry.usable_capacity()),
            cancel,
            ArrayBook::new(config.horizon_hours),
            |ws, i| {
                let mut rng = SimRng::substream(config.seed, i);
                if fast || bias.is_some() {
                    self.table.mission(config.horizon_hours, bias, &mut rng, ws)
                } else {
                    self.simulate_event_queue(config.horizon_hours, &mut rng, ws)
                }
            },
        )
    }

    /// Simulates one mission with a fresh scratch workspace (hot loops
    /// should use [`Self::simulate_once_with`]). Engine selection follows
    /// [`Self::with_engine`].
    pub fn simulate_once(&self, horizon: f64, rng: &mut SimRng) -> IterationOutcome {
        let mut ws = SimWorkspace::new();
        self.simulate_once_with(horizon, rng, &mut ws)
    }

    /// Simulates one mission on a reusable [`SimWorkspace`] —
    /// allocation-free once the workspace buffers have grown. The mission
    /// fully resets the workspace state it reads, so reuse across missions
    /// never leaks state between iterations.
    pub fn simulate_once_with(
        &self,
        horizon: f64,
        rng: &mut SimRng,
        ws: &mut SimWorkspace,
    ) -> IterationOutcome {
        if self.fast_path() {
            self.table.mission(horizon, None, rng, ws)
        } else {
            self.simulate_event_queue(horizon, rng, ws)
        }
    }

    /// Simulates one importance-sampled mission on a reusable workspace
    /// (see [`McVariance::FailureBiasing`]); the returned outcome's
    /// `weight` carries the path's likelihood ratio. `bias <= 0` falls back
    /// to [`Self::simulate_once_with`] with weight 1.
    pub fn simulate_once_biased_with(
        &self,
        horizon: f64,
        bias: f64,
        rng: &mut SimRng,
        ws: &mut SimWorkspace,
    ) -> IterationOutcome {
        if bias > 0.0 {
            self.table.mission(horizon, Some(bias), rng, ws)
        } else {
            self.simulate_once_with(horizon, rng, ws)
        }
    }

    /// The general event-queue engine: arm one exponential clock per
    /// enabled exit and let the queue race them (epoch-guarded against
    /// stale events).
    fn simulate_event_queue(
        &self,
        horizon: f64,
        rng: &mut SimRng,
        ws: &mut SimWorkspace,
    ) -> IterationOutcome {
        ws.failover.reset();
        ws.log.clear();
        let queue = &mut ws.failover.queue;
        let log = &mut ws.log;
        let table = &self.table;
        let mut tally = Tally::new();
        let (mut s, mut epoch) = (0, 0u32);

        let arm = |s: usize,
                   epoch: u32,
                   queue: &mut IndexedEventQueue<Jump>,
                   rng: &mut SimRng,
                   tally: &mut Tally| {
            for k in 0..table.exits(s) {
                // The armed draw multiplies by the precomputed 1/rate;
                // a delay landing past the horizon can never fire —
                // the draw still happens (the stream is the contract),
                // but the queue never holds the event.
                if let Some(dt) = rng.sample_exp_inv(table.inv_rate(s, k)) {
                    tally.exp_draws += 1;
                    if queue.now() + dt <= horizon {
                        let _ = queue.schedule(
                            dt,
                            Jump {
                                exit: k as u8,
                                epoch,
                            },
                        );
                    } else {
                        queue.note_expired();
                    }
                }
            }
        };

        arm(s, epoch, queue, rng, &mut tally);
        while let Some((t, jump)) = queue.pop_due(horizon) {
            if jump.epoch != epoch {
                continue;
            }
            // Every event in the queue belongs to the epoch that just
            // ended (the chain quiesces completely on each transition), so
            // the losers of the race are removed in one bulk pass instead
            // of surfacing later as stale pops. The epoch guard above
            // stays as a defensive invariant.
            queue.cancel_all();
            s = tally.step_from(table, s, usize::from(jump.exit), t, log);
            epoch += 1;
            arm(s, epoch, queue, rng, &mut tally);
        }

        log.finalize(horizon);
        tally.flush(&mut ws.telemetry);
        tally.outcome(log, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::{EdgeTag, Raid5FailOver};
    use availsim_hra::Hep;
    use availsim_storage::OutageCause;

    fn params(lambda: f64, hep: f64) -> ModelParams {
        ModelParams::raid5_3plus1(lambda, Hep::new(hep).unwrap()).unwrap()
    }

    fn quick_config(iterations: u64) -> McConfig {
        McConfig {
            iterations,
            horizon_hours: 10_000.0,
            seed: 11,
            confidence: 0.99,
            threads: 2,
            ..McConfig::default()
        }
    }

    #[test]
    fn exit_rates_match_the_markov_chain() {
        // Every compiled exit must equal the entry of the dense rate
        // matrix the exact solver builds from the same definition, which
        // sums parallel edges in declared order.
        let p = params(1e-4, 0.01);
        let mc = FailOverMc::new(p).unwrap();
        let def = Raid5FailOver::new(p).unwrap().chain();
        let n = def.states().len();
        let mut rates = vec![vec![0.0; n]; n];
        for e in def.edges() {
            rates[usize::from(e.from)][usize::from(e.to)] += e.rate;
        }
        for (s, row) in rates.iter().enumerate() {
            let mut total = 0.0;
            for k in 0..mc.table.exits(s) {
                let (rate, to, _) = mc.table.exit(s, k);
                assert_eq!(rate.to_bits(), row[to].to_bits());
                total += rate;
            }
            assert!((total - row.iter().sum::<f64>()).abs() < 1e-15, "state {s}");
        }
    }

    #[test]
    fn precomputed_table_matches_exits() {
        // The table keeps the declared exit order, rates, reciprocals and
        // tags of every state.
        let p = params(1e-4, 0.01);
        let mc = FailOverMc::new(p).unwrap();
        let def = fig3_chain(&p);
        for s in 0..def.states().len() {
            let declared: Vec<_> = def
                .edges()
                .iter()
                .filter(|e| usize::from(e.from) == s)
                .collect();
            assert_eq!(declared.len(), mc.table.exits(s));
            for (k, e) in declared.into_iter().enumerate() {
                let (rate, to, tag) = mc.table.exit(s, k);
                assert_eq!(rate.to_bits(), e.rate.to_bits());
                assert_eq!(mc.table.inv_rate(s, k).to_bits(), e.rate.recip().to_bits());
                assert_eq!((to, tag), (usize::from(e.to), e.tag));
            }
        }
    }

    #[test]
    fn biased_exit_set_marks_failure_error_and_crash_rates() {
        // Every edge failure biasing inflates must be built from λ, hep, or
        // the crash rate: turning all three off must zero exactly those
        // edges, up to the λ-driven ones.
        let mut p = params(1e-4, 0.0);
        p.removed_crash_rate = 0.0;
        for e in fig3_chain(&p).edges() {
            if e.tag == EdgeTag::Service {
                assert!(e.rate > 0.0, "{e:?}: service exit disabled");
            } else {
                assert!(
                    e.rate <= 4.0 * p.disk_failure_rate + 1e-18,
                    "{e:?}: biased rate is not λ-scale"
                );
            }
        }
    }

    #[test]
    fn live_lse_model_is_rejected_at_construction() {
        use availsim_storage::ScrubbingModel;
        let p = params(1e-4, 0.01).with_scrubbing(ScrubbingModel::new(1e-4, 336.0).unwrap());
        let err = FailOverMc::new(p).unwrap_err().to_string();
        assert!(err.contains("LSE-aware rebuilds"), "{err}");
        // A zero-rate model is numerically off and stays accepted.
        let z = params(1e-4, 0.01).with_scrubbing(ScrubbingModel::new(0.0, 336.0).unwrap());
        assert!(FailOverMc::new(z).is_ok());
    }

    #[test]
    fn no_downtime_without_events() {
        for engine in [McEngine::Auto, McEngine::EventQueue] {
            let mc = FailOverMc::new(params(1e-15, 0.01))
                .unwrap()
                .with_engine(engine);
            let est = mc.run(&quick_config(10)).unwrap();
            assert_eq!(est.overall_availability, 1.0);
        }
    }

    #[test]
    fn agrees_with_markov_at_high_rates() {
        let p = params(1e-3, 0.01);
        let markov = Raid5FailOver::new(p).unwrap().solve().unwrap();
        for engine in [McEngine::Auto, McEngine::EventQueue] {
            let mc = FailOverMc::new(p).unwrap().with_engine(engine);
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
    fn beats_conventional_mc_under_human_error() {
        use crate::mc::ConventionalMc;
        let p = params(1e-3, 0.05);
        let cfg = quick_config(400);
        let fo = FailOverMc::new(p).unwrap().run(&cfg).unwrap();
        let conv = ConventionalMc::new(p).unwrap().run(&cfg).unwrap();
        assert!(
            fo.overall_availability > conv.overall_availability,
            "fo {} conv {}",
            fo.overall_availability,
            conv.overall_availability
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        for engine in [McEngine::Auto, McEngine::EventQueue] {
            let p = params(1e-3, 0.01);
            let mc = FailOverMc::new(p).unwrap().with_engine(engine);
            let mut cfg = quick_config(64);
            cfg.telemetry = true;
            cfg.threads = 1;
            let a = mc.run(&cfg).unwrap();
            cfg.threads = 8;
            let b = mc.run(&cfg).unwrap();
            assert_eq!(
                a.overall_availability.to_bits(),
                b.overall_availability.to_bits(),
                "{engine:?}"
            );
            assert_eq!(a.counters, b.counters, "{engine:?}");
            // Every DL entry is counted, on both engines.
            use availsim_sim::telemetry::Counter;
            assert!(a.dl_events > 0, "{engine:?}");
            assert_eq!(
                a.counters.get(Counter::DataLossEvents),
                a.dl_events,
                "{engine:?}"
            );
        }
    }

    #[test]
    fn hep_zero_never_enters_du() {
        for engine in [McEngine::Auto, McEngine::EventQueue] {
            let mc = FailOverMc::new(params(2e-3, 0.0))
                .unwrap()
                .with_engine(engine);
            let est = mc.run(&quick_config(300)).unwrap();
            assert_eq!(est.du_events, 0, "{engine:?}");
        }
    }

    #[test]
    fn failure_biasing_covers_fig3_markov_where_naive_sees_nothing() {
        let p = params(1e-8, 0.01);
        let exact = Raid5FailOver::new(p)
            .unwrap()
            .solve()
            .unwrap()
            .unavailability();
        let cfg = McConfig {
            variance: crate::mc::McVariance::failure_biasing(),
            horizon_hours: 87_600.0,
            ..quick_config(600)
        };
        let est = FailOverMc::new(p).unwrap().run(&cfg).unwrap();
        assert!(est.unavailability() > 0.0);
        assert!(
            est.is_consistent_with_unavailability(exact),
            "exact {exact:.3e} outside CI {} (U_est {:.3e})",
            est.availability,
            est.unavailability()
        );
        let naive = FailOverMc::new(p)
            .unwrap()
            .run(&McConfig {
                horizon_hours: 87_600.0,
                ..quick_config(600)
            })
            .unwrap();
        assert_eq!(naive.du_events + naive.dl_events, 0);
    }

    #[test]
    fn zero_bias_degenerates_to_naive_and_splitting_is_rejected() {
        let p = params(1e-3, 0.01);
        let mc = FailOverMc::new(p).unwrap();
        let naive = mc.run(&quick_config(200)).unwrap();
        let zero = mc
            .run(&McConfig {
                variance: crate::mc::McVariance::FailureBiasing { bias: 0.0 },
                ..quick_config(200)
            })
            .unwrap();
        assert_eq!(
            naive.overall_availability.to_bits(),
            zero.overall_availability.to_bits()
        );
        assert!(mc
            .run(&McConfig {
                variance: crate::mc::McVariance::splitting(),
                ..quick_config(10)
            })
            .is_err());
        assert!(mc
            .with_engine(McEngine::EventQueue)
            .run(&McConfig {
                variance: crate::mc::McVariance::failure_biasing(),
                ..quick_config(10)
            })
            .is_err());
    }

    #[test]
    fn workspace_reuse_matches_fresh_workspaces_bitwise() {
        let p = params(2e-3, 0.05);
        for engine in [McEngine::Auto, McEngine::EventQueue] {
            let mc = FailOverMc::new(p).unwrap().with_engine(engine);
            let mut reused = SimWorkspace::new();
            for s in 500..504 {
                let mut rng = SimRng::seed_from(s);
                let _ = mc.simulate_once_with(30_000.0, &mut rng, &mut reused);
            }
            reused.log.begin(3.0, OutageCause::DataLoss); // poison
            let mut fresh = SimWorkspace::new();
            let mut rng_a = SimRng::seed_from(9);
            let mut rng_b = SimRng::seed_from(9);
            let a = mc.simulate_once_with(30_000.0, &mut rng_a, &mut reused);
            let b = mc.simulate_once_with(30_000.0, &mut rng_b, &mut fresh);
            assert_eq!(
                a.downtime_hours.to_bits(),
                b.downtime_hours.to_bits(),
                "{engine:?}"
            );
            assert_eq!(a.du_events, b.du_events, "{engine:?}");
            assert_eq!(a.dl_events, b.dl_events, "{engine:?}");
        }
    }
}

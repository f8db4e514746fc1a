//! Data-loss oracle suite: the MC `p_data_loss` interval must cover the
//! exact first-passage probability of the matching DL-absorbing chain
//! (the transient mass of its absorbing DL state, by `ctmc::transient`)
//! on every cell of a λ × scrub-interval × geometry grid, and the
//! `lse_rate = 0` runs must stay bit-identical to the LSE-free engines at
//! any thread count. Run in CI as a named step.

use availsim_core::mc::{ConventionalMc, FailOverMc, FleetMc, McConfig, McEngine};
use availsim_core::ModelParams;
use availsim_ctmc::transient;
use availsim_hra::Hep;
use availsim_storage::{FleetSpec, RaidGeometry, ScrubbingModel};

fn params(geometry: RaidGeometry, lambda: f64, hep: f64) -> ModelParams {
    ModelParams::paper_defaults(geometry, lambda, Hep::new(hep).unwrap()).unwrap()
}

fn config(iterations: u64, horizon: f64, seed: u64) -> McConfig {
    McConfig {
        iterations,
        horizon_hours: horizon,
        seed,
        confidence: 0.99,
        threads: 2,
        ..McConfig::default()
    }
}

/// Exact P(first data loss ≤ horizon) of the Fig. 2 chain with the
/// LSE-split rebuild completion — the DL-absorbing twin of the chain the
/// MC engines replay (DL keeps no restore edge, so its transient mass at
/// the horizon is the first-passage probability the per-mission loss
/// indicator estimates).
fn exact_p_loss(p: &ModelParams, horizon: f64) -> f64 {
    const OP: usize = 0;
    const EXP: usize = 1;
    const DU: usize = 2;
    const DL: usize = 3;
    let n = f64::from(p.disks());
    let hep = p.hep.value();
    let ue = p.rebuild_lse_probability();
    let lam = p.disk_failure_rate;
    let mut a = vec![vec![0.0; 4]; 4];
    a[OP][EXP] = n * lam;
    // Second failure during service, or a rebuild completion that read an
    // unreadable sector: both lose data.
    a[EXP][DL] = (n - 1.0) * lam + (1.0 - hep) * ue * p.disk_repair_rate;
    a[EXP][OP] = (1.0 - hep) * (1.0 - ue) * p.disk_repair_rate;
    // Default wrong-replacement timing: the change-action rate μ_ch.
    a[EXP][DU] = hep * p.disk_change_rate;
    a[DU][OP] = (1.0 - hep) * p.human_recovery_rate;
    a[DU][DL] = p.removed_crash_rate;
    transient(&a, &[1.0, 0.0, 0.0, 0.0], horizon, 1e-12).unwrap()[DL]
}

#[test]
fn p_data_loss_ci_covers_the_absorbing_chain_on_the_oracle_grid() {
    // λ × scrub-interval × {raid5, raid6} grid; every cell's Wilson
    // interval must cover the exact first-passage probability.
    let horizon = 10_000.0;
    let geometries = [
        RaidGeometry::raid5(3).unwrap(),
        RaidGeometry::raid6(4).unwrap(),
    ];
    for &lambda in &[5e-5, 2e-4] {
        for &interval in &[168.0, 672.0] {
            for &geometry in &geometries {
                let scrub = ScrubbingModel::new(1e-4, interval).unwrap();
                let p = params(geometry, lambda, 0.01).with_scrubbing(scrub);
                let exact = exact_p_loss(&p, horizon);
                assert!(
                    exact > 0.01 && exact < 0.99,
                    "degenerate oracle cell: exact {exact}"
                );
                let est = ConventionalMc::new(p)
                    .unwrap()
                    .run(&config(1_500, horizon, 97))
                    .unwrap();
                assert!(
                    (exact - est.p_data_loss.mean).abs() <= est.p_data_loss.half_width,
                    "λ={lambda} T={interval} {}: exact {exact:.4} outside \
                     {:.4} ± {:.4}",
                    geometry.label(),
                    est.p_data_loss.mean,
                    est.p_data_loss.half_width
                );
                // NOMDL and mean-time-to-first-loss come along for free on
                // every lossy cell.
                assert!(est.nomdl_per_tb > 0.0);
                let mttfl = est.mean_time_to_first_loss_hours.unwrap();
                assert!(mttfl > 0.0 && mttfl < horizon);
            }
        }
    }
}

#[test]
fn event_queue_engine_matches_the_absorbing_chain_too() {
    // The per-disk event-queue engine estimates the same first-passage
    // probability through a different mechanism: per-disk lifetime clocks,
    // with the definition's split rebuild exits racing as exponential
    // clocks instead of being picked by rate.
    let horizon = 20_000.0;
    let scrub = ScrubbingModel::new(1e-4, 336.0).unwrap();
    for &lambda in &[1e-4, 5e-4] {
        let p = params(RaidGeometry::raid5(3).unwrap(), lambda, 0.01).with_scrubbing(scrub);
        let exact = exact_p_loss(&p, horizon);
        let est = ConventionalMc::new(p)
            .unwrap()
            .with_engine(McEngine::EventQueue)
            .run(&config(1_000, horizon, 131))
            .unwrap();
        assert!(
            (exact - est.p_data_loss.mean).abs() <= est.p_data_loss.half_width,
            "λ={lambda}: exact {exact:.4} outside {:.4} ± {:.4}",
            est.p_data_loss.mean,
            est.p_data_loss.half_width
        );
    }
}

#[test]
fn zero_lse_rate_is_a_bitwise_noop_at_any_thread_count() {
    // The golden-digest pin: an attached zero-rate scrubbing model draws
    // nothing and changes nothing, at threads 1 and 4, on both engines.
    let zero = ScrubbingModel::new(0.0, 336.0).unwrap();
    let base = params(RaidGeometry::raid5(3).unwrap(), 1e-3, 0.01);
    for engine in [McEngine::Auto, McEngine::EventQueue] {
        for threads in [1, 4] {
            let cfg = McConfig {
                threads,
                ..config(512, 10_000.0, 7)
            };
            let plain = ConventionalMc::new(base)
                .unwrap()
                .with_engine(engine)
                .run(&cfg)
                .unwrap();
            let zeroed = ConventionalMc::new(base.with_scrubbing(zero))
                .unwrap()
                .with_engine(engine)
                .run(&cfg)
                .unwrap();
            let digest = |e: &availsim_core::mc::AvailabilityEstimate| {
                [
                    e.overall_availability.to_bits(),
                    e.availability.mean.to_bits(),
                    e.availability.half_width.to_bits(),
                    e.p_data_loss.mean.to_bits(),
                    e.nomdl_per_tb.to_bits(),
                    e.du_events,
                    e.dl_events,
                    e.loss_missions,
                ]
            };
            assert_eq!(digest(&plain), digest(&zeroed), "{engine:?} t={threads}");
        }
    }
}

#[test]
fn nomdl_is_loss_events_per_mission_per_usable_tb_on_both_policies() {
    // Naive missions weigh 1, so NOMDL is exactly the DL events per
    // mission over the usable capacity, for conventional replacement and
    // for fail-over alike — with no scrubbing model and with the inert
    // one (`lse_rate = 0`) the front doors accept for fail-over.
    let inert = ScrubbingModel::new(0.0, 336.0).unwrap();
    let cfg = config(2_000, 20_000.0, 19);
    for geometry in [
        RaidGeometry::raid5(3).unwrap(),
        RaidGeometry::raid5(7).unwrap(),
    ] {
        let tb = f64::from(geometry.usable_capacity());
        let base = params(geometry, 5e-4, 0.01);
        for p in [base, base.with_scrubbing(inert)] {
            for engine in [McEngine::Auto, McEngine::EventQueue] {
                let runs = [
                    (
                        "conventional",
                        ConventionalMc::new(p)
                            .unwrap()
                            .with_engine(engine)
                            .run(&cfg),
                    ),
                    (
                        "failover",
                        FailOverMc::new(p).unwrap().with_engine(engine).run(&cfg),
                    ),
                ];
                for (policy, est) in runs {
                    let est = est.unwrap();
                    assert!(est.dl_events > 0, "{policy}/{engine:?}");
                    let per_tb = est.dl_events as f64 / cfg.iterations as f64 / tb;
                    assert_eq!(
                        est.nomdl_per_tb.to_bits(),
                        per_tb.to_bits(),
                        "{policy}/{engine:?} on {}: {} vs {per_tb}",
                        geometry.label(),
                        est.nomdl_per_tb
                    );
                }
            }
        }
    }
}

#[test]
fn loss_metrics_are_thread_count_invariant_with_live_lse() {
    let scrub = ScrubbingModel::new(1e-4, 672.0).unwrap();
    let p = params(RaidGeometry::raid5(3).unwrap(), 5e-4, 0.01).with_scrubbing(scrub);
    let mc = ConventionalMc::new(p).unwrap();
    let mut cfg = config(512, 20_000.0, 3);
    cfg.threads = 1;
    let a = mc.run(&cfg).unwrap();
    cfg.threads = 4;
    let b = mc.run(&cfg).unwrap();
    assert_eq!(a.loss_missions, b.loss_missions);
    assert_eq!(a.p_data_loss.mean.to_bits(), b.p_data_loss.mean.to_bits());
    assert_eq!(a.nomdl_per_tb.to_bits(), b.nomdl_per_tb.to_bits());
    assert_eq!(
        a.mean_time_to_first_loss_hours.unwrap().to_bits(),
        b.mean_time_to_first_loss_hours.unwrap().to_bits()
    );
}

#[test]
fn fleet_zero_lse_rate_is_a_bitwise_noop() {
    let spec = FleetSpec::new(4, RaidGeometry::raid5(3).unwrap()).unwrap();
    let base = params(RaidGeometry::raid5(3).unwrap(), 1e-3, 0.01);
    let zero = base.with_scrubbing(ScrubbingModel::new(0.0, 336.0).unwrap());
    let cfg = config(96, 10_000.0, 23);
    let plain = FleetMc::new(spec, base).unwrap().run(&cfg).unwrap();
    let zeroed = FleetMc::new(spec, zero).unwrap().run(&cfg).unwrap();
    assert_eq!(
        plain.overall_array_availability.to_bits(),
        zeroed.overall_array_availability.to_bits()
    );
    assert_eq!(plain.dl_events, zeroed.dl_events);
    assert_eq!(plain.loss_missions, zeroed.loss_missions);
    assert_eq!(
        plain.p_data_loss.mean.to_bits(),
        zeroed.p_data_loss.mean.to_bits()
    );
    assert_eq!(plain.nomdl_per_tb.to_bits(), zeroed.nomdl_per_tb.to_bits());
}

#[test]
fn fleet_lse_exposure_produces_rebuild_losses() {
    let spec = FleetSpec::new(4, RaidGeometry::raid5(3).unwrap()).unwrap();
    let base = params(RaidGeometry::raid5(3).unwrap(), 1e-3, 0.0);
    let lse = base.with_scrubbing(ScrubbingModel::new(1e-3, 1_000.0).unwrap());
    assert!(lse.rebuild_lse_probability() > 0.3);
    let mut cfg = config(64, 10_000.0, 29);
    cfg.telemetry = true;
    let plain = FleetMc::new(spec, base).unwrap().run(&cfg).unwrap();
    let lossy = FleetMc::new(spec, lse).unwrap().run(&cfg).unwrap();
    assert!(lossy.dl_events > plain.dl_events);
    assert!(lossy.loss_missions > 0);
    assert!(lossy.p_data_loss.mean > 0.0);
    assert!(lossy.nomdl_per_tb > 0.0);
    let mttfl = lossy.mean_time_to_first_loss_hours.unwrap();
    assert!(mttfl > 0.0 && mttfl < 10_000.0);
    // The fleet NOMDL normalizes by the fleet's usable capacity (4 arrays
    // × 3 data disks).
    let per_mission = lossy.dl_events as f64 / lossy.iterations as f64;
    assert!((lossy.nomdl_per_tb - per_mission / 12.0).abs() < 1e-15);
    // Telemetry: every LSE hit is a DL entry, and the DL-entry counter
    // matches the estimate's event total.
    use availsim_sim::telemetry::Counter;
    let hits = lossy.counters.get(Counter::RebuildLseHits);
    let dl = lossy.counters.get(Counter::DataLossEvents);
    assert!(hits > 0);
    assert!(hits <= dl);
    assert_eq!(dl, lossy.dl_events);
    assert_eq!(plain.counters.get(Counter::RebuildLseHits), 0);
}

#[test]
fn fleet_loss_metrics_are_thread_count_invariant() {
    let spec = FleetSpec::new(3, RaidGeometry::raid5(3).unwrap()).unwrap();
    let p = params(RaidGeometry::raid5(3).unwrap(), 1e-3, 0.01)
        .with_scrubbing(ScrubbingModel::new(5e-4, 672.0).unwrap());
    let mc = FleetMc::new(spec, p).unwrap();
    let mut cfg = config(96, 10_000.0, 41);
    cfg.threads = 1;
    let a = mc.run(&cfg).unwrap();
    cfg.threads = 4;
    let b = mc.run(&cfg).unwrap();
    assert_eq!(a.loss_missions, b.loss_missions);
    assert_eq!(a.p_data_loss.mean.to_bits(), b.p_data_loss.mean.to_bits());
    assert_eq!(a.nomdl_per_tb.to_bits(), b.nomdl_per_tb.to_bits());
    assert_eq!(
        a.mean_time_to_first_loss_hours.unwrap().to_bits(),
        b.mean_time_to_first_loss_hours.unwrap().to_bits()
    );
}

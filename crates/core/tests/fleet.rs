//! Fleet-suite oracle tests: `FleetMc` against the exact Fig. 2 chain,
//! against the single-array engines, and against its own determinism and
//! accounting contracts. Run in CI as a named step.

use availsim_core::markov::Raid5Conventional;
use availsim_core::mc::{
    ConventionalMc, DomainFailures, FleetCoupling, FleetEstimate, FleetMc, McConfig, McEngine,
    McVariance, SimWorkspace, DEGRADED_BINS,
};
use availsim_core::ModelParams;
use availsim_ctmc::steady_state_gth_rates;
use availsim_hra::{DependenceLevel, Hep};
use availsim_sim::rng::SimRng;
use availsim_sim::telemetry::Counter;
use availsim_storage::{
    FailoverPolicy, FailureModel, FleetFailover, FleetSpec, RaidGeometry, ScrubbingModel,
};

fn spec(arrays: u32) -> FleetSpec {
    FleetSpec::new(arrays, RaidGeometry::raid5(3).unwrap()).unwrap()
}

fn params(lambda: f64, hep: f64) -> ModelParams {
    ModelParams::raid5_3plus1(lambda, Hep::new(hep).unwrap()).unwrap()
}

fn quick_config(iterations: u64) -> McConfig {
    McConfig {
        iterations,
        horizon_hours: 10_000.0,
        seed: 23,
        confidence: 0.99,
        threads: 2,
        ..McConfig::default()
    }
}

#[test]
fn rejects_mismatched_geometry_and_rare_event_schemes() {
    let fleet = FleetSpec::new(4, RaidGeometry::raid5(7).unwrap()).unwrap();
    assert!(FleetMc::new(fleet, params(1e-4, 0.01)).is_err());

    let mc = FleetMc::new(spec(4), params(1e-4, 0.01)).unwrap();
    for variance in [McVariance::failure_biasing(), McVariance::splitting()] {
        let cfg = McConfig {
            variance,
            ..quick_config(10)
        };
        assert!(mc.run(&cfg).is_err(), "{variance} must be rejected");
    }
    assert!(mc
        .run(&McConfig {
            iterations: 1,
            ..quick_config(10)
        })
        .is_err());
}

#[test]
fn single_array_fleet_matches_the_markov_answer() {
    // A = 1 is exactly the conventional model; the fleet estimate must
    // bracket the Fig. 2 chain like the single-array engines do.
    let p = params(1e-3, 0.01);
    let markov = Raid5Conventional::new(p).unwrap().solve().unwrap();
    let est = FleetMc::new(spec(1), p)
        .unwrap()
        .run(&quick_config(600))
        .unwrap();
    let u = markov.unavailability();
    let gap = (est.array_unavailability() - u).abs();
    assert!(
        gap <= est.availability.half_width,
        "fleet U {:.3e} vs markov {u:.3e} (hw {:.3e})",
        est.array_unavailability(),
        est.availability.half_width
    );
    // With one array, fleet-down and array-down coincide.
    assert!((est.fleet_availability - est.overall_array_availability).abs() < 1e-12);
    assert_eq!(est.arrays, 1);
}

#[test]
fn fleet_per_array_availability_matches_the_single_array_engine() {
    // Independence: per-array availability must not depend on A. The
    // CIs of a 16-array fleet and the single-array event-queue engine
    // must overlap.
    let p = params(1e-3, 0.02);
    let fleet = FleetMc::new(spec(16), p)
        .unwrap()
        .run(&quick_config(200))
        .unwrap();
    let single = ConventionalMc::new(p)
        .unwrap()
        .with_engine(McEngine::EventQueue)
        .run(&quick_config(600))
        .unwrap();
    let gap = (fleet.availability.mean - single.availability.mean).abs();
    assert!(
        gap <= fleet.availability.half_width + single.availability.half_width,
        "fleet {} vs single {}",
        fleet.availability,
        single.availability
    );
    assert!(fleet.du_events > 0);
    assert!(fleet.dl_events > 0);
}

#[test]
fn degraded_distribution_is_a_time_share_and_scales_with_fleet_size() {
    let p = params(1e-3, 0.01);
    let small = FleetMc::new(spec(2), p)
        .unwrap()
        .run(&quick_config(60))
        .unwrap();
    let large = FleetMc::new(spec(64), p)
        .unwrap()
        .run(&quick_config(60))
        .unwrap();
    for est in [&small, &large] {
        let total: f64 = est.degraded_time_share.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        assert!(est.degraded_time_share.iter().all(|&s| s >= 0.0));
    }
    // A 32x bigger fleet spends more time with at least one array
    // degraded, and its expected simultaneous-degraded count grows.
    assert!(large.degraded_time_share[0] < small.degraded_time_share[0]);
    assert!(large.mean_degraded() > small.mean_degraded());
    assert!(large.max_degraded >= small.max_degraded);
    assert!(u32::try_from(DEGRADED_BINS).unwrap() > large.max_degraded);
}

#[test]
fn fleet_and_array_downtime_accounting_are_consistent() {
    let p = params(2e-3, 0.05);
    let est = FleetMc::new(spec(8), p)
        .unwrap()
        .run(&quick_config(100))
        .unwrap();
    // Any-array-down time is bounded by summed array downtime (union
    // bound) and positive at these rates.
    let total_time = est.horizon_hours * est.iterations as f64;
    let summed = est.mean_array_downtime_hours * 8.0 * est.iterations as f64;
    assert!(est.annual_any_down_hours > 0.0);
    assert!((1.0 - est.fleet_availability) * total_time <= summed + 1e-6);
    // DU share is a proper fraction and both causes occurred.
    assert!(est.du_downtime_share > 0.0 && est.du_downtime_share < 1.0);
    // Annualisation is the unavailability times the year constant.
    assert!(
        (est.annual_array_downtime_hours
            - est.array_unavailability() * availsim_storage::HOURS_PER_YEAR)
            .abs()
            < 1e-9
    );
}

#[test]
fn thread_count_never_changes_a_bit() {
    let p = params(1e-3, 0.02);
    let mc = FleetMc::new(spec(8), p).unwrap();
    let run = |threads| {
        mc.run(&McConfig {
            iterations: 300, // not a multiple of the block size
            horizon_hours: 20_000.0,
            seed: 77,
            confidence: 0.95,
            threads,
            ..McConfig::default()
        })
        .unwrap()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(
        one.overall_array_availability.to_bits(),
        four.overall_array_availability.to_bits()
    );
    assert_eq!(
        one.fleet_availability.to_bits(),
        four.fleet_availability.to_bits()
    );
    assert_eq!(
        one.availability.mean.to_bits(),
        four.availability.mean.to_bits()
    );
    assert_eq!(
        one.availability.half_width.to_bits(),
        four.availability.half_width.to_bits()
    );
    assert_eq!(one.du_events, four.du_events);
    assert_eq!(one.dl_events, four.dl_events);
    assert_eq!(one.max_degraded, four.max_degraded);
    for (a, b) in one
        .degraded_time_share
        .iter()
        .zip(&four.degraded_time_share)
    {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert!(one.mean_array_downtime_hours > 0.0);
}

#[test]
fn extreme_rate_missions_do_not_overflow_the_event_guards() {
    // Regression for the fleet event payload's gen/epoch width: a valid
    // but absurd λ·horizon drives each disk slot through >100k
    // fail/repair cycles in one mission, far past what a 16-bit counter
    // could hold — the mission must complete (overflow checks are on in
    // test builds) with sane accounting.
    let p = params(0.05, 0.0); // mean lifetime 20 h
    let mc = FleetMc::new(spec(1), p).unwrap();
    let mut ws = SimWorkspace::new();
    let mut rng = SimRng::seed_from(3);
    let horizon = 4_000_000.0;
    let out = mc.simulate_once_with(horizon, &mut rng, &mut ws);
    assert!(out.dl_events > 65_536, "got {} DL events", out.dl_events);
    let total: f64 = out.degraded_hours.iter().sum();
    assert!((total - horizon).abs() < 1e-3, "total {total}");
    assert!(out.array_downtime_hours() > 0.0 && out.array_downtime_hours() < horizon);
}

#[test]
fn weibull_fleets_are_supported() {
    let weibull = FailureModel::weibull(1e-3, 1.48).unwrap();
    let mc = FleetMc::with_failure_model(spec(4), params(1e-4, 0.01), weibull).unwrap();
    let est = mc.run(&quick_config(100)).unwrap();
    assert!(est.overall_array_availability < 1.0);
    assert!(est.overall_array_availability > 0.5);
}

#[test]
fn workspace_reuse_matches_fresh_workspaces_bitwise() {
    let p = params(2e-3, 0.05);
    let mc = FleetMc::new(spec(8), p).unwrap();
    let mut reused = SimWorkspace::new();
    for s in 100..103 {
        let mut rng = SimRng::seed_from(s);
        let _ = mc.simulate_once_with(30_000.0, &mut rng, &mut reused);
    }
    let mut fresh = SimWorkspace::new();
    let mut rng_a = SimRng::seed_from(9);
    let mut rng_b = SimRng::seed_from(9);
    let a = mc.simulate_once_with(30_000.0, &mut rng_a, &mut reused);
    let b = mc.simulate_once_with(30_000.0, &mut rng_b, &mut fresh);
    assert_eq!(
        a.array_downtime_hours().to_bits(),
        b.array_downtime_hours().to_bits()
    );
    assert_eq!(a.any_down_hours.to_bits(), b.any_down_hours.to_bits());
    assert_eq!(a.du_events, b.du_events);
    assert_eq!(a.dl_events, b.dl_events);
    assert_eq!(a.max_degraded, b.max_degraded);
}

/// Every estimate field as raw bits, so "byte-identical" is one equality.
fn digest(est: &FleetEstimate) -> (Vec<u64>, u64, u64, u32) {
    let mut bits = vec![
        est.overall_array_availability.to_bits(),
        est.fleet_availability.to_bits(),
        est.availability.mean.to_bits(),
        est.availability.half_width.to_bits(),
        est.mean_array_downtime_hours.to_bits(),
        est.annual_array_downtime_hours.to_bits(),
        est.annual_any_down_hours.to_bits(),
        est.du_downtime_share.to_bits(),
    ];
    bits.extend(est.degraded_time_share.iter().map(|s| s.to_bits()));
    (bits, est.du_events, est.dl_events, est.max_degraded)
}

fn pin_config(threads: usize) -> McConfig {
    McConfig {
        iterations: 300,
        horizon_hours: 20_000.0,
        seed: 77,
        confidence: 0.95,
        threads,
        ..McConfig::default()
    }
}

/// Frozen from the pre-coupling `FleetMc` (PR 5): the independent limit
/// must keep reproducing these exact bits at any worker count. Pinned by
/// the unlimited-crew, the slack-pool, and the ideal-DR tests alike.
const GOLDEN_SCALARS: [u64; 8] = [
    0x3fefdf96eabac622, // overall_array_availability
    0x3fef006aaf848d71, // fleet_availability
    0x3fefdf96eabac620, // availability.mean
    0x3f1f39512e1f9183, // availability.half_width
    0x4053c8233b8091df, // mean_array_downtime_hours
    0x404157391961ce1b, // annual_array_downtime_hours
    0x407117dd6cf18e65, // annual_any_down_hours
    0x3fc4f82731a782d6, // du_downtime_share
];
const GOLDEN_HIST_HEAD: [u64; 6] = [
    0x3fe7e291ad343c7f,
    0x3fcc7e26fa23ca5f,
    0x3f9d6159b989cb86,
    0x3f61f7dfc78dff46,
    0x3f1ba9d896813645,
    0x3ec25fa902151d7a,
];
const GOLDEN_EVENTS: (u64, u64, u32) = (30_569, 4_853, 5);

fn golden_bits() -> Vec<u64> {
    let mut golden = GOLDEN_SCALARS.to_vec();
    golden.extend_from_slice(&GOLDEN_HIST_HEAD);
    golden.extend(std::iter::repeat_n(
        0u64,
        DEGRADED_BINS - GOLDEN_HIST_HEAD.len(),
    ));
    golden
}

#[test]
fn repair_crew_unlimited_pool_pins_the_pre_coupling_golden_bits() {
    // The independent limit — unlimited crews, zero dependence, no
    // domains — and a never-binding pool of `c = A` crews pin the
    // pre-coupling bits.
    let golden = golden_bits();
    let p = params(1e-3, 0.02);
    let unlimited = FleetMc::new(spec(8), p).unwrap();
    let slack_pool = FleetMc::new(spec(8).with_repairmen(8).unwrap(), p).unwrap();
    for mc in [&unlimited, &slack_pool] {
        for threads in [1, 4] {
            let est = mc.run(&pin_config(threads)).unwrap();
            let (bits, du, dl, maxd) = digest(&est);
            assert_eq!(bits, golden, "threads = {threads}");
            assert_eq!((du, dl, maxd), GOLDEN_EVENTS, "threads = {threads}");
        }
    }
}

#[test]
fn dependence_zero_level_and_lone_incidents_change_nothing() {
    // Explicit zero dependence is the engine default, bit for bit; and
    // with a single array there is never a *concurrent* incident, so
    // even complete dependence cannot escalate anything.
    let p = params(1e-3, 0.02);
    let base_8 = FleetMc::new(spec(8), p)
        .unwrap()
        .run(&pin_config(2))
        .unwrap();
    let zero_8 = FleetMc::new(spec(8), p)
        .unwrap()
        .with_coupling(FleetCoupling {
            dependence: DependenceLevel::Zero,
            domains: None,
        })
        .unwrap()
        .run(&pin_config(2))
        .unwrap();
    assert_eq!(digest(&base_8), digest(&zero_8));

    let base_1 = FleetMc::new(spec(1), p)
        .unwrap()
        .run(&pin_config(2))
        .unwrap();
    let complete_1 = FleetMc::new(spec(1), p)
        .unwrap()
        .with_coupling(FleetCoupling {
            dependence: DependenceLevel::Complete,
            domains: None,
        })
        .unwrap()
        .run(&pin_config(2))
        .unwrap();
    assert_eq!(digest(&base_1), digest(&complete_1));
}

#[test]
fn repair_crew_scarcity_and_dependence_both_hurt_availability() {
    let p = params(2e-3, 0.02);
    let cfg = quick_config(150);
    let run = |spec: FleetSpec, coupling: Option<FleetCoupling>| {
        let mut mc = FleetMc::new(spec, p).unwrap();
        if let Some(c) = coupling {
            mc = mc.with_coupling(c).unwrap();
        }
        mc.run(&cfg).unwrap()
    };
    let free = run(spec(16), None);
    let starved = run(spec(16).with_repairmen(1).unwrap(), None);
    assert!(
        starved.overall_array_availability < free.overall_array_availability,
        "1 crew {} vs unlimited {}",
        starved.overall_array_availability,
        free.overall_array_availability
    );
    assert!(starved.max_degraded >= free.max_degraded);

    let coupled = run(
        spec(16),
        Some(FleetCoupling {
            dependence: DependenceLevel::High,
            domains: None,
        }),
    );
    assert!(
        coupled.overall_array_availability < free.overall_array_availability,
        "high dependence {} vs zero {}",
        coupled.overall_array_availability,
        free.overall_array_availability
    );
    assert!(coupled.du_events > free.du_events);
}

/// Stationary availability of the M/M/c machine-repairman model:
/// `N` machines failing at rate `nu`, `c` crews repairing at rate `mu`,
/// via the birth-death chain on the number of failed machines.
fn machine_repairman_availability(n: u32, crews: Option<u32>, nu: f64, mu: f64) -> f64 {
    let n = n as usize;
    let c = crews.map_or(n, |c| (c as usize).min(n));
    let mut pi = vec![0.0f64; n + 1];
    pi[0] = 1.0;
    for k in 0..n {
        pi[k + 1] = pi[k] * ((n - k) as f64 * nu) / ((k + 1).min(c) as f64 * mu);
    }
    let z: f64 = pi.iter().sum();
    let mean_down: f64 = pi
        .iter()
        .enumerate()
        .map(|(k, p)| k as f64 * p)
        .sum::<f64>()
        / z;
    1.0 - mean_down / n as f64
}

#[test]
fn repair_crew_pool_matches_the_machine_repairman_closed_form() {
    // Exact M/M/c oracle: per-array domain strikes (shelves of one) at
    // rate ν are the "machine failures", the crew-bound DL restore at
    // rate μ is the "repair", and the disk/operator physics is turned
    // off (λ ≈ 0, hep = 0). The MC confidence interval must cover the
    // closed-form availability across a crews × ν grid.
    const N: u32 = 12;
    const MU: f64 = 0.25;
    let mut p = params(1e-12, 0.0);
    p.ddf_recovery_rate = MU;
    for crews in [Some(1), Some(2), Some(4), None] {
        for nu in [0.01, 0.04] {
            let fleet = match crews {
                Some(c) => spec(N).with_repairmen(c).unwrap(),
                None => spec(N),
            };
            let est = FleetMc::new(fleet, p)
                .unwrap()
                .with_coupling(FleetCoupling {
                    dependence: DependenceLevel::Zero,
                    domains: Some(DomainFailures {
                        domain_arrays: 1,
                        rate: nu,
                    }),
                })
                .unwrap()
                .run(&McConfig {
                    iterations: 160,
                    horizon_hours: 30_000.0,
                    seed: 911,
                    confidence: 0.99,
                    threads: 2,
                    ..McConfig::default()
                })
                .unwrap();
            let exact = machine_repairman_availability(N, crews, nu, MU);
            let gap = (est.availability.mean - exact).abs();
            assert!(
                gap <= est.availability.half_width,
                "c = {crews:?}, ν = {nu}: mc {} vs exact {exact:.6} (hw {:.2e})",
                est.availability,
                est.availability.half_width
            );
        }
    }
}

#[test]
fn domain_failures_knock_out_whole_shelves() {
    // One shelf covering the entire 40-array fleet: every strike drives
    // the degraded count to 40 at once, past the histogram's 32+ tail.
    let mut p = params(1e-6, 0.01);
    p.ddf_recovery_rate = 0.03;
    let est = FleetMc::new(spec(40), p)
        .unwrap()
        .with_coupling(FleetCoupling {
            dependence: DependenceLevel::Zero,
            domains: Some(DomainFailures {
                domain_arrays: 40,
                rate: 1e-3,
            }),
        })
        .unwrap()
        .run(&quick_config(60))
        .unwrap();
    assert_eq!(est.max_degraded, 40);
    assert!(est.dl_events >= 40 * 60, "dl_events {}", est.dl_events);
    assert!(
        est.degraded_time_share[DEGRADED_BINS - 1] > 0.0,
        "the 32+ tail bin must absorb shelf-wide outages"
    );
}

#[test]
fn domain_coupling_is_validated() {
    let p = params(1e-3, 0.01);
    let cases = [
        (0u32, 1e-3, "at least one array per shelf"),
        (9, 1e-3, "exceeds the fleet"),
        (2, 0.0, "must be positive"),
        (2, f64::INFINITY, "must be positive"),
        (2, -1.0, "must be positive"),
    ];
    for (domain_arrays, rate, needle) in cases {
        let err = FleetMc::new(spec(8), p)
            .unwrap()
            .with_coupling(FleetCoupling {
                dependence: DependenceLevel::Zero,
                domains: Some(DomainFailures {
                    domain_arrays,
                    rate,
                }),
            })
            .unwrap_err()
            .to_string();
        assert!(err.contains(needle), "{err}");
    }
}

#[test]
fn domain_and_crew_couplings_keep_the_thread_bit_identity() {
    // The determinism contract survives every coupling at once: a
    // starved crew pool, high operator dependence, and shelf strikes.
    let p = params(1e-3, 0.02);
    let run = |threads| {
        FleetMc::new(spec(12).with_repairmen(2).unwrap(), p)
            .unwrap()
            .with_coupling(FleetCoupling {
                dependence: DependenceLevel::High,
                domains: Some(DomainFailures {
                    domain_arrays: 4,
                    rate: 1e-4,
                }),
            })
            .unwrap()
            .run(&pin_config(threads))
            .unwrap()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(digest(&one), digest(&four));
    assert!(one.dl_events > 0 && one.max_degraded >= 4);
}

#[test]
fn degraded_hours_sum_to_the_horizon_per_mission() {
    let p = params(1e-3, 0.01);
    let mc = FleetMc::new(spec(4), p).unwrap();
    let mut ws = SimWorkspace::new();
    let mut rng = SimRng::seed_from(5);
    let out = mc.simulate_once_with(25_000.0, &mut rng, &mut ws);
    let total: f64 = out.degraded_hours.iter().sum();
    assert!((total - 25_000.0).abs() < 1e-6, "total {total}");
}

fn failover(capacity: Option<u32>, policy: FailoverPolicy, failback_rate: f64) -> FleetFailover {
    FleetFailover {
        capacity,
        policy,
        failback_rate,
    }
}

#[test]
fn ideal_dr_site_pins_the_no_failover_golden_bits() {
    // The `failover_capacity = ∞` limit admits every incident and fails
    // back instantly without touching the RNG stream, so every plain
    // estimate bit must reproduce the PR 6 engine exactly — at any
    // worker count. The only thing that moves is the credit: with every
    // down hour served from DR, credited unavailability is exactly zero.
    let golden = golden_bits();
    let p = params(1e-3, 0.02);
    let ideal = spec(8)
        .with_failover(failover(None, FailoverPolicy::Queue, 0.1))
        .unwrap();
    let mc = FleetMc::new(ideal, p).unwrap();
    for threads in [1, 4] {
        let est = mc.run(&pin_config(threads)).unwrap();
        let (bits, du, dl, maxd) = digest(&est);
        assert_eq!(bits, golden, "threads = {threads}");
        assert_eq!((du, dl, maxd), GOLDEN_EVENTS, "threads = {threads}");
        assert_eq!(est.overall_credited_array_availability, 1.0);
        assert_eq!(est.credited_fleet_availability, 1.0);
        assert_eq!(est.credited_availability.mean, 1.0);
        assert_eq!(est.credited_availability.half_width, 0.0);
        assert!(est.failovers > 0);
        assert!(est.failbacks <= est.failovers);
        assert_eq!(est.dr_queue_waits, 0);
        assert_eq!(est.dr_rejections, 0);
        // Ideal slots are held only while the array is down, so the
        // occupancy distribution is a proper time-share too.
        let occ: f64 = est.dr_occupancy_share.iter().sum();
        assert!((occ - 1.0).abs() < 1e-9, "occupancy shares sum to {occ}");
    }
}

#[test]
fn bounded_failover_keeps_the_thread_bit_identity() {
    // The determinism contract survives the full DR machinery: bounded
    // capacity, FIFO queue, switch-back races, and a starved crew pool.
    let p = params(1e-3, 0.02);
    let run = |threads| {
        FleetMc::new(
            spec(12)
                .with_repairmen(2)
                .unwrap()
                .with_failover(failover(Some(2), FailoverPolicy::Queue, 0.02))
                .unwrap(),
            p,
        )
        .unwrap()
        .with_coupling(FleetCoupling {
            dependence: DependenceLevel::Moderate,
            domains: Some(DomainFailures {
                domain_arrays: 4,
                rate: 1e-4,
            }),
        })
        .unwrap()
        .run(&pin_config(threads))
        .unwrap()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(digest(&one), digest(&four));
    assert_eq!(
        one.overall_credited_array_availability.to_bits(),
        four.overall_credited_array_availability.to_bits()
    );
    assert_eq!(
        one.credited_availability.mean.to_bits(),
        four.credited_availability.mean.to_bits()
    );
    assert_eq!(
        one.dr_queue_wait_hours.to_bits(),
        four.dr_queue_wait_hours.to_bits()
    );
    for (a, b) in one.dr_occupancy_share.iter().zip(&four.dr_occupancy_share) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(one.failovers, four.failovers);
    assert_eq!(one.failbacks, four.failbacks);
    assert_eq!(one.dr_queue_waits, four.dr_queue_waits);
    assert_eq!(one.dr_rejections, four.dr_rejections);
    // The scenario actually exercises the coupling.
    assert!(one.failovers > 0 && one.failbacks > 0 && one.dr_queue_waits > 0);
    assert_eq!(one.dr_rejections, 0, "queue policy never rejects");
    assert!(one.credited_array_unavailability() < one.array_unavailability());
}

/// Exact stationary analysis of the DR-limited fleet in the degenerate
/// regime (disk/operator physics off, per-array strikes at ν, unlimited
/// crews restoring at μ, fail-back at φ with hep = 0): a CTMC on
/// `(s, x, b)` — `s` down arrays holding a DR slot, `x` down arrays
/// queued (queue policy) or rejected (loss policy), `b` restored arrays
/// still failing back (each holds a slot). `s + b ≤ k`, `s + x + b ≤ N`.
struct DrChain {
    n: u32,
    k: u32,
    nu: f64,
    mu: f64,
    phi: f64,
    queue: bool,
}

impl DrChain {
    fn states(&self) -> Vec<(u32, u32, u32)> {
        let mut states = Vec::new();
        for s in 0..=self.k.min(self.n) {
            for b in 0..=(self.k - s).min(self.n - s) {
                for x in 0..=(self.n - s - b) {
                    // Under the queue policy an array only queues while
                    // the site is full, and is admitted the instant a
                    // slot frees — `x > 0` forces `s + b = k`.
                    if self.queue && x > 0 && s + b != self.k {
                        continue;
                    }
                    states.push((s, x, b));
                }
            }
        }
        states
    }

    /// Out-transitions of one state as `(target, rate)` pairs. Strikes
    /// on already-down arrays are no-ops and omitted.
    fn transitions(&self, (s, x, b): (u32, u32, u32)) -> Vec<((u32, u32, u32), f64)> {
        let mut out = Vec::new();
        let free = (self.n - s - x - b) as f64;
        if free > 0.0 {
            // A healthy array is struck: admitted if a slot is free,
            // queued/rejected otherwise.
            let target = if s + b < self.k {
                (s + 1, x, b)
            } else {
                (s, x + 1, b)
            };
            out.push((target, free * self.nu));
        }
        if b > 0 {
            // A failing-back array is re-struck: it keeps its slot and
            // goes back to serving from DR.
            out.push(((s + 1, x, b - 1), f64::from(b) * self.nu));
            // A fail-back completes: under the queue policy the freed
            // slot goes straight to the queue head (a down array, which
            // starts serving); otherwise the slot idles.
            let target = if self.queue && x > 0 {
                (s + 1, x - 1, b - 1)
            } else {
                (s, x, b - 1)
            };
            out.push((target, f64::from(b) * self.phi));
        }
        if s > 0 {
            // A served array is restored: it returns to OP and starts
            // failing back, still holding its slot.
            out.push(((s - 1, x, b + 1), f64::from(s) * self.mu));
        }
        if x > 0 {
            // A queued/rejected array is restored: it abandons the DR
            // site entirely.
            out.push(((s, x - 1, b), f64::from(x) * self.mu));
        }
        out
    }

    /// Stationary distribution of the chain: its dense rate matrix,
    /// solved by GTH.
    fn stationary(&self) -> (Vec<(u32, u32, u32)>, Vec<f64>) {
        let states = self.states();
        let index: std::collections::HashMap<_, _> =
            states.iter().enumerate().map(|(i, &st)| (st, i)).collect();
        let mut rates = vec![vec![0.0; states.len()]; states.len()];
        for (row, &st) in rates.iter_mut().zip(&states) {
            for (target, rate) in self.transitions(st) {
                row[index[&target]] += rate;
            }
        }
        let pi = steady_state_gth_rates(&mut rates).unwrap();
        (states, pi)
    }

    /// `(plain, credited)` exact per-array unavailability: down arrays
    /// are `s + x`; only the uncredited `x` count against the credit.
    fn unavailability(&self) -> (f64, f64) {
        let (states, pi) = self.stationary();
        let mut down = 0.0;
        let mut uncovered = 0.0;
        for (&(s, x, _), &p) in states.iter().zip(&pi) {
            down += f64::from(s + x) * p;
            uncovered += f64::from(x) * p;
        }
        (down / f64::from(self.n), uncovered / f64::from(self.n))
    }
}

#[test]
fn bounded_dr_capacity_matches_the_exact_markov_chain() {
    // Same oracle regime as the machine-repairman test — per-array
    // domain strikes, disk/operator physics off — but with a bounded DR
    // site in the loop. The MC confidence intervals must cover the
    // exact chain's plain *and* credited unavailability on every grid
    // cell, under both admission policies.
    const N: u32 = 12;
    const MU: f64 = 0.25;
    const NU: f64 = 0.01;
    const PHI: f64 = 0.1;
    let mut p = params(1e-12, 0.0);
    p.ddf_recovery_rate = MU;
    for policy in [FailoverPolicy::Queue, FailoverPolicy::Loss] {
        for k in [1u32, 2, 4] {
            let chain = DrChain {
                n: N,
                k,
                nu: NU,
                mu: MU,
                phi: PHI,
                queue: policy == FailoverPolicy::Queue,
            };
            let (exact_u, exact_credited_u) = chain.unavailability();
            let est = FleetMc::new(
                spec(N)
                    .with_failover(failover(Some(k), policy, PHI))
                    .unwrap(),
                p,
            )
            .unwrap()
            .with_coupling(FleetCoupling {
                dependence: DependenceLevel::Zero,
                domains: Some(DomainFailures {
                    domain_arrays: 1,
                    rate: NU,
                }),
            })
            .unwrap()
            .run(&McConfig {
                iterations: 160,
                horizon_hours: 30_000.0,
                seed: 911,
                confidence: 0.99,
                threads: 2,
                ..McConfig::default()
            })
            .unwrap();
            let gap = (est.availability.mean - (1.0 - exact_u)).abs();
            assert!(
                gap <= est.availability.half_width,
                "k = {k}, {policy}: plain mc {} vs exact {:.6} (hw {:.2e})",
                est.availability,
                1.0 - exact_u,
                est.availability.half_width
            );
            let credited_gap = (est.credited_availability.mean - (1.0 - exact_credited_u)).abs();
            assert!(
                credited_gap <= est.credited_availability.half_width,
                "k = {k}, {policy}: credited mc {} vs exact {:.6} (hw {:.2e})",
                est.credited_availability,
                1.0 - exact_credited_u,
                est.credited_availability.half_width
            );
            match policy {
                FailoverPolicy::Queue => {
                    assert!(est.dr_queue_waits > 0 && est.dr_rejections == 0)
                }
                FailoverPolicy::Loss => {
                    assert!(est.dr_rejections > 0 && est.dr_queue_waits == 0)
                }
            }
        }
    }
    // The unbounded site is the k → ∞ limit: nothing queues, nothing is
    // rejected, and the plain answer is the crew-free machine-repairman
    // closed form.
    let est = FleetMc::new(
        spec(N)
            .with_failover(failover(None, FailoverPolicy::Queue, PHI))
            .unwrap(),
        p,
    )
    .unwrap()
    .with_coupling(FleetCoupling {
        dependence: DependenceLevel::Zero,
        domains: Some(DomainFailures {
            domain_arrays: 1,
            rate: NU,
        }),
    })
    .unwrap()
    .run(&McConfig {
        iterations: 160,
        horizon_hours: 30_000.0,
        seed: 911,
        confidence: 0.99,
        threads: 2,
        ..McConfig::default()
    })
    .unwrap();
    let exact = machine_repairman_availability(N, None, NU, MU);
    let gap = (est.availability.mean - exact).abs();
    assert!(
        gap <= est.availability.half_width,
        "k = ∞: mc {} vs exact {exact:.6}",
        est.availability
    );
    assert_eq!(est.overall_credited_array_availability, 1.0);
    assert_eq!(est.dr_queue_waits, 0);
    assert_eq!(est.dr_rejections, 0);
}

#[test]
fn dr_contention_orders_credited_unavailability_by_capacity() {
    // More DR slots can only help: credited unavailability must fall
    // monotonically along k = 1 → 2 → 4 → ∞ in a contended regime, and
    // the plain estimate must not react to the DR site at all (serving
    // from DR does not repair anything).
    const N: u32 = 12;
    let mut p = params(1e-12, 0.0);
    p.ddf_recovery_rate = 0.05;
    let run = |capacity: Option<Option<u32>>| {
        let mut fleet = spec(N);
        if let Some(cap) = capacity {
            fleet = fleet
                .with_failover(failover(cap, FailoverPolicy::Queue, 0.05))
                .unwrap();
        }
        FleetMc::new(fleet, p)
            .unwrap()
            .with_coupling(FleetCoupling {
                dependence: DependenceLevel::Zero,
                domains: Some(DomainFailures {
                    domain_arrays: 1,
                    rate: 0.02,
                }),
            })
            .unwrap()
            .run(&quick_config(80))
            .unwrap()
    };
    let none = run(None);
    let k1 = run(Some(Some(1)));
    let k2 = run(Some(Some(2)));
    let k4 = run(Some(Some(4)));
    let ideal = run(Some(None));
    // The ideal site draws nothing, so it cannot perturb the physics:
    // its plain bits are identical to running with no site at all. (A
    // bounded site arms real switch-back clocks, which legitimately
    // shift the stream.)
    assert_eq!(
        none.overall_array_availability.to_bits(),
        ideal.overall_array_availability.to_bits()
    );
    assert_eq!(none.dl_events, ideal.dl_events);
    let u = |est: &FleetEstimate| est.credited_array_unavailability();
    assert!(u(&k1) > u(&k2), "k1 {} vs k2 {}", u(&k1), u(&k2));
    assert!(u(&k2) > u(&k4), "k2 {} vs k4 {}", u(&k2), u(&k4));
    assert!(u(&k4) > u(&ideal), "k4 {} vs ideal {}", u(&k4), u(&ideal));
    assert_eq!(u(&ideal), 0.0);
    // Serving from DR does not repair anything: the credit can only
    // discount the plain downtime, never exceed it.
    for est in [&k1, &k2, &k4] {
        assert!(u(est) <= est.array_unavailability() + 1e-12);
    }
    // Queue pressure shows up in the waiting-time telemetry, and a
    // one-slot site can never report more than one busy slot.
    assert!(k1.mean_dr_queue_wait_hours() > 0.0);
    assert!(k1.mean_dr_occupancy() <= 1.0 + 1e-9);
}

/// FNV-1a over every public field of a fleet estimate, as raw words. The
/// destructuring is exhaustive, so a new field fails to compile here
/// until it is pinned too.
fn every_field(est: &FleetEstimate) -> u64 {
    let FleetEstimate {
        availability,
        overall_array_availability,
        fleet_availability,
        mean_array_downtime_hours,
        annual_array_downtime_hours,
        annual_any_down_hours,
        du_downtime_share,
        du_events,
        dl_events,
        p_data_loss,
        nomdl_per_tb,
        mean_time_to_first_loss_hours,
        loss_missions,
        degraded_time_share,
        max_degraded,
        credited_availability,
        overall_credited_array_availability,
        credited_fleet_availability,
        dr_occupancy_share,
        dr_queue_wait_hours,
        failovers,
        failbacks,
        dr_queue_waits,
        dr_rejections,
        iterations,
        horizon_hours,
        arrays,
        counters,
    } = est;
    let mut words = Vec::new();
    for ci in [availability, p_data_loss, credited_availability] {
        words.extend([ci.mean, ci.half_width, ci.confidence].map(f64::to_bits));
    }
    words.extend(
        [
            *overall_array_availability,
            *fleet_availability,
            *mean_array_downtime_hours,
            *annual_array_downtime_hours,
            *annual_any_down_hours,
            *du_downtime_share,
            *nomdl_per_tb,
            mean_time_to_first_loss_hours.unwrap_or(-1.0),
            *overall_credited_array_availability,
            *credited_fleet_availability,
            *dr_queue_wait_hours,
            *horizon_hours,
        ]
        .map(f64::to_bits),
    );
    words.extend(degraded_time_share.iter().map(|s| s.to_bits()));
    words.extend(dr_occupancy_share.iter().map(|s| s.to_bits()));
    words.extend([
        *du_events,
        *dl_events,
        *loss_missions,
        *failovers,
        *failbacks,
        *dr_queue_waits,
        *dr_rejections,
        *iterations,
        u64::from(*max_degraded),
        u64::from(*arrays),
    ]);
    words.extend(counters.iter().map(|(_, v)| v));
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn every_fleet_estimate_field_is_pinned() {
    // Every public field of `FleetEstimate` (counters on) for the plain
    // fleet, the crew + dependence + domain couplings, a bounded DR site,
    // a live LSE rate, every coupling with an Erlang-loss DR site, and
    // Weibull lifetimes with a queueing DR site.
    let p = params(1e-3, 0.02);
    let cfg = McConfig {
        telemetry: true,
        ..pin_config(1)
    };
    let coupling = FleetCoupling {
        dependence: DependenceLevel::Moderate,
        domains: Some(DomainFailures {
            domain_arrays: 4,
            rate: 1e-4,
        }),
    };
    let coupled = FleetMc::new(spec(12).with_repairmen(2).unwrap(), p)
        .unwrap()
        .with_coupling(coupling)
        .unwrap();
    let bounded_dr = spec(12)
        .with_failover(failover(Some(2), FailoverPolicy::Queue, 0.02))
        .unwrap();
    let lse = p.with_scrubbing(ScrubbingModel::new(1e-4, 336.0).unwrap());
    // Every coupling at once, the DR site under the Erlang-loss policy:
    // domain strikes land on arrays that request a DR slot.
    let loss_dr = FleetMc::new(
        spec(12)
            .with_repairmen(2)
            .unwrap()
            .with_failover(failover(Some(2), FailoverPolicy::Loss, 0.02))
            .unwrap(),
        lse,
    )
    .unwrap()
    .with_coupling(coupling)
    .unwrap()
    .run(&cfg)
    .unwrap();
    let c = &loss_dr.counters;
    assert_eq!(
        (
            loss_dr.dr_rejections,
            loss_dr.failovers,
            c.get(Counter::FleetDomainStrikes),
            c.get(Counter::FleetCrewWaits),
            c.get(Counter::RebuildLseHits),
        ),
        (123_633, 131_914, 1_842, 21_408, 8_795)
    );
    // Non-exponential lifetimes behind a queueing DR site.
    let weibull_dr = FleetMc::with_failure_model(
        spec(8)
            .with_failover(failover(Some(2), FailoverPolicy::Queue, 0.02))
            .unwrap(),
        p,
        FailureModel::weibull(1e-3, 1.48).unwrap(),
    )
    .unwrap()
    .run(&cfg)
    .unwrap();
    assert_eq!(
        (weibull_dr.dr_queue_waits, weibull_dr.failbacks),
        (56_175, 115_849)
    );
    let runs = [
        ("plain", FleetMc::new(spec(8), p).unwrap().run(&cfg)),
        ("crews + dependence + domains", coupled.run(&cfg)),
        ("bounded DR", FleetMc::new(bounded_dr, p).unwrap().run(&cfg)),
        ("lse", FleetMc::new(spec(8), lse).unwrap().run(&cfg)),
        ("every coupling + loss DR + lse", Ok(loss_dr)),
        ("weibull + queueing DR", Ok(weibull_dr)),
    ];
    let pinned: [(&str, u64); 6] = [
        ("plain", 0x8411_935d_0c28_f5be),
        ("crews + dependence + domains", 0xdc96_3eb7_3a26_edf7),
        ("bounded DR", 0xb5e9_72f0_5b9a_4d54),
        ("lse", 0x1760_7c04_4ed1_677a),
        ("every coupling + loss DR + lse", 0xd378_700f_284f_b61b),
        ("weibull + queueing DR", 0xdde7_f6ba_2dd9_53ff),
    ];
    let mismatches: Vec<String> = runs
        .iter()
        .zip(&pinned)
        .filter_map(|((case, est), (_, pin))| {
            let got = every_field(est.as_ref().unwrap());
            (got != *pin).then(|| format!("(\"{case}\", {got:#018x}), // pinned {pin:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Runs `mc` with counters on over ten-year missions, the horizon of the
/// fleet benchmark's two cell shapes pinned below.
fn ten_year_run(mc: &FleetMc, iterations: u64, seed: u64) -> FleetEstimate {
    mc.run(&McConfig {
        iterations,
        horizon_hours: 87_600.0,
        seed,
        confidence: 0.95,
        threads: 2,
        telemetry: true,
        ..McConfig::default()
    })
    .unwrap()
}

#[test]
fn two_array_fleet_is_pinned_in_the_linear_regime() {
    // Two RAID5(3+1) arrays at λ = 1e-4 never hold more than 32 pending
    // events, so a whole ten-year mission stays in the linear regime.
    let est = ten_year_run(&FleetMc::new(spec(2), params(1e-4, 0.01)).unwrap(), 48, 11);
    assert_eq!(est.counters.get(Counter::QueueHeapCrossings), 0);
    assert!(est.du_events > 0 && est.dl_events > 0);
    let got = every_field(&est);
    assert_eq!(got, 0x9234_58e1_59a1_33a7, "got {got:#018x}");
}

#[test]
fn thousand_array_fleet_is_pinned_in_the_heap_regime() {
    // 1000 arrays, 8 crews and a 4-slot queueing DR site at λ = 3e-6:
    // about a thousand sub-horizon disk clocks keep every mission deep in
    // the heap regime, with the service and fail-back races on top. The
    // fail-back rate defaults to μ_ch, as at the spec door.
    let p = params(3e-6, 0.01);
    let fleet = spec(1000)
        .with_repairmen(8)
        .unwrap()
        .with_failover(failover(Some(4), FailoverPolicy::Queue, p.disk_change_rate))
        .unwrap();
    let est = ten_year_run(&FleetMc::new(fleet, p).unwrap(), 48, 12);
    assert_eq!(
        est.counters.get(Counter::QueueHeapCrossings),
        est.iterations
    );
    assert!(est.failovers > 0 && est.failbacks > 0);
    let got = every_field(&est);
    assert_eq!(got, 0xd87a_4e76_2445_e383, "got {got:#018x}");
}

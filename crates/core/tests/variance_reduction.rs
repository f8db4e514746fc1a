//! Statistical oracle suite for the rare-event Monte-Carlo schemes.
//!
//! The exponential Fig. 2 / Fig. 3 models have *exact* CTMC solutions, so
//! the biased estimators can be held to analytic answers instead of to
//! other simulations:
//!
//! 1. across a λ grid — including points where naive MC at the same budget
//!    observes **zero** failures — the importance-sampled CI must cover the
//!    exact chain unavailability;
//! 2. the ESS / max-weight diagnostics must stay within bounds (weights
//!    well-behaved, no single path dominating);
//! 3. every scheme honours the `threads = 1` vs `threads = N` bit-identity
//!    contract (per-mission weights merged in index order);
//! 4. fixed-effort splitting, run on an exponential model so the oracle
//!    applies, must cover the same exact value.
//!
//! Property tests (vendored proptest, fixed per-test RNG streams) pin the
//! algebraic guarantees: weights are always finite and positive, `bias = 0`
//! degenerates bit-for-bit to the naive estimator, and single-level
//! splitting is bit-for-bit the plain event-queue run.

use availsim_core::markov::{Raid5Conventional, Raid5FailOver};
use availsim_core::mc::{ConventionalMc, FailOverMc, McConfig, McVariance, SimWorkspace};
use availsim_core::ModelParams;
use availsim_hra::Hep;
use availsim_sim::rng::SimRng;
use availsim_storage::FailureModel;
use proptest::prelude::*;

fn params(lambda: f64, hep: f64) -> ModelParams {
    ModelParams::raid5_3plus1(lambda, Hep::new(hep).unwrap()).unwrap()
}

/// Ten-year missions: the paper's horizon, long enough that the finite-
/// horizon transient (≈ 1/μ_DDF ≈ 33 h of relaxation) is negligible next
/// to the CI widths checked here.
fn biased_config(iterations: u64, seed: u64) -> McConfig {
    McConfig {
        iterations,
        horizon_hours: 87_600.0,
        seed,
        confidence: 0.99,
        threads: 0,
        variance: McVariance::failure_biasing(),
        telemetry: false,
    }
}

#[test]
fn biased_ci_covers_exact_fig2_unavailability_across_the_lambda_grid() {
    // Spans four decades down to λ = 1e-9, where the exact unavailability
    // is ~1e-10 — far beyond anything 4000 naive missions could see.
    for &lambda in &[1e-9, 1e-8, 1e-7, 1e-6] {
        let p = params(lambda, 0.01);
        let exact = Raid5Conventional::new(p)
            .unwrap()
            .solve()
            .unwrap()
            .unavailability();
        let est = ConventionalMc::new(p)
            .unwrap()
            .run(&biased_config(4_000, 2024))
            .unwrap();
        assert!(est.unavailability() > 0.0, "λ={lambda}: estimate is zero");
        assert!(
            est.is_consistent_with_unavailability(exact),
            "λ={lambda}: exact {exact:.4e} outside CI {} (U_est {:.4e})",
            est.availability,
            est.unavailability()
        );
        // The CI is informative at the unavailability's own scale, not a
        // cover-everything interval.
        assert!(
            est.availability.half_width < 10.0 * exact,
            "λ={lambda}: half-width {:.3e} swamps U={exact:.3e}",
            est.availability.half_width
        );
    }
}

#[test]
fn biased_ci_covers_exact_fig3_unavailability() {
    for &lambda in &[1e-8, 1e-6] {
        let p = params(lambda, 0.01);
        let exact = Raid5FailOver::new(p)
            .unwrap()
            .solve()
            .unwrap()
            .unavailability();
        let est = FailOverMc::new(p)
            .unwrap()
            .run(&biased_config(6_000, 7_777))
            .unwrap();
        assert!(est.unavailability() > 0.0, "λ={lambda}: estimate is zero");
        assert!(
            est.is_consistent_with_unavailability(exact),
            "λ={lambda}: exact {exact:.4e} outside CI {} (U_est {:.4e})",
            est.availability,
            est.unavailability()
        );
    }
}

#[test]
fn naive_mc_at_the_same_budget_sees_no_failures_where_biasing_resolves() {
    // The headline rare-event scenario: at λ = 1e-9 a naive 4000-mission
    // run observes nothing (degenerate zero-width CI that the scale-aware
    // consistency check rightly refuses), while the biased run with the
    // identical budget brackets the exact answer.
    let p = params(1e-9, 0.01);
    let exact = Raid5Conventional::new(p)
        .unwrap()
        .solve()
        .unwrap()
        .unavailability();
    let naive = ConventionalMc::new(p)
        .unwrap()
        .run(&McConfig {
            variance: McVariance::Naive,
            ..biased_config(4_000, 2024)
        })
        .unwrap();
    assert_eq!(
        naive.du_events + naive.dl_events,
        0,
        "naive budget unexpectedly observed an outage"
    );
    assert_eq!(naive.unavailability(), 0.0);
    assert_eq!(naive.availability.half_width, 0.0);
    assert!(!naive.is_consistent_with_unavailability(exact));

    let biased = ConventionalMc::new(p)
        .unwrap()
        .run(&biased_config(4_000, 2024))
        .unwrap();
    assert!(biased.is_consistent_with_unavailability(exact));
}

#[test]
fn importance_sampling_diagnostics_stay_within_bounds() {
    for &lambda in &[1e-8, 1e-6] {
        let p = params(lambda, 0.01);
        let est = ConventionalMc::new(p)
            .unwrap()
            .run(&biased_config(4_000, 99))
            .unwrap();
        // Forcing caps every weight by P(first failure ≤ horizon) times the
        // branch ratios; nothing should blow up, and the weight spectrum
        // must keep a healthy share of the sample effective.
        assert!(est.max_weight.is_finite());
        assert!(est.max_weight > 0.0);
        assert!(
            est.max_weight < 100.0,
            "λ={lambda}: max weight {} out of band",
            est.max_weight
        );
        assert!(
            est.effective_sample_size > est.iterations as f64 * 0.01,
            "λ={lambda}: ESS {} of {} — weights degenerate",
            est.effective_sample_size,
            est.iterations
        );
        assert!(est.effective_sample_size <= est.iterations as f64 + 1e-6);
    }
}

#[test]
fn rare_event_schemes_are_bit_identical_across_thread_counts() {
    let p = params(1e-7, 0.01);
    let biased = |threads| {
        ConventionalMc::new(p)
            .unwrap()
            .run(&McConfig {
                threads,
                ..biased_config(700, 5)
            })
            .unwrap()
    };
    let split = |threads| {
        ConventionalMc::new(params(2e-4, 0.02))
            .unwrap()
            .run(&McConfig {
                iterations: 96, // not a multiple of the block size
                horizon_hours: 20_000.0,
                seed: 5,
                confidence: 0.99,
                threads,
                variance: McVariance::Splitting {
                    levels: 2,
                    effort: 24,
                },
                telemetry: false,
            })
            .unwrap()
    };
    let fo_biased = |threads| {
        FailOverMc::new(p)
            .unwrap()
            .run(&McConfig {
                threads,
                ..biased_config(700, 9)
            })
            .unwrap()
    };
    for (a, b) in [
        (biased(1), biased(4)),
        (split(1), split(4)),
        (fo_biased(1), fo_biased(4)),
    ] {
        assert_eq!(
            a.overall_availability.to_bits(),
            b.overall_availability.to_bits()
        );
        assert_eq!(a.availability.mean.to_bits(), b.availability.mean.to_bits());
        assert_eq!(
            a.availability.half_width.to_bits(),
            b.availability.half_width.to_bits()
        );
        assert_eq!(
            a.effective_sample_size.to_bits(),
            b.effective_sample_size.to_bits()
        );
        assert_eq!(a.max_weight.to_bits(), b.max_weight.to_bits());
        assert_eq!(a.du_events, b.du_events);
        assert_eq!(a.dl_events, b.dl_events);
    }
}

#[test]
fn splitting_ci_covers_exact_ctmc_on_the_event_queue_engine() {
    // With exponential failures the event-queue engine is distribution-
    // equivalent to the Fig. 2 chain, so the analytic oracle also holds
    // the splitting estimator to account.
    let p = params(3e-4, 0.01);
    let exact = Raid5Conventional::new(p)
        .unwrap()
        .solve()
        .unwrap()
        .unavailability();
    let est = ConventionalMc::new(p)
        .unwrap()
        .run(&McConfig {
            iterations: 160,
            horizon_hours: 20_000.0,
            seed: 31,
            confidence: 0.99,
            threads: 0,
            variance: McVariance::Splitting {
                levels: 2,
                effort: 48,
            },
            telemetry: false,
        })
        .unwrap();
    assert!(est.unavailability() > 0.0);
    assert!(
        est.is_consistent_with_unavailability(exact),
        "exact {exact:.4e} outside CI {} (U_est {:.4e})",
        est.availability,
        est.unavailability()
    );
}

#[test]
fn biased_precision_run_reaches_a_relative_target_cheaply() {
    // run_to_precision with biasing: ±10% relative on an unavailability
    // around 1e-7 must converge within a budget naive MC could never meet
    // (naive needs ~1/U-scale mission counts; perfbench's traced run
    // records both counts as `count.precision_missions.{naive,biased}`).
    let p = params(2e-7, 0.01);
    let exact = Raid5Conventional::new(p)
        .unwrap()
        .solve()
        .unwrap()
        .unavailability();
    let target = 0.1 * exact;
    let est = ConventionalMc::new(p)
        .unwrap()
        .run_to_precision(&biased_config(2_000, 64), target, 400_000)
        .unwrap();
    assert!(
        est.availability.half_width <= target,
        "did not converge: hw {:.3e} vs target {target:.3e} after {} missions",
        est.availability.half_width,
        est.iterations
    );
    assert!(est.is_consistent_with_unavailability(exact));
    assert!(
        est.iterations < 400_000,
        "biased precision run burnt the whole cap"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Likelihood-ratio weights are always finite and strictly positive —
    /// for both models, across the paper's parameter space and the whole
    /// legal bias range.
    #[test]
    fn weights_are_finite_and_positive(
        lambda in 1e-9f64..1e-3,
        hep in 0.0f64..0.3,
        bias in 0.05f64..0.95,
        seed in 0u64..1_000,
    ) {
        let p = params(lambda, hep);
        let conv = ConventionalMc::new(p).unwrap();
        let fo = FailOverMc::new(p).unwrap();
        let mut ws = SimWorkspace::new();
        for i in 0..16u64 {
            let mut rng = SimRng::substream(seed, i);
            let out = conv.simulate_once_biased_with(50_000.0, bias, &mut rng, &mut ws);
            prop_assert!(out.weight.is_finite() && out.weight > 0.0,
                "conventional weight {}", out.weight);
            prop_assert!((out.weight * out.downtime_hours).is_finite());
            let mut rng = SimRng::substream(seed ^ 0xABCD, i);
            let out = fo.simulate_once_biased_with(50_000.0, bias, &mut rng, &mut ws);
            prop_assert!(out.weight.is_finite() && out.weight > 0.0,
                "failover weight {}", out.weight);
        }
    }

    /// `bias = 0` is *exactly* the naive estimator — same bits, same RNG
    /// consumption, same diagnostics — on both models.
    #[test]
    fn zero_bias_is_bitwise_naive(
        lambda in 1e-6f64..2e-3,
        hep in 0.0f64..0.2,
        seed in 0u64..1_000,
    ) {
        let cfg = McConfig {
            iterations: 64,
            horizon_hours: 30_000.0,
            seed,
            confidence: 0.95,
            threads: 2,
            ..McConfig::default()
        };
        let zero = McConfig {
            variance: McVariance::FailureBiasing { bias: 0.0 },
            ..cfg
        };
        let p = params(lambda, hep);
        let conv = ConventionalMc::new(p).unwrap();
        let (a, b) = (conv.run(&cfg).unwrap(), conv.run(&zero).unwrap());
        prop_assert_eq!(a.overall_availability.to_bits(), b.overall_availability.to_bits());
        prop_assert_eq!(a.availability.half_width.to_bits(), b.availability.half_width.to_bits());
        prop_assert_eq!(a.max_weight.to_bits(), b.max_weight.to_bits());
        prop_assert_eq!(a.du_events, b.du_events);
        let fo = FailOverMc::new(p).unwrap();
        let (a, b) = (fo.run(&cfg).unwrap(), fo.run(&zero).unwrap());
        prop_assert_eq!(a.overall_availability.to_bits(), b.overall_availability.to_bits());
        prop_assert_eq!(a.dl_events, b.dl_events);
    }

    /// Single-level splitting is *exactly* the general event-queue run —
    /// run-for-run, on the Weibull models splitting exists for.
    #[test]
    fn one_level_splitting_is_bitwise_the_event_queue_run(
        rate in 1e-4f64..2e-3,
        shape in 0.8f64..2.0,
        hep in 0.0f64..0.2,
        seed in 0u64..1_000,
        effort in 2u64..64,
    ) {
        let weibull = FailureModel::weibull(rate, shape).unwrap();
        let mc = ConventionalMc::with_failure_model(params(1e-4, hep), weibull).unwrap();
        let cfg = McConfig {
            iterations: 48,
            horizon_hours: 30_000.0,
            seed,
            confidence: 0.95,
            threads: 2,
            ..McConfig::default()
        };
        let naive = mc.run(&McConfig { variance: McVariance::Naive, ..cfg }).unwrap();
        let split = mc.run(&McConfig {
            variance: McVariance::Splitting { levels: 1, effort },
            ..cfg
        }).unwrap();
        prop_assert_eq!(naive.overall_availability.to_bits(), split.overall_availability.to_bits());
        prop_assert_eq!(naive.availability.half_width.to_bits(), split.availability.half_width.to_bits());
        prop_assert_eq!(naive.mean_downtime_hours.to_bits(), split.mean_downtime_hours.to_bits());
        prop_assert_eq!(naive.du_events, split.du_events);
        prop_assert_eq!(naive.dl_events, split.dl_events);
    }
}

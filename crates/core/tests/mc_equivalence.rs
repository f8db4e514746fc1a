//! Statistical-equivalence suite for the jump-chain fast path.
//!
//! The fast path replays the paper's chains directly (Gillespie-style); the
//! event-queue engine simulates per-disk clocks. With exponential failures
//! the two are *distribution*-identical but consume the RNG differently, so
//! agreement is checked statistically, on the same grid the paper uses:
//!
//! 1. each engine's confidence interval must contain the exact Fig. 2
//!    Markov availability (Markov cross-validation at exponential rates);
//! 2. the two engines' intervals must overlap each other (CI overlap);
//! 3. both engines stay bit-identical across thread counts, and workspace
//!    reuse across missions must not leak state between iterations;
//! 4. the jump-chain and per-disk event-queue RNG streams are pinned: a
//!    digest of every estimate bit and counter of fixed runs must not move;
//! 5. telemetry only counts: on or off, every estimate bit is the same.

use availsim_core::markov::{Raid5Conventional, Raid5FailOver, WrongReplacementTiming};
use availsim_core::mc::{
    AvailabilityEstimate, ConventionalMc, FailOverMc, McConfig, McEngine, McVariance, SimWorkspace,
};
use availsim_core::ModelParams;
use availsim_hra::Hep;
use availsim_sim::rng::SimRng;
use availsim_sim::telemetry::Counter;
use availsim_storage::{FailureModel, RaidGeometry, ScrubbingModel};

fn params(lambda: f64, hep: f64) -> ModelParams {
    ModelParams::raid5_3plus1(lambda, Hep::new(hep).unwrap()).unwrap()
}

fn config(iterations: u64, seed: u64) -> McConfig {
    McConfig {
        iterations,
        horizon_hours: 10_000.0,
        seed,
        confidence: 0.99,
        threads: 0,
        ..McConfig::default()
    }
}

/// Intervals `[m1 ± h1]` and `[m2 ± h2]` overlap.
fn overlaps(m1: f64, h1: f64, m2: f64, h2: f64) -> bool {
    (m1 - m2).abs() <= h1 + h2
}

#[test]
fn conventional_engines_agree_with_fig2_markov_over_the_grid() {
    // λ grid spanning the regime where 500 × 10kh missions resolve the
    // unavailability well; hep at the paper's headline setting.
    for &lambda in &[5e-4, 1e-3, 2e-3] {
        let p = params(lambda, 0.01);
        let markov = Raid5Conventional::new(p).unwrap().solve().unwrap();
        let mut cis = Vec::new();
        for engine in [McEngine::Auto, McEngine::EventQueue] {
            let mc = ConventionalMc::new(p).unwrap().with_engine(engine);
            let est = mc.run(&config(500, 31)).unwrap();
            assert!(
                est.is_consistent_with(markov.availability()),
                "λ={lambda}, {engine:?}: markov {} outside CI {}",
                markov.availability(),
                est.availability
            );
            cis.push(est.availability);
        }
        assert!(
            overlaps(
                cis[0].mean,
                cis[0].half_width,
                cis[1].mean,
                cis[1].half_width
            ),
            "λ={lambda}: fast-path CI {} does not overlap event-queue CI {}",
            cis[0],
            cis[1]
        );
    }
}

#[test]
fn failover_engines_agree_with_fig3_markov() {
    let p = params(1e-3, 0.01);
    let markov = Raid5FailOver::new(p).unwrap().solve().unwrap();
    let mut cis = Vec::new();
    for engine in [McEngine::Auto, McEngine::EventQueue] {
        let mc = FailOverMc::new(p).unwrap().with_engine(engine);
        let est = mc.run(&config(600, 47)).unwrap();
        assert!(
            est.is_consistent_with(markov.availability()),
            "{engine:?}: markov {} outside CI {}",
            markov.availability(),
            est.availability
        );
        cis.push(est.availability);
    }
    assert!(
        overlaps(
            cis[0].mean,
            cis[0].half_width,
            cis[1].mean,
            cis[1].half_width
        ),
        "fast-path CI {} does not overlap event-queue CI {}",
        cis[0],
        cis[1]
    );
}

#[test]
fn du_share_is_statistically_equivalent_between_engines() {
    // Not just availability: the cause attribution (the paper's DU vs DL
    // split) must match between the engines too.
    let p = params(2e-3, 0.05);
    let cfg = config(800, 5);
    let fast = ConventionalMc::new(p)
        .unwrap()
        .with_engine(McEngine::Auto)
        .run(&cfg)
        .unwrap();
    let general = ConventionalMc::new(p)
        .unwrap()
        .with_engine(McEngine::EventQueue)
        .run(&cfg)
        .unwrap();
    assert!(fast.du_events > 0 && general.du_events > 0);
    let rel = (fast.du_downtime_share - general.du_downtime_share).abs()
        / general.du_downtime_share.max(1e-12);
    assert!(
        rel < 0.35,
        "du share fast {} vs general {}",
        fast.du_downtime_share,
        general.du_downtime_share
    );
}

#[test]
fn both_engines_are_bit_identical_across_thread_counts() {
    let p = params(1e-3, 0.01);
    for engine in [McEngine::Auto, McEngine::EventQueue] {
        let conv = ConventionalMc::new(p).unwrap().with_engine(engine);
        let fo = FailOverMc::new(p).unwrap().with_engine(engine);
        let mk = |threads| McConfig {
            threads,
            ..config(700, 13) // not a multiple of the scheduling block
        };
        let (c1, c8) = (conv.run(&mk(1)).unwrap(), conv.run(&mk(8)).unwrap());
        let (f1, f8) = (fo.run(&mk(1)).unwrap(), fo.run(&mk(8)).unwrap());
        for (a, b) in [(&c1, &c8), (&f1, &f8)] {
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
            assert_eq!(
                a.mean_downtime_hours.to_bits(),
                b.mean_downtime_hours.to_bits(),
                "{engine:?}"
            );
            assert_eq!(a.du_events, b.du_events, "{engine:?}");
            assert_eq!(a.dl_events, b.dl_events, "{engine:?}");
        }
    }
}

#[test]
fn telemetry_counts_without_perturbing_either_model_on_either_engine() {
    // Telemetry only counts: switching it on never touches the RNG
    // stream, so every estimate bit matches the off run. The off run
    // records nothing; the on run is live, counting at least one event
    // per mission.
    let p = params(1e-3, 0.01);
    let missions = 600;
    let off = config(missions, 17);
    let on = McConfig {
        telemetry: true,
        ..off
    };
    for engine in [McEngine::Auto, McEngine::EventQueue] {
        let conv = ConventionalMc::new(p).unwrap().with_engine(engine);
        let fo = FailOverMc::new(p).unwrap().with_engine(engine);
        let runs = [
            (
                "conventional",
                conv.run(&off).unwrap(),
                conv.run(&on).unwrap(),
            ),
            ("failover", fo.run(&off).unwrap(), fo.run(&on).unwrap()),
        ];
        for (model, off_est, on_est) in runs {
            assert_eq!(
                digest(&off_est, &Counter::ALL),
                digest(&on_est, &Counter::ALL),
                "{model}/{engine:?}: telemetry moved the estimate"
            );
            assert!(
                off_est.counters.is_empty(),
                "{model}/{engine:?}: the disabled registry recorded counts"
            );
            let counted: u64 = on_est.counters.iter().map(|(_, v)| v).sum();
            assert!(
                counted >= missions,
                "{model}/{engine:?}: {counted} events over {missions} missions"
            );
        }
    }
}

#[test]
fn precision_runs_use_the_fast_path_and_converge() {
    let mc = ConventionalMc::new(params(1e-3, 0.01)).unwrap();
    let cfg = config(100, 3);
    let est = mc.run_to_precision(&cfg, 5e-4, 100_000).unwrap();
    assert!(est.availability.half_width <= 5e-4);
    // The Markov answer stays inside the tightened interval.
    let markov = Raid5Conventional::new(params(1e-3, 0.01))
        .unwrap()
        .solve()
        .unwrap();
    assert!(est.is_consistent_with(markov.availability()));
}

#[test]
fn shared_workspace_across_models_does_not_leak_state() {
    // One workspace, alternating between the two models and engines: every
    // mission must match the run of a dedicated fresh workspace bit-by-bit.
    let p = params(2e-3, 0.05);
    let conv = ConventionalMc::new(p).unwrap();
    let conv_eq = ConventionalMc::new(p)
        .unwrap()
        .with_engine(McEngine::EventQueue);
    let fo = FailOverMc::new(p).unwrap();
    let mut shared = SimWorkspace::new();
    for i in 0..20u64 {
        let seed = 900 + i;
        let mut r1 = SimRng::seed_from(seed);
        let mut r2 = SimRng::seed_from(seed);
        let (shared_out, fresh_out) = match i % 3 {
            0 => (
                conv.simulate_once_with(20_000.0, &mut r1, &mut shared),
                conv.simulate_once_with(20_000.0, &mut r2, &mut SimWorkspace::new()),
            ),
            1 => (
                conv_eq.simulate_once_with(20_000.0, &mut r1, &mut shared),
                conv_eq.simulate_once_with(20_000.0, &mut r2, &mut SimWorkspace::new()),
            ),
            _ => (
                fo.simulate_once_with(20_000.0, &mut r1, &mut shared),
                fo.simulate_once_with(20_000.0, &mut r2, &mut SimWorkspace::new()),
            ),
        };
        assert_eq!(
            shared_out.downtime_hours.to_bits(),
            fresh_out.downtime_hours.to_bits(),
            "iteration {i}"
        );
        assert_eq!(shared_out.du_events, fresh_out.du_events, "iteration {i}");
        assert_eq!(shared_out.dl_events, fresh_out.dl_events, "iteration {i}");
    }
}

/// FNV-1a over the pinned fields of an estimate: the availability point
/// estimate and half-width, the mean downtime, `p_data_loss`, the DU/DL
/// event counts, and every counter of the snapshot except `skip`.
fn digest(est: &AvailabilityEstimate, skip: &[Counter]) -> u64 {
    let mut words = vec![
        est.overall_availability.to_bits(),
        est.availability.half_width.to_bits(),
        est.mean_downtime_hours.to_bits(),
        est.p_data_loss.mean.to_bits(),
        est.p_data_loss.half_width.to_bits(),
        est.du_events,
        est.dl_events,
    ];
    words.extend(
        est.counters
            .iter()
            .filter(|(c, _)| !skip.contains(c))
            .map(|(_, v)| v),
    );
    fnv(&words)
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// FNV-1a over every public field of an estimate except `nomdl_per_tb`,
/// which [`every_field_pins`] holds bit for bit on its own. The
/// destructuring is exhaustive, so a new field fails to compile here
/// until it is pinned too.
fn every_field(est: &AvailabilityEstimate) -> u64 {
    let AvailabilityEstimate {
        availability,
        overall_availability,
        mean_downtime_hours,
        du_downtime_share,
        du_events,
        dl_events,
        p_data_loss,
        nomdl_per_tb: _,
        mean_time_to_first_loss_hours,
        loss_missions,
        iterations,
        horizon_hours,
        effective_sample_size,
        max_weight,
        counters,
    } = est;
    let mut words = Vec::new();
    for ci in [availability, p_data_loss] {
        words.extend([ci.mean, ci.half_width, ci.confidence].map(f64::to_bits));
    }
    words.extend(
        [
            *overall_availability,
            *mean_downtime_hours,
            *du_downtime_share,
            mean_time_to_first_loss_hours.unwrap_or(-1.0),
            *horizon_hours,
            *effective_sample_size,
            *max_weight,
        ]
        .map(f64::to_bits),
    );
    words.extend([*du_events, *dl_events, *loss_missions, *iterations]);
    words.extend(counters.iter().map(|(_, v)| v));
    fnv(&words)
}

/// The full-field pin of one estimate: the digest of every other field,
/// and the NOMDL column as raw bits.
fn every_field_pins(est: &AvailabilityEstimate) -> (u64, u64) {
    (every_field(est), est.nomdl_per_tb.to_bits())
}

#[test]
fn every_estimate_field_is_pinned_on_every_array_engine() {
    // Every public field of `AvailabilityEstimate`, on the jump chain
    // (naive and failure-biased), the per-disk event queue, splitting,
    // a live LSE rate, and the Fig. 3 jump chain (naive and biased).
    let base = params(2e-4, 0.01);
    let lse = base.with_scrubbing(ScrubbingModel::new(1e-4, 336.0).unwrap());
    let splitting = McVariance::Splitting {
        levels: 2,
        effort: 8,
    };
    let conv = |p| ConventionalMc::new(p).unwrap();
    let runs = [
        (
            "fig2 jump naive",
            conv(base).run(&pin_config(McVariance::Naive)),
        ),
        (
            "fig2 jump biased",
            conv(base).run(&pin_config(McVariance::failure_biasing())),
        ),
        (
            "fig2 event queue",
            conv(base)
                .with_engine(McEngine::EventQueue)
                .run(&pin_config(McVariance::Naive)),
        ),
        ("fig2 splitting", conv(base).run(&pin_config(splitting))),
        ("fig2 lse", conv(lse).run(&pin_config(McVariance::Naive))),
        (
            "fig3 naive",
            FailOverMc::new(base)
                .unwrap()
                .run(&pin_config(McVariance::Naive)),
        ),
        (
            "fig3 biased",
            FailOverMc::new(base)
                .unwrap()
                .run(&pin_config(McVariance::failure_biasing())),
        ),
    ];
    // Fig. 3's NOMDL is per TB: its loss events per mission over the
    // three usable TB of RAID5(3+1).
    let per_tb = |events_per_mission: u64| (f64::from_bits(events_per_mission) / 3.0).to_bits();
    let pinned: [(&str, u64, u64); 7] = [
        (
            "fig2 jump naive",
            0xd7f3_36ae_7517_e52f,
            0x3f9f_6715_29a4_85cd,
        ),
        (
            "fig2 jump biased",
            0x2436_3c19_721f_9b5c,
            0x3fa3_c238_ee0e_7998,
        ),
        (
            "fig2 event queue",
            0x94c7_e5ad_d9d2_8dfb,
            0x3fa1_1111_1111_1111,
        ),
        (
            "fig2 splitting",
            0x23b7_d351_46d3_6678,
            0x3fd4_773d_3662_c255,
        ),
        ("fig2 lse", 0x18c6_e10e_e888_f2b3, 0x3fd0_98ea_d65b_7a33),
        (
            "fig3 naive",
            0x61bc_fea3_ab57_1eeb,
            per_tb(0x3fb4_fdf3_b645_a1cb),
        ),
        (
            "fig3 biased",
            0x5b5e_1d0e_bee7_b198,
            per_tb(0x3ef0_9773_84a9_5a58),
        ),
    ];
    let mismatches: Vec<String> = runs
        .iter()
        .zip(&pinned)
        .filter_map(|((case, est), (_, fields, nomdl))| {
            let got = every_field_pins(est.as_ref().unwrap());
            (got != (*fields, *nomdl)).then(|| {
                format!(
                    "(\"{case}\", {:#018x}, {:#018x}), // pinned ({fields:#018x}, {nomdl:#018x})",
                    got.0, got.1
                )
            })
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

fn pin_config(variance: McVariance) -> McConfig {
    McConfig {
        iterations: 1_500,
        horizon_hours: 20_000.0,
        seed: 2024,
        confidence: 0.99,
        threads: 1,
        variance,
        telemetry: true,
    }
}

/// Checks each `(case, digest)` pair, reporting every mismatch at once.
fn assert_pins(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let mismatches: Vec<String> = got
        .iter()
        .zip(pinned)
        .filter(|((_, g), (_, p))| g != p)
        .map(|((case, g), (_, p))| format!("{case}: {g:#018x} (pinned {p:#018x})"))
        .collect();
    assert_eq!(got.len(), pinned.len());
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn fig2_jump_chain_streams_are_pinned() {
    let base = params(2e-4, 0.01);
    let lse = base.with_scrubbing(ScrubbingModel::new(1e-4, 336.0).unwrap());
    let mut got = Vec::new();
    for (variance, v) in [
        (McVariance::Naive, "naive"),
        (McVariance::failure_biasing(), "biased"),
    ] {
        for (p, l) in [(base, "no-lse"), (lse, "lse")] {
            for (timing, t) in [
                (WrongReplacementTiming::ChangeAction, "mu_ch"),
                (WrongReplacementTiming::RepairCompletion, "mu_df"),
            ] {
                let mc = ConventionalMc::new(p).unwrap().with_timing(timing);
                let est = mc.run(&pin_config(variance)).unwrap();
                got.push((format!("r5-3 {v} {l} {t}"), digest(&est, &[])));
            }
        }
    }
    let raid1 =
        ModelParams::paper_defaults(RaidGeometry::raid1_pair(), 2e-4, Hep::new(0.01).unwrap())
            .unwrap();
    for (p, case) in [(raid1, "r1 naive"), (params(2e-4, 0.0), "r5-3 hep=0 naive")] {
        let est = ConventionalMc::new(p)
            .unwrap()
            .run(&pin_config(McVariance::Naive))
            .unwrap();
        got.push((case.to_string(), digest(&est, &[])));
    }
    assert_pins(
        &got,
        &[
            ("r5-3 naive no-lse mu_ch", 0xb0bf_a641_d378_69a2),
            ("r5-3 naive no-lse mu_df", 0xfdb6_f255_8e00_a36c),
            ("r5-3 naive lse mu_ch", 0x900c_eca6_ef53_1855),
            ("r5-3 naive lse mu_df", 0xafcf_069e_6181_07aa),
            ("r5-3 biased no-lse mu_ch", 0xa9e5_41e1_a0ef_6694),
            ("r5-3 biased no-lse mu_df", 0x097a_defa_d3fc_c944),
            ("r5-3 biased lse mu_ch", 0xfdae_b050_b915_986b),
            ("r5-3 biased lse mu_df", 0xf45d_5f7c_c88c_8f95),
            ("r1 naive", 0x516c_3d2c_d987_ac66),
            ("r5-3 hep=0 naive", 0x07f8_eaa2_10c8_8d8f),
        ],
    );
}

#[test]
fn fig2_event_queue_streams_are_pinned() {
    // The per-disk engine and the splitting scheme built on it, with the
    // same LSE model as the jump-chain pins, plus one non-exponential
    // lifetime model (the regime only this engine covers).
    let base = params(2e-4, 0.01);
    let lse = base.with_scrubbing(ScrubbingModel::new(1e-4, 336.0).unwrap());
    let mut got = Vec::new();
    for (p, l) in [(base, "no-lse"), (lse, "lse")] {
        for (timing, t) in [
            (WrongReplacementTiming::ChangeAction, "mu_ch"),
            (WrongReplacementTiming::RepairCompletion, "mu_df"),
        ] {
            let mc = ConventionalMc::new(p)
                .unwrap()
                .with_timing(timing)
                .with_engine(McEngine::EventQueue);
            let est = mc.run(&pin_config(McVariance::Naive)).unwrap();
            got.push((format!("r5-3 event-queue {l} {t}"), digest(&est, &[])));
        }
        let split = McVariance::Splitting {
            levels: 2,
            effort: 8,
        };
        let est = ConventionalMc::new(p)
            .unwrap()
            .run(&pin_config(split))
            .unwrap();
        got.push((format!("r5-3 splitting {l}"), digest(&est, &[])));
    }
    let weibull = FailureModel::weibull(2e-4, 1.48).unwrap();
    let est = ConventionalMc::with_failure_model(base, weibull)
        .unwrap()
        .run(&pin_config(McVariance::Naive))
        .unwrap();
    got.push(("r5-3 weibull naive".to_string(), digest(&est, &[])));
    assert_pins(
        &got,
        &[
            ("r5-3 event-queue no-lse mu_ch", 0x06f5_8a82_baef_bda7),
            ("r5-3 event-queue no-lse mu_df", 0xbbad_43d5_5209_9f5d),
            ("r5-3 splitting no-lse", 0x8c0e_6898_58b9_d559),
            ("r5-3 event-queue lse mu_ch", 0x3e85_ee22_092a_9537),
            ("r5-3 event-queue lse mu_df", 0x2148_9254_f191_d6ae),
            ("r5-3 splitting lse", 0x47fc_af12_703c_95f0),
            ("r5-3 weibull naive", 0xd33d_10c1_a4a3_fef0),
        ],
    );
}

#[test]
fn fig3_failure_biased_stream_is_pinned() {
    // The data-loss counter is left out: Fig. 3 runs did not count it
    // before the shared jump chain, and `telemetry_counts_every_data_loss`
    // checks it against `dl_events` instead.
    let est = FailOverMc::new(params(2e-4, 0.01))
        .unwrap()
        .run(&pin_config(McVariance::failure_biasing()))
        .unwrap();
    assert_pins(
        &[(
            "fail-over biased".to_string(),
            digest(&est, &[Counter::DataLossEvents]),
        )],
        &[("fail-over biased", 0xea7f_5805_94c1_9883)],
    );
}

#[test]
fn fig3_naive_stream_is_pinned() {
    // Pinned on the shared jump chain, which draws no pick uniform in the
    // single-exit states OP and DL. A loop that draws one there consumes
    // the stream differently: same distribution, different bits.
    let est = FailOverMc::new(params(2e-4, 0.01))
        .unwrap()
        .run(&pin_config(McVariance::Naive))
        .unwrap();
    assert_pins(
        &[("fail-over naive".to_string(), digest(&est, &[]))],
        &[("fail-over naive", 0x30ae_e9af_976b_b79b)],
    );
}

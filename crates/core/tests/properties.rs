//! Property-based tests of the availability models over the full parameter
//! space the paper explores (and beyond).

use availsim_core::markov::{
    ChainDef, GenericKofN, Raid5Conventional, Raid5FailOver, SolvedChain, WrongReplacementTiming,
};
use availsim_core::{ModelParams, Result};
use availsim_hra::Hep;
use availsim_storage::{RaidGeometry, ScrubbingModel};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = ModelParams> {
    (
        2u32..9,       // data disks for raid5
        1e-8f64..1e-3, // λ
        0.0f64..0.3,   // hep
        0.01f64..1.0,  // μ_DF
        0.001f64..0.5, // μ_DDF
        0.1f64..5.0,   // μ_he
        0.1f64..5.0,   // μ_ch
        0.0f64..0.1,   // λ_crash
    )
        .prop_map(|(k, lam, hep, mu_df, mu_ddf, mu_he, mu_ch, crash)| {
            let mut p = ModelParams::paper_defaults(
                RaidGeometry::raid5(k).unwrap(),
                lam,
                Hep::new(hep).unwrap(),
            )
            .unwrap();
            p.disk_repair_rate = mu_df;
            p.ddf_recovery_rate = mu_ddf;
            p.human_recovery_rate = mu_he;
            p.disk_change_rate = mu_ch;
            p.removed_crash_rate = crash;
            p
        })
}

/// The paper's operating regime: failures are rare relative to every
/// service process (λ ≤ 2e-5 against service rates ≥ 0.03).
fn arb_paper_regime() -> impl Strategy<Value = ModelParams> {
    (
        2u32..9,
        1e-8f64..2e-5,
        0.05f64..0.5, // μ_DF
        0.01f64..0.1, // μ_DDF
        0.5f64..2.0,  // μ_he
        0.5f64..2.0,  // μ_ch
        0.0f64..0.02, // λ_crash
    )
        .prop_map(|(k, lam, mu_df, mu_ddf, mu_he, mu_ch, crash)| {
            let mut p =
                ModelParams::paper_defaults(RaidGeometry::raid5(k).unwrap(), lam, Hep::ZERO)
                    .unwrap();
            p.disk_repair_rate = mu_df;
            p.ddf_recovery_rate = mu_ddf;
            p.human_recovery_rate = mu_he;
            p.disk_change_rate = mu_ch;
            p.removed_crash_rate = crash;
            p
        })
}

/// Documented model boundary (found by property testing): outside the
/// rare-failure regime, the Fig. 2 abstraction lets a wrong replacement act
/// as a repair *shortcut*. The `DU → OP` edge bundles "undo the error and
/// complete the repair" at rate `μ_he`; when `μ_he ≫ μ_DF` and the restore
/// rate `μ_DDF` is very slow, routing through DU shortens the exposed window
/// enough that *more* human error means *less* downtime. The paper's
/// conclusions are unaffected (its λ/μ ratios are ≤ 2e-4), but users feeding
/// the model aggressive rates should know the boundary exists.
#[test]
fn hep_can_help_outside_the_rare_failure_regime() {
    let mut p = ModelParams::paper_defaults(
        RaidGeometry::raid5(2).unwrap(),
        9.5e-4, // λ comparable to μ_DF
        Hep::ZERO,
    )
    .unwrap();
    p.disk_repair_rate = 0.01; // 100-hour repairs
    p.ddf_recovery_rate = 0.001; // 1000-hour restores
    p.human_recovery_rate = 3.5;
    p.disk_change_rate = 0.1;
    p.removed_crash_rate = 0.0;

    let u0 = Raid5Conventional::new(p)
        .unwrap()
        .solve()
        .unwrap()
        .unavailability();
    let u_hep = Raid5Conventional::new(p.with_hep(Hep::new(0.2).unwrap()))
        .unwrap()
        .solve()
        .unwrap()
        .unavailability();
    assert!(
        u_hep < u0,
        "expected the shortcut artifact: hep=0.2 ({u_hep:.4e}) below hep=0 ({u0:.4e})"
    );
}

/// RAID1, RAID5 or RAID6, the geometries the exact chains cover.
fn arb_geometry() -> impl Strategy<Value = RaidGeometry> {
    (0u32..3, 2u32..9).prop_map(|(level, k)| match level {
        0 => RaidGeometry::raid1_pair(),
        1 => RaidGeometry::raid5(k).unwrap(),
        _ => RaidGeometry::raid6(k).unwrap(),
    })
}

/// Holds `chain`'s one-pass solve to the model's own `solve()` and
/// `mttdl_hours()`: the same bits, or the same error.
fn one_pass_matches(
    chain: ChainDef,
    solve: Result<SolvedChain>,
    mttdl: Result<f64>,
) -> std::result::Result<(), TestCaseError> {
    let bits = |pi: &[f64]| pi.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
    match (chain.solve_with_mttdl(), solve, mttdl) {
        (Ok((one, one_mttdl)), Ok(two), Ok(two_mttdl)) => {
            prop_assert_eq!(bits(one.probabilities()), bits(two.probabilities()));
            prop_assert_eq!(one_mttdl.to_bits(), two_mttdl.to_bits());
        }
        (Err(one), Err(two), _) | (Err(one), Ok(_), Err(two)) => {
            prop_assert_eq!(one.to_string(), two.to_string());
        }
        (one, solve, mttdl) => {
            return Err(TestCaseError::fail(format!(
                "one pass {:?} against solve {:?} and mttdl {:?}",
                one.map(|(_, t)| t),
                solve.map(|s| s.unavailability()),
                mttdl
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `ChainDef::solve_with_mttdl`, which answers a campaign's exact cell
    /// from one rate matrix, gives every chain the bits of the two calls it
    /// replaces: Fig. 2 and the generic chain with and without a live LSE
    /// rate (RAID6 included), and Fig. 3.
    #[test]
    fn one_pass_solve_matches_solve_and_mttdl_bit_for_bit(
        geometry in arb_geometry(),
        lambda in 1e-8f64..1e-3,
        hep in 0.0f64..0.3,
        lse_rate in 1e-7f64..1e-3,
        scrub in 24.0f64..2000.0,
    ) {
        let plain = ModelParams::paper_defaults(geometry, lambda, Hep::new(hep).unwrap()).unwrap();
        let lse = plain.with_scrubbing(ScrubbingModel::new(lse_rate, scrub).unwrap());
        for p in [plain, lse] {
            let m = GenericKofN::new(p).unwrap();
            one_pass_matches(m.chain(), m.solve(), m.mttdl_hours())?;
            if geometry.fault_tolerance() == 1 {
                let m = Raid5Conventional::new(p).unwrap();
                one_pass_matches(m.chain(), m.solve(), m.mttdl_hours())?;
            }
        }
        if geometry.fault_tolerance() == 1 {
            // The Fig. 3 chain has no rebuild completion to split.
            let m = Raid5FailOver::new(plain).unwrap();
            one_pass_matches(m.chain(), m.solve(), m.mttdl_hours())?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn conventional_unavailability_is_a_probability(p in arb_params()) {
        let s = Raid5Conventional::new(p).unwrap().solve().unwrap();
        let u = s.unavailability();
        prop_assert!((0.0..=1.0).contains(&u), "u = {u}");
        let total: f64 = s.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-10);
        prop_assert!(s.probabilities().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn failover_unavailability_is_a_probability(p in arb_params()) {
        let s = Raid5FailOver::new(p).unwrap().solve().unwrap();
        let u = s.unavailability();
        prop_assert!((0.0..=1.0).contains(&u), "u = {u}");
        let total: f64 = s.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn more_hep_never_helps_in_the_paper_regime(p in arb_paper_regime()) {
        // Monotonicity in hep holds in the rare-failure regime (λ ≪ service
        // rates). Outside it the Fig. 2 abstraction admits a "shortcut"
        // artifact — see `hep_can_help_outside_the_rare_failure_regime`.
        let lo = Raid5Conventional::new(p.with_hep(Hep::new(0.0).unwrap()))
            .unwrap().solve().unwrap().unavailability();
        let hi = Raid5Conventional::new(p.with_hep(Hep::new(0.05).unwrap()))
            .unwrap().solve().unwrap().unavailability();
        prop_assert!(hi >= lo * (1.0 - 1e-9), "hep=0 gives {lo}, hep=0.05 gives {hi}");
    }

    #[test]
    fn failover_never_loses_in_the_paper_regime(p in arb_paper_regime()) {
        // With hep > 0 in the rare-failure regime, delayed replacement wins.
        // (At hep = 0 exactly, fail-over is worse by an O(λ³) term: the
        // no-spare window OPns→EXPns1→DLns adds exposure conventional
        // replacement does not have.)
        let p = p.with_hep(Hep::new(0.01).unwrap());
        let conv = Raid5Conventional::new(p).unwrap().solve().unwrap().unavailability();
        let fo = Raid5FailOver::new(p).unwrap().solve().unwrap().unavailability();
        prop_assert!(fo <= conv * (1.0 + 1e-6), "fo {fo} vs conv {conv}");
    }

    #[test]
    fn generic_m1_equals_fig2(p in arb_params()) {
        let generic = GenericKofN::new(p).unwrap().solve().unwrap().unavailability();
        let fig2 = Raid5Conventional::new(p)
            .unwrap()
            .with_timing(WrongReplacementTiming::RepairCompletion)
            .solve()
            .unwrap()
            .unavailability();
        let rel = if fig2 == 0.0 { generic } else { (generic - fig2).abs() / fig2 };
        prop_assert!(rel < 1e-8, "generic {generic:.6e} vs fig2 {fig2:.6e}");
    }

    #[test]
    fn mttdl_is_positive_and_finite(p in arb_params()) {
        let conv = Raid5Conventional::new(p).unwrap().mttdl_hours().unwrap();
        prop_assert!(conv.is_finite() && conv > 0.0);
        let fo = Raid5FailOver::new(p).unwrap().mttdl_hours().unwrap();
        prop_assert!(fo.is_finite() && fo > 0.0);
    }

    #[test]
    fn faster_repair_never_hurts(p in arb_params()) {
        let mut faster = p;
        faster.disk_repair_rate = p.disk_repair_rate * 2.0;
        let base = Raid5Conventional::new(p).unwrap().solve().unwrap().unavailability();
        let quick = Raid5Conventional::new(faster).unwrap().solve().unwrap().unavailability();
        prop_assert!(quick <= base * (1.0 + 1e-9), "quick {quick} vs base {base}");
    }

    #[test]
    fn nines_conversions_roundtrip(u in 1e-15f64..0.99) {
        use availsim_core::nines::nines_from_unavailability;
        let n = nines_from_unavailability(u);
        let back = 10f64.powf(-n);
        prop_assert!((back - u).abs() / u < 1e-10);
    }
}

/// Monte-Carlo vs Markov over random (but fast-mixing) operating points —
/// the Fig. 4 methodology as a property.
#[test]
fn mc_agrees_with_markov_at_random_points() {
    use availsim_core::mc::{ConventionalMc, McConfig};
    let heps = [0.0, 0.01, 0.05];
    let lambdas = [5e-4, 2e-3];
    let mut checked = 0;
    for (i, &hep) in heps.iter().enumerate() {
        for (j, &lam) in lambdas.iter().enumerate() {
            let p = ModelParams::raid5_3plus1(lam, Hep::new(hep).unwrap()).unwrap();
            let config = McConfig {
                iterations: 400,
                horizon_hours: 20_000.0,
                seed: (i * 10 + j) as u64,
                confidence: 0.995,
                threads: 0,
                ..McConfig::default()
            };
            let est = ConventionalMc::new(p).unwrap().run(&config).unwrap();
            let markov = Raid5Conventional::new(p).unwrap().solve().unwrap();
            assert!(
                est.is_consistent_with(markov.availability()),
                "λ={lam}, hep={hep}: markov {} outside {}",
                markov.availability(),
                est.availability
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 6);
}

//! Cross-crate integration: the public API as a downstream user would
//! compose it — storage models feeding the availability analyses, with the
//! CTMC and simulation kernels underneath.

use availsim::core::markov::{EdgeTag, GenericKofN, Raid5Conventional, StateClass};
use availsim::core::{nines, ModelParams};
use availsim::ctmc::steady_state_gth_rates;
use availsim::hra::Hep;
use availsim::sim::distributions::{Exponential, Lifetime, Weibull};
use availsim::sim::rng::SimRng;
use availsim::sim::stats::{ks_test, t_interval, RunningStats};
use availsim::storage::{DatacenterModel, FailureModel, RaidGeometry, ServiceRates, Volume};

/// The service-rate table flows from storage into the core parameters.
#[test]
fn service_rates_match_model_params() {
    let rates = ServiceRates::paper_defaults();
    let params = ModelParams::raid5_3plus1(1e-6, Hep::ZERO).unwrap();
    assert_eq!(params.disk_repair_rate, rates.disk_repair);
    assert_eq!(params.ddf_recovery_rate, rates.backup_restore);
    assert_eq!(params.human_recovery_rate, rates.human_error_recovery);
    assert_eq!(params.removed_crash_rate, rates.removed_disk_crash);
}

/// A user-built rate matrix and the packaged model agree on a two-state
/// system.
#[test]
fn custom_ctmc_through_facade() {
    // up -> down at 1e-4, down -> up at 0.1.
    let mut rates = vec![vec![0.0, 1e-4], vec![0.1, 0.0]];
    let gth = steady_state_gth_rates(&mut rates).unwrap();
    assert!((gth[1] - 1e-4 / (0.1 + 1e-4)).abs() < 1e-15);
    assert!((nines::nines_from_unavailability(gth[1]) - 3.0).abs() < 0.01);
}

/// The Fig. 2 definition classifies the Markov states with the storage
/// semantics: a failed disk leaves the array serving, a wrong pull during
/// the rebuild is a human-error outage, and a crash of the pulled disk is
/// data loss.
#[test]
fn fig2_chain_classifies_the_markov_states() {
    let params = ModelParams::raid5_3plus1(1e-6, Hep::new(0.01).unwrap()).unwrap();
    let def = Raid5Conventional::new(params).unwrap().chain();
    let classes: Vec<(&str, StateClass)> =
        def.states().iter().map(|s| (&*s.label, s.class)).collect();
    assert_eq!(
        classes,
        [
            ("OP", StateClass::Up),
            ("EXP", StateClass::Up),
            ("DU", StateClass::HumanErrorDown),
            ("DL", StateClass::DataLossDown),
        ]
    );
    let tag = |from, to| {
        def.edges()
            .iter()
            .find(|e| e.from == from && e.to == to)
            .map(|e| e.tag)
    };
    assert_eq!(tag(0, 1), Some(EdgeTag::Failure));
    assert_eq!(tag(1, 2), Some(EdgeTag::HumanError));
    assert_eq!(tag(2, 3), Some(EdgeTag::Crash));
    assert_eq!(tag(3, 0), Some(EdgeTag::Service));
}

/// Sampling through the facade: distributions, KS validation, CI machinery.
#[test]
fn simulation_kernel_through_facade() {
    let d = Weibull::from_rate_shape(2e-5, 1.48).unwrap();
    let mut rng = SimRng::seed_from(77);
    let samples: Vec<f64> = (0..3_000).map(|_| d.sample(&mut rng)).collect();
    let ks = ks_test(&samples, &d).unwrap();
    assert!(ks.p_value > 0.01);

    let e = Exponential::new(0.2).unwrap();
    let mut stats = RunningStats::new();
    for _ in 0..5_000 {
        stats.push(e.sample(&mut rng));
    }
    let ci = t_interval(&stats, 0.99).unwrap();
    assert!(ci.contains(5.0), "{ci}");
}

/// The generic chain extends the paper to RAID6 through the same API.
#[test]
fn raid6_extension_is_reachable() {
    let params = ModelParams::paper_defaults(
        RaidGeometry::raid6(6).unwrap(),
        1e-5,
        Hep::new(0.01).unwrap(),
    )
    .unwrap();
    let model = GenericKofN::new(params).unwrap();
    let solved = model.solve().unwrap();
    assert!(
        solved.nines() > 6.0,
        "RAID6 should be strong: {}",
        solved.nines()
    );
    let mttdl_years = model.mttdl_hours().unwrap() / availsim::storage::HOURS_PER_YEAR;
    assert!(mttdl_years > 1_000.0);
}

/// Fleet arithmetic and volume composition agree on disk counts.
#[test]
fn datacenter_and_volume_bookkeeping() {
    let dc = DatacenterModel::new(1_000_000, 1e-6, 0.01).unwrap();
    let geometry = RaidGeometry::raid5(3).unwrap();
    let arrays = dc.num_disks() / u64::from(geometry.total_disks());
    let volume = Volume::new(geometry, arrays);
    assert_eq!(volume.total_disks(), 1_000_000);
    assert_eq!(volume.usable_capacity(), 750_000);
    // Failure stream feeds the fleet model.
    let fm = FailureModel::exponential(dc.per_disk_failure_rate()).unwrap();
    let FailureModel::Exponential(d) = fm else {
        panic!("an exponential model: {fm:?}");
    };
    assert!((d.mean() - 1e6).abs() < 1.0);
}

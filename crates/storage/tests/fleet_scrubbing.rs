//! Direct integration coverage for `storage::datacenter` (fleet-scale
//! arithmetic) and the scrubbing/maintenance models: invariants the
//! in-module unit tests don't exercise, plus interval edge cases.

use availsim_storage::{DatacenterModel, ScrubbingModel, ServiceRates, HOURS_PER_YEAR};
use proptest::prelude::*;

/// A ten-year mission, the horizon used throughout the paper's MC runs.
const MISSION_HOURS: f64 = 87_600.0;

// ---------------------------------------------------------------- fleet ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Expected failures scale linearly in both fleet size and per-disk
    /// rate, and MTBF is their exact reciprocal.
    #[test]
    fn fleet_failure_arithmetic_is_linear(
        disks in 1u64..5_000_000,
        rate_exp in -8.0f64..-3.0,
        hep in 0.0f64..0.1,
    ) {
        let rate = 10f64.powf(rate_exp);
        let dc = DatacenterModel::new(disks, rate, hep).unwrap();
        let per_hour = dc.expected_failures_per_hour();
        prop_assert!((per_hour - disks as f64 * rate).abs() <= 1e-12 * per_hour.max(1.0));
        prop_assert!((dc.expected_failures_per_day() - 24.0 * per_hour).abs()
            <= 1e-9 * per_hour.max(1.0));
        prop_assert!((dc.mean_time_between_failures_hours() * per_hour - 1.0).abs() < 1e-12);

        // Doubling the fleet doubles the failure flux exactly.
        let double = DatacenterModel::new(disks * 2, rate, hep).unwrap();
        prop_assert!(
            (double.expected_failures_per_hour() - 2.0 * per_hour).abs()
                <= 1e-12 * per_hour.max(1.0)
        );
    }

    /// Human errors are a fixed hep-fraction of service actions: never more
    /// than one per failure, zero at hep = 0, and consistent across the
    /// daily and yearly projections.
    #[test]
    fn human_error_flux_is_a_fraction_of_failures(
        disks in 1u64..5_000_000,
        rate_exp in -8.0f64..-3.0,
        hep in 0.0f64..=1.0,
    ) {
        let rate = 10f64.powf(rate_exp);
        let dc = DatacenterModel::new(disks, rate, hep).unwrap();
        prop_assert!(dc.expected_human_errors_per_day() <= dc.expected_failures_per_day() + 1e-12);
        let daily = dc.expected_human_errors_per_day();
        let yearly = dc.expected_human_errors_per_year();
        prop_assert!((yearly - daily * HOURS_PER_YEAR / 24.0).abs() <= 1e-9 * yearly.max(1.0));
        if hep == 0.0 {
            prop_assert_eq!(daily, 0.0);
        }
    }

    /// Exascale sizing: disk count times capacity always covers one
    /// exabyte, and never overshoots by more than one disk.
    #[test]
    fn exascale_capacity_covers_one_exabyte(disk_tb in 0.5f64..100.0) {
        let dc = DatacenterModel::exascale(disk_tb, 1e-6, 0.01).unwrap();
        let capacity_tb = dc.num_disks() as f64 * disk_tb;
        prop_assert!(capacity_tb >= 1e6 - 1e-6);
        prop_assert!((dc.num_disks() - 1) as f64 * disk_tb < 1e6);
    }
}

#[test]
fn fleet_hep_band_brackets_the_paper_intro_claim() {
    // The paper's introduction: an EB datacenter sees at least a disk
    // failure per hour, hence "multiple human errors a day" at the upper
    // hep band — and the model reproduces both ends of the band.
    let failures_per_day = DatacenterModel::new(1_000_000, 1e-6, 0.1)
        .unwrap()
        .expected_failures_per_day();
    assert!((failures_per_day - 24.0).abs() < 1e-9);
    for (hep, lo, hi) in [(0.001, 0.02, 0.03), (0.1, 2.0, 3.0)] {
        let dc = DatacenterModel::new(1_000_000, 1e-6, hep).unwrap();
        let per_day = dc.expected_human_errors_per_day();
        assert!(per_day > lo && per_day < hi, "hep={hep}: {per_day}");
    }
}

// ------------------------------------------------------------- scrubbing ----

#[test]
fn zero_scrub_interval_is_rejected_not_divided_by() {
    // A zero interval would mean "scrub continuously"; the model rejects it
    // instead of producing a degenerate exposure window.
    let err = ScrubbingModel::new(1e-6, 0.0).unwrap_err();
    assert!(err.to_string().contains("scrub interval"), "{err}");
    assert!(ScrubbingModel::new(1e-6, -10.0).is_err());
    assert!(ScrubbingModel::new(1e-6, f64::NAN).is_err());
}

#[test]
fn scrub_interval_longer_than_the_mission_stays_a_probability() {
    // Pathological configuration: scrubbing rarer than the whole mission.
    // The exposure model must degrade gracefully — still a probability in
    // [0, 1], still monotone in the interval.
    let within = ScrubbingModel::new(1e-6, MISSION_HOURS / 4.0).unwrap();
    let beyond = ScrubbingModel::new(1e-6, MISSION_HOURS * 10.0).unwrap();
    for disks in [1, 3, 7, 23] {
        let p_within = within.rebuild_failure_probability(disks);
        let p_beyond = beyond.rebuild_failure_probability(disks);
        assert!((0.0..=1.0).contains(&p_within));
        assert!((0.0..=1.0).contains(&p_beyond));
        assert!(p_beyond > p_within, "disks={disks}");
    }
    // With a huge interval the rebuild is almost surely poisoned; the
    // expected latent-error count still reports the raw (unbounded) mean.
    let extreme = ScrubbingModel::new(1e-3, MISSION_HOURS * 100.0).unwrap();
    assert!(extreme.rebuild_failure_probability(7) > 0.999);
    assert!(extreme.rebuild_failure_probability(7) <= 1.0);
    assert!(extreme.expected_latent_errors_per_disk() > 1.0);
}

#[test]
fn required_interval_round_trips_even_past_the_mission_length() {
    // Asking for a very lax target can legitimately size the scrub period
    // beyond the mission; the inversion must still round-trip.
    let lse_rate = 1e-9;
    let t = ScrubbingModel::required_scrub_interval(lse_rate, 3, 0.5).unwrap();
    assert!(t > MISSION_HOURS, "t = {t}");
    let m = ScrubbingModel::new(lse_rate, t).unwrap();
    assert!((m.rebuild_failure_probability(3) - 0.5).abs() < 1e-12);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The exposure probability is a probability for any positive interval
    /// (including multi-mission ones) and any read width.
    #[test]
    fn rebuild_failure_probability_is_always_a_probability(
        rate_exp in -12.0f64..-2.0,
        interval in 1.0f64..(MISSION_HOURS * 100.0),
        disks in 1u32..64,
    ) {
        let m = ScrubbingModel::new(10f64.powf(rate_exp), interval).unwrap();
        let p = m.rebuild_failure_probability(disks);
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
    }

    /// Sizing an interval for a target then evaluating it reproduces the
    /// target exactly (the closed-form inversion).
    #[test]
    fn interval_sizing_round_trips(
        rate_exp in -9.0f64..-4.0,
        disks in 1u32..32,
        target in 1e-6f64..0.99,
    ) {
        let rate = 10f64.powf(rate_exp);
        let t = ScrubbingModel::required_scrub_interval(rate, disks, target).unwrap();
        prop_assert!(t > 0.0);
        let m = ScrubbingModel::new(rate, t).unwrap();
        prop_assert!((m.rebuild_failure_probability(disks) - target).abs() < 1e-9);
    }
}

// ----------------------------------------------------------- maintenance ----

#[test]
fn exascale_failures_arrive_faster_than_one_repair_completes() {
    // The paper's exascale scenario: a new disk failure arrives (~1/h)
    // faster than a single repair completes (~10 h), so several repairs —
    // and several chances for human error — are always in flight.
    let mean_repair_hours = 1.0 / ServiceRates::paper_defaults().disk_repair;
    let dc = DatacenterModel::new(1_000_000, 1e-6, 0.01).unwrap();
    assert!(mean_repair_hours > dc.mean_time_between_failures_hours());
}

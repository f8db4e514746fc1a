//! Property-based tests for volume and downtime bookkeeping.

use availsim_storage::{DowntimeLog, OutageCause, RaidGeometry};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Volume capacity bookkeeping: arrays × per-array capacity == usable.
    #[test]
    fn volume_capacity_identity(k in 2u32..12, mult in 1u64..20) {
        use availsim_storage::Volume;
        let g = RaidGeometry::raid5(k).unwrap();
        let usable = u64::from(k) * mult;
        let v = Volume::with_usable_capacity(g, usable).unwrap();
        prop_assert_eq!(v.usable_capacity(), usable);
        prop_assert_eq!(v.arrays(), mult);
        prop_assert!(v.total_disks() > usable); // redundancy overhead exists
    }

    /// Downtime log: total downtime equals the sum over causes and never
    /// exceeds the horizon.
    #[test]
    fn downtime_partitions_by_cause(
        outages in proptest::collection::vec((0.0f64..1e4, 0.0f64..100.0, any::<bool>()), 0..20),
    ) {
        let mut log = DowntimeLog::new();
        let mut t = 0.0;
        let mut horizon = 1.0;
        for (gap, dur, human) in outages {
            t += gap;
            let cause = if human { OutageCause::HumanError } else { OutageCause::DataLoss };
            log.begin(t, cause);
            t += dur;
            log.end(t);
            horizon = t.max(horizon);
        }
        let total = log.total_downtime();
        let by_cause = log.downtime_by_cause(OutageCause::HumanError)
            + log.downtime_by_cause(OutageCause::DataLoss);
        prop_assert!((total - by_cause).abs() < 1e-9);
        prop_assert!(total <= horizon + 1e-9);
        let a = log.availability(horizon.max(total) + 1.0);
        prop_assert!((0.0..=1.0).contains(&a));
    }
}

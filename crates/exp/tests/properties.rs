//! Property-based tests for the experiment subsystem: grid arithmetic,
//! seed derivation, and runner determinism under random scenarios.

use availsim_exp::plan::{cell_seed, expand};
use availsim_exp::report;
use availsim_exp::run::{run, RunConfig};
use availsim_exp::spec::{parse_geometry_label, Scenario};
use proptest::prelude::*;

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let lambda = proptest::collection::vec(
        prop_oneof![Just(5e-7), Just(1e-6), Just(5e-6), Just(1e-5), Just(2e-5)],
        1..4,
    );
    let hep = proptest::collection::vec(prop_oneof![Just(0.0), Just(0.001), Just(0.01)], 1..4);
    let raid = proptest::collection::vec(prop_oneof![Just("r1"), Just("r5-3"), Just("r5-7")], 1..4);
    (lambda, hep, raid, any::<u64>()).prop_map(|(lambda, hep, raid, seed)| {
        let mut s = Scenario {
            seed,
            lambda,
            hep,
            ..Scenario::default()
        };
        s.raid = raid
            .into_iter()
            .map(|g| parse_geometry_label(g).unwrap())
            .collect();
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cell count is always the product of the axis lengths, indices are
    /// consecutive, and seeds match the documented derivation.
    #[test]
    fn grid_expansion_arithmetic(s in arb_scenario()) {
        let plan = expand(&s).unwrap();
        prop_assert_eq!(plan.len(), s.raid.len() * s.lambda.len() * s.hep.len());
        for (i, c) in plan.cells.iter().enumerate() {
            prop_assert_eq!(c.index, i as u64);
            prop_assert_eq!(c.seed, cell_seed(s.seed, i as u64));
        }
    }

    /// Every axis value appears in the grid exactly
    /// `total_cells / axis_len` times.
    #[test]
    fn each_axis_value_is_visited_uniformly(s in arb_scenario()) {
        let plan = expand(&s).unwrap();
        let per_lambda = plan.len() / s.lambda.len();
        for &l in &s.lambda {
            let hits = plan.cells.iter().filter(|c| c.lambda == l).count();
            // A value can legitimately repeat in the axis list; count
            // multiplicity.
            let mult = s.lambda.iter().filter(|&&x| x == l).count();
            prop_assert_eq!(hits, per_lambda * mult);
        }
    }

    /// The full pipeline (expand -> run -> report) is byte-identical
    /// between one worker and many workers.
    #[test]
    fn reports_are_worker_count_invariant(s in arb_scenario()) {
        let plan = expand(&s).unwrap();
        let one = run(&plan, &RunConfig { workers: 1, ..Default::default() }).unwrap();
        let many = run(&plan, &RunConfig { workers: 4, ..Default::default() }).unwrap();
        prop_assert_eq!(report::to_csv(&one), report::to_csv(&many));
        prop_assert_eq!(report::to_json(&one), report::to_json(&many));
    }

    /// Dry-run plan descriptions are byte-stable for a fixed seed.
    #[test]
    fn plan_description_is_stable(s in arb_scenario()) {
        let a = expand(&s).unwrap().describe();
        let b = expand(&s).unwrap().describe();
        prop_assert_eq!(a, b);
    }
}

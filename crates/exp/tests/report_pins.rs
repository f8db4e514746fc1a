//! Pins of whole exact-campaign reports. The exact pins in `availsim-core`
//! hold MTTDL to 1e-9 relative, but the CSV and JSON print every float to
//! its last bit, so these digests hold the bytes a user reads: two exact
//! campaigns, expanded and run at 1 and 3 workers, rendered by `to_csv`
//! and `to_json`, each report reduced to an FNV-1a digest of its bytes.

use availsim_exp::plan::expand;
use availsim_exp::report::{to_csv, to_json};
use availsim_exp::run::{run, RunConfig};
use availsim_exp::spec::Scenario;

/// The Fig. 2 and Fig. 3 chains: three single-parity geometries, both
/// policies, six failure rates and four error probabilities, with a
/// capacity so the volume columns print.
const PAPER_GRID: &str = "\
[campaign]
name = paper-grid
seed = 2017
model = markov-conventional
capacity = 21

[axes]
raid = [r1, r5-3, r5-7]
policy = [conventional, failover]
lambda = [5e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4]
hep = [0, 0.001, 0.01, 0.05]
";

/// The generic `(failed, wrongly-removed)` chain on two RAID6 geometries,
/// with latent sector errors splitting every rebuild.
const RAID6_LSE_GRID: &str = "\
[campaign]
name = raid6-lse-grid
seed = 11
model = generic-k-of-n

[axes]
raid = [r6-3, r6-4]
lambda = [1e-6, 1e-5, 1e-4]
hep = [0, 0.001, 0.01]

[lse]
lse_rate = 1e-4
scrub_interval = 336
";

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The `(csv, json)` digests of `spec`'s reports at `workers` workers.
fn digests(spec: &str, workers: usize) -> (u64, u64) {
    let plan = expand(&Scenario::parse(spec).unwrap()).unwrap();
    let result = run(
        &plan,
        &RunConfig {
            workers,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(result.cells.len(), plan.len());
    (fnv1a(&to_csv(&result)), fnv1a(&to_json(&result)))
}

fn assert_pinned(spec: &str, csv: u64, json: u64) {
    for workers in [1, 3] {
        let (c, j) = digests(spec, workers);
        assert_eq!(
            (c, j),
            (csv, json),
            "report digests at {workers} worker(s): csv {c:#018x}, json {j:#018x}"
        );
    }
}

#[test]
fn paper_grid_reports_are_pinned() {
    assert_pinned(PAPER_GRID, 0xa64a_6528_be60_7c88, 0xa7d7_2997_5a17_a7bc);
}

#[test]
fn raid6_lse_grid_reports_are_pinned() {
    assert_pinned(RAID6_LSE_GRID, 0xb4e5_cf14_8954_2c29, 0xf402_b2a3_43af_a8f9);
}

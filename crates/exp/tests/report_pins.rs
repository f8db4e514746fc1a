//! Pins of whole exact-campaign reports. The exact pins in `availsim-core`
//! hold MTTDL to 1e-9 relative, but the CSV and JSON print every float to
//! its last bit, so these digests hold the bytes a user reads: three exact
//! campaigns, expanded and run at 1 and 3 workers, their `--dry-run` plan
//! (`Plan::describe`), `to_csv`, `to_json` and `summary` each reduced to an
//! FNV-1a digest of its bytes.

use availsim_exp::plan::expand;
use availsim_exp::report::{summary, to_csv, to_json};
use availsim_exp::run::{run, RunConfig};
use availsim_exp::spec::Scenario;
use availsim_sim::stats::RunningStats;

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

/// Repeated and signed-zero axis values. Every report prints `-0.0` for
/// the `-0` rows: axis text cached by float equality would print `0.0`
/// there, since `-0.0 == 0.0`.
const SIGNED_ZERO_GRID: &str = "\
[campaign]
name = signed-zero-grid
seed = 3
model = markov-conventional
capacity = 21

[axes]
raid = [r1, r5-3]
lambda = [1e-5, 1e-5, 3e-5]
hep = [0, -0, 0.01]
";

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digests of one campaign's four texts.
#[derive(Debug, PartialEq)]
struct Digests {
    describe: u64,
    csv: u64,
    json: u64,
    summary: u64,
}

/// `spec`'s `[describe, csv, json, summary]` at `workers` workers. The
/// summary's wall-clock figures are fixed first: every cell's
/// `elapsed_micros`, the timing stats built from them, `wall_micros` and
/// the worker count in its title. What remains is the deterministic text.
fn texts(spec: &str, workers: usize) -> [String; 4] {
    let plan = expand(&Scenario::parse(spec).unwrap()).unwrap();
    let mut result = run(
        &plan,
        &RunConfig {
            workers,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(result.cells.len(), plan.len());
    let mut timing_stats = RunningStats::new();
    for c in &mut result.cells {
        c.elapsed_micros = 7;
        timing_stats.push(7.0);
    }
    result.timing_stats = timing_stats;
    result.wall_micros = 1_000;
    result.workers = 2;
    [
        plan.describe(),
        to_csv(&result),
        to_json(&result),
        summary(&result),
    ]
}

fn assert_pinned(spec: &str, pinned: &Digests) {
    for workers in [1, 3] {
        let [describe, csv, json, summary] = texts(spec, workers).map(|t| fnv1a(&t));
        let d = Digests {
            describe,
            csv,
            json,
            summary,
        };
        assert_eq!(
            &d, pinned,
            "digests at {workers} worker(s): describe {describe:#018x}, csv {csv:#018x}, \
             json {json:#018x}, summary {summary:#018x}"
        );
    }
}

#[test]
fn paper_grid_reports_are_pinned() {
    assert_pinned(
        PAPER_GRID,
        &Digests {
            describe: 0x6b4c_3081_86c9_8281,
            csv: 0xa64a_6528_be60_7c88,
            json: 0xa7d7_2997_5a17_a7bc,
            summary: 0xa1cf_d122_24c5_37de,
        },
    );
}

#[test]
fn raid6_lse_grid_reports_are_pinned() {
    assert_pinned(
        RAID6_LSE_GRID,
        &Digests {
            describe: 0x63ee_f7a7_92f1_b056,
            csv: 0xb4e5_cf14_8954_2c29,
            json: 0xf402_b2a3_43af_a8f9,
            summary: 0xc345_5f14_bc9b_72f9,
        },
    );
}

#[test]
fn signed_zero_grid_reports_are_pinned() {
    // Six of the 18 cells have hep = -0.
    for text in texts(SIGNED_ZERO_GRID, 1) {
        assert_eq!(text.matches("-0.0").count(), 6, "{text}");
    }
    assert_pinned(
        SIGNED_ZERO_GRID,
        &Digests {
            describe: 0x0c19_fb5c_f797_df93,
            csv: 0xc793_66be_19c0_1b44,
            json: 0xc0bf_8975_ca2f_eb18,
            summary: 0x4ece_4f0a_f5ba_6d57,
        },
    );
}

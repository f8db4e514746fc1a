//! Smoke tests executing the examples the README leads with, end to end.
//!
//! These shell out to `cargo run --example` (the only stable way to locate
//! example binaries from an integration test) and assert on the rendered
//! output, so a drifting example API or a panicking walkthrough fails CI.

use std::process::Command;

fn run_example(name: &str) -> String {
    let out = Command::new(env!("CARGO"))
        .args(["run", "--quiet", "--example", name])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap_or_else(|e| panic!("cargo run --example {name} failed to spawn: {e}"));
    assert!(
        out.status.success(),
        "example `{name}` exited nonzero:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn quickstart_reproduces_the_headline_table() {
    let stdout = run_example("quickstart");
    assert!(stdout.contains("RAID5 (3+1)"), "{stdout}");
    assert!(stdout.contains("unavailability"), "{stdout}");
    assert!(stdout.contains("with fail-over"), "{stdout}");
    assert!(
        stdout.contains("underestimates downtime"),
        "headline underestimation factor missing:\n{stdout}"
    );
}

#[test]
fn paper_figures_prints_every_section() {
    let stdout = run_example("paper_figures");
    for heading in [
        "=== Fig. 4:",
        "=== Fig. 5:",
        "=== Fig. 6:",
        "=== Fig. 7:",
        "=== Headline:",
    ] {
        assert!(stdout.contains(heading), "{heading} missing:\n{stdout}");
    }
    assert!(
        stdout.contains("maximum underestimation over the sweep: 246x"),
        "{stdout}"
    );
}

/// The whole stdout of `mc_trace` at its default seed (2017): the Fig. 1
/// timeline, every record of which the per-disk engine writes as it takes
/// a chain exit, plus the mission summary.
const FIG1_TRACE_SEED_2017: &str = "\
MC timeline, RAID5(3+1), λ=2e-3/h, hep=0.15, seed 2017
----------------------------------------------------------------
       2.9 h  disk 2 failed
       8.8 h  disk 3 failed
       8.8 h  DATA LOSS (redundancy exhausted)
      19.1 h  backup restore complete
      33.0 h  disk 2 failed
      36.9 h  WRONG replacement: pulled operating disk 0
      36.9 h  DATA UNAVAILABLE (human error)
      39.4 h  wrong replacement undone
     132.8 h  disk 2 failed
     151.0 h  disk 1 failed
     151.0 h  DATA LOSS (redundancy exhausted)
     164.9 h  backup restore complete
     233.6 h  disk 0 failed
     240.2 h  disk 0 repaired
     426.1 h  disk 0 failed
     427.3 h  WRONG replacement: pulled operating disk 0
     427.3 h  DATA UNAVAILABLE (human error)
     429.5 h  wrong replacement undone
     432.6 h  disk 1 failed
     434.2 h  WRONG replacement: pulled operating disk 0
     434.2 h  DATA UNAVAILABLE (human error)
     435.0 h  removed disk crashed
     435.0 h  DATA LOSS (redundancy exhausted)
     446.2 h  backup restore complete
     554.8 h  disk 1 failed
     568.3 h  disk 1 repaired
     658.7 h  disk 1 failed
     662.8 h  disk 1 repaired
     666.7 h  disk 0 failed
     667.5 h  WRONG replacement: pulled operating disk 0
     667.5 h  DATA UNAVAILABLE (human error)
     668.0 h  wrong replacement undone
     950.2 h  disk 1 failed
     955.1 h  disk 1 repaired
     988.5 h  disk 3 failed
     993.0 h  disk 3 repaired
    1107.6 h  disk 2 failed
    1110.7 h  WRONG replacement: pulled operating disk 0
    1110.7 h  DATA UNAVAILABLE (human error)
    1112.0 h  wrong replacement undone
    1342.0 h  disk 2 failed
    1343.9 h  disk 2 repaired
    1783.9 h  disk 3 failed
    1785.7 h  disk 3 repaired
    1885.9 h  disk 0 failed
    1893.2 h  disk 0 repaired
    1954.5 h  disk 2 failed
    1960.8 h  WRONG replacement: pulled operating disk 0
    1960.8 h  DATA UNAVAILABLE (human error)
    1961.7 h  wrong replacement undone
    1989.4 h  disk 2 failed
    1998.3 h  disk 2 repaired
----------------------------------------------------------------
mission: 2000 h | downtime 43.7 h | availability 0.9781
data-unavailability events (human error): 6 | data-loss events: 3
downtime breakdown: 8.3 h human error, 35.4 h data loss
";

#[test]
fn mc_trace_prints_the_pinned_fig1_timeline() {
    let stdout = run_example("mc_trace");
    assert_eq!(stdout, FIG1_TRACE_SEED_2017);
}

#[test]
fn campaign_example_expands_runs_and_verifies_determinism() {
    let stdout = run_example("campaign");
    assert!(stdout.contains("campaign hep-lambda-surface"), "{stdout}");
    assert!(stdout.contains("cells     : 12"), "{stdout}");
    assert!(stdout.contains("CSV:"), "{stdout}");
    assert!(
        stdout.contains("byte-identical to 1 worker"),
        "determinism check missing:\n{stdout}"
    );
}

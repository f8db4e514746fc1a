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

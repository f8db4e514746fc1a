//! Integration tests for the `availsim` command-line binary.

use std::path::PathBuf;
use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_availsim"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Writes a campaign spec into the test-scoped tmpdir and returns its path.
fn write_spec(file_name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(file_name);
    std::fs::write(&path, contents).unwrap();
    path
}

const SURFACE_SPEC: &str = "\
[campaign]
name = cli-surface
seed = 42
model = markov-conventional

[axes]
raid = [r1, r5-3]
hep = [0, 0.001, 0.01]
lambda = [1e-6, 1e-5]
";

#[test]
fn solve_prints_the_pinned_point() {
    let (ok, stdout, _) = run(&["solve", "--lambda", "1e-6", "--hep", "0.01"]);
    assert!(ok);
    assert!(stdout.contains("RAID5(3+1)"));
    assert!(
        stdout.contains("4.929"),
        "unavailability mantissa: {stdout}"
    );
    assert!(stdout.contains("6.3072 nines"), "{stdout}");
}

#[test]
fn solve_supports_failover_and_raid6() {
    let (ok, stdout, _) = run(&["solve", "--policy", "failover", "--hep", "0.01"]);
    assert!(ok);
    assert!(stdout.contains("policy=failover"));

    let (ok, stdout, _) = run(&["solve", "--raid", "r6-6", "--lambda", "1e-5"]);
    assert!(ok);
    assert!(stdout.contains("RAID6(6+2)"));
}

#[test]
fn sweep_reports_underestimation_column() {
    let (ok, stdout, _) = run(&["sweep", "--points", "3"]);
    assert!(ok);
    assert!(stdout.contains("vs hep=0"));
    assert!(stdout.lines().count() >= 4);
    assert_eq!(
        stdout,
        "      lambda       U(hep)      nines   vs hep=0\n\
         \x20  5.0000e-7    2.4556e-7      6.610     245.6x\n\
         \x20  3.0000e-6    1.5006e-6      5.824      41.7x\n\
         \x20  5.5000e-6    2.8011e-6      5.553      23.2x\n"
    );
}

#[test]
fn compare_lists_three_configs() {
    let (ok, stdout, _) = run(&["compare"]);
    assert!(ok);
    for label in ["RAID1(1+1)", "RAID5(3+1)", "RAID5(7+1)"] {
        assert!(stdout.contains(label), "{label} missing:\n{stdout}");
    }
}

#[test]
fn validate_is_consistent_at_high_rates() {
    let (ok, stdout, _) = run(&["validate", "--iterations", "2000"]);
    assert!(ok);
    assert!(stdout.contains("consistent"), "{stdout}");
}

#[test]
fn validate_rare_event_mode_works_at_paper_grade_lambda() {
    // λ = 1e-7 is hopeless for naive MC at this budget; with failure
    // biasing the cross-check still reaches a verdict and reports the
    // importance-sampling diagnostics.
    let (ok, stdout, _) = run(&[
        "validate",
        "--lambda",
        "1e-7",
        "--iterations",
        "4000",
        "--variance",
        "failure-biasing",
    ]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("rare-event mode     : failure-biasing(bias=0.5)"),
        "{stdout}"
    );
    assert!(stdout.contains("ESS"), "{stdout}");
    assert!(stdout.contains("consistent"), "{stdout}");
}

#[test]
fn validate_variance_flags_are_checked() {
    let (ok, _, stderr) = run(&["validate", "--variance", "quantum"]);
    assert!(!ok);
    assert!(stderr.contains("unknown variance"), "{stderr}");

    let (ok, _, stderr) = run(&["validate", "--bias", "0.5"]);
    assert!(!ok);
    assert!(
        stderr.contains("requires `mc.variance = failure-biasing`"),
        "{stderr}"
    );

    let (ok, _, stderr) = run(&["validate", "--variance", "failure-biasing", "--effort", "8"]);
    assert!(!ok);
    assert!(
        stderr.contains("requires `mc.variance = splitting`"),
        "{stderr}"
    );

    let (ok, _, stderr) = run(&["validate", "--variance", "failure-biasing", "--bias", "1.5"]);
    assert!(!ok, "bias outside [0,1) must fail");
    assert!(stderr.contains("bias"), "{stderr}");
}

#[test]
fn errors_are_reported_not_panicked() {
    let (ok, _, stderr) = run(&["solve", "--raid", "r9-3"]);
    assert!(!ok);
    assert!(stderr.contains("unknown raid"));

    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (ok, _, stderr) = run(&["solve", "--lambda"]);
    assert!(!ok);
    assert!(stderr.contains("needs a value"));

    let (ok, _, stderr) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn help_succeeds() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn solve_rejects_bad_flag_values() {
    let (ok, _, stderr) = run(&["solve", "--lambda", "not-a-number"]);
    assert!(!ok);
    assert!(stderr.contains("expects a finite number"), "{stderr}");

    let (ok, _, stderr) = run(&["solve", "--hep", "1.5"]);
    assert!(!ok, "hep outside [0,1] must fail");
    assert!(stderr.starts_with("error:"), "{stderr}");

    let (ok, _, stderr) = run(&["solve", "--policy", "quantum"]);
    assert!(!ok);
    assert!(stderr.contains("unknown policy"), "{stderr}");

    let (ok, _, stderr) = run(&["solve", "lambda", "1e-6"]);
    assert!(!ok, "positional argument without -- must fail");
    assert!(stderr.contains("expected --flag"), "{stderr}");
}

#[test]
fn solve_supports_raid1_pair() {
    let (ok, stdout, _) = run(&[
        "solve", "--raid", "r1", "--lambda", "1e-5", "--hep", "0.001",
    ]);
    assert!(ok);
    assert!(stdout.contains("RAID1(1+1)"), "{stdout}");
    assert!(stdout.contains("MTTDL"), "{stdout}");
}

#[test]
fn sweep_rejects_inverted_or_degenerate_ranges() {
    let (ok, _, stderr) = run(&["sweep", "--from", "2e-6", "--to", "1e-6"]);
    assert!(!ok);
    assert!(stderr.contains("need 0 < from < to"), "{stderr}");

    let (ok, _, stderr) = run(&["sweep", "--points", "1"]);
    assert!(!ok);
    assert!(stderr.contains("points >= 2"), "{stderr}");
}

#[test]
fn compare_respects_capacity_and_lambda_flags() {
    // 42 = lcm(1, 3, 7): usable capacity must tile every per-array capacity.
    let (ok, stdout, _) = run(&["compare", "--capacity", "42", "--lambda", "2e-5"]);
    assert!(ok);
    assert!(stdout.contains("config"), "{stdout}");
    assert!(stdout.contains("hep=0.01"), "{stdout}");
    assert!(stdout.lines().count() >= 4, "{stdout}");

    // A capacity that tiles no geometry is a reported error, not a panic.
    let (ok, _, stderr) = run(&["compare", "--capacity", "10"]);
    assert!(!ok);
    assert!(stderr.contains("not a multiple"), "{stderr}");
}

#[test]
fn validate_prints_both_estimates_and_honors_seed() {
    let (ok, stdout, _) = run(&["validate", "--iterations", "1500", "--seed", "7"]);
    assert!(ok);
    assert!(stdout.contains("markov availability"), "{stdout}");
    assert!(stdout.contains("mc availability"), "{stdout}");
    assert!(stdout.contains("verdict"), "{stdout}");

    // Same seed must replay the identical Monte-Carlo estimate...
    let (ok, rerun, _) = run(&["validate", "--iterations", "1500", "--seed", "7"]);
    assert!(ok);
    assert_eq!(stdout, rerun, "same seed must be bit-reproducible");

    // ...and a different seed must actually change it.
    let (ok, other, _) = run(&["validate", "--iterations", "1500", "--seed", "8"]);
    assert!(ok);
    let mc_line = |s: &str| {
        s.lines()
            .find(|l| l.contains("mc availability"))
            .map(String::from)
    };
    assert_ne!(
        mc_line(&stdout),
        mc_line(&other),
        "--seed appears to be ignored"
    );
}

#[test]
fn equals_flag_syntax_matches_space_syntax() {
    let (ok_eq, eq_out, _) = run(&["solve", "--lambda=1e-6", "--hep=0.01"]);
    let (ok_sp, sp_out, _) = run(&["solve", "--lambda", "1e-6", "--hep", "0.01"]);
    assert!(ok_eq && ok_sp);
    assert_eq!(eq_out, sp_out, "--flag=value must behave like --flag value");

    // Mixed forms in one invocation also work.
    let (ok, out, _) = run(&["solve", "--lambda=1e-6", "--hep", "0.01"]);
    assert!(ok);
    assert_eq!(out, eq_out);
}

#[test]
fn duplicate_flags_are_rejected_with_a_clear_error() {
    for args in [
        ["solve", "--lambda", "1e-6", "--lambda", "2e-6"].as_slice(),
        ["solve", "--lambda=1e-6", "--lambda=2e-6"].as_slice(),
        ["solve", "--lambda", "1e-6", "--lambda=2e-6"].as_slice(),
    ] {
        let (ok, _, stderr) = run(args);
        assert!(!ok, "duplicate flags must fail: {args:?}");
        assert!(stderr.contains("duplicate flag --lambda"), "{stderr}");
    }
}

#[test]
fn unknown_flags_are_rejected_not_ignored() {
    let (ok, _, stderr) = run(&["solve", "--lamda", "1e-6"]);
    assert!(!ok, "misspelled flag must fail");
    assert!(stderr.contains("unknown flag --lamda"), "{stderr}");

    let (ok, _, stderr) = run(&["sweep", "--capacity", "21"]);
    assert!(!ok, "another subcommand's flag must fail");
    assert!(stderr.contains("unknown flag --capacity"), "{stderr}");

    // A typo'd --dry-run must not silently launch the full campaign.
    let spec = write_spec("typo.campaign", SURFACE_SPEC);
    let (ok, _, stderr) = run(&["batch", spec.to_str().unwrap(), "--dry_run=true"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --dry_run"), "{stderr}");
}

#[test]
fn empty_flag_name_is_rejected() {
    let (ok, _, stderr) = run(&["solve", "--=3"]);
    assert!(!ok);
    assert!(stderr.contains("missing flag name"), "{stderr}");
}

#[test]
fn batch_dry_run_is_byte_stable_and_matches_the_golden_plan() {
    let spec = write_spec("dryrun.campaign", SURFACE_SPEC);
    let spec = spec.to_str().unwrap();
    let (ok, first, _) = run(&["batch", spec, "--dry-run"]);
    assert!(ok);
    let (ok, second, _) = run(&["batch", "--dry-run", spec]);
    assert!(ok);
    assert_eq!(first, second, "dry-run output must be byte-stable");

    // Golden pins: grid arithmetic and the derived cell seeds for campaign
    // seed 42. These may only change with an intentional (documented) break
    // of the seed-derivation scheme.
    assert!(first.contains("cells     : 12"), "{first}");
    assert!(
        first.contains("axes      : raid[2] x policy[1] x lambda[2] x hep[3]"),
        "{first}"
    );
    assert!(
        first.contains(
            "      0 0xab4c4adfbb450230 RAID1(1+1)   conventional         1e-6        0.0"
        ),
        "cell 0 seed drifted:\n{first}"
    );
    assert!(
        first.contains("0x31c74a60d8c59d4"),
        "cell 1 seed drifted:\n{first}"
    );
}

#[test]
fn batch_dry_run_of_the_shipped_biased_campaign_is_byte_stable() {
    // The rare-event fig6 variant ships in-repo; its dry-run plan is a
    // golden artifact (including the variance line and derived cell seeds).
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/fig6_raid_biased.campaign"
    );
    let (ok, first, _) = run(&["batch", spec, "--dry-run"]);
    assert!(ok, "{first}");
    let (ok, second, _) = run(&["batch", "--dry-run", spec]);
    assert!(ok);
    assert_eq!(first, second, "dry-run output must be byte-stable");

    assert!(first.contains("campaign fig6-raid-biased"), "{first}");
    assert!(first.contains("  model     : mc"), "{first}");
    assert!(
        first.contains("  variance  : failure-biasing(bias=0.5)"),
        "{first}"
    );
    assert!(
        first.contains("  capacity  : 21 disk units (volume metrics on)"),
        "{first}"
    );
    assert!(first.contains("cells     : 9"), "{first}");
    assert!(
        first.contains("axes      : raid[3] x policy[1] x lambda[1] x hep[3]"),
        "{first}"
    );
    // Seed derivation golden pin: campaign seed 42 shares fig6_raid's cell
    // seeds (same scheme, same indices).
    assert!(
        first.contains("0xab4c4adfbb450230"),
        "cell 0 seed drifted:\n{first}"
    );
}

#[test]
fn fleet_reports_datacenter_and_availability_metrics() {
    let args = [
        "fleet",
        "--arrays",
        "20",
        "--lambda",
        "1e-4",
        "--hep",
        "0.01",
        "--iterations",
        "200",
        "--seed",
        "9",
    ];
    let (ok, stdout, _) = run(&args);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("fleet 20 x RAID5(3+1) (80 disks)"),
        "{stdout}"
    );
    assert!(stdout.contains("disk failures"), "{stdout}");
    assert!(stdout.contains("per-array availability"), "{stdout}");
    assert!(stdout.contains("any-array-down"), "{stdout}");
    assert!(stdout.contains("simultaneous degraded"), "{stdout}");
    assert!(stdout.contains("degraded time share    : 0:"), "{stdout}");

    // Seed determinism: the whole report replays bit-for-bit.
    let (ok, rerun, _) = run(&args);
    assert!(ok);
    assert_eq!(stdout, rerun, "same seed must be bit-reproducible");
}

#[test]
fn fleet_rejects_bad_configurations() {
    let (ok, _, stderr) = run(&["fleet", "--arrays", "0"]);
    assert!(!ok);
    assert!(stderr.contains("at least one array"), "{stderr}");

    let (ok, _, stderr) = run(&["fleet", "--arrays", "1000000"]);
    assert!(!ok, "above MAX_ARRAYS must fail");
    assert!(stderr.contains("at most"), "{stderr}");

    let (ok, _, stderr) = run(&["fleet", "--workers", "2"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --workers"), "{stderr}");

    let (ok, _, stderr) = run(&["fleet", "--repairmen", "0"]);
    assert!(!ok);
    assert!(stderr.contains("at least one repair crew"), "{stderr}");

    let (ok, _, stderr) = run(&["fleet", "--dependence", "severe"]);
    assert!(!ok);
    assert!(stderr.contains("unknown dependence"), "{stderr}");

    let (ok, _, stderr) = run(&["fleet", "--domain-arrays", "4"]);
    assert!(!ok);
    assert!(stderr.contains("must be set together"), "{stderr}");

    let (ok, _, stderr) = run(&[
        "fleet",
        "--arrays",
        "4",
        "--domain-arrays",
        "5",
        "--domain-rate",
        "1e-4",
    ]);
    assert!(!ok);
    assert!(stderr.contains("exceeds the fleet"), "{stderr}");
}

#[test]
fn fleet_couplings_report_their_settings_and_stay_reproducible() {
    let args = [
        "fleet",
        "--arrays",
        "16",
        "--lambda",
        "1e-4",
        "--hep",
        "0.01",
        "--iterations",
        "150",
        "--seed",
        "11",
        "--repairmen",
        "2",
        "--dependence",
        "high",
    ];
    let (ok, stdout, _) = run(&args);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("repair crews           : 2"), "{stdout}");
    assert!(
        stdout.contains("operator dependence    : high (THERP)"),
        "{stdout}"
    );
    let (ok, rerun, _) = run(&args);
    assert!(ok);
    assert_eq!(stdout, rerun, "coupled run must be bit-reproducible");

    // Without couplings the report says the pool is unlimited and stays
    // silent about dependence and domains.
    let (ok, stdout, _) = run(&["fleet", "--iterations", "20", "--arrays", "4"]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("repair crews           : unlimited"),
        "{stdout}"
    );
    assert!(!stdout.contains("operator dependence"), "{stdout}");
    assert!(!stdout.contains("failure domains"), "{stdout}");
}

#[test]
fn fleet_domain_strikes_surface_the_tail_bin() {
    // A single shelf covering all 40 arrays: every strike exceeds the
    // histogram's exact range, so the 32+ tail must be rendered with its
    // absorbing label rather than as a phantom `k = 32` count.
    let args = [
        "fleet",
        "--arrays",
        "40",
        "--lambda",
        "1e-6",
        "--iterations",
        "50",
        "--horizon",
        "20000",
        "--seed",
        "7",
        "--domain-arrays",
        "40",
        "--domain-rate",
        "1e-3",
    ];
    let (ok, stdout, _) = run(&args);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("failure domains        : shelves of 40 struck at 1.000e-3/h"),
        "{stdout}"
    );
    assert!(stdout.contains(" 32+:"), "{stdout}");
    assert!(
        !stdout.contains(" 32:"),
        "exact-32 label must not appear: {stdout}"
    );
    assert!(stdout.contains("peak 40"), "{stdout}");
    let (ok, rerun, _) = run(&args);
    assert!(ok);
    assert_eq!(stdout, rerun, "domain run must be bit-reproducible");
}

#[test]
fn batch_dry_run_of_the_shipped_fleet_campaign_is_byte_stable() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/fleet_scaling.campaign"
    );
    let (ok, first, _) = run(&["batch", spec, "--dry-run"]);
    assert!(ok, "{first}");
    let (ok, second, _) = run(&["batch", "--dry-run", spec]);
    assert!(ok);
    assert_eq!(first, second, "dry-run output must be byte-stable");

    assert!(first.contains("campaign fleet-scaling"), "{first}");
    assert!(first.contains("  model     : mc"), "{first}");
    assert!(
        first.contains("  fleet     : 25 arrays per cell"),
        "{first}"
    );
    assert!(first.contains("cells     : 2"), "{first}");
    assert!(
        first.contains("axes      : raid[1] x policy[1] x lambda[1] x hep[2]"),
        "{first}"
    );
    // Seed derivation golden pin: campaign seed 42 shares the other
    // shipped campaigns' cell-0 seed (same scheme, same index).
    assert!(
        first.contains("0xab4c4adfbb450230"),
        "cell 0 seed drifted:\n{first}"
    );
}

#[test]
fn batch_runs_the_fleet_campaign_end_to_end() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/fleet_scaling.campaign"
    );
    let (ok, stdout, stderr) = run(&["batch", spec]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("campaign fleet-scaling"), "{stdout}");
    assert_eq!(stdout.matches("\"cell\":").count(), 2, "{stdout}");
    // hep = 0.01 must cost availability vs hep = 0 in the CSV rows.
    let csv: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("cell,"))
        .take(3)
        .collect();
    assert_eq!(csv.len(), 3, "{stdout}");
    let u_of = |line: &str| {
        line.split(',')
            .nth(6)
            .unwrap()
            .parse::<f64>()
            .expect("unavailability column")
    };
    assert!(
        u_of(csv[2]) > u_of(csv[1]),
        "hep=0.01 must be less available: {csv:?}"
    );
}

#[test]
fn batch_dry_run_of_the_shipped_dataloss_campaign_is_byte_stable() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/raid_dataloss.campaign"
    );
    let (ok, first, _) = run(&["batch", spec, "--dry-run"]);
    assert!(ok, "{first}");
    let (ok, second, _) = run(&["batch", "--dry-run", spec]);
    assert!(ok);
    assert_eq!(first, second, "dry-run output must be byte-stable");

    assert!(first.contains("campaign raid-dataloss"), "{first}");
    assert!(first.contains("  model     : mc"), "{first}");
    assert!(
        first.contains("  lse       : rate 0.0001/disk-h, scrub every 672.0 h"),
        "{first}"
    );
    assert!(first.contains("cells     : 4"), "{first}");
    // Seed derivation golden pin: campaign seed 42 shares the other
    // shipped campaigns' cell-0 seed (same scheme, same index).
    assert!(
        first.contains("0xab4c4adfbb450230"),
        "cell 0 seed drifted:\n{first}"
    );
}

#[test]
fn batch_runs_the_dataloss_campaign_end_to_end() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/raid_dataloss.campaign"
    );
    let (ok, stdout, stderr) = run(&["batch", spec]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("campaign raid-dataloss"), "{stdout}");
    let csv: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("cell,"))
        .take(5)
        .collect();
    assert_eq!(csv.len(), 5, "{stdout}");
    assert!(csv[0].ends_with(",p_data_loss,nomdl_per_tb"), "{}", csv[0]);
    // λ = 5e-4 rebuilds five times as often as λ = 1e-4, so its missions
    // must lose data more often (cells 0/1 are λ=1e-4, cells 2/3 5e-4).
    let p_of = |line: &str| {
        let f: Vec<&str> = line.split(',').collect();
        f[f.len() - 2].parse::<f64>().expect("p_data_loss column")
    };
    assert!(p_of(csv[3]) > p_of(csv[1]), "{csv:?}");
    assert!(stdout.contains("\"p_data_loss\": "), "{stdout}");
    assert!(stdout.contains("\"nomdl_per_tb\": "), "{stdout}");
}

#[test]
fn validate_and_fleet_report_the_data_loss_tier() {
    let (ok, stdout, _) = run(&[
        "validate",
        "--lambda",
        "1e-3",
        "--iterations",
        "400",
        "--lse-rate",
        "1e-4",
        "--scrub-interval",
        "336",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("p(data loss)"), "{stdout}");
    assert!(stdout.contains("nomdl"), "{stdout}");
    // The Fig. 2 chain splits its rebuild completion by the same LSE
    // probability, so the exact-vs-MC verdict still holds with LSE on.
    assert!(stdout.contains("consistent"), "{stdout}");

    let (ok, stdout, _) = run(&[
        "fleet",
        "--arrays",
        "4",
        "--lambda",
        "1e-3",
        "--iterations",
        "100",
        "--horizon",
        "20000",
        "--lse-rate",
        "1e-3",
        "--scrub-interval",
        "1000",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("lse scrubbing"), "{stdout}");
    assert!(stdout.contains("p(data loss)"), "{stdout}");
    assert!(stdout.contains("mean time to 1st loss"), "{stdout}");

    // Without the flags the loss lines stay out of the output.
    let (ok, stdout, _) = run(&["validate", "--iterations", "200"]);
    assert!(ok);
    assert!(!stdout.contains("p(data loss)"), "{stdout}");
}

#[test]
fn lse_flags_are_paired_and_validated() {
    for cmd in ["validate", "fleet"] {
        let (ok, _, stderr) = run(&[cmd, "--lse-rate", "1e-4"]);
        assert!(!ok);
        assert!(stderr.contains("must be set together"), "{cmd}: {stderr}");
        let (ok, _, stderr) = run(&[cmd, "--scrub-interval", "336"]);
        assert!(!ok);
        assert!(stderr.contains("must be set together"), "{cmd}: {stderr}");
    }
    let (ok, _, stderr) = run(&["validate", "--lse-rate", "-1", "--scrub-interval", "336"]);
    assert!(!ok);
    assert!(stderr.contains("nonnegative"), "{stderr}");
    let (ok, _, stderr) = run(&["validate", "--lse-rate", "1e-4", "--scrub-interval", "0"]);
    assert!(!ok);
    assert!(stderr.contains("must be positive"), "{stderr}");
    // Subcommands without the data-loss tier reject the flags loudly.
    let (ok, _, stderr) = run(&["solve", "--lse-rate", "1e-4", "--scrub-interval", "336"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --lse-rate"), "{stderr}");
}

#[test]
fn batch_rejects_invalid_fleet_specs() {
    let spec = write_spec(
        "fleet-markov.campaign",
        "[campaign]\nname = x\n[fleet]\narrays = 4\n",
    );
    let (ok, _, stderr) = run(&["batch", spec.to_str().unwrap(), "--dry-run"]);
    assert!(!ok);
    assert!(stderr.contains("requires `model = mc`"), "{stderr}");

    let spec = write_spec(
        "fleet-zero.campaign",
        "[campaign]\nname = x\nmodel = mc\n[fleet]\narrays = 0\n",
    );
    let (ok, _, stderr) = run(&["batch", spec.to_str().unwrap(), "--dry-run"]);
    assert!(!ok);
    assert!(stderr.contains("at least one array"), "{stderr}");

    let spec = write_spec(
        "fleet-failover.campaign",
        "[campaign]\nname = x\nmodel = mc\n[axes]\npolicy = [failover]\n[fleet]\narrays = 4\n",
    );
    let (ok, _, stderr) = run(&["batch", spec.to_str().unwrap(), "--dry-run"]);
    assert!(!ok);
    assert!(stderr.contains("conventional policy only"), "{stderr}");

    let spec = write_spec(
        "fleet-biased.campaign",
        "[campaign]\nname = x\nmodel = mc\n[mc]\nvariance = failure-biasing\n[fleet]\narrays = 4\n",
    );
    let (ok, _, stderr) = run(&["batch", spec.to_str().unwrap(), "--dry-run"]);
    assert!(!ok);
    assert!(stderr.contains("naive sampling only"), "{stderr}");

    // Degenerate coupling keys are line-numbered parse errors.
    let spec = write_spec(
        "fleet-no-crews.campaign",
        "[campaign]\nname = x\nmodel = mc\n[fleet]\narrays = 4\nrepairmen = 0\n",
    );
    let (ok, _, stderr) = run(&["batch", spec.to_str().unwrap(), "--dry-run"]);
    assert!(!ok);
    assert!(
        stderr.contains("line 6") && stderr.contains("at least one repair crew"),
        "{stderr}"
    );
}

#[test]
fn batch_dry_run_describes_fleet_couplings() {
    let spec = write_spec(
        "fleet-coupled.campaign",
        "[campaign]\nname = coupled\nmodel = mc\n[mc]\niterations = 50\n\
         [fleet]\narrays = 24\nrepairmen = 3\ndependence = moderate\n\
         domain_arrays = 8\ndomain_rate = 1e-5\n",
    );
    let (ok, stdout, _) = run(&["batch", spec.to_str().unwrap(), "--dry-run"]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains(
            "fleet     : 24 arrays per cell, 3 repair crews, \
             moderate dependence, domains of 8 at 1e-5/h"
        ),
        "{stdout}"
    );
}

#[test]
fn batch_runs_a_campaign_end_to_end_on_stdout() {
    let spec = write_spec("stdout.campaign", SURFACE_SPEC);
    let (ok, stdout, _) = run(&["batch", spec.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    // Summary table with timing, then the two machine-readable reports.
    assert!(stdout.contains("campaign cli-surface"), "{stdout}");
    assert!(stdout.contains("time-us"), "{stdout}");
    assert!(stdout.contains("--- csv ---"), "{stdout}");
    assert!(
        stdout.contains("cell,seed,raid,policy,lambda,hep,unavailability"),
        "{stdout}"
    );
    assert!(stdout.contains("--- json ---"), "{stdout}");
    assert!(stdout.contains("\"campaign\": \"cli-surface\""), "{stdout}");
    // 12 cells in both reports.
    assert_eq!(stdout.matches("\"cell\":").count(), 12, "{stdout}");
}

#[test]
fn batch_reports_are_the_renderers_bytes_in_files_and_on_stdout() {
    use availsim::exp::{plan, report, run as runner, spec::Scenario};
    // 3 x 2 x 20 x 18 = 2,160 exact cells with the volume columns on: each
    // report is several hundred KiB, far more than one write's worth.
    let lambdas: Vec<String> = (1..=20).map(|i| format!("{i}e-6")).collect();
    let heps: Vec<String> = (0..18).map(|i| format!("{i}e-3")).collect();
    let text = format!(
        "[campaign]\nname = report-bytes\nseed = 9\nmodel = markov-conventional\n\
         capacity = 21\n[axes]\nraid = [r1, r5-3, r5-7]\npolicy = [conventional, failover]\n\
         lambda = [{}]\nhep = [{}]\n",
        lambdas.join(", "),
        heps.join(", ")
    );
    let result = runner::run(
        &plan::expand(&Scenario::parse(&text).unwrap()).unwrap(),
        &runner::RunConfig::default(),
    )
    .unwrap();
    let (csv, json) = (report::to_csv(&result), report::to_json(&result));
    assert!(csv.len() > 256 * 1024 && json.len() > 256 * 1024);

    let spec = write_spec("report-bytes.campaign", &text);
    let spec = spec.to_str().unwrap();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("report-bytes");
    let _ = std::fs::remove_dir_all(&dir);
    let (ok, _, stderr) = run(&["batch", spec, "--out-dir", dir.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(std::fs::read_to_string(dir.join("report-bytes.csv")).unwrap() == csv);
    assert!(std::fs::read_to_string(dir.join("report-bytes.json")).unwrap() == json);

    // Without --out-dir both reports follow the summary on stdout.
    let (ok, stdout, stderr) = run(&["batch", spec, "--workers", "2"]);
    assert!(ok, "{stderr}");
    let (_, reports) = stdout.split_once("\n--- csv ---\n").expect("csv block");
    let (csv_block, json_block) = reports.split_once("--- json ---\n").expect("json block");
    assert!(csv_block == csv, "the stdout CSV block differs from to_csv");
    assert!(
        json_block == json,
        "the stdout JSON block differs from to_json"
    );
}

/// Runs `batch --out-dir` where the `ext` report's path is a directory:
/// the command fails naming that file, and still writes the other report
/// with the renderer's bytes.
fn batch_names_the_report_it_cannot_write(ext: &str) {
    use availsim::exp::{plan, report, run as runner, spec::Scenario};
    let spec = write_spec(&format!("write-error-{ext}.campaign"), SURFACE_SPEC);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("write-error-{ext}"));
    let _ = std::fs::remove_dir_all(&dir);
    let blocked = dir.join(format!("cli-surface.{ext}"));
    std::fs::create_dir_all(&blocked).unwrap();
    let (ok, _, stderr) = run(&[
        "batch",
        spec.to_str().unwrap(),
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(!ok);
    let named = format!("error: cannot write `{}`: ", blocked.display());
    assert!(stderr.starts_with(&named), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");

    let result = runner::run(
        &plan::expand(&Scenario::parse(SURFACE_SPEC).unwrap()).unwrap(),
        &runner::RunConfig::default(),
    )
    .unwrap();
    let (other, bytes) = match ext {
        "csv" => ("json", report::to_json(&result)),
        _ => ("csv", report::to_csv(&result)),
    };
    let written = std::fs::read_to_string(dir.join(format!("cli-surface.{other}"))).unwrap();
    assert!(
        written == bytes,
        "the {other} report differs from its renderer's"
    );
}

#[test]
fn batch_names_the_report_it_cannot_write_csv() {
    batch_names_the_report_it_cannot_write("csv");
}

#[test]
fn batch_names_the_report_it_cannot_write_json() {
    batch_names_the_report_it_cannot_write("json");
}

#[test]
fn batch_names_the_out_dir_it_cannot_create() {
    let spec = write_spec("out-dir-error.campaign", SURFACE_SPEC);
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("out-dir-is-a-file");
    std::fs::write(&file, "").unwrap();
    let file = file.to_str().unwrap();
    let (ok, _, stderr) = run(&["batch", spec.to_str().unwrap(), "--out-dir", file]);
    assert!(!ok);
    assert!(
        stderr.starts_with(&format!("error: cannot create `{file}`: ")),
        "{stderr}"
    );
}

/// Runs `availsim batch <args>` and closes its stdout after the first
/// line, as `| head -1` does. Returns that line, whether the process
/// exited 0, and its stderr.
fn run_closing_stdout_after_one_line(args: &[&str]) -> (String, bool, String) {
    use std::io::BufRead as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_availsim"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    drop(stdout);
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (line, out.status.success(), stderr)
}

#[test]
fn batch_finishes_its_reports_when_stdout_closes_early() {
    // 3 x 2 x 20 x 18 = 2,160 exact cells: the summary and the dry-run
    // plan are each far more than a pipe buffer (64 KiB), so the write
    // that follows the closed pipe is certain to fail.
    let lambdas: Vec<String> = (1..=20).map(|i| format!("{i}e-6")).collect();
    let heps: Vec<String> = (0..18).map(|i| format!("{i}e-3")).collect();
    let spec = write_spec(
        "closed-stdout.campaign",
        &format!(
            "[campaign]\nname = closed-stdout\nmodel = markov-conventional\n[axes]\n\
             raid = [r1, r5-3, r5-7]\npolicy = [conventional, failover]\n\
             lambda = [{}]\nhep = [{}]\n",
            lambdas.join(", "),
            heps.join(", ")
        ),
    );
    let spec = spec.to_str().unwrap();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("closed-stdout");
    let _ = std::fs::remove_dir_all(&dir);

    let (line, ok, stderr) =
        run_closing_stdout_after_one_line(&["batch", spec, "--out-dir", dir.to_str().unwrap()]);
    assert!(line.starts_with("## campaign closed-stdout"), "{line}");
    assert!(ok, "a closed stdout must not fail the campaign: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    for file in ["closed-stdout.csv", "closed-stdout.json"] {
        let report = std::fs::read_to_string(dir.join(file)).unwrap();
        assert!(report.contains("RAID5(7+1)"), "{file} is incomplete");
    }

    let (line, ok, stderr) = run_closing_stdout_after_one_line(&["batch", spec, "--dry-run"]);
    assert_eq!(line, "campaign closed-stdout\n");
    assert!(ok, "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn every_one_shot_command_finishes_when_stdout_closes() {
    // Each command gets a pipe whose reader is gone before it starts, so
    // its first write fails: the command must still exit 0, without a
    // panic, and `validate --metrics` must still write its file.
    let metrics = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("closed-stdout-validate.json");
    let _ = std::fs::remove_file(&metrics);
    let commands: [&[&str]; 7] = [
        &["solve"],
        &["sweep", "--points", "3"],
        &["compare"],
        &[
            "validate",
            "--iterations",
            "500",
            "--metrics",
            metrics.to_str().unwrap(),
        ],
        &[
            "fleet",
            "--arrays",
            "4",
            "--iterations",
            "20",
            "--horizon",
            "1000",
        ],
        &["--help"],
        &["--version"],
    ];
    for args in commands {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_availsim"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?} {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let written = std::fs::read_to_string(&metrics).expect("validate wrote its metrics");
    assert!(written.contains("\"command\": \"validate\""), "{written}");
}

#[test]
fn batch_metric_files_are_identical_for_1_and_3_workers() {
    let spec = write_spec("workers.campaign", SURFACE_SPEC);
    let spec = spec.to_str().unwrap();
    let dir1 = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("campaign-w1");
    let dir3 = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("campaign-w3");
    let (ok, out, _) = run(&[
        "batch",
        spec,
        "--workers=1",
        "--out-dir",
        dir1.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("wrote "), "{out}");
    let (ok, _, _) = run(&[
        "batch",
        spec,
        "--workers=3",
        "--out-dir",
        dir3.to_str().unwrap(),
    ]);
    assert!(ok);
    for file in ["cli-surface.csv", "cli-surface.json"] {
        let a = std::fs::read(dir1.join(file)).unwrap();
        let b = std::fs::read(dir3.join(file)).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "{file} must be byte-identical across worker counts");
    }
}

#[test]
fn batch_reports_spec_errors_with_line_numbers() {
    let spec = write_spec("broken.campaign", "[campaign]\nname = broken\nseed = pi\n");
    let (ok, _, stderr) = run(&["batch", spec.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("line 3"), "{stderr}");

    let (ok, _, stderr) = run(&["batch"]);
    assert!(!ok);
    assert!(stderr.contains("batch needs a spec file"), "{stderr}");

    let (ok, _, stderr) = run(&["batch", "/nonexistent/x.campaign"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");

    let spec = write_spec("ok.campaign", SURFACE_SPEC);
    let (ok, _, stderr) = run(&["batch", spec.to_str().unwrap(), "extra-positional"]);
    assert!(!ok);
    assert!(stderr.contains("unexpected extra argument"), "{stderr}");
}

#[test]
fn non_batch_commands_still_reject_positionals() {
    let (ok, _, stderr) = run(&["compare", "stray"]);
    assert!(!ok);
    assert!(stderr.contains("expected --flag"), "{stderr}");
}

/// A small Monte-Carlo campaign that exercises the telemetry counters.
const MC_SPEC: &str = "\
[campaign]
name = cli-mc
seed = 7
model = mc

[axes]
raid = [r5-3]
lambda = [1e-4]
hep = [0, 0.01]

[mc]
iterations = 300
";

/// Extracts the deterministic counter section of a `--metrics` JSON
/// snapshot (everything from the `deterministic` key up to the
/// `nondeterministic` key, which holds the wall-clock measurements).
fn deterministic_section(path: &std::path::Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let start = text
        .find("\"deterministic\"")
        .expect("deterministic section");
    let end = text
        .find("\"nondeterministic\"")
        .expect("nondeterministic section");
    text[start..end].to_string()
}

#[test]
fn validate_metrics_deterministic_section_is_thread_count_invariant() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let m1 = dir.join("validate-t1.json");
    let m4 = dir.join("validate-t4.json");
    let base = ["validate", "--iterations", "800", "--seed", "5"];
    let (ok, _, stderr) = run(&[
        &base[..],
        &["--threads", "1", "--metrics", m1.to_str().unwrap()],
    ]
    .concat());
    assert!(ok, "{stderr}");
    assert!(stderr.contains("wrote metrics"), "{stderr}");
    let (ok, _, _) = run(&[
        &base[..],
        &["--threads", "4", "--metrics", m4.to_str().unwrap()],
    ]
    .concat());
    assert!(ok);
    let (d1, d4) = (deterministic_section(&m1), deterministic_section(&m4));
    assert_eq!(d1, d4, "counters must be byte-identical across threads");
    assert!(d1.contains("\"availsim_missions_total\": 800"), "{d1}");
    assert!(
        !d1.contains("\"availsim_jump_transitions_total\": 0"),
        "jump-chain counters must be live: {d1}"
    );
}

#[test]
fn fleet_metrics_deterministic_section_is_thread_count_invariant() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let m1 = dir.join("fleet-t1.json");
    let m4 = dir.join("fleet-t4.json");
    let base = [
        "fleet",
        "--arrays",
        "8",
        "--lambda",
        "1e-4",
        "--iterations",
        "100",
        "--seed",
        "3",
        "--repairmen",
        "1",
    ];
    let (ok, _, stderr) = run(&[
        &base[..],
        &["--threads", "1", "--metrics", m1.to_str().unwrap()],
    ]
    .concat());
    assert!(ok, "{stderr}");
    let (ok, _, _) = run(&[
        &base[..],
        &["--threads", "4", "--metrics", m4.to_str().unwrap()],
    ]
    .concat());
    assert!(ok);
    let (d1, d4) = (deterministic_section(&m1), deterministic_section(&m4));
    assert_eq!(d1, d4, "counters must be byte-identical across threads");
    assert!(d1.contains("\"availsim_missions_total\": 100"), "{d1}");
    assert!(
        !d1.contains("\"availsim_queue_scheduled_total\": 0"),
        "fleet runs must exercise the indexed queue: {d1}"
    );
}

#[test]
fn batch_metrics_snapshot_is_worker_count_invariant() {
    let spec = write_spec("metrics.campaign", MC_SPEC);
    let spec = spec.to_str().unwrap();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let m1 = dir.join("batch-w1.json");
    let m3 = dir.join("batch-w3.json");
    let (ok, _, stderr) = run(&[
        "batch",
        spec,
        "--workers=1",
        "--metrics",
        m1.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let (ok, _, _) = run(&[
        "batch",
        spec,
        "--workers=3",
        "--metrics",
        m3.to_str().unwrap(),
    ]);
    assert!(ok);
    let (d1, d3) = (deterministic_section(&m1), deterministic_section(&m3));
    assert_eq!(d1, d3, "counters must be byte-identical across workers");
    // Two cells x 300 iterations.
    assert!(d1.contains("\"availsim_missions_total\": 600"), "{d1}");
    // The nondeterministic section carries the batch-only extras.
    let text = std::fs::read_to_string(&m1).unwrap();
    assert!(text.contains("\"worker_utilization\":"), "{text}");
    assert!(text.contains("\"cell_micros\":"), "{text}");
    assert!(text.contains("\"p99\":"), "{text}");
}

#[test]
fn metrics_prometheus_format_emits_exposition_text() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("validate.prom");
    let (ok, _, stderr) = run(&[
        "validate",
        "--iterations",
        "300",
        "--metrics",
        path.to_str().unwrap(),
        "--metrics-format",
        "prom",
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("# HELP availsim_missions_total"), "{text}");
    assert!(
        text.contains("# TYPE availsim_missions_total counter"),
        "{text}"
    );
    assert!(text.contains("availsim_missions_total 300"), "{text}");
    assert!(
        text.contains("# TYPE availsim_queue_depth_high_water gauge"),
        "{text}"
    );
    assert!(text.contains("deterministic section"), "{text}");
    assert!(text.contains("nondeterministic section"), "{text}");
}

#[test]
fn telemetry_flags_are_rejected_where_unsupported() {
    for cmd in ["solve", "sweep", "compare"] {
        let (ok, _, stderr) = run(&[cmd, "--metrics", "/tmp/x.json"]);
        assert!(!ok, "{cmd} must reject --metrics");
        assert!(stderr.contains("unknown flag --metrics"), "{cmd}: {stderr}");
    }
    // Progress streaming only makes sense for multi-cell campaigns.
    for cmd in ["validate", "fleet", "solve"] {
        let (ok, _, stderr) = run(&[cmd, "--progress"]);
        assert!(!ok, "{cmd} must reject --progress");
        assert!(
            stderr.contains("unknown flag --progress"),
            "{cmd}: {stderr}"
        );
    }

    let (ok, _, stderr) = run(&["validate", "--metrics-format", "prom"]);
    assert!(!ok);
    assert!(
        stderr.contains("requires a `telemetry.metrics` destination"),
        "{stderr}"
    );

    let (ok, _, stderr) = run(&[
        "validate",
        "--metrics",
        "/tmp/x.json",
        "--metrics-format",
        "xml",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown format `xml`"), "{stderr}");
}

#[test]
fn telemetry_spec_errors_are_line_numbered() {
    let spec = write_spec(
        "tele-format.campaign",
        "[campaign]\nname = t\nmodel = mc\n[telemetry]\nformat = prom\n",
    );
    let (ok, _, stderr) = run(&["batch", spec.to_str().unwrap(), "--dry-run"]);
    assert!(!ok);
    assert!(
        stderr.contains("line 5") && stderr.contains("requires a `telemetry.metrics` destination"),
        "{stderr}"
    );

    let spec = write_spec(
        "tele-progress.campaign",
        "[campaign]\nname = t\nmodel = mc\n[telemetry]\nprogress = maybe\n",
    );
    let (ok, _, stderr) = run(&["batch", spec.to_str().unwrap(), "--dry-run"]);
    assert!(!ok);
    assert!(
        stderr.contains("line 5") && stderr.contains("expects true or false"),
        "{stderr}"
    );
}

#[test]
fn batch_dry_run_shows_the_telemetry_line_only_when_configured() {
    let spec = write_spec("tele-dry.campaign", MC_SPEC);
    let spec = spec.to_str().unwrap();
    let (ok, stdout, _) = run(&["batch", spec, "--dry-run"]);
    assert!(ok);
    assert!(!stdout.contains("telemetry"), "{stdout}");

    let (ok, stdout, _) = run(&[
        "batch",
        spec,
        "--dry-run",
        "--metrics",
        "m.prom",
        "--metrics-format",
        "prom",
        "--progress",
    ]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("  telemetry : metrics -> m.prom (prom), progress on"),
        "{stdout}"
    );
}

#[test]
fn batch_progress_streams_cell_lines_to_stderr_only() {
    let spec = write_spec("progress.campaign", MC_SPEC);
    let spec = spec.to_str().unwrap();
    let (ok, plain_out, _) = run(&["batch", spec]);
    assert!(ok);
    let (ok, stdout, stderr) = run(&["batch", spec, "--progress"]);
    assert!(ok, "{stderr}");
    // The summary header carries wall-clock timing, so compare from the
    // machine-readable reports down: they must be untouched by --progress.
    let reports = |s: &str| s[s.find("--- csv ---").expect("csv report")..].to_string();
    assert_eq!(
        reports(&stdout),
        reports(&plain_out),
        "--progress must not perturb the deterministic stdout report"
    );
    let lines: Vec<&str> = stderr.lines().filter(|l| l.contains("done (U=")).collect();
    assert_eq!(lines.len(), 2, "one progress line per cell: {stderr}");
    assert!(lines.iter().all(|l| l.contains("/2 done")), "{stderr}");
}

#[test]
fn fleet_failover_reports_dr_metrics_and_stays_reproducible() {
    let args = [
        "fleet",
        "--arrays",
        "12",
        "--lambda",
        "1e-4",
        "--hep",
        "0.01",
        "--iterations",
        "150",
        "--seed",
        "13",
        "--failover-capacity",
        "2",
        "--failover-policy",
        "loss",
        "--failback-rate",
        "0.05",
    ];
    let (ok, stdout, _) = run(&args);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("DR failover            : 2 slots (loss policy), fail-back 5.000e-2/h"),
        "{stdout}"
    );
    assert!(stdout.contains("DR-credited avail"), "{stdout}");
    assert!(stdout.contains("DR site"), "{stdout}");
    assert!(stdout.contains("failovers"), "{stdout}");
    let (ok, rerun, _) = run(&args);
    assert!(ok);
    assert_eq!(stdout, rerun, "DR run must be bit-reproducible");

    // The ideal site covers everything: credited availability is exactly 1.
    let (ok, stdout, _) = run(&[
        "fleet",
        "--arrays",
        "8",
        "--lambda",
        "1e-4",
        "--iterations",
        "80",
        "--failover-capacity",
        "inf",
    ]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("DR failover            : unlimited slots (ideal site)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("uncovered unavailability 0.0000e0"),
        "{stdout}"
    );

    // Without the flags the report stays silent about DR.
    let (ok, stdout, _) = run(&["fleet", "--iterations", "20", "--arrays", "4"]);
    assert!(ok);
    assert!(!stdout.contains("DR"), "{stdout}");
}

#[test]
fn fleet_failover_flags_are_validated() {
    let (ok, _, stderr) = run(&["fleet", "--failover-policy", "loss"]);
    assert!(!ok);
    assert!(
        stderr.contains(
            "--failover-policy: `fleet.failover_policy` requires `fleet.failover_capacity`"
        ),
        "{stderr}"
    );

    let (ok, _, stderr) = run(&["fleet", "--failback-rate", "0.1"]);
    assert!(!ok);
    assert!(
        stderr
            .contains("--failback-rate: `fleet.failback_rate` requires `fleet.failover_capacity`"),
        "{stderr}"
    );

    let (ok, _, stderr) = run(&["fleet", "--failover-capacity", "many"]);
    assert!(!ok);
    assert!(stderr.contains("an unsigned integer or `inf`"), "{stderr}");

    let (ok, _, stderr) = run(&["fleet", "--failover-capacity", "0"]);
    assert!(!ok);
    assert!(stderr.contains("at least one failover slot"), "{stderr}");

    let (ok, _, stderr) = run(&[
        "fleet",
        "--failover-capacity",
        "2",
        "--failover-policy",
        "teleport",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown failover policy `teleport` (use queue, loss)"),
        "{stderr}"
    );

    let (ok, _, stderr) = run(&["fleet", "--failover-capacity", "2", "--failback-rate", "-1"]);
    assert!(!ok);
    assert!(stderr.contains("fail-back rate"), "{stderr}");
}

#[test]
fn failover_and_keep_going_flags_are_rejected_where_unsupported() {
    // DR failover belongs to the fleet engine only.
    for cmd in ["solve", "validate", "batch"] {
        let spec = write_spec("no-dr.campaign", SURFACE_SPEC);
        let args: Vec<&str> = if cmd == "batch" {
            vec![cmd, spec.to_str().unwrap(), "--failover-capacity", "2"]
        } else {
            vec![cmd, "--failover-capacity", "2"]
        };
        let (ok, _, stderr) = run(&args);
        assert!(!ok, "{cmd} must reject --failover-capacity");
        assert!(
            stderr.contains("unknown flag --failover-capacity"),
            "{cmd}: {stderr}"
        );
    }
    // Continue-on-error is a campaign concept; single runs just fail.
    for cmd in ["solve", "validate", "fleet"] {
        let (ok, _, stderr) = run(&[cmd, "--keep-going"]);
        assert!(!ok, "{cmd} must reject --keep-going");
        assert!(
            stderr.contains("unknown flag --keep-going"),
            "{cmd}: {stderr}"
        );
    }
}

#[test]
fn batch_failover_spec_errors_name_their_line() {
    // DR keys without a fleet size blame the failover_capacity line.
    let spec = write_spec(
        "dr-no-arrays.campaign",
        "[campaign]\nname = x\nmodel = mc\n[fleet]\nfailover_capacity = 2\n",
    );
    let (ok, _, stderr) = run(&["batch", spec.to_str().unwrap(), "--dry-run"]);
    assert!(!ok);
    assert!(
        stderr.contains("line 5") && stderr.contains("at least one array"),
        "{stderr}"
    );

    // A policy without a capacity blames the policy's own line.
    let spec = write_spec(
        "dr-orphan-policy.campaign",
        "[campaign]\nname = x\nmodel = mc\n[fleet]\narrays = 8\nfailover_policy = loss\n",
    );
    let (ok, _, stderr) = run(&["batch", spec.to_str().unwrap(), "--dry-run"]);
    assert!(!ok);
    assert!(
        stderr.contains("line 6") && stderr.contains("requires `fleet.failover_capacity`"),
        "{stderr}"
    );

    // Zero slots is a value error on the capacity line.
    let spec = write_spec(
        "dr-zero.campaign",
        "[campaign]\nname = x\nmodel = mc\n[fleet]\narrays = 8\nfailover_capacity = 0\n",
    );
    let (ok, _, stderr) = run(&["batch", spec.to_str().unwrap(), "--dry-run"]);
    assert!(!ok);
    assert!(
        stderr.contains("line 6") && stderr.contains("at least one failover slot"),
        "{stderr}"
    );
}

#[test]
fn batch_dry_run_of_the_shipped_failover_campaign_is_byte_stable() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/fleet_failover.campaign"
    );
    let (ok, first, _) = run(&["batch", spec, "--dry-run"]);
    assert!(ok, "{first}");
    let (ok, second, _) = run(&["batch", "--dry-run", spec]);
    assert!(ok);
    assert_eq!(first, second, "dry-run output must be byte-stable");

    assert!(first.contains("campaign fleet-failover"), "{first}");
    assert!(
        first.contains(
            "fleet     : 16 arrays per cell, 2 repair crews, \
             DR capacity 2 (queue), fail-back 0.25/h"
        ),
        "{first}"
    );
    assert!(first.contains("cells     : 2"), "{first}");
    // Seed derivation golden pin shared by every campaign at seed 42.
    assert!(
        first.contains("0xab4c4adfbb450230"),
        "cell 0 seed drifted:\n{first}"
    );
}

#[test]
fn batch_runs_the_failover_campaign_and_reports_the_credit() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/fleet_failover.campaign"
    );
    let (ok, stdout, stderr) = run(&["batch", spec]);
    assert!(ok, "{stdout}\n{stderr}");
    let header = stdout
        .lines()
        .find(|l| l.starts_with("cell,"))
        .expect("csv header");
    assert!(header.ends_with(",credited_unavailability"), "{header}");
    // The DR credit can only help: credited <= plain on every row.
    for line in stdout
        .lines()
        .skip_while(|l| !l.starts_with("cell,"))
        .skip(1)
        .take(2)
    {
        let cols: Vec<&str> = line.split(',').collect();
        let plain: f64 = cols[6].parse().expect("unavailability");
        let credited: f64 = cols[cols.len() - 1].parse().expect("credited");
        assert!(credited <= plain, "{line}");
    }
    assert!(stdout.contains("\"credited_unavailability\":"), "{stdout}");
}

/// A campaign where exactly one of the two cells fails: RAID6 under the
/// Fig. 3 fail-over chain is invalid (fault tolerance must be 1).
const KEEP_GOING_SPEC: &str = "\
[campaign]
name = kg
seed = 42
model = markov-failover

[axes]
raid = [r5-3, r6-4]
hep = 0.01
lambda = 1e-5
";

#[test]
fn batch_keep_going_completes_with_a_deterministic_failure_row() {
    let spec = write_spec("keep-going.campaign", KEEP_GOING_SPEC);
    let spec = spec.to_str().unwrap();

    // Without the flag the campaign aborts on the bad cell.
    let (ok, _, stderr) = run(&["batch", spec]);
    assert!(!ok);
    assert!(stderr.contains("cell 1"), "{stderr}");

    let (ok, stdout, _) = run(&["batch", spec, "--keep-going"]);
    assert!(ok, "{stdout}");
    let header = stdout
        .lines()
        .find(|l| l.starts_with("cell,"))
        .expect("csv header");
    assert!(header.ends_with(",status,error"), "{header}");
    let rows: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("cell,"))
        .skip(1)
        .take(2)
        .collect();
    assert!(rows[0].contains(",ok,"), "{}", rows[0]);
    assert!(rows[1].contains(",error,"), "{}", rows[1]);
    assert!(stdout.contains("\"failed_cells\": 1"), "{stdout}");
    assert!(stdout.contains("1 cell(s) failed"), "{stdout}");

    // Deterministic placement: report files are worker-count invariant.
    let dir1 = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("kg-w1");
    let dir3 = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("kg-w3");
    let (ok, _, _) = run(&[
        "batch",
        spec,
        "--keep-going",
        "--workers=1",
        "--out-dir",
        dir1.to_str().unwrap(),
    ]);
    assert!(ok);
    let (ok, _, _) = run(&[
        "batch",
        spec,
        "--keep-going",
        "--workers=3",
        "--out-dir",
        dir3.to_str().unwrap(),
    ]);
    assert!(ok);
    for file in ["kg.csv", "kg.json"] {
        let a = std::fs::read(dir1.join(file)).unwrap();
        let b = std::fs::read(dir3.join(file)).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "{file} must be byte-identical across worker counts");
    }
}

#[test]
fn help_flag_aliases_work() {
    for alias in ["--help", "-h"] {
        let (ok, stdout, _) = run(&[alias]);
        assert!(ok, "{alias} must exit 0");
        assert!(stdout.contains("USAGE"), "{stdout}");
        assert!(stdout.contains("batch"), "{stdout}");
        assert!(stdout.contains("serve"), "{stdout}");
    }
}

#[test]
fn version_aliases_print_the_crate_version_and_exit_zero() {
    let golden = format!("availsim {}\n", env!("CARGO_PKG_VERSION"));
    for alias in ["--version", "-V", "version"] {
        let (ok, stdout, stderr) = run(&[alias]);
        assert!(ok, "{alias} must exit 0: {stderr}");
        assert_eq!(stdout, golden, "{alias} golden drifted");
        assert!(stderr.is_empty(), "{alias} must not write stderr: {stderr}");
    }
}

#[test]
fn threads_zero_is_auto_and_keeps_the_estimate_bytes() {
    // `--threads 0` (the default, documented "auto") must run and answer
    // the exact same bytes as a pinned pool: the block merge makes thread
    // count pure presentation.
    let base = ["validate", "--iterations", "600", "--seed", "4"];
    let (ok, auto_out, _) = run(&[&base[..], &["--threads", "0"]].concat());
    assert!(ok, "{auto_out}");
    let (ok, pinned_out, _) = run(&[&base[..], &["--threads", "3"]].concat());
    assert!(ok);
    assert_eq!(auto_out, pinned_out, "--threads 0 must not move the bytes");
}

#[test]
fn workers_zero_is_auto_for_batch_and_the_spec_spells_it_threads() {
    // `batch --workers 0` (auto) matches a pinned worker pool…
    let spec = write_spec("auto-workers.campaign", MC_SPEC);
    let spec = spec.to_str().unwrap();
    let (ok, auto_out, _) = run(&["batch", spec, "--workers=0"]);
    assert!(ok, "{auto_out}");
    let (ok, pinned_out, _) = run(&["batch", spec, "--workers=2"]);
    assert!(ok);
    let reports = |s: &str| s[s.find("--- csv ---").expect("csv report")..].to_string();
    assert_eq!(
        reports(&auto_out),
        reports(&pinned_out),
        "--workers 0 must not move the report bytes"
    );

    // …and the campaign spec's `[mc] threads = 0` names the same contract
    // in the dry-run plan.
    let spec = write_spec(
        "auto-threads.campaign",
        "[campaign]\nname = auto\nmodel = mc\n[mc]\niterations = 50\nthreads = 0\n",
    );
    let (ok, stdout, _) = run(&["batch", spec.to_str().unwrap(), "--dry-run"]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("threads   : auto (machine parallelism)"),
        "{stdout}"
    );
}

#[cfg(unix)]
#[test]
fn serve_drains_on_sigterm_and_exits_zero() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    let mut child = Command::new(env!("CARGO_BIN_EXE_availsim"))
        .args(["serve", "--port", "0", "--drain-ms", "500"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // The startup line is flushed before the accept loop starts; once it
    // arrives, the signal handlers are installed and the port is bound.
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout pipe"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("startup line");
    assert!(line.starts_with("listening on http://127.0.0.1:"), "{line}");

    let ok = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM")
        .success();
    assert!(ok, "kill -TERM failed");

    // An idle server must drain well inside the budget and exit 0.
    let begun = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            begun.elapsed() < Duration::from_secs(30),
            "serve did not exit after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "SIGTERM must exit 0, got {status:?}");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr pipe")
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(stderr.contains("drained clean"), "{stderr}");
}

#[test]
fn serve_flags_are_validated_without_binding() {
    let (ok, _, stderr) = run(&["serve", "--port", "not-a-port"]);
    assert!(!ok);
    assert!(stderr.contains("invalid value"), "{stderr}");

    let (ok, _, stderr) = run(&["serve", "--queue-capacity", "0"]);
    assert!(!ok, "a zero-slot queue can admit nothing");
    assert!(stderr.contains("at least 1"), "{stderr}");

    let (ok, _, stderr) = run(&["serve", "--threads", "2"]);
    assert!(!ok, "serve spells its pool --workers");
    assert!(stderr.contains("unknown flag --threads"), "{stderr}");

    let (ok, _, stderr) = run(&["serve", "stray"]);
    assert!(!ok);
    assert!(stderr.contains("expected --flag"), "{stderr}");
}

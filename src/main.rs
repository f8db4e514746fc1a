//! `availsim` — command-line front end for the availability models.
//!
//! ```text
//! availsim solve    --lambda 1e-6 --hep 0.01 [--raid r5-3] [--policy failover]
//! availsim sweep    --hep 0.01 [--from 5e-7] [--to 5.5e-6] [--points 11]
//! availsim compare  [--lambda 1e-5] [--capacity 21]
//! availsim validate [--lambda 1e-3] [--hep 0.01] [--iterations 4000]
//! availsim fleet    [--arrays N] [--raid r5-3] [--lambda F] [--hep F] [--iterations N]
//!                   [--failover-capacity N|inf] [--failover-policy queue|loss]
//! availsim batch    <spec-file> [--workers N] [--out-dir DIR] [--dry-run] [--keep-going]
//! availsim serve    [--port N] [--workers N] [--queue-capacity N]
//!                   [--default-deadline-ms N] [--drain-ms N] [--cache-capacity N]
//! ```

use availsim::core::analysis::underestimation;
use availsim::core::mc::{McVariance, DEGRADED_BINS};
use availsim::core::volume::compare_equal_capacity;
use availsim::core::{nines, ModelParams};
use availsim::exp::plan::Cell;
use availsim::exp::run::{estimate, Estimate};
use availsim::exp::spec::{
    FleetSettings, McSettings, MetricsFormat, ModelKind, Origin, Scenario, ScenarioBuilder,
    TelemetrySettings,
};
use availsim::exp::{plan, report, run};
use availsim::hra::{DependenceLevel, Hep};
use availsim::sim::json::JsonSnapshot;
use availsim::sim::telemetry::{
    percentile_u64, write_counters, CounterSnapshot, PhaseSpans, PrometheusWriter,
};
use std::collections::HashMap;
use std::error::Error;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;
use std::process::ExitCode;
use std::thread;
use std::time::Instant;

/// Flags that take no value; their presence means `true`.
const BOOLEAN_FLAGS: &[&str] = &["dry-run", "progress", "keep-going"];

/// Parsed command line: `--key value` / `--key=value` flags plus bare
/// positional arguments (only the `batch` subcommand accepts one).
struct ParsedArgs {
    flags: HashMap<String, String>,
    positionals: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<ParsedArgs, String> {
    let mut flags = HashMap::new();
    let mut positionals = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let Some(rest) = args[i].strip_prefix("--") else {
            positionals.push(args[i].clone());
            i += 1;
            continue;
        };
        let (key, value) = if let Some((key, value)) = rest.split_once('=') {
            if key.is_empty() {
                return Err(format!("missing flag name in `{}`", args[i]));
            }
            (key.to_string(), value.to_string())
        } else if BOOLEAN_FLAGS.contains(&rest) {
            (rest.to_string(), "true".to_string())
        } else {
            let value = args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("--{rest} needs a value"))?;
            i += 1;
            (rest.to_string(), value.clone())
        };
        if flags.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate flag --{key}"));
        }
        i += 1;
    }
    Ok(ParsedArgs { flags, positionals })
}

/// Rejects flags a subcommand does not understand, so typos fail loudly
/// instead of silently falling back to defaults.
fn check_known(flags: &HashMap<String, String>, known: &[&str]) -> Result<(), String> {
    let mut unknown: Vec<&str> = flags
        .keys()
        .filter(|k| !known.contains(&k.as_str()))
        .map(String::as_str)
        .collect();
    unknown.sort_unstable();
    match unknown.first() {
        Some(k) => Err(format!("unknown flag --{k}")),
        None => Ok(()),
    }
}

/// Most subcommands take flags only; reject stray positionals with the
/// pre-existing error shape, and unknown flags with a clear error.
fn flags_only<'a>(
    parsed: &'a ParsedArgs,
    known: &[&str],
) -> Result<&'a HashMap<String, String>, String> {
    if let Some(p) = parsed.positionals.first() {
        return Err(format!("expected --flag, got `{p}`"));
    }
    check_known(&parsed.flags, known)?;
    Ok(&parsed.flags)
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value `{v}` for --{key}")),
    }
}

/// Every scenario flag: `(flag, spec key, the commands that take it)`.
/// The table is each command's known-flag list, and present flags reach
/// the [`ScenarioBuilder`] in table order, so the first error reported is
/// deterministic.
const SCENARIO_FLAGS: &[(&str, &str, &str)] = &[
    ("arrays", "fleet.arrays", "fleet"),
    ("raid", "axes.raid", "solve fleet"),
    ("policy", "axes.policy", "solve"),
    ("lambda", "axes.lambda", "solve validate fleet"),
    ("hep", "axes.hep", "solve validate fleet"),
    ("iterations", "mc.iterations", "validate fleet"),
    ("horizon", "mc.horizon_hours", "fleet"),
    ("seed", "campaign.seed", "validate fleet"),
    ("threads", "mc.threads", "validate fleet"),
    ("variance", "mc.variance", "validate"),
    ("bias", "mc.bias", "validate"),
    ("levels", "mc.levels", "validate"),
    ("effort", "mc.effort", "validate"),
    ("repairmen", "fleet.repairmen", "fleet"),
    ("dependence", "fleet.dependence", "fleet"),
    ("domain-arrays", "fleet.domain_arrays", "fleet"),
    ("domain-rate", "fleet.domain_rate", "fleet"),
    ("failover-capacity", "fleet.failover_capacity", "fleet"),
    ("failover-policy", "fleet.failover_policy", "fleet"),
    ("failback-rate", "fleet.failback_rate", "fleet"),
    ("lse-rate", "lse.lse_rate", "validate fleet"),
    ("scrub-interval", "lse.scrub_interval", "validate fleet"),
    ("metrics", "telemetry.metrics", "validate fleet batch"),
    ("metrics-format", "telemetry.format", "validate fleet batch"),
    ("progress", "telemetry.progress", "batch"),
];

/// The `(flag, spec key)` rows of [`SCENARIO_FLAGS`] that `command` takes.
fn scenario_flags(command: &str) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
    SCENARIO_FLAGS
        .iter()
        .filter(move |(_, _, commands)| commands.split(' ').any(|c| c == command))
        .map(|&(flag, key, _)| (flag, key))
}

fn flag_names(command: &str) -> Vec<&'static str> {
    scenario_flags(command).map(|(flag, _)| flag).collect()
}

/// Builds a command's scenario: `base` carries the command's defaults and
/// every flag of the command that is present becomes one builder pair.
fn scenario(
    flags: &HashMap<String, String>,
    command: &str,
    base: Scenario,
) -> Result<Scenario, Box<dyn Error>> {
    let mut builder = ScenarioBuilder::new(base);
    for (flag, key) in scenario_flags(command) {
        if let Some(value) = flags.get(flag) {
            builder.set(key, value, Origin::Flag(flag))?;
        }
    }
    Ok(builder.build()?)
}

/// The base of the Monte-Carlo commands: hep = 0.01, seed 42, as many
/// threads as the machine has, and the spec's 99% intervals over 10-year
/// missions.
fn mc_base(iterations: u64) -> Scenario {
    Scenario {
        model: ModelKind::Mc,
        seed: 42,
        hep: vec![0.01],
        mc: McSettings {
            iterations,
            threads: 0,
            ..McSettings::default()
        },
        ..Scenario::default()
    }
}

fn cmd_solve(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let s = scenario(flags, "solve", Scenario::default())?;
    let cell = Cell::point(&s);
    let Estimate::Exact {
        unavailability: u,
        mttdl_hours: mttdl,
    } = estimate(&s, &cell, None)?
    else {
        unreachable!("solve runs an exact model");
    };
    let mut out = String::new();
    writeln!(
        out,
        "{} λ={:.3e} hep={} policy={}",
        cell.raid.label(),
        cell.lambda,
        cell.hep,
        cell.policy
    )?;
    writeln!(out, "  unavailability : {u:.6e}")?;
    writeln!(
        out,
        "  availability   : {:.4} nines",
        nines::nines_from_unavailability(u)
    )?;
    writeln!(
        out,
        "  downtime       : {:.4} min/yr",
        nines::downtime_minutes_per_year(u)
    )?;
    writeln!(
        out,
        "  MTTDL          : {:.0} h ({:.1} yr)",
        mttdl,
        mttdl / 8766.0
    )?;
    Stdout::default().print(&out)?;
    Ok(())
}

fn cmd_sweep(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let hep = Hep::new(flag(flags, "hep", 0.01)?)?;
    let from: f64 = flag(flags, "from", 5e-7)?;
    let to: f64 = flag(flags, "to", 5.5e-6)?;
    let points: usize = flag(flags, "points", 11)?;
    if !(from > 0.0 && to > from && points >= 2) {
        return Err("need 0 < from < to and points >= 2".into());
    }
    let mut out = String::new();
    writeln!(
        out,
        "{:>12} {:>12} {:>10} {:>10}",
        "lambda", "U(hep)", "nines", "vs hep=0"
    )?;
    let step = (to - from) / (points - 1) as f64;
    for i in 0..points {
        let lam = from + i as f64 * step;
        let row = underestimation(ModelParams::raid5_3plus1(lam, hep)?)?;
        writeln!(
            out,
            "{:>12.4e} {:>12.4e} {:>10.3} {:>9.1}x",
            lam,
            row.with_hep,
            nines::nines_from_unavailability(row.with_hep),
            row.factor()
        )?;
    }
    Stdout::default().print(&out)?;
    Ok(())
}

fn cmd_compare(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let lambda: f64 = flag(flags, "lambda", 1e-5)?;
    let capacity: u64 = flag(flags, "capacity", 21)?;
    let mut out = String::new();
    writeln!(
        out,
        "{:<12} {:>7} {:>6} {:>9} {:>11} {:>10}",
        "config", "arrays", "disks", "hep=0", "hep=0.001", "hep=0.01"
    )?;
    let base = compare_equal_capacity(capacity, lambda, Hep::ZERO)?;
    for (i, row) in base.iter().enumerate() {
        let mut cells = vec![row.nines()];
        for h in [0.001, 0.01] {
            cells.push(compare_equal_capacity(capacity, lambda, Hep::new(h)?)?[i].nines());
        }
        writeln!(
            out,
            "{:<12} {:>7} {:>6} {:>9.3} {:>11.3} {:>10.3}",
            row.label, row.arrays, row.total_disks, cells[0], cells[1], cells[2]
        )?;
    }
    Stdout::default().print(&out)?;
    Ok(())
}

fn cmd_validate(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let base = Scenario {
        lambda: vec![1e-3],
        ..mc_base(4_000)
    };
    let s = scenario(flags, "validate", base)?;
    let cell = Cell::point(&s);
    // The Fig. 2 exact chain splits the rebuild completion by the same
    // LSE probability the MC engines draw, so the cross-check below
    // covers the data-loss tier too.
    let exact = Scenario {
        model: ModelKind::MarkovConventional,
        ..s.clone()
    };
    let Estimate::Exact { unavailability, .. } = estimate(&exact, &cell, None)? else {
        unreachable!("markov-conventional is an exact model");
    };
    let markov_availability = 1.0 - unavailability;
    let mut phases = PhaseSpans::new();
    let started = Instant::now();
    let Estimate::Array(est) = estimate(&s, &cell, None)? else {
        unreachable!("validate runs the single-array engine");
    };
    phases.record("run", started.elapsed().as_micros() as u64);
    let mut out = String::new();
    writeln!(out, "markov availability : {markov_availability:.9}")?;
    writeln!(out, "mc availability     : {}", est.availability)?;
    match s.mc.variance {
        McVariance::Naive => {}
        // Splitting carries no likelihood weights to summarise.
        McVariance::Splitting { .. } => writeln!(out, "rare-event mode     : {}", s.mc.variance)?,
        McVariance::FailureBiasing { .. } => writeln!(
            out,
            "rare-event mode     : {} (ESS {:.0} of {}, max weight {:.3e})",
            s.mc.variance, est.effective_sample_size, est.iterations, est.max_weight
        )?,
    }
    writeln!(
        out,
        "verdict             : {}",
        if est.is_consistent_with(markov_availability) {
            "consistent (Markov inside the 99% CI)"
        } else {
            "INCONSISTENT — investigate"
        }
    )?;
    if s.lse.is_some() {
        writeln!(out, "p(data loss)        : {}", est.p_data_loss)?;
        writeln!(
            out,
            "nomdl               : {:.4e} events/TB-mission",
            est.nomdl_per_tb
        )?;
        match est.mean_time_to_first_loss_hours {
            Some(t) => writeln!(out, "mean 1st loss       : {t:.0} h")?,
            None => writeln!(out, "mean 1st loss       : none observed")?,
        }
    }
    Stdout::default().print(&out)?;
    write_metrics(
        &s.telemetry,
        &MetricsReport {
            command: "validate",
            counters: &est.counters,
            threads: s.mc.threads as u64,
            phases: &phases,
            cell_micros: None,
            utilization: None,
        },
    )?;
    Ok(())
}

fn cmd_fleet(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let base = Scenario {
        fleet: Some(FleetSettings {
            arrays: 100,
            ..FleetSettings::default()
        }),
        ..mc_base(500)
    };
    let s = scenario(flags, "fleet", base)?;
    let cell = Cell::point(&s);
    let mut phases = PhaseSpans::new();
    let started = Instant::now();
    let Estimate::Fleet(est, spec) = estimate(&s, &cell, None)? else {
        unreachable!("fleet runs the fleet engine");
    };
    phases.record("run", started.elapsed().as_micros() as u64);
    let coupling = s.fleet.unwrap_or_default().coupling();
    let dc = spec.datacenter(cell.lambda, cell.hep)?;
    let mut out = String::new();

    writeln!(
        out,
        "fleet {} x {} ({} disks) λ={:.3e} hep={} — {} missions of {} h",
        spec.arrays(),
        cell.raid.label(),
        spec.total_disks(),
        cell.lambda,
        cell.hep,
        s.mc.iterations,
        s.mc.horizon_hours
    )?;
    writeln!(
        out,
        "  disk failures          : {:.3}/day (fleet MTBF {:.1} h)",
        dc.expected_failures_per_day(),
        dc.mean_time_between_failures_hours()
    )?;
    writeln!(
        out,
        "  human errors           : {:.3}/year (given hep per service action)",
        dc.expected_human_errors_per_year()
    )?;
    writeln!(
        out,
        "  repair crews           : {}",
        match spec.repairmen() {
            Some(c) => c.to_string(),
            None => "unlimited".to_string(),
        }
    )?;
    if coupling.dependence != DependenceLevel::Zero {
        writeln!(
            out,
            "  operator dependence    : {} (THERP)",
            coupling.dependence
        )?;
    }
    if let Some(d) = coupling.domains {
        writeln!(
            out,
            "  failure domains        : shelves of {} struck at {:.3e}/h",
            d.domain_arrays, d.rate
        )?;
    }
    if let Some(l) = s.lse {
        writeln!(
            out,
            "  lse scrubbing          : rate {:.3e}/disk-h, scrub every {} h",
            l.lse_rate, l.scrub_interval_hours
        )?;
    }
    if let Some(f) = spec.failover() {
        match f.capacity {
            None => writeln!(
                out,
                "  DR failover            : unlimited slots (ideal site)"
            )?,
            Some(k) => writeln!(
                out,
                "  DR failover            : {k} slots ({} policy), fail-back {:.3e}/h",
                f.policy, f.failback_rate
            )?,
        }
    }
    writeln!(out, "  per-array availability : {}", est.availability)?;
    writeln!(
        out,
        "  per-array downtime     : {:.4} h/yr ({:.4} nines)",
        est.annual_array_downtime_hours,
        nines::nines_from_unavailability(est.array_unavailability())
    )?;
    writeln!(
        out,
        "  any-array-down         : {:.4} h/yr (fleet availability {:.9})",
        est.annual_any_down_hours, est.fleet_availability
    )?;
    if spec.failover().is_some() {
        writeln!(
            out,
            "  DR-credited avail      : {}",
            est.credited_availability
        )?;
        writeln!(
            out,
            "  DR-credited fleet      : {:.9} (uncovered unavailability {:.4e})",
            est.credited_fleet_availability,
            est.credited_array_unavailability()
        )?;
        writeln!(
            out,
            "  DR site                : mean occupancy {:.4}, queue wait {:.4} array-h/mission",
            est.mean_dr_occupancy(),
            est.mean_dr_queue_wait_hours()
        )?;
        writeln!(
            out,
            "  DR events              : {} failovers, {} failbacks, {} queue waits, {} rejections",
            est.failovers, est.failbacks, est.dr_queue_waits, est.dr_rejections
        )?;
    }
    if s.lse.is_some() {
        writeln!(out, "  p(data loss)           : {}", est.p_data_loss)?;
        writeln!(
            out,
            "  nomdl                  : {:.4e} events/TB-mission",
            est.nomdl_per_tb
        )?;
        match est.mean_time_to_first_loss_hours {
            Some(t) => writeln!(out, "  mean time to 1st loss  : {t:.0} h")?,
            None => writeln!(out, "  mean time to 1st loss  : none observed")?,
        }
    }
    writeln!(
        out,
        "  simultaneous degraded  : mean {:.4}, peak {}",
        est.mean_degraded(),
        est.max_degraded
    )?;
    // The head of the degraded distribution: every bin until the shares
    // become negligible (always at least the 0/1 bins).
    write!(out, "  degraded time share    :")?;
    let mut printed = 0;
    for (k, &share) in est.degraded_time_share.iter().enumerate() {
        if k > 1 && share < 1e-6 {
            break;
        }
        let label = if k == DEGRADED_BINS - 1 {
            format!("{k}+")
        } else {
            k.to_string()
        };
        write!(out, " {label}:{:.4}%", share * 100.0)?;
        printed = k + 1;
    }
    // The last bin absorbs every k >= 32; surface it even when the
    // interior bins are empty (e.g. shelf-wide domain outages).
    let tail = est.degraded_time_share[DEGRADED_BINS - 1];
    if printed < DEGRADED_BINS && tail >= 1e-6 {
        write!(out, " .. {}+:{:.4}%", DEGRADED_BINS - 1, tail * 100.0)?;
    }
    writeln!(out)?;
    Stdout::default().print(&out)?;
    write_metrics(
        &s.telemetry,
        &MetricsReport {
            command: "fleet",
            counters: &est.counters,
            threads: s.mc.threads as u64,
            phases: &phases,
            cell_micros: None,
            utilization: None,
        },
    )?;
    Ok(())
}

/// Everything a `--metrics` snapshot reports. The counter snapshot is the
/// deterministic section (byte-identical at any worker count); the rest
/// is wall-clock and goes into a clearly-marked nondeterministic section.
struct MetricsReport<'a> {
    command: &'static str,
    counters: &'a CounterSnapshot,
    /// Requested worker threads (0 = auto). Nondeterministic section: the
    /// whole point of the block merge is that this does not change bytes.
    threads: u64,
    phases: &'a PhaseSpans,
    /// Per-cell wall times, ascending, microseconds (batch only).
    cell_micros: Option<&'a [u64]>,
    /// Worker utilization in [0, 1] (batch only).
    utilization: Option<f64>,
}

/// Renders a metrics snapshot in the requested exposition format.
fn render_metrics(r: &MetricsReport<'_>, format: MetricsFormat) -> String {
    match format {
        MetricsFormat::Json => {
            let mut w = JsonSnapshot::root();
            w.str_field("tool", "availsim");
            w.str_field("command", r.command);
            w.begin_object("deterministic");
            for (c, v) in r.counters.iter() {
                w.u64_field(c.name(), v);
            }
            w.end_object();
            w.begin_object("nondeterministic");
            w.str_field("note", "wall-clock measurements; vary run to run");
            w.u64_field("threads_requested", r.threads);
            if !r.phases.is_empty() {
                w.begin_object("phase_micros");
                for (phase, micros) in r.phases.iter() {
                    w.u64_field(phase, micros);
                }
                w.end_object();
            }
            if let Some(times) = r.cell_micros {
                w.begin_object("cell_micros");
                for (key, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("max", 100.0)] {
                    w.u64_field(key, percentile_u64(times, p));
                }
                w.end_object();
            }
            if let Some(u) = r.utilization {
                w.f64_field("worker_utilization", u);
            }
            w.end_object();
            w.finish()
        }
        MetricsFormat::Prometheus => {
            let mut w = PrometheusWriter::new();
            w.comment(&format!(
                "availsim {} metrics — deterministic section (byte-identical at any worker count)",
                r.command
            ));
            write_counters(&mut w, r.counters);
            w.comment("nondeterministic section: wall-clock measurements, vary run to run");
            w.metric_u64(
                "availsim_threads_requested",
                "Requested worker threads (0 = auto)",
                "gauge",
                r.threads,
            );
            for (phase, micros) in r.phases.iter() {
                w.metric_u64(
                    &format!("availsim_phase_{phase}_micros"),
                    "Phase wall time, microseconds",
                    "gauge",
                    micros,
                );
            }
            if let Some(times) = r.cell_micros {
                for (key, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("max", 100.0)] {
                    w.metric_u64(
                        &format!("availsim_cell_micros_{key}"),
                        "Per-cell wall time percentile, microseconds",
                        "gauge",
                        percentile_u64(times, p),
                    );
                }
            }
            if let Some(u) = r.utilization {
                w.gauge_f64(
                    "availsim_worker_utilization",
                    "Fraction of the worker pool busy inside cells",
                    u,
                );
            }
            w.finish()
        }
    }
}

/// Writes the metrics snapshot when `--metrics` (or the spec's
/// `[telemetry] metrics`) names a destination.
fn write_metrics(tele: &TelemetrySettings, r: &MetricsReport<'_>) -> Result<(), Box<dyn Error>> {
    let Some(path) = &tele.metrics else {
        return Ok(());
    };
    let text = render_metrics(r, tele.format);
    std::fs::write(path, text).map_err(|e| format!("cannot write metrics `{path}`: {e}"))?;
    eprintln!("wrote metrics {path}");
    Ok(())
}

/// The CLI's standard output. Every command prints through it, so a
/// closed pipe (`availsim ... | head`) ends stdout, not the command: later
/// output is dropped, and report files and metrics are still written. Each
/// print is flushed at once.
#[derive(Default)]
struct Stdout {
    closed: bool,
}

impl Stdout {
    fn print(&mut self, text: &(impl AsRef<[u8]> + ?Sized)) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        let mut out = io::stdout().lock();
        match out.write_all(text.as_ref()).and_then(|()| out.flush()) {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(())
            }
            written => written,
        }
    }
}

/// Joins a report thread, re-raising its panic on this thread.
fn join<T>(handle: thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Writes the campaign's CSV and JSON reports into their files in one
/// pass. A report whose file cannot be created is left out, and the other
/// is still written. Returns each file's outcome, the CSV's first.
fn write_report_files(
    result: &run::CampaignResult,
    csv: &Path,
    json: &Path,
) -> (io::Result<()>, io::Result<()>) {
    match (File::create(csv), File::create(json)) {
        (Ok(mut csv), Ok(mut json)) => report::write_reports(result, &mut csv, &mut json),
        (Ok(mut csv), Err(e)) => (report::write_csv(result, &mut csv), Err(e)),
        (Err(e), Ok(mut json)) => (Err(e), report::write_json(result, &mut json)),
        (Err(csv), Err(json)) => (Err(csv), Err(json)),
    }
}

fn cmd_batch(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let spec_path = parsed
        .positionals
        .first()
        .ok_or("batch needs a spec file: availsim batch <spec-file>")?;
    if let Some(extra) = parsed.positionals.get(1) {
        return Err(format!("unexpected extra argument `{extra}`").into());
    }
    let flags = &parsed.flags;
    let mut known = vec!["workers", "out-dir", "dry-run", "keep-going"];
    known.extend(flag_names("batch"));
    check_known(flags, &known)?;
    let workers: usize = flag(flags, "workers", 0)?;
    let keep_going: bool = flag(flags, "keep-going", false)?;
    let dry_run: bool = flag(flags, "dry-run", false)?;
    let out_dir: String = flag(flags, "out-dir", String::new())?;
    let cli_tele = scenario(flags, "batch", Scenario::default())?.telemetry;

    let mut phases = PhaseSpans::new();
    let plan_started = Instant::now();
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read `{spec_path}`: {e}"))?;
    let mut scenario = Scenario::parse(&text)?;
    // CLI telemetry flags override the spec's `[telemetry]` section.
    if cli_tele.metrics.is_some() {
        scenario.telemetry.metrics = cli_tele.metrics;
        scenario.telemetry.format = cli_tele.format;
    }
    scenario.telemetry.progress |= cli_tele.progress;
    let plan = plan::expand(&scenario)?;
    phases.record("plan", plan_started.elapsed().as_micros() as u64);

    let mut stdout = Stdout::default();
    if dry_run {
        stdout.print(&plan.describe())?;
        return Ok(());
    }

    // Progress streams to stderr: stdout stays byte-deterministic for the
    // CSV/JSON report blocks.
    let sink = |line: &str| eprintln!("{line}");
    let progress: Option<&run::ProgressSink<'_>> = if scenario.telemetry.progress {
        Some(&sink)
    } else {
        None
    };
    let run_started = Instant::now();
    let result = run::run_with_progress(
        &plan,
        &run::RunConfig {
            workers,
            keep_going,
        },
        progress,
    )?;
    phases.record("run", run_started.elapsed().as_micros() as u64);
    // Free the plan before the reports allocate: they read only `result`.
    drop(plan);

    // The CSV and JSON render in one pass on a scoped thread, which with
    // --out-dir streams each into its own file, while the summary renders
    // on this one, which prints it first so stdout keeps its order.
    let report_started = Instant::now();
    if out_dir.is_empty() {
        let (mut csv, mut json) = (Vec::new(), Vec::new());
        let (csv_written, json_written) = thread::scope(|scope| {
            let reports = scope.spawn(|| report::write_reports(&result, &mut csv, &mut json));
            stdout.print(&report::summary(&result))?;
            Ok::<_, io::Error>(join(reports))
        })?;
        csv_written?;
        json_written?;
        for text in [&b"\n--- csv ---\n"[..], &csv, b"--- json ---\n", &json] {
            stdout.print(text)?;
        }
    } else {
        let dir = Path::new(&out_dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{out_dir}`: {e}"))?;
        let csv_path = dir.join(format!("{}.csv", scenario.name));
        let json_path = dir.join(format!("{}.json", scenario.name));
        let (printed, (csv, json)) = thread::scope(|scope| {
            let reports = scope.spawn(|| write_report_files(&result, &csv_path, &json_path));
            let printed = stdout.print(&report::summary(&result));
            (printed, join(reports))
        });
        let cannot_write = |path: &Path, e| format!("cannot write `{}`: {e}", path.display());
        csv.map_err(|e| cannot_write(&csv_path, e))?;
        json.map_err(|e| cannot_write(&json_path, e))?;
        printed?;
        stdout.print(&format!(
            "\nwrote {}\nwrote {}\n",
            csv_path.display(),
            json_path.display()
        ))?;
    }
    phases.record("report", report_started.elapsed().as_micros() as u64);

    let mut cell_micros: Vec<u64> = result.cells.iter().map(|c| c.elapsed_micros).collect();
    cell_micros.sort_unstable();
    write_metrics(
        &scenario.telemetry,
        &MetricsReport {
            command: "batch",
            counters: &result.counters,
            threads: workers as u64,
            phases: &phases,
            cell_micros: Some(&cell_micros),
            utilization: Some(result.worker_utilization()),
        },
    )?;
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let config = availsim::serve::ServeConfig {
        port: flag(flags, "port", 0u16)?,
        workers: flag(flags, "workers", 0usize)?,
        queue_capacity: flag(flags, "queue-capacity", 64usize)?,
        default_deadline_ms: flag(flags, "default-deadline-ms", 0u64)?,
        drain_ms: flag(flags, "drain-ms", 2_000u64)?,
        cache_capacity: flag(flags, "cache-capacity", 1_024usize)?,
    };
    if config.queue_capacity == 0 {
        return Err("--queue-capacity must be at least 1".into());
    }
    // Install the handlers before binding so a SIGTERM racing startup
    // still drains instead of killing the process mid-accept.
    availsim::serve::signal::install_handlers();
    let server = availsim::serve::Server::bind(config)?;
    // Printed (and flushed) at once: scripts wait for this line.
    Stdout::default().print(&format!("listening on http://{}\n", server.addr()))?;
    let drained_clean = server.run(availsim::serve::signal::stop_flag())?;
    eprintln!(
        "drained {}",
        if drained_clean {
            "clean"
        } else {
            "with cooperative cancellation"
        }
    );
    Ok(())
}

fn usage() -> &'static str {
    "availsim — human-error-aware storage availability (DATE'17 reproduction)

USAGE:
  availsim solve    [--lambda F] [--hep F] [--raid r1|r5-K|r6-K] [--policy conventional|failover]
  availsim sweep    [--hep F] [--from F] [--to F] [--points N]
  availsim compare  [--lambda F] [--capacity N]
  availsim validate [--lambda F] [--hep F] [--iterations N] [--seed N] [--threads N]
                    [--variance naive|failure-biasing|splitting]
                    [--bias F] [--levels N] [--effort N]
                    [--lse-rate F --scrub-interval H]
                    [--metrics PATH] [--metrics-format json|prom]
  availsim fleet    [--arrays N] [--raid r1|r5-K|r6-K] [--lambda F] [--hep F]
                    [--iterations N] [--horizon F] [--seed N] [--threads N]
                    [--repairmen N] [--dependence zero|low|moderate|high|complete]
                    [--domain-arrays N --domain-rate F]
                    [--failover-capacity N|inf] [--failover-policy queue|loss]
                    [--failback-rate F]
                    [--lse-rate F --scrub-interval H]
                    [--metrics PATH] [--metrics-format json|prom]
  availsim batch    <spec-file> [--workers N] [--out-dir DIR] [--dry-run] [--keep-going]
                    [--metrics PATH] [--metrics-format json|prom] [--progress]
  availsim serve    [--port N] [--workers N] [--queue-capacity N]
                    [--default-deadline-ms N] [--drain-ms N] [--cache-capacity N]
  availsim --version | -V

Flags accept both `--flag value` and `--flag=value`; duplicates are errors.
`--threads 0` and `--workers 0` (the defaults) mean **auto**: use the
machine's available parallelism. Any other value pins the pool size; the
estimates are byte-identical either way (the block merge is
thread-count-invariant), so `0` is always safe. The campaign spec spells
it `[mc] threads = 0` with the same meaning.
`batch` runs an experiment campaign from a spec file (see examples/specs/).
`--metrics PATH` enables the deterministic telemetry layer and writes an
engine-counter snapshot (`--metrics-format prom` for Prometheus text
exposition); the counters are byte-identical at any worker count, with
wall-clock figures segregated into a nondeterministic section. `batch
--progress` streams `cell k/N done` lines to stderr as cells finish; both
can also come from the spec's [telemetry] section.
`validate --variance failure-biasing` turns on rare-event importance
sampling, so the cross-check works at paper-grade λ where naive MC would
observe no failures at all.
`fleet` simulates N arrays as one mission on a shared event queue and
reports fleet-level availability, annual downtime, and the distribution of
simultaneously degraded arrays (tail bin 32+ absorbs every count >= 32).
Couplings: `--repairmen` caps the shared repair-crew pool (FIFO queue),
`--dependence` escalates the per-incident HEP with operator workload
(THERP), and `--domain-arrays`/`--domain-rate` add shelf-wide strikes.
`--failover-capacity` adds a shared disaster-recovery site with that many
slots (`inf` = ideal site): arrays that leave service fail over and serve
degraded from DR; beyond capacity they queue FIFO (`--failover-policy
loss` rejects instead, Erlang-loss style). `--failback-rate` tunes the
switch-back rate (default: the disk-change rate). `batch --keep-going`
continues past failing cells and marks them in status/error report
columns instead of aborting the campaign.
`serve` runs an overload-safe HTTP availability service on 127.0.0.1
(`--port 0` picks an ephemeral port): POST /v1/query answers one
estimate per request, exact CTMC queries inline, Monte-Carlo queries
through a bounded queue with admission control (full queue answers 503 +
Retry-After), per-request deadlines (expired answers a fixed 408), a
canonical-key result cache (replays are byte-identical), GET /health and
GET /metrics, and graceful drain on SIGTERM within `--drain-ms`.
`--lse-rate F --scrub-interval H` (a pair) attach the latent-sector-error
scrubbing model: every rebuild completion risks reading an unreadable
sector, routing the mission to data loss. `validate` and `fleet` then
report p(data loss), NOMDL (loss events per usable-capacity unit and
mission), and the mean time to first loss; a campaign spec's [lse]
section does the same for `batch` and adds the p_data_loss/nomdl_per_tb
report columns.
"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let parsed = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "solve" => flags_only(&parsed, &flag_names("solve"))
            .map_err(Into::into)
            .and_then(cmd_solve),
        "sweep" => flags_only(&parsed, &["hep", "from", "to", "points"])
            .map_err(Into::into)
            .and_then(cmd_sweep),
        "compare" => flags_only(&parsed, &["lambda", "capacity"])
            .map_err(Into::into)
            .and_then(cmd_compare),
        "validate" => flags_only(&parsed, &flag_names("validate"))
            .map_err(Into::into)
            .and_then(cmd_validate),
        "fleet" => flags_only(&parsed, &flag_names("fleet"))
            .map_err(Into::into)
            .and_then(cmd_fleet),
        "batch" => cmd_batch(&parsed),
        "serve" => flags_only(
            &parsed,
            &[
                "port",
                "workers",
                "queue-capacity",
                "default-deadline-ms",
                "drain-ms",
                "cache-capacity",
            ],
        )
        .map_err(Into::into)
        .and_then(cmd_serve),
        "help" | "--help" | "-h" => Stdout::default().print(usage()).map_err(Into::into),
        "version" | "--version" | "-V" => Stdout::default()
            .print(&format!("availsim {}\n", env!("CARGO_PKG_VERSION")))
            .map_err(Into::into),
        other => Err(format!("unknown command `{other}`").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

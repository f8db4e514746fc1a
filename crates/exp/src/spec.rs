//! Campaign specifications, the spec-file parser, and the scenario builder
//! behind every front door.
//!
//! A campaign spec is a small, line-oriented text format (no external
//! parser dependencies — the build environment is offline):
//!
//! ```text
//! # Comments start with '#'; blank lines are ignored.
//! [campaign]
//! name = fig6-raid-comparison
//! seed = 42
//! model = markov-conventional        # markov-conventional | markov-failover
//!                                    # | generic-k-of-n | mc
//! capacity = 21                      # optional: equal-usable-capacity volume metrics
//!
//! [axes]                             # every `key = [..]` is a grid axis
//! raid = [r1, r5-3, r5-7]
//! hep = [0, 0.001, 0.01]
//! lambda = [1e-5]                    # scalars are one-point axes: lambda = 1e-5
//!
//! [mc]                               # read only when model = mc
//! iterations = 2000
//! horizon_hours = 87600
//! confidence = 0.99
//! variance = failure-biasing         # naive | failure-biasing | splitting
//! bias = 0.5                         # optional, failure-biasing only
//! # levels = 2 / effort = 64         # optional, splitting only
//! threads = 1                        # per-cell MC threads; 0 = auto
//!                                    # (machine parallelism); speed only,
//!                                    # results are bit-identical
//!
//! [fleet]                            # optional; requires model = mc
//! arrays = 100                       # arrays per cell: each mission
//!                                    # simulates the whole fleet
//! repairmen = 4                      # optional: finite repair-crew pool
//! dependence = high                  # optional THERP level: zero | low |
//!                                    # moderate | high | complete
//! domain_arrays = 10                 # optional (set both): shelf size and
//! domain_rate = 1e-5                 # strike rate of domain failures
//! failover_capacity = 4              # optional: shared DR site slots
//!                                    # (`inf` = ideal unbounded site)
//! failover_policy = queue            # full-site admission: queue | loss
//! failback_rate = 0.01               # optional switch-back rate per hour
//!                                    # (defaults to the disk-change rate)
//!
//! [lse]                              # optional; data-loss tier
//! lse_rate = 1e-4                    # latent-sector-error rate per
//!                                    # disk-hour (0 = bit-identical noop)
//! scrub_interval = 336               # scrub period in hours
//!
//! [telemetry]                        # optional; engine observability
//! metrics = metrics.json             # enables counters, names the snapshot
//! format = json                      # json | prom (requires `metrics`)
//! progress = true                    # stream per-cell progress to stderr
//! ```
//!
//! Recognised axes are `lambda` (disk failure rate per hour), `hep`
//! (human error probability), `raid` (geometry labels `r1`, `r5-K`,
//! `r6-K`; `model = mc` takes single-fault-tolerant ones only), and
//! `policy` (`conventional` | `failover`, overriding the model's default
//! replacement discipline per cell).
//!
//! The spec, the CLI flags and the serve JSON all feed `(section.key,
//! value, origin)` pairs to one [`ScenarioBuilder`], which owns every
//! rule; its errors read `<origin>: <message>`, the origin being a spec
//! line, a flag, or a JSON path.

use crate::error::{ExpError, Result};
use availsim_core::mc::{DomainFailures, FleetCoupling, McVariance};
use availsim_hra::{DependenceLevel, Hep};
use availsim_storage::{FailoverPolicy, FleetFailover, FleetSpec, RaidGeometry, ScrubbingModel};
use std::fmt;

/// Which solver backend evaluates each cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelKind {
    /// The paper's Fig. 2 CTMC (conventional replacement); falls back to
    /// the generic k-of-n chain for multi-fault-tolerant geometries.
    #[default]
    MarkovConventional,
    /// The paper's Fig. 3 CTMC (automatic fail-over).
    MarkovFailover,
    /// The generic `(failed, wrongly-removed)` chain for any geometry.
    GenericKofN,
    /// The Monte-Carlo reference models.
    Mc,
}

impl ModelKind {
    /// The spec-file spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelKind::MarkovConventional => "markov-conventional",
            ModelKind::MarkovFailover => "markov-failover",
            ModelKind::GenericKofN => "generic-k-of-n",
            ModelKind::Mc => "mc",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "markov-conventional" => Some(ModelKind::MarkovConventional),
            "markov-failover" => Some(ModelKind::MarkovFailover),
            "generic-k-of-n" => Some(ModelKind::GenericKofN),
            "mc" => Some(ModelKind::Mc),
            _ => None,
        }
    }

    /// The replacement discipline this model implies when the spec has no
    /// explicit `policy` axis.
    pub fn default_policy(self) -> Policy {
        match self {
            ModelKind::MarkovFailover => Policy::Failover,
            _ => Policy::Conventional,
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Disk-replacement discipline of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Replace immediately upon failure (Fig. 2 semantics).
    #[default]
    Conventional,
    /// Rebuild into a hot spare first (Fig. 3 semantics).
    Failover,
}

impl Policy {
    /// The spec-file spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Policy::Conventional => "conventional",
            Policy::Failover => "failover",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "conventional" => Some(Policy::Conventional),
            "failover" => Some(Policy::Failover),
            _ => None,
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Output metrics a campaign can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Steady-state (or estimated) unavailability.
    Unavailability,
    /// Availability in nines.
    Nines,
    /// Downtime in minutes per year.
    Downtime,
    /// Mean time to data loss, hours (Markov models only).
    Mttdl,
    /// Half-width of the availability confidence interval (MC only).
    CiHalfWidth,
    /// Equal-capacity volume metrics (requires `capacity`).
    Volume,
}

impl Metric {
    /// The spec-file spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Metric::Unavailability => "unavailability",
            Metric::Nines => "nines",
            Metric::Downtime => "downtime",
            Metric::Mttdl => "mttdl",
            Metric::CiHalfWidth => "ci-half-width",
            Metric::Volume => "volume",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "unavailability" => Some(Metric::Unavailability),
            "nines" => Some(Metric::Nines),
            "downtime" => Some(Metric::Downtime),
            "mttdl" => Some(Metric::Mttdl),
            "ci-half-width" => Some(Metric::CiHalfWidth),
            "volume" => Some(Metric::Volume),
            _ => None,
        }
    }
}

/// Monte-Carlo settings, read from the `[mc]` section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McSettings {
    /// Missions per cell.
    pub iterations: u64,
    /// Mission time per iteration, hours.
    pub horizon_hours: f64,
    /// Confidence level of the availability interval.
    pub confidence: f64,
    /// Variance-reduction scheme (`variance = naive | failure-biasing |
    /// splitting`, tuned by the optional `bias` / `levels` / `effort`
    /// keys). Rides into [`availsim_core::mc::McConfig::variance`]
    /// unchanged.
    pub variance: McVariance,
    /// Threads per Monte-Carlo cell (`threads = N`; `0` means **auto**,
    /// the machine's available parallelism). Defaults to 1: campaign
    /// parallelism is across cells. A pure speed knob — the estimators
    /// are bit-identical at any thread count.
    pub threads: usize,
}

impl Default for McSettings {
    fn default() -> Self {
        McSettings {
            iterations: 2_000,
            horizon_hours: 87_600.0,
            confidence: 0.99,
            variance: McVariance::Naive,
            threads: 1,
        }
    }
}

/// The `[fleet]` section: fleet size plus the shared-resource couplings
/// of the fleet engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSettings {
    /// Arrays per cell (`arrays = N`); each mission simulates them all.
    pub arrays: u64,
    /// Finite repair-crew pool (`repairmen = c`); `None` is unlimited.
    pub repairmen: Option<u64>,
    /// THERP operator-dependence level (`dependence = high`).
    pub dependence: DependenceLevel,
    /// Arrays per failure domain (`domain_arrays`, set with `domain_rate`).
    pub domain_arrays: Option<u64>,
    /// Domain strike rate per hour (`domain_rate`).
    pub domain_rate: Option<f64>,
    /// Shared DR site slots (`failover_capacity = k | inf`): `None` is no
    /// DR site, `Some(None)` the ideal unbounded site.
    pub failover_capacity: Option<Option<u64>>,
    /// Full-site admission policy (`failover_policy = queue | loss`).
    pub failover_policy: FailoverPolicy,
    /// Switch-back rate per hour (`failback_rate`); `None` defaults to
    /// the model's disk-change rate at run time (switching service back
    /// is an operator-driven maintenance action like a disk swap).
    pub failback_rate: Option<f64>,
}

impl Default for FleetSettings {
    fn default() -> Self {
        FleetSettings {
            arrays: 0, // "not given yet": validation requires `arrays`
            repairmen: None,
            dependence: DependenceLevel::Zero,
            domain_arrays: None,
            domain_rate: None,
            failover_capacity: None,
            failover_policy: FailoverPolicy::Queue,
            failback_rate: None,
        }
    }
}

impl FleetSettings {
    /// The correlated-failure configuration these settings describe.
    pub fn coupling(&self) -> FleetCoupling {
        let domains = match (self.domain_arrays, self.domain_rate) {
            (Some(arrays), Some(rate)) => Some(DomainFailures {
                domain_arrays: u32::try_from(arrays).unwrap_or(u32::MAX),
                rate,
            }),
            _ => None,
        };
        FleetCoupling {
            dependence: self.dependence,
            domains,
        }
    }

    /// The DR fail-over configuration, if a `failover_capacity` was given;
    /// `default_failback_rate` fills an omitted `failback_rate`.
    pub fn failover(&self, default_failback_rate: f64) -> Option<FleetFailover> {
        self.failover_capacity.map(|capacity| FleetFailover {
            capacity: capacity.map(|v| u32::try_from(v).unwrap_or(u32::MAX)),
            policy: self.failover_policy,
            failback_rate: self.failback_rate.unwrap_or(default_failback_rate),
        })
    }
}

/// The `[lse]` section: latent-sector-error exposure for the data-loss
/// tier. Rides into [`availsim_core::ModelParams::with_scrubbing`] on every
/// cell, turning on LSE-aware rebuilds (and the `p_data_loss` / `nomdl`
/// report columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LseSettings {
    /// LSE arrival rate per disk, per hour (`lse_rate = 1e-4`). A rate of
    /// exactly `0` is a bit-identical no-op — the engines draw nothing.
    pub lse_rate: f64,
    /// Scrub period in hours (`scrub_interval = 336`).
    pub scrub_interval_hours: f64,
}

impl LseSettings {
    /// The exposure model these settings describe. Infallible: the
    /// [`ScenarioBuilder`] and [`Scenario::validate`] enforce
    /// [`ScrubbingModel::new`]'s invariants before a campaign runs.
    pub fn model(&self) -> ScrubbingModel {
        ScrubbingModel {
            lse_rate: self.lse_rate,
            scrub_interval_hours: self.scrub_interval_hours,
        }
    }

    /// Whether the section actually changes the engines (`lse_rate > 0`).
    pub fn is_live(&self) -> bool {
        self.lse_rate > 0.0
    }
}

/// Metrics exposition format, from `[telemetry] format =` or the CLI's
/// `--metrics-format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// A structured JSON snapshot (the default).
    #[default]
    Json,
    /// Prometheus text exposition format.
    Prometheus,
}

impl MetricsFormat {
    /// The spec-file spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricsFormat::Json => "json",
            MetricsFormat::Prometheus => "prom",
        }
    }

    /// Parses the spec/CLI spelling, returning `None` for unknown names.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "json" => Some(MetricsFormat::Json),
            "prom" | "prometheus" => Some(MetricsFormat::Prometheus),
            _ => None,
        }
    }
}

impl fmt::Display for MetricsFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The `[telemetry]` section: deterministic engine counters, exposition
/// format, and live campaign progress. Counter collection is keyed off
/// `metrics` being set — without a destination the registry stays disabled
/// and the engines skip all bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySettings {
    /// Metrics snapshot destination (`metrics = path`); `None` disables
    /// counter collection entirely.
    pub metrics: Option<String>,
    /// Exposition format for the snapshot (`format = json | prom`).
    pub format: MetricsFormat,
    /// Stream `cell k/N done` lines to stderr as cells finish.
    pub progress: bool,
}

impl TelemetrySettings {
    /// Whether engine counters should be collected.
    pub fn enabled(&self) -> bool {
        self.metrics.is_some()
    }
}

/// A fully described experiment campaign: the model kind, the grid axes,
/// and the reporting options. Produced by [`Scenario::parse`]; consumed by
/// [`crate::plan::expand`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Campaign name (used for report file names).
    pub name: String,
    /// Campaign master seed; per-cell seeds are substreams of it.
    pub seed: u64,
    /// Solver backend.
    pub model: ModelKind,
    /// Optional equal-usable-capacity (disk units) for volume metrics.
    pub capacity: Option<u64>,
    /// Metrics to report; empty means "all applicable".
    pub metrics: Vec<Metric>,
    /// Disk failure rates λ (per hour).
    pub lambda: Vec<f64>,
    /// Human error probabilities.
    pub hep: Vec<f64>,
    /// RAID geometries.
    pub raid: Vec<RaidGeometry>,
    /// Replacement policies; empty means the model's default.
    pub policy: Vec<Policy>,
    /// Monte-Carlo settings (ignored unless `model = mc`).
    pub mc: McSettings,
    /// The fleet engine's `[fleet]` section; `None` runs the single-array
    /// models.
    pub fleet: Option<FleetSettings>,
    /// The `[lse]` section; `None` leaves rebuilds LSE-free.
    pub lse: Option<LseSettings>,
    /// The `[telemetry]` section (engine counters, metrics exposition,
    /// progress streaming); all off by default.
    pub telemetry: TelemetrySettings,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            name: "campaign".into(),
            seed: 0,
            model: ModelKind::MarkovConventional,
            capacity: None,
            metrics: Vec::new(),
            lambda: vec![1e-6],
            hep: vec![0.0],
            raid: vec![RaidGeometry::raid5(3).expect("3+1 is valid")],
            policy: Vec::new(),
            mc: McSettings::default(),
            fleet: None,
            lse: None,
            telemetry: TelemetrySettings::default(),
        }
    }
}

/// Parses a geometry label in the CLI's syntax (`r1`, `r5-K`, `r6-K`),
/// returning a bare message on failure — the CLI and the spec layer each
/// add their own framing.
///
/// # Errors
/// Returns the plain problem description for unknown labels or bad disk
/// counts.
pub fn parse_geometry_label(name: &str) -> std::result::Result<RaidGeometry, String> {
    if name == "r1" {
        return Ok(RaidGeometry::raid1_pair());
    }
    let (level, k) = name
        .split_once('-')
        .ok_or_else(|| format!("unknown raid `{name}` (use r1, r5-<k>, r6-<k>)"))?;
    let k: u32 = k
        .parse()
        .map_err(|_| format!("bad disk count in `{name}`"))?;
    match level {
        "r5" => RaidGeometry::raid5(k).map_err(|e| e.to_string()),
        "r6" => RaidGeometry::raid6(k).map_err(|e| e.to_string()),
        _ => Err(format!("unknown raid level `{level}`")),
    }
}

/// Where one scenario value came from. Every [`ScenarioBuilder`] error is
/// prefixed with it: `spec line 7: …`, `--bias: …`, `fleet.arrays: …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Origin {
    /// A campaign-spec line (1-based; 0 for file-level problems).
    Line(usize),
    /// A command-line flag, named without its leading dashes.
    Flag(&'static str),
    /// A path into a JSON query, such as `fleet.arrays`.
    Json(&'static str),
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Line(0) => f.write_str("spec"),
            Origin::Line(line) => write!(f, "spec line {line}"),
            Origin::Flag(flag) => write!(f, "--{flag}"),
            Origin::Json(path) => f.write_str(path),
        }
    }
}

fn parse_err(origin: Origin, message: impl Into<String>) -> ExpError {
    ExpError::Parse {
        origin,
        message: message.into(),
    }
}

/// The keys given to a builder, with their origins, in arrival order. A
/// rule's error blames the first given key of the ones it names (a name
/// ending in `.` matches a whole section); a hand-built scenario has none,
/// so its errors read `invalid campaign: …`.
struct Given<'a>(&'a [(String, Origin)]);

impl Given<'_> {
    fn origin(&self, key: &str) -> Option<&Origin> {
        self.0
            .iter()
            .find(|(k, _)| k == key || (key.ends_with('.') && k.starts_with(key)))
            .map(|(_, origin)| origin)
    }

    fn has(&self, key: &str) -> bool {
        self.origin(key).is_some()
    }

    fn err(&self, keys: &[&str], message: impl Into<String>) -> ExpError {
        match keys.iter().find_map(|k| self.origin(k)) {
            Some(origin) => parse_err(origin.clone(), message),
            None => ExpError::InvalidSpec(message.into()),
        }
    }
}

fn number(key: &str, s: &str) -> std::result::Result<f64, String> {
    s.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("`{key}` expects a finite number, got `{s}`"))
}

fn count(key: &str, s: &str) -> std::result::Result<u64, String> {
    s.parse::<u64>()
        .map_err(|_| format!("`{key}` expects an unsigned integer, got `{s}`"))
}

/// The scheme name `mc.variance` spells for a variance.
fn scheme(variance: McVariance) -> &'static str {
    match variance {
        McVariance::Naive => "naive",
        McVariance::FailureBiasing { .. } => "failure-biasing",
        McVariance::Splitting { .. } => "splitting",
    }
}

/// Builds the one validated [`Scenario`] from `(key, value, origin)` pairs.
///
/// Keys are the spec's `section.key` names (`axes.lambda`, `mc.bias`,
/// `fleet.failover_policy`, `lse.scrub_interval`); values are text in the
/// spec's spelling. Each front door only turns its syntax into pairs — the
/// spec tokenizer ([`Scenario::parse`]), the CLI flag table, the serve JSON
/// walker — and every parse, range and cross-key rule lives here, each with
/// one message, prefixed by the [`Origin`] of the value it blames.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
    given: Vec<(String, Origin)>,
    // Keys that combine only once every pair is in.
    bias: Option<f64>,
    levels: Option<u32>,
    effort: Option<u64>,
    lse_rate: Option<f64>,
    scrub_interval: Option<f64>,
}

impl ScenarioBuilder {
    /// A builder whose unset keys keep `base`'s values (each front door
    /// has its own defaults).
    pub fn new(base: Scenario) -> Self {
        ScenarioBuilder {
            scenario: base,
            given: Vec::with_capacity(16),
            bias: None,
            levels: None,
            effort: None,
            lse_rate: None,
            scrub_interval: None,
        }
    }

    /// Sets one scalar key.
    ///
    /// # Errors
    /// [`ExpError::Parse`] for an unknown key or a value that does not
    /// parse.
    pub fn set(&mut self, key: &str, value: &str, origin: Origin) -> Result<()> {
        self.apply(key, &[value], false, origin)
    }

    /// Sets one key from a list value (`[a, b]`); only the axes and
    /// `campaign.metrics` take lists.
    ///
    /// # Errors
    /// As [`Self::set`], plus a list given to a scalar key.
    pub fn set_list(&mut self, key: &str, items: &[&str], origin: Origin) -> Result<()> {
        self.apply(key, items, true, origin)
    }

    fn apply(&mut self, key: &str, items: &[&str], list: bool, origin: Origin) -> Result<()> {
        let fail = |message: String| parse_err(origin.clone(), message);
        let one = || match items {
            [value] if !list => Ok(*value),
            _ => Err(fail(format!("`{key}` expects a single value, not a list"))),
        };
        let s = &mut self.scenario;
        match key {
            "campaign.name" => {
                let name = one()?;
                if !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
                {
                    return Err(fail("campaign name may only contain [A-Za-z0-9._-]".into()));
                }
                s.name = name.to_string();
            }
            "campaign.seed" => s.seed = count(key, one()?).map_err(fail)?,
            "campaign.model" => {
                let v = one()?;
                s.model = ModelKind::parse(v).ok_or_else(|| {
                    fail(format!(
                        "unknown model `{v}` (use markov-conventional, markov-failover, \
                         generic-k-of-n, mc)"
                    ))
                })?;
            }
            "campaign.capacity" => s.capacity = Some(count(key, one()?).map_err(fail)?),
            "campaign.metrics" => {
                s.metrics = items
                    .iter()
                    .map(|m| Metric::parse(m).ok_or_else(|| fail(format!("unknown metric `{m}`"))))
                    .collect::<Result<_>>()?;
            }
            "axes.lambda" | "axes.hep" => {
                let axis = if key == "axes.lambda" {
                    &mut s.lambda
                } else {
                    &mut s.hep
                };
                axis.clear();
                for v in items {
                    axis.push(number(key, v).map_err(fail)?);
                }
            }
            "axes.raid" => {
                s.raid.clear();
                for g in items {
                    s.raid.push(parse_geometry_label(g).map_err(fail)?);
                }
            }
            "axes.policy" => {
                s.policy = items
                    .iter()
                    .map(|p| {
                        Policy::parse(p).ok_or_else(|| {
                            fail(format!("unknown policy `{p}` (use conventional, failover)"))
                        })
                    })
                    .collect::<Result<_>>()?;
            }
            "mc.iterations" => s.mc.iterations = count(key, one()?).map_err(fail)?,
            "mc.horizon_hours" => s.mc.horizon_hours = number(key, one()?).map_err(fail)?,
            "mc.confidence" => s.mc.confidence = number(key, one()?).map_err(fail)?,
            "mc.variance" => {
                s.mc.variance = match one()? {
                    "naive" => McVariance::Naive,
                    "failure-biasing" => McVariance::failure_biasing(),
                    "splitting" => McVariance::splitting(),
                    other => {
                        return Err(fail(format!(
                            "unknown variance `{other}` (use naive, failure-biasing, splitting)"
                        )))
                    }
                };
            }
            "mc.bias" => self.bias = Some(number(key, one()?).map_err(fail)?),
            "mc.levels" => {
                let levels = count(key, one()?).map_err(fail)?;
                self.levels = Some(
                    u32::try_from(levels)
                        .map_err(|_| fail(format!("mc levels {levels} is too large")))?,
                );
            }
            "mc.effort" => self.effort = Some(count(key, one()?).map_err(fail)?),
            "mc.threads" => {
                // 0 is the documented "auto" spelling (machine parallelism).
                let threads = count(key, one()?).map_err(fail)?;
                s.mc.threads = usize::try_from(threads)
                    .map_err(|_| fail(format!("mc threads {threads} is too large")))?;
            }
            "lse.lse_rate" => self.lse_rate = Some(number(key, one()?).map_err(fail)?),
            "lse.scrub_interval" => self.scrub_interval = Some(number(key, one()?).map_err(fail)?),
            "telemetry.metrics" => s.telemetry.metrics = Some(one()?.to_string()),
            "telemetry.format" => {
                let v = one()?;
                s.telemetry.format = MetricsFormat::parse(v)
                    .ok_or_else(|| fail(format!("unknown format `{v}` (use json, prom)")))?;
            }
            "telemetry.progress" => {
                s.telemetry.progress = match one()? {
                    "true" => true,
                    "false" => false,
                    other => {
                        return Err(fail(format!(
                            "`{key}` expects true or false, got `{other}`"
                        )))
                    }
                };
            }
            _ if key.starts_with("fleet.") => {
                let fleet = s.fleet.get_or_insert_with(FleetSettings::default);
                match key {
                    "fleet.arrays" => fleet.arrays = count(key, one()?).map_err(fail)?,
                    "fleet.repairmen" => {
                        fleet.repairmen = Some(count(key, one()?).map_err(fail)?);
                    }
                    "fleet.dependence" => {
                        let v = one()?;
                        fleet.dependence = DependenceLevel::parse(v).ok_or_else(|| {
                            fail(format!(
                                "unknown dependence `{v}` (use zero, low, moderate, high, complete)"
                            ))
                        })?;
                    }
                    "fleet.domain_arrays" => {
                        fleet.domain_arrays = Some(count(key, one()?).map_err(fail)?);
                    }
                    "fleet.domain_rate" => {
                        fleet.domain_rate = Some(number(key, one()?).map_err(fail)?);
                    }
                    "fleet.failover_capacity" => {
                        let v = one()?;
                        fleet.failover_capacity = Some(match v {
                            "inf" => None,
                            _ => Some(v.parse::<u64>().map_err(|_| {
                                fail(format!(
                                    "`{key}` expects an unsigned integer or `inf`, got `{v}`"
                                ))
                            })?),
                        });
                    }
                    "fleet.failover_policy" => {
                        let v = one()?;
                        fleet.failover_policy = FailoverPolicy::parse(v).ok_or_else(|| {
                            fail(format!("unknown failover policy `{v}` (use queue, loss)"))
                        })?;
                    }
                    "fleet.failback_rate" => {
                        fleet.failback_rate = Some(number(key, one()?).map_err(fail)?);
                    }
                    _ => return Err(unknown_key(key, origin)),
                }
            }
            _ => return Err(unknown_key(key, origin)),
        }
        self.given.push((key.to_string(), origin));
        Ok(())
    }

    /// Combines the pairs into a scenario and applies every rule.
    ///
    /// # Errors
    /// The first broken rule, prefixed with the origin of the value it
    /// blames.
    pub fn build(mut self) -> Result<Scenario> {
        let s = &mut self.scenario;
        match &mut s.mc.variance {
            McVariance::Naive => {}
            McVariance::FailureBiasing { bias } => *bias = self.bias.unwrap_or(*bias),
            McVariance::Splitting { levels, effort } => {
                *levels = self.levels.unwrap_or(*levels);
                *effort = self.effort.unwrap_or(*effort);
            }
        }
        if let (Some(lse_rate), Some(scrub_interval_hours)) = (self.lse_rate, self.scrub_interval) {
            s.lse = Some(LseSettings {
                lse_rate,
                scrub_interval_hours,
            });
        }
        let given = Given(&self.given);
        s.check(&given)?;

        // Rules about which keys were given together.
        let variance = scheme(s.mc.variance);
        for (key, needs) in [
            ("mc.bias", "failure-biasing"),
            ("mc.levels", "splitting"),
            ("mc.effort", "splitting"),
        ] {
            if given.has(key) && variance != needs {
                return Err(given.err(&[key], format!("`{key}` requires `mc.variance = {needs}`")));
            }
        }
        if self.lse_rate.is_some() != self.scrub_interval.is_some() {
            return Err(given.err(
                &["lse."],
                "`lse.lse_rate` and `lse.scrub_interval` must be set together",
            ));
        }
        if s.fleet.is_some_and(|f| f.failover_capacity.is_none()) {
            for key in ["fleet.failover_policy", "fleet.failback_rate"] {
                if given.has(key) {
                    return Err(given.err(
                        &[key],
                        format!("`{key}` requires `fleet.failover_capacity`"),
                    ));
                }
            }
        }
        if given.has("telemetry.format") && s.telemetry.metrics.is_none() {
            return Err(given.err(
                &["telemetry.format"],
                "`telemetry.format` requires a `telemetry.metrics` destination",
            ));
        }
        Ok(self.scenario)
    }
}

fn unknown_key(key: &str, origin: Origin) -> ExpError {
    let (section, key) = key.split_once('.').unwrap_or(("", key));
    parse_err(origin, format!("unknown key `{key}` in [{section}]"))
}

impl Scenario {
    /// Parses a spec file's contents: the tokenizer (sections, lists,
    /// comments, duplicate keys) feeds each `key = value` line to a
    /// [`ScenarioBuilder`] as a `section.key` pair.
    ///
    /// # Errors
    /// Returns [`ExpError::Parse`] with the offending 1-based line for
    /// syntax errors and broken rules (line 0 for file-level problems),
    /// and [`ExpError::InvalidSpec`] for rules that blame a key the file
    /// never set.
    pub fn parse(text: &str) -> Result<Self> {
        let mut builder = ScenarioBuilder::new(Scenario::default());
        let mut section: Option<String> = None;
        let mut seen: Vec<String> = Vec::new();
        let mut saw_campaign = false;
        for (idx, raw_line) in text.lines().enumerate() {
            let line = Origin::Line(idx + 1);
            let content = raw_line
                .split_once('#')
                .map_or(raw_line, |(before, _)| before);
            let content = content.trim();
            if content.is_empty() {
                continue;
            }
            if let Some(name) = content.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| parse_err(line.clone(), "unterminated section header"))?
                    .trim()
                    .to_ascii_lowercase();
                if !["campaign", "axes", "mc", "fleet", "lse", "telemetry"].contains(&name.as_str())
                {
                    return Err(parse_err(
                        line,
                        format!(
                            "unknown section `[{name}]` \
                             (use [campaign], [axes], [mc], [fleet], [lse], [telemetry])"
                        ),
                    ));
                }
                saw_campaign |= name == "campaign";
                section = Some(name);
                continue;
            }
            let (key, value) = content.split_once('=').ok_or_else(|| {
                parse_err(
                    line.clone(),
                    format!("expected `key = value`, got `{content}`"),
                )
            })?;
            let key = key.trim().to_ascii_lowercase();
            if key.is_empty() {
                return Err(parse_err(line, "missing key before `=`"));
            }
            let sec = section.as_deref().ok_or_else(|| {
                parse_err(line.clone(), "`key = value` before any [section] header")
            })?;
            let full = format!("{sec}.{key}");
            if seen.contains(&full) {
                return Err(parse_err(line, format!("duplicate key `{key}` in [{sec}]")));
            }
            match split_value(&line, value)? {
                Some(items) => builder.set_list(&full, &items, line)?,
                None => builder.set(&full, value.trim(), line)?,
            }
            seen.push(full);
        }
        if !saw_campaign {
            return Err(parse_err(Origin::Line(0), "missing [campaign] section"));
        }
        builder.build()
    }

    /// Semantic validation of a (parsed or hand-built) scenario: every
    /// rule of [`ScenarioBuilder::build`] that reads values rather than
    /// which keys were given.
    ///
    /// # Errors
    /// Returns [`ExpError::InvalidSpec`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        self.check(&Given(&[]))
    }

    fn check(&self, given: &Given<'_>) -> Result<()> {
        // Ranges of single values.
        if self.name.is_empty() {
            return Err(given.err(&["campaign.name"], "campaign name is empty"));
        }
        if self.lambda.is_empty() || self.hep.is_empty() || self.raid.is_empty() {
            return Err(ExpError::InvalidSpec(
                "every axis needs at least one value".into(),
            ));
        }
        if let Some(&l) = self.lambda.iter().find(|l| !(l.is_finite() && **l > 0.0)) {
            return Err(given.err(
                &["axes.lambda"],
                format!("lambda values must be positive, got {l}"),
            ));
        }
        for &h in &self.hep {
            // Hep::new enforces [0, 1]; the repairable chains additionally
            // need hep < 1, which the models report at run time.
            Hep::new(h).map_err(|e| given.err(&["axes.hep"], e.to_string()))?;
        }
        if self.model == ModelKind::Mc {
            let mc = &self.mc;
            if mc.iterations < 2 {
                return Err(given.err(&["mc.iterations"], "mc iterations must be at least 2"));
            }
            if !(mc.horizon_hours.is_finite() && mc.horizon_hours > 0.0) {
                return Err(given.err(
                    &["mc.horizon_hours"],
                    format!(
                        "mc horizon_hours must be positive, got {}",
                        mc.horizon_hours
                    ),
                ));
            }
            if !(mc.confidence > 0.0 && mc.confidence < 1.0) {
                return Err(given.err(
                    &["mc.confidence"],
                    format!("mc confidence must be in (0,1), got {}", mc.confidence),
                ));
            }
        }
        if let Err(e) = self.mc.variance.validate() {
            // Blame the least-valid tuning key, then the `variance` key.
            let key = match self.mc.variance {
                McVariance::Splitting { levels: 0, .. } => "mc.levels",
                McVariance::Splitting { .. } => "mc.effort",
                _ => "mc.bias",
            };
            return Err(given.err(&[key, "mc.variance"], e.to_string()));
        }
        if let Some(fleet) = self.fleet {
            if fleet.repairmen == Some(0) {
                return Err(given.err(
                    &["fleet.repairmen"],
                    "fleet needs at least one repair crew \
                     (omit `fleet.repairmen` for an unlimited pool)",
                ));
            }
            if let Some(crews) = fleet.repairmen.filter(|&c| u32::try_from(c).is_err()) {
                return Err(given.err(
                    &["fleet.repairmen"],
                    format!("fleet repairmen {crews} is too large"),
                ));
            }
            if fleet.domain_arrays == Some(0) {
                return Err(given.err(
                    &["fleet.domain_arrays"],
                    "failure domain needs at least one array per shelf",
                ));
            }
            if let Some(rate) = fleet.domain_rate.filter(|r| !(r.is_finite() && *r > 0.0)) {
                return Err(given.err(
                    &["fleet.domain_rate"],
                    format!("domain failure rate must be positive and finite, got {rate}"),
                ));
            }
            match fleet.failover_capacity {
                Some(Some(0)) => {
                    return Err(given.err(
                        &["fleet.failover_capacity"],
                        "DR site needs at least one failover slot (use `inf` for an ideal \
                         site, or omit `fleet.failover_capacity` for none)",
                    ))
                }
                Some(Some(v)) if u32::try_from(v).is_err() => {
                    return Err(given.err(
                        &["fleet.failover_capacity"],
                        format!("fleet failover_capacity {v} is too large"),
                    ))
                }
                _ => {}
            }
            if let Some(rate) = fleet.failback_rate.filter(|r| !(r.is_finite() && *r > 0.0)) {
                return Err(given.err(
                    &["fleet.failback_rate"],
                    format!("fail-back rate must be positive and finite, got {rate}"),
                ));
            }
        }
        if let Some(lse) = self.lse {
            if !(lse.lse_rate.is_finite() && lse.lse_rate >= 0.0) {
                return Err(given.err(
                    &["lse.lse_rate"],
                    format!("LSE rate must be nonnegative, got {}", lse.lse_rate),
                ));
            }
            if !(lse.scrub_interval_hours.is_finite() && lse.scrub_interval_hours > 0.0) {
                return Err(given.err(
                    &["lse.scrub_interval"],
                    format!(
                        "scrub interval must be positive, got {}",
                        lse.scrub_interval_hours
                    ),
                ));
            }
        }

        // Rules across keys.
        if let Some(cap) = self.capacity {
            for g in &self.raid {
                g.arrays_for_usable_capacity(cap)
                    .map_err(|e| given.err(&["campaign.capacity"], e.to_string()))?;
            }
        }
        // An explicitly requested metric the run can never fill would
        // produce an all-blank report column; reject it up front.
        for &m in &self.metrics {
            let problem = match m {
                Metric::Volume if self.capacity.is_none() => {
                    "metric `volume` requires `capacity` to be set"
                }
                Metric::Mttdl if self.model == ModelKind::Mc => {
                    "metric `mttdl` is not produced by the mc model"
                }
                Metric::CiHalfWidth if self.model != ModelKind::Mc => {
                    "metric `ci-half-width` requires `model = mc`"
                }
                _ => continue,
            };
            return Err(given.err(&["campaign.metrics"], problem));
        }
        let failover = self.runs_failover();
        if self.model == ModelKind::Mc {
            // The Monte-Carlo engines replay the single-fault Fig. 2 and
            // Fig. 3 chains whatever the geometry.
            if let Some(g) = self.raid.iter().find(|g| g.fault_tolerance() != 1) {
                return Err(given.err(
                    &["axes.raid"],
                    format!(
                        "model `mc` simulates single-fault-tolerant arrays only, got {} \
                         (use markov-conventional or generic-k-of-n)",
                        g.label()
                    ),
                ));
            }
            if failover && matches!(self.mc.variance, McVariance::Splitting { .. }) {
                return Err(given.err(
                    &["mc.variance", "axes.policy"],
                    "variance = splitting applies to the conventional policy only \
                     (the fail-over chain is fully exponential; use failure-biasing)",
                ));
            }
            // The loss columns print whenever the section is present, even
            // at a zero rate.
            if self.lse.is_some() && matches!(self.mc.variance, McVariance::Splitting { .. }) {
                return Err(given.err(
                    &["mc.variance", "lse."],
                    "variance = splitting has no data-loss estimator (its partial \
                     trials count every loss event at weight 1); drop the [lse] \
                     section or use naive sampling",
                ));
            }
        }
        if let Some(fleet) = self.fleet {
            if self.model != ModelKind::Mc {
                return Err(given.err(
                    &["fleet.", "campaign.model"],
                    "[fleet] requires `model = mc` (the fleet engine is a \
                     Monte-Carlo simulation)",
                ));
            }
            if failover {
                return Err(given.err(
                    &["axes.policy", "fleet."],
                    "[fleet] applies to the conventional policy only",
                ));
            }
            if self.mc.variance != McVariance::Naive {
                return Err(given.err(
                    &["mc.variance", "fleet."],
                    format!(
                        "[fleet] supports naive sampling only (fleet-level outages \
                         are not rare events), got variance = {}",
                        self.mc.variance
                    ),
                ));
            }
            let arrays = u32::try_from(fleet.arrays).map_err(|_| {
                given.err(
                    &["fleet.arrays"],
                    format!("fleet arrays {} is too large", fleet.arrays),
                )
            })?;
            for &g in &self.raid {
                FleetSpec::new(arrays, g)
                    .map_err(|e| given.err(&["fleet.arrays", "fleet."], e.to_string()))?;
            }
            match (fleet.domain_arrays, fleet.domain_rate) {
                (None, None) => {}
                (Some(domain), Some(_)) if domain > fleet.arrays => {
                    return Err(given.err(
                        &["fleet.domain_arrays"],
                        format!(
                            "failure domain of {domain} arrays exceeds the fleet of {}",
                            fleet.arrays
                        ),
                    ));
                }
                (Some(_), Some(_)) => {}
                _ => {
                    return Err(given.err(
                        &["fleet.domain_arrays", "fleet.domain_rate"],
                        "`fleet.domain_arrays` and `fleet.domain_rate` must be set together",
                    ));
                }
            }
        }
        if let Some(problem) = self
            .lse
            .filter(LseSettings::is_live)
            .and(self.lse_support_problem())
        {
            return Err(given.err(&["lse.lse_rate"], problem));
        }
        Ok(())
    }

    /// Why a **live** `[lse]` section cannot run under this scenario's
    /// model/policy combination, or `None` when every cell supports
    /// LSE-aware rebuilds. The Fig. 3 exact chain and the fail-over MC
    /// engine reject latent sector errors at construction; catching the
    /// combination here turns a per-cell run failure into an up-front
    /// spec error.
    fn lse_support_problem(&self) -> Option<String> {
        if self.model == ModelKind::MarkovFailover {
            return Some(
                "model `markov-failover` does not support LSE-aware rebuilds \
                 (the Fig. 3 chain has no rebuild completion to split; \
                 pick another model, or set `lse.lse_rate = 0`)"
                    .into(),
            );
        }
        if self.runs_failover() {
            return Some(
                "the failover policy does not support LSE-aware rebuilds \
                 (restrict the `policy` axis to conventional, or set \
                 `lse.lse_rate = 0`)"
                    .into(),
            );
        }
        None
    }

    /// Whether any cell runs the fail-over policy.
    fn runs_failover(&self) -> bool {
        self.policy.contains(&Policy::Failover)
            || (self.policy.is_empty() && self.model.default_policy() == Policy::Failover)
    }

    /// The policies the grid will iterate over: the explicit `policy` axis,
    /// or the model's default as a one-point axis.
    pub fn effective_policies(&self) -> Vec<Policy> {
        if self.policy.is_empty() {
            vec![self.model.default_policy()]
        } else {
            self.policy.clone()
        }
    }
}

/// Splits a raw spec value into list items: `[a, b, c]` becomes three
/// items; a bare scalar is `None`.
fn split_value<'a>(line: &Origin, raw: &'a str) -> Result<Option<Vec<&'a str>>> {
    let raw = raw.trim();
    let fail = |message: &str| parse_err(line.clone(), message);
    if raw.is_empty() {
        return Err(fail("empty value"));
    }
    let Some(inner) = raw.strip_prefix('[') else {
        if raw.contains(']') {
            return Err(fail("unexpected `]` outside a list"));
        }
        return Ok(None);
    };
    let inner = inner
        .strip_suffix(']')
        .ok_or_else(|| fail("unterminated list (missing `]`)"))?;
    let mut items: Vec<&str> = inner.split(',').map(str::trim).collect();
    // Tolerate exactly one trailing comma: `[a, b,]`.
    if items.len() > 1 && items.last().is_some_and(|s| s.is_empty()) {
        items.pop();
    }
    if items.len() == 1 && items[0].is_empty() {
        return Err(fail("empty list"));
    }
    // An interior empty item is a typo (a value deleted mid-edit), not
    // something to silently shrink the grid over.
    if items.iter().any(|s| s.is_empty()) {
        return Err(fail(
            "empty list item (doubled, leading, or repeated trailing comma)",
        ));
    }
    Ok(Some(items))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
# demo campaign
[campaign]
name = demo
seed = 9
model = markov-conventional
capacity = 21

[axes]
raid = [r1, r5-3, r5-7]
hep = [0, 0.001, 0.01]   # three heps
lambda = 1e-5
";

    #[test]
    fn parses_a_full_spec() {
        let s = Scenario::parse(SPEC).unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!(s.seed, 9);
        assert_eq!(s.model, ModelKind::MarkovConventional);
        assert_eq!(s.capacity, Some(21));
        assert_eq!(s.raid.len(), 3);
        assert_eq!(s.hep, vec![0.0, 0.001, 0.01]);
        assert_eq!(s.lambda, vec![1e-5]);
        assert_eq!(s.effective_policies(), vec![Policy::Conventional]);
    }

    #[test]
    fn scalar_axis_is_a_one_point_axis() {
        let s = Scenario::parse("[campaign]\nname = x\n[axes]\nlambda = 2e-6\n").unwrap();
        assert_eq!(s.lambda, vec![2e-6]);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let s = Scenario::parse("# top\n\n[campaign]\n  name = c1  # trailing\n\n").unwrap();
        assert_eq!(s.name, "c1");
    }

    #[test]
    fn missing_campaign_section_is_an_error() {
        let e = Scenario::parse("[axes]\nlambda = 1e-6\n").unwrap_err();
        assert!(e.to_string().contains("[campaign]"), "{e}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = Scenario::parse("[campaign]\nname = x\nbogus_key = 1\n").unwrap_err();
        assert!(e.to_string().contains("line 3"), "{e}");

        let e = Scenario::parse("[campaign]\nname = x\nseed = abc\n").unwrap_err();
        assert!(e.to_string().contains("line 3"), "{e}");

        let e = Scenario::parse("[campaign]\nname = x\n[axes]\nhep = [0.1, oops]\n").unwrap_err();
        assert!(e.to_string().contains("line 4"), "{e}");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let e = Scenario::parse("[campaign]\nname = a\nname = b\n").unwrap_err();
        assert!(e.to_string().contains("duplicate key"), "{e}");
    }

    #[test]
    fn unterminated_list_is_rejected() {
        let e = Scenario::parse("[campaign]\nname = x\n[axes]\nhep = [0, 0.1\n").unwrap_err();
        assert!(e.to_string().contains("unterminated list"), "{e}");
    }

    #[test]
    fn interior_empty_list_items_are_rejected_not_dropped() {
        // A value deleted mid-edit must not silently shrink the grid.
        for bad in [
            "hep = [0, , 0.01]",
            "hep = [, 0.01]",
            "hep = [0, 0.01,,]",
            "hep = []",
        ] {
            let spec = format!("[campaign]\nname = x\n[axes]\n{bad}\n");
            let e = Scenario::parse(&spec).unwrap_err();
            assert!(e.to_string().contains("empty list"), "{bad}: {e}");
        }
        // One trailing comma is fine and keeps the full axis.
        let s = Scenario::parse("[campaign]\nname = x\n[axes]\nhep = [0, 0.01,]\n").unwrap();
        assert_eq!(s.hep, vec![0.0, 0.01]);
    }

    #[test]
    fn unknown_section_model_policy_metric_are_rejected() {
        assert!(Scenario::parse("[wat]\nx = 1\n").is_err());
        assert!(Scenario::parse("[campaign]\nname = x\nmodel = quantum\n").is_err());
        assert!(Scenario::parse("[campaign]\nname = x\n[axes]\npolicy = [magic]\n").is_err());
        assert!(Scenario::parse("[campaign]\nname = x\nmetrics = [vibes]\n").is_err());
    }

    #[test]
    fn semantic_validation_catches_bad_values() {
        assert!(Scenario::parse("[campaign]\nname = x\n[axes]\nlambda = -1e-6\n").is_err());
        assert!(Scenario::parse("[campaign]\nname = x\n[axes]\nhep = 1.5\n").is_err());
        // Capacity 10 tiles no default geometry (r5-3 usable = 3).
        assert!(Scenario::parse("[campaign]\nname = x\ncapacity = 10\n").is_err());
        // Name with a path separator is rejected (it becomes a file name).
        assert!(Scenario::parse("[campaign]\nname = ../evil\n").is_err());
    }

    #[test]
    fn geometry_labels_parse_like_the_cli() {
        assert_eq!(parse_geometry_label("r1").unwrap().total_disks(), 2);
        assert_eq!(parse_geometry_label("r5-3").unwrap().label(), "RAID5(3+1)");
        assert_eq!(parse_geometry_label("r6-6").unwrap().label(), "RAID6(6+2)");
        assert!(parse_geometry_label("r9-3").is_err());
        assert!(parse_geometry_label("r5-x").is_err());
        assert!(parse_geometry_label("raid5").is_err());
    }

    #[test]
    fn inapplicable_metrics_are_rejected_up_front() {
        // volume without capacity, mttdl under mc, ci-half-width under markov:
        // each would yield an all-blank column, so each is a spec error.
        let e = Scenario::parse("[campaign]\nname = x\nmetrics = [volume]\n").unwrap_err();
        assert!(e.to_string().contains("requires `capacity`"), "{e}");
        let e =
            Scenario::parse("[campaign]\nname = x\nmodel = mc\nmetrics = [mttdl]\n").unwrap_err();
        assert!(e.to_string().contains("not produced by the mc"), "{e}");
        let e = Scenario::parse("[campaign]\nname = x\nmetrics = [ci-half-width]\n").unwrap_err();
        assert!(e.to_string().contains("requires `model = mc`"), "{e}");
        // The same metrics are fine when applicable.
        assert!(
            Scenario::parse("[campaign]\nname = x\ncapacity = 3\nmetrics = [volume]\n").is_ok()
        );
        assert!(
            Scenario::parse("[campaign]\nname = x\nmodel = mc\nmetrics = [ci-half-width]\n")
                .is_ok()
        );
    }

    #[test]
    fn mc_section_round_trips() {
        let s = Scenario::parse(
            "[campaign]\nname = m\nmodel = mc\n[mc]\niterations = 500\nhorizon_hours = 1000\nconfidence = 0.9\n",
        )
        .unwrap();
        assert_eq!(s.mc.iterations, 500);
        assert_eq!(s.mc.horizon_hours, 1000.0);
        assert_eq!(s.mc.confidence, 0.9);
        assert_eq!(s.mc.variance, McVariance::Naive);
        assert_eq!(s.mc.threads, 1, "threads defaults to 1");
        assert!(
            Scenario::parse("[campaign]\nname = m\nmodel = mc\n[mc]\niterations = 1\n").is_err()
        );
    }

    #[test]
    fn mc_threads_parses_explicit_auto_and_rejects_junk_with_line() {
        let base = "[campaign]\nname = t\nmodel = mc\n[mc]\n";
        let s = Scenario::parse(&format!("{base}threads = 4\n")).unwrap();
        assert_eq!(s.mc.threads, 4);
        // 0 is the documented auto spelling, not an error.
        let s = Scenario::parse(&format!("{base}threads = 0\n")).unwrap();
        assert_eq!(s.mc.threads, 0);
        // Junk values fail loudly with the offending line number
        // (`threads = x` is line 5 of the assembled spec).
        let err = Scenario::parse(&format!("{base}threads = lots\n")).unwrap_err();
        assert!(err.to_string().contains("line 5"), "{err}");
        assert!(err.to_string().contains("threads"), "{err}");
        let err = Scenario::parse(&format!("{base}threads = -2\n")).unwrap_err();
        assert!(err.to_string().contains("line 5"), "{err}");
    }

    #[test]
    fn variance_keys_parse_and_combine() {
        let base = "[campaign]\nname = v\nmodel = mc\n[mc]\n";
        let parse = |mc: &str| Scenario::parse(&format!("{base}{mc}"));

        let s = parse("variance = failure-biasing\n").unwrap();
        assert_eq!(s.mc.variance, McVariance::FailureBiasing { bias: 0.5 });
        // Tuning keys combine regardless of their order relative to
        // `variance`.
        let s = parse("bias = 0.7\nvariance = failure-biasing\n").unwrap();
        assert_eq!(s.mc.variance, McVariance::FailureBiasing { bias: 0.7 });
        let s = parse("variance = splitting\nlevels = 3\neffort = 16\n").unwrap();
        assert_eq!(
            s.mc.variance,
            McVariance::Splitting {
                levels: 3,
                effort: 16
            }
        );
        let s = parse("variance = splitting\n").unwrap();
        assert_eq!(
            s.mc.variance,
            McVariance::Splitting {
                levels: 2,
                effort: 64
            }
        );
        let s = parse("variance = naive\n").unwrap();
        assert_eq!(s.mc.variance, McVariance::Naive);
    }

    #[test]
    fn variance_key_errors_carry_lines_and_reject_mismatched_tuning() {
        let base = "[campaign]\nname = v\nmodel = mc\n[mc]\n";
        let parse = |mc: &str| Scenario::parse(&format!("{base}{mc}"));

        let e = parse("variance = quantum\n").unwrap_err();
        assert!(e.to_string().contains("unknown variance"), "{e}");
        let e = parse("bias = 0.5\n").unwrap_err();
        assert!(
            e.to_string()
                .contains("requires `mc.variance = failure-biasing`"),
            "{e}"
        );
        let e = parse("variance = splitting\nbias = 0.5\n").unwrap_err();
        assert!(
            e.to_string()
                .contains("requires `mc.variance = failure-biasing`"),
            "{e}"
        );
        let e = parse("variance = failure-biasing\nlevels = 2\n").unwrap_err();
        assert!(
            e.to_string().contains("requires `mc.variance = splitting`"),
            "{e}"
        );
        let e = parse("variance = naive\neffort = 8\n").unwrap_err();
        assert!(
            e.to_string().contains("requires `mc.variance = splitting`"),
            "{e}"
        );
        // Core-level parameter validation surfaces as a parse error naming
        // the offending tuning key's own line.
        let e = parse("variance = failure-biasing\nbias = 1.5\n").unwrap_err();
        assert!(e.to_string().contains("line 6"), "{e}");
        let e = parse("variance = splitting\neffort = 1\n").unwrap_err();
        assert!(e.to_string().contains("line 6"), "{e}");
        let e = parse("variance = splitting\nlevels = 0\neffort = 8\n").unwrap_err();
        assert!(e.to_string().contains("line 6"), "{e}");
        // Splitting is conventional-only: a failover policy axis rejects.
        let e = Scenario::parse(
            "[campaign]\nname = v\nmodel = mc\n[axes]\npolicy = [failover]\n[mc]\nvariance = splitting\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("conventional policy only"), "{e}");
    }

    #[test]
    fn fleet_section_parses_and_validates() {
        let s = Scenario::parse(
            "[campaign]\nname = f\nmodel = mc\n[axes]\nraid = r5-3\n[fleet]\narrays = 100\n",
        )
        .unwrap();
        let fleet = s.fleet.unwrap();
        assert_eq!(fleet.arrays, 100);
        // The couplings default to the independent limit.
        assert_eq!(fleet.repairmen, None);
        assert_eq!(fleet.coupling(), FleetCoupling::default());

        // No [fleet] section: None.
        let s = Scenario::parse("[campaign]\nname = f\nmodel = mc\n").unwrap();
        assert_eq!(s.fleet, None);

        // Unknown keys in [fleet] are rejected with a line number.
        let e =
            Scenario::parse("[campaign]\nname = f\nmodel = mc\n[fleet]\ndisks = 3\n").unwrap_err();
        assert!(e.to_string().contains("line 5"), "{e}");

        // Fleet requires model = mc.
        let e = Scenario::parse("[campaign]\nname = f\n[fleet]\narrays = 4\n").unwrap_err();
        assert!(e.to_string().contains("requires `model = mc`"), "{e}");

        // Conventional-policy only.
        let e = Scenario::parse(
            "[campaign]\nname = f\nmodel = mc\n[axes]\npolicy = [conventional, failover]\n[fleet]\narrays = 4\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("conventional policy only"), "{e}");

        // Naive sampling only.
        let e = Scenario::parse(
            "[campaign]\nname = f\nmodel = mc\n[mc]\nvariance = splitting\n[fleet]\narrays = 4\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("naive sampling only"), "{e}");

        // Array bounds come from FleetSpec.
        let e = Scenario::parse("[campaign]\nname = f\nmodel = mc\n[fleet]\narrays = 99999999\n")
            .unwrap_err();
        assert!(e.to_string().contains("at most 65536"), "{e}");
    }

    #[test]
    fn fleet_coupling_keys_parse_and_degenerate_values_name_their_line() {
        let s = Scenario::parse(
            "[campaign]\nname = f\nmodel = mc\n[fleet]\narrays = 40\nrepairmen = 4\n\
             dependence = high\ndomain_arrays = 10\ndomain_rate = 1e-5\n",
        )
        .unwrap();
        let fleet = s.fleet.unwrap();
        assert_eq!(fleet.repairmen, Some(4));
        assert_eq!(fleet.dependence, DependenceLevel::High);
        let coupling = fleet.coupling();
        assert_eq!(coupling.dependence, DependenceLevel::High);
        let domains = coupling.domains.unwrap();
        assert_eq!(domains.domain_arrays, 10);
        assert_eq!(domains.rate, 1e-5);

        // Degenerate values are line-numbered parse errors, not engine
        // panics: arrays = 0, repairmen = 0, unknown dependence, bad domain.
        let cases = [
            ("arrays = 0", "line 5", "at least one array"),
            ("repairmen = 0", "line 5", "at least one repair crew"),
            ("dependence = severe", "line 5", "unknown dependence"),
            (
                "domain_arrays = 0",
                "line 5",
                "at least one array per shelf",
            ),
            ("domain_rate = 0", "line 5", "must be positive"),
            ("domain_rate = -2e-4", "line 5", "must be positive"),
        ];
        for (bad, line, needle) in cases {
            let e = Scenario::parse(&format!(
                "[campaign]\nname = f\nmodel = mc\n[fleet]\n{bad}\n"
            ))
            .unwrap_err();
            let msg = e.to_string();
            assert!(msg.contains(line) && msg.contains(needle), "{bad}: {msg}");
        }

        // Domain keys must come as a pair, and shelves fit the fleet.
        let e = Scenario::parse(
            "[campaign]\nname = f\nmodel = mc\n[fleet]\narrays = 8\ndomain_rate = 1e-5\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("must be set together"), "{e}");
        let e = Scenario::parse(
            "[campaign]\nname = f\nmodel = mc\n[fleet]\narrays = 8\n\
             domain_arrays = 9\ndomain_rate = 1e-5\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("exceeds the fleet"), "{e}");

        // A [fleet] section that never names `arrays` is rejected too.
        let e = Scenario::parse("[campaign]\nname = f\nmodel = mc\n[fleet]\nrepairmen = 2\n")
            .unwrap_err();
        assert!(e.to_string().contains("at least one array"), "{e}");
    }

    #[test]
    fn failover_keys_parse_and_cross_checks_name_their_line() {
        let s = Scenario::parse(
            "[campaign]\nname = f\nmodel = mc\n[fleet]\narrays = 40\n\
             failover_capacity = 4\nfailover_policy = loss\nfailback_rate = 0.01\n",
        )
        .unwrap();
        let fleet = s.fleet.unwrap();
        assert_eq!(fleet.failover_capacity, Some(Some(4)));
        assert_eq!(fleet.failover_policy, FailoverPolicy::Loss);
        assert_eq!(fleet.failback_rate, Some(0.01));
        let failover = fleet.failover(0.25).unwrap();
        assert_eq!(failover.capacity, Some(4));
        assert_eq!(failover.policy, FailoverPolicy::Loss);
        assert_eq!(failover.failback_rate, 0.01);

        // `inf` is the ideal unbounded site; an omitted failback_rate
        // takes the caller's default.
        let s = Scenario::parse(
            "[campaign]\nname = f\nmodel = mc\n[fleet]\narrays = 8\nfailover_capacity = inf\n",
        )
        .unwrap();
        let fleet = s.fleet.unwrap();
        assert_eq!(fleet.failover_capacity, Some(None));
        assert_eq!(fleet.failover_policy, FailoverPolicy::Queue);
        let failover = fleet.failover(0.25).unwrap();
        assert_eq!(failover.capacity, None);
        assert_eq!(failover.failback_rate, 0.25);

        // No failover keys at all: no DR site.
        let s = Scenario::parse("[campaign]\nname = f\nmodel = mc\n[fleet]\narrays = 8\n").unwrap();
        assert_eq!(s.fleet.unwrap().failover(0.25), None);

        // Degenerate values are line-numbered parse errors.
        let cases = [
            ("failover_capacity = 0", "line 5", "at least one failover"),
            ("failover_capacity = 99999999999", "line 5", "is too large"),
            ("failover_capacity = many", "line 5", "unsigned integer"),
            (
                "failover_policy = drop",
                "line 5",
                "unknown failover policy",
            ),
            ("failback_rate = 0", "line 5", "must be positive"),
            ("failback_rate = -0.1", "line 5", "must be positive"),
        ];
        for (bad, line, needle) in cases {
            let e = Scenario::parse(&format!(
                "[campaign]\nname = f\nmodel = mc\n[fleet]\n{bad}\n"
            ))
            .unwrap_err();
            let msg = e.to_string();
            assert!(msg.contains(line) && msg.contains(needle), "{bad}: {msg}");
        }

        // A failover key without `arrays` blames its own line, even with
        // `arrays` appearing nowhere in the section.
        let e =
            Scenario::parse("[campaign]\nname = f\nmodel = mc\n[fleet]\nfailover_capacity = 4\n")
                .unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("line 5") && msg.contains("at least one array"),
            "{msg}"
        );

        // Tuning keys without a `failover_capacity` blame their line, in
        // either key order.
        let e = Scenario::parse(
            "[campaign]\nname = f\nmodel = mc\n[fleet]\narrays = 8\nfailover_policy = queue\n",
        )
        .unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("line 6") && msg.contains("requires `fleet.failover_capacity`"),
            "{msg}"
        );
        let e = Scenario::parse(
            "[campaign]\nname = f\nmodel = mc\n[fleet]\nfailback_rate = 0.1\narrays = 8\n",
        )
        .unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("line 5") && msg.contains("requires `fleet.failover_capacity`"),
            "{msg}"
        );
    }

    #[test]
    fn lse_section_parses_and_gates_on_supporting_models() {
        let s = Scenario::parse(
            "[campaign]\nname = l\nmodel = mc\n[lse]\nlse_rate = 1e-4\nscrub_interval = 336\n",
        )
        .unwrap();
        let lse = s.lse.unwrap();
        assert_eq!(lse.lse_rate, 1e-4);
        assert_eq!(lse.scrub_interval_hours, 336.0);
        assert!(lse.is_live());
        assert_eq!(lse.model(), ScrubbingModel::new(1e-4, 336.0).unwrap());

        // No [lse] section: None.
        let s = Scenario::parse("[campaign]\nname = l\nmodel = mc\n").unwrap();
        assert_eq!(s.lse, None);

        // The generic chain and the Fig. 2 exact chain honour scrubbing;
        // the Fig. 3 chain (and the fail-over policy below) rejects a live
        // rate with the offending line — a zero rate is a bit-identical
        // no-op and passes anywhere.
        for model in ["generic-k-of-n", "markov-conventional"] {
            assert!(Scenario::parse(&format!(
                "[campaign]\nname = l\nmodel = {model}\n[lse]\nlse_rate = 1e-4\nscrub_interval = 336\n"
            ))
            .is_ok());
        }
        let e = Scenario::parse(
            "[campaign]\nname = l\nmodel = markov-failover\n[lse]\nlse_rate = 1e-4\nscrub_interval = 336\n"
        )
        .unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("line 5") && msg.contains("LSE-aware rebuilds"),
            "{msg}"
        );
        assert!(Scenario::parse(
            "[campaign]\nname = l\nmodel = markov-failover\n[lse]\nlse_rate = 0\nscrub_interval = 336\n"
        )
        .is_ok());
        let e = Scenario::parse(
            "[campaign]\nname = l\nmodel = mc\n[axes]\npolicy = [failover]\n\
             [lse]\nlse_rate = 1e-4\nscrub_interval = 336\n",
        )
        .unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("line 7") && msg.contains("failover policy"),
            "{msg}"
        );

        // The keys come as a pair, and degenerate values blame their line.
        let cases = [
            ("lse_rate = 1e-4", "line 5", "must be set together"),
            ("scrub_interval = 336", "line 5", "must be set together"),
            (
                "lse_rate = -1\nscrub_interval = 336",
                "line 5",
                "nonnegative",
            ),
            (
                "lse_rate = 1e-4\nscrub_interval = 0",
                "line 6",
                "must be positive",
            ),
            (
                "lse_rate = 1e-4\nscrub_interval = -24",
                "line 6",
                "must be positive",
            ),
            ("exposure = 3", "line 5", "unknown key"),
        ];
        for (bad, line, needle) in cases {
            let e = Scenario::parse(&format!("[campaign]\nname = l\nmodel = mc\n[lse]\n{bad}\n"))
                .unwrap_err();
            let msg = e.to_string();
            assert!(msg.contains(line) && msg.contains(needle), "{bad}: {msg}");
        }
    }

    #[test]
    fn telemetry_section_parses_and_format_requires_metrics() {
        let s = Scenario::parse(
            "[campaign]\nname = t\n[telemetry]\nmetrics = out.prom\nformat = prom\nprogress = true\n",
        )
        .unwrap();
        assert_eq!(s.telemetry.metrics.as_deref(), Some("out.prom"));
        assert_eq!(s.telemetry.format, MetricsFormat::Prometheus);
        assert!(s.telemetry.progress);
        assert!(s.telemetry.enabled());

        // Defaults: everything off, JSON format.
        let s = Scenario::parse("[campaign]\nname = t\n").unwrap();
        assert_eq!(s.telemetry, TelemetrySettings::default());
        assert!(!s.telemetry.enabled());

        // `format` without `metrics` is a line-numbered spec error, even
        // when `format` appears before a (missing) `metrics` key.
        let e = Scenario::parse("[campaign]\nname = t\n[telemetry]\nformat = json\n").unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("line 4") && msg.contains("requires a `telemetry.metrics`"),
            "{msg}"
        );

        // Unknown format and non-boolean progress carry their lines.
        let e =
            Scenario::parse("[campaign]\nname = t\n[telemetry]\nmetrics = m.json\nformat = xml\n")
                .unwrap_err();
        assert!(e.to_string().contains("line 5"), "{e}");
        let e =
            Scenario::parse("[campaign]\nname = t\n[telemetry]\nprogress = maybe\n").unwrap_err();
        assert!(e.to_string().contains("line 4"), "{e}");
    }

    #[test]
    fn failover_model_defaults_to_failover_policy() {
        let s = Scenario::parse("[campaign]\nname = f\nmodel = markov-failover\n").unwrap();
        assert_eq!(s.effective_policies(), vec![Policy::Failover]);
    }
}

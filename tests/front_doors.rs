//! Front-door conformance: a scenario reaches availsim through three
//! syntaxes — a campaign spec, a serve JSON query, and the flags of
//! `availsim solve|validate|fleet` — and one builder owns every rule. Each
//! row below is a list of `section.key=value` pairs in spec spelling; the
//! test renders it for every door that can express it and checks that
//!
//! * an accepted row gives the same estimate at every door (bit for bit
//!   between the spec and the JSON query; the CLI prints the spec's
//!   estimate line), and
//! * a rejected row gives the same message after each door's origin
//!   prefix (`spec line N`, the JSON path, `--flag`), and that the prefix
//!   names the key the rule blames.

use availsim::exp::plan::Cell;
use availsim::exp::run::{estimate, run_cell, Estimate};
use availsim::exp::spec::Scenario;
use availsim::serve::exec;
use availsim::serve::json::Json;
use availsim::serve::Query;
use std::process::Command;

struct Row {
    name: &'static str,
    pairs: &'static str,
    /// The doors that can express the row: `s`pec, `j`son, `c`li.
    doors: &'static str,
    /// For a rejected row: the key the rule blames, and a needle of its
    /// message.
    reject: Option<(&'static str, &'static str)>,
}

const fn ok(name: &'static str, doors: &'static str, pairs: &'static str) -> Row {
    Row {
        name,
        pairs,
        doors,
        reject: None,
    }
}

const fn no(
    name: &'static str,
    doors: &'static str,
    pairs: &'static str,
    blamed: &'static str,
    needle: &'static str,
) -> Row {
    Row {
        name,
        pairs,
        doors,
        reject: Some((blamed, needle)),
    }
}

const ROWS: &[Row] = &[
    // Accepted rows: every door, the same estimate.
    ok("exact fig2", "sjc", "axes.raid=r5-7 axes.lambda=1e-5 axes.hep=0.01"),
    ok("exact fig3", "sjc", "axes.raid=r5-3 axes.policy=failover axes.lambda=1e-5 axes.hep=0.01"),
    ok("exact k-of-n fallback", "sjc", "axes.raid=r6-6 axes.lambda=1e-5 axes.hep=0.01"),
    ok("exact raid6 mttdl", "sjc", "axes.raid=r6-3 axes.lambda=1e-6 axes.hep=0.01"),
    ok("exact raid1", "sjc", "axes.raid=r1 axes.lambda=2e-6 axes.hep=0.001"),
    ok("generic chain with lse", "sj", "campaign.model=generic-k-of-n axes.raid=r6-4 axes.lambda=1e-4 lse.lse_rate=1e-4 lse.scrub_interval=336"),
    ok("inert lse on fig3", "sj", "campaign.model=markov-failover lse.lse_rate=0 lse.scrub_interval=336"),
    ok("mc naive", "sjc", "campaign.model=mc campaign.seed=7 axes.lambda=1e-3 axes.hep=0.01 mc.iterations=300"),
    ok("mc failure-biasing", "sjc", "campaign.model=mc campaign.seed=7 axes.lambda=1e-6 axes.hep=0.01 mc.iterations=500 mc.variance=failure-biasing mc.bias=0.6"),
    ok("mc splitting", "sjc", "campaign.model=mc campaign.seed=7 axes.lambda=1e-5 axes.hep=0.01 mc.iterations=300 mc.variance=splitting mc.levels=2 mc.effort=8"),
    ok("mc lse", "sjc", "campaign.model=mc campaign.seed=7 axes.lambda=1e-3 axes.hep=0.01 mc.iterations=300 lse.lse_rate=1e-4 lse.scrub_interval=336"),
    ok("mc fig3", "sj", "campaign.model=mc campaign.seed=7 axes.policy=failover axes.lambda=1e-3 axes.hep=0.01 mc.iterations=300 mc.horizon_hours=20000 mc.confidence=0.95"),
    ok("fleet couplings", "sjc", "campaign.model=mc campaign.seed=5 axes.lambda=1e-4 axes.hep=0.05 mc.iterations=60 fleet.arrays=6 fleet.repairmen=2 fleet.dependence=high fleet.domain_arrays=3 fleet.domain_rate=1e-4"),
    ok("fleet bounded dr", "sjc", "campaign.model=mc campaign.seed=5 axes.lambda=1e-4 axes.hep=0.05 mc.iterations=60 fleet.arrays=6 fleet.failover_capacity=2 fleet.failover_policy=loss fleet.failback_rate=0.05"),
    ok("fleet ideal dr", "sjc", "campaign.model=mc campaign.seed=5 axes.lambda=1e-4 axes.hep=0.05 mc.iterations=60 mc.horizon_hours=20000 fleet.arrays=6 fleet.failover_capacity=inf"),
    // Parse rules.
    no("name charset", "s", "campaign.name=../evil", "campaign.name", "may only contain"),
    no("seed is a count", "sc", "campaign.model=mc campaign.seed=-1", "campaign.seed", "expects an unsigned integer"),
    no("model vocabulary", "sj", "campaign.model=quantum", "campaign.model", "unknown model `quantum`"),
    no("capacity is a count", "s", "campaign.capacity=many", "campaign.capacity", "expects an unsigned integer"),
    no("metric vocabulary", "s", "campaign.metrics=vibes", "campaign.metrics", "unknown metric `vibes`"),
    no("lambda is a number", "sc", "axes.lambda=fast", "axes.lambda", "expects a finite number"),
    no("hep is a number", "sc", "axes.hep=lots", "axes.hep", "expects a finite number"),
    no("raid vocabulary", "sjc", "axes.raid=r9-3", "axes.raid", "unknown raid level `r9`"),
    no("policy vocabulary", "sjc", "axes.policy=magic", "axes.policy", "unknown policy `magic`"),
    no("iterations is a count", "sc", "campaign.model=mc mc.iterations=many", "mc.iterations", "expects an unsigned integer"),
    no("horizon is a number", "s", "campaign.model=mc mc.horizon_hours=long", "mc.horizon_hours", "expects a finite number"),
    no("variance vocabulary", "sjc", "campaign.model=mc mc.variance=quantum", "mc.variance", "unknown variance `quantum`"),
    no("bias is a number", "sc", "campaign.model=mc mc.variance=failure-biasing mc.bias=heavy", "mc.bias", "expects a finite number"),
    no("levels fit 32 bits", "sjc", "campaign.model=mc mc.variance=splitting mc.levels=5000000000", "mc.levels", "is too large"),
    no("threads is a count", "sc", "campaign.model=mc mc.threads=lots", "mc.threads", "expects an unsigned integer"),
    no("arrays is a count", "sc", "campaign.model=mc fleet.arrays=many", "fleet.arrays", "expects an unsigned integer"),
    no("dependence vocabulary", "sjc", "campaign.model=mc fleet.arrays=4 fleet.dependence=severe", "fleet.dependence", "unknown dependence `severe`"),
    no("failover capacity spelling", "sc", "campaign.model=mc fleet.arrays=4 fleet.failover_capacity=many", "fleet.failover_capacity", "an unsigned integer or `inf`"),
    no("failover policy vocabulary", "sjc", "campaign.model=mc fleet.arrays=4 fleet.failover_capacity=2 fleet.failover_policy=teleport", "fleet.failover_policy", "unknown failover policy `teleport`"),
    no("lse rate is a number", "sc", "campaign.model=mc lse.lse_rate=x lse.scrub_interval=336", "lse.lse_rate", "expects a finite number"),
    no("format vocabulary", "sc", "campaign.model=mc telemetry.metrics=m.json telemetry.format=xml", "telemetry.format", "unknown format `xml`"),
    no("progress is a boolean", "s", "telemetry.progress=maybe", "telemetry.progress", "expects true or false"),
    // Range rules.
    no("lambda positive", "sjc", "axes.lambda=-1e-6", "axes.lambda", "lambda values must be positive"),
    no("hep a probability", "sjc", "axes.hep=1.5", "axes.hep", "outside the interval [0, 1]"),
    no("two missions at least", "sjc", "campaign.model=mc mc.iterations=1", "mc.iterations", "at least 2"),
    no("horizon positive", "sj", "campaign.model=mc mc.horizon_hours=0", "mc.horizon_hours", "must be positive"),
    no("confidence in (0,1)", "sj", "campaign.model=mc mc.confidence=1.5", "mc.confidence", "must be in (0,1)"),
    no("divergent: bias in [0,1)", "sjc", "campaign.model=mc mc.variance=failure-biasing mc.bias=1.5", "mc.bias", "bias must be in [0, 1)"),
    no("divergent: effort at least 2", "sjc", "campaign.model=mc mc.variance=splitting mc.effort=1", "mc.effort", "effort must be at least 2"),
    no("divergent: levels at least 1", "sjc", "campaign.model=mc mc.variance=splitting mc.levels=0", "mc.levels", "at least one level"),
    no("crews at least 1", "sjc", "campaign.model=mc fleet.arrays=4 fleet.repairmen=0", "fleet.repairmen", "at least one repair crew"),
    no("crews fit 32 bits", "sjc", "campaign.model=mc fleet.arrays=4 fleet.repairmen=5000000000", "fleet.repairmen", "is too large"),
    no("shelves hold an array", "sjc", "campaign.model=mc fleet.arrays=4 fleet.domain_arrays=0 fleet.domain_rate=1e-4", "fleet.domain_arrays", "at least one array per shelf"),
    no("divergent: domain rate positive", "sjc", "campaign.model=mc fleet.arrays=4 fleet.domain_arrays=2 fleet.domain_rate=-1", "fleet.domain_rate", "domain failure rate must be positive"),
    no("dr slots at least 1", "sjc", "campaign.model=mc fleet.arrays=4 fleet.failover_capacity=0", "fleet.failover_capacity", "at least one failover slot"),
    no("dr slots fit 32 bits", "sjc", "campaign.model=mc fleet.arrays=4 fleet.failover_capacity=99999999999", "fleet.failover_capacity", "is too large"),
    no("fail-back positive", "sjc", "campaign.model=mc fleet.arrays=4 fleet.failover_capacity=2 fleet.failback_rate=-1", "fleet.failback_rate", "fail-back rate must be positive"),
    no("lse rate nonnegative", "sjc", "campaign.model=mc lse.lse_rate=-1 lse.scrub_interval=336", "lse.lse_rate", "nonnegative"),
    no("scrub interval positive", "sjc", "campaign.model=mc lse.lse_rate=1e-4 lse.scrub_interval=0", "lse.scrub_interval", "scrub interval must be positive"),
    // Rules across keys.
    no("capacity tiles the geometry", "s", "campaign.capacity=10", "campaign.capacity", "capacity"),
    no("volume needs capacity", "s", "campaign.metrics=volume", "campaign.metrics", "requires `capacity`"),
    no("mc has no mttdl", "s", "campaign.model=mc campaign.metrics=mttdl", "campaign.metrics", "not produced by the mc model"),
    no("ci needs mc", "s", "campaign.metrics=ci-half-width", "campaign.metrics", "requires `model = mc`"),
    no("divergent: mc is single-fault", "sj", "campaign.model=mc axes.raid=r6-3", "axes.raid", "single-fault-tolerant arrays only, got RAID6(3+2)"),
    no("fleet mc is single-fault", "sjc", "campaign.model=mc fleet.arrays=4 axes.raid=r6-4", "axes.raid", "single-fault-tolerant arrays only, got RAID6(4+2)"),
    no("splitting is conventional", "sj", "campaign.model=mc mc.variance=splitting axes.policy=failover", "mc.variance", "conventional policy only"),
    no("splitting has no loss estimator", "sjc", "campaign.model=mc mc.variance=splitting lse.lse_rate=1e-4 lse.scrub_interval=336", "mc.variance", "splitting has no data-loss estimator"),
    no("fleet needs mc", "sj", "fleet.arrays=4", "fleet.arrays", "requires `model = mc`"),
    no("fleet is conventional", "sj", "campaign.model=mc axes.policy=failover fleet.arrays=4", "axes.policy", "conventional policy only"),
    no("fleet is naive", "sj", "campaign.model=mc mc.variance=failure-biasing fleet.arrays=4", "mc.variance", "naive sampling only"),
    no("fleet holds an array", "sjc", "campaign.model=mc fleet.arrays=0", "fleet.arrays", "at least one array"),
    no("fleet size bounded", "sjc", "campaign.model=mc fleet.arrays=1000000", "fleet.arrays", "at most 65536"),
    no("fleet keys need arrays", "sj", "campaign.model=mc fleet.repairmen=2", "fleet.repairmen", "at least one array"),
    no("domain pair, shelf only", "sjc", "campaign.model=mc fleet.arrays=4 fleet.domain_arrays=2", "fleet.domain_arrays", "must be set together"),
    no("domain pair, rate only", "sjc", "campaign.model=mc fleet.arrays=4 fleet.domain_rate=1e-4", "fleet.domain_rate", "must be set together"),
    no("shelves fit the fleet", "sjc", "campaign.model=mc fleet.arrays=4 fleet.domain_arrays=5 fleet.domain_rate=1e-4", "fleet.domain_arrays", "exceeds the fleet of 4"),
    no("live lse needs fig2", "sj", "campaign.model=markov-failover lse.lse_rate=1e-4 lse.scrub_interval=336", "lse.lse_rate", "does not support LSE-aware rebuilds"),
    no("live lse is conventional", "sj", "campaign.model=mc axes.policy=failover lse.lse_rate=1e-4 lse.scrub_interval=336", "lse.lse_rate", "failover policy does not support"),
    // Rules about which keys come together.
    no("divergent: bias under splitting", "sjc", "campaign.model=mc mc.variance=splitting mc.bias=0.5", "mc.bias", "requires `mc.variance = failure-biasing`"),
    no("divergent: levels under biasing", "sjc", "campaign.model=mc mc.variance=failure-biasing mc.levels=3", "mc.levels", "requires `mc.variance = splitting`"),
    no("effort under naive", "sjc", "campaign.model=mc mc.effort=8", "mc.effort", "requires `mc.variance = splitting`"),
    no("lse pair, rate only", "sjc", "campaign.model=mc lse.lse_rate=1e-4", "lse.lse_rate", "must be set together"),
    no("lse pair, interval only", "sjc", "campaign.model=mc lse.scrub_interval=336", "lse.scrub_interval", "must be set together"),
    no("divergent: dr policy orphan", "sjc", "campaign.model=mc fleet.arrays=4 fleet.failover_policy=loss", "fleet.failover_policy", "requires `fleet.failover_capacity`"),
    no("divergent: fail-back orphan", "sjc", "campaign.model=mc fleet.arrays=4 fleet.failback_rate=0.5", "fleet.failback_rate", "requires `fleet.failover_capacity`"),
    no("format needs metrics", "sc", "campaign.model=mc telemetry.format=prom", "telemetry.format", "requires a `telemetry.metrics` destination"),
];

/// Spec key → CLI flag, for one command.
type FlagTable = &'static [(&'static str, &'static str)];

/// Spec key → JSON path and wire type (`n`umber, `i`nteger, `s`tring,
/// `c`ount-or-`"inf"`).
const JSON_KEYS: &[(&str, &str, char)] = &[
    ("campaign.model", "model", 's'),
    ("campaign.seed", "seed", 'i'),
    ("axes.policy", "policy", 's'),
    ("axes.raid", "raid", 's'),
    ("axes.lambda", "lambda", 'n'),
    ("axes.hep", "hep", 'n'),
    ("mc.iterations", "iterations", 'i'),
    ("mc.horizon_hours", "horizon_hours", 'n'),
    ("mc.confidence", "confidence", 'n'),
    ("mc.variance", "variance", 's'),
    ("mc.bias", "bias", 'n'),
    ("mc.levels", "levels", 'i'),
    ("mc.effort", "effort", 'i'),
    ("mc.threads", "threads", 'i'),
    ("lse.lse_rate", "lse.lse_rate", 'n'),
    ("lse.scrub_interval", "lse.scrub_interval_hours", 'n'),
    ("fleet.arrays", "fleet.arrays", 'i'),
    ("fleet.repairmen", "fleet.repairmen", 'i'),
    ("fleet.dependence", "fleet.dependence", 's'),
    ("fleet.domain_arrays", "fleet.domain_arrays", 'i'),
    ("fleet.domain_rate", "fleet.domain_rate", 'n'),
    ("fleet.failover_capacity", "fleet.failover_capacity", 'c'),
    ("fleet.failover_policy", "fleet.failover_policy", 's'),
    ("fleet.failback_rate", "fleet.failback_rate", 'n'),
];

const SOLVE: FlagTable = &[
    ("axes.lambda", "lambda"),
    ("axes.hep", "hep"),
    ("axes.raid", "raid"),
    ("axes.policy", "policy"),
];

const VALIDATE: FlagTable = &[
    ("axes.lambda", "lambda"),
    ("axes.hep", "hep"),
    ("mc.iterations", "iterations"),
    ("campaign.seed", "seed"),
    ("mc.threads", "threads"),
    ("mc.variance", "variance"),
    ("mc.bias", "bias"),
    ("mc.levels", "levels"),
    ("mc.effort", "effort"),
    ("lse.lse_rate", "lse-rate"),
    ("lse.scrub_interval", "scrub-interval"),
    ("telemetry.metrics", "metrics"),
    ("telemetry.format", "metrics-format"),
];

const FLEET: FlagTable = &[
    ("fleet.arrays", "arrays"),
    ("axes.raid", "raid"),
    ("axes.lambda", "lambda"),
    ("axes.hep", "hep"),
    ("mc.iterations", "iterations"),
    ("mc.horizon_hours", "horizon"),
    ("campaign.seed", "seed"),
    ("mc.threads", "threads"),
    ("fleet.repairmen", "repairmen"),
    ("fleet.dependence", "dependence"),
    ("fleet.domain_arrays", "domain-arrays"),
    ("fleet.domain_rate", "domain-rate"),
    ("fleet.failover_capacity", "failover-capacity"),
    ("fleet.failover_policy", "failover-policy"),
    ("fleet.failback_rate", "failback-rate"),
    ("lse.lse_rate", "lse-rate"),
    ("lse.scrub_interval", "scrub-interval"),
    ("telemetry.metrics", "metrics"),
    ("telemetry.format", "metrics-format"),
];

fn pairs(row: &Row) -> Vec<(&'static str, &'static str)> {
    row.pairs
        .split_whitespace()
        .map(|p| p.split_once('=').expect("key=value"))
        .collect()
}

/// The campaign spec of a row, plus the line each key landed on.
fn spec_door(pairs: &[(&str, &str)]) -> (String, Vec<(String, usize)>) {
    let mut lines = Vec::new();
    let mut at = Vec::new();
    for section in ["campaign", "axes", "mc", "fleet", "lse", "telemetry"] {
        let keys: Vec<_> = pairs
            .iter()
            .filter(|(k, _)| k.split_once('.').unwrap().0 == section)
            .collect();
        if section == "campaign" || !keys.is_empty() {
            lines.push(format!("[{section}]"));
        }
        for (key, value) in keys {
            lines.push(format!("{} = {value}", key.split_once('.').unwrap().1));
            at.push((key.to_string(), lines.len()));
        }
    }
    (lines.join("\n") + "\n", at)
}

/// The serve query of a row, or `None` when a key has no JSON spelling or
/// a value JSON cannot carry (wrong JSON types are the walker's own 400s,
/// tested below).
fn json_door(pairs: &[(&str, &str)]) -> Option<String> {
    let mut top = Vec::new();
    let mut nested: Vec<(&str, Vec<String>)> = vec![("lse", Vec::new()), ("fleet", Vec::new())];
    for &(key, value) in pairs {
        let &(_, path, wire) = JSON_KEYS.iter().find(|(k, ..)| *k == key)?;
        let text = match wire {
            's' => format!("\"{value}\""),
            'c' if value == "inf" => "\"inf\"".to_string(),
            'i' | 'c' => value.parse::<u64>().ok()?.to_string(),
            _ => value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())?
                .to_string(),
        };
        match path.split_once('.') {
            Some((object, field)) => nested
                .iter_mut()
                .find(|(o, _)| *o == object)?
                .1
                .push(format!("\"{field}\": {text}")),
            None => top.push(format!("\"{path}\": {text}")),
        }
    }
    for (object, fields) in nested.into_iter().filter(|(_, f)| !f.is_empty()) {
        top.push(format!("\"{object}\": {{{}}}", fields.join(", ")));
    }
    Some(format!("{{{}}}", top.join(", ")))
}

/// The CLI command that takes every key of a row: `fleet` for fleet rows
/// (which must name `fleet.arrays`, as the command always supplies one),
/// `validate` for other Monte-Carlo rows, `solve` for exact Fig. 2/3 rows.
fn cli_door(pairs: &[(&str, &str)]) -> Option<(Vec<String>, FlagTable)> {
    let model = pairs
        .iter()
        .find(|(k, _)| *k == "campaign.model")
        .map_or("markov-conventional", |(_, v)| v);
    let fleet = pairs.iter().any(|(k, _)| k.starts_with("fleet."));
    let (command, table) = match model {
        "mc" if fleet => {
            pairs.iter().find(|(k, _)| *k == "fleet.arrays")?;
            ("fleet", FLEET)
        }
        "mc" => ("validate", VALIDATE),
        "markov-conventional" if !fleet => ("solve", SOLVE),
        _ => return None,
    };
    let mut args = vec![command.to_string()];
    for &(key, value) in pairs.iter().filter(|(k, _)| *k != "campaign.model") {
        let (_, flag) = table.iter().find(|(k, _)| *k == key)?;
        args.push(format!("--{flag}={value}"));
    }
    Some((args, table))
}

fn run_cli(args: &[String]) -> (bool, String, String) {
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

fn split_origin(error: &str) -> (String, String) {
    let (origin, message) = error.split_once(": ").expect("`<origin>: <message>`");
    (origin.to_string(), message.to_string())
}

#[test]
fn every_door_gives_every_row_the_same_outcome() {
    for row in ROWS {
        let name = row.name;
        let pairs = pairs(row);
        let (spec, lines) = spec_door(&pairs);
        let json = json_door(&pairs);
        let cli = cli_door(&pairs);
        let doors: String = [("s", true), ("j", json.is_some()), ("c", cli.is_some())]
            .iter()
            .filter(|(_, on)| *on)
            .map(|(d, _)| *d)
            .collect();
        assert_eq!(doors, row.doors, "{name}: doors that express the row");

        match row.reject {
            None => {
                let s = Scenario::parse(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
                let cell = Cell::point(&s);
                let u = run_cell(&s, &cell).unwrap().unavailability;
                if let Some(body) = &json {
                    let q = Query::from_json(&Json::parse(body).unwrap())
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                    exec::validate(&q).unwrap();
                    let (answer, _) = exec::execute(&q, None).unwrap();
                    let doc = Json::parse(&answer).unwrap();
                    let served = doc.get("unavailability").unwrap().as_f64().unwrap();
                    assert_eq!(served.to_bits(), u.to_bits(), "{name}: json vs spec");
                }
                if let Some((args, _)) = &cli {
                    let (ok, stdout, stderr) = run_cli(args);
                    assert!(ok, "{name}: {stderr}");
                    let line = match estimate(&s, &cell, None).unwrap() {
                        Estimate::Exact { unavailability, .. } => {
                            format!("  unavailability : {unavailability:.6e}")
                        }
                        Estimate::Array(est) => {
                            format!("mc availability     : {}", est.availability)
                        }
                        Estimate::Fleet(est, _) => {
                            format!("  per-array availability : {}", est.availability)
                        }
                    };
                    assert!(
                        stdout.lines().any(|l| l == line),
                        "{name}: want {line:?} in\n{stdout}"
                    );
                }
            }
            Some((blamed, needle)) => {
                let mut messages = Vec::new();
                let e = Scenario::parse(&spec).expect_err(name).to_string();
                let (origin, message) = split_origin(&e);
                let line = lines.iter().find(|(k, _)| k == blamed).unwrap().1;
                assert_eq!(origin, format!("spec line {line}"), "{name}: {e}");
                messages.push(message);
                if let Some(body) = &json {
                    let e = Query::from_json(&Json::parse(body).unwrap()).expect_err(name);
                    let (origin, message) = split_origin(&e);
                    let path = JSON_KEYS.iter().find(|(k, ..)| *k == blamed).unwrap().1;
                    assert_eq!(origin, path, "{name}: {e}");
                    messages.push(message);
                }
                if let Some((args, table)) = &cli {
                    let (ok, _, stderr) = run_cli(args);
                    assert!(!ok, "{name}: the CLI accepted {args:?}");
                    let e = stderr.trim_end().strip_prefix("error: ").unwrap();
                    let (origin, message) = split_origin(e);
                    let flag = table.iter().find(|(k, _)| *k == blamed).unwrap().1;
                    assert_eq!(origin, format!("--{flag}"), "{name}: {e}");
                    messages.push(message);
                }
                assert!(messages[0].contains(needle), "{name}: {}", messages[0]);
                for m in &messages[1..] {
                    assert_eq!(m, &messages[0], "{name}: doors disagree");
                }
            }
        }
    }
}

#[test]
fn json_type_errors_stay_the_walkers_own() {
    for (body, message) in [
        (r#"{"seed": "42"}"#, "`seed` must be a non-negative integer"),
        (r#"{"lambda": "fast"}"#, "`lambda` must be a number"),
        (r#"{"model": 5}"#, "`model` must be a string"),
    ] {
        let e = Query::from_json(&Json::parse(body).unwrap()).unwrap_err();
        assert_eq!(e, message, "{body}");
    }
}

#[test]
fn an_empty_fleet_or_lse_section_is_the_same_as_none() {
    let base = "[campaign]\nmodel = mc\nseed = 3\n[mc]\niterations = 50\n";
    let plain = Scenario::parse(base).unwrap();
    let query = |extra: &str| {
        let body = format!(r#"{{"model": "mc", "seed": 3, "iterations": 50{extra}}}"#);
        Query::from_json(&Json::parse(&body).unwrap()).unwrap()
    };
    for section in ["fleet", "lse"] {
        let s = Scenario::parse(&format!("{base}[{section}]\n")).unwrap();
        assert_eq!(s, plain, "empty [{section}] section");
        let q = query(&format!(r#", "{section}": {{}}"#));
        assert_eq!(q, query(""), "empty `{section}` object");
        assert_eq!(q.to_scenario().fleet, None);
        assert_eq!(q.to_scenario().lse, None);
    }
}

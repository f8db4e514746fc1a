//! Query parsing and the canonical cache key.
//!
//! A query is one availability question: geometry, rates, policy, and —
//! for Monte-Carlo — the estimator settings and seed. Its wire format is a
//! JSON object whose keys [`Query::from_json`] type-checks and hands to the
//! campaign layer's [`ScenarioBuilder`], which owns every rule; an unknown
//! key is a `400`, not a silently different model.
//!
//! # The canonical key
//!
//! [`Query::canonical_key`] serialises exactly the fields that can change
//! an estimate bit: model, policy, geometry, λ/HEP (as `f64` bit
//! patterns), seed, iterations/horizon/confidence, the variance-reduction
//! scheme, and the `[lse]` / `[fleet]` couplings. The determinism
//! contracts make everything else — thread count, deadline — a pure
//! presentation knob, so those fields are deliberately **absent**: two
//! queries that differ only in them share one cache line and one byte-
//! identical answer.

use crate::json::Json;
use availsim_core::mc::McVariance;
use availsim_exp::spec::{
    FleetSettings, LseSettings, McSettings, ModelKind, Origin, Policy, Scenario, ScenarioBuilder,
    TelemetrySettings,
};
use availsim_storage::RaidGeometry;

/// One parsed availability query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Solver backend (`"model"`; default `markov-conventional`).
    pub model: ModelKind,
    /// Replacement discipline (`"policy"`; defaults to the model's).
    pub policy: Policy,
    /// RAID geometry (`"raid"`, e.g. `"r5-7"`).
    pub raid: RaidGeometry,
    /// Disk failure rate λ per hour (`"lambda"`).
    pub lambda: f64,
    /// Human error probability (`"hep"`).
    pub hep: f64,
    /// Monte-Carlo seed (`"seed"`; default 0, exact models ignore it).
    pub seed: u64,
    /// Monte-Carlo settings (`"iterations"`, `"variance"`, `"threads"`, …).
    pub mc: McSettings,
    /// Latent-sector-error exposure (`"lse"` object), if any.
    pub lse: Option<LseSettings>,
    /// Fleet couplings (`"fleet"` object), if any.
    pub fleet: Option<FleetSettings>,
    /// Per-request deadline in milliseconds (`"deadline_ms"`).
    /// Presentation-only: absent from the canonical key.
    pub deadline_ms: Option<u64>,
}

/// The empty query `{}`.
impl Default for Query {
    fn default() -> Self {
        Query::from_json(&Json::Obj(Vec::new())).expect("the empty query is valid")
    }
}

/// The JSON type a wire key carries (`IntOrInf`: an integer or `"inf"`).
enum Wire {
    Num,
    Int,
    Str,
    IntOrInf,
}

/// The wire vocabulary: JSON path → spec key and JSON type. Every value but
/// the request's own `deadline_ms` goes through the same [`ScenarioBuilder`]
/// as the campaign spec and the CLI flags.
const WIRE: &[(&str, &str, Wire)] = &[
    ("model", "campaign.model", Wire::Str),
    ("policy", "axes.policy", Wire::Str),
    ("raid", "axes.raid", Wire::Str),
    ("lambda", "axes.lambda", Wire::Num),
    ("hep", "axes.hep", Wire::Num),
    ("seed", "campaign.seed", Wire::Int),
    ("iterations", "mc.iterations", Wire::Int),
    ("horizon_hours", "mc.horizon_hours", Wire::Num),
    ("confidence", "mc.confidence", Wire::Num),
    ("variance", "mc.variance", Wire::Str),
    ("bias", "mc.bias", Wire::Num),
    ("levels", "mc.levels", Wire::Int),
    ("effort", "mc.effort", Wire::Int),
    ("threads", "mc.threads", Wire::Int),
    ("deadline_ms", "deadline_ms", Wire::Int),
    ("lse.lse_rate", "lse.lse_rate", Wire::Num),
    ("lse.scrub_interval_hours", "lse.scrub_interval", Wire::Num),
    ("fleet.arrays", "fleet.arrays", Wire::Int),
    ("fleet.repairmen", "fleet.repairmen", Wire::Int),
    ("fleet.dependence", "fleet.dependence", Wire::Str),
    ("fleet.domain_arrays", "fleet.domain_arrays", Wire::Int),
    ("fleet.domain_rate", "fleet.domain_rate", Wire::Num),
    (
        "fleet.failover_capacity",
        "fleet.failover_capacity",
        Wire::IntOrInf,
    ),
    ("fleet.failover_policy", "fleet.failover_policy", Wire::Str),
    ("fleet.failback_rate", "fleet.failback_rate", Wire::Num),
];

/// A [`WIRE`] value's static JSON path and spec key, and its spec text.
fn wire(path: &str, value: &Json) -> Result<(&'static str, &'static str, String), String> {
    let &(path, spec_key, ref wire) = WIRE
        .iter()
        .find(|(p, ..)| *p == path)
        .ok_or_else(|| format!("unknown key `{path}`"))?;
    let key = path.rsplit('.').next().unwrap_or_default();
    let text = match (wire, value, value.as_u64()) {
        (Wire::Num, Json::Num(v), _) => format!("{v:?}"),
        (Wire::Str, Json::Str(s), _) => s.clone(),
        (Wire::IntOrInf, Json::Str(s), _) if s == "inf" => s.clone(),
        (Wire::Int | Wire::IntOrInf, _, Some(n)) => n.to_string(),
        (Wire::Num, ..) => return Err(format!("`{key}` must be a number")),
        (Wire::Str, ..) => return Err(format!("`{key}` must be a string")),
        _ => return Err(format!("`{key}` must be a non-negative integer")),
    };
    Ok((path, spec_key, text))
}

impl Query {
    /// Parses a query from its JSON wire form (the `lse` and `fleet`
    /// objects nest one level) into a validated scenario.
    ///
    /// # Errors
    /// Unknown keys and wrong JSON types, then any rule as `<path>: <message>`.
    pub fn from_json(doc: &Json) -> Result<Query, String> {
        let entries = doc.entries().ok_or("query body must be a JSON object")?;
        let mut builder = ScenarioBuilder::new(Scenario::default());
        let mut deadline_ms = None;
        let mut feed = |path: &str, value: &Json| -> Result<(), String> {
            match wire(path, value)? {
                (_, "deadline_ms", text) => deadline_ms = text.parse().ok(),
                (path, spec_key, text) => builder
                    .set(spec_key, &text, Origin::Json(path))
                    .map_err(|e| e.to_string())?,
            }
            Ok(())
        };
        for (key, value) in entries {
            match (key.as_str(), value.entries()) {
                ("lse" | "fleet", Some(inner)) => {
                    for (k, v) in inner {
                        feed(&format!("{key}.{k}"), v)?;
                    }
                }
                ("lse" | "fleet", None) => return Err(format!("`{key}` must be an object")),
                _ if key.contains('.') => return Err(format!("unknown key `{key}`")),
                _ => feed(key, value)?,
            }
        }
        let s = builder.build().map_err(|e| e.to_string())?;
        Ok(Query {
            model: s.model,
            policy: s
                .policy
                .first()
                .copied()
                .unwrap_or(s.model.default_policy()),
            raid: s.raid[0],
            lambda: s.lambda[0],
            hep: s.hep[0],
            seed: s.seed,
            mc: s.mc,
            lse: s.lse,
            fleet: s.fleet,
            deadline_ms,
        })
    }

    /// Whether the query solves an exact CTMC (answered inline, never queued).
    pub fn is_exact(&self) -> bool {
        self.model != ModelKind::Mc
    }

    /// The one-cell scenario of this query, with engine counters on.
    pub fn to_scenario(&self) -> Scenario {
        Scenario {
            name: "serve".into(),
            seed: self.seed,
            model: self.model,
            lambda: vec![self.lambda],
            hep: vec![self.hep],
            raid: vec![self.raid],
            policy: vec![self.policy],
            mc: self.mc,
            fleet: self.fleet,
            lse: self.lse,
            telemetry: TelemetrySettings {
                metrics: Some("serve".into()),
                ..TelemetrySettings::default()
            },
            ..Scenario::default()
        }
    }

    /// Serialises every estimator-relevant field (and nothing else) into
    /// a canonical string. Floats are encoded as their IEEE-754 bit
    /// patterns, so `1e-5` and `0.00001` collide exactly when the bits do.
    pub fn canonical_key(&self) -> String {
        let f = |v: f64| format!("{:016x}", v.to_bits());
        let variance = match self.mc.variance {
            McVariance::Naive => "naive".to_string(),
            McVariance::FailureBiasing { bias } => format!("fb:{}", f(bias)),
            McVariance::Splitting { levels, effort } => format!("split:{levels}:{effort}"),
        };
        let dash = |v: Option<String>| v.unwrap_or_else(|| "-".to_string());
        let lse = dash(
            self.lse
                .map(|l| format!("{}:{}", f(l.lse_rate), f(l.scrub_interval_hours))),
        );
        let fleet = dash(self.fleet.map(|fl| {
            format!(
                "{}:{}:{}:{}:{}:{}:{}:{}",
                fl.arrays,
                dash(fl.repairmen.map(|v| v.to_string())),
                fl.dependence.name(),
                dash(fl.domain_arrays.map(|v| v.to_string())),
                dash(fl.domain_rate.map(f)),
                dash(
                    fl.failover_capacity
                        .map(|k| k.map_or("inf".into(), |k| k.to_string()))
                ),
                fl.failover_policy.as_str(),
                dash(fl.failback_rate.map(f)),
            )
        }));
        format!(
            "model={};policy={};raid={};lambda={};hep={};seed={};iter={};horizon={};conf={};var={};lse={};fleet={}",
            self.model.as_str(),
            self.policy.as_str(),
            self.raid.label(),
            f(self.lambda),
            f(self.hep),
            self.seed,
            self.mc.iterations,
            f(self.mc.horizon_hours),
            f(self.mc.confidence),
            variance,
            lse,
            fleet,
        )
    }

    /// FNV-1a 64 over the canonical key — the cache hash clients see in
    /// the response's `key` field.
    pub fn canonical_hash(&self) -> u64 {
        fnv1a(self.canonical_key().as_bytes())
    }
}

/// FNV-1a 64-bit: tiny, dependency-free, and plenty for a cache whose
/// correctness never rests on the hash (lookups compare full keys).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(doc: &str) -> Result<Query, String> {
        Query::from_json(&Json::parse(doc).map_err(|e| e.to_string())?)
    }

    #[test]
    fn parses_a_minimal_exact_query() {
        let q = parse(r#"{"raid": "r5-7", "lambda": 1e-5, "hep": 0.01}"#).unwrap();
        assert!(q.is_exact());
        assert_eq!(q.model, ModelKind::MarkovConventional);
        assert_eq!(q.policy, Policy::Conventional);
        assert_eq!(q.raid.label(), "RAID5(7+1)");
        assert_eq!(q.lambda, 1e-5);
    }

    #[test]
    fn model_defaults_its_policy_but_explicit_wins() {
        let q = parse(r#"{"model": "markov-failover"}"#).unwrap();
        assert_eq!(q.policy, Policy::Failover);
        let q = parse(r#"{"model": "mc", "policy": "failover"}"#).unwrap();
        assert_eq!(q.policy, Policy::Failover);
        assert!(!q.is_exact());
    }

    #[test]
    fn rejects_unknown_and_mistyped_keys() {
        assert!(parse(r#"{"lambda": "fast"}"#)
            .unwrap_err()
            .contains("lambda"));
        assert!(parse(r#"{"lambdaa": 1e-5}"#)
            .unwrap_err()
            .contains("lambdaa"));
        assert!(parse(r#"{"seed": -1}"#).is_err());
        assert!(parse(r#"{"raid": "r9-3"}"#).is_err());
        assert!(parse(r#"{"fleet": {"arrays": 4, "turbo": 1}}"#)
            .unwrap_err()
            .contains("fleet.turbo"));
        assert!(parse(r#"[1, 2]"#).unwrap_err().contains("object"));
    }

    #[test]
    fn variance_tuning_keys_require_their_scheme() {
        let q = parse(r#"{"model": "mc", "variance": "failure-biasing"}"#).unwrap();
        assert_eq!(
            q.mc.variance,
            McVariance::FailureBiasing {
                bias: McVariance::DEFAULT_BIAS
            }
        );
        assert!(parse(r#"{"model": "mc", "bias": 0.5}"#).is_err());
        let q = parse(r#"{"model": "mc", "variance": "splitting", "effort": 7}"#).unwrap();
        assert!(matches!(
            q.mc.variance,
            McVariance::Splitting { effort: 7, .. }
        ));
    }

    #[test]
    fn presentation_fields_do_not_touch_the_key() {
        let base = parse(r#"{"model": "mc", "raid": "r5-3", "lambda": 1e-4, "seed": 9}"#).unwrap();
        let dressed = parse(
            r#"{"model": "mc", "raid": "r5-3", "lambda": 1e-4, "seed": 9,
                "threads": 8, "deadline_ms": 250}"#,
        )
        .unwrap();
        assert_eq!(base.canonical_key(), dressed.canonical_key());
        assert_eq!(base.canonical_hash(), dressed.canonical_hash());
    }

    #[test]
    fn estimator_fields_each_move_the_key() {
        let base = parse(r#"{"model": "mc", "raid": "r5-3", "lambda": 1e-4, "seed": 9}"#).unwrap();
        for variant in [
            r#"{"model": "mc", "raid": "r5-3", "lambda": 2e-4, "seed": 9}"#,
            r#"{"model": "mc", "raid": "r5-7", "lambda": 1e-4, "seed": 9}"#,
            r#"{"model": "mc", "raid": "r5-3", "lambda": 1e-4, "seed": 10}"#,
            r#"{"model": "mc", "raid": "r5-3", "lambda": 1e-4, "seed": 9, "variance": "failure-biasing"}"#,
            r#"{"model": "mc", "raid": "r5-3", "lambda": 1e-4, "seed": 9, "lse": {"lse_rate": 1e-4, "scrub_interval_hours": 336}}"#,
            r#"{"model": "mc", "raid": "r5-3", "lambda": 1e-4, "seed": 9, "fleet": {"arrays": 4}}"#,
        ] {
            let q = parse(variant).unwrap();
            assert_ne!(base.canonical_key(), q.canonical_key(), "{variant}");
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}

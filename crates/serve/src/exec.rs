//! Query execution: one query in, one deterministic JSON body out.
//!
//! The executor reuses the campaign runner's single-cell path
//! ([`availsim_exp::run::run_cell_cancellable`]) so serve answers are
//! bit-identical to what a spec-file campaign would report for the same
//! cell — one estimator, two front doors. A tripped cancel token (request
//! deadline or server drain) surfaces as [`ExecError::Deadline`]; the
//! partial work was already discarded below, so a timed-out query has
//! exactly one observable outcome regardless of how far it got.

use crate::query::Query;
use availsim_core::CoreError;
use availsim_exp::plan::Cell;
use availsim_exp::run::run_cell_cancellable;
use availsim_exp::ExpError;
use availsim_sim::json;
use availsim_sim::parallel::CancelToken;
use availsim_sim::telemetry::CounterSnapshot;
use std::fmt::Write as _;

/// Why a query failed to produce an estimate.
#[derive(Debug)]
pub enum ExecError {
    /// The cooperative deadline tripped mid-run → `408`.
    Deadline,
    /// The engine rejected or failed the model → `500`.
    Engine(String),
}

/// Re-checks the query against the scenario rules that read values
/// (fleet requires the MC backend, live LSE rates need MC or the generic
/// chain, variance parameters must be in range, …). [`Query::from_json`]
/// already applied every rule; this guards hand-built queries.
///
/// # Errors
/// The scenario layer's message, for a `400` response.
pub fn validate(query: &Query) -> Result<(), String> {
    query.to_scenario().validate().map_err(|e| e.to_string())
}

/// Runs the query to completion (or its deadline) and renders the
/// response body. The body is a pure function of the canonical key —
/// the cache stores it verbatim.
///
/// # Errors
/// See [`ExecError`].
pub fn execute(
    query: &Query,
    cancel: Option<&CancelToken>,
) -> Result<(String, CounterSnapshot), ExecError> {
    let scenario = query.to_scenario();
    let result =
        run_cell_cancellable(&scenario, &Cell::point(&scenario), cancel).map_err(|e| match e {
            ExpError::Model {
                source: CoreError::DeadlineExpired { .. },
                ..
            } => ExecError::Deadline,
            other => ExecError::Engine(other.to_string()),
        })?;

    // Field order is fixed and every float goes through the shared number
    // writer (shortest round-trip, `null` when non-finite), so the body is
    // byte-stable: same canonical key, same bytes, forever.
    let mut body = String::with_capacity(256);
    let _ = write!(
        body,
        "{{\"key\":\"{:016x}\",\"unavailability\":{},\"nines\":{},\"downtime_min_per_year\":{}",
        query.canonical_hash(),
        json::number(result.unavailability),
        json::number(result.nines),
        json::number(result.downtime_min_per_year),
    );
    for (key, value) in [
        ("mttdl_hours", result.mttdl_hours),
        ("ci_half_width", result.ci_half_width),
        ("credited_unavailability", result.credited_unavailability),
        ("p_data_loss", result.p_data_loss),
        ("nomdl_per_tb", result.nomdl_per_tb),
    ] {
        if let Some(v) = value {
            let _ = write!(body, ",\"{key}\":{}", json::number(v));
        }
    }
    body.push('}');
    Ok((body, result.counters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::time::{Duration, Instant};

    fn query(doc: &str) -> Query {
        Query::from_json(&Json::parse(doc).unwrap()).unwrap()
    }

    #[test]
    fn exact_query_executes_and_renders_markov_fields() {
        let q = query(r#"{"raid": "r5-3", "lambda": 1e-5, "hep": 0.01}"#);
        validate(&q).unwrap();
        let (body, counters) = execute(&q, None).unwrap();
        assert!(body.starts_with("{\"key\":\""), "{body}");
        assert!(body.contains("\"unavailability\":"), "{body}");
        assert!(body.contains("\"mttdl_hours\":"), "{body}");
        assert!(!body.contains("ci_half_width"), "exact has no CI: {body}");
        let parsed = Json::parse(&body).unwrap();
        let u = parsed.get("unavailability").unwrap().as_f64().unwrap();
        assert!(u > 0.0 && u < 1.0);
        assert!(counters.is_empty(), "markov cells report no counters");
    }

    #[test]
    fn zero_outage_mc_query_renders_null_nines_as_valid_json() {
        // No outage in 100 short missions: U = 0, so nines is +inf, which
        // JSON cannot spell. The body must still parse, with `null` there.
        let q = query(
            r#"{"model": "mc", "raid": "r1", "lambda": 1e-8, "hep": 0,
                "iterations": 100, "horizon_hours": 1000, "seed": 1}"#,
        );
        let (body, _) = execute(&q, None).unwrap();
        let parsed = Json::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
        assert_eq!(parsed.get("unavailability"), Some(&Json::Num(0.0)));
        assert_eq!(parsed.get("nines"), Some(&Json::Null), "{body}");
    }

    #[test]
    fn mc_query_is_bit_reproducible_and_thread_invariant() {
        let base = r#"{"model": "mc", "raid": "r5-3", "lambda": 1e-3, "hep": 0.01,
                       "iterations": 300, "horizon_hours": 10000, "seed": 42}"#;
        let threaded = r#"{"model": "mc", "raid": "r5-3", "lambda": 1e-3, "hep": 0.01,
                           "iterations": 300, "horizon_hours": 10000, "seed": 42,
                           "threads": 4}"#;
        let (a, ca) = execute(&query(base), None).unwrap();
        let (b, _) = execute(&query(base), None).unwrap();
        let (c, _) = execute(&query(threaded), None).unwrap();
        assert_eq!(a, b, "same query, same bytes");
        assert_eq!(a, c, "threads are presentation-only");
        assert!(a.contains("\"ci_half_width\":"), "{a}");
        assert!(!ca.is_empty(), "mc answers carry engine counters");
    }

    #[test]
    fn expired_deadline_is_a_deadline_error_not_an_estimate() {
        let q = query(
            r#"{"model": "mc", "raid": "r5-3", "lambda": 1e-3, "hep": 0.01,
                "iterations": 200000, "horizon_hours": 10000}"#,
        );
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        match execute(&q, Some(&token)) {
            Err(ExecError::Deadline) => {}
            other => panic!("expected deadline, got {other:?}"),
        }
    }

    #[test]
    fn invalid_combinations_fail_validation_with_a_message() {
        // A fleet section demands the MC backend (built by hand: the JSON
        // door already rejects this body).
        let q = Query {
            fleet: Some(availsim_exp::spec::FleetSettings {
                arrays: 4,
                ..Default::default()
            }),
            ..Query::default()
        };
        let msg = validate(&q).unwrap_err();
        assert!(!msg.is_empty());
    }
}

//! Availability ↔ "number of nines" ↔ downtime conversions.
//!
//! The paper reports every result as a number of nines,
//! `nines = −log10(1 − A)`; five nines means at most ~5.3 minutes of
//! downtime a year.

use availsim_storage::HOURS_PER_YEAR;

/// Number of nines of an availability value:`−log10(1 − A)`.
///
/// Perfect availability maps to `+inf`; values below zero are clamped at 0
/// nines (an always-down system).
pub fn nines(availability: f64) -> f64 {
    if availability >= 1.0 {
        return f64::INFINITY;
    }
    if availability <= 0.0 {
        return 0.0;
    }
    -(1.0 - availability).log10()
}

/// Number of nines directly from an *unavailability* — preferred when `u`
/// is tiny, because it avoids the `1 − (1 − u)` cancellation entirely.
pub fn nines_from_unavailability(unavailability: f64) -> f64 {
    if unavailability <= 0.0 {
        return f64::INFINITY;
    }
    if unavailability >= 1.0 {
        return 0.0;
    }
    -unavailability.log10()
}

/// Expected downtime in hours per year for an unavailability.
pub fn downtime_hours_per_year(unavailability: f64) -> f64 {
    unavailability.clamp(0.0, 1.0) * HOURS_PER_YEAR
}

/// Expected downtime in minutes per year for an unavailability.
pub fn downtime_minutes_per_year(unavailability: f64) -> f64 {
    downtime_hours_per_year(unavailability) * 60.0
}

/// Formats an availability as a human-readable summary, e.g.
/// `"0.99999 (5.0 nines, 5.3 min/yr downtime)"`.
pub fn summarize(availability: f64) -> String {
    let u = (1.0 - availability).max(0.0);
    format!(
        "{availability:.9} ({:.2} nines, {:.2} min/yr downtime)",
        nines(availability),
        downtime_minutes_per_year(u)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_numbers() {
        assert!((nines(0.9) - 1.0).abs() < 1e-12);
        assert!((nines(0.999) - 3.0).abs() < 1e-9);
        assert!((nines(0.99999) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn edge_cases() {
        assert!(nines(1.0).is_infinite());
        assert_eq!(nines(0.0), 0.0);
        assert_eq!(nines(-0.5), 0.0);
        assert!(nines_from_unavailability(0.0).is_infinite());
        assert_eq!(nines_from_unavailability(1.0), 0.0);
    }

    #[test]
    fn unavailability_path_is_precise_for_tiny_u() {
        // At u = 1e-12 the availability-path hits f64 rounding; the
        // unavailability path must stay exact.
        let n = nines_from_unavailability(1e-12);
        assert!((n - 12.0).abs() < 1e-12);
    }

    #[test]
    fn roundtrips() {
        for &n in &[0.5, 1.0, 3.3, 7.0] {
            let u = 10f64.powf(-n);
            assert!((nines(1.0 - u) - n).abs() < 1e-6, "n={n}");
            assert!((nines_from_unavailability(u) - n).abs() < 1e-12);
        }
    }

    #[test]
    fn downtime_conversions() {
        // Five nines ≈ 5.26 minutes per year.
        let m = downtime_minutes_per_year(1e-5);
        assert!((m - 5.26).abs() < 0.01, "got {m}");
        // One nine = 876.6 hours per year.
        assert!((downtime_hours_per_year(0.1) - 876.6).abs() < 1e-9);
    }

    #[test]
    fn summary_format() {
        let s = summarize(0.99999);
        assert!(s.contains("nines"), "{s}");
        assert!(s.contains("min/yr"), "{s}");
    }
}

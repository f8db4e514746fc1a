//! Confidence intervals for Monte-Carlo estimators.
//!
//! The paper states that "the error of MC simulations is inversely
//! proportional to the root square of the number of iterations and the
//! t-student coefficient for a target confidence level"; this module provides
//! exactly that machinery.

use crate::error::{Result, SimError};
use crate::stats::student_t::t_critical_two_sided;
use crate::stats::welford::RunningStats;
use std::fmt;

/// A two-sided confidence interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (sample mean).
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
    /// The confidence level used, e.g. `0.99`.
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Lower endpoint.
    pub fn lower(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper endpoint.
    pub fn upper(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lower() && x <= self.upper()
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.6e} ± {:.3e} ({:.1}% CI)",
            self.mean,
            self.half_width,
            self.confidence * 100.0
        )
    }
}

/// Builds a t-based confidence interval from accumulated statistics.
///
/// # Errors
/// Returns [`SimError::InsufficientData`] with fewer than two observations
/// and [`SimError::InvalidProbability`] for a confidence outside `(0, 1)`.
pub fn t_interval(stats: &RunningStats, confidence: f64) -> Result<ConfidenceInterval> {
    if stats.count() < 2 {
        return Err(SimError::InsufficientData {
            needed: 2,
            available: stats.count() as usize,
        });
    }
    if confidence <= 0.0 || confidence >= 1.0 {
        return Err(SimError::InvalidProbability(confidence));
    }
    let df = (stats.count() - 1) as f64;
    let t = t_critical_two_sided(confidence, df)?;
    Ok(ConfidenceInterval {
        mean: stats.mean(),
        half_width: t * stats.standard_error(),
        confidence,
    })
}

/// Builds a normal-approximation interval for a binomial proportion
/// (Wilson score interval, which behaves sanely for rare events).
///
/// # Errors
/// Returns [`SimError::InsufficientData`] for zero trials and
/// [`SimError::InvalidProbability`] for a confidence outside `(0, 1)`.
pub fn wilson_interval(successes: u64, trials: u64, confidence: f64) -> Result<ConfidenceInterval> {
    if trials == 0 {
        return Err(SimError::InsufficientData {
            needed: 1,
            available: 0,
        });
    }
    if confidence <= 0.0 || confidence >= 1.0 {
        return Err(SimError::InvalidProbability(confidence));
    }
    let z = crate::stats::special::normal_quantile(0.5 + confidence / 2.0)?;
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z * ((p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt() / denom;
    Ok(ConfidenceInterval {
        mean: center,
        half_width: half,
        confidence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn stats_from(data: &[f64]) -> RunningStats {
        let mut s = RunningStats::new();
        for &x in data {
            s.push(x);
        }
        s
    }

    #[test]
    fn interval_accessors() {
        let ci = ConfidenceInterval {
            mean: 10.0,
            half_width: 2.0,
            confidence: 0.95,
        };
        assert_eq!(ci.lower(), 8.0);
        assert_eq!(ci.upper(), 12.0);
        assert!(ci.contains(9.0));
        assert!(!ci.contains(12.5));
        assert!(ci.to_string().contains("95.0%"));
    }

    #[test]
    fn t_interval_known_case() {
        // Data with mean 5, sd 1, n=4 -> half width = t(0.975, 3) * 0.5.
        let s = stats_from(&[4.0, 5.0, 5.0, 6.0]);
        let ci = t_interval(&s, 0.95).unwrap();
        let t = 3.182_446_305_284_263; // t(0.975, df=3)
        let expected_hw = t * (2.0f64 / 3.0).sqrt() / 2.0;
        assert!((ci.mean - 5.0).abs() < 1e-12);
        assert!((ci.half_width - expected_hw).abs() < 1e-6);
    }

    #[test]
    fn t_interval_requires_two_points() {
        let s = stats_from(&[1.0]);
        assert!(t_interval(&s, 0.95).is_err());
    }

    #[test]
    fn coverage_of_t_interval_is_nominal() {
        // Repeatedly estimate the mean of a uniform(0,1); ~95% of intervals
        // should contain 0.5.
        let mut rng = SimRng::seed_from(2024);
        let mut covered = 0;
        let reps = 1_000;
        for _ in 0..reps {
            let mut s = RunningStats::new();
            for _ in 0..30 {
                s.push(rng.next_f64());
            }
            if t_interval(&s, 0.95).unwrap().contains(0.5) {
                covered += 1;
            }
        }
        let rate = covered as f64 / reps as f64;
        assert!((rate - 0.95).abs() < 0.03, "coverage {rate}");
    }

    #[test]
    fn wilson_handles_zero_successes() {
        let ci = wilson_interval(0, 1_000, 0.99).unwrap();
        assert!(ci.lower() >= 0.0);
        assert!(ci.upper() > 0.0 && ci.upper() < 0.02);
    }

    #[test]
    fn wilson_is_symmetric_for_half() {
        let ci = wilson_interval(500, 1_000, 0.95).unwrap();
        assert!((ci.mean - 0.5).abs() < 1e-12);
    }
}

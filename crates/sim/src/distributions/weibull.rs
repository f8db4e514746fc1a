//! Weibull distribution — the field-realistic disk lifetime model.
//!
//! Schroeder & Gibson (FAST'07) report that disk replacement inter-arrivals
//! are better described by a Weibull with shape `β ∈ [1.0, 1.5]` (increasing
//! hazard) than by the exponential that Markov models assume. The paper's
//! Fig. 5 sweeps four such fits; [`Weibull::from_rate_shape`] accepts the
//! paper's "(failure rate, beta)" parameterization where the characteristic
//! life is the reciprocal of the quoted rate.

use super::Lifetime;
use crate::error::{Result, SimError};
use crate::rng::SimRng;
use crate::stats::special::ln_gamma;

/// Weibull distribution with scale `η` (characteristic life) and shape `β`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    scale: f64,
    shape: f64,
}

impl Weibull {
    /// Creates the distribution from scale (characteristic life) and shape.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidParameter`] unless both are positive and
    /// finite.
    pub fn new(scale: f64, shape: f64) -> Result<Self> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(SimError::InvalidParameter {
                name: "scale",
                value: scale,
                constraint: "scale must be positive and finite",
            });
        }
        if !(shape.is_finite() && shape > 0.0) {
            return Err(SimError::InvalidParameter {
                name: "shape",
                value: shape,
                constraint: "shape must be positive and finite",
            });
        }
        Ok(Weibull { scale, shape })
    }

    /// Creates the distribution from the paper's `(rate, beta)` pairs:
    /// `η = 1/rate`, `β = shape`.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidParameter`] for non-positive parameters.
    pub fn from_rate_shape(rate: f64, shape: f64) -> Result<Self> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(SimError::InvalidParameter {
                name: "rate",
                value: rate,
                constraint: "rate must be positive and finite",
            });
        }
        Weibull::new(1.0 / rate, shape)
    }

    /// Scale parameter `η`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Shape parameter `β`.
    pub fn shape(&self) -> f64 {
        self.shape
    }
}

impl Lifetime for Weibull {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse CDF: η · (−ln U)^{1/β}.
        self.scale * (-rng.next_open_f64().ln()).powf(1.0 / self.shape)
    }

    fn mean(&self) -> f64 {
        self.scale * (ln_gamma(1.0 + 1.0 / self.shape)).exp()
    }

    fn variance(&self) -> f64 {
        let g2 = ln_gamma(1.0 + 2.0 / self.shape).exp();
        let g1 = ln_gamma(1.0 + 1.0 / self.shape).exp();
        self.scale * self.scale * (g2 - g1 * g1)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-(x / self.scale).powf(self.shape)).exp_m1()
        }
    }

    fn quantile(&self, p: f64) -> Result<f64> {
        if p <= 0.0 || p >= 1.0 {
            return Err(SimError::InvalidProbability(p));
        }
        Ok(self.scale * (-(-p).ln_1p()).powf(1.0 / self.shape))
    }

    fn name(&self) -> String {
        format!("Weibull(scale={}, shape={})", self.scale, self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::check_distribution;
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(1.0, 0.0).is_err());
        assert!(Weibull::new(-1.0, 1.0).is_err());
        assert!(Weibull::new(1.0, f64::INFINITY).is_err());
        assert!(Weibull::from_rate_shape(0.0, 1.0).is_err());
    }

    #[test]
    fn shape_one_is_exponential() {
        let w = Weibull::new(10.0, 1.0).unwrap();
        assert!((w.mean() - 10.0).abs() < 1e-10);
        // CDF matches exponential with rate 1/10.
        for &x in &[1.0, 5.0, 20.0] {
            let expect = 1.0 - (-x / 10.0f64).exp();
            assert!((w.cdf(x) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn moments_and_quantiles() {
        let w = Weibull::new(5.0, 1.5).unwrap();
        check_distribution(&w, 1234, 200_000, 0.01);
    }

    #[test]
    fn paper_parameterization() {
        // Paper Fig. 5 fits: (rate, beta) with η = 1/rate.
        let w = Weibull::from_rate_shape(1.25e-6, 1.09).unwrap();
        assert!((w.scale() - 8e5).abs() < 1.0);
        assert!((w.shape() - 1.09).abs() < 1e-12);
    }

    #[test]
    fn weibull_mean_formula() {
        // mean = η Γ(1 + 1/β); for β=2, Γ(1.5) = √π/2.
        let w = Weibull::new(3.0, 2.0).unwrap();
        let expect = 3.0 * std::f64::consts::PI.sqrt() / 2.0;
        assert!((w.mean() - expect).abs() < 1e-10);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let w = Weibull::new(7.0, 1.21).unwrap();
        for &p in &[0.001, 0.37, 0.632, 0.99] {
            let x = w.quantile(p).unwrap();
            assert!((w.cdf(x) - p).abs() < 1e-12);
        }
        // Characteristic life: CDF(η) = 1 − 1/e.
        assert!((w.cdf(7.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }
}

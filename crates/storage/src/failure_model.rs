//! Per-disk failure models, including the field-data Weibull fits the paper
//! evaluates against.
//!
//! Since the real field traces (Schroeder & Gibson, FAST'07) are not
//! redistributable, this module carries the *fitted parameters* that the
//! paper itself uses (Fig. 5 legend): four `(failure rate, Weibull shape)`
//! pairs with the characteristic life taken as the reciprocal of the rate.
//! This is the substitution documented in DESIGN.md §6 — the paper consumes
//! only these fits, never the raw traces.

use crate::error::{Result, StorageError};
use availsim_sim::distributions::{Exponential, Lifetime, Weibull};
use availsim_sim::rng::SimRng;

/// The four `(rate per hour, Weibull shape β)` field fits from the paper's
/// Fig. 5 legend.
pub const SCHROEDER_GIBSON_FITS: [(f64, f64); 4] = [
    (1.25e-6, 1.09),
    (2.17e-6, 1.12),
    (7.96e-6, 1.21),
    (2.00e-5, 1.48),
];

/// A disk time-to-failure model.
#[derive(Debug)]
pub enum FailureModel {
    /// Constant hazard `λ` (Markov-compatible).
    Exponential(Exponential),
    /// Weibull hazard (field-realistic; β > 1 models wear-out).
    Weibull(Weibull),
}

impl FailureModel {
    /// Constant-rate model.
    ///
    /// # Errors
    /// Returns [`StorageError::InvalidConfig`] for a non-positive rate.
    pub fn exponential(rate: f64) -> Result<Self> {
        Exponential::new(rate)
            .map(FailureModel::Exponential)
            .map_err(|e| StorageError::InvalidConfig(e.to_string()))
    }

    /// Weibull model in the paper's `(rate, shape)` parameterization
    /// (`η = 1/rate`).
    ///
    /// # Errors
    /// Returns [`StorageError::InvalidConfig`] for non-positive parameters.
    pub fn weibull(rate: f64, shape: f64) -> Result<Self> {
        Weibull::from_rate_shape(rate, shape)
            .map(FailureModel::Weibull)
            .map_err(|e| StorageError::InvalidConfig(e.to_string()))
    }

    /// Samples a time to failure (hours).
    pub fn sample_ttf(&self, rng: &mut SimRng) -> f64 {
        match self {
            FailureModel::Exponential(d) => d.sample(rng),
            FailureModel::Weibull(d) => d.sample(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_model_roundtrip() {
        let m = FailureModel::exponential(1e-6).unwrap();
        let FailureModel::Exponential(d) = &m else {
            panic!("an exponential model: {m:?}");
        };
        assert_eq!(d.rate(), 1e-6);
        assert!((d.mean() - 1e6).abs() < 1e-3);
    }

    #[test]
    fn weibull_model_uses_reciprocal_scale() {
        let m = FailureModel::weibull(2e-5, 1.48).unwrap();
        let FailureModel::Weibull(w) = &m else {
            panic!("a Weibull model: {m:?}");
        };
        assert!((w.scale() - 5e4).abs() < 1e-6);
        // For β > 1 the mean is below the characteristic life.
        assert!(w.mean() < 5e4);
    }

    #[test]
    fn all_field_fits_construct() {
        for (rate, shape) in SCHROEDER_GIBSON_FITS {
            let m = FailureModel::weibull(rate, shape).unwrap();
            assert!(matches!(m, FailureModel::Weibull(w) if w.mean() > 0.0));
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(FailureModel::exponential(0.0).is_err());
        assert!(FailureModel::weibull(-1.0, 1.0).is_err());
        assert!(FailureModel::weibull(1e-6, 0.0).is_err());
    }

    #[test]
    fn samples_are_positive() {
        let (rate, shape) = SCHROEDER_GIBSON_FITS[0];
        let m = FailureModel::weibull(rate, shape).unwrap();
        let mut rng = SimRng::seed_from(5);
        for _ in 0..100 {
            assert!(m.sample_ttf(&mut rng) > 0.0);
        }
    }
}

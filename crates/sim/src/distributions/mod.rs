//! Lifetime distributions for failure and repair processes.
//!
//! Every distribution implements [`Lifetime`], which exposes exact
//! inverse-CDF sampling (where available), the CDF, the quantile function,
//! and moments. The set is what the paper needs: exponential for the
//! Markov-comparable runs and Weibull for the field-data runs (Schroeder &
//! Gibson, FAST'07).

mod exponential;
mod weibull;

pub use exponential::Exponential;
pub use weibull::Weibull;

use crate::error::Result;
use crate::rng::SimRng;
use std::fmt;

/// A nonnegative continuous distribution modeling a time-to-event.
///
/// Implementors must return samples in `[0, ∞)`.
pub trait Lifetime: fmt::Debug + Send + Sync {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The mean of the distribution.
    fn mean(&self) -> f64;

    /// The variance of the distribution.
    fn variance(&self) -> f64;

    /// Cumulative distribution function `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile function (inverse CDF) for `p ∈ (0, 1)`.
    ///
    /// # Errors
    /// Returns [`crate::SimError::InvalidProbability`] for `p` outside `(0,1)`.
    fn quantile(&self, p: f64) -> Result<f64>;

    /// A human-readable name for reports.
    fn name(&self) -> String;
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Shared sanity harness: sampled moments track analytic moments and the
    /// quantile function inverts the CDF.
    pub fn check_distribution(dist: &dyn Lifetime, seed: u64, n: usize, rel_tol: f64) {
        let mut rng = SimRng::seed_from(seed);
        let samples: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        assert!(
            samples.iter().all(|&x| x >= 0.0 && x.is_finite()),
            "negative/NaN sample"
        );

        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let expect = dist.mean();
        let tol = rel_tol * expect.max(1e-12) + 4.0 * (dist.variance() / n as f64).sqrt();
        assert!(
            (mean - expect).abs() < tol,
            "{}: sample mean {mean} vs analytic {expect} (tol {tol})",
            dist.name()
        );

        for &p in &[0.05, 0.25, 0.5, 0.75, 0.95] {
            let x = dist.quantile(p).unwrap();
            let c = dist.cdf(x);
            assert!((c - p).abs() < 1e-6, "{}: cdf(q({p})) = {c}", dist.name());
        }
        assert!(dist.quantile(0.0).is_err());
        assert!(dist.quantile(1.0).is_err());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_objects_are_usable() {
        let dists: Vec<Box<dyn Lifetime>> = vec![
            Box::new(Exponential::new(0.5).unwrap()),
            Box::new(Weibull::new(2.0, 1.5).unwrap()),
        ];
        let mut rng = SimRng::seed_from(1);
        for d in &dists {
            let x = d.sample(&mut rng);
            assert!(x >= 0.0);
            assert!(!d.name().is_empty());
        }
    }
}

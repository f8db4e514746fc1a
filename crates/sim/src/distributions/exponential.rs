//! Exponential distribution — the memoryless workhorse of Markov-comparable
//! simulation.

use super::Lifetime;
use crate::error::{Result, SimError};
use crate::rng::SimRng;

/// Exponential distribution with rate `λ` (mean `1/λ`).
///
/// # Examples
///
/// ```
/// use availsim_sim::distributions::{Exponential, Lifetime};
///
/// # fn main() -> Result<(), availsim_sim::SimError> {
/// let d = Exponential::new(0.1)?; // mean 10 hours
/// assert!((d.mean() - 10.0).abs() < 1e-12);
/// assert!((d.cdf(10.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
    /// Cached `1/rate`: sampling multiplies instead of dividing.
    inv_rate: f64,
}

impl Exponential {
    /// Creates the distribution from its rate.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidParameter`] unless `rate` is positive and
    /// finite.
    pub fn new(rate: f64) -> Result<Self> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(SimError::InvalidParameter {
                name: "rate",
                value: rate,
                constraint: "rate must be positive and finite",
            });
        }
        Ok(Exponential {
            rate,
            inv_rate: rate.recip(),
        })
    }

    /// The rate `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Lifetime for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse CDF on an open uniform avoids ln(0); the division by
        // the rate is a cached-reciprocal multiply (hot path).
        -rng.next_open_f64().ln() * self.inv_rate
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-self.rate * x).exp_m1()
        }
    }

    fn quantile(&self, p: f64) -> Result<f64> {
        if p <= 0.0 || p >= 1.0 {
            return Err(SimError::InvalidProbability(p));
        }
        Ok(-(-p).ln_1p() / self.rate)
    }

    fn name(&self) -> String {
        format!("Exponential(rate={})", self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::check_distribution;
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
    }

    #[test]
    fn moments_and_quantiles() {
        let d = Exponential::new(0.25).unwrap();
        check_distribution(&d, 42, 200_000, 0.01);
    }

    #[test]
    fn median_is_ln2_over_rate() {
        let d = Exponential::new(2.0).unwrap();
        let m = d.quantile(0.5).unwrap();
        assert!((m - std::f64::consts::LN_2 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn memorylessness_in_samples() {
        // P(X > s + t | X > s) = P(X > t): compare conditional tail counts.
        let d = Exponential::new(1.0).unwrap();
        let mut rng = SimRng::seed_from(9);
        let n = 400_000;
        let (mut beyond_s, mut beyond_st) = (0usize, 0usize);
        let (s, t) = (0.5, 0.7);
        let mut beyond_t = 0usize;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            if x > s {
                beyond_s += 1;
                if x > s + t {
                    beyond_st += 1;
                }
            }
            if x > t {
                beyond_t += 1;
            }
        }
        let conditional = beyond_st as f64 / beyond_s as f64;
        let unconditional = beyond_t as f64 / n as f64;
        assert!((conditional - unconditional).abs() < 0.01);
    }

    #[test]
    fn tiny_rates_sample_large_but_finite() {
        let d = Exponential::new(1e-7).unwrap();
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!(x.is_finite() && x >= 0.0);
        }
    }
}

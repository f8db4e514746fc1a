//! Human Error Probability (hep) — the central HRA quantity.
//!
//! Per the paper (Section II-A): "hep … is simply defined by the fraction of
//! error cases observed, over the opportunities for human errors", with
//! typical values between 0.001 and 0.1, narrowing to 0.001–0.01 in
//! enterprise and safety-critical settings.

use crate::error::{HraError, Result};
use std::fmt;

/// A validated human-error probability in `[0, 1]`.
///
/// `hep = 0` is allowed: it encodes the *traditional* availability model that
/// ignores human error, which the paper uses as its baseline.
///
/// # Examples
///
/// ```
/// use availsim_hra::Hep;
///
/// # fn main() -> Result<(), availsim_hra::HraError> {
/// let hep = Hep::new(0.001)?;
/// assert_eq!(hep.value(), 0.001);
/// assert!(Hep::new(1.5).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Hep(f64);

impl Hep {
    /// The hep = 0 baseline (no human error considered).
    pub const ZERO: Hep = Hep(0.0);

    /// Creates a validated hep.
    ///
    /// # Errors
    /// Returns [`HraError::InvalidProbability`] outside `[0, 1]`.
    pub fn new(p: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(HraError::InvalidProbability(p));
        }
        Ok(Hep(p))
    }

    /// The probability value.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Hep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hep={}", self.0)
    }
}

impl TryFrom<f64> for Hep {
    type Error = HraError;

    fn try_from(p: f64) -> Result<Self> {
        Hep::new(p)
    }
}

impl From<Hep> for f64 {
    fn from(h: Hep) -> f64 {
        h.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Hep::new(0.0).is_ok());
        assert!(Hep::new(1.0).is_ok());
        assert!(Hep::new(-0.1).is_err());
        assert!(Hep::new(1.1).is_err());
        assert!(Hep::new(f64::NAN).is_err());
    }

    #[test]
    fn conversions() {
        let h: Hep = 0.02f64.try_into().unwrap();
        let back: f64 = h.into();
        assert_eq!(back, 0.02);
        assert_eq!(h.to_string(), "hep=0.02");
    }
}

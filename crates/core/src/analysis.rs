//! Headline analyses: downtime underestimation when human error is ignored,
//! and the conventional-vs-fail-over policy comparison.

use crate::error::Result;
use crate::markov::{Raid5Conventional, Raid5FailOver};
use crate::nines;
use crate::params::ModelParams;
use availsim_hra::Hep;

/// How much the traditional (hep = 0) model underestimates downtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Underestimation {
    /// Disk failure rate λ at which the factor was computed.
    pub disk_failure_rate: f64,
    /// Unavailability with human error included.
    pub with_hep: f64,
    /// Unavailability of the traditional model (hep = 0).
    pub without_hep: f64,
}

impl Underestimation {
    /// The underestimation factor `U(hep)/U(0)` — the paper's "up to 263X".
    pub fn factor(&self) -> f64 {
        self.with_hep / self.without_hep
    }
}

/// Computes the underestimation at one operating point.
///
/// # Errors
/// Propagates model errors.
pub fn underestimation(params: ModelParams) -> Result<Underestimation> {
    let with_hep = Raid5Conventional::new(params)?.solve()?.unavailability();
    let without_hep = Raid5Conventional::new(params.with_hep(Hep::ZERO))?
        .solve()?
        .unavailability();
    Ok(Underestimation {
        disk_failure_rate: params.disk_failure_rate,
        with_hep,
        without_hep,
    })
}

/// Sweeps the underestimation factor over failure rates; returns all points
/// plus the maximum factor, reproducing the paper's §I claim.
///
/// # Errors
/// Propagates model errors.
pub fn underestimation_sweep(
    base: ModelParams,
    failure_rates: &[f64],
) -> Result<(Vec<Underestimation>, f64)> {
    let mut rows = Vec::with_capacity(failure_rates.len());
    let mut max = 0.0f64;
    for &lam in failure_rates {
        let row = underestimation(base.with_failure_rate(lam)?)?;
        max = max.max(row.factor());
        rows.push(row);
    }
    Ok((rows, max))
}

/// Conventional vs automatic fail-over at one operating point (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyComparison {
    /// Human-error probability used.
    pub hep: f64,
    /// Unavailability under conventional replacement.
    pub conventional: f64,
    /// Unavailability under automatic fail-over (delayed replacement).
    pub failover: f64,
}

impl PolicyComparison {
    /// Availability improvement factor `U_conv / U_failover`.
    pub fn improvement(&self) -> f64 {
        self.conventional / self.failover
    }

    /// Nines under the conventional policy.
    pub fn conventional_nines(&self) -> f64 {
        nines::nines_from_unavailability(self.conventional)
    }

    /// Nines under the fail-over policy.
    pub fn failover_nines(&self) -> f64 {
        nines::nines_from_unavailability(self.failover)
    }
}

/// Compares the two policies at one operating point.
///
/// # Errors
/// Propagates model errors.
pub fn compare_policies(params: ModelParams) -> Result<PolicyComparison> {
    let conventional = Raid5Conventional::new(params)?.solve()?.unavailability();
    let failover = Raid5FailOver::new(params)?.solve()?.unavailability();
    Ok(PolicyComparison {
        hep: params.hep.value(),
        conventional,
        failover,
    })
}

/// The Fig. 7 sweep: both policies at `hep ∈ {0, 0.001, 0.01}`.
///
/// # Errors
/// Propagates model errors.
pub fn fig7_policy_sweep(base: ModelParams) -> Result<Vec<PolicyComparison>> {
    [0.0, 0.001, 0.01]
        .iter()
        .map(|&h| compare_policies(base.with_hep(Hep::new(h)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(hep: f64) -> ModelParams {
        ModelParams::raid5_3plus1(1e-6, Hep::new(hep).unwrap()).unwrap()
    }

    #[test]
    fn underestimation_factor_exceeds_one() {
        let u = underestimation(base(0.001)).unwrap();
        assert!(u.factor() > 1.0);
        assert!(u.with_hep > u.without_hep);
    }

    #[test]
    fn sweep_reproduces_the_263x_headline() {
        // Fig. 4's λ grid: 5e-7 .. 5.5e-6. The maximum underestimation at
        // hep = 0.01 lands in the paper's 263X band at the low-λ end.
        let rates: Vec<f64> = (1..=11).map(|i| i as f64 * 5e-7).collect();
        let (rows, max) = underestimation_sweep(base(0.01), &rates).unwrap();
        assert_eq!(rows.len(), 11);
        assert!(max > 200.0 && max < 320.0, "max factor {max}");
        // The factor is monotonically decreasing in λ.
        for w in rows.windows(2) {
            assert!(w[0].factor() >= w[1].factor());
        }
    }

    #[test]
    fn policy_comparison_matches_paper_claims() {
        // §V-D: fail-over recovers about two orders of magnitude at
        // hep = 0.01.
        let rows = fig7_policy_sweep(base(0.0)).unwrap();
        assert_eq!(rows.len(), 3);
        assert!((rows[0].hep - 0.0).abs() < 1e-12);
        // At hep = 0 the two policies are within a small factor.
        assert!(rows[0].improvement() < 5.0);
        // Improvement grows with hep.
        assert!(rows[1].improvement() > rows[0].improvement());
        assert!(rows[2].improvement() > rows[1].improvement());
        // Two orders of magnitude at hep = 0.01.
        assert!(
            rows[2].improvement() > 50.0 && rows[2].improvement() < 500.0,
            "improvement {}",
            rows[2].improvement()
        );
    }

    #[test]
    fn nines_accessors_are_consistent() {
        let c = compare_policies(base(0.01)).unwrap();
        assert!(c.failover_nines() > c.conventional_nines());
    }
}

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

/// Expected yearly operating cost of one array under the conventional
/// policy: outage penalties (per down hour) plus service-call costs (per
/// technician dispatch, i.e. each time the array leaves `OP` or a recovery
/// action fires) — a Markov-reward view of the paper's model.
///
/// # Errors
/// Propagates model errors; costs must be nonnegative and finite.
pub fn annual_cost_conventional(
    params: ModelParams,
    cost_per_down_hour: f64,
    cost_per_service_action: f64,
) -> Result<f64> {
    let valid_cost = |c: f64| c.is_finite() && c >= 0.0;
    if !valid_cost(cost_per_down_hour) || !valid_cost(cost_per_service_action) {
        return Err(crate::error::CoreError::InvalidParameter(
            "costs must be nonnegative and finite".into(),
        ));
    }
    use availsim_ctmc::RewardModel;
    let def = Raid5Conventional::new(params)?.chain();
    let chain = def.build()?;
    let mut rewards = RewardModel::zero(&chain);
    for s in def.state_ids(&chain, |c| !c.is_up()) {
        rewards
            .rate_reward(s, cost_per_down_hour)
            .map_err(crate::error::CoreError::from)?;
    }
    // Each completed service transition is one technician dispatch.
    let op = chain.find_state("OP").expect("state exists");
    let exp = chain.find_state("EXP").expect("state exists");
    let du = chain.find_state("DU").expect("state exists");
    let dl = chain.find_state("DL").expect("state exists");
    for (from, to) in [(exp, op), (exp, du), (du, op), (dl, op)] {
        // Edges vanish when their rate is zero (e.g. EXP→DU at hep = 0);
        // a missing edge simply contributes no dispatches.
        match rewards.impulse_reward(from, to, cost_per_service_action) {
            Ok(_) => {}
            Err(availsim_ctmc::CtmcError::UnknownState(_)) => {}
            Err(e) => return Err(crate::error::CoreError::from(e)),
        }
    }
    let hourly = chain
        .long_run_reward_rate(&rewards)
        .map_err(crate::error::CoreError::from)?;
    Ok(hourly * availsim_storage::HOURS_PER_YEAR)
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

    #[test]
    fn annual_cost_combines_downtime_and_dispatches() {
        // Pure outage pricing: cost ≈ U · hours/yr · rate.
        let p = base(0.01);
        let outage_only = annual_cost_conventional(p, 1_000.0, 0.0).unwrap();
        let u = Raid5Conventional::new(p)
            .unwrap()
            .solve()
            .unwrap()
            .unavailability();
        let expect = u * availsim_storage::HOURS_PER_YEAR * 1_000.0;
        assert!((outage_only - expect).abs() / expect < 1e-9);

        // Dispatch pricing: one dispatch per failure (n·λ per hour) plus the
        // extra wrong-pull + recovery dispatches that hep = 0.01 adds (~9%).
        let dispatch_only = annual_cost_conventional(p, 0.0, 500.0).unwrap();
        let per_year = 4.0 * 1e-6 * availsim_storage::HOURS_PER_YEAR;
        let ratio = dispatch_only / (per_year * 500.0);
        assert!(ratio > 1.0 && ratio < 1.2, "dispatch ratio {ratio}");

        // Combined is the sum.
        let both = annual_cost_conventional(p, 1_000.0, 500.0).unwrap();
        assert!((both - outage_only - dispatch_only).abs() < 1e-9);
    }

    #[test]
    fn annual_cost_handles_hep_zero_chain() {
        // At hep = 0 the EXP→DU edge does not exist; costing must not error.
        let cost = annual_cost_conventional(base(0.0), 1_000.0, 500.0).unwrap();
        assert!(cost > 0.0);
    }

    #[test]
    fn annual_cost_validates_inputs() {
        assert!(annual_cost_conventional(base(0.01), -1.0, 0.0).is_err());
        assert!(annual_cost_conventional(base(0.01), 0.0, f64::NAN).is_err());
    }

    #[test]
    fn human_error_raises_the_bill() {
        let clean = annual_cost_conventional(base(0.0), 10_000.0, 200.0).unwrap();
        let dirty = annual_cost_conventional(base(0.01), 10_000.0, 200.0).unwrap();
        assert!(dirty > clean, "{dirty} vs {clean}");
    }
}

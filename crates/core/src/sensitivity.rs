//! Finite-difference sensitivity analysis of the availability models.
//!
//! For each model parameter θ, reports the elasticity of the unavailability:
//! `(ΔU/U) / (Δθ/θ)` — how many percent U moves per percent change in θ.
//! Positive elasticity means increasing the parameter hurts availability.

use crate::error::Result;
use crate::markov::{ChainDef, Raid5Conventional, Raid5FailOver};
use crate::params::ModelParams;
use availsim_hra::Hep;

/// Elasticity of unavailability with respect to one parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Sensitivity {
    /// Parameter name (paper notation).
    pub parameter: &'static str,
    /// Base value of the parameter.
    pub base_value: f64,
    /// Elasticity `(ΔU/U)/(Δθ/θ)` at the operating point.
    pub elasticity: f64,
}

/// Which model to differentiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyModel {
    /// The Fig. 2 conventional-replacement chain.
    Conventional,
    /// The Fig. 3 automatic-fail-over chain.
    FailOver,
}

impl PolicyModel {
    /// The model's chain definition at `params`.
    ///
    /// # Errors
    /// Propagates the model's parameter validation.
    pub fn chain(self, params: ModelParams) -> Result<ChainDef> {
        Ok(match self {
            PolicyModel::Conventional => Raid5Conventional::new(params)?.chain(),
            PolicyModel::FailOver => Raid5FailOver::new(params)?.chain(),
        })
    }
}

fn unavailability(model: PolicyModel, params: ModelParams) -> Result<f64> {
    Ok(model.chain(params)?.solve()?.unavailability())
}

/// Computes elasticities for every continuous parameter of the model using
/// central differences with relative step `rel_step` (e.g. `1e-4`).
///
/// # Errors
/// Propagates model errors; `rel_step` must be in `(0, 0.5)`.
pub fn sensitivities(
    model: PolicyModel,
    params: ModelParams,
    rel_step: f64,
) -> Result<Vec<Sensitivity>> {
    if !(rel_step > 0.0 && rel_step < 0.5) {
        return Err(crate::error::CoreError::InvalidParameter(format!(
            "rel_step must be in (0, 0.5), got {rel_step}"
        )));
    }
    let u0 = unavailability(model, params)?;
    let mut out = Vec::new();

    let mut push = |name: &'static str,
                    base: f64,
                    apply: &dyn Fn(ModelParams, f64) -> Result<ModelParams>|
     -> Result<()> {
        let up = unavailability(model, apply(params, base * (1.0 + rel_step))?)?;
        let down = unavailability(model, apply(params, base * (1.0 - rel_step))?)?;
        let du = (up - down) / u0;
        let dtheta = 2.0 * rel_step;
        out.push(Sensitivity {
            parameter: name,
            base_value: base,
            elasticity: du / dtheta,
        });
        Ok(())
    };

    push("lambda", params.disk_failure_rate, &|mut p, v| {
        p.disk_failure_rate = v;
        Ok(p)
    })?;
    push("mu_DF", params.disk_repair_rate, &|mut p, v| {
        p.disk_repair_rate = v;
        Ok(p)
    })?;
    push("mu_DDF", params.ddf_recovery_rate, &|mut p, v| {
        p.ddf_recovery_rate = v;
        Ok(p)
    })?;
    push("mu_he", params.human_recovery_rate, &|mut p, v| {
        p.human_recovery_rate = v;
        Ok(p)
    })?;
    push("mu_ch", params.disk_change_rate, &|mut p, v| {
        p.disk_change_rate = v;
        Ok(p)
    })?;
    if params.removed_crash_rate > 0.0 {
        push("lambda_crash", params.removed_crash_rate, &|mut p, v| {
            p.removed_crash_rate = v;
            Ok(p)
        })?;
    }
    if params.hep.value() > 0.0 {
        push("hep", params.hep.value(), &|p, v| {
            Ok(p.with_hep(Hep::new(v).map_err(crate::error::CoreError::from)?))
        })?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ModelParams {
        ModelParams::raid5_3plus1(1e-6, Hep::new(0.01).unwrap()).unwrap()
    }

    fn find(v: &[Sensitivity], name: &str) -> f64 {
        v.iter()
            .find(|s| s.parameter == name)
            .expect("present")
            .elasticity
    }

    #[test]
    fn signs_match_intuition_conventional() {
        let s = sensitivities(PolicyModel::Conventional, base(), 1e-4).unwrap();
        assert!(find(&s, "lambda") > 0.0, "more failures, more downtime");
        assert!(find(&s, "hep") > 0.0, "more human error, more downtime");
        assert!(find(&s, "mu_he") < 0.0, "faster recovery, less downtime");
        assert!(find(&s, "mu_DDF") < 0.0, "faster restore, less downtime");
    }

    #[test]
    fn hep_dominates_at_the_paper_operating_point() {
        // At λ=1e-6, hep=0.01 the DU term dominates: the hep elasticity must
        // be close to 1 (U ∝ hep to first order) and exceed λ_crash's.
        let s = sensitivities(PolicyModel::Conventional, base(), 1e-4).unwrap();
        let hep_e = find(&s, "hep");
        assert!(hep_e > 0.5 && hep_e < 1.2, "hep elasticity {hep_e}");
    }

    #[test]
    fn failover_is_less_sensitive_to_hep() {
        let conv = sensitivities(PolicyModel::Conventional, base(), 1e-4).unwrap();
        let fo = sensitivities(PolicyModel::FailOver, base(), 1e-4).unwrap();
        assert!(find(&fo, "hep") < find(&conv, "hep"));
    }

    #[test]
    fn hep_zero_drops_the_hep_row() {
        let p = base().with_hep(Hep::ZERO);
        let s = sensitivities(PolicyModel::Conventional, p, 1e-4).unwrap();
        assert!(s.iter().all(|r| r.parameter != "hep"));
    }

    #[test]
    fn invalid_step_rejected() {
        assert!(sensitivities(PolicyModel::Conventional, base(), 0.0).is_err());
        assert!(sensitivities(PolicyModel::Conventional, base(), 0.9).is_err());
    }
}

//! Mission reliability: the probability that **no data is lost** within a
//! mission, as opposed to the availability (fraction of time serving I/O)
//! that the paper reports.
//!
//! The distinction matters: a backed-up system recovers availability after
//! a data loss, but the loss event still happened — restore windows, SLA
//! penalties, tape handling. Greenan, Plank & Wylie ("Mean time to
//! meaningless", HotStorage 2010 — cited by the paper) argue MTTDL alone
//! misleads; the full survival curve `R(t)` over a concrete mission is the
//! honest metric, and it falls out of the same chains by making the
//! data-loss states absorbing.

use crate::error::Result;
use crate::markov::StateClass;
use crate::params::ModelParams;
use crate::sensitivity::PolicyModel;
use availsim_ctmc::{Ctmc, StateId};

/// Mission-reliability analysis of one policy model.
#[derive(Debug)]
pub struct MissionReliability {
    chain: Ctmc,
    data_loss: Vec<StateId>,
    initial: Vec<f64>,
}

impl MissionReliability {
    /// Builds the analysis for the given policy, starting fresh (`OP`).
    ///
    /// # Errors
    /// Propagates model construction errors.
    pub fn new(model: PolicyModel, params: ModelParams) -> Result<Self> {
        let def = model.chain(params)?;
        let chain = def.build()?;
        Ok(MissionReliability {
            data_loss: def.state_ids(&chain, StateClass::is_data_loss),
            initial: def.start_distribution(),
            chain,
        })
    }

    /// `R(t)`: probability no data-loss event has occurred by hour `t`.
    ///
    /// # Errors
    /// Propagates transient-solver errors.
    pub fn survival(&self, t: f64) -> Result<f64> {
        Ok(self
            .chain
            .survival_probability(&self.initial, &self.data_loss, t, 1e-12)?)
    }

    /// Probability of at least one data loss within the mission.
    ///
    /// # Errors
    /// Propagates transient-solver errors.
    pub fn loss_probability(&self, t: f64) -> Result<f64> {
        Ok(1.0 - self.survival(t)?)
    }

    /// Mean time to data loss (hours) — the scalar the survival curve
    /// compresses into, kept for comparison with the literature.
    ///
    /// # Errors
    /// Propagates absorbing-analysis errors.
    pub fn mttdl_hours(&self) -> Result<f64> {
        Ok(self
            .chain
            .absorption(&self.initial, &self.data_loss)?
            .mean_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use availsim_hra::Hep;
    use availsim_storage::HOURS_PER_YEAR;

    fn reliability(model: PolicyModel, hep: f64) -> MissionReliability {
        let params = ModelParams::raid5_3plus1(1e-4, Hep::new(hep).unwrap()).unwrap();
        MissionReliability::new(model, params).unwrap()
    }

    #[test]
    fn survival_starts_at_one_and_decreases() {
        let r = reliability(PolicyModel::Conventional, 0.01);
        let mut prev = 1.0;
        assert!((r.survival(0.0).unwrap() - 1.0).abs() < 1e-12);
        for &t in &[10.0, 1_000.0, 100_000.0, 1e6] {
            let s = r.survival(t).unwrap();
            assert!(s <= prev + 1e-12 && s >= 0.0, "t={t}: {s}");
            prev = s;
        }
    }

    #[test]
    fn exponential_tail_matches_mttdl() {
        // For a chain returning to OP quickly, losses are ~Poisson with rate
        // 1/MTTDL, so R(t) ≈ exp(−t/MTTDL) for t well past mixing.
        let r = reliability(PolicyModel::Conventional, 0.001);
        let mttdl = r.mttdl_hours().unwrap();
        let t = mttdl / 2.0;
        let s = r.survival(t).unwrap();
        let expect = (-t / mttdl).exp();
        assert!((s - expect).abs() < 0.02, "R({t}) = {s} vs {expect}");
    }

    #[test]
    fn human_error_lowers_mission_reliability() {
        let clean = reliability(PolicyModel::Conventional, 0.0);
        let dirty = reliability(PolicyModel::Conventional, 0.05);
        let t = 5.0 * HOURS_PER_YEAR;
        assert!(dirty.survival(t).unwrap() < clean.survival(t).unwrap());
    }

    #[test]
    fn failover_survives_longer_than_conventional() {
        let conv = reliability(PolicyModel::Conventional, 0.01);
        let fo = reliability(PolicyModel::FailOver, 0.01);
        let t = 2.0 * HOURS_PER_YEAR;
        assert!(fo.survival(t).unwrap() >= conv.survival(t).unwrap() - 1e-12);
        assert!(fo.mttdl_hours().unwrap() > conv.mttdl_hours().unwrap() * 0.9);
    }

    #[test]
    fn loss_probability_complements_survival() {
        let r = reliability(PolicyModel::FailOver, 0.01);
        let t = HOURS_PER_YEAR;
        let s = r.survival(t).unwrap();
        let l = r.loss_probability(t).unwrap();
        assert!((s + l - 1.0).abs() < 1e-12);
    }
}

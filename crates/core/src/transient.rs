//! Transient (mission-time) availability — an extension beyond the paper's
//! steady-state analysis.
//!
//! Steady-state availability understates early-life risk: a fresh array has
//! probability 1 of being up, decays toward the stationary value over the
//! first service cycles, and the *interval* availability (expected uptime
//! fraction over a finite mission) interpolates the two. Both curves come
//! from uniformization on the same chains the paper solves.

use crate::error::Result;
use crate::params::ModelParams;
use crate::sensitivity::PolicyModel;
use availsim_ctmc::{Ctmc, StateId};

/// Transient availability analysis of one policy model.
#[derive(Debug)]
pub struct TransientAvailability {
    chain: Ctmc,
    down: Vec<StateId>,
    initial: Vec<f64>,
}

impl TransientAvailability {
    /// Builds the analysis for the given policy, starting from the
    /// everything-works state (`OP`).
    ///
    /// # Errors
    /// Propagates model construction errors.
    pub fn new(model: PolicyModel, params: ModelParams) -> Result<Self> {
        let def = model.chain(params)?;
        let chain = def.build()?;
        Ok(TransientAvailability {
            down: def.state_ids(&chain, |c| !c.is_up()),
            initial: def.start_distribution(),
            chain,
        })
    }

    /// Point availability `A(t)`: probability the array serves I/O at time
    /// `t` (hours) given it started fresh.
    ///
    /// # Errors
    /// Propagates transient-solver errors.
    pub fn point_availability(&self, t: f64) -> Result<f64> {
        let p = self.chain.transient(&self.initial, t, 1e-12)?;
        let down: f64 = self.down.iter().map(|s| p[s.index()]).sum();
        Ok(1.0 - down)
    }

    /// Interval availability over `[0, t]`: expected fraction of the mission
    /// the array spends up.
    ///
    /// # Errors
    /// Propagates transient-solver errors.
    pub fn interval_availability(&self, t: f64) -> Result<f64> {
        if t <= 0.0 {
            return Ok(1.0);
        }
        let occ = self.chain.cumulative_occupancy(&self.initial, t, 1e-12)?;
        let down: f64 = self.down.iter().map(|s| occ[s.index()]).sum();
        Ok(1.0 - down / t)
    }

    /// The stationary availability the curves decay toward.
    ///
    /// # Errors
    /// Propagates steady-state solver errors.
    pub fn steady_state_availability(&self) -> Result<f64> {
        let pi = self.chain.steady_state()?;
        let down: f64 = self.down.iter().map(|s| pi[s.index()]).sum();
        Ok(1.0 - down)
    }

    /// Samples `A(t)` on a logarithmic time grid from `t_min` to `t_max`
    /// with `points` samples — the data for a mission-availability curve.
    ///
    /// # Errors
    /// Propagates solver errors; `points` must be at least 2 and the range
    /// positive and increasing.
    pub fn availability_curve(
        &self,
        t_min: f64,
        t_max: f64,
        points: usize,
    ) -> Result<Vec<(f64, f64)>> {
        if points < 2 || t_min.is_nan() || t_min <= 0.0 || t_max.is_nan() || t_max <= t_min {
            return Err(crate::error::CoreError::InvalidParameter(format!(
                "invalid curve grid: t_min={t_min}, t_max={t_max}, points={points}"
            )));
        }
        let ratio = (t_max / t_min).powf(1.0 / (points - 1) as f64);
        let mut t = t_min;
        let mut out = Vec::with_capacity(points);
        for _ in 0..points {
            out.push((t, self.point_availability(t)?));
            t *= ratio;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use availsim_hra::Hep;

    fn analysis(model: PolicyModel) -> TransientAvailability {
        let params = ModelParams::raid5_3plus1(1e-4, Hep::new(0.01).unwrap()).unwrap();
        TransientAvailability::new(model, params).unwrap()
    }

    #[test]
    fn fresh_array_is_up() {
        let a = analysis(PolicyModel::Conventional);
        assert!((a.point_availability(0.0).unwrap() - 1.0).abs() < 1e-12);
        assert!((a.interval_availability(0.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn long_run_matches_steady_state() {
        for model in [PolicyModel::Conventional, PolicyModel::FailOver] {
            let a = analysis(model);
            let steady = a.steady_state_availability().unwrap();
            let late = a.point_availability(5e5).unwrap();
            assert!(
                (late - steady).abs() < 1e-9,
                "{model:?}: A(5e5)={late} vs steady {steady}"
            );
        }
    }

    #[test]
    fn point_availability_decays_monotonically_early() {
        // From a fresh start the availability can only decrease initially
        // (no repair debt exists yet to pay back).
        let a = analysis(PolicyModel::Conventional);
        let mut prev = 1.0;
        for &t in &[1.0, 10.0, 100.0, 1_000.0] {
            let v = a.point_availability(t).unwrap();
            assert!(v <= prev + 1e-12, "A({t}) = {v} > {prev}");
            prev = v;
        }
    }

    #[test]
    fn interval_availability_lags_point_availability() {
        // The interval average includes the pristine early phase, so it
        // stays above the decaying point availability.
        let a = analysis(PolicyModel::Conventional);
        for &t in &[100.0, 1_000.0, 50_000.0] {
            let point = a.point_availability(t).unwrap();
            let interval = a.interval_availability(t).unwrap();
            assert!(
                interval >= point - 1e-12,
                "t={t}: interval {interval} vs point {point}"
            );
        }
    }

    #[test]
    fn failover_curve_dominates_conventional() {
        let conv = analysis(PolicyModel::Conventional);
        let fo = analysis(PolicyModel::FailOver);
        for &t in &[100.0, 10_000.0, 200_000.0] {
            let c = conv.point_availability(t).unwrap();
            let f = fo.point_availability(t).unwrap();
            assert!(f >= c - 1e-12, "t={t}: fo {f} vs conv {c}");
        }
    }

    #[test]
    fn curve_grid_is_logarithmic_and_validated() {
        let a = analysis(PolicyModel::Conventional);
        let curve = a.availability_curve(1.0, 1e4, 5).unwrap();
        assert_eq!(curve.len(), 5);
        assert!((curve[0].0 - 1.0).abs() < 1e-12);
        assert!((curve[4].0 - 1e4).abs() / 1e4 < 1e-9);
        // Log-spaced: constant ratio.
        let r1 = curve[1].0 / curve[0].0;
        let r2 = curve[3].0 / curve[2].0;
        assert!((r1 - r2).abs() < 1e-9);
        assert!(a.availability_curve(0.0, 1.0, 5).is_err());
        assert!(a.availability_curve(1.0, 2.0, 1).is_err());
    }
}

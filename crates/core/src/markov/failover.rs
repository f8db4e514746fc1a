//! The paper's Fig. 3 Markov model: RAID5 with automatic disk fail-over
//! (delayed replacement) and a hot spare.
//!
//! Twelve states; `ns` marks "no spare available". Up states serve I/O
//! (possibly degraded); `DU*` are human-error outages; `DL*` are data-loss
//! outages.
//!
//! | state | meaning |
//! |-------|---------|
//! | `OP` | all disks fine, spare present |
//! | `EXP1` | one failed disk, automatic rebuild into the spare running |
//! | `OPns` | all disks fine, spare consumed, dead disk awaiting change |
//! | `EXPns1` | one failed disk, no spare |
//! | `EXPns2` | wrong replacement pulled a live disk (no failure), no spare |
//! | `EXP2` | like `EXPns2` with a spare present |
//! | `DU1` | failed + wrongly removed disk, spare present (down) |
//! | `DU2` | two wrongly removed disks, spare present (down) |
//! | `DUns1` | failed + wrongly removed disk, no spare (down) |
//! | `DUns2` | two wrongly removed disks, no spare (down) |
//! | `DL` | double disk failure, spare present (down) |
//! | `DLns` | double disk failure, no spare (down) |
//!
//! The scanned figure in the paper is partially garbled; [`fig3_chain`]
//! documents the reconstruction.

use super::chain::{edge, ChainDef, ChainState, EdgeTag, StateClass};
use super::SolvedChain;
use crate::error::{CoreError, Result};
use crate::params::ModelParams;

static FIG3_STATES: [ChainState; 12] = [
    ChainState::new("OP", StateClass::Up),
    ChainState::new("EXP1", StateClass::Up),
    ChainState::new("OPns", StateClass::Up),
    ChainState::new("EXPns1", StateClass::Up),
    ChainState::new("EXPns2", StateClass::Up),
    ChainState::new("EXP2", StateClass::Up),
    ChainState::new("DU1", StateClass::HumanErrorDown),
    ChainState::new("DU2", StateClass::HumanErrorDown),
    ChainState::new("DUns1", StateClass::HumanErrorDown),
    ChainState::new("DUns2", StateClass::HumanErrorDown),
    ChainState::new("DL", StateClass::DataLossDown),
    ChainState::new("DLns", StateClass::DataLossDown),
];

/// The Fig. 3 chain of `params`, without the geometry, `hep` and LSE checks
/// of [`Raid5FailOver::new`]: the Monte-Carlo engines replay it for every
/// configuration they accept.
///
/// Reconstruction notes: the scanned figure is partially garbled. Every
/// transition the paper's prose states is present. Two edges are derived
/// by analogy with the no-spare cluster (`DUns1`/`DUns2`/`EXPns2`) and
/// carry negligible probability mass: `DU1 → OP` at `μ_DDF` (give up and
/// restore, like `DUns1 → OPns`) and `DU1 → DU2` at `hep·μ_he` (a botched
/// undo, like `EXPns2 → DUns2`). The figure's `hep·μ` self-loops are CTMC
/// no-ops and appear only as the `(1 − hep)` thinning of the competing
/// success rates.
pub(crate) fn fig3_chain(params: &ModelParams) -> ChainDef {
    const OP: u16 = 0;
    const EXP1: u16 = 1;
    const OPNS: u16 = 2;
    const EXPNS1: u16 = 3;
    const EXPNS2: u16 = 4;
    const EXP2: u16 = 5;
    const DU1: u16 = 6;
    const DU2: u16 = 7;
    const DUNS1: u16 = 8;
    const DUNS2: u16 = 9;
    const DL: u16 = 10;
    const DLNS: u16 = 11;
    let p = params;
    let n = f64::from(p.disks());
    let hep = p.hep.value();
    let lam = p.disk_failure_rate;
    let (mu_df, mu_ddf) = (p.disk_repair_rate, p.ddf_recovery_rate);
    let (mu_he, mu_ch) = (p.human_recovery_rate, p.disk_change_rate);
    let crash = p.removed_crash_rate;
    use EdgeTag::{Crash, Failure, HumanError, Service};
    ChainDef::new(
        &FIG3_STATES[..],
        vec![
            // OP: failure starts the automatic fail-over.
            edge(OP, EXP1, n * lam, Failure),
            // EXP1: second failure loses data; rebuild completes hands-free.
            edge(EXP1, DL, (n - 1.0) * lam, Failure),
            edge(EXP1, OPNS, mu_df, Service),
            // OPns: replace the dead disk to restore the spare (human action).
            edge(OPNS, EXPNS1, n * lam, Failure),
            edge(OPNS, OP, (1.0 - hep) * mu_ch, Service),
            edge(OPNS, EXPNS2, hep * mu_ch, HumanError),
            // EXPns1: fail-over and replacement race; either can err.
            edge(EXPNS1, OPNS, (1.0 - hep) * mu_df, Service),
            edge(EXPNS1, EXP1, (1.0 - hep) * mu_ch, Service),
            edge(EXPNS1, DUNS1, hep * (mu_df + mu_ch), HumanError),
            edge(EXPNS1, DLNS, (n - 1.0) * lam, Failure),
            // EXPns2: undo the wrong replacement (completes the swap on success).
            edge(EXPNS2, OP, (1.0 - hep) * mu_he, Service),
            edge(EXPNS2, DUNS2, hep * mu_he, HumanError),
            edge(EXPNS2, EXPNS1, crash, Crash),
            edge(EXPNS2, DUNS1, (n - 1.0) * lam, Failure),
            // EXP2: like EXPns2 with a spare present.
            edge(EXP2, OP, (1.0 - hep) * mu_he, Service),
            edge(EXP2, DU2, hep * mu_he, HumanError),
            edge(EXP2, EXP1, crash, Crash),
            edge(EXP2, DU1, (n - 1.0) * lam, Failure),
            // DU1 cluster (spare present), analogous to DUns1/DUns2.
            edge(DU1, EXP1, (1.0 - hep) * mu_he, Service),
            edge(DU1, DL, crash, Crash),
            edge(DU1, OP, mu_ddf, Service),
            edge(DU1, DU2, hep * mu_he, HumanError),
            edge(DU2, EXP2, (1.0 - hep) * mu_he, Service),
            edge(DU2, DU1, 2.0 * crash, Crash),
            // DUns1: four competing recoveries (undo, crash, give-up
            // restore, replacement of the failed disk).
            edge(DUNS1, EXPNS1, (1.0 - hep) * mu_he, Service),
            edge(DUNS1, DLNS, crash, Crash),
            edge(DUNS1, OPNS, mu_ddf, Service),
            edge(DUNS1, DU1, (1.0 - hep) * mu_ch, Service),
            // DUns2: undo one of the two wrong removals, or one crashes.
            edge(DUNS2, EXPNS2, (1.0 - hep) * mu_he, Service),
            edge(DUNS2, DUNS1, 2.0 * crash, Crash),
            // DL: restore from backup with the spare already present.
            edge(DL, OP, mu_ddf, Service),
            // DLns: restore, or replace a failed disk to regain a spare.
            edge(DLNS, OPNS, mu_ddf, Service),
            edge(DLNS, DL, (1.0 - hep) * mu_ch, Service),
        ],
    )
}

/// The Fig. 3 model.
///
/// # Examples
///
/// ```
/// use availsim_core::markov::{Raid5Conventional, Raid5FailOver};
/// use availsim_core::ModelParams;
/// use availsim_hra::Hep;
///
/// # fn main() -> Result<(), availsim_core::CoreError> {
/// let params = ModelParams::raid5_3plus1(1e-6, Hep::new(0.01)?)?;
/// let conventional = Raid5Conventional::new(params)?.solve()?;
/// let failover = Raid5FailOver::new(params)?.solve()?;
/// // Automatic fail-over shields the exposed window from human error:
/// assert!(failover.unavailability() < conventional.unavailability());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Raid5FailOver {
    params: ModelParams,
}

impl Raid5FailOver {
    /// Creates the model.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] for geometries that are not
    /// single-fault-tolerant, `hep = 1`, or invalid rates.
    pub fn new(params: ModelParams) -> Result<Self> {
        params.validate()?;
        if params.geometry.fault_tolerance() != 1 {
            return Err(CoreError::InvalidParameter(format!(
                "the Fig. 3 model applies to single-fault-tolerant arrays; {} tolerates {}",
                params.geometry.label(),
                params.geometry.fault_tolerance()
            )));
        }
        if params.hep.value() >= 1.0 {
            return Err(CoreError::InvalidParameter(
                "hep must be below 1 for a repairable model".into(),
            ));
        }
        if params.rebuild_lse_probability() > 0.0 {
            return Err(CoreError::InvalidParameter(
                "the Fig. 3 chain does not support LSE-aware rebuilds; \
                 remove the scrubbing model (or set `lse_rate = 0`), or use \
                 the generic k+m chain / the Monte-Carlo engines"
                    .into(),
            ));
        }
        Ok(Raid5FailOver { params })
    }

    /// The model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The twelve-state chain definition.
    pub fn chain(&self) -> ChainDef {
        fig3_chain(&self.params)
    }

    /// Solves for the stationary distribution with the `DU*`/`DL*` states
    /// down.
    ///
    /// # Errors
    /// Propagates solver errors.
    pub fn solve(&self) -> Result<SolvedChain> {
        self.chain().solve()
    }

    /// Mean time to data loss (hours): first passage from `OP` into either
    /// `DL` or `DLns`.
    ///
    /// # Errors
    /// Propagates solver errors.
    pub fn mttdl_hours(&self) -> Result<f64> {
        self.chain().mttdl_hours()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::Raid5Conventional;
    use availsim_hra::Hep;

    fn model(lambda: f64, hep: f64) -> Raid5FailOver {
        let params = ModelParams::raid5_3plus1(lambda, Hep::new(hep).unwrap()).unwrap();
        Raid5FailOver::new(params).unwrap()
    }

    #[test]
    fn chain_has_twelve_states() {
        let m = model(1e-6, 0.01);
        assert_eq!(m.chain().states().len(), 12);
        let down = m
            .chain()
            .states()
            .iter()
            .filter(|s| !s.class.is_up())
            .count();
        assert_eq!(down, 6);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let s = model(1e-6, 0.01).solve().unwrap();
        let total: f64 = s.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hep_zero_leaves_error_states_empty() {
        let s = model(1e-6, 0.0).solve().unwrap();
        for label in ["EXPns2", "EXP2", "DU1", "DU2", "DUns1", "DUns2"] {
            assert_eq!(
                s.probability(label).unwrap(),
                0.0,
                "{label} should be unreachable"
            );
        }
        assert!(s.probability("OPns").unwrap() > 0.0);
    }

    #[test]
    fn failover_beats_conventional_at_high_hep() {
        // §V-D: automatic fail-over moderates the human-error impact.
        for &hep in &[0.001, 0.01] {
            let params = ModelParams::raid5_3plus1(1e-6, Hep::new(hep).unwrap()).unwrap();
            let conv = Raid5Conventional::new(params).unwrap().solve().unwrap();
            let fo = Raid5FailOver::new(params).unwrap().solve().unwrap();
            assert!(
                fo.unavailability() < conv.unavailability(),
                "hep={hep}: fo={:.3e} conv={:.3e}",
                fo.unavailability(),
                conv.unavailability()
            );
        }
    }

    #[test]
    fn failover_gain_grows_with_hep() {
        // The paper: "delayed replacement shows higher availability
        // improvement when hep has greater values".
        let gain = |hep: f64| {
            let params = ModelParams::raid5_3plus1(1e-6, Hep::new(hep).unwrap()).unwrap();
            let conv = Raid5Conventional::new(params).unwrap().solve().unwrap();
            let fo = Raid5FailOver::new(params).unwrap().solve().unwrap();
            conv.unavailability() / fo.unavailability()
        };
        let g_low = gain(0.001);
        let g_high = gain(0.01);
        assert!(g_high > g_low, "gains {g_low} vs {g_high}");
        assert!(
            g_high > 5.0,
            "expected a large gain at hep=0.01, got {g_high}"
        );
    }

    #[test]
    fn du_mass_is_suppressed_versus_conventional() {
        // The whole point of delayed replacement: P(DU-class) collapses.
        let params = ModelParams::raid5_3plus1(1e-6, Hep::new(0.01).unwrap()).unwrap();
        let conv = Raid5Conventional::new(params).unwrap().solve().unwrap();
        let fo = Raid5FailOver::new(params).unwrap().solve().unwrap();
        let conv_du = conv.probability("DU").unwrap();
        let fo_du: f64 = fig3_chain(&params)
            .states()
            .iter()
            .filter(|s| s.class == StateClass::HumanErrorDown)
            .map(|s| fo.probability(&s.label).unwrap())
            .sum();
        assert!(
            fo_du < conv_du / 10.0,
            "fo_du={fo_du:.3e} conv_du={conv_du:.3e}"
        );
    }

    #[test]
    fn mttdl_positive_and_shrinks_with_hep() {
        let m0 = model(1e-5, 0.0).mttdl_hours().unwrap();
        let m1 = model(1e-5, 0.01).mttdl_hours().unwrap();
        assert!(m0 > 0.0 && m1 > 0.0);
        assert!(m1 < m0, "hep should not extend MTTDL: {m1} vs {m0}");
    }

    #[test]
    fn invalid_geometry_and_hep_rejected() {
        use availsim_storage::RaidGeometry;
        let p6 =
            ModelParams::paper_defaults(RaidGeometry::raid6(4).unwrap(), 1e-6, Hep::ZERO).unwrap();
        assert!(Raid5FailOver::new(p6).is_err());
        let p1 = ModelParams::raid5_3plus1(1e-6, Hep::new(1.0).unwrap()).unwrap();
        assert!(Raid5FailOver::new(p1).is_err());
    }

    #[test]
    fn balance_equations_hold() {
        let m = model(2e-6, 0.005);
        let solved = m.solve().unwrap();
        let pi = solved.probabilities();
        // (πQ)_j: inflow into j minus outflow out of j.
        let mut residual = vec![0.0; pi.len()];
        for e in m.chain().edges() {
            let (from, to) = (usize::from(e.from), usize::from(e.to));
            residual[to] += pi[from] * e.rate;
            residual[from] -= pi[from] * e.rate;
        }
        let max: f64 = residual.iter().fold(0.0f64, |a, b| a.max(b.abs()));
        assert!(max < 1e-12, "residual {max}");
    }
}

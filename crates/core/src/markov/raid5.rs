//! The paper's Fig. 2 Markov model: RAID5 availability under conventional
//! disk replacement, with human errors.
//!
//! States:
//!
//! * `OP` — all disks operational (up);
//! * `EXP` — one disk failed, replacement/rebuild in progress (up, exposed);
//! * `DU` — data unavailable: a wrong disk replacement pulled an operating
//!   disk while the array was exposed (down, no data lost);
//! * `DL` — data loss: double disk failure, restore from backup (down).
//!
//! Transitions (rates per hour):
//!
//! ```text
//! OP  --n·λ-->              EXP
//! EXP --(n−1)·λ-->          DL
//! EXP --(1−hep)·μ_DF-->     OP     (successful replacement + rebuild)
//! EXP --hep·μ_DF-->         DU     (wrong disk replacement)
//! DU  --(1−hep)·μ_he-->     OP     (error undone; repair completed)
//! DU  --λ_crash-->          DL     (wrongly removed disk crashes)
//! DL  --μ_DDF-->            OP     (restore from backup)
//! ```
//!
//! With an attached [`availsim_storage::ScrubbingModel`] the rebuild
//! completion is split by the per-rebuild LSE-hit probability `ue`: the
//! `EXP → OP` rate thins to `(1−hep)·(1−ue)·μ_DF` and the lost mass
//! `(1−hep)·ue·μ_DF` joins the `EXP → DL` rate — a rebuild that reads an
//! unreadable sector loses data instead of completing. At `ue = 0` the
//! chain is bit-exact with the unsplit one.
//!
//! The figure's `hep·μ_he` self-loop on `DU` (a failed recovery retry) is a
//! CTMC no-op; it appears here as the thinning of the recovery rate to
//! `(1−hep)·μ_he`, exactly as the paper's residual terms imply.
//!
//! The same structure with `n = 2` is the paper's RAID1(1+1) model: the
//! mirror tolerates one missing disk, a second failure loses data, and a
//! wrong replacement of the surviving mirror makes data unavailable.

use super::chain::{edge, ChainDef, ChainState, EdgeTag, StateClass};
use super::SolvedChain;
use crate::error::{CoreError, Result};
use crate::params::ModelParams;

/// Which service rate the wrong replacement scales with.
///
/// The paper's Fig. 2 labels the `EXP → DU` edge `hep·μ_DF`, but its
/// parameter list quotes `μ_s = 1` (the replacement-action rate) and its
/// headline numbers — the up-to-263× downtime underestimation and the
/// two-orders-of-magnitude fail-over gain — only reproduce when the wrong
/// pull occurs at the replacement-action timescale, `hep·μ_s`. Physically:
/// the technician pulls a disk within the first hour of service (`μ_s = 1`),
/// while the full replace+rebuild completes at `μ_DF = 0.1`. Both readings
/// are provided; [`WrongReplacementTiming::ChangeAction`] is the default and
/// EXPERIMENTS.md quantifies the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WrongReplacementTiming {
    /// `EXP → DU` at `hep·μ_ch` (reproduces the paper's headline numbers).
    #[default]
    ChangeAction,
    /// `EXP → DU` at `hep·μ_DF` (Fig. 2 exactly as labeled).
    RepairCompletion,
}

impl WrongReplacementTiming {
    /// The rate at which a wrong replacement takes the exposed array down:
    /// `hep` times the service rate this reading selects.
    pub(crate) fn wrong_replacement_rate(self, params: &ModelParams) -> f64 {
        let base = match self {
            WrongReplacementTiming::ChangeAction => params.disk_change_rate,
            WrongReplacementTiming::RepairCompletion => params.disk_repair_rate,
        };
        params.hep.value() * base
    }
}

static FIG2_STATES: [ChainState; 4] = [
    ChainState::new("OP", StateClass::Up),
    ChainState::new("EXP", StateClass::Up),
    ChainState::new("DU", StateClass::HumanErrorDown),
    ChainState::new("DL", StateClass::DataLossDown),
];

/// The Fig. 2 chain of `params`, without the geometry and `hep` checks of
/// [`Raid5Conventional::new`]: the Monte-Carlo engines replay it for every
/// geometry they accept.
pub(crate) fn fig2_chain(params: &ModelParams, timing: WrongReplacementTiming) -> ChainDef {
    const OP: u16 = 0;
    const EXP: u16 = 1;
    const DU: u16 = 2;
    const DL: u16 = 3;
    let p = params;
    let n = f64::from(p.disks());
    let hep = p.hep.value();
    // An attached scrubbing model splits the rebuild completion by the
    // per-rebuild LSE-hit probability `ue`. At ue = 0 the repair rate is
    // bit-exact with the unsplit one, and the zero-rate loss edge adds
    // nothing to the solver's rates and is never picked by the samplers.
    let ue = p.rebuild_lse_probability();
    ChainDef::new(
        &FIG2_STATES[..],
        vec![
            edge(OP, EXP, n * p.disk_failure_rate, EdgeTag::Failure),
            // The second failure precedes the rebuild loss, so the
            // solver sums (n−1)·λ + (1−hep)·ue·μ_DF.
            edge(EXP, DL, (n - 1.0) * p.disk_failure_rate, EdgeTag::Failure),
            edge(
                EXP,
                OP,
                (1.0 - hep) * (1.0 - ue) * p.disk_repair_rate,
                EdgeTag::Service,
            ),
            edge(
                EXP,
                DU,
                timing.wrong_replacement_rate(p),
                EdgeTag::HumanError,
            ),
            edge(
                EXP,
                DL,
                (1.0 - hep) * ue * p.disk_repair_rate,
                EdgeTag::RebuildLoss,
            ),
            edge(
                DU,
                OP,
                (1.0 - hep) * p.human_recovery_rate,
                EdgeTag::Service,
            ),
            edge(DU, DL, p.removed_crash_rate, EdgeTag::Crash),
            edge(DL, OP, p.ddf_recovery_rate, EdgeTag::Service),
        ],
    )
}

/// The Fig. 2 model for a single-fault-tolerant array (RAID5 `k+1` or a
/// RAID1 pair).
///
/// # Examples
///
/// ```
/// use availsim_core::markov::Raid5Conventional;
/// use availsim_core::ModelParams;
/// use availsim_hra::Hep;
///
/// # fn main() -> Result<(), availsim_core::CoreError> {
/// let params = ModelParams::raid5_3plus1(1e-6, Hep::new(0.01)?)?;
/// let solved = Raid5Conventional::new(params)?.solve()?;
/// // Ignoring human error (hep = 0) under-reports unavailability:
/// let baseline = Raid5Conventional::new(params.with_hep(Hep::ZERO))?.solve()?;
/// assert!(solved.unavailability() > baseline.unavailability());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Raid5Conventional {
    params: ModelParams,
    timing: WrongReplacementTiming,
}

impl Raid5Conventional {
    /// Creates the model.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if the geometry is not
    /// single-fault-tolerant, if `hep = 1` (the chain would be degenerate),
    /// or if any rate is invalid.
    pub fn new(params: ModelParams) -> Result<Self> {
        params.validate()?;
        if params.geometry.fault_tolerance() != 1 {
            return Err(CoreError::InvalidParameter(format!(
                "the Fig. 2 model applies to single-fault-tolerant arrays; {} tolerates {}",
                params.geometry.label(),
                params.geometry.fault_tolerance()
            )));
        }
        if params.hep.value() >= 1.0 {
            return Err(CoreError::InvalidParameter(
                "hep must be below 1 for a repairable model".into(),
            ));
        }
        Ok(Raid5Conventional {
            params,
            timing: WrongReplacementTiming::default(),
        })
    }

    /// Selects the wrong-replacement timing reading (ablation hook).
    pub fn with_timing(mut self, timing: WrongReplacementTiming) -> Self {
        self.timing = timing;
        self
    }

    /// The model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The rate at which a wrong replacement takes the exposed array down:
    /// `hep` times the selected service rate.
    pub fn wrong_replacement_rate(&self) -> f64 {
        self.timing.wrong_replacement_rate(&self.params)
    }

    /// The four-state chain definition.
    pub fn chain(&self) -> ChainDef {
        fig2_chain(&self.params, self.timing)
    }

    /// Solves for the stationary distribution; `DU` and `DL` are the down
    /// states.
    ///
    /// # Errors
    /// Propagates solver errors.
    pub fn solve(&self) -> Result<SolvedChain> {
        self.chain().solve()
    }

    /// Mean time to data loss (hours): expected time to first hit `DL`
    /// starting from `OP`.
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
    use availsim_hra::Hep;

    fn model(lambda: f64, hep: f64) -> Raid5Conventional {
        let params = ModelParams::raid5_3plus1(lambda, Hep::new(hep).unwrap()).unwrap();
        Raid5Conventional::new(params).unwrap()
    }

    /// The summed rate of the definition's `from -> to` edges.
    fn rate(def: &ChainDef, from: &str, to: &str) -> f64 {
        let id = |label| def.states().iter().position(|s| s.label == label);
        let (from, to) = (id(from).unwrap(), id(to).unwrap());
        def.edges()
            .iter()
            .filter(|e| usize::from(e.from) == from && usize::from(e.to) == to)
            .map(|e| e.rate)
            .sum()
    }

    /// The number of distinct transitions with a positive rate.
    fn transitions(def: &ChainDef) -> usize {
        let mut pairs: Vec<_> = def
            .edges()
            .iter()
            .filter(|e| e.rate > 0.0)
            .map(|e| (e.from, e.to))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs.len()
    }

    #[test]
    fn chain_shape_matches_fig2() {
        let def = model(1e-6, 0.01).chain();
        assert_eq!(def.states().len(), 4);
        assert_eq!(transitions(&def), 7);
        assert!((rate(&def, "OP", "EXP") - 4e-6).abs() < 1e-18);
    }

    #[test]
    fn hep_zero_reduces_to_classic_raid5_chain() {
        // With hep = 0 the DU state is unreachable and the unavailability is
        // the classic nλ/μ_DF · (n−1)λ/μ_DDF expression (first order).
        let solved = model(1e-6, 0.0).solve().unwrap();
        assert_eq!(solved.probability("DU").unwrap(), 0.0);
        let u = solved.unavailability();
        let expect = (4e-6 / 0.1) * (3e-6 / 0.03); // π_EXP·(n−1)λ/µDDF approx
        let rel = (u - expect).abs() / expect;
        assert!(rel < 0.01, "u={u:.3e} expect≈{expect:.3e}");
    }

    #[test]
    fn du_probability_matches_first_order_analysis() {
        // π_DU ≈ π_OP · nλ/exit(EXP) · hep·μ_s / ((1−hep)·μ_he + λ_crash).
        let solved = model(1e-6, 0.01).solve().unwrap();
        let du = solved.probability("DU").unwrap();
        let exit_exp = 3e-6 + 0.99 * 0.1 + 0.01 * 1.0;
        let expect = (4e-6 / exit_exp) * (0.01 * 1.0) / (0.99 * 1.0 + 0.01);
        let rel = (du - expect).abs() / expect;
        assert!(rel < 0.01, "du={du:.3e} expect≈{expect:.3e}");
    }

    #[test]
    fn timing_readings_differ_by_the_rate_ratio() {
        // The as-labeled reading enters DU at hep·μ_DF = hep·0.1; the
        // change-action reading at hep·μ_s = hep·1.0 — ten times more DU
        // mass, everything else equal.
        let params = ModelParams::raid5_3plus1(1e-6, Hep::new(0.01).unwrap()).unwrap();
        let fast = Raid5Conventional::new(params).unwrap().solve().unwrap();
        let labeled = Raid5Conventional::new(params)
            .unwrap()
            .with_timing(WrongReplacementTiming::RepairCompletion)
            .solve()
            .unwrap();
        let ratio = fast.probability("DU").unwrap() / labeled.probability("DU").unwrap();
        assert!((ratio - 10.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn unavailability_increases_with_hep() {
        let u0 = model(1e-6, 0.0).solve().unwrap().unavailability();
        let u1 = model(1e-6, 0.001).solve().unwrap().unavailability();
        let u2 = model(1e-6, 0.01).solve().unwrap().unavailability();
        assert!(u0 < u1 && u1 < u2, "{u0:.3e} {u1:.3e} {u2:.3e}");
    }

    #[test]
    fn paper_headline_order_of_magnitude_drop() {
        // §V-B: at hep = 0.001 availability drops one to two orders of
        // magnitude versus hep = 0. The effect strengthens as λ shrinks
        // (the DL baseline scales with λ², the DU term with λ).
        let u0 = model(1e-7, 0.0).solve().unwrap().unavailability();
        let u1 = model(1e-7, 0.001).solve().unwrap().unavailability();
        let ratio = u1 / u0;
        assert!(ratio > 10.0 && ratio < 200.0, "ratio {ratio}");
    }

    #[test]
    fn paper_headline_263x_underestimation() {
        // §I: "up to 263X" downtime underestimation. At the bottom of the
        // Fig. 4 sweep (λ = 5e-7) with hep = 0.01 the exact chain gives a
        // ratio in the 200–300× band; the crash path DU→DL contributes a
        // third of π_DU on top of the direct DU mass.
        let u0 = model(5e-7, 0.0).solve().unwrap().unavailability();
        let u1 = model(5e-7, 0.01).solve().unwrap().unavailability();
        let ratio = u1 / u0;
        assert!(ratio > 200.0 && ratio < 320.0, "ratio {ratio}");
    }

    #[test]
    fn raid1_pair_uses_same_structure() {
        use availsim_storage::RaidGeometry;
        let params =
            ModelParams::paper_defaults(RaidGeometry::raid1_pair(), 1e-5, Hep::new(0.001).unwrap())
                .unwrap();
        let m = Raid5Conventional::new(params).unwrap();
        // n = 2: OP -> EXP at 2λ.
        assert!((rate(&m.chain(), "OP", "EXP") - 2e-5).abs() < 1e-18);
        assert!(m.solve().unwrap().availability() > 0.99);
    }

    #[test]
    fn raid6_rejected_by_fig2_model() {
        use availsim_storage::RaidGeometry;
        let params =
            ModelParams::paper_defaults(RaidGeometry::raid6(6).unwrap(), 1e-6, Hep::ZERO).unwrap();
        assert!(Raid5Conventional::new(params).is_err());
    }

    #[test]
    fn hep_one_rejected() {
        let params = ModelParams::raid5_3plus1(1e-6, Hep::new(1.0).unwrap()).unwrap();
        assert!(Raid5Conventional::new(params).is_err());
    }

    #[test]
    fn live_lse_model_rejected_by_fig3_but_split_into_fig2() {
        use crate::markov::Raid5FailOver;
        use availsim_storage::ScrubbingModel;
        let live = ModelParams::raid5_3plus1(1e-6, Hep::new(0.01).unwrap())
            .unwrap()
            .with_scrubbing(ScrubbingModel::new(1e-4, 336.0).unwrap());
        // Fig. 3 has no rebuild-completion edge to split; it must reject.
        let err = Raid5FailOver::new(live).unwrap_err().to_string();
        assert!(err.contains("LSE-aware rebuilds"), "{err}");
        // Fig. 2 accepts, keeps the four-state shape, and routes the lost
        // rebuild mass to DL: unavailability rises, MTTDL shrinks.
        let lossy = Raid5Conventional::new(live).unwrap();
        assert_eq!(lossy.chain().states().len(), 4);
        assert_eq!(transitions(&lossy.chain()), 7);
        let base = Raid5Conventional::new(
            ModelParams::raid5_3plus1(1e-6, Hep::new(0.01).unwrap()).unwrap(),
        )
        .unwrap();
        assert!(lossy.solve().unwrap().unavailability() > base.solve().unwrap().unavailability());
        assert!(lossy.mttdl_hours().unwrap() < base.mttdl_hours().unwrap());
        // A zero-rate model is a bitwise no-op on Fig. 2 and stays accepted
        // on Fig. 3.
        let zero = ModelParams::raid5_3plus1(1e-6, Hep::new(0.01).unwrap())
            .unwrap()
            .with_scrubbing(ScrubbingModel::new(0.0, 336.0).unwrap());
        let zeroed = Raid5Conventional::new(zero).unwrap();
        assert_eq!(
            zeroed.solve().unwrap().unavailability().to_bits(),
            base.solve().unwrap().unavailability().to_bits()
        );
        assert!(Raid5FailOver::new(zero).is_ok());
    }

    #[test]
    fn mttdl_matches_closed_form_without_hep() {
        // Classic 3-state result: MTTDL = (μ + nλ + (n−1)λ)/(n(n−1)λ²).
        let m = model(1e-4, 0.0);
        let mttdl = m.mttdl_hours().unwrap();
        let (n, lam, mu) = (4.0, 1e-4, 0.1);
        let expect = (mu + n * lam + (n - 1.0) * lam) / (n * (n - 1.0) * lam * lam);
        let rel = (mttdl - expect).abs() / expect;
        assert!(rel < 1e-9, "mttdl {mttdl} expect {expect}");
    }

    #[test]
    fn mttdl_shrinks_with_human_error() {
        let without = model(1e-5, 0.0).mttdl_hours().unwrap();
        let with = model(1e-5, 0.01).mttdl_hours().unwrap();
        assert!(with < without);
    }

    #[test]
    fn downtime_minutes_scale() {
        // Sanity: at λ=1e-6, hep=0, unavailability ≈ 4e-9 → ~0.002 min/yr.
        let solved = model(1e-6, 0.0).solve().unwrap();
        let m = solved.downtime_minutes_per_year();
        assert!(m > 1e-4 && m < 1e-1, "minutes {m}");
    }
}

//! A generic `(failed, wrongly-removed)` chain for `k+m` arrays.
//!
//! This extends the paper's Fig. 2 beyond single parity: states are pairs
//! `(f, w)` — `f` failed disks (data on them lost until rebuilt), `w`
//! wrongly removed disks (data intact) — plus a collapsed `DL` state for
//! `f > m`. The classes follow from the counts: the array is *up* while
//! `f + w <= m`, *unavailable* (DU class) while `f + w > m` with `f <= m`,
//! and in data loss once `f > m`.
//!
//! Transition rules (conventional replacement policy):
//!
//! * up: failures at `(n − f − w)·λ`; repairs at `μ_DF` split
//!   `(1−hep)` success / `hep` wrong removal; recovery of a wrong removal at
//!   `μ_he` split `(1−hep)` success / `hep` a *further* wrong removal
//!   (mirroring `EXPns2 → DUns2` in Fig. 3);
//! * down (DU class): no failures and no repair progress (data unreachable);
//!   recovery at `(1−hep)·μ_he` (failed attempts retry in place);
//! * any `w > 0`: each removed disk crashes at `λ_crash`, converting to a
//!   failure;
//! * `DL`: full restore at `μ_DDF`.
//!
//! As in Fig. 2's `DU → OP` edge, a successful recovery also finishes the
//! pending replacement: `(f, w) → (f−1, w−1)` when `f ≥ 1`. For `m = 1`
//! the chain is then *exactly* Fig. 2 as labeled, which the tests verify.

use super::chain::{edge, ChainDef, ChainState, EdgeTag, StateClass};
use super::SolvedChain;
use crate::error::{CoreError, Result};
use crate::params::ModelParams;

/// Generic `k+m` availability model with human errors.
#[derive(Debug, Clone, Copy)]
pub struct GenericKofN {
    params: ModelParams,
    rebuild_failure_probability: f64,
}

impl GenericKofN {
    /// Creates the model for any geometry with `m >= 1`.
    ///
    /// An attached [`ModelParams::with_scrubbing`] model seeds the
    /// rebuild-LSE branch, split off the rebuild completion as in the
    /// Fig. 2 chain; [`Self::with_rebuild_failure_probability`] overrides
    /// it.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] for zero-redundancy
    /// geometries or `hep = 1`.
    pub fn new(params: ModelParams) -> Result<Self> {
        params.validate()?;
        if params.geometry.fault_tolerance() == 0 {
            return Err(CoreError::InvalidParameter(
                "generic model needs at least one redundant disk".into(),
            ));
        }
        if params.hep.value() >= 1.0 {
            return Err(CoreError::InvalidParameter(
                "hep must be below 1 for a repairable model".into(),
            ));
        }
        Ok(GenericKofN {
            params,
            rebuild_failure_probability: params.rebuild_lse_probability(),
        })
    }

    /// Models latent sector errors (LSEs) discovered during reconstruction:
    /// with probability `p` a completing rebuild hits an unreadable sector
    /// on a surviving disk and the stripe must be restored from backup
    /// instead. The paper cites LSEs (Schroeder et al., TOS 2010) as a main
    /// data-loss source but does not model them; this hook extends the chain
    /// in the classic Elerath–Pecht direction.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_rebuild_failure_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p) && p.is_finite(),
            "probability out of range: {p}"
        );
        self.rebuild_failure_probability = p;
        self
    }

    /// The model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The chain definition. The states run `F0W0` … `F{m}W{m+1}`,
    /// `f`-major, keeping every `(f, w)` with `f + w <= n`, then `DL`.
    /// Each state's edges come in one fixed order, so parallel rates sum
    /// the same way in every solve.
    pub fn chain(&self) -> ChainDef {
        use EdgeTag::{Crash, Failure, HumanError, RebuildLoss, Service};
        let p = &self.params;
        let n = p.disks();
        let m = p.geometry.fault_tolerance();
        let hep = p.hep.value();
        let lam = p.disk_failure_rate;
        // Reachable bounds: w grows only in up states (f + w <= m) plus one
        // final erroneous step, so w <= m + 1; f <= m within tracked states.
        let pairs: Vec<(u32, u32)> = (0..=m)
            .flat_map(|f| (0..=m + 1).map(move |w| (f, w)))
            .filter(|&(f, w)| f + w <= n)
            .collect();
        let index = |i: usize| u16::try_from(i).expect("state count fits 16 bits");
        let find = |f: u32, w: u32| pairs.iter().position(|&s| s == (f, w)).map(index);
        let id = |f: u32, w: u32| find(f, w).expect("state exists");
        let dl = index(pairs.len());
        let is_up = |f: u32, w: u32| f + w <= m;

        let mut states: Vec<ChainState> = pairs
            .iter()
            .map(|&(f, w)| ChainState {
                label: format!("F{f}W{w}").into(),
                class: if is_up(f, w) {
                    StateClass::Up
                } else {
                    StateClass::HumanErrorDown
                },
            })
            .collect();
        states.push(ChainState::new("DL", StateClass::DataLossDown));

        let mut edges = Vec::new();
        for (&(f, w), from) in pairs.iter().zip(0u16..) {
            let up = is_up(f, w);
            let active = n - f - w;
            // Failures only while serving I/O.
            if up && active > 0 {
                let to = if f + 1 > m { dl } else { id(f + 1, w) };
                edges.push(edge(from, to, f64::from(active) * lam, Failure));
            }
            // Repair progress only while serving I/O. A completing rebuild
            // may hit a latent sector error; the LSE only loses data when
            // the array has no redundancy slack left (f == m) — with f < m
            // the remaining parity reconstructs the unreadable sector, which
            // is exactly why double parity defuses the LSE threat.
            if up && f >= 1 {
                let ue = if f == m {
                    self.rebuild_failure_probability
                } else {
                    0.0
                };
                let mu = p.disk_repair_rate;
                edges.push(edge(
                    from,
                    id(f - 1, w),
                    (1.0 - hep) * (1.0 - ue) * mu,
                    Service,
                ));
                if ue > 0.0 {
                    edges.push(edge(from, dl, (1.0 - hep) * ue * mu, RebuildLoss));
                }
                if let Some(to) = find(f, w + 1).filter(|_| active > 0) {
                    edges.push(edge(from, to, hep * mu, HumanError));
                }
            }
            // Wrong-removal recovery.
            if w >= 1 {
                let to = if f >= 1 {
                    id(f - 1, w - 1)
                } else {
                    id(f, w - 1)
                };
                let mu = p.human_recovery_rate;
                edges.push(edge(from, to, (1.0 - hep) * mu, Service));
                // A failed recovery in an *up* state pulls yet another disk
                // (Fig. 3's EXPns2 → DUns2); in a down state it is a retry.
                if let Some(worse) = find(f, w + 1).filter(|_| up && active > 0) {
                    edges.push(edge(from, worse, hep * mu, HumanError));
                }
                // Each removed disk can crash.
                let to = if f + 1 > m { dl } else { id(f + 1, w - 1) };
                edges.push(edge(from, to, f64::from(w) * p.removed_crash_rate, Crash));
            }
        }
        edges.push(edge(dl, 0, p.ddf_recovery_rate, Service));
        ChainDef::new(states, edges)
    }

    /// Solves the chain; down states are `DL` and every `(f, w)` with
    /// `f + w > m`.
    ///
    /// # Errors
    /// Propagates solver errors.
    pub fn solve(&self) -> Result<SolvedChain> {
        self.chain().solve()
    }

    /// Mean time to data loss from the all-good state.
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
    use availsim_storage::RaidGeometry;

    fn params(geometry: RaidGeometry, lambda: f64, hep: f64) -> ModelParams {
        ModelParams::paper_defaults(geometry, lambda, Hep::new(hep).unwrap()).unwrap()
    }

    #[test]
    fn reduces_exactly_to_fig2_for_m1() {
        use crate::markov::raid5::WrongReplacementTiming;
        for &(lam, hep) in &[(1e-6, 0.01), (1e-5, 0.001), (5e-7, 0.0)] {
            let p = params(RaidGeometry::raid5(3).unwrap(), lam, hep);
            let generic = GenericKofN::new(p).unwrap().solve().unwrap();
            let fig2 = Raid5Conventional::new(p)
                .unwrap()
                .with_timing(WrongReplacementTiming::RepairCompletion)
                .solve()
                .unwrap();
            let (ug, uf) = (generic.unavailability(), fig2.unavailability());
            let rel = if uf == 0.0 { ug } else { (ug - uf).abs() / uf };
            assert!(
                rel < 1e-9,
                "lam={lam} hep={hep}: generic {ug:.6e} fig2 {uf:.6e}"
            );
        }
    }

    #[test]
    fn fig2_state_correspondence() {
        use crate::markov::raid5::WrongReplacementTiming;
        // The m=1 generic chain must map F0W0→OP, F1W0→EXP, F1W1→DU.
        let p = params(RaidGeometry::raid5(3).unwrap(), 1e-6, 0.01);
        let generic = GenericKofN::new(p).unwrap().solve().unwrap();
        let fig2 = Raid5Conventional::new(p)
            .unwrap()
            .with_timing(WrongReplacementTiming::RepairCompletion)
            .solve()
            .unwrap();
        for (g, f) in [
            ("F0W0", "OP"),
            ("F1W0", "EXP"),
            ("F1W1", "DU"),
            ("DL", "DL"),
        ] {
            let pg = generic.probability(g).unwrap();
            let pf = fig2.probability(f).unwrap();
            let rel = if pf == 0.0 { pg } else { (pg - pf).abs() / pf };
            assert!(rel < 1e-9, "{g} vs {f}: {pg:.6e} vs {pf:.6e}");
        }
    }

    #[test]
    fn raid6_tolerates_failure_plus_wrong_removal() {
        // In RAID6 the F1W1 state is up, so the availability at equal λ and
        // hep is far better than RAID5's.
        let p5 = params(RaidGeometry::raid5(6).unwrap(), 1e-5, 0.01);
        let p6 = params(RaidGeometry::raid6(6).unwrap(), 1e-5, 0.01);
        let u5 = GenericKofN::new(p5)
            .unwrap()
            .solve()
            .unwrap()
            .unavailability();
        let u6 = GenericKofN::new(p6)
            .unwrap()
            .solve()
            .unwrap()
            .unavailability();
        assert!(u6 < u5 / 10.0, "u6={u6:.3e} u5={u5:.3e}");
    }

    #[test]
    fn raid6_mttdl_exceeds_raid5() {
        let p5 = params(RaidGeometry::raid5(6).unwrap(), 1e-5, 0.001);
        let p6 = params(RaidGeometry::raid6(6).unwrap(), 1e-5, 0.001);
        let m5 = GenericKofN::new(p5).unwrap().mttdl_hours().unwrap();
        let m6 = GenericKofN::new(p6).unwrap().mttdl_hours().unwrap();
        assert!(m6 > 10.0 * m5, "m6={m6:.3e} m5={m5:.3e}");
    }

    #[test]
    fn raid6_with_human_error_still_beats_raid5_without() {
        // A single wrong removal leaves RAID6 serving I/O, so even at
        // hep = 0.01 its absolute unavailability stays far below RAID5's
        // hep = 0 baseline. (The *relative* blow-up can be larger for RAID6
        // simply because its baseline is orders of magnitude smaller.)
        let u5_clean = GenericKofN::new(params(RaidGeometry::raid5(6).unwrap(), 1e-5, 0.0))
            .unwrap()
            .solve()
            .unwrap()
            .unavailability();
        let u6_hep = GenericKofN::new(params(RaidGeometry::raid6(6).unwrap(), 1e-5, 0.01))
            .unwrap()
            .solve()
            .unwrap()
            .unavailability();
        let u6_clean = GenericKofN::new(params(RaidGeometry::raid6(6).unwrap(), 1e-5, 0.0))
            .unwrap()
            .solve()
            .unwrap()
            .unavailability();
        assert!(
            u6_hep < u5_clean / 10.0,
            "u6(hep)={u6_hep:.3e} u5(0)={u5_clean:.3e}"
        );
        // Human error still hurts RAID6 — the effect does not vanish.
        assert!(u6_hep > u6_clean, "{u6_hep:.3e} vs {u6_clean:.3e}");
    }

    #[test]
    fn raid0_rejected() {
        let p = params(RaidGeometry::raid0(4).unwrap(), 1e-6, 0.0);
        assert!(GenericKofN::new(p).is_err());
    }

    #[test]
    fn scrubbing_params_seed_the_lse_branch() {
        use availsim_storage::ScrubbingModel;
        let m = ScrubbingModel::new(1e-4, 336.0).unwrap();
        let p = params(RaidGeometry::raid5(3).unwrap(), 1e-6, 0.01).with_scrubbing(m);
        let seeded = GenericKofN::new(p).unwrap();
        let explicit = GenericKofN::new(params(RaidGeometry::raid5(3).unwrap(), 1e-6, 0.01))
            .unwrap()
            .with_rebuild_failure_probability(p.rebuild_lse_probability());
        assert_eq!(
            seeded.solve().unwrap().unavailability().to_bits(),
            explicit.solve().unwrap().unavailability().to_bits()
        );
    }

    #[test]
    fn lse_free_model_is_unchanged() {
        let p = params(RaidGeometry::raid5(3).unwrap(), 1e-6, 0.01);
        let plain = GenericKofN::new(p)
            .unwrap()
            .solve()
            .unwrap()
            .unavailability();
        let zero_lse = GenericKofN::new(p)
            .unwrap()
            .with_rebuild_failure_probability(0.0)
            .solve()
            .unwrap()
            .unavailability();
        assert_eq!(plain.to_bits(), zero_lse.to_bits());
    }

    #[test]
    fn lse_increases_unavailability_and_cuts_mttdl() {
        let p = params(RaidGeometry::raid5(7).unwrap(), 1e-6, 0.001);
        let base = GenericKofN::new(p).unwrap();
        let with_lse = GenericKofN::new(p)
            .unwrap()
            .with_rebuild_failure_probability(0.05);
        assert!(
            with_lse.solve().unwrap().unavailability() > base.solve().unwrap().unavailability()
        );
        assert!(with_lse.mttdl_hours().unwrap() < base.mttdl_hours().unwrap() / 10.0);
    }

    #[test]
    fn raid6_mitigates_lse_exposure() {
        // The classic argument for double parity: a RAID5 rebuild with an
        // LSE loses data immediately (it runs at zero redundancy slack),
        // while a RAID6 rebuild after a single failure still has a parity to
        // cover the unreadable sector — only the already-rare double-failure
        // rebuild is exposed. The comparison is absolute: RAID6 with LSEs
        // must stay far below even a *clean* RAID5.
        let u = |geom: RaidGeometry, lse: f64| {
            let p = params(geom, 1e-5, 0.001);
            GenericKofN::new(p)
                .unwrap()
                .with_rebuild_failure_probability(lse)
                .solve()
                .unwrap()
                .unavailability()
        };
        let r5_clean = u(RaidGeometry::raid5(6).unwrap(), 0.0);
        let r5_lse = u(RaidGeometry::raid5(6).unwrap(), 0.02);
        let r6_lse = u(RaidGeometry::raid6(6).unwrap(), 0.02);
        assert!(
            r6_lse < r5_lse / 100.0,
            "r6 {r6_lse:.3e} vs r5 {r5_lse:.3e}"
        );
        assert!(
            r6_lse < r5_clean,
            "r6+LSE {r6_lse:.3e} vs clean r5 {r5_clean:.3e}"
        );
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn lse_probability_validated() {
        let p = params(RaidGeometry::raid5(3).unwrap(), 1e-6, 0.0);
        let _ = GenericKofN::new(p)
            .unwrap()
            .with_rebuild_failure_probability(1.5);
    }

    #[test]
    fn probabilities_sum_to_one_for_raid6() {
        let p = params(RaidGeometry::raid6(8).unwrap(), 1e-5, 0.005);
        let s = GenericKofN::new(p).unwrap().solve().unwrap();
        let total: f64 = s.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}

//! THERP dependence model (Swain & Guttmann, NUREG/CR-1278, ch. 10).
//!
//! Consecutive actions by the same person are not independent: having just
//! erred, an operator is *more* likely to err again (stress, shared
//! misunderstanding). THERP grades this as five dependence levels and gives
//! the conditional error probability for each:
//!
//! | level | conditional hep |
//! |-------|-----------------|
//! | zero (ZD) | `p` |
//! | low (LD) | `(1 + 19p)/20` |
//! | moderate (MD) | `(1 + 6p)/7` |
//! | high (HD) | `(1 + p)/2` |
//! | complete (CD) | `1` |
//!
//! This matters directly for the paper's fail-over chain: the
//! `EXPns2 → DUns2` edge is a *second* error during recovery from a first
//! one — THERP says its probability should exceed the base hep.

use crate::hep::Hep;

/// THERP dependence level between two consecutive actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DependenceLevel {
    /// Independent actions.
    #[default]
    Zero,
    /// Weak coupling (different subtask, same session).
    Low,
    /// Moderate coupling (same subtask, short gap).
    Moderate,
    /// Strong coupling (immediately repeated action under stress).
    High,
    /// Deterministic repetition (same mistaken mental model).
    Complete,
}

impl DependenceLevel {
    /// Conditional error probability given the previous action erred.
    pub fn conditional_hep(self, base: Hep) -> Hep {
        let p = base.value();
        let cond = match self {
            DependenceLevel::Zero => p,
            DependenceLevel::Low => (1.0 + 19.0 * p) / 20.0,
            DependenceLevel::Moderate => (1.0 + 6.0 * p) / 7.0,
            DependenceLevel::High => (1.0 + p) / 2.0,
            DependenceLevel::Complete => 1.0,
        };
        Hep::new(cond.clamp(0.0, 1.0)).expect("conditional hep stays in [0,1]")
    }

    /// All levels, weakest to strongest.
    pub fn all() -> [DependenceLevel; 5] {
        [
            DependenceLevel::Zero,
            DependenceLevel::Low,
            DependenceLevel::Moderate,
            DependenceLevel::High,
            DependenceLevel::Complete,
        ]
    }

    /// The lowercase name used by spec files and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            DependenceLevel::Zero => "zero",
            DependenceLevel::Low => "low",
            DependenceLevel::Moderate => "moderate",
            DependenceLevel::High => "high",
            DependenceLevel::Complete => "complete",
        }
    }

    /// Parses a level from its lowercase [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Self> {
        DependenceLevel::all().into_iter().find(|l| l.name() == s)
    }

    /// The THERP conditional formula as `1 − (1−p)·f`: the fraction `f`
    /// of the remaining success probability each conditional step keeps.
    fn success_fraction(self) -> f64 {
        match self {
            DependenceLevel::Zero => 1.0,
            DependenceLevel::Low => 19.0 / 20.0,
            DependenceLevel::Moderate => 6.0 / 7.0,
            DependenceLevel::High => 1.0 / 2.0,
            DependenceLevel::Complete => 0.0,
        }
    }
}

impl core::fmt::Display for DependenceLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-incident HEP of an operator already handling `concurrent` other
/// incidents: the base hep escalated by one THERP conditional step per
/// concurrent incident (workload and stress compound, NUREG/CR-1278
/// ch. 10). `concurrent = 0` returns the base hep exactly.
///
/// Every conditional step maps `p ↦ 1 − (1−p)·f` with the level's success
/// fraction `f` (e.g. 19/20 for low dependence), so `k` steps are the
/// closed form `1 − (1−p)·f^k` — evaluated directly rather than iterated,
/// keeping the cost independent of the incident count.
pub fn escalated(base: Hep, level: DependenceLevel, concurrent: u32) -> Hep {
    if concurrent == 0 || level == DependenceLevel::Zero {
        return base;
    }
    let f = level.success_fraction();
    let k = i32::try_from(concurrent).unwrap_or(i32::MAX);
    let p = 1.0 - (1.0 - base.value()) * f.powi(k);
    Hep::new(p.clamp(0.0, 1.0)).expect("escalated hep stays in [0,1]")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_dependence_is_identity() {
        let base = Hep::new(0.01).unwrap();
        assert_eq!(DependenceLevel::Zero.conditional_hep(base).value(), 0.01);
    }

    #[test]
    fn levels_are_ordered() {
        let base = Hep::new(0.01).unwrap();
        let values: Vec<f64> = DependenceLevel::all()
            .iter()
            .map(|l| l.conditional_hep(base).value())
            .collect();
        for w in values.windows(2) {
            assert!(w[0] < w[1], "{w:?}");
        }
        assert_eq!(values[4], 1.0);
    }

    #[test]
    fn therp_table_values() {
        // NUREG/CR-1278 table 10-2 at p = 0.01.
        let base = Hep::new(0.01).unwrap();
        let ld = DependenceLevel::Low.conditional_hep(base).value();
        let md = DependenceLevel::Moderate.conditional_hep(base).value();
        let hd = DependenceLevel::High.conditional_hep(base).value();
        assert!((ld - 0.0595).abs() < 1e-4);
        assert!((md - 0.1514).abs() < 1e-3);
        assert!((hd - 0.505).abs() < 1e-3);
    }

    #[test]
    fn names_round_trip_and_reject_unknowns() {
        for level in DependenceLevel::all() {
            assert_eq!(DependenceLevel::parse(level.name()), Some(level));
            assert_eq!(level.to_string(), level.name());
        }
        assert_eq!(DependenceLevel::parse("severe"), None);
    }

    #[test]
    fn escalated_hep_matches_iterated_conditional_steps() {
        let base = Hep::new(0.01).unwrap();
        for level in DependenceLevel::all() {
            let mut iterated = base;
            for k in 0..6u32 {
                let closed = escalated(base, level, k).value();
                assert!(
                    (closed - iterated.value()).abs() < 1e-12,
                    "{level} at {k}: {closed} vs {}",
                    iterated.value()
                );
                iterated = level.conditional_hep(iterated);
            }
        }
    }

    #[test]
    fn escalation_is_monotone_in_concurrency_and_exact_at_zero() {
        let base = Hep::new(0.02).unwrap();
        // No concurrent incidents: the base hep, bit for bit.
        for level in DependenceLevel::all() {
            assert_eq!(
                escalated(base, level, 0).value().to_bits(),
                0.02f64.to_bits()
            );
        }
        let h = |k| escalated(base, DependenceLevel::High, k).value();
        assert!(h(1) > h(0) && h(2) > h(1) && h(3) > h(2));
        // Complete dependence saturates immediately; high converges to 1.
        assert_eq!(escalated(base, DependenceLevel::Complete, 1).value(), 1.0);
        assert!(h(40) > 1.0 - 1e-9);
    }
}

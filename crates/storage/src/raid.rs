//! RAID geometry: disk counts, fault tolerance, and effective replication
//! factor (ERF).

use crate::error::{Result, StorageError};
use std::fmt;

/// The RAID organization of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaidLevel {
    /// Striping, no redundancy.
    Raid0,
    /// Mirroring.
    Raid1,
    /// Single distributed parity.
    Raid5,
    /// Double distributed parity.
    Raid6,
}

impl fmt::Display for RaidLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RaidLevel::Raid0 => "RAID0",
            RaidLevel::Raid1 => "RAID1",
            RaidLevel::Raid5 => "RAID5",
            RaidLevel::Raid6 => "RAID6",
        };
        f.write_str(s)
    }
}

/// A concrete array geometry: level plus data/redundancy disk counts.
///
/// # Examples
///
/// ```
/// use availsim_storage::RaidGeometry;
///
/// # fn main() -> Result<(), availsim_storage::StorageError> {
/// let g = RaidGeometry::raid5(3)?; // the paper's RAID5 (3+1)
/// assert_eq!(g.total_disks(), 4);
/// assert_eq!(g.fault_tolerance(), 1);
/// assert!((g.effective_replication_factor() - 4.0 / 3.0).abs() < 1e-12);
/// assert_eq!(g.label(), "RAID5(3+1)");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RaidGeometry {
    level: RaidLevel,
    data_disks: u32,
    redundancy_disks: u32,
}

impl RaidGeometry {
    /// RAID0 stripe over `k` disks (no redundancy; any failure is data loss).
    ///
    /// # Errors
    /// Returns [`StorageError::InvalidGeometry`] for `k == 0`.
    pub fn raid0(k: u32) -> Result<Self> {
        if k == 0 {
            return Err(StorageError::InvalidGeometry(
                "raid0 needs at least one disk".into(),
            ));
        }
        Ok(RaidGeometry {
            level: RaidLevel::Raid0,
            data_disks: k,
            redundancy_disks: 0,
        })
    }

    /// A mirrored pair, the paper's `RAID1(1+1)`.
    pub fn raid1_pair() -> Self {
        RaidGeometry {
            level: RaidLevel::Raid1,
            data_disks: 1,
            redundancy_disks: 1,
        }
    }

    /// RAID5 with `k` data disks and one parity disk (`k+1`).
    ///
    /// # Errors
    /// Returns [`StorageError::InvalidGeometry`] for `k < 2`.
    pub fn raid5(k: u32) -> Result<Self> {
        if k < 2 {
            return Err(StorageError::InvalidGeometry(
                "raid5 needs at least two data disks".into(),
            ));
        }
        Ok(RaidGeometry {
            level: RaidLevel::Raid5,
            data_disks: k,
            redundancy_disks: 1,
        })
    }

    /// RAID6 with `k` data disks and two parity disks (`k+2`).
    ///
    /// # Errors
    /// Returns [`StorageError::InvalidGeometry`] for `k < 2`.
    pub fn raid6(k: u32) -> Result<Self> {
        if k < 2 {
            return Err(StorageError::InvalidGeometry(
                "raid6 needs at least two data disks".into(),
            ));
        }
        Ok(RaidGeometry {
            level: RaidLevel::Raid6,
            data_disks: k,
            redundancy_disks: 2,
        })
    }

    /// The RAID level.
    pub fn level(&self) -> RaidLevel {
        self.level
    }

    /// Number of disks carrying user data capacity.
    pub fn data_disks(&self) -> u32 {
        self.data_disks
    }

    /// Number of redundancy (parity or mirror) disks.
    pub fn redundancy_disks(&self) -> u32 {
        self.redundancy_disks
    }

    /// Total number of disks in the array.
    pub fn total_disks(&self) -> u32 {
        self.data_disks + self.redundancy_disks
    }

    /// How many *concurrent* disk losses the array tolerates without losing
    /// data.
    pub fn fault_tolerance(&self) -> u32 {
        self.redundancy_disks
    }

    /// Usable (logical) capacity in units of one disk.
    pub fn usable_capacity(&self) -> u32 {
        self.data_disks
    }

    /// Effective replication factor: physical size over logical size
    /// (cf. Muralidhar et al., OSDI'14 — cited by the paper to explain the
    /// RAID ranking inversion).
    pub fn effective_replication_factor(&self) -> f64 {
        f64::from(self.total_disks()) / f64::from(self.data_disks)
    }

    /// How many arrays of this geometry are needed for `usable` units of
    /// logical capacity.
    ///
    /// # Errors
    /// Returns [`StorageError::CapacityMismatch`] when `usable` is not an
    /// exact multiple of the per-array capacity.
    pub fn arrays_for_usable_capacity(&self, usable: u64) -> Result<u64> {
        let per = u64::from(self.usable_capacity());
        if usable == 0 || !usable.is_multiple_of(per) {
            return Err(StorageError::CapacityMismatch {
                requested: usable,
                per_array: per,
            });
        }
        Ok(usable / per)
    }

    /// Human-readable label such as `RAID5(3+1)`: the `Display` text.
    pub fn label(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for RaidGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}+{})",
            self.level, self.data_disks, self.redundancy_disks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometries() {
        let r1 = RaidGeometry::raid1_pair();
        let r5a = RaidGeometry::raid5(3).unwrap();
        let r5b = RaidGeometry::raid5(7).unwrap();
        assert_eq!(r1.total_disks(), 2);
        assert_eq!(r5a.total_disks(), 4);
        assert_eq!(r5b.total_disks(), 8);
        assert_eq!(r1.label(), "RAID1(1+1)");
        assert_eq!(r5a.label(), "RAID5(3+1)");
        assert_eq!(r5b.label(), "RAID5(7+1)");
    }

    #[test]
    fn erf_matches_paper_values() {
        // Paper §V-C: ERF(RAID1 1+1)=2, ERF(RAID5 3+1)=1.33, ERF(RAID5 7+1)=1.14.
        assert!((RaidGeometry::raid1_pair().effective_replication_factor() - 2.0).abs() < 1e-12);
        assert!(
            (RaidGeometry::raid5(3)
                .unwrap()
                .effective_replication_factor()
                - 4.0 / 3.0)
                .abs()
                < 1e-12
        );
        assert!(
            (RaidGeometry::raid5(7)
                .unwrap()
                .effective_replication_factor()
                - 8.0 / 7.0)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn fault_tolerance_by_level() {
        assert_eq!(RaidGeometry::raid0(4).unwrap().fault_tolerance(), 0);
        assert_eq!(RaidGeometry::raid1_pair().fault_tolerance(), 1);
        assert_eq!(RaidGeometry::raid5(3).unwrap().fault_tolerance(), 1);
        assert_eq!(RaidGeometry::raid6(6).unwrap().fault_tolerance(), 2);
    }

    #[test]
    fn equivalent_capacity_array_counts() {
        // Paper Fig. 6 setup: usable capacity of 21 disk units.
        assert_eq!(
            RaidGeometry::raid1_pair()
                .arrays_for_usable_capacity(21)
                .unwrap(),
            21
        );
        assert_eq!(
            RaidGeometry::raid5(3)
                .unwrap()
                .arrays_for_usable_capacity(21)
                .unwrap(),
            7
        );
        assert_eq!(
            RaidGeometry::raid5(7)
                .unwrap()
                .arrays_for_usable_capacity(21)
                .unwrap(),
            3
        );
    }

    #[test]
    fn capacity_mismatch_detected() {
        let err = RaidGeometry::raid5(3)
            .unwrap()
            .arrays_for_usable_capacity(20)
            .unwrap_err();
        assert_eq!(
            err,
            StorageError::CapacityMismatch {
                requested: 20,
                per_array: 3
            }
        );
        assert!(RaidGeometry::raid5(3)
            .unwrap()
            .arrays_for_usable_capacity(0)
            .is_err());
    }

    #[test]
    fn invalid_geometries_rejected() {
        assert!(RaidGeometry::raid0(0).is_err());
        assert!(RaidGeometry::raid5(1).is_err());
        assert!(RaidGeometry::raid6(0).is_err());
    }

    #[test]
    fn raid6_minimum_width() {
        // k = 2 is the smallest RAID6 (2+2); k = 1 would be a mirror in
        // disguise and is rejected like k = 0.
        assert!(RaidGeometry::raid6(1).is_err());
        let g = RaidGeometry::raid6(2).unwrap();
        assert_eq!(g.total_disks(), 4);
        assert_eq!(g.fault_tolerance(), 2);
        assert_eq!(g.usable_capacity(), 2);
        assert_eq!(g.label(), "RAID6(2+2)");
        assert!((g.effective_replication_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn array_counts_reject_rounding_and_survive_u64_extremes() {
        let r6 = RaidGeometry::raid6(4).unwrap();
        // Non-multiples are a hard error, never silently rounded.
        for bad in [1u64, 3, 5, 7, 4 * 1_000 + 1] {
            assert!(r6.arrays_for_usable_capacity(bad).is_err(), "{bad}");
        }
        assert_eq!(r6.arrays_for_usable_capacity(4_000).unwrap(), 1_000);
        // u64 extremes: the widest multiple of 4 representable does not
        // overflow the division, and u64::MAX (≡ 3 mod 4) is a clean
        // mismatch error rather than a wrap.
        let widest = u64::MAX - 3; // largest multiple of 4
        assert_eq!(r6.arrays_for_usable_capacity(widest).unwrap(), widest / 4);
        assert!(r6.arrays_for_usable_capacity(u64::MAX).is_err());
        // A single-unit geometry maps capacity 1:1 even at the extreme.
        let r1 = RaidGeometry::raid1_pair();
        assert_eq!(r1.arrays_for_usable_capacity(u64::MAX).unwrap(), u64::MAX);
    }

    #[test]
    fn erf_is_consistent_across_constructors() {
        // ERF must always equal total/data no matter which constructor
        // built the geometry — including the mirror pair and raid0's
        // degenerate 1.0.
        let geoms = [
            RaidGeometry::raid0(5).unwrap(),
            RaidGeometry::raid1_pair(),
            RaidGeometry::raid5(2).unwrap(),
            RaidGeometry::raid5(7).unwrap(),
            RaidGeometry::raid6(2).unwrap(),
            RaidGeometry::raid6(10).unwrap(),
        ];
        for g in geoms {
            let expect = f64::from(g.total_disks()) / f64::from(g.data_disks());
            assert_eq!(g.effective_replication_factor(), expect, "{g}");
            assert_eq!(g.usable_capacity(), g.data_disks(), "{g}");
            assert_eq!(g.total_disks() - g.fault_tolerance(), g.data_disks(), "{g}");
        }
    }
}

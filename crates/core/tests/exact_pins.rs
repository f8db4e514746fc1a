//! Pins of the exact answers. Every exact model's steady-state
//! unavailability is pinned bit for bit (as an FNV-1a digest of
//! `to_bits()` over a λ × hep grid). `ChainDef::solve` is the only
//! steady-state path, so the digests pin it: any change to the dense rate
//! matrix it builds or to the GTH kernel that reads it moves a digest.
//! Each model's mean time to data loss is pinned against literals recorded
//! from the dense LU absorbing solve that computed MTTDL before the
//! renewal method on GTH replaced it.

use availsim_core::markov::{
    GenericKofN, Raid5Conventional, Raid5FailOver, SolvedChain, WrongReplacementTiming,
};
use availsim_core::{ModelParams, Result};
use availsim_hra::Hep;
use availsim_storage::{RaidGeometry, ScrubbingModel};

const LAMBDAS: [f64; 5] = [5e-7, 1e-6, 5e-6, 1e-5, 1e-4];
const HEPS: [f64; 3] = [0.0, 0.001, 0.01];

fn geometry(label: &str) -> RaidGeometry {
    if label == "r1" {
        return RaidGeometry::raid1_pair();
    }
    let (level, k) = label.split_once('-').expect("rN-k");
    let k: u32 = k.parse().expect("data disks");
    match level {
        "r5" => RaidGeometry::raid5(k).unwrap(),
        "r6" => RaidGeometry::raid6(k).unwrap(),
        _ => panic!("unknown level {level}"),
    }
}

fn params(raid: &str, lambda: f64, hep: f64) -> ModelParams {
    ModelParams::paper_defaults(geometry(raid), lambda, Hep::new(hep).unwrap()).unwrap()
}

/// The solved chain and the MTTDL.
fn exact(model: &str, p: ModelParams) -> (SolvedChain, Result<f64>) {
    let fig2 = |timing| {
        let m = Raid5Conventional::new(p).unwrap().with_timing(timing);
        (m.solve().unwrap(), m.mttdl_hours())
    };
    match model {
        "fig2-change" => fig2(WrongReplacementTiming::ChangeAction),
        "fig2-repair" => fig2(WrongReplacementTiming::RepairCompletion),
        "fig3" => {
            let m = Raid5FailOver::new(p).unwrap();
            (m.solve().unwrap(), m.mttdl_hours())
        }
        "generic" => {
            let m = GenericKofN::new(p).unwrap();
            (m.solve().unwrap(), m.mttdl_hours())
        }
        _ => panic!("unknown model {model}"),
    }
}

fn fnv1a(hash: &mut u64, v: f64) {
    for b in v.to_bits().to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `(model, raid, digest)`: the unavailability bits over `LAMBDAS` ×
/// `HEPS`, λ-major. The generic chain reduces exactly to Fig. 2 as
/// labeled on single-parity arrays, so those rows share digests.
const UNAVAILABILITY_DIGESTS: [(&str, &str, u64); 14] = [
    ("fig2-change", "r1", 0x18c1_e278_464b_e43b),
    ("fig2-change", "r5-3", 0x639f_c608_ff33_247b),
    ("fig2-change", "r5-7", 0xdaa7_a94f_3b2a_e4a5),
    ("fig2-repair", "r1", 0xb50d_d384_e802_9f82),
    ("fig2-repair", "r5-3", 0x7e5c_f401_683a_ecb3),
    ("fig2-repair", "r5-7", 0x1918_cf88_61bd_6600),
    ("fig3", "r1", 0x34c0_3ba6_3494_c677),
    ("fig3", "r5-3", 0xa449_7baa_39be_9a7d),
    ("fig3", "r5-7", 0xf56c_c657_7e0c_7e28),
    ("generic", "r1", 0xb50d_d384_e802_9f82),
    ("generic", "r5-3", 0x7e5c_f401_683a_ecb3),
    ("generic", "r5-7", 0x1918_cf88_61bd_6600),
    ("generic", "r6-3", 0x259d_1a18_b027_ade4),
    ("generic", "r6-6", 0x1abd_33d6_c5d1_74a8),
];

/// `(model, raid, MTTDL hours)` at (λ, hep) = (1e-6, 0), (1e-6, 0.01),
/// (1e-4, 0), (1e-4, 0.01), as the LU absorbing solve gave them.
#[rustfmt::skip]
const MTTDL_HOURS: [(&str, &str, [f64; 4]); 12] = [
    ("fig2-change", "r1", [50001500000.77388, 539618910.8911265, 5015000.000000301, 2732550.00000009]),
    ("fig2-change", "r5-3", [8333916666.701171, 264580194.17473918, 839166.6666667273, 685650.0000000142]),
    ("fig2-change", "r5-7", [1785982142.8625734, 127354065.4205817, 181249.99999999974, 172668.75000000023]),
    ("fig2-repair", "r1", [50001500000.77388, 4545591000.00101, 5015000.000000301, 4559100.000000334]),
    ("fig2-repair", "r5-3", [8333916666.701171, 1923211615.3845246, 839166.6666667273, 812100.0000000623]),
    ("fig2-repair", "r5-7", [1785982142.8625734, 735404470.588592, 181249.99999999974, 178698.59154929608]),
    ("fig3", "r1", [50001499998.2755, 49850702452.64409, 5015000.00000103, 5014204.298403611]),
    ("fig3", "r5-3", [8333916666.742077, 8324849123.863815, 839166.6666666917, 839055.5218684737]),
    ("fig3", "r5-7", [1785982142.8517578, 1785025138.8682084, 181250.0000000019, 181227.4935736016]),
    ("generic", "r1", [50001499999.72553, 4545590999.992346, 5014999.999999627, 4559100.000000334]),
    ("generic", "r5-3", [8333916666.70117, 1923211615.3845246, 839166.6666667273, 812100.0000000622]),
    ("generic", "r5-7", [1785982142.857224, 735404470.5885919, 181249.99999999977, 178698.59154929267]),
];

/// The generic chain with LSE-aware rebuilds: RAID6(4+2) at λ = 1e-4,
/// hep = 0.01, LSE rate 1e-4 per hour, a scrub every 336 h.
fn lse_point() -> ModelParams {
    params("r6-4", 1e-4, 0.01).with_scrubbing(ScrubbingModel::new(1e-4, 336.0).unwrap())
}
const LSE_UNAVAILABILITY_BITS: u64 = 8.542765830327314e-6f64.to_bits();
const LSE_MTTDL_HOURS: f64 = 3944422.6972087915;

/// MTTDL moves only in its last digits when the method changes.
const MTTDL_REL: f64 = 1e-9;

fn assert_mttdl(what: &str, got: f64, want: f64, rel: f64) {
    let err = (got - want).abs() / want;
    assert!(
        err <= rel,
        "{what}: MTTDL {got:?} h vs pinned {want:?} h (relative {err:.2e})"
    );
}

#[test]
fn unavailability_digests_and_mttdl_are_pinned() {
    for (model, raid, want) in UNAVAILABILITY_DIGESTS {
        let mut hash = FNV_OFFSET;
        for lambda in LAMBDAS {
            for hep in HEPS {
                fnv1a(
                    &mut hash,
                    exact(model, params(raid, lambda, hep)).0.unavailability(),
                );
            }
        }
        assert_eq!(hash, want, "{model} {raid}: digest {hash:#018x}");
    }
    for (model, raid, want) in MTTDL_HOURS {
        let points = [(1e-6, 0.0), (1e-6, 0.01), (1e-4, 0.0), (1e-4, 0.01)];
        for ((lambda, hep), want) in points.into_iter().zip(want) {
            let got = exact(model, params(raid, lambda, hep)).1.unwrap();
            assert_mttdl(
                &format!("{model} {raid} λ={lambda} hep={hep}"),
                got,
                want,
                MTTDL_REL,
            );
        }
    }
    let (solved, mttdl) = exact("generic", lse_point());
    assert_eq!(solved.unavailability().to_bits(), LSE_UNAVAILABILITY_BITS);
    assert_mttdl(
        "generic r6-4 with LSE",
        mttdl.unwrap(),
        LSE_MTTDL_HOURS,
        MTTDL_REL,
    );
}

/// RAID6 MTTDL hours over `LAMBDAS` × `HEPS` as the LU absorbing solve
/// gave them; `None` where it failed as "singular to working precision".
#[rustfmt::skip]
const RAID6_MTTDL_HOURS: [(&str, [[Option<f64>; 3]; 5]); 3] = [
    ("r6-3", [
        [None, None, None],
        [Some(166680026300130.16), None, None],
        [None, None, None],
        [None, Some(157335972937.79678), Some(91651913943.19667)],
        [Some(168007833.3304693), Some(167036963.7130214), Some(158407695.10492486)],
    ]),
    ("r6-4", [
        [None, Some(271484490562442.16), Some(9915369966798.098)],
        [None, None, None],
        [None, Some(609235841963.8416), None],
        [Some(83416728294.3169), Some(79748165885.44632), Some(52411651453.75681)],
        [Some(84172833.33411004), Some(83797267.66201611), Some(80443601.99283837)],
    ]),
    ("r6-6", [
        [None, None, None],
        [None, Some(21666836502272.63), Some(2730503789035.8823)],
        [None, Some(223925289209.77423), Some(126102939644.35645)],
        [Some(29803614900.757736), Some(28897794844.331493), Some(21650465575.34822)],
        [Some(30182916.666460596), Some(30090160.581434555), Some(29258107.348437984)],
    ]),
];

#[test]
fn raid6_mttdl_answers_on_the_whole_grid() {
    for (raid, rows) in RAID6_MTTDL_HOURS {
        for (lambda, row) in LAMBDAS.into_iter().zip(rows) {
            for (hep, pinned) in HEPS.into_iter().zip(row) {
                let what = format!("generic {raid} λ={lambda} hep={hep}");
                let got = exact("generic", params(raid, lambda, hep))
                    .1
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert!(got.is_finite() && got > 0.0, "{what}: MTTDL {got}");
                if let Some(want) = pinned {
                    assert_mttdl(&what, got, want, 1e-6);
                }
            }
        }
    }
}

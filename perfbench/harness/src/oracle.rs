//! Exact-chain oracles: the value every exact cell must reproduce and the
//! value every Monte-Carlo cell must approach.
//!
//! Exact cells must equal an independent `core::markov` solve to 1e-12
//! relative. Monte-Carlo cells must satisfy
//! `|U_mc − U_exact| ≤ MC_HALF_WIDTHS · ci_half_width + MC_REL_SLACK · U_exact`.
//! The slack covers the bias of a finite-horizon interval estimate that
//! starts with every disk up, next to the steady-state chain; it is the
//! reason `availsim validate`'s verdict line is not used as the check.

use crate::JsonOut;
use availsim_core::markov::{GenericKofN, Raid5Conventional, Raid5FailOver, SolvedChain};
use availsim_core::ModelParams;
use availsim_hra::Hep;
use availsim_storage::{RaidGeometry, Volume};

/// Confidence half-widths a Monte-Carlo estimate may sit from the chain.
pub const MC_HALF_WIDTHS: f64 = 4.0;
/// Relative slack for the finite-horizon bias of Monte-Carlo estimates.
pub const MC_REL_SLACK: f64 = 0.02;
/// Relative tolerance for exact cells (formatting round trips only).
const EXACT_REL: f64 = 1e-12;

/// The exact solve a cell of this model and policy runs, with its MTTDL.
pub fn exact(
    generic: bool,
    failover: bool,
    raid: RaidGeometry,
    lambda: f64,
    hep: f64,
) -> Result<(f64, f64), String> {
    let hep = Hep::new(hep).map_err(|e| e.to_string())?;
    let params = ModelParams::paper_defaults(raid, lambda, hep).map_err(|e| e.to_string())?;
    let err = |e: availsim_core::CoreError| e.to_string();
    let pair = |solved: availsim_core::Result<SolvedChain>, mttdl: availsim_core::Result<f64>| {
        Ok((solved.map_err(err)?.unavailability(), mttdl.map_err(err)?))
    };
    if failover {
        let m = Raid5FailOver::new(params).map_err(err)?;
        pair(m.solve(), m.mttdl_hours())
    } else if generic || raid.fault_tolerance() != 1 {
        let m = GenericKofN::new(params).map_err(err)?;
        pair(m.solve(), m.mttdl_hours())
    } else {
        let m = Raid5Conventional::new(params).map_err(err)?;
        pair(m.solve(), m.mttdl_hours())
    }
}

/// Whether a Monte-Carlo estimate is within tolerance of the exact value.
pub fn mc_agrees(estimate: f64, half_width: f64, exact: f64) -> bool {
    (estimate - exact).abs() <= MC_HALF_WIDTHS * half_width + MC_REL_SLACK * exact
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= EXACT_REL * a.abs().max(b.abs())
}

/// Parses a report label (`RAID1(1+1)`, `RAID5(3+1)`, `RAID6(3+2)`).
fn geometry_from_label(label: &str) -> Result<RaidGeometry, String> {
    let bad = || format!("unrecognised raid label `{label}`");
    let (level, rest) = label
        .strip_prefix("RAID")
        .and_then(|r| r.split_once('('))
        .ok_or_else(bad)?;
    let k: u32 = rest
        .split_once('+')
        .and_then(|(k, _)| k.parse().ok())
        .ok_or_else(bad)?;
    match level {
        "1" => Ok(RaidGeometry::raid1_pair()),
        "5" => RaidGeometry::raid5(k).map_err(|e| e.to_string()),
        "6" => RaidGeometry::raid6(k).map_err(|e| e.to_string()),
        _ => Err(bad()),
    }
}

/// Checks every row of a campaign CSV against the oracle. Prints each
/// mismatch to stderr and returns `{"cells", "failed"}`.
pub fn check_csv(model: &str, path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().ok_or("empty CSV")?.split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name);
    let need = |name: &str| col(name).ok_or_else(|| format!("CSV has no `{name}` column"));
    let (raid_c, policy_c, lambda_c, hep_c, u_c) = (
        need("raid")?,
        need("policy")?,
        need("lambda")?,
        need("hep")?,
        need("unavailability")?,
    );
    let (hw_c, mttdl_c, arrays_c, vol_c) = (
        col("ci_half_width"),
        col("mttdl_hours"),
        col("arrays"),
        col("volume_unavailability"),
    );
    let mc = model == "mc";
    let generic = model == "generic-k-of-n";
    let (mut cells, mut failed) = (0u64, 0u64);
    for line in lines {
        cells += 1;
        let f: Vec<&str> = line.split(',').collect();
        let num = |c: usize| -> Result<f64, String> {
            f.get(c)
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or_else(|| format!("row {cells}: bad number in column {}", header[c]))
        };
        let verdict = (|| -> Result<Option<String>, String> {
            let raid = geometry_from_label(f.get(raid_c).copied().unwrap_or_default())?;
            let failover = f.get(policy_c).copied() == Some("failover");
            let (lambda, hep, u) = (num(lambda_c)?, num(hep_c)?, num(u_c)?);
            let (want, want_mttdl) = exact(generic, failover, raid, lambda, hep)?;
            if mc {
                let hw = num(hw_c.ok_or("mc CSV has no ci_half_width column")?)?;
                if !mc_agrees(u, hw, want) {
                    return Ok(Some(format!("mc {u:e} ± {hw:e} vs exact {want:e}")));
                }
                return Ok(None);
            }
            if !close(u, want) {
                return Ok(Some(format!("unavailability {u:e} vs exact {want:e}")));
            }
            if let Some(c) = mttdl_c {
                if !close(num(c)?, want_mttdl) {
                    return Ok(Some(format!("mttdl {} vs exact {want_mttdl:e}", num(c)?)));
                }
            }
            if let (Some(a), Some(v)) = (arrays_c, vol_c) {
                let arrays = num(a)? as u64;
                let want_vol = Volume::new(raid, arrays).series_unavailability(want);
                if !close(num(v)?, want_vol) {
                    return Ok(Some(format!("volume {} vs exact {want_vol:e}", num(v)?)));
                }
            }
            Ok(None)
        })();
        let problem = match verdict {
            Ok(None) => continue,
            Ok(Some(p)) | Err(p) => p,
        };
        failed += 1;
        if failed <= 5 {
            eprintln!("check {path}: row {cells}: {problem}");
        }
    }
    let mut out = JsonOut::default();
    out.int("cells", cells);
    out.int("failed", failed);
    Ok(out.render())
}

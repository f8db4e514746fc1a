//! Grid expansion: turning a [`Scenario`] into an ordered list of cells.
//!
//! The grid is the cartesian product of the axes in a fixed canonical
//! order — `raid` (outermost) × `policy` × `lambda` × `hep` (innermost) —
//! so a given spec always expands to the same cell sequence regardless of
//! the order axes were declared in. Each cell gets its own RNG seed
//! derived from `(campaign seed, cell index)` through the simulator's
//! SplitMix64/xoshiro substream splitter, which makes Monte-Carlo cells
//! statistically independent yet fully reproducible.

use crate::error::{ExpError, Result};
use crate::spec::{Policy, Scenario};
use availsim_sim::rng::SimRng;
use availsim_storage::RaidGeometry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hash;

/// One grid point: a concrete parameter assignment plus its derived seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Position in the plan (row-major over the canonical axis order).
    pub index: u64,
    /// Per-cell RNG seed, a substream of the campaign seed.
    pub seed: u64,
    /// Array geometry.
    pub raid: RaidGeometry,
    /// Replacement discipline.
    pub policy: Policy,
    /// Disk failure rate λ (per hour).
    pub lambda: f64,
    /// Human error probability.
    pub hep: f64,
}

impl Cell {
    /// The one cell of a single-point scenario — a CLI run or a serve
    /// query — seeded with the scenario's seed itself rather than a
    /// substream of it.
    pub fn point(scenario: &Scenario) -> Cell {
        Cell {
            index: 0,
            seed: scenario.seed,
            raid: scenario.raid[0],
            policy: scenario.effective_policies()[0],
            lambda: scenario.lambda[0],
            hep: scenario.hep[0],
        }
    }
}

/// The expanded campaign: every cell, in canonical order.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The scenario this plan was expanded from.
    pub scenario: Scenario,
    /// Cells in canonical row-major order.
    pub cells: Vec<Cell>,
}

/// Derives the deterministic seed of cell `index` under `campaign_seed`.
pub fn cell_seed(campaign_seed: u64, index: u64) -> u64 {
    SimRng::substream(campaign_seed, index).next_u64()
}

/// Expands a scenario into its full grid.
///
/// # Errors
/// Returns [`ExpError::InvalidSpec`] if the scenario fails validation or
/// the grid is empty.
pub fn expand(scenario: &Scenario) -> Result<Plan> {
    scenario.validate()?;
    let policies = scenario.effective_policies();
    let mut cells = Vec::with_capacity(
        scenario.raid.len() * policies.len() * scenario.lambda.len() * scenario.hep.len(),
    );
    let mut index = 0u64;
    for &raid in &scenario.raid {
        for &policy in &policies {
            for &lambda in &scenario.lambda {
                for &hep in &scenario.hep {
                    cells.push(Cell {
                        index,
                        seed: cell_seed(scenario.seed, index),
                        raid,
                        policy,
                        lambda,
                        hep,
                    });
                    index += 1;
                }
            }
        }
    }
    if cells.is_empty() {
        return Err(ExpError::InvalidSpec("the grid expands to no cells".into()));
    }
    Ok(Plan {
        scenario: scenario.clone(),
        cells,
    })
}

impl Plan {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan has no cells (never true for [`expand`] output).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Human-readable plan description, used by `availsim batch --dry-run`.
    ///
    /// The output is byte-stable for a fixed scenario: axis values are
    /// printed in shortest round-trip form (`{:?}`) and seeds as
    /// fixed-width hex. Each cell line is written straight into the
    /// output, and each raid, λ and hep text is formatted once per
    /// distinct value, λ and hep already padded to their columns (a
    /// float is keyed by its bits, so `-0.0` keeps its own text).
    pub fn describe(&self) -> String {
        let s = &self.scenario;
        let mut out = String::new();
        let _ = writeln!(out, "campaign {}", s.name);
        let _ = writeln!(out, "  model     : {}", s.model);
        let _ = writeln!(out, "  seed      : {}", s.seed);
        if s.model == crate::spec::ModelKind::Mc
            && s.mc.variance != availsim_core::mc::McVariance::Naive
        {
            let _ = writeln!(out, "  variance  : {}", s.mc.variance);
        }
        // Default (1) is silent so existing campaigns keep their bytes.
        if s.model == crate::spec::ModelKind::Mc && s.mc.threads != 1 {
            let line = if s.mc.threads == 0 {
                "auto (machine parallelism)".to_string()
            } else {
                s.mc.threads.to_string()
            };
            let _ = writeln!(out, "  threads   : {line}");
        }
        if let Some(fleet) = s.fleet {
            let mut line = format!("{} arrays per cell", fleet.arrays);
            if let Some(crews) = fleet.repairmen {
                let _ = write!(line, ", {crews} repair crews");
            }
            if fleet.dependence != availsim_hra::DependenceLevel::Zero {
                let _ = write!(line, ", {} dependence", fleet.dependence);
            }
            if let (Some(domain), Some(rate)) = (fleet.domain_arrays, fleet.domain_rate) {
                let _ = write!(line, ", domains of {domain} at {rate:?}/h");
            }
            if let Some(capacity) = fleet.failover_capacity {
                match capacity {
                    None => {
                        let _ = write!(line, ", DR capacity unlimited");
                    }
                    Some(k) => {
                        let _ = write!(line, ", DR capacity {k} ({})", fleet.failover_policy);
                    }
                }
                if let Some(rate) = fleet.failback_rate {
                    let _ = write!(line, ", fail-back {rate:?}/h");
                }
            }
            let _ = writeln!(out, "  fleet     : {line}");
        }
        if let Some(cap) = s.capacity {
            let _ = writeln!(out, "  capacity  : {cap} disk units (volume metrics on)");
        }
        if let Some(lse) = s.lse {
            let _ = writeln!(
                out,
                "  lse       : rate {:?}/disk-h, scrub every {:?} h{}",
                lse.lse_rate,
                lse.scrub_interval_hours,
                if lse.is_live() {
                    ""
                } else {
                    " (inert: rate 0)"
                }
            );
        }
        if s.telemetry.enabled() || s.telemetry.progress {
            let mut line = String::new();
            if let Some(path) = &s.telemetry.metrics {
                let _ = write!(line, "metrics -> {path} ({})", s.telemetry.format);
            }
            if s.telemetry.progress {
                if !line.is_empty() {
                    line.push_str(", ");
                }
                line.push_str("progress on");
            }
            let _ = writeln!(out, "  telemetry : {line}");
        }
        let _ = writeln!(
            out,
            "  axes      : raid[{}] x policy[{}] x lambda[{}] x hep[{}]",
            s.raid.len(),
            s.effective_policies().len(),
            s.lambda.len(),
            s.hep.len()
        );
        let _ = writeln!(out, "  cells     : {}", self.cells.len());
        let _ = writeln!(
            out,
            "  {:>5} {:>18} {:<12} {:<12} {:>12} {:>10}",
            "cell", "seed", "raid", "policy", "lambda", "hep"
        );
        let mut raids = AxisText::new(label);
        let mut lambdas = AxisText::new(|out, bits| {
            let _ = write!(out, "{:>12?}", f64::from_bits(bits));
        });
        let mut heps = AxisText::new(|out, bits| {
            let _ = write!(out, "{:>10?}", f64::from_bits(bits));
        });
        for c in &self.cells {
            let _ = writeln!(
                out,
                "  {:>5} {:>#18x} {:<12} {:<12} {} {}",
                c.index,
                c.seed,
                raids.get(c.raid),
                c.policy.as_str(),
                lambdas.get(c.lambda.to_bits()),
                heps.get(c.hep.to_bits())
            );
        }
        out
    }
}

/// The text of axis values, each formatted once per distinct value. A
/// float is keyed by its bits, so `-0.0` keeps its own text beside `0.0`.
pub(crate) struct AxisText<K> {
    format: fn(&mut String, K),
    text: String,
    /// Where each value's text sits in `text`.
    spans: HashMap<K, (usize, usize)>,
    /// The last value asked for, which an outer axis repeats for a block
    /// of cells, and its span.
    last: Option<(K, (usize, usize))>,
}

impl<K: Copy + Eq + Hash> AxisText<K> {
    pub(crate) fn new(format: fn(&mut String, K)) -> Self {
        AxisText {
            format,
            text: String::new(),
            spans: HashMap::new(),
            last: None,
        }
    }

    /// `key`'s text, formatted on its first use.
    pub(crate) fn get(&mut self, key: K) -> &str {
        let (start, end) = match self.last {
            Some((last, span)) if last == key => span,
            _ => {
                let (format, text) = (self.format, &mut self.text);
                let span = *self.spans.entry(key).or_insert_with(|| {
                    let start = text.len();
                    format(text, key);
                    (start, text.len())
                });
                self.last = Some((key, span));
                span
            }
        };
        &self.text[start..end]
    }
}

/// Writes `raid`'s label.
pub(crate) fn label(out: &mut String, raid: RaidGeometry) {
    let _ = write!(out, "{raid}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelKind;

    fn scenario() -> Scenario {
        Scenario::parse(
            "[campaign]\nname = t\nseed = 5\n[axes]\nraid = [r1, r5-3]\nlambda = [1e-6, 1e-5]\nhep = [0, 0.01]\n",
        )
        .unwrap()
    }

    #[test]
    fn cell_count_is_the_axis_product() {
        let plan = expand(&scenario()).unwrap();
        assert_eq!(plan.len(), 8); // raid(2) x policy(1) x lambda(2) x hep(2)
        assert!(!plan.is_empty());
    }

    #[test]
    fn cells_are_indexed_in_canonical_row_major_order() {
        let plan = expand(&scenario()).unwrap();
        for (i, c) in plan.cells.iter().enumerate() {
            assert_eq!(c.index, i as u64);
        }
        // hep is the innermost axis.
        assert_eq!(plan.cells[0].hep, 0.0);
        assert_eq!(plan.cells[1].hep, 0.01);
        // lambda next.
        assert_eq!(plan.cells[0].lambda, 1e-6);
        assert_eq!(plan.cells[2].lambda, 1e-5);
        // raid outermost.
        assert_eq!(plan.cells[0].raid.label(), "RAID1(1+1)");
        assert_eq!(plan.cells[4].raid.label(), "RAID5(3+1)");
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let a = expand(&scenario()).unwrap();
        let b = expand(&scenario()).unwrap();
        assert_eq!(a, b);
        let mut seeds: Vec<u64> = a.cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len(), "per-cell seeds must be distinct");
        assert_eq!(a.cells[3].seed, cell_seed(5, 3));
    }

    #[test]
    fn different_campaign_seeds_move_every_cell_seed() {
        let mut s2 = scenario();
        s2.seed = 6;
        let a = expand(&scenario()).unwrap();
        let b = expand(&s2).unwrap();
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_ne!(ca.seed, cb.seed);
        }
    }

    #[test]
    fn describe_is_stable_and_complete() {
        let plan = expand(&scenario()).unwrap();
        let d1 = plan.describe();
        let d2 = expand(&scenario()).unwrap().describe();
        assert_eq!(d1, d2);
        assert!(d1.contains("cells     : 8"));
        assert!(d1.contains("RAID5(3+1)"));
        assert!(d1.contains("conventional"));
        assert!(d1.contains("1e-5"));
    }

    #[test]
    fn describe_shows_the_variance_line_only_for_rare_event_mc() {
        let naive =
            Scenario::parse("[campaign]\nname = n\nmodel = mc\n[axes]\nlambda = 1e-6\n").unwrap();
        assert!(!expand(&naive).unwrap().describe().contains("variance"));
        let biased = Scenario::parse(
            "[campaign]\nname = b\nmodel = mc\n[axes]\nlambda = 1e-6\n[mc]\nvariance = failure-biasing\n",
        )
        .unwrap();
        let d = expand(&biased).unwrap().describe();
        assert!(d.contains("  variance  : failure-biasing(bias=0.5)"), "{d}");
    }

    #[test]
    fn describe_shows_the_telemetry_line_only_when_configured() {
        assert!(!expand(&scenario())
            .unwrap()
            .describe()
            .contains("telemetry"));
        let s = Scenario::parse(
            "[campaign]\nname = t\n[telemetry]\nmetrics = m.prom\nformat = prom\nprogress = true\n",
        )
        .unwrap();
        let d = expand(&s).unwrap().describe();
        assert!(
            d.contains("  telemetry : metrics -> m.prom (prom), progress on"),
            "{d}"
        );
    }

    #[test]
    fn describe_shows_the_lse_line_only_when_configured() {
        assert!(!expand(&scenario()).unwrap().describe().contains("lse"));
        let live = Scenario::parse(
            "[campaign]\nname = l\nmodel = mc\n[lse]\nlse_rate = 1e-4\nscrub_interval = 336\n",
        )
        .unwrap();
        let d = expand(&live).unwrap().describe();
        assert!(
            d.contains("  lse       : rate 0.0001/disk-h, scrub every 336.0 h"),
            "{d}"
        );
        assert!(!d.contains("inert"), "{d}");
        let inert = Scenario::parse(
            "[campaign]\nname = l\nmodel = mc\n[lse]\nlse_rate = 0\nscrub_interval = 336\n",
        )
        .unwrap();
        let d = expand(&inert).unwrap().describe();
        assert!(d.contains("(inert: rate 0)"), "{d}");
    }

    #[test]
    fn describe_appends_the_dr_segment_only_when_configured() {
        let plain =
            Scenario::parse("[campaign]\nname = f\nmodel = mc\n[fleet]\narrays = 8\n").unwrap();
        assert!(!expand(&plain).unwrap().describe().contains("DR"));
        let bounded = Scenario::parse(
            "[campaign]\nname = f\nmodel = mc\n[fleet]\narrays = 8\nfailover_capacity = 2\nfailover_policy = loss\nfailback_rate = 0.05\n",
        )
        .unwrap();
        let d = expand(&bounded).unwrap().describe();
        assert!(
            d.contains("8 arrays per cell, DR capacity 2 (loss), fail-back 0.05/h"),
            "{d}"
        );
        let ideal = Scenario::parse(
            "[campaign]\nname = f\nmodel = mc\n[fleet]\narrays = 8\nfailover_capacity = inf\n",
        )
        .unwrap();
        let d = expand(&ideal).unwrap().describe();
        assert!(
            d.contains("8 arrays per cell, DR capacity unlimited"),
            "{d}"
        );
        assert!(!d.contains("fail-back"), "{d}");
    }

    #[test]
    fn policy_axis_expands_both_disciplines() {
        let s = Scenario::parse(
            "[campaign]\nname = p\nmodel = markov-conventional\n[axes]\npolicy = [conventional, failover]\n",
        )
        .unwrap();
        assert_eq!(s.model, ModelKind::MarkovConventional);
        let plan = expand(&s).unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.cells[0].policy, Policy::Conventional);
        assert_eq!(plan.cells[1].policy, Policy::Failover);
    }
}

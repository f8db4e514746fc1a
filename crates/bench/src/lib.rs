//! Shared harness for the figure-regeneration benchmarks.
//!
//! Every bench target first *prints the reproduced figure as data* (series
//! or table), then runs a Criterion timing of the computational kernel
//! behind it. Monte-Carlo volumes are scaled by the `AVAILSIM_BENCH_SCALE`
//! environment variable (default 1.0; the paper's 10⁶-iteration setting is
//! roughly `AVAILSIM_BENCH_SCALE=5`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use availsim_core::analysis::{fig7_policy_sweep, underestimation_sweep, PolicyComparison};
use availsim_core::markov::{Raid5Conventional, Raid5FailOver, WrongReplacementTiming};
use availsim_core::mc::{ConventionalMc, McConfig};
use availsim_core::report::{Series, Table};
use availsim_core::volume::{compare_equal_capacity, FIG6_USABLE_CAPACITY};
use availsim_core::ModelParams;
use availsim_hra::Hep;
use availsim_storage::FailureModel;

/// Multiplier applied to Monte-Carlo iteration counts, from
/// `AVAILSIM_BENCH_SCALE` (default 1.0, minimum 0.01).
pub fn bench_scale() -> f64 {
    std::env::var("AVAILSIM_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v.max(0.01))
        .unwrap_or(1.0)
}

/// Scales a base iteration count by [`bench_scale`].
pub fn mc_iterations(base: u64) -> u64 {
    ((base as f64) * bench_scale()).round().max(2.0) as u64
}

/// The λ grid of the paper's Fig. 4 x-axis (5e-7 … 5.5e-6).
pub fn fig4_lambda_grid() -> Vec<f64> {
    (1..=11).map(|i| i as f64 * 5e-7).collect()
}

/// Default RAID5(3+1) parameters at the given λ and hep.
///
/// # Panics
/// Panics only on invalid inputs (not reachable from the fixed grids used
/// by the benches).
pub fn raid5_params(lambda: f64, hep: f64) -> ModelParams {
    ModelParams::raid5_3plus1(lambda, Hep::new(hep).expect("valid hep")).expect("valid parameters")
}

/// Fig. 4 — MC vs Markov availability (nines) over the λ grid, for
/// `hep ∈ {0.001, 0.01}`. Returns the four series in the paper's legend
/// order.
pub fn fig4_series(mc_iters: u64) -> Vec<Series> {
    let mut out = Vec::new();
    for &hep in &[0.01, 0.001] {
        let mut mc_series = Series::new(format!("MC Simulation, hep={hep}"));
        let mut markov_series = Series::new(format!("Markov, hep={hep}"));
        for &lam in &fig4_lambda_grid() {
            let params = raid5_params(lam, hep);
            let markov = Raid5Conventional::new(params)
                .expect("valid model")
                .solve()
                .expect("solvable");
            let config = McConfig {
                iterations: mc_iters,
                horizon_hours: 87_600.0,
                seed: (lam * 1e9) as u64 ^ (hep * 1e6) as u64,
                confidence: 0.99,
                threads: 0,
                ..McConfig::default()
            };
            let est = ConventionalMc::new(params)
                .expect("valid model")
                .run(&config)
                .expect("valid config");
            mc_series.push(lam, est.nines());
            markov_series.push(lam, markov.nines());
        }
        out.push(mc_series);
        out.push(markov_series);
    }
    out
}

/// Fig. 5 — availability of RAID5(3+1) vs hep for the four Weibull field
/// fits (Monte-Carlo; the analytical model cannot handle Weibull).
pub fn fig5_table(mc_iters: u64) -> Table {
    let mut table = Table::new(
        "Fig. 5 — RAID5(3+1) availability (nines) under Weibull field fits",
        &["rate", "beta", "hep=0", "hep=0.001", "hep=0.01"],
    );
    for &(rate, beta) in &availsim_storage::SCHROEDER_GIBSON_FITS {
        let mut cells = vec![format!("{rate:.2e}"), format!("{beta}")];
        for &hep in &[0.0, 0.001, 0.01] {
            let params = raid5_params(rate, hep);
            let failures = FailureModel::weibull(rate, beta).expect("valid fit");
            let mc = ConventionalMc::with_failure_model(params, failures).expect("valid model");
            let config = McConfig {
                iterations: mc_iters,
                horizon_hours: 87_600.0,
                seed: (rate * 1e9) as u64 ^ (beta * 100.0) as u64 ^ (hep * 1e6) as u64,
                confidence: 0.99,
                threads: 0,
                ..McConfig::default()
            };
            let est = mc.run(&config).expect("valid config");
            if est.du_events + est.dl_events == 0 {
                // No outage observed: report the resolution limit of the
                // run (one mean-length restore over the simulated time)
                // rather than a meaningless "infinite nines".
                let resolution = (1.0 / 0.03) / (config.horizon_hours * config.iterations as f64);
                cells.push(format!(
                    ">{:.1}",
                    availsim_core::nines::nines_from_unavailability(resolution)
                ));
            } else {
                cells.push(format!("{:.3}", est.nines()));
            }
        }
        table.push_row(&cells);
    }
    table
}

/// Fig. 6 — equivalent-capacity RAID comparison for one λ sub-figure.
pub fn fig6_table(lambda: f64) -> Table {
    let mut table = Table::new(
        format!("Fig. 6 — equal usable capacity, λ={lambda:.0e} (availability in nines)"),
        &[
            "configuration",
            "arrays",
            "disks",
            "ERF",
            "hep=0",
            "hep=0.001",
            "hep=0.01",
        ],
    );
    let heps = [0.0, 0.001, 0.01];
    let base =
        compare_equal_capacity(FIG6_USABLE_CAPACITY, lambda, Hep::ZERO).expect("valid comparison");
    for (idx, row0) in base.iter().enumerate() {
        let mut cells = vec![
            row0.label.clone(),
            row0.arrays.to_string(),
            row0.total_disks.to_string(),
            format!("{:.2}", row0.erf),
        ];
        for &hep in &heps {
            let rows = compare_equal_capacity(
                FIG6_USABLE_CAPACITY,
                lambda,
                Hep::new(hep).expect("valid hep"),
            )
            .expect("valid comparison");
            cells.push(format!("{:.3}", rows[idx].nines()));
        }
        table.push_row(&cells);
    }
    table
}

/// Fig. 7 — conventional vs automatic fail-over at λ = 1e-6.
pub fn fig7_table() -> (Table, Vec<PolicyComparison>) {
    let base = raid5_params(1e-6, 0.0);
    let rows = fig7_policy_sweep(base).expect("valid sweep");
    let mut table = Table::new(
        "Fig. 7 — replacement policy (availability in nines, λ=1e-6)",
        &[
            "hep",
            "conventional",
            "automatic fail-over",
            "improvement (×)",
        ],
    );
    for r in &rows {
        table.push_row(&[
            format!("{}", r.hep),
            format!("{:.3}", r.conventional_nines()),
            format!("{:.3}", r.failover_nines()),
            format!("{:.1}", r.improvement()),
        ]);
    }
    (table, rows)
}

/// Headline table — downtime underestimation `U(hep=0.01)/U(0)` over the
/// Fig. 4 λ grid, both wrong-replacement-timing readings.
pub fn underestimation_table() -> (Table, f64) {
    let grid = fig4_lambda_grid();
    let base = raid5_params(1e-6, 0.01);
    let (rows, max) = underestimation_sweep(base, &grid).expect("valid sweep");
    let mut table = Table::new(
        "Headline — downtime underestimation when hep is ignored (hep=0.01)",
        &[
            "lambda",
            "U(hep)",
            "U(0)",
            "factor",
            "factor (as-labeled reading)",
        ],
    );
    for r in &rows {
        let labeled = Raid5Conventional::new(raid5_params(r.disk_failure_rate, 0.01))
            .expect("valid model")
            .with_timing(WrongReplacementTiming::RepairCompletion)
            .solve()
            .expect("solvable")
            .unavailability()
            / r.without_hep;
        table.push_row(&[
            format!("{:.2e}", r.disk_failure_rate),
            format!("{:.3e}", r.with_hep),
            format!("{:.3e}", r.without_hep),
            format!("{:.1}", r.factor()),
            format!("{labeled:.1}"),
        ]);
    }
    (table, max)
}

/// Builds and solves the Fig. 3 chain once (the kernel `fig7_failover` times).
pub fn failover_chain_build_and_solve(lambda: f64, hep: f64) -> f64 {
    Raid5FailOver::new(raid5_params(lambda, hep))
        .expect("valid model")
        .solve()
        .expect("solvable")
        .unavailability()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_env_contract() {
        // Default is >= 0.01 regardless of the environment.
        assert!(bench_scale() >= 0.01);
        assert!(mc_iterations(100) >= 2);
    }

    #[test]
    fn fig4_grid_matches_paper_axis() {
        let g = fig4_lambda_grid();
        assert_eq!(g.len(), 11);
        assert!((g[0] - 5e-7).abs() < 1e-18);
        assert!((g[10] - 5.5e-6).abs() < 1e-18);
    }

    #[test]
    fn fig6_table_has_three_rows() {
        let t = fig6_table(1e-5);
        assert_eq!(t.len(), 3);
        assert!(t.render().contains("RAID5(7+1)"));
    }

    #[test]
    fn fig7_table_reports_improvement() {
        let (t, rows) = fig7_table();
        assert_eq!(t.len(), 3);
        assert!(rows[2].improvement() > rows[0].improvement());
    }

    #[test]
    fn underestimation_hits_the_headline_band() {
        let (_, max) = underestimation_table();
        assert!(max > 200.0 && max < 320.0, "max {max}");
    }

    #[test]
    fn fig5_small_run_executes() {
        let t = fig5_table(200);
        assert_eq!(t.len(), 4);
    }
}

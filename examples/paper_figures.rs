//! Reproduces the paper's Figs. 4–7 and its headline table as data: each
//! section prints the series or table behind one figure, under a `===`
//! heading.
//!
//! ```text
//! cargo run --release --example paper_figures
//! ```
//!
//! Figs. 4 and 5 run 50 000 Monte-Carlo missions per point; Figs. 6, 7 and
//! the headline table are exact. Fig. 1 is `examples/mc_trace.rs`.

use availsim::core::analysis::{fig7_policy_sweep, underestimation_sweep, PolicyComparison};
use availsim::core::markov::{Raid5Conventional, WrongReplacementTiming};
use availsim::core::mc::{ConventionalMc, McConfig};
use availsim::core::nines::nines_from_unavailability;
use availsim::core::report::{Series, Table};
use availsim::core::volume::{compare_equal_capacity, FIG6_USABLE_CAPACITY};
use availsim::core::ModelParams;
use availsim::hra::Hep;
use availsim::storage::{FailureModel, SCHROEDER_GIBSON_FITS};

/// Monte-Carlo missions per Fig. 4 point and per Fig. 5 cell; 10⁶ is the
/// paper's setting.
const MC_MISSIONS: u64 = 50_000;

fn main() {
    print_fig4();
    print_fig5();
    print_fig6();
    print_fig7();
    print_underestimation();
}

/// Fig. 4 — validation of the Markov model against the Monte-Carlo
/// reference: availability (nines) vs λ for hep ∈ {0.001, 0.01}.
fn print_fig4() {
    println!("\n=== Fig. 4: MC vs Markov, RAID5(3+1), availability in nines ===");
    println!("(MC: {MC_MISSIONS} missions/point, 10-year missions, 99% CI)\n");
    for series in fig4_series(MC_MISSIONS) {
        println!("{}", series.render());
    }
}

/// Fig. 5 — availability of a RAID5(3+1) array vs human-error probability
/// for the four Weibull field fits (Schroeder–Gibson FAST'07 parameters).
/// Weibull lifetimes are outside the Markov model's reach, so this figure
/// is Monte-Carlo only, as in the paper.
fn print_fig5() {
    println!("\n=== Fig. 5: Weibull field fits, RAID5(3+1), availability in nines ===");
    println!("(MC: {MC_MISSIONS} missions/cell, 10-year missions)\n");
    println!("{}", fig5_table(MC_MISSIONS).render());
}

/// Fig. 6 — availability of RAID1(1+1), RAID5(3+1), RAID5(7+1) volumes of
/// equivalent usable capacity (21 disk units), for λ ∈ {1e-5, 1e-6, 1e-7}
/// and hep ∈ {0, 0.001, 0.01}.
fn print_fig6() {
    println!("\n=== Fig. 6: equal-usable-capacity comparison (volume availability, nines) ===\n");
    for &lambda in &[1e-5, 1e-6, 1e-7] {
        println!("{}", fig6_table(lambda).render());
    }
    println!(
        "note: volume = series system over arrays; usable capacity {} disk units\n",
        FIG6_USABLE_CAPACITY
    );
}

/// Fig. 7 — automatic fail-over (delayed replacement) vs conventional
/// replacement at λ = 1e-6, with the §V-D improvement factor at hep = 0.01.
fn print_fig7() {
    let (table, rows) = fig7_table();
    println!("\n=== Fig. 7: replacement policy comparison ===\n");
    println!("{}", table.render());
    println!(
        "headline: automatic fail-over improves availability {:.0}x at hep=0.01 (paper: ~2 orders of magnitude)\n",
        rows[2].improvement()
    );

    // Ablation: the same sweep under the as-labeled (hep·μ_DF) reading.
    println!("ablation — conventional model with the as-labeled EXP→DU rate (hep·μ_DF):");
    for &hep in &[0.0, 0.001, 0.01] {
        let u = Raid5Conventional::new(raid5_params(1e-6, hep))
            .expect("valid model")
            .with_timing(WrongReplacementTiming::RepairCompletion)
            .solve()
            .expect("solvable")
            .unavailability();
        println!(
            "  hep={hep:<6} conventional (as-labeled) = {:.3} nines",
            nines_from_unavailability(u)
        );
    }
    println!();
}

/// Headline table (§I / §V-B) — how much the traditional hep = 0 model
/// underestimates downtime: `U(hep = 0.01) / U(0)` over the Fig. 4 λ grid.
/// The paper reports "up to 263X".
fn print_underestimation() {
    let (table, max) = underestimation_table();
    println!("\n=== Headline: downtime underestimation when human error is ignored ===\n");
    println!("{}", table.render());
    println!("maximum underestimation over the sweep: {max:.0}x (paper: up to 263X)\n");
}

/// The λ grid of the paper's Fig. 4 x-axis (5e-7 … 5.5e-6).
fn fig4_lambda_grid() -> Vec<f64> {
    (1..=11).map(|i| i as f64 * 5e-7).collect()
}

/// Default RAID5(3+1) parameters at the given λ and hep.
///
/// # Panics
/// Panics only on invalid inputs (not reachable from the fixed grids used
/// here).
fn raid5_params(lambda: f64, hep: f64) -> ModelParams {
    ModelParams::raid5_3plus1(lambda, Hep::new(hep).expect("valid hep")).expect("valid parameters")
}

/// Fig. 4 — MC vs Markov availability (nines) over the λ grid, for
/// `hep ∈ {0.001, 0.01}`. Returns the four series in the paper's legend
/// order.
fn fig4_series(mc_iters: u64) -> Vec<Series> {
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
fn fig5_table(mc_iters: u64) -> Table {
    let mut table = Table::new(
        "Fig. 5 — RAID5(3+1) availability (nines) under Weibull field fits",
        &["rate", "beta", "hep=0", "hep=0.001", "hep=0.01"],
    );
    for &(rate, beta) in &SCHROEDER_GIBSON_FITS {
        table.cell(format_args!("{rate:.2e}")).cell(beta);
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
                table.cell(format_args!(
                    ">{:.1}",
                    nines_from_unavailability(resolution)
                ));
            } else {
                table.cell(format_args!("{:.3}", est.nines()));
            }
        }
    }
    table
}

/// Fig. 6 — equivalent-capacity RAID comparison for one λ sub-figure.
fn fig6_table(lambda: f64) -> Table {
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
        table
            .cell(&row0.label)
            .cell(row0.arrays)
            .cell(row0.total_disks)
            .cell(format_args!("{:.2}", row0.erf));
        for &hep in &heps {
            let rows = compare_equal_capacity(
                FIG6_USABLE_CAPACITY,
                lambda,
                Hep::new(hep).expect("valid hep"),
            )
            .expect("valid comparison");
            table.cell(format_args!("{:.3}", rows[idx].nines()));
        }
    }
    table
}

/// Fig. 7 — conventional vs automatic fail-over at λ = 1e-6.
fn fig7_table() -> (Table, Vec<PolicyComparison>) {
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
        table
            .cell(r.hep)
            .cell(format_args!("{:.3}", r.conventional_nines()))
            .cell(format_args!("{:.3}", r.failover_nines()))
            .cell(format_args!("{:.1}", r.improvement()));
    }
    (table, rows)
}

/// Headline table — downtime underestimation `U(hep=0.01)/U(0)` over the
/// Fig. 4 λ grid, both wrong-replacement-timing readings.
fn underestimation_table() -> (Table, f64) {
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
        table
            .cell(format_args!("{:.2e}", r.disk_failure_rate))
            .cell(format_args!("{:.3e}", r.with_hep))
            .cell(format_args!("{:.3e}", r.without_hep))
            .cell(format_args!("{:.1}", r.factor()))
            .cell(format_args!("{labeled:.1}"));
    }
    (table, max)
}

//! The paper's Fig. 7 extended into a policy study: conventional vs
//! automatic fail-over across a grid of failure rates and human-error
//! probabilities, with the MTTDL of each.
//!
//! ```text
//! cargo run --release --example failover_study
//! ```

use availsim::core::analysis::compare_policies;
use availsim::core::markov::{Raid5Conventional, Raid5FailOver};
use availsim::core::ModelParams;
use availsim::hra::Hep;
use availsim::storage::HOURS_PER_YEAR;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    println!("Replacement-policy study, RAID5(3+1), paper service rates\n");

    println!(
        "{:<10} {:<8} {:>14} {:>14} {:>13}",
        "lambda", "hep", "conv (nines)", "fo (nines)", "improvement"
    );
    for &lambda in &[1e-7, 1e-6, 1e-5] {
        for &hep in &[0.0, 0.001, 0.01] {
            let params = ModelParams::raid5_3plus1(lambda, Hep::new(hep)?)?;
            let cmp = compare_policies(params)?;
            println!(
                "{:<10.0e} {:<8} {:>14.3} {:>14.3} {:>12.1}x",
                lambda,
                hep,
                cmp.conventional_nines(),
                cmp.failover_nines(),
                cmp.improvement()
            );
        }
    }

    // MTTDL view (the reliability metric Markov models are usually quoted in).
    println!("\nMTTDL (years), λ=1e-6:");
    for &hep in &[0.0, 0.001, 0.01] {
        let params = ModelParams::raid5_3plus1(1e-6, Hep::new(hep)?)?;
        let conv = Raid5Conventional::new(params)?.mttdl_hours()? / HOURS_PER_YEAR;
        let fo = Raid5FailOver::new(params)?.mttdl_hours()? / HOURS_PER_YEAR;
        println!("  hep={hep:<6} conventional {conv:>12.0}  fail-over {fo:>12.0}");
    }

    println!("\ntakeaway: under conventional replacement human error is the");
    println!("availability bottleneck; fail-over moves the bottleneck back to the");
    println!("double-failure path.");
    Ok(())
}

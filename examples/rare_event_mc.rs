//! Beyond the paper: estimating 1e-9-scale unavailability with Monte-Carlo.
//!
//! Naive MC needs ~100/U missions to resolve an unavailability U; at the
//! paper's λ = 1e-6 operating point that is hundreds of thousands of
//! ten-year missions. This example shows the practical recipe:
//!
//! 1. use the Markov model for the point estimate (exact, microseconds),
//! 2. validate it with MC at a *scaled* operating point (paper's Fig. 4
//!    methodology),
//! 3. validate it **at the target point itself** with the rare-event mode
//!    (`McVariance::FailureBiasing`), reading the ESS diagnostic.
//!
//! ```text
//! cargo run --release --example rare_event_mc
//! ```

use availsim::core::markov::Raid5Conventional;
use availsim::core::mc::{ConventionalMc, McConfig, McVariance};
use availsim::core::ModelParams;
use availsim::hra::Hep;
use std::error::Error;
use std::time::Instant;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. The target operating point is MC-hostile.
    let target = ModelParams::raid5_3plus1(1e-6, Hep::new(0.01)?)?;
    let markov_u = Raid5Conventional::new(target)?.solve()?.unavailability();
    println!("target point λ=1e-6, hep=0.01: Markov U = {markov_u:.3e}");
    println!(
        "naive MC would need ≳ {:.0e} ten-year missions for 10% relative error\n",
        100.0 / markov_u / 87_600.0 * 8.76e4
    );

    // 2. Validate the chain where MC converges in seconds, then trust the
    //    chain at the target (the paper's Fig. 4 logic).
    let scaled = target.with_failure_rate(1e-3)?;
    let markov_scaled = Raid5Conventional::new(scaled)?.solve()?;
    let t0 = Instant::now();
    let est = ConventionalMc::new(scaled)?.run(&McConfig {
        iterations: 4_000,
        horizon_hours: 20_000.0,
        seed: 11,
        confidence: 0.99,
        threads: 0,
        ..McConfig::default()
    })?;
    println!(
        "scaled point λ=1e-3: MC {} vs Markov {:.6} ({} in {:.2?})",
        est.availability,
        markov_scaled.availability(),
        if est.is_consistent_with(markov_scaled.availability()) {
            "consistent"
        } else {
            "INCONSISTENT"
        },
        t0.elapsed()
    );

    // 3. The rare-event mode attacks the target point head on: failure
    //    forcing + balanced failure biasing make every mission informative
    //    and the likelihood-ratio weights keep the estimator unbiased.
    let t0 = Instant::now();
    let biased = ConventionalMc::new(target)?.run(&McConfig {
        iterations: 20_000,
        seed: 12,
        variance: McVariance::failure_biasing(),
        ..McConfig::default()
    })?;
    println!(
        "\ntarget point, failure biasing: U = {:.3e} (Markov {markov_u:.3e}, {} in {:.2?})",
        biased.unavailability(),
        if biased.is_consistent_with_unavailability(markov_u) {
            "consistent"
        } else {
            "INCONSISTENT"
        },
        t0.elapsed()
    );
    println!(
        "  diagnostics: ESS {:.0} of {} missions, max weight {:.3e}",
        biased.effective_sample_size, biased.iterations, biased.max_weight
    );
    Ok(())
}

//! The paper's introduction as arithmetic: an exabyte datacenter sees a
//! disk failure every hour, so at hep ∈ [0.001, 0.1] human errors are a
//! *daily* event — and the fleet's availability budget must price them in.
//!
//! ```text
//! cargo run --release --example datacenter_planning [capacity_EB] [disk_TB]
//! ```

use availsim::core::markov::{Raid5Conventional, Raid5FailOver};
use availsim::core::ModelParams;
use availsim::hra::Hep;
use availsim::storage::{DatacenterModel, RaidGeometry, Volume};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let mut args = std::env::args().skip(1);
    let capacity_eb: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let disk_tb: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let lambda = 1e-6;

    // The top of the paper's enterprise hep band (0.001 to 0.01).
    let hep = Hep::new(0.01)?;
    println!("datacenter: {capacity_eb} EB on {disk_tb} TB disks, λ = {lambda:.0e}/h");
    println!("hep (top of the enterprise band): {}\n", hep.value());

    let dc = DatacenterModel::exascale(disk_tb / capacity_eb, lambda, hep.value())?;
    println!("fleet size:                {:>12} disks", dc.num_disks());
    println!(
        "expected disk failures:    {:>12.1} per day ({:.2} per hour)",
        dc.expected_failures_per_day(),
        dc.expected_failures_per_hour()
    );
    println!(
        "expected human errors:     {:>12.2} per day ({:.0} per year)",
        dc.expected_human_errors_per_day(),
        dc.expected_human_errors_per_year()
    );

    // Fleet-level availability: all capacity in RAID5(3+1) volumes.
    let geometry = RaidGeometry::raid5(3)?;
    let arrays = dc.num_disks() / u64::from(geometry.total_disks());
    let volume = Volume::new(geometry, arrays);
    let params = ModelParams::paper_defaults(geometry, lambda, hep)?;
    let conv = Raid5Conventional::new(params)?.solve()?;
    let fo = Raid5FailOver::new(params)?.solve()?;

    println!(
        "\nper-array unavailability:  conventional {:.3e} | fail-over {:.3e}",
        conv.unavailability(),
        fo.unavailability()
    );
    println!(
        "fleet expected arrays down: conventional {:.2} | fail-over {:.3}",
        arrays as f64 * conv.unavailability(),
        arrays as f64 * fo.unavailability()
    );
    println!(
        "probability all {arrays} arrays up: conventional {:.3e} | fail-over {:.4}",
        volume.series_availability(conv.availability()),
        volume.series_availability(fo.availability())
    );

    println!("\ntakeaway: at fleet scale the human-error term is not a tail risk —");
    println!("it is the dominant, daily driver of the availability budget, and");
    println!("automatic fail-over is the single most effective mitigation.");
    Ok(())
}

//! # availsim-storage
//!
//! Disk-subsystem substrate for availability modeling: RAID geometries,
//! maintenance service rates, field-calibrated failure models, latent-sector-error
//! exposure, event traces with downtime accounting, equivalent-capacity
//! volumes, and fleet-scale arithmetic.
//!
//! The semantics follow the DATE'17 paper "Evaluating Impact of Human Errors
//! on the Availability of Data Storage Systems": a *failed* disk loses its
//! data until rebuilt, while a *wrongly removed* disk (the paper's human
//! error) keeps its data and can be reinserted — which is exactly why the
//! two produce different outage classes (`DL` vs `DU`).
//!
//! # Examples
//!
//! ```
//! use availsim_storage::{DowntimeLog, OutageCause, RaidGeometry};
//!
//! # fn main() -> Result<(), availsim_storage::StorageError> {
//! let geometry = RaidGeometry::raid5(3)?;
//! assert_eq!(geometry.total_disks(), 4);
//! assert_eq!(geometry.fault_tolerance(), 1);
//!
//! // A wrong disk pull during a rebuild takes the array down at 100 h; a
//! // crash of the pulled disk turns the outage into data loss at 101 h.
//! let mut log = DowntimeLog::new();
//! log.begin(100.0, OutageCause::HumanError);
//! log.end(101.0);
//! log.begin(101.0, OutageCause::DataLoss);
//! log.finalize(131.0);
//! assert_eq!(log.downtime_by_cause(OutageCause::HumanError), 1.0);
//! assert_eq!(log.total_downtime(), 31.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod datacenter;
mod error;
mod failure_model;
mod lse;
mod maintenance;
mod raid;
mod trace;
mod volume;

pub use datacenter::{DatacenterModel, FailoverPolicy, FleetFailover, FleetSpec, HOURS_PER_YEAR};
pub use error::{Result, StorageError};
pub use failure_model::{FailureModel, SCHROEDER_GIBSON_FITS};
pub use lse::ScrubbingModel;
pub use maintenance::ServiceRates;
pub use raid::{RaidGeometry, RaidLevel};
pub use trace::{DowntimeLog, EventTrace, Outage, OutageCause, TraceEvent, TraceKind};
pub use volume::Volume;

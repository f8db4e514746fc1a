//! Event traces and downtime accounting.
//!
//! [`EventTrace`] records what happened when (reproducing the paper's Fig. 1
//! timeline), and [`DowntimeLog`] accumulates outage intervals with their
//! causes, from which availability is computed as
//! `uptime / total time`.

use std::fmt;

/// What happened at a traced instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceKind {
    /// A disk failed.
    DiskFailure {
        /// Slot index of the failed disk.
        disk: u32,
    },
    /// Replacement + rebuild of a failed disk completed successfully.
    RepairComplete {
        /// Slot index of the repaired disk.
        disk: u32,
    },
    /// A wrong disk replacement happened (human error): an operating disk
    /// was pulled instead of the failed one.
    WrongReplacement {
        /// Slot index of the wrongly removed disk.
        removed_disk: u32,
    },
    /// The wrong replacement was detected and undone.
    WrongReplacementUndone,
    /// A wrongly removed disk crashed outside the chassis.
    RemovedDiskCrashed,
    /// Data-loss event (more failures than redundancy).
    DataLoss,
    /// A rebuild read hit a latent sector error on a surviving disk, so
    /// the reconstruction failed and data was lost.
    RebuildLse,
    /// Data-unavailability event (human error made data unreachable).
    DataUnavailable,
    /// Restore from backup completed.
    BackupRestoreComplete,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceKind::DiskFailure { disk } => write!(f, "disk {disk} failed"),
            TraceKind::RepairComplete { disk } => write!(f, "disk {disk} repaired"),
            TraceKind::WrongReplacement { removed_disk } => {
                write!(f, "WRONG replacement: pulled operating disk {removed_disk}")
            }
            TraceKind::WrongReplacementUndone => f.write_str("wrong replacement undone"),
            TraceKind::RemovedDiskCrashed => f.write_str("removed disk crashed"),
            TraceKind::DataLoss => f.write_str("DATA LOSS (redundancy exhausted)"),
            TraceKind::RebuildLse => f.write_str("rebuild hit a latent sector error"),
            TraceKind::DataUnavailable => f.write_str("DATA UNAVAILABLE (human error)"),
            TraceKind::BackupRestoreComplete => f.write_str("backup restore complete"),
        }
    }
}

/// One timestamped trace entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulation time in hours.
    pub time: f64,
    /// What happened.
    pub kind: TraceKind,
}

/// An append-only record of simulation events.
#[derive(Debug, Clone, Default)]
pub struct EventTrace {
    events: Vec<TraceEvent>,
}

impl EventTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn record(&mut self, time: f64, kind: TraceKind) {
        self.events.push(TraceEvent { time, kind });
    }

    /// Empties the trace while retaining its allocated capacity, so one
    /// buffer can record many missions without per-mission allocations.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of a particular kind predicate.
    pub fn count_where(&self, pred: impl Fn(&TraceKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }

    /// Renders a human-readable timeline (one line per event), the textual
    /// analogue of the paper's Fig. 1.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!("{:>10.1} h  {}\n", e.time, e.kind));
        }
        out
    }
}

/// Why the subsystem was down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutageCause {
    /// Data loss — more concurrent failures than the geometry's redundancy
    /// tolerates, or a rebuild lost data to a latent sector error
    /// (paper `DL`). The count needed is `fault_tolerance() + 1`, not a
    /// literal "double" failure — mirrors and RAID6 survive two.
    DataLoss,
    /// Data unavailability — human error (paper `DU`).
    HumanError,
}

/// A closed outage interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// Start time (hours).
    pub start: f64,
    /// End time (hours).
    pub end: f64,
    /// Cause of the outage.
    pub cause: OutageCause,
}

impl Outage {
    /// Duration of the outage in hours.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Accumulates outage intervals over a simulation run.
#[derive(Debug, Clone, Default)]
pub struct DowntimeLog {
    outages: Vec<Outage>,
    open: Option<(f64, OutageCause)>,
}

impl DowntimeLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the log to its just-constructed state — no closed outages, no
    /// open interval — while retaining the outage vector's allocated
    /// capacity. This is the hot-loop reset used by Monte-Carlo simulators
    /// that account downtime for millions of missions on one log.
    pub fn clear(&mut self) {
        self.outages.clear();
        self.open = None;
    }

    /// Marks the system down at `time` for `cause`. If an outage is already
    /// open, the call is ignored (the first cause wins — e.g. a crash during
    /// a human-error outage does not start a second interval).
    pub fn begin(&mut self, time: f64, cause: OutageCause) {
        if self.open.is_none() {
            self.open = Some((time, cause));
        }
    }

    /// Marks the system back up at `time`, closing any open outage.
    pub fn end(&mut self, time: f64) {
        if let Some((start, cause)) = self.open.take() {
            self.outages.push(Outage {
                start,
                end: time.max(start),
                cause,
            });
        }
    }

    /// Whether an outage is currently open.
    pub fn is_down(&self) -> bool {
        self.open.is_some()
    }

    /// Closes any open outage at the simulation horizon.
    pub fn finalize(&mut self, horizon: f64) {
        self.end(horizon);
    }

    /// All closed outages.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// Total downtime in hours (closed outages only).
    pub fn total_downtime(&self) -> f64 {
        self.outages.iter().map(Outage::duration).sum()
    }

    /// Downtime attributable to one cause.
    pub fn downtime_by_cause(&self, cause: OutageCause) -> f64 {
        self.outages
            .iter()
            .filter(|o| o.cause == cause)
            .map(Outage::duration)
            .sum()
    }

    /// Number of outages with the given cause.
    pub fn count_by_cause(&self, cause: OutageCause) -> usize {
        self.outages.iter().filter(|o| o.cause == cause).count()
    }

    /// Availability over a horizon: `1 − downtime/horizon`.
    ///
    /// # Panics
    /// Panics if `horizon` is not positive.
    pub fn availability(&self, horizon: f64) -> f64 {
        assert!(horizon > 0.0, "horizon must be positive");
        (1.0 - self.total_downtime() / horizon).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_records_and_renders() {
        let mut t = EventTrace::new();
        t.record(100.0, TraceKind::DiskFailure { disk: 1 });
        t.record(110.0, TraceKind::RepairComplete { disk: 1 });
        assert_eq!(t.len(), 2);
        let s = t.render();
        assert!(s.contains("disk 1 failed"));
        assert!(s.contains("100.0 h"));
    }

    #[test]
    fn data_loss_label_is_geometry_agnostic() {
        // Regression: the label used to say "(double disk failure)", which
        // is wrong for RAID6 and mirrors where loss needs
        // `fault_tolerance() + 1` concurrent failures — and for LSE-induced
        // rebuild failures, which involve only one whole-disk failure.
        let label = TraceKind::DataLoss.to_string();
        assert!(!label.contains("double"), "{label}");
        assert!(label.contains("DATA LOSS"), "{label}");
        let lse = TraceKind::RebuildLse.to_string();
        assert!(lse.contains("latent sector error"), "{lse}");
    }

    #[test]
    fn count_where_filters() {
        let mut t = EventTrace::new();
        t.record(1.0, TraceKind::DataLoss);
        t.record(2.0, TraceKind::DataUnavailable);
        t.record(3.0, TraceKind::DataLoss);
        assert_eq!(t.count_where(|k| matches!(k, TraceKind::DataLoss)), 2);
    }

    #[test]
    fn downtime_intervals_accumulate() {
        let mut log = DowntimeLog::new();
        log.begin(10.0, OutageCause::HumanError);
        log.end(11.0);
        log.begin(50.0, OutageCause::DataLoss);
        log.end(83.0);
        assert_eq!(log.outages().len(), 2);
        assert!((log.total_downtime() - 34.0).abs() < 1e-12);
        assert!((log.downtime_by_cause(OutageCause::HumanError) - 1.0).abs() < 1e-12);
        assert!((log.downtime_by_cause(OutageCause::DataLoss) - 33.0).abs() < 1e-12);
        assert_eq!(log.count_by_cause(OutageCause::DataLoss), 1);
    }

    #[test]
    fn first_cause_wins_for_nested_outages() {
        let mut log = DowntimeLog::new();
        log.begin(5.0, OutageCause::HumanError);
        log.begin(6.0, OutageCause::DataLoss); // ignored: already down
        log.end(8.0);
        assert_eq!(log.outages().len(), 1);
        assert_eq!(log.outages()[0].cause, OutageCause::HumanError);
        assert!((log.outages()[0].duration() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn finalize_closes_open_outage() {
        let mut log = DowntimeLog::new();
        log.begin(90.0, OutageCause::DataLoss);
        assert!(log.is_down());
        log.finalize(100.0);
        assert!(!log.is_down());
        assert!((log.total_downtime() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn availability_from_downtime() {
        let mut log = DowntimeLog::new();
        log.begin(0.0, OutageCause::DataLoss);
        log.end(1.0);
        assert!((log.availability(100.0) - 0.99).abs() < 1e-12);
        // No downtime -> availability 1.
        let empty = DowntimeLog::new();
        assert_eq!(empty.availability(10.0), 1.0);
    }

    #[test]
    fn clear_resets_trace_and_log_for_reuse() {
        let mut t = EventTrace::new();
        t.record(1.0, TraceKind::DataLoss);
        t.clear();
        assert!(t.is_empty());
        t.record(2.0, TraceKind::DataUnavailable);
        assert_eq!(t.len(), 1);

        let mut log = DowntimeLog::new();
        log.begin(1.0, OutageCause::DataLoss);
        log.end(2.0);
        log.begin(3.0, OutageCause::HumanError); // left open: poisoned state
        assert!(log.is_down());
        log.clear();
        assert!(!log.is_down());
        assert!(log.outages().is_empty());
        assert_eq!(log.total_downtime(), 0.0);
        // A fresh mission on the reused log starts from a clean slate.
        log.begin(5.0, OutageCause::DataLoss);
        log.finalize(7.0);
        assert!((log.total_downtime() - 2.0).abs() < 1e-12);
        assert_eq!(log.count_by_cause(OutageCause::HumanError), 0);
    }

    #[test]
    fn end_before_begin_is_clamped() {
        let mut log = DowntimeLog::new();
        log.begin(10.0, OutageCause::HumanError);
        log.end(9.0); // clock oddity: clamp to zero-length
        assert_eq!(log.total_downtime(), 0.0);
    }
}

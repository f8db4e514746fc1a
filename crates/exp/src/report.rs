//! Campaign reports: CSV, hand-rolled JSON, and a text summary table.
//!
//! The CSV and JSON writers are **deterministic**: they contain only
//! seed-derived metrics (no timings), floats are printed in shortest
//! round-trip form (`{:?}`), and key/column order is fixed — so two runs of
//! the same campaign seed produce byte-identical files regardless of worker
//! count. Wall-clock timings appear only in [`summary`], which doubles as a
//! perf probe for the cell solvers.
//!
//! One renderer writes both deterministic reports in one pass over the
//! cells, straight into one text buffer per report, so a row allocates
//! nothing of its own. Each float a row prints is formatted once, and its
//! text is appended to the CSV, the JSON or both (the JSON prints `null`
//! for a non-finite value). Axis text (λ, hep, raid, policy) is formatted
//! once per distinct value, a float keyed by its bits so that `-0.0`
//! keeps its own text beside `0.0`; the summary and
//! [`Plan::describe`](crate::plan::Plan::describe) format theirs the same
//! way. [`to_csv`] and [`to_json`] run the renderer for one report and
//! keep its buffer as the whole report, while [`write_csv`],
//! [`write_json`] and [`write_reports`] stream theirs into writers,
//! handing on a report's bytes whenever it passes 64 KiB, so a report
//! file is written without the report ever being held in memory. Every
//! output is the same bytes.

use crate::plan::{label, AxisText};
use crate::run::{CampaignResult, CellResult};
use crate::spec::{Metric, ModelKind};
use availsim_core::report::Table;
use availsim_sim::json;
use availsim_storage::RaidGeometry;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io;

/// The metric columns a campaign reports: the spec's `metrics` list, or
/// everything applicable to the model when the list is empty.
fn effective_metrics(result: &CampaignResult) -> Vec<Metric> {
    let s = &result.scenario;
    if !s.metrics.is_empty() {
        return s.metrics.clone();
    }
    let mut m = vec![Metric::Unavailability, Metric::Nines, Metric::Downtime];
    if s.model == ModelKind::Mc {
        m.push(Metric::CiHalfWidth);
    } else {
        m.push(Metric::Mttdl);
    }
    if s.capacity.is_some() {
        m.push(Metric::Volume);
    }
    m
}

fn metric_columns(m: Metric) -> &'static [&'static str] {
    match m {
        Metric::Unavailability => &["unavailability"],
        Metric::Nines => &["nines"],
        Metric::Downtime => &["downtime_min_per_year"],
        Metric::Mttdl => &["mttdl_hours"],
        Metric::CiHalfWidth => &["ci_half_width"],
        Metric::Volume => &[
            "arrays",
            "total_disks",
            "volume_unavailability",
            "volume_nines",
        ],
    }
}

/// Whether the campaign's fleet has a DR coupling, i.e. whether reports
/// carry the `credited_unavailability` column.
fn has_dr_credit(result: &CampaignResult) -> bool {
    result
        .scenario
        .fleet
        .is_some_and(|f| f.failover_capacity.is_some())
}

/// Whether the campaign carries the data-loss tier, i.e. whether reports
/// add the `p_data_loss`/`nomdl_per_tb` columns. Only the MC engines
/// estimate the loss metrics; Markov cells of an `[lse]` campaign fold
/// the LSE exposure into their ordinary unavailability/MTTDL columns.
fn has_loss_columns(result: &CampaignResult) -> bool {
    result.scenario.lse.is_some() && result.scenario.model == ModelKind::Mc
}

/// Quotes a CSV field when it contains a delimiter, quote, or newline
/// (error strings are the only fields that can); any other field passes
/// through unallocated.
fn csv_field(s: &str) -> Cow<'_, str> {
    if s.contains([',', '"', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(s)
    }
}

/// Writes the float whose bits are `bits` in shortest round-trip form.
fn debug_bits(out: &mut String, bits: u64) {
    let _ = write!(out, "{:?}", f64::from_bits(bits));
}

/// A float that a report row can print, in [`RowFloats::fill`] order.
#[derive(Clone, Copy)]
enum Float {
    Unavailability,
    Nines,
    Downtime,
    Mttdl,
    CiHalfWidth,
    Credited,
    PDataLoss,
    NomdlPerTb,
    VolumeUnavailability,
    VolumeNines,
}

/// The floats of metric `m`'s CSV columns.
fn metric_floats(m: Metric) -> &'static [Float] {
    match m {
        Metric::Unavailability => &[Float::Unavailability],
        Metric::Nines => &[Float::Nines],
        Metric::Downtime => &[Float::Downtime],
        Metric::Mttdl => &[Float::Mttdl],
        Metric::CiHalfWidth => &[Float::CiHalfWidth],
        Metric::Volume => &[Float::VolumeUnavailability, Float::VolumeNines],
    }
}

/// One row's floats, each formatted once in shortest round-trip form and
/// read by both reports.
#[derive(Default)]
struct RowFloats {
    values: [Option<f64>; 10],
    text: String,
    /// Where each float's text ends in `text`; an absent one is empty.
    ends: [usize; 10],
}

impl RowFloats {
    fn fill(&mut self, c: &CellResult) {
        let volume = c.volume;
        self.values = [
            Some(c.unavailability),
            Some(c.nines),
            Some(c.downtime_min_per_year),
            c.mttdl_hours,
            c.ci_half_width,
            c.credited_unavailability,
            c.p_data_loss,
            c.nomdl_per_tb,
            volume.map(|v| v.unavailability),
            volume.map(|v| v.nines),
        ];
        self.text.clear();
        for (v, end) in self.values.iter().zip(&mut self.ends) {
            if let Some(v) = v {
                let _ = write!(self.text, "{v:?}");
            }
            *end = self.text.len();
        }
    }

    /// `f`'s CSV field: its text, or nothing when the row has none.
    fn csv(&self, f: Float) -> &str {
        let i = f as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// `f`'s JSON value.
    fn json(&self, f: Float) -> &str {
        json_text(self.values[f as usize], self.csv(f))
    }
}

/// The JSON value of a float whose `{:?}` text is `text`: that text, or
/// `null` when the float is absent or not finite.
fn json_text(v: Option<f64>, text: &str) -> &str {
    if v.is_some_and(f64::is_finite) {
        text
    } else {
        "null"
    }
}

/// The bytes a streamed report gathers before handing them on.
const FLUSH_BYTES: usize = 64 * 1024;

/// The text one report is rendered into: the whole report, or a bounded
/// buffer streamed into a writer.
struct Rows<'w> {
    text: String,
    sink: Option<&'w mut dyn io::Write>,
    /// Where the first row begins in `text`.
    first_row: usize,
}

impl<'w> Rows<'w> {
    fn new(sink: Option<&'w mut dyn io::Write>) -> Self {
        Rows {
            text: String::new(),
            sink,
            first_row: 0,
        }
    }

    /// Ends row `i` of `rows`. A whole report then reserves twice the
    /// first row's length for each row, so it grows in one allocation
    /// instead of doublings that each copy it (capacity it never touches
    /// costs no memory); a streamed one hands its text on once it holds
    /// [`FLUSH_BYTES`].
    fn end_row(&mut self, i: usize, rows: usize) -> io::Result<()> {
        match &mut self.sink {
            None if i == 0 => self
                .text
                .reserve(2 * (self.text.len() - self.first_row) * rows),
            Some(w) if self.text.len() >= FLUSH_BYTES => {
                w.write_all(self.text.as_bytes())?;
                self.text.clear();
            }
            _ => {}
        }
        Ok(())
    }

    /// The whole report, or, once a streamed one's tail is handed on and
    /// its writer flushed, nothing.
    fn finish(mut self) -> io::Result<String> {
        if let Some(w) = self.sink {
            w.write_all(self.text.as_bytes())?;
            w.flush()?;
            self.text.clear();
        }
        Ok(self.text)
    }
}

/// Renders the campaign as CSV (deterministic; no timings). Keep-going
/// runs append `status`/`error` columns; failed cells keep their axis
/// columns but leave every metric field empty.
pub fn to_csv(result: &CampaignResult) -> String {
    let [csv, _] = render(result, Some(Rows::new(None)), None);
    csv.expect("a string report does no I/O")
}

/// Renders the campaign as JSON (deterministic; no timings). Hand-rolled —
/// the build environment has no serde.
pub fn to_json(result: &CampaignResult) -> String {
    let [_, json] = render(result, None, Some(Rows::new(None)));
    json.expect("a string report does no I/O")
}

/// Streams [`to_csv`]'s bytes into `out`, a bounded buffer at a time.
///
/// # Errors
/// The writer's.
pub fn write_csv(result: &CampaignResult, out: &mut impl io::Write) -> io::Result<()> {
    let [csv, _] = render(result, Some(Rows::new(Some(out))), None);
    csv.map(drop)
}

/// Streams [`to_json`]'s bytes into `out`, a bounded buffer at a time.
///
/// # Errors
/// The writer's.
pub fn write_json(result: &CampaignResult, out: &mut impl io::Write) -> io::Result<()> {
    let [_, json] = render(result, None, Some(Rows::new(Some(out))));
    json.map(drop)
}

/// Streams [`to_csv`]'s bytes into `csv` and [`to_json`]'s into `json`,
/// both from one pass over the cells, a bounded buffer at a time.
///
/// Returns each writer's outcome, the CSV's first. A writer that fails
/// ends its own report; the other is still written in full.
pub fn write_reports(
    result: &CampaignResult,
    csv: &mut impl io::Write,
    json: &mut impl io::Write,
) -> (io::Result<()>, io::Result<()>) {
    let [csv, json] = render(
        result,
        Some(Rows::new(Some(csv))),
        Some(Rows::new(Some(json))),
    );
    (csv.map(drop), json.map(drop))
}

/// Renders the reports that have an output (`None` skips one) in one pass
/// over the cells. Returns `[csv, json]`: each report's whole text (empty
/// once streamed, or when skipped), or the error of the writer that ended
/// it.
fn render(
    result: &CampaignResult,
    mut csv: Option<Rows<'_>>,
    mut json: Option<Rows<'_>>,
) -> [io::Result<String>; 2] {
    let s = &result.scenario;
    let metrics = effective_metrics(result);
    // The columns both reports print after the metrics, on failed rows too.
    let mut extra = Vec::new();
    if has_dr_credit(result) {
        extra.push(("credited_unavailability", Float::Credited));
    }
    if has_loss_columns(result) {
        extra.extend([
            ("p_data_loss", Float::PDataLoss),
            ("nomdl_per_tb", Float::NomdlPerTb),
        ]);
    }
    let mut floats = RowFloats::default();
    let mut lambdas = AxisText::new(debug_bits);
    let mut heps = AxisText::new(debug_bits);
    let mut raids = AxisText::new(label);
    let mut raid_strings = AxisText::new(|out, raid: RaidGeometry| {
        let _ = write!(out, "{}", json::string(&raid.to_string()));
    });
    let mut policy_strings = AxisText::new(|out, policy| {
        let _ = write!(out, "{}", json::string(policy));
    });

    if let Some(out) = &mut csv {
        let head = &mut out.text;
        head.push_str("cell,seed,raid,policy,lambda,hep");
        for &m in &metrics {
            for column in metric_columns(m) {
                head.push(',');
                head.push_str(column);
            }
        }
        for (column, _) in &extra {
            head.push(',');
            head.push_str(column);
        }
        if result.keep_going {
            head.push_str(",status,error");
        }
        head.push('\n');
        out.first_row = head.len();
    }
    if let Some(out) = &mut json {
        let head = &mut out.text;
        head.push_str("{\n");
        let _ = writeln!(head, "  \"campaign\": {},", json::string(&s.name));
        // Seeds are full-range u64 and would lose bits past 2^53 in any
        // IEEE-double JSON consumer — emit them as decimal strings.
        let _ = writeln!(head, "  \"seed\": \"{}\",", s.seed);
        let _ = writeln!(head, "  \"model\": {},", json::string(s.model.as_str()));
        let _ = writeln!(
            head,
            "  \"capacity\": {},",
            s.capacity.map_or("null".into(), |c| c.to_string())
        );
        let _ = writeln!(head, "  \"cells\": [");
        out.first_row = head.len();
    }

    let mut done = [Ok(()), Ok(())];
    let rows = result.cells.len();
    for (i, c) in result.cells.iter().enumerate() {
        floats.fill(c);
        let lambda = lambdas.get(c.cell.lambda.to_bits());
        let hep = heps.get(c.cell.hep.to_bits());
        if let Some(out) = &mut csv {
            let row = &mut out.text;
            let _ = write!(
                row,
                "{},{},{},{},{lambda},{hep}",
                c.cell.index,
                c.cell.seed,
                raids.get(c.cell.raid),
                c.cell.policy.as_str()
            );
            for &m in &metrics {
                if c.is_failed() {
                    row.extend(metric_columns(m).iter().map(|_| ','));
                    continue;
                }
                if m == Metric::Volume {
                    match c.volume {
                        Some(v) => {
                            let _ = write!(row, ",{},{}", v.arrays, v.total_disks);
                        }
                        None => row.push_str(",,"),
                    }
                }
                for &f in metric_floats(m) {
                    row.push(',');
                    row.push_str(floats.csv(f));
                }
            }
            for &(_, f) in &extra {
                row.push(',');
                row.push_str(floats.csv(f));
            }
            if result.keep_going {
                let _ = write!(
                    row,
                    ",{},{}",
                    if c.is_failed() { "error" } else { "ok" },
                    csv_field(c.error.as_deref().unwrap_or_default())
                );
            }
            row.push('\n');
            if let Err(e) = out.end_row(i, rows) {
                done[0] = Err(e);
                csv = None;
            }
        }
        if let Some(out) = &mut json {
            let row = &mut out.text;
            let _ = write!(
                row,
                "    {{\"cell\": {}, \"seed\": \"{}\", \"raid\": {}, \"policy\": {}, \"lambda\": {}, \"hep\": {}, ",
                c.cell.index,
                c.cell.seed,
                raid_strings.get(c.cell.raid),
                policy_strings.get(c.cell.policy.as_str()),
                json_text(Some(c.cell.lambda), lambda),
                json_text(Some(c.cell.hep), hep),
            );
            let _ = write!(
                row,
                "\"unavailability\": {}, \"nines\": {}, \"downtime_min_per_year\": {}, \"mttdl_hours\": {}, \"ci_half_width\": {}",
                floats.json(Float::Unavailability),
                floats.json(Float::Nines),
                floats.json(Float::Downtime),
                floats.json(Float::Mttdl),
                floats.json(Float::CiHalfWidth),
            );
            for &(key, f) in &extra {
                let _ = write!(row, ", \"{key}\": {}", floats.json(f));
            }
            if result.keep_going {
                let _ = write!(
                    row,
                    ", \"status\": {}, \"error\": ",
                    json::string(if c.is_failed() { "error" } else { "ok" }),
                );
                let _ = match &c.error {
                    Some(e) => write!(row, "{}", json::string(e)),
                    None => write!(row, "null"),
                };
            }
            if let Some(v) = c.volume {
                let _ = write!(
                    row,
                    ", \"volume\": {{\"arrays\": {}, \"total_disks\": {}, \"unavailability\": {}, \"nines\": {}}}",
                    v.arrays,
                    v.total_disks,
                    floats.json(Float::VolumeUnavailability),
                    floats.json(Float::VolumeNines),
                );
            }
            row.push('}');
            if i + 1 != rows {
                row.push(',');
            }
            row.push('\n');
            if let Err(e) = out.end_row(i, rows) {
                done[1] = Err(e);
                json = None;
            }
        }
    }

    if let Some(out) = &mut json {
        let tail = &mut out.text;
        tail.push_str("  ],\n");
        if result.keep_going {
            let _ = writeln!(tail, "  \"failed_cells\": {},", result.failed_cells);
        }
        let u = &result.unavailability_stats;
        let _ = writeln!(
            tail,
            "  \"unavailability_summary\": {{\"count\": {}, \"mean\": {}, \"min\": {}, \"max\": {}}}",
            u.count(),
            json::number(u.mean()),
            json::number(u.min()),
            json::number(u.max()),
        );
        tail.push_str("}\n");
    }
    let [csv_done, json_done] = done;
    [
        csv_done.and_then(|()| csv.map_or(Ok(String::new()), Rows::finish)),
        json_done.and_then(|()| json.map_or(Ok(String::new()), Rows::finish)),
    ]
}

/// Renders the human-readable summary table, including per-cell timings
/// (the one non-deterministic part of a campaign's output).
pub fn summary(result: &CampaignResult) -> String {
    let metrics = effective_metrics(result);
    let volume = metrics.contains(&Metric::Volume);
    let mut headers = vec![
        "cell", "raid", "policy", "lambda", "hep", "unavail", "nines",
    ];
    if volume {
        headers.push("vol-nines");
    }
    headers.push("time-us");
    let mut table = Table::new(
        format!(
            "campaign {} ({}, {} cells, {} workers)",
            result.scenario.name,
            result.scenario.model,
            result.cells.len(),
            result.workers
        ),
        &headers,
    );
    let mut lambdas = AxisText::new(|out, bits| {
        let _ = write!(out, "{:.3e}", f64::from_bits(bits));
    });
    let mut heps = AxisText::new(debug_bits);
    let mut raids = AxisText::new(label);
    for c in &result.cells {
        table
            .cell(c.cell.index)
            .cell(raids.get(c.cell.raid))
            .cell(c.cell.policy.as_str())
            .cell(lambdas.get(c.cell.lambda.to_bits()))
            .cell(heps.get(c.cell.hep.to_bits()));
        if c.is_failed() {
            table.cell("failed").cell("");
        } else {
            table
                .cell(format_args!("{:.4e}", c.unavailability))
                .cell(format_args!("{:.4}", c.nines));
        }
        if volume {
            match c.volume {
                Some(v) => table.cell(format_args!("{:.4}", v.nines)),
                None => table.cell(""),
            };
        }
        table.cell(c.elapsed_micros);
    }
    let t = &result.timing_stats;
    let mut out = table.render();
    let _ = writeln!(
        out,
        "cell time us: mean {:.0}  min {:.0}  max {:.0}  |  wall {} us  |  worker util {:.0}%",
        t.mean(),
        t.min(),
        t.max(),
        result.wall_micros,
        result.worker_utilization() * 100.0
    );
    if result.failed_cells > 0 {
        let _ = writeln!(
            out,
            "{} cell(s) failed; see the status/error report columns",
            result.failed_cells
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{cell_seed, expand, Cell};
    use crate::run::{run, CellResult, RunConfig, VolumeMetrics};
    use crate::spec::{FleetSettings, LseSettings, Policy, Scenario};
    use availsim_sim::stats::RunningStats;
    use availsim_sim::telemetry::CounterSnapshot;
    use availsim_storage::RaidGeometry;

    /// A hand-built keep-going campaign with every optional column on:
    /// all six metrics (volume included), the DR credit and both loss
    /// columns. Row 0 is finite, row 1 has an infinite `nines` and a
    /// `None` MTTDL, row 2 failed with an error holding a comma and a
    /// quote. Timings are fixed, so even the summary is byte-stable.
    fn golden_result() -> CampaignResult {
        let scenario = Scenario {
            name: "golden".into(),
            seed: 7,
            model: ModelKind::Mc,
            capacity: Some(21),
            metrics: vec![
                Metric::Unavailability,
                Metric::Nines,
                Metric::Downtime,
                Metric::Mttdl,
                Metric::CiHalfWidth,
                Metric::Volume,
            ],
            fleet: Some(FleetSettings {
                arrays: 4,
                failover_capacity: Some(Some(2)),
                ..FleetSettings::default()
            }),
            lse: Some(LseSettings {
                lse_rate: 1e-4,
                scrub_interval_hours: 336.0,
            }),
            ..Scenario::default()
        };
        let cell = |index: u64, raid, policy, lambda, hep| Cell {
            index,
            seed: cell_seed(7, index),
            raid,
            policy,
            lambda,
            hep,
        };
        let cells = vec![
            CellResult {
                cell: cell(
                    0,
                    RaidGeometry::raid1_pair(),
                    Policy::Conventional,
                    1e-5,
                    0.0,
                ),
                unavailability: 2.5e-7,
                nines: 6.602059991327962,
                downtime_min_per_year: 0.1314,
                mttdl_hours: Some(2255081.6),
                ci_half_width: Some(1.25e-8),
                credited_unavailability: Some(1e-7),
                p_data_loss: Some(0.0125),
                nomdl_per_tb: Some(0.0035),
                volume: Some(VolumeMetrics {
                    arrays: 21,
                    total_disks: 42,
                    unavailability: 5.25e-6,
                    nines: 5.279840696594043,
                }),
                counters: CounterSnapshot::default(),
                elapsed_micros: 120,
                error: None,
            },
            CellResult {
                cell: cell(
                    1,
                    RaidGeometry::raid5(3).unwrap(),
                    Policy::Failover,
                    3.1622776601683796e-6,
                    0.001,
                ),
                unavailability: 0.0,
                nines: f64::INFINITY,
                downtime_min_per_year: 0.0,
                mttdl_hours: None,
                ci_half_width: Some(0.0),
                credited_unavailability: Some(0.0),
                p_data_loss: Some(0.0),
                nomdl_per_tb: Some(0.0),
                volume: Some(VolumeMetrics {
                    arrays: 7,
                    total_disks: 28,
                    unavailability: 0.0,
                    nines: f64::INFINITY,
                }),
                counters: CounterSnapshot::default(),
                elapsed_micros: 80,
                error: None,
            },
            CellResult {
                cell: cell(
                    2,
                    RaidGeometry::raid5(7).unwrap(),
                    Policy::Conventional,
                    1e-4,
                    0.01,
                ),
                unavailability: f64::NAN,
                nines: f64::NAN,
                downtime_min_per_year: f64::NAN,
                mttdl_hours: None,
                ci_half_width: None,
                credited_unavailability: None,
                p_data_loss: None,
                nomdl_per_tb: None,
                volume: None,
                counters: CounterSnapshot::default(),
                elapsed_micros: 5,
                error: Some("cell 2: \"RAID5(7+1)\" rejected, fault tolerance 1".into()),
            },
        ];
        let mut unavailability_stats = RunningStats::new();
        let mut timing_stats = RunningStats::new();
        for c in cells.iter().filter(|c| !c.is_failed()) {
            unavailability_stats.push(c.unavailability);
            timing_stats.push(c.elapsed_micros as f64);
        }
        CampaignResult {
            scenario,
            cells,
            unavailability_stats,
            timing_stats,
            counters: CounterSnapshot::default(),
            workers: 2,
            keep_going: true,
            failed_cells: 1,
            wall_micros: 250,
        }
    }

    #[test]
    fn reports_match_the_golden_bytes() {
        let mut r = golden_result();
        assert_eq!(to_csv(&r), GOLDEN_CSV);
        assert_eq!(to_json(&r), GOLDEN_JSON);
        assert_eq!(summary(&r), GOLDEN_SUMMARY);
        // An empty metric list is the model's default set: for MC that
        // drops the MTTDL column and keeps every other field's bytes.
        r.scenario.metrics.clear();
        assert_eq!(to_csv(&r), GOLDEN_CSV_DEFAULT_METRICS);
    }

    /// A writer that refuses every write.
    struct Refuses;

    impl io::Write for Refuses {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("refused"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_reports_gives_the_renderers_bytes() {
        let mut r = golden_result();
        for metrics in [r.scenario.metrics.clone(), vec![Metric::Nines]] {
            r.scenario.metrics = metrics;
            let (mut csv, mut json) = (Vec::new(), Vec::new());
            let (c, j) = write_reports(&r, &mut csv, &mut json);
            c.unwrap();
            j.unwrap();
            assert_eq!(String::from_utf8(csv).unwrap(), to_csv(&r));
            assert_eq!(String::from_utf8(json).unwrap(), to_json(&r));
        }
        // With `metrics = [nines]` the CSV is narrower than the JSON.
        assert!(to_csv(&r).starts_with("cell,seed,raid,policy,lambda,hep,nines,credited"));

        // A writer that fails ends its own report, not the other, here at
        // its first hand-on, well before the last row.
        r.cells = r.cells.iter().cycle().take(1_500).cloned().collect();
        assert!(to_csv(&r).len() > 2 * FLUSH_BYTES);
        let mut json = Vec::new();
        let (c, j) = write_reports(&r, &mut Refuses, &mut json);
        assert_eq!(c.unwrap_err().to_string(), "refused");
        j.unwrap();
        assert_eq!(String::from_utf8(json).unwrap(), to_json(&r));
        let mut csv = Vec::new();
        let (c, j) = write_reports(&r, &mut csv, &mut Refuses);
        c.unwrap();
        assert_eq!(j.unwrap_err().to_string(), "refused");
        assert_eq!(String::from_utf8(csv).unwrap(), to_csv(&r));
    }

    fn result() -> CampaignResult {
        let s = Scenario::parse(
            "[campaign]\nname = rpt\nseed = 2\ncapacity = 21\n[axes]\nraid = [r1, r5-3]\nhep = [0, 0.01]\nlambda = 1e-5\n",
        )
        .unwrap();
        run(
            &expand(&s).unwrap(),
            &RunConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn csv_has_header_and_one_row_per_cell() {
        let r = result();
        let csv = to_csv(&r);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + r.cells.len());
        assert!(lines[0].starts_with("cell,seed,raid,policy,lambda,hep,unavailability"));
        assert!(lines[0].ends_with("volume_nines"));
        assert!(
            !lines[0].contains("elapsed") && !lines[0].contains("time-us"),
            "timings must not leak into the CSV"
        );
        for line in &lines[1..] {
            assert_eq!(
                line.split(',').count(),
                lines[0].split(',').count(),
                "ragged row: {line}"
            );
        }
    }

    #[test]
    fn csv_and_json_are_worker_count_invariant() {
        let s = Scenario::parse(
            "[campaign]\nname = det\nseed = 4\n[axes]\nraid = [r1, r5-3, r5-7]\nhep = [0, 0.001, 0.01]\nlambda = 1e-5\n",
        )
        .unwrap();
        let plan = expand(&s).unwrap();
        let one = run(
            &plan,
            &RunConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let many = run(
            &plan,
            &RunConfig {
                workers: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(to_csv(&one), to_csv(&many));
        assert_eq!(to_json(&one), to_json(&many));
    }

    #[test]
    fn json_is_structurally_sound() {
        let json = to_json(&result());
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches("\"cell\":").count(), 4);
        assert!(json.contains("\"campaign\": \"rpt\""));
        assert!(json.contains("\"capacity\": 21"));
        // Seeds are strings: a bare u64 above 2^53 silently corrupts in
        // IEEE-double JSON parsers.
        assert!(json.contains("\"seed\": \"2\""));
        assert!(!json.contains("\"seed\": 2,"));
        assert!(json.contains("\"volume\":"));
        assert!(json.contains("\"unavailability_summary\":"));
        // Balanced braces/brackets (rough structural check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn json_escaping_and_numbers() {
        // A float's JSON text is its `{:?}` text; a non-finite or absent
        // one prints null.
        let mut r = result();
        let c = &mut r.cells[0];
        (c.mttdl_hours, c.nines, c.ci_half_width) = (Some(1e-5), f64::NAN, None);
        let mut floats = RowFloats::default();
        floats.fill(c);
        assert_eq!(floats.json(Float::Mttdl), "1e-5");
        assert_eq!(floats.json(Float::Nines), "null");
        assert_eq!(floats.json(Float::CiHalfWidth), "null");
        // Names and cell values go through the shared writers: escaped
        // strings, and null for a non-finite number.
        let mut r = result();
        r.scenario.name = "a\"b\\c\nd\u{1}".into();
        r.cells[0].nines = f64::INFINITY;
        let json = to_json(&r);
        assert!(
            json.contains("\"campaign\": \"a\\\"b\\\\c\\nd\\u0001\","),
            "{json}"
        );
        assert!(json.contains("\"nines\": null,"), "{json}");
    }

    #[test]
    fn summary_contains_timing_and_every_cell() {
        let r = result();
        let s = summary(&r);
        assert!(s.contains("campaign rpt"));
        assert!(s.contains("time-us"));
        assert!(s.contains("vol-nines"));
        assert!(s.contains("wall"));
        assert!(s.contains("worker util"));
        // Utilization is a wall-clock figure: summary only, never CSV/JSON.
        assert!(!to_csv(&r).contains("util"));
        assert!(!to_json(&r).contains("util"));
        assert!(s.contains("RAID5(3+1)"));
    }

    #[test]
    fn explicit_metric_selection_narrows_the_csv() {
        let s = Scenario::parse(
            "[campaign]\nname = narrow\nmetrics = [nines]\n[axes]\nraid = r5-3\nlambda = 1e-5\nhep = 0.01\n",
        )
        .unwrap();
        let r = run(
            &expand(&s).unwrap(),
            &RunConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let csv = to_csv(&r);
        let header = csv.lines().next().unwrap();
        assert_eq!(header, "cell,seed,raid,policy,lambda,hep,nines");
    }

    #[test]
    fn keep_going_reports_mark_exactly_the_failed_cell() {
        let s = Scenario::parse(
            "[campaign]\nname = kg\nmodel = markov-failover\n[axes]\nraid = [r5-3, r6-4]\nhep = 0.01\nlambda = 1e-5\n",
        )
        .unwrap();
        let plan = expand(&s).unwrap();
        let cfg = |workers| RunConfig {
            workers,
            keep_going: true,
        };
        let one = run(&plan, &cfg(1)).unwrap();
        let four = run(&plan, &cfg(4)).unwrap();
        // Deterministic placement: the report bytes are worker-invariant.
        assert_eq!(to_csv(&one), to_csv(&four));
        assert_eq!(to_json(&one), to_json(&four));

        let csv = to_csv(&one);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].ends_with(",status,error"), "{}", lines[0]);
        assert!(lines[1].contains(",ok,"), "{}", lines[1]);
        assert!(lines[2].contains(",error,"), "{}", lines[2]);
        // The failed row keeps its axis columns but empties the metrics.
        assert!(lines[2].starts_with("1,"), "{}", lines[2]);
        assert!(lines[2].contains(",,"), "{}", lines[2]);
        for line in &lines[1..] {
            assert_eq!(
                split_respecting_quotes(line).len(),
                lines[0].split(',').count(),
                "ragged row: {line}"
            );
        }

        let json = to_json(&one);
        assert!(json.contains("\"status\": \"ok\""));
        assert!(json.contains("\"status\": \"error\""));
        assert!(json.contains("\"failed_cells\": 1,"));
        assert_eq!(json.matches("\"error\": null").count(), 1);
        // Failed metrics serialise as null, never NaN.
        assert!(!json.contains("NaN"));

        let text = summary(&one);
        assert!(text.contains("failed"));
        assert!(text.contains("1 cell(s) failed"));

        // A plain (non-keep-going) campaign keeps its byte-stable layout.
        let ok = result();
        assert!(!to_csv(&ok).contains("status"));
        assert!(!to_json(&ok).contains("\"failed_cells\""));
    }

    /// Splits a CSV line honouring double-quoted fields (test helper for
    /// the error column, which may contain commas).
    fn split_respecting_quotes(line: &str) -> Vec<String> {
        let mut fields = vec![String::new()];
        let mut in_quotes = false;
        for ch in line.chars() {
            match ch {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => fields.push(String::new()),
                c => fields.last_mut().unwrap().push(c),
            }
        }
        fields
    }

    #[test]
    fn csv_field_quotes_delimiters() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn lse_campaigns_add_the_loss_columns() {
        let s = Scenario::parse(
            "[campaign]\nname = loss\nseed = 11\nmodel = mc\n[axes]\nlambda = 5e-4\nhep = 0.01\nraid = r5-3\n[mc]\niterations = 400\nhorizon_hours = 20000\n[lse]\nlse_rate = 1e-4\nscrub_interval = 672\n",
        )
        .unwrap();
        let r = run(
            &expand(&s).unwrap(),
            &RunConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let csv = to_csv(&r);
        let header = csv.lines().next().unwrap();
        assert!(header.ends_with(",p_data_loss,nomdl_per_tb"), "{header}");
        // A hot cell (λ = 5e-4, 28-day scrubs) loses data in some missions:
        // both loss fields are populated and positive.
        let row = csv.lines().nth(1).unwrap();
        let fields: Vec<&str> = row.split(',').collect();
        let p: f64 = fields[fields.len() - 2].parse().unwrap();
        let nomdl: f64 = fields[fields.len() - 1].parse().unwrap();
        assert!(p > 0.0 && p < 1.0, "{row}");
        assert!(nomdl > 0.0, "{row}");
        let json = to_json(&r);
        assert!(json.contains("\"p_data_loss\": "));
        assert!(json.contains("\"nomdl_per_tb\": "));

        // A Markov cell of an [lse] campaign folds the exposure into its
        // ordinary columns — no loss columns appear.
        let markov = Scenario::parse(
            "[campaign]\nname = loss\nseed = 11\nmodel = markov-conventional\n[axes]\nlambda = 5e-4\nhep = 0.01\nraid = r5-3\n[lse]\nlse_rate = 1e-4\nscrub_interval = 672\n",
        )
        .unwrap();
        let r = run(
            &expand(&markov).unwrap(),
            &RunConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!to_csv(&r).contains("p_data_loss"));
        assert!(!to_json(&r).contains("p_data_loss"));

        // And a plain campaign keeps its byte-stable layout.
        let ok = result();
        assert!(!to_csv(&ok).contains("p_data_loss"));
        assert!(!to_json(&ok).contains("nomdl"));
    }

    #[test]
    fn fleet_failover_campaigns_add_the_credited_column() {
        let s = Scenario::parse(
            "[campaign]\nname = dr\nseed = 5\nmodel = mc\n[axes]\nlambda = 1e-4\nhep = 0.02\n[mc]\niterations = 100\nhorizon_hours = 20000\n[fleet]\narrays = 4\nfailover_capacity = inf\n",
        )
        .unwrap();
        let r = run(
            &expand(&s).unwrap(),
            &RunConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let csv = to_csv(&r);
        let header = csv.lines().next().unwrap();
        assert!(header.ends_with(",credited_unavailability"), "{header}");
        // Ideal DR: the credited figure is exactly zero.
        assert!(csv.lines().nth(1).unwrap().ends_with(",0.0"), "{csv}");
        assert!(to_json(&r).contains("\"credited_unavailability\": 0.0"));

        // Without the coupling neither report mentions the credit.
        let plain = Scenario::parse(
            "[campaign]\nname = dr\nseed = 5\nmodel = mc\n[axes]\nlambda = 1e-4\nhep = 0.02\n[mc]\niterations = 100\nhorizon_hours = 20000\n[fleet]\narrays = 4\n",
        )
        .unwrap();
        let r = run(
            &expand(&plain).unwrap(),
            &RunConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!to_csv(&r).contains("credited"));
        assert!(!to_json(&r).contains("credited"));
    }

    const GOLDEN_CSV: &str = r#"cell,seed,raid,policy,lambda,hep,unavailability,nines,downtime_min_per_year,mttdl_hours,ci_half_width,arrays,total_disks,volume_unavailability,volume_nines,credited_unavailability,p_data_loss,nomdl_per_tb,status,error
0,17332331373651132471,RAID1(1+1),conventional,1e-5,0.0,2.5e-7,6.602059991327962,0.1314,2255081.6,1.25e-8,21,42,5.25e-6,5.279840696594043,1e-7,0.0125,0.0035,ok,
1,15238825286151933266,RAID5(3+1),failover,3.1622776601683796e-6,0.001,0.0,inf,0.0,,0.0,7,28,0.0,inf,0.0,0.0,0.0,ok,
2,14206966700823381322,RAID5(7+1),conventional,0.0001,0.01,,,,,,,,,,,,,error,"cell 2: ""RAID5(7+1)"" rejected, fault tolerance 1"
"#;

    const GOLDEN_CSV_DEFAULT_METRICS: &str = r#"cell,seed,raid,policy,lambda,hep,unavailability,nines,downtime_min_per_year,ci_half_width,arrays,total_disks,volume_unavailability,volume_nines,credited_unavailability,p_data_loss,nomdl_per_tb,status,error
0,17332331373651132471,RAID1(1+1),conventional,1e-5,0.0,2.5e-7,6.602059991327962,0.1314,1.25e-8,21,42,5.25e-6,5.279840696594043,1e-7,0.0125,0.0035,ok,
1,15238825286151933266,RAID5(3+1),failover,3.1622776601683796e-6,0.001,0.0,inf,0.0,0.0,7,28,0.0,inf,0.0,0.0,0.0,ok,
2,14206966700823381322,RAID5(7+1),conventional,0.0001,0.01,,,,,,,,,,,,error,"cell 2: ""RAID5(7+1)"" rejected, fault tolerance 1"
"#;

    const GOLDEN_JSON: &str = r#"{
  "campaign": "golden",
  "seed": "7",
  "model": "mc",
  "capacity": 21,
  "cells": [
    {"cell": 0, "seed": "17332331373651132471", "raid": "RAID1(1+1)", "policy": "conventional", "lambda": 1e-5, "hep": 0.0, "unavailability": 2.5e-7, "nines": 6.602059991327962, "downtime_min_per_year": 0.1314, "mttdl_hours": 2255081.6, "ci_half_width": 1.25e-8, "credited_unavailability": 1e-7, "p_data_loss": 0.0125, "nomdl_per_tb": 0.0035, "status": "ok", "error": null, "volume": {"arrays": 21, "total_disks": 42, "unavailability": 5.25e-6, "nines": 5.279840696594043}},
    {"cell": 1, "seed": "15238825286151933266", "raid": "RAID5(3+1)", "policy": "failover", "lambda": 3.1622776601683796e-6, "hep": 0.001, "unavailability": 0.0, "nines": null, "downtime_min_per_year": 0.0, "mttdl_hours": null, "ci_half_width": 0.0, "credited_unavailability": 0.0, "p_data_loss": 0.0, "nomdl_per_tb": 0.0, "status": "ok", "error": null, "volume": {"arrays": 7, "total_disks": 28, "unavailability": 0.0, "nines": null}},
    {"cell": 2, "seed": "14206966700823381322", "raid": "RAID5(7+1)", "policy": "conventional", "lambda": 0.0001, "hep": 0.01, "unavailability": null, "nines": null, "downtime_min_per_year": null, "mttdl_hours": null, "ci_half_width": null, "credited_unavailability": null, "p_data_loss": null, "nomdl_per_tb": null, "status": "error", "error": "cell 2: \"RAID5(7+1)\" rejected, fault tolerance 1"}
  ],
  "failed_cells": 1,
  "unavailability_summary": {"count": 2, "mean": 1.25e-7, "min": 0.0, "max": 2.5e-7}
}
"#;

    const GOLDEN_SUMMARY: &str = "\
## campaign golden (mc, 3 cells, 2 workers)
cell  raid        policy        lambda    hep    unavail    nines   vol-nines  time-us
--------------------------------------------------------------------------------------
0     RAID1(1+1)  conventional  1.000e-5  0.0    2.5000e-7  6.6021  5.2798     120
1     RAID5(3+1)  failover      3.162e-6  0.001  0.0000e0   inf     inf        80
2     RAID5(7+1)  conventional  1.000e-4  0.01   failed                        5
cell time us: mean 100  min 80  max 120  |  wall 250 us  |  worker util 41%
1 cell(s) failed; see the status/error report columns
";
}

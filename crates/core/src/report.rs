//! Plain-text reporting: aligned tables and `(x, y)` series, used to
//! print the paper's figures as data and the campaign summary.
//!
//! A [`Table`] keeps every cell, headers included, in one text buffer with
//! an end offset per cell. [`Table::cell`] writes a value straight into
//! that buffer through `Display`, so a row costs no allocation of its own,
//! and [`Table::render`] writes each line straight into its output.

use std::fmt::{self, Write as _};

/// A column-aligned table. Cells fill it row by row, one [`Table::cell`]
/// call each: a row is complete after as many cells as there are headers.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    columns: usize,
    /// Every cell's text back to back: the headers, then the rows.
    text: String,
    /// Where each cell ends in `text` (`u32`: half the memory of `usize`
    /// on a 36,000-row campaign summary).
    ends: Vec<u32>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        let mut table = Table {
            title: title.into(),
            columns: headers.len(),
            text: String::new(),
            ends: Vec::new(),
        };
        for header in headers {
            table.cell(header);
        }
        table
    }

    /// Appends the next cell, written straight into the table's buffer.
    pub fn cell(&mut self, value: impl fmt::Display) -> &mut Self {
        let _ = write!(self.text, "{value}");
        let end = u32::try_from(self.text.len()).expect("table text fits in 4 GiB");
        self.ends.push(end);
        self
    }

    /// The text of cell `i`, counting the headers as the first row.
    fn cell_text(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// Renders with aligned columns, suitable for terminal output. A
    /// column is as wide as its longest cell in bytes, and cells are
    /// padded to that width in chars, as `{:<width$}` pads.
    pub fn render(&self) -> String {
        let columns = self.columns.max(1);
        let mut widths = vec![0usize; columns];
        for i in 0..self.ends.len() {
            let width = &mut widths[i % columns];
            *width = (*width).max(self.cell_text(i).len());
        }
        let line_width = widths.iter().sum::<usize>() + 2 * columns;
        let rows = self.ends.len().div_ceil(columns);
        let mut out = String::with_capacity(self.title.len() + (rows + 2) * (line_width + 1));
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        for row in 0..rows {
            let start = out.len();
            for i in row * columns..self.ends.len().min((row + 1) * columns) {
                let cell = self.cell_text(i);
                out.push_str(cell);
                let pad = widths[i % columns] - cell.chars().count() + 2;
                out.extend(std::iter::repeat_n(' ', pad));
            }
            out.truncate(start + out[start..].trim_end().len());
            out.push('\n');
            if row == 0 {
                out.extend(std::iter::repeat_n('-', line_width - 2));
                out.push('\n');
            }
        }
        out
    }
}

/// A named `(x, y)` series, the data behind one plotted curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label, e.g. `"Markov, hep=0.01"`.
    pub label: String,
    /// The data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends one point.
    pub fn push(&mut self, x: f64, y: f64) -> &mut Self {
        self.points.push((x, y));
        self
    }

    /// Renders as `label: (x, y) ...` lines with scientific x values.
    pub fn render(&self) -> String {
        let mut out = format!("series: {}\n", self.label);
        for (x, y) in &self.points {
            let _ = writeln!(out, "  {x:>12.4e}  {y:>10.4}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["lambda", "nines"]);
        t.cell("1e-6").cell(8.40);
        t.cell(format_args!("{:.1e}", 5.5e-6)).cell("6.91");
        assert_eq!(
            t.render(),
            "## Demo\nlambda  nines\n-------------\n1e-6    8.4\n5.5e-6  6.91\n"
        );
    }

    #[test]
    fn table_pads_by_chars_so_a_non_ascii_column_stays_aligned() {
        // "λ=1e-6" is six chars in seven bytes: the column is seven wide
        // (bytes) and every cell in it is padded to seven chars, so the
        // next column starts at the same char on every line.
        let mut t = Table::new("", &["hep", "point", "nines"]);
        t.cell("0.01").cell("λ=1e-6").cell("5.1");
        t.cell("0").cell("plain").cell("6.3");
        let text = t.render();
        assert_eq!(
            text,
            "hep   point    nines\n--------------------\n0.01  λ=1e-6   5.1\n0     plain    6.3\n"
        );
        let starts: Vec<usize> = text
            .lines()
            .filter(|l| !l.starts_with('-'))
            .map(|l| l.chars().count() - l.rsplit(' ').next().unwrap().chars().count())
            .collect();
        assert!(starts.windows(2).all(|w| w[0] == w[1]), "{text}");
    }

    #[test]
    fn series_renders_points() {
        let mut s = Series::new("MC hep=0.01");
        s.push(1e-6, 7.5).push(2e-6, 7.1);
        let r = s.render();
        assert!(r.contains("MC hep=0.01"));
        assert!(r.contains("7.5"));
    }
}

//! Shared emitter for the machine-readable `BENCH_*.json` snapshots.
//!
//! The workspace is dependency-free, so the snapshots are hand-rolled —
//! but through **one** writer with automatic comma/indent/nesting
//! management and proper string escaping, instead of one ad-hoc
//! `format!` chain per bench. Key order is insertion order, so diffs of
//! checked-in snapshots stay meaningful.

use availsim_sim::json::escape_into;

/// Shortest round-trip decimal form of a finite float — the default
/// number format of the snapshots (`1.0`, `2255081.6`, `9.8005e-8`), all
/// valid JSON numbers.
///
/// # Panics
/// Panics on non-finite values (JSON has no spelling for them; a bench
/// producing one is broken).
pub fn json_f64(v: f64) -> String {
    assert!(v.is_finite(), "JSON cannot represent {v}");
    format!("{v:?}")
}

/// A streaming JSON writer with automatic comma and indentation
/// management. Values are either escaped strings ([`Self::str_field`]) or
/// preformatted raw tokens ([`Self::raw_field`]) for numbers whose
/// precision the caller controls.
#[derive(Debug)]
pub struct JsonSnapshot {
    out: String,
    /// One entry per open scope: `(is_array, has_items)`.
    stack: Vec<(bool, bool)>,
}

impl JsonSnapshot {
    /// Begins the root object of a bench snapshot with the three standard
    /// header fields every `BENCH_*.json` carries.
    pub fn bench(bench: &str, workload: &str, scale: f64) -> Self {
        let mut w = JsonSnapshot::root();
        w.str_field("bench", bench);
        w.str_field("workload", workload);
        w.raw_field("scale", &json_f64(scale));
        w
    }

    /// Begins a bare root object with no bench header — for non-bench
    /// consumers of the writer (e.g. the CLI's `--metrics` snapshot).
    pub fn root() -> Self {
        let mut w = JsonSnapshot {
            out: String::new(),
            stack: Vec::new(),
        };
        w.open('{');
        w
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.stack.push((bracket == '[', false));
    }

    fn close(&mut self, bracket: char) {
        let (_, has_items) = self.stack.pop().expect("unbalanced close");
        if has_items {
            self.newline_indent();
        }
        self.out.push(bracket);
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    /// Starts a new item in the current scope: comma if needed, newline,
    /// indentation.
    fn item(&mut self) {
        let top = self.stack.last_mut().expect("no open scope");
        if top.1 {
            self.out.push(',');
        }
        top.1 = true;
        self.newline_indent();
    }

    fn key(&mut self, key: &str) {
        self.item();
        self.out.push('"');
        escape_into(&mut self.out, key);
        self.out.push_str("\": ");
    }

    /// Writes `"key": "value"` with the value escaped.
    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.out.push('"');
        escape_into(&mut self.out, value);
        self.out.push('"');
        self
    }

    /// Writes `"key": value` with a preformatted raw token (a number or
    /// boolean the caller already formatted).
    pub fn raw_field(&mut self, key: &str, raw: &str) -> &mut Self {
        self.key(key);
        self.out.push_str(raw);
        self
    }

    /// Writes `"key": value` in the shortest round-trip float form.
    pub fn f64_field(&mut self, key: &str, value: f64) -> &mut Self {
        let raw = json_f64(value);
        self.raw_field(key, &raw)
    }

    /// Writes `"key": value` as an integer.
    pub fn u64_field(&mut self, key: &str, value: u64) -> &mut Self {
        let raw = value.to_string();
        self.raw_field(key, &raw)
    }

    /// Writes `"key": true|false`.
    pub fn bool_field(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw_field(key, if value { "true" } else { "false" })
    }

    /// Opens `"key": [` — close with [`Self::end_array`].
    pub fn begin_array(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.open('[');
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']');
        self
    }

    /// Opens `"key": {` — close with [`Self::end_object`].
    pub fn begin_object(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.open('{');
        self
    }

    /// Opens a `{` item inside the current array.
    pub fn begin_array_object(&mut self) -> &mut Self {
        self.item();
        self.open('{');
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}');
        self
    }

    /// Closes the root object and returns the rendered document (with a
    /// trailing newline, like every checked-in snapshot).
    ///
    /// # Panics
    /// Panics if arrays/objects opened by the caller are still open —
    /// an unbalanced snapshot is a bench bug, caught at render time.
    pub fn finish(mut self) -> String {
        assert_eq!(
            self.stack.len(),
            1,
            "unbalanced JSON snapshot: {} scopes still open",
            self.stack.len().saturating_sub(1)
        );
        self.close('}');
        self.out.push('\n');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The document a one-field root object renders to.
    fn one_field(key: &str, value: &str) -> String {
        let mut w = JsonSnapshot::root();
        w.str_field(key, value);
        w.finish()
    }

    #[test]
    fn escaping_covers_quotes_backslashes_and_control_chars() {
        for (raw, escaped) in [
            ("plain", "plain"),
            ("a \"quoted\" value", "a \\\"quoted\\\" value"),
            ("back\\slash", "back\\\\slash"),
            ("line\nbreak\ttab\rret", "line\\nbreak\\ttab\\rret"),
            ("bell\u{7}", "bell\\u0007"),
            // Unicode passes through untouched.
            ("λ=3e-6 → U", "λ=3e-6 → U"),
        ] {
            assert_eq!(
                one_field("k", raw),
                format!("{{\n  \"k\": \"{escaped}\"\n}}\n"),
                "value {raw:?}"
            );
            assert_eq!(
                one_field(raw, "v"),
                format!("{{\n  \"{escaped}\": \"v\"\n}}\n"),
                "key {raw:?}"
            );
        }
    }

    #[test]
    fn float_formatting_round_trips_and_is_valid_json() {
        for (v, expect) in [
            (1.0, "1.0"),
            (0.01, "0.01"),
            (2255081.6, "2255081.6"),
            (9.8005e-8, "9.8005e-8"),
            (-3.5, "-3.5"),
            (0.0, "0.0"),
        ] {
            let s = json_f64(v);
            assert_eq!(s, expect);
            assert_eq!(s.parse::<f64>().unwrap(), v, "round-trip of {s}");
        }
    }

    #[test]
    #[should_panic(expected = "JSON cannot represent")]
    fn non_finite_floats_are_rejected() {
        let _ = json_f64(f64::NAN);
    }

    #[test]
    fn writer_produces_balanced_nested_documents() {
        let mut w = JsonSnapshot::bench("demo", "work \"load\"", 0.01);
        w.begin_array("rows");
        for i in 0..2u64 {
            w.begin_array_object();
            w.u64_field("i", i).bool_field("ok", i == 0);
            w.end_object();
        }
        w.end_array();
        w.begin_object("totals");
        w.f64_field("sum", 1.5);
        w.end_object();
        let json = w.finish();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        for needle in [
            "\"bench\": \"demo\"",
            "\"workload\": \"work \\\"load\\\"\"",
            "\"scale\": 0.01",
            "\"i\": 0",
            "\"ok\": true",
            "\"ok\": false",
            "\"sum\": 1.5",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Commas separate array items but no trailing commas exist.
        assert!(!json.contains(",\n}") && !json.contains(",\n]"), "{json}");
    }

    #[test]
    #[should_panic(expected = "unbalanced JSON snapshot")]
    fn unbalanced_documents_are_caught_at_finish() {
        let mut w = JsonSnapshot::bench("demo", "w", 1.0);
        w.begin_array("rows");
        let _ = w.finish();
    }
}

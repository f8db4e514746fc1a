//! JSON output, shared by every hand-rolled JSON writer in the workspace:
//! the campaign reports, the serve response bodies and the CLI's
//! `--metrics` snapshot. One string writer ([`string`]), one number writer
//! ([`number`]), and [`JsonSnapshot`], the streaming object writer built on
//! them.

use std::fmt::{self, Write as _};

/// Writes `s` as a JSON string literal, quotes included: quotes,
/// backslashes and control characters are escaped; everything else,
/// non-ASCII included, passes through.
pub fn string(s: &str) -> impl fmt::Display + '_ {
    JsonString(s)
}

/// Writes `v` as a JSON number: a finite value in its shortest round-trip
/// form (`{:?}`: `1.0`, `1e-5`, `2255081.6`), a non-finite one as `null`
/// (JSON has no NaN or infinity).
pub fn number(v: f64) -> impl fmt::Display {
    JsonNumber(v)
}

struct JsonString<'a>(&'a str);

impl fmt::Display for JsonString<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

struct JsonNumber(f64);

impl fmt::Display for JsonNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{:?}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// A streaming writer for one JSON object, two-space indented, with
/// commas and nesting managed. Keys keep insertion order, so two
/// snapshots of the same run diff line by line.
#[derive(Debug)]
pub struct JsonSnapshot {
    out: String,
    /// One entry per open object: whether it has a field yet.
    open: Vec<bool>,
}

impl JsonSnapshot {
    /// Begins the root object.
    pub fn root() -> Self {
        JsonSnapshot {
            out: String::from("{"),
            open: vec![false],
        }
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.open.len() {
            self.out.push_str("  ");
        }
    }

    /// Starts `"key": ` as the next field of the innermost object.
    fn key(&mut self, key: &str) {
        let has_fields = self.open.last_mut().expect("no open object");
        if *has_fields {
            self.out.push(',');
        }
        *has_fields = true;
        self.newline_indent();
        let _ = write!(self.out, "{}: ", string(key));
    }

    fn field(&mut self, key: &str, value: impl fmt::Display) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Writes `"key": "value"` through [`string`].
    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.field(key, string(value))
    }

    /// Writes `"key": value` through [`number`].
    pub fn f64_field(&mut self, key: &str, value: f64) -> &mut Self {
        self.field(key, number(value))
    }

    /// Writes `"key": value` as an integer.
    pub fn u64_field(&mut self, key: &str, value: u64) -> &mut Self {
        self.field(key, value)
    }

    /// Opens `"key": {` — close with [`Self::end_object`].
    pub fn begin_object(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.out.push('{');
        self.open.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        let has_fields = self.open.pop().expect("unbalanced close");
        if has_fields {
            self.newline_indent();
        }
        self.out.push('}');
        self
    }

    /// Closes the root object and returns the document, newline-terminated.
    ///
    /// # Panics
    /// Panics if an object the caller opened is still open.
    pub fn finish(mut self) -> String {
        assert_eq!(
            self.open.len(),
            1,
            "unbalanced JSON snapshot: {} objects still open",
            self.open.len().saturating_sub(1)
        );
        self.end_object();
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
    fn escape_covers_quotes_and_controls() {
        for (raw, escaped) in [
            ("a\"b\\c\nd\u{0001}", "a\\\"b\\\\c\\nd\\u0001"),
            ("plain", "plain"),
            ("\u{1}", "\\u0001"),
        ] {
            assert_eq!(string(raw).to_string(), format!("\"{escaped}\""));
        }
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
            (1e-5, "1e-5"),
            (2255081.6, "2255081.6"),
            (9.8005e-8, "9.8005e-8"),
            (-3.5, "-3.5"),
            (0.0, "0.0"),
        ] {
            let s = number(v).to_string();
            assert_eq!(s, expect);
            assert_eq!(s.parse::<f64>().unwrap(), v, "round-trip of {s}");
        }
    }

    #[test]
    fn non_finite_floats_are_written_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(number(v).to_string(), "null", "{v}");
        }
        let mut w = JsonSnapshot::root();
        w.f64_field("nines", f64::INFINITY);
        assert_eq!(w.finish(), "{\n  \"nines\": null\n}\n");
    }

    #[test]
    fn writer_produces_balanced_nested_documents() {
        let mut w = JsonSnapshot::root();
        w.str_field("tool", "work \"load\"");
        w.begin_object("counts");
        w.u64_field("a", 0).u64_field("b", 7);
        w.end_object();
        w.begin_object("empty");
        w.end_object();
        w.f64_field("share", 0.5);
        assert_eq!(
            w.finish(),
            "{\n  \"tool\": \"work \\\"load\\\"\",\n  \"counts\": {\n    \"a\": 0,\n    \
             \"b\": 7\n  },\n  \"empty\": {},\n  \"share\": 0.5\n}\n"
        );
    }

    #[test]
    #[should_panic(expected = "unbalanced JSON snapshot")]
    fn unbalanced_documents_are_caught_at_finish() {
        let mut w = JsonSnapshot::root();
        w.begin_object("rows");
        let _ = w.finish();
    }
}

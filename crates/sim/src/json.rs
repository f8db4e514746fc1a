//! JSON string escaping, shared by every hand-rolled JSON writer in the
//! workspace: the bench snapshots, the campaign reports, and the serve
//! response bodies.

use std::fmt::Write as _;

/// Appends `s` to `out` escaped for a JSON string literal (quotes not
/// included): quotes, backslashes, and control characters are escaped;
/// everything else, non-ASCII included, passes through.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escape(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    #[test]
    fn escape_covers_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd\u{0001}"), "a\\\"b\\\\c\\nd\\u0001");
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a \"quoted\" value"), "a \\\"quoted\\\" value");
        assert_eq!(escape("back\\slash"), "back\\\\slash");
        assert_eq!(escape("line\nbreak\ttab\rret"), "line\\nbreak\\ttab\\rret");
        assert_eq!(escape("bell\u{7}"), "bell\\u0007");
        assert_eq!(escape("\u{1}"), "\\u0001");
        // Unicode passes through untouched.
        assert_eq!(escape("λ=3e-6 → U"), "λ=3e-6 → U");
    }
}

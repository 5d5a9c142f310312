//! Minimal JSON writing for the exporters: string escaping and number
//! formatting.
//!
//! The exporters hand-roll their output (this crate is dependency-free),
//! so the writer side needs only escaping and finite-number formatting.
//! Tests check that exported documents *are* JSON by reading them back
//! through the workspace's one parser, `kcb_util::json::parse_value` (a
//! dev-dependency only).

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite `f64` (non-finite values become `null`, which JSON
/// requires).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_validates_round_trip() {
        let raw = "a\"b\\c\nd\te\u{1}";
        let mut out = String::new();
        write_str(&mut out, raw);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        let back = kcb_util::json::parse_value(&out).unwrap();
        assert_eq!(back.as_str(), Some(raw));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        out.push(',');
        write_f64(&mut out, 1.5);
        assert_eq!(out, "null,1.5");
    }
}

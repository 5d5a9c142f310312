//! A small recursive-descent JSON parser building the workspace's
//! [`Value`] tree.
//!
//! The vendored `serde_json` is writer-only, so everything that has to
//! *read* JSON back — the serve wire protocol, the run journal's replay
//! path, the `repro runs` query surface — funnels through this one
//! parser. It is the exact inverse of [`Value::render_json`] on rendered
//! output: integers parse back as integers, floats (which always carry a
//! `.` or exponent) as floats, and objects keep field order, so
//! `parse_value(v.render_json(None))` reproduces `v` bit-for-bit.
//!
//! (Historically this lived in `kcb-serve::protocol`; it moved down here
//! so `kcb-core` can replay journals without depending on the server.)

use serde::{Number, Value};

/// Parses one complete JSON value (rejecting trailing data). Errors name
/// the byte offset.
pub fn parse_value(s: &str) -> Result<Value, String> {
    let mut p = Parser { b: s.as_bytes(), i: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.i += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.i += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else { return Err(self.err("unterminated string")) };
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate halves are replaced rather than
                            // paired — the workspace never emits astral
                            // chars through \u escapes.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.i += 5;
                        }
                        Some(e @ (b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't')) => {
                            out.push(match e {
                                b'b' => '\u{8}',
                                b'f' => '\u{c}',
                                b'n' => '\n',
                                b'r' => '\r',
                                b't' => '\t',
                                c => c as char,
                            });
                            self.i += 1;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                c if c < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Multi-byte UTF-8: push the full char.
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = rest.chars().next().ok_or_else(|| self.err("unterminated"))?;
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        let neg = self.peek() == Some(b'-');
        if neg {
            self.i += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.i;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.i += 1;
            }
            p.i > s
        };
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.i += 1;
            if !digits(self) {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
        let n = if float {
            Number::F(text.parse().map_err(|_| self.err("bad number"))?)
        } else if neg {
            Number::I(text.parse().map_err(|_| self.err("bad number"))?)
        } else {
            Number::U(text.parse().map_err(|_| self.err("bad number"))?)
        };
        Ok(Value::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nesting_strings_and_numbers() {
        let v = parse_value(r#"{"a":[1,-2,2.5,"x\n\"y\"",{"b":null},true,false]}"#).unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_i64(), Some(-2));
        assert_eq!(a[2].as_f64(), Some(2.5));
        assert_eq!(a[3].as_str(), Some("x\n\"y\""));
        assert!(a[4].get("b").unwrap().is_null());
        assert_eq!(parse_value("[]").unwrap(), Value::Array(Vec::new()));
        assert_eq!(parse_value("  42 ").unwrap().as_u64(), Some(42));
        let v = parse_value(r#"{"e":-3e2,"c":{}}"#).unwrap();
        assert_eq!((v["e"].as_f64(), v["c"].clone()), (Some(-300.0), Value::Object(Vec::new())));
        for bad in ["{", "[1,]", "{\"a\":}", "\"oops", "01x", "[1] extra", "{\"a\" 1}"] {
            assert!(parse_value(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn render_then_parse_is_identity() {
        let v = serde_json::json!({
            "u": 42u64,
            "f": 1.0f64,
            "frac": 0.125f64,
            "s": "a\tb",
            "arr": [true, false],
        });
        let compact = v.render_json(None);
        assert_eq!(parse_value(&compact).unwrap(), v);
        let pretty = v.render_json(Some(2));
        assert_eq!(parse_value(&pretty).unwrap(), v);
        // The re-render of the parse reproduces the exact bytes, which is
        // what journal replay relies on for artifact byte-identity.
        assert_eq!(parse_value(&compact).unwrap().render_json(None), compact);
    }

    #[test]
    fn integer_vs_float_distinction_survives() {
        let v = parse_value("[3,3.0,-3]").unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a[0], Value::Number(Number::U(3)));
        assert_eq!(a[1], Value::Number(Number::F(3.0)));
        assert_eq!(a[2], Value::Number(Number::I(-3)));
        assert_eq!(v.render_json(None), "[3,3.0,-3]");
    }
}

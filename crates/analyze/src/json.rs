//! A minimal JSON value and emitter for the SARIF report, plus the
//! string escaper every JSON writer in the analyzer shares.
//!
//! The analyzer is dependency-free, so it writes JSON by hand instead of
//! through serde_json. Objects keep insertion order so emission is
//! deterministic.

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Jv {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers print without a fraction).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Jv>),
    /// An object, in insertion order.
    Obj(Vec<(String, Jv)>),
}

impl Jv {
    /// Compact, deterministic emission.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Jv::Null => out.push_str("null"),
            Jv::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Jv::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Jv::Str(s) => out.push_str(&escape(s)),
            Jv::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Jv::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape(k));
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string for JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_compact_json_in_insertion_order() {
        let v = Jv::Obj(vec![
            ("b".into(), Jv::Num(2.0)),
            (
                "a".into(),
                Jv::Arr(vec![Jv::Null, Jv::Bool(true), Jv::Num(0.5)]),
            ),
        ]);
        assert_eq!(v.emit(), r#"{"b":2,"a":[null,true,0.5]}"#);
    }

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd\u{1}é"), r#""a\"b\\c\nd\u0001é""#);
    }
}

//! Hand-rolled JSON encode/decode for the result records.
//!
//! The build environment has no registry access, so `serde_json` is not
//! available; the record schema is small and stable enough that a direct
//! writer/parser is the simpler dependency-free choice.

use crate::{Reproduction, Row};

fn escape(s: &str, out: &mut String) {
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
}

fn num(v: f64, out: &mut String) {
    if v.is_finite() {
        // Round-trippable float formatting.
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Serialize a [`Reproduction`] in the same shape `serde_json` produced.
pub fn to_string_pretty(rep: &Reproduction) -> String {
    let mut o = String::new();
    o.push_str("{\n  \"id\": ");
    escape(&rep.id, &mut o);
    o.push_str(",\n  \"title\": ");
    escape(&rep.title, &mut o);
    o.push_str(",\n  \"rows\": [");
    for (i, r) in rep.rows.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str("\n    {\n      \"label\": ");
        escape(&r.label, &mut o);
        o.push_str(",\n      \"paper\": ");
        match r.paper {
            Some(p) => num(p, &mut o),
            None => o.push_str("null"),
        }
        o.push_str(",\n      \"measured\": ");
        num(r.measured, &mut o);
        o.push_str(",\n      \"unit\": ");
        escape(&r.unit, &mut o);
        o.push_str("\n    }");
    }
    if !rep.rows.is_empty() {
        o.push_str("\n  ");
    }
    o.push_str("],\n  \"notes\": ");
    escape(&rep.notes, &mut o);
    o.push_str("\n}");
    o
}

/// A minimal JSON value tree — just enough to read records back.
enum Value {
    Null,
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
    // Parsed and skipped; no record field is boolean today.
    Bool(#[allow(dead_code)] bool),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::String(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.err("expected , or ]")),
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(self.err("expected , or }")),
                    }
                }
            }
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u digits"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 sequences from the source.
                    let start = self.pos - 1;
                    let width = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    self.pos = start + width;
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        s.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("bad number"))
    }
}

fn get<'v>(fields: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn str_field(fields: &[(String, Value)], key: &str) -> Result<String, String> {
    match get(fields, key) {
        Some(Value::String(s)) => Ok(s.clone()),
        _ => Err(format!("missing string field {key:?}")),
    }
}

/// Parse a [`Reproduction`] record written by [`to_string_pretty`].
pub fn from_str(s: &str) -> Result<Reproduction, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    let Value::Object(fields) = v else {
        return Err("top level is not an object".into());
    };
    let rows = match get(&fields, "rows") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| {
                let Value::Object(f) = item else {
                    return Err("row is not an object".to_string());
                };
                Ok(Row {
                    label: str_field(f, "label")?,
                    paper: match get(f, "paper") {
                        Some(Value::Number(n)) => Some(*n),
                        _ => None,
                    },
                    measured: match get(f, "measured") {
                        Some(Value::Number(n)) => *n,
                        _ => return Err("row missing measured".into()),
                    },
                    unit: str_field(f, "unit").unwrap_or_else(|_| "s".into()),
                })
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("missing rows array".into()),
    };
    Ok(Reproduction {
        id: str_field(&fields, "id")?,
        title: str_field(&fields, "title")?,
        rows,
        notes: str_field(&fields, "notes").unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Reproduction {
        Reproduction {
            id: "table9".into(),
            title: "A \"quoted\" title\nwith a newline".into(),
            rows: vec![
                Row::with_paper("small", 0.27, 0.29),
                Row::measured_only("huge", 12.5),
            ],
            notes: "unicode: é λ".into(),
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let rep = sample();
        let text = to_string_pretty(&rep);
        let back = from_str(&text).unwrap();
        assert_eq!(back.id, rep.id);
        assert_eq!(back.title, rep.title);
        assert_eq!(back.notes, rep.notes);
        assert_eq!(back.rows.len(), 2);
        assert_eq!(back.rows[0].paper, Some(0.27));
        assert_eq!(back.rows[0].measured, 0.29);
        assert_eq!(back.rows[1].paper, None);
        assert_eq!(back.rows[1].unit, "s");
    }

    #[test]
    fn missing_unit_defaults_to_seconds() {
        let text = r#"{"id":"x","title":"t","rows":[{"label":"a","paper":null,"measured":1.5}],"notes":""}"#;
        let rep = from_str(text).unwrap();
        assert_eq!(rep.rows[0].unit, "s");
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        assert!(from_str("{\"id\": }").is_err());
        assert!(from_str("").is_err());
        assert!(from_str("[1,2").is_err());
    }
}

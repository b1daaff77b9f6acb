//! `BENCHMARK.json`, compiled in, and the start-up check that what the
//! program is about to print is exactly what the file declares.
//!
//! The repository has no JSON dependency, so this file carries the small
//! parser the one document needs (objects, arrays, strings without
//! `\u` escapes, numbers, `true`/`false`/`null`).

use std::collections::BTreeSet;

const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("JSON: {what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected '{}'", byte as char))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.fail("unknown literal")
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return self.fail("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return self.fail("unterminated escape");
                    };
                    self.pos += 1;
                    out.push(match e {
                        b'"' | b'\\' | b'/' => e,
                        b'n' => b'\n',
                        b't' => b'\t',
                        _ => return self.fail("unsupported escape"),
                    });
                }
                _ => out.push(b),
            }
        }
        String::from_utf8(out).or_else(|_| self.fail("string is not UTF-8"))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => self.fail("unexpected end"),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Object(fields));
                        }
                        _ => return self.fail("expected ',' or '}'"),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return self.fail("expected ',' or ']'"),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::String),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map_or_else(|| self.fail("bad number"), |n| Ok(Json::Number(n)))
            }
        }
    }
}

pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return p.fail("trailing characters");
    }
    Ok(value)
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
    pub run_seconds: f64,
}

impl Declared {
    /// The compiled-in `BENCHMARK.json`.
    pub fn load() -> Result<Self, String> {
        Self::from_json(&parse_json(BENCHMARK_JSON)?)
    }

    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))
        };
        let name_of = |item: &Json| {
            item.get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| "BENCHMARK.json: entry without a name".to_owned())
        };
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    let name = name_of(item)?;
                    let unit = item.get("unit").and_then(Json::as_str);
                    let better = item.get("better").and_then(Json::as_str);
                    match (unit, better) {
                        (Some(unit), Some(better @ ("higher" | "lower"))) => Ok(MetricDecl {
                            name,
                            unit: unit.to_owned(),
                            higher_is_better: better == "higher",
                            bound: item.get("bound").and_then(Json::as_f64),
                        }),
                        _ => Err(format!("BENCHMARK.json: metric `{name}` needs unit and better")),
                    }
                })
                .collect()
        };
        Ok(Declared {
            workloads: list("workloads")?.iter().map(name_of).collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
        })
    }
}

/// Fails unless `printed` and `declared` are the same set of valid names.
pub fn check_names<'a>(
    what: &str,
    declared: impl IntoIterator<Item = &'a str>,
    printed: impl IntoIterator<Item = &'a str>,
) -> Result<(), String> {
    let declared: BTreeSet<&str> = declared.into_iter().collect();
    let mut seen = BTreeSet::new();
    for name in printed {
        let valid = !name.is_empty()
            && name.len() <= 64
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
            && name.as_bytes()[0].is_ascii_alphanumeric();
        if !valid {
            return Err(format!("{what} name `{name}` has a character outside [A-Za-z0-9_.-]"));
        }
        if !seen.insert(name) {
            return Err(format!("{what} name `{name}` would be printed twice"));
        }
    }
    let undeclared: Vec<_> = seen.difference(&declared).collect();
    let unprinted: Vec<_> = declared.difference(&seen).collect();
    if undeclared.is_empty() && unprinted.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{what} names differ from BENCHMARK.json: printed but not declared {undeclared:?}, \
             declared but not printed {unprinted:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_document_shape() {
        let doc = parse_json(
            r#"{"command": ["a", "b"], "run_seconds": 12, "workloads": [{"name": "w", "why": "x \"y\""}],
               "end_to_end": [{"name": "m", "unit": "1/s", "better": "higher", "bound": 0.1}],
               "per_layer": [{"name": "l.n", "unit": "ns", "better": "lower"}], "x": [], "y": {}, "z": null}"#,
        )
        .unwrap();
        assert_eq!(
            doc.get("workloads").unwrap().as_array().unwrap()[0].get("why").unwrap().as_str(),
            Some("x \"y\"")
        );
        let d = Declared::from_json(&doc).unwrap();
        assert_eq!(d.workloads, ["w"]);
        assert_eq!(d.run_seconds, 12.0);
        assert_eq!(d.end_to_end[0].bound, Some(0.1));
        assert!(d.end_to_end[0].higher_is_better);
        assert_eq!(d.per_layer[0].unit, "ns");
        assert_eq!(d.per_layer[0].bound, None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in
            ["", "{", "[1,]", "{\"a\" 1}", "{\"a\": tru}", "1 2", "\"\\u0041\"", "{\"a\": 1,}"]
        {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
        let no_unit = parse_json(r#"{"workloads": [], "end_to_end": [{"name": "m"}], "per_layer": [], "run_seconds": 1}"#).unwrap();
        assert!(Declared::from_json(&no_unit).is_err());
    }

    #[test]
    fn the_compiled_in_file_loads() {
        let d = Declared::load().unwrap();
        assert_eq!(d.workloads, ["probe", "plan", "embed", "train", "heal"]);
        assert!(d.end_to_end.iter().any(|m| m.name == "setup_s" && !m.higher_is_better));
        assert!(d.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn name_check_catches_either_direction_and_bad_characters() {
        assert!(check_names("x", ["a", "b.c"], ["b.c", "a"]).is_ok());
        let e = check_names("x", ["a", "b"], ["a"]).unwrap_err();
        assert!(e.contains("declared but not printed [\"b\"]"), "{e}");
        let e = check_names("x", ["a"], ["a", "c"]).unwrap_err();
        assert!(e.contains("printed but not declared [\"c\"]"), "{e}");
        assert!(check_names("x", ["a/b"], ["a/b"]).unwrap_err().contains("outside"));
        assert!(check_names("x", [".a"], [".a"]).is_err());
        assert!(check_names("x", ["a"], ["a", "a"]).unwrap_err().contains("twice"));
    }
}

//! Minimal JSON writing and flat-field reading for failure artifacts.
//!
//! The workspace is an offline build with no `serde`; artifacts are small
//! flat documents we both produce and consume, so a hand-rolled writer
//! plus a scanning reader for top-level scalar fields is all that is
//! needed. `qdb-bench` pretty-prints `BENCH_results.json` from the same tree.

use qdb_obs::escape_json;

/// A JSON value (writer side).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A float: integral values print without a fraction, non-finite
    /// ones as `null` (JSON has no representation for them).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Array from values.
    pub fn arr(values: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(values.into_iter().collect())
    }

    /// Render to a compact JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Render with two-space indentation and a trailing newline — the
    /// shape diff tools and `jq` both like.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// `indent` is the nesting depth when pretty-printing, `None` when
    /// compact.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::F64(n) if !n.is_finite() => out.push_str("null"),
            Json::F64(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
                out.push_str(&(*n as i64).to_string())
            }
            Json::F64(n) => out.push_str(&n.to_string()),
            Json::Str(s) => *out += &format!("\"{}\"", escape_json(s)),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, inner| {
                items[i].write(out, inner)
            }),
            Json::Obj(fields) => write_seq(out, indent, '{', '}', fields.len(), |out, i, inner| {
                *out += &format!("\"{}\"", escape_json(&fields[i].0));
                out.push_str(if inner.is_some() { ": " } else { ":" });
                fields[i].1.write(out, inner);
            }),
        }
    }
}

/// `open item,item close`, each item on its own indented line when
/// pretty-printing (an empty sequence stays `[]` / `{}`).
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    // Line break plus indentation `extra` levels in; nothing when compact.
    let brk =
        |extra: usize| indent.map_or(String::new(), |d| format!("\n{}", "  ".repeat(d + extra)));
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&brk(1));
        item(out, i, indent.map(|d| d + 1));
    }
    if len > 0 {
        out.push_str(&brk(0));
    }
    out.push(close);
}

/// Scan a document for a top-level `"key": <unsigned integer>` field.
pub fn flat_u64(text: &str, key: &str) -> Option<u64> {
    let raw = flat_raw(text, key)?;
    raw.trim().parse().ok()
}

/// Scan a document for a `"key": "string"` field (no escape handling
/// beyond `\"` — artifact strings are machine-generated identifiers).
pub fn flat_str(text: &str, key: &str) -> Option<String> {
    let raw = flat_raw(text, key)?;
    let raw = raw.trim();
    let inner = raw.strip_prefix('"')?;
    let end = inner.find('"')?;
    Some(inner[..end].to_string())
}

/// Scan a document for a `"key": ["s1", "s2", ...]` field of plain
/// strings. No escape handling and no nested arrays — trace lines are
/// machine-generated tokens that contain neither `"` nor `]`.
pub fn flat_str_arr(text: &str, key: &str) -> Option<Vec<String>> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix('[')?;
    let body = &rest[..rest.find(']')?];
    Some(
        body.split('"')
            .enumerate()
            .filter(|(i, _)| i % 2 == 1)
            .map(|(_, s)| s.to_string())
            .collect(),
    )
}

/// Scan a document for a `"key": true|false` field.
pub fn flat_bool(text: &str, key: &str) -> Option<bool> {
    let raw = flat_raw(text, key)?;
    match raw.trim() {
        t if t.starts_with("true") => Some(true),
        t if t.starts_with("false") => Some(false),
        _ => None,
    }
}

/// The raw text following `"key":`, up to the next delimiter.
fn flat_raw<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = &text[at..];
    // Cut at the first top-level delimiter; good enough for scalar fields.
    let end = rest
        .char_indices()
        .scan(false, |in_str, (i, c)| {
            if c == '"' && i > 0 {
                *in_str = !*in_str;
            } else if c == '"' && i == 0 {
                *in_str = true;
            }
            Some((i, c, *in_str))
        })
        .find(|(_, c, in_str)| !in_str && (*c == ',' || *c == '}'))
        .map(|(i, _, _)| i)
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let doc = Json::Obj(vec![
            ("seed".into(), Json::U64(42)),
            ("engine".into(), Json::str("sharded")),
            ("crash".into(), Json::Bool(true)),
            ("tail".into(), Json::Arr(vec![Json::str("a\"b")])),
        ])
        .render();
        assert_eq!(flat_u64(&doc, "seed"), Some(42));
        assert_eq!(flat_str(&doc, "engine").as_deref(), Some("sharded"));
        assert_eq!(flat_bool(&doc, "crash"), Some(true));
        assert_eq!(flat_u64(&doc, "missing"), None);
    }

    #[test]
    fn string_arrays_roundtrip() {
        let doc = Json::Obj(vec![
            (
                "trace".into(),
                Json::Arr(vec![Json::str("0 book 3"), Json::str("crash 99 flip 5")]),
            ),
            ("after".into(), Json::U64(1)),
        ])
        .render();
        assert_eq!(
            flat_str_arr(&doc, "trace").as_deref(),
            Some(&["0 book 3".to_string(), "crash 99 flip 5".to_string()][..])
        );
        assert_eq!(flat_str_arr(&doc, "missing"), None);
        let empty = Json::Obj(vec![("trace".into(), Json::Arr(vec![]))]).render();
        assert_eq!(flat_str_arr(&empty, "trace").as_deref(), Some(&[][..]));
    }

    #[test]
    fn pretty_floats_and_nesting() {
        let doc = Json::obj([
            ("name", Json::str("a\"b\\c\nd\u{1}")),
            ("xs", Json::arr([Json::F64(1e6), Json::F64(2.5)])),
            ("nan", Json::F64(f64::NAN)),
            ("empty", Json::arr([])),
        ]);
        assert_eq!(
            doc.pretty(),
            "{\n  \"name\": \"a\\\"b\\\\c\\nd\\u0001\",\n  \"xs\": [\n    1000000,\n    2.5\n  ],\n  \
             \"nan\": null,\n  \"empty\": []\n}\n"
        );
    }
}

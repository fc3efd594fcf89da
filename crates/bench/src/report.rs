//! The one writer (and the one reader) of ps-bench's flat JSON
//! artifacts: header key/values, then a `rows` array with one
//! `{...}` object per line. Every `ps-bench-*` schema is this shape,
//! so the workspace needs no JSON dependency; each schema's exact
//! bytes are pinned by its module's `json_shape_is_pinned` test.

use std::fmt;

/// One typed cell.
#[derive(Debug, Clone, Copy)]
pub enum Val<'a> {
    /// A quoted string (ids and labels; never needs escaping).
    Str(&'a str),
    /// An exact count.
    Int(u64),
    /// A float at three decimals; non-finite values read `0.000`.
    F3(f64),
}

impl fmt::Display for Val<'_> {
    /// The JSON token, which is also the text `--compare` gates on.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Val::Str(s) => write!(f, "\"{s}\""),
            Val::Int(n) => write!(f, "{n}"),
            Val::F3(v) if v.is_finite() => write!(f, "{v:.3}"),
            Val::F3(_) => f.write_str("0.000"),
        }
    }
}

/// `(key, value)` pairs in output order: a header, or one row.
pub(crate) type Fields<'a> = Vec<(&'a str, Val<'a>)>;

/// The header every sweep artifact starts with: its schema, the
/// window and the shard count the run resolved from the environment.
pub(crate) fn run_header(schema: &str) -> Fields<'_> {
    vec![
        ("schema", Val::Str(schema)),
        ("window_ms", Val::Int(crate::window_ms())),
        (
            "shards",
            Val::Int(ps_core::router::shards_from_env() as u64),
        ),
    ]
}

/// Serialize `header` (first entry: the schema) and `rows`.
pub(crate) fn to_json(header: &[(&str, Val)], rows: &[Fields]) -> String {
    let mut s = String::from("{\n");
    for (k, v) in header {
        s += &format!("  \"{k}\": {v},\n");
    }
    s += "  \"rows\": [\n";
    for (i, row) in rows.iter().enumerate() {
        let cells: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        let sep = if i + 1 == rows.len() { "" } else { "," };
        s += &format!("    {{{}}}{sep}\n", cells.join(", "));
    }
    s + "  ]\n}\n"
}

/// Fields as read back: every value as the text it was written
/// with (strings unquoted).
pub(crate) type Pairs = Vec<(String, String)>;

/// The value of `key` among `fields`.
pub fn get<'a>(fields: &'a Pairs, key: &str) -> Option<&'a str> {
    let found = fields.iter().find(|(k, _)| k == key);
    found.map(|(_, v)| v.as_str())
}

/// Read back what `to_json` writes — `(header, rows)` — one `{...}`
/// row at a time: a field is only ever looked for inside its own row.
/// Not a JSON parser — no nesting, no escapes.
pub fn parse(text: &str) -> Result<(Pairs, Vec<Pairs>), String> {
    let (head, mut body) = text.split_once('[').ok_or("no rows array")?;
    let mut header = fields(head.trim_start().trim_start_matches('{'))?;
    header.pop(); // the array's own key
    let mut rows = Vec::new();
    while let Some((_, rest)) = body.split_once('{') {
        let n = rows.len() + 1;
        let (row, rest) = rest
            .split_once('}')
            .ok_or_else(|| format!("row {n}: no closing brace"))?;
        rows.push(fields(row).map_err(|e| format!("row {n}: {e}"))?);
        body = rest;
    }
    Ok((header, rows))
}

/// Split `"key": value, ...` into pairs.
fn fields(mut s: &str) -> Result<Pairs, String> {
    let mut out = Vec::new();
    loop {
        s = s.trim_start_matches(|c: char| c == ',' || c.is_whitespace());
        if s.is_empty() {
            return Ok(out);
        }
        let bad = || {
            format!(
                "cannot read a field at `{}`",
                s.lines().next().unwrap_or("")
            )
        };
        let (key, rest) = s
            .strip_prefix('"')
            .and_then(|r| r.split_once('"'))
            .ok_or_else(bad)?;
        let rest = rest.strip_prefix(':').ok_or_else(bad)?.trim_start();
        let (value, rest) = match rest.strip_prefix('"') {
            Some(quoted) => quoted.split_once('"').ok_or_else(bad)?,
            None => rest.split_once(',').unwrap_or((rest, "")),
        };
        out.push((key.to_string(), value.trim_end().to_string()));
        s = rest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_format_as_json_tokens() {
        let cells = [
            Val::Str("a/b"),
            Val::Int(7),
            Val::F3(0.5),
            Val::F3(f64::NAN),
            Val::F3(f64::NEG_INFINITY),
        ];
        let text: Vec<String> = cells.iter().map(Val::to_string).collect();
        assert_eq!(text, ["\"a/b\"", "7", "0.500", "0.000", "0.000"]);
    }

    #[test]
    fn what_is_written_reads_back() {
        let json = to_json(
            &[("schema", Val::Str("t/v1")), ("window_ms", Val::Int(2))],
            &[
                vec![("id", Val::Str("x/64B")), ("value", Val::F3(4.0))],
                vec![("id", Val::Str("y")), ("n", Val::Int(3))],
            ],
        );
        let (header, rows) = parse(&json).unwrap();
        let pair = |k: &str, v: &str| (k.to_string(), v.to_string());
        assert_eq!(header, [pair("schema", "t/v1"), pair("window_ms", "2")]);
        assert_eq!(get(&header, "window_ms"), Some("2"));
        assert_eq!(get(&header, "shards"), None);
        assert_eq!(
            rows,
            [
                vec![pair("id", "x/64B"), pair("value", "4.000")],
                vec![pair("id", "y"), pair("n", "3")],
            ]
        );
        assert_eq!(parse(&to_json(&[], &[])).unwrap().1.len(), 0);
    }

    #[test]
    fn a_field_is_never_borrowed_from_the_next_row() {
        let text = "{\"rows\": [\n{\"id\": \"a\"},\n{\"id\": \"b\", \"value\": 5}\n]}";
        let (_, rows) = parse(text).unwrap();
        assert_eq!(get(&rows[0], "value"), None, "row 1 has none of its own");
        assert_eq!(get(&rows[1], "value"), Some("5"));
    }

    #[test]
    fn malformed_input_names_the_row() {
        assert_eq!(parse("{}").unwrap_err(), "no rows array");
        let e = parse("{\"rows\": [\n{\"id\": \"a\"},\n{id: 3}\n]}").unwrap_err();
        assert!(
            e.starts_with("row 2: cannot read a field at `id: 3`"),
            "{e}"
        );
        let e = parse("{\"rows\": [\n{\"id\": \"a\"").unwrap_err();
        assert_eq!(e, "row 1: no closing brace");
    }
}

//! A JSON writer, small enough to check by eye: the benchmark is std-only
//! and only ever *writes* JSON (its result line and `BENCHMARK.json`).

/// A JSON value. Objects keep their insertion order so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Bool(bool),
    Int(u64),
    /// Printed with Rust's shortest round-trip formatting, so a measured
    /// value keeps all its digits. Non-finite numbers have no JSON
    /// spelling and print as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn str(s: &str) -> Value {
        Value::Str(s.to_string())
    }

    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Compact one-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering (two spaces per level) with a trailing newline,
    /// for files people read.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_string(out, s),
            // A value with nothing nested inside it stays on one line even
            // in the indented layout.
            Value::Arr(items) => {
                let own = indent.filter(|_| self.is_nested());
                write_seq(out, own, level, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, level + 1);
                });
            }
            Value::Obj(fields) => {
                let own = indent.filter(|_| self.is_nested());
                write_seq(out, own, level, '{', '}', fields.len(), |out, i| {
                    write_string(out, &fields[i].0);
                    out.push_str(": ");
                    fields[i].1.write(out, indent, level + 1);
                });
            }
        }
    }

    /// Does this value hold another array or object inside it?
    fn is_nested(&self) -> bool {
        match self {
            Value::Arr(items) => items
                .iter()
                .any(|v| matches!(v, Value::Arr(_) | Value::Obj(_))),
            Value::Obj(fields) => fields
                .iter()
                .any(|(_, v)| matches!(v, Value::Arr(_) | Value::Obj(_))),
            _ => false,
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        match indent {
            Some(w) => {
                out.push('\n');
                out.push_str(&" ".repeat(w * (level + 1)));
            }
            None if i > 0 => out.push(' '),
            None => {}
        }
        item(out, i);
    }
    if let (Some(w), true) = (indent, len > 0) {
        out.push('\n');
        out.push_str(&" ".repeat(w * level));
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_as_json() {
        assert_eq!(Value::Bool(true).render(), "true");
        assert_eq!(Value::Int(1000).render(), "1000");
        assert_eq!(Value::Num(1.2034).render(), "1.2034");
        assert_eq!(Value::Num(3.0).render(), "3");
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let x = 0.812_734_567_891_234_5_f64;
        assert_eq!(Value::Num(x).render().parse::<f64>().unwrap(), x);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Value::str("a \"b\" \\ \n\t\u{1}").render(),
            r#""a \"b\" \\ \n\t\u0001""#
        );
        assert_eq!(Value::str("ns/µs ≥").render(), "\"ns/µs ≥\"");
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let v = Value::obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Int(5)),
            ("failed", Value::Int(0)),
            (
                "metrics",
                Value::obj([(
                    "run_s",
                    Value::obj([("value", Value::Num(1.25)), ("unit", Value::str("s"))]),
                )]),
            ),
        ]);
        assert_eq!(
            v.render(),
            r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"run_s": {"value": 1.25, "unit": "s"}}}"#
        );
    }

    #[test]
    fn pretty_rendering_indents_and_keeps_flat_items_on_one_line() {
        let v = Value::obj([
            (
                "command",
                Value::Arr(vec![Value::str("bash"), Value::str("x")]),
            ),
            (
                "workloads",
                Value::Arr(vec![Value::obj([("name", Value::str("a"))])]),
            ),
            ("empty", Value::Arr(vec![])),
        ]);
        assert_eq!(
            v.render_pretty(),
            "{\n  \"command\": [\"bash\", \"x\"],\n  \"workloads\": [\n    {\"name\": \"a\"}\n  ],\n  \"empty\": []\n}\n"
        );
    }
}

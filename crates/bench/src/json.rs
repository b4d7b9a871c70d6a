//! The one writer behind every committed experiment artefact
//! (`BENCH_e12.json` … `BENCH_e16.json`).
//!
//! An [`Obj`] is built leaf by leaf and rendered with its keys sorted
//! (`BTreeMap` order, so `p999_ms` precedes `p99_ms`), a 2-space indent,
//! floats through [`f2`] and a trailing newline.
//!
//! Wall-clock values are their own leaf kind: [`Obj::wall`] is the only
//! way to write a key containing `wall_`, and no other key or string
//! may contain it. Each wall leaf renders on one line, so the lines
//! `grep -v wall_` keeps are exactly the deterministic part of the
//! artefact, by construction.

use crate::f2;
use std::collections::BTreeMap;
use std::fmt::Display;

/// The `schema_version` every artefact carries (bump when keys change).
pub const SCHEMA_VERSION: u32 = 1;

/// Integer types an artefact carries verbatim.
pub trait Int: Display {}
macro_rules! int {
    ($($t:ty)*) => { $(impl Int for $t {})* };
}
int!(u32 u64 usize);

enum Value {
    /// A number, bool or string, already rendered.
    Lit(String),
    Obj(Obj),
    Arr(Vec<Value>),
}

/// A JSON object whose keys render sorted.
#[derive(Default)]
pub struct Obj(BTreeMap<String, Value>);

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// An integer leaf.
    pub fn int(self, key: &str, v: impl Int) -> Obj {
        self.put(key, Value::Lit(v.to_string()))
    }

    /// A float leaf with 2 decimals.
    pub fn f2(self, key: &str, v: f64) -> Obj {
        self.put(key, Value::Lit(f2(v)))
    }

    /// A bool leaf.
    pub fn bool(self, key: &str, v: bool) -> Obj {
        self.put(key, Value::Lit(v.to_string()))
    }

    /// A string leaf.
    pub fn str(self, key: &str, v: &str) -> Obj {
        assert!(!v.contains("wall_"), "string {v:?} under {key:?} would leak into the wall mask");
        let mut lit = String::new();
        write_str(&mut lit, v);
        self.put(key, Value::Lit(lit))
    }

    /// A nested object.
    pub fn obj(self, key: &str, v: Obj) -> Obj {
        self.put(key, Value::Obj(v))
    }

    /// An array of objects, in the given order.
    pub fn arr(self, key: &str, items: impl IntoIterator<Item = Obj>) -> Obj {
        self.put(key, Value::Arr(items.into_iter().map(Value::Obj).collect()))
    }

    /// A wall-clock float leaf, rendered with 2 decimals under the key
    /// `wall_{suffix}`.
    pub fn wall(self, suffix: &str, v: f64) -> Obj {
        self.insert(format!("wall_{suffix}"), Value::Lit(f2(v)))
    }

    /// The document: the object, then a newline.
    pub fn render(self) -> String {
        let mut out = String::new();
        write(&mut out, &Value::Obj(self), 0);
        out.push('\n');
        out
    }

    fn put(self, key: &str, v: Value) -> Obj {
        assert!(!key.contains("wall_"), "key {key:?} is wall-clock: write it with Obj::wall");
        self.insert(key.to_string(), v)
    }

    fn insert(mut self, key: String, v: Value) -> Obj {
        assert!(!self.0.contains_key(&key), "duplicate key {key:?}");
        self.0.insert(key, v);
        self
    }
}

fn write(out: &mut String, v: &Value, depth: usize) {
    match v {
        Value::Lit(s) => out.push_str(s),
        Value::Obj(o) => block(out, depth, ['{', '}'], o.0.iter().map(|(k, v)| (Some(k), v))),
        Value::Arr(a) => block(out, depth, ['[', ']'], a.iter().map(|v| (None, v))),
    }
}

/// One member per line, a comma after all but the last; empty renders
/// as `{}` / `[]`.
fn block<'a>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    members: impl ExactSizeIterator<Item = (Option<&'a String>, &'a Value)>,
) {
    out.push(open);
    let n = members.len();
    for (i, (key, v)) in members.enumerate() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(k) = key {
            write_str(out, k);
            out.push_str(": ");
        }
        write(out, v, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_sorted_indented_with_trailing_newline() {
        let point = |n: u32, p99: f64| Obj::new().int("n", n).f2("p99_ms", p99).f2("p999_ms", 9.0);
        let doc = Obj::new()
            .str("name", "a\"b")
            .arr("points", [point(1, 2.5), point(2, 1.0 / 3.0)])
            .bool("ok", true)
            .obj("inner", Obj::new().int("k", 3u64).wall("ms", 1.25))
            .arr("empty", [])
            .render();
        let want = r#"{
  "empty": [],
  "inner": {
    "k": 3,
    "wall_ms": 1.25
  },
  "name": "a\"b",
  "ok": true,
  "points": [
    {
      "n": 1,
      "p999_ms": 9.00,
      "p99_ms": 2.50
    },
    {
      "n": 2,
      "p999_ms": 9.00,
      "p99_ms": 0.33
    }
  ]
}
"#;
        assert_eq!(doc, want);
    }

    #[test]
    #[should_panic(expected = "write it with Obj::wall")]
    fn plain_wall_key_is_rejected() {
        let _ = Obj::new().f2("wall_ms", 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_key_is_rejected() {
        let _ = Obj::new().int("n", 1u32).f2("n", 2.0);
    }
}

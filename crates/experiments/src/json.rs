//! Pretty-printed JSON for the driver records.
//!
//! The layout is serde_json's `to_string_pretty`, so result files keep
//! their bytes: two-space indent, `"key": value`, `[]`/`{}` when empty, no
//! trailing newline. `None` and non-finite floats are `null`; finite
//! floats print as the shortest string that round-trips, with ryu's choice
//! between plain and exponent notation. Unit enum variants serialize as
//! their names (see [`variant`]).

use std::fmt::Write as _;

/// A JSON value. Object keys keep the order they were given in.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(&'static str, Json)>),
}

/// Conversion of a record (or a field of one) to [`Json`].
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn object<const N: usize>(fields: [(&'static str, Json); N]) -> Json {
        Json::Object(fields.into())
    }

    /// The value in serde_json's pretty layout.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(x) => write_float(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => write_seq(out, depth, "[]", items.iter().map(|v| (None, v))),
            Json::Object(fields) => {
                write_seq(out, depth, "{}", fields.iter().map(|(k, v)| (Some(*k), v)))
            }
        }
    }
}

/// `[`/`{`, one indented `key: value` or value per line, then `]`/`}`
/// back at `depth`; an empty sequence stays on one line.
fn write_seq<'a>(
    out: &mut String,
    depth: usize,
    brackets: &str,
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    let empty = items.len() == 0;
    for (i, (key, value)) in items.enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if !empty {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push_str(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// ryu's f64 layout over std's shortest round-trip digits: `d × 10^k` with
/// `kk` = digits + k prints as `1234000.0` (k ≥ 0, kk ≤ 16), `12.34`
/// (0 < kk ≤ 16), `0.001234` (-5 < kk ≤ 0), else `1e30` / `1.234e-7`.
fn write_float(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let sci = format!("{:e}", x.abs());
    let (mantissa, exp) = sci.split_once('e').unwrap_or((&sci, "0"));
    let digits: String = mantissa.chars().filter(|c| *c != '.').collect();
    let len = digits.len() as i32;
    let kk = exp.parse::<i32>().unwrap_or(0) + 1;
    if x.is_sign_negative() {
        out.push('-');
    }
    if kk >= len && kk <= 16 {
        out.push_str(&digits);
        out.push_str(&"0".repeat((kk - len) as usize));
        out.push_str(".0");
    } else if 0 < kk && kk <= 16 {
        let (int, frac) = digits.split_at(kk as usize);
        let _ = write!(out, "{int}.{frac}");
    } else if -5 < kk && kk <= 0 {
        let _ = write!(out, "0.{}{digits}", "0".repeat(-kk as usize));
    } else {
        let (lead, rest) = digits.split_at(1);
        out.push_str(lead);
        if !rest.is_empty() {
            let _ = write!(out, ".{rest}");
        }
        let _ = write!(out, "e{}", kk - 1);
    }
}

/// Define a record struct whose [`ToJson`] is an object of its fields in
/// declaration order, as `#[derive(Serialize)]` wrote it.
macro_rules! json_record {
    ($(#[$meta:meta])* struct $name:ident { $($field:ident: $ty:ty,)* }) => {
        $(#[$meta])*
        struct $name {
            $($field: $ty,)*
        }

        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Object(vec![$((stringify!($field), self.$field.to_json()),)*])
            }
        }
    };
}
pub(crate) use json_record;

/// A unit enum variant as serde names it: the variant identifier, which
/// is what a derived `Debug` prints for a unit variant.
pub fn variant(v: &impl std::fmt::Debug) -> Json {
    Json::Str(format!("{v:?}"))
}

macro_rules! scalar_to_json {
    ($($t:ty => |$v:ident| $json:expr),* $(,)?) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let $v = self;
                $json
            }
        }
    )*};
}

scalar_to_json! {
    f64 => |v| Json::Float(*v),
    u64 => |v| Json::Int(*v),
    usize => |v| Json::Int(*v as u64),
    bool => |v| Json::Bool(*v),
    String => |v| Json::Str(v.clone()),
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(T::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl ToJson for ig_core::HealthEvent {
    fn to_json(&self) -> Json {
        Json::object([
            ("stage", variant(&self.stage)),
            ("kind", variant(&self.kind)),
            ("action", variant(&self.action)),
            ("detail", self.detail.to_json()),
        ])
    }
}

impl ToJson for ig_core::HealthSummary {
    fn to_json(&self) -> Json {
        let by_kind = self
            .by_kind
            .iter()
            .map(|c| Json::object([("kind", c.kind.to_json()), ("count", c.count.to_json())]));
        Json::object([
            ("total_faults", self.total_faults.to_json()),
            ("recovered", self.recovered.to_json()),
            ("unrecovered", self.unrecovered.to_json()),
            ("by_kind", Json::Array(by_kind.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_follow_serde_json() {
        let cases = [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (2.0, "2.0"),
            (1e15, "1000000000000000.0"),
            (1e16, "1e16"),
            (1.5e17, "1.5e17"),
            (0.9714285714285713, "0.9714285714285713"),
            (123.25, "123.25"),
            (0.0001, "0.0001"),
            (0.00012, "0.00012"),
            (1e-5, "0.00001"),
            (1e-6, "1e-6"),
            (-1.5e-7, "-1.5e-7"),
            (f64::MAX, "1.7976931348623157e308"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
        ];
        for (x, want) in cases {
            assert_eq!(Json::Float(x).pretty(), want, "{x:e}");
        }
    }

    #[test]
    fn layout_matches_to_string_pretty() {
        let doc = Json::object([
            ("name", "a\"b\\c\n\u{1}".to_string().to_json()),
            ("empty", Vec::<usize>::new().to_json()),
            ("none", None::<f64>.to_json()),
            (
                "nested",
                Json::object([("ok", true.to_json()), ("n", [1usize, 2].to_json())]),
            ),
            ("obj", Json::Object(Vec::new())),
        ]);
        let want = "{\n  \"name\": \"a\\\"b\\\\c\\n\\u0001\",\n  \"empty\": [],\n  \"none\": null,\n  \
                    \"nested\": {\n    \"ok\": true,\n    \"n\": [\n      1,\n      2\n    ]\n  },\n  \
                    \"obj\": {}\n}";
        assert_eq!(doc.pretty(), want);
    }

    #[test]
    fn unit_variants_are_their_names() {
        let event = ig_core::HealthEvent {
            stage: ig_faults::Stage::Store,
            kind: ig_faults::FaultKind::ArtifactCorruption,
            action: ig_faults::RecoveryAction::QuarantinedArtifact,
            detail: "torn".to_string(),
        };
        let want = "{\n  \"stage\": \"Store\",\n  \"kind\": \"ArtifactCorruption\",\n  \
                    \"action\": \"QuarantinedArtifact\",\n  \"detail\": \"torn\"\n}";
        assert_eq!(event.to_json().pretty(), want);
    }
}

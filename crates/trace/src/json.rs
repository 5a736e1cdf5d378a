//! The one JSON writer: the forensic report, the admin bodies and the
//! chaos matrix are all written here. A value writes itself through
//! [`Json`]; an object's keys come out in the order they are written.
//! Numbers and bools print through `Display` (an `f64` reads as `{}`
//! prints it), strings and keys are escaped, `None` is `null`. The trace
//! capture's JSON lines are not written here: each event field type
//! writes itself once in the `events!` table, on the sink's hot path.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

/// A value that writes itself as one JSON value.
pub trait Json {
    /// Appends the value to `out`.
    fn write_json(&self, out: &mut String);
}

/// `value` as a JSON document.
pub fn to_string(value: &(impl Json + ?Sized)) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// The object `fields` writes, as a JSON document.
pub fn object(fields: impl Fn(&mut Object<'_>)) -> String {
    to_string(&self::fields(fields))
}

/// The object `fields` writes, as a value (an array element, a nested
/// field, or the body of a type's [`Json`] impl).
pub fn fields(fields: impl Fn(&mut Object<'_>)) -> impl Json {
    Fields(fields)
}

struct Fields<F>(F);

impl<F: Fn(&mut Object<'_>)> Json for Fields<F> {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        (self.0)(&mut Object { out, empty: true });
        out.push('}');
    }
}

/// An object being written.
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Object<'_> {
    /// Appends `"key":value`.
    pub fn field(&mut self, key: impl Display, value: impl Json) -> &mut Self {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_str(self.out, key);
        self.out.push(':');
        value.write_json(self.out);
        self
    }

    /// Appends `"key":{…}`, the object `fields` writes.
    pub fn object(&mut self, key: impl Display, fields: impl Fn(&mut Object<'_>)) -> &mut Self {
        self.field(key, Fields(fields))
    }
}

/// Writes `s` as a quoted JSON string.
fn write_str(out: &mut String, s: impl Display) {
    out.push('"');
    let _ = write!(Escaped(out), "{s}");
    out.push('"');
}

/// Escapes what is written through it.
struct Escaped<'a>(&'a mut String);

impl std::fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for c in s.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                '\n' => self.0.push_str("\\n"),
                '\r' => self.0.push_str("\\r"),
                '\t' => self.0.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(self.0, "\\u{:04x}", c as u32)?,
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

macro_rules! display_json {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_json!(bool, u32, u64, u128, usize, f64);

impl Json for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl Json for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl<T: Json + ?Sized> Json for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Json> Json for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Json> Json for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

/// A map is an object, in key order.
impl<K: Display, V: Json> Json for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        fields(|o| {
            for (k, v) in self {
                o.field(k, v);
            }
        })
        .write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `json_escape` did before it moved here: the two quoted
    /// characters, the three named controls, the other controls as
    /// `\u00XX`, everything else (non-ASCII included) unchanged.
    #[test]
    fn strings_are_escaped_and_none_is_null() {
        let body = object(|o| {
            o.field("s", "q\" b\\ n\n r\r t\t u\u{1} é→")
                .field("none", None::<u64>)
                .field("k\"ey", 1u32);
        });
        assert_eq!(
            body,
            r#"{"s":"q\" b\\ n\n r\r t\t u\u0001 é→","none":null,"k\"ey":1}"#
        );
    }

    #[test]
    fn values_nest_in_insertion_order() {
        let map: BTreeMap<&str, u64> = [("b", 2), ("a", 1)].into();
        let body = object(|o| {
            o.field("z", 0.5f64)
                .field(
                    "list",
                    &[fields(|o| {
                        o.field("t", true);
                    })][..],
                )
                .object("empty", |_| {})
                .field("map", &map)
                .field("nums", &[1.0f64, 2.0][..]);
        });
        assert_eq!(
            body,
            r#"{"z":0.5,"list":[{"t":true}],"empty":{},"map":{"a":1,"b":2},"nums":[1,2]}"#
        );
    }
}

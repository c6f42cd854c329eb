//! A one-line JSON object writer for the helper's replies.

use std::fmt::Write;

/// Builds `{"key":value,...}` in insertion order.
pub struct Obj(String);

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj(String::from("{"))
    }

    fn key(&mut self, k: &str) -> &mut String {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        quote(&mut self.0, k);
        self.0.push(':');
        &mut self.0
    }

    /// Adds an integer field.
    pub fn num(&mut self, k: &str, v: u64) -> &mut Obj {
        let s = self.key(k);
        let _ = write!(s, "{v}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Obj {
        let s = self.key(k);
        s.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Obj {
        let s = self.key(k);
        quote(s, v);
        self
    }

    /// Adds a field whose value is already JSON.
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Obj {
        self.key(k).push_str(v);
        self
    }

    /// Closes the object and returns its text.
    pub fn end(&mut self) -> String {
        let mut s = std::mem::take(&mut self.0);
        s.push('}');
        s
    }
}

/// Appends `v` as a JSON string literal.
pub fn quote(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_orders_fields() {
        let s = Obj::new()
            .num("n", 3)
            .bool("ok", true)
            .str("s", "a\"b\\c\nd\u{1}")
            .raw("r", "[1,2]")
            .end();
        assert_eq!(s, r#"{"n":3,"ok":true,"s":"a\"b\\c\nd\u0001","r":[1,2]}"#);
    }
}

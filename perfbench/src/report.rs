//! Quantiles and the one-line JSON the binaries print.

use std::fmt::Write as _;

/// The `q`-quantile of `values` by the nearest-rank method (`q` in
/// `[0, 1]`), or `None` when empty. Sorts `values`.
pub fn quantile(values: &mut [u64], q: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A flat JSON object built field by field.
#[derive(Debug, Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "\"{}\": ", escape(key));
    }

    /// Adds a number; non-finite values become `null`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.body, "{value}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// Adds a whole number.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    /// Adds a boolean.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.body.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a string.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        let _ = write!(self.body, "\"{}\"", escape(value));
        self
    }

    /// Adds already-serialized JSON.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.body.push_str(json);
        self
    }

    /// Adds a `{"value": …, "unit": …}` metric.
    pub fn metric(&mut self, key: &str, value: f64, unit: &str) -> &mut Self {
        let mut m = JsonObject::default();
        m.num("value", value).str("unit", unit);
        self.raw(key, &m.finish())
    }

    /// The object's text.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A JSON array of already-serialized items.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut v, 1.0), Some(100));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn json_escapes_and_nests() {
        let mut o = JsonObject::default();
        o.str("a\"b", "x\ny")
            .metric("m", 1.5, "ms")
            .bool("ok", true);
        assert_eq!(
            o.finish(),
            "{\"a\\\"b\": \"x\\u000ay\", \"m\": {\"value\": 1.5, \"unit\": \"ms\"}, \"ok\": true}"
        );
    }
}

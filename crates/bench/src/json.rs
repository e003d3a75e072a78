//! The one record line every measurement in this repo prints, and the
//! single-line JSON builder behind it.
//!
//! Every machine-readable line is
//! `REC {"mode":…,"kind":…,"det":{…},"timing":{…}}` ([`rec_line`]): the
//! serving bins and the criterion benches (cases, synthesizer `search`
//! counters, solver `phases`). The smoke scripts
//! strip the `REC ` prefix into JSON-lines files, and the determinism gates
//! byte-compare `det` payloads across pool sizes, so every record must be a
//! single line of valid JSON with a stable field order. [`JsonLine`] holds
//! the quoting rules; field order is insertion order.

use archytas_telemetry::PhaseRow;
use std::fmt::Write;

/// Builder for one single-line JSON object.
///
/// ```
/// use archytas_bench::json::JsonLine;
/// let line = JsonLine::new()
///     .str("session", "car-0")
///     .uint("windows", 42)
///     .bits("digest", 0xdead_beef)
///     .float("wall_s", 1.25, 6)
///     .boolean("pass", true)
///     .finish();
/// assert_eq!(
///     line,
///     "{\"session\":\"car-0\",\"windows\":42,\
///      \"digest\":\"00000000deadbeef\",\"wall_s\":1.250000,\"pass\":true}"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct JsonLine {
    buf: String,
}

impl Default for JsonLine {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonLine {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Adds a string field, or `null` when absent.
    pub fn opt_str(self, key: &str, value: Option<&str>) -> Self {
        match value {
            Some(v) => self.str(key, v),
            None => self.null(key),
        }
    }

    /// Adds an unsigned integer field.
    pub fn uint(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds an unsigned integer field, or `null` when absent.
    pub fn opt_uint(self, key: &str, value: Option<u64>) -> Self {
        match value {
            Some(v) => self.uint(key, v),
            None => self.null(key),
        }
    }

    /// Adds a float field with fixed `decimals` digits. Non-finite values
    /// (not representable in JSON) become `null`.
    pub fn float(mut self, key: &str, value: f64, decimals: usize) -> Self {
        if !value.is_finite() {
            return self.null(key);
        }
        self.key(key);
        let _ = write!(self.buf, "{value:.decimals$}");
        self
    }

    /// Adds a `u64` bit pattern as a fixed-width hex *string* — the exact
    /// form the determinism byte-diff gates compare (`digest`,
    /// `rmse_bits`, ...). Never a JSON number: 64-bit patterns do not
    /// survive f64-parsing JSON consumers.
    pub fn bits(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "\"{value:016x}\"");
        self
    }

    /// Adds a boolean field.
    pub fn boolean(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds an explicit `null` field.
    pub fn null(mut self, key: &str) -> Self {
        self.key(key);
        self.buf.push_str("null");
        self
    }

    /// Adds a pre-rendered JSON value verbatim (nested object/array built
    /// by another [`JsonLine`] or an array literal). The caller vouches
    /// for its validity.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    /// Closes the object and returns the line.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Renders `items` as a JSON array of pre-rendered values (for
/// [`JsonLine::raw`]).
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut buf = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&item);
    }
    buf.push(']');
    buf
}

/// Renders one `REC` line from pre-rendered `det` and `timing` objects.
pub fn rec_line(mode: &str, kind: &str, det: &str, timing: &str) -> String {
    let payload = JsonLine::new()
        .str("mode", mode)
        .str("kind", kind)
        .raw("det", det)
        .raw("timing", timing)
        .finish();
    format!("REC {payload}")
}

/// Renders per-phase wall-time rows as the `phases` array of a timing
/// payload: `[{"name":…,"wall_ns":…,"calls":…,"share":…},…]`.
pub fn phase_array(rows: &[PhaseRow]) -> String {
    array(rows.iter().map(|p| {
        JsonLine::new()
            .str("name", p.name)
            .uint("wall_ns", p.wall_ns)
            .uint("calls", p.calls)
            .float("share", p.share, 6)
            .finish()
    }))
}

fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_order_is_insertion_order() {
        let line = JsonLine::new().uint("b", 2).uint("a", 1).finish();
        assert_eq!(line, "{\"b\":2,\"a\":1}");
    }

    #[test]
    fn strings_are_escaped() {
        let line = JsonLine::new().str("s", "a\"b\\c\nd\u{1}").finish();
        assert_eq!(line, "{\"s\":\"a\\\"b\\\\c\\nd\\u0001\"}");
    }

    #[test]
    fn bits_render_fixed_width_hex_strings() {
        let line = JsonLine::new().bits("digest", 0xbeef).finish();
        assert_eq!(line, "{\"digest\":\"000000000000beef\"}");
    }

    #[test]
    fn options_and_non_finite_floats_become_null() {
        let line = JsonLine::new()
            .opt_str("cause", None)
            .opt_uint("recovery", None)
            .float("watts", f64::INFINITY, 3)
            .opt_str("other", Some("x"))
            .finish();
        assert_eq!(
            line,
            "{\"cause\":null,\"recovery\":null,\"watts\":null,\"other\":\"x\"}"
        );
    }

    #[test]
    fn arrays_join_prerendered_values() {
        let items = (0..3).map(|i| JsonLine::new().uint("i", i).finish());
        assert_eq!(array(items), "[{\"i\":0},{\"i\":1},{\"i\":2}]");
        assert_eq!(array(std::iter::empty()), "[]");
    }

    #[test]
    fn phase_array_is_pinned() {
        let rows = [
            PhaseRow {
                name: "assembly",
                wall_ns: 36_827_372,
                calls: 168,
                share: 0.417_114_2,
            },
            PhaseRow {
                name: "factorization",
                wall_ns: 22_886_422,
                calls: 168,
                share: 0.25,
            },
        ];
        assert_eq!(
            phase_array(&rows),
            "[{\"name\":\"assembly\",\"wall_ns\":36827372,\"calls\":168,\"share\":0.417114},\
             {\"name\":\"factorization\",\"wall_ns\":22886422,\"calls\":168,\"share\":0.250000}]"
        );
        assert_eq!(phase_array(&[]), "[]");
    }

    #[test]
    fn empty_object_is_valid() {
        assert_eq!(JsonLine::new().finish(), "{}");
    }
}

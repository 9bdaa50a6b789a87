//! The canonical diagnostics envelope shared by every JSON emitter.
//!
//! `decarb-cli analyze --json` and `decarb-cli scenario check --json`
//! publish diagnostics as JSON objects, both through
//! `decarb-analyze`, the one caller. (The serve daemon's error bodies
//! are a different shape, `{"error": {code, message}}`.) Consumers (CI gates, dashboards) diff these payloads
//! byte-for-byte, so the field order is part of the contract: **`file`,
//! `line`, `rule`, `message`** — documented in `docs/API.md` and pinned
//! by tests here and in `decarb-analyze`. Producing the object in one
//! place keeps the emitters from drifting apart.

use crate::Value;

/// Builds one diagnostic object in the canonical field order
/// (`file`, `line`, `rule`, `message`).
pub fn diagnostic_object(file: &str, line: usize, rule: &str, message: &str) -> Value {
    Value::object([
        ("file", Value::from(file)),
        ("line", Value::from(line as f64)),
        ("rule", Value::from(rule)),
        ("message", Value::from(message)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_order_is_pinned() {
        // The serialized order is the documented envelope contract;
        // this test fails if anyone reorders the fields.
        let obj = diagnostic_object("crates/sim/src/engine.rs", 42, "no-panic", "`.unwrap()`");
        assert_eq!(
            obj.to_string(),
            r#"{"file":"crates/sim/src/engine.rs","line":42,"rule":"no-panic","message":"`.unwrap()`"}"#
        );
    }

    #[test]
    fn message_is_escaped() {
        let obj = diagnostic_object("a.rs", 1, "hot-path", "says \"hi\"");
        assert_eq!(
            obj.to_string(),
            r#"{"file":"a.rs","line":1,"rule":"hot-path","message":"says \"hi\""}"#
        );
    }
}

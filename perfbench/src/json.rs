//! A minimal JSON object writer for the benchmark's output lines.

/// An ordered JSON object under construction.
#[derive(Clone, Debug, Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    fn field(mut self, key: &str, rendered: String) -> Obj {
        self.fields.push((key.to_string(), rendered));
        self
    }

    pub fn str(self, key: &str, value: &str) -> Obj {
        self.field(key, format!("\"{}\"", telemetry::json_escape(value)))
    }

    pub fn int(self, key: &str, value: u64) -> Obj {
        self.field(key, value.to_string())
    }

    pub fn bool(self, key: &str, value: bool) -> Obj {
        self.field(key, value.to_string())
    }

    /// A number with every digit it was measured with (Rust's shortest
    /// round-tripping form); non-finite values, which JSON cannot hold,
    /// become `null`.
    pub fn num(self, key: &str, value: f64) -> Obj {
        let rendered = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        self.field(key, rendered)
    }

    pub fn opt_num(self, key: &str, value: Option<f64>) -> Obj {
        match value {
            Some(v) => self.num(key, v),
            None => self.field(key, "null".to_string()),
        }
    }

    pub fn obj(self, key: &str, value: Obj) -> Obj {
        let rendered = value.render();
        self.field(key, rendered)
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", telemetry::json_escape(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_in_insertion_order() {
        let o = Obj::new()
            .bool("correct", true)
            .int("attempted", 3)
            .obj("metrics", Obj::new().num("value", 1.5).str("unit", "s"));
        assert_eq!(
            o.render(),
            r#"{"correct": true, "attempted": 3, "metrics": {"value": 1.5, "unit": "s"}}"#
        );
    }

    #[test]
    fn numbers_keep_their_digits_and_non_finite_is_null() {
        let o = Obj::new()
            .num("a", 0.1 + 0.2)
            .num("b", f64::NAN)
            .num("c", 2.0);
        assert_eq!(
            o.render(),
            r#"{"a": 0.30000000000000004, "b": null, "c": 2.0}"#
        );
    }
}

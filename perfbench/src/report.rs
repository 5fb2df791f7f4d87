//! The result line: metrics with units, in the order they were added.

use std::fmt::Write as _;

#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// `{"name": {"value": v, "unit": u}, …}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                if i > 0 { "," } else { "" },
                number(*value)
            );
        }
        out.push('}');
        out
    }

    /// One aligned `name value unit` line per metric.
    pub fn to_text(&self) -> String {
        let width = self
            .entries
            .iter()
            .map(|(n, _, _)| n.len())
            .max()
            .unwrap_or(0);
        self.entries
            .iter()
            .map(|(n, v, u)| format!("  {n:width$}  {v} {u}\n"))
            .collect()
    }
}

/// A JSON number with every digit Rust keeps (`null` when not finite).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_owned()
    }
}

/// The last line of the benchmark's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.add("setup_s", 0.8127, "s");
        m.add("ops_per_s", 25000.0, "1/s");
        assert_eq!(
            result_line(true, 10, 0, &m),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"},\"ops_per_s\":{\"value\":25000.0,\"unit\":\"1/s\"}}}"
        );
        assert_eq!(number(f64::NAN), "null");
    }
}

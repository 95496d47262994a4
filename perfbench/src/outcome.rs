//! What one run reports: counted operations, failed checks, metrics,
//! and the result line.

use std::fmt::Write as _;

/// The end-to-end metrics every workload reports, with their units.
/// `light` and `heavy` are the workload's two kinds of operation: the
/// light and heavy campaigns of `switch-grid`, the dragonfly and mesh
/// campaigns of `network`, and the warm and cold requests of `serve`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("light_p1_ms", "ms"),
    ("heavy_p1_ms", "ms"),
];

/// Percentile of the per-operation times the `*_p1_ms` metrics report:
/// other tenants of a shared host only ever slow an operation down, so
/// a low percentile tracks the program rather than its neighbours. A
/// window holds 170 to 600 campaigns or requests of each kind, so the
/// percentile still has at least two samples at or below it.
pub const OPERATION_PERCENTILE: f64 = 1.0;

/// Describes a sample of operation times in ms: count, median,
/// [`OPERATION_PERCENTILE`], and the tail (see [`crate::stats::tail`]).
pub fn describe_ms(samples: &[f64]) -> String {
    if samples.is_empty() {
        return "no samples".to_string();
    }
    let tail = match crate::stats::tail(samples) {
        Some(t) => format!("p{} {} ms with {} beyond", t.percentile, t.value, t.beyond),
        None => "none (fewer than 20 samples)".to_string(),
    };
    format!(
        "n={}, median {} ms, p1 {} ms, tail {tail}",
        samples.len(),
        crate::stats::median(samples),
        crate::stats::percentile(samples, OPERATION_PERCENTILE),
    )
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Operations, failures and metrics of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (campaigns, requests and reference checks).
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one operation and, if `result` is an error, one failure.
    pub fn check<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Adds a result-line metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Adds the [`END_TO_END`] metrics: the median set-up time, the
    /// peak RSS, and the [`OPERATION_PERCENTILE`] of the light and heavy
    /// operation times in ms (`NaN`, which fails the run, when a class
    /// has no samples).
    pub fn end_to_end(&mut self, setup_s: &[f64], light_ms: &[f64], heavy_ms: &[f64]) {
        let low = |v: &[f64]| {
            if v.is_empty() {
                f64::NAN
            } else {
                crate::stats::percentile(v, OPERATION_PERCENTILE)
            }
        };
        let values = [
            crate::stats::median(setup_s),
            crate::stats::peak_rss_mb(),
            low(light_ms),
            low(heavy_ms),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            self.metric(*name, value, unit);
        }
    }

    /// Whether every operation passed its checks.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Non-finite values are written as
    /// `null`, which the checks in `main` treat as a failure.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failures.len()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {{\"value\": ", m.name));
            if m.value.is_finite() {
                let _ = write!(out, "{:?}", m.value);
            } else {
                out.push_str("null");
            }
            let _ = write!(out, ", \"unit\": \"{}\"}}", m.unit);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome::default();
        o.check("op", Ok::<(), String>(()));
        o.check("op", Err::<(), String>("boom".into()));
        o.metric("setup_s", 0.25, "s");
        let line = o.result_line();
        let parsed = hirise_lab::json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(parsed.get("attempted").unwrap().as_u64(), Some(2));
        assert_eq!(parsed.get("failed").unwrap().as_u64(), Some(1));
        let setup = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }
}

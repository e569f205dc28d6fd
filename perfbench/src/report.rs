//! The result line: named metrics with units, plus the output checks.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one benchmark invocation reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Expected (member, message) deliveries.
    pub attempted: u64,
    /// Expected deliveries that did not happen (or were shed).
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The value of metric `name`, if reported.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Keeps only the metrics of `catalogue`, in its order, and checks
    /// that each is present, finite and carries the catalogue's unit.
    pub fn select(&mut self, catalogue: &[(&'static str, &'static str)]) {
        let mut picked = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            match self.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.unit == unit && m.value.is_finite() => picked.push(m.clone()),
                Some(m) => self.problems.push(format!(
                    "metric {name} reads {} {} (want a finite value in {unit})",
                    m.value, m.unit
                )),
                None => self.problems.push(format!("metric {name} was not measured")),
            }
        }
        self.metrics = picked;
    }

    /// The final result line: one JSON object with `correct`,
    /// `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest digits that round-trip: the value
            // as measured, never rounded for display.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// A readable table of the metrics, one per line.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{:<34} {:>18.6} {}", m.name, m.value, m.unit);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_keeps_catalogue_order_and_flags_gaps() {
        let mut r = Report::default();
        r.push("b", 2.0, "s");
        r.push("a", 1.0, "ms");
        r.push("c", f64::NAN, "s");
        r.select(&[("a", "ms"), ("b", "s"), ("c", "s"), ("d", "s")]);
        assert_eq!(r.metrics.iter().map(|m| m.name).collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(r.problems.len(), 2);
        assert!(r.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn json_prints_values_with_all_digits() {
        let mut r = Report { attempted: 10, ..Report::default() };
        r.push("x", 0.123_456_789_012_3, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 0.1234567890123, \"unit\": \"s\"}}}"
        );
    }
}

//! A run's metrics and the result line.

use symtensor_obs::json::Value;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained, for the human-readable lines.
    pub detail: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit, detail: String::new() }
    }

    pub fn detail(mut self, detail: String) -> Self {
        self.detail = detail;
        self
    }
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that failed, outside the per-call accounting.
    pub errors: Vec<String>,
    /// Context printed before the metrics.
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Counts a failed call.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.error(why);
    }

    /// Records a failed check.
    pub fn error(&mut self, why: String) {
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable lines, then the result line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for e in &self.errors {
            println!("# FAILED: {e}");
        }
        for m in &self.metrics {
            println!("{:<28} {:>14.6} {:<6} {}", m.name, m.value, m.unit, m.detail);
        }
        println!("{}", self.result_line());
    }

    pub fn result_line(&self) -> String {
        let mut metrics = Value::object();
        for m in &self.metrics {
            metrics.set(m.name, Value::object().with("value", m.value).with("unit", m.unit));
        }
        Value::object()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .to_string_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symtensor_obs::json::parse;

    #[test]
    fn result_line_has_the_four_keys_and_keeps_every_digit() {
        let mut o = Outcome { attempted: 3, failed: 1, ..Outcome::default() };
        o.metric(Metric::new("latency_ms", 1.2034567890123, "ms"));
        let line = parse(&o.result_line()).expect("valid JSON");
        let Value::Object(fields) = &line else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(line.get("attempted").and_then(Value::as_u64), Some(3));
        let m = line.get("metrics").and_then(|m| m.get("latency_ms")).expect("metric");
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.2034567890123));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));
    }
}

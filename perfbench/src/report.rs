//! What one benchmark run reports: named metrics with units, the
//! attempted/failed tally, the correctness verdict, and the one-line JSON
//! result the driver reads.

use snake_json::{obj, Value};

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The figure as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Correctness gates: every failed check is kept with its message, and
/// any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Gates {
    failures: Vec<String>,
}

impl Gates {
    /// Records `message` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(message());
        }
    }

    /// Messages of every failed check.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// The outcome of one `--workload … --trace …` run.
#[derive(Debug)]
pub struct RunReport {
    /// Strategies the timed campaigns attempted.
    pub attempted: u64,
    /// Strategies that errored, were truncated or stalled, plus every
    /// strategy of a rep whose outcomes differ from the first rep's.
    pub failed: u64,
    /// The metrics of this run mode, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Failed correctness gates (empty = correct).
    pub gate_failures: Vec<String>,
    /// Everything else worth keeping: digest, per-rep samples, counts.
    pub detail: Value,
}

impl RunReport {
    /// Whether every correctness gate passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON object the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    obj([
                        ("value", Value::F64(m.value)),
                        ("unit", Value::Str(m.unit.to_owned())),
                    ]),
                )
            })
            .collect();
        obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_string_compact()
    }
}

/// A JSON array of floats.
pub fn floats(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|v| Value::F64(*v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = RunReport {
            attempted: 10,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
            gate_failures: Vec::new(),
            detail: Value::Null,
        };
        assert_eq!(
            report.result_line(),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
    }

    #[test]
    fn any_failure_makes_the_run_incorrect() {
        let mut gates = Gates::default();
        gates.check(true, || unreachable!());
        gates.check(false, || "digest differs".to_owned());
        let report = RunReport {
            attempted: 10,
            failed: 0,
            metrics: Vec::new(),
            gate_failures: gates.failures().to_vec(),
            detail: Value::Null,
        };
        assert!(!report.correct());
    }
}

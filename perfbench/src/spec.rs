//! `BENCHMARK.json` as the benchmark itself reads it: the workload list,
//! the metric definitions with unit, direction and bound, and the run
//! length. `snake-bench all` takes its run length from here, `compare`
//! its bounds, and the smoke test checks the emitted metric names against
//! it.

use std::path::{Path, PathBuf};

use snake_json::Value;

use crate::stats::valid_name;

/// Largest bound the benchmark contract allows.
pub const MAX_BOUND: f64 = 0.25;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput).
    Higher,
    /// Smaller values are better (time, memory).
    Lower,
}

/// One metric definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// The command the driver runs.
    pub command: Vec<String>,
    /// Directories holding the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    /// Metrics of `--trace 0` runs.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of `--trace 1` runs.
    pub per_layer: Vec<MetricDef>,
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn strings(value: &Value, key: &str) -> Result<Vec<String>, String> {
    value
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("`{key}` must be an array"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("`{key}` must hold strings"))
        })
        .collect()
}

fn metric_defs(value: &Value, key: &str, bounded: bool) -> Result<Vec<MetricDef>, String> {
    value
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("`{key}` must be an array"))?
        .iter()
        .map(|entry| {
            let field = |name: &str| {
                entry
                    .get(name)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("a `{key}` entry lacks the string `{name}`"))
            };
            let name = field("name")?.to_owned();
            let unit = field("unit")?.to_owned();
            if !valid_unit(&unit) {
                return Err(format!("`{unit}` is not a legal unit (metric `{name}`)"));
            }
            let better = match field("better")? {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("`better` is `{other}` on metric `{name}`")),
            };
            let bound = entry.get("bound").and_then(Value::as_f64);
            match (bounded, bound) {
                (true, Some(b)) if (0.0..=MAX_BOUND).contains(&b) => {}
                (false, None) => {}
                _ => return Err(format!("metric `{name}` has a missing or illegal bound")),
            }
            Ok(MetricDef {
                name,
                unit,
                better,
                bound,
            })
        })
        .collect()
}

impl Benchmark {
    /// Where `BENCHMARK.json` sits relative to this package.
    pub fn default_path() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
    }

    /// Parses and validates the definition.
    pub fn parse(text: &str) -> Result<Benchmark, String> {
        let value = snake_json::parse(text).map_err(|e| e.to_string())?;
        let workloads = value
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("`workloads` must be an array")?
            .iter()
            .map(|w| {
                let field = |name: &str| {
                    w.get(name)
                        .and_then(Value::as_str)
                        .map(str::to_owned)
                        .ok_or_else(|| format!("a workload lacks the string `{name}`"))
                };
                Ok((field("name")?, field("why")?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let benchmark = Benchmark {
            command: strings(&value, "command")?,
            paths: strings(&value, "paths")?,
            run_seconds: value
                .get("run_seconds")
                .and_then(Value::as_u64)
                .filter(|s| (1..=60).contains(s))
                .ok_or("`run_seconds` must be a whole number from 1 to 60")?,
            workloads,
            end_to_end: metric_defs(&value, "end_to_end", true)?,
            per_layer: metric_defs(&value, "per_layer", false)?,
        };
        let mut names: Vec<&str> = benchmark
            .workloads
            .iter()
            .map(|(name, _)| name.as_str())
            .chain(benchmark.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(benchmark.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        if let Some(bad) = names.iter().find(|n| !valid_name(n)) {
            return Err(format!("`{bad}` is not a legal name"));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        if names.len() != total {
            return Err("a name is used more than once".to_owned());
        }
        if !benchmark
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
        {
            return Err("`end_to_end` must hold `setup_s` in `s`, lower is better".to_owned());
        }
        Ok(benchmark)
    }

    /// Reads and validates the file at `path`.
    pub fn load(path: &Path) -> Result<Benchmark, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Benchmark::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "command": ["bash", "perfbench/run.sh"], "paths": ["perfbench"], "run_seconds": 10,
        "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "l.ns", "unit": "ns", "better": "lower"}]
    }"#;

    #[test]
    fn a_minimal_definition_parses() {
        let b = Benchmark::parse(MINIMAL).expect("valid");
        assert_eq!(b.run_seconds, 10);
        assert_eq!(b.end_to_end[0].bound, Some(0.25));
        assert_eq!(b.per_layer[0].better, Better::Lower);
    }

    #[test]
    fn illegal_definitions_are_refused() {
        for (from, to) in [
            ("\"bound\": 0.25", "\"bound\": 0.3"),
            ("\"name\": \"b\"", "\"name\": \"a\""),
            ("\"unit\": \"ns\"", "\"unit\": \"n s\""),
            ("\"better\": \"lower\"}]\n", "\"better\": \"down\"}]\n"),
            ("setup_s", "set-up"),
            ("\"run_seconds\": 10", "\"run_seconds\": 61"),
        ] {
            assert!(MINIMAL.contains(from), "{from}");
            assert!(
                Benchmark::parse(&MINIMAL.replace(from, to)).is_err(),
                "{to}"
            );
        }
    }
}

//! `snake-bench compare A.json B.json`: per workload × end-to-end metric,
//! both medians, the change, the bound from `BENCHMARK.json` and a
//! verdict. This is the tool for every before/after row.

use snake_json::Value;

use crate::spec::{Benchmark, Better, MetricDef};
use crate::stats::{median, spread};

/// The judgement on one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread of either side's samples is wider than the bound, so the
    /// medians decide nothing.
    Unresolved,
}

impl Verdict {
    /// Label printed in the comparison table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// A's reported median.
    pub a: f64,
    /// B's reported median.
    pub b: f64,
    /// By how much B is worse than A, as a share of A (negative = better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// One side's figure for a workload × metric: the reported median and the
/// samples it was taken over.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    /// The reported value.
    pub value: f64,
    /// The per-rep samples behind it (may be a single one).
    pub samples: Vec<f64>,
}

impl Side {
    /// Spread of the samples as a share of their median: the interquartile
    /// range from four samples up, the full range below that, 0 for one.
    fn spread(&self) -> f64 {
        match self.samples.len() {
            0 | 1 => 0.0,
            2 | 3 => {
                let max = self.samples.iter().copied().fold(f64::MIN, f64::max);
                let min = self.samples.iter().copied().fold(f64::MAX, f64::min);
                (max - min) / median(&self.samples)
            }
            _ => spread(&self.samples),
        }
    }
}

/// Judges B against A for one metric. The spread rule follows the
/// choosing-metrics guide: with either side's samples spread wider than
/// the bound the pair is unresolved, unless every sample of B reads
/// better than every sample of A.
pub fn judge(def: &MetricDef, a: &Side, b: &Side) -> (f64, Verdict) {
    let bound = def.bound.unwrap_or(0.0);
    let worse_by = match def.better {
        Better::Higher => (a.value - b.value) / a.value,
        Better::Lower => (b.value - a.value) / a.value,
    };
    let b_always_better = a.samples.iter().all(|x| {
        b.samples.iter().all(|y| match def.better {
            Better::Higher => y > x,
            Better::Lower => y < x,
        })
    });
    let verdict = if b_always_better {
        Verdict::Ok
    } else if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Reads one workload × metric out of a `results.json` document.
fn side(results: &Value, workload: &str, metric: &str) -> Option<Side> {
    let run = results.get("workloads")?.get(workload)?.get("end_to_end")?;
    let value = run.get("metrics")?.get(metric)?.get("value")?.as_f64()?;
    let samples = run
        .get("detail")
        .and_then(|d| d.get("samples"))
        .and_then(|s| s.get(metric))
        .and_then(Value::as_arr)
        .map(|arr| arr.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_else(|| vec![value]);
    Some(Side { value, samples })
}

/// Compares two `results.json` documents over every workload and
/// end-to-end metric `benchmark` lists.
///
/// # Errors
///
/// Names the first workload × metric either document lacks.
pub fn compare(benchmark: &Benchmark, a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (workload, _) in &benchmark.workloads {
        for def in &benchmark.end_to_end {
            let lookup = |results: &Value, which: &str| {
                side(results, workload, &def.name)
                    .ok_or_else(|| format!("{which} lacks {workload} × {}", def.name))
            };
            let (side_a, side_b) = (lookup(a, "A")?, lookup(b, "B")?);
            let (worse_by, verdict) = judge(def, &side_a, &side_b);
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name.clone(),
                a: side_a.value,
                b: side_b.value,
                worse_by,
                bound: def.bound.unwrap_or(0.0),
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Renders the comparison as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for row in rows {
        out.push_str(&format!(
            "{:<18} {:<18} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}\n",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.worse_by * 100.0,
            row.bound * 100.0,
            row.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".to_owned(),
            unit: "1/s".to_owned(),
            better,
            bound: Some(bound),
        }
    }

    fn side(samples: &[f64]) -> Side {
        Side {
            value: median(samples),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn a_drop_beyond_the_bound_is_worse() {
        let (by, verdict) = judge(
            &def(Better::Higher, 0.10),
            &side(&[100.0, 101.0, 99.0]),
            &side(&[80.0, 81.0, 79.0]),
        );
        assert!((by - 0.20).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Worse);
    }

    #[test]
    fn a_drop_within_the_bound_is_ok() {
        let (_, verdict) = judge(
            &def(Better::Lower, 0.10),
            &side(&[1.00, 1.01]),
            &side(&[1.05, 1.06]),
        );
        assert_eq!(verdict, Verdict::Ok);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_sample_wins() {
        let d = def(Better::Higher, 0.10);
        let noisy = side(&[100.0, 130.0, 80.0]);
        assert_eq!(
            judge(&d, &noisy, &side(&[85.0, 86.0])).1,
            Verdict::Unresolved
        );
        assert_eq!(judge(&d, &noisy, &side(&[140.0, 150.0])).1, Verdict::Ok);
    }

    #[test]
    fn documents_are_walked_by_workload_and_metric() {
        let benchmark = Benchmark::parse(
            r#"{"command": ["x"], "paths": ["p"], "run_seconds": 1,
                "workloads": [{"name": "w1", "why": ""}, {"name": "w2", "why": ""}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "l", "unit": "ns", "better": "lower"}]}"#,
        )
        .expect("valid");
        let doc = |w1: f64, w2: f64| {
            snake_json::parse(&format!(
                r#"{{"workloads": {{
                    "w1": {{"end_to_end": {{"metrics": {{"setup_s": {{"value": {w1:?}, "unit": "s"}}}}}}}},
                    "w2": {{"end_to_end": {{"metrics": {{"setup_s": {{"value": {w2:?}, "unit": "s"}}}},
                            "detail": {{"samples": {{"setup_s": [{w2:?}, {w2:?}]}}}}}}}}}}}}"#
            ))
            .expect("valid json")
        };
        let rows = compare(&benchmark, &doc(1.0, 2.0), &doc(1.05, 3.0)).expect("complete");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[1].verdict, Verdict::Worse);
        assert!(render(&rows).contains("worse"));
        assert!(compare(&benchmark, &doc(1.0, 2.0), &Value::Null).is_err());
    }
}

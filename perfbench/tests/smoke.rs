//! Every workload through both run modes at smoke size (40 strategies,
//! one rep): the emitted metric names and units must equal what
//! `BENCHMARK.json` lists, and every correctness gate must pass.

use std::collections::BTreeMap;
use std::path::PathBuf;

use snake_perfbench::e2e::run_end_to_end;
use snake_perfbench::layers::run_per_layer;
use snake_perfbench::report::RunReport;
use snake_perfbench::spec::{Benchmark, MetricDef};
use snake_perfbench::stats::valid_name;
use snake_perfbench::workload::{Env, Sizing, Workload};

/// `SNAKE_BIN` when set, otherwise a `snake` binary in the profile
/// directory this test runs from (`<target>/<profile>/deps/..`) or in the
/// sibling release directory — where `run.sh` puts it.
fn snake_bin() -> Option<PathBuf> {
    if let Some(path) = std::env::var_os("SNAKE_BIN") {
        return Some(PathBuf::from(path));
    }
    let exe = std::env::current_exe().ok()?;
    let profile_dir = exe.parent()?.parent()?;
    let name = format!("snake{}", std::env::consts::EXE_SUFFIX);
    [
        profile_dir.to_path_buf(),
        profile_dir.parent()?.join("release"),
    ]
    .into_iter()
    .map(|dir| dir.join(&name))
    .find(|candidate| candidate.exists())
}

fn environment() -> Env {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&out_dir).expect("test scratch directory");
    Env {
        snake_bin: snake_bin(),
        out_dir,
    }
}

fn assert_matches(report: &RunReport, defs: &[MetricDef], what: &str) {
    let emitted: BTreeMap<&str, &str> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    let listed: BTreeMap<&str, &str> = defs
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect();
    assert_eq!(emitted, listed, "{what}: metric names and units");
    assert_eq!(
        emitted.len(),
        report.metrics.len(),
        "{what}: a name repeats"
    );
    for metric in &report.metrics {
        assert!(valid_name(metric.name), "{what}: {}", metric.name);
        assert!(
            metric.value.is_finite(),
            "{what}: {} is not finite",
            metric.name
        );
    }
    assert!(
        report.correct(),
        "{what}: gates failed: {:?}",
        report.gate_failures
    );
}

fn smoke(workload: Workload) {
    let benchmark = Benchmark::load(&Benchmark::default_path()).expect("BENCHMARK.json is valid");
    let env = environment();
    if workload.shards() > 0 && env.snake_bin.is_none() {
        eprintln!(
            "warning: snake binary not found (set SNAKE_BIN or run perfbench/run.sh once); \
             skipping {}",
            workload.name()
        );
        return;
    }
    let sizing = Sizing::smoke();
    let e2e = run_end_to_end(workload, 7, &sizing, &env);
    assert_matches(&e2e, &benchmark.end_to_end, workload.name());
    assert_eq!(e2e.attempted, 40, "one capped rep");
    for metric in &e2e.metrics {
        assert!(metric.value > 0.0, "{} must never read 0", metric.name);
    }
    let layers = run_per_layer(workload, 7, &sizing, &env);
    assert_matches(&layers, &benchmark.per_layer, workload.name());
    let trace = env.out_dir.join(format!("trace-{}.json", workload.name()));
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let spans = snake_json::parse(&text).expect("trace file is JSON");
    assert!(
        spans
            .get("bench_spans")
            .and_then(|s| s.as_arr())
            .is_some_and(|s| !s.is_empty()),
        "trace file holds the bench's spans"
    );
}

#[test]
fn benchmark_definition_lists_the_five_workloads() {
    let benchmark = Benchmark::load(&Benchmark::default_path()).expect("BENCHMARK.json is valid");
    let listed: Vec<&str> = benchmark
        .workloads
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, known);
    assert_eq!(benchmark.paths, ["perfbench"]);
}

#[test]
fn tcp_full_smoke() {
    smoke(Workload::TcpFull);
}

#[test]
fn tcp_scratch_smoke() {
    smoke(Workload::TcpScratch);
}

#[test]
fn dccp_full_smoke() {
    smoke(Workload::DccpFull);
}

#[test]
fn star64_full_smoke() {
    smoke(Workload::Star64Full);
}

#[test]
fn tcp_shard2_resume_smoke() {
    smoke(Workload::TcpShard2Resume);
}

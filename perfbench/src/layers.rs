//! The per-layer run (`--trace 1`): one untraced and one traced rep of the
//! workload, a single-threaded strategy sample through both executors, and
//! the microbenchmarks — with a bench-side span around every call into a
//! layer, written out when the run ends.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snake_core::{ExecutorOptions, PlannedExecutor, Recorder, RecorderSnapshot, TestMetrics};
use snake_json::{obj, Value};
use snake_proxy::Strategy;

use crate::micro::{self, MicroInputs};
use crate::report::{Gates, Metric, RunReport};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::Tracer;
use crate::workload::{
    failed_strategies, journal_path, measure_setups, named_attacks, outcome_digest, remove_journal,
    run_campaign, warm_up, Env, RunOptions, Sizing, Workload, PARALLELISM,
};

/// Largest share of the traced campaign's wall-clock the phase spans may
/// leave unattributed.
pub const MAX_UNATTRIBUTED_SHARE: f64 = 0.10;

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn histogram_sum(snapshot: &RecorderSnapshot, name: &str) -> u64 {
    snapshot.histograms.get(name).map_or(0, |h| h.sum)
}

/// Runs a seeded sample of round-0 strategies single-threaded through a
/// from-scratch and a forking executor, timing every run.
struct Sample {
    scratch_ms: Vec<f64>,
    forked_ms: Vec<f64>,
    /// Metrics of the sampled runs (the detector benchmark's input).
    runs: Vec<TestMetrics>,
    mismatches: usize,
}

fn run_sample(
    workload: Workload,
    seed: u64,
    strategies: &[Strategy],
    size: usize,
    tracer: &Tracer,
) -> Sample {
    let spec = workload.scenario(seed);
    let build = |snapshot_fork: bool| {
        let _span = tracer.span("scenario.plan_build");
        PlannedExecutor::new(
            &spec,
            ExecutorOptions {
                snapshot_fork,
                memoize: snapshot_fork,
                ..ExecutorOptions::default()
            },
        )
    };
    let (scratch, forking) = (build(false), build(true));
    let mut rng = SmallRng::seed_from_u64(seed);
    // Partial Fisher–Yates: the first `take` slots end up a uniform sample.
    let mut order: Vec<usize> = (0..strategies.len()).collect();
    let take = size.min(order.len());
    for slot in 0..take {
        let pick = rng.gen_range(slot..order.len());
        order.swap(slot, pick);
    }
    let mut sample = Sample {
        scratch_ms: Vec::new(),
        forked_ms: Vec::new(),
        runs: Vec::new(),
        mismatches: 0,
    };
    for strategy in order[..take].iter().map(|&i| &strategies[i]) {
        let timed = |executor: &PlannedExecutor, span: &'static str| {
            let _span = tracer.span(span);
            let start = Instant::now();
            let (metrics, _) = executor.run_with_info(Some(strategy.clone()));
            (metrics, start.elapsed().as_secs_f64() * 1e3)
        };
        let (from_scratch, ms) = timed(&scratch, "scenario.run_scratch");
        sample.scratch_ms.push(ms);
        let (forked, ms) = timed(&forking, "scenario.run_forked");
        sample.forked_ms.push(ms);
        if from_scratch != forked {
            sample.mismatches += 1;
        }
        sample.runs.push(from_scratch);
    }
    sample
}

/// Runs `workload` once untraced and once with a `Recorder` attached,
/// samples its strategies, runs the microbenchmarks, writes
/// `trace-<workload>.json` into the output directory and reports every
/// per-layer metric.
///
/// Gates: traced and untraced reps agree on the outcome digest; the
/// sharded workload reproduces its in-process reference; the traced resume
/// pass evaluates nothing; every sampled strategy yields equal metrics
/// from both executors; the phase spans cover the traced campaign's wall
/// to within [`MAX_UNATTRIBUTED_SHARE`]; `tcp_scratch` shows no memo,
/// short-circuit, fork or re-test activity.
pub fn run_per_layer(workload: Workload, seed: u64, sizing: &Sizing, env: &Env) -> RunReport {
    let tracer = Tracer::enabled(workload.name());
    let mut gates = Gates::default();
    let mut metrics = Vec::new();
    let cap = sizing.cap.or(workload.cap());

    warm_up(workload, seed, sizing, env, &tracer);
    let setup = measure_setups(workload, seed, sizing, &tracer);
    let plan_ms: Vec<f64> = setup.plan_s.iter().map(|s| s * 1e3).collect();
    let generate_ms: Vec<f64> = setup.generate_s.iter().map(|s| s * 1e3).collect();

    let reference = (workload.shards() > 0).then(|| {
        let options = RunOptions {
            cap,
            in_process: true,
            ..RunOptions::default()
        };
        run_campaign(workload, seed, env, &options, &tracer, "campaign.reference")
    });

    let journal = journal_path(env, workload, "trace");
    let untraced = {
        let options = RunOptions {
            cap,
            journal: Some(&journal),
            ..RunOptions::default()
        };
        run_campaign(workload, seed, env, &options, &tracer, "campaign.run")
    };
    let recorder = Arc::new(Recorder::new());
    let traced = {
        let options = RunOptions {
            cap,
            journal: Some(&journal),
            recorder: Some(recorder.clone()),
            ..RunOptions::default()
        };
        run_campaign(
            workload,
            seed,
            env,
            &options,
            &tracer,
            "campaign.run_traced",
        )
    };
    let snapshot = recorder.snapshot();
    let digest = outcome_digest(&untraced.result);
    gates.check(digest == outcome_digest(&traced.result), || {
        "traced and untraced reps disagree on the outcome digest".to_owned()
    });
    if let Some(reference) = &reference {
        gates.check(
            reference.result.outcomes == untraced.result.outcomes,
            || "sharded outcomes differ from the in-process reference".to_owned(),
        );
    }

    let resume_recorder = Arc::new(Recorder::new());
    let resumed = {
        let options = RunOptions {
            cap,
            journal: Some(&journal),
            resume: true,
            recorder: Some(resume_recorder.clone()),
            ..RunOptions::default()
        };
        run_campaign(workload, seed, env, &options, &tracer, "campaign.resume")
    };
    remove_journal(&journal);
    let resume_snapshot = resume_recorder.snapshot();
    // A sharded journal carries each outcome's worker counter deltas and
    // resume folds them back into the observer, so there `exec.runs.*`
    // describes the original evaluations; dispatch is what must be zero.
    let evaluation_counters: &[&str] = if workload.shards() > 0 {
        &["shard.ranges_dispatched"]
    } else {
        &[
            "exec.runs.from_scratch",
            "exec.runs.forked",
            "exec.runs.elided",
            "exec.runs.halted",
        ]
    };
    let evaluations: u64 = evaluation_counters
        .iter()
        .map(|name| resume_snapshot.counter(name))
        .sum();
    gates.check(
        evaluations == 0 && resumed.result.outcomes == traced.result.outcomes,
        || format!("the resume pass made {evaluations} evaluations or changed the outcomes"),
    );

    // ---- scenario / strategen: set-up and the strategy sample ---------
    let sample = run_sample(workload, seed, &setup.strategies, sizing.sample, &tracer);
    gates.check(sample.mismatches == 0, || {
        format!(
            "{} sampled strategies differ between the forking and the from-scratch executor",
            sample.mismatches
        )
    });
    // p95 needs ten samples beyond it; a smaller sample reports its
    // highest supported percentile under the same name.
    let tail = highest_supported_percentile(sample.scratch_ms.len()).unwrap_or(50);
    let c = |name: &str| snapshot.counter(name) as f64;
    let runs = c("exec.runs.from_scratch")
        + c("exec.runs.forked")
        + c("exec.runs.elided")
        + c("exec.runs.halted");
    metrics.extend([
        Metric::new("scenario.plan_build_ms", median(&plan_ms), "ms"),
        Metric::new(
            "scenario.run_scratch_ms_p50",
            percentile(&sample.scratch_ms, 50),
            "ms",
        ),
        Metric::new(
            "scenario.run_scratch_ms_p95",
            percentile(&sample.scratch_ms, tail),
            "ms",
        ),
        Metric::new(
            "scenario.run_forked_ms_p50",
            percentile(&sample.forked_ms, 50),
            "ms",
        ),
        Metric::new(
            "scenario.run_forked_ms_p95",
            percentile(&sample.forked_ms, tail),
            "ms",
        ),
        Metric::new(
            "scenario.forked_share",
            ratio(c("exec.runs.forked"), runs),
            "ratio",
        ),
        Metric::new(
            "scenario.elided_share",
            ratio(c("exec.runs.elided"), runs),
            "ratio",
        ),
        Metric::new(
            "scenario.halted_share",
            ratio(c("exec.runs.halted"), runs),
            "ratio",
        ),
        Metric::new(
            "scenario.fork_bytes_per_run",
            ratio(c("netsim.fork_clone_bytes"), c("exec.runs.forked")),
            "B",
        ),
        Metric::new(
            "scenario.snapshot_captures",
            c("netsim.snapshot_forks"),
            "count",
        ),
        Metric::new("strategen.generate_ms", median(&generate_ms), "ms"),
        Metric::new(
            "strategen.round0_strategies",
            setup.strategies.len() as f64,
            "count",
        ),
    ]);

    // ---- campaign: where the traced rep's wall-clock went -------------
    let busy_s = secs(histogram_sum(
        &snapshot,
        if workload.shards() > 0 {
            "shard.busy_nanos"
        } else {
            "worker.busy_nanos"
        },
    ));
    // `(span count, total wall nanoseconds)` per phase of the traced rep.
    let phases = snapshot.span_totals();
    let phase_s = |name: &str| secs(phases.get(name).map_or(0, |(_, nanos)| *nanos));
    let (baseline_s, snapshotting_s) = (phase_s("phase.baseline"), phase_s("phase.snapshotting"));
    let batch_s = phase_s("phase.batch");
    let retests_s = phase_s("phase.retests");
    let launch_s = phase_s("phase.shard_launch");
    let attributed = baseline_s + snapshotting_s + phase_s("phase.ensemble") + launch_s + batch_s;
    let unattributed = 1.0 - attributed / traced.wall_s;
    gates.check(unattributed <= MAX_UNATTRIBUTED_SHARE, || {
        format!("{unattributed:.3} of the traced campaign's wall-clock is unattributed")
    });
    let strategies = traced.result.strategies_tried() as f64;
    let retest_runs = phases.get("phase.retests").map_or(0, |(count, _)| *count) as f64;
    let memo_hit_share = ratio(traced.result.memo_hits as f64, strategies);
    let short_circuit_share = ratio(traced.result.short_circuits as f64, strategies);
    if !workload.shortcuts() {
        let shortcut_activity = memo_hit_share
            + short_circuit_share
            + retest_runs
            + c("exec.runs.forked")
            + c("exec.runs.elided")
            + c("exec.runs.halted")
            + c("netsim.snapshot_forks");
        gates.check(shortcut_activity == 0.0, || {
            "the from-scratch workload shows memo, short-circuit, fork or re-test activity"
                .to_owned()
        });
    }
    metrics.extend([
        Metric::new("campaign.baseline_s", baseline_s, "s"),
        Metric::new("campaign.snapshotting_s", snapshotting_s, "s"),
        Metric::new("campaign.batch_s", batch_s, "s"),
        Metric::new("campaign.retests_s", retests_s, "s"),
        Metric::new("campaign.retest_runs", retest_runs, "count"),
        Metric::new("campaign.retests_share", ratio(retests_s, busy_s), "ratio"),
        Metric::new(
            "campaign.worker_busy_share",
            ratio(busy_s, PARALLELISM as f64 * batch_s),
            "ratio",
        ),
        Metric::new("campaign.memo_hit_share", memo_hit_share, "ratio"),
        Metric::new("campaign.short_circuit_share", short_circuit_share, "ratio"),
        Metric::new("campaign.unattributed_share", unattributed, "ratio"),
        Metric::new(
            "campaign.named_attacks_found",
            named_attacks(&traced.result) as f64,
            "count",
        ),
    ]);

    // ---- netsim: event-loop counters of the traced rep ----------------
    let events = c("netsim.events");
    let simulations = c("exec.runs.from_scratch") + c("exec.runs.forked") + c("exec.runs.halted");
    metrics.extend([
        Metric::new("netsim.events_executed", events, "count"),
        Metric::new("netsim.ns_per_event", ratio(busy_s * 1e9, events), "ns"),
        Metric::new(
            "netsim.arena_reuse_share",
            ratio(
                c("netsim.arena.reuse"),
                c("netsim.arena.reuse") + c("netsim.arena.alloc"),
            ),
            "ratio",
        ),
        Metric::new(
            "netsim.queue_depth_hwm",
            ratio(c("netsim.queue.depth_hwm"), simulations),
            "count",
        ),
        Metric::new(
            "netsim.timers_cancelled",
            c("netsim.timers_cancelled"),
            "count",
        ),
    ]);

    // ---- shard: the wire and the worker pool --------------------------
    let vs_inprocess = reference
        .as_ref()
        .map_or(0.0, |r| untraced.wall_s / r.wall_s);
    metrics.extend([
        Metric::new("shard.launch_s", launch_s, "s"),
        Metric::new(
            "shard.ranges_dispatched",
            c("shard.ranges_dispatched"),
            "count",
        ),
        Metric::new("shard.outcome_batches", c("shard.outcome_batches"), "count"),
        Metric::new(
            "shard.segments_written",
            c("shard.segments.written"),
            "count",
        ),
        Metric::new("shard.reconnects", c("shard.reconnects"), "count"),
        Metric::new("shard.vs_inprocess_ratio", vs_inprocess, "ratio"),
    ]);
    gates.check(c("shard.reconnects") == 0.0, || {
        "a shard worker had to reconnect".to_owned()
    });

    // ---- proxy: how many packets the tap handled ------------------------
    // Summed over the outcomes, so a memoized outcome counts its
    // representative's packets again; exact on the from-scratch workload.
    let proxy_total = |pick: fn(&snake_proxy::ProxyReport) -> u64| {
        traced
            .result
            .outcomes
            .iter()
            .map(|o| pick(&o.metrics.proxy))
            .sum::<u64>() as f64
    };
    metrics.extend([
        Metric::new(
            "proxy.packets_seen",
            proxy_total(|r| r.packets_seen),
            "count",
        ),
        Metric::new("proxy.packets_matched", proxy_total(|r| r.matched), "count"),
    ]);

    // ---- observe: what the traced rep cost -----------------------------
    metrics.push(Metric::new(
        "observe.overhead_share",
        traced.wall_s / untraced.wall_s - 1.0,
        "ratio",
    ));

    // ---- micro ----------------------------------------------------------
    let scratch = journal_path(env, workload, "micro");
    metrics.extend(micro::run_all(
        &tracer,
        sizing,
        &MicroInputs {
            baseline: &traced.result.baseline,
            runs: &sample.runs,
            outcomes: &traced.result.outcomes,
            scratch: &scratch,
        },
    ));

    let trace_path = env.out_dir.join(format!("trace-{}.json", workload.name()));
    let trace = obj([
        ("workload", Value::Str(workload.name().to_owned())),
        ("seed", Value::U64(seed)),
        ("bench_spans", tracer.to_json()),
        ("recorder", snapshot.to_json()),
    ]);
    let written = std::fs::write(&trace_path, format!("{}\n", trace.to_string_compact()));
    gates.check(written.is_ok(), || {
        format!("cannot write {}", trace_path.display())
    });

    let attempted = (untraced.result.strategies_tried() + traced.result.strategies_tried()) as u64;
    RunReport {
        attempted,
        failed: failed_strategies(&untraced.result) + failed_strategies(&traced.result),
        metrics,
        gate_failures: gates.failures().to_vec(),
        detail: obj([
            ("workload", Value::Str(workload.name().to_owned())),
            ("seed", Value::U64(seed)),
            ("digest", Value::Str(format!("{digest:016x}"))),
            ("trace_file", Value::Str(trace_path.display().to_string())),
            ("sample_size", Value::U64(sample.scratch_ms.len() as u64)),
            ("sample_tail_percentile", Value::U64(u64::from(tail))),
            ("untraced_wall_s", Value::F64(untraced.wall_s)),
            ("traced_wall_s", Value::F64(traced.wall_s)),
        ]),
    }
}

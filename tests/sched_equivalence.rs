//! Scheduler-backend equivalence: a campaign driven by the hierarchical
//! timer wheel must be indistinguishable — per-strategy TSV, memo
//! provenance markers, manifest (modulo backend-internal bookkeeping) —
//! from the same campaign driven by the reference binary-heap scheduler,
//! on every profile, forked and from-scratch, at worker counts 1 and 4.
//!
//! Why this holds by construction: both backends dispatch the identical
//! total `(fire time, push sequence)` order. Cancelled timers follow one
//! rule written above both backends (the entry stays queued and pops as a
//! ghost), so budget, clock and purge semantics agree event for event;
//! per-channel delivery batching consumes the exact sequence numbers the
//! per-packet path would; and the packet arena is shared code on both
//! sides. Because shared code is invisible here, `tests/golden_runs.rs`
//! pins outcome digests no backend comparison can move. What
//! legitimately differs is *internal bookkeeping*: the wheel parks
//! in-order deliveries in per-channel FIFOs behind one queue marker — so
//! `queue_depth_hwm` and the approximate clone-cost gauges are stripped
//! before manifests are compared, and everything else, `timers_purged`
//! included, must match bit for bit.
//!
//! The backend is selected through the process-global `SNAKE_NETSIM_SCHED`
//! environment variable (compiled in via the netsim `heap-sched` feature),
//! so every test serializes on one lock.

use std::sync::{Arc, Mutex};

use snake_core::{
    build_run_manifest, Campaign, CampaignConfig, CampaignResult, ProtocolKind, Recorder,
    RecorderSnapshot, ScenarioSpec,
};
use snake_dccp::DccpProfile;
use snake_json::Value;
use snake_netsim::{Impairment, Simulator};
use snake_tcp::Profile;

/// Serializes every test in this file: the scheduler selector is process
/// environment, and concurrent campaigns would race on it.
static LOCK: Mutex<()> = Mutex::new(());

/// The six-profile matrix: every implementation under test plus one
/// impaired link configuration (which exercises the non-batched delivery
/// path — reordering channels bypass the FIFO fast path).
fn profiles() -> Vec<(&'static str, ScenarioSpec)> {
    let quick = |p: ProtocolKind| ScenarioSpec::quick(p);
    vec![
        (
            "linux-3.0.0",
            quick(ProtocolKind::Tcp(Profile::linux_3_0_0())),
        ),
        (
            "linux-3.13",
            quick(ProtocolKind::Tcp(Profile::linux_3_13())),
        ),
        (
            "windows-8.1",
            quick(ProtocolKind::Tcp(Profile::windows_8_1())),
        ),
        (
            "windows-95",
            quick(ProtocolKind::Tcp(Profile::windows_95())),
        ),
        ("dccp", quick(ProtocolKind::Dccp(DccpProfile::linux_3_13()))),
        (
            "linux-3.13+lossy",
            quick(ProtocolKind::Tcp(Profile::linux_3_13()))
                .with_impairment(Impairment::preset("lossy").expect("built-in preset")),
        ),
    ]
}

/// One observed campaign under the currently selected scheduler backend.
fn run(
    spec: ScenarioSpec,
    snapshot_fork: bool,
    parallelism: usize,
) -> (CampaignResult, RecorderSnapshot) {
    let recorder = Arc::new(Recorder::new());
    let config = CampaignConfig::builder(spec)
        .cap(8)
        .feedback_rounds(1)
        .retest(false)
        .memoize(true)
        .snapshot_fork(snapshot_fork)
        .parallelism(parallelism)
        .observer(recorder.clone())
        .build()
        .expect("valid config");
    let result = Campaign::run(config).expect("valid baseline");
    (result, recorder.snapshot())
}

/// Runs the same campaign on the reference heap scheduler.
fn run_on_heap(
    spec: ScenarioSpec,
    snapshot_fork: bool,
    parallelism: usize,
) -> (CampaignResult, RecorderSnapshot) {
    std::env::set_var("SNAKE_NETSIM_SCHED", "heap");
    let outcome = std::panic::catch_unwind(|| run(spec, snapshot_fork, parallelism));
    std::env::remove_var("SNAKE_NETSIM_SCHED");
    outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Manifest keys that are scheduler-backend bookkeeping, not campaign
/// observables: queue-depth accounting counts FIFO residents differently,
/// and clone-cost gauges approximate backend-specific structures.
const BACKEND_INTERNAL_NETSIM_KEYS: &[&str] = &[
    "queue_depth_hwm",
    "snapshot_clone_bytes",
    "fork_clone_bytes",
];

/// The manifest with nondeterministic sections (`timing`, `shards`) and
/// backend-internal netsim keys removed — the cross-backend bit-identity
/// contract surface. `netsim.events`, `netsim.timers_cancelled`,
/// `netsim.timers_purged` and the arena alloc/reuse totals stay in: both
/// backends must agree on them.
fn stable_json(result: &CampaignResult, snapshot: &RecorderSnapshot) -> String {
    let manifest = build_run_manifest(result, snapshot, 0.0);
    match manifest.to_json() {
        Value::Obj(pairs) => Value::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| k != "timing" && k != "shards")
                .map(|(k, v)| {
                    if k != "netsim" {
                        return (k, v);
                    }
                    let stripped = match v {
                        Value::Obj(inner) => Value::Obj(
                            inner
                                .into_iter()
                                .filter(|(ik, _)| {
                                    !BACKEND_INTERNAL_NETSIM_KEYS.contains(&ik.as_str())
                                })
                                .collect(),
                        ),
                        other => other,
                    };
                    (k, stripped)
                })
                .collect(),
        )
        .to_string_compact(),
        other => other.to_string_compact(),
    }
}

fn assert_identical(
    label: &str,
    wheel: &(CampaignResult, RecorderSnapshot),
    heap: &(CampaignResult, RecorderSnapshot),
) {
    assert_eq!(
        wheel.0.export_outcomes_tsv(),
        heap.0.export_outcomes_tsv(),
        "{label}: per-strategy TSV must be byte-identical across schedulers"
    );
    assert_eq!(
        stable_json(&wheel.0, &wheel.1),
        stable_json(&heap.0, &heap.1),
        "{label}: manifests must agree outside backend-internal bookkeeping"
    );
    assert_eq!(
        wheel.0.outcomes.iter().map(|o| &o.memo).collect::<Vec<_>>(),
        heap.0.outcomes.iter().map(|o| &o.memo).collect::<Vec<_>>(),
        "{label}: memo provenance markers must not depend on the scheduler"
    );
}

/// Sanity-checks the selector itself: without the env var campaigns run
/// on the wheel, with it they run on the heap — so the comparisons below
/// really do cross backends.
#[test]
fn scheduler_selector_actually_switches_backends() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(Simulator::new(0).scheduler_name(), "wheel");
    std::env::set_var("SNAKE_NETSIM_SCHED", "heap");
    let name = Simulator::new(0).scheduler_name();
    std::env::remove_var("SNAKE_NETSIM_SCHED");
    assert_eq!(name, "heap");
    assert_eq!(
        Simulator::new_with_heap_scheduler(0).scheduler_name(),
        "heap"
    );
}

#[test]
fn wheel_matches_heap_from_scratch_on_every_profile() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (name, spec) in profiles() {
        let wheel = run(spec.clone(), false, 1);
        let heap = run_on_heap(spec, false, 1);
        assert_identical(name, &wheel, &heap);
    }
}

#[test]
fn wheel_matches_heap_forked_on_every_profile() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (name, spec) in profiles() {
        let wheel = run(spec.clone(), true, 1);
        let heap = run_on_heap(spec, true, 1);
        assert_identical(&format!("{name}+fork"), &wheel, &heap);
    }
}

#[test]
fn wheel_matches_heap_at_parallelism_four() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (name, spec) in profiles() {
        for &snapshot_fork in &[false, true] {
            let wheel = run(spec.clone(), snapshot_fork, 4);
            let heap = run_on_heap(spec.clone(), snapshot_fork, 4);
            assert_identical(&format!("{name}+par4+fork={snapshot_fork}"), &wheel, &heap);
        }
    }
}

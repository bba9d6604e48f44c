//! Shard-merge determinism: a campaign sharded across worker *processes*
//! must be indistinguishable — per-strategy TSV, manifest (modulo the
//! wall-clock `timing` and `shards` sections), memo markers — from the
//! single-process run, on every profile, with and without a shard dying
//! mid-campaign.
//!
//! Why this holds by construction: workers only *evaluate* strategies;
//! every admission decision (worker counter folding, journal append,
//! outcome accounting) happens on the controller, strictly in
//! strategy-index order through the same reorder buffer the thread-pool
//! path uses. A dead shard's unfinished indices are re-dispatched to the
//! surviving shards, so a crash changes only who evaluated a strategy,
//! never what was admitted.
//!
//! These tests spawn real `snake shard-worker` child processes (the
//! binary Cargo builds for this test run) and serialize on a global lock:
//! the `SNAKE_SHARD_EXIT_AFTER` kill-switch is process-global environment,
//! and concurrently launching pools would otherwise inherit it.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use snake_core::{
    build_run_manifest, Campaign, CampaignConfig, CampaignResult, ProtocolKind, Recorder,
    RecorderSnapshot, ScenarioSpec,
};
use snake_dccp::DccpProfile;
use snake_json::Value;
use snake_netsim::Impairment;
use snake_tcp::Profile;

/// Serializes every test in this file: shard pools read the process
/// environment at launch, so kill-switch tests cannot overlap anything.
static LOCK: Mutex<()> = Mutex::new(());

/// The `snake` binary Cargo built alongside this test — the worker the
/// controller spawns.
fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_snake"))
}

/// The six-profile matrix from the issue: every implementation under
/// test plus one impaired link configuration.
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

/// One observed campaign at the given shard count (0 = in-process).
fn run(spec: ScenarioSpec, shards: usize, cap: usize) -> (CampaignResult, RecorderSnapshot) {
    let recorder = Arc::new(Recorder::new());
    let mut builder = CampaignConfig::builder(spec)
        .cap(cap)
        .feedback_rounds(1)
        .retest(false)
        .memoize(true)
        .observer(recorder.clone());
    if shards > 0 {
        builder = builder.shards(shards).shard_worker_bin(worker_bin());
    }
    let config = builder.build().expect("valid config");
    let result = Campaign::run(config).expect("valid baseline");
    (result, recorder.snapshot())
}

/// The manifest with its nondeterministic sections (`timing`, and for
/// sharded runs `shards`) removed — the bit-identity contract surface.
fn stable_json(result: &CampaignResult, snapshot: &RecorderSnapshot) -> String {
    let manifest = build_run_manifest(result, snapshot, 0.0);
    match manifest.to_json() {
        Value::Obj(pairs) => Value::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| k != "timing" && k != "shards")
                .collect(),
        )
        .to_string_compact(),
        other => other.to_string_compact(),
    }
}

/// Asserts the sharded run really ran sharded (no silent in-process
/// fallback) and matches the reference bit for bit.
fn assert_identical(
    label: &str,
    reference: &(CampaignResult, RecorderSnapshot),
    sharded: &(CampaignResult, RecorderSnapshot),
    workers: u64,
) {
    assert_eq!(
        sharded.1.counter("shard.workers"),
        workers,
        "{label}: the sharded run must not silently fall back in-process"
    );
    assert_eq!(
        reference.0.export_outcomes_tsv(),
        sharded.0.export_outcomes_tsv(),
        "{label}: per-strategy TSV must be byte-identical"
    );
    assert_eq!(
        stable_json(&reference.0, &reference.1),
        stable_json(&sharded.0, &sharded.1),
        "{label}: manifests must agree outside `timing`/`shards`"
    );
    assert_eq!(
        reference
            .0
            .outcomes
            .iter()
            .map(|o| &o.memo)
            .collect::<Vec<_>>(),
        sharded
            .0
            .outcomes
            .iter()
            .map(|o| &o.memo)
            .collect::<Vec<_>>(),
        "{label}: every memo provenance marker must survive sharding"
    );
}

#[test]
fn four_shards_match_single_process_on_every_profile() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (name, spec) in profiles() {
        let reference = run(spec.clone(), 0, 10);
        let sharded = run(spec, 4, 10);
        assert_identical(name, &reference, &sharded, 4);
    }
}

#[test]
fn four_shards_match_single_process_on_a_generated_multiflow_profile() {
    // The acceptance scenario of the topology/flow redesign: a generated
    // 256-host star with 256 concurrent flows (200 of them attacked) must
    // shard exactly like the dumbbell — byte-identical TSV and manifest
    // (modulo `timing`/`shards`) between 1 and 4 worker processes, fresh
    // and with the wire carrying the full topology + flow mix.
    use snake_core::{FlowGroup, FlowRole, TopologyKind};
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = ScenarioSpec::builder(ProtocolKind::Tcp(Profile::linux_3_13()))
        .data_secs(2)
        .grace_secs(6)
        .topology(TopologyKind::Star, 256)
        .flows(vec![
            FlowGroup {
                role: FlowRole::Attacked,
                count: 200,
            },
            FlowGroup {
                role: FlowRole::Bulk,
                count: 28,
            },
            FlowGroup {
                role: FlowRole::RequestResponse,
                count: 16,
            },
            FlowGroup {
                role: FlowRole::SynPressure,
                count: 12,
            },
        ])
        .build()
        .expect("valid 256-host profile");
    let reference = run(spec.clone(), 0, 6);
    let rerun = run(spec.clone(), 0, 6);
    assert_eq!(
        reference.0.export_outcomes_tsv(),
        rerun.0.export_outcomes_tsv(),
        "same seed must reproduce the multi-flow TSV byte for byte"
    );
    let sharded = run(spec, 4, 6);
    assert_identical("star-256-multiflow", &reference, &sharded, 4);
}

#[test]
fn a_shard_killed_mid_range_changes_nothing() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
    // Sized so the dispatch arithmetic, not a race, leaves shard 1 holding
    // work when it dies: cap 40 dispatches 36 strategies (4 are class
    // followers), ranges are `36.div_ceil(4 shards * 4) = 3` long and each
    // shard is handed two up front, so shard 1's first range alone
    // outlives its second outcome. (At cap 12 ranges were 1 long, and
    // whether shard 1 still held one depended on how fast the others
    // drained the queue.)
    const CAP: usize = 40;
    let reference = run(spec.clone(), 0, CAP);

    // Shard 1 exits (kill-switch in the worker binary) right after its
    // second outcome — mid-range, with work still outstanding. The
    // controller must re-dispatch its unfinished indices to the
    // survivors without re-admitting anything already merged.
    std::env::set_var("SNAKE_SHARD_EXIT_AFTER", "1:2");
    let sharded = run(spec, 4, CAP);
    std::env::remove_var("SNAKE_SHARD_EXIT_AFTER");

    assert_identical("kill-mid-range", &reference, &sharded, 4);
    assert!(
        sharded.1.counter("shard.ranges_redispatched") > 0,
        "the dead shard's outstanding ranges must actually be re-dispatched"
    );
}

#[test]
fn a_shard_dead_before_its_first_outcome_changes_nothing() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
    let reference = run(spec.clone(), 0, 10);

    // Shard 0 exits immediately after the handshake, before evaluating
    // anything: the degenerate "died before journaling" case.
    std::env::set_var("SNAKE_SHARD_EXIT_AFTER", "0:0");
    let sharded = run(spec, 2, 10);
    std::env::remove_var("SNAKE_SHARD_EXIT_AFTER");

    assert_identical("dead-at-start", &reference, &sharded, 2);
}

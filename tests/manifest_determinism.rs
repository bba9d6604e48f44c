//! Run-manifest determinism: everything except the `timing` section is
//! derived from the campaign's deterministic outputs, so two same-seed
//! runs must produce byte-identical manifests once `timing` is stripped;
//! the manifest's memo totals must equal the campaign's own counters; and
//! a killed-and-resumed campaign must reproduce the uninterrupted run's
//! memo section exactly.
//!
//! Worker count must NOT matter: outcomes are admitted (counters folded,
//! journal appended) strictly in strategy-index order through the batch
//! release buffer, so the provenance markers — and with them the whole
//! manifest — are identical at any parallelism, for fresh and resumed
//! campaigns alike.

use std::path::PathBuf;
use std::sync::Arc;

use snake_core::{
    build_run_manifest, Campaign, CampaignConfig, CampaignResult, ProtocolKind, Recorder,
    RecorderSnapshot, ScenarioSpec,
};
use snake_json::Value;
use snake_tcp::Profile;

fn quick_tcp() -> ScenarioSpec {
    ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()))
}

/// One observed memoized campaign at the given worker count, optionally
/// journaled.
fn observed_campaign_with(
    parallelism: usize,
    journal: Option<(PathBuf, bool)>,
) -> (CampaignResult, RecorderSnapshot) {
    let recorder = Arc::new(Recorder::new());
    let mut builder = CampaignConfig::builder(quick_tcp())
        .cap(40)
        .feedback_rounds(1)
        .retest(false)
        .parallelism(parallelism)
        .memoize(true)
        .observer(recorder.clone());
    if let Some((path, resume)) = journal {
        builder = builder.journal(path).resume(resume);
    }
    let config = builder.build().expect("valid config");
    let result = Campaign::run(config).expect("valid baseline");
    (result, recorder.snapshot())
}

/// One observed single-worker memoized campaign, optionally journaled.
fn observed_campaign(journal: Option<(PathBuf, bool)>) -> (CampaignResult, RecorderSnapshot) {
    observed_campaign_with(1, journal)
}

/// The manifest rendered with its wall-clock-derived `timing` section
/// removed — the part the determinism contract covers.
fn stable_json(result: &CampaignResult, snapshot: &RecorderSnapshot) -> String {
    let manifest = build_run_manifest(result, snapshot, 0.0);
    match manifest.to_json() {
        Value::Obj(pairs) => Value::Obj(pairs.into_iter().filter(|(k, _)| k != "timing").collect())
            .to_string_compact(),
        other => other.to_string_compact(),
    }
}

fn u64_at(value: &Value, key: &str) -> u64 {
    match value.get(key) {
        Some(Value::U64(n)) => *n,
        other => panic!("expected u64 at `{key}`, got {other:?}"),
    }
}

#[test]
fn same_seed_runs_produce_identical_manifests_modulo_timing() {
    let (result_a, snapshot_a) = observed_campaign(None);
    let (result_b, snapshot_b) = observed_campaign(None);
    assert_eq!(
        stable_json(&result_a, &snapshot_a),
        stable_json(&result_b, &snapshot_b),
        "same-seed single-worker manifests must agree outside `timing`"
    );
}

#[test]
fn manifest_memo_totals_equal_campaign_counters() {
    let (result, snapshot) = observed_campaign(None);
    let manifest = build_run_manifest(&result, &snapshot, 0.0);
    let memo = manifest.section("memo").expect("memo section present");
    assert_eq!(u64_at(memo, "memo_hits"), result.memo_hits as u64);
    assert_eq!(u64_at(memo, "short_circuits"), result.short_circuits as u64);
    let breakdown = memo.get("breakdown").expect("breakdown present");
    assert_eq!(
        u64_at(breakdown, "class"),
        result.memo_hits as u64,
        "memo hits are exactly the class outcomes"
    );
    assert_eq!(
        u64_at(breakdown, "inert"),
        result.short_circuits as u64,
        "short-circuits are exactly the inert outcomes"
    );
    assert!(
        result.memo_hits + result.short_circuits > 0,
        "the quick campaign must exercise the memo layers at all"
    );
}

#[test]
fn worker_count_does_not_change_the_manifest() {
    let (result_one, snapshot_one) = observed_campaign_with(1, None);
    let (result_four, snapshot_four) = observed_campaign_with(4, None);
    assert_eq!(
        stable_json(&result_one, &snapshot_one),
        stable_json(&result_four, &snapshot_four),
        "ordered admission must make memo markers — and the whole \
         manifest — identical at any parallelism"
    );
}

#[test]
fn multi_worker_resume_reproduces_the_memo_section() {
    let dir = std::env::temp_dir();
    let journal_a: PathBuf = dir.join(format!(
        "snake-manifest-mw-full-{}.jsonl",
        std::process::id()
    ));
    let journal_b: PathBuf = dir.join(format!(
        "snake-manifest-mw-resumed-{}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&journal_a).ok();
    std::fs::remove_file(&journal_b).ok();

    let (full, full_snapshot) = observed_campaign_with(3, Some((journal_a.clone(), false)));

    // Simulated kill after nine outcomes, then resume with three workers:
    // the resumed markers must match the uninterrupted run exactly even
    // though admission restarts mid-batch under parallelism.
    let text = std::fs::read_to_string(&journal_a).unwrap();
    let kept: Vec<&str> = text.lines().take(10).collect();
    std::fs::write(&journal_b, kept.join("\n")).unwrap();
    let (resumed, resumed_snapshot) = observed_campaign_with(3, Some((journal_b.clone(), true)));

    assert_eq!(resumed.resumed, 9, "nine journaled outcomes reused");
    let memo_of = |result: &CampaignResult, snapshot: &RecorderSnapshot| {
        build_run_manifest(result, snapshot, 0.0)
            .section("memo")
            .expect("memo section present")
            .to_string_compact()
    };
    assert_eq!(
        memo_of(&resumed, &resumed_snapshot),
        memo_of(&full, &full_snapshot),
        "multi-worker resume must reproduce the per-marker memo breakdown"
    );
    assert_eq!(
        resumed.outcomes.iter().map(|o| &o.memo).collect::<Vec<_>>(),
        full.outcomes.iter().map(|o| &o.memo).collect::<Vec<_>>(),
        "every individual provenance marker must survive a multi-worker resume"
    );

    std::fs::remove_file(&journal_a).ok();
    std::fs::remove_file(&journal_b).ok();
}

#[test]
fn resumed_campaign_reproduces_the_memo_section() {
    let dir = std::env::temp_dir();
    let journal_a: PathBuf = dir.join(format!("snake-manifest-full-{}.jsonl", std::process::id()));
    let journal_b: PathBuf = dir.join(format!(
        "snake-manifest-resumed-{}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&journal_a).ok();
    std::fs::remove_file(&journal_b).ok();

    let (full, full_snapshot) = observed_campaign(Some((journal_a.clone(), false)));

    // Simulated kill after twelve outcomes (header + 12 lines), then
    // resume from the truncated journal.
    let text = std::fs::read_to_string(&journal_a).unwrap();
    let kept: Vec<&str> = text.lines().take(13).collect();
    std::fs::write(&journal_b, kept.join("\n")).unwrap();
    let (resumed, resumed_snapshot) = observed_campaign(Some((journal_b.clone(), true)));

    assert_eq!(resumed.resumed, 12, "twelve journaled outcomes reused");
    assert_eq!(
        resumed.memo_hits, full.memo_hits,
        "resume must reproduce the memo-hit total"
    );
    assert_eq!(
        resumed.short_circuits, full.short_circuits,
        "resume must reproduce the short-circuit total"
    );
    let memo_of = |result: &CampaignResult, snapshot: &RecorderSnapshot| {
        build_run_manifest(result, snapshot, 0.0)
            .section("memo")
            .expect("memo section present")
            .to_string_compact()
    };
    assert_eq!(
        memo_of(&resumed, &resumed_snapshot),
        memo_of(&full, &full_snapshot),
        "resume must reproduce the per-marker memo breakdown"
    );

    std::fs::remove_file(&journal_a).ok();
    std::fs::remove_file(&journal_b).ok();
}

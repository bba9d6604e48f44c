//! Memoization equivalence: campaigns with memoization on must produce
//! outcomes bit-identical to campaigns with memoization off, on every
//! shipped implementation profile. Memoization (inert-strategy elision,
//! `OnState` class sharing) is a throughput knob, never a results knob —
//! the same contract the snapshot-fork planner already honours.

use std::path::PathBuf;

use snake_core::{
    generate_strategies, journal, Campaign, CampaignConfig, CampaignResult, Executor,
    ExecutorOptions, GenerationParams, PlannedExecutor, ProtocolKind, ScenarioSpec,
    StrategyOutcome,
};
use snake_dccp::DccpProfile;
use snake_netsim::Impairment;
use snake_packet::FieldMutation;
use snake_proxy::{BasicAttack, Endpoint, Strategy, StrategyKind};
use snake_tcp::Profile;

/// Every implementation profile the repo ships.
fn all_protocols() -> Vec<ProtocolKind> {
    let mut out: Vec<ProtocolKind> = Profile::all().into_iter().map(ProtocolKind::Tcp).collect();
    out.push(ProtocolKind::Dccp(DccpProfile::linux_3_13()));
    out.push(ProtocolKind::Dccp(DccpProfile::linux_3_13_seqcheck_fixed()));
    out
}

/// Everything an outcome carries except the `memo` provenance marker,
/// which legitimately differs between memoized and unmemoized campaigns
/// (it records *how* the outcome was obtained, not *what* it is).
fn comparable(outcomes: &[StrategyOutcome]) -> Vec<StrategyOutcome> {
    outcomes
        .iter()
        .map(|o| StrategyOutcome {
            memo: None,
            ..o.clone()
        })
        .collect()
}

fn campaign(spec: ScenarioSpec, cap: usize, memoize: bool) -> CampaignResult {
    let config = CampaignConfig::builder(spec)
        .cap(cap)
        .feedback_rounds(1)
        .retest(false)
        .parallelism(2)
        .memoize(memoize)
        .build()
        .expect("valid config");
    Campaign::run(config).expect("valid baseline")
}

#[test]
fn memoized_campaigns_match_unmemoized_on_every_profile() {
    for protocol in all_protocols() {
        let spec = ScenarioSpec::quick(protocol);
        let name = spec.protocol().implementation_name().to_owned();
        let with_memo = campaign(spec.clone(), 36, true);
        let without = campaign(spec, 36, false);
        assert_eq!(
            comparable(&with_memo.outcomes),
            comparable(&without.outcomes),
            "{name}: memoization changed campaign outcomes"
        );
        assert_eq!(without.memo_hits, 0);
        assert_eq!(without.short_circuits, 0);
    }
}

#[test]
fn memoized_campaigns_match_unmemoized_under_impairments() {
    // Memoization keys on baseline field values and trigger classes; impaired
    // links add loss and reorder noise to both. The equivalence contract
    // must hold anyway: the same noise is deterministic per seed, so a
    // memoized impaired campaign and an unmemoized one still agree bit
    // for bit.
    for preset in ["lossy", "flappy"] {
        let impair = Impairment::preset(preset).expect("built-in preset");
        for protocol in [
            ProtocolKind::Tcp(Profile::linux_3_13()),
            ProtocolKind::Dccp(DccpProfile::linux_3_13()),
        ] {
            let spec = ScenarioSpec::quick(protocol).with_impairment(impair);
            let name = spec.protocol().implementation_name().to_owned();
            let with_memo = campaign(spec.clone(), 24, true);
            let without = campaign(spec, 24, false);
            assert_eq!(
                comparable(&with_memo.outcomes),
                comparable(&without.outcomes),
                "{name}/{preset}: memoization changed impaired campaign outcomes"
            );
        }
    }
}

#[test]
fn memoization_is_transparent_under_retesting() {
    // With re-testing on, class sharing must also cover the re-test seed's
    // runs (the composite class key).
    let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
    let config = |memoize| {
        CampaignConfig::builder(spec.clone())
            .cap(60)
            .feedback_rounds(1)
            .retest(true)
            .parallelism(2)
            .memoize(memoize)
            .build()
            .expect("valid config")
    };
    let with_memo = Campaign::run(config(true)).expect("valid baseline");
    let without = Campaign::run(config(false)).expect("valid baseline");
    assert_eq!(
        comparable(&with_memo.outcomes),
        comparable(&without.outcomes)
    );
}

#[test]
fn memoized_tcp_campaign_reports_hits() {
    // The 200-strategy quick TCP campaign (the benchmark's shape, with the
    // benchmark's reduced basic-attack parameter lists) must actually
    // exercise both memoization layers: flag-field lies that are provably
    // inert against the baseline, and trigger-equivalent OnState
    // injections sharing one representative run.
    let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
    let config = CampaignConfig::builder(spec)
        .cap(200)
        .feedback_rounds(2)
        .retest(false)
        .parallelism(2)
        .memoize(true)
        .params(GenerationParams {
            drop_percents: vec![100],
            duplicate_copies: vec![2],
            delay_secs: vec![1.0],
            batch_secs: vec![4.0],
            ..GenerationParams::default()
        })
        .build()
        .expect("valid config");
    let result = Campaign::run(config).expect("valid baseline");
    assert_eq!(result.strategies_tried(), 200);
    assert!(
        result.short_circuits > 0,
        "no strategy was short-circuited as provably inert"
    );
    assert!(
        result.memo_hits > 0,
        "no outcome was shared via memoization"
    );
    let marked = result.outcomes.iter().filter(|o| o.memo.is_some()).count();
    assert!(
        marked > 0,
        "memoized outcomes must carry provenance markers"
    );
}

#[test]
fn provably_inert_strategies_really_are_inert() {
    // Whatever the static analysis claims is a wire no-op must, when
    // actually executed from scratch, reproduce the baseline bit for bit.
    for protocol in [
        ProtocolKind::Tcp(Profile::linux_3_13()),
        ProtocolKind::Dccp(DccpProfile::linux_3_13()),
    ] {
        let spec = ScenarioSpec::quick(protocol);
        let name = spec.protocol().implementation_name().to_owned();
        let exec = PlannedExecutor::new(
            &spec,
            ExecutorOptions {
                memoize: true,
                ..ExecutorOptions::default()
            },
        );
        assert!(exec.plan_active(), "{name}: determinism guard failed");
        let mut next_id = 0;
        let mut seen = std::collections::BTreeSet::new();
        let generated = generate_strategies(
            spec.protocol(),
            &[&exec.baseline().proxy],
            &GenerationParams::default(),
            &mut next_id,
            &mut seen,
        );
        let inert: Vec<&Strategy> = generated
            .iter()
            .filter(|s| exec.provably_inert(s))
            .collect();
        assert!(
            !inert.is_empty(),
            "{name}: generator produced no provably inert strategy"
        );
        // Executing a few of them for real must land exactly on the
        // baseline (checking all of them would re-run most of the grid).
        for s in inert.iter().take(4) {
            let label = s.describe();
            assert_eq!(
                Executor::run(&spec, Some((*s).clone())),
                *exec.baseline(),
                "{name}: `{label}` was declared inert but changed the run"
            );
        }
    }
}

#[test]
fn one_shot_lies_match_full_runs() {
    let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
    let exec = PlannedExecutor::new(
        &spec,
        ExecutorOptions {
            memoize: true,
            ..ExecutorOptions::default()
        },
    );
    assert!(exec.plan_active());
    let nth_lie = |id, n, field: &str, mutation| Strategy {
        id,
        kind: StrategyKind::OnNthPacket {
            endpoint: Endpoint::Client,
            n,
            attack: BasicAttack::Lie {
                field: field.into(),
                mutation,
            },
        },
    };

    // A runtime no-op lie leaves every byte as it was, so its run is the
    // baseline — exactly what the full from-scratch run produces.
    let inert = nth_lie(1, 3, "seq", FieldMutation::Add(0));
    let noop = exec.run(Some(inert.clone()));
    assert_eq!(noop, Executor::run(&spec, Some(inert)));
    assert_eq!(noop, *exec.baseline());

    // A lie that does change bytes agrees with the from-scratch executor.
    let live = nth_lie(2, 2, "ack", FieldMutation::Add(1));
    assert_eq!(
        exec.run(Some(live.clone())),
        Executor::run(&spec, Some(live))
    );
}

#[test]
fn killed_memoized_campaign_resumes_identically() {
    let dir = std::env::temp_dir();
    let journal_a: PathBuf = dir.join(format!("snake-memo-full-{}.jsonl", std::process::id()));
    let journal_b: PathBuf = dir.join(format!("snake-memo-resumed-{}.jsonl", std::process::id()));
    std::fs::remove_file(&journal_a).ok();
    std::fs::remove_file(&journal_b).ok();
    let config = |journal: PathBuf, resume: bool| {
        CampaignConfig::builder(ScenarioSpec::quick(
            ProtocolKind::Tcp(Profile::linux_3_13()),
        ))
        .cap(40)
        .feedback_rounds(1)
        .retest(false)
        .parallelism(1)
        .memoize(true)
        .journal(journal)
        .resume(resume)
        .build()
        .expect("valid config")
    };

    // Reference: an uninterrupted memoized run.
    let full = Campaign::run(config(journal_a.clone(), false)).unwrap();
    let journaled_memos = journal::load(&journal_a)
        .unwrap()
        .outcomes
        .iter()
        .filter(|o| o.memo.is_some())
        .count();
    assert!(
        journaled_memos > 0,
        "memoized outcomes must be recorded in the journal"
    );

    // Simulated kill after twelve outcomes, then resume.
    let text = std::fs::read_to_string(&journal_a).unwrap();
    let kept: Vec<&str> = text.lines().take(13).collect();
    std::fs::write(&journal_b, kept.join("\n")).unwrap();
    let resumed = Campaign::run(config(journal_b.clone(), true)).unwrap();
    assert_eq!(resumed.resumed, 12);
    assert_eq!(
        comparable(&resumed.outcomes),
        comparable(&full.outcomes),
        "resume of a memoized campaign must reproduce the outcomes"
    );

    // Resuming the completed journal reuses everything, memoized outcomes
    // included — they replay exactly as recorded.
    let again = Campaign::run(config(journal_b.clone(), true)).unwrap();
    assert_eq!(again.resumed, 40);
    assert_eq!(again.outcomes, resumed.outcomes);

    std::fs::remove_file(&journal_a).ok();
    std::fs::remove_file(&journal_b).ok();
}

//! Robustness layer: adversarial link impairments, noise-robust ensemble
//! verdicts, and chaos-hardened journaling.
//!
//! These are the campaign-level contracts: impaired runs stay bit-for-bit
//! deterministic per seed, ensembles keep the false-positive column at
//! zero under every impairment preset, injected panics and journal write
//! faults are absorbed, and a journal damaged mid-write (torn tail,
//! corrupted checksum) resumes cleanly. No wall-clock timer decides any
//! outcome here: the event budget is the only livelock bound.

use std::path::PathBuf;
use std::sync::Arc;

use snake_core::{
    detect_enveloped, journal, Campaign, CampaignConfig, CampaignResult, ChaosPlan, Envelope,
    Executor, OutcomeKind, ProtocolKind, Recorder, ScenarioSpec, TestMetrics, DEFAULT_THRESHOLD,
};
use snake_dccp::DccpProfile;
use snake_netsim::{preset_names, Impairment};
use snake_tcp::Profile;

fn quick_tcp() -> ScenarioSpec {
    ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()))
}

fn temp_journal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "snake-robustness-{}-{name}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&p).ok();
    p
}

fn outcome_key(result: &CampaignResult) -> Vec<(u64, bool, OutcomeKind)> {
    result
        .outcomes
        .iter()
        .map(|o| (o.strategy.id, o.verdict.flagged(), o.outcome_kind))
        .collect()
}

#[test]
fn impaired_campaigns_are_bit_identical_per_seed() {
    // Same seed + same preset must reproduce the entire campaign — the
    // impairment draws come from seeded per-link RNG lanes, not from any
    // ambient randomness.
    for protocol in [
        ProtocolKind::Tcp(Profile::linux_3_13()),
        ProtocolKind::Dccp(DccpProfile::linux_3_13()),
    ] {
        let spec = ScenarioSpec::quick(protocol)
            .with_impairment(Impairment::preset("chaos").expect("built-in preset"));
        let name = spec.protocol().implementation_name().to_owned();
        let config = |spec: ScenarioSpec| {
            CampaignConfig::builder(spec)
                .cap(12)
                .feedback_rounds(1)
                .retest(true)
                .baseline_reps(2)
                .parallelism(2)
                .build()
                .expect("valid config")
        };
        let a = Campaign::run(config(spec.clone())).unwrap();
        let b = Campaign::run(config(spec)).unwrap();
        assert_eq!(a.outcomes, b.outcomes, "{name}: impaired runs diverged");
        assert_eq!(a.table_row(), b.table_row());
        assert_eq!(a.envelope, b.envelope, "{name}: envelopes diverged");
    }
}

#[test]
fn ensemble_envelope_never_flags_unattacked_runs_under_any_preset() {
    // The noise floor itself must never look like an attack: an envelope
    // built from K seed-jittered no-attack runs contains every one of its
    // members under every built-in impairment preset, on both protocol
    // families.
    for preset in preset_names() {
        let impair = Impairment::preset(preset).expect("built-in preset");
        for protocol in [
            ProtocolKind::Tcp(Profile::linux_3_13()),
            ProtocolKind::Dccp(DccpProfile::linux_3_13()),
        ] {
            let base = ScenarioSpec::quick(protocol).with_impairment(impair);
            let name = base.protocol().implementation_name().to_owned();
            let members: Vec<TestMetrics> = (0..3u64)
                .map(|k| {
                    let seed = base.seed() ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    Executor::run(&base.clone().with_seed(seed), None)
                })
                .collect();
            let envelope = Envelope::from_members(&members, DEFAULT_THRESHOLD);
            for (k, member) in members.iter().enumerate() {
                let verdict = detect_enveloped(&envelope, member);
                assert!(
                    !verdict.flagged(),
                    "{name}/{preset}: no-attack run {k} flagged as {:?}",
                    verdict.labels()
                );
            }
        }
    }
}

#[test]
fn ensembles_keep_the_false_positive_column_at_zero() {
    // The acceptance check in campaign form: under adversarial link noise
    // with --baseline-reps 3, Table I's false-positive column stays zero.
    for preset in ["lossy", "flappy"] {
        let impair = Impairment::preset(preset).expect("built-in preset");
        for protocol in [
            ProtocolKind::Tcp(Profile::linux_3_13()),
            ProtocolKind::Dccp(DccpProfile::linux_3_13()),
        ] {
            let spec = ScenarioSpec::quick(protocol).with_impairment(impair);
            let name = spec.protocol().implementation_name().to_owned();
            let config = CampaignConfig::builder(spec)
                .cap(20)
                .feedback_rounds(1)
                .retest(true)
                .baseline_reps(3)
                .parallelism(2)
                .build()
                .expect("valid config");
            let result = Campaign::run(config).unwrap();
            assert_eq!(result.baseline_reps, 3);
            assert_eq!(result.envelope.members, 3);
            assert_eq!(
                result.false_positive_count(),
                0,
                "{name}/{preset}: spurious flags survived the ensemble + retest"
            );
        }
    }
}

#[test]
#[ignore = "full matrix for the chaos CI job: every profile x every impairment preset"]
fn full_matrix_keeps_the_false_positive_column_at_zero() {
    let mut protocols: Vec<ProtocolKind> =
        Profile::all().into_iter().map(ProtocolKind::Tcp).collect();
    protocols.push(ProtocolKind::Dccp(DccpProfile::linux_3_13()));
    protocols.push(ProtocolKind::Dccp(DccpProfile::linux_3_13_seqcheck_fixed()));
    for preset in preset_names() {
        let impair = Impairment::preset(preset).expect("built-in preset");
        for protocol in &protocols {
            let spec = ScenarioSpec::quick(protocol.clone()).with_impairment(impair);
            let name = spec.protocol().implementation_name().to_owned();
            let config = CampaignConfig::builder(spec)
                .cap(40)
                .feedback_rounds(1)
                .retest(true)
                .baseline_reps(3)
                .parallelism(2)
                .build()
                .expect("valid config");
            let result = Campaign::run(config).unwrap();
            assert_eq!(
                result.false_positive_count(),
                0,
                "{name}/{preset}: spurious flags survived the ensemble + retest"
            );
        }
    }
}

#[test]
fn chaos_plan_faults_are_absorbed_not_fatal() {
    // Worker panics and injected journal write failures at once: every
    // strategy still gets exactly one journaled outcome, the panics land
    // as `errored`, and the single-retry journal policy absorbs every
    // injected write failure.
    let path = temp_journal("chaos");
    let recorder = Arc::new(Recorder::new());
    let config = CampaignConfig::builder(quick_tcp())
        .cap(12)
        .feedback_rounds(1)
        .retest(false)
        .parallelism(3)
        .journal(path.clone())
        .observer(recorder.clone())
        .chaos(ChaosPlan {
            panic_every: Some(5),
            journal_fail_every: Some(3),
            ..ChaosPlan::default()
        })
        .build()
        .expect("valid config");
    let result = Campaign::run(config).expect("chaos faults must be absorbed");
    assert_eq!(result.strategies_tried(), 12);
    assert!(result.errored() > 0, "the panic schedule must have fired");
    let loaded = journal::load(&path).unwrap();
    assert_eq!(loaded.outcomes.len(), 12, "no outcome lost to write faults");
    let snapshot = recorder.snapshot();
    assert!(
        snapshot.counter("campaign.journal_faults") > 0,
        "the journal fault schedule must have fired"
    );
    assert_eq!(
        snapshot.counter("campaign.journal_faults"),
        snapshot.counter("campaign.journal_retries"),
        "every injected write failure is absorbed by exactly one retry"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_and_corrupted_journal_lines_resume_cleanly() {
    let journal_a = temp_journal("damage-full");
    let journal_b = temp_journal("damage-resumed");
    let config = |journal: PathBuf, resume: bool| {
        CampaignConfig::builder(quick_tcp())
            .cap(10)
            .feedback_rounds(1)
            .retest(false)
            .parallelism(2)
            .journal(journal)
            .resume(resume)
            .build()
            .expect("valid config")
    };
    let full = Campaign::run(config(journal_a.clone(), false)).unwrap();

    // Damage the journal the way a kill mid-write plus a disk hiccup
    // would: the last outcome line is torn in half, and the line before it
    // has one checksum digit flipped. Both must be skipped on resume —
    // the checksummed format means a corrupted line is detected, never
    // trusted.
    let text = std::fs::read_to_string(&journal_a).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 11, "header + ten outcomes");
    let mut damaged: Vec<String> = lines[..9].iter().map(|l| (*l).to_string()).collect();
    let corrupt = {
        let line = lines[9];
        let flipped = if line.ends_with('0') { "1" } else { "0" };
        format!("{}{flipped}", &line[..line.len() - 1])
    };
    damaged.push(corrupt);
    damaged.push(lines[10][..lines[10].len() / 2].to_string());
    std::fs::write(&journal_b, damaged.join("\n")).unwrap();

    let resumed = Campaign::run(config(journal_b.clone(), true)).unwrap();
    assert_eq!(resumed.resumed, 8, "eight intact outcomes reused");
    assert_eq!(
        resumed.journal_lines_skipped, 2,
        "torn + corrupted lines skipped"
    );
    assert_eq!(outcome_key(&resumed), outcome_key(&full));
    assert_eq!(resumed.table_row(), full.table_row());

    // The repaired journal is complete again: a further resume re-runs
    // nothing at all.
    let again = Campaign::run(config(journal_b.clone(), true)).unwrap();
    assert_eq!(again.resumed, 10);
    std::fs::remove_file(&journal_a).ok();
    std::fs::remove_file(&journal_b).ok();
}

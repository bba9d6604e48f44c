//! Fault-tolerance and resumability of the campaign runtime: panic
//! isolation, event-budget truncation, the streaming JSONL journal, and
//! kill-and-resume reproducing the same final table.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use snake_core::{
    journal, Campaign, CampaignConfig, CampaignError, CampaignResult, OutcomeKind, ProtocolKind,
    Recorder, RecorderSnapshot, ScenarioSpec,
};
use snake_dccp::DccpProfile;
use snake_tcp::Profile;

fn quick_tcp() -> ScenarioSpec {
    ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()))
}

fn temp_journal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "snake-campaign-runtime-{}-{name}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&p).ok();
    p
}

fn table_key(result: &CampaignResult) -> (String, usize, usize, usize, usize, usize, usize) {
    (
        result.table_row(),
        result.strategies_tried(),
        result.attack_strategies_found(),
        result.true_attack_strategies(),
        result.true_attacks(),
        result.errored(),
        result.truncated(),
    )
}

#[test]
fn panicking_strategy_is_isolated_and_journaled() {
    let path = temp_journal("panic");
    let config = CampaignConfig::builder(quick_tcp())
        .cap(10)
        .feedback_rounds(1)
        .retest(false)
        .parallelism(4)
        .journal(path.clone())
        // Crash the engine run for two specific strategies, inside the
        // worker, the way an engine bug would.
        .fault_hook(Arc::new(|s| {
            if s.id == 3 || s.id == 7 {
                panic!("injected engine fault on strategy {}", s.id);
            }
        }))
        .build()
        .expect("valid config");
    let result = Campaign::run(config).expect("panics must not abort the campaign");

    // The batch survived: every strategy has an outcome, the two injected
    // faults are reported as errored with their panic message, and the
    // Table-I error counter reflects them.
    assert_eq!(result.strategies_tried(), 10);
    assert_eq!(result.errored(), 2);
    for id in [3u64, 7] {
        let o = result
            .outcomes
            .iter()
            .find(|o| o.strategy.id == id)
            .unwrap();
        assert_eq!(o.outcome_kind, OutcomeKind::Errored);
        let msg = o.error.as_deref().unwrap_or("");
        assert!(msg.contains("injected engine fault"), "{msg}");
        assert!(
            !o.verdict.flagged(),
            "errored runs must not count as attacks"
        );
        assert!(!o.is_true_attack());
    }
    assert!(
        result.table_row().contains("|       2 |"),
        "errored column: {}",
        result.table_row()
    );

    // The journal recorded all ten outcomes, errors included.
    let loaded = journal::load(&path).unwrap();
    assert_eq!(loaded.outcomes.len(), 10);
    let journaled_errors: Vec<u64> = loaded
        .outcomes
        .iter()
        .filter(|o| o.outcome_kind == OutcomeKind::Errored)
        .map(|o| o.strategy.id)
        .collect();
    assert_eq!(journaled_errors.len(), 2);
    assert!(journaled_errors.contains(&3) && journaled_errors.contains(&7));
    std::fs::remove_file(&path).ok();
}

#[test]
fn kill_and_resume_reproduces_the_same_table() {
    let journal_a = temp_journal("full");
    let journal_b = temp_journal("resumed");
    let config = |journal: PathBuf, resume: bool| {
        CampaignConfig::builder(quick_tcp())
            .cap(12)
            .feedback_rounds(1)
            .retest(false)
            .parallelism(2)
            .journal(journal)
            .resume(resume)
            .build()
            .expect("valid config")
    };

    // Reference: an uninterrupted run.
    let full = Campaign::run(config(journal_a.clone(), false)).unwrap();

    // Simulated kill: keep the header and the first five outcome lines
    // (plus a torn partial line, as a killed writer would leave), then
    // resume from that journal.
    let text = std::fs::read_to_string(&journal_a).unwrap();
    let mut kept: Vec<&str> = text.lines().take(6).collect();
    let torn = "{\"type\":\"outcome\",\"outcome\":\"ok\",\"err";
    kept.push(torn);
    std::fs::write(&journal_b, kept.join("\n")).unwrap();

    let resumed = Campaign::run(config(journal_b.clone(), true)).unwrap();
    assert_eq!(resumed.resumed, 5, "five journaled outcomes reused");
    assert_eq!(resumed.journal_lines_skipped, 1, "torn final line skipped");
    assert_eq!(
        table_key(&resumed),
        table_key(&full),
        "resume must reproduce the table"
    );
    let verdicts_full: Vec<_> = full
        .outcomes
        .iter()
        .map(|o| (o.strategy.id, o.verdict, o.outcome_kind))
        .collect();
    let verdicts_resumed: Vec<_> = resumed
        .outcomes
        .iter()
        .map(|o| (o.strategy.id, o.verdict, o.outcome_kind))
        .collect();
    assert_eq!(verdicts_full, verdicts_resumed);

    // The resumed journal now also contains the re-run outcomes: resuming
    // from it again reuses everything and runs nothing.
    let again = Campaign::run(config(journal_b.clone(), true)).unwrap();
    assert_eq!(again.resumed, 12);
    assert_eq!(table_key(&again), table_key(&full));

    std::fs::remove_file(&journal_a).ok();
    std::fs::remove_file(&journal_b).ok();
}

#[test]
fn a_flipped_bit_costs_one_rerun_not_the_resume() {
    let path = temp_journal("high-bit");
    let config = |resume: bool| {
        CampaignConfig::builder(quick_tcp())
            .cap(12)
            .feedback_rounds(1)
            .retest(false)
            .parallelism(2)
            .journal(path.clone())
            .resume(resume)
            .build()
            .expect("valid config")
    };
    let full = Campaign::run(config(false)).unwrap();

    // Bit rot: set the high bit of one payload byte in the fifth line.
    // The byte is no longer UTF-8, so the journal no longer reads as text
    // at all — that must fail the one line, never the whole resume.
    let mut bytes = std::fs::read(&path).unwrap();
    let fifth_line: usize = bytes
        .split_inclusive(|&b| b == b'\n')
        .take(4)
        .map(<[u8]>::len)
        .sum();
    bytes[fifth_line + 100] |= 0x80;
    assert!(std::str::from_utf8(&bytes).is_err());
    std::fs::write(&path, bytes).unwrap();

    let resumed = Campaign::run(config(true)).expect("a damaged line must not abort the resume");
    assert_eq!(resumed.resumed, 11, "every intact outcome reused");
    assert_eq!(resumed.journal_lines_skipped, 1, "the damaged line skipped");
    assert_eq!(
        table_key(&resumed),
        table_key(&full),
        "the affected strategy re-runs to the same result"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_refuses_a_journal_from_a_different_campaign() {
    let path = temp_journal("mismatch");
    let spec = quick_tcp();
    let config = |spec: ScenarioSpec, resume: bool| {
        CampaignConfig::builder(spec)
            .cap(3)
            .feedback_rounds(1)
            .retest(false)
            .journal(path.clone())
            .resume(resume)
            .build()
            .expect("valid config")
    };
    Campaign::run(config(spec.clone(), false)).unwrap();

    // Same journal, different seed: the outcomes are not comparable.
    let spec = spec.clone().with_seed(spec.seed().wrapping_add(99));
    match Campaign::run(config(spec, true)) {
        Err(CampaignError::JournalMismatch { detail, .. }) => {
            assert!(detail.contains("seed"), "{detail}");
        }
        other => panic!("expected JournalMismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_refuses_a_journal_with_different_memoization() {
    // Memo markers are part of each journaled outcome, so replaying a
    // memoized journal into an unmemoized campaign (or vice versa) would
    // silently change the resumed counters. The header records the
    // setting and resume must reject the drift, naming it.
    let path = temp_journal("memo-drift");
    let config = |memoize: bool, resume: bool| {
        CampaignConfig::builder(quick_tcp())
            .cap(3)
            .feedback_rounds(1)
            .retest(false)
            .memoize(memoize)
            .journal(path.clone())
            .resume(resume)
            .build()
            .expect("valid config")
    };
    Campaign::run(config(true, false)).unwrap();

    match Campaign::run(config(false, true)) {
        Err(CampaignError::JournalMismatch { detail, .. }) => {
            assert!(detail.contains("memoization"), "{detail}");
            assert!(
                detail.contains("memoize=true") && detail.contains("memoize=false"),
                "the detail must name both sides: {detail}"
            );
        }
        other => panic!("expected JournalMismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_refuses_a_journal_with_different_impairment() {
    // The impairment spec changes every wire trace, so outcomes journaled
    // under one link profile are not comparable to a campaign running
    // another. The header records the spec and resume must reject drift.
    let path = temp_journal("impair-drift");
    let config = |spec: ScenarioSpec, resume: bool| {
        CampaignConfig::builder(spec)
            .cap(3)
            .feedback_rounds(1)
            .retest(false)
            .journal(path.clone())
            .resume(resume)
            .build()
            .expect("valid config")
    };
    Campaign::run(config(quick_tcp(), false)).unwrap();

    let impaired = quick_tcp()
        .with_impairment(snake_netsim::Impairment::preset("light").expect("built-in preset"));
    match Campaign::run(config(impaired, true)) {
        Err(CampaignError::JournalMismatch { detail, .. }) => {
            assert!(detail.contains("impairment"), "{detail}");
            assert!(
                detail.contains("none"),
                "the detail must name the journal's impairment: {detail}"
            );
        }
        other => panic!("expected JournalMismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn budget_truncation_is_deterministic_and_reported() {
    // A budget far below what the quick scenario needs: every strategy run
    // is cut short and reported, not silently misjudged.
    let spec = quick_tcp().with_event_budget(5_000);
    let config = |spec: ScenarioSpec| {
        CampaignConfig::builder(spec)
            .cap(6)
            .feedback_rounds(1)
            .retest(false)
            .parallelism(3)
            .build()
            .expect("valid config")
    };
    let a = Campaign::run(config(spec.clone())).unwrap();
    let b = Campaign::run(config(spec)).unwrap();

    assert_eq!(a.truncated(), 6, "all runs hit the budget");
    assert_eq!(
        a.attack_strategies_found(),
        0,
        "truncated runs yield no verdicts"
    );
    let ka: Vec<_> = a
        .outcomes
        .iter()
        .map(|o| (o.strategy.id, o.outcome_kind))
        .collect();
    let kb: Vec<_> = b
        .outcomes
        .iter()
        .map(|o| (o.strategy.id, o.outcome_kind))
        .collect();
    assert_eq!(ka, kb, "same seed, same budget, same truncation set");
    assert_eq!(a.table_row(), b.table_row());

    // A generous budget changes nothing relative to no budget at all.
    let unbudgeted_spec = quick_tcp().without_event_budget();
    let unbudgeted = Campaign::run(config(unbudgeted_spec.clone())).unwrap();
    let generous = Campaign::run(config(unbudgeted_spec.with_event_budget(u64::MAX))).unwrap();
    assert_eq!(generous.truncated(), 0);
    assert_eq!(generous.table_row(), unbudgeted.table_row());
}

#[test]
fn journal_and_faults_compose_with_budgets() {
    // All three runtime guards at once: a panicking strategy, a strategy
    // budget low enough to truncate nothing in the quick scenario (sanity
    // that Ok outcomes still dominate), and the journal capturing every
    // outcome kind.
    let path = temp_journal("compose");
    let config = CampaignConfig::builder(quick_tcp())
        .cap(8)
        .feedback_rounds(1)
        .retest(false)
        .parallelism(4)
        .journal(path.clone())
        .fault_hook(Arc::new(|s| {
            if s.id == 1 {
                panic!("boom");
            }
        }))
        .build()
        .expect("valid config");
    let result = Campaign::run(config).unwrap();
    assert_eq!(result.strategies_tried(), 8);
    assert_eq!(result.errored(), 1);
    let loaded = journal::load(&path).unwrap();
    assert_eq!(loaded.outcomes.len(), 8);
    let tsv = result.export_outcomes_tsv();
    assert!(
        tsv.contains("errored"),
        "TSV outcome column records the fault"
    );
    std::fs::remove_file(&path).ok();
}

// ---- start-up: the plans and the journal's read half run side by side ----

/// A baseline that cannot anchor detection, through the public builder:
/// one event is not enough to move a byte (`data_secs(0)` is rejected at
/// build time, so the budget is the route an integration test has).
fn no_data_tcp() -> ScenarioSpec {
    quick_tcp().with_event_budget(1)
}

/// The journal and its `.tmp` sibling, contents included — what start-up
/// may not touch before the plans are built. Absent paths are simply not
/// listed.
fn files_beside(journal: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut tmp = journal.as_os_str().to_owned();
    tmp.push(".tmp");
    [journal.to_path_buf(), PathBuf::from(tmp)]
        .into_iter()
        .filter(|path| path.exists())
        .map(|path| {
            let bytes = std::fs::read(&path).unwrap_or_default();
            (path, bytes)
        })
        .collect()
}

#[test]
fn an_invalid_baseline_touches_no_file() {
    // The write half of start-up (journal create/append) comes strictly
    // after both plans: a campaign that fails its baseline leaves the disk
    // as it found it.
    let path = temp_journal("invalid-baseline");
    let invalid = |resume: bool| {
        let config = CampaignConfig::builder(no_data_tcp())
            .cap(3)
            .feedback_rounds(1)
            .shards(2)
            .journal(path.clone())
            .resume(resume)
            .build()
            .expect("valid config");
        match Campaign::run(config) {
            Err(CampaignError::InvalidBaseline { .. }) => {}
            other => panic!("expected InvalidBaseline, got {other:?}"),
        }
    };

    // Nothing there: nothing appears.
    for resume in [false, true] {
        invalid(resume);
        assert_eq!(files_beside(&path), BTreeMap::new(), "resume={resume}");
    }

    // A journal from an earlier campaign stays byte-identical.
    let earlier = CampaignConfig::builder(quick_tcp())
        .cap(3)
        .feedback_rounds(1)
        .retest(false)
        .journal(path.clone())
        .build()
        .expect("valid config");
    Campaign::run(earlier).unwrap();
    let before = files_beside(&path);
    assert_eq!(before.len(), 1, "the journal: {before:?}");
    for resume in [false, true] {
        invalid(resume);
        assert_eq!(files_beside(&path), before, "resume={resume}");
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn an_invalid_baseline_outranks_a_foreign_journal() {
    let path = temp_journal("invalid-vs-mismatch");
    let config = |spec: ScenarioSpec, resume: bool| {
        CampaignConfig::builder(spec)
            .cap(3)
            .feedback_rounds(1)
            .retest(false)
            .journal(path.clone())
            .resume(resume)
            .build()
            .expect("valid config")
    };
    Campaign::run(config(quick_tcp(), false)).unwrap();

    // Both complaints apply — the journal is from another seed and the
    // baseline moves no data. The baseline is the one reported.
    let spec = no_data_tcp().with_seed(quick_tcp().seed().wrapping_add(99));
    match Campaign::run(config(spec, true)) {
        Err(CampaignError::InvalidBaseline { .. }) => {}
        other => panic!("expected InvalidBaseline, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn an_unreadable_header_over_intact_outcomes_is_refused_not_overwritten() {
    let path = temp_journal("header-flip");
    let config = |resume: bool| {
        CampaignConfig::builder(quick_tcp())
            .cap(12)
            .feedback_rounds(1)
            .retest(false)
            .parallelism(2)
            .journal(path.clone())
            .resume(resume)
            .build()
            .expect("valid config")
    };
    let full = Campaign::run(config(false)).unwrap();
    let intact = std::fs::read(&path).unwrap();

    // One flipped bit in line 0: twelve finished outcomes sit under a
    // header that no longer passes its checksum. Starting over would
    // truncate them, so the resume is refused and the file left alone.
    let mut damaged = intact.clone();
    damaged[10] ^= 1;
    std::fs::write(&path, &damaged).unwrap();
    match Campaign::run(config(true)) {
        Err(CampaignError::JournalMismatch { detail, .. }) => {
            assert!(detail.contains("header"), "{detail}");
            assert!(detail.contains("12 intact"), "{detail}");
        }
        other => panic!("expected JournalMismatch, got {other:?}"),
    }
    assert_eq!(std::fs::read(&path).unwrap(), damaged, "journal untouched");

    // A header torn with nothing after it (a writer killed inside its
    // first line) holds no one's work: resuming it is a fresh run.
    std::fs::write(&path, &intact[..40]).unwrap();
    let fresh = Campaign::run(config(true)).unwrap();
    assert_eq!(fresh.resumed, 0);
    assert_eq!(fresh.journal_lines_skipped, 1, "the torn header");
    assert_eq!(table_key(&fresh), table_key(&full));
    assert_eq!(std::fs::read(&path).unwrap(), intact, "rewritten in full");

    // So is a journal that is not there at all.
    std::fs::remove_file(&path).unwrap();
    let fresh = Campaign::run(config(true)).unwrap();
    assert_eq!((fresh.resumed, fresh.journal_lines_skipped), (0, 0));
    assert_eq!(std::fs::read(&path).unwrap(), intact);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_reproduces_the_fresh_result_however_start_up_interleaves() {
    // Start-up runs three jobs at once (two plan builds, the journal
    // load); a race between them would show as a flaky mismatch here.
    let dccp = ScenarioSpec::quick(ProtocolKind::Dccp(DccpProfile::linux_3_13()));
    for (name, spec) in [("tcp", quick_tcp()), ("dccp", dccp)] {
        for workers in [1, 2] {
            let path = temp_journal(&format!("overlap-{name}-{workers}"));
            let config = |resume: bool| {
                CampaignConfig::builder(spec.clone())
                    .cap(40)
                    .feedback_rounds(1)
                    .parallelism(workers)
                    .journal(path.clone())
                    .resume(resume)
                    .build()
                    .expect("valid config")
            };
            let fresh = Campaign::run(config(false)).unwrap();
            assert_eq!(fresh.outcomes.len(), 40);
            for pass in 0..20 {
                let resumed = Campaign::run(config(true)).unwrap();
                let at = format!("{name}, {workers} worker(s), pass {pass}");
                assert_eq!(resumed.resumed, 40, "{at}");
                assert_eq!(resumed.outcomes, fresh.outcomes, "{at}");
                assert_eq!(resumed.findings, fresh.findings, "{at}");
                assert_eq!(resumed.baseline, fresh.baseline, "{at}");
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn resumed_outcomes_share_reports_the_way_fresh_ones_do() {
    let path = temp_journal("shared-reports");
    let config = |resume: bool| {
        CampaignConfig::builder(quick_tcp())
            .cap(40)
            .feedback_rounds(1)
            .journal(path.clone())
            .resume(resume)
            .build()
            .expect("valid config")
    };
    let shares_report = |result: &CampaignResult, a: usize, b: usize| -> bool {
        Arc::ptr_eq(
            &result.outcomes[a].metrics.proxy,
            &result.outcomes[b].metrics.proxy,
        )
    };
    // Memo hits and elided runs carry their representative's report, not
    // a copy of it.
    let fresh = Campaign::run(config(false)).unwrap();
    let (a, b) = (0..40)
        .flat_map(|a| (a + 1..40).map(move |b| (a, b)))
        .find(|&(a, b)| shares_report(&fresh, a, b))
        .expect("the memoized quick campaign shares at least one report");

    let resumed = Campaign::run(config(true)).unwrap();
    assert_eq!(resumed.resumed, 40);
    assert!(
        shares_report(&resumed, a, b),
        "outcomes {a} and {b} share one report when evaluated and must when decoded"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_full_resume_simulates_one_baseline_and_builds_no_plan() {
    let path = temp_journal("plans-on-demand");
    let observed = |resume: bool, shards: usize| {
        let recorder = Arc::new(Recorder::new());
        let mut builder = CampaignConfig::builder(quick_tcp())
            .cap(40)
            .memoize(true)
            .retest(true)
            .journal(path.clone())
            .resume(resume)
            .observer(recorder.clone());
        if shards > 0 {
            builder = builder
                .shards(shards)
                .shard_worker_bin(env!("CARGO_BIN_EXE_snake"));
        }
        let result = Campaign::run(builder.build().expect("valid config")).unwrap();
        (result, recorder.snapshot())
    };
    let spans = |snapshot: &RecorderSnapshot, name: &str| {
        snapshot
            .span_totals()
            .get(name)
            .map_or(0, |&(count, _)| count)
    };

    let (fresh, fresh_seen) = observed(false, 0);
    assert_eq!(fresh.outcomes.len(), 40);
    assert_eq!(
        spans(&fresh_seen, "phase.baseline"),
        2,
        "main and re-test seed"
    );
    assert_eq!(spans(&fresh_seen, "phase.snapshotting"), 2);
    assert_eq!(fresh_seen.counter("exec.plan.guard_tripped"), 0);
    let journal = std::fs::read(&path).unwrap();

    // Every strategy is answered from the journal: nothing forks, so no
    // plan is built and the re-test seed is never simulated.
    let (resumed, seen) = observed(true, 0);
    assert_eq!(resumed.resumed, 40);
    assert_eq!(spans(&seen, "phase.baseline"), 1);
    assert_eq!(spans(&seen, "phase.snapshotting"), 0);
    assert_eq!(seen.counter("netsim.snapshot_forks"), 0);
    assert_eq!(resumed.export_outcomes_tsv(), fresh.export_outcomes_tsv());
    assert_eq!(std::fs::read(&path).unwrap(), journal, "nothing appended");

    // Sharded, the same resume has nothing to dispatch: no worker starts.
    let (sharded, seen) = observed(true, 2);
    assert_eq!(sharded.resumed, 40);
    assert_eq!(spans(&seen, "phase.shard_launch"), 0);
    assert_eq!(spans(&seen, "phase.snapshotting"), 0);
    assert_eq!(seen.counter("shard.ranges_dispatched"), 0);
    assert_eq!(sharded.export_outcomes_tsv(), fresh.export_outcomes_tsv());

    // One journal line short: that strategy needs an answer, so both
    // plans are built and exactly it is re-run.
    let text = std::str::from_utf8(&journal).unwrap();
    let last = text.trim_end_matches('\n').rfind('\n').unwrap() + 1;
    std::fs::write(&path, &text[..last]).unwrap();
    let (rerun, seen) = observed(true, 0);
    assert_eq!(rerun.resumed, 39);
    assert_eq!(spans(&seen, "phase.baseline"), 2);
    assert_eq!(spans(&seen, "phase.snapshotting"), 2);
    assert_eq!(rerun.export_outcomes_tsv(), fresh.export_outcomes_tsv());
    assert_eq!(
        std::fs::read(&path).unwrap(),
        journal,
        "the one line re-written"
    );
    std::fs::remove_file(&path).ok();
}

//! The campaign controller (paper §V): generates strategies round by
//! round, hands them to the executors, and judges what comes back.
//!
//! The moving parts live next door: [`config`](crate::config) validates
//! what to run, [`evaluate`](crate::evaluate) turns one strategy into one
//! outcome, [`dispatch`](crate::dispatch) spreads a batch over threads or
//! shard processes, and [`admission`](crate::admission) is the one place
//! an outcome becomes part of the campaign. What stays here is start-up —
//! the baseline run while the journal is read, then the journal opened for
//! writing — and the round loop with its phases, the first of which to
//! need a snapshot plan builds it.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use snake_observe as observe;
use snake_proxy::{ProxyReport, Strategy};

use crate::admission::Admission;
use crate::attacks::{classify, cluster_attacks};
use crate::config::{CampaignConfig, CampaignError};
use crate::dispatch::Dispatcher;
use crate::evaluate::{
    class_key, evaluate_watched, inert_outcome, join_scoped, materialize_class_member, Shared,
    SharedCtx,
};
use crate::journal::{JournalEntry, JournalHeader, JournalReader, JournalWriter};
use crate::result::{CampaignResult, Memo, OutcomeKind, StrategyOutcome};
use crate::strategen::generate_strategies;

/// A full campaign against one implementation — one row of Table I.
#[derive(Debug, Clone, Copy, Default)]
pub struct Campaign;

impl Campaign {
    /// Runs a full campaign: baseline, iterative strategy generation,
    /// parallel execution, verdicts, re-tests, false-positive controls,
    /// classification, clustering.
    ///
    /// A panicking engine run or a budget-truncated run does not abort the
    /// campaign: the affected strategy is reported as
    /// [`OutcomeKind::Errored`] / [`OutcomeKind::Truncated`] and the batch
    /// continues. Errors are reserved for broken preconditions (invalid
    /// baseline) and journal I/O.
    pub fn run(config: CampaignConfig) -> Result<CampaignResult, CampaignError> {
        // A fault hook (or evaluation-side chaos) must see every strategy,
        // so memoization (which answers some strategies without ever
        // evaluating them) is forced off under fault injection. Wire-side
        // chaos never touches evaluation, so it leaves memoization alone —
        // that is exactly what lets the wire-chaos tests demand output
        // identical to an unperturbed run.
        let memoize = config.memoize
            && config.fault_hook.is_none()
            && !config.chaos.is_some_and(|c| c.has_eval_faults());
        // Start-up is two jobs, neither of which reads what the other
        // produces: the baseline run inside `prepare` and the read half of
        // the journal (the snapshot plans wait for the first round with
        // something left to run). The journal is read on *this* thread
        // because its entries are the allocation that outlives start-up:
        // here they sit in the main allocator arena as they always did,
        // while decoded on a spawned thread they land in a fresh one and
        // peak RSS starts to depend on which arena later threads inherit
        // (DESIGN §12).
        let (prepared, loaded) = std::thread::scope(|scope| {
            let prepare = scope.spawn(|| SharedCtx::prepare(config.clone(), memoize));
            let loaded = load_inherited(&config, memoize);
            (join_scoped(prepare), loaded)
        });
        // An invalid baseline wins over whatever the journal had to say,
        // and nothing below the journal's directory is created, written or
        // removed before both have passed.
        let shared: Shared = Arc::new(prepared?);
        let mut inherited = loaded?;
        let config = &shared.config;

        let writer = open_writer(config, memoize, &inherited)?;
        let admission = Admission::new(shared.clone(), writer);
        let mut dispatcher = Dispatcher::new(shared.clone());

        let mut next_id = 0u64;
        let mut seen = BTreeSet::new();
        let mut outcomes: Vec<StrategyOutcome> = Vec::new();
        // Feedback reports, each distinct one once: memo hits and elided
        // runs share their representative's report, and generation reads
        // only which triples occur, so neither a repeat nor the set's
        // iteration order changes what it generates.
        let mut reports: HashSet<Arc<ProxyReport>> =
            HashSet::from([shared.exec.baseline().proxy.clone()]);
        for _round in 0..config.feedback_rounds {
            // The cap is re-checked at the top of every round: feedback
            // rounds keep generating strategies, so a cap satisfied in
            // round 0 must still stop rounds 1..n.
            if config
                .max_strategies
                .is_some_and(|cap| outcomes.len() >= cap)
            {
                break;
            }
            let refs: Vec<&ProxyReport> = reports.iter().map(|r| r.as_ref()).collect();
            let mut fresh = generate_strategies(
                &config.scenario.protocol,
                &refs,
                &config.params,
                &mut next_id,
                &mut seen,
            );
            if let Some(cap) = config.max_strategies {
                fresh.truncate(cap.saturating_sub(outcomes.len()));
            }
            if fresh.is_empty() {
                break;
            }

            let RoundPlan {
                mut round,
                slots,
                batch,
                followers,
            } = plan_round(&shared, &admission, fresh, &mut inherited);
            dispatcher.ready_for(&batch);
            let batch_span = observe::span(config.observer.as_ref(), "phase.batch", 0);
            let ran = dispatcher.run_batch(&admission, batch);
            for (slot, outcome) in slots.into_iter().zip(ran) {
                round[slot] = Some(outcome);
            }
            admit_followers(&shared, &admission, followers, &mut round);
            drop(batch_span);

            for o in round.into_iter().flatten() {
                // Feedback: states/types newly exposed under attack seed
                // the next round. Only well-behaved runs contribute —
                // zeroed metrics from a panic or a half-finished truncated
                // run would poison the generator's view of the state space.
                if o.outcome_kind == OutcomeKind::Ok {
                    reports.insert(o.metrics.proxy.clone());
                }
                outcomes.push(o);
            }
        }

        dispatcher.finish();
        admission.finish()?;
        Ok(finish(&shared, outcomes, &inherited))
    }
}

/// What a resuming campaign inherits from the run it continues.
#[derive(Default)]
struct Inherited {
    /// Journaled outcomes by strategy id, reused instead of re-run.
    reusable: BTreeMap<u64, JournalEntry>,
    /// Journaled outcomes actually reused so far.
    resumed: usize,
    /// Journal lines that could not be read back (skipped, not fatal).
    journal_lines_skipped: usize,
    /// The journal opened with a header matching this campaign, so the
    /// writer appends to it instead of starting a fresh one.
    has_header: bool,
}

/// The header this campaign writes, and requires of a journal it resumes.
/// It records the memoization and impairment settings alongside the
/// campaign identity, so appending to a journal written under different
/// memo/impairment semantics is refused instead of silently mixing
/// provenance markers (or metrics) from two different worlds.
fn journal_header(config: &CampaignConfig, memoize: bool) -> JournalHeader {
    let spec = &config.scenario;
    JournalHeader {
        implementation: spec.protocol.implementation_name().to_owned(),
        seed: spec.seed,
        threshold: config.threshold,
        memoize: Some(memoize),
        impairment: Some(spec.bottleneck().impair.to_string()),
    }
}

/// The read half of journal set-up: what a resuming campaign inherits from
/// its journal. Opens nothing for writing, so it can run while the plans
/// are still being built; [`open_writer`] is the write half.
///
/// The journal is the campaign's only crash record. Whatever a crashed
/// run had evaluated but not yet admitted — in a worker thread, or on a
/// shard's wire — is not in it and simply runs again.
fn load_inherited(config: &CampaignConfig, memoize: bool) -> Result<Inherited, CampaignError> {
    let mut inherited = Inherited::default();
    let Some(path) = &config.journal else {
        if config.resume {
            return Err(CampaignError::ResumeWithoutJournal);
        }
        return Ok(inherited);
    };
    if !config.resume {
        return Ok(inherited);
    }
    let observer = config.observer.as_ref();
    let _span = observe::span(observer, "phase.journal_load", 0);
    let journal_err = |source| CampaignError::Journal {
        path: path.clone(),
        source,
    };
    let mismatch = |detail| CampaignError::JournalMismatch {
        path: path.clone(),
        detail,
    };
    // Stream the journal line by line: a 1M-strategy journal replays
    // without ever holding the whole file in memory (only the reusable
    // outcomes themselves).
    let mut reader = JournalReader::open(path).map_err(journal_err)?;
    let header = journal_header(config, memoize);
    if let Some(detail) = reader.header().and_then(|h| h.mismatch_against(&header)) {
        return Err(mismatch(detail));
    }
    inherited.has_header = reader.header().is_some();
    // Memo hits and elided runs share their representative's report when
    // evaluated; interning gives the decoded copies back that sharing, so
    // a resumed result is no larger than the fresh one it reproduces.
    let mut reports: HashSet<Arc<ProxyReport>> = HashSet::new();
    let mut loaded = 0u64;
    while let Some(mut entry) = reader.next_entry().map_err(journal_err)? {
        loaded += 1;
        if !inherited.has_header {
            continue;
        }
        let report = &mut entry.outcome.metrics.proxy;
        match reports.get(&**report) {
            Some(shared) => *report = shared.clone(),
            None => {
                reports.insert(report.clone());
            }
        }
        inherited.reusable.insert(entry.outcome.strategy.id, entry);
    }
    inherited.journal_lines_skipped = reader.malformed_lines();
    observer.counter_add("journal.lines_loaded", loaded);
    observer.counter_add(
        "journal.lines_skipped",
        inherited.journal_lines_skipped as u64,
    );
    // Without a header nothing ties the outcomes to this campaign. A
    // missing or empty file, or one whose writer died inside its first
    // line, is just a fresh run; intact outcomes under an unreadable
    // header are somebody's finished work, and starting over would
    // truncate them.
    if !inherited.has_header && loaded > 0 {
        return Err(mismatch(format!(
            "header line is unreadable, so nothing ties its {loaded} intact outcome line(s) \
             to this campaign; the file was left untouched"
        )));
    }
    Ok(inherited)
}

/// The write half of journal set-up, strictly after a successful
/// `prepare`: appends to the journal [`load_inherited`] accepted, starts a
/// fresh one otherwise.
fn open_writer(
    config: &CampaignConfig,
    memoize: bool,
    inherited: &Inherited,
) -> Result<Option<JournalWriter>, CampaignError> {
    let Some(path) = &config.journal else {
        return Ok(None);
    };
    let writer = if inherited.has_header {
        JournalWriter::append(path)
    } else {
        JournalWriter::create(path, &journal_header(config, memoize))
    };
    writer.map(Some).map_err(|source| CampaignError::Journal {
        path: path.clone(),
        source,
    })
}

/// One feedback round, sorted into what is already answered and what
/// still has to run.
struct RoundPlan {
    /// One slot per generated strategy, in generation order. Reused and
    /// inert outcomes are already in place; the rest fill in as the batch
    /// and the followers complete.
    round: Vec<Option<StrategyOutcome>>,
    /// The `round` slot of each strategy in `batch`.
    slots: Vec<usize>,
    /// The strategies that need a run of their own.
    batch: Vec<Strategy>,
    /// Class followers: `(slot, strategy, representative's slot)`.
    followers: Vec<(usize, Strategy, usize)>,
}

/// Splits a round into journaled outcomes to reuse, strategies
/// memoization answers, and strategies that still need a run. The first
/// round with a strategy the journal does not answer builds the snapshot
/// plans; a round the journal answers in full touches no plan at all.
fn plan_round(
    shared: &Shared,
    admission: &Admission,
    fresh: Vec<Strategy>,
    inherited: &mut Inherited,
) -> RoundPlan {
    // Identity is checked on the full strategy, not just the id, so a
    // stale journal entry is re-run rather than trusted. Non-inert reused
    // strategies re-register as class representatives, so a resumed
    // campaign reaches the same memo decisions (and markers) as an
    // uninterrupted one.
    let mut round: Vec<Option<StrategyOutcome>> = fresh.iter().map(|_| None).collect();
    let mut pending: Vec<(usize, Strategy)> = Vec::new();
    // Reused strategies that may represent a class, in index order.
    let mut reused: Vec<(usize, Strategy)> = Vec::new();
    for (i, s) in fresh.into_iter().enumerate() {
        match inherited.reusable.remove(&s.id) {
            Some(prev) if prev.outcome.strategy == s => {
                inherited.resumed += 1;
                admission.seed_resumed(&prev);
                // An inert-marked outcome never reached the class
                // grouping in the original run, so it must not become a
                // representative now.
                if prev.outcome.memo != Some(Memo::Inert) {
                    reused.push((i, s));
                }
                round[i] = Some(prev.outcome);
            }
            _ => pending.push((i, s)),
        }
    }
    // Class keys only matter to strategies that still need an answer.
    let mut class_reps: BTreeMap<String, usize> = BTreeMap::new();
    if !pending.is_empty() {
        shared.ensure_plans();
        for (i, s) in reused {
            if let Some(key) = class_key(shared, &s) {
                class_reps.entry(key).or_insert(i);
            }
        }
    }
    // Memoization pass over the strategies that still need a run:
    // statically provable wire no-ops are answered with the baseline
    // outcome on the spot, and trigger-equivalent `OnState` strategies are
    // grouped so only one representative per class runs — the rest copy
    // its result afterwards.
    let mut slots = Vec::new();
    let mut batch = Vec::new();
    let mut followers = Vec::new();
    for (i, s) in pending {
        if let Some(outcome) = inert_outcome(shared, &s) {
            round[i] = Some(admission.admit(outcome));
            continue;
        }
        if let Some(key) = class_key(shared, &s) {
            if let Some(&rep) = class_reps.get(&key) {
                followers.push((i, s, rep));
                continue;
            }
            class_reps.insert(key, i);
        }
        slots.push(i);
        batch.push(s);
    }
    RoundPlan {
        round,
        slots,
        batch,
        followers,
    }
}

/// Gives every class follower its representative's result, in slot order.
fn admit_followers(
    shared: &Shared,
    admission: &Admission,
    followers: Vec<(usize, Strategy, usize)>,
    round: &mut [Option<StrategyOutcome>],
) {
    for (i, s, rep) in followers {
        let rep_outcome = round[rep]
            .as_ref()
            .expect("class representatives are reused or ran in this batch");
        let outcome = if rep_outcome.outcome_kind == OutcomeKind::Errored {
            // A panicking representative proves nothing about its class;
            // run the member itself and admit the fresh run like any
            // other. Followers re-run in slot order, so admission stays
            // deterministic.
            evaluate_watched(shared, s)
        } else {
            materialize_class_member(rep_outcome, s)
        };
        round[i] = Some(admission.admit(outcome));
    }
}

/// Classifies and clusters the true attack strategies and assembles the
/// campaign result.
fn finish(
    shared: &SharedCtx,
    outcomes: Vec<StrategyOutcome>,
    inherited: &Inherited,
) -> CampaignResult {
    let spec = &shared.config.scenario;
    let classified: Vec<_> = outcomes
        .iter()
        .filter(|o| o.is_true_attack())
        .map(|o| {
            let attack = classify(&spec.protocol, &o.strategy, &o.verdict, &o.metrics);
            (o.strategy.clone(), o.verdict, attack)
        })
        .collect();
    let findings = cluster_attacks(&classified);

    // The memo totals are derived from the provenance markers the
    // outcomes actually carry, so the campaign counters, the journal and
    // the run manifest can never disagree.
    let mut memo_hits = 0usize;
    let mut short_circuits = 0usize;
    for o in &outcomes {
        match o.memo {
            Some(Memo::Class) => memo_hits += 1,
            Some(Memo::Inert) => short_circuits += 1,
            None => {}
        }
    }

    CampaignResult {
        protocol: spec.protocol.protocol_name().to_owned(),
        implementation: spec.protocol.implementation_name().to_owned(),
        baseline: shared.exec.baseline().clone(),
        outcomes,
        findings,
        resumed: inherited.resumed,
        journal_lines_skipped: inherited.journal_lines_skipped,
        memo_hits,
        short_circuits,
        baseline_reps: shared.config.baseline_reps,
        envelope: shared.envelope,
        escalated: shared.escalated.load(Ordering::Relaxed),
        stalls: shared.stalls.load(Ordering::Relaxed),
        quarantined: shared.quarantined.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosPlan;
    use crate::detect::{Envelope, Verdict, DEFAULT_THRESHOLD};
    use crate::evaluate::ensemble_seed;
    use crate::scenario::{ProtocolKind, ScenarioSpec, TestMetrics};
    use snake_proxy::{BasicAttack, Endpoint, StrategyKind};
    use snake_tcp::Profile;
    use std::time::Duration;

    #[test]
    fn tiny_campaign_runs_end_to_end() {
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        let config = CampaignConfig::builder(spec)
            .cap(12)
            .parallelism(4)
            .feedback_rounds(1)
            .retest(false)
            .build()
            .expect("valid config");
        let result = Campaign::run(config).expect("valid baseline");
        assert_eq!(result.strategies_tried(), 12);
        assert_eq!(result.protocol, "TCP");
        assert!(result.baseline.target_bytes > 0);
        assert_eq!(result.errored(), 0);
        assert_eq!(result.truncated(), 0);
        // Bookkeeping invariants.
        assert!(result.attack_strategies_found() >= result.true_attack_strategies());
        let row = result.table_row();
        assert!(row.contains("Linux 3.13"));
    }

    #[test]
    fn tsv_export_has_one_row_per_outcome() {
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        let config = CampaignConfig::builder(spec)
            .cap(6)
            .parallelism(2)
            .feedback_rounds(1)
            .retest(false)
            .build()
            .expect("valid config");
        let result = Campaign::run(config).expect("valid baseline");
        let tsv = result.export_outcomes_tsv();
        assert_eq!(tsv.lines().count(), 1 + 6, "header + one row per strategy");
        assert!(tsv.starts_with("id\tstrategy"));
        assert!(tsv.contains("drop=100%"));
    }

    #[test]
    fn parallel_and_serial_agree() {
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        let config = |workers| {
            CampaignConfig::builder(spec.clone())
                .cap(8)
                .feedback_rounds(1)
                .retest(false)
                .parallelism(workers)
                .build()
                .expect("valid config")
        };
        let serial = Campaign::run(config(1)).expect("valid baseline");
        let parallel = Campaign::run(config(4)).expect("valid baseline");
        let v1: Vec<_> = serial
            .outcomes
            .iter()
            .map(|o| (o.strategy.id, o.verdict))
            .collect();
        let v2: Vec<_> = parallel
            .outcomes
            .iter()
            .map(|o| (o.strategy.id, o.verdict))
            .collect();
        assert_eq!(v1, v2, "parallelism must not change results");
    }

    #[test]
    fn invalid_baseline_is_an_error_not_a_table() {
        // A scenario with no data phase moves no bytes, so the baseline
        // cannot anchor throughput comparisons.
        let mut spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        spec.data_secs = 0;
        spec.grace_secs = 0;
        let config = CampaignConfig::builder(spec)
            .cap(2)
            .feedback_rounds(1)
            .retest(false)
            .build()
            .expect("valid config");
        match Campaign::run(config) {
            Err(CampaignError::InvalidBaseline { implementation }) => {
                assert!(implementation.contains("3.13"), "{implementation}");
            }
            other => panic!("expected InvalidBaseline, got {other:?}"),
        }
    }

    // The tests below exercise what was split out of this file (config,
    // chaos, result, evaluate); they stay here so their test ids do not move.

    #[test]
    fn resume_without_journal_is_rejected() {
        // The builder catches the combination before anything runs.
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        assert!(matches!(
            CampaignConfig::builder(spec).resume(true).build(),
            Err(CampaignError::ResumeWithoutJournal)
        ));
    }

    #[test]
    fn builder_rejects_degenerate_settings() {
        let spec = || ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        for broken in [
            CampaignConfig::builder(spec()).threshold(f64::NAN),
            CampaignConfig::builder(spec()).threshold(0.0),
            CampaignConfig::builder(spec()).parallelism(0),
            CampaignConfig::builder(spec()).feedback_rounds(0),
            CampaignConfig::builder(spec()).baseline_reps(0),
            CampaignConfig::builder(spec()).deadline(Duration::ZERO),
        ] {
            match broken.build() {
                Err(CampaignError::InvalidConfig { detail }) => {
                    assert!(!detail.is_empty());
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn chaos_presets_resolve_by_name_and_schedule_deterministically() {
        for (name, plan) in ChaosPlan::presets() {
            assert_eq!(ChaosPlan::preset(name), Some(*plan));
        }
        assert_eq!(ChaosPlan::preset("nope"), None);
        let plan = ChaosPlan::preset("journal").unwrap();
        assert!(plan.fails_journal_write(3));
        assert!(plan.fails_journal_write(6));
        assert!(!plan.fails_journal_write(4));
        // A default (empty) plan injects nothing anywhere.
        let noop = ChaosPlan::default();
        assert!(!noop.fails_journal_write(1));
        noop.apply(&Strategy {
            id: 0,
            kind: StrategyKind::OnPacket {
                endpoint: Endpoint::Client,
                state: "ESTABLISHED".into(),
                packet_type: "ACK".into(),
                attack: BasicAttack::Drop { percent: 100 },
            },
        });
    }

    #[test]
    fn tsv_export_escapes_free_text_fields() {
        let hostile = Strategy {
            id: 1,
            kind: StrategyKind::OnPacket {
                endpoint: Endpoint::Client,
                state: "EST\tABL\nISHED".into(),
                packet_type: "ACK\r".into(),
                attack: BasicAttack::Drop { percent: 100 },
            },
        };
        let outcome = StrategyOutcome {
            strategy: hostile,
            verdict: Verdict::default(),
            metrics: TestMetrics::empty(),
            repeatable: false,
            on_path: false,
            false_positive: false,
            outcome_kind: OutcomeKind::Errored,
            error: Some("boom\tat line\n3".into()),
            memo: None,
        };
        let result = CampaignResult {
            protocol: "TCP".into(),
            implementation: "test".into(),
            baseline: TestMetrics::empty(),
            outcomes: vec![outcome],
            findings: Vec::new(),
            resumed: 0,
            journal_lines_skipped: 0,
            memo_hits: 0,
            short_circuits: 0,
            baseline_reps: 1,
            envelope: Envelope::from_baseline(&TestMetrics::empty(), DEFAULT_THRESHOLD),
            escalated: 0,
            stalls: 0,
            quarantined: 0,
        };
        let tsv = result.export_outcomes_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 2, "hostile describe() must not add rows");
        let columns = lines[1].split('\t').count();
        assert_eq!(
            columns,
            lines[0].split('\t').count(),
            "column structure survives"
        );
        assert!(tsv.contains("EST\\tABL\\nISHED"));
        assert!(tsv.contains("boom\\tat line\\n3"));
    }

    #[test]
    fn ensemble_seeds_are_distinct_and_avoid_the_retest_seed() {
        let seed = 7u64;
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(seed);
        seen.insert(seed.wrapping_add(1)); // the re-test seed
        for k in 1..16 {
            assert!(seen.insert(ensemble_seed(seed, k)), "collision at k={k}");
        }
    }
}

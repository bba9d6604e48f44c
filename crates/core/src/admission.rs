//! The campaign's one admission pipeline: every outcome — evaluated on a
//! thread, delivered by a shard, answered by memoization — becomes part
//! of the campaign here and nowhere else.
//!
//! # Contract
//!
//! Producers [`offer`](Admission::offer) the outcomes of a batch in any
//! order; the reorder buffer admits them strictly in strategy-index order,
//! and each admission runs one fixed sequence: fold the worker counter
//! deltas that rode along, append the journal line (one bounded retry),
//! fire the controller kill-switch, tick the progress tally. All of it
//! happens under one lock, so there is no lock order to get wrong, and
//! evaluation (the expensive part) never holds it. Consequences the
//! equivalence suites rest on: journal bytes are identical at every
//! worker and shard count, and the journal is always an index-order
//! prefix of each batch — a killed process loses only runs still in
//! flight or held back behind one.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

use crate::config::CampaignError;
use crate::evaluate::{Shared, SharedCtx};
use crate::journal::{JournalEntry, JournalWriter};
use crate::result::{OutcomeKind, StrategyOutcome};
use crate::shard::intern_counter;

/// Worker counter deltas that ride along with an outcome (empty for
/// outcomes evaluated in this process, whose counters reached the observer
/// directly).
pub(crate) type WorkerCounters = Vec<(String, u64)>;

/// See the [module documentation](self).
pub(crate) struct Admission {
    shared: Shared,
    state: Mutex<State>,
}

struct State {
    /// The next index of the batch in flight to admit.
    next: usize,
    /// Outcomes offered ahead of `next`, keyed by index.
    pending: BTreeMap<usize, (StrategyOutcome, WorkerCounters)>,
    /// Admitted outcomes of the batch in flight, in index order.
    done: Vec<StrategyOutcome>,
    journal: Option<JournalWriter>,
    /// Journal writes attempted so far (the chaos plan fails by ordinal).
    journal_writes: u64,
    /// The first journal error that survived its retry; later ones are
    /// dropped so the campaign reports the original cause.
    journal_error: Option<io::Error>,
    admissions: u64,
    /// Controller kill-switch: exit the whole process (code 23) right
    /// after this many admissions reached the journal, so a resume has a
    /// crashed controller's journal to continue from. Driven by the chaos
    /// plan or, for out-of-process harnesses (CI),
    /// `SNAKE_CONTROLLER_EXIT_AT`.
    kill_at: Option<u64>,
    progress: Progress,
}

#[derive(Default)]
struct Progress {
    done: usize,
    errored: usize,
    truncated: usize,
    stalled: usize,
}

impl Admission {
    pub(crate) fn new(shared: Shared, journal: Option<JournalWriter>) -> Admission {
        let kill_at = shared
            .config
            .chaos
            .and_then(|c| c.kill_controller_at)
            .or_else(|| {
                std::env::var("SNAKE_CONTROLLER_EXIT_AT")
                    .ok()
                    .and_then(|v| v.parse().ok())
            });
        let state = State {
            next: 0,
            pending: BTreeMap::new(),
            done: Vec::new(),
            journal,
            journal_writes: 0,
            journal_error: None,
            admissions: 0,
            kill_at,
            progress: Progress::default(),
        };
        Admission {
            shared,
            state: Mutex::new(state),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("an admission panicked while holding the admission lock")
    }

    /// Re-primes admission from an outcome reused off a resumed journal:
    /// the counter deltas journaled with it are folded again, so a resumed
    /// sharded campaign reports the tallies of the run it reconstructs.
    /// Nothing is journaled — the line is already there.
    pub(crate) fn seed_resumed(&self, entry: &JournalEntry) {
        fold_worker_counters(&self.shared, &entry.counters);
    }

    /// Opens a batch of `n` outcomes (sizes the result buffer once; a
    /// whole-campaign batch is thousands of outcomes).
    pub(crate) fn begin_batch(&self, n: usize) {
        self.state().done.reserve_exact(n);
    }

    /// Offers the outcome of batch index `index`. It is admitted as soon as
    /// every lower index has been; until then it waits in the reorder
    /// buffer. Each index of a batch must be offered exactly once.
    pub(crate) fn offer(&self, index: usize, outcome: StrategyOutcome, counters: WorkerCounters) {
        let mut state = self.state();
        assert!(
            index >= state.next && !state.pending.contains_key(&index),
            "batch index {index} offered twice"
        );
        state.pending.insert(index, (outcome, counters));
        loop {
            let turn = state.next;
            let Some((outcome, counters)) = state.pending.remove(&turn) else {
                break;
            };
            let admitted = state.release(&self.shared, outcome, &counters);
            state.done.push(admitted);
            state.next += 1;
        }
    }

    /// Closes the batch once all `n` outcomes were offered and returns
    /// them in index order, leaving the reorder buffer ready for the next
    /// batch.
    pub(crate) fn take_batch(&self, n: usize) -> Vec<StrategyOutcome> {
        let mut state = self.state();
        assert!(
            state.pending.is_empty() && state.done.len() == n,
            "batch closed with {} of {n} outcomes admitted",
            state.done.len()
        );
        state.next = 0;
        std::mem::take(&mut state.done)
    }

    /// Admits an outcome produced between batches, where the caller's own
    /// sequence is already the admission order: memoization answers
    /// (inert, class follower) and the re-run of a follower whose
    /// representative errored.
    pub(crate) fn admit(&self, outcome: StrategyOutcome) -> StrategyOutcome {
        self.state().release(&self.shared, outcome, &[])
    }

    /// Ends admission, surfacing the first journal write that failed even
    /// after its retry.
    pub(crate) fn finish(self) -> Result<(), CampaignError> {
        let state = self
            .state
            .into_inner()
            .expect("an admission panicked while holding the admission lock");
        match state.journal_error {
            None => Ok(()),
            Some(source) => Err(CampaignError::Journal {
                path: self
                    .shared
                    .config
                    .journal
                    .clone()
                    .expect("journal errors require a journal"),
                source,
            }),
        }
    }
}

impl State {
    /// The one admission sequence (see the module documentation).
    fn release(
        &mut self,
        shared: &SharedCtx,
        outcome: StrategyOutcome,
        counters: &[(String, u64)],
    ) -> StrategyOutcome {
        fold_worker_counters(shared, counters);
        self.journal(shared, &outcome, counters);
        self.admissions += 1;
        if self.kill_at == Some(self.admissions) {
            // The admission is journaled; die exactly here, before any
            // later-index outcome can be admitted.
            std::process::exit(23);
        }
        self.tick_progress(shared.config.progress_every, &outcome);
        outcome
    }

    /// Appends the journal line with one bounded retry: a transient write
    /// failure (or an injected chaos fault) gets a second chance before
    /// the campaign is marked to abort with a journal error.
    fn journal(
        &mut self,
        shared: &SharedCtx,
        outcome: &StrategyOutcome,
        counters: &[(String, u64)],
    ) {
        let Some(writer) = &mut self.journal else {
            return;
        };
        let observer = shared.config.observer.as_ref();
        self.journal_writes += 1;
        let injected = shared
            .config
            .chaos
            .is_some_and(|c| c.fails_journal_write(self.journal_writes));
        for attempt in 0..2 {
            let result = if injected && attempt == 0 {
                observer.counter_add("campaign.journal_faults", 1);
                Err(io::Error::other("chaos: injected journal write failure"))
            } else {
                writer.record_with_counters(outcome, counters)
            };
            match result {
                Ok(()) => return,
                Err(_) if attempt == 0 => observer.counter_add("campaign.journal_retries", 1),
                Err(e) => {
                    self.journal_error.get_or_insert(e);
                }
            }
        }
    }

    fn tick_progress(&mut self, every: usize, outcome: &StrategyOutcome) {
        if every == 0 {
            return;
        }
        let p = &mut self.progress;
        p.done += 1;
        match outcome.outcome_kind {
            OutcomeKind::Ok => {}
            OutcomeKind::Errored => p.errored += 1,
            OutcomeKind::Truncated => p.truncated += 1,
            OutcomeKind::Stalled => p.stalled += 1,
        }
        if p.done.is_multiple_of(every) {
            eprintln!(
                "campaign: {} strategies tested ({} errored, {} truncated, {} stalled)",
                p.done, p.errored, p.truncated, p.stalled
            );
        }
    }
}

/// Replays the counter deltas a shard worker reported for one outcome
/// into the controller's observer, so manifest tallies match a
/// single-process run. The `campaign.*` watchdog/escalation counters also
/// feed the shared atomics `CampaignResult` reports from — in-process
/// those are bumped inside `evaluate`, which sharded execution never
/// calls on the controller. Names outside the intern table are dropped.
/// Folding happens at admission, not at receipt, so a stale result that
/// never admits never skews the observer either.
fn fold_worker_counters(shared: &SharedCtx, counters: &[(String, u64)]) {
    let observer = shared.config.observer.as_ref();
    for (name, delta) in counters {
        let Some(interned) = intern_counter(name) else {
            continue;
        };
        let tally = match interned {
            "campaign.escalated" => Some(&shared.escalated),
            "campaign.stalls" => Some(&shared.stalls),
            "campaign.quarantined" => Some(&shared.quarantined),
            _ => None,
        };
        if let Some(tally) = tally {
            tally.fetch_add(*delta as usize, Ordering::Relaxed);
        }
        observer.counter_add(interned, *delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};
    use std::sync::{Arc, OnceLock};

    use proptest::prelude::*;
    use snake_observe::Recorder;
    use snake_proxy::{BasicAttack, Endpoint, Strategy, StrategyKind};
    use snake_tcp::Profile;

    use crate::chaos::ChaosPlan;
    use crate::config::CampaignConfig;
    use crate::detect::Verdict;
    use crate::journal::JournalHeader;
    use crate::scenario::{ProtocolKind, ScenarioSpec, TestMetrics};

    fn shared_with(journal: &Path, chaos: ChaosPlan, recorder: Arc<Recorder>) -> Shared {
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        let config = CampaignConfig::builder(spec)
            .retest(false)
            .journal(journal)
            .chaos(chaos)
            .observer(recorder)
            .build()
            .expect("valid config");
        Arc::new(SharedCtx::prepare(config, true).expect("valid baseline"))
    }

    fn temp_journal(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "snake-admission-test-{}-{name}.jsonl",
            std::process::id()
        ));
        p
    }

    fn fresh_writer(path: &Path) -> JournalWriter {
        let header = JournalHeader {
            implementation: "x".into(),
            seed: 1,
            threshold: 0.5,
            memoize: Some(true),
            impairment: Some("none".into()),
        };
        JournalWriter::create(path, &header).expect("temp dir is writable")
    }

    fn outcome(id: u64, target_bytes: u64, flagged: bool, kind: OutcomeKind) -> StrategyOutcome {
        StrategyOutcome {
            strategy: Strategy {
                id,
                kind: StrategyKind::OnPacket {
                    endpoint: Endpoint::Client,
                    state: "ESTABLISHED".into(),
                    packet_type: "ACK".into(),
                    attack: BasicAttack::Drop { percent: 100 },
                },
            },
            verdict: Verdict {
                throughput_degradation: flagged,
                ..Verdict::default()
            },
            metrics: TestMetrics {
                target_bytes,
                ..TestMetrics::empty()
            },
            repeatable: true,
            on_path: false,
            false_positive: false,
            outcome_kind: kind,
            error: None,
            memo: None,
        }
    }

    fn tallies(shared: &SharedCtx) -> [usize; 3] {
        [&shared.escalated, &shared.stalls, &shared.quarantined].map(|t| t.load(Ordering::Relaxed))
    }

    /// Delivers `batch` in `order` through a fresh `Admission` journaling
    /// to `path`; returns the admitted sequence, the journal bytes and
    /// how far the three folded tallies moved.
    fn deliver(
        shared: &Shared,
        path: &Path,
        batch: &[(StrategyOutcome, WorkerCounters)],
        order: &[usize],
    ) -> (Vec<StrategyOutcome>, Vec<u8>, [usize; 3]) {
        let before = tallies(shared);
        let admission = Admission::new(shared.clone(), Some(fresh_writer(path)));
        for &index in order {
            let (outcome, counters) = batch[index].clone();
            admission.offer(index, outcome, counters);
        }
        let admitted = admission.take_batch(batch.len());
        admission.finish().expect("journal writes succeed");
        let bytes = std::fs::read(path).expect("journal exists");
        std::fs::remove_file(path).ok();
        let after = tallies(shared);
        (admitted, bytes, [0, 1, 2].map(|k| after[k] - before[k]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever order outcomes are delivered in — and whichever of
        /// them are offered up front, ahead of the rest — the campaign is
        /// the one in-order delivery produces.
        #[test]
        fn delivery_order_never_shows(
            specs in prop::collection::vec(
                (0u64..4, any::<bool>(), 0u8..8, any::<u64>(), any::<bool>()),
                1..24,
            ),
            deltas in prop::collection::vec((0u64..3, 0u64..3, 0u64..2), 24),
        ) {
            static SHARED: OnceLock<Shared> = OnceLock::new();
            let shared = SHARED.get_or_init(|| {
                let path = temp_journal("unused");
                shared_with(&path, ChaosPlan::default(), Arc::new(Recorder::new()))
            });
            let batch: Vec<(StrategyOutcome, WorkerCounters)> = specs
                .iter()
                .zip(&deltas)
                .enumerate()
                .map(|(i, (&(target_bytes, flagged, kind, _, _), &(escalated, stalls, quarantined)))| {
                    let kind = if kind == 0 { OutcomeKind::Errored } else { OutcomeKind::Ok };
                    let counters = vec![
                        ("campaign.escalated".to_owned(), escalated),
                        ("campaign.stalls".to_owned(), stalls),
                        ("campaign.quarantined".to_owned(), quarantined),
                        ("not.a.counter".to_owned(), 9),
                    ];
                    (outcome(i as u64, target_bytes, flagged, kind), counters)
                })
                .collect();
            let in_order: Vec<usize> = (0..batch.len()).collect();
            // The up-front indices first, ascending; the rest in the order
            // their sort keys dictate.
            let mut shuffled = in_order.clone();
            shuffled.sort_by_key(|&i| (!specs[i].4, if specs[i].4 { i as u64 } else { specs[i].3 }));

            let expected = deliver(shared, &temp_journal("in-order"), &batch, &in_order);
            let got = deliver(shared, &temp_journal("shuffled"), &batch, &shuffled);
            prop_assert_eq!(&got.0, &expected.0, "admitted sequence");
            prop_assert!(got.1 == expected.1, "journal bytes");
            prop_assert_eq!(got.2, expected.2, "folded tallies");
            let ids: Vec<u64> = got.0.iter().map(|o| o.strategy.id).collect();
            prop_assert_eq!(ids, (0..batch.len() as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn an_injected_journal_fault_is_absorbed_by_the_one_retry() {
        let path = temp_journal("retry");
        let recorder = Arc::new(Recorder::new());
        let plan = ChaosPlan {
            journal_fail_every: Some(1),
            ..ChaosPlan::default()
        };
        let shared = shared_with(&path, plan, recorder.clone());
        let admission = Admission::new(shared, Some(fresh_writer(&path)));
        for index in [1, 0, 2] {
            let o = outcome(index as u64, index as u64, false, OutcomeKind::Ok);
            admission.offer(index, o, Vec::new());
        }
        assert_eq!(admission.take_batch(3).len(), 3);
        admission.finish().expect("every fault was retried away");
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("campaign.journal_faults"), 3);
        assert_eq!(snapshot.counter("campaign.journal_retries"), 3);
        let loaded = crate::journal::load(&path).unwrap();
        assert_eq!(loaded.outcomes.len(), 3, "one line per admission");
        assert_eq!(loaded.malformed_lines, 0);
        std::fs::remove_file(&path).ok();
    }

    /// `/dev/full` accepts the open and fails every write with ENOSPC.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_write_that_fails_its_retry_too_surfaces_as_a_journal_error() {
        let path = Path::new("/dev/full");
        let recorder = Arc::new(Recorder::new());
        let shared = shared_with(path, ChaosPlan::default(), recorder.clone());
        let writer = JournalWriter::append(path).expect("/dev/full opens");
        let admission = Admission::new(shared, Some(writer));
        for index in [0, 1] {
            let o = outcome(index as u64, 0, false, OutcomeKind::Ok);
            admission.offer(index, o, Vec::new());
        }
        // Admission itself carries on; the campaign fails at the end.
        assert_eq!(admission.take_batch(2).len(), 2);
        assert_eq!(recorder.snapshot().counter("campaign.journal_retries"), 2);
        match admission.finish() {
            Err(CampaignError::Journal { path: p, source }) => {
                assert_eq!(p, path);
                assert_eq!(source.raw_os_error(), Some(28), "ENOSPC: {source}");
            }
            other => panic!("expected a journal error, got {other:?}"),
        }
    }
}

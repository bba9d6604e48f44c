use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use snake_netsim::FxHashMap;
use snake_observe::{self as observe, Observer};
use snake_proxy::{InjectionAttack, Strategy, StrategyKind};

use crate::attacks::{classify, cluster_attacks, AttackFinding};
use crate::detect::{baseline_valid, detect_enveloped, Envelope, Verdict, DEFAULT_THRESHOLD};
use crate::journal::{self, JournalHeader, JournalWriter};
use crate::memostore::{scenario_digest, MemoStore, MemoStoreReport, StoreScope};
use crate::scenario::{Executor, ExecutorOptions, PlannedExecutor, ScenarioSpec, TestMetrics};
use crate::segment::{self, SegmentEntry};
use crate::shard::{
    intern_counter, PoolWait, ShardEvent, ShardPool, DEFAULT_HEARTBEAT, DEFAULT_SHARD_TIMEOUT,
};
use crate::strategen::{generate_strategies, is_on_path, is_self_denial, GenerationParams};

/// Configuration of one campaign: one implementation under test, searched
/// exhaustively with the state-based strategy generator.
///
/// Built exclusively through [`CampaignConfig::builder`], which validates
/// the whole configuration once at
/// [`build`](CampaignConfigBuilder::build) time — so a `CampaignConfig`
/// that exists is a `CampaignConfig` that can run. The fields are private
/// on purpose: a public-field-mutation pattern would let callers assemble
/// configurations no validation ever saw (zero feedback rounds, `resume`
/// without a journal).
#[derive(Clone)]
pub struct CampaignConfig {
    // The scenario every strategy is tested in.
    pub(crate) scenario: ScenarioSpec,
    // Basic-attack parameter lists.
    pub(crate) params: GenerationParams,
    // Detection threshold (the paper's 50 %).
    pub(crate) threshold: f64,
    // Executor worker threads (the paper ran five executors).
    pub(crate) parallelism: usize,
    // Optional cap on the number of strategies to test (for quick runs).
    pub(crate) max_strategies: Option<usize>,
    // Feedback rounds of strategy generation: round 0 uses the baseline's
    // observations, later rounds add strategies for states first exposed
    // by attack runs.
    pub(crate) feedback_rounds: usize,
    // Re-test flagged strategies under a different seed (§V-A).
    pub(crate) retest: bool,
    // Streaming JSONL journal path.
    pub(crate) journal: Option<PathBuf>,
    // Reuse journaled outcomes instead of re-running them.
    pub(crate) resume: bool,
    // Progress line to stderr every N completed strategies (0 = off).
    pub(crate) progress_every: usize,
    // Fork baseline snapshots instead of replaying the attack-free prefix.
    pub(crate) snapshot_fork: bool,
    // Cross-strategy memoization (inert elision, class sharing,
    // fingerprint cache, no-op halt).
    pub(crate) memoize: bool,
    // Persistent cross-run fingerprint→verdict store path.
    pub(crate) memo_store: Option<PathBuf>,
    // Test-only fault injection inside the panic isolation boundary.
    pub(crate) fault_hook: Option<FaultHook>,
    // Deterministic chaos injection (panics, stalls, journal faults).
    pub(crate) chaos: Option<ChaosPlan>,
    // Ensemble size: how many seed-jittered no-attack baselines anchor
    // the detection envelope (1 = the legacy single baseline).
    pub(crate) baseline_reps: usize,
    // Per-evaluation wall-clock watchdog deadline (None = no watchdog).
    pub(crate) deadline: Option<Duration>,
    // How many times a stalled evaluation is retried before quarantine.
    pub(crate) stall_retries: usize,
    // Initial backoff between stall retries (doubles each attempt).
    pub(crate) stall_backoff: Duration,
    // Observability sink threaded through the executors and workers.
    pub(crate) observer: Arc<dyn Observer>,
    // Worker processes to shard strategy execution across (0 = in-process).
    pub(crate) shards: usize,
    // Listen address for externally launched shard workers (requires
    // `shards > 0`; workers are not spawned, the controller waits).
    pub(crate) shard_listen: Option<String>,
    // Worker binary override (defaults to the current executable).
    pub(crate) shard_worker_bin: Option<PathBuf>,
    // Read deadline on the shard wire: a worker silent for longer than
    // this (no outcome, no heartbeat) is declared dead — applies to the
    // handshake and to mid-evaluation reads alike.
    pub(crate) shard_timeout: Duration,
    // Interval at which shard workers send keep-alive heartbeats.
    pub(crate) heartbeat: Duration,
    // Explicit acknowledgment required to bind `shard_listen` to a
    // non-loopback address (the wire is digest-checked, not
    // authenticated).
    pub(crate) insecure_bind: bool,
}

/// Fault-injection hook called before each strategy evaluation, inside the
/// panic isolation boundary (see [`CampaignConfigBuilder::fault_hook`]).
pub type FaultHook = Arc<dyn Fn(&Strategy) + Send + Sync>;

/// A deterministic chaos schedule, generalizing the one-off
/// [`FaultHook`]: worker panics, evaluation stalls, and journal write
/// faults are injected by strategy id (and write ordinal), so the same
/// plan perturbs the same runs every time. Like a fault hook, an active
/// *evaluation* fault forces memoization off — an elided strategy would
/// never meet its scheduled fault.
///
/// The `wire_*`, `hang_worker_after` and `kill_controller_at` fields are
/// the distributed-campaign fault lane: they perturb the shard wire (by
/// outcome-frame ordinal, heartbeats excluded so timing noise cannot
/// change which frame is hit), hang a worker mid-campaign, or kill the
/// whole controller process at a chosen admission index. Wire faults
/// require `shards > 0` and leave evaluation untouched, so memoization
/// stays on and recovery must reproduce the unperturbed output exactly.
///
/// Chaos plans exist to prove the campaign runtime survives its
/// environment: panics must isolate, stalls must trip the watchdog,
/// journal faults must be retried, broken wires must re-dispatch, and a
/// killed controller must resume from worker segments — all without
/// changing which strategies get tested or what they produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    /// Panic inside the evaluation of every strategy whose id is a
    /// multiple of this (`None` = no injected panics).
    pub panic_every: Option<u64>,
    /// Stall (sleep) inside the evaluation of every strategy whose id is a
    /// multiple of this.
    pub stall_every: Option<u64>,
    /// How long an injected stall sleeps, in milliseconds.
    pub stall_for_ms: u64,
    /// Fail every Nth journal write with a transient I/O error (the
    /// campaign's single bounded retry must absorb it).
    pub journal_fail_every: Option<u64>,
    /// Drop every Nth outcome frame on the controller's read path. The
    /// shard then answers out of contract and is killed; its range is
    /// re-dispatched.
    pub wire_drop_every: Option<u64>,
    /// Truncate every Nth outcome frame (torn line: checksum missing).
    pub wire_truncate_every: Option<u64>,
    /// Corrupt every Nth outcome frame (payload flipped under an intact
    /// length: checksum mismatch).
    pub wire_corrupt_every: Option<u64>,
    /// Delay every Nth outcome frame by [`wire_delay_ms`](Self::wire_delay_ms)
    /// before delivering it (a slow-but-alive worker; nothing may die).
    pub wire_delay_every: Option<u64>,
    /// How long a delayed frame is held, in milliseconds.
    pub wire_delay_ms: u64,
    /// Make shard 0's initial worker go silent (heartbeats stopped, wire
    /// open, process alive) after sending this many outcomes — the shape
    /// of a livelocked worker; the controller's read deadline must fire.
    pub hang_worker_after: Option<u64>,
    /// Kill the whole controller process (exit code 23) immediately after
    /// admitting and journaling this many outcomes. A subsequent resume
    /// must rebuild the identical result from journal plus segments.
    pub kill_controller_at: Option<u64>,
}

/// An all-`None` plan, the base the presets patch (struct-update syntax
/// keeps each preset to the fields it actually sets).
const NO_CHAOS: ChaosPlan = ChaosPlan {
    panic_every: None,
    stall_every: None,
    stall_for_ms: 0,
    journal_fail_every: None,
    wire_drop_every: None,
    wire_truncate_every: None,
    wire_corrupt_every: None,
    wire_delay_every: None,
    wire_delay_ms: 0,
    hang_worker_after: None,
    kill_controller_at: None,
};

impl ChaosPlan {
    /// Built-in plans for the chaos test matrix.
    pub fn presets() -> &'static [(&'static str, ChaosPlan)] {
        const PRESETS: &[(&str, ChaosPlan)] = &[
            (
                "panics",
                ChaosPlan {
                    panic_every: Some(5),
                    ..NO_CHAOS
                },
            ),
            (
                "stalls",
                ChaosPlan {
                    stall_every: Some(7),
                    stall_for_ms: 400,
                    ..NO_CHAOS
                },
            ),
            (
                "journal",
                ChaosPlan {
                    journal_fail_every: Some(3),
                    ..NO_CHAOS
                },
            ),
            (
                "mayhem",
                ChaosPlan {
                    panic_every: Some(11),
                    stall_every: Some(13),
                    stall_for_ms: 400,
                    journal_fail_every: Some(5),
                    ..NO_CHAOS
                },
            ),
            (
                "wire-drop",
                ChaosPlan {
                    wire_drop_every: Some(4),
                    ..NO_CHAOS
                },
            ),
            (
                "wire-truncate",
                ChaosPlan {
                    wire_truncate_every: Some(5),
                    ..NO_CHAOS
                },
            ),
            (
                "wire-corrupt",
                ChaosPlan {
                    wire_corrupt_every: Some(5),
                    ..NO_CHAOS
                },
            ),
            (
                "wire-delay",
                ChaosPlan {
                    wire_delay_every: Some(3),
                    wire_delay_ms: 50,
                    ..NO_CHAOS
                },
            ),
            (
                "wire-hang",
                ChaosPlan {
                    hang_worker_after: Some(2),
                    ..NO_CHAOS
                },
            ),
            (
                "controller-kill",
                ChaosPlan {
                    kill_controller_at: Some(6),
                    ..NO_CHAOS
                },
            ),
        ];
        PRESETS
    }

    /// Looks up a built-in plan by name.
    pub fn preset(name: &str) -> Option<ChaosPlan> {
        ChaosPlan::presets()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| *p)
    }

    fn hits(every: Option<u64>, id: u64) -> bool {
        every.is_some_and(|n| n > 0 && id.is_multiple_of(n))
    }

    /// Applies the evaluation-side faults for `strategy` (called inside
    /// the panic isolation boundary). Stalls are applied before panics so
    /// a strategy scheduled for both exercises the watchdog first.
    pub fn apply(&self, strategy: &Strategy) {
        if ChaosPlan::hits(self.stall_every, strategy.id) && self.stall_for_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.stall_for_ms));
        }
        if ChaosPlan::hits(self.panic_every, strategy.id) {
            panic!("chaos: injected engine panic (strategy {})", strategy.id);
        }
    }

    /// Whether the `n`th journal write (1-based) is scheduled to fail.
    pub fn fails_journal_write(&self, n: u64) -> bool {
        ChaosPlan::hits(self.journal_fail_every, n)
    }

    /// Whether this plan injects *evaluation-side* faults (panics, stalls,
    /// journal write failures). Only these force memoization off and are
    /// incompatible with shards — they are in-process closures that cannot
    /// cross a process boundary.
    pub fn has_eval_faults(&self) -> bool {
        self.panic_every.is_some()
            || self.stall_every.is_some()
            || self.journal_fail_every.is_some()
    }

    /// Whether this plan injects shard-wire faults (frame drop / truncate
    /// / corrupt / delay, worker hang). These need a wire to act on, so
    /// they require `shards > 0`; the controller kill-switch is not
    /// counted here because it works in-process too.
    pub fn has_wire_faults(&self) -> bool {
        self.wire_drop_every.is_some()
            || self.wire_truncate_every.is_some()
            || self.wire_corrupt_every.is_some()
            || self.wire_delay_every.is_some()
            || self.hang_worker_after.is_some()
    }
}

impl fmt::Debug for CampaignConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignConfig")
            .field("scenario", &self.scenario)
            .field("params", &self.params)
            .field("threshold", &self.threshold)
            .field("parallelism", &self.parallelism)
            .field("max_strategies", &self.max_strategies)
            .field("feedback_rounds", &self.feedback_rounds)
            .field("retest", &self.retest)
            .field("journal", &self.journal)
            .field("resume", &self.resume)
            .field("progress_every", &self.progress_every)
            .field("snapshot_fork", &self.snapshot_fork)
            .field("memoize", &self.memoize)
            .field("memo_store", &self.memo_store)
            .field("fault_hook", &self.fault_hook.as_ref().map(|_| "<hook>"))
            .field("chaos", &self.chaos)
            .field("baseline_reps", &self.baseline_reps)
            .field("deadline", &self.deadline)
            .field("stall_retries", &self.stall_retries)
            .field("shards", &self.shards)
            .field("shard_listen", &self.shard_listen)
            .field("shard_worker_bin", &self.shard_worker_bin)
            .field("shard_timeout", &self.shard_timeout)
            .field("heartbeat", &self.heartbeat)
            .field("insecure_bind", &self.insecure_bind)
            .field("observer_enabled", &self.observer.enabled())
            .finish()
    }
}

impl CampaignConfig {
    /// Starts a builder with defaults mirroring the paper's setup (five
    /// executors, 50 % threshold, repeatability re-testing, two feedback
    /// rounds) and no observer.
    pub fn builder(scenario: ScenarioSpec) -> CampaignConfigBuilder {
        CampaignConfigBuilder {
            scenario,
            params: GenerationParams::default(),
            threshold: DEFAULT_THRESHOLD,
            parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_strategies: None,
            feedback_rounds: 2,
            retest: true,
            journal: None,
            resume: false,
            progress_every: 0,
            snapshot_fork: true,
            memoize: true,
            memo_store: None,
            fault_hook: None,
            chaos: None,
            baseline_reps: 1,
            deadline: None,
            stall_retries: 2,
            stall_backoff: Duration::from_millis(50),
            observer: observe::noop(),
            shards: 0,
            shard_listen: None,
            shard_worker_bin: None,
            shard_timeout: None,
            heartbeat: None,
            insecure_bind: false,
        }
    }
}

/// Validating builder for [`CampaignConfig`] — the only way to construct
/// one. Every setter is chainable; [`build`](CampaignConfigBuilder::build)
/// checks the combination and returns
/// [`CampaignError::InvalidConfig`] / [`CampaignError::ResumeWithoutJournal`]
/// instead of letting a nonsensical campaign start.
#[derive(Clone)]
pub struct CampaignConfigBuilder {
    scenario: ScenarioSpec,
    params: GenerationParams,
    threshold: f64,
    parallelism: usize,
    max_strategies: Option<usize>,
    feedback_rounds: usize,
    retest: bool,
    journal: Option<PathBuf>,
    resume: bool,
    progress_every: usize,
    snapshot_fork: bool,
    memoize: bool,
    memo_store: Option<PathBuf>,
    fault_hook: Option<FaultHook>,
    chaos: Option<ChaosPlan>,
    baseline_reps: usize,
    deadline: Option<Duration>,
    stall_retries: usize,
    stall_backoff: Duration,
    observer: Arc<dyn Observer>,
    shards: usize,
    shard_listen: Option<String>,
    shard_worker_bin: Option<PathBuf>,
    shard_timeout: Option<Duration>,
    heartbeat: Option<Duration>,
    insecure_bind: bool,
}

impl fmt::Debug for CampaignConfigBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignConfigBuilder")
            .field("scenario", &self.scenario)
            .field("threshold", &self.threshold)
            .field("parallelism", &self.parallelism)
            .field("max_strategies", &self.max_strategies)
            .field("feedback_rounds", &self.feedback_rounds)
            .field("retest", &self.retest)
            .field("journal", &self.journal)
            .field("resume", &self.resume)
            .finish_non_exhaustive()
    }
}

impl CampaignConfigBuilder {
    /// Basic-attack parameter lists for the strategy generator.
    pub fn params(mut self, params: GenerationParams) -> Self {
        self.params = params;
        self
    }

    /// Detection threshold as a fraction (the paper's 50 % is `0.5`).
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Executor worker threads.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Caps the number of strategies tested (quick runs, benchmarks).
    pub fn cap(mut self, max_strategies: usize) -> Self {
        self.max_strategies = Some(max_strategies);
        self
    }

    /// How many feedback rounds of strategy generation to run.
    pub fn feedback_rounds(mut self, rounds: usize) -> Self {
        self.feedback_rounds = rounds;
        self
    }

    /// Re-test flagged strategies under a different seed and keep only
    /// repeatable ones (§V-A).
    pub fn retest(mut self, retest: bool) -> Self {
        self.retest = retest;
        self
    }

    /// Streams every outcome to a JSONL journal at `path` as it completes,
    /// so a killed campaign leaves a usable record behind.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Reuses outcomes already recorded in the journal instead of
    /// re-running them. Requires [`journal`](Self::journal).
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Prints a progress line to stderr every `n` completed strategies
    /// (0 disables progress output).
    pub fn progress_every(mut self, n: usize) -> Self {
        self.progress_every = n;
        self
    }

    /// Executes strategies by forking snapshots of the no-attack baseline
    /// instead of replaying the attack-free prefix from scratch (see
    /// [`PlannedExecutor`]). Results are identical either way — the
    /// planner falls back to from-scratch runs whenever fork equivalence
    /// cannot be guaranteed — so this is purely a throughput knob.
    pub fn snapshot_fork(mut self, snapshot_fork: bool) -> Self {
        self.snapshot_fork = snapshot_fork;
        self
    }

    /// Memoizes across strategies: statically provable wire no-ops are
    /// answered with the baseline outcome, trigger-equivalent `OnState`
    /// strategies share one representative run, runs whose wire-effect
    /// fingerprint was seen before share the cached verdict, and the
    /// executor halts runs whose rules are spent without a wire effect.
    /// Every shortcut is conditioned on the snapshot planner's determinism
    /// guard (same philosophy: memoization is disabled whenever identical
    /// replay cannot be guaranteed), so outcomes are bit-identical with
    /// memoization off — this too is purely a throughput knob. Forced off
    /// when a `fault_hook` is installed, because an elided strategy never
    /// reaches the hook.
    pub fn memoize(mut self, memoize: bool) -> Self {
        self.memoize = memoize;
        self
    }

    /// Persists the wire-effect fingerprint → verdict cache across
    /// campaign processes: verdicts are loaded from the checksummed store
    /// at `path` when the run starts and new ones are appended as it goes
    /// (see [`MemoStore`]). Entries are keyed by scenario digest,
    /// implementation, seed and impairment spec, so a store can be shared
    /// between arbitrary campaigns — entries from a different
    /// configuration simply never match. Purely an accounting and
    /// persistence layer: verdicts are still computed fresh every run, so
    /// outcomes are bit-identical with the store cold, warm, damaged or
    /// absent. Requires [`memoize`](Self::memoize) (the default); silently
    /// inactive when a `fault_hook` or `chaos` plan forces memoization
    /// off.
    pub fn memo_store(mut self, path: impl Into<PathBuf>) -> Self {
        self.memo_store = Some(path.into());
        self
    }

    /// Test-only fault injection: `hook` is called with each strategy
    /// right before its evaluation, inside the panic isolation boundary.
    /// A hook that panics simulates a crashing engine run.
    pub fn fault_hook(mut self, hook: FaultHook) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// Installs a deterministic [`ChaosPlan`]: scheduled worker panics,
    /// evaluation stalls, and transient journal write faults. Forces
    /// memoization off, like [`fault_hook`](Self::fault_hook).
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Anchors detection on an ensemble of `reps` seed-jittered no-attack
    /// baselines instead of a single run: verdicts flag only outside the
    /// median/MAD envelope the ensemble spans (see
    /// [`Envelope`](crate::detect::Envelope)), and borderline verdicts are
    /// escalated to a confirmatory re-test. `1` (the default) keeps the
    /// legacy single-baseline comparison bit for bit. Use ≥ 3 whenever
    /// link impairments make runs noisy.
    pub fn baseline_reps(mut self, reps: usize) -> Self {
        self.baseline_reps = reps;
        self
    }

    /// Arms the per-evaluation watchdog: an evaluation that produces no
    /// outcome within `deadline` of wall-clock time is abandoned and
    /// retried (with exponential backoff), and after the retry budget the
    /// strategy is quarantined as [`OutcomeKind::Stalled`] — the campaign
    /// keeps going instead of hanging. The stalled worker thread is
    /// detached, not killed; it can finish late harmlessly because
    /// outcomes are only journaled by the watchdog's caller.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// How many times a stalled evaluation is retried before quarantine
    /// (default 2; 0 quarantines on the first stall).
    pub fn stall_retries(mut self, retries: usize) -> Self {
        self.stall_retries = retries;
        self
    }

    /// Initial wait before a stall retry; doubles on each further retry
    /// (default 50 ms).
    pub fn stall_backoff(mut self, backoff: Duration) -> Self {
        self.stall_backoff = backoff;
        self
    }

    /// Shard strategy execution across `n` worker *processes* (0, the
    /// default, keeps everything in this process). The controller still
    /// owns generation, verdicts, journal, memo store and admission
    /// order, so results are bit-identical at any shard count; if every
    /// worker dies the campaign degrades to in-process execution.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Listen on `addr` for externally launched `snake shard-worker
    /// --connect` processes instead of spawning children. Requires
    /// [`shards`](Self::shards) to say how many to wait for.
    pub fn shard_listen(mut self, addr: impl Into<String>) -> Self {
        self.shard_listen = Some(addr.into());
        self
    }

    /// Binary to spawn shard workers from (default: the current
    /// executable). Lets test harnesses point at the real `snake` binary.
    pub fn shard_worker_bin(mut self, path: impl Into<PathBuf>) -> Self {
        self.shard_worker_bin = Some(path.into());
        self
    }

    /// Read deadline on the shard wire (default 10 s): handshake *and*
    /// mid-evaluation silence longer than this declares the worker dead
    /// (hung or partitioned — heartbeats keep a merely slow worker
    /// alive). Requires `shards > 0`; must exceed
    /// [`heartbeat`](Self::heartbeat).
    pub fn shard_timeout(mut self, timeout: Duration) -> Self {
        self.shard_timeout = Some(timeout);
        self
    }

    /// Interval at which shard workers send keep-alive heartbeats
    /// (default 2 s). Requires `shards > 0`; must be shorter than
    /// [`shard_timeout`](Self::shard_timeout).
    pub fn heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = Some(interval);
        self
    }

    /// Acknowledges that [`shard_listen`](Self::shard_listen) may bind a
    /// non-loopback address. The handshake is digest-checked (a worker
    /// with a different scenario is refused) but not authenticated, so
    /// exposing the controller beyond the host is an explicit opt-in.
    pub fn insecure_bind(mut self, insecure: bool) -> Self {
        self.insecure_bind = insecure;
        self
    }

    /// Observability sink for the campaign: phase spans, executor and
    /// netsim counters, per-worker histograms. Pass an
    /// [`observe::Recorder`](snake_observe::Recorder) wrapped in an `Arc`
    /// and snapshot it after the run to build a
    /// [`RunManifest`](snake_observe::RunManifest). The default is the
    /// no-op observer, which compiles the instrumentation down to nothing.
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = observer;
        self
    }

    /// Validates the configuration and produces the [`CampaignConfig`].
    pub fn build(self) -> Result<CampaignConfig, CampaignError> {
        let invalid = |detail: String| Err(CampaignError::InvalidConfig { detail });
        if !self.threshold.is_finite() || self.threshold <= 0.0 {
            return invalid(format!(
                "threshold must be a finite fraction above zero, got {}",
                self.threshold
            ));
        }
        if self.parallelism == 0 {
            return invalid("parallelism must be at least one worker".to_owned());
        }
        if self.feedback_rounds == 0 {
            return invalid(
                "feedback_rounds must be at least one (round 0 is the baseline round)".to_owned(),
            );
        }
        if self.resume && self.journal.is_none() {
            return Err(CampaignError::ResumeWithoutJournal);
        }
        if self.baseline_reps == 0 {
            return invalid("baseline_reps must be at least one".to_owned());
        }
        if self.deadline.is_some_and(|d| d.is_zero()) {
            return invalid("watchdog deadline must be longer than zero".to_owned());
        }
        if self.shards > 0
            && (self.fault_hook.is_some() || self.chaos.is_some_and(|c| c.has_eval_faults()))
        {
            return invalid(
                "shards cannot combine with fault injection: hooks and \
                 evaluation-side chaos are in-process closures that cannot \
                 cross a process boundary (wire chaos is fine)"
                    .to_owned(),
            );
        }
        if self.shards == 0 && self.chaos.is_some_and(|c| c.has_wire_faults()) {
            return invalid(
                "wire chaos faults need a shard wire to act on: set shards > 0".to_owned(),
            );
        }
        if self.shards == 0 && (self.shard_listen.is_some() || self.shard_worker_bin.is_some()) {
            return invalid("shard_listen / shard_worker_bin require shards > 0".to_owned());
        }
        if self.shards == 0 && (self.shard_timeout.is_some() || self.heartbeat.is_some()) {
            return invalid("shard_timeout / heartbeat require shards > 0".to_owned());
        }
        if self.shard_timeout.is_some_and(|t| t.is_zero())
            || self.heartbeat.is_some_and(|t| t.is_zero())
        {
            return invalid("shard_timeout and heartbeat must be longer than zero".to_owned());
        }
        let shard_timeout = self.shard_timeout.unwrap_or(DEFAULT_SHARD_TIMEOUT);
        let heartbeat = self.heartbeat.unwrap_or(DEFAULT_HEARTBEAT);
        if self.shards > 0 && heartbeat >= shard_timeout {
            return invalid(format!(
                "heartbeat ({heartbeat:?}) must be shorter than shard_timeout \
                 ({shard_timeout:?}), or every worker is declared dead between beats"
            ));
        }
        match &self.shard_listen {
            Some(addr) if !listen_is_loopback(addr) && !self.insecure_bind => {
                return invalid(format!(
                    "shard_listen address {addr} is not loopback; binding it \
                     exposes an unauthenticated control wire — pass \
                     insecure_bind (--insecure-bind) to acknowledge"
                ));
            }
            _ => {}
        }
        if self.insecure_bind && self.shard_listen.is_none() {
            return invalid(
                "insecure_bind acknowledges a non-loopback shard_listen; \
                 there is nothing to acknowledge without one"
                    .to_owned(),
            );
        }
        if self.memo_store.is_some() && !self.memoize {
            return invalid(
                "memo_store requires memoize: the persistent store is the \
                 fingerprint cache's disk layer"
                    .to_owned(),
            );
        }
        Ok(CampaignConfig {
            scenario: self.scenario,
            params: self.params,
            threshold: self.threshold,
            parallelism: self.parallelism,
            max_strategies: self.max_strategies,
            feedback_rounds: self.feedback_rounds,
            retest: self.retest,
            journal: self.journal,
            resume: self.resume,
            progress_every: self.progress_every,
            snapshot_fork: self.snapshot_fork,
            memoize: self.memoize,
            memo_store: self.memo_store,
            fault_hook: self.fault_hook,
            chaos: self.chaos,
            baseline_reps: self.baseline_reps,
            deadline: self.deadline,
            stall_retries: self.stall_retries,
            stall_backoff: self.stall_backoff,
            observer: self.observer,
            shards: self.shards,
            shard_listen: self.shard_listen,
            shard_worker_bin: self.shard_worker_bin,
            shard_timeout,
            heartbeat,
            insecure_bind: self.insecure_bind,
        })
    }
}

/// Whether a `shard_listen` address names the loopback interface. An
/// unparseable address is treated as non-loopback: the caller must
/// acknowledge anything we cannot prove local.
fn listen_is_loopback(addr: &str) -> bool {
    match addr.parse::<std::net::SocketAddr>() {
        Ok(sa) => sa.ip().is_loopback(),
        Err(_) => addr
            .rsplit_once(':')
            .is_some_and(|(host, _)| host == "localhost"),
    }
}

/// Why a campaign could not run (as opposed to running and finding
/// nothing).
#[derive(Debug)]
pub enum CampaignError {
    /// The no-attack baseline moved zero bytes on the target connection,
    /// so no throughput comparison can be anchored. The scenario (or the
    /// implementation model) is broken; running strategies against it
    /// would produce garbage verdicts.
    InvalidBaseline {
        /// The implementation whose baseline failed.
        implementation: String,
    },
    /// Reading or writing the journal failed.
    Journal {
        /// The journal path.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The journal belongs to a different campaign (implementation, seed,
    /// or threshold differ), so resuming from it would mix results.
    JournalMismatch {
        /// The journal path.
        path: PathBuf,
        /// What differed.
        detail: String,
    },
    /// Opening the persistent memo store failed with a real I/O error
    /// (a damaged store is recovered from, not an error — see
    /// [`MemoStore::open`]).
    MemoStore {
        /// The store path.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// `resume` was requested without a journal path to resume from.
    ResumeWithoutJournal,
    /// The builder rejected the configuration (non-finite threshold, zero
    /// workers, zero feedback rounds, …) before anything ran.
    InvalidConfig {
        /// Human-readable description of the rejected combination.
        detail: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::InvalidBaseline { implementation } => write!(
                f,
                "baseline run for {implementation} transferred no data; \
                 the scenario cannot anchor attack detection"
            ),
            CampaignError::Journal { path, source } => {
                write!(f, "journal {}: {source}", path.display())
            }
            CampaignError::JournalMismatch { path, detail } => {
                write!(
                    f,
                    "journal {} is from a different campaign: {detail}",
                    path.display()
                )
            }
            CampaignError::MemoStore { path, source } => {
                write!(f, "memo store {}: {source}", path.display())
            }
            CampaignError::ResumeWithoutJournal => {
                f.write_str("resume requested without a journal path")
            }
            CampaignError::InvalidConfig { detail } => {
                write!(f, "invalid campaign configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Journal { source, .. } | CampaignError::MemoStore { source, .. } => {
                Some(source)
            }
            _ => None,
        }
    }
}

/// How a strategy's evaluation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// The run completed normally; the verdict is meaningful.
    Ok,
    /// The engine panicked while evaluating the strategy. The panic was
    /// contained, the metrics are zeroed, and the verdict is empty.
    Errored,
    /// The run hit the scenario's event budget (a livelock guard) and was
    /// cut short; the verdict is empty because partial throughput cannot
    /// be compared against a full-length baseline.
    Truncated,
    /// The evaluation produced no outcome within the watchdog's wall-clock
    /// deadline, was retried up to the retry budget, and was quarantined.
    /// The metrics are zeroed and the verdict is empty; the campaign
    /// continues instead of hanging (see
    /// [`CampaignConfigBuilder::deadline`]).
    Stalled,
}

impl OutcomeKind {
    /// Stable lower-case label, used in the journal and TSV export.
    pub fn label(self) -> &'static str {
        match self {
            OutcomeKind::Ok => "ok",
            OutcomeKind::Errored => "errored",
            OutcomeKind::Truncated => "truncated",
            OutcomeKind::Stalled => "stalled",
        }
    }
}

/// The outcome of testing one strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyOutcome {
    /// The strategy tested.
    pub strategy: Strategy,
    /// Detection verdict against the baseline (empty unless `outcome_kind`
    /// is [`OutcomeKind::Ok`]).
    pub verdict: Verdict,
    /// Raw metrics of the (first) attack run.
    pub metrics: TestMetrics,
    /// Whether the flagged result repeated under a different seed.
    pub repeatable: bool,
    /// Whether the strategy requires an on-path attacker.
    pub on_path: bool,
    /// Whether the inert-volume control run showed the impact comes from
    /// packet volume rather than protocol effect (hitseqwindow false
    /// positives, §VI-A).
    pub false_positive: bool,
    /// Whether the evaluation completed, panicked, or was truncated.
    pub outcome_kind: OutcomeKind,
    /// The panic message, when `outcome_kind` is [`OutcomeKind::Errored`].
    pub error: Option<String>,
    /// How memoization produced (or shortened) this outcome: `"inert"`
    /// (statically provable wire no-op, answered with the baseline),
    /// `"class"` (shared the run of a trigger-equivalent representative),
    /// `"fp"` (verdict served from the wire-effect fingerprint cache), or
    /// `"halt"` (the proxy halted the run once every rule was spent
    /// without a wire effect and substituted the baseline). `None` for
    /// outcomes whose run went the ordinary distance. Recorded in the
    /// journal so `--resume` replays memoized outcomes exactly.
    pub memo: Option<String>,
}

impl StrategyOutcome {
    /// Flagged, repeatable, not on-path, not a false positive — and from a
    /// run that actually completed: a true attack strategy (the paper's
    /// final per-row count).
    pub fn is_true_attack(&self) -> bool {
        self.outcome_kind == OutcomeKind::Ok
            && self.verdict.flagged()
            && self.repeatable
            && !self.on_path
            && !self.false_positive
    }
}

/// The paper's *controller*: generates strategies, dispatches them to
/// executors, and judges the outcomes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Controller;

/// A full campaign against one implementation — one row of Table I.
#[derive(Debug, Clone, Copy, Default)]
pub struct Campaign;

/// Aggregated results of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Protocol name ("TCP" / "DCCP").
    pub protocol: String,
    /// Implementation name.
    pub implementation: String,
    /// The baseline (no-attack) metrics.
    pub baseline: TestMetrics,
    /// Every strategy outcome.
    pub outcomes: Vec<StrategyOutcome>,
    /// Unique attacks found (clusters of true attack strategies).
    pub findings: Vec<AttackFinding>,
    /// Outcomes reused from a resumed journal instead of re-run.
    pub resumed: usize,
    /// Journal lines that could not be parsed on resume (a killed writer
    /// can leave a partial final line; it is skipped, not fatal).
    pub journal_lines_skipped: usize,
    /// Memoization hits: outcomes that shared a trigger-equivalent
    /// representative's run (`memo == "class"`) plus verdicts served from
    /// the wire-effect fingerprint cache (`memo == "fp"`). Derived by
    /// counting the outcome markers, so the run manifest's memo breakdown
    /// always sums back to this field. Zero when memoization is off.
    pub memo_hits: usize,
    /// Runs short-circuited outright: statically provable wire no-ops
    /// answered with the baseline outcome (`memo == "inert"`) plus main
    /// runs the proxy halted once every rule was spent without a wire
    /// effect (`memo == "halt"`). Derived from the outcome markers;
    /// auxiliary halts (re-test and control runs) show up in the
    /// executors' own tallies, not here. Zero when memoization is off.
    pub short_circuits: usize,
    /// How many seed-jittered baselines anchor the detection envelope
    /// (1 = the legacy single baseline).
    pub baseline_reps: usize,
    /// The detection envelope every verdict was judged against.
    pub envelope: Envelope,
    /// Borderline verdicts escalated to a confirmatory re-test (only
    /// tallied when `baseline_reps > 1`).
    pub escalated: usize,
    /// Watchdog deadline expiries, counting every attempt (one strategy
    /// retried twice contributes three).
    pub stalls: usize,
    /// Strategies quarantined as [`OutcomeKind::Stalled`] after the
    /// watchdog's retry budget ran out.
    pub quarantined: usize,
    /// What the persistent memo store did, when one was configured and
    /// active (`None` when no store was set, or when a fault hook / chaos
    /// plan forced memoization — and with it the store — off).
    pub memo_store: Option<MemoStoreReport>,
}

impl CampaignResult {
    /// Table I: strategies tried.
    pub fn strategies_tried(&self) -> usize {
        self.outcomes.len()
    }

    /// Table I: attack strategies found (flagged and repeatable, from
    /// completed runs).
    pub fn attack_strategies_found(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.outcome_kind == OutcomeKind::Ok && o.verdict.flagged() && o.repeatable)
            .count()
    }

    /// Table I: of the found strategies, those requiring an on-path
    /// attacker.
    pub fn on_path_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| {
                o.outcome_kind == OutcomeKind::Ok
                    && o.verdict.flagged()
                    && o.repeatable
                    && o.on_path
            })
            .count()
    }

    /// Table I: of the found strategies, hitseqwindow volume artefacts.
    pub fn false_positive_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| {
                o.outcome_kind == OutcomeKind::Ok
                    && o.verdict.flagged()
                    && o.repeatable
                    && !o.on_path
                    && o.false_positive
            })
            .count()
    }

    /// Table I: true attack strategies.
    pub fn true_attack_strategies(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_true_attack()).count()
    }

    /// Table I: unique true attacks after clustering.
    pub fn true_attacks(&self) -> usize {
        self.findings.len()
    }

    /// Strategies whose evaluation panicked (contained, not fatal).
    pub fn errored(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.outcome_kind == OutcomeKind::Errored)
            .count()
    }

    /// Strategies whose run hit the event budget and was cut short.
    pub fn truncated(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.outcome_kind == OutcomeKind::Truncated)
            .count()
    }

    /// Strategies quarantined by the watchdog as stalled.
    pub fn stalled(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.outcome_kind == OutcomeKind::Stalled)
            .count()
    }

    /// Exports every strategy outcome as tab-separated values (one row per
    /// strategy) for offline analysis — the controller-side log the
    /// paper's authors worked from when separating on-path strategies and
    /// false positives by hand. Free-text fields (the strategy description
    /// and panic messages) are escaped so each outcome stays exactly one
    /// row with a fixed column count.
    pub fn export_outcomes_tsv(&self) -> String {
        let mut out = String::from(
            "id\tstrategy\toutcome\tflagged\trepeatable\ton_path\tfalse_positive\ttrue_attack\teffects\ttarget_bytes\tcompeting_bytes\tleaked_sockets\terror\n",
        );
        for o in &self.outcomes {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                o.strategy.id,
                tsv_escape(&o.strategy.describe()),
                o.outcome_kind.label(),
                o.verdict.flagged(),
                o.repeatable,
                o.on_path,
                o.false_positive,
                o.is_true_attack(),
                o.verdict.labels().join(","),
                o.metrics.target_bytes,
                o.metrics.competing_bytes,
                o.metrics.leaked_sockets,
                tsv_escape(o.error.as_deref().unwrap_or("")),
            ));
        }
        out
    }

    /// Renders this campaign as one Table I row.
    pub fn table_row(&self) -> String {
        format!(
            "| {:<5} | {:<13} | {:>16} | {:>23} | {:>15} | {:>15} | {:>22} | {:>12} | {:>7} | {:>9} |",
            self.protocol,
            self.implementation,
            self.strategies_tried(),
            self.attack_strategies_found(),
            self.on_path_count(),
            self.false_positive_count(),
            self.true_attack_strategies(),
            self.true_attacks(),
            self.errored(),
            self.truncated()
        )
    }
}

/// Escapes a free-text value for one TSV cell: backslash, tab, newline and
/// carriage return become two-character escapes, so the row and column
/// structure of the export survives any `Strategy::describe()` output.
fn tsv_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

#[derive(Default)]
struct Progress {
    done: usize,
    errored: usize,
    truncated: usize,
    stalled: usize,
}

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
        let spec = config.scenario.clone();
        // A fault hook (or evaluation-side chaos) must see every strategy,
        // so memoization (which answers some strategies without ever
        // evaluating them) is forced off under fault injection. Wire-side
        // chaos never touches evaluation, so it leaves memoization alone —
        // that is exactly what lets the wire-chaos tests demand output
        // identical to an unperturbed run.
        let memoize = config.memoize
            && config.fault_hook.is_none()
            && !config.chaos.is_some_and(|c| c.has_eval_faults());
        let exec_options = ExecutorOptions {
            snapshot_fork: config.snapshot_fork,
            memoize,
            halt_arming: true,
            observer: config.observer.clone(),
        };
        let exec = PlannedExecutor::new(&spec, exec_options.clone());
        let baseline = exec.baseline().clone();
        if !baseline_valid(&baseline) {
            return Err(CampaignError::InvalidBaseline {
                implementation: spec.protocol.implementation_name().to_owned(),
            });
        }
        // The repeatability re-test compares a different-seed attack run
        // against the matching different-seed baseline.
        let retest_spec = ScenarioSpec {
            seed: spec.seed.wrapping_add(1),
            ..spec.clone()
        };
        let retest_exec = if config.retest {
            Some(PlannedExecutor::new(&retest_spec, exec_options))
        } else {
            None
        };

        // Detection envelopes. With `baseline_reps == 1` the envelope is
        // the single baseline and `detect_enveloped` degenerates to the
        // legacy `detect` — bit-identical verdicts. With reps ≥ 2, K−1
        // extra seed-jittered no-attack runs widen the band by the noise
        // the scenario (impairments included) actually exhibits.
        let envelope = {
            let _span = observe::span(config.observer.as_ref(), "phase.ensemble", 0);
            build_envelope(&spec, &baseline, config.baseline_reps, config.threshold)
        };
        let retest_envelope = retest_exec.as_ref().map(|retest| {
            let _span = observe::span(config.observer.as_ref(), "phase.ensemble", 0);
            build_envelope(
                &retest_spec,
                retest.baseline(),
                config.baseline_reps,
                config.threshold,
            )
        });
        if config.observer.enabled() {
            let obs = config.observer.as_ref();
            obs.counter_add("detect.envelope.members", envelope.members as u64);
            obs.counter_add(
                "detect.envelope.target_lo",
                envelope.target_lo.max(0.0) as u64,
            );
            obs.counter_add(
                "detect.envelope.target_hi",
                envelope.target_hi.max(0.0) as u64,
            );
            obs.counter_add(
                "detect.envelope.width_permille",
                (envelope.target_width_fraction() * 1000.0) as u64,
            );
        }

        // Journal setup: load previous outcomes when resuming, then keep a
        // writer open for streaming appends. The header records the
        // memoization and impairment settings alongside the campaign
        // identity, so appending to a journal written under different
        // memo/impairment semantics is refused instead of silently mixing
        // provenance markers (or metrics) from two different worlds.
        let impairment_label = spec.bottleneck().impair.to_string();
        let header = JournalHeader {
            implementation: spec.protocol.implementation_name().to_owned(),
            seed: spec.seed,
            threshold: config.threshold,
            memoize: Some(memoize),
            impairment: Some(impairment_label.clone()),
        };
        let mut reusable: BTreeMap<u64, journal::JournalEntry> = BTreeMap::new();
        let mut journal_lines_skipped = 0;
        let writer: Option<JournalWriter> = match (&config.journal, config.resume) {
            (None, true) => return Err(CampaignError::ResumeWithoutJournal),
            (None, false) => None,
            (Some(path), resume) => {
                let journal_err = |source| CampaignError::Journal {
                    path: path.clone(),
                    source,
                };
                if resume {
                    // Stream the journal line by line: a 1M-strategy
                    // journal replays without ever holding the whole file
                    // in memory (only the reusable outcomes themselves).
                    let mut reader = journal::JournalReader::open(path).map_err(journal_err)?;
                    if let Some(detail) = reader.header().and_then(|h| h.mismatch_against(&header))
                    {
                        return Err(CampaignError::JournalMismatch {
                            path: path.clone(),
                            detail,
                        });
                    }
                    let writer = if reader.header().is_some() {
                        while let Some(entry) = reader.next_entry().map_err(journal_err)? {
                            reusable.insert(entry.outcome.strategy.id, entry);
                        }
                        Some(JournalWriter::append(path).map_err(journal_err)?)
                    } else {
                        // Missing or headerless journal: resuming from
                        // nothing is just a fresh run. Drain the reader
                        // first so damaged-line accounting matches what a
                        // whole-file load reported.
                        while reader.next_entry().map_err(journal_err)?.is_some() {}
                        Some(JournalWriter::create(path, &header).map_err(journal_err)?)
                    };
                    journal_lines_skipped = reader.malformed_lines();
                    writer
                } else {
                    Some(JournalWriter::create(path, &header).map_err(journal_err)?)
                }
            }
        };

        let digest = scenario_digest(&spec, config.threshold, config.baseline_reps);

        // Journal segments — the worker-side crash-tolerance layer. A
        // resuming controller merges whatever the crashed run's workers
        // wrote (journal wins on overlap) into a prefetch map, replayed
        // through the ordinary admission path below so nothing a worker
        // already evaluated runs again. The merged files stay on disk
        // until this run completes: if the resume itself crashes before
        // re-journaling a prefetched outcome, the next resume still finds
        // it — the controller pid in segment filenames keeps this run's
        // own workers from overwriting them. A fresh run instead clears
        // stale segments so it cannot inherit another campaign's.
        let mut seg_dir = config.journal.as_deref().map(segment::segment_dir);
        let mut prefetch: BTreeMap<u64, SegmentEntry> = BTreeMap::new();
        if let Some(dir) = &seg_dir {
            if config.resume {
                match segment::merge(dir, digest, memoize, |id| reusable.contains_key(&id)) {
                    Ok(merge) => {
                        config
                            .observer
                            .counter_add("shard.segments.merged", merge.merged);
                        config
                            .observer
                            .counter_add("shard.segments.discarded", merge.discarded);
                        prefetch = merge.entries;
                    }
                    Err(err) => {
                        eprintln!(
                            "snake: segment merge failed ({err}); resuming from the journal alone"
                        );
                    }
                }
            } else {
                segment::clear_dir(dir);
            }
            if config.shards > 0 {
                if let Err(err) = std::fs::create_dir_all(dir) {
                    eprintln!(
                        "snake: cannot create segment directory {} ({err}); \
                         workers will not write segments",
                        dir.display()
                    );
                    seg_dir = None;
                }
            }
        }

        // Controller kill-switch: exit the whole process (code 23) right
        // after the Nth admission reaches the journal — the fault the
        // segment layer exists to survive. Driven by the chaos plan or,
        // for out-of-process harnesses (CI), an environment variable.
        let kill_at: Option<u64> = config.chaos.and_then(|c| c.kill_controller_at).or_else(|| {
            std::env::var("SNAKE_CONTROLLER_EXIT_AT")
                .ok()
                .and_then(|v| v.parse().ok())
        });
        let admissions = AtomicU64::new(0);

        // Persistent memo store: opened only while memoization is live (a
        // fault hook or chaos plan that forces memoization off silently
        // deactivates the store with it). The store never influences a
        // verdict or a memo marker — admission always computes verdicts
        // fresh — so outcomes are bit-identical with the store cold, warm
        // or absent; what it adds is persistence and cross-run hit
        // accounting.
        let store = match (&config.memo_store, memoize) {
            (Some(path), true) => {
                Some(
                    MemoStore::open(path).map_err(|source| CampaignError::MemoStore {
                        path: path.clone(),
                        source,
                    })?,
                )
            }
            _ => None,
        };
        let scope = StoreScope {
            scenario_digest: digest,
            implementation: spec.protocol.implementation_name().to_owned(),
            seed: spec.seed,
            impairment: impairment_label,
        };
        let ledger = Mutex::new(MemoLedger::new(memoize, store, scope));

        let journal_cell = writer.map(Mutex::new);
        let journal_error: Mutex<Option<io::Error>> = Mutex::new(None);
        let journal_writes = AtomicU64::new(0);
        let progress = Mutex::new(Progress::default());
        let progress_every = config.progress_every;
        let chaos = config.chaos;
        let observer_for_journal = config.observer.clone();
        let on_outcome = |outcome: &StrategyOutcome, counters: Option<&[(String, u64)]>| {
            if let Some(cell) = &journal_cell {
                let mut writer = cell.lock().unwrap_or_else(|e| e.into_inner());
                let n = journal_writes.fetch_add(1, Ordering::Relaxed) + 1;
                let counters = counters.unwrap_or(&[]);
                let mut result = if chaos.is_some_and(|c| c.fails_journal_write(n)) {
                    observer_for_journal.counter_add("campaign.journal_faults", 1);
                    Err(io::Error::other("chaos: injected journal write failure"))
                } else {
                    writer.record_with_counters(outcome, counters)
                };
                if result.is_err() {
                    // One bounded retry: a transient write failure (or an
                    // injected chaos fault) gets a second chance before
                    // the campaign aborts with a journal error.
                    observer_for_journal.counter_add("campaign.journal_retries", 1);
                    result = writer.record_with_counters(outcome, counters);
                }
                if let Err(e) = result {
                    let mut slot = journal_error.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                }
            }
            if let Some(n) = kill_at {
                // The admission is journaled; die exactly here, before any
                // later-index outcome can be admitted.
                if admissions.fetch_add(1, Ordering::Relaxed) + 1 == n {
                    std::process::exit(23);
                }
            }
            if progress_every > 0 {
                let mut p = progress.lock().unwrap_or_else(|e| e.into_inner());
                p.done += 1;
                match outcome.outcome_kind {
                    OutcomeKind::Ok => {}
                    OutcomeKind::Errored => p.errored += 1,
                    OutcomeKind::Truncated => p.truncated += 1,
                    OutcomeKind::Stalled => p.stalled += 1,
                }
                if p.done % progress_every == 0 {
                    eprintln!(
                        "campaign: {} strategies tested ({} errored, {} truncated, {} stalled)",
                        p.done, p.errored, p.truncated, p.stalled
                    );
                }
            }
        };

        let mut next_id = 0u64;
        let mut seen = BTreeSet::new();
        let mut outcomes: Vec<StrategyOutcome> = Vec::new();
        let mut resumed = 0usize;
        let mut reports = vec![baseline.proxy.clone()];
        let shared = Arc::new(SharedCtx {
            exec,
            retest_exec,
            config: config.clone(),
            memoize,
            envelope,
            retest_envelope,
            escalated: AtomicUsize::new(0),
            stalls: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
        });

        // The controller/executor split (paper §V): shard strategy
        // execution across worker processes. The pool is best-effort by
        // construction — a launch failure, a lost handshake or a mid-run
        // crash only shrinks it, and a pool with no live shards degrades
        // to the in-process thread pool. Determinism is unaffected either
        // way: generation, admission, journal and memo store never leave
        // this process.
        //
        // Spawning workers costs a process launch and a handshake each, so
        // a spawned pool waits for the first batch that actually has
        // something to dispatch — a resume over a complete journal never
        // pays it. A `--shard-listen` pool launches now: external workers
        // are waiting on its address.
        let launch_pool = || {
            let _span = observe::span(config.observer.as_ref(), "phase.shard_launch", 0);
            match ShardPool::launch(&config, memoize, seg_dir.clone()) {
                Ok(pool) => {
                    if pool.live() == 0 {
                        eprintln!(
                            "snake: no shard worker survived the handshake; \
                             falling back to in-process execution"
                        );
                    }
                    Some(pool)
                }
                Err(err) => {
                    eprintln!(
                        "snake: shard pool launch failed ({err}); falling \
                         back to in-process execution"
                    );
                    None
                }
            }
        };
        let mut launch_pending = config.shards > 0;
        let mut pool = None;
        if launch_pending && config.shard_listen.is_some() {
            launch_pending = false;
            pool = launch_pool();
        }

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
            let refs: Vec<&snake_proxy::ProxyReport> = reports.iter().map(|r| r.as_ref()).collect();
            let mut fresh = generate_strategies(
                &spec.protocol,
                &refs,
                &config.params,
                &mut next_id,
                &mut seen,
            );
            if let Some(cap) = config.max_strategies {
                let room = cap.saturating_sub(outcomes.len());
                fresh.truncate(room);
            }
            if fresh.is_empty() {
                break;
            }

            // Split the round into journaled outcomes we can reuse and
            // strategies that still need a run. Identity is checked on the
            // full strategy, not just the id, so a stale journal entry is
            // re-run rather than trusted. Reused outcomes re-prime the
            // memoization layers — the fingerprint cache is re-seeded from
            // their recorded verdicts and non-inert reused strategies
            // re-register as class representatives — so a resumed campaign
            // reaches the same memo decisions (and markers) as an
            // uninterrupted one.
            let mut round: Vec<Option<StrategyOutcome>> = fresh.iter().map(|_| None).collect();
            let mut pending: Vec<(usize, Strategy)> = Vec::new();
            let mut class_reps: BTreeMap<String, usize> = BTreeMap::new();
            for (i, s) in fresh.into_iter().enumerate() {
                match reusable.remove(&s.id) {
                    Some(prev) if prev.outcome.strategy == s => {
                        resumed += 1;
                        // Worker counter deltas journaled with the outcome
                        // are folded again, so a resumed sharded campaign
                        // reports the same evaluation tallies as the
                        // uninterrupted run it is reconstructing.
                        fold_worker_counters(&shared, &prev.counters);
                        ledger
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .seed_resumed(&prev.outcome);
                        // An inert-marked outcome never reached the class
                        // grouping in the original run, so it must not
                        // become a representative now.
                        if prev.outcome.memo.as_deref() != Some("inert") {
                            if let Some(key) = class_key(&shared, &s) {
                                class_reps.entry(key).or_insert(i);
                            }
                        }
                        round[i] = Some(prev.outcome);
                    }
                    _ => pending.push((i, s)),
                }
            }
            // Memoization pass over the strategies that still need a run:
            // statically provable wire no-ops are answered with the
            // baseline outcome on the spot, and trigger-equivalent
            // `OnState` strategies are grouped so only one representative
            // per class runs — the rest copy its result afterwards.
            let mut to_run: Vec<(usize, Strategy)> = Vec::new();
            let mut followers: Vec<(usize, Strategy, usize)> = Vec::new();
            for (i, s) in pending {
                if let Some(outcome) = inert_outcome(&shared, &s) {
                    on_outcome(&outcome, None);
                    round[i] = Some(outcome);
                    continue;
                }
                match class_key(&shared, &s) {
                    Some(key) => match class_reps.get(&key) {
                        Some(&rep) => followers.push((i, s, rep)),
                        None => {
                            class_reps.insert(key, i);
                            to_run.push((i, s));
                        }
                    },
                    None => to_run.push((i, s)),
                }
            }
            let (indices, batch): (Vec<usize>, Vec<Strategy>) = to_run.into_iter().unzip();
            // Segment prefetch: outcomes a crashed run's workers already
            // evaluated replay through the batch machinery (admission,
            // journal, counter fold) at their exact index position instead
            // of running again — full-strategy identity is required, like
            // journal reuse, so a stale segment entry re-runs.
            let pre: Vec<Option<SegmentEntry>> = batch
                .iter()
                .map(|s| match prefetch.remove(&s.id) {
                    Some(entry) if entry.outcome.strategy == *s => Some(entry),
                    _ => None,
                })
                .collect();
            if launch_pending && pre.iter().any(Option::is_none) {
                launch_pending = false;
                pool = launch_pool();
            }
            let batch_span = observe::span(config.observer.as_ref(), "phase.batch", 0);
            let ran = match pool.as_mut().filter(|p| p.live() > 0) {
                Some(pool) => run_batch_sharded(&shared, &ledger, batch, pre, pool, &on_outcome),
                None => run_batch(
                    &shared,
                    &ledger,
                    batch,
                    pre,
                    config.parallelism,
                    &on_outcome,
                ),
            };
            for (i, outcome) in indices.into_iter().zip(ran) {
                round[i] = Some(outcome);
            }
            for (i, s, rep) in followers {
                let rep_outcome = round[rep]
                    .as_ref()
                    .expect("class representatives are reused or ran in this batch");
                let outcome = if rep_outcome.outcome_kind == OutcomeKind::Errored {
                    // A panicking representative proves nothing about its
                    // class; run the member itself. The fresh run is
                    // admitted like any other (fingerprint marker, cache
                    // insert, store append) — followers re-run in index
                    // order, so admission stays deterministic.
                    let mut o = evaluate_watched(&shared, s);
                    ledger
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .admit(&mut o);
                    o
                } else {
                    materialize_class_member(rep_outcome, s)
                };
                on_outcome(&outcome, None);
                round[i] = Some(outcome);
            }
            drop(batch_span);

            for o in round.into_iter().flatten() {
                // Feedback: states/types newly exposed under attack seed
                // the next round. Only well-behaved runs contribute —
                // zeroed metrics from a panic or a half-finished truncated
                // run would poison the generator's view of the state space.
                if o.outcome_kind == OutcomeKind::Ok {
                    reports.push(o.metrics.proxy.clone());
                }
                outcomes.push(o);
            }
            // Admission checkpoint: one buffered-store flush per round
            // instead of one write syscall per admitted entry.
            ledger
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .flush_store();
        }

        match pool.take() {
            Some(mut pool) => pool.finish(config.observer.as_ref()),
            None if launch_pending => ShardPool::report_unlaunched(&config),
            None => {}
        }

        if let Some(source) = journal_error
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
        {
            return Err(CampaignError::Journal {
                path: config
                    .journal
                    .clone()
                    .expect("journal errors require a journal"),
                source,
            });
        }

        // A completed campaign owes nothing to its segments: every
        // outcome (prefetched ones included) is in the journal now.
        if let Some(dir) = &seg_dir {
            segment::clear_dir(dir);
        }

        // Classify and cluster the true attack strategies.
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
        // outcomes actually carry, so the campaign counters, the journal
        // and the run manifest can never disagree.
        let mut memo_hits = 0usize;
        let mut short_circuits = 0usize;
        for o in &outcomes {
            match o.memo.as_deref() {
                Some("class") | Some("fp") => memo_hits += 1,
                Some("inert") | Some("halt") => short_circuits += 1,
                _ => {}
            }
        }

        let memo_store = {
            let mut ledger = ledger.into_inner().unwrap_or_else(|e| e.into_inner());
            ledger.flush_store();
            let report = ledger.report();
            if let Some(r) = &report {
                let obs = config.observer.as_ref();
                obs.counter_add("memostore.entries_loaded", r.entries_loaded as u64);
                obs.counter_add("memostore.entries_valid", r.entries_valid as u64);
                obs.counter_add("memostore.entries_skipped", r.entries_skipped as u64);
                obs.counter_add("memostore.cross_run_hits", r.cross_run_hits as u64);
                obs.counter_add("memostore.eligible_runs", r.eligible_runs as u64);
                obs.counter_add("memostore.appended", r.appended as u64);
                obs.counter_add("memostore.write_failures", r.write_failures as u64);
                obs.counter_add("memostore.verdict_mismatches", r.verdict_mismatches as u64);
            }
            report
        };

        Ok(CampaignResult {
            protocol: spec.protocol.protocol_name().to_owned(),
            implementation: spec.protocol.implementation_name().to_owned(),
            baseline,
            outcomes,
            findings,
            resumed,
            journal_lines_skipped,
            memo_hits,
            short_circuits,
            baseline_reps: config.baseline_reps,
            envelope: shared.envelope,
            escalated: shared.escalated.load(Ordering::Relaxed),
            stalls: shared.stalls.load(Ordering::Relaxed),
            quarantined: shared.quarantined.load(Ordering::Relaxed),
            memo_store,
        })
    }
}

/// Deterministic seed for ensemble member `k` (member 0 is the scenario
/// seed itself). The golden-ratio multiply diffuses `k` across the word so
/// member seeds never collide with each other or with the re-test seed.
fn ensemble_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Builds the detection envelope: the campaign's own baseline plus
/// `reps − 1` plain from-scratch no-attack runs at jittered seeds.
pub(crate) fn build_envelope(
    spec: &ScenarioSpec,
    baseline: &TestMetrics,
    reps: usize,
    threshold: f64,
) -> Envelope {
    if reps <= 1 {
        return Envelope::from_baseline(baseline, threshold);
    }
    let mut members = Vec::with_capacity(reps);
    members.push(baseline.clone());
    for k in 1..reps {
        let member_spec = ScenarioSpec {
            seed: ensemble_seed(spec.seed, k),
            ..spec.clone()
        };
        members.push(Executor::run(&member_spec, None));
    }
    Envelope::from_members(&members, threshold)
}

/// Everything the executor workers share read-only: the planned (snapshot
/// holding) executors for the main and re-test seeds, plus the config.
pub(crate) struct SharedCtx {
    pub(crate) exec: PlannedExecutor,
    pub(crate) retest_exec: Option<PlannedExecutor>,
    pub(crate) config: CampaignConfig,
    /// Whether campaign-level memoization is live (config switch and no
    /// fault hook or chaos plan; each executor additionally requires its
    /// determinism guard to have passed).
    pub(crate) memoize: bool,
    /// Detection envelope for the main seed (single-baseline degenerate
    /// when `baseline_reps == 1`).
    pub(crate) envelope: Envelope,
    /// Envelope for the re-test seed, when re-testing is on.
    pub(crate) retest_envelope: Option<Envelope>,
    /// Borderline verdicts escalated to a confirmatory re-test.
    pub(crate) escalated: AtomicUsize,
    /// Watchdog deadline expiries (every attempt counts).
    pub(crate) stalls: AtomicUsize,
    /// Strategies quarantined after the stall retry budget.
    pub(crate) quarantined: AtomicUsize,
}

pub(crate) type Shared = Arc<SharedCtx>;

/// The campaign's memoization bookkeeper, owned by `Campaign::run` and
/// consulted only at *admission* — the single point where a finished
/// outcome is assigned its fingerprint marker, inserted into the
/// in-process cache and appended to the persistent store, strictly in
/// strategy-index order (see [`run_batch`]'s release buffer). Workers
/// never touch it while evaluating, which is what makes memo markers
/// identical at every worker count: under the old design each worker
/// consulted a shared fingerprint cache mid-flight, so which of two
/// equal-fingerprint strategies got the `"fp"` marker depended on
/// completion order.
///
/// The fingerprint cache maps wire-effect fingerprints to verdicts. A
/// fingerprint captures every effect the proxy actually had on the wire
/// (plus its RNG draws), so equal fingerprints mean byte-identical runs
/// and the verdict can be shared. Only unflagged verdicts are cached: a
/// flagged outcome also depends on the different-seed re-test run, which
/// the main run's fingerprint says nothing about.
struct MemoLedger {
    /// Whether campaign-level memoization is live; when off, admission is
    /// a no-op and every outcome keeps whatever marker evaluation gave it.
    memoize: bool,
    /// The in-process fingerprint → verdict cache (this campaign's own
    /// completed runs plus resume-seeded journal entries).
    fp_cache: FxHashMap<(u64, u64), Verdict>,
    /// Fingerprints loaded from the persistent store for this campaign's
    /// scope. Deliberately separate from `fp_cache`: store entries feed
    /// the cross-run hit and mismatch counters but never markers or
    /// verdicts, so a warm store cannot change any outcome bit.
    store_seen: FxHashMap<(u64, u64), Verdict>,
    /// The open store and this campaign's scope key, when configured.
    store: Option<(MemoStore, StoreScope)>,
    /// Loaded store entries matching this campaign's scope.
    entries_valid: usize,
    /// Fresh completed runs whose fingerprint the store already knew.
    cross_run_hits: usize,
    /// Fresh completed runs eligible for a cross-run hit.
    eligible_runs: usize,
    /// Store entries whose recorded verdict disagreed with the freshly
    /// computed one (the computed verdict wins; see [`MemoStoreReport`]).
    verdict_mismatches: usize,
}

impl MemoLedger {
    fn new(memoize: bool, store: Option<MemoStore>, scope: StoreScope) -> MemoLedger {
        let store_seen = store
            .as_ref()
            .map(|s| s.scope_entries(&scope))
            .unwrap_or_default();
        MemoLedger {
            memoize,
            fp_cache: FxHashMap::default(),
            entries_valid: store_seen.len(),
            store_seen,
            store: store.map(|s| (s, scope)),
            cross_run_hits: 0,
            eligible_runs: 0,
            verdict_mismatches: 0,
        }
    }

    /// Admits one freshly evaluated outcome: counts it against the
    /// persistent store, assigns the `"fp"` marker when its fingerprint
    /// was already in the in-process cache (a `"halt"` marker from the
    /// run itself takes precedence), and otherwise caches and persists
    /// the verdict when it is unflagged. Only completed runs participate —
    /// errored, truncated and stalled outcomes carry no meaningful
    /// fingerprint, and inert/class outcomes never reach admission at all
    /// (they never touched the cache under the old design either).
    fn admit(&mut self, outcome: &mut StrategyOutcome) {
        if !self.memoize || outcome.outcome_kind != OutcomeKind::Ok {
            return;
        }
        let fp = (
            outcome.metrics.proxy.effect_fp_a,
            outcome.metrics.proxy.effect_fp_b,
        );
        self.eligible_runs += 1;
        match self.store_seen.get(&fp) {
            Some(v) if *v == outcome.verdict => self.cross_run_hits += 1,
            Some(_) => self.verdict_mismatches += 1,
            None => {}
        }
        match self.fp_cache.entry(fp) {
            // Equal fingerprints mean byte-identical runs, so the freshly
            // computed verdict necessarily equals the cached one — the
            // marker is pure provenance, never a different answer.
            Entry::Occupied(_) => {
                if outcome.memo.is_none() {
                    outcome.memo = Some("fp".to_owned());
                }
            }
            Entry::Vacant(slot) => {
                if !outcome.verdict.flagged() {
                    slot.insert(outcome.verdict);
                    if let Some((store, scope)) = &mut self.store {
                        store.insert(scope, fp, outcome.verdict);
                    }
                }
            }
        }
    }

    /// Re-seeds the fingerprint cache from a journaled outcome on resume.
    /// Only outcomes that would have populated the cache in the original
    /// run qualify: completed, unflagged, and produced by an actual run
    /// (`memo` of `None`), a cache hit (`"fp"`), or a proxy halt
    /// (`"halt"`, whose substituted baseline metrics carry the baseline's
    /// fingerprint) — `"inert"` and `"class"` outcomes never touched the
    /// cache. With the cache restored, the strategies that still need a
    /// run reach the same verdict-sharing decisions as an uninterrupted
    /// campaign. Seeded verdicts are persisted too, so a store shared with
    /// an interrupted campaign still ends up complete. Resumed outcomes do
    /// not count toward the cross-run hit rate — nothing ran.
    fn seed_resumed(&mut self, outcome: &StrategyOutcome) {
        if !self.memoize
            || outcome.outcome_kind != OutcomeKind::Ok
            || outcome.verdict.flagged()
            || !matches!(outcome.memo.as_deref(), None | Some("fp") | Some("halt"))
        {
            return;
        }
        let fp = (
            outcome.metrics.proxy.effect_fp_a,
            outcome.metrics.proxy.effect_fp_b,
        );
        if let Entry::Vacant(slot) = self.fp_cache.entry(fp) {
            slot.insert(outcome.verdict);
            if let Some((store, scope)) = &mut self.store {
                store.insert(scope, fp, outcome.verdict);
            }
        }
    }

    /// The store section of the campaign result (`None` when no store was
    /// active this run).
    fn report(&self) -> Option<MemoStoreReport> {
        let (store, _) = self.store.as_ref()?;
        Some(MemoStoreReport {
            entries_loaded: store.entries_loaded(),
            entries_valid: self.entries_valid,
            entries_skipped: store.entries_skipped(),
            cross_run_hits: self.cross_run_hits,
            eligible_runs: self.eligible_runs,
            appended: store.appended(),
            write_failures: store.write_failures(),
            verdict_mismatches: self.verdict_mismatches,
        })
    }

    /// Pushes the persistent store's buffered appends to disk, if a store
    /// is attached. Called at admission checkpoints (end of each feedback
    /// round and before the final report) so the per-entry write syscall
    /// the store used to pay is amortised across a whole round.
    fn flush_store(&mut self) {
        if let Some((store, _)) = &mut self.store {
            store.flush();
        }
    }
}

/// Answers a statically provable wire no-op with the baseline outcome —
/// exactly what [`evaluate`] would produce, without running anything.
/// Returns `None` when the strategy is not provably inert, or when the
/// baseline compared against itself would flag (a degenerate scenario; the
/// ordinary path then runs the strategy for real, keeping memoized and
/// unmemoized campaigns bit-identical).
fn inert_outcome(shared: &Shared, strategy: &Strategy) -> Option<StrategyOutcome> {
    if !shared.memoize || !shared.exec.provably_inert(strategy) {
        return None;
    }
    let baseline = shared.exec.baseline();
    if baseline.truncated {
        return Some(StrategyOutcome {
            on_path: is_on_path(strategy),
            strategy: strategy.clone(),
            verdict: Verdict::default(),
            metrics: baseline.clone(),
            repeatable: false,
            false_positive: false,
            outcome_kind: OutcomeKind::Truncated,
            error: None,
            memo: Some("inert".to_owned()),
        });
    }
    let verdict = detect_enveloped(&shared.envelope, baseline);
    if verdict.flagged() {
        return None;
    }
    Some(StrategyOutcome {
        on_path: is_on_path(strategy) || is_self_denial(strategy, &verdict),
        strategy: strategy.clone(),
        verdict,
        metrics: baseline.clone(),
        repeatable: true,
        false_positive: false,
        outcome_kind: OutcomeKind::Ok,
        error: None,
        memo: Some("inert".to_owned()),
    })
}

/// Memo-class key covering every run [`evaluate`] might make for a
/// strategy: the main-seed class key joined with the re-test seed's when
/// re-testing is on. Strategies sharing the composite key are
/// trigger-equivalent under every executor involved, so their evaluations
/// are identical end to end — including the inert-volume control run,
/// whose trigger has the same first-visibility instant as the member's.
fn class_key(shared: &Shared, strategy: &Strategy) -> Option<String> {
    if !shared.memoize {
        return None;
    }
    let main = shared.exec.class_key(strategy)?;
    match &shared.retest_exec {
        None => Some(main),
        Some(retest) => {
            let rk = retest.class_key(strategy)?;
            Some(format!("{main}|{rk}"))
        }
    }
}

/// Copies a class representative's outcome onto a trigger-equivalent
/// member. The run results are identical by construction; only the
/// strategy identity and the strategy-derived on-path classification are
/// recomputed (class members can sit on different endpoint/state pairs).
fn materialize_class_member(rep: &StrategyOutcome, strategy: Strategy) -> StrategyOutcome {
    let on_path = match rep.outcome_kind {
        OutcomeKind::Ok => is_on_path(&strategy) || is_self_denial(&strategy, &rep.verdict),
        _ => is_on_path(&strategy),
    };
    StrategyOutcome {
        on_path,
        strategy,
        verdict: rep.verdict,
        metrics: rep.metrics.clone(),
        repeatable: rep.repeatable,
        false_positive: rep.false_positive,
        outcome_kind: rep.outcome_kind,
        error: None,
        memo: Some("class".to_owned()),
    }
}

/// Executes one strategy end to end: attack run, verdict, repeatability
/// re-test, and (for flagged hitseqwindow strategies) the inert-volume
/// false-positive control.
fn evaluate(shared: &Shared, strategy: Strategy) -> StrategyOutcome {
    let SharedCtx {
        exec,
        retest_exec,
        config,
        ..
    } = &**shared;
    let (metrics, info) = exec.run_with_info(Some(strategy.clone()));
    // A halted run (every rule spent with zero wire effect) substituted
    // the baseline outcome; the marker records that this outcome was
    // short-circuited, and takes precedence over a fingerprint-cache hit
    // on the same (baseline-equal) metrics.
    let memo: Option<String> = info.halted.then(|| "halt".to_owned());
    if metrics.truncated {
        // A budget-truncated run transferred less data because it ran for
        // less virtual time; comparing it against a full-length baseline
        // would manufacture degradation verdicts. Report it as truncated
        // and skip the re-test and control runs.
        return StrategyOutcome {
            on_path: is_on_path(&strategy),
            strategy,
            verdict: Verdict::default(),
            metrics,
            repeatable: false,
            false_positive: false,
            outcome_kind: OutcomeKind::Truncated,
            error: None,
            memo,
        };
    }
    // The verdict is always computed fresh here; the wire-effect
    // fingerprint cache lives in the [`MemoLedger`] and is consulted only
    // at admission, after evaluation. Equal fingerprints mean
    // byte-identical runs, so a cache hit's verdict equals this freshly
    // computed one by construction — moving the lookup out of the workers
    // changes no outcome, it only makes the `"fp"` markers independent of
    // worker completion order. Cached (and therefore persisted) verdicts
    // are always unflagged, which keeps the re-test and control logic
    // below trivially consistent with a later marker assignment.
    let verdict = detect_enveloped(&shared.envelope, &metrics);

    // Flagged verdicts re-test as always; with an ensemble (reps > 1),
    // *borderline* results — within BORDERLINE_MARGIN of an envelope edge,
    // on either side — are escalated to the same different-seed re-test
    // instead of trusting a single draw of the noise. A borderline flag
    // must repeat to survive; a borderline near-miss gets a confirmatory
    // run (counted, never promoted to a flag, so the ensemble's zero-FP
    // guarantee is preserved).
    let mut repeatable = true;
    let borderline = shared.config.baseline_reps > 1 && shared.envelope.is_borderline(&metrics);
    if verdict.flagged() || borderline {
        if let Some(retest) = retest_exec {
            if borderline {
                shared.escalated.fetch_add(1, Ordering::Relaxed);
                config.observer.counter_add("campaign.escalated", 1);
            }
            let _span = observe::span(config.observer.as_ref(), "phase.retests", 0);
            let again = retest.run(Some(strategy.clone()));
            let retest_env = shared
                .retest_envelope
                .as_ref()
                .expect("a re-test executor always has a re-test envelope");
            let again_flagged = !again.truncated && detect_enveloped(retest_env, &again).flagged();
            if verdict.flagged() {
                repeatable = again_flagged;
            }
        }
    }

    let mut false_positive = false;
    if verdict.flagged() && repeatable {
        if let StrategyKind::OnState {
            endpoint,
            state,
            attack:
                InjectionAttack::HitSeqWindow {
                    packet_type,
                    direction,
                    stride,
                    count,
                    rate_pps,
                    inert: false,
                },
        } = &strategy.kind
        {
            // Control run: identical volume aimed at a dead port. If the
            // impact persists, it came from the packet volume, not from
            // hitting the sequence window.
            let control = Strategy {
                id: strategy.id,
                kind: StrategyKind::OnState {
                    endpoint: *endpoint,
                    state: state.clone(),
                    attack: InjectionAttack::HitSeqWindow {
                        packet_type: packet_type.clone(),
                        direction: *direction,
                        stride: *stride,
                        count: *count,
                        rate_pps: *rate_pps,
                        inert: true,
                    },
                },
            };
            let control_metrics = exec.run(Some(control));
            let control_verdict = detect_enveloped(&shared.envelope, &control_metrics);
            false_positive = !control_metrics.truncated && control_verdict.flagged();
        }
    }

    StrategyOutcome {
        on_path: is_on_path(&strategy) || is_self_denial(&strategy, &verdict),
        strategy,
        verdict,
        metrics,
        repeatable,
        false_positive,
        outcome_kind: OutcomeKind::Ok,
        error: None,
        memo,
    }
}

/// Wraps [`evaluate`] in a panic boundary: a crashing engine run becomes an
/// [`OutcomeKind::Errored`] outcome carrying the panic message, instead of
/// unwinding through the batch and losing every other result.
fn evaluate_guarded(shared: &Shared, strategy: Strategy) -> StrategyOutcome {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(hook) = &shared.config.fault_hook {
            hook(&strategy);
        }
        if let Some(chaos) = &shared.config.chaos {
            chaos.apply(&strategy);
        }
        evaluate(shared, strategy.clone())
    }));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => StrategyOutcome {
            on_path: is_on_path(&strategy),
            strategy,
            verdict: Verdict::default(),
            metrics: TestMetrics::empty(),
            repeatable: false,
            false_positive: false,
            outcome_kind: OutcomeKind::Errored,
            error: Some(panic_message(payload.as_ref())),
            memo: None,
        },
    }
}

/// Wraps [`evaluate_guarded`] in the per-run watchdog when a deadline is
/// configured: the evaluation runs on its own thread, and if no outcome
/// arrives within the wall-clock deadline the attempt is abandoned and
/// retried with doubling backoff. Once the retry budget is spent the
/// strategy is quarantined as [`OutcomeKind::Stalled`] — the campaign
/// moves on instead of hanging on one livelocked engine.
///
/// Abandoned threads are detached, never killed: they hold only `Arc`
/// clones, their late results are dropped on a closed channel, and the
/// journal append happens in the watchdog's caller, so a straggler can
/// never write anything.
pub(crate) fn evaluate_watched(shared: &Shared, strategy: Strategy) -> StrategyOutcome {
    let Some(deadline) = shared.config.deadline else {
        return evaluate_guarded(shared, strategy);
    };
    let observer = shared.config.observer.clone();
    let retries = shared.config.stall_retries;
    let mut backoff = shared.config.stall_backoff;
    for attempt in 0..=retries {
        let (tx, rx) = mpsc::channel();
        let worker_shared = Arc::clone(shared);
        let worker_strategy = strategy.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("snake-eval-{}", strategy.id))
            .spawn(move || {
                let _ = tx.send(evaluate_guarded(&worker_shared, worker_strategy));
            });
        if spawned.is_err() {
            // Thread exhaustion: fall back to an unwatched inline run
            // rather than failing the strategy for a host-side problem.
            return evaluate_guarded(shared, strategy);
        }
        match rx.recv_timeout(deadline) {
            Ok(outcome) => return outcome,
            Err(_) => {
                shared.stalls.fetch_add(1, Ordering::Relaxed);
                observer.counter_add("campaign.stalls", 1);
                if attempt < retries {
                    observer.counter_add("campaign.stall_retries", 1);
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
            }
        }
    }
    shared.quarantined.fetch_add(1, Ordering::Relaxed);
    observer.counter_add("campaign.quarantined", 1);
    StrategyOutcome {
        on_path: is_on_path(&strategy),
        error: Some(format!(
            "stalled: no outcome within {deadline:?} in any of {} attempts; quarantined",
            retries + 1
        )),
        strategy,
        verdict: Verdict::default(),
        metrics: TestMetrics::empty(),
        repeatable: false,
        false_positive: false,
        outcome_kind: OutcomeKind::Stalled,
        memo: None,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// Per-worker activity tally, folded into the observer's histograms when
/// observation is enabled. The `Instant` reads are gated on
/// [`Observer::enabled`], so the default no-op observer costs the workers
/// nothing but a branch per claim.
struct WorkerClock {
    started: Option<Instant>,
    busy_nanos: u64,
    claimed: u64,
}

impl WorkerClock {
    fn start(enabled: bool) -> WorkerClock {
        WorkerClock {
            started: enabled.then(Instant::now),
            busy_nanos: 0,
            claimed: 0,
        }
    }

    /// Runs `work`, attributing its wall time to this worker's busy tally.
    fn time<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let t0 = self.started.map(|_| Instant::now());
        let out = work();
        if let Some(t0) = t0 {
            self.busy_nanos += t0.elapsed().as_nanos() as u64;
        }
        self.claimed += 1;
        out
    }

    /// Emits the per-worker histogram samples: busy wall time, idle wall
    /// time (lifetime minus busy — claim overhead, journal contention,
    /// end-of-batch drain), and strategies claimed.
    fn finish(self, observer: &dyn Observer) {
        let Some(started) = self.started else { return };
        let lifetime = started.elapsed().as_nanos() as u64;
        observer.record("worker.busy_nanos", self.busy_nanos);
        observer.record(
            "worker.idle_nanos",
            lifetime.saturating_sub(self.busy_nanos),
        );
        observer.record("worker.claimed", self.claimed);
    }
}

/// Holds outcomes finished out of order until every lower-index outcome
/// has been admitted, so admission (memo-marker assignment, cache insert,
/// store append) and journaling happen strictly in strategy-index order at
/// any worker count — exactly the sequence a single worker would produce.
/// Entries carry the worker counter deltas to fold at admission (`None`
/// for outcomes evaluated in this process, whose counters reached the
/// observer directly).
struct ReleaseState {
    /// The next strategy index to admit.
    next: usize,
    /// Outcomes evaluated ahead of `next`, keyed by index.
    pending: BTreeMap<usize, PendingOutcome>,
    /// Admitted outcomes, in index order.
    done: Vec<StrategyOutcome>,
}

/// An outcome paired with the worker counter deltas it arrived with
/// (`None` for outcomes evaluated in this process, whose counters reached
/// the observer directly).
type PendingOutcome = (StrategyOutcome, Option<Vec<(String, u64)>>);

/// Admission callback threaded through the batch runtimes: the admitted
/// outcome plus its worker counter deltas, if any.
type OnOutcome<'a> = &'a (dyn Fn(&StrategyOutcome, Option<&[(String, u64)]>) + Sync);

/// An outcome a shard (or a segment prefetch) delivered, with the worker
/// counter deltas that rode along with it.
type DeliveredOutcome = (StrategyOutcome, Vec<(String, u64)>);

/// Admits the contiguous ready prefix of the release buffer: fold the
/// entry's counter deltas (segment-prefetched outcomes carry the crashed
/// run's worker tallies), assign memo markers through the ledger, journal.
fn drain_release(
    state: &mut ReleaseState,
    shared: &Shared,
    ledger: &Mutex<MemoLedger>,
    on_outcome: OnOutcome<'_>,
) {
    loop {
        let turn = state.next;
        let Some((mut outcome, counters)) = state.pending.remove(&turn) else {
            break;
        };
        if let Some(counters) = &counters {
            fold_worker_counters(shared, counters);
        }
        ledger
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .admit(&mut outcome);
        on_outcome(&outcome, counters.as_deref());
        state.done.push(outcome);
        state.next += 1;
    }
}

/// Runs a batch of strategies across `parallelism` worker threads — the
/// paper's pool of executors with linear speedup (§V-D). Each outcome is
/// admitted through the [`MemoLedger`] and handed to `on_outcome`
/// (journal append, progress) as soon as every earlier-index outcome has
/// been, so a killed process loses at most the runs that were still in
/// flight or held back by one — and the journal is always an index-order
/// prefix of the batch.
///
/// `pre` holds segment-prefetched outcomes (from a crashed sharded run)
/// positionally: a `Some` index is never evaluated, its outcome replays
/// through the identical admission sequence instead.
fn run_batch(
    shared: &Shared,
    ledger: &Mutex<MemoLedger>,
    strategies: Vec<Strategy>,
    pre: Vec<Option<SegmentEntry>>,
    parallelism: usize,
    on_outcome: OnOutcome<'_>,
) -> Vec<StrategyOutcome> {
    let n = strategies.len();
    if n == 0 {
        return Vec::new();
    }
    let observer = shared.config.observer.as_ref();
    let enabled = observer.enabled();
    let workers = parallelism.clamp(1, n);
    if workers == 1 {
        let mut clock = WorkerClock::start(enabled);
        let mut pre = pre.into_iter();
        let out = strategies
            .into_iter()
            .map(|s| {
                let (mut outcome, counters) = match pre.next().flatten() {
                    Some(entry) => (entry.outcome, Some(entry.counters)),
                    None => (clock.time(|| evaluate_watched(shared, s)), None),
                };
                if let Some(counters) = &counters {
                    fold_worker_counters(shared, counters);
                }
                ledger
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .admit(&mut outcome);
                on_outcome(&outcome, counters.as_deref());
                outcome
            })
            .collect();
        clock.finish(observer);
        return out;
    }
    // Lock-free work distribution: workers claim the next strategy index
    // with a relaxed fetch-add (no queue mutex on the hot path). Finished
    // outcomes flow through the release buffer, which admits and journals
    // them in index order regardless of which worker finished first —
    // evaluation itself (the expensive part) still runs fully in
    // parallel; only the cheap admission step is serialized. Lock order
    // is always release → ledger → journal.
    let jobs = &strategies[..];
    let prefetched: Vec<bool> = pre.iter().map(Option::is_some).collect();
    let mut seeded: BTreeMap<usize, PendingOutcome> = BTreeMap::new();
    for (i, entry) in pre.into_iter().enumerate() {
        if let Some(entry) = entry {
            seeded.insert(i, (entry.outcome, Some(entry.counters)));
        }
    }
    let next = AtomicUsize::new(0);
    let release = Mutex::new(ReleaseState {
        next: 0,
        pending: seeded,
        done: Vec::with_capacity(n),
    });
    // A fully prefetched prefix (or batch) must admit even if no worker
    // ever inserts ahead of it.
    drain_release(
        &mut release.lock().unwrap_or_else(|e| e.into_inner()),
        shared,
        ledger,
        on_outcome,
    );
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut clock = WorkerClock::start(enabled);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(strategy) = jobs.get(i) else { break };
                    if prefetched[i] {
                        continue;
                    }
                    let outcome = clock.time(|| evaluate_watched(shared, strategy.clone()));
                    let mut state = release.lock().unwrap_or_else(|e| e.into_inner());
                    state.pending.insert(i, (outcome, None));
                    drain_release(&mut state, shared, ledger, on_outcome);
                }
                clock.finish(observer);
            });
        }
    });
    release.into_inner().unwrap_or_else(|e| e.into_inner()).done
}

/// Replays the counter deltas a shard worker reported for one outcome
/// into the controller's observer, so manifest tallies match a
/// single-process run. The `campaign.*` watchdog/escalation counters also
/// feed the shared atomics [`CampaignResult`] reports from — in-process
/// those are bumped inside `evaluate`, which sharded execution never
/// calls on the controller. Names outside the intern table are dropped.
fn fold_worker_counters(shared: &Shared, counters: &[(String, u64)]) {
    let observer = shared.config.observer.as_ref();
    for (name, delta) in counters {
        let Some(interned) = intern_counter(name) else {
            continue;
        };
        match interned {
            "campaign.escalated" => {
                shared
                    .escalated
                    .fetch_add(*delta as usize, Ordering::Relaxed);
            }
            "campaign.stalls" => {
                shared.stalls.fetch_add(*delta as usize, Ordering::Relaxed);
            }
            "campaign.quarantined" => {
                shared
                    .quarantined
                    .fetch_add(*delta as usize, Ordering::Relaxed);
            }
            _ => {}
        }
        observer.counter_add(interned, *delta);
    }
}

/// Returns a dead shard's not-yet-received indices to the dispatch queue
/// as contiguous ranges, front of the queue so the lowest indices (the
/// ones holding back admission) go back out first. Returns how many
/// ranges were re-created, for the re-dispatch tally.
fn requeue_outstanding(
    queue: &mut std::collections::VecDeque<(usize, usize)>,
    outstanding: &mut std::collections::VecDeque<usize>,
) -> u64 {
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for index in outstanding.drain(..) {
        match ranges.last_mut() {
            Some((start, len)) if *start + *len == index => *len += 1,
            _ => ranges.push((index, 1)),
        }
    }
    let count = ranges.len() as u64;
    for range in ranges.into_iter().rev() {
        queue.push_front(range);
    }
    count
}

/// Runs a batch across the shard worker pool — the multi-process analogue
/// of [`run_batch`], with the identical admission contract: outcomes pass
/// through the [`MemoLedger`] and `on_outcome` strictly in strategy-index
/// order, so journal, memo markers and TSV are bit-identical to the
/// in-process path no matter how many shards raced, died or got their
/// ranges re-dispatched.
///
/// Dispatch is pull-ish: the batch is cut into contiguous ranges of about
/// a quarter of a shard's fair share, and each shard holds at most two
/// ranges' worth of outstanding work, so a slow shard strands little.
/// A shard that disconnects, breaks the framing, or answers out of
/// contract (wrong index order, an index it was never given, a strategy
/// id that does not match) is killed and its unfinished indices are
/// re-dispatched. If every shard dies mid-batch the controller finishes
/// the remainder in-process — results identical, only slower.
///
/// `pre` seeds `received` with segment-prefetched outcomes from a crashed
/// run: those indices are never dispatched (the queue covers only the
/// gaps), yet they admit at their exact position with the crashed run's
/// worker counter deltas — so a resumed campaign re-evaluates nothing and
/// still produces byte-identical output.
fn run_batch_sharded(
    shared: &Shared,
    ledger: &Mutex<MemoLedger>,
    strategies: Vec<Strategy>,
    pre: Vec<Option<SegmentEntry>>,
    pool: &mut ShardPool,
    on_outcome: OnOutcome<'_>,
) -> Vec<StrategyOutcome> {
    let n = strategies.len();
    if n == 0 {
        return Vec::new();
    }
    let mut received: Vec<Option<DeliveredOutcome>> = pre
        .into_iter()
        .map(|entry| entry.map(|e| (e.outcome, e.counters)))
        .collect();
    let mut got = received.iter().filter(|slot| slot.is_some()).count();
    let chunk = n.div_ceil(pool.live().max(1) * 4).max(1);
    // Queue only the gaps between prefetched outcomes, as contiguous
    // ranges cut to chunk size (the `n` sentinel closes a trailing run).
    let mut queue: std::collections::VecDeque<(usize, usize)> = Default::default();
    let mut run_start: Option<usize> = None;
    for i in 0..=n {
        let needs_eval = received.get(i).is_some_and(Option::is_none);
        match (run_start, needs_eval) {
            (None, true) => run_start = Some(i),
            (Some(start), false) => {
                let mut cursor = start;
                while cursor < i {
                    let len = chunk.min(i - cursor);
                    queue.push_back((cursor, len));
                    cursor += len;
                }
                run_start = None;
            }
            _ => {}
        }
    }
    let mut outstanding: Vec<std::collections::VecDeque<usize>> =
        (0..pool.len()).map(|_| Default::default()).collect();
    let mut done: Vec<StrategyOutcome> = Vec::with_capacity(n);
    let mut next_admit = 0usize;

    let admit = |outcome: &mut StrategyOutcome| {
        ledger
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .admit(outcome);
    };

    // Release any prefetched prefix before dispatching: its counters fold
    // and its journal lines write exactly as an uninterrupted run's would.
    while next_admit < n {
        let Some((mut outcome, counters)) = received[next_admit].take() else {
            break;
        };
        fold_worker_counters(shared, &counters);
        admit(&mut outcome);
        on_outcome(&outcome, Some(&counters));
        done.push(outcome);
        next_admit += 1;
    }

    // Per-shard progress deadline: heartbeats prove a worker *process* is
    // alive (they feed the read deadline), but only outcomes prove it is
    // *working*. A shard that holds outstanding work for a whole
    // `shard_timeout` without delivering anything — a frame lost on the
    // wire, an evaluation thread wedged behind a live heartbeat thread —
    // is killed and its work re-dispatched. A worker that has gone
    // silent altogether belongs to its reader's read deadline, which
    // expires `shard_timeout` after its last byte; waiting one heartbeat
    // longer here keeps the two from tying when the silent shard was also
    // the last to deliver anything, so that case is always attributed to
    // the read deadline.
    let progress_window = shared.config.shard_timeout + shared.config.heartbeat;
    let mut progress: Vec<Instant> = vec![Instant::now(); pool.len()];
    while got < n {
        if pool.live() == 0 {
            break;
        }
        // Top-up: hand queued ranges to the least-loaded live shards.
        loop {
            let target = (0..pool.len())
                .filter(|&s| pool.is_live(s) && outstanding[s].len() < 2 * chunk)
                .min_by_key(|&s| outstanding[s].len());
            let Some(shard) = target else { break };
            let Some((start, len)) = queue.pop_front() else {
                break;
            };
            if pool.send_range(shard, start, &strategies[start..start + len]) {
                outstanding[shard].extend(start..start + len);
                progress[shard] = Instant::now();
            } else {
                queue.push_front((start, len));
            }
        }
        if pool.live() == 0 {
            break;
        }
        match pool.next_event_timeout(progress_window) {
            PoolWait::Idle => {
                for shard in 0..pool.len() {
                    if pool.is_live(shard)
                        && !outstanding[shard].is_empty()
                        && progress[shard].elapsed() >= progress_window
                    {
                        pool.kill(shard);
                        pool.ranges_redispatched +=
                            requeue_outstanding(&mut queue, &mut outstanding[shard]);
                        pool.try_reconnect(shard, &shared.config);
                    }
                }
            }
            PoolWait::Closed => {
                // Every reader thread is gone; nothing further can arrive.
                for shard in 0..pool.len() {
                    pool.kill(shard);
                }
                break;
            }
            PoolWait::Event(ShardEvent::Dead {
                shard,
                generation,
                timed_out,
            }) => {
                // Gate on generation alone, NOT liveness: a failed
                // `send_range` kills the link without draining its
                // outstanding indices (the Dead event owns that), so a
                // Dead for the *current* generation must still requeue
                // even when the slot was already killed. Only a retired
                // generation's reader winding down is stale.
                if generation != pool.generation(shard) {
                    continue;
                }
                if timed_out {
                    pool.heartbeats_missed += 1;
                }
                pool.kill(shard);
                pool.ranges_redispatched +=
                    requeue_outstanding(&mut queue, &mut outstanding[shard]);
                pool.try_reconnect(shard, &shared.config);
            }
            PoolWait::Event(ShardEvent::Outcome {
                shard,
                generation,
                index,
                busy_nanos,
                counters,
                outcome,
            }) => {
                if generation != pool.generation(shard) || !pool.is_live(shard) {
                    // Late traffic from a connection already declared dead;
                    // its indices were re-queued, so this result is stale.
                    continue;
                }
                let in_contract = outstanding[shard].front() == Some(&index)
                    && index < n
                    && index >= next_admit
                    && received[index].is_none()
                    && outcome.strategy.id == strategies[index].id;
                if !in_contract {
                    pool.kill(shard);
                    pool.ranges_redispatched +=
                        requeue_outstanding(&mut queue, &mut outstanding[shard]);
                    pool.try_reconnect(shard, &shared.config);
                    continue;
                }
                outstanding[shard].pop_front();
                progress[shard] = Instant::now();
                pool.record_busy(shard, busy_nanos);
                received[index] = Some((*outcome, counters));
                got += 1;
                // Admission drain: release the contiguous prefix. Counters
                // fold here, not at receipt, so a stale result that never
                // admits never skews the observer either.
                while next_admit < n {
                    let Some((mut outcome, counters)) = received[next_admit].take() else {
                        break;
                    };
                    fold_worker_counters(shared, &counters);
                    admit(&mut outcome);
                    on_outcome(&outcome, Some(&counters));
                    done.push(outcome);
                    next_admit += 1;
                }
            }
        }
    }

    // In-process completion of whatever the pool did not deliver — the
    // whole batch when the pool died at launch, the tail when it died
    // mid-run. Already-received outcomes are reused, not re-run.
    for index in next_admit..n {
        let (mut outcome, counters) = match received[index].take() {
            Some((outcome, counters)) => (outcome, Some(counters)),
            None => (evaluate_watched(shared, strategies[index].clone()), None),
        };
        if let Some(counters) = &counters {
            fold_worker_counters(shared, counters);
        }
        admit(&mut outcome);
        on_outcome(&outcome, counters.as_deref());
        done.push(outcome);
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ProtocolKind;
    use snake_proxy::{BasicAttack, Endpoint};
    use snake_tcp::Profile;

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
            memo_store: None,
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
            // The store is the fingerprint cache's disk layer; explicitly
            // disabling memoization while asking for one is contradictory.
            CampaignConfig::builder(spec())
                .memo_store("/tmp/unused-store.jsonl")
                .memoize(false),
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

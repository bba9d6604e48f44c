//! Campaign configuration: the validated [`CampaignConfig`], its builder,
//! and the errors a campaign can fail with before or while running.

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use snake_observe::{self as observe, Observer};
use snake_proxy::Strategy;

use crate::chaos::ChaosPlan;
use crate::detect::DEFAULT_THRESHOLD;
use crate::scenario::ScenarioSpec;
use crate::shard::DEFAULT_SHARD_TIMEOUT;
use crate::strategen::GenerationParams;

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
    // Cross-strategy memoization (inert elision, class sharing).
    pub(crate) memoize: bool,
    // Test-only fault injection inside the panic isolation boundary.
    pub(crate) fault_hook: Option<FaultHook>,
    // Deterministic chaos injection (panics, journal faults, wire faults).
    pub(crate) chaos: Option<ChaosPlan>,
    // Ensemble size: how many seed-jittered no-attack baselines anchor
    // the detection envelope (1 = the legacy single baseline).
    pub(crate) baseline_reps: usize,
    // Observability sink threaded through the executors and workers.
    pub(crate) observer: Arc<dyn Observer>,
    // Worker processes to shard strategy execution across (0 = in-process).
    pub(crate) shards: usize,
    // Worker binary override (defaults to the current executable).
    pub(crate) shard_worker_bin: Option<PathBuf>,
    // Progress deadline on the shard wire: a worker holding dispatched
    // work this long without delivering an outcome, or not ready this long
    // after its spawn, is declared dead.
    pub(crate) shard_timeout: Duration,
}

/// Fault-injection hook called before each strategy evaluation, inside the
/// panic isolation boundary (see [`CampaignConfigBuilder::fault_hook`]).
pub type FaultHook = Arc<dyn Fn(&Strategy) + Send + Sync>;

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
            .field("fault_hook", &self.fault_hook.as_ref().map(|_| "<hook>"))
            .field("chaos", &self.chaos)
            .field("baseline_reps", &self.baseline_reps)
            .field("shards", &self.shards)
            .field("shard_worker_bin", &self.shard_worker_bin)
            .field("shard_timeout", &self.shard_timeout)
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
            fault_hook: None,
            chaos: None,
            baseline_reps: 1,
            observer: observe::noop(),
            shards: 0,
            shard_worker_bin: None,
            shard_timeout: None,
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
    fault_hook: Option<FaultHook>,
    chaos: Option<ChaosPlan>,
    baseline_reps: usize,
    observer: Arc<dyn Observer>,
    shards: usize,
    shard_worker_bin: Option<PathBuf>,
    shard_timeout: Option<Duration>,
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
    /// [`PlannedExecutor`](crate::PlannedExecutor)). Results are identical
    /// either way — the planner falls back to from-scratch runs whenever
    /// fork equivalence cannot be guaranteed — so this is purely a
    /// throughput knob.
    pub fn snapshot_fork(mut self, snapshot_fork: bool) -> Self {
        self.snapshot_fork = snapshot_fork;
        self
    }

    /// Memoizes across strategies: statically provable wire no-ops are
    /// answered with the baseline outcome, and trigger-equivalent
    /// `OnState` strategies share one representative run; each shortcut
    /// saves a simulation. Both are conditioned on the snapshot planner's
    /// determinism guard (same philosophy: memoization is disabled
    /// whenever identical replay cannot be guaranteed), so outcomes are
    /// bit-identical with memoization off — this too is purely a
    /// throughput knob. Forced off when a `fault_hook` is installed,
    /// because an elided strategy never reaches the hook.
    pub fn memoize(mut self, memoize: bool) -> Self {
        self.memoize = memoize;
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
    /// transient journal write faults and shard-wire faults. Evaluation
    /// faults force memoization off, like [`fault_hook`](Self::fault_hook).
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

    /// Shard strategy execution across `n` worker *processes* (0, the
    /// default, keeps everything in this process). The controller still
    /// owns generation, verdicts, journal and admission order, so results are bit-identical at any shard count; if every
    /// worker dies the campaign degrades to in-process execution.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Binary to spawn shard workers from (default: the current
    /// executable). Lets test harnesses point at the real `snake` binary.
    pub fn shard_worker_bin(mut self, path: impl Into<PathBuf>) -> Self {
        self.shard_worker_bin = Some(path.into());
        self
    }

    /// The shard pool's progress deadline (default 10 s): a worker that
    /// holds dispatched work this long without delivering an outcome — or
    /// has not answered its handshake this long after its spawn — is
    /// killed and its work re-dispatched. Requires `shards > 0`.
    pub fn shard_timeout(mut self, timeout: Duration) -> Self {
        self.shard_timeout = Some(timeout);
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
        if self.shards == 0 && (self.shard_worker_bin.is_some() || self.shard_timeout.is_some()) {
            return invalid("shard_worker_bin / shard_timeout require shards > 0".to_owned());
        }
        if self.shard_timeout.is_some_and(|t| t.is_zero()) {
            return invalid("shard_timeout must be longer than zero".to_owned());
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
            fault_hook: self.fault_hook,
            chaos: self.chaos,
            baseline_reps: self.baseline_reps,
            observer: self.observer,
            shards: self.shards,
            shard_worker_bin: self.shard_worker_bin,
            shard_timeout: self.shard_timeout.unwrap_or(DEFAULT_SHARD_TIMEOUT),
        })
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
            CampaignError::Journal { source, .. } => Some(source),
            _ => None,
        }
    }
}

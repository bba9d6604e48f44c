//! Dispatch: hands each batch to the campaign's executors. Both are pure
//! producers into [`Admission`] — worker threads in this process, and a
//! [`ShardPool`] of worker processes, which supervises its own wire —
//! so neither knows how an outcome becomes part of the campaign.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use snake_observe::{self as observe, Observer};
use snake_proxy::Strategy;

use crate::admission::Admission;
use crate::evaluate::{evaluate_guarded, Shared};
use crate::result::StrategyOutcome;
use crate::shard::ShardPool;

/// The campaign's executors (paper §V): worker threads in this process
/// or, with `shards > 0`, a pool of worker processes. The pool is
/// best-effort by construction — a launch failure, a lost handshake or a
/// mid-run crash only shrinks it, and whatever a pool with no live shards
/// left undone runs on the in-process threads instead. Determinism is
/// unaffected either way: generation, admission and the journal never
/// leave this process.
///
/// Spawning workers costs a process launch and a handshake each, so the
/// pool waits for the first batch that actually has something to
/// evaluate — a resume over a complete journal never pays it.
pub(crate) struct Dispatcher {
    shared: Shared,
    launch_pending: bool,
    pool: Option<ShardPool>,
}

impl Dispatcher {
    pub(crate) fn new(shared: Shared) -> Dispatcher {
        Dispatcher {
            launch_pending: shared.config.shards > 0,
            shared,
            pool: None,
        }
    }

    fn launch(&mut self) {
        let config = &self.shared.config;
        let _span = observe::span(config.observer.as_ref(), "phase.shard_launch", 0);
        self.launch_pending = false;
        match ShardPool::launch(config, self.shared.memoize) {
            Ok(pool) => {
                if pool.live() == 0 {
                    eprintln!(
                        "snake: no shard worker survived the handshake; \
                         falling back to in-process execution"
                    );
                }
                self.pool = Some(pool);
            }
            Err(err) => eprintln!(
                "snake: shard pool launch failed ({err}); falling back to \
                 in-process execution"
            ),
        }
    }

    /// Launches the deferred pool if `batch` has anything to evaluate.
    /// Separate from [`run_batch`](Self::run_batch) so the launch is timed
    /// as its own phase, not as part of the batch.
    pub(crate) fn ready_for(&mut self, batch: &[Strategy]) {
        if self.launch_pending && !batch.is_empty() {
            self.launch();
        }
    }

    /// Runs one batch and returns its outcomes in strategy-index order,
    /// every one of them admitted.
    pub(crate) fn run_batch(
        &mut self,
        admission: &Admission,
        strategies: Vec<Strategy>,
    ) -> Vec<StrategyOutcome> {
        admission.begin_batch(strategies.len());
        let todo = match &mut self.pool {
            Some(pool) => pool.run_batch(admission, &strategies),
            None => (0..strategies.len()).collect(),
        };
        run_in_process(&self.shared, admission, &strategies, &todo);
        admission.take_batch(strategies.len())
    }

    /// Tears the pool down and reports its tallies.
    pub(crate) fn finish(self) {
        let config = &self.shared.config;
        match self.pool {
            Some(mut pool) => pool.finish(config.observer.as_ref()),
            None if self.launch_pending => ShardPool::report_unlaunched(config),
            None => {}
        }
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

/// Evaluates the `todo` indices of a batch on `parallelism` worker threads
/// — the paper's pool of executors with linear speedup (§V-D). Workers
/// claim the next index with a relaxed fetch-add (no queue mutex on the
/// hot path) and offer each outcome as it finishes; evaluation runs fully
/// in parallel, only the cheap admission step is serialized.
fn run_in_process(shared: &Shared, admission: &Admission, strategies: &[Strategy], todo: &[usize]) {
    if todo.is_empty() {
        return;
    }
    let observer = shared.config.observer.as_ref();
    let enabled = observer.enabled();
    let workers = shared.config.parallelism.clamp(1, todo.len());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut clock = WorkerClock::start(enabled);
                while let Some(&index) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let strategy = strategies[index].clone();
                    let outcome = clock.time(|| evaluate_guarded(shared, strategy));
                    admission.offer(index, outcome, Vec::new());
                }
                clock.finish(observer);
            });
        }
    });
}

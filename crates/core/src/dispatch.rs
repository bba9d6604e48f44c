//! Dispatch: the two batch drivers that turn strategies into outcomes.
//! Both are pure producers into [`Admission`] — worker threads in this
//! process, and the event loop over a pool of shard worker processes —
//! so neither knows how an outcome becomes part of the campaign.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use snake_observe::{self as observe, Observer};
use snake_proxy::Strategy;

use crate::admission::Admission;
use crate::config::CampaignConfig;
use crate::evaluate::{evaluate_watched, Shared};
use crate::result::StrategyOutcome;
use crate::shard::{PoolWait, ShardEvent, ShardPool};

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
            Some(pool) => run_sharded(&self.shared.config, admission, &strategies, pool),
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
                    let outcome = clock.time(|| evaluate_watched(shared, strategy));
                    admission.offer(index, outcome, Vec::new());
                }
                clock.finish(observer);
            });
        }
    });
}

/// Groups ascending indices into contiguous `(start, len)` ranges.
fn contiguous_ranges(indices: impl IntoIterator<Item = usize>) -> Vec<(usize, usize)> {
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for index in indices {
        match ranges.last_mut() {
            Some((start, len)) if *start + *len == index => *len += 1,
            _ => ranges.push((index, 1)),
        }
    }
    ranges
}

/// Returns a dead shard's not-yet-received indices to the dispatch queue
/// as contiguous ranges, front of the queue so the lowest indices (the
/// ones holding back admission) go back out first. Returns how many
/// ranges were re-created, for the re-dispatch tally.
fn requeue_outstanding(
    queue: &mut VecDeque<(usize, usize)>,
    outstanding: &mut VecDeque<usize>,
) -> u64 {
    let ranges = contiguous_ranges(outstanding.drain(..));
    let count = ranges.len() as u64;
    for range in ranges.into_iter().rev() {
        queue.push_front(range);
    }
    count
}

/// Evaluates a batch on the shard worker pool and returns the indices it
/// could not get evaluated (empty unless every shard died), for the
/// in-process driver to finish — results identical, only slower.
///
/// Dispatch is pull-ish: the work is cut into contiguous ranges of about
/// a quarter of a shard's fair share, and each shard holds at most two
/// ranges' worth of outstanding work, so a slow shard strands little.
/// A shard that disconnects, breaks the framing, answers out of contract
/// (wrong index order, an index it was never given or already delivered,
/// a strategy id that does not match), or misses its progress deadline is
/// killed and its unfinished indices are re-dispatched.
fn run_sharded(
    config: &CampaignConfig,
    admission: &Admission,
    strategies: &[Strategy],
    pool: &mut ShardPool,
) -> Vec<usize> {
    let n = strategies.len();
    let chunk = n.div_ceil(pool.live().max(1) * 4).max(1);
    let mut delivered = vec![false; n];
    let mut queue: VecDeque<(usize, usize)> = (0..n)
        .step_by(chunk)
        .map(|start| (start, chunk.min(n - start)))
        .collect();
    let mut remaining = n;
    let mut outstanding: Vec<VecDeque<usize>> = vec![VecDeque::new(); pool.len()];
    // Kills a shard and puts its unfinished work back on the queue.
    let redispatch = |pool: &mut ShardPool,
                      queue: &mut VecDeque<(usize, usize)>,
                      outstanding: &mut VecDeque<usize>,
                      shard: usize| {
        pool.kill(shard);
        pool.ranges_redispatched += requeue_outstanding(queue, outstanding);
    };

    // The progress deadline, the pool's one clock. EOF, a write error or
    // a refused frame report a dead shard by themselves; what no byte can
    // reveal — a worker hung mid-range, an outcome frame lost on the wire
    // — shows only as a shard holding dispatched work for a whole
    // `shard_timeout` without delivering an outcome.
    let window = config.shard_timeout;
    let mut progress: Vec<Instant> = vec![Instant::now(); pool.len()];
    while remaining > 0 && pool.live() > 0 {
        let mut wait = window;
        for shard in 0..pool.len() {
            if !pool.is_live(shard) || outstanding[shard].is_empty() {
                continue;
            }
            let held = progress[shard].elapsed();
            if held >= window {
                pool.deadlines_missed += 1;
                redispatch(pool, &mut queue, &mut outstanding[shard], shard);
            } else {
                wait = wait.min(window - held);
            }
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
        match pool.next_event_timeout(wait) {
            // The next pass checks the deadlines.
            PoolWait::Idle => {}
            PoolWait::Closed => {
                // Every reader thread is gone; nothing further can arrive.
                for shard in 0..pool.len() {
                    pool.kill(shard);
                }
                break;
            }
            // A worker that answered after the launch deadline was
            // killed already.
            PoolWait::Event(ShardEvent::Ready { .. }) => {}
            PoolWait::Event(ShardEvent::Dead { shard }) => {
                // Not gated on liveness: a failed `send_range` kills the
                // link without draining its outstanding indices, and this
                // event owns that. After any other kill the shard holds
                // nothing and this requeues nothing.
                redispatch(pool, &mut queue, &mut outstanding[shard], shard);
            }
            PoolWait::Event(ShardEvent::Outcome {
                shard,
                index,
                busy_nanos,
                counters,
                outcome,
            }) => {
                if !pool.is_live(shard) {
                    // Late traffic from a shard already declared dead;
                    // its indices were re-queued, so this result is stale.
                    continue;
                }
                let in_contract = outstanding[shard].front() == Some(&index)
                    && delivered.get(index) == Some(&false)
                    && outcome.strategy.id == strategies[index].id;
                if !in_contract {
                    redispatch(pool, &mut queue, &mut outstanding[shard], shard);
                    continue;
                }
                outstanding[shard].pop_front();
                progress[shard] = Instant::now();
                pool.record_busy(shard, busy_nanos);
                delivered[index] = true;
                remaining -= 1;
                admission.offer(index, *outcome, counters);
            }
        }
    }

    (0..n).filter(|&index| !delivered[index]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requeued_work_goes_back_out_first_as_contiguous_ranges() {
        let mut queue: VecDeque<(usize, usize)> = VecDeque::from([(20, 4)]);
        let mut outstanding: VecDeque<usize> = VecDeque::from([3, 4, 5, 9, 11, 12]);
        assert_eq!(requeue_outstanding(&mut queue, &mut outstanding), 3);
        assert!(outstanding.is_empty());
        assert_eq!(
            Vec::from(queue),
            vec![(3, 3), (9, 1), (11, 2), (20, 4)],
            "lowest indices first, ahead of what was already queued"
        );
    }
}

//! Controller/executor split: sharded multi-process campaign execution.
//!
//! The paper's harness was a controller machine driving five executor
//! machines over TCP (§V): the controller owns strategy enumeration and
//! verdicts, the executors own simulation. This module reproduces that
//! division inside one host: the controller spawns `snake shard-worker`
//! child processes and talks to each one over that child's own
//! stdin/stdout (stderr stays inherited). No socket is opened, so a worker
//! answers only the process that spawned it. A worker receives the
//! scenario (by value, plus a digest it must independently recompute) and
//! contiguous strategy-index ranges, evaluates them through its own
//! [`PlannedExecutor`](crate::scenario::PlannedExecutor) — snapshot-fork,
//! memoization and the panic boundary all intact — and streams back one
//! outcome message per strategy.
//!
//! # Wire format
//!
//! Every message is one line of compact JSON framed exactly like a journal
//! line: `payload\tFNV64(payload)\n` (see `journal::checksummed_line`).
//! Unlike the on-disk journal, where a corrupt line is skipped and
//! counted, a checksum failure on the wire is a protocol error: the
//! controller declares the shard dead and re-dispatches its outstanding
//! range. A shard can therefore never contribute a damaged outcome.
//!
//! Controller → worker:
//!
//! * `hello` — protocol version, the worker's shard index, the scenario
//!   spec and every evaluation-relevant knob, and the controller's
//!   scenario digest. The worker re-derives the digest from the *decoded*
//!   spec and echoes it in `ready`; any encode/decode drift surfaces as a
//!   digest mismatch and the shard is dropped before it can run anything.
//! * `range` — a starting strategy index plus the strategies themselves.
//! * `shutdown` — the campaign is over; exit cleanly.
//!
//! Worker → controller:
//!
//! * `ready` — handshake acknowledgement carrying the recomputed digest.
//! * `outcome` — one evaluated strategy: its global index, the worker's
//!   wall-clock busy time, the counter deltas its observer accumulated
//!   during the evaluation (so the controller's manifest tallies match a
//!   single-process run), and the full
//!   [`StrategyOutcome`](crate::StrategyOutcome) in journal
//!   encoding.
//!
//! Determinism is owned entirely by the controller: workers never touch
//! the journal or admission. Outcomes are admitted strictly in
//! strategy-index order through the same `Admission` the in-process
//! thread pool offers to, so TSV, manifest and memo
//! markers are bit-identical at any shard count — including zero, the
//! in-process fallback the controller degrades to when every shard dies.
//!
//! # Supervision and crash tolerance
//!
//! * **One deadline** — EOF, a write error or a refused frame marks a
//!   shard dead at once. What no byte can reveal — a worker hung
//!   mid-range, an outcome frame lost on the wire — shows as a shard that
//!   holds dispatched work for `--shard-timeout` without delivering an
//!   outcome; the dispatcher's progress deadline kills it. Either way its
//!   outstanding indices are re-dispatched to the survivors, or run
//!   in-process once none is left. The same window bounds the wait for
//!   each worker's `ready`. A dead worker is not replaced.
//! * **Controller crash** — workers write nothing to disk. The journal
//!   holds every admitted outcome, so a resumed controller re-dispatches
//!   whatever was evaluated but still on the wire when it died.
//!
//! Wire-level chaos (dropped/truncated/corrupted/delayed outcome frames,
//! worker hangs) is injected deterministically on the controller's read
//! path under [`ChaosPlan`](crate::ChaosPlan) control, so the
//! whole recovery matrix above is exercised by seeded tests.

use std::collections::BTreeMap;
use std::env;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use snake_json::{obj, FromJson, JsonError, ObjExt, ToJson, Value};
use snake_observe::Observer;
use snake_proxy::Strategy;

use crate::admission::WorkerCounters;
use crate::chaos::ChaosPlan;
use crate::config::CampaignConfig;
use crate::evaluate::{evaluate_guarded, SharedCtx};
use crate::journal::{checksummed_line, counters_json, read_raw_line, verify_line};
use crate::result::StrategyOutcome;
use crate::scenario::{scenario_digest, ScenarioSpec};
use crate::strategen::GenerationParams;

/// Wire protocol version; bumped whenever a message shape changes. A
/// worker refuses a `hello` carrying any other version. Version 6 dropped
/// the `hello`'s three per-evaluation watchdog fields.
pub(crate) const WIRE_VERSION: u64 = 6;

/// Exit code a worker uses when the `SNAKE_SHARD_EXIT_AFTER` test hook
/// fires (distinguishable from a panic's 101 in test assertions).
const EXIT_AFTER_CODE: i32 = 17;

/// Default `--shard-timeout`, the pool's one clock: how long a shard may
/// hold dispatched work without delivering an outcome, and how long the
/// controller waits for a spawned worker's `ready`.
pub(crate) const DEFAULT_SHARD_TIMEOUT: Duration = Duration::from_secs(10);

/// How long `finish` waits for a worker process to exit after the
/// shutdown message before killing it.
const REAP_TIMEOUT: Duration = Duration::from_secs(5);

/// The counters a worker may legitimately report per outcome, interned so
/// the controller can replay them into its own observer
/// ([`Observer::counter_add`] takes `&'static str`). Everything outside
/// this table is dropped: a worker cannot invent controller-side state.
const WORKER_COUNTERS: &[&str] = &[
    "exec.runs.from_scratch",
    "exec.runs.forked",
    "exec.runs.elided",
    "netsim.events",
    "netsim.timers_cancelled",
    "netsim.timers_purged",
    "netsim.queue.depth_hwm",
    "netsim.arena.alloc",
    "netsim.arena.reuse",
    "netsim.snapshot_forks",
    "netsim.snapshot_clone_bytes",
    "netsim.forks",
    "netsim.fork_clone_bytes",
    "netsim.impair.lost",
    "netsim.impair.duplicated",
    "netsim.impair.corrupted",
    "netsim.impair.reordered",
    "netsim.impair.flap_dropped",
    "shard.outcome_batches",
    "campaign.escalated",
];

/// Interns a counter name read off the wire or a journal line against
/// [`WORKER_COUNTERS`]; `None` for a name outside the table.
pub(crate) fn intern_counter(name: &str) -> Option<&'static str> {
    WORKER_COUNTERS.iter().copied().find(|known| *known == name)
}

fn protocol_err(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

fn decode_err(err: JsonError) -> io::Error {
    protocol_err(format!("shard wire decode: {err}"))
}

/// Writes one checksummed message line and flushes it to the peer.
fn write_line(writer: &mut impl Write, message: &Value) -> io::Result<()> {
    queue_line(writer, message)?;
    writer.flush()
}

/// Writes one checksummed message line into the writer's buffer without
/// flushing. Workers batch the outcome frames of a dispatched range this
/// way and flush once per range, so an N-strategy range costs one syscall
/// burst instead of N (the controller admits outcomes by index, so frame
/// arrival granularity is invisible to campaign state).
fn queue_line(writer: &mut impl Write, message: &Value) -> io::Result<()> {
    let line = checksummed_line(message.to_string_compact());
    writer.write_all(line.as_bytes())
}

/// Reads the next message line. `Ok(None)` means the peer closed its end
/// of the pipe; a failed checksum or unparseable payload is an error — on
/// the wire (unlike on disk) there is no tolerant skip.
fn read_message(reader: &mut impl BufRead) -> io::Result<Option<Value>> {
    let mut line = Vec::new();
    while read_raw_line(reader, &mut line)? {
        if line.is_empty() {
            continue;
        }
        let payload = verify_line(&line)
            .ok_or_else(|| protocol_err("shard wire line failed its checksum"))?;
        let message = snake_json::parse(payload)
            .map_err(|err| protocol_err(format!("shard wire line is not JSON: {err}")))?;
        return Ok(Some(message));
    }
    Ok(None)
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// Everything a worker needs to stand up its executors, decoded from the
/// controller's `hello`.
struct WorkerJob {
    shard: u64,
    digest: u64,
    spec: ScenarioSpec,
    threshold: f64,
    baseline_reps: usize,
    retest: bool,
    snapshot_fork: bool,
    memoize: bool,
    /// Chaos: hang forever after this many outcomes, so the controller's
    /// progress deadline is exercised.
    hang_after: Option<u64>,
}

fn encode_hello(
    shard: usize,
    digest: u64,
    config: &CampaignConfig,
    memoize: bool,
    hang_after: Option<u64>,
) -> Value {
    obj([
        ("type", Value::Str("hello".to_owned())),
        ("version", Value::U64(WIRE_VERSION)),
        ("shard", Value::U64(shard as u64)),
        ("digest", Value::U64(digest)),
        ("scenario", config.scenario.to_json()),
        ("threshold", Value::F64(config.threshold)),
        ("baseline_reps", Value::U64(config.baseline_reps as u64)),
        ("retest", Value::Bool(config.retest)),
        ("snapshot_fork", Value::Bool(config.snapshot_fork)),
        ("memoize", Value::Bool(memoize)),
        ("hang_after", hang_after.map_or(Value::Null, Value::U64)),
    ])
}

fn decode_hello(message: &Value) -> Result<WorkerJob, JsonError> {
    let version = message.req_u64("version")?;
    if version != WIRE_VERSION {
        return Err(JsonError::decode(format!(
            "shard wire version mismatch: controller speaks {version}, worker speaks {WIRE_VERSION}"
        )));
    }
    Ok(WorkerJob {
        shard: message.req_u64("shard")?,
        digest: message.req_u64("digest")?,
        spec: ScenarioSpec::from_json(message.req("scenario")?)?,
        threshold: message.req_f64("threshold")?,
        baseline_reps: message.req_usize("baseline_reps")?,
        retest: message.req_bool("retest")?,
        snapshot_fork: message.req_bool("snapshot_fork")?,
        memoize: message.req_bool("memoize")?,
        hang_after: message.req_opt_u64("hang_after")?,
    })
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// An [`Observer`] that only accumulates counters, so a worker can ship
/// per-evaluation counter deltas to the controller. Spans and histogram
/// samples are deliberately dropped: in a single-process run they land
/// only in the manifest's (timing) section, which determinism comparisons
/// strip, so reproducing them buys nothing.
#[derive(Debug, Default)]
struct CounterAccumulator {
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl CounterAccumulator {
    /// Takes and resets the accumulated counter deltas.
    fn drain(&self) -> BTreeMap<&'static str, u64> {
        std::mem::take(&mut *self.counters.lock().unwrap())
    }
}

impl Observer for CounterAccumulator {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        *self.counters.lock().unwrap().entry(name).or_insert(0) += delta;
    }
}

/// Parses the `SNAKE_SHARD_EXIT_AFTER="<shard>:<k>"` test hook: the
/// matching worker calls `process::exit` after sending `k` outcomes
/// (`k = 0` exits right after the `ready` handshake). Used by the
/// shard-death determinism tests; ignored unless the shard index matches.
fn exit_after_hook(shard: u64) -> Option<u64> {
    let spec = env::var("SNAKE_SHARD_EXIT_AFTER").ok()?;
    let (target, count) = spec.split_once(':')?;
    if target.trim().parse::<u64>().ok()? == shard {
        count.trim().parse().ok()
    } else {
        None
    }
}

fn ready_message(digest: u64) -> Value {
    obj([
        ("type", Value::Str("ready".to_owned())),
        ("digest", Value::U64(digest)),
    ])
}

/// Reads the controller's frames on a thread of their own and hands them
/// over a channel. The evaluation loop reads its next range only after
/// finishing the current one, and a range frame can outgrow a pipe's
/// buffer, so without this the controller's next `range` write would
/// wait out a whole range. The channel ends at EOF, or after the first
/// refused frame, whose error is its last item. The thread is never
/// joined: when the loop ends it may still be blocked on stdin, and the
/// worker process exits right after.
fn spawn_frame_reader() -> mpsc::Receiver<io::Result<Value>> {
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name("snake-shard-stdin".to_owned())
        .spawn(move || {
            let mut stdin = io::stdin().lock();
            while let Some(frame) = read_message(&mut stdin).transpose() {
                let refused = frame.is_err();
                if tx.send(frame).is_err() || refused {
                    break;
                }
            }
        })
        .expect("spawning the stdin reader thread cannot fail");
    rx
}

/// Runs the `snake shard-worker` loop over this process's stdin/stdout:
/// handshake, evaluate the strategy ranges the controller sends, and
/// stream back one `outcome` message per strategy. Returns when the
/// controller sends `shutdown` or closes stdin. Stdout carries frames
/// only; diagnostics go to stderr.
///
/// The worker is stateless between ranges and owns no campaign
/// artifacts: no journal, no verdict ledger, no file of any kind.
/// If it dies mid-range the controller re-dispatches the unfinished
/// indices elsewhere, and already-admitted outcomes are never re-run.
pub fn run_shard_worker() -> io::Result<()> {
    let mut writer = BufWriter::new(io::stdout().lock());
    let hello = read_message(&mut io::stdin().lock())?
        .ok_or_else(|| protocol_err("controller closed the wire before hello"))?;
    if hello.req_str("type").map_err(decode_err)? != "hello" {
        return Err(protocol_err("expected hello as the first message"));
    }
    let job = decode_hello(&hello).map_err(decode_err)?;
    let digest = scenario_digest(&job.spec, job.threshold, job.baseline_reps);
    if digest != job.digest {
        // Echo what we computed anyway: the controller reports the
        // mismatch and degrades to in-process execution.
        write_line(&mut writer, &ready_message(digest))?;
        return Err(protocol_err(format!(
            "scenario digest mismatch: controller sent {:016x}, decoded spec hashes to {digest:016x}",
            job.digest
        )));
    }
    let exit_after = exit_after_hook(job.shard);

    // Stand up the executors exactly as `Campaign::run` does, with a
    // counter-accumulating observer so evaluation tallies can be shipped
    // to the controller per outcome.
    let accumulator = Arc::new(CounterAccumulator::default());
    let observer: Arc<dyn Observer> = accumulator.clone();
    let config = CampaignConfig {
        scenario: job.spec,
        params: GenerationParams::default(),
        threshold: job.threshold,
        parallelism: 1,
        max_strategies: None,
        feedback_rounds: 1,
        retest: job.retest,
        journal: None,
        resume: false,
        progress_every: 0,
        snapshot_fork: job.snapshot_fork,
        memoize: job.memoize,
        fault_hook: None,
        chaos: None,
        baseline_reps: job.baseline_reps,
        observer,
        shards: 0,
        shard_worker_bin: None,
        shard_timeout: DEFAULT_SHARD_TIMEOUT,
    };
    let shared = Arc::new(
        SharedCtx::prepare(config, job.memoize)
            .map_err(|_| protocol_err("worker baseline is invalid"))?,
    );
    // Build the plans now, before the drain: left to the first strategy,
    // their set-up counters would ship with its outcome. Outside the
    // evaluation panic boundary, a failing build ends the worker.
    shared.ensure_plans();
    // Setup cost (baseline, plans, envelopes) accrued counters of its own;
    // the controller already counted its setup once, so discard ours
    // rather than double-reporting.
    accumulator.drain();

    write_line(&mut writer, &ready_message(digest))?;
    let mut sent: u64 = 0;
    if exit_after == Some(sent) {
        std::process::exit(EXIT_AFTER_CODE);
    }

    for message in spawn_frame_reader() {
        let message = message?;
        match message.req_str("type").map_err(decode_err)? {
            "range" => {
                accumulator.counter_add("shard.outcome_batches", 1);
                let start = message.req_u64("start").map_err(decode_err)?;
                let strategies = message
                    .req("strategies")
                    .map_err(decode_err)?
                    .as_arr()
                    .ok_or_else(|| protocol_err("range.strategies: expected array"))?;
                for (offset, encoded) in strategies.iter().enumerate() {
                    let strategy = Strategy::from_json(encoded).map_err(decode_err)?;
                    let began = Instant::now();
                    let outcome = evaluate_guarded(&shared, strategy);
                    let busy_nanos = began.elapsed().as_nanos() as u64;
                    let index = start + offset as u64;
                    let reply = obj([
                        ("type", Value::Str("outcome".to_owned())),
                        ("index", Value::U64(index)),
                        ("busy_nanos", Value::U64(busy_nanos)),
                        ("counters", counters_json(accumulator.drain())),
                        ("outcome", outcome.to_json()),
                    ]);
                    queue_line(&mut writer, &reply)?;
                    sent += 1;
                    if exit_after == Some(sent) {
                        // The hook simulates a worker dying *after*
                        // this outcome reached the wire, so drain the
                        // batch buffer before exiting.
                        writer.flush()?;
                        std::process::exit(EXIT_AFTER_CODE);
                    }
                    if job.hang_after == Some(sent) {
                        // Chaos: go silent without closing anything.
                        // The current batch stays buffered — exactly the
                        // shape of a livelocked worker. The controller's
                        // progress deadline must declare this shard
                        // dead; the process is killed from outside.
                        loop {
                            std::thread::sleep(Duration::from_secs(60));
                        }
                    }
                }
                writer.flush()?;
            }
            "shutdown" => break,
            other => return Err(protocol_err(format!("unexpected message type `{other}`"))),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

/// One message from a shard's reader thread to the dispatcher.
pub(crate) enum ShardEvent {
    /// The worker answered `hello` with the controller's digest.
    Ready {
        /// Which shard is ready.
        shard: usize,
    },
    /// A worker finished one strategy.
    Outcome {
        /// Which shard produced it.
        shard: usize,
        /// Global strategy index within the batch.
        index: usize,
        /// Worker wall-clock spent evaluating, for busy/idle accounting.
        busy_nanos: u64,
        /// Counter deltas the worker's observer accumulated, interned.
        counters: WorkerCounters,
        /// The evaluated outcome, in journal encoding.
        outcome: Box<StrategyOutcome>,
    },
    /// The shard's wire is unusable: closed, undecodable, or refused
    /// (including a failed handshake). Always its reader's last event.
    Dead {
        /// Which shard died.
        shard: usize,
    },
}

/// What a bounded wait on the pool's event stream produced.
pub(crate) enum PoolWait {
    /// An event arrived within the deadline.
    Event(ShardEvent),
    /// Nothing arrived in time; the dispatcher checks its progress
    /// deadlines.
    Idle,
    /// Every reader thread has exited; nothing further can arrive.
    Closed,
}

fn decode_outcome_event(shard: usize, message: &Value) -> Result<ShardEvent, JsonError> {
    if message.req_str("type")? != "outcome" {
        return Err(JsonError::decode("expected an outcome message"));
    }
    let index = message.req_usize("index")?;
    let counters = match message.req("counters")? {
        // Names outside the intern table are dropped here, once: a worker
        // cannot invent controller-side state.
        Value::Obj(pairs) => pairs
            .iter()
            .filter_map(|(name, delta)| match delta.as_u64() {
                Some(delta) => intern_counter(name).map(|name| Ok((name, delta))),
                None => Some(Err(JsonError::decode(format!(
                    "counter {name}: expected integer"
                )))),
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err(JsonError::decode("outcome.counters: expected object")),
    };
    Ok(ShardEvent::Outcome {
        shard,
        index,
        busy_nanos: message.req_u64("busy_nanos")?,
        counters,
        outcome: Box::new(StrategyOutcome::from_json(message.req("outcome")?)?),
    })
}

/// The deterministic wire-fault lane of a [`ChaosPlan`], applied on the
/// controller's read path by outcome-frame ordinal, so the same plan
/// perturbs the same frames every run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WireFaults {
    drop_every: Option<u64>,
    truncate_every: Option<u64>,
    corrupt_every: Option<u64>,
    delay_every: Option<u64>,
    delay: Duration,
}

impl WireFaults {
    fn from_chaos(chaos: Option<&ChaosPlan>) -> WireFaults {
        match chaos {
            None => WireFaults::default(),
            Some(plan) => WireFaults {
                drop_every: plan.wire_drop_every,
                truncate_every: plan.wire_truncate_every,
                corrupt_every: plan.wire_corrupt_every,
                delay_every: plan.wire_delay_every,
                delay: Duration::from_millis(plan.wire_delay_ms),
            },
        }
    }
}

fn fault_hits(every: Option<u64>, ordinal: u64) -> bool {
    every.is_some_and(|n| n > 0 && ordinal.is_multiple_of(n))
}

fn shutdown_message() -> Value {
    obj([("type", Value::Str("shutdown".to_owned()))])
}

/// Waits for `child` to exit, escalating to a kill after [`REAP_TIMEOUT`].
fn reap(child: &mut Child) {
    let deadline = Instant::now() + REAP_TIMEOUT;
    loop {
        match child.try_wait() {
            Ok(Some(_)) | Err(_) => return,
            Ok(None) => {}
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Reads a worker's answer to `hello`: a `ready` echoing `digest`.
fn read_ready(reader: &mut impl BufRead, digest: u64) -> io::Result<()> {
    let ready =
        read_message(reader)?.ok_or_else(|| protocol_err("worker closed the wire before ready"))?;
    if ready.req_str("type").map_err(decode_err)? != "ready" {
        return Err(protocol_err("expected a ready message"));
    }
    let echoed = ready.req_u64("digest").map_err(decode_err)?;
    if echoed != digest {
        return Err(protocol_err(format!(
            "scenario digest mismatch: sent {digest:016x}, worker decoded {echoed:016x}"
        )));
    }
    Ok(())
}

/// Drains one worker's stdout: first its `ready` (a pipe has no read
/// timeout, so the handshake result travels over the event channel and
/// the controller bounds the wait there), then its outcome frames. Ends
/// with exactly one `Dead`.
fn spawn_reader(
    shard: usize,
    digest: u64,
    mut reader: BufReader<ChildStdout>,
    tx: mpsc::Sender<ShardEvent>,
    wire: WireFaults,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("snake-shard-rx-{shard}"))
        .spawn(move || {
            if let Err(err) = read_ready(&mut reader, digest) {
                eprintln!("snake: shard {shard} failed its handshake and was dropped: {err}");
                tx.send(ShardEvent::Dead { shard }).ok();
                return;
            }
            if tx.send(ShardEvent::Ready { shard }).is_err() {
                return;
            }
            let mut outcomes: u64 = 0;
            loop {
                let event = match read_message(&mut reader) {
                    Ok(Some(message)) => match decode_outcome_event(shard, &message) {
                        Ok(event) => {
                            outcomes += 1;
                            // Wire chaos, by outcome ordinal: a truncated
                            // or corrupted frame would have failed its
                            // checksum, which on the wire is a protocol
                            // death; a dropped frame simply never
                            // happened; a delayed frame arrives late but
                            // intact.
                            if fault_hits(wire.truncate_every, outcomes)
                                || fault_hits(wire.corrupt_every, outcomes)
                            {
                                ShardEvent::Dead { shard }
                            } else if fault_hits(wire.drop_every, outcomes) {
                                continue;
                            } else {
                                if fault_hits(wire.delay_every, outcomes) {
                                    std::thread::sleep(wire.delay);
                                }
                                event
                            }
                        }
                        Err(_) => ShardEvent::Dead { shard },
                    },
                    Ok(None) | Err(_) => ShardEvent::Dead { shard },
                };
                let is_dead = matches!(event, ShardEvent::Dead { .. });
                if tx.send(event).is_err() || is_dead {
                    break;
                }
            }
        })
        .expect("spawning a shard reader thread cannot fail")
}

/// One spawned worker process, controller side. The link owns the child's
/// stdio, so killing a link always kills the worker it talks to.
struct ShardLink {
    child: Child,
    /// Send half, the child's stdin; `None` once the shard is declared
    /// dead.
    writer: Option<BufWriter<ChildStdin>>,
    /// The reader thread draining the child's stdout.
    reader: Option<JoinHandle<()>>,
    /// Whether the worker answered `ready` with the right digest in time.
    handshaked: bool,
    /// Total worker-reported evaluation time.
    busy_nanos: u64,
}

impl ShardLink {
    /// Spawns one `snake shard-worker` on piped stdin/stdout, sends it
    /// `hello`, and starts the reader thread that waits for its `ready`.
    fn spawn(
        worker_bin: &Path,
        shard: usize,
        hello: &Value,
        digest: u64,
        tx: &mpsc::Sender<ShardEvent>,
        wire: WireFaults,
    ) -> io::Result<ShardLink> {
        let mut child = Command::new(worker_bin)
            .arg("shard-worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let reader = spawn_reader(shard, digest, BufReader::new(stdout), tx.clone(), wire);
        let mut writer = BufWriter::new(child.stdin.take().expect("stdin is piped"));
        // A worker that cannot take its hello is gone already; killing it
        // closes its stdout, and its reader reports it dead.
        let writer = match write_line(&mut writer, hello) {
            Ok(()) => Some(writer),
            Err(_) => {
                child.kill().ok();
                None
            }
        };
        Ok(ShardLink {
            child,
            writer,
            reader: Some(reader),
            handshaked: false,
            busy_nanos: 0,
        })
    }
}

/// The controller's set of worker processes for one campaign, plus the
/// merged event stream their reader threads feed.
pub(crate) struct ShardPool {
    links: Vec<ShardLink>,
    events: mpsc::Receiver<ShardEvent>,
    started: Instant,
    /// Shards that completed the handshake (the `shard.workers` counter).
    workers: usize,
    /// Ranges handed to workers, including re-dispatches.
    pub(crate) ranges_dispatched: u64,
    /// Ranges re-dispatched after a shard death or protocol violation.
    pub(crate) ranges_redispatched: u64,
    /// Shards killed by the progress deadline (hung, or an outcome lost).
    pub(crate) deadlines_missed: u64,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("links", &self.links.len())
            .field("workers", &self.workers)
            .field("ranges_dispatched", &self.ranges_dispatched)
            .field("ranges_redispatched", &self.ranges_redispatched)
            .finish()
    }
}

impl ShardPool {
    /// Spawns the configured worker processes, handshakes each one, and
    /// leaves their reader threads running. Shards that fail to spawn,
    /// echo a wrong digest, die, or stay silent past `shard_timeout`
    /// during the handshake are simply absent from the live set; the
    /// caller degrades to in-process execution when `live()` comes back
    /// zero.
    pub(crate) fn launch(config: &CampaignConfig, memoize: bool) -> io::Result<ShardPool> {
        let digest = scenario_digest(&config.scenario, config.threshold, config.baseline_reps);
        let wire = WireFaults::from_chaos(config.chaos.as_ref());
        let hang_after = config
            .chaos
            .as_ref()
            .and_then(|plan| plan.hang_worker_after);
        let worker_bin = match &config.shard_worker_bin {
            Some(path) => path.clone(),
            None => env::current_exe()?,
        };
        let (tx, events) = mpsc::channel();
        let mut links = Vec::new();
        for _ in 0..config.shards {
            let shard = links.len();
            // The hang knob targets shard 0 only, so a hang-chaos
            // campaign still has live shards to finish on.
            let hang = if shard == 0 { hang_after } else { None };
            let hello = encode_hello(shard, digest, config, memoize, hang);
            match ShardLink::spawn(&worker_bin, shard, &hello, digest, &tx, wire) {
                Ok(link) => links.push(link),
                Err(err) => eprintln!("snake: failed to spawn shard worker {worker_bin:?}: {err}"),
            }
        }
        // Only reader threads hold senders from here on, so the stream
        // closes once every one of them has exited.
        drop(tx);
        let mut pool = ShardPool {
            links,
            events,
            started: Instant::now(),
            workers: 0,
            ranges_dispatched: 0,
            ranges_redispatched: 0,
            deadlines_missed: 0,
        };
        pool.await_ready(config.shard_timeout);
        Ok(pool)
    }

    /// Collects every worker's handshake result, waiting at most
    /// `timeout`; a worker still silent then is killed.
    fn await_ready(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut pending = self.links.len();
        while pending > 0 {
            let wait = deadline.saturating_duration_since(Instant::now());
            match self.events.recv_timeout(wait) {
                Ok(ShardEvent::Ready { shard }) => {
                    self.links[shard].handshaked = true;
                    self.workers += 1;
                    pending -= 1;
                }
                Ok(ShardEvent::Dead { shard }) => {
                    if !self.links[shard].handshaked {
                        pending -= 1;
                    }
                    self.kill(shard);
                }
                // No range has been sent yet.
                Ok(ShardEvent::Outcome { .. }) => {}
                Err(_) => break,
            }
        }
        for shard in 0..self.links.len() {
            if !self.links[shard].handshaked {
                self.kill(shard);
            }
        }
    }

    /// Shards currently accepting work.
    pub(crate) fn live(&self) -> usize {
        self.links
            .iter()
            .filter(|link| link.writer.is_some())
            .count()
    }

    /// Whether one specific shard is still accepting work.
    pub(crate) fn is_live(&self, shard: usize) -> bool {
        self.links
            .get(shard)
            .is_some_and(|link| link.writer.is_some())
    }

    /// Total link slots (dead ones included); shard indices range over this.
    pub(crate) fn len(&self) -> usize {
        self.links.len()
    }

    /// Sends one contiguous range to a shard. Returns `false` — after
    /// killing the link — when the write fails, so the caller re-queues.
    pub(crate) fn send_range(
        &mut self,
        shard: usize,
        start: usize,
        strategies: &[Strategy],
    ) -> bool {
        let Some(writer) = self
            .links
            .get_mut(shard)
            .and_then(|link| link.writer.as_mut())
        else {
            return false;
        };
        let message = obj([
            ("type", Value::Str("range".to_owned())),
            ("start", Value::U64(start as u64)),
            (
                "strategies",
                Value::Arr(strategies.iter().map(ToJson::to_json).collect()),
            ),
        ]);
        if write_line(writer, &message).is_err() {
            self.kill(shard);
            return false;
        }
        self.ranges_dispatched += 1;
        true
    }

    /// Declares a shard dead: kills the worker outright — one that missed
    /// its progress deadline may be hung inside an evaluation — and closes
    /// its stdin. Its reader thread then reads EOF and winds down.
    pub(crate) fn kill(&mut self, shard: usize) {
        if let Some(link) = self.links.get_mut(shard) {
            link.child.kill().ok();
            link.writer = None;
        }
    }

    /// Credits one received outcome to a shard's busy-time tally.
    pub(crate) fn record_busy(&mut self, shard: usize, busy_nanos: u64) {
        if let Some(link) = self.links.get_mut(shard) {
            link.busy_nanos += busy_nanos;
        }
    }

    /// Waits up to `timeout` for the next event from any shard.
    pub(crate) fn next_event_timeout(&self, timeout: Duration) -> PoolWait {
        match self.events.recv_timeout(timeout) {
            Ok(event) => PoolWait::Event(event),
            Err(mpsc::RecvTimeoutError::Timeout) => PoolWait::Idle,
            Err(mpsc::RecvTimeoutError::Disconnected) => PoolWait::Closed,
        }
    }

    /// Shuts every worker down, joins the reader threads, reaps the
    /// children, and reports per-shard tallies to `observer`: the
    /// `shard.workers` / `shard.ranges_dispatched` /
    /// `shard.ranges_redispatched` / `shard.deadline.missed` counters and
    /// one `shard.busy_nanos` / `shard.idle_nanos` histogram sample per
    /// handshaked shard.
    pub(crate) fn finish(&mut self, observer: &dyn Observer) {
        let lifetime = self.started.elapsed().as_nanos() as u64;
        self.teardown();
        observer.counter_add("shard.workers", self.workers as u64);
        observer.counter_add("shard.ranges_dispatched", self.ranges_dispatched);
        observer.counter_add("shard.ranges_redispatched", self.ranges_redispatched);
        observer.counter_add("shard.deadline.missed", self.deadlines_missed);
        for link in self.links.iter().filter(|link| link.handshaked) {
            observer.record("shard.busy_nanos", link.busy_nanos);
            observer.record("shard.idle_nanos", lifetime.saturating_sub(link.busy_nanos));
        }
    }

    /// Reports for a sharded campaign whose pool never had to launch
    /// (no round had a strategy left to evaluate): the
    /// configured worker count with nothing dispatched, so the manifest
    /// keeps its `shards` section and readers find the same keys as after
    /// a run that did launch.
    pub(crate) fn report_unlaunched(config: &CampaignConfig) {
        let observer = config.observer.as_ref();
        observer.counter_add("shard.workers", config.shards as u64);
        for tally in [
            "shard.ranges_dispatched",
            "shard.ranges_redispatched",
            "shard.deadline.missed",
        ] {
            observer.counter_add(tally, 0);
        }
    }

    fn teardown(&mut self) {
        // `shutdown`, then EOF as the writer drops: a worker exits on
        // either, and its reader thread on the EOF that follows.
        for link in &mut self.links {
            if let Some(mut writer) = link.writer.take() {
                write_line(&mut writer, &shutdown_message()).ok();
            }
        }
        for link in &mut self.links {
            reap(&mut link.child);
            if let Some(handle) = link.reader.take() {
                handle.join().ok();
            }
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::line_checksum;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = payload.to_vec();
        frame.extend(format!("\t{:016x}\n", line_checksum(payload)).bytes());
        frame
    }

    /// A frame whose checksum holds but whose payload the parser refuses
    /// is a protocol error — which the reader thread turns into a dead
    /// shard — and never a crash of the controller reading it.
    #[test]
    fn well_framed_garbage_is_a_protocol_error() {
        let too_deep = format!("{}{}", "[".repeat(129), "]".repeat(129));
        let mut not_utf8 = br#"{"type":"shutdown"}"#.to_vec();
        not_utf8[3] |= 0x80;
        for payload in [too_deep.as_bytes(), &not_utf8] {
            let err = read_message(&mut frame(payload).as_slice()).expect_err("must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        // The same framing around a sound payload goes through, blank
        // lines before it or not.
        let mut wire = b"\n".to_vec();
        wire.extend(frame(br#"{"type":"shutdown"}"#));
        let mut wire = wire.as_slice();
        let message = read_message(&mut wire).unwrap().expect("one message");
        assert_eq!(message.req_str("type").unwrap(), "shutdown");
        assert!(
            read_message(&mut wire).unwrap().is_none(),
            "then end of stream"
        );
    }
    /// Counter names are interned once, where the frame is decoded: a
    /// name outside the worker table (a retired or invented one) is
    /// dropped there, while a non-integer delta still refuses the frame.
    #[test]
    fn outcome_counters_are_interned_at_decode() {
        use crate::detect::Verdict;
        use crate::result::OutcomeKind;
        use crate::scenario::TestMetrics;
        use snake_proxy::{BasicAttack, Endpoint, StrategyKind};

        let outcome = StrategyOutcome {
            strategy: Strategy {
                id: 3,
                kind: StrategyKind::OnPacket {
                    endpoint: Endpoint::Client,
                    state: "ESTABLISHED".into(),
                    packet_type: "ACK".into(),
                    attack: BasicAttack::Drop { percent: 100 },
                },
            },
            verdict: Verdict::default(),
            metrics: TestMetrics::empty(),
            repeatable: false,
            on_path: false,
            false_positive: false,
            outcome_kind: OutcomeKind::Ok,
            error: None,
            memo: None,
        };
        let message = |counters: Value| {
            obj([
                ("type", Value::Str("outcome".to_owned())),
                ("index", Value::U64(3)),
                ("busy_nanos", Value::U64(10)),
                ("counters", counters),
                ("outcome", outcome.to_json()),
            ])
        };
        let known_and_not = counters_json([
            ("netsim.events", 5),
            ("not.a.counter", 9),
            ("campaign.escalated", 2),
        ]);
        let Ok(ShardEvent::Outcome { counters, .. }) =
            decode_outcome_event(1, &message(known_and_not))
        else {
            panic!("a sound outcome frame decodes");
        };
        assert_eq!(
            counters,
            vec![("netsim.events", 5), ("campaign.escalated", 2)]
        );
        let not_integer = obj([("not.a.counter", Value::Str("9".to_owned()))]);
        assert!(decode_outcome_event(1, &message(not_integer)).is_err());
    }
}

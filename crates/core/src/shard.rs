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
//! line (see [`framed`](crate::framed)). Unlike the on-disk journal, where
//! a damaged line is skipped and counted, a damaged frame on the wire is a
//! protocol error: the controller declares the shard dead and re-dispatches
//! its outstanding range. A shard can therefore never contribute a damaged
//! outcome.
//!
//! Controller → worker:
//!
//! * `hello` — protocol version, the scenario spec and every
//!   evaluation-relevant knob, the controller's scenario digest, and the
//!   chaos plan's worker fault, if it targets this shard.
//!   The worker re-derives the digest from the *decoded* spec and echoes
//!   it in `ready`; any encode/decode drift surfaces as a digest mismatch
//!   and the shard is dropped before it can run anything.
//! * `range` — a starting strategy index plus the strategies themselves.
//! * `shutdown` — the campaign is over; exit cleanly.
//!
//! Worker → controller:
//!
//! * `ready` — handshake acknowledgement carrying the recomputed digest.
//! * `outcome` — one evaluated strategy: the journal's outcome record (the
//!   [`StrategyOutcome`](crate::StrategyOutcome) plus the counter deltas
//!   the worker's observer accumulated during the evaluation, so the
//!   controller's manifest tallies match a single-process run) with its
//!   global `index` and the worker's wall-clock `busy_nanos` appended.
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
//!   outcome; the progress deadline kills it. Either way its outstanding
//!   indices are re-dispatched to the survivors, or handed back for the
//!   in-process threads once none is left. The same window bounds the
//!   wait for each worker's `ready`. A dead worker is not replaced.
//! * **Controller crash** — workers write nothing to disk. The journal
//!   holds every admitted outcome, so a resumed controller re-dispatches
//!   whatever was evaluated but still on the wire when it died.
//!
//! Wire chaos acts where real faults do. Under
//! [`ChaosPlan`](crate::ChaosPlan) control, the controller's reader
//! thread drops, corrupts or delays raw outcome frames by ordinal — a
//! corrupted frame has one byte flipped before its checksum is checked —
//! and shard 0's worker hangs or exits after a set number of outcomes, so
//! the whole recovery matrix above is exercised by seeded tests.

use std::collections::{BTreeMap, VecDeque};
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

use crate::admission::Admission;
use crate::chaos::ChaosPlan;
use crate::config::CampaignConfig;
use crate::evaluate::{evaluate_guarded, SharedCtx};
use crate::framed::{decode_line, write_frame, FrameReader};
use crate::journal::{decode_record, encode_record, JournalEntry};
use crate::result::StrategyOutcome;
use crate::scenario::{scenario_digest, ScenarioSpec};
use crate::strategen::GenerationParams;

/// Wire protocol version; bumped whenever a message shape changes. A
/// worker refuses a `hello` carrying any other version. Version 7 made the
/// `outcome` frame the journal's outcome record plus `index` and
/// `busy_nanos`; the `hello` lost its unread `shard` index, and its
/// `hang_after` became `worker_fault`.
pub(crate) const WIRE_VERSION: u64 = 7;

/// Exit code of a worker acting out the chaos plan's worker exit
/// (distinguishable from a panic's 101).
const WORKER_EXIT_CODE: i32 = 17;

/// Default `--shard-timeout`, the pool's one clock: how long a shard may
/// hold dispatched work without delivering an outcome, and how long the
/// controller waits for a spawned worker's `ready`.
pub(crate) const DEFAULT_SHARD_TIMEOUT: Duration = Duration::from_secs(10);

/// How long `finish` waits for a worker process to exit after the
/// shutdown message before killing it.
const REAP_TIMEOUT: Duration = Duration::from_secs(5);

fn protocol_err(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

fn decode_err(err: JsonError) -> io::Error {
    protocol_err(format!("shard wire decode: {err}"))
}

/// Writes one framed message and flushes it to the peer.
fn write_line(writer: &mut impl Write, message: &Value) -> io::Result<()> {
    write_frame(writer, message)?;
    writer.flush()
}

/// Reads the next message. `Ok(None)` means the peer closed its end of
/// the pipe; a damaged frame is an error — on the wire (unlike on disk)
/// there is no tolerant skip.
fn read_message(frames: &mut FrameReader<impl BufRead>) -> io::Result<Option<Value>> {
    match frames.next_frame()? {
        None => Ok(None),
        Some(Ok(message)) => Ok(Some(message)),
        Some(Err(damage)) => Err(protocol_err(format!("shard wire line {damage}"))),
    }
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// The chaos plan's fault for shard 0's worker, acted out once the worker
/// has sent `after` outcomes: it exits, or it hangs.
#[derive(Debug, Clone, Copy)]
struct WorkerFault {
    exit: bool,
    after: u64,
}

impl WorkerFault {
    /// The plan's worker fault that fires first. The other one could
    /// never fire: after either, the worker sends nothing more.
    fn from_plan(plan: &ChaosPlan) -> Option<WorkerFault> {
        let exit = plan
            .worker_exit_after
            .map(|after| WorkerFault { exit: true, after });
        let hang = plan
            .hang_worker_after
            .map(|after| WorkerFault { exit: false, after });
        exit.into_iter().chain(hang).min_by_key(|fault| fault.after)
    }

    /// Acts the fault out if it is due after `sent` outcomes. An exit
    /// first flushes what is queued, so the outcomes before it reach the
    /// wire. A hang goes silent without closing anything, the batch
    /// still buffered — the shape of a livelocked worker, which the
    /// controller's progress deadline must declare dead and kill.
    fn act(self, sent: u64, writer: &mut impl Write) -> io::Result<()> {
        if sent != self.after {
            return Ok(());
        }
        if self.exit {
            writer.flush()?;
            std::process::exit(WORKER_EXIT_CODE);
        }
        loop {
            std::thread::sleep(Duration::from_secs(60));
        }
    }
}

/// Everything a worker needs to stand up its executors, decoded from the
/// controller's `hello`.
struct WorkerJob {
    digest: u64,
    spec: ScenarioSpec,
    threshold: f64,
    baseline_reps: usize,
    retest: bool,
    snapshot_fork: bool,
    memoize: bool,
    fault: Option<WorkerFault>,
}

fn encode_hello(
    digest: u64,
    config: &CampaignConfig,
    memoize: bool,
    fault: Option<WorkerFault>,
) -> Value {
    obj([
        ("type", Value::Str("hello".to_owned())),
        ("version", Value::U64(WIRE_VERSION)),
        ("digest", Value::U64(digest)),
        ("scenario", config.scenario.to_json()),
        ("threshold", Value::F64(config.threshold)),
        ("baseline_reps", Value::U64(config.baseline_reps as u64)),
        ("retest", Value::Bool(config.retest)),
        ("snapshot_fork", Value::Bool(config.snapshot_fork)),
        ("memoize", Value::Bool(memoize)),
        (
            "worker_fault",
            fault.map_or(Value::Null, |fault| {
                obj([
                    ("exit", Value::Bool(fault.exit)),
                    ("after", Value::U64(fault.after)),
                ])
            }),
        ),
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
        digest: message.req_u64("digest")?,
        spec: ScenarioSpec::from_json(message.req("scenario")?)?,
        threshold: message.req_f64("threshold")?,
        baseline_reps: message.req_usize("baseline_reps")?,
        retest: message.req_bool("retest")?,
        snapshot_fork: message.req_bool("snapshot_fork")?,
        memoize: message.req_bool("memoize")?,
        fault: match message.req("worker_fault")? {
            Value::Null => None,
            fault => Some(WorkerFault {
                exit: fault.req_bool("exit")?,
                after: fault.req_u64("after")?,
            }),
        },
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
    fn drain(&self) -> Vec<(&'static str, u64)> {
        std::mem::take(&mut *self.counters.lock().unwrap())
            .into_iter()
            .collect()
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
            let mut frames = FrameReader::new(io::stdin().lock());
            while let Some(frame) = read_message(&mut frames).transpose() {
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
    let frames = spawn_frame_reader();
    let hello = frames
        .recv()
        .map_err(|_| protocol_err("controller closed the wire before hello"))??;
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
    if let Some(fault) = job.fault {
        fault.act(sent, &mut writer)?;
    }

    for message in frames {
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
                    let reply =
                        encode_outcome_frame(index, busy_nanos, &outcome, &accumulator.drain());
                    // Batched: one flush per range, not per outcome (the
                    // controller admits by index, so frame arrival
                    // granularity is invisible to campaign state).
                    write_frame(&mut writer, &reply)?;
                    sent += 1;
                    if let Some(fault) = job.fault {
                        fault.act(sent, &mut writer)?;
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

/// One message from a shard's reader thread to the pool.
enum ShardEvent {
    /// The worker answered `hello` with the controller's digest.
    Ready { shard: usize },
    /// A worker finished one strategy: its global index within the batch,
    /// the worker's wall-clock evaluation time, and the outcome record.
    Outcome {
        shard: usize,
        index: usize,
        busy_nanos: u64,
        entry: Box<JournalEntry>,
    },
    /// The shard's wire is unusable: closed, damaged, undecodable, or
    /// refused (including a failed handshake). Always its reader's last
    /// event.
    Dead { shard: usize },
}

/// The wire's outcome frame: the journal's outcome record with the
/// strategy's batch `index` and the worker's `busy_nanos` appended.
fn encode_outcome_frame(
    index: u64,
    busy_nanos: u64,
    outcome: &StrategyOutcome,
    counters: &[(&str, u64)],
) -> Value {
    let mut frame = encode_record(outcome, counters);
    if let Value::Obj(pairs) = &mut frame {
        pairs.push(("index".to_owned(), Value::U64(index)));
        pairs.push(("busy_nanos".to_owned(), Value::U64(busy_nanos)));
    }
    frame
}

fn decode_outcome_event(shard: usize, message: &Value) -> Result<ShardEvent, JsonError> {
    Ok(ShardEvent::Outcome {
        shard,
        index: message.req_usize("index")?,
        busy_nanos: message.req_u64("busy_nanos")?,
        entry: Box::new(decode_record(message)?),
    })
}

/// Wire chaos: flips the low bit of the last ASCII digit in a raw frame's
/// payload (in an outcome frame, a digit of `busy_nanos`). A digit stays
/// a digit, so the frame still parses and decodes: only the checksum can
/// tell it was damaged.
fn flip_payload_digit(line: &mut [u8]) {
    let payload = line.len().saturating_sub(17);
    if let Some(digit) = line[..payload]
        .iter_mut()
        .rev()
        .find(|byte| byte.is_ascii_digit())
    {
        *digit ^= 1;
    }
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
fn read_ready(frames: &mut FrameReader<impl BufRead>, digest: u64) -> io::Result<()> {
    let ready =
        read_message(frames)?.ok_or_else(|| protocol_err("worker closed the wire before ready"))?;
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
/// with exactly one `Dead`. The plan's wire faults act here, by frame
/// ordinal, on the raw bytes: a dropped frame never happened, a corrupted
/// one meets the checksum like real damage, a delayed one arrives late
/// but intact.
fn spawn_reader(
    shard: usize,
    digest: u64,
    mut frames: FrameReader<BufReader<ChildStdout>>,
    tx: mpsc::Sender<ShardEvent>,
    chaos: Option<ChaosPlan>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("snake-shard-rx-{shard}"))
        .spawn(move || {
            if let Err(err) = read_ready(&mut frames, digest) {
                eprintln!("snake: shard {shard} failed its handshake and was dropped: {err}");
                tx.send(ShardEvent::Dead { shard }).ok();
                return;
            }
            if tx.send(ShardEvent::Ready { shard }).is_err() {
                return;
            }
            let plan = chaos.unwrap_or_default();
            let mut ordinal: u64 = 0;
            while let Ok(Some(line)) = frames.next_line() {
                ordinal += 1;
                if ChaosPlan::hits(plan.wire_drop_every, ordinal) {
                    continue;
                }
                if ChaosPlan::hits(plan.wire_corrupt_every, ordinal) {
                    flip_payload_digit(line);
                }
                if ChaosPlan::hits(plan.wire_delay_every, ordinal) {
                    std::thread::sleep(Duration::from_millis(plan.wire_delay_ms));
                }
                let Some(event) = decode_line(line)
                    .ok()
                    .and_then(|message| decode_outcome_event(shard, &message).ok())
                else {
                    break;
                };
                if tx.send(event).is_err() {
                    return;
                }
            }
            tx.send(ShardEvent::Dead { shard }).ok();
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
        chaos: Option<ChaosPlan>,
    ) -> io::Result<ShardLink> {
        let mut child = Command::new(worker_bin)
            .arg("shard-worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let frames = FrameReader::new(BufReader::new(stdout));
        let reader = spawn_reader(shard, digest, frames, tx.clone(), chaos);
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

/// The controller's set of worker processes for one campaign, plus the
/// merged event stream their reader threads feed.
pub(crate) struct ShardPool {
    links: Vec<ShardLink>,
    events: mpsc::Receiver<ShardEvent>,
    started: Instant,
    /// The progress deadline (`--shard-timeout`).
    timeout: Duration,
    /// Ranges handed to workers, including re-dispatches.
    ranges_dispatched: u64,
    /// Ranges re-dispatched after a shard death or protocol violation.
    ranges_redispatched: u64,
    /// Shards killed by the progress deadline (hung, or an outcome lost).
    deadlines_missed: u64,
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
        let fault = config.chaos.as_ref().and_then(WorkerFault::from_plan);
        let worker_bin = match &config.shard_worker_bin {
            Some(path) => path.clone(),
            None => env::current_exe()?,
        };
        let (tx, events) = mpsc::channel();
        let mut links = Vec::new();
        for _ in 0..config.shards {
            let shard = links.len();
            // The worker fault targets shard 0 only, so a chaos campaign
            // still has live shards to finish on.
            let fault = if shard == 0 { fault } else { None };
            let hello = encode_hello(digest, config, memoize, fault);
            match ShardLink::spawn(&worker_bin, shard, &hello, digest, &tx, config.chaos) {
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
            timeout: config.shard_timeout,
            ranges_dispatched: 0,
            ranges_redispatched: 0,
            deadlines_missed: 0,
        };
        pool.await_ready();
        Ok(pool)
    }

    /// Collects every worker's handshake result, waiting at most the
    /// progress deadline; a worker still silent then is killed.
    fn await_ready(&mut self) {
        let deadline = Instant::now() + self.timeout;
        let mut pending = self.links.len();
        while pending > 0 {
            let wait = deadline.saturating_duration_since(Instant::now());
            match self.events.recv_timeout(wait) {
                Ok(ShardEvent::Ready { shard }) => {
                    self.links[shard].handshaked = true;
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
    fn is_live(&self, shard: usize) -> bool {
        self.links[shard].writer.is_some()
    }

    /// Evaluates a batch on the worker processes, offering each outcome to
    /// `admission`, and returns the indices it could not get evaluated
    /// (empty unless every shard died), for the in-process driver to
    /// finish — results identical, only slower.
    ///
    /// Dispatch is pull-ish: the work is cut into contiguous ranges of about
    /// a quarter of a shard's fair share, and each shard holds at most two
    /// ranges' worth of outstanding work, so a slow shard strands little.
    /// A shard that disconnects, breaks the framing, answers out of contract
    /// (wrong index order, an index it was never given or already delivered,
    /// a strategy id that does not match), or misses its progress deadline is
    /// killed and its unfinished indices are re-dispatched.
    pub(crate) fn run_batch(
        &mut self,
        admission: &Admission,
        strategies: &[Strategy],
    ) -> Vec<usize> {
        let n = strategies.len();
        let shards = self.links.len();
        let chunk = n.div_ceil(self.live().max(1) * 4).max(1);
        let mut delivered = vec![false; n];
        let mut queue: VecDeque<(usize, usize)> = (0..n)
            .step_by(chunk)
            .map(|start| (start, chunk.min(n - start)))
            .collect();
        let mut remaining = n;
        let mut outstanding: Vec<VecDeque<usize>> = vec![VecDeque::new(); shards];

        // The progress deadline, the pool's one clock. EOF, a write error
        // or a refused frame report a dead shard by themselves; what no
        // byte can reveal — a worker hung mid-range, an outcome frame lost
        // on the wire — shows only as a shard holding dispatched work for
        // a whole `timeout` without delivering an outcome.
        let window = self.timeout;
        let mut progress: Vec<Instant> = vec![Instant::now(); shards];
        while remaining > 0 && self.live() > 0 {
            let mut wait = window;
            for shard in 0..shards {
                if !self.is_live(shard) || outstanding[shard].is_empty() {
                    continue;
                }
                let held = progress[shard].elapsed();
                if held >= window {
                    self.deadlines_missed += 1;
                    self.redispatch(&mut queue, &mut outstanding[shard], shard);
                } else {
                    wait = wait.min(window - held);
                }
            }
            // Top-up: hand queued ranges to the least-loaded live shards.
            loop {
                let target = (0..shards)
                    .filter(|&s| self.is_live(s) && outstanding[s].len() < 2 * chunk)
                    .min_by_key(|&s| outstanding[s].len());
                let Some(shard) = target else { break };
                let Some((start, len)) = queue.pop_front() else {
                    break;
                };
                if self.send_range(shard, start, &strategies[start..start + len]) {
                    outstanding[shard].extend(start..start + len);
                    progress[shard] = Instant::now();
                } else {
                    queue.push_front((start, len));
                }
            }
            if self.live() == 0 {
                break;
            }
            match self.events.recv_timeout(wait) {
                // The next pass checks the deadlines.
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Every reader thread is gone; nothing further can
                    // arrive.
                    for shard in 0..shards {
                        self.kill(shard);
                    }
                    break;
                }
                // A worker that answered after the launch deadline was
                // killed already.
                Ok(ShardEvent::Ready { .. }) => {}
                Ok(ShardEvent::Dead { shard }) => {
                    // Not gated on liveness: a failed `send_range` kills
                    // the link without draining its outstanding indices,
                    // and this event owns that. After any other kill the
                    // shard holds nothing and this requeues nothing.
                    self.redispatch(&mut queue, &mut outstanding[shard], shard);
                }
                Ok(ShardEvent::Outcome {
                    shard,
                    index,
                    busy_nanos,
                    entry,
                }) => {
                    if !self.is_live(shard) {
                        // Late traffic from a shard already declared dead;
                        // its indices were re-queued, so this is stale.
                        continue;
                    }
                    let in_contract = outstanding[shard].front() == Some(&index)
                        && delivered.get(index) == Some(&false)
                        && entry.outcome.strategy.id == strategies[index].id;
                    if !in_contract {
                        self.redispatch(&mut queue, &mut outstanding[shard], shard);
                        continue;
                    }
                    outstanding[shard].pop_front();
                    progress[shard] = Instant::now();
                    self.links[shard].busy_nanos += busy_nanos;
                    delivered[index] = true;
                    remaining -= 1;
                    let JournalEntry { outcome, counters } = *entry;
                    admission.offer(index, outcome, counters);
                }
            }
        }

        (0..n).filter(|&index| !delivered[index]).collect()
    }

    /// Kills a shard and puts its unfinished work back on the queue.
    fn redispatch(
        &mut self,
        queue: &mut VecDeque<(usize, usize)>,
        outstanding: &mut VecDeque<usize>,
        shard: usize,
    ) {
        self.kill(shard);
        self.ranges_redispatched += requeue_outstanding(queue, outstanding);
    }

    /// Sends one contiguous range to a shard. Returns `false` — after
    /// killing the link — when the write fails, so the caller re-queues.
    fn send_range(&mut self, shard: usize, start: usize, strategies: &[Strategy]) -> bool {
        let Some(writer) = self.links[shard].writer.as_mut() else {
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
    fn kill(&mut self, shard: usize) {
        let link = &mut self.links[shard];
        link.child.kill().ok();
        link.writer = None;
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
        let workers: Vec<&ShardLink> = self.links.iter().filter(|link| link.handshaked).collect();
        observer.counter_add("shard.workers", workers.len() as u64);
        observer.counter_add("shard.ranges_dispatched", self.ranges_dispatched);
        observer.counter_add("shard.ranges_redispatched", self.ranges_redispatched);
        observer.counter_add("shard.deadline.missed", self.deadlines_missed);
        for link in workers {
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
    use crate::framed::checksummed_line;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = payload.to_vec();
        frame.extend(format!("\t{:016x}\n", crate::framed::line_checksum(payload)).bytes());
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
            let wire = frame(payload);
            let err =
                read_message(&mut FrameReader::new(wire.as_slice())).expect_err("must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        // The same framing around a sound payload goes through, blank
        // lines before it or not.
        let mut wire = b"\n".to_vec();
        wire.extend(frame(br#"{"type":"shutdown"}"#));
        let mut frames = FrameReader::new(wire.as_slice());
        let message = read_message(&mut frames).unwrap().expect("one message");
        assert_eq!(message.req_str("type").unwrap(), "shutdown");
        assert!(
            read_message(&mut frames).unwrap().is_none(),
            "then end of stream"
        );
    }

    fn outcome() -> StrategyOutcome {
        use crate::detect::Verdict;
        use crate::result::OutcomeKind;
        use crate::scenario::TestMetrics;
        use snake_proxy::{BasicAttack, Endpoint, StrategyKind};

        StrategyOutcome {
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
        }
    }

    /// The outcome frame is decoded under the journal's counters rule: a
    /// name outside the worker table (a retired or invented one) is
    /// dropped, while a non-integer delta refuses the frame.
    #[test]
    fn outcome_counters_are_interned_at_decode() {
        let counters = [
            ("netsim.events", 5),
            ("not.a.counter", 9),
            ("campaign.escalated", 2),
        ];
        let frame = encode_outcome_frame(3, 10, &outcome(), &counters);
        let Ok(ShardEvent::Outcome { index, entry, .. }) = decode_outcome_event(1, &frame) else {
            panic!("a sound outcome frame decodes");
        };
        assert_eq!(index, 3);
        assert_eq!(entry.outcome, outcome());
        assert_eq!(
            entry.counters,
            vec![("netsim.events", 5), ("campaign.escalated", 2)]
        );
        let Value::Obj(mut pairs) = encode_outcome_frame(3, 10, &outcome(), &[]) else {
            unreachable!("an outcome frame is an object")
        };
        let not_integer = obj([("netsim.events", Value::Str("9".to_owned()))]);
        pairs.push(("counters".to_owned(), not_integer));
        assert!(decode_outcome_event(1, &Value::Obj(pairs)).is_err());
    }

    /// The `wire-corrupt` flip lands on `busy_nanos` and leaves JSON that
    /// still decodes: only the checksum can refuse the frame.
    #[test]
    fn a_corrupted_frame_still_decodes_but_fails_its_checksum() {
        let frame = encode_outcome_frame(3, 10, &outcome(), &[("netsim.events", 5)]);
        let mut line = checksummed_line(frame.to_string_compact()).into_bytes();
        line.pop();
        flip_payload_digit(&mut line);
        let payload = std::str::from_utf8(&line[..line.len() - 17]).unwrap();
        let flipped = snake_json::parse(payload).expect("still JSON");
        assert_eq!(flipped.req_u64("busy_nanos").unwrap(), 11);
        assert!(decode_outcome_event(1, &flipped).is_ok());
        assert!(decode_line(&line).is_err());
    }

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

//! Controller/executor split: sharded multi-process campaign execution.
//!
//! The paper's harness was a controller machine driving five executor
//! machines over TCP (§V): the controller owns strategy enumeration and
//! verdicts, the executors own simulation. This module reproduces that
//! division inside one host: `snake shard-worker` processes connect to the
//! controller over a loopback socket, receive the scenario (by value, plus
//! a digest they must independently recompute) and contiguous
//! strategy-index ranges, evaluate them through their own
//! [`PlannedExecutor`](crate::scenario::PlannedExecutor) — snapshot-fork,
//! memoized halt-arming and the stall watchdog all intact — and stream
//! back one outcome message per strategy.
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
//! the journal or the admission ledger. Outcomes are admitted strictly in
//! strategy-index order through the same `Admission` the in-process
//! thread pool offers to, so TSV, manifest and memo
//! markers are bit-identical at any shard count — including zero, the
//! in-process fallback the controller degrades to when every shard dies.
//!
//! # Supervision and crash tolerance
//!
//! Three layers distinguish a slow worker from a dead one and keep a long
//! campaign's results intact through the whole failure matrix:
//!
//! * **Heartbeats + read deadlines** — after the handshake each worker
//!   runs a heartbeat thread that writes a `heartbeat` frame every
//!   `--heartbeat` interval, even while its main thread is deep inside an
//!   evaluation. The controller keeps a per-connection read deadline
//!   (`--shard-timeout`) armed on every read, so a hung or partitioned
//!   worker — one that stops producing *any* frames — is declared dead
//!   within one deadline, while an arbitrarily slow evaluation stays alive
//!   as long as heartbeats flow. A deadline death re-dispatches the
//!   shard's outstanding indices exactly like a closed connection.
//! * **Journal segments** — when the campaign has a journal, each worker
//!   also appends every evaluated outcome to a private checksummed
//!   segment file (see `segment.rs`). A *controller* crash therefore
//!   resumes by merging segments instead of re-evaluating in-flight
//!   ranges: the journal holds what was admitted, the segments hold what
//!   was evaluated but still on the wire.
//! * **Bounded reconnect** — a spawned worker that dies is replaced: the
//!   controller re-spawns and re-handshakes the slot (fresh generation,
//!   fresh segment file) with exponential backoff plus deterministic
//!   jitter, a bounded number of times per slot. Events are
//!   generation-tagged so a retired connection's stale traffic can never
//!   reach admission.
//!
//! Wire-level chaos (dropped/truncated/corrupted/delayed outcome frames,
//! worker hangs) is injected deterministically on the controller's read
//! path under [`ChaosPlan`](crate::ChaosPlan) control, so the
//! whole recovery matrix above is exercised by seeded tests.

use std::collections::BTreeMap;
use std::env;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use snake_dccp::DccpProfile;
use snake_json::{obj, FromJson, JsonError, ObjExt, ToJson, Value};
use snake_netsim::{
    Aqm, DumbbellSpec, FlapSpec, Impairment, LinkSpec, SimDuration, SimTime, TopologyGenSpec,
    TopologyKind,
};
use snake_observe::Observer;
use snake_proxy::Strategy;
use snake_tcp::{AbortStyle, InvalidFlagPolicy, Profile};

use crate::chaos::ChaosPlan;
use crate::config::CampaignConfig;
use crate::evaluate::{evaluate_watched, SharedCtx};
use crate::journal::{checksummed_line, counters_json, read_raw_line, verify_line};
use crate::result::StrategyOutcome;
use crate::scenario::{
    scenario_digest, FlowGroup, FlowRole, ProtocolKind, ScenarioSpec, TopologySpec,
};
use crate::segment::{segment_file, SegmentWriter};
use crate::strategen::GenerationParams;

/// Wire protocol version; bumped whenever a message shape changes. A
/// worker refuses a `hello` carrying any other version. Version 3 added
/// heartbeats, journal-segment paths and the worker-hang chaos knob.
pub(crate) const WIRE_VERSION: u64 = 3;

/// Exit code a worker uses when the `SNAKE_SHARD_EXIT_AFTER` test hook
/// fires (distinguishable from a panic's 101 in test assertions).
const EXIT_AFTER_CODE: i32 = 17;

/// Default `--shard-timeout`: the per-read deadline on every shard
/// connection — worker connect/handshake *and* mid-evaluation reads. A
/// healthy worker is never silent longer than its heartbeat interval, so
/// this only fires for a hung, partitioned or dead peer.
pub(crate) const DEFAULT_SHARD_TIMEOUT: Duration = Duration::from_secs(10);

/// Default `--heartbeat`: how often a worker proves liveness while its
/// main thread is busy evaluating.
pub(crate) const DEFAULT_HEARTBEAT: Duration = Duration::from_secs(2);

/// Worker-side connect retry budget against a controller that is not up
/// yet (or briefly unreachable): attempts and the first backoff, doubled
/// per retry.
const CONNECT_ATTEMPTS: u32 = 5;
const CONNECT_BACKOFF: Duration = Duration::from_millis(200);

/// Controller-side replacement budget per shard slot: how many times a
/// dead spawned worker is re-spawned and re-handshaked, and the first
/// backoff (doubled per attempt, plus deterministic jitter).
const RECONNECT_ATTEMPTS: u64 = 2;
const RECONNECT_BACKOFF: Duration = Duration::from_millis(100);

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
    "exec.runs.halted",
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
    "shard.heartbeat.sent",
    "shard.segments.written",
    "campaign.escalated",
    "campaign.stalls",
    "campaign.stall_retries",
    "campaign.quarantined",
];

/// Interns a wire counter name against [`WORKER_COUNTERS`].
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

/// Reads the next message line. `Ok(None)` means the peer closed the
/// connection; a failed checksum or unparseable payload is an error — on
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
// Scenario encoding
//
// `ScenarioSpec` has no journal serialisation (the journal stores only the
// scenario digest), so the wire carries a dedicated encoding. The digest
// handshake makes this encoding self-verifying: the worker recomputes
// `scenario_digest` from the decoded spec, so any field this code drops or
// distorts shows up as a mismatch, not as silently different results.
// ---------------------------------------------------------------------------

fn encode_duration(duration: SimDuration) -> Value {
    Value::U64(duration.as_nanos())
}

fn decode_duration(value: &Value, what: &str) -> Result<SimDuration, JsonError> {
    value
        .as_u64()
        .map(SimDuration::from_nanos)
        .ok_or_else(|| JsonError::decode(format!("{what}: expected nanoseconds")))
}

fn decode_usize(message: &Value, key: &str) -> Result<usize, JsonError> {
    let raw = message.req_u64(key)?;
    usize::try_from(raw).map_err(|_| JsonError::decode(format!("{key}: {raw} overflows usize")))
}

fn decode_u32(message: &Value, key: &str) -> Result<u32, JsonError> {
    let raw = message.req_u64(key)?;
    u32::try_from(raw).map_err(|_| JsonError::decode(format!("{key}: {raw} overflows u32")))
}

fn encode_impairment(impair: &Impairment) -> Value {
    obj([
        ("loss_ppm", Value::U64(u64::from(impair.loss_ppm))),
        ("dup_ppm", Value::U64(u64::from(impair.dup_ppm))),
        ("corrupt_ppm", Value::U64(u64::from(impair.corrupt_ppm))),
        ("reorder_ppm", Value::U64(u64::from(impair.reorder_ppm))),
        ("jitter", encode_duration(impair.jitter)),
        (
            "flap",
            match impair.flap {
                None => Value::Null,
                Some(flap) => obj([
                    ("first_down", Value::U64(flap.first_down.as_nanos())),
                    ("down_for", encode_duration(flap.down_for)),
                    ("period", encode_duration(flap.period)),
                ]),
            },
        ),
    ])
}

fn decode_impairment(value: &Value) -> Result<Impairment, JsonError> {
    let flap = match value.req("flap")? {
        Value::Null => None,
        flap => Some(FlapSpec {
            first_down: SimTime::from_nanos(flap.req_u64("first_down")?),
            down_for: decode_duration(flap.req("down_for")?, "flap.down_for")?,
            period: decode_duration(flap.req("period")?, "flap.period")?,
        }),
    };
    Ok(Impairment {
        loss_ppm: decode_u32(value, "loss_ppm")?,
        dup_ppm: decode_u32(value, "dup_ppm")?,
        corrupt_ppm: decode_u32(value, "corrupt_ppm")?,
        reorder_ppm: decode_u32(value, "reorder_ppm")?,
        jitter: decode_duration(value.req("jitter")?, "jitter")?,
        flap,
    })
}

fn encode_link(link: &LinkSpec) -> Value {
    obj([
        ("bandwidth_bps", Value::U64(link.bandwidth_bps)),
        ("delay", encode_duration(link.delay)),
        ("queue_packets", Value::U64(link.queue_packets as u64)),
        (
            "aqm",
            Value::Str(
                match link.aqm {
                    Aqm::DropTail => "drop_tail",
                    Aqm::Red => "red",
                }
                .to_owned(),
            ),
        ),
        ("impair", encode_impairment(&link.impair)),
    ])
}

fn decode_link(value: &Value) -> Result<LinkSpec, JsonError> {
    let aqm = match value.req_str("aqm")? {
        "drop_tail" => Aqm::DropTail,
        "red" => Aqm::Red,
        other => return Err(JsonError::decode(format!("unknown aqm `{other}`"))),
    };
    Ok(LinkSpec {
        bandwidth_bps: value.req_u64("bandwidth_bps")?,
        delay: decode_duration(value.req("delay")?, "link.delay")?,
        queue_packets: decode_usize(value, "queue_packets")?,
        aqm,
        impair: decode_impairment(value.req("impair")?)?,
    })
}

fn encode_tcp_profile(profile: &Profile) -> Value {
    obj([
        ("name", Value::Str(profile.name.clone())),
        (
            "initial_cwnd_segments",
            Value::U64(u64::from(profile.initial_cwnd_segments)),
        ),
        (
            "max_data_retries",
            Value::U64(u64::from(profile.max_data_retries)),
        ),
        ("min_rto", encode_duration(profile.min_rto)),
        ("max_rto", encode_duration(profile.max_rto)),
        (
            "naive_ack_counting",
            Value::Bool(profile.naive_ack_counting),
        ),
        ("fast_retransmit", Value::Bool(profile.fast_retransmit)),
        (
            "harsh_dupack_response",
            Value::Bool(profile.harsh_dupack_response),
        ),
        (
            "invalid_flags",
            Value::Str(
                match profile.invalid_flags {
                    InvalidFlagPolicy::BestEffort => "best_effort",
                    InvalidFlagPolicy::Ignore => "ignore",
                    InvalidFlagPolicy::RstAlwaysWins => "rst_always_wins",
                }
                .to_owned(),
            ),
        ),
        (
            "abort_style",
            Value::Str(
                match profile.abort_style {
                    AbortStyle::FinThenRst => "fin_then_rst",
                    AbortStyle::RstOnly => "rst_only",
                }
                .to_owned(),
            ),
        ),
        ("dsack", Value::Bool(profile.dsack)),
        (
            "sack_loss_evidence",
            Value::Bool(profile.sack_loss_evidence),
        ),
        ("sack_recovery", Value::Bool(profile.sack_recovery)),
        ("syn_retries", Value::U64(u64::from(profile.syn_retries))),
        ("time_wait", encode_duration(profile.time_wait)),
        ("app_close_delay", encode_duration(profile.app_close_delay)),
    ])
}

fn decode_tcp_profile(value: &Value) -> Result<Profile, JsonError> {
    let invalid_flags = match value.req_str("invalid_flags")? {
        "best_effort" => InvalidFlagPolicy::BestEffort,
        "ignore" => InvalidFlagPolicy::Ignore,
        "rst_always_wins" => InvalidFlagPolicy::RstAlwaysWins,
        other => {
            return Err(JsonError::decode(format!(
                "unknown invalid_flags policy `{other}`"
            )))
        }
    };
    let abort_style = match value.req_str("abort_style")? {
        "fin_then_rst" => AbortStyle::FinThenRst,
        "rst_only" => AbortStyle::RstOnly,
        other => return Err(JsonError::decode(format!("unknown abort_style `{other}`"))),
    };
    Ok(Profile {
        name: value.req_str("name")?.to_owned(),
        initial_cwnd_segments: decode_u32(value, "initial_cwnd_segments")?,
        max_data_retries: decode_u32(value, "max_data_retries")?,
        min_rto: decode_duration(value.req("min_rto")?, "min_rto")?,
        max_rto: decode_duration(value.req("max_rto")?, "max_rto")?,
        naive_ack_counting: value.req_bool("naive_ack_counting")?,
        fast_retransmit: value.req_bool("fast_retransmit")?,
        harsh_dupack_response: value.req_bool("harsh_dupack_response")?,
        invalid_flags,
        abort_style,
        dsack: value.req_bool("dsack")?,
        sack_loss_evidence: value.req_bool("sack_loss_evidence")?,
        sack_recovery: value.req_bool("sack_recovery")?,
        syn_retries: decode_u32(value, "syn_retries")?,
        time_wait: decode_duration(value.req("time_wait")?, "time_wait")?,
        app_close_delay: decode_duration(value.req("app_close_delay")?, "app_close_delay")?,
    })
}

fn encode_dccp_profile(profile: &DccpProfile) -> Value {
    obj([
        ("name", Value::Str(profile.name.clone())),
        (
            "initial_cwnd_packets",
            Value::U64(u64::from(profile.initial_cwnd_packets)),
        ),
        ("seq_window", Value::U64(profile.seq_window)),
        ("ack_ratio", Value::U64(u64::from(profile.ack_ratio))),
        ("tx_qlen", Value::U64(profile.tx_qlen as u64)),
        ("min_rto", encode_duration(profile.min_rto)),
        ("max_rto", encode_duration(profile.max_rto)),
        (
            "request_retries",
            Value::U64(u64::from(profile.request_retries)),
        ),
        (
            "close_retries",
            Value::U64(u64::from(profile.close_retries)),
        ),
        (
            "type_check_before_seq",
            Value::Bool(profile.type_check_before_seq),
        ),
        ("time_wait", encode_duration(profile.time_wait)),
    ])
}

fn decode_dccp_profile(value: &Value) -> Result<DccpProfile, JsonError> {
    Ok(DccpProfile {
        name: value.req_str("name")?.to_owned(),
        initial_cwnd_packets: decode_u32(value, "initial_cwnd_packets")?,
        seq_window: value.req_u64("seq_window")?,
        ack_ratio: decode_u32(value, "ack_ratio")?,
        tx_qlen: decode_usize(value, "tx_qlen")?,
        min_rto: decode_duration(value.req("min_rto")?, "min_rto")?,
        max_rto: decode_duration(value.req("max_rto")?, "max_rto")?,
        request_retries: decode_u32(value, "request_retries")?,
        close_retries: decode_u32(value, "close_retries")?,
        type_check_before_seq: value.req_bool("type_check_before_seq")?,
        time_wait: decode_duration(value.req("time_wait")?, "time_wait")?,
    })
}

fn encode_topology(topology: &TopologySpec) -> Value {
    match topology {
        TopologySpec::Dumbbell(d) => obj([
            ("kind", Value::Str("dumbbell".to_owned())),
            ("bottleneck", encode_link(&d.bottleneck)),
            ("access", encode_link(&d.access)),
        ]),
        TopologySpec::Generated(g) => obj([
            ("kind", Value::Str(g.kind.label().to_owned())),
            ("hosts", Value::U64(g.hosts as u64)),
            // The topology seed is carried explicitly: ensemble reseeding
            // rewrites the scenario seed but must leave the generated
            // network identical across members.
            ("topo_seed", Value::U64(g.seed)),
            ("bottleneck", encode_link(&g.bottleneck)),
            ("access", encode_link(&g.access)),
        ]),
    }
}

fn decode_topology(value: &Value) -> Result<TopologySpec, JsonError> {
    let bottleneck = decode_link(value.req("bottleneck")?)?;
    let access = decode_link(value.req("access")?)?;
    match value.req_str("kind")? {
        "dumbbell" => Ok(TopologySpec::Dumbbell(DumbbellSpec { bottleneck, access })),
        label => {
            let kind = TopologyKind::from_label(label)
                .ok_or_else(|| JsonError::decode(format!("unknown topology kind `{label}`")))?;
            Ok(TopologySpec::Generated(TopologyGenSpec {
                kind,
                hosts: decode_usize(value, "hosts")?,
                seed: value.req_u64("topo_seed")?,
                bottleneck,
                access,
            }))
        }
    }
}

fn encode_flows(flows: &Option<Vec<FlowGroup>>) -> Value {
    match flows {
        None => Value::Null,
        Some(groups) => Value::Arr(
            groups
                .iter()
                .map(|g| {
                    obj([
                        ("role", Value::Str(g.role.label().to_owned())),
                        ("count", Value::U64(g.count as u64)),
                    ])
                })
                .collect(),
        ),
    }
}

fn decode_flows(value: &Value) -> Result<Option<Vec<FlowGroup>>, JsonError> {
    match value {
        Value::Null => Ok(None),
        Value::Arr(entries) => {
            let mut groups = Vec::with_capacity(entries.len());
            for entry in entries {
                let label = entry.req_str("role")?;
                let role = FlowRole::from_label(label)
                    .ok_or_else(|| JsonError::decode(format!("unknown flow role `{label}`")))?;
                groups.push(FlowGroup {
                    role,
                    count: decode_usize(entry, "count")?,
                });
            }
            Ok(Some(groups))
        }
        _ => Err(JsonError::decode("flows: expected null or array")),
    }
}

pub(crate) fn encode_scenario(spec: &ScenarioSpec) -> Value {
    let (protocol, profile) = match &spec.protocol {
        ProtocolKind::Tcp(profile) => ("tcp", encode_tcp_profile(profile)),
        ProtocolKind::Dccp(profile) => ("dccp", encode_dccp_profile(profile)),
    };
    obj([
        ("protocol", Value::Str(protocol.to_owned())),
        ("profile", profile),
        ("topology", encode_topology(&spec.topology)),
        ("flows", encode_flows(&spec.flows)),
        ("data_secs", Value::U64(spec.data_secs)),
        ("grace_secs", Value::U64(spec.grace_secs)),
        ("seed", Value::U64(spec.seed)),
        (
            "target_connections",
            Value::U64(spec.target_connections as u64),
        ),
        (
            "event_budget",
            match spec.event_budget {
                None => Value::Null,
                Some(budget) => Value::U64(budget),
            },
        ),
    ])
}

pub(crate) fn decode_scenario(value: &Value) -> Result<ScenarioSpec, JsonError> {
    let profile = value.req("profile")?;
    let protocol = match value.req_str("protocol")? {
        "tcp" => ProtocolKind::Tcp(decode_tcp_profile(profile)?),
        "dccp" => ProtocolKind::Dccp(decode_dccp_profile(profile)?),
        other => return Err(JsonError::decode(format!("unknown protocol `{other}`"))),
    };
    let event_budget = match value.req("event_budget")? {
        Value::Null => None,
        budget => Some(
            budget
                .as_u64()
                .ok_or_else(|| JsonError::decode("event_budget: expected integer"))?,
        ),
    };
    Ok(ScenarioSpec {
        protocol,
        topology: decode_topology(value.req("topology")?)?,
        flows: decode_flows(value.req("flows")?)?,
        data_secs: value.req_u64("data_secs")?,
        grace_secs: value.req_u64("grace_secs")?,
        seed: value.req_u64("seed")?,
        target_connections: decode_usize(value, "target_connections")?,
        event_budget,
    })
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
    deadline: Option<Duration>,
    stall_retries: usize,
    stall_backoff: Duration,
    /// How often the worker's heartbeat thread proves liveness.
    heartbeat: Duration,
    /// Journal-segment file to append evaluated outcomes to, when the
    /// campaign has a journal (crash-tolerant resume; see `segment.rs`).
    segment: Option<PathBuf>,
    /// Chaos: stop heartbeating and hang forever after this many
    /// outcomes, so the controller's read deadline is exercised.
    hang_after: Option<u64>,
}

fn encode_hello(
    shard: usize,
    digest: u64,
    config: &CampaignConfig,
    memoize: bool,
    segment: Option<&Path>,
    hang_after: Option<u64>,
) -> Value {
    obj([
        ("type", Value::Str("hello".to_owned())),
        ("version", Value::U64(WIRE_VERSION)),
        ("shard", Value::U64(shard as u64)),
        ("digest", Value::U64(digest)),
        ("scenario", encode_scenario(&config.scenario)),
        ("threshold", Value::F64(config.threshold)),
        ("baseline_reps", Value::U64(config.baseline_reps as u64)),
        ("retest", Value::Bool(config.retest)),
        ("snapshot_fork", Value::Bool(config.snapshot_fork)),
        ("memoize", Value::Bool(memoize)),
        (
            "deadline_nanos",
            match config.deadline {
                None => Value::Null,
                Some(deadline) => Value::U64(deadline.as_nanos() as u64),
            },
        ),
        ("stall_retries", Value::U64(config.stall_retries as u64)),
        (
            "stall_backoff_nanos",
            Value::U64(config.stall_backoff.as_nanos() as u64),
        ),
        (
            "heartbeat_nanos",
            Value::U64(config.heartbeat.as_nanos() as u64),
        ),
        (
            "segment",
            match segment {
                None => Value::Null,
                Some(path) => Value::Str(path.to_string_lossy().into_owned()),
            },
        ),
        (
            "hang_after",
            match hang_after {
                None => Value::Null,
                Some(count) => Value::U64(count),
            },
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
    let deadline = match message.req("deadline_nanos")? {
        Value::Null => None,
        nanos => Some(Duration::from_nanos(nanos.as_u64().ok_or_else(|| {
            JsonError::decode("deadline_nanos: expected integer")
        })?)),
    };
    let segment = match message.req("segment")? {
        Value::Null => None,
        Value::Str(path) => Some(PathBuf::from(path)),
        _ => return Err(JsonError::decode("segment: expected string or null")),
    };
    let hang_after = match message.req("hang_after")? {
        Value::Null => None,
        count => Some(
            count
                .as_u64()
                .ok_or_else(|| JsonError::decode("hang_after: expected integer"))?,
        ),
    };
    Ok(WorkerJob {
        shard: message.req_u64("shard")?,
        digest: message.req_u64("digest")?,
        spec: decode_scenario(message.req("scenario")?)?,
        threshold: message.req_f64("threshold")?,
        baseline_reps: decode_usize(message, "baseline_reps")?,
        retest: message.req_bool("retest")?,
        snapshot_fork: message.req_bool("snapshot_fork")?,
        memoize: message.req_bool("memoize")?,
        deadline,
        stall_retries: decode_usize(message, "stall_retries")?,
        stall_backoff: Duration::from_nanos(message.req_u64("stall_backoff_nanos")?),
        heartbeat: Duration::from_nanos(message.req_u64("heartbeat_nanos")?),
        segment,
        hang_after,
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

/// Connects to a shard controller with bounded retries and exponential
/// backoff, so a worker started moments before (or moments after a
/// controller restart) does not fail instantly on a transient refusal.
/// The final error message is stable — `could not connect to controller
/// at <addr> after <n> attempt(s) over <t>ms: <cause>` — and carries the
/// last underlying error's kind, so scripts and tests can match on it.
pub fn connect_with_backoff(
    addr: &str,
    attempts: u32,
    first_backoff: Duration,
) -> io::Result<TcpStream> {
    let started = Instant::now();
    let mut backoff = first_backoff;
    let mut last: Option<io::Error> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(err) => last = Some(err),
        }
    }
    let kind = last
        .as_ref()
        .map_or(io::ErrorKind::NotConnected, io::Error::kind);
    let detail = last.map_or_else(|| "no attempt was made".to_owned(), |err| err.to_string());
    Err(io::Error::new(
        kind,
        format!(
            "could not connect to controller at {addr} after {attempts} attempt(s) over {}ms: {detail}",
            started.elapsed().as_millis()
        ),
    ))
}

/// Runs the `snake shard-worker` loop: connect to the controller at
/// `addr` (with bounded retries), handshake, evaluate the strategy ranges
/// it sends, and stream back one `outcome` message per strategy — while a
/// heartbeat thread proves liveness and, when the campaign has a journal,
/// every evaluated outcome is also appended to this worker's journal
/// segment. Returns when the controller sends `shutdown` or closes the
/// connection.
///
/// The worker is stateless between ranges and owns no campaign artifacts
/// beyond its segment file: no journal, no verdict ledger.
/// If it dies mid-range the controller re-dispatches the unfinished
/// indices elsewhere, and already-admitted outcomes are never re-run.
pub fn run_shard_worker(addr: &str) -> io::Result<()> {
    let stream = connect_with_backoff(addr, CONNECT_ATTEMPTS, CONNECT_BACKOFF)?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer = Arc::new(Mutex::new(BufWriter::new(stream)));

    let hello = read_message(&mut reader)?
        .ok_or_else(|| protocol_err("controller closed the connection before hello"))?;
    if hello.req_str("type").map_err(decode_err)? != "hello" {
        return Err(protocol_err("expected hello as the first message"));
    }
    let job = decode_hello(&hello).map_err(decode_err)?;
    let digest = scenario_digest(&job.spec, job.threshold, job.baseline_reps);
    if digest != job.digest {
        // Echo what we computed anyway: the controller reports the
        // mismatch and degrades to in-process execution.
        let ready = obj([
            ("type", Value::Str("ready".to_owned())),
            ("digest", Value::U64(digest)),
        ]);
        write_line(&mut *writer.lock().unwrap(), &ready)?;
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
        deadline: job.deadline,
        stall_retries: job.stall_retries,
        stall_backoff: job.stall_backoff,
        observer,
        shards: 0,
        shard_listen: None,
        shard_worker_bin: None,
        shard_timeout: DEFAULT_SHARD_TIMEOUT,
        heartbeat: job.heartbeat,
        insecure_bind: false,
    };
    let shared = Arc::new(
        SharedCtx::prepare(config, job.memoize)
            .map_err(|_| protocol_err("worker baseline is invalid"))?,
    );
    // Setup cost (baseline, plan, envelopes) accrued counters of its own;
    // the controller already counted its setup once, so discard ours
    // rather than double-reporting.
    accumulator.drain();

    // Open this connection's journal segment (best effort: a worker that
    // cannot write segments still evaluates correctly; only
    // controller-crash recovery loses precision, never correctness).
    let mut segment = job.segment.as_ref().and_then(|path| {
        match SegmentWriter::create(path, job.shard, digest, job.memoize) {
            Ok(writer) => Some(writer),
            Err(err) => {
                eprintln!(
                    "snake: shard {} cannot write its journal segment {path:?}: {err}",
                    job.shard
                );
                None
            }
        }
    });

    let ready = obj([
        ("type", Value::Str("ready".to_owned())),
        ("digest", Value::U64(digest)),
    ]);
    write_line(&mut *writer.lock().unwrap(), &ready)?;

    // Heartbeat thread: proves liveness to the controller's read deadline
    // while the main thread is deep inside an evaluation. It shares the
    // framed writer under the mutex, so a heartbeat can never tear an
    // outcome frame.
    let stop_heartbeats = Arc::new(AtomicBool::new(false));
    {
        let writer = Arc::clone(&writer);
        let stop = Arc::clone(&stop_heartbeats);
        let accumulator = Arc::clone(&accumulator);
        let interval = job.heartbeat.max(Duration::from_millis(1));
        std::thread::Builder::new()
            .name(format!("snake-shard-hb-{}", job.shard))
            .spawn(move || loop {
                std::thread::sleep(interval);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let beat = obj([("type", Value::Str("heartbeat".to_owned()))]);
                if write_line(&mut *writer.lock().unwrap(), &beat).is_err() {
                    break;
                }
                accumulator.counter_add("shard.heartbeat.sent", 1);
            })
            .expect("spawning the heartbeat thread cannot fail");
    }

    let mut sent: u64 = 0;
    if exit_after == Some(sent) {
        std::process::exit(EXIT_AFTER_CODE);
    }

    // When the controller dies mid-campaign, range messages it already
    // sent are still readable from the socket buffer. Those strategies
    // are exactly what segments exist to preserve, so a broken wire stops
    // *sending* but not evaluating-and-segment-writing; the loop then
    // runs to EOF. Without a segment there is nothing to preserve and
    // wire death ends the worker immediately.
    let mut wire_ok = true;
    let result = (|| -> io::Result<()> {
        while let Some(message) = read_message(&mut reader)? {
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
                        let outcome = evaluate_watched(&shared, strategy);
                        let busy_nanos = began.elapsed().as_nanos() as u64;
                        let index = start + offset as u64;
                        let counters: Vec<(String, u64)> = accumulator
                            .drain()
                            .into_iter()
                            .map(|(name, delta)| (name.to_owned(), delta))
                            .collect();
                        // Segment first, wire second: an outcome that
                        // reached the controller is always recoverable
                        // from disk, never the other way around.
                        match segment
                            .as_mut()
                            .map(|seg| seg.record(index, busy_nanos, &counters, &outcome))
                        {
                            Some(Ok(())) => {
                                accumulator.counter_add("shard.segments.written", 1);
                            }
                            Some(Err(err)) => {
                                eprintln!(
                                    "snake: shard {} stopped writing its journal segment: {err}",
                                    job.shard
                                );
                                segment = None;
                            }
                            None => {}
                        }
                        if wire_ok {
                            let reply = obj([
                                ("type", Value::Str("outcome".to_owned())),
                                ("index", Value::U64(index)),
                                ("busy_nanos", Value::U64(busy_nanos)),
                                ("counters", counters_json(&counters)),
                                ("outcome", outcome.to_json()),
                            ]);
                            if let Err(err) = queue_line(&mut *writer.lock().unwrap(), &reply) {
                                if segment.is_none() {
                                    return Err(err);
                                }
                                wire_ok = false;
                            }
                        }
                        sent += 1;
                        if exit_after == Some(sent) {
                            // The hook simulates a worker dying *after*
                            // this outcome reached the wire, so drain the
                            // batch buffer before exiting.
                            writer.lock().unwrap().flush()?;
                            std::process::exit(EXIT_AFTER_CODE);
                        }
                        if job.hang_after == Some(sent) {
                            // Chaos: go silent without closing anything.
                            // Heartbeats stop, the current batch stays
                            // buffered — exactly the shape of a
                            // livelocked worker. The controller's read
                            // deadline must declare this shard dead; the
                            // process is killed from outside.
                            stop_heartbeats.store(true, Ordering::Relaxed);
                            loop {
                                std::thread::sleep(Duration::from_secs(60));
                            }
                        }
                    }
                    if wire_ok {
                        if let Err(err) = writer.lock().unwrap().flush() {
                            if segment.is_none() {
                                return Err(err);
                            }
                            wire_ok = false;
                        }
                    }
                }
                "shutdown" => break,
                other => return Err(protocol_err(format!("unexpected message type `{other}`"))),
            }
        }
        Ok(())
    })();
    stop_heartbeats.store(true, Ordering::Relaxed);
    result
}

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

/// One message from a shard's reader thread to the dispatcher. Every
/// event carries the connection *generation* it came from: a reconnected
/// slot bumps its generation, so traffic from a retired connection —
/// including its terminal `Dead` — is recognisably stale and discarded.
pub(crate) enum ShardEvent {
    /// A worker finished one strategy.
    Outcome {
        /// Which shard produced it.
        shard: usize,
        /// The connection generation that produced it.
        generation: u64,
        /// Global strategy index within the batch.
        index: usize,
        /// Worker wall-clock spent evaluating, for busy/idle accounting.
        busy_nanos: u64,
        /// Counter deltas the worker's observer accumulated.
        counters: Vec<(String, u64)>,
        /// The evaluated outcome, in journal encoding.
        outcome: Box<StrategyOutcome>,
    },
    /// The shard's connection is unusable: closed, undecodable, or silent
    /// past the read deadline.
    Dead {
        /// Which shard died.
        shard: usize,
        /// The connection generation that died.
        generation: u64,
        /// Whether death was a read-deadline expiry (a hung or
        /// partitioned worker) rather than a closed/corrupt connection.
        timed_out: bool,
    },
}

/// What a bounded wait on the pool's event stream produced.
pub(crate) enum PoolWait {
    /// An event arrived within the deadline.
    Event(ShardEvent),
    /// Nothing arrived: no shard made outcome progress for the whole
    /// window (heartbeats never reach this channel). The dispatcher
    /// checks its per-shard progress deadlines.
    Idle,
    /// Every sender is gone — all reader threads exited and the pool's
    /// own clone was dropped; nothing further can arrive.
    Closed,
}

fn decode_outcome_event(
    shard: usize,
    generation: u64,
    message: &Value,
) -> Result<ShardEvent, JsonError> {
    if message.req_str("type")? != "outcome" {
        return Err(JsonError::decode("expected an outcome message"));
    }
    let index = message.req_u64("index")?;
    let index =
        usize::try_from(index).map_err(|_| JsonError::decode("outcome index overflows usize"))?;
    let counters = match message.req("counters")? {
        Value::Obj(pairs) => pairs
            .iter()
            .map(|(name, delta)| {
                delta
                    .as_u64()
                    .map(|delta| (name.clone(), delta))
                    .ok_or_else(|| JsonError::decode(format!("counter {name}: expected integer")))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err(JsonError::decode("outcome.counters: expected object")),
    };
    Ok(ShardEvent::Outcome {
        shard,
        generation,
        index,
        busy_nanos: message.req_u64("busy_nanos")?,
        counters,
        outcome: Box::new(StrategyOutcome::from_json(message.req("outcome")?)?),
    })
}

/// The deterministic wire-fault lane of a [`ChaosPlan`], applied on the
/// controller's read path by outcome-frame ordinal (heartbeats are not
/// counted — their timing is wall-clock-dependent, and chaos must stay
/// reproducible under seed control).
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

/// One connected (or once-connected) worker process, controller side.
struct ShardLink {
    /// A clone of the connection, kept for `shutdown(2)` even after the
    /// writer is dropped.
    socket: TcpStream,
    /// Send half; `None` once the shard is declared dead.
    writer: Option<BufWriter<TcpStream>>,
    /// The spawned worker process (absent for `--connect` workers).
    child: Option<Child>,
    /// The reader thread draining this shard's outcome stream.
    reader: Option<JoinHandle<()>>,
    /// Whether the handshake (ready + digest match) succeeded.
    handshaked: bool,
    /// Total worker-reported evaluation time.
    busy_nanos: u64,
    /// Outcomes received from this shard.
    outcomes: u64,
    /// Connection generation for this slot; bumped per reconnect so
    /// retired connections' events are recognisably stale.
    generation: u64,
    /// Replacement attempts consumed by this slot (bounded by
    /// [`RECONNECT_ATTEMPTS`]).
    reconnect_attempts: u64,
}

/// The controller's set of worker processes for one campaign, plus the
/// merged event stream their reader threads feed.
pub(crate) struct ShardPool {
    links: Vec<ShardLink>,
    /// Links replaced by reconnects (or that failed a reconnect
    /// handshake), kept so their reader threads are joined and their
    /// children reaped at teardown, and their busy tallies reported.
    retired: Vec<ShardLink>,
    events: mpsc::Receiver<ShardEvent>,
    /// Sender handed to reader threads; kept so reconnected readers can
    /// be spawned after launch.
    tx: mpsc::Sender<ShardEvent>,
    started: Instant,
    /// Shards that completed the handshake (the `shard.workers` counter).
    workers: usize,
    /// The campaign's scenario digest (reconnect handshakes re-use it).
    digest: u64,
    /// The effective memoize flag the workers were handshaked with.
    memoize: bool,
    /// Wire-fault lane applied on every reader.
    wire: WireFaults,
    /// Segment directory, when the campaign journals.
    segments: Option<PathBuf>,
    /// Respawn context for spawned-children mode: the retained listener
    /// and the worker binary. `None` under `--shard-listen`, where
    /// workers are started externally and cannot be respawned.
    respawn: Option<(TcpListener, PathBuf)>,
    /// Ranges handed to workers, including re-dispatches.
    pub(crate) ranges_dispatched: u64,
    /// Ranges re-dispatched after a shard death or protocol violation.
    pub(crate) ranges_redispatched: u64,
    /// Shards declared dead by read-deadline expiry (hung/partitioned).
    pub(crate) heartbeats_missed: u64,
    /// Successful slot replacements.
    pub(crate) reconnects: u64,
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

fn spawn_reader(
    shard: usize,
    generation: u64,
    mut reader: BufReader<TcpStream>,
    tx: mpsc::Sender<ShardEvent>,
    wire: WireFaults,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("snake-shard-rx-{shard}-g{generation}"))
        .spawn(move || {
            let dead = |timed_out| ShardEvent::Dead {
                shard,
                generation,
                timed_out,
            };
            let mut outcomes: u64 = 0;
            loop {
                let event = match read_message(&mut reader) {
                    Ok(Some(message)) => {
                        if message.get("type").and_then(Value::as_str) == Some("heartbeat") {
                            // Liveness proven simply by arriving before
                            // the read deadline; nothing to dispatch.
                            continue;
                        }
                        match decode_outcome_event(shard, generation, &message) {
                            Ok(event) => {
                                outcomes += 1;
                                // Wire chaos, by outcome ordinal: a
                                // truncated or corrupted frame would have
                                // failed its checksum, which on the wire
                                // is a protocol death; a dropped frame
                                // simply never happened; a delayed frame
                                // arrives late but intact.
                                if fault_hits(wire.truncate_every, outcomes)
                                    || fault_hits(wire.corrupt_every, outcomes)
                                {
                                    dead(false)
                                } else if fault_hits(wire.drop_every, outcomes) {
                                    continue;
                                } else {
                                    if fault_hits(wire.delay_every, outcomes) {
                                        std::thread::sleep(wire.delay);
                                    }
                                    event
                                }
                            }
                            Err(_) => dead(false),
                        }
                    }
                    Ok(None) => dead(false),
                    Err(err) => dead(matches!(
                        err.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    )),
                };
                let is_dead = matches!(event, ShardEvent::Dead { .. });
                if tx.send(event).is_err() || is_dead {
                    break;
                }
            }
        })
        .expect("spawning a shard reader thread cannot fail")
}

/// Accepts up to `want` connections from spawned children, polling so a
/// child that died on startup does not hang the controller forever.
fn accept_children(
    listener: &TcpListener,
    want: usize,
    children: &mut [Child],
    timeout: Duration,
) -> Vec<TcpStream> {
    listener
        .set_nonblocking(true)
        .expect("listener supports nonblocking");
    let deadline = Instant::now() + timeout;
    let mut accepted = Vec::new();
    while accepted.len() < want && Instant::now() < deadline {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .expect("accepted stream supports blocking");
                accepted.push(stream);
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                // A connected worker blocks on its socket, so an exited
                // child is one that failed before connecting. Once every
                // still-running child is accounted for by an accepted
                // stream, no further connection can arrive.
                let exited = children
                    .iter_mut()
                    .filter_map(|child| child.try_wait().ok().flatten())
                    .count();
                if children.len() - exited <= accepted.len() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => break,
        }
    }
    accepted
}

/// Spawns one `shard-worker --connect` child pointed at `addr`.
fn spawn_worker(worker_bin: &Path, addr: &str) -> io::Result<Child> {
    Command::new(worker_bin)
        .args(["shard-worker", "--connect", addr])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
}

/// Deterministic sub-100ms reconnect jitter: a splitmix64 finalizer over
/// the (digest, shard, attempt) triple, so two controllers racing to
/// replace shards of the same campaign stagger identically run-to-run.
fn reconnect_jitter(digest: u64, shard: usize, attempt: u64) -> Duration {
    let mut z = digest ^ ((shard as u64) << 8) ^ attempt;
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    Duration::from_millis((z ^ (z >> 31)) % 100)
}

impl ShardPool {
    /// Spawns (or accepts) the configured worker processes, handshakes
    /// each one, and starts their reader threads. Shards that fail to
    /// connect, echo a wrong digest, or die during the handshake are
    /// simply absent from the live set; the caller degrades to in-process
    /// execution when `live()` comes back zero.
    ///
    /// `segments` is the journal-segment directory workers should write
    /// their evaluated-outcome segments into (shared filesystem assumed
    /// for spawned children; `--connect` workers on other machines simply
    /// skip segment writing when the path is not creatable).
    pub(crate) fn launch(
        config: &CampaignConfig,
        memoize: bool,
        segments: Option<PathBuf>,
    ) -> io::Result<ShardPool> {
        let digest = scenario_digest(&config.scenario, config.threshold, config.baseline_reps);
        let wire = WireFaults::from_chaos(config.chaos.as_ref());
        let hang_after = config
            .chaos
            .as_ref()
            .and_then(|plan| plan.hang_worker_after);
        let (tx, rx) = mpsc::channel();
        let mut streams: Vec<(TcpStream, Option<Child>)> = Vec::new();
        let mut respawn = None;

        if let Some(listen) = &config.shard_listen {
            let listener = TcpListener::bind(listen.as_str())?;
            let addr = listener.local_addr()?;
            eprintln!(
                "snake: shard controller listening on {addr} — start {} `snake shard-worker --connect {addr}` process(es)",
                config.shards
            );
            for _ in 0..config.shards {
                let (stream, _) = listener.accept()?;
                streams.push((stream, None));
            }
        } else {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let worker_bin = match &config.shard_worker_bin {
                Some(path) => path.clone(),
                None => env::current_exe()?,
            };
            let mut children = Vec::new();
            for _ in 0..config.shards {
                match spawn_worker(&worker_bin, &addr.to_string()) {
                    Ok(child) => children.push(child),
                    Err(err) => {
                        eprintln!("snake: failed to spawn shard worker {worker_bin:?}: {err}");
                    }
                }
            }
            let accepted = accept_children(
                &listener,
                children.len(),
                &mut children,
                config.shard_timeout,
            );
            // Pair accepted streams with children positionally for
            // reaping only — shard identity comes from the hello message,
            // so the pairing does not need to match spawn order.
            let mut children = children.into_iter();
            for stream in accepted {
                streams.push((stream, children.next()));
            }
            // Children beyond the accepted count never connected; reap
            // them now rather than leaking processes.
            for mut orphan in children {
                orphan.kill().ok();
                orphan.wait().ok();
            }
            // Keep the listener and binary path so a dead shard can be
            // replaced by a fresh child mid-campaign.
            respawn = Some((listener, worker_bin));
        }

        let mut pool = ShardPool {
            links: Vec::new(),
            retired: Vec::new(),
            events: rx,
            tx,
            started: Instant::now(),
            workers: 0,
            digest,
            memoize,
            wire,
            segments,
            respawn,
            ranges_dispatched: 0,
            ranges_redispatched: 0,
            heartbeats_missed: 0,
            reconnects: 0,
        };
        for (shard, (stream, child)) in streams.into_iter().enumerate() {
            stream.set_nodelay(true).ok();
            // The hang knob targets shard 0's initial connection only, so
            // a hang-chaos campaign still has live shards to finish on.
            let hang = if shard == 0 { hang_after } else { None };
            let segment = pool.segment_path(shard, 0);
            let link = Self::handshake(
                shard,
                0,
                stream,
                child,
                digest,
                config,
                memoize,
                segment.as_deref(),
                hang,
                &pool.tx,
                wire,
            );
            pool.workers += usize::from(link.handshaked);
            pool.links.push(link);
        }
        Ok(pool)
    }

    /// The segment file a given `(shard, generation)` connection should
    /// write, when the campaign journals.
    fn segment_path(&self, shard: usize, generation: u64) -> Option<PathBuf> {
        self.segments
            .as_deref()
            .map(|dir| segment_file(dir, shard, generation))
    }

    /// Runs the hello/ready handshake on one accepted stream. Any failure
    /// produces a dead link (kept only so its child is reaped later).
    ///
    /// The read deadline stays armed after the handshake: a worker that
    /// goes silent for longer than `config.shard_timeout` mid-evaluation
    /// (no outcome, no heartbeat) is declared dead by its reader thread
    /// rather than hanging the controller forever.
    #[allow(clippy::too_many_arguments)]
    fn handshake(
        shard: usize,
        generation: u64,
        stream: TcpStream,
        child: Option<Child>,
        digest: u64,
        config: &CampaignConfig,
        memoize: bool,
        segment: Option<&Path>,
        hang_after: Option<u64>,
        tx: &mpsc::Sender<ShardEvent>,
        wire: WireFaults,
    ) -> ShardLink {
        let mut link = ShardLink {
            socket: stream.try_clone().unwrap_or(stream),
            writer: None,
            child,
            reader: None,
            handshaked: false,
            busy_nanos: 0,
            outcomes: 0,
            generation,
            reconnect_attempts: 0,
        };
        let attempt = (|| -> io::Result<(BufWriter<TcpStream>, BufReader<TcpStream>)> {
            let mut writer = BufWriter::new(link.socket.try_clone()?);
            write_line(
                &mut writer,
                &encode_hello(shard, digest, config, memoize, segment, hang_after),
            )?;
            let read_half = link.socket.try_clone()?;
            read_half.set_read_timeout(Some(config.shard_timeout))?;
            let mut reader = BufReader::new(read_half);
            let ready = read_message(&mut reader)?
                .ok_or_else(|| protocol_err("worker closed the connection before ready"))?;
            if ready.req_str("type").map_err(decode_err)? != "ready" {
                return Err(protocol_err("expected a ready message"));
            }
            let echoed = ready.req_u64("digest").map_err(decode_err)?;
            if echoed != digest {
                return Err(protocol_err(format!(
                    "scenario digest mismatch: sent {digest:016x}, worker decoded {echoed:016x}"
                )));
            }
            Ok((writer, reader))
        })();
        match attempt {
            Ok((writer, reader)) => {
                link.writer = Some(writer);
                link.reader = Some(spawn_reader(shard, generation, reader, tx.clone(), wire));
                link.handshaked = true;
            }
            Err(err) => {
                eprintln!("snake: shard {shard} failed its handshake and was dropped: {err}");
                link.socket.shutdown(Shutdown::Both).ok();
            }
        }
        link
    }

    /// Attempts to replace a dead shard slot with a freshly spawned
    /// worker. Only spawned-children mode can respawn (`--shard-listen`
    /// workers are started externally); each slot gets at most
    /// [`RECONNECT_ATTEMPTS`] replacements, with exponential backoff plus
    /// deterministic jitter between tries. Returns `true` when the slot
    /// is live again (at a bumped generation, writing a fresh segment
    /// file so the dead connection's segment is never appended to).
    pub(crate) fn try_reconnect(&mut self, shard: usize, config: &CampaignConfig) -> bool {
        let Some(link) = self.links.get_mut(shard) else {
            return false;
        };
        if link.writer.is_some() || link.reconnect_attempts >= RECONNECT_ATTEMPTS {
            return false;
        }
        let Some((listener, worker_bin)) = self.respawn.as_ref() else {
            return false;
        };
        let attempt = link.reconnect_attempts;
        link.reconnect_attempts += 1;
        let backoff = RECONNECT_BACKOFF * 2u32.saturating_pow(attempt as u32)
            + reconnect_jitter(self.digest, shard, attempt);
        std::thread::sleep(backoff);

        let addr = match listener.local_addr() {
            Ok(addr) => addr.to_string(),
            Err(_) => return false,
        };
        let mut child = match spawn_worker(worker_bin, &addr) {
            Ok(child) => child,
            Err(err) => {
                eprintln!("snake: shard {shard} respawn failed: {err}");
                return false;
            }
        };
        let accepted = accept_children(
            listener,
            1,
            std::slice::from_mut(&mut child),
            config.shard_timeout,
        );
        let Some(stream) = accepted.into_iter().next() else {
            child.kill().ok();
            child.wait().ok();
            return false;
        };
        stream.set_nodelay(true).ok();

        let generation = self.links[shard].generation + 1;
        let segment = self.segment_path(shard, generation);
        let mut fresh = Self::handshake(
            shard,
            generation,
            stream,
            Some(child),
            self.digest,
            config,
            self.memoize,
            segment.as_deref(),
            None,
            &self.tx,
            self.wire,
        );
        fresh.reconnect_attempts = self.links[shard].reconnect_attempts;
        let live = fresh.handshaked;
        // Retire the old link whichever way the handshake went: its
        // reader thread and child still need joining/reaping at teardown,
        // and its busy tally still counts toward the shard histograms.
        let old = std::mem::replace(&mut self.links[shard], fresh);
        self.retired.push(old);
        if live {
            self.reconnects += 1;
        }
        live
    }

    /// The current connection generation for a shard slot; events tagged
    /// with an older generation are stale traffic from a retired link.
    pub(crate) fn generation(&self, shard: usize) -> u64 {
        self.links.get(shard).map_or(0, |link| link.generation)
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

    /// Declares a shard dead: drops its writer, shuts the socket down
    /// (which also unblocks its reader thread into an EOF), and kills the
    /// spawned child outright — a worker declared dead for missing its
    /// read deadline may be hung in an evaluation and would otherwise
    /// stall teardown until the reap timeout.
    pub(crate) fn kill(&mut self, shard: usize) {
        if let Some(link) = self.links.get_mut(shard) {
            link.writer = None;
            link.socket.shutdown(Shutdown::Both).ok();
            if let Some(child) = link.child.as_mut() {
                child.kill().ok();
            }
        }
    }

    /// Credits one received outcome to a shard's busy-time tally.
    pub(crate) fn record_busy(&mut self, shard: usize, busy_nanos: u64) {
        if let Some(link) = self.links.get_mut(shard) {
            link.busy_nanos += busy_nanos;
            link.outcomes += 1;
        }
    }

    /// Waits up to `timeout` for the next event from any shard. Every
    /// dead reader sends a `Dead` event before exiting and the armed read
    /// deadlines bound how long a broken wire stays quiet, but neither
    /// covers a worker whose heartbeats keep flowing while an outcome
    /// never arrives (a frame lost to wire chaos, an evaluation thread
    /// wedged behind a live heartbeat thread) — heartbeats are swallowed
    /// by the readers, so [`PoolWait::Idle`] means no *outcome* progress
    /// anywhere, and the caller applies its progress deadline.
    pub(crate) fn next_event_timeout(&self, timeout: Duration) -> PoolWait {
        match self.events.recv_timeout(timeout) {
            Ok(event) => PoolWait::Event(event),
            Err(mpsc::RecvTimeoutError::Timeout) => PoolWait::Idle,
            Err(mpsc::RecvTimeoutError::Disconnected) => PoolWait::Closed,
        }
    }

    /// Shuts every worker down, joins the reader threads, reaps spawned
    /// children, and reports per-shard tallies to `observer`: the
    /// `shard.workers` / `shard.ranges_dispatched` /
    /// `shard.ranges_redispatched` counters and one `shard.busy_nanos` /
    /// `shard.idle_nanos` histogram sample per handshaked shard.
    pub(crate) fn finish(&mut self, observer: &dyn Observer) {
        let lifetime = self.started.elapsed().as_nanos() as u64;
        self.teardown();
        observer.counter_add("shard.workers", self.workers as u64);
        observer.counter_add("shard.ranges_dispatched", self.ranges_dispatched);
        observer.counter_add("shard.ranges_redispatched", self.ranges_redispatched);
        observer.counter_add("shard.heartbeat.missed", self.heartbeats_missed);
        observer.counter_add("shard.reconnects", self.reconnects);
        for link in self.links.iter().chain(self.retired.iter()) {
            if link.handshaked {
                observer.record("shard.busy_nanos", link.busy_nanos);
                observer.record("shard.idle_nanos", lifetime.saturating_sub(link.busy_nanos));
            }
        }
    }

    /// Reports for a sharded campaign whose pool never had to launch
    /// (every strategy was already journaled or prefetched): the
    /// configured worker count with nothing dispatched, so the manifest
    /// keeps its `shards` section and readers find the same keys as after
    /// a run that did launch.
    pub(crate) fn report_unlaunched(config: &CampaignConfig) {
        let observer = config.observer.as_ref();
        observer.counter_add("shard.workers", config.shards as u64);
        for tally in [
            "shard.ranges_dispatched",
            "shard.ranges_redispatched",
            "shard.heartbeat.missed",
            "shard.reconnects",
        ] {
            observer.counter_add(tally, 0);
        }
    }

    fn teardown(&mut self) {
        for link in self.links.iter_mut().chain(self.retired.iter_mut()) {
            if let Some(mut writer) = link.writer.take() {
                write_line(&mut writer, &shutdown_message()).ok();
            }
            link.socket.shutdown(Shutdown::Both).ok();
        }
        for link in self.links.iter_mut().chain(self.retired.iter_mut()) {
            if let Some(handle) = link.reader.take() {
                handle.join().ok();
            }
            if let Some(mut child) = link.child.take() {
                reap(&mut child);
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
        let mut not_utf8 = br#"{"type":"heartbeat"}"#.to_vec();
        not_utf8[3] |= 0x80;
        for payload in [too_deep.as_bytes(), &not_utf8] {
            let err = read_message(&mut frame(payload).as_slice()).expect_err("must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        // The same framing around a sound payload goes through, blank
        // lines before it or not.
        let mut wire = b"\n".to_vec();
        wire.extend(frame(br#"{"type":"heartbeat"}"#));
        let mut wire = wire.as_slice();
        let message = read_message(&mut wire).unwrap().expect("one message");
        assert_eq!(message.req_str("type").unwrap(), "heartbeat");
        assert!(
            read_message(&mut wire).unwrap().is_none(),
            "then end of stream"
        );
    }
}

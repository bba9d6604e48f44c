//! Shard-wire fault injection: every wire-chaos preset must be *absorbed*
//! by a distributed campaign — the run completes and its per-strategy
//! TSV, manifest (modulo the wall-clock `timing` and scheduling-dependent
//! `shards` sections) and memo provenance markers are byte-identical to
//! an unperturbed single-process run. Recovery may change *who* evaluated
//! a strategy (re-dispatch to a survivor, in-process fallback), never what
//! was admitted.
//!
//! The frame faults land on the controller's read path, on the raw bytes,
//! by frame ordinal, so the same preset perturbs the same frames every
//! run; the worker faults hit shard 0:
//!
//! * `wire-corrupt` — one payload byte flipped before the checksum is
//!   checked. The frame still parses, so only the checksum can catch it;
//!   a caught frame is a protocol death: the shard is killed, its
//!   outstanding work re-queued.
//! * `wire-drop` — the frame silently never happened. Either the next
//!   frame from that shard trips the in-contract check, or — if it was
//!   the shard's *last* frame — the progress deadline fires.
//! * `wire-delay` — a slow-but-alive worker; nothing may die.
//! * `wire-hang` — shard 0 goes silent with its pipes open; the progress
//!   deadline must declare it dead and its work re-dispatch.
//! * `worker-exit` — shard 0 exits mid-range; the EOF kills the shard.
//!
//! Like `shard_determinism`, these tests spawn real `snake shard-worker`
//! child processes. The last few drive a bare worker through its stdin:
//! whatever arrives there, a refused input ends the worker with a
//! protocol error, never a panic.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use snake_core::{
    build_run_manifest, scenario_digest, Campaign, CampaignConfig, CampaignResult, ChaosPlan,
    ProtocolKind, Recorder, RecorderSnapshot, ScenarioSpec,
};
use snake_json::Value;
use snake_tcp::Profile;

/// Serializes the campaigns in this file: they run on a 1 s progress
/// deadline, and a worker starved of CPU by a campaign running beside it
/// could miss it — a death no preset scheduled, which would break the
/// assertions on what each fault kills.
static LOCK: Mutex<()> = Mutex::new(());

/// The `snake` binary Cargo built alongside this test — the worker the
/// controller spawns.
fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_snake"))
}

fn spec() -> ScenarioSpec {
    ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()))
}

/// One observed campaign; `chaos` and `shards` vary, everything else is
/// pinned. Chaos runs use a short progress deadline (1 s) so a hung
/// worker or a lost frame is recovered in test time rather than after
/// the 10 s production default.
fn run(shards: usize, chaos: Option<ChaosPlan>) -> (CampaignResult, RecorderSnapshot) {
    let recorder = Arc::new(Recorder::new());
    let mut builder = CampaignConfig::builder(spec())
        .cap(10)
        .feedback_rounds(1)
        .retest(false)
        .memoize(true)
        .observer(recorder.clone());
    if shards > 0 {
        builder = builder
            .shards(shards)
            .shard_worker_bin(worker_bin())
            .shard_timeout(Duration::from_secs(1));
    }
    if let Some(plan) = chaos {
        builder = builder.chaos(plan);
    }
    let config = builder.build().expect("valid config");
    let result = Campaign::run(config).expect("valid baseline");
    (result, recorder.snapshot())
}

/// The manifest with its nondeterministic sections (`timing`, and for
/// sharded runs `shards`) removed — the bit-identity contract surface.
fn stable_json(result: &CampaignResult, snapshot: &RecorderSnapshot) -> String {
    let manifest = build_run_manifest(result, snapshot, 0.0);
    match manifest.to_json() {
        Value::Obj(pairs) => Value::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| k != "timing" && k != "shards")
                .collect(),
        )
        .to_string_compact(),
        other => other.to_string_compact(),
    }
}

/// Asserts the chaos run is indistinguishable from the unperturbed
/// reference: TSV, stable manifest, and memo markers all byte-identical.
fn assert_absorbed(
    label: &str,
    reference: &(CampaignResult, RecorderSnapshot),
    chaotic: &(CampaignResult, RecorderSnapshot),
) {
    assert_eq!(
        reference.0.export_outcomes_tsv(),
        chaotic.0.export_outcomes_tsv(),
        "{label}: per-strategy TSV must survive wire chaos byte for byte"
    );
    assert_eq!(
        stable_json(&reference.0, &reference.1),
        stable_json(&chaotic.0, &chaotic.1),
        "{label}: manifests must agree outside `timing`/`shards`"
    );
    assert_eq!(
        reference
            .0
            .outcomes
            .iter()
            .map(|o| &o.memo)
            .collect::<Vec<_>>(),
        chaotic
            .0
            .outcomes
            .iter()
            .map(|o| &o.memo)
            .collect::<Vec<_>>(),
        "{label}: memo provenance markers must survive wire chaos"
    );
}

#[test]
fn every_wire_fault_preset_is_absorbed_without_changing_output() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reference = run(0, None);
    for preset in ["wire-drop", "wire-corrupt", "wire-delay", "worker-exit"] {
        let plan = ChaosPlan::preset(preset).expect("built-in preset");
        let chaotic = run(2, Some(plan));
        assert_absorbed(preset, &reference, &chaotic);
        assert_eq!(
            chaotic.1.counter("shard.workers"),
            2,
            "{preset}: both workers must have handshaked before the chaos"
        );
        if preset != "wire-delay" {
            assert!(
                chaotic.1.counter("shard.ranges_redispatched") >= 1,
                "{preset}: the fault must kill a shard holding work"
            );
        }
    }
}

#[test]
fn a_hung_worker_trips_the_progress_deadline_and_its_work_is_redone() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reference = run(0, None);
    let plan = ChaosPlan::preset("wire-hang").expect("built-in preset");
    let chaotic = run(2, Some(plan));
    assert_absorbed("wire-hang", &reference, &chaotic);
    assert!(
        chaotic.1.counter("shard.deadline.missed") >= 1,
        "the hung shard must be declared dead by the progress deadline"
    );
    assert!(
        chaotic.1.counter("shard.ranges_redispatched") >= 1,
        "the hung shard's outstanding work must be re-dispatched"
    );
}

#[test]
fn a_delayed_wire_kills_nothing() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = ChaosPlan::preset("wire-delay").expect("built-in preset");
    let chaotic = run(2, Some(plan));
    assert_eq!(
        chaotic.1.counter("shard.deadline.missed"),
        0,
        "a slow-but-alive worker must never trip the progress deadline"
    );
    assert_eq!(
        chaotic.1.counter("shard.ranges_redispatched"),
        0,
        "a delayed frame is late, not lost: no work may be redone"
    );
}

#[test]
fn wire_faults_without_a_wire_are_rejected_at_build_time() {
    for preset in [
        "wire-drop",
        "wire-corrupt",
        "wire-delay",
        "wire-hang",
        "worker-exit",
    ] {
        let plan = ChaosPlan::preset(preset).expect("built-in preset");
        assert!(plan.has_wire_faults(), "{preset} is a wire-fault plan");
        assert!(
            !plan.has_eval_faults(),
            "{preset} must leave evaluation untouched so memoization stays on"
        );
        let err = CampaignConfig::builder(spec())
            .cap(4)
            .chaos(plan)
            .build()
            .expect_err("wire chaos without shards must not build");
        assert!(
            err.to_string().contains("shards"),
            "{preset}: the error must point at the missing shard wire, got: {err}"
        );
    }
    // The controller kill-switch is not a wire fault: it acts on the
    // admission path and works in-process too (covered end to end by the
    // `controller_resume` suite).
    let kill = ChaosPlan::preset("controller-kill").expect("built-in preset");
    assert!(!kill.has_wire_faults() && !kill.has_eval_faults());
}

/// FNV-1a 64, the wire's line checksum, restated here so the tests frame
/// their input without borrowing the code under test.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
    })
}

fn frame(payload: &str) -> Vec<u8> {
    format!("{payload}\t{:016x}\n", fnv1a(payload.as_bytes())).into_bytes()
}

/// A `hello` for the quick Linux 3.13 scenario, as the controller encodes
/// it, carrying `digest` as the controller's scenario digest.
fn hello(digest: u64) -> String {
    let link = |bps: u64, delay: u64, queue: u64, aqm: &str| {
        format!(
            r#"{{"bandwidth_bps":{bps},"delay":{delay},"queue_packets":{queue},"aqm":"{aqm}","impair":{{"loss_ppm":0,"dup_ppm":0,"corrupt_ppm":0,"reorder_ppm":0,"jitter":0,"flap":null}}}}"#
        )
    };
    let profile = r#"{"name":"Linux 3.13","initial_cwnd_segments":10,"max_data_retries":15,"min_rto":200000000,"max_rto":120000000000,"naive_ack_counting":false,"harsh_dupack_response":false,"invalid_flags":"ignore","abort_style":"fin_then_rst","dsack":true,"sack_loss_evidence":true,"sack_recovery":true,"syn_retries":5,"time_wait":60000000000,"app_close_delay":200000000}"#;
    let scenario = format!(
        r#"{{"protocol":"tcp","profile":{profile},"topology":{{"kind":"dumbbell","bottleneck":{},"access":{}}},"flows":null,"data_secs":6,"grace_secs":35,"seed":7,"target_connections":1,"event_budget":null}}"#,
        link(10_000_000, 8_000_000, 64, "red"),
        link(100_000_000, 1_000_000, 128, "drop_tail"),
    );
    format!(
        r#"{{"type":"hello","version":7,"digest":{digest},"scenario":{scenario},"threshold":0.5,"baseline_reps":1,"retest":false,"snapshot_fork":true,"memoize":true,"worker_fault":null}}"#
    )
}

/// Runs a bare `snake shard-worker` with `input` as its whole stdin and
/// asserts it refuses it: exit code 1 with `message` on stderr — not a
/// panic (101) and not a signal. Returns what it wrote to stdout.
fn assert_refused(label: &str, input: &[u8], message: &str) -> Vec<u8> {
    let mut child = Command::new(worker_bin())
        .arg("shard-worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the worker spawns");
    // Every input here fits in the pipe buffer; the worker may exit
    // before reading all of it.
    let mut stdin = child.stdin.take().expect("stdin is piped");
    stdin.write_all(input).ok();
    drop(stdin);
    let output = child.wait_with_output().expect("the worker exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(1),
        "{label}: a refused input is a protocol error: {stderr}"
    );
    assert!(stderr.contains(message), "{label}: {stderr}");
    assert!(!stderr.contains("panicked"), "{label}: {stderr}");
    output.stdout
}

#[test]
fn a_worker_refuses_a_closed_or_malformed_stdin_with_a_protocol_error() {
    let too_deep = format!("{}{}", "[".repeat(129), "]".repeat(129));
    let mut bad_checksum = frame(&hello(0));
    bad_checksum[10] ^= 1;
    for (label, input, message) in [
        (
            "closed before hello",
            Vec::new(),
            "controller closed the wire before hello",
        ),
        (
            "not a hello",
            frame(r#"{"type":"range","start":0,"strategies":[]}"#),
            "expected hello as the first message",
        ),
        (
            "wrong version",
            frame(r#"{"type":"hello","version":5}"#),
            "shard wire version mismatch",
        ),
        (
            "129-deep payload",
            frame(&too_deep),
            "shard wire line is not JSON",
        ),
        (
            "checksum failure",
            bad_checksum,
            "shard wire line failed its checksum",
        ),
    ] {
        let stdout = assert_refused(label, &input, message);
        assert!(stdout.is_empty(), "{label}: nothing may reach the wire");
    }
}

/// A scenario the builder would reject arrives as well-formed JSON: the
/// worker refuses it while decoding, before it echoes a digest or builds
/// a simulator.
#[test]
fn a_worker_refuses_an_unrealizable_scenario_without_panicking() {
    let star_of_two = hello(0)
        .replace(
            r#""topology":{"kind":"dumbbell","#,
            r#""topology":{"kind":"star","hosts":2,"topo_seed":7,"#,
        )
        .replace(
            r#""flows":null"#,
            r#""flows":[{"role":"attacked","count":1}]"#,
        );
    assert!(star_of_two.contains(r#""hosts":2"#) && star_of_two.contains("attacked"));
    let stdout = assert_refused(
        "star with two hosts",
        &frame(&star_of_two),
        "invalid scenario",
    );
    assert!(stdout.is_empty(), "nothing may reach the wire");
}

#[test]
fn a_worker_echoes_its_own_digest_before_refusing_a_mismatched_hello() {
    let stdout = assert_refused(
        "digest mismatch",
        &frame(&hello(0)),
        "scenario digest mismatch",
    );
    let line = std::str::from_utf8(&stdout).expect("frames are UTF-8");
    let (payload, checksum) = line
        .strip_suffix('\n')
        .and_then(|line| line.split_once('\t'))
        .unwrap_or_else(|| panic!("exactly one framed line, got {line:?}"));
    assert_eq!(checksum, format!("{:016x}", fnv1a(payload.as_bytes())));
    let ready = snake_json::parse(payload).expect("the frame is JSON");
    assert_eq!(ready.get("type").and_then(Value::as_str), Some("ready"));
    assert_eq!(
        ready.get("digest").and_then(Value::as_u64),
        Some(scenario_digest(&spec(), 0.5, 1)),
        "the ready must carry the digest of the spec the worker decoded"
    );
}

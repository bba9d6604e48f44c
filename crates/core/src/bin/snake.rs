//! `snake` — command-line driver for the SNAKE attack explorer.
//!
//! ```text
//! snake list                               implementations under test
//! snake baseline --impl linux-3.13        run the no-attack scenario
//! snake campaign --impl linux-3.0.0       full state-based search
//!               [--cap N] [--quick] [--manifest FILE] [--observe-summary] …
//! snake shard-worker                      executor process spawned by --shards
//! snake replay --attack close-wait        replay a named Table II attack
//! snake tables                            regenerate the paper's evaluation tables
//! ```
//!
//! Flag handling is table-driven: each command declares its flags once in
//! [`COMMANDS`] (name, argument placeholder, help line), the parser walks
//! that table — so an unknown or misspelled flag is an error instead of
//! being silently ignored — and `snake help` renders its text from the
//! very same table.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use snake_core::tables::{shape_failures, Tables};
use snake_core::{
    build_run_manifest, detect, render_table1, render_table2, Campaign, CampaignConfig, ChaosPlan,
    Executor, FlowGroup, FlowRole, KnownAttack, ProtocolKind, Recorder, ScenarioSpec, TopologyKind,
    DEFAULT_THRESHOLD,
};
use snake_dccp::DccpProfile;
use snake_netsim::{preset_names, Impairment, LinkSpec, SimDuration};
use snake_tcp::Profile;

const IMPLEMENTATIONS: &[(&str, &str)] = &[
    ("linux-3.0.0", "TCP, Linux kernel 3.0.0"),
    ("linux-3.13", "TCP, Linux kernel 3.13"),
    ("windows-8.1", "TCP, Windows 8.1"),
    ("windows-95", "TCP, Windows 95"),
    ("dccp", "DCCP, Linux kernel 3.13 (CCID-2)"),
];

/// One flag a command accepts: `arg` is `None` for a bare switch, or the
/// placeholder shown in help (`--cap N`) for a value-taking flag.
struct FlagSpec {
    name: &'static str,
    arg: Option<&'static str>,
    help: &'static str,
}

const fn switch(name: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        arg: None,
        help,
    }
}

const fn value(name: &'static str, arg: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        arg: Some(arg),
        help,
    }
}

/// One subcommand: its flag table drives both the parser and `snake help`.
struct CommandSpec {
    name: &'static str,
    summary: &'static str,
    flags: &'static [FlagSpec],
}

/// Scenario flags shared by `baseline` and `campaign`.
const IMPL_FLAG: FlagSpec = value("--impl", "NAME", "implementation under test (`snake list`)");
const DATA_SECS_FLAG: FlagSpec = value("--data-secs", "N", "data-phase length in seconds");
const GRACE_SECS_FLAG: FlagSpec = value("--grace-secs", "N", "observation tail in seconds");
const SEED_FLAG: FlagSpec = value("--seed", "N", "simulation seed");
const QUICK_FLAG: FlagSpec = switch(
    "--quick",
    "use the shortened quick scenario instead of the paper-length one",
);
const IMPAIR_FLAG: FlagSpec = value(
    "--impair",
    "SPEC",
    "link impairments: a preset name or loss=F,dup=F,reorder=F,jitter=MS,flap=A:B:C",
);
const BOTTLENECK_FLAG: FlagSpec = value(
    "--bottleneck",
    "SPEC",
    "bottleneck link as MBIT/DELAY_MS/QUEUE_PKTS[/red]",
);
const TOPOLOGY_FLAG: FlagSpec = value(
    "--topology",
    "KIND:HOSTS",
    "generate a star/tree/multi-bottleneck topology with HOSTS end hosts",
);
const FLOWS_FLAG: FlagSpec = value(
    "--flows",
    "SPEC",
    "flow mix as ROLE=N[,ROLE=N...] (attacked, bulk, rr, syn); needs --topology",
);

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "list",
        summary: "implementations and named attacks",
        flags: &[],
    },
    CommandSpec {
        name: "baseline",
        summary: "run the no-attack scenario",
        flags: &[
            IMPL_FLAG,
            DATA_SECS_FLAG,
            GRACE_SECS_FLAG,
            SEED_FLAG,
            QUICK_FLAG,
            IMPAIR_FLAG,
            BOTTLENECK_FLAG,
            TOPOLOGY_FLAG,
            FLOWS_FLAG,
        ],
    },
    CommandSpec {
        name: "campaign",
        summary: "full state-based attack search (one Table I row)",
        flags: &[
            IMPL_FLAG,
            DATA_SECS_FLAG,
            GRACE_SECS_FLAG,
            SEED_FLAG,
            QUICK_FLAG,
            IMPAIR_FLAG,
            BOTTLENECK_FLAG,
            TOPOLOGY_FLAG,
            FLOWS_FLAG,
            value("--cap", "N", "test at most N strategies"),
            value("--budget", "EVENTS", "per-run simulator event budget"),
            value(
                "--baseline-reps",
                "K",
                "build the detection envelope from K seed-jittered baselines",
            ),
            value(
                "--chaos",
                "PLAN",
                "inject chaos faults (panics, journal, mayhem)",
            ),
            value("--tsv", "FILE", "export per-strategy outcomes as TSV"),
            value("--journal", "FILE", "stream outcomes to a JSONL journal"),
            switch("--resume", "reuse outcomes already in the journal"),
            value("--progress", "N", "progress line every N strategies"),
            switch("--no-memo", "disable cross-strategy memoization"),
            value("--manifest", "FILE", "write the observability run manifest"),
            switch("--observe-summary", "print the observability summary"),
            value(
                "--shards",
                "N",
                "run strategies across N worker processes (0 = in-process)",
            ),
            value(
                "--shard-timeout",
                "SECS",
                "kill a shard that holds work SECS without an outcome (default 10)",
            ),
        ],
    },
    CommandSpec {
        name: "shard-worker",
        summary: "shard executor spawned by `campaign --shards`; frames on stdin/stdout",
        flags: &[],
    },
    CommandSpec {
        name: "replay",
        summary: "replay a named Table II attack",
        flags: &[value("--attack", "NAME", "attack to replay (`snake list`)")],
    },
    CommandSpec {
        name: "tables",
        summary: "regenerate the paper's evaluation tables and check their shape",
        flags: &[],
    },
];

/// Flags parsed against one command's table. Duplicated flags keep the
/// last occurrence, mirroring most CLI conventions.
#[derive(Debug)]
struct ParsedFlags<'a> {
    values: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> ParsedFlags<'a> {
    fn has(&self, name: &str) -> bool {
        self.values.iter().any(|(n, _)| *n == name)
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }

    /// Parses a value flag into `T`, with the flag's own placeholder in
    /// the error message.
    fn parsed<T: std::str::FromStr>(&self, spec: &FlagSpec) -> Result<Option<T>, String> {
        match self.get(spec.name) {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|_| {
                format!(
                    "{} expects {} (got `{raw}`)",
                    spec.name,
                    spec.arg.unwrap_or("a value")
                )
            }),
        }
    }

    /// Like [`parsed`](Self::parsed), but additionally rejects zero (and,
    /// for floats, NaN and negatives): the uniform parse-time guard for
    /// numeric flags whose zero is degenerate — `--cap 0` tests nothing,
    /// `--baseline-reps 0` anchors no envelope, `--shard-timeout 0` declares
    /// every worker dead — so they all fail with one message shape instead of
    /// surfacing as assorted downstream errors.
    fn parsed_positive<T>(&self, spec: &FlagSpec) -> Result<Option<T>, String>
    where
        T: std::str::FromStr + PartialOrd + Default,
    {
        match self.parsed::<T>(spec)? {
            // An explicit `partial_cmp` rather than `v <= 0` so a NaN
            // (which compares false both ways) is rejected too.
            Some(v) if v.partial_cmp(&T::default()) != Some(std::cmp::Ordering::Greater) => {
                Err(format!(
                    "{} expects a positive {} (got `{}`)",
                    spec.name,
                    spec.arg.unwrap_or("value"),
                    self.get(spec.name).unwrap_or_default()
                ))
            }
            other => Ok(other),
        }
    }
}

/// Finds a flag's spec inside a command table (the parser guarantees the
/// name exists; this is for typed lookups by callers).
fn flag_spec(command: &CommandSpec, name: &str) -> &'static FlagSpec {
    command
        .flags
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("flag {name} not declared for snake {}", command.name))
}

/// Walks `args` against the command's flag table: every token must be a
/// declared flag, and value flags must be followed by their argument.
fn parse_flags<'a>(command: &CommandSpec, args: &'a [String]) -> Result<ParsedFlags<'a>, String> {
    let mut values = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let token = args[i].as_str();
        let Some(spec) = command.flags.iter().find(|f| f.name == token) else {
            return Err(format!(
                "unknown flag `{token}` for `snake {}` (see `snake help`)",
                command.name
            ));
        };
        match spec.arg {
            None => {
                values.push((spec.name, None));
                i += 1;
            }
            Some(placeholder) => {
                let Some(value) = args.get(i + 1) else {
                    return Err(format!("{} expects {placeholder}", spec.name));
                };
                values.push((spec.name, Some(value.as_str())));
                i += 2;
            }
        }
    }
    Ok(ParsedFlags { values })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        name => match COMMANDS.iter().find(|c| c.name == name) {
            None => Err(format!("unknown command `{name}`")),
            Some(spec) => parse_flags(spec, &args[1..]).and_then(|flags| match spec.name {
                "list" => cmd_list(),
                "baseline" => cmd_baseline(spec, &flags),
                "campaign" => cmd_campaign(spec, &flags),
                "shard-worker" => cmd_shard_worker(),
                "replay" => cmd_replay(&flags),
                "tables" => cmd_tables(),
                other => unreachable!("command {other} declared but not dispatched"),
            }),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            ExitCode::FAILURE
        }
    }
}

/// Renders the help text from [`COMMANDS`] — the same table the parser
/// uses, so help and behaviour cannot drift apart.
fn usage() {
    eprintln!("snake — state-based network attack explorer (SNAKE, DSN 2015 reproduction)\n");
    eprintln!("USAGE:");
    for command in COMMANDS {
        eprintln!("  snake {:<13} {}", command.name, command.summary);
        for flag in command.flags {
            let left = match flag.arg {
                Some(arg) => format!("{} {arg}", flag.name),
                None => flag.name.to_owned(),
            };
            eprintln!("      {left:<20} {}", flag.help);
        }
    }
    eprintln!("  snake help\n\nRun `snake list` for implementation and attack names.");
}

fn parse_impl(flags: &ParsedFlags<'_>) -> Result<ProtocolKind, String> {
    let name = flags.get("--impl").ok_or("missing --impl <name>")?;
    Ok(match name {
        "linux-3.0.0" => ProtocolKind::Tcp(Profile::linux_3_0_0()),
        "linux-3.13" => ProtocolKind::Tcp(Profile::linux_3_13()),
        "windows-8.1" => ProtocolKind::Tcp(Profile::windows_8_1()),
        "windows-95" => ProtocolKind::Tcp(Profile::windows_95()),
        "dccp" => ProtocolKind::Dccp(DccpProfile::linux_3_13()),
        other => {
            return Err(format!(
                "unknown implementation `{other}` (try `snake list`)"
            ))
        }
    })
}

fn parse_scenario(command: &CommandSpec, flags: &ParsedFlags<'_>) -> Result<ScenarioSpec, String> {
    let protocol = parse_impl(flags)?;
    let mut builder = ScenarioSpec::builder(protocol);
    if flags.has("--quick") {
        builder = builder.quick();
    }
    if let Some(v) = flags.parsed(flag_spec(command, "--data-secs"))? {
        builder = builder.data_secs(v);
    }
    if let Some(v) = flags.parsed(flag_spec(command, "--grace-secs"))? {
        builder = builder.grace_secs(v);
    }
    if let Some(v) = flags.parsed(flag_spec(command, "--seed"))? {
        builder = builder.seed(v);
    }
    if let Some(raw) = flags.get("--bottleneck") {
        builder = builder.bottleneck(parse_bottleneck(raw)?);
    }
    if let Some(raw) = flags.get("--topology") {
        let (kind, hosts) = parse_topology(raw)?;
        builder = builder.topology(kind, hosts);
    }
    if let Some(raw) = flags.get("--flows") {
        builder = builder.flows(parse_flows(raw)?);
    }
    // Impairments go on last so they survive a `--bottleneck` override.
    if let Some(raw) = flags.get("--impair") {
        let impair = Impairment::parse(raw)
            .map_err(|e| format!("--impair: {e} (presets: {})", preset_names().join(", ")))?;
        builder = builder.impairment(impair);
    }
    builder.build().map_err(|e| e.to_string())
}

/// Parses one component of a composite flag value (`--topology star:256`,
/// `--bottleneck 10/20/64`), with the same message shape as
/// [`ParsedFlags::parsed`].
fn parse_field<T: std::str::FromStr>(flag: &str, what: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag} expects {what} (got `{raw}`)"))
}

/// Like [`parse_field`] but additionally rejects zero, negatives, and NaN
/// — the composite-value counterpart of [`ParsedFlags::parsed_positive`],
/// sharing its message shape.
fn parse_positive_field<T>(flag: &str, what: &str, raw: &str) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + Default,
{
    let v: T = parse_field(flag, what, raw)?;
    if v.partial_cmp(&T::default()) != Some(std::cmp::Ordering::Greater) {
        return Err(format!("{flag} expects a positive {what} (got `{raw}`)"));
    }
    Ok(v)
}

/// Parses `--bottleneck MBIT/DELAY_MS/QUEUE_PKTS[/red]` through
/// [`LinkSpec::try_new`], so degenerate links (zero bandwidth, zero queue)
/// are rejected before any simulation starts.
fn parse_bottleneck(raw: &str) -> Result<LinkSpec, String> {
    let parts: Vec<&str> = raw.split('/').collect();
    let (dims, red) = match parts.as_slice() {
        [bw, delay, queue] => ([*bw, *delay, *queue], false),
        [bw, delay, queue, "red"] => ([*bw, *delay, *queue], true),
        _ => {
            return Err(format!(
                "--bottleneck expects MBIT/DELAY_MS/QUEUE_PKTS[/red] (got `{raw}`)"
            ))
        }
    };
    let mbit: f64 = parse_positive_field("--bottleneck", "Mbit/s bandwidth", dims[0])?;
    let delay_ms: f64 = parse_field("--bottleneck", "delay in milliseconds", dims[1])?;
    if !mbit.is_finite() {
        return Err(format!(
            "--bottleneck expects a positive Mbit/s bandwidth (got `{}`)",
            dims[0]
        ));
    }
    if !delay_ms.is_finite() || delay_ms < 0.0 {
        return Err(format!(
            "--bottleneck expects a non-negative delay in milliseconds (got `{}`)",
            dims[1]
        ));
    }
    let queue: usize = parse_positive_field("--bottleneck", "queue packet count", dims[2])?;
    let spec = LinkSpec::try_new(
        (mbit * 1e6) as u64,
        SimDuration::from_secs_f64(delay_ms / 1e3),
        queue,
    )
    .map_err(|e| format!("--bottleneck: {e}"))?;
    Ok(if red { spec.with_red() } else { spec })
}

/// Parses `--topology KIND:HOSTS` (e.g. `star:256`).
fn parse_topology(raw: &str) -> Result<(TopologyKind, usize), String> {
    let Some((kind_raw, hosts_raw)) = raw.split_once(':') else {
        return Err(format!("--topology expects KIND:HOSTS (got `{raw}`)"));
    };
    let kind = TopologyKind::from_label(kind_raw).ok_or_else(|| {
        format!("--topology expects a kind of star, tree, or multi-bottleneck (got `{kind_raw}`)")
    })?;
    let hosts = parse_positive_field("--topology", "HOSTS count", hosts_raw)?;
    Ok((kind, hosts))
}

/// Parses `--flows ROLE=N[,ROLE=N...]` (e.g. `attacked=200,bulk=16,syn=32`).
fn parse_flows(raw: &str) -> Result<Vec<FlowGroup>, String> {
    raw.split(',')
        .map(|part| {
            let Some((role_raw, count_raw)) = part.split_once('=') else {
                return Err(format!("--flows expects ROLE=N[,ROLE=N...] (got `{part}`)"));
            };
            let role = FlowRole::from_label(role_raw).ok_or_else(|| {
                format!(
                    "--flows expects a role of attacked, bulk, request-response, or syn-pressure \
                     (got `{role_raw}`)"
                )
            })?;
            let count = parse_positive_field("--flows", "flow count", count_raw)?;
            Ok(FlowGroup { role, count })
        })
        .collect()
}

fn cmd_list() -> Result<(), String> {
    println!("implementations (--impl):");
    for (name, desc) in IMPLEMENTATIONS {
        println!("  {name:<22} {desc}");
    }
    println!("\nattacks (--attack):");
    for attack in KnownAttack::NAMED {
        let (protocol, _) = attack.witness().expect("named attacks have a witness");
        println!(
            "  {:<22} {} (replays on {})",
            attack.slug(),
            attack.name(),
            protocol.implementation_name()
        );
    }
    Ok(())
}

fn cmd_baseline(command: &CommandSpec, flags: &ParsedFlags<'_>) -> Result<(), String> {
    let spec = parse_scenario(command, flags)?;
    let m = Executor::run(&spec, None);
    println!("implementation : {}", spec.protocol().implementation_name());
    println!(
        "data phase     : {} s (+{} s observation)",
        spec.data_secs(),
        spec.grace_secs()
    );
    println!(
        "target flow    : {} bytes ({:.2} Mbit/s)",
        m.target_bytes,
        mbps(m.target_bytes, spec.data_secs())
    );
    println!(
        "competing flow : {} bytes ({:.2} Mbit/s)",
        m.competing_bytes,
        mbps(m.competing_bytes, spec.data_secs())
    );
    println!("leaked sockets : {}", m.leaked_sockets);
    println!("packets seen   : {}", m.proxy.packets_seen);
    println!(
        "final states   : client {} / server {}",
        m.proxy.client_final_state, m.proxy.server_final_state
    );
    Ok(())
}

/// Assembles the campaign configuration from the parsed flags — split out
/// of [`cmd_campaign`] so every flag validation (including the uniform
/// positive-value guards) is unit-testable without running a campaign.
fn campaign_config(
    command: &CommandSpec,
    flags: &ParsedFlags<'_>,
    observer: Option<Arc<Recorder>>,
) -> Result<CampaignConfig, String> {
    let mut spec = parse_scenario(command, flags)?;
    if let Some(budget) = flags.parsed_positive(flag_spec(command, "--budget"))? {
        spec = spec.with_event_budget(budget);
    }
    let mut builder = CampaignConfig::builder(spec).memoize(!flags.has("--no-memo"));
    if let Some(cap) = flags.parsed_positive(flag_spec(command, "--cap"))? {
        builder = builder.cap(cap);
    }
    if let Some(path) = flags.get("--journal") {
        builder = builder.journal(path);
    }
    if flags.has("--resume") {
        builder = builder.resume(true);
    }
    if let Some(every) = flags.parsed(flag_spec(command, "--progress"))? {
        builder = builder.progress_every(every);
    }
    if let Some(reps) = flags.parsed_positive(flag_spec(command, "--baseline-reps"))? {
        builder = builder.baseline_reps(reps);
    }
    if let Some(name) = flags.get("--chaos") {
        let plan = ChaosPlan::preset(name).ok_or_else(|| {
            let names: Vec<&str> = ChaosPlan::presets().iter().map(|(n, _)| *n).collect();
            format!("unknown chaos plan `{name}` (try {})", names.join(", "))
        })?;
        builder = builder.chaos(plan);
    }
    if let Some(shards) = flags.parsed(flag_spec(command, "--shards"))? {
        builder = builder.shards(shards);
    }
    if let Some(secs) = parse_finite_secs(flags, flag_spec(command, "--shard-timeout"))? {
        builder = builder.shard_timeout(Duration::from_secs_f64(secs));
    }
    if let Some(recorder) = observer {
        builder = builder.observer(recorder);
    }
    builder.build().map_err(|e| e.to_string())
}

/// Parses a seconds-valued flag (`--shard-timeout`) as a positive,
/// *finite* float, keeping the message shape identical to
/// [`ParsedFlags::parsed_positive`].
fn parse_finite_secs(flags: &ParsedFlags<'_>, spec: &FlagSpec) -> Result<Option<f64>, String> {
    match flags.parsed_positive::<f64>(spec)? {
        Some(secs) if !secs.is_finite() => Err(format!(
            "{} expects a positive {} (got `{}`)",
            spec.name,
            spec.arg.unwrap_or("SECS"),
            flags.get(spec.name).unwrap_or_default()
        )),
        other => Ok(other),
    }
}

/// `snake shard-worker` — the executor half of the controller/executor
/// split, spawned by the controller itself (`--shards N`) and spoken to
/// over its stdin/stdout.
fn cmd_shard_worker() -> Result<(), String> {
    snake_core::run_shard_worker().map_err(|e| format!("shard worker: {e}"))
}

fn cmd_campaign(command: &CommandSpec, flags: &ParsedFlags<'_>) -> Result<(), String> {
    let memoize = !flags.has("--no-memo");
    let manifest_path = flags.get("--manifest");
    let observe_summary = flags.has("--observe-summary");
    // The recorder only exists when someone will read it; otherwise the
    // campaign keeps the default no-op observer and pays nothing.
    let recorder = (manifest_path.is_some() || observe_summary).then(|| Arc::new(Recorder::new()));
    let config = campaign_config(command, flags, recorder.clone())?;

    let start = Instant::now();
    let result = Campaign::run(config).map_err(|e| e.to_string())?;
    let wall_secs = start.elapsed().as_secs_f64();
    eprintln!(
        "{} strategies in {:.1?} ({} errored, {} truncated)",
        result.strategies_tried(),
        start.elapsed(),
        result.errored(),
        result.truncated()
    );
    if result.baseline_reps > 1 {
        eprintln!(
            "ensemble: {} baselines, envelope width ±{:.1}%, {} borderline verdict(s) escalated",
            result.baseline_reps,
            100.0 * result.envelope.target_width_fraction(),
            result.escalated
        );
    }
    if memoize {
        eprintln!(
            "memoization: {} of {} strategies answered without a run (class {}, inert {})",
            result.memo_hits + result.short_circuits,
            result.strategies_tried(),
            result.memo_hits,
            result.short_circuits
        );
    }
    if result.resumed > 0 {
        eprintln!(
            "resumed {} outcomes from the journal ({} malformed lines skipped)",
            result.resumed, result.journal_lines_skipped
        );
    }
    println!("{}", render_table1(std::slice::from_ref(&result)));
    println!("{}", render_table2(std::slice::from_ref(&result)));
    if let Some(path) = flags.get("--tsv") {
        std::fs::write(path, result.export_outcomes_tsv())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote per-strategy outcomes to {path}");
    }
    if let Some(recorder) = &recorder {
        let snapshot = recorder.snapshot();
        let manifest = build_run_manifest(&result, &snapshot, wall_secs);
        if let Some(path) = manifest_path {
            let json = manifest.to_json().to_string_compact();
            std::fs::write(path, format!("{json}\n"))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote run manifest to {path}");
        }
        if observe_summary {
            print_observe_summary(&snapshot, wall_secs);
        }
    }
    Ok(())
}

/// Human-oriented digest of the recorder snapshot (`--observe-summary`).
fn print_observe_summary(snapshot: &snake_core::RecorderSnapshot, wall_secs: f64) {
    eprintln!("observability summary ({wall_secs:.2}s wall clock):");
    eprintln!(
        "  runs: {} from scratch, {} forked, {} elided, {} plan guards tripped",
        snapshot.counter("exec.runs.from_scratch"),
        snapshot.counter("exec.runs.forked"),
        snapshot.counter("exec.runs.elided"),
        snapshot.counter("exec.plan.guard_tripped"),
    );
    eprintln!(
        "  netsim: {} events, {} timers cancelled, {} purged",
        snapshot.counter("netsim.events"),
        snapshot.counter("netsim.timers_cancelled"),
        snapshot.counter("netsim.timers_purged"),
    );
    eprintln!(
        "  netsim queue/arena: {} summed depth high-water, {} arena allocs, {} arena reuses",
        snapshot.counter("netsim.queue.depth_hwm"),
        snapshot.counter("netsim.arena.alloc"),
        snapshot.counter("netsim.arena.reuse"),
    );
    eprintln!(
        "  forks: {} snapshot captures ({} bytes), {} run forks ({} bytes)",
        snapshot.counter("netsim.snapshot_forks"),
        snapshot.counter("netsim.snapshot_clone_bytes"),
        snapshot.counter("netsim.forks"),
        snapshot.counter("netsim.fork_clone_bytes"),
    );
    let impair_events: u64 = [
        "netsim.impair.lost",
        "netsim.impair.duplicated",
        "netsim.impair.corrupted",
        "netsim.impair.reordered",
        "netsim.impair.flap_dropped",
    ]
    .iter()
    .map(|name| snapshot.counter(name))
    .sum();
    if impair_events > 0 {
        eprintln!(
            "  impairments: {} lost, {} duplicated, {} corrupted, {} reordered, {} flap-dropped",
            snapshot.counter("netsim.impair.lost"),
            snapshot.counter("netsim.impair.duplicated"),
            snapshot.counter("netsim.impair.corrupted"),
            snapshot.counter("netsim.impair.reordered"),
            snapshot.counter("netsim.impair.flap_dropped"),
        );
    }
    for (name, (count, wall_nanos)) in snapshot.span_totals() {
        eprintln!(
            "  {name}: {count} span(s), {:.3}s wall",
            wall_nanos as f64 / 1e9
        );
    }
    if let Some(busy) = snapshot.histograms.get("worker.busy_nanos") {
        eprintln!(
            "  workers: {} batch-worker lifetimes, mean busy {:.3}s",
            busy.count,
            busy.mean() as f64 / 1e9
        );
    }
    if snapshot.counter("shard.workers") > 0 {
        let busy = snapshot.histograms.get("shard.busy_nanos");
        let idle = snapshot.histograms.get("shard.idle_nanos");
        eprintln!(
            "  shards: {} worker(s), {} range(s) dispatched ({} re-dispatched), \
             {} outcome batch(es), mean busy {:.3}s / idle {:.3}s",
            snapshot.counter("shard.workers"),
            snapshot.counter("shard.ranges_dispatched"),
            snapshot.counter("shard.ranges_redispatched"),
            snapshot.counter("shard.outcome_batches"),
            busy.map_or(0.0, |h| h.mean() as f64 / 1e9),
            idle.map_or(0.0, |h| h.mean() as f64 / 1e9),
        );
        eprintln!(
            "  shard recovery: {} deadline(s) missed",
            snapshot.counter("shard.deadline.missed"),
        );
    }
}

fn cmd_replay(flags: &ParsedFlags<'_>) -> Result<(), String> {
    let name = flags.get("--attack").ok_or("missing --attack <name>")?;
    let (protocol, strategy) = KnownAttack::NAMED
        .iter()
        .find(|a| a.slug() == name)
        .and_then(KnownAttack::witness)
        .ok_or_else(|| format!("unknown attack `{name}` (try `snake list`)"))?;
    let spec = ScenarioSpec::evaluation(protocol);
    let baseline = Executor::run(&spec, None);
    let attacked = Executor::run(&spec, Some(strategy.clone()));
    let verdict = detect(&baseline, &attacked, DEFAULT_THRESHOLD);
    println!("attack   : {name}");
    println!("strategy : {}", strategy.describe());
    println!("impl     : {}", spec.protocol().implementation_name());
    println!(
        "baseline : {:.2} Mbit/s, attacked: {:.2} Mbit/s",
        mbps(baseline.target_bytes, spec.data_secs()),
        mbps(attacked.target_bytes, spec.data_secs())
    );
    println!(
        "sockets  : {} leaked (CLOSE_WAIT {}, queue-wedged {})",
        attacked.leaked_sockets, attacked.leaked_close_wait, attacked.leaked_with_queue
    );
    println!(
        "verdict  : flagged={} {:?}",
        verdict.flagged(),
        verdict.labels()
    );
    Ok(())
}

/// `snake tables` — every measured table of EXPERIMENTS.md as markdown on
/// stdout, then the paper-shape checks; fails naming each check that does
/// not hold.
fn cmd_tables() -> Result<(), String> {
    let tables = Tables::collect().map_err(|e| e.to_string())?;
    print!("{}", tables.render());
    let failures = shape_failures(&tables);
    if failures.is_empty() {
        eprintln!("every paper-shape check holds");
        return Ok(());
    }
    Err(format!(
        "{} paper-shape check(s) failed:\n  {}",
        failures.len(),
        failures.join("\n  ")
    ))
}

fn mbps(bytes: u64, secs: u64) -> f64 {
    bytes as f64 * 8.0 / secs.max(1) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign_spec() -> &'static CommandSpec {
        COMMANDS.iter().find(|c| c.name == "campaign").unwrap()
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    /// Runs the full flag-parse → config-build pipeline the way `main`
    /// does, returning the error a user would see.
    fn config_err(extra: &[&str]) -> String {
        let mut all = vec!["--impl", "linux-3.13", "--quick"];
        all.extend_from_slice(extra);
        let owned = args(&all);
        let spec = campaign_spec();
        parse_flags(spec, &owned)
            .and_then(|flags| campaign_config(spec, &flags, None).map(|_| ()))
            .expect_err("degenerate flags must be rejected")
    }

    #[test]
    fn help_table_is_well_formed() {
        // The parser and `snake help` read the same table; a malformed
        // entry would corrupt both.
        for command in COMMANDS {
            assert!(!command.summary.is_empty(), "{}", command.name);
            for flag in command.flags {
                assert!(flag.name.starts_with("--"), "{}", flag.name);
                assert!(!flag.help.is_empty(), "{}", flag.name);
            }
        }
    }

    #[test]
    fn unknown_flags_and_missing_values_are_parse_errors() {
        let spec = campaign_spec();
        let err = parse_flags(spec, &args(&["--nope"])).unwrap_err();
        assert!(err.contains("unknown flag `--nope`"), "{err}");
        assert!(err.contains("snake campaign"), "{err}");
        let err = parse_flags(spec, &args(&["--cap"])).unwrap_err();
        assert!(err.contains("--cap expects N"), "{err}");
    }

    #[test]
    fn duplicated_flags_keep_the_last_occurrence() {
        let spec = campaign_spec();
        let owned = args(&["--cap", "3", "--cap", "7"]);
        let flags = parse_flags(spec, &owned).unwrap();
        assert_eq!(flags.get("--cap"), Some("7"));
    }

    #[test]
    fn degenerate_numerics_are_rejected_uniformly_at_parse_time() {
        // Every zero/negative/NaN numeric fails with the one shared
        // message shape, instead of an assorted downstream error.
        for (flags, offender) in [
            (&["--cap", "0"][..], "--cap"),
            (&["--budget", "0"][..], "--budget"),
            (&["--baseline-reps", "0"][..], "--baseline-reps"),
            (&["--shard-timeout", "0"][..], "--shard-timeout"),
            (&["--shard-timeout", "-1"][..], "--shard-timeout"),
            (&["--shard-timeout", "NaN"][..], "--shard-timeout"),
            (&["--shard-timeout", "inf"][..], "--shard-timeout"),
        ] {
            let err = config_err(flags);
            assert!(
                err.contains(offender) && err.contains("expects a positive"),
                "{flags:?}: {err}"
            );
        }
        // Non-numeric garbage still reports the placeholder.
        let err = config_err(&["--cap", "many"]);
        assert!(err.contains("--cap expects N"), "{err}");
        // Zero remains valid where it is meaningful: `--progress 0` = off,
        // `--seed 0` is a seed like any other.
        let owned = args(&[
            "--impl",
            "linux-3.13",
            "--quick",
            "--progress",
            "0",
            "--seed",
            "0",
        ]);
        let spec = campaign_spec();
        let flags = parse_flags(spec, &owned).unwrap();
        campaign_config(spec, &flags, None).expect("zero progress/seed are valid");
    }

    #[test]
    fn topology_and_flows_rows_share_the_uniform_error_shape() {
        // Malformed composite values fail through the same
        // `parse_field`/`parse_positive_field` helpers as every other
        // numeric flag, so the message shape is uniform.
        for (flags, offender, fragment) in [
            (&["--topology", "star"][..], "--topology", "KIND:HOSTS"),
            (
                &["--topology", "ring:64", "--flows", "attacked=1"][..],
                "--topology",
                "star, tree, or multi-bottleneck",
            ),
            (
                &["--topology", "star:0", "--flows", "attacked=1"][..],
                "--topology",
                "expects a positive HOSTS count",
            ),
            (
                &["--topology", "star:x", "--flows", "attacked=1"][..],
                "--topology",
                "HOSTS count (got `x`)",
            ),
            (
                &["--topology", "star:64", "--flows", "attacked"][..],
                "--flows",
                "ROLE=N",
            ),
            (
                &["--topology", "star:64", "--flows", "mystery=4"][..],
                "--flows",
                "attacked, bulk, request-response, or syn-pressure",
            ),
            (
                &["--topology", "star:64", "--flows", "attacked=0"][..],
                "--flows",
                "expects a positive flow count",
            ),
        ] {
            let err = config_err(flags);
            assert!(
                err.contains(offender) && err.contains(fragment),
                "{flags:?}: {err}"
            );
        }
    }

    #[test]
    fn topology_and_flows_cross_requirements_surface_builder_errors() {
        // Builder-level validation (not flag parsing) catches the
        // half-specified combinations.
        let err = config_err(&["--topology", "star:64"]);
        assert!(err.contains("flow mix"), "{err}");
        let err = config_err(&["--flows", "attacked=4"]);
        assert!(err.contains("generated topology"), "{err}");
        let err = config_err(&["--topology", "star:64", "--flows", "bulk=4"]);
        assert!(err.contains("exactly one attacked group"), "{err}");
        // A complete multi-flow invocation builds cleanly.
        let owned = args(&[
            "--impl",
            "linux-3.13",
            "--quick",
            "--topology",
            "star:64",
            "--flows",
            "attacked=8,bulk=4,rr=4,syn=4",
        ]);
        let spec = campaign_spec();
        let flags = parse_flags(spec, &owned).unwrap();
        campaign_config(spec, &flags, None).expect("valid multi-flow invocation");
    }

    #[test]
    fn bottleneck_row_rejects_degenerates_through_shared_helpers() {
        for (raw, fragment) in [
            ("10/20", "MBIT/DELAY_MS/QUEUE_PKTS"),
            ("0/20/64", "expects a positive Mbit/s bandwidth"),
            ("inf/20/64", "expects a positive Mbit/s bandwidth"),
            ("10/-1/64", "non-negative delay"),
            ("10/20/0", "expects a positive queue packet count"),
        ] {
            let err = config_err(&["--bottleneck", raw]);
            assert!(
                err.contains("--bottleneck") && err.contains(fragment),
                "{raw}: {err}"
            );
        }
    }

    #[test]
    fn shard_flags_are_wired_and_validated() {
        let spec = campaign_spec();
        // Sharding cannot combine with *evaluation-side* fault injection…
        let err = config_err(&["--shards", "2", "--chaos", "panics"]);
        assert!(err.contains("fault injection"), "{err}");
        // …while wire chaos exists only for sharded runs.
        let err = config_err(&["--chaos", "wire-drop"]);
        assert!(err.contains("shards"), "{err}");
        // The progress deadline is meaningless without a pool.
        let err = config_err(&["--shard-timeout", "5"]);
        assert!(err.contains("require shards > 0"), "{err}");
        // Workers are only ever spawned, never listened for: there is no
        // address to bind or connect to, and such flags are refused.
        for flag in ["--shard-listen", "--insecure-bind"] {
            let err = parse_flags(spec, &args(&[flag, "1"])).unwrap_err();
            assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
        }
        let worker = COMMANDS.iter().find(|c| c.name == "shard-worker").unwrap();
        let err = parse_flags(worker, &args(&["--connect", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("unknown flag `--connect`"), "{err}");
        // --shards 0 is the explicit in-process default; a positive count
        // with wire chaos or an explicit shard timeout builds cleanly.
        for extra in [
            &["--shards", "0"][..],
            &["--shards", "4"][..],
            &["--shards", "2", "--chaos", "wire-drop"][..],
            &["--shards", "2", "--chaos", "controller-kill"][..],
            &["--shards", "2", "--shard-timeout", "5"][..],
        ] {
            let mut all = vec!["--impl", "linux-3.13", "--quick"];
            all.extend_from_slice(extra);
            let owned = args(&all);
            let flags = parse_flags(spec, &owned).unwrap();
            campaign_config(spec, &flags, None).expect("valid shard flags");
        }
    }
}

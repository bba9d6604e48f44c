//! Run manifest assembly: folds a finished [`CampaignResult`] and a
//! [`RecorderSnapshot`] into one structured JSON document per campaign
//! run — the `snake campaign --manifest FILE` output.
//!
//! Determinism contract: every section except `timing` and `shards` is
//! derived from the campaign's deterministic outputs (outcomes, memo
//! markers, simulator event counters), so two same-seed single-worker runs
//! produce byte-identical manifests once those sections are stripped. The
//! `timing` section is wall-clock by definition; `shards` (present only on
//! `--shards` runs) carries per-worker busy/idle time and dispatch counts,
//! which depend on scheduling.

use std::collections::BTreeMap;

use snake_json::{obj, Value};
use snake_observe::{RecorderSnapshot, RunManifest};
use snake_proxy::{InjectionAttack, StrategyKind};

use crate::result::{CampaignResult, Memo};

/// Builds the per-run manifest from the campaign's result, the observer's
/// merged snapshot, and the run's wall-clock duration in seconds.
///
/// The `memo` section's totals are computed from the same outcome markers
/// as [`CampaignResult::memo_hits`] / [`CampaignResult::short_circuits`],
/// so the manifest and the in-process counters cannot disagree.
pub fn build_run_manifest(
    result: &CampaignResult,
    snapshot: &RecorderSnapshot,
    wall_secs: f64,
) -> RunManifest {
    let mut manifest = RunManifest::new("snake campaign");
    manifest.set_section("run", run_section(result));
    manifest.set_section("memo", memo_section(result));
    manifest.set_section("exec", exec_section(snapshot));
    manifest.set_section("netsim", netsim_section(snapshot));
    manifest.set_section("robustness", robustness_section(result, snapshot));
    manifest.set_section("proxy", proxy_section(result));
    if snapshot.counter("shard.workers") > 0 {
        manifest.set_section("shards", shards_section(snapshot));
    }
    manifest.set_section("timing", timing_section(snapshot, wall_secs));
    manifest
}

/// Per-shard execution and crash-recovery tallies, present only when the
/// campaign ran with `--shards`. Like `timing`, this section is
/// nondeterministic: busy/idle time, the dispatched/re-dispatched range
/// split and progress-deadline kills all depend on process scheduling,
/// so manifest-comparing consumers strip it alongside `timing`. `workers`
/// counts the shards that completed the handshake — or, when the run had
/// nothing to dispatch and so never launched its pool (a resume over a
/// complete journal), the configured count beside all-zero tallies.
fn shards_section(snapshot: &RecorderSnapshot) -> Value {
    let histogram = |name: &str| {
        snapshot
            .histograms
            .get(name)
            .map_or(Value::Null, |h| h.to_json())
    };
    obj([
        ("workers", Value::U64(snapshot.counter("shard.workers"))),
        (
            "ranges_dispatched",
            Value::U64(snapshot.counter("shard.ranges_dispatched")),
        ),
        (
            "ranges_redispatched",
            Value::U64(snapshot.counter("shard.ranges_redispatched")),
        ),
        (
            "outcome_batches",
            Value::U64(snapshot.counter("shard.outcome_batches")),
        ),
        (
            "deadlines_missed",
            Value::U64(snapshot.counter("shard.deadline.missed")),
        ),
        ("busy_nanos", histogram("shard.busy_nanos")),
        ("idle_nanos", histogram("shard.idle_nanos")),
    ])
}

/// Campaign identity and Table-I-style outcome tallies.
fn run_section(result: &CampaignResult) -> Value {
    obj([
        ("protocol", Value::Str(result.protocol.clone())),
        ("implementation", Value::Str(result.implementation.clone())),
        (
            "strategies_tried",
            Value::U64(result.strategies_tried() as u64),
        ),
        (
            "attack_strategies_found",
            Value::U64(result.attack_strategies_found() as u64),
        ),
        (
            "true_attack_strategies",
            Value::U64(result.true_attack_strategies() as u64),
        ),
        ("true_attacks", Value::U64(result.true_attacks() as u64)),
        ("errored", Value::U64(result.errored() as u64)),
        ("truncated", Value::U64(result.truncated() as u64)),
        ("resumed", Value::U64(result.resumed as u64)),
        (
            "journal_lines_skipped",
            Value::U64(result.journal_lines_skipped as u64),
        ),
    ])
}

/// Memo-layer hit breakdown, counted from the outcome provenance markers.
fn memo_section(result: &CampaignResult) -> Value {
    let count = |marker: Memo| {
        Value::U64(
            result
                .outcomes
                .iter()
                .filter(|o| o.memo == Some(marker))
                .count() as u64,
        )
    };
    obj([
        (
            "breakdown",
            obj([("inert", count(Memo::Inert)), ("class", count(Memo::Class))]),
        ),
        ("memo_hits", Value::U64(result.memo_hits as u64)),
        ("short_circuits", Value::U64(result.short_circuits as u64)),
    ])
}

/// Executor run-dispatch tallies: how each run was actually executed,
/// across the main, re-test and control executors.
fn exec_section(snapshot: &RecorderSnapshot) -> Value {
    obj([
        (
            "runs_from_scratch",
            Value::U64(snapshot.counter("exec.runs.from_scratch")),
        ),
        (
            "runs_forked",
            Value::U64(snapshot.counter("exec.runs.forked")),
        ),
        (
            "runs_elided",
            Value::U64(snapshot.counter("exec.runs.elided")),
        ),
    ])
}

/// Simulator event-loop totals summed over every run the campaign made.
fn netsim_section(snapshot: &RecorderSnapshot) -> Value {
    let c = |name: &str| Value::U64(snapshot.counter(name));
    obj([
        ("events", c("netsim.events")),
        ("timers_cancelled", c("netsim.timers_cancelled")),
        ("timers_purged", c("netsim.timers_purged")),
        ("queue_depth_hwm", c("netsim.queue.depth_hwm")),
        ("arena_alloc", c("netsim.arena.alloc")),
        ("arena_reuse", c("netsim.arena.reuse")),
        ("snapshot_forks", c("netsim.snapshot_forks")),
        ("snapshot_clone_bytes", c("netsim.snapshot_clone_bytes")),
        ("forks", c("netsim.forks")),
        ("fork_clone_bytes", c("netsim.fork_clone_bytes")),
    ])
}

/// Robustness report: impairment draws on the emulated links, the
/// detection envelope the verdicts were judged against, the escalation
/// tally and the chaos journal tallies. Everything here is deterministic:
/// impairment draws come from seeded per-link RNG lanes, the envelope from
/// seed-jittered runs, and chaos faults are scheduled by strategy id and
/// write ordinal.
fn robustness_section(result: &CampaignResult, snapshot: &RecorderSnapshot) -> Value {
    let c = |name: &str| Value::U64(snapshot.counter(name));
    let envelope = &result.envelope;
    obj([
        (
            "impairments",
            obj([
                ("lost", c("netsim.impair.lost")),
                ("duplicated", c("netsim.impair.duplicated")),
                ("corrupted", c("netsim.impair.corrupted")),
                ("reordered", c("netsim.impair.reordered")),
                ("flap_dropped", c("netsim.impair.flap_dropped")),
            ]),
        ),
        (
            "envelope",
            obj([
                ("members", Value::U64(envelope.members as u64)),
                ("target_lo", Value::F64(envelope.target_lo.max(0.0))),
                ("target_hi", Value::F64(envelope.target_hi)),
                ("competing_lo", Value::F64(envelope.competing_lo.max(0.0))),
                ("leaked_max", Value::U64(envelope.leaked_max as u64)),
                (
                    "target_width_fraction",
                    Value::F64(envelope.target_width_fraction()),
                ),
            ]),
        ),
        ("escalated", Value::U64(result.escalated as u64)),
        (
            "journal",
            obj([
                ("injected_faults", c("campaign.journal_faults")),
                ("write_retries", c("campaign.journal_retries")),
            ]),
        ),
    ])
}

/// The `(state, packet type)` pair a strategy constrains, with `"*"` for
/// dimensions the strategy kind leaves unconstrained.
fn strategy_dims(kind: &StrategyKind) -> (String, String) {
    let injected = |attack: &InjectionAttack| match attack {
        InjectionAttack::Inject { packet_type, .. }
        | InjectionAttack::HitSeqWindow { packet_type, .. } => packet_type.clone(),
    };
    match kind {
        StrategyKind::OnPacket {
            state, packet_type, ..
        } => (state.clone(), packet_type.clone()),
        StrategyKind::OnState { state, attack, .. } => (state.clone(), injected(attack)),
        StrategyKind::OnNthPacket { .. } => ("*".to_owned(), "*".to_owned()),
        StrategyKind::AtTime { attack, .. } => ("*".to_owned(), injected(attack)),
    }
}

/// Proxy rule-hit histogram per `(state, packet type)`: for every outcome
/// whose run had wire-visible rule activity, the hits are attributed to
/// the strategy's constrained dimensions. Sorted by key (a `BTreeMap`),
/// so the section is deterministic regardless of outcome order.
fn proxy_section(result: &CampaignResult) -> Value {
    let mut per_dims: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
    for outcome in &result.outcomes {
        let hits: u64 = outcome
            .metrics
            .proxy
            .rule_hits
            .iter()
            .map(|(_, count)| *count)
            .sum();
        if hits == 0 {
            continue;
        }
        let entry = per_dims
            .entry(strategy_dims(&outcome.strategy.kind))
            .or_insert((0, 0));
        entry.0 += 1;
        entry.1 += hits;
    }
    let rows: Vec<Value> = per_dims
        .into_iter()
        .map(|((state, packet_type), (strategies, hits))| {
            obj([
                ("state", Value::Str(state)),
                ("packet_type", Value::Str(packet_type)),
                ("strategies", Value::U64(strategies)),
                ("rule_hits", Value::U64(hits)),
            ])
        })
        .collect();
    obj([("rule_hits", Value::Arr(rows))])
}

/// Wall-clock timing: total duration, per-phase span totals with the wall
/// offsets they cover, the journal-load line counts, and the per-worker
/// busy/idle/claimed histograms. Everything in here is nondeterministic by
/// nature; manifest consumers comparing runs must strip this section (the
/// determinism tests do).
///
/// Phases overlap: start-up runs the main baseline while the journal
/// loads, and the first round with work builds the two snapshot plans side
/// by side, so `wall_nanos` summed over a name is CPU-like and the
/// `first_start_nanos..last_end_nanos` windows (offsets from the
/// recorder's creation) are what shows which phases ran beside which.
fn timing_section(snapshot: &RecorderSnapshot, wall_secs: f64) -> Value {
    // name -> (count, summed wall, first start, last end)
    let mut totals: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
    for span in &snapshot.spans {
        let end = span.wall_start_nanos + span.wall_nanos;
        let entry = totals
            .entry(span.name)
            .or_insert((0, 0, span.wall_start_nanos, end));
        entry.0 += 1;
        entry.1 += span.wall_nanos;
        entry.2 = entry.2.min(span.wall_start_nanos);
        entry.3 = entry.3.max(end);
    }
    let phases: Vec<(String, Value)> = totals
        .into_iter()
        .map(|(name, (count, wall_nanos, first_start, last_end))| {
            (
                name.to_owned(),
                obj([
                    ("count", Value::U64(count)),
                    ("wall_nanos", Value::U64(wall_nanos)),
                    ("first_start_nanos", Value::U64(first_start)),
                    ("last_end_nanos", Value::U64(last_end)),
                ]),
            )
        })
        .collect();
    let workers: Vec<(String, Value)> = snapshot
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("worker."))
        .map(|(name, histogram)| (name.to_string(), histogram.to_json()))
        .collect();
    obj([
        ("wall_clock_secs", Value::F64(wall_secs)),
        ("phases", Value::Obj(phases)),
        (
            "journal",
            obj([
                (
                    "lines_loaded",
                    Value::U64(snapshot.counter("journal.lines_loaded")),
                ),
                (
                    "lines_skipped",
                    Value::U64(snapshot.counter("journal.lines_skipped")),
                ),
            ]),
        ),
        ("workers", Value::Obj(workers)),
    ])
}

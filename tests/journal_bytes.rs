//! Journal bytes pinned: the FNV-1a 64 of whole journal files written by
//! capped campaigns.
//!
//! The journal is the one artifact a later build must read back, so its
//! bytes — key order, label spelling, the order of each report's
//! `observed` arrays, the checksum suffixes — are part of the format. Each
//! constant was recorded from a known-good build; a change to how
//! observations or reports are held in memory must leave every one of
//! them where it is. Fork, memoization and re-tests are on (the default
//! campaign), so the memo markers and elided outcomes are covered too.
//! Only a sharded campaign journals per-outcome worker counters, so one
//! pin runs on two worker processes.

use std::path::PathBuf;

use snake_core::{
    Campaign, CampaignConfig, FlowGroup, FlowRole, ProtocolKind, ScenarioSpec, TopologyKind,
};
use snake_dccp::DccpProfile;
use snake_tcp::Profile;

/// Strategies per pinned campaign.
const CAP: usize = 60;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn temp_journal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "snake-journal-bytes-{}-{name}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&p).ok();
    p
}

/// Runs a capped campaign with `shards` worker processes (0 = in-process)
/// and compares its journal's digest to `expected`.
fn assert_journal(name: &str, spec: ScenarioSpec, shards: usize, expected: u64) {
    let path = temp_journal(name);
    let mut builder = CampaignConfig::builder(spec)
        .cap(CAP)
        .parallelism(2)
        .journal(path.clone());
    if shards > 0 {
        builder = builder
            .shards(shards)
            .shard_worker_bin(env!("CARGO_BIN_EXE_snake"));
    }
    let config = builder.build().expect("valid config");
    let result = Campaign::run(config).expect("valid baseline");
    assert_eq!(result.strategies_tried(), CAP);
    let bytes = std::fs::read(&path).expect("journal written");
    std::fs::remove_file(&path).ok();
    let digest = fnv64(&bytes);
    assert_eq!(
        digest,
        expected,
        "{name}: journal digest {digest:016x} ({} bytes), pinned {expected:016x}",
        bytes.len()
    );
}

#[test]
fn tcp_journal_bytes_are_pinned() {
    let spec = ScenarioSpec::builder(ProtocolKind::Tcp(Profile::linux_3_13()))
        .quick()
        .seed(7)
        .build()
        .expect("valid scenario");
    assert_journal("tcp", spec, 0, 0x7c79_9fe7_0fba_3490);
}

/// The same TCP campaign on two worker processes: its outcome lines carry
/// the counter deltas each worker shipped with them.
#[test]
fn sharded_tcp_journal_bytes_are_pinned() {
    let spec = ScenarioSpec::builder(ProtocolKind::Tcp(Profile::linux_3_13()))
        .quick()
        .seed(7)
        .build()
        .expect("valid scenario");
    assert_journal("tcp-shards2", spec, 2, 0xa700_1d2b_bc9a_ef75);
}

#[test]
fn dccp_journal_bytes_are_pinned() {
    let spec = ScenarioSpec::builder(ProtocolKind::Dccp(DccpProfile::linux_3_13()))
        .quick()
        .seed(7)
        .build()
        .expect("valid scenario");
    assert_journal("dccp", spec, 0, 0x81ff_e926_305c_88f3);
}

/// The benchmark's `star:64` flow mix, whose reports carry the most
/// observations per outcome.
#[test]
fn star64_journal_bytes_are_pinned() {
    let flows = [
        (FlowRole::Attacked, 16),
        (FlowRole::Bulk, 8),
        (FlowRole::RequestResponse, 8),
        (FlowRole::SynPressure, 8),
    ]
    .into_iter()
    .map(|(role, count)| FlowGroup { role, count })
    .collect();
    let spec = ScenarioSpec::builder(ProtocolKind::Tcp(Profile::linux_3_13()))
        .data_secs(2)
        .grace_secs(6)
        .topology(TopologyKind::Star, 64)
        .flows(flows)
        .seed(7)
        .build()
        .expect("valid scenario");
    assert_journal("star64", spec, 0, 0x1760_da69_dbf1_ee21);
}

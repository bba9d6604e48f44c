//! Golden runs: fixed outcome digests recorded from known-good builds.
//!
//! The simulator's own checks (the queue model test, the link model test,
//! the debug-build dispatch-order assertion and the chaos digest in
//! `snake-netsim`) each look at one seam. These checks look at whole
//! campaigns and share no code with the simulator: each one pins a number
//! a correct simulator reproduces exactly, so any change to event order,
//! impairment draws or packet contents moves it.
//!
//! Each digest is the FNV-1a 64 of `CampaignResult::export_outcomes_tsv()`
//! for a cap-40 campaign with snapshot fork, memoization and re-tests off,
//! so every strategy is one full from-scratch simulation. A change that
//! alters simulated behaviour on purpose must update these constants and
//! say why.

use snake_core::{
    Campaign, CampaignConfig, CampaignResult, Executor, FlowGroup, FlowRole, ProtocolKind,
    ScenarioSpec, TopologyKind,
};
use snake_dccp::DccpProfile;
use snake_netsim::Impairment;
use snake_tcp::Profile;

/// The scenario seed every golden run uses.
const SEED: u64 = 7;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A cap-40 from-scratch campaign (fork, memo and retest off).
fn scratch_campaign(spec: ScenarioSpec) -> CampaignResult {
    let config = CampaignConfig::builder(spec)
        .cap(40)
        .snapshot_fork(false)
        .memoize(false)
        .retest(false)
        .parallelism(2)
        .build()
        .expect("valid config");
    Campaign::run(config).expect("valid baseline")
}

fn assert_digest(label: &str, spec: ScenarioSpec, expected: u64) {
    let result = scratch_campaign(spec);
    let digest = fnv64(result.export_outcomes_tsv().as_bytes());
    assert_eq!(
        digest, expected,
        "{label}: outcome digest {digest:016x}, golden {expected:016x}"
    );
}

fn linux_3_13() -> ScenarioSpec {
    ScenarioSpec::builder(ProtocolKind::Tcp(Profile::linux_3_13()))
        .quick()
        .seed(SEED)
        .build()
        .expect("valid scenario")
}

fn chaos() -> Impairment {
    Impairment::preset("chaos").expect("built-in preset")
}

#[test]
fn golden_tcp_linux_3_13() {
    assert_digest("tcp linux-3.13", linux_3_13(), 0x02e3_a6bf_0552_522c);
}

#[test]
fn golden_dccp() {
    let spec = ScenarioSpec::builder(ProtocolKind::Dccp(DccpProfile::linux_3_13()))
        .quick()
        .seed(SEED)
        .build()
        .expect("valid scenario");
    assert_digest("dccp", spec, 0xcaf6_02fa_03c3_64de);
}

/// The benchmark's `star:64` flow mix: 16 attacked, 8 bulk, 8
/// request-response and 8 SYN-pressure flows on a 64-host star.
#[test]
fn golden_star64_flow_mix() {
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
        .seed(SEED)
        .build()
        .expect("valid scenario");
    assert_digest("star:64", spec, 0x69c0_6ebb_462e_7bdf);
}

/// Loss, duplication, corruption, reorder jitter and link flaps at once:
/// every drop and duplicate path of the channel runs.
#[test]
fn golden_tcp_linux_3_13_chaos() {
    assert_digest(
        "tcp linux-3.13 chaos",
        linux_3_13().with_impairment(chaos()),
        0xf464_3795_cb5b_a28b,
    );
}

/// A baseline cut short by the event budget: where it stops and whether
/// it reports the truncation depend on the scheduler's pending-event
/// horizon, not only on the events it dispatched.
#[test]
fn golden_budget_truncated_run() {
    let spec = linux_3_13()
        .with_impairment(chaos())
        .with_event_budget(25_000);
    let metrics = Executor::run(&spec, None);
    assert_eq!(
        (metrics.sim_events, metrics.truncated, metrics.target_bytes),
        (25_000, true, 744_723),
        "budget-truncated run"
    );
}

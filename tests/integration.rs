//! Cross-crate integration tests: the full SNAKE pipeline — scenario
//! execution, strategy generation, campaign bookkeeping, and report
//! rendering — exercised end to end on reduced configurations.

use snake_core::{
    detect, generate_strategies, render_table1, render_table2, Campaign, CampaignConfig, Executor,
    GenerationParams, ProtocolKind, ScenarioSpec, DEFAULT_THRESHOLD,
};
use snake_dccp::DccpProfile;
use snake_proxy::StrategyKind;
use snake_tcp::Profile;

fn quick_tcp() -> ScenarioSpec {
    ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()))
}

#[test]
fn baseline_runs_are_clean_for_every_implementation() {
    let mut protocols = vec![ProtocolKind::Dccp(DccpProfile::linux_3_13())];
    protocols.extend(Profile::all().into_iter().map(ProtocolKind::Tcp));
    for protocol in protocols {
        let name = protocol.implementation_name().to_owned();
        let spec = ScenarioSpec::quick(protocol);
        let m = Executor::run(&spec, None);
        assert!(
            m.target_bytes > 500_000,
            "{name}: target starved: {}",
            m.target_bytes
        );
        assert!(m.competing_bytes > 500_000, "{name}: competing starved");
        assert_eq!(m.leaked_sockets, 0, "{name}: baseline leak");
        let v = detect(&m, &m.clone(), DEFAULT_THRESHOLD);
        assert!(!v.flagged(), "{name}: baseline flags itself");
    }
}

#[test]
fn strategy_generation_covers_both_protocols() {
    // Generate from a real baseline report for each protocol and sanity
    // check composition.
    for protocol in [
        ProtocolKind::Tcp(Profile::linux_3_13()),
        ProtocolKind::Dccp(DccpProfile::linux_3_13()),
    ] {
        let spec = ScenarioSpec::quick(protocol.clone());
        let baseline = Executor::run(&spec, None);
        let mut next_id = 0;
        let mut seen = std::collections::BTreeSet::new();
        let strategies = generate_strategies(
            &protocol,
            &[&baseline.proxy],
            &GenerationParams::default(),
            &mut next_id,
            &mut seen,
        );
        assert!(
            strategies.len() > 300,
            "{}: only {} strategies",
            protocol.protocol_name(),
            strategies.len()
        );
        let on_packet = strategies
            .iter()
            .filter(|s| matches!(s.kind, StrategyKind::OnPacket { .. }))
            .count();
        let on_state = strategies
            .iter()
            .filter(|s| matches!(s.kind, StrategyKind::OnState { .. }))
            .count();
        assert!(on_packet > 0 && on_state > 0, "both families present");
        // Ids unique.
        let mut ids: Vec<u64> = strategies.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), strategies.len());
    }
}

#[test]
fn campaign_counts_are_consistent() {
    let config = CampaignConfig::builder(quick_tcp())
        .cap(40)
        .feedback_rounds(1)
        .retest(true)
        .build()
        .expect("valid config");
    let result = Campaign::run(config).expect("campaign preconditions hold");
    assert_eq!(result.strategies_tried(), 40);
    let found = result.attack_strategies_found();
    let sum =
        result.on_path_count() + result.false_positive_count() + result.true_attack_strategies();
    assert_eq!(
        found, sum,
        "Table I columns must partition the found strategies"
    );
    assert!(result.true_attacks() <= result.true_attack_strategies().max(1));
}

#[test]
fn tables_render_from_campaign_results() {
    let config = CampaignConfig::builder(quick_tcp())
        .cap(15)
        .feedback_rounds(1)
        .retest(false)
        .build()
        .expect("valid config");
    let result = Campaign::run(config).expect("campaign preconditions hold");
    let t1 = render_table1(std::slice::from_ref(&result));
    assert!(t1.contains("Linux 3.13"));
    assert!(t1.contains("Strategies Tried"));
    let t2 = render_table2(std::slice::from_ref(&result));
    assert!(t2.contains("Attack"));
}

#[test]
fn attack_run_feedback_covers_baseline_space() {
    let config = CampaignConfig::builder(quick_tcp())
        .cap(60)
        .feedback_rounds(1)
        .retest(false)
        .build()
        .expect("valid config");
    let one = Campaign::run(config).expect("campaign preconditions hold");
    assert_eq!(one.strategies_tried(), 60);
    // A fresh generation pass over the executed outcomes' observations
    // finds at least the baseline-visible space again.
    let mut seen = std::collections::BTreeSet::new();
    let mut next_id = 0;
    let reports: Vec<&snake_proxy::ProxyReport> = one
        .outcomes
        .iter()
        .map(|o| o.metrics.proxy.as_ref())
        .collect();
    let regen = generate_strategies(
        &ProtocolKind::Tcp(Profile::linux_3_13()),
        &reports,
        &GenerationParams::default(),
        &mut next_id,
        &mut seen,
    );
    assert!(
        regen.len() >= 60,
        "attack-run feedback covers at least the baseline space: {}",
        regen.len()
    );
}

#[test]
fn search_space_comparison_shape() {
    use snake_core::search::SearchSpaceParams;
    let p = SearchSpaceParams::paper();
    assert!(p.state_based_cost().strategies < p.send_packet_cost().strategies);
    assert!(p.send_packet_cost().strategies < p.time_interval_cost().strategies);
    let rendered = p.render();
    assert!(rendered.contains("SNAKE"));
}

#[test]
fn dccp_campaign_smoke() {
    let spec = ScenarioSpec::quick(ProtocolKind::Dccp(DccpProfile::linux_3_13()));
    let config = CampaignConfig::builder(spec)
        .cap(25)
        .feedback_rounds(1)
        .retest(false)
        .build()
        .expect("valid config");
    let result = Campaign::run(config).expect("campaign preconditions hold");
    assert_eq!(result.protocol, "DCCP");
    assert_eq!(result.strategies_tried(), 25);
}

/// A reader that stopped reading is not a crash: `snake list` into a pipe
/// whose read end is already closed exits quietly and successfully, with
/// no panic message and no 101.
#[test]
fn closed_stdout_ends_the_binary_quietly() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_snake"))
        .arg("list")
        .stdout(writer)
        .output()
        .expect("snake runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{:?}: {stderr}", output.status);
    assert!(stderr.is_empty(), "nothing on stderr, got: {stderr}");
}

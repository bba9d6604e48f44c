//! Unit tests for the scenario module: the builder and digest, the
//! from-scratch executor, and the snapshot plan.

use std::sync::Arc;

use snake_dccp::DccpProfile;
use snake_netsim::{DumbbellSpec, Impairment, LinkSpec, TopologyKind};
use snake_observe as observe;
use snake_proxy::{BasicAttack, Strategy, StrategyKind};
use snake_tcp::Profile;

use super::plan::build_plan;
use super::*;

#[test]
fn tcp_baseline_is_clean_and_fair() {
    let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
    let m = Executor::run(&spec, None);
    assert!(m.target_bytes > 1_000_000, "{m:?}");
    assert!(m.competing_bytes > 1_000_000);
    let ratio =
        m.target_bytes.max(m.competing_bytes) as f64 / m.target_bytes.min(m.competing_bytes) as f64;
    assert!(ratio < 2.0, "baseline unfair: {ratio}");
    assert_eq!(m.leaked_sockets, 0, "{m:?}");
    assert!(m.proxy.packets_seen > 500);
}

#[test]
fn dccp_baseline_is_clean_and_fair() {
    let spec = ScenarioSpec::quick(ProtocolKind::Dccp(DccpProfile::linux_3_13()));
    let m = Executor::run(&spec, None);
    assert!(m.target_bytes > 1_000_000, "{m:?}");
    let ratio =
        m.target_bytes.max(m.competing_bytes) as f64 / m.target_bytes.min(m.competing_bytes) as f64;
    assert!(ratio < 2.0, "baseline unfair: {ratio}");
    assert_eq!(m.leaked_sockets, 0, "{m:?}");
}

#[test]
fn identical_seeds_identical_metrics() {
    let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_0_0()));
    let a = Executor::run(&spec, None);
    let b = Executor::run(&spec, None);
    assert_eq!(a, b, "executor must be deterministic");
}

#[test]
fn budgeted_run_truncates_deterministically() {
    let spec =
        ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13())).with_event_budget(20_000);
    let a = Executor::run(&spec, None);
    assert!(a.truncated, "20k events cannot finish a quick scenario");
    assert_eq!(
        a,
        Executor::run(&spec, None),
        "truncation must be deterministic"
    );
    // A generous budget does not disturb the run at all.
    let free = ScenarioSpec {
        event_budget: None,
        ..spec.clone()
    };
    let capped = ScenarioSpec {
        event_budget: Some(u64::MAX),
        ..spec
    };
    assert_eq!(Executor::run(&free, None), Executor::run(&capped, None));
}

#[test]
fn impaired_scenario_is_deterministic_and_still_moves_data() {
    let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()))
        .with_impairment(Impairment::preset("lossy").expect("built-in preset"));
    let a = Executor::run(&spec, None);
    let b = Executor::run(&spec, None);
    assert_eq!(a, b, "impairment draws must be seed-deterministic");
    assert!(
        a.target_bytes > 500_000,
        "a lossy bottleneck degrades but must not kill the transfer: {a:?}"
    );
}

#[test]
fn different_seed_changes_details_not_shape() {
    let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
    let a = Executor::run(&spec, None);
    let spec2 = ScenarioSpec { seed: 99, ..spec };
    let b = Executor::run(&spec2, None);
    assert!(b.target_bytes > 1_000_000);
    // Shape holds: both clean, same order of magnitude.
    assert_eq!(b.leaked_sockets, 0);
    let ratio = a.target_bytes as f64 / b.target_bytes as f64;
    assert!(
        ratio > 0.5 && ratio < 2.0,
        "{} vs {}",
        a.target_bytes,
        b.target_bytes
    );
}

#[test]
fn presets_are_thin_wrappers_over_the_builder() {
    let p = || ProtocolKind::Tcp(Profile::linux_3_13());
    assert_eq!(
        ScenarioSpec::evaluation(p()),
        ScenarioSpec::builder(p()).build().unwrap()
    );
    assert_eq!(
        ScenarioSpec::quick(p()),
        ScenarioSpec::builder(p()).quick().build().unwrap()
    );
}

#[test]
fn builder_rejects_degenerate_settings() {
    let b = || ScenarioSpec::builder(ProtocolKind::Tcp(Profile::linux_3_13())).quick();
    let attacked = |count| FlowGroup {
        role: FlowRole::Attacked,
        count,
    };
    let detail = |r: Result<ScenarioSpec, ScenarioError>| match r {
        Err(ScenarioError::InvalidConfig { detail }) => detail,
        other => panic!("expected InvalidConfig, got {other:?}"),
    };
    assert!(detail(b().data_secs(0).build()).contains("data phase"));
    assert!(detail(b().target_connections(0).build()).contains("target connection"));
    let good = *ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13())).bottleneck();
    let dead = LinkSpec {
        bandwidth_bps: 0,
        ..good
    };
    assert!(detail(b().bottleneck(dead).build()).contains("bandwidth"));
    let clogged = LinkSpec {
        queue_packets: 0,
        ..good
    };
    assert!(detail(b().access(clogged).build()).contains("queue"));
    // Topology/flow cross-requirements.
    assert!(detail(b().flows(vec![attacked(1)]).build()).contains("generated topology"));
    assert!(detail(b().topology(TopologyKind::Star, 64).build()).contains("flow mix"));
    assert!(
        detail(b().topology(TopologyKind::Star, 64).flows(vec![]).build())
            .contains("at least one group")
    );
    assert!(detail(
        b().topology(TopologyKind::Star, 64)
            .flows(vec![attacked(0)])
            .build()
    )
    .contains("must be positive"));
    assert!(detail(
        b().topology(TopologyKind::Star, 64)
            .flows(vec![FlowGroup {
                role: FlowRole::Bulk,
                count: 1
            }])
            .build()
    )
    .contains("exactly one attacked"));
    assert!(detail(
        b().topology(TopologyKind::Star, 64)
            .flows(vec![attacked(1), attacked(2)])
            .build()
    )
    .contains("more than one attacked"));
    // The realizability dry-run surfaces the generator's own errors.
    assert!(detail(
        b().topology(TopologyKind::Star, 2)
            .flows(vec![attacked(1)])
            .build()
    )
    .contains("at least 4 hosts"));
    // Display carries the InvalidConfig shape.
    let err = b().data_secs(0).build().unwrap_err();
    assert!(err.to_string().starts_with("invalid scenario:"), "{err}");
}

#[test]
fn classic_dumbbell_is_bit_identical_through_the_builder() {
    // The pre-redesign representation, constructed literally — the
    // builder must reproduce it field for field, and the executor must
    // produce bit-identical metrics from either.
    let legacy = ScenarioSpec {
        protocol: ProtocolKind::Tcp(Profile::linux_3_0_0()),
        topology: TopologySpec::Dumbbell(DumbbellSpec::evaluation_default()),
        flows: None,
        data_secs: 6,
        grace_secs: 35,
        seed: 7,
        target_connections: 1,
        event_budget: None,
    };
    let built = ScenarioSpec::builder(ProtocolKind::Tcp(Profile::linux_3_0_0()))
        .quick()
        .build()
        .unwrap();
    assert_eq!(legacy, built);
    assert_eq!(Executor::run(&legacy, None), Executor::run(&built, None));
}

#[test]
fn multiflow_run_is_deterministic_and_reports_per_flow_bytes() {
    let spec = ScenarioSpec::builder(ProtocolKind::Tcp(Profile::linux_3_13()))
        .data_secs(4)
        .grace_secs(10)
        .topology(TopologyKind::Star, 12)
        .flows(vec![
            FlowGroup {
                role: FlowRole::Attacked,
                count: 2,
            },
            FlowGroup {
                role: FlowRole::Bulk,
                count: 2,
            },
            FlowGroup {
                role: FlowRole::RequestResponse,
                count: 2,
            },
            FlowGroup {
                role: FlowRole::SynPressure,
                count: 2,
            },
        ])
        .build()
        .unwrap();
    assert_eq!(
        spec.target_connections(),
        2,
        "attacked group sets the count"
    );
    let a = Executor::run(&spec, None);
    let b = Executor::run(&spec, None);
    assert_eq!(a, b, "multi-flow executor must be deterministic");
    // 12 hosts split 1 server / 11 clients; flow_bytes is per client.
    assert_eq!(a.flow_bytes.len(), 11, "{:?}", a.flow_bytes);
    assert!(a.flow_bytes[0] > 0, "attacked client moved no data");
    let total: u64 = a.flow_bytes.iter().sum();
    assert!(total > a.flow_bytes[0], "background flows moved no data");
    assert!(a.jain_index() > 0.0 && a.jain_index() <= 1.0);
    assert_eq!(a.leaked_total, 0, "clean run must not leak");
}

#[test]
fn reseeding_preserves_the_generated_layout() {
    let build = |seed| {
        ScenarioSpec::builder(ProtocolKind::Tcp(Profile::linux_3_13()))
            .quick()
            .seed(seed)
            .topology(TopologyKind::Tree, 32)
            .flows(vec![FlowGroup {
                role: FlowRole::Attacked,
                count: 1,
            }])
            .build()
            .unwrap()
    };
    let spec = build(5);
    let reseeded = spec.clone().with_seed(99);
    // The layout seed was bound at build time: reseeding varies only
    // traffic, so ensemble members all measure the same network.
    assert_eq!(spec.topology(), reseeded.topology());
    assert_eq!(reseeded.seed(), 99);
    // A different build-time seed genuinely moves the hosts.
    assert_ne!(spec.topology(), build(6).topology());
}

#[test]
fn digest_moves_with_every_verdict_relevant_knob() {
    let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
    let base = scenario_digest(&spec, 0.5, 1);
    assert_eq!(base, scenario_digest(&spec.clone(), 0.5, 1), "stable");
    assert_ne!(base, scenario_digest(&spec, 0.4, 1), "threshold");
    assert_ne!(base, scenario_digest(&spec, 0.5, 3), "baseline reps");
    let mut other = spec.clone();
    other.seed += 1;
    assert_ne!(base, scenario_digest(&other, 0.5, 1), "seed");
    let impaired = spec
        .clone()
        .with_impairment(Impairment::preset("lossy").unwrap());
    assert_ne!(base, scenario_digest(&impaired, 0.5, 1), "impairment");
    let mut shorter = spec;
    shorter.data_secs -= 1;
    assert_ne!(base, scenario_digest(&shorter, 0.5, 1), "workload");
}

fn recorded_executor(spec: &ScenarioSpec) -> (PlannedExecutor, Arc<observe::Recorder>) {
    let recorder = Arc::new(observe::Recorder::new());
    let options = ExecutorOptions {
        observer: recorder.clone(),
        ..ExecutorOptions::default()
    };
    (PlannedExecutor::new(spec, options), recorder)
}

fn span_count(recorder: &observe::Recorder, name: &str) -> u64 {
    recorder
        .snapshot()
        .spans
        .iter()
        .filter(|s| s.name == name)
        .count() as u64
}

#[test]
fn racing_first_forked_runs_share_one_plan_build() {
    let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
    let (exec, recorder) = recorded_executor(&spec);
    assert_eq!(
        span_count(&recorder, "phase.snapshotting"),
        0,
        "built lazily"
    );
    let strategy = Strategy {
        id: 0,
        kind: StrategyKind::OnPacket {
            endpoint: snake_proxy::Endpoint::Client,
            state: "ESTABLISHED".into(),
            packet_type: "ACK".into(),
            attack: BasicAttack::Drop { percent: 100 },
        },
    };
    let barrier = std::sync::Barrier::new(4);
    let runs: Vec<(TestMetrics, RunInfo)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    exec.run_with_info(Some(strategy.clone()))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (metrics, info) in &runs {
        assert!(info.forked, "{info:?}");
        assert_eq!(metrics, &runs[0].0);
    }
    assert_eq!(span_count(&recorder, "phase.snapshotting"), 1);
    assert!(exec.snapshot_count() > 0);
    assert_eq!(runs[0].0, Executor::run(&spec, Some(strategy)));
}

#[test]
fn a_baseline_the_replay_cannot_match_trips_the_guard_and_counts_it() {
    let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
    let (exec, recorder) = recorded_executor(&spec);
    let guard = || recorder.snapshot().counter("exec.plan.guard_tripped");
    let obs = recorder.as_ref();
    assert!(build_plan(&spec, &exec.baseline, &exec.timeline, obs).is_some());
    assert_eq!(guard(), 0);
    let mut off_by_one = exec.baseline.clone();
    off_by_one.target_bytes += 1;
    assert!(build_plan(&spec, &off_by_one, &exec.timeline, obs).is_none());
    assert_eq!(guard(), 1);
}

//! Rediscovery of every attack in the paper's Table II: each test replays
//! the strategy SNAKE's search generates for the attack and asserts both
//! the detection verdict and the profile specificity (vulnerable
//! implementations flag, fixed ones do not).

use snake_core::{detect, Executor, KnownAttack, ProtocolKind, ScenarioSpec, DEFAULT_THRESHOLD};
use snake_dccp::DccpProfile;
use snake_proxy::Strategy;
use snake_tcp::Profile;

/// The strategy `snake replay --attack` runs for `attack`.
fn strategy(attack: KnownAttack) -> Strategy {
    attack.witness().expect("named attacks have a witness").1
}

fn run_tcp(profile: Profile, strategy: Strategy) -> (snake_core::Verdict, snake_core::TestMetrics) {
    let spec = ScenarioSpec::evaluation(ProtocolKind::Tcp(profile));
    let baseline = Executor::run(&spec, None);
    let attacked = Executor::run(&spec, Some(strategy));
    (detect(&baseline, &attacked, DEFAULT_THRESHOLD), attacked)
}

fn run_dccp(strategy: Strategy) -> (snake_core::Verdict, snake_core::TestMetrics) {
    let spec = ScenarioSpec::evaluation(ProtocolKind::Dccp(DccpProfile::linux_3_13()));
    let baseline = Executor::run(&spec, None);
    let attacked = Executor::run(&spec, Some(strategy));
    (detect(&baseline, &attacked, DEFAULT_THRESHOLD), attacked)
}

/// Table II row 1: CLOSE_WAIT resource exhaustion — Linux only (Windows
/// aborts with a bare RST and its 5-retry give-up frees the socket).
#[test]
fn close_wait_exhaustion_on_linux_only() {
    for profile in [Profile::linux_3_0_0(), Profile::linux_3_13()] {
        let name = profile.name.clone();
        let (verdict, metrics) = run_tcp(profile, strategy(KnownAttack::CloseWaitExhaustion));
        assert!(verdict.socket_leak, "{name}: must leak");
        assert!(metrics.leaked_close_wait > 0, "{name}: stuck in CLOSE_WAIT");
    }
    for profile in [Profile::windows_8_1(), Profile::windows_95()] {
        let name = profile.name.clone();
        // Windows clients never send RSTs from FIN_WAIT_1 (no FIN on
        // abort), so the strategy matches nothing.
        let (verdict, _) = run_tcp(profile, strategy(KnownAttack::CloseWaitExhaustion));
        assert!(!verdict.socket_leak, "{name}: must not leak");
    }
}

/// Table II row 3: duplicate-acknowledgment spoofing inflates a naïve
/// sender's window — Windows 95 only.
#[test]
fn dup_ack_spoofing_on_windows_95_only() {
    let (verdict, _) = run_tcp(Profile::windows_95(), strategy(KnownAttack::DupAckSpoofing));
    assert!(
        verdict.throughput_gain,
        "Windows 95 gains from duplicated acks"
    );

    for profile in [Profile::linux_3_0_0(), Profile::linux_3_13()] {
        let name = profile.name.clone();
        let (verdict, _) = run_tcp(profile, strategy(KnownAttack::DupAckSpoofing));
        assert!(
            !verdict.throughput_gain,
            "{name}: DSACK filtering prevents the gain"
        );
    }
}

/// Table II row 4/5: brute-forced sequence-valid RST / SYN resets — every
/// implementation is vulnerable (the behaviour is specified by RFC 793).
#[test]
fn reset_and_syn_reset_on_all_implementations() {
    for attack in [KnownAttack::ResetAttack, KnownAttack::SynResetAttack] {
        for profile in Profile::all() {
            let name = profile.name.clone();
            let (verdict, _) = run_tcp(profile, strategy(attack));
            assert!(
                verdict.throughput_degradation || verdict.establishment_prevented,
                "{name}: the {attack} window brute force must kill the connection"
            );
        }
    }
}

/// Table II row 6: duplicate-acknowledgment rate limiting — Windows 8.1's
/// harsh response to duplicate bursts collapses its window; Linux's DSACK
/// filtering keeps it fair.
#[test]
fn dup_ack_rate_limiting_on_windows_81_only() {
    let (verdict, _) = run_tcp(
        Profile::windows_8_1(),
        strategy(KnownAttack::DupAckRateLimiting),
    );
    assert!(verdict.throughput_degradation, "Windows 8.1 degrades ~5x");

    let (verdict, _) = run_tcp(
        Profile::linux_3_13(),
        strategy(KnownAttack::DupAckRateLimiting),
    );
    assert!(
        !verdict.throughput_degradation,
        "Linux shows approximately fair sharing in the same scenario"
    );
}

/// Table II row 2: invalid-flag handling differs per implementation
/// (fingerprinting). The per-implementation response matrix is E2 of
/// `snake tables`; here we check the flag-lie strategy class is flagged on
/// the best-effort stacks via its connection impact.
#[test]
fn invalid_flag_probes_have_observable_impact() {
    // Setting SYN on the client's own acks makes them in-window SYNs: the
    // server resets (RFC 793) — observable on every implementation.
    let (verdict, _) = run_tcp(
        Profile::linux_3_0_0(),
        strategy(KnownAttack::InvalidFlagProcessing),
    );
    assert!(
        verdict.flagged(),
        "in-window SYN via flag lie must be flagged"
    );
}

/// Table II row 7: DCCP acknowledgment mung — invalidated acks pin the
/// sender at minimum rate; its bounded send queue then cannot drain and
/// the socket hangs.
#[test]
fn dccp_ack_mung_resource_exhaustion() {
    let (verdict, metrics) = run_dccp(strategy(KnownAttack::AckMungExhaustion));
    assert!(verdict.socket_leak, "server socket must hang: {metrics:?}");
    assert!(
        verdict.throughput_degradation,
        "sender pinned at minimum rate"
    );
}

/// Table II row 8: in-window acknowledgment sequence-number modification —
/// a +1 bump forces a SYNC resync and costs a window of packets, over and
/// over.
#[test]
fn dccp_in_window_ack_seq_modification() {
    let (verdict, metrics) = run_dccp(strategy(KnownAttack::InWindowAckSeqMod));
    assert!(verdict.throughput_degradation, "resync storm: {metrics:?}");
    assert!(metrics.proxy.packets_seen > 0);
}

/// Table II row 9: REQUEST connection termination — any non-RESPONSE
/// packet with arbitrary sequence numbers resets a connection in REQUEST,
/// because the RFC (and Linux) check the type before the sequence numbers.
#[test]
fn dccp_request_connection_termination() {
    let (verdict, _) = run_dccp(strategy(KnownAttack::RequestTermination));
    assert!(
        verdict.establishment_prevented,
        "connection must never establish"
    );
}

/// The classifier names each rediscovered attack as Table II does.
#[test]
fn classifier_names_the_close_wait_attack() {
    let strategy = strategy(KnownAttack::CloseWaitExhaustion);
    let protocol = ProtocolKind::Tcp(Profile::linux_3_0_0());
    let spec = ScenarioSpec::evaluation(protocol.clone());
    let baseline = Executor::run(&spec, None);
    let attacked = Executor::run(&spec, Some(strategy.clone()));
    let verdict = detect(&baseline, &attacked, DEFAULT_THRESHOLD);
    let attack = snake_core::classify(&protocol, &strategy, &verdict, &attacked);
    let classified = snake_core::cluster_attacks(&[(strategy, verdict, attack)]);
    assert_eq!(classified[0].attack, KnownAttack::CloseWaitExhaustion);
}

/// Every named attack's witness — the strategy `snake replay --attack`
/// runs — is flagged and classified back as that attack.
#[test]
fn every_witness_round_trips_through_the_classifier() {
    for attack in KnownAttack::NAMED {
        let (protocol, strategy) = attack.witness().expect("named attacks have a witness");
        let spec = ScenarioSpec::evaluation(protocol.clone());
        let baseline = Executor::run(&spec, None);
        let attacked = Executor::run(&spec, Some(strategy.clone()));
        let verdict = detect(&baseline, &attacked, DEFAULT_THRESHOLD);
        assert!(verdict.flagged(), "{}: witness not flagged", attack.name());
        assert_eq!(
            snake_core::classify(&protocol, &strategy, &verdict, &attacked),
            attack
        );
    }
}

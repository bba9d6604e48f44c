use std::collections::BTreeMap;

use snake_dccp::DccpProfile;
use snake_packet::FieldMutation;
use snake_proxy::{
    BasicAttack, Endpoint, InjectDirection, InjectionAttack, SeqChoice, Strategy, StrategyKind,
};
use snake_tcp::Profile;

use crate::detect::Verdict;
use crate::scenario::{ProtocolKind, TestMetrics};

/// The unique attacks of the paper's Table II, plus catch-all buckets for
/// genuine-but-unnamed findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KnownAttack {
    /// TCP: connections wedged in CLOSE_WAIT on the server after client
    /// teardown traffic is suppressed (server DoS).
    CloseWaitExhaustion,
    /// TCP: implementation-revealing processing of invalid flag
    /// combinations (fingerprinting).
    InvalidFlagProcessing,
    /// TCP: duplicated acknowledgments inflate a naïve sender's congestion
    /// window (poor fairness; Windows 95).
    DupAckSpoofing,
    /// TCP: brute-forced sequence-valid RST (client DoS).
    ResetAttack,
    /// TCP: brute-forced sequence-valid SYN resets the connection
    /// (client DoS).
    SynResetAttack,
    /// TCP: duplicate-acknowledgment bursts repeatedly halve the sender's
    /// window (throughput degradation; Windows 8.1).
    DupAckRateLimiting,
    /// DCCP: invalidated acknowledgments pin the sender at minimum rate so
    /// the send queue never drains and the socket hangs (server DoS).
    AckMungExhaustion,
    /// DCCP: an in-window increment of an acknowledgment's sequence number
    /// forces a SYNC resync and drops a window of packets (throughput
    /// degradation).
    InWindowAckSeqMod,
    /// DCCP: any non-RESPONSE packet received in REQUEST resets the nascent
    /// connection, sequence numbers unchecked (client DoS).
    RequestTermination,
    /// A genuine finding that does not match a named Table II attack.
    Other,
}

impl KnownAttack {
    /// The nine named attacks, in Table II order.
    pub const NAMED: [KnownAttack; 9] = [
        KnownAttack::CloseWaitExhaustion,
        KnownAttack::InvalidFlagProcessing,
        KnownAttack::DupAckSpoofing,
        KnownAttack::ResetAttack,
        KnownAttack::SynResetAttack,
        KnownAttack::DupAckRateLimiting,
        KnownAttack::AckMungExhaustion,
        KnownAttack::InWindowAckSeqMod,
        KnownAttack::RequestTermination,
    ];

    /// The attack's command-line name (`snake replay --attack <slug>`).
    pub fn slug(&self) -> &'static str {
        match self {
            KnownAttack::CloseWaitExhaustion => "close-wait",
            KnownAttack::InvalidFlagProcessing => "invalid-flags",
            KnownAttack::DupAckSpoofing => "dupack-spoofing",
            KnownAttack::ResetAttack => "reset",
            KnownAttack::SynResetAttack => "syn-reset",
            KnownAttack::DupAckRateLimiting => "dupack-rate-limiting",
            KnownAttack::AckMungExhaustion => "ack-mung",
            KnownAttack::InWindowAckSeqMod => "ack-seq-mod",
            KnownAttack::RequestTermination => "request-termination",
            KnownAttack::Other => "other",
        }
    }

    /// One strategy the search generates for this attack, with an
    /// implementation it is found on: replaying it on the evaluation
    /// scenario is flagged by [`detect`](crate::detect) and classified
    /// back as this attack. `None` for [`KnownAttack::Other`].
    pub fn witness(&self) -> Option<(ProtocolKind, Strategy)> {
        use BasicAttack::{Drop, Duplicate};
        use KnownAttack::*;
        let protocol = match self {
            CloseWaitExhaustion | InvalidFlagProcessing => {
                ProtocolKind::Tcp(Profile::linux_3_0_0())
            }
            DupAckSpoofing => ProtocolKind::Tcp(Profile::windows_95()),
            ResetAttack | SynResetAttack => ProtocolKind::Tcp(Profile::linux_3_13()),
            DupAckRateLimiting => ProtocolKind::Tcp(Profile::windows_8_1()),
            AckMungExhaustion | InWindowAckSeqMod | RequestTermination => {
                ProtocolKind::Dccp(DccpProfile::linux_3_13())
            }
            Other => return None,
        };
        let on_packet = |endpoint, state: &str, packet_type: &str, attack| StrategyKind::OnPacket {
            endpoint,
            state: state.into(),
            packet_type: packet_type.into(),
            attack,
        };
        let client =
            |state, packet_type, attack| on_packet(Endpoint::Client, state, packet_type, attack);
        let on_state = |state: &str, attack| StrategyKind::OnState {
            endpoint: Endpoint::Client,
            state: state.into(),
            attack,
        };
        let lie = |field: &str, mutation| BasicAttack::Lie {
            field: field.into(),
            mutation,
        };
        let hitseq = |packet_type: &str| {
            on_state(
                "ESTABLISHED",
                InjectionAttack::HitSeqWindow {
                    packet_type: packet_type.into(),
                    direction: InjectDirection::ToClient,
                    stride: 65_535,
                    count: 66_000,
                    rate_pps: 20_000,
                    inert: false,
                },
            )
        };
        let kind = match self {
            CloseWaitExhaustion => client("FIN_WAIT_1", "RST", Drop { percent: 100 }),
            InvalidFlagProcessing => {
                client("ESTABLISHED", "ACK", lie("syn", FieldMutation::Set(1)))
            }
            DupAckSpoofing => client("ESTABLISHED", "ACK", Duplicate { copies: 2 }),
            ResetAttack => hitseq("RST"),
            SynResetAttack => hitseq("SYN"),
            DupAckRateLimiting => on_packet(
                Endpoint::Server,
                "ESTABLISHED",
                "PSH+ACK",
                Duplicate { copies: 10 },
            ),
            AckMungExhaustion => client("OPEN", "ACK", Drop { percent: 100 }),
            InWindowAckSeqMod => client("OPEN", "ACK", lie("seq", FieldMutation::Add(25))),
            RequestTermination => on_state(
                "REQUEST",
                InjectionAttack::Inject {
                    packet_type: "SYNC".into(),
                    seq: SeqChoice::Random,
                    direction: InjectDirection::ToClient,
                    repeat: 3,
                },
            ),
            Other => return None,
        };
        Some((protocol, Strategy { id: 1, kind }))
    }

    /// The attack's name as the paper's Table II gives it.
    pub fn name(&self) -> &'static str {
        match self {
            KnownAttack::CloseWaitExhaustion => "CLOSE_WAIT Resource Exhaustion",
            KnownAttack::InvalidFlagProcessing => "Packets with Invalid Flags",
            KnownAttack::DupAckSpoofing => "Duplicate Acknowledgment Spoofing",
            KnownAttack::ResetAttack => "Reset Attack",
            KnownAttack::SynResetAttack => "SYN-Reset Attack",
            KnownAttack::DupAckRateLimiting => "Duplicate Acknowledgment Rate Limiting",
            KnownAttack::AckMungExhaustion => "Acknowledgment Mung Resource Exhaustion",
            KnownAttack::InWindowAckSeqMod => {
                "In-window Acknowledgment Sequence Number Modification"
            }
            KnownAttack::RequestTermination => "REQUEST Connection Termination",
            KnownAttack::Other => "Other",
        }
    }

    /// The impact column of Table II.
    pub fn impact(&self) -> &'static str {
        match self {
            KnownAttack::CloseWaitExhaustion | KnownAttack::AckMungExhaustion => "Server DoS",
            KnownAttack::InvalidFlagProcessing => "Fingerprinting",
            KnownAttack::DupAckSpoofing => "Poor Fairness",
            KnownAttack::ResetAttack
            | KnownAttack::SynResetAttack
            | KnownAttack::RequestTermination => "Client DoS",
            KnownAttack::DupAckRateLimiting | KnownAttack::InWindowAckSeqMod => {
                "Throughput Degradation"
            }
            KnownAttack::Other => "Varies",
        }
    }
}

impl std::fmt::Display for KnownAttack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A unique attack discovered by a campaign: the cluster of true attack
/// strategies that all exploit the same mechanism ("many of these
/// strategies are functionally the same attack, just performed on a
/// different field or with a different value" — §VI-A).
#[derive(Debug, Clone, PartialEq)]
pub struct AttackFinding {
    /// The named attack.
    pub attack: KnownAttack,
    /// Ids of the strategies in the cluster.
    pub strategy_ids: Vec<u64>,
    /// One representative strategy description.
    pub example: String,
    /// The detection labels observed (for example `degradation`).
    pub effects: Vec<String>,
}

const TCP_FLAG_FIELDS: &[&str] = &["urg", "ack_flag", "psh", "rst", "syn", "fin"];

/// Maps one true attack strategy to the named attack it instantiates.
pub fn classify(
    protocol: &ProtocolKind,
    strategy: &Strategy,
    verdict: &Verdict,
    metrics: &TestMetrics,
) -> KnownAttack {
    match protocol {
        ProtocolKind::Tcp(_) => classify_tcp(strategy, verdict, metrics),
        ProtocolKind::Dccp(_) => classify_dccp(strategy, verdict, metrics),
    }
}

fn classify_tcp(strategy: &Strategy, verdict: &Verdict, metrics: &TestMetrics) -> KnownAttack {
    // Resource exhaustion with CLOSE_WAIT evidence is the CLOSE_WAIT
    // attack regardless of which delivery attack suppressed the resets.
    if verdict.socket_leak && metrics.leaked_close_wait > 0 {
        return KnownAttack::CloseWaitExhaustion;
    }
    match &strategy.kind {
        StrategyKind::OnState {
            attack: InjectionAttack::HitSeqWindow { packet_type, .. },
            ..
        } => match packet_type.as_str() {
            "RST" => KnownAttack::ResetAttack,
            "SYN" => KnownAttack::SynResetAttack,
            _ => KnownAttack::Other,
        },
        StrategyKind::OnState {
            attack: InjectionAttack::Inject { packet_type, .. },
            ..
        } => match packet_type.as_str() {
            "RST" => KnownAttack::ResetAttack,
            "SYN" => KnownAttack::SynResetAttack,
            _ => KnownAttack::Other,
        },
        StrategyKind::AtTime { .. } | StrategyKind::OnNthPacket { .. } => KnownAttack::Other,
        StrategyKind::OnPacket {
            endpoint,
            packet_type,
            attack,
            ..
        } => match attack {
            BasicAttack::Duplicate { .. } => {
                if *endpoint == Endpoint::Client && packet_type == "ACK" && verdict.throughput_gain
                {
                    KnownAttack::DupAckSpoofing
                } else if verdict.throughput_degradation || verdict.competing_degradation {
                    // Duplication bursts (of data or of acks) that drive
                    // the sender into repeated spurious loss recovery.
                    KnownAttack::DupAckRateLimiting
                } else {
                    KnownAttack::Other
                }
            }
            BasicAttack::Lie { field, .. } if TCP_FLAG_FIELDS.contains(&field.as_str()) => {
                KnownAttack::InvalidFlagProcessing
            }
            _ => KnownAttack::Other,
        },
    }
}

fn classify_dccp(strategy: &Strategy, verdict: &Verdict, metrics: &TestMetrics) -> KnownAttack {
    // Small in-window sequence bumps on the receiver's acknowledgments are
    // the paper's attack 2 — classified before the generic leak rule,
    // since the forced-resync degradation is the defining mechanism (the
    // leak it also causes at teardown is a downstream symptom).
    if let StrategyKind::OnPacket {
        endpoint: Endpoint::Client,
        attack: BasicAttack::Lie { field, mutation },
        ..
    } = &strategy.kind
    {
        if field == "seq"
            && matches!(
                mutation,
                snake_packet::FieldMutation::Add(_) | snake_packet::FieldMutation::Sub(_)
            )
            && (verdict.throughput_degradation || verdict.competing_degradation)
        {
            return KnownAttack::InWindowAckSeqMod;
        }
    }
    if verdict.socket_leak && metrics.leaked_with_queue > 0 {
        return KnownAttack::AckMungExhaustion;
    }
    match &strategy.kind {
        StrategyKind::OnState { state, .. }
            if state == "REQUEST" && verdict.establishment_prevented =>
        {
            KnownAttack::RequestTermination
        }
        // A reflected REQUEST arrives at a client still in REQUEST and
        // trips the same type-before-sequence check: the same root cause
        // as the injection form of the attack.
        StrategyKind::OnPacket {
            endpoint: Endpoint::Client,
            packet_type,
            attack: BasicAttack::Reflect,
            ..
        } if packet_type == "REQUEST" && verdict.establishment_prevented => {
            KnownAttack::RequestTermination
        }
        StrategyKind::OnPacket {
            endpoint: Endpoint::Client,
            attack,
            ..
        } => match attack {
            BasicAttack::Lie { field, .. }
                if field == "seq"
                    && (verdict.throughput_degradation || verdict.competing_degradation) =>
            {
                KnownAttack::InWindowAckSeqMod
            }
            BasicAttack::Lie { field, .. }
                if (field == "ack" || field == "seq") && verdict.socket_leak =>
            {
                KnownAttack::AckMungExhaustion
            }
            _ => KnownAttack::Other,
        },
        _ => KnownAttack::Other,
    }
}

/// Groups classified true-attack strategies into unique attacks — the
/// paper's reduction from "17–48 true attack strategies" to "3–4 true
/// attacks" per implementation.
pub fn cluster_attacks(classified: &[(Strategy, Verdict, KnownAttack)]) -> Vec<AttackFinding> {
    let mut clusters: BTreeMap<KnownAttack, AttackFinding> = BTreeMap::new();
    for (strategy, verdict, attack) in classified {
        let entry = clusters.entry(*attack).or_insert_with(|| AttackFinding {
            attack: *attack,
            strategy_ids: Vec::new(),
            example: strategy.describe(),
            effects: Vec::new(),
        });
        entry.strategy_ids.push(strategy.id);
        for label in verdict.labels() {
            if !entry.effects.iter().any(|e| e == label) {
                entry.effects.push(label.to_owned());
            }
        }
    }
    clusters.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp() -> ProtocolKind {
        ProtocolKind::Tcp(Profile::linux_3_0_0())
    }

    fn dccp() -> ProtocolKind {
        ProtocolKind::Dccp(snake_dccp::DccpProfile::linux_3_13())
    }

    fn metrics(close_wait: usize, with_queue: usize) -> TestMetrics {
        TestMetrics {
            target_bytes: 1,
            competing_bytes: 1,
            leaked_sockets: close_wait + with_queue,
            leaked_close_wait: close_wait,
            leaked_with_queue: with_queue,
            ..TestMetrics::empty()
        }
    }

    fn leak_verdict() -> Verdict {
        Verdict {
            socket_leak: true,
            ..Verdict::default()
        }
    }

    #[test]
    fn close_wait_leak_is_classified() {
        let s = Strategy {
            id: 1,
            kind: StrategyKind::OnPacket {
                endpoint: Endpoint::Client,
                state: "FIN_WAIT_1".into(),
                packet_type: "RST".into(),
                attack: BasicAttack::Drop { percent: 100 },
            },
        };
        assert_eq!(
            classify(&tcp(), &s, &leak_verdict(), &metrics(1, 0)),
            KnownAttack::CloseWaitExhaustion
        );
    }

    #[test]
    fn hitseq_types_map_to_reset_attacks() {
        let make = |ty: &str| Strategy {
            id: 1,
            kind: StrategyKind::OnState {
                endpoint: Endpoint::Client,
                state: "ESTABLISHED".into(),
                attack: InjectionAttack::HitSeqWindow {
                    packet_type: ty.into(),
                    direction: InjectDirection::ToClient,
                    stride: 65_535,
                    count: 66_000,
                    rate_pps: 20_000,
                    inert: false,
                },
            },
        };
        let v = Verdict {
            throughput_degradation: true,
            ..Verdict::default()
        };
        assert_eq!(
            classify(&tcp(), &make("RST"), &v, &metrics(0, 0)),
            KnownAttack::ResetAttack
        );
        assert_eq!(
            classify(&tcp(), &make("SYN"), &v, &metrics(0, 0)),
            KnownAttack::SynResetAttack
        );
    }

    #[test]
    fn dupack_gain_vs_degradation() {
        let dup = |endpoint, ptype: &str| Strategy {
            id: 1,
            kind: StrategyKind::OnPacket {
                endpoint,
                state: "ESTABLISHED".into(),
                packet_type: ptype.into(),
                attack: BasicAttack::Duplicate { copies: 2 },
            },
        };
        let gain = Verdict {
            throughput_gain: true,
            ..Verdict::default()
        };
        let degraded = Verdict {
            throughput_degradation: true,
            ..Verdict::default()
        };
        assert_eq!(
            classify(&tcp(), &dup(Endpoint::Client, "ACK"), &gain, &metrics(0, 0)),
            KnownAttack::DupAckSpoofing
        );
        assert_eq!(
            classify(
                &tcp(),
                &dup(Endpoint::Server, "PSH+ACK"),
                &degraded,
                &metrics(0, 0)
            ),
            KnownAttack::DupAckRateLimiting
        );
    }

    #[test]
    fn dccp_request_termination() {
        let s = Strategy {
            id: 1,
            kind: StrategyKind::OnState {
                endpoint: Endpoint::Client,
                state: "REQUEST".into(),
                attack: InjectionAttack::Inject {
                    packet_type: "SYNC".into(),
                    seq: SeqChoice::Random,
                    direction: InjectDirection::ToClient,
                    repeat: 3,
                },
            },
        };
        let v = Verdict {
            establishment_prevented: true,
            ..Verdict::default()
        };
        assert_eq!(
            classify(&dccp(), &s, &v, &metrics(0, 0)),
            KnownAttack::RequestTermination
        );
    }

    #[test]
    fn dccp_ack_mung_and_seq_mod() {
        let lie = |field: &str| Strategy {
            id: 1,
            kind: StrategyKind::OnPacket {
                endpoint: Endpoint::Client,
                state: "OPEN".into(),
                packet_type: "ACK".into(),
                attack: BasicAttack::Lie {
                    field: field.into(),
                    mutation: snake_packet::FieldMutation::Add(1),
                },
            },
        };
        assert_eq!(
            classify(&dccp(), &lie("ack"), &leak_verdict(), &metrics(0, 1)),
            KnownAttack::AckMungExhaustion
        );
        let degraded = Verdict {
            throughput_degradation: true,
            ..Verdict::default()
        };
        assert_eq!(
            classify(&dccp(), &lie("seq"), &degraded, &metrics(0, 0)),
            KnownAttack::InWindowAckSeqMod
        );
    }

    #[test]
    fn clustering_groups_by_attack() {
        let s1 = Strategy {
            id: 1,
            kind: StrategyKind::OnPacket {
                endpoint: Endpoint::Client,
                state: "ESTABLISHED".into(),
                packet_type: "ACK".into(),
                attack: BasicAttack::Duplicate { copies: 1 },
            },
        };
        let s2 = Strategy {
            id: 2,
            ..s1.clone()
        };
        let gain = Verdict {
            throughput_gain: true,
            ..Verdict::default()
        };
        let clusters = cluster_attacks(&[
            (s1, gain, KnownAttack::DupAckSpoofing),
            (s2, gain, KnownAttack::DupAckSpoofing),
        ]);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].strategy_ids, vec![1, 2]);
        assert_eq!(clusters[0].effects, vec!["gain"]);
    }

    #[test]
    fn names_match_table_two() {
        assert_eq!(KnownAttack::ResetAttack.name(), "Reset Attack");
        assert_eq!(KnownAttack::CloseWaitExhaustion.impact(), "Server DoS");
        assert_eq!(KnownAttack::DupAckSpoofing.impact(), "Poor Fairness");
    }
}

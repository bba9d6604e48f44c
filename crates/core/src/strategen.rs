use std::collections::BTreeSet;

use snake_packet::FieldMutation;
use snake_proxy::{
    BasicAttack, Endpoint, InjectDirection, InjectionAttack, ProxyReport, SeqChoice, Strategy,
    StrategyKind,
};
use snake_statemachine::{Dir, Label};

use crate::detect::Verdict;
use crate::scenario::ProtocolKind;

/// Parameter lists for the basic attacks — the knobs of §IV-C, chosen to
/// cover the magnitudes the paper's attacks need (for example 10×
/// duplication for the rate-limiting attack, multi-second delays for
/// Shrew-style batching).
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationParams {
    /// Drop probabilities in percent.
    pub drop_percents: Vec<u8>,
    /// Duplicate copy counts.
    pub duplicate_copies: Vec<u32>,
    /// Delays in seconds.
    pub delay_secs: Vec<f64>,
    /// Batch intervals in seconds.
    pub batch_secs: Vec<f64>,
    /// Injection repeat count for single-packet injections.
    pub inject_repeat: u32,
    /// hitseqwindow injection rate in packets per second.
    pub hitseq_rate_pps: u64,
    /// Cap on hitseqwindow packet count (covers the full 32-bit TCP space
    /// at window strides; necessarily only samples DCCP's 48-bit space,
    /// which is why those strategies were false positives in the paper).
    pub hitseq_max_count: u64,
}

impl Default for GenerationParams {
    fn default() -> GenerationParams {
        GenerationParams {
            drop_percents: vec![100, 50, 10],
            duplicate_copies: vec![1, 2, 10],
            delay_secs: vec![0.1, 1.0, 4.0],
            batch_secs: vec![0.5, 4.0],
            inject_repeat: 3,
            hitseq_rate_pps: 20_000,
            hitseq_max_count: 66_000,
        }
    }
}

/// Generates the strategy set for one protocol from the state tracker's
/// feedback (paper §IV-C / §V-A): for every `(endpoint, state, packet
/// type)` pair observed in prior runs, one strategy per basic attack
/// parameterisation; and for every observed state, the off-path injection
/// strategies.
///
/// `already` holds ids of pairs that were covered by earlier rounds, so the
/// controller can generate "a few at a time in response to feedback" as
/// new states and packet types appear under attack.
pub fn generate_strategies(
    protocol: &ProtocolKind,
    reports: &[&ProxyReport],
    params: &GenerationParams,
    next_id: &mut u64,
    already: &mut BTreeSet<String>,
) -> Vec<Strategy> {
    let spec = match protocol {
        ProtocolKind::Tcp(_) => snake_packet::tcp::tcp_spec(),
        ProtocolKind::Dccp(_) => snake_packet::dccp::dccp_spec(),
    };
    let injectable: &[&str] = match protocol {
        ProtocolKind::Tcp(_) => &["SYN", "RST", "ACK", "FIN+ACK", "DATA"],
        ProtocolKind::Dccp(_) => &["REQUEST", "DATA", "ACK", "CLOSE", "RESET", "SYNC"],
    };
    let hitseq_types: &[&str] = match protocol {
        ProtocolKind::Tcp(_) => &["RST", "SYN"],
        ProtocolKind::Dccp(_) => &["RESET", "DATA"],
    };
    let (seq_bits, window) = match protocol {
        ProtocolKind::Tcp(_) => (32u32, 65_535u64),
        ProtocolKind::Dccp(_) => (48u32, 100u64),
    };

    // Collect send-direction pairs and visited states from the reports.
    // Both sets iterate in text order (endpoint, then state, then type),
    // which fixes the strategy ids.
    let mut pairs: BTreeSet<(Endpoint, Label, Label)> = BTreeSet::new();
    let mut states: BTreeSet<(Endpoint, Label)> = BTreeSet::new();
    for report in reports {
        for o in &report.observed {
            states.insert((o.endpoint, o.state));
            if o.dir == Dir::Send {
                pairs.insert((o.endpoint, o.state, o.packet_type));
            }
        }
    }

    // One bucket of candidate strategies per observed pair / state. The
    // buckets are emitted breadth-first (every pair's first variant before
    // any pair's second), so a controller that caps the strategy count
    // still covers the whole observed state space — the paper's
    // state-coverage premise (§IV-C) — instead of exhausting one pair's
    // parameter grid while later states go untested. Late-state triggers
    // also fork from late snapshots, which is what makes capped campaigns
    // fast under the snapshot planner.
    let mut buckets: Vec<Vec<StrategyKind>> = Vec::new();

    for (endpoint, state, ptype) in pairs {
        let key = format!("pair:{endpoint}:{state}:{ptype}");
        if !already.insert(key) {
            continue;
        }
        let mut bucket = Vec::new();
        let mut on_packet = |attack: BasicAttack| {
            bucket.push(StrategyKind::OnPacket {
                endpoint,
                state: state.as_str().to_owned(),
                packet_type: ptype.as_str().to_owned(),
                attack,
            });
        };
        for &p in &params.drop_percents {
            on_packet(BasicAttack::Drop { percent: p });
        }
        for &c in &params.duplicate_copies {
            on_packet(BasicAttack::Duplicate { copies: c });
        }
        for &s in &params.delay_secs {
            on_packet(BasicAttack::Delay { secs: s });
        }
        for &s in &params.batch_secs {
            on_packet(BasicAttack::Batch { secs: s });
        }
        on_packet(BasicAttack::Reflect);
        // Lies are emitted mutation-round-robin across fields (flag fields
        // first within each round) rather than field-major: a capped
        // controller then samples every field with its first mutation before
        // any field's second, and the flag Set(0)/Set(1) lies — half of
        // which the executor proves inert against the baseline and answers
        // for free — land inside the cap instead of behind one field's
        // whole mutation grid.
        let mut lie_fields: Vec<_> = spec.fields().iter().collect();
        lie_fields.sort_by_key(|f| !f.is_flag());
        let per_field: Vec<&[FieldMutation]> = lie_fields
            .iter()
            .map(|f| {
                if f.is_flag() {
                    FieldMutation::flag_mutations()
                } else {
                    FieldMutation::standard_mutations()
                }
            })
            .collect();
        let rounds = per_field.iter().map(|m| m.len()).max().unwrap_or(0);
        for round in 0..rounds {
            for (field, mutations) in lie_fields.iter().zip(&per_field) {
                if let Some(&m) = mutations.get(round) {
                    on_packet(BasicAttack::Lie {
                        field: field.name().to_owned(),
                        mutation: m,
                    });
                }
            }
        }
        buckets.push(bucket);
    }

    for (endpoint, state) in states {
        let key = format!("state:{endpoint}:{state}");
        if !already.insert(key) {
            continue;
        }
        let mut bucket = Vec::new();
        let mut push = |kind: StrategyKind| bucket.push(kind);
        for &ptype in injectable {
            for seq in [SeqChoice::Zero, SeqChoice::Random, SeqChoice::Max] {
                for direction in [InjectDirection::ToClient, InjectDirection::ToServer] {
                    push(StrategyKind::OnState {
                        endpoint,
                        state: state.as_str().to_owned(),
                        attack: InjectionAttack::Inject {
                            packet_type: ptype.to_owned(),
                            seq,
                            direction,
                            repeat: params.inject_repeat,
                        },
                    });
                }
            }
        }
        for &ptype in hitseq_types {
            for direction in [InjectDirection::ToClient, InjectDirection::ToServer] {
                let space = if seq_bits >= 64 {
                    u64::MAX
                } else {
                    1u64 << seq_bits
                };
                let count = (space / window.max(1))
                    .saturating_add(2)
                    .min(params.hitseq_max_count);
                push(StrategyKind::OnState {
                    endpoint,
                    state: state.as_str().to_owned(),
                    attack: InjectionAttack::HitSeqWindow {
                        packet_type: ptype.to_owned(),
                        direction,
                        stride: window,
                        count,
                        rate_pps: params.hitseq_rate_pps,
                        inert: false,
                    },
                });
            }
        }
        buckets.push(bucket);
    }

    // Breadth-first emission: variant 0 of every bucket, then variant 1 of
    // every bucket, and so on until all buckets are drained.
    let mut out = Vec::new();
    let mut iters: Vec<_> = buckets.into_iter().map(Vec::into_iter).collect();
    loop {
        let mut emitted = false;
        for it in &mut iters {
            if let Some(kind) = it.next() {
                out.push(Strategy { id: *next_id, kind });
                *next_id += 1;
                emitted = true;
            }
        }
        if !emitted {
            break;
        }
    }
    out
}

/// Header fields whose in-transit modification is impossible for both a
/// malicious client (it controls its own stack, not the wire) and an
/// off-path attacker: addressing and framing. Flagged lie strategies on
/// these fields are classified on-path, as the paper does for "modifying
/// the source or destination ports or the header size" (§VI-A).
const STRUCTURAL_FIELDS: &[&str] = &[
    "src_port",
    "dst_port",
    "data_offset",
    "checksum",
    "reserved",
    "res",
    "x",
    "ccval",
    "cscov",
    "ack_reserved",
];

/// Classifies a strategy as requiring an on-path attacker (paper §VI-A:
/// such findings are excluded because the protocols were never designed to
/// resist them).
///
/// Two cases: lying about structural/addressing fields (nobody but a
/// man-in-the-middle can corrupt those), and lying about the *content* of
/// packets the server sent (a malicious client can drop, delay, or ignore
/// what it receives, but cannot rewrite a packet's fields in transit).
pub fn is_on_path(strategy: &Strategy) -> bool {
    match &strategy.kind {
        StrategyKind::OnPacket {
            endpoint,
            attack: BasicAttack::Lie { field, .. },
            ..
        } => STRUCTURAL_FIELDS.contains(&field.as_str()) || *endpoint == Endpoint::Server,
        _ => false,
    }
}

/// Single-bit flag fields (probing these reveals how the implementation
/// handles invalid combinations — a genuine finding even when the only
/// measured effect hits the prober's own connection).
const TCP_FLAG_FIELDS: &[&str] = &["urg", "ack_flag", "psh", "rst", "syn", "fin"];

/// Classifies a flagged strategy as *self-denial*: the only measured
/// effect is the attacker breaking or slowing its own connection through
/// its own traffic, which "a malicious client could simply" achieve by not
/// connecting at all (§VI-A's reasoning for discarding such strategies
/// alongside the on-path ones). Strategies with any externally visible
/// effect — leaked server sockets, throughput gain, harm to the competing
/// flow — are never self-denial, and neither are duplication (the
/// rate-limiting attack), reflection (spoofable off-path), or flag probes
/// (fingerprinting).
pub fn is_self_denial(strategy: &Strategy, verdict: &Verdict) -> bool {
    if verdict.socket_leak || verdict.throughput_gain || verdict.competing_degradation {
        return false;
    }
    if !(verdict.establishment_prevented || verdict.throughput_degradation) {
        return false;
    }
    match &strategy.kind {
        StrategyKind::OnPacket { attack, .. } | StrategyKind::OnNthPacket { attack, .. } => {
            match attack {
                BasicAttack::Drop { .. }
                | BasicAttack::Delay { .. }
                | BasicAttack::Batch { .. } => true,
                BasicAttack::Lie { field, mutation } => {
                    // Flag probes reveal implementation behaviour
                    // (fingerprinting) and small arithmetic on sequencing
                    // fields is replicable by an off-path attacker who
                    // sniffs and spoofs an *additional* in-window packet —
                    // the paper's DCCP in-window modification attack
                    // (§VI-B.2: "an attacker does not have to be an
                    // endpoint"). Neither is self-denial.
                    let flag_probe = TCP_FLAG_FIELDS.contains(&field.as_str());
                    let seq_arith = (field == "seq" || field == "ack")
                        && matches!(mutation, FieldMutation::Add(_) | FieldMutation::Sub(_));
                    !(flag_probe || seq_arith)
                }
                BasicAttack::Duplicate { .. } | BasicAttack::Reflect => false,
            }
        }
        StrategyKind::OnState { .. } | StrategyKind::AtTime { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_proxy::Observation;
    use snake_tcp::Profile;

    fn observation(
        endpoint: Endpoint,
        state: &str,
        ptype: &str,
        dir: Dir,
        count: u64,
    ) -> Observation {
        Observation {
            endpoint,
            state: Label::seeded(state),
            packet_type: Label::seeded(ptype),
            dir,
            count,
        }
    }

    fn fake_report() -> ProxyReport {
        let mut r = ProxyReport::default();
        for (e, s, p, d) in [
            (Endpoint::Client, "CLOSED", "SYN", Dir::Send),
            (Endpoint::Client, "SYN_SENT", "SYN+ACK", Dir::Recv),
            (Endpoint::Client, "ESTABLISHED", "ACK", Dir::Send),
            (Endpoint::Server, "LISTEN", "SYN", Dir::Recv),
            (Endpoint::Server, "SYN_RECEIVED", "SYN+ACK", Dir::Send),
            (Endpoint::Server, "ESTABLISHED", "DATA", Dir::Send),
        ] {
            r.observed.push(observation(e, s, p, d, 10));
        }
        r
    }

    #[test]
    fn generates_per_pair_and_per_state() {
        let report = fake_report();
        let mut next_id = 0;
        let mut seen = BTreeSet::new();
        let strategies = generate_strategies(
            &ProtocolKind::Tcp(Profile::linux_3_13()),
            &[&report],
            &GenerationParams::default(),
            &mut next_id,
            &mut seen,
        );
        // 4 send pairs; per pair: 3 drop + 3 dup + 3 delay + 2 batch +
        // 1 reflect + (9 non-flag × 8 + 6 flag × 2) lie = 96.
        let per_pair = 3 + 3 + 3 + 2 + 1 + 9 * 8 + 6 * 2;
        // 6 (endpoint, state) combos; per state: 5 types × 3 seq × 2 dir
        // inject + 2 types × 2 dir hitseq = 34.
        let per_state = 5 * 3 * 2 + 2 * 2;
        assert_eq!(strategies.len(), 4 * per_pair + 6 * per_state);
        // Ids are unique and sequential.
        assert_eq!(next_id as usize, strategies.len());
    }

    #[test]
    fn regeneration_is_incremental() {
        let report = fake_report();
        let mut next_id = 0;
        let mut seen = BTreeSet::new();
        let protocol = ProtocolKind::Tcp(Profile::linux_3_13());
        let params = GenerationParams::default();
        let first = generate_strategies(&protocol, &[&report], &params, &mut next_id, &mut seen);
        let again = generate_strategies(&protocol, &[&report], &params, &mut next_id, &mut seen);
        assert!(!first.is_empty());
        assert!(again.is_empty(), "same feedback yields no new strategies");

        // A new state appearing under attack yields only its increment.
        let mut r2 = fake_report();
        r2.observed.push(observation(
            Endpoint::Server,
            "CLOSE_WAIT",
            "DATA",
            Dir::Send,
            5,
        ));
        let more = generate_strategies(&protocol, &[&r2], &params, &mut next_id, &mut seen);
        let per_pair = 3 + 3 + 3 + 2 + 1 + 9 * 8 + 6 * 2;
        let per_state = 5 * 3 * 2 + 2 * 2;
        assert_eq!(more.len(), per_pair + per_state);
    }

    #[test]
    fn repeated_reports_generate_what_their_distinct_set_does() {
        let a = fake_report();
        let mut b = fake_report();
        b.observed.push(observation(
            Endpoint::Server,
            "CLOSE_WAIT",
            "DATA",
            Dir::Send,
            5,
        ));
        let protocol = ProtocolKind::Tcp(Profile::linux_3_13());
        let params = GenerationParams::default();
        let generate = |reports: &[&ProxyReport]| {
            let mut next_id = 0;
            let strategies = generate_strategies(
                &protocol,
                reports,
                &params,
                &mut next_id,
                &mut BTreeSet::new(),
            );
            (strategies, next_id)
        };
        let repeated = generate(&[&a, &b, &a, &b, &b, &a]);
        assert_eq!(repeated, generate(&[&a, &b]));
        assert_eq!(repeated, generate(&[&b, &a]));
    }

    #[test]
    fn hitseqwindow_covers_tcp_space_but_samples_dccp() {
        let report = fake_report();
        let mut next_id = 0;
        let mut seen = BTreeSet::new();
        let strategies = generate_strategies(
            &ProtocolKind::Tcp(Profile::linux_3_13()),
            &[&report],
            &GenerationParams::default(),
            &mut next_id,
            &mut seen,
        );
        let hits: Vec<_> = strategies
            .iter()
            .filter_map(|s| match &s.kind {
                StrategyKind::OnState {
                    attack: InjectionAttack::HitSeqWindow { count, stride, .. },
                    ..
                } => Some((*count, *stride)),
                _ => None,
            })
            .collect();
        assert!(!hits.is_empty());
        // 2^32 / 65535 ≈ 65538: full coverage within the cap.
        assert!(hits
            .iter()
            .all(|&(c, s)| s == 65_535 && c >= (1u64 << 32) / 65_535));
    }

    #[test]
    fn on_path_classification() {
        let lie = |endpoint, field: &str| Strategy {
            id: 0,
            kind: StrategyKind::OnPacket {
                endpoint,
                state: "ESTABLISHED".into(),
                packet_type: "ACK".into(),
                attack: BasicAttack::Lie {
                    field: field.into(),
                    mutation: FieldMutation::Max,
                },
            },
        };
        // Structural fields: on-path regardless of direction.
        assert!(is_on_path(&lie(Endpoint::Client, "src_port")));
        assert!(is_on_path(&lie(Endpoint::Client, "checksum")));
        // Semantic fields of the client's own packets: a malicious client.
        assert!(!is_on_path(&lie(Endpoint::Client, "seq")));
        assert!(!is_on_path(&lie(Endpoint::Client, "window")));
        // Rewriting the server's content in transit: on-path.
        assert!(is_on_path(&lie(Endpoint::Server, "seq")));
        // Delivery attacks are never on-path.
        let drop = Strategy {
            id: 0,
            kind: StrategyKind::OnPacket {
                endpoint: Endpoint::Server,
                state: "ESTABLISHED".into(),
                packet_type: "DATA".into(),
                attack: BasicAttack::Drop { percent: 100 },
            },
        };
        assert!(!is_on_path(&drop));
    }
}

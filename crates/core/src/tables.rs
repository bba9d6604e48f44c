//! `snake tables`: the paper's evaluation (§VI), regenerated in one pass.
//!
//! [`Tables::collect`] runs every measured experiment of EXPERIMENTS.md on
//! the evaluation scenario — the five Table I campaigns exactly as `snake
//! campaign --impl X` runs them, the invalid-flag response matrix, the
//! §VI-C injection-model comparison, the attack-impact and CLOSE_WAIT
//! scaling replays, and the ablations — and [`Tables::render`] prints them
//! as deterministic markdown, committed as `results/tables.md`.
//! [`shape_failures`] states the paper's shape as checks over the
//! collected data: who is vulnerable to what, which search model wins,
//! which way each attack moves throughput.

use std::collections::BTreeSet;

use snake_dccp::DccpProfile;
use snake_netsim::SimTime;
use snake_packet::tcp::{tcp_spec, TcpFlags};
use snake_packet::FieldMutation;
use snake_proxy::Strategy;
use snake_tcp::{AbortStyle, ConnEvent, Connection, Profile, Seg, State};

use crate::attacks::KnownAttack;
use crate::campaign::Campaign;
use crate::config::{CampaignConfig, CampaignError};
use crate::detect::{detect, Verdict, DEFAULT_THRESHOLD};
use crate::report::{render_table1, render_table2};
use crate::result::CampaignResult;
use crate::scenario::{Executor, ProtocolKind, ScenarioSpec};
use crate::search::{empirical_head_to_head, render_empirical, EmpiricalResult, SearchSpaceParams};
use crate::strategen::{generate_strategies, GenerationParams};

const TCP_IMPLS: &[&str] = &["Linux 3.0.0", "Linux 3.13", "Windows 8.1", "Windows 95"];
const DCCP_IMPLS: &[&str] = &["Linux 3.13 (DCCP)"];

/// Table II's shape: each named attack and the implementations it is found
/// on — exactly these, no others.
const TABLE2_SHAPE: [(KnownAttack, &[&str]); 9] = [
    (
        KnownAttack::CloseWaitExhaustion,
        &["Linux 3.0.0", "Linux 3.13"],
    ),
    (KnownAttack::InvalidFlagProcessing, TCP_IMPLS),
    (KnownAttack::DupAckSpoofing, &["Windows 95"]),
    (KnownAttack::ResetAttack, TCP_IMPLS),
    (KnownAttack::SynResetAttack, TCP_IMPLS),
    (KnownAttack::DupAckRateLimiting, &["Windows 8.1"]),
    (KnownAttack::AckMungExhaustion, DCCP_IMPLS),
    (KnownAttack::InWindowAckSeqMod, DCCP_IMPLS),
    (KnownAttack::RequestTermination, DCCP_IMPLS),
];

/// The paper's invalid-flag combinations (§VI-A.2), fired at an
/// established client. The first three TCP implementations must answer
/// them in pairwise different ways.
const PROBES: [(&str, TcpFlags); 4] = [
    ("null flags", TcpFlags::none()),
    ("SYN+FIN", syn_fin(false, false)),
    ("SYN+FIN+ACK+PSH", syn_fin(true, false)),
    ("SYN+FIN+ACK+RST", syn_fin(false, true)),
];

const fn syn_fin(ack_psh: bool, ack_rst: bool) -> TcpFlags {
    TcpFlags {
        syn: true,
        fin: true,
        ack: ack_psh || ack_rst,
        psh: ack_psh,
        rst: ack_rst,
        urg: false,
    }
}

/// Strategies per injection model in the §VI-C head-to-head.
const HEAD_TO_HEAD_BUDGET: usize = 40;

/// The attacks whose magnitude §VI-A/B quotes, each replayed from its
/// witness.
const IMPACTS: [KnownAttack; 5] = [
    KnownAttack::DupAckSpoofing,
    KnownAttack::DupAckRateLimiting,
    KnownAttack::ResetAttack,
    KnownAttack::InWindowAckSeqMod,
    KnownAttack::RequestTermination,
];

/// Connection counts of the CLOSE_WAIT scaling rows.
const SCALING_CONNECTIONS: [usize; 4] = [1, 4, 16, 64];

/// A witness strategy replayed against its scenario's baseline.
#[derive(Debug)]
struct Replay {
    implementation: String,
    baseline_bytes: u64,
    attacked_bytes: u64,
    leaked_sockets: usize,
    verdict: Verdict,
}

impl Replay {
    fn run(protocol: ProtocolKind, strategy: Strategy) -> Replay {
        let spec = ScenarioSpec::evaluation(protocol);
        let baseline = Executor::run(&spec, None);
        let attacked = Executor::run(&spec, Some(strategy));
        Replay {
            implementation: spec.protocol().implementation_name().to_owned(),
            baseline_bytes: baseline.target_bytes,
            attacked_bytes: attacked.target_bytes,
            leaked_sockets: attacked.leaked_sockets,
            verdict: detect(&baseline, &attacked, DEFAULT_THRESHOLD),
        }
    }

    /// Attacked over baseline target throughput.
    fn ratio(&self) -> f64 {
        self.attacked_bytes as f64 / self.baseline_bytes.max(1) as f64
    }
}

/// Everything `snake tables` measures, section by section.
#[derive(Debug)]
pub struct Tables {
    /// Data-phase length of every run, for the Mb/s columns.
    data_secs: u64,
    /// E1, E2, E5: one default campaign per implementation, in Table I
    /// order (E5 reads their baselines).
    campaigns: Vec<CampaignResult>,
    /// E2: each TCP implementation's answer to each of [`PROBES`].
    fingerprints: Vec<(String, Vec<&'static str>)>,
    /// E3: the §VI-C parameters measured on Linux 3.13, and the
    /// state-based, send-packet-based and time-interval-based yields.
    measured: SearchSpaceParams,
    head_to_head: Vec<EmpiricalResult>,
    /// E4: the [`IMPACTS`] replays, and the CLOSE_WAIT witness as
    /// `(connections, leaked sockets, sockets in CLOSE_WAIT)`.
    impacts: Vec<(KnownAttack, Replay)>,
    close_wait_scaling: Vec<(usize, usize, usize)>,
    /// E6: `(attack, ablated behaviour, vulnerable, ablated)`.
    ablations: Vec<(KnownAttack, &'static str, Replay, Replay)>,
}

impl Tables {
    /// Runs every experiment, printing progress on stderr.
    pub fn collect() -> Result<Tables, CampaignError> {
        let mut campaigns = Vec::new();
        let mut implementations: Vec<_> =
            Profile::all().into_iter().map(ProtocolKind::Tcp).collect();
        implementations.push(ProtocolKind::Dccp(DccpProfile::linux_3_13()));
        for protocol in implementations {
            eprintln!("E1: campaign {}", protocol.implementation_name());
            let config = CampaignConfig::builder(ScenarioSpec::evaluation(protocol)).build()?;
            campaigns.push(Campaign::run(config)?);
        }

        eprintln!("E2: invalid-flag probes");
        let fingerprints = Profile::all()
            .iter()
            .map(|p| (p.name.clone(), PROBES.map(|(_, f)| probe(p, f)).to_vec()))
            .collect();

        eprintln!("E3: injection models");
        let protocol = ProtocolKind::Tcp(Profile::linux_3_13());
        let spec = ScenarioSpec::evaluation(protocol.clone());
        let baseline = Executor::run(&spec, None);
        let params = GenerationParams::default();
        let mut seen = BTreeSet::new();
        let strategies =
            generate_strategies(&protocol, &[&baseline.proxy], &params, &mut 0, &mut seen);
        // One (state, packet type) pair's per-packet strategies: each
        // drop/duplicate/delay/batch setting, reflect, and a lie per header
        // field and mutation.
        let lies: usize = tcp_spec()
            .fields()
            .iter()
            .map(|f| {
                if f.is_flag() {
                    FieldMutation::flag_mutations().len()
                } else {
                    FieldMutation::standard_mutations().len()
                }
            })
            .sum();
        let settings = params.drop_percents.len()
            + params.duplicate_copies.len()
            + params.delay_secs.len()
            + params.batch_secs.len();
        let measured = SearchSpaceParams::measured(
            baseline.proxy.packets_seen,
            (settings + 1 + lies) as u64,
            strategies.len() as u64,
            spec.data_secs(),
        );
        let head_to_head = empirical_head_to_head(
            &spec,
            strategies,
            HEAD_TO_HEAD_BUDGET,
            &params,
            DEFAULT_THRESHOLD,
        );

        eprintln!("E4: impact replays");
        let impacts = IMPACTS.iter().map(|&a| (a, replay(a))).collect();
        let (protocol, drop_rsts) = witness(KnownAttack::CloseWaitExhaustion);
        let close_wait_scaling = SCALING_CONNECTIONS
            .iter()
            .map(|&n| {
                let spec = ScenarioSpec::builder(protocol.clone())
                    .target_connections(n)
                    .build()
                    .expect("the scaling scenario is valid");
                let m = Executor::run(&spec, Some(drop_rsts.clone()));
                (n, m.leaked_sockets, m.leaked_close_wait)
            })
            .collect();

        eprintln!("E6: ablations");
        let ablations = ablated_implementations()
            .into_iter()
            .map(|(attack, knob, protocol)| {
                let ablated = Replay::run(protocol, witness(attack).1);
                (attack, knob, replay(attack), ablated)
            })
            .collect();

        Ok(Tables {
            data_secs: spec.data_secs(),
            campaigns,
            fingerprints,
            measured,
            head_to_head,
            impacts,
            close_wait_scaling,
            ablations,
        })
    }

    /// The tables as markdown. Deterministic: no wall-clock figure appears.
    pub fn render(&self) -> String {
        let mbps = |bytes: u64| format!("{:.2}", bytes as f64 * 8.0 / self.data_secs as f64 / 1e6);
        let ratio = |r: f64| format!("{r:.2}x");
        let outcome = |r: &Replay| {
            let verdict = verdict_text(&r.verdict);
            format!(
                "{}, {} leaked: {verdict}",
                ratio(r.ratio()),
                r.leaked_sockets
            )
        };
        let mut out = format!(
            "# SNAKE evaluation tables\n\n\
             Generated by `snake tables`; every run uses the evaluation scenario \
             (dumbbell, {} s data phase, seed 7). EXPERIMENTS.md compares each \
             section with the paper.\n",
            self.data_secs
        );

        out.push_str("\n## E1. Table I: summary of SNAKE results\n\n");
        out.push_str(&render_table1(&self.campaigns));

        out.push_str("\n## E2. Table II: the attacks found\n\n");
        out.push_str(&render_table2(&self.campaigns));
        out.push_str("\nInvalid-flag responses of an established client:\n\n");
        let mut header = vec!["Probe"];
        header.extend(self.fingerprints.iter().map(|(name, _)| name.as_str()));
        let rows = PROBES.iter().enumerate().map(|(i, (probe, _))| {
            let answers = self.fingerprints.iter().map(|(_, a)| a[i].to_owned());
            std::iter::once(probe.to_string()).chain(answers).collect()
        });
        table(&mut out, &header, rows);

        out.push_str("\n## E3. §VI-C injection models compared\n\nPaper parameters:\n\n");
        out.push_str(&SearchSpaceParams::paper().render());
        out.push_str(&format!(
            "\nMeasured parameters (Linux 3.13: {} packets observed, {} state-based \
             strategies, {} per (state, packet type) pair):\n\n{}\
             \nEqual-budget head-to-head ({HEAD_TO_HEAD_BUDGET} strategies per model, \
             Linux 3.13):\n\n{}",
            self.measured.packets_per_test,
            self.measured.state_based_strategies,
            self.measured.strategies_per_packet,
            self.measured.render(),
            render_empirical(&self.head_to_head)
        ));

        out.push_str("\n## E4. Attack impact magnitudes (§VI-A/B)\n\n");
        let header = [
            "Attack",
            "Implementation",
            "Baseline Mb/s",
            "Attacked Mb/s",
            "Ratio",
            "Verdict",
        ];
        let rows = self.impacts.iter().map(|(attack, r)| {
            vec![
                attack.name().to_owned(),
                r.implementation.clone(),
                mbps(r.baseline_bytes),
                mbps(r.attacked_bytes),
                ratio(r.ratio()),
                verdict_text(&r.verdict),
            ]
        });
        table(&mut out, &header, rows);
        out.push_str(
            "\nCLOSE_WAIT exhaustion over N connections (Linux 3.0.0, the client's \
             FIN_WAIT_1 RSTs dropped):\n\n",
        );
        let header = ["Connections", "Leaked sockets", "In CLOSE_WAIT"];
        let rows = self
            .close_wait_scaling
            .iter()
            .map(|&(n, leaked, close_wait)| {
                vec![n.to_string(), leaked.to_string(), close_wait.to_string()]
            });
        table(&mut out, &header, rows);

        out.push_str("\n## E5. Fairness baseline\n\n");
        out.push_str("Two unattacked flows over the bottleneck (the E1 campaigns' baselines):\n\n");
        let header = ["Implementation", "Target Mb/s", "Competing Mb/s", "Ratio"];
        let rows = self.campaigns.iter().map(|r| {
            vec![
                r.implementation.clone(),
                mbps(r.baseline.target_bytes),
                mbps(r.baseline.competing_bytes),
                ratio(fairness_ratio(r)),
            ]
        });
        table(&mut out, &header, rows);

        out.push_str("\n## E6. Ablations: which behaviour enables which attack\n\n");
        let header = [
            "Attack",
            "Vulnerable",
            "Outcome",
            "Ablated behaviour",
            "Outcome (ablated)",
        ];
        let rows = self.ablations.iter().map(|(attack, knob, v, a)| {
            vec![
                attack.name().to_owned(),
                v.implementation.clone(),
                outcome(v),
                knob.to_string(),
                outcome(a),
            ]
        });
        table(&mut out, &header, rows);
        out
    }
}

/// The paper-shape checks over collected tables: one line per check that
/// fails, empty when the reproduction has the paper's shape.
pub fn shape_failures(tables: &Tables) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |holds: bool, failure: String| {
        if !holds {
            failures.push(failure);
        }
    };

    for (attack, expected) in TABLE2_SHAPE {
        let found: Vec<&str> = tables
            .campaigns
            .iter()
            .filter(|r| r.findings.iter().any(|f| f.attack == attack))
            .map(|r| r.implementation.as_str())
            .collect();
        check(
            found == expected,
            format!(
                "E2: {} found on [{}], expected [{}]",
                attack.name(),
                found.join(", "),
                expected.join(", ")
            ),
        );
    }
    for r in &tables.campaigns {
        let (name, fp) = (&r.implementation, r.false_positive_count());
        let expected_fp = if r.protocol == "DCCP" { 2 } else { 0 };
        check(
            fp == expected_fp,
            format!("E1: {name} has {fp} false positives, expected {expected_fp}"),
        );
        check(
            r.errored() + r.truncated() == 0,
            format!("E1: {name} has errored or truncated runs"),
        );
        let ratio = fairness_ratio(r);
        check(
            ratio < 2.0,
            format!("E5: {name}'s baseline flows differ by {ratio:.2}x, expected under 2x"),
        );
    }

    let fingerprinted = &tables.fingerprints[..3.min(tables.fingerprints.len())];
    for (i, (a, answers_a)) in fingerprinted.iter().enumerate() {
        for (b, answers_b) in &fingerprinted[i + 1..] {
            check(
                answers_a != answers_b,
                format!("E2: the invalid-flag probes do not tell {a} from {b}"),
            );
        }
    }

    let yields: Vec<f64> = tables
        .head_to_head
        .iter()
        .map(EmpiricalResult::yield_rate)
        .collect();
    check(
        matches!(yields[..], [state, send, time] if state > send && send >= time),
        format!("E3: yields {yields:?}, expected state-based > send-packet-based >= time-interval-based"),
    );

    for (attack, r) in &tables.impacts {
        let (holds, expected) = match attack {
            KnownAttack::DupAckSpoofing => (r.verdict.throughput_gain, "a throughput gain"),
            KnownAttack::RequestTermination => (r.attacked_bytes == 0, "zero bytes"),
            _ => (r.ratio() < 0.5, "below 0.5x"),
        };
        check(
            holds,
            format!(
                "E4: {} moved throughput {:.2}x, expected {expected}",
                attack.name(),
                r.ratio()
            ),
        );
    }
    let close_wait: Vec<usize> = tables.close_wait_scaling.iter().map(|row| row.2).collect();
    check(
        close_wait.windows(2).all(|w| w[0] < w[1]),
        format!("E4: CLOSE_WAIT sockets {close_wait:?} do not grow with the connection count"),
    );

    for (attack, _, v, a) in &tables.ablations {
        check(
            v.verdict.flagged() && !a.verdict.flagged(),
            format!(
                "E6: {} is {} on {} and {} on {}, expected flagged then clean",
                attack.name(),
                verdict_text(&v.verdict),
                v.implementation,
                verdict_text(&a.verdict),
                a.implementation
            ),
        );
    }
    failures
}

/// Appends a markdown table, each column padded to its widest cell.
fn table(out: &mut String, header: &[&str], rows: impl Iterator<Item = Vec<String>>) {
    let rows: Vec<Vec<String>> = std::iter::once(header.iter().map(|h| h.to_string()).collect())
        .chain(rows)
        .collect();
    let mut widths = vec![0; header.len()];
    for row in &rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.chars().count());
        }
    }
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    for (i, row) in rows.iter().enumerate() {
        if i == 1 {
            push_row(out, &rule, &widths);
        }
        push_row(out, row, &widths);
    }
}

fn push_row(out: &mut String, row: &[String], widths: &[usize]) {
    for (cell, width) in row.iter().zip(widths) {
        out.push_str(&format!("| {cell:<width$} "));
    }
    out.push_str("|\n");
}

fn witness(attack: KnownAttack) -> (ProtocolKind, Strategy) {
    attack.witness().expect("named attacks have a witness")
}

fn replay(attack: KnownAttack) -> Replay {
    let (protocol, strategy) = witness(attack);
    Replay::run(protocol, strategy)
}

/// Each ablated attack with the behaviour that removes it and the
/// witness's implementation with that behaviour added.
fn ablated_implementations() -> [(KnownAttack, &'static str, ProtocolKind); 4] {
    let mut w95 = Profile::windows_95();
    w95.naive_ack_counting = false;
    w95.name = "Windows 95 (growth fixed)".into();
    let mut w81 = Profile::windows_8_1();
    w81.dsack = true;
    w81.sack_loss_evidence = true;
    w81.name = "Windows 8.1 (+DSACK)".into();
    let mut linux = Profile::linux_3_0_0();
    linux.abort_style = AbortStyle::RstOnly;
    linux.name = "Linux 3.0.0 (RST-only abort)".into();
    let seq_first = ProtocolKind::Dccp(DccpProfile::linux_3_13_seqcheck_fixed());
    [
        (
            KnownAttack::RequestTermination,
            "sequence check before type check",
            seq_first,
        ),
        (
            KnownAttack::DupAckSpoofing,
            "one window step per new ACK",
            ProtocolKind::Tcp(w95),
        ),
        (
            KnownAttack::DupAckRateLimiting,
            "DSACK duplicate filtering",
            ProtocolKind::Tcp(w81),
        ),
        (
            KnownAttack::CloseWaitExhaustion,
            "RST-only abort",
            ProtocolKind::Tcp(linux),
        ),
    ]
}

/// Fires one invalid-flag probe at the client of an established sans-IO
/// connection pair and names its reaction.
fn probe(profile: &Profile, flags: TcpFlags) -> &'static str {
    let t = SimTime::from_millis;
    let mut client = Connection::client(profile.clone(), 1_000);
    let mut server = Connection::server(profile.clone(), 9_000);
    let mut out = Vec::new();
    client.open(&mut out);
    server.on_segment(first_transmit(&mut out), t(1), &mut out);
    client.on_segment(first_transmit(&mut out), t(2), &mut out);
    server.on_segment(first_transmit(&mut out), t(3), &mut out);
    out.clear();

    // The client's rcv_nxt after the handshake is the server's ISS + 1.
    let probe = Seg {
        seq: 9_001,
        ack: 0,
        flags,
        window: 65_535,
        urgent_ptr: 0,
        payload_len: 0,
    };
    client.on_segment(probe, t(4), &mut out);
    let replied = out.iter().any(|e| matches!(e, ConnEvent::Transmit(_)));
    match (client.state(), replied) {
        (State::Closed, _) => "RESET",
        (_, true) => "replies",
        (_, false) => "silent",
    }
}

/// Takes the first transmitted segment out of `events`, clearing them.
fn first_transmit(events: &mut Vec<ConnEvent>) -> Seg {
    let seg = events.iter().find_map(|e| match e {
        ConnEvent::Transmit(s) => Some(*s),
        _ => None,
    });
    events.clear();
    seg.expect("the handshake transmits")
}

/// The larger over the smaller of a campaign baseline's two flows.
fn fairness_ratio(r: &CampaignResult) -> f64 {
    let (t, c) = (r.baseline.target_bytes, r.baseline.competing_bytes);
    t.max(c) as f64 / t.min(c).max(1) as f64
}

fn verdict_text(verdict: &Verdict) -> String {
    if verdict.flagged() {
        verdict.labels().join(", ")
    } else {
        "clean".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::AttackFinding;
    use crate::detect::Envelope;
    use crate::result::{OutcomeKind, StrategyOutcome};
    use crate::scenario::TestMetrics;
    use KnownAttack::*;

    fn finding(attack: KnownAttack) -> AttackFinding {
        let effects = vec!["degradation".into()];
        AttackFinding {
            attack,
            strategy_ids: vec![1],
            example: "example".into(),
            effects,
        }
    }

    /// A campaign over a 100:105 baseline that found `attacks` and flagged
    /// `false_positives` hitseqwindow volume artefacts.
    fn fake_result(
        implementation: &str,
        attacks: &[KnownAttack],
        false_positives: usize,
    ) -> CampaignResult {
        let false_positive = StrategyOutcome {
            strategy: witness(ResetAttack).1,
            verdict: Verdict {
                throughput_degradation: true,
                ..Verdict::default()
            },
            metrics: TestMetrics::empty(),
            repeatable: true,
            on_path: false,
            false_positive: true,
            outcome_kind: OutcomeKind::Ok,
            error: None,
            memo: None,
        };
        let protocol = if implementation.contains("DCCP") {
            "DCCP"
        } else {
            "TCP"
        };
        CampaignResult {
            protocol: protocol.into(),
            implementation: implementation.into(),
            baseline: TestMetrics {
                target_bytes: 100,
                competing_bytes: 105,
                ..TestMetrics::empty()
            },
            outcomes: vec![false_positive; false_positives],
            findings: attacks.iter().copied().map(finding).collect(),
            resumed: 0,
            journal_lines_skipped: 0,
            memo_hits: 0,
            short_circuits: 0,
            baseline_reps: 1,
            envelope: Envelope::from_baseline(&TestMetrics::empty(), DEFAULT_THRESHOLD),
            escalated: 0,
            stalls: 0,
            quarantined: 0,
        }
    }

    fn replayed(attacked_bytes: u64, verdict: Verdict) -> Replay {
        let implementation = "impl".into();
        Replay {
            implementation,
            baseline_bytes: 100,
            attacked_bytes,
            leaked_sockets: 0,
            verdict,
        }
    }

    /// Today's shape, as `snake tables` measures it: every campaign finds
    /// exactly the attacks [`TABLE2_SHAPE`] puts on it, plus `Other`.
    fn todays_shape() -> Tables {
        let campaigns = TCP_IMPLS.iter().chain(DCCP_IMPLS).map(|name| {
            let mut attacks = vec![Other];
            attacks.extend(
                TABLE2_SHAPE
                    .iter()
                    .filter(|(_, on)| on.contains(name))
                    .map(|(a, _)| *a),
            );
            fake_result(name, &attacks, if name.contains("DCCP") { 2 } else { 0 })
        });
        let (clean, gain) = (
            Verdict::default(),
            Verdict {
                throughput_gain: true,
                ..Verdict::default()
            },
        );
        let empirical = |model, flagged| EmpiricalResult {
            model,
            tested: 40,
            flagged,
            full_space: 1_000,
        };
        Tables {
            data_secs: 20,
            campaigns: campaigns.collect(),
            fingerprints: vec![
                (
                    "Linux 3.0.0".into(),
                    vec!["replies", "RESET", "RESET", "RESET"],
                ),
                ("Linux 3.13".into(), vec!["silent"; 4]),
                (
                    "Windows 8.1".into(),
                    vec!["silent", "silent", "silent", "RESET"],
                ),
            ],
            measured: SearchSpaceParams::measured(20_000, 100, 3_000, 20),
            head_to_head: vec![
                empirical("state-based (SNAKE)", 15),
                empirical("send-packet-based", 0),
                empirical("time-interval-based", 0),
            ],
            impacts: vec![
                (DupAckSpoofing, replayed(198, gain)),
                (ResetAttack, replayed(10, clean)),
                (RequestTermination, replayed(0, clean)),
            ],
            close_wait_scaling: vec![(1, 1, 1), (4, 4, 4), (16, 16, 16), (64, 60, 60)],
            ablations: vec![(
                DupAckSpoofing,
                "",
                replayed(198, gain),
                replayed(135, clean),
            )],
        }
    }

    #[test]
    fn todays_shape_passes() {
        let tables = todays_shape();
        assert_eq!(shape_failures(&tables), Vec::<String>::new());
        let rendered = tables.render();
        let row = "| null flags      | replies     | silent     | silent      |\n";
        assert!(rendered.contains(row), "{rendered}");
    }

    /// Breaks today's shape one way and expects exactly the one failure
    /// that names it.
    fn fails_once(break_shape: impl FnOnce(&mut Tables), expected: &str) {
        let mut tables = todays_shape();
        break_shape(&mut tables);
        let failures = shape_failures(&tables);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains(expected), "{failures:?}");
    }

    #[test]
    fn dupack_spoofing_on_linux_3_13_fails_once() {
        fails_once(
            |t| t.campaigns[1].findings.push(finding(DupAckSpoofing)),
            "Duplicate Acknowledgment Spoofing found on [Linux 3.13, Windows 95]",
        );
    }

    #[test]
    fn dccp_without_false_positives_fails_once() {
        fails_once(
            |t| t.campaigns[4].outcomes.clear(),
            "Linux 3.13 (DCCP) has 0 false positives, expected 2",
        );
    }

    #[test]
    fn unfair_baseline_fails_once() {
        fails_once(
            |t| t.campaigns[2].baseline.competing_bytes = 210,
            "Windows 8.1's baseline flows differ by 2.10x",
        );
    }
}

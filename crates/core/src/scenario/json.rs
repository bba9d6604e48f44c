//! The scenario's canonical JSON form, and the metrics codec.
//!
//! [`ScenarioSpec`]'s encoding is the one written form of a scenario: the
//! shard `hello` carries it to every worker, which decodes it and re-derives
//! [`scenario_digest`](super::scenario_digest) from the result, so a field
//! this codec drops or distorts surfaces as a digest mismatch rather than as
//! silently different outcomes. The journal does not carry it yet: its
//! header pins the implementation name, seed, threshold, memoization and
//! impairment, and nothing else of the scenario.
//!
//! [`TestMetrics`] is encoded into every journal line and outcome frame.

use std::sync::Arc;

use snake_dccp::DccpProfile;
use snake_json::{obj, FromJson, JsonError, ObjExt, ToJson, Value};
use snake_netsim::{
    Aqm, DumbbellSpec, FlapSpec, Impairment, LinkSpec, SimDuration, SimTime, TopologyGenSpec,
    TopologyKind,
};
use snake_proxy::ProxyReport;
use snake_tcp::{AbortStyle, InvalidFlagPolicy, Profile};

use super::{FlowGroup, FlowRole, ProtocolKind, ScenarioSpec, TestMetrics, TopologySpec};

impl ToJson for ScenarioSpec {
    fn to_json(&self) -> Value {
        let (protocol, profile) = match &self.protocol {
            ProtocolKind::Tcp(profile) => ("tcp", encode_tcp_profile(profile)),
            ProtocolKind::Dccp(profile) => ("dccp", encode_dccp_profile(profile)),
        };
        obj([
            ("protocol", Value::Str(protocol.to_owned())),
            ("profile", profile),
            ("topology", encode_topology(&self.topology)),
            ("flows", encode_flows(&self.flows)),
            ("data_secs", Value::U64(self.data_secs)),
            ("grace_secs", Value::U64(self.grace_secs)),
            ("seed", Value::U64(self.seed)),
            (
                "target_connections",
                Value::U64(self.target_connections as u64),
            ),
            (
                "event_budget",
                self.event_budget.map_or(Value::Null, Value::U64),
            ),
        ])
    }
}

impl FromJson for ScenarioSpec {
    fn from_json(value: &Value) -> Result<ScenarioSpec, JsonError> {
        let profile = value.req("profile")?;
        let protocol = match value.req_str("protocol")? {
            "tcp" => ProtocolKind::Tcp(decode_tcp_profile(profile)?),
            "dccp" => ProtocolKind::Dccp(decode_dccp_profile(profile)?),
            other => return Err(JsonError::decode(format!("unknown protocol `{other}`"))),
        };
        let spec = ScenarioSpec {
            protocol,
            topology: decode_topology(value.req("topology")?)?,
            flows: decode_flows(value.req("flows")?)?,
            data_secs: value.req_u64("data_secs")?,
            grace_secs: value.req_u64("grace_secs")?,
            seed: value.req_u64("seed")?,
            target_connections: value.req_usize("target_connections")?,
            event_budget: value.req_opt_u64("event_budget")?,
        };
        spec.validate()
            .map_err(|err| JsonError::decode(err.to_string()))?;
        Ok(spec)
    }
}

fn encode_duration(duration: SimDuration) -> Value {
    Value::U64(duration.as_nanos())
}

fn req_duration(value: &Value, key: &str) -> Result<SimDuration, JsonError> {
    value.req_u64(key).map(SimDuration::from_nanos)
}

fn encode_impairment(impair: &Impairment) -> Value {
    obj([
        ("loss_ppm", Value::U64(u64::from(impair.loss_ppm))),
        ("dup_ppm", Value::U64(u64::from(impair.dup_ppm))),
        ("corrupt_ppm", Value::U64(u64::from(impair.corrupt_ppm))),
        ("reorder_ppm", Value::U64(u64::from(impair.reorder_ppm))),
        ("jitter", encode_duration(impair.jitter)),
        (
            "flap",
            match impair.flap {
                None => Value::Null,
                Some(flap) => obj([
                    ("first_down", Value::U64(flap.first_down.as_nanos())),
                    ("down_for", encode_duration(flap.down_for)),
                    ("period", encode_duration(flap.period)),
                ]),
            },
        ),
    ])
}

fn decode_impairment(value: &Value) -> Result<Impairment, JsonError> {
    let flap = match value.req("flap")? {
        Value::Null => None,
        flap => Some(FlapSpec {
            first_down: SimTime::from_nanos(flap.req_u64("first_down")?),
            down_for: req_duration(flap, "down_for")?,
            period: req_duration(flap, "period")?,
        }),
    };
    Ok(Impairment {
        loss_ppm: value.req_u32("loss_ppm")?,
        dup_ppm: value.req_u32("dup_ppm")?,
        corrupt_ppm: value.req_u32("corrupt_ppm")?,
        reorder_ppm: value.req_u32("reorder_ppm")?,
        jitter: req_duration(value, "jitter")?,
        flap,
    })
}

fn encode_link(link: &LinkSpec) -> Value {
    let aqm = match link.aqm {
        Aqm::DropTail => "drop_tail",
        Aqm::Red => "red",
    };
    obj([
        ("bandwidth_bps", Value::U64(link.bandwidth_bps)),
        ("delay", encode_duration(link.delay)),
        ("queue_packets", Value::U64(link.queue_packets as u64)),
        ("aqm", Value::Str(aqm.to_owned())),
        ("impair", encode_impairment(&link.impair)),
    ])
}

fn decode_link(value: &Value) -> Result<LinkSpec, JsonError> {
    let aqm = match value.req_str("aqm")? {
        "drop_tail" => Aqm::DropTail,
        "red" => Aqm::Red,
        other => return Err(JsonError::decode(format!("unknown aqm `{other}`"))),
    };
    Ok(LinkSpec {
        bandwidth_bps: value.req_u64("bandwidth_bps")?,
        delay: req_duration(value, "delay")?,
        queue_packets: value.req_usize("queue_packets")?,
        aqm,
        impair: decode_impairment(value.req("impair")?)?,
    })
}

fn encode_tcp_profile(profile: &Profile) -> Value {
    let invalid_flags = match profile.invalid_flags {
        InvalidFlagPolicy::BestEffort => "best_effort",
        InvalidFlagPolicy::Ignore => "ignore",
        InvalidFlagPolicy::RstAlwaysWins => "rst_always_wins",
    };
    let abort_style = match profile.abort_style {
        AbortStyle::FinThenRst => "fin_then_rst",
        AbortStyle::RstOnly => "rst_only",
    };
    obj([
        ("name", Value::Str(profile.name.clone())),
        (
            "initial_cwnd_segments",
            Value::U64(u64::from(profile.initial_cwnd_segments)),
        ),
        (
            "max_data_retries",
            Value::U64(u64::from(profile.max_data_retries)),
        ),
        ("min_rto", encode_duration(profile.min_rto)),
        ("max_rto", encode_duration(profile.max_rto)),
        (
            "naive_ack_counting",
            Value::Bool(profile.naive_ack_counting),
        ),
        (
            "harsh_dupack_response",
            Value::Bool(profile.harsh_dupack_response),
        ),
        ("invalid_flags", Value::Str(invalid_flags.to_owned())),
        ("abort_style", Value::Str(abort_style.to_owned())),
        ("dsack", Value::Bool(profile.dsack)),
        (
            "sack_loss_evidence",
            Value::Bool(profile.sack_loss_evidence),
        ),
        ("sack_recovery", Value::Bool(profile.sack_recovery)),
        ("syn_retries", Value::U64(u64::from(profile.syn_retries))),
        ("time_wait", encode_duration(profile.time_wait)),
        ("app_close_delay", encode_duration(profile.app_close_delay)),
    ])
}

fn decode_tcp_profile(value: &Value) -> Result<Profile, JsonError> {
    let invalid_flags = match value.req_str("invalid_flags")? {
        "best_effort" => InvalidFlagPolicy::BestEffort,
        "ignore" => InvalidFlagPolicy::Ignore,
        "rst_always_wins" => InvalidFlagPolicy::RstAlwaysWins,
        other => {
            return Err(JsonError::decode(format!(
                "unknown invalid_flags policy `{other}`"
            )))
        }
    };
    let abort_style = match value.req_str("abort_style")? {
        "fin_then_rst" => AbortStyle::FinThenRst,
        "rst_only" => AbortStyle::RstOnly,
        other => return Err(JsonError::decode(format!("unknown abort_style `{other}`"))),
    };
    Ok(Profile {
        name: value.req_str("name")?.to_owned(),
        initial_cwnd_segments: value.req_u32("initial_cwnd_segments")?,
        max_data_retries: value.req_u32("max_data_retries")?,
        min_rto: req_duration(value, "min_rto")?,
        max_rto: req_duration(value, "max_rto")?,
        naive_ack_counting: value.req_bool("naive_ack_counting")?,
        harsh_dupack_response: value.req_bool("harsh_dupack_response")?,
        invalid_flags,
        abort_style,
        dsack: value.req_bool("dsack")?,
        sack_loss_evidence: value.req_bool("sack_loss_evidence")?,
        sack_recovery: value.req_bool("sack_recovery")?,
        syn_retries: value.req_u32("syn_retries")?,
        time_wait: req_duration(value, "time_wait")?,
        app_close_delay: req_duration(value, "app_close_delay")?,
    })
}

fn encode_dccp_profile(profile: &DccpProfile) -> Value {
    obj([
        ("name", Value::Str(profile.name.clone())),
        (
            "initial_cwnd_packets",
            Value::U64(u64::from(profile.initial_cwnd_packets)),
        ),
        ("seq_window", Value::U64(profile.seq_window)),
        ("ack_ratio", Value::U64(u64::from(profile.ack_ratio))),
        ("tx_qlen", Value::U64(profile.tx_qlen as u64)),
        ("min_rto", encode_duration(profile.min_rto)),
        ("max_rto", encode_duration(profile.max_rto)),
        (
            "request_retries",
            Value::U64(u64::from(profile.request_retries)),
        ),
        (
            "close_retries",
            Value::U64(u64::from(profile.close_retries)),
        ),
        (
            "type_check_before_seq",
            Value::Bool(profile.type_check_before_seq),
        ),
        ("time_wait", encode_duration(profile.time_wait)),
    ])
}

fn decode_dccp_profile(value: &Value) -> Result<DccpProfile, JsonError> {
    Ok(DccpProfile {
        name: value.req_str("name")?.to_owned(),
        initial_cwnd_packets: value.req_u32("initial_cwnd_packets")?,
        seq_window: value.req_u64("seq_window")?,
        ack_ratio: value.req_u32("ack_ratio")?,
        tx_qlen: value.req_usize("tx_qlen")?,
        min_rto: req_duration(value, "min_rto")?,
        max_rto: req_duration(value, "max_rto")?,
        request_retries: value.req_u32("request_retries")?,
        close_retries: value.req_u32("close_retries")?,
        type_check_before_seq: value.req_bool("type_check_before_seq")?,
        time_wait: req_duration(value, "time_wait")?,
    })
}

fn encode_topology(topology: &TopologySpec) -> Value {
    match topology {
        TopologySpec::Dumbbell(d) => obj([
            ("kind", Value::Str("dumbbell".to_owned())),
            ("bottleneck", encode_link(&d.bottleneck)),
            ("access", encode_link(&d.access)),
        ]),
        TopologySpec::Generated(g) => obj([
            ("kind", Value::Str(g.kind.label().to_owned())),
            ("hosts", Value::U64(g.hosts as u64)),
            // The topology seed is carried explicitly: ensemble reseeding
            // rewrites the scenario seed but must leave the generated
            // network identical across members.
            ("topo_seed", Value::U64(g.seed)),
            ("bottleneck", encode_link(&g.bottleneck)),
            ("access", encode_link(&g.access)),
        ]),
    }
}

fn decode_topology(value: &Value) -> Result<TopologySpec, JsonError> {
    let bottleneck = decode_link(value.req("bottleneck")?)?;
    let access = decode_link(value.req("access")?)?;
    match value.req_str("kind")? {
        "dumbbell" => Ok(TopologySpec::Dumbbell(DumbbellSpec { bottleneck, access })),
        label => {
            let kind = TopologyKind::from_label(label)
                .ok_or_else(|| JsonError::decode(format!("unknown topology kind `{label}`")))?;
            Ok(TopologySpec::Generated(TopologyGenSpec {
                kind,
                hosts: value.req_usize("hosts")?,
                seed: value.req_u64("topo_seed")?,
                bottleneck,
                access,
            }))
        }
    }
}

fn encode_flows(flows: &Option<Vec<FlowGroup>>) -> Value {
    let group = |g: &FlowGroup| {
        obj([
            ("role", Value::Str(g.role.label().to_owned())),
            ("count", Value::U64(g.count as u64)),
        ])
    };
    flows.as_ref().map_or(Value::Null, |groups| {
        Value::Arr(groups.iter().map(group).collect())
    })
}

fn decode_flows(value: &Value) -> Result<Option<Vec<FlowGroup>>, JsonError> {
    match value {
        Value::Null => Ok(None),
        Value::Arr(entries) => {
            let mut groups = Vec::with_capacity(entries.len());
            for entry in entries {
                let label = entry.req_str("role")?;
                let role = FlowRole::from_label(label)
                    .ok_or_else(|| JsonError::decode(format!("unknown flow role `{label}`")))?;
                groups.push(FlowGroup {
                    role,
                    count: entry.req_usize("count")?,
                });
            }
            Ok(Some(groups))
        }
        _ => Err(JsonError::decode("flows: expected null or array")),
    }
}

impl ToJson for TestMetrics {
    fn to_json(&self) -> Value {
        obj([
            ("target_bytes", Value::U64(self.target_bytes)),
            ("competing_bytes", Value::U64(self.competing_bytes)),
            ("leaked_sockets", Value::U64(self.leaked_sockets as u64)),
            (
                "leaked_close_wait",
                Value::U64(self.leaked_close_wait as u64),
            ),
            (
                "leaked_with_queue",
                Value::U64(self.leaked_with_queue as u64),
            ),
            ("truncated", Value::Bool(self.truncated)),
            ("sim_events", Value::U64(self.sim_events)),
            (
                "flow_bytes",
                Value::Arr(self.flow_bytes.iter().map(|&b| Value::U64(b)).collect()),
            ),
            ("server_sockets", Value::U64(self.server_sockets as u64)),
            ("leaked_total", Value::U64(self.leaked_total as u64)),
            ("proxy", self.proxy.to_json()),
        ])
    }
}

impl FromJson for TestMetrics {
    fn from_json(value: &Value) -> Result<TestMetrics, JsonError> {
        let target_bytes = value.req_u64("target_bytes")?;
        let competing_bytes = value.req_u64("competing_bytes")?;
        let leaked_sockets = value.req_usize("leaked_sockets")?;
        // The cross-flow fields postdate the journal format. An old line
        // decodes to the values its classic two-flow run would have
        // measured: the two known per-flow byte counts, no occupancy
        // reading, and the attacked server's leaks as the total.
        let flow_bytes = match value.get("flow_bytes") {
            Some(v) => v
                .as_arr()
                .ok_or_else(|| JsonError::decode("field `flow_bytes` is not an array"))?
                .iter()
                .map(|b| {
                    b.as_u64()
                        .ok_or_else(|| JsonError::decode("flow_bytes entries must be u64"))
                })
                .collect::<Result<Vec<u64>, JsonError>>()?,
            None => vec![target_bytes, competing_bytes],
        };
        let server_sockets = if value.get("server_sockets").is_some() {
            value.req_usize("server_sockets")?
        } else {
            0
        };
        let leaked_total = if value.get("leaked_total").is_some() {
            value.req_usize("leaked_total")?
        } else {
            leaked_sockets
        };
        Ok(TestMetrics {
            target_bytes,
            competing_bytes,
            leaked_sockets,
            leaked_close_wait: value.req_usize("leaked_close_wait")?,
            leaked_with_queue: value.req_usize("leaked_with_queue")?,
            truncated: value.req_bool("truncated")?,
            // Journals written before event accounting lack the field;
            // default to zero rather than rejecting the whole journal.
            sim_events: if value.get("sim_events").is_some() {
                value.req_u64("sim_events")?
            } else {
                0
            },
            flow_bytes,
            server_sockets,
            leaked_total,
            proxy: Arc::new(ProxyReport::from_json(value.req("proxy")?)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::TestRng;
    use snake_netsim::{FlapSpec, Impairment, LinkSpec, SimDuration, SimTime, TopologyKind};

    use super::*;
    use crate::scenario::scenario_digest;

    fn pick<T: Clone>(rng: &mut TestRng, items: &[T]) -> T {
        items[(rng.next_u64() % items.len() as u64) as usize].clone()
    }

    /// `lo..=hi`.
    fn between(rng: &mut TestRng, lo: u64, hi: u64) -> u64 {
        lo + rng.next_u64() % (hi - lo + 1)
    }

    fn arb_link(rng: &mut TestRng) -> LinkSpec {
        LinkSpec {
            bandwidth_bps: between(rng, 1, 10_000_000_000),
            delay: SimDuration::from_nanos(between(rng, 0, 100_000_000)),
            queue_packets: between(rng, 1, 1_000) as usize,
            aqm: pick(rng, &[Aqm::DropTail, Aqm::Red]),
            impair: Impairment::NONE,
        }
    }

    fn arb_impairment(rng: &mut TestRng) -> Impairment {
        let mut ppm = || between(rng, 0, 1_000_000) as u32;
        let (loss_ppm, dup_ppm, corrupt_ppm, reorder_ppm) = (ppm(), ppm(), ppm(), ppm());
        let flap = (rng.next_u64() & 1 == 1).then(|| {
            let period = between(rng, 2, 10_000_000_000);
            FlapSpec {
                first_down: SimTime::from_nanos(between(rng, 0, 10_000_000_000)),
                down_for: SimDuration::from_nanos(between(rng, 1, period - 1)),
                period: SimDuration::from_nanos(period),
            }
        });
        Impairment {
            loss_ppm,
            dup_ppm,
            corrupt_ppm,
            reorder_ppm,
            jitter: SimDuration::from_nanos(between(rng, 0, 10_000_000)),
            flap,
        }
    }

    /// A flow mix with exactly one attacked group, the others drawn from
    /// the background roles.
    fn arb_flows(rng: &mut TestRng) -> Vec<FlowGroup> {
        let mut flows = vec![FlowGroup {
            role: FlowRole::Attacked,
            count: between(rng, 1, 4) as usize,
        }];
        for role in [
            FlowRole::Bulk,
            FlowRole::RequestResponse,
            FlowRole::SynPressure,
        ] {
            if rng.next_u64() & 1 == 1 {
                let at = (rng.next_u64() % (flows.len() as u64 + 1)) as usize;
                let count = between(rng, 1, 4) as usize;
                flows.insert(at, FlowGroup { role, count });
            }
        }
        flows
    }

    /// Any spec the builder accepts: every shipped profile, the dumbbell
    /// or a small generated topology, with and without impairment and
    /// event budget.
    #[derive(Debug)]
    struct ArbSpec;

    impl Strategy for ArbSpec {
        type Value = ScenarioSpec;

        fn generate(&self, rng: &mut TestRng) -> ScenarioSpec {
            let mut protocols: Vec<ProtocolKind> =
                Profile::all().into_iter().map(ProtocolKind::Tcp).collect();
            protocols.push(ProtocolKind::Dccp(DccpProfile::linux_3_13()));
            let mut builder = ScenarioSpec::builder(pick(rng, &protocols))
                .seed(rng.next_u64())
                .data_secs(between(rng, 1, 60))
                .grace_secs(between(rng, 0, 60))
                .target_connections(between(rng, 1, 8) as usize)
                .bottleneck(arb_link(rng))
                .access(arb_link(rng));
            if rng.next_u64() & 1 == 1 {
                let kind = pick(
                    rng,
                    &[
                        TopologyKind::Star,
                        TopologyKind::Tree,
                        TopologyKind::MultiBottleneck,
                    ],
                );
                builder = builder
                    .topology(kind, between(rng, 4, 24) as usize)
                    .flows(arb_flows(rng));
            }
            if rng.next_u64() & 1 == 1 {
                builder = builder.impairment(arb_impairment(rng));
            }
            if rng.next_u64() & 1 == 1 {
                builder = builder.event_budget(rng.next_u64());
            }
            builder.build().expect("generated settings are valid")
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn canonical_form_roundtrips_every_buildable_spec(spec in ArbSpec) {
            let text = spec.to_json().to_string_compact();
            let back = ScenarioSpec::from_json(&snake_json::parse(&text).unwrap()).unwrap();
            prop_assert_eq!(&back, &spec, "{}", text);
            prop_assert_eq!(scenario_digest(&back, 0.5, 1), scenario_digest(&spec, 0.5, 1));
            prop_assert_eq!(back.to_json().to_string_compact(), text);
        }
    }
}

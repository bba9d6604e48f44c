//! JSON round-tripping for strategies and proxy reports — the campaign
//! journal stores both so a resumed run can verify it is replaying the same
//! strategy and can rebuild the feedback loop's observation data.

use snake_json::{obj, FromJson, JsonError, ObjExt, ToJson, Value};
use snake_packet::FieldMutation;
use snake_statemachine::{Dir, Label};

use crate::proxy::{Observation, ProxyReport};
use crate::strategy::{
    BasicAttack, Endpoint, InjectDirection, InjectionAttack, SeqChoice, Strategy, StrategyKind,
};

impl ToJson for Endpoint {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl FromJson for Endpoint {
    fn from_json(value: &Value) -> Result<Endpoint, JsonError> {
        match value.as_str() {
            Some("client") => Ok(Endpoint::Client),
            Some("server") => Ok(Endpoint::Server),
            _ => Err(JsonError::decode(
                "endpoint must be \"client\" or \"server\"",
            )),
        }
    }
}

/// A state or packet-type name, mapped into the label vocabulary. A known
/// name allocates nothing; a new one is admitted, and past the
/// vocabulary's bound the value does not decode.
fn label_from_json(value: &Value, what: &str) -> Result<Label, JsonError> {
    let text = value
        .as_str()
        .ok_or_else(|| JsonError::decode(format!("{what} must be a string")))?;
    Label::intern(text).map_err(|e| JsonError::decode(format!("{what}: {e}")))
}

fn label_to_json(label: Label) -> Value {
    Value::Str(label.as_str().to_owned())
}

impl ToJson for Observation {
    fn to_json(&self) -> Value {
        Value::Arr(vec![
            self.endpoint.to_json(),
            label_to_json(self.state),
            label_to_json(self.packet_type),
            Value::Str(self.dir.as_str().to_owned()),
            Value::U64(self.count),
        ])
    }
}

impl FromJson for Observation {
    fn from_json(value: &Value) -> Result<Observation, JsonError> {
        let tuple = value
            .as_arr()
            .filter(|t| t.len() == 5)
            .ok_or_else(|| JsonError::decode("observation must be a 5-element array"))?;
        let dir = match tuple[3].as_str() {
            Some("send") => Dir::Send,
            Some("recv") => Dir::Recv,
            _ => {
                return Err(JsonError::decode(
                    "observation direction must be \"send\" or \"recv\"",
                ))
            }
        };
        Ok(Observation {
            endpoint: Endpoint::from_json(&tuple[0])?,
            state: label_from_json(&tuple[1], "observation state")?,
            packet_type: label_from_json(&tuple[2], "observation packet type")?,
            dir,
            count: tuple[4]
                .as_u64()
                .ok_or_else(|| JsonError::decode("observation count must be an integer"))?,
        })
    }
}

impl ToJson for SeqChoice {
    fn to_json(&self) -> Value {
        Value::Str(
            match self {
                SeqChoice::Zero => "zero",
                SeqChoice::Random => "random",
                SeqChoice::Max => "max",
            }
            .to_owned(),
        )
    }
}

impl FromJson for SeqChoice {
    fn from_json(value: &Value) -> Result<SeqChoice, JsonError> {
        match value.as_str() {
            Some("zero") => Ok(SeqChoice::Zero),
            Some("random") => Ok(SeqChoice::Random),
            Some("max") => Ok(SeqChoice::Max),
            _ => Err(JsonError::decode("seq must be zero/random/max")),
        }
    }
}

impl ToJson for InjectDirection {
    fn to_json(&self) -> Value {
        Value::Str(
            match self {
                InjectDirection::ToClient => "to-client",
                InjectDirection::ToServer => "to-server",
            }
            .to_owned(),
        )
    }
}

impl FromJson for InjectDirection {
    fn from_json(value: &Value) -> Result<InjectDirection, JsonError> {
        match value.as_str() {
            Some("to-client") => Ok(InjectDirection::ToClient),
            Some("to-server") => Ok(InjectDirection::ToServer),
            _ => Err(JsonError::decode("direction must be to-client/to-server")),
        }
    }
}

impl ToJson for BasicAttack {
    fn to_json(&self) -> Value {
        match self {
            BasicAttack::Drop { percent } => obj([
                ("attack", Value::Str("drop".into())),
                ("percent", Value::U64(u64::from(*percent))),
            ]),
            BasicAttack::Duplicate { copies } => obj([
                ("attack", Value::Str("duplicate".into())),
                ("copies", Value::U64(u64::from(*copies))),
            ]),
            BasicAttack::Delay { secs } => obj([
                ("attack", Value::Str("delay".into())),
                ("secs", Value::F64(*secs)),
            ]),
            BasicAttack::Batch { secs } => obj([
                ("attack", Value::Str("batch".into())),
                ("secs", Value::F64(*secs)),
            ]),
            BasicAttack::Reflect => obj([("attack", Value::Str("reflect".into()))]),
            BasicAttack::Lie { field, mutation } => obj([
                ("attack", Value::Str("lie".into())),
                ("field", Value::Str(field.clone())),
                ("mutation", mutation.to_json()),
            ]),
        }
    }
}

impl FromJson for BasicAttack {
    fn from_json(value: &Value) -> Result<BasicAttack, JsonError> {
        Ok(match value.req_str("attack")? {
            "drop" => {
                let percent = value.req_u64("percent")?;
                BasicAttack::Drop {
                    percent: u8::try_from(percent)
                        .map_err(|_| JsonError::decode("drop percent out of range"))?,
                }
            }
            "duplicate" => {
                let copies = value.req_u64("copies")?;
                BasicAttack::Duplicate {
                    copies: u32::try_from(copies)
                        .map_err(|_| JsonError::decode("duplicate copies out of range"))?,
                }
            }
            "delay" => BasicAttack::Delay {
                secs: value.req_f64("secs")?,
            },
            "batch" => BasicAttack::Batch {
                secs: value.req_f64("secs")?,
            },
            "reflect" => BasicAttack::Reflect,
            "lie" => BasicAttack::Lie {
                field: value.req_str("field")?.to_owned(),
                mutation: FieldMutation::from_json(value.req("mutation")?)?,
            },
            other => return Err(JsonError::decode(format!("unknown basic attack `{other}`"))),
        })
    }
}

impl ToJson for InjectionAttack {
    fn to_json(&self) -> Value {
        match self {
            InjectionAttack::Inject {
                packet_type,
                seq,
                direction,
                repeat,
            } => obj([
                ("attack", Value::Str("inject".into())),
                ("packet_type", Value::Str(packet_type.clone())),
                ("seq", seq.to_json()),
                ("direction", direction.to_json()),
                ("repeat", Value::U64(u64::from(*repeat))),
            ]),
            InjectionAttack::HitSeqWindow {
                packet_type,
                direction,
                stride,
                count,
                rate_pps,
                inert,
            } => obj([
                ("attack", Value::Str("hit_seq_window".into())),
                ("packet_type", Value::Str(packet_type.clone())),
                ("direction", direction.to_json()),
                ("stride", Value::U64(*stride)),
                ("count", Value::U64(*count)),
                ("rate_pps", Value::U64(*rate_pps)),
                ("inert", Value::Bool(*inert)),
            ]),
        }
    }
}

impl FromJson for InjectionAttack {
    fn from_json(value: &Value) -> Result<InjectionAttack, JsonError> {
        Ok(match value.req_str("attack")? {
            "inject" => InjectionAttack::Inject {
                packet_type: value.req_str("packet_type")?.to_owned(),
                seq: SeqChoice::from_json(value.req("seq")?)?,
                direction: InjectDirection::from_json(value.req("direction")?)?,
                repeat: value.req_u32("repeat")?,
            },
            "hit_seq_window" => InjectionAttack::HitSeqWindow {
                packet_type: value.req_str("packet_type")?.to_owned(),
                direction: InjectDirection::from_json(value.req("direction")?)?,
                stride: value.req_u64("stride")?,
                count: value.req_u64("count")?,
                rate_pps: value.req_u64("rate_pps")?,
                inert: value.req_bool("inert")?,
            },
            other => {
                return Err(JsonError::decode(format!(
                    "unknown injection attack `{other}`"
                )))
            }
        })
    }
}

impl ToJson for StrategyKind {
    fn to_json(&self) -> Value {
        match self {
            StrategyKind::OnPacket {
                endpoint,
                state,
                packet_type,
                attack,
            } => obj([
                ("kind", Value::Str("on_packet".into())),
                ("endpoint", endpoint.to_json()),
                ("state", Value::Str(state.clone())),
                ("packet_type", Value::Str(packet_type.clone())),
                ("basic", attack.to_json()),
            ]),
            StrategyKind::OnState {
                endpoint,
                state,
                attack,
            } => obj([
                ("kind", Value::Str("on_state".into())),
                ("endpoint", endpoint.to_json()),
                ("state", Value::Str(state.clone())),
                ("injection", attack.to_json()),
            ]),
            StrategyKind::OnNthPacket {
                endpoint,
                n,
                attack,
            } => obj([
                ("kind", Value::Str("on_nth_packet".into())),
                ("endpoint", endpoint.to_json()),
                ("n", Value::U64(*n)),
                ("basic", attack.to_json()),
            ]),
            StrategyKind::AtTime { at_secs, attack } => obj([
                ("kind", Value::Str("at_time".into())),
                ("at_secs", Value::F64(*at_secs)),
                ("injection", attack.to_json()),
            ]),
        }
    }
}

impl FromJson for StrategyKind {
    fn from_json(value: &Value) -> Result<StrategyKind, JsonError> {
        Ok(match value.req_str("kind")? {
            "on_packet" => StrategyKind::OnPacket {
                endpoint: Endpoint::from_json(value.req("endpoint")?)?,
                state: value.req_str("state")?.to_owned(),
                packet_type: value.req_str("packet_type")?.to_owned(),
                attack: BasicAttack::from_json(value.req("basic")?)?,
            },
            "on_state" => StrategyKind::OnState {
                endpoint: Endpoint::from_json(value.req("endpoint")?)?,
                state: value.req_str("state")?.to_owned(),
                attack: InjectionAttack::from_json(value.req("injection")?)?,
            },
            "on_nth_packet" => StrategyKind::OnNthPacket {
                endpoint: Endpoint::from_json(value.req("endpoint")?)?,
                n: value.req_u64("n")?,
                attack: BasicAttack::from_json(value.req("basic")?)?,
            },
            "at_time" => StrategyKind::AtTime {
                at_secs: value.req_f64("at_secs")?,
                attack: InjectionAttack::from_json(value.req("injection")?)?,
            },
            other => {
                return Err(JsonError::decode(format!(
                    "unknown strategy kind `{other}`"
                )))
            }
        })
    }
}

impl ToJson for Strategy {
    fn to_json(&self) -> Value {
        obj([
            ("id", Value::U64(self.id)),
            ("strategy", self.kind.to_json()),
        ])
    }
}

impl FromJson for Strategy {
    fn from_json(value: &Value) -> Result<Strategy, JsonError> {
        Ok(Strategy {
            id: value.req_u64("id")?,
            kind: StrategyKind::from_json(value.req("strategy")?)?,
        })
    }
}

impl ToJson for ProxyReport {
    fn to_json(&self) -> Value {
        obj([
            ("packets_seen", Value::U64(self.packets_seen)),
            ("matched", Value::U64(self.matched)),
            ("dropped", Value::U64(self.dropped)),
            ("duplicates", Value::U64(self.duplicates)),
            ("delayed", Value::U64(self.delayed)),
            ("batched", Value::U64(self.batched)),
            ("reflected", Value::U64(self.reflected)),
            ("lied", Value::U64(self.lied)),
            ("injected", Value::U64(self.injected)),
            (
                "rule_hits",
                Value::Arr(
                    self.rule_hits
                        .iter()
                        .map(|(ri, n)| Value::Arr(vec![Value::U64(*ri as u64), Value::U64(*n)]))
                        .collect(),
                ),
            ),
            (
                "observed",
                Value::Arr(self.observed.iter().map(ToJson::to_json).collect()),
            ),
            ("client_final_state", label_to_json(self.client_final_state)),
            ("server_final_state", label_to_json(self.server_final_state)),
        ])
    }
}

impl FromJson for ProxyReport {
    fn from_json(value: &Value) -> Result<ProxyReport, JsonError> {
        let observed = value
            .req("observed")?
            .as_arr()
            .ok_or_else(|| JsonError::decode("`observed` must be an array"))?
            .iter()
            .map(Observation::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ProxyReport {
            packets_seen: value.req_u64("packets_seen")?,
            matched: value.req_u64("matched")?,
            dropped: value.req_u64("dropped")?,
            duplicates: value.req_u64("duplicates")?,
            delayed: value.req_u64("delayed")?,
            batched: value.req_u64("batched")?,
            reflected: value.req_u64("reflected")?,
            lied: value.req_u64("lied")?,
            injected: value.req_u64("injected")?,
            // Absent in journals written before per-rule hit counting;
            // default to no recorded hits.
            rule_hits: match value.get("rule_hits") {
                Some(raw) => {
                    let entries = raw
                        .as_arr()
                        .ok_or_else(|| JsonError::decode("`rule_hits` must be an array"))?;
                    let mut hits = Vec::with_capacity(entries.len());
                    for entry in entries {
                        let pair = entry.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                            JsonError::decode("rule hit must be a [index, count] pair")
                        })?;
                        let ri = pair[0]
                            .as_u64()
                            .and_then(|v| u32::try_from(v).ok())
                            .ok_or_else(|| JsonError::decode("rule index must fit in u32"))?;
                        let n = pair[1].as_u64().ok_or_else(|| {
                            JsonError::decode("rule hit count must be an integer")
                        })?;
                        hits.push((ri, n));
                    }
                    hits
                }
                None => Vec::new(),
            },
            observed,
            client_final_state: label_from_json(
                value.req("client_final_state")?,
                "client_final_state",
            )?,
            server_final_state: label_from_json(
                value.req("server_final_state")?,
                "server_final_state",
            )?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(strategy: Strategy) {
        let text = strategy.to_json().to_string_compact();
        let back = Strategy::from_json(&snake_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, strategy, "{text}");
    }

    #[test]
    fn every_strategy_kind_roundtrips() {
        roundtrip(Strategy {
            id: 1,
            kind: StrategyKind::OnPacket {
                endpoint: Endpoint::Client,
                state: "ESTABLISHED".into(),
                packet_type: "ACK".into(),
                attack: BasicAttack::Lie {
                    field: "seq".into(),
                    mutation: FieldMutation::Add(25),
                },
            },
        });
        roundtrip(Strategy {
            id: 2,
            kind: StrategyKind::OnState {
                endpoint: Endpoint::Server,
                state: "REQUEST".into(),
                attack: InjectionAttack::Inject {
                    packet_type: "SYNC".into(),
                    seq: SeqChoice::Random,
                    direction: InjectDirection::ToClient,
                    repeat: 3,
                },
            },
        });
        roundtrip(Strategy {
            id: 3,
            kind: StrategyKind::OnNthPacket {
                endpoint: Endpoint::Client,
                n: 17,
                attack: BasicAttack::Drop { percent: 100 },
            },
        });
        roundtrip(Strategy {
            id: 4,
            kind: StrategyKind::AtTime {
                at_secs: 2.5,
                attack: InjectionAttack::HitSeqWindow {
                    packet_type: "RST".into(),
                    direction: InjectDirection::ToServer,
                    stride: 65_535,
                    count: 66_000,
                    rate_pps: 20_000,
                    inert: true,
                },
            },
        });
    }

    #[test]
    fn proxy_report_roundtrips() {
        let report = ProxyReport {
            packets_seen: 10,
            matched: 3,
            dropped: 1,
            duplicates: 0,
            delayed: 0,
            batched: 0,
            reflected: 0,
            lied: 2,
            injected: 5,
            rule_hits: vec![(0, 3), (2, 5)],
            observed: vec![Observation {
                endpoint: Endpoint::Client,
                state: Label::seeded("ESTABLISHED"),
                packet_type: Label::seeded("ACK"),
                dir: Dir::Send,
                count: 7,
            }],
            client_final_state: Label::seeded("CLOSED"),
            server_final_state: Label::seeded("CLOSE_WAIT"),
        };
        let text = report.to_json().to_string_compact();
        let back = ProxyReport::from_json(&snake_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn mismatched_strategy_fields_fail_loud() {
        let v = snake_json::parse(r#"{"id":1,"strategy":{"kind":"on_packet","endpoint":"moon"}}"#)
            .unwrap();
        assert!(Strategy::from_json(&v).is_err());
    }
}

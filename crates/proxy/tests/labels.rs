//! Observations as labels, against the journal's bytes: a report's
//! `observed` list must encode exactly as the string form it replaced did,
//! decode back to the same labels, and sort as its text sorts.

use proptest::prelude::*;
use snake_json::{FromJson, ToJson};
use snake_proxy::{Endpoint, Observation, ProxyReport};
use snake_statemachine::{Dir, Label};

/// Seeded names, the empty name, and names only an inferred machine or a
/// test would use (admitted on first decode).
const NAMES: [&str; 14] = [
    "",
    "ACK",
    "CLOSE",
    "CLOSED",
    "CLOSE_WAIT",
    "ESTABLISHED",
    "RESPOND",
    "SYN",
    "SYN+ACK",
    "SYN_SENT",
    "S0",
    "S12",
    "S3",
    "custom-type",
];

fn text(o: &Observation) -> (String, &'static str, &'static str, String, u64) {
    (
        o.endpoint.to_string(),
        o.state.as_str(),
        o.packet_type.as_str(),
        o.dir.to_string(),
        o.count,
    )
}

fn report(observed: Vec<Observation>, client: Label, server: Label) -> ProxyReport {
    ProxyReport {
        packets_seen: observed.len() as u64,
        observed,
        client_final_state: client,
        server_final_state: server,
        ..ProxyReport::default()
    }
}

fn roundtrip_text(report: &ProxyReport) -> (ProxyReport, String) {
    let text = report.to_json().to_string_compact();
    let back = ProxyReport::from_json(&snake_json::parse(&text).unwrap()).unwrap();
    (back, text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn observations_roundtrip_byte_for_byte_and_sort_by_text(
        raw in prop::collection::vec(
            (any::<bool>(), 0usize..NAMES.len(), 0usize..NAMES.len(), any::<bool>(), any::<u64>()),
            0..48,
        ),
        finals in (0usize..NAMES.len(), 0usize..NAMES.len()),
    ) {
        let label = |i: usize| Label::intern(NAMES[i]).unwrap();
        let mut observed: Vec<Observation> = raw
            .iter()
            .map(|&(client, state, ptype, send, count)| Observation {
                endpoint: if client { Endpoint::Client } else { Endpoint::Server },
                state: label(state),
                packet_type: label(ptype),
                dir: if send { Dir::Send } else { Dir::Recv },
                count,
            })
            .collect();

        // Encode -> decode -> encode: same report, same bytes, in the
        // order given (the codec never reorders).
        let original = report(observed.clone(), label(finals.0), label(finals.1));
        let (back, first) = roundtrip_text(&original);
        prop_assert_eq!(&back, &original);
        let (_, second) = roundtrip_text(&back);
        prop_assert_eq!(&first, &second);

        // Sorting labels sorts their text: what a report holds in memory
        // and what its journal line spells agree on order.
        let mut by_text: Vec<_> = observed.iter().map(text).collect();
        by_text.sort();
        observed.sort();
        let sorted: Vec<_> = observed.iter().map(text).collect();
        prop_assert_eq!(sorted, by_text);
    }
}

#[test]
fn empty_final_states_roundtrip() {
    let empty = report(Vec::new(), Label::EMPTY, Label::EMPTY);
    let (back, text) = roundtrip_text(&empty);
    assert_eq!(back, empty);
    assert!(
        text.contains(r#""observed":[],"client_final_state":"","server_final_state":"""#),
        "{text}"
    );
}

#[test]
fn recv_sorts_before_send() {
    let obs = |dir| Observation {
        endpoint: Endpoint::Client,
        state: Label::seeded("ESTABLISHED"),
        packet_type: Label::seeded("ACK"),
        dir,
        count: 1,
    };
    assert!(obs(Dir::Recv) < obs(Dir::Send));
}

#[test]
fn malformed_observations_do_not_decode() {
    for observed in [
        r#"[["client","CLOSED","SYN","out",1]]"#,
        r#"[["moon","CLOSED","SYN","send",1]]"#,
        r#"[["client",7,"SYN","send",1]]"#,
        r#"[["client","CLOSED","SYN","send"]]"#,
    ] {
        let line = format!(
            r#"{{"packets_seen":0,"matched":0,"dropped":0,"duplicates":0,"delayed":0,"batched":0,"reflected":0,"lied":0,"injected":0,"observed":{observed},"client_final_state":"","server_final_state":""}}"#
        );
        let value = snake_json::parse(&line).unwrap();
        assert!(ProxyReport::from_json(&value).is_err(), "{observed}");
    }
}

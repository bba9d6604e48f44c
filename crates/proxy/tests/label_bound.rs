//! The label vocabulary's bound, from the decoder's side: a journal line
//! naming one state more than the process admits is malformed, and the
//! vocabulary does not grow past its bound. Once it is full, the by-name
//! tracker entry points skip a new name instead of panicking.
//!
//! A test binary of its own, because it fills the process-wide vocabulary.

use snake_json::FromJson;
use snake_proxy::ProxyReport;
use snake_statemachine::{
    tcp_state_machine, Dir, Event, Label, PairTracker, StateMachine, StateMachineError, Tracker,
    LABEL_BOUND,
};

fn decode_with_state(state: &str) -> Result<ProxyReport, snake_json::JsonError> {
    let line = format!(
        r#"{{"packets_seen":1,"matched":0,"dropped":0,"duplicates":0,"delayed":0,"batched":0,"reflected":0,"lied":0,"injected":0,"observed":[["client","{state}","SYN","send",1]],"client_final_state":"CLOSED","server_final_state":""}}"#
    );
    ProxyReport::from_json(&snake_json::parse(&line).unwrap())
}

#[test]
fn one_label_past_the_bound_fails_to_decode() {
    assert_eq!(Label::admitted(), 0);
    for i in 0..LABEL_BOUND {
        let report = decode_with_state(&format!("UNKNOWN_{i}")).expect("within the bound");
        assert_eq!(report.observed[0].state.as_str(), format!("UNKNOWN_{i}"));
    }
    assert_eq!(Label::admitted(), LABEL_BOUND);

    let err = decode_with_state(&format!("UNKNOWN_{LABEL_BOUND}")).unwrap_err();
    assert!(err.to_string().contains("vocabulary is full"), "{err}");
    assert_eq!(Label::admitted(), LABEL_BOUND);

    // Known names, seeded or admitted, still decode.
    decode_with_state("ESTABLISHED").expect("seeded");
    decode_with_state("UNKNOWN_0").expect("admitted");
    assert_eq!(Label::admitted(), LABEL_BOUND);

    // One test, not two: the tests of a binary share its vocabulary.
    trackers_skip_names_a_full_vocabulary_cannot_admit();
}

fn trackers_skip_names_a_full_vocabulary_cannot_admit() {
    let mut pair = PairTracker::new(tcp_state_machine(), "CLOSED", "LISTEN").unwrap();
    pair.observe_packet(true, "NEVER_ADMITTED", 1);
    pair.observe_packet(true, "SYN", 2);
    let client = pair.client();
    assert_eq!(client.current_name(), "SYN_SENT");
    let closed = client.stats(client.machine().state("CLOSED").unwrap());
    assert_eq!(closed.packet_count(), 1, "only the SYN is counted");

    let mut tracker = Tracker::new(tcp_state_machine(), "CLOSED").unwrap();
    let closed = tracker.current();
    assert_eq!(tracker.observe(Dir::Send, "NEVER_ADMITTED", 1), closed);
    assert_eq!(tracker.stats(closed).packet_count(), 0);
    assert_eq!(Label::admitted(), LABEL_BOUND);

    let edges = vec![(
        "NEW_A".to_owned(),
        "NEW_B".to_owned(),
        Event::new(Dir::Send, "SYN"),
    )];
    assert!(matches!(
        StateMachine::new("new", edges),
        Err(StateMachineError::VocabularyFull { .. })
    ));
}

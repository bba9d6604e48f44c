//! Built-in state machine descriptions for TCP and DCCP.
//!
//! Both are written in the same dot language a user would supply for a new
//! protocol, exactly as the paper prescribes: "The use of a standardized
//! graph language like dot to represent the state machine enables the use of
//! SNAKE on a variety of two-party protocols simply by swapping out the
//! state machine and packet header descriptions."

use std::sync::{Arc, OnceLock};

use crate::{parse_dot, StateMachine};

/// The 11-state TCP connection-lifecycle machine, with transitions expressed
/// as the packet sends/receives observable on the wire.
///
/// This deliberately mirrors the RFC 793 page-23 diagram, which draws almost
/// no reset arcs: the tracker therefore keeps an endpoint in its last
/// lifecycle state while it emits RSTs. That fidelity matters — the paper's
/// CLOSE_WAIT resource-exhaustion attack is the strategy "drop RSTs sent by
/// a client tracked in FIN_WAIT_1", which only exists because sending a RST
/// is not a diagram transition.
pub const TCP_DOT: &str = r#"digraph tcp {
    // connection establishment
    CLOSED -> SYN_SENT [label="send:SYN"];
    LISTEN -> SYN_RECEIVED [label="recv:SYN"];
    SYN_SENT -> ESTABLISHED [label="recv:SYN+ACK"];
    SYN_SENT -> SYN_RECEIVED [label="recv:SYN"];
    SYN_RECEIVED -> ESTABLISHED [label="recv:ACK, recv:DATA, recv:PSH+ACK"];

    // active close
    ESTABLISHED -> FIN_WAIT_1 [label="send:FIN+ACK"];
    FIN_WAIT_1 -> TIME_WAIT [label="recv:FIN+ACK"];
    FIN_WAIT_1 -> FIN_WAIT_2 [label="recv:ACK"];
    FIN_WAIT_2 -> TIME_WAIT [label="recv:FIN+ACK"];

    // passive close
    ESTABLISHED -> CLOSE_WAIT [label="recv:FIN+ACK"];
    CLOSE_WAIT -> LAST_ACK [label="send:FIN+ACK"];
    LAST_ACK -> CLOSED [label="recv:ACK"];

    // simultaneous close
    CLOSING -> TIME_WAIT [label="recv:ACK"];

    // the only reset arcs RFC 793 draws
    SYN_RECEIVED -> LISTEN [label="recv:RST"];
    SYN_SENT -> CLOSED [label="recv:RST"];
}
"#;

/// The DCCP connection-lifecycle machine (RFC 4340 §8).
pub const DCCP_DOT: &str = r#"digraph dccp {
    // connection establishment
    CLOSED -> REQUEST [label="send:REQUEST"];
    LISTEN -> RESPOND [label="recv:REQUEST"];
    REQUEST -> PARTOPEN [label="recv:RESPONSE"];
    PARTOPEN -> OPEN [label="recv:DATA, recv:ACK, recv:DATAACK, recv:SYNC"];
    RESPOND -> OPEN [label="recv:ACK, recv:DATAACK"];

    // teardown
    OPEN -> CLOSING [label="send:CLOSE"];
    OPEN -> CLOSEREQ [label="send:CLOSEREQ"];
    OPEN -> CLOSING [label="recv:CLOSEREQ"];
    CLOSING -> TIMEWAIT [label="recv:RESET"];
    CLOSEREQ -> CLOSED [label="recv:CLOSE"];
    OPEN -> CLOSED [label="recv:CLOSE"];

    // resets abort
    REQUEST -> CLOSED [label="recv:RESET, send:RESET"];
    RESPOND -> CLOSED [label="recv:RESET, send:RESET"];
    PARTOPEN -> CLOSED [label="recv:RESET, send:RESET"];
    OPEN -> CLOSED [label="recv:RESET, send:RESET"];
    CLOSEREQ -> CLOSED [label="recv:RESET, send:RESET"];
}
"#;

/// The built-in TCP state machine. Parsed on first use and shared from
/// then on: the proxy asks for it once per tracked connection.
pub fn tcp_state_machine() -> Arc<StateMachine> {
    static MACHINE: OnceLock<Arc<StateMachine>> = OnceLock::new();
    MACHINE
        .get_or_init(|| parse_dot(TCP_DOT).expect("built-in TCP state machine is valid"))
        .clone()
}

/// The built-in DCCP state machine, parsed once like the TCP one.
pub fn dccp_state_machine() -> Arc<StateMachine> {
    static MACHINE: OnceLock<Arc<StateMachine>> = OnceLock::new();
    MACHINE
        .get_or_init(|| parse_dot(DCCP_DOT).expect("built-in DCCP state machine is valid"))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dir;

    #[test]
    fn built_in_machines_are_parsed_once() {
        assert!(Arc::ptr_eq(&tcp_state_machine(), &tcp_state_machine()));
        assert!(Arc::ptr_eq(&dccp_state_machine(), &dccp_state_machine()));
    }

    #[test]
    fn tcp_machine_has_eleven_states() {
        let m = tcp_state_machine();
        // The RFC 793 diagram has 11 states; all must be present.
        for s in [
            "CLOSED",
            "LISTEN",
            "SYN_SENT",
            "SYN_RECEIVED",
            "ESTABLISHED",
            "FIN_WAIT_1",
            "FIN_WAIT_2",
            "CLOSE_WAIT",
            "CLOSING",
            "LAST_ACK",
            "TIME_WAIT",
        ] {
            assert!(m.state(s).is_ok(), "missing TCP state {s}");
        }
        assert_eq!(m.state_count(), 11);
    }

    #[test]
    fn tcp_client_handshake_path() {
        let m = tcp_state_machine();
        let closed = m.state("CLOSED").unwrap();
        let syn_sent = m.step(closed, Dir::Send, "SYN").unwrap();
        assert_eq!(m.state_name(syn_sent), "SYN_SENT");
        let est = m.step(syn_sent, Dir::Recv, "SYN+ACK").unwrap();
        assert_eq!(m.state_name(est), "ESTABLISHED");
    }

    #[test]
    fn tcp_server_handshake_path() {
        let m = tcp_state_machine();
        let listen = m.state("LISTEN").unwrap();
        let syn_rcvd = m.step(listen, Dir::Recv, "SYN").unwrap();
        assert_eq!(m.state_name(syn_rcvd), "SYN_RECEIVED");
        let est = m.step(syn_rcvd, Dir::Recv, "ACK").unwrap();
        assert_eq!(m.state_name(est), "ESTABLISHED");
    }

    #[test]
    fn tcp_passive_close_path() {
        let m = tcp_state_machine();
        let est = m.state("ESTABLISHED").unwrap();
        let cw = m.step(est, Dir::Recv, "FIN+ACK").unwrap();
        assert_eq!(m.state_name(cw), "CLOSE_WAIT");
        let la = m.step(cw, Dir::Send, "FIN+ACK").unwrap();
        assert_eq!(m.state_name(la), "LAST_ACK");
        let closed = m.step(la, Dir::Recv, "ACK").unwrap();
        assert_eq!(m.state_name(closed), "CLOSED");
    }

    #[test]
    fn tcp_resets_are_not_lifecycle_transitions_in_established() {
        // RFC 793's diagram draws no reset arc out of ESTABLISHED; the
        // tracker therefore keeps attributing reset traffic to the last
        // lifecycle state (which is what lets SNAKE key "drop RST"
        // strategies to FIN_WAIT_1 for the CLOSE_WAIT attack).
        let m = tcp_state_machine();
        let est = m.state("ESTABLISHED").unwrap();
        assert_eq!(m.step(est, Dir::Recv, "RST"), None);
        assert_eq!(m.step(est, Dir::Send, "RST"), None);
        let fw1 = m.state("FIN_WAIT_1").unwrap();
        assert_eq!(m.step(fw1, Dir::Send, "RST"), None);
    }

    #[test]
    fn tcp_reset_arcs_match_rfc_diagram() {
        let m = tcp_state_machine();
        let sr = m.state("SYN_RECEIVED").unwrap();
        assert_eq!(
            m.state_name(m.step(sr, Dir::Recv, "RST").unwrap()),
            "LISTEN"
        );
        let ss = m.state("SYN_SENT").unwrap();
        assert_eq!(
            m.state_name(m.step(ss, Dir::Recv, "RST").unwrap()),
            "CLOSED"
        );
    }

    #[test]
    fn tcp_data_does_not_change_state() {
        let m = tcp_state_machine();
        let est = m.state("ESTABLISHED").unwrap();
        assert_eq!(m.step(est, Dir::Recv, "DATA"), None);
        assert_eq!(m.step(est, Dir::Send, "ACK"), None);
    }

    #[test]
    fn dccp_machine_states() {
        let m = dccp_state_machine();
        for s in [
            "CLOSED", "LISTEN", "REQUEST", "RESPOND", "PARTOPEN", "OPEN", "CLOSEREQ", "CLOSING",
            "TIMEWAIT",
        ] {
            assert!(m.state(s).is_ok(), "missing DCCP state {s}");
        }
        assert_eq!(m.state_count(), 9);
    }

    #[test]
    fn dccp_client_open_path() {
        let m = dccp_state_machine();
        let closed = m.state("CLOSED").unwrap();
        let req = m.step(closed, Dir::Send, "REQUEST").unwrap();
        assert_eq!(m.state_name(req), "REQUEST");
        let po = m.step(req, Dir::Recv, "RESPONSE").unwrap();
        assert_eq!(m.state_name(po), "PARTOPEN");
        let open = m.step(po, Dir::Recv, "DATAACK").unwrap();
        assert_eq!(m.state_name(open), "OPEN");
    }

    #[test]
    fn dccp_reset_aborts_request() {
        let m = dccp_state_machine();
        let req = m.state("REQUEST").unwrap();
        let c = m.step(req, Dir::Recv, "RESET").unwrap();
        assert_eq!(m.state_name(c), "CLOSED");
    }
}

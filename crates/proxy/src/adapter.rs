use std::sync::Arc;

use snake_netsim::{Addr, Packet, Protocol};
use snake_packet::dccp::{dccp_spec, DccpBuilder, DccpPacketType, DccpView};
use snake_packet::tcp::{tcp_spec, TcpBuilder, TcpFlags, TcpPacketType, TcpView};
use snake_packet::FormatSpec;
use snake_statemachine::{dccp_state_machine, tcp_state_machine, Label, StateMachine};

/// Everything the proxy knows when fabricating a spoofed packet: the
/// (observed or guessed) connection endpoints and the chosen sequence
/// value. Deliberately *not* the connection's real sequence state — an
/// off-path attacker does not have it.
#[derive(Debug, Clone, Copy)]
pub struct InjectContext {
    /// Spoofed source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Value for the sequence field.
    pub seq: u64,
}

/// Protocol-specific knowledge the proxy needs: how to classify packets
/// into the type labels the state machine speaks, and how to fabricate
/// packets for injection. One adapter per protocol; everything else in the
/// proxy is generic.
///
/// The `Send + Sync` bounds come with the proxy being a
/// [`Tap`](snake_netsim::Tap), so paused simulator snapshots can be shared
/// across executor threads; `clone_adapter` makes the proxy forkable.
pub trait ProtocolAdapter: std::fmt::Debug + Send + Sync + 'static {
    /// The wire protocol this adapter handles.
    fn protocol(&self) -> Protocol;

    /// Deep-clones the adapter as a boxed trait object (adapters are
    /// stateless, so this is cheap).
    fn clone_adapter(&self) -> Box<dyn ProtocolAdapter>;

    /// The header format spec.
    fn spec(&self) -> Arc<FormatSpec>;

    /// The connection-lifecycle state machine.
    fn machine(&self) -> Arc<StateMachine>;

    /// Initial tracked state for the client endpoint.
    fn client_initial(&self) -> &'static str;

    /// Initial tracked state for the server endpoint.
    fn server_initial(&self) -> &'static str;

    /// Classifies a packet into a type label (`None` for unparseable
    /// headers, which are forwarded untouched and untracked). Labels come
    /// from the label vocabulary, so the per-packet hot path never
    /// allocates and never looks a name up.
    fn classify(&self, header: &[u8], payload_len: u32) -> Option<Label>;

    /// Packet types worth injecting, by label.
    fn injectable_types(&self) -> &'static [&'static str];

    /// Width of the sequence field in bits (32 for TCP, 48 for DCCP).
    fn seq_bits(&self) -> u32;

    /// The stride hitseqwindow uses: the assumed receive/validity window.
    fn assumed_window(&self) -> u64;

    /// Fabricates a packet of the given type label.
    fn build_inject(&self, packet_type: &str, ctx: InjectContext) -> Option<Packet>;
}

/// Swaps source and destination (addresses and header port fields) in
/// place — the *reflect* basic attack's rewrite, generic over any spec with
/// `src_port`/`dst_port` fields.
pub fn swap_endpoints(spec: &Arc<FormatSpec>, packet: &mut Packet) {
    std::mem::swap(&mut packet.src, &mut packet.dst);
    if let (Ok(sp), Ok(dp)) = (spec.field("src_port"), spec.field("dst_port")) {
        let s = spec.get(&packet.header, sp).unwrap_or(0);
        let d = spec.get(&packet.header, dp).unwrap_or(0);
        let _ = spec.set(&mut packet.header, sp, d);
        let _ = spec.set(&mut packet.header, dp, s);
    }
}

/// Each TCP packet type's [`TcpPacketType::label`] as a vocabulary label,
/// indexed by variant and resolved at compile time.
const TCP_TYPE_LABELS: [Label; TcpPacketType::all().len()] = {
    let types = TcpPacketType::all();
    let mut labels = [Label::EMPTY; TcpPacketType::all().len()];
    let mut i = 0;
    while i < types.len() {
        assert!(types[i] as usize == i, "listed in declaration order");
        labels[i] = Label::seeded(types[i].label());
        i += 1;
    }
    labels
};

/// Each DCCP packet type's [`DccpPacketType::label`] as a vocabulary
/// label, indexed by variant and resolved at compile time.
const DCCP_TYPE_LABELS: [Label; DccpPacketType::all().len()] = {
    let types = DccpPacketType::all();
    let mut labels = [Label::EMPTY; DccpPacketType::all().len()];
    let mut i = 0;
    while i < types.len() {
        assert!(types[i] as usize == i, "listed in declaration order");
        labels[i] = Label::seeded(types[i].label());
        i += 1;
    }
    labels
};

/// The TCP adapter.
#[derive(Debug, Default, Clone, Copy)]
pub struct TcpAdapter;

impl ProtocolAdapter for TcpAdapter {
    fn protocol(&self) -> Protocol {
        Protocol::Tcp
    }

    fn clone_adapter(&self) -> Box<dyn ProtocolAdapter> {
        Box::new(*self)
    }

    fn spec(&self) -> Arc<FormatSpec> {
        tcp_spec()
    }

    fn machine(&self) -> Arc<StateMachine> {
        tcp_state_machine()
    }

    fn client_initial(&self) -> &'static str {
        "CLOSED"
    }

    fn server_initial(&self) -> &'static str {
        "LISTEN"
    }

    fn classify(&self, header: &[u8], payload_len: u32) -> Option<Label> {
        let view = TcpView::new(header).ok()?;
        let ty = TcpPacketType::classify(view.flags(), payload_len);
        Some(TCP_TYPE_LABELS[ty as usize])
    }

    fn injectable_types(&self) -> &'static [&'static str] {
        &["SYN", "RST", "ACK", "FIN+ACK", "DATA"]
    }

    fn seq_bits(&self) -> u32 {
        32
    }

    fn assumed_window(&self) -> u64 {
        65_535
    }

    fn build_inject(&self, packet_type: &str, ctx: InjectContext) -> Option<Packet> {
        let (flags, payload) = match packet_type {
            "SYN" => (TcpFlags::SYN, 0),
            "RST" => (TcpFlags::RST, 0),
            "ACK" => (TcpFlags::ACK, 0),
            "FIN+ACK" => (TcpFlags::FIN_ACK, 0),
            "DATA" => (TcpFlags::ACK, 1_000),
            _ => return None,
        };
        let header = TcpBuilder::new(ctx.src.port, ctx.dst.port)
            .seq(ctx.seq as u32)
            .ack(0)
            .flags(flags)
            .encode();
        Some(Packet::new(
            ctx.src,
            ctx.dst,
            Protocol::Tcp,
            header,
            payload,
        ))
    }
}

/// The DCCP adapter.
#[derive(Debug, Default, Clone, Copy)]
pub struct DccpAdapter;

impl ProtocolAdapter for DccpAdapter {
    fn protocol(&self) -> Protocol {
        Protocol::Dccp
    }

    fn clone_adapter(&self) -> Box<dyn ProtocolAdapter> {
        Box::new(*self)
    }

    fn spec(&self) -> Arc<FormatSpec> {
        dccp_spec()
    }

    fn machine(&self) -> Arc<StateMachine> {
        dccp_state_machine()
    }

    fn client_initial(&self) -> &'static str {
        "CLOSED"
    }

    fn server_initial(&self) -> &'static str {
        "LISTEN"
    }

    fn classify(&self, header: &[u8], _payload_len: u32) -> Option<Label> {
        let view = DccpView::new(header).ok()?;
        Some(DCCP_TYPE_LABELS[view.packet_type()? as usize])
    }

    fn injectable_types(&self) -> &'static [&'static str] {
        &["REQUEST", "DATA", "ACK", "CLOSE", "RESET", "SYNC"]
    }

    fn seq_bits(&self) -> u32 {
        48
    }

    fn assumed_window(&self) -> u64 {
        // The sequence-validity window W (RFC 4340 default 100).
        100
    }

    fn build_inject(&self, packet_type: &str, ctx: InjectContext) -> Option<Packet> {
        let (ptype, payload) = match packet_type {
            "REQUEST" => (DccpPacketType::Request, 0),
            "DATA" => (DccpPacketType::Data, 1_000),
            "ACK" => (DccpPacketType::Ack, 0),
            "CLOSE" => (DccpPacketType::Close, 0),
            "RESET" => (DccpPacketType::Reset, 0),
            "SYNC" => (DccpPacketType::Sync, 0),
            _ => return None,
        };
        let header = DccpBuilder::new(ctx.src.port, ctx.dst.port, ptype)
            .seq(ctx.seq)
            .ack(ctx.seq)
            .encode();
        Some(Packet::new(
            ctx.src,
            ctx.dst,
            Protocol::Dccp,
            header,
            payload,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_netsim::NodeId;

    fn addr(n: usize, p: u16) -> Addr {
        Addr::new(NodeId::from_index(n), p)
    }

    #[test]
    fn tcp_classify_roundtrip() {
        let a = TcpAdapter;
        let pkt = a
            .build_inject(
                "SYN",
                InjectContext {
                    src: addr(0, 40_000),
                    dst: addr(1, 80),
                    seq: 5,
                },
            )
            .unwrap();
        assert_eq!(a.classify(&pkt.header, pkt.payload_len).unwrap(), "SYN");
        let rst = a
            .build_inject(
                "RST",
                InjectContext {
                    src: addr(0, 1),
                    dst: addr(1, 2),
                    seq: 0,
                },
            )
            .unwrap();
        assert_eq!(a.classify(&rst.header, 0).unwrap(), "RST");
    }

    #[test]
    fn dccp_classify_roundtrip() {
        let a = DccpAdapter;
        for ty in a.injectable_types() {
            let pkt = a
                .build_inject(
                    ty,
                    InjectContext {
                        src: addr(0, 1),
                        dst: addr(1, 2),
                        seq: 9,
                    },
                )
                .unwrap();
            assert_eq!(&a.classify(&pkt.header, pkt.payload_len).unwrap(), ty);
        }
    }

    #[test]
    fn unknown_type_yields_none() {
        assert!(TcpAdapter
            .build_inject(
                "WAT",
                InjectContext {
                    src: addr(0, 1),
                    dst: addr(1, 2),
                    seq: 0
                }
            )
            .is_none());
    }

    #[test]
    fn swap_endpoints_swaps_addresses_and_ports() {
        let a = TcpAdapter;
        let mut pkt = a
            .build_inject(
                "SYN",
                InjectContext {
                    src: addr(0, 40_000),
                    dst: addr(1, 80),
                    seq: 5,
                },
            )
            .unwrap();
        swap_endpoints(&a.spec(), &mut pkt);
        assert_eq!(pkt.src, addr(1, 80));
        assert_eq!(pkt.dst, addr(0, 40_000));
        let view = TcpView::new(&pkt.header).unwrap();
        assert_eq!(view.src_port(), 80);
        assert_eq!(view.dst_port(), 40_000);
    }

    #[test]
    fn machines_know_initial_states() {
        assert!(TcpAdapter.machine().state("CLOSED").is_ok());
        assert!(TcpAdapter.machine().state("LISTEN").is_ok());
        assert!(DccpAdapter.machine().state("CLOSED").is_ok());
        assert!(DccpAdapter.machine().state("LISTEN").is_ok());
    }
}

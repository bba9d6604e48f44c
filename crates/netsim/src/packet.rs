use std::fmt;

use crate::sim::NodeId;
use crate::smallbuf::HeaderBuf;

/// Simulated network-layer overhead added to every packet's wire length
/// (an IPv4 header without options).
pub const NETWORK_OVERHEAD_BYTES: u32 = 20;

/// The transport protocol a packet carries, used by the attack proxy to
/// decide whether a packet is "of interest" (paper §V-B: "Protocols not of
/// interest are returned to the tap-bridge for normal processing").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Transmission Control Protocol.
    Tcp,
    /// Datagram Congestion Control Protocol.
    Dccp,
    /// Any other protocol, by IANA-style number.
    Other(u16),
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => f.write_str("tcp"),
            Protocol::Dccp => f.write_str("dccp"),
            Protocol::Other(n) => write!(f, "proto-{n}"),
        }
    }
}

/// A transport address: a node plus a 16-bit port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr {
    /// The host.
    pub node: NodeId,
    /// The port on that host.
    pub port: u16,
}

impl Addr {
    /// Convenience constructor.
    pub fn new(node: NodeId, port: u16) -> Addr {
        Addr { node, port }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node.index(), self.port)
    }
}

/// A packet in flight in the emulated network.
///
/// The transport header travels as raw bytes laid out by a
/// `snake-packet` format spec, so the attack proxy can parse and rewrite it
/// generically, and the endpoint engines re-parse whatever arrives — a
/// proxy mutation is really observed by the implementation under test.
/// Application payload is carried as a length only; SNAKE's attacks and
/// detection never look at payload content, and skipping the bytes keeps
/// simulation memory flat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source transport address.
    pub src: Addr,
    /// Destination transport address.
    pub dst: Addr,
    /// Transport protocol of the header bytes.
    pub protocol: Protocol,
    /// Raw transport header bytes, stored inline when short (see
    /// [`HeaderBuf`]) so per-hop packet clones stay allocation-free.
    pub header: HeaderBuf,
    /// Simulated application payload length in bytes.
    pub payload_len: u32,
    /// Unique id assigned at first send, for tracing.
    pub id: u64,
}

impl Packet {
    /// Creates a packet; the id is assigned by the simulator on first send.
    pub fn new(
        src: Addr,
        dst: Addr,
        protocol: Protocol,
        header: impl Into<HeaderBuf>,
        payload_len: u32,
    ) -> Packet {
        Packet {
            src,
            dst,
            protocol,
            header: header.into(),
            payload_len,
            id: 0,
        }
    }

    /// Bytes this packet occupies on the wire, including simulated
    /// network-layer overhead.
    pub fn wire_len(&self) -> u32 {
        NETWORK_OVERHEAD_BYTES + self.header.len() as u32 + self.payload_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_includes_overhead() {
        let p = Packet::new(
            Addr::new(NodeId::from_index(0), 1),
            Addr::new(NodeId::from_index(1), 2),
            Protocol::Tcp,
            vec![0u8; 20],
            1460,
        );
        assert_eq!(p.wire_len(), 20 + 20 + 1460);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Protocol::Tcp.to_string(), "tcp");
        assert_eq!(Protocol::Other(132).to_string(), "proto-132");
        assert_eq!(Addr::new(NodeId::from_index(3), 80).to_string(), "3:80");
    }
}

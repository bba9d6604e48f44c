//! The built-in TCP header description (RFC 793) and typed accessors.
//!
//! The header is described field-by-field in the same description language a
//! user would supply for a new protocol; the typed [`TcpView`] /
//! [`TcpBuilder`] wrappers are conveniences used by the TCP engine and tests.

use std::sync::{Arc, OnceLock};

use crate::spec::{read_bits, read_field, write_bits, write_field};
use crate::{FormatSpec, Header, PacketError};

/// The TCP header in the SNAKE header description language.
///
/// Flags are declared as individual one-bit fields so the generic *lie*
/// mutation on a flag field produces exactly the invalid-flag-combination
/// packets the paper studies (§VI-A.2).
pub const TCP_HEADER_DESCRIPTION: &str = "\
# TCP header, RFC 793
header tcp {
    src_port    : 16
    dst_port    : 16
    seq         : 32
    ack         : 32
    data_offset : 4
    reserved    : 6
    urg         : 1
    ack_flag    : 1
    psh         : 1
    rst         : 1
    syn         : 1
    fin         : 1
    window      : 16
    checksum    : 16
    urgent_ptr  : 16
}
";

/// Length of the TCP header the simulation speaks (no options), in bytes.
pub const TCP_HEADER_LEN: usize = 20;

/// Compile-time positions of the fields [`TcpView`] and [`TcpBuilder`]
/// touch for every segment, so the per-segment path consults neither the
/// shared spec nor its refcount. [`tcp_spec`] checks each against the parsed
/// description when it resolves the spec.
mod layout {
    use crate::FieldRef;

    pub(super) const SRC_PORT: FieldRef = FieldRef::new(0, 0, 16);
    pub(super) const DST_PORT: FieldRef = FieldRef::new(1, 16, 16);
    pub(super) const SEQ: FieldRef = FieldRef::new(2, 32, 32);
    pub(super) const ACK: FieldRef = FieldRef::new(3, 64, 32);
    pub(super) const DATA_OFFSET: FieldRef = FieldRef::new(4, 96, 4);
    /// The six flag bits URG..FIN, read and written as one window.
    pub(super) const FLAGS_BIT_OFFSET: u32 = 106;
    pub(super) const WINDOW: FieldRef = FieldRef::new(12, 112, 16);
    pub(super) const CHECKSUM: FieldRef = FieldRef::new(13, 128, 16);
    pub(super) const URGENT_PTR: FieldRef = FieldRef::new(14, 144, 16);

    pub(super) const NAMED: [(&str, FieldRef); 8] = [
        ("src_port", SRC_PORT),
        ("dst_port", DST_PORT),
        ("seq", SEQ),
        ("ack", ACK),
        ("data_offset", DATA_OFFSET),
        ("window", WINDOW),
        ("checksum", CHECKSUM),
        ("urgent_ptr", URGENT_PTR),
    ];
    pub(super) const FLAG_NAMES: [&str; 6] = ["urg", "ack_flag", "psh", "rst", "syn", "fin"];
}

/// Returns the shared TCP [`FormatSpec`] (20-byte header, 15 fields).
pub fn tcp_spec() -> Arc<FormatSpec> {
    static SPEC: OnceLock<Arc<FormatSpec>> = OnceLock::new();
    Arc::clone(SPEC.get_or_init(|| {
        let spec = crate::parse_spec(TCP_HEADER_DESCRIPTION).expect("built-in TCP spec is valid");
        assert_eq!(spec.byte_len(), TCP_HEADER_LEN);
        for (name, field) in layout::NAMED {
            assert_eq!(spec.field(name), Ok(field), "tcp layout of `{name}`");
        }
        for (i, name) in layout::FLAG_NAMES.into_iter().enumerate() {
            let flag = spec.field(name).expect("tcp spec flag");
            assert_eq!(
                (flag.bit_offset, flag.bits),
                (layout::FLAGS_BIT_OFFSET + i as u32, 1),
                "tcp layout of `{name}`"
            );
        }
        Arc::new(spec)
    }))
}

/// TCP control flags as a compact value type.
///
/// `Display` renders the conventional `SYN+ACK` style names, used throughout
/// strategy labels and attack reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags {
    /// URG flag.
    pub urg: bool,
    /// ACK flag.
    pub ack: bool,
    /// PSH flag.
    pub psh: bool,
    /// RST flag.
    pub rst: bool,
    /// SYN flag.
    pub syn: bool,
    /// FIN flag.
    pub fin: bool,
}

impl TcpFlags {
    /// Flags for a connection-opening SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ..TcpFlags::none()
    };
    /// Flags for the SYN+ACK handshake reply.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        ..TcpFlags::none()
    };
    /// Flags for a pure acknowledgment.
    pub const ACK: TcpFlags = TcpFlags {
        ack: true,
        ..TcpFlags::none()
    };
    /// Flags for a data segment with PSH.
    pub const PSH_ACK: TcpFlags = TcpFlags {
        psh: true,
        ack: true,
        ..TcpFlags::none()
    };
    /// Flags for a FIN (always carries ACK in practice).
    pub const FIN_ACK: TcpFlags = TcpFlags {
        fin: true,
        ack: true,
        ..TcpFlags::none()
    };
    /// Flags for a reset.
    pub const RST: TcpFlags = TcpFlags {
        rst: true,
        ..TcpFlags::none()
    };
    /// Flags for a reset that acknowledges data.
    pub const RST_ACK: TcpFlags = TcpFlags {
        rst: true,
        ack: true,
        ..TcpFlags::none()
    };

    /// No flags set. (A packet like this is never valid on the wire; Linux
    /// 3.0.0 nevertheless responds to it — paper §VI-A.2.)
    pub const fn none() -> TcpFlags {
        TcpFlags {
            urg: false,
            ack: false,
            psh: false,
            rst: false,
            syn: false,
            fin: false,
        }
    }

    /// Number of flags set.
    pub fn count(&self) -> u32 {
        [self.urg, self.ack, self.psh, self.rst, self.syn, self.fin]
            .iter()
            .filter(|&&b| b)
            .count() as u32
    }

    /// Whether this is a combination a correct implementation would ever
    /// send: at most one of SYN/FIN/RST, and every non-SYN packet carries
    /// ACK. Everything else is "nonsensical" in the paper's terminology.
    pub fn is_sensible(&self) -> bool {
        let exclusive = [self.syn, self.fin, self.rst]
            .iter()
            .filter(|&&b| b)
            .count();
        if exclusive > 1 {
            return false;
        }
        if self.count() == 0 {
            return false;
        }
        // A bare SYN or RST is fine; anything else needs ACK.
        let lone_syn = self.syn && self.count() == 1;
        let lone_rst = self.rst && self.count() == 1;
        if !(self.ack || lone_syn || lone_rst) {
            return false;
        }
        true
    }
}

impl std::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        if self.syn {
            parts.push("SYN");
        }
        if self.fin {
            parts.push("FIN");
        }
        if self.rst {
            parts.push("RST");
        }
        if self.psh {
            parts.push("PSH");
        }
        if self.urg {
            parts.push("URG");
        }
        if self.ack {
            parts.push("ACK");
        }
        if parts.is_empty() {
            f.write_str("NONE")
        } else {
            f.write_str(&parts.join("+"))
        }
    }
}

/// The packet-type classification SNAKE keys strategies on for TCP.
///
/// The paper applies basic attacks to "all packets of the same type observed
/// in the same state"; this enum is that type. `PshAck` is distinguished from
/// `Data` because the Duplicate-Acknowledgment-Rate-Limiting attack
/// (§VI-A.6) specifically targets the occasional PSH+ACK segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum TcpPacketType {
    Syn,
    SynAck,
    Ack,
    Data,
    PshAck,
    FinAck,
    Rst,
    /// A flag combination no correct implementation sends.
    Invalid,
}

impl TcpPacketType {
    /// Classifies a segment from its flags and payload length.
    pub fn classify(flags: TcpFlags, payload_len: u32) -> TcpPacketType {
        if !flags.is_sensible() {
            return TcpPacketType::Invalid;
        }
        if flags.rst {
            return TcpPacketType::Rst;
        }
        if flags.syn {
            return if flags.ack {
                TcpPacketType::SynAck
            } else {
                TcpPacketType::Syn
            };
        }
        if flags.fin {
            return TcpPacketType::FinAck;
        }
        if payload_len > 0 {
            return if flags.psh {
                TcpPacketType::PshAck
            } else {
                TcpPacketType::Data
            };
        }
        TcpPacketType::Ack
    }

    /// All classifications, in a stable order (used by strategy generation).
    pub const fn all() -> &'static [TcpPacketType] {
        &[
            TcpPacketType::Syn,
            TcpPacketType::SynAck,
            TcpPacketType::Ack,
            TcpPacketType::Data,
            TcpPacketType::PshAck,
            TcpPacketType::FinAck,
            TcpPacketType::Rst,
            TcpPacketType::Invalid,
        ]
    }

    /// A stable label used in strategies and reports.
    pub const fn label(&self) -> &'static str {
        match self {
            TcpPacketType::Syn => "SYN",
            TcpPacketType::SynAck => "SYN+ACK",
            TcpPacketType::Ack => "ACK",
            TcpPacketType::Data => "DATA",
            TcpPacketType::PshAck => "PSH+ACK",
            TcpPacketType::FinAck => "FIN+ACK",
            TcpPacketType::Rst => "RST",
            TcpPacketType::Invalid => "INVALID",
        }
    }
}

impl std::fmt::Display for TcpPacketType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Read-only typed view over a TCP header buffer.
#[derive(Debug, Clone, Copy)]
pub struct TcpView<'a> {
    buf: &'a [u8; TCP_HEADER_LEN],
}

impl<'a> TcpView<'a> {
    /// Wraps raw bytes as a TCP header.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::BufferTooShort`] if `buf` is shorter than 20
    /// bytes.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Result<Self, PacketError> {
        match buf.first_chunk() {
            Some(buf) => Ok(TcpView { buf }),
            None => Err(PacketError::BufferTooShort {
                needed: TCP_HEADER_LEN,
                got: buf.len(),
            }),
        }
    }

    /// Source port.
    #[inline]
    pub fn src_port(&self) -> u16 {
        read_field(self.buf, layout::SRC_PORT) as u16
    }

    /// Destination port.
    #[inline]
    pub fn dst_port(&self) -> u16 {
        read_field(self.buf, layout::DST_PORT) as u16
    }

    /// Sequence number.
    #[inline]
    pub fn seq(&self) -> u32 {
        read_field(self.buf, layout::SEQ) as u32
    }

    /// Acknowledgment number.
    #[inline]
    pub fn ack(&self) -> u32 {
        read_field(self.buf, layout::ACK) as u32
    }

    /// Header length in 32-bit words (`5` on every packet the simulation
    /// builds; anything else means the field was mutated in flight).
    #[inline]
    pub fn data_offset(&self) -> u8 {
        read_field(self.buf, layout::DATA_OFFSET) as u8
    }

    /// Receive window.
    #[inline]
    pub fn window(&self) -> u16 {
        read_field(self.buf, layout::WINDOW) as u16
    }

    /// Checksum field (`0` on every packet the simulation builds).
    #[inline]
    pub fn checksum(&self) -> u16 {
        read_field(self.buf, layout::CHECKSUM) as u16
    }

    /// Urgent pointer.
    #[inline]
    pub fn urgent_ptr(&self) -> u16 {
        read_field(self.buf, layout::URGENT_PTR) as u16
    }

    /// Control flags, read as one six-bit window (URG..FIN are declared
    /// contiguously — asserted when the spec is resolved).
    #[inline]
    pub fn flags(&self) -> TcpFlags {
        let word = read_bits(self.buf, layout::FLAGS_BIT_OFFSET, 6);
        TcpFlags {
            urg: word & 0b10_0000 != 0,
            ack: word & 0b01_0000 != 0,
            psh: word & 0b00_1000 != 0,
            rst: word & 0b00_0100 != 0,
            syn: word & 0b00_0010 != 0,
            fin: word & 0b00_0001 != 0,
        }
    }
}

/// Builder for TCP headers; the engine and the off-path injection attacks
/// both construct segments through this.
#[derive(Debug, Clone)]
pub struct TcpBuilder {
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    window: u16,
    urgent_ptr: u16,
    flags: TcpFlags,
}

impl TcpBuilder {
    /// Starts a builder for a segment between two ports.
    pub fn new(src_port: u16, dst_port: u16) -> Self {
        TcpBuilder {
            src_port,
            dst_port,
            seq: 0,
            ack: 0,
            window: 65_535,
            urgent_ptr: 0,
            flags: TcpFlags::none(),
        }
    }

    /// Sets the sequence number.
    pub fn seq(mut self, seq: u32) -> Self {
        self.seq = seq;
        self
    }

    /// Sets the acknowledgment number.
    pub fn ack(mut self, ack: u32) -> Self {
        self.ack = ack;
        self
    }

    /// Sets the receive window.
    pub fn window(mut self, window: u16) -> Self {
        self.window = window;
        self
    }

    /// Sets the control flags.
    pub fn flags(mut self, flags: TcpFlags) -> Self {
        self.flags = flags;
        self
    }

    /// Sets the urgent pointer.
    pub fn urgent_ptr(mut self, urgent_ptr: u16) -> Self {
        self.urgent_ptr = urgent_ptr;
        self
    }

    /// Encodes the header into a stack array.
    ///
    /// Hot path: the engine constructs a header for every segment it
    /// sends, so this touches neither the allocator nor the shared spec;
    /// the six flag bits go in as a single window write.
    #[inline]
    pub fn encode(self) -> [u8; TCP_HEADER_LEN] {
        let mut bytes = [0u8; TCP_HEADER_LEN];
        let f = &self.flags;
        let flag_word = ((f.urg as u64) << 5)
            | ((f.ack as u64) << 4)
            | ((f.psh as u64) << 3)
            | ((f.rst as u64) << 2)
            | ((f.syn as u64) << 1)
            | (f.fin as u64);
        write_field(&mut bytes, layout::SRC_PORT, self.src_port as u64);
        write_field(&mut bytes, layout::DST_PORT, self.dst_port as u64);
        write_field(&mut bytes, layout::SEQ, self.seq as u64);
        write_field(&mut bytes, layout::ACK, self.ack as u64);
        write_field(&mut bytes, layout::DATA_OFFSET, 5);
        write_field(&mut bytes, layout::WINDOW, self.window as u64);
        write_field(&mut bytes, layout::URGENT_PTR, self.urgent_ptr as u64);
        write_bits(&mut bytes, layout::FLAGS_BIT_OFFSET, 6, flag_word);
        bytes
    }

    /// Builds the header as an owned, spec-bound [`Header`] for by-name
    /// access (tests and the mutation path; the engine uses
    /// [`encode`](Self::encode)).
    pub fn build(self) -> Header {
        tcp_spec()
            .parse(self.encode().to_vec())
            .expect("built to spec length")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_20_bytes_15_fields() {
        let spec = tcp_spec();
        assert_eq!(spec.byte_len(), 20);
        assert_eq!(spec.field_count(), 15);
        assert_eq!(spec.total_bits(), 160);
    }

    #[test]
    fn builder_view_roundtrip() {
        let h = TcpBuilder::new(8080, 40_001)
            .seq(0xDEAD_BEEF)
            .ack(0x0102_0304)
            .window(32_768)
            .flags(TcpFlags::SYN_ACK)
            .build();
        let v = TcpView::new(h.bytes()).unwrap();
        assert_eq!(v.src_port(), 8080);
        assert_eq!(v.dst_port(), 40_001);
        assert_eq!(v.seq(), 0xDEAD_BEEF);
        assert_eq!(v.ack(), 0x0102_0304);
        assert_eq!(v.window(), 32_768);
        assert_eq!(v.flags(), TcpFlags::SYN_ACK);
    }

    #[test]
    fn classify_handshake_types() {
        assert_eq!(
            TcpPacketType::classify(TcpFlags::SYN, 0),
            TcpPacketType::Syn
        );
        assert_eq!(
            TcpPacketType::classify(TcpFlags::SYN_ACK, 0),
            TcpPacketType::SynAck
        );
        assert_eq!(
            TcpPacketType::classify(TcpFlags::ACK, 0),
            TcpPacketType::Ack
        );
        assert_eq!(
            TcpPacketType::classify(TcpFlags::ACK, 1460),
            TcpPacketType::Data
        );
        assert_eq!(
            TcpPacketType::classify(TcpFlags::PSH_ACK, 1460),
            TcpPacketType::PshAck
        );
        assert_eq!(
            TcpPacketType::classify(TcpFlags::FIN_ACK, 0),
            TcpPacketType::FinAck
        );
        assert_eq!(
            TcpPacketType::classify(TcpFlags::RST, 0),
            TcpPacketType::Rst
        );
        assert_eq!(
            TcpPacketType::classify(TcpFlags::RST_ACK, 0),
            TcpPacketType::Rst
        );
    }

    #[test]
    fn classify_nonsense_flags_as_invalid() {
        // The paper's example: SYN+FIN+ACK+RST.
        let combo = TcpFlags {
            syn: true,
            fin: true,
            ack: true,
            rst: true,
            ..TcpFlags::none()
        };
        assert_eq!(TcpPacketType::classify(combo, 0), TcpPacketType::Invalid);
        // Null flags are never valid.
        assert_eq!(
            TcpPacketType::classify(TcpFlags::none(), 0),
            TcpPacketType::Invalid
        );
        // SYN+FIN.
        let synfin = TcpFlags {
            syn: true,
            fin: true,
            ..TcpFlags::none()
        };
        assert_eq!(TcpPacketType::classify(synfin, 0), TcpPacketType::Invalid);
        // FIN without ACK.
        let bare_fin = TcpFlags {
            fin: true,
            ..TcpFlags::none()
        };
        assert_eq!(TcpPacketType::classify(bare_fin, 0), TcpPacketType::Invalid);
    }

    #[test]
    fn flags_display() {
        assert_eq!(TcpFlags::SYN_ACK.to_string(), "SYN+ACK");
        assert_eq!(TcpFlags::none().to_string(), "NONE");
        let combo = TcpFlags {
            syn: true,
            fin: true,
            ack: true,
            psh: true,
            ..TcpFlags::none()
        };
        assert_eq!(combo.to_string(), "SYN+FIN+PSH+ACK");
    }

    #[test]
    fn sensible_flag_combinations() {
        assert!(TcpFlags::SYN.is_sensible());
        assert!(TcpFlags::SYN_ACK.is_sensible());
        assert!(TcpFlags::ACK.is_sensible());
        assert!(TcpFlags::RST.is_sensible());
        assert!(TcpFlags::RST_ACK.is_sensible());
        assert!(TcpFlags::FIN_ACK.is_sensible());
        assert!(!TcpFlags::none().is_sensible());
        assert!(!TcpFlags {
            syn: true,
            fin: true,
            ..TcpFlags::none()
        }
        .is_sensible());
        assert!(!TcpFlags {
            psh: true,
            ..TcpFlags::none()
        }
        .is_sensible());
    }

    #[test]
    fn view_rejects_short_buffer() {
        assert!(TcpView::new(&[0u8; 19]).is_err());
    }
}

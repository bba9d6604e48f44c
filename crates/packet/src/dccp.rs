//! The built-in DCCP header description (RFC 4340) and typed accessors.
//!
//! We model the generic header with extended (48-bit) sequence numbers
//! (`X = 1`), which is what Linux CCID-2 uses, and include the
//! acknowledgment-number subheader on every packet. Real DATA packets omit
//! the subheader and REQUEST carries a service code in its place; carrying
//! the extra 8 bytes uniformly keeps the header description fixed-layout
//! without changing any protocol behaviour the search can observe.

use std::sync::{Arc, OnceLock};

use crate::spec::{read_field, write_field};
use crate::{FormatSpec, Header, PacketError};

/// The DCCP generic header (plus acknowledgment subheader) in the SNAKE
/// header description language: 13 fields, 24 bytes.
pub const DCCP_HEADER_DESCRIPTION: &str = "\
# DCCP generic header with X=1 and the acknowledgment subheader, RFC 4340
header dccp {
    src_port     : 16
    dst_port     : 16
    data_offset  : 8
    ccval        : 4
    cscov        : 4
    checksum     : 16
    res          : 3
    type         : 4
    x            : 1
    reserved     : 8
    seq          : 48
    ack_reserved : 16
    ack          : 48
}
";

/// Length of the DCCP header the simulation speaks (generic header with
/// `X = 1` plus the acknowledgment subheader), in bytes.
pub const DCCP_HEADER_LEN: usize = 24;

/// Compile-time positions of the fields [`DccpView`] and [`DccpBuilder`]
/// touch for every packet — same rationale as the TCP table; [`dccp_spec`]
/// checks each against the parsed description when it resolves the spec.
mod layout {
    use crate::FieldRef;

    pub(super) const SRC_PORT: FieldRef = FieldRef::new(0, 0, 16);
    pub(super) const DST_PORT: FieldRef = FieldRef::new(1, 16, 16);
    pub(super) const DATA_OFFSET: FieldRef = FieldRef::new(2, 32, 8);
    pub(super) const CHECKSUM: FieldRef = FieldRef::new(5, 48, 16);
    pub(super) const TYPE: FieldRef = FieldRef::new(7, 67, 4);
    pub(super) const X: FieldRef = FieldRef::new(8, 71, 1);
    pub(super) const SEQ: FieldRef = FieldRef::new(10, 80, 48);
    pub(super) const ACK_RESERVED: FieldRef = FieldRef::new(11, 128, 16);
    pub(super) const ACK: FieldRef = FieldRef::new(12, 144, 48);

    pub(super) const NAMED: [(&str, FieldRef); 9] = [
        ("src_port", SRC_PORT),
        ("dst_port", DST_PORT),
        ("data_offset", DATA_OFFSET),
        ("checksum", CHECKSUM),
        ("type", TYPE),
        ("x", X),
        ("seq", SEQ),
        ("ack_reserved", ACK_RESERVED),
        ("ack", ACK),
    ];
}

/// Returns the shared DCCP [`FormatSpec`] (24-byte header, 13 fields).
pub fn dccp_spec() -> Arc<FormatSpec> {
    static SPEC: OnceLock<Arc<FormatSpec>> = OnceLock::new();
    Arc::clone(SPEC.get_or_init(|| {
        let spec = crate::parse_spec(DCCP_HEADER_DESCRIPTION).expect("built-in DCCP spec is valid");
        assert_eq!(spec.byte_len(), DCCP_HEADER_LEN);
        for (name, field) in layout::NAMED {
            assert_eq!(spec.field(name), Ok(field), "dccp layout of `{name}`");
        }
        Arc::new(spec)
    }))
}

/// DCCP packet types (the 4-bit `type` field, RFC 4340 §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum DccpPacketType {
    Request,
    Response,
    Data,
    Ack,
    DataAck,
    CloseReq,
    Close,
    Reset,
    Sync,
    SyncAck,
}

impl DccpPacketType {
    /// The wire code for this type.
    pub fn code(&self) -> u8 {
        match self {
            DccpPacketType::Request => 0,
            DccpPacketType::Response => 1,
            DccpPacketType::Data => 2,
            DccpPacketType::Ack => 3,
            DccpPacketType::DataAck => 4,
            DccpPacketType::CloseReq => 5,
            DccpPacketType::Close => 6,
            DccpPacketType::Reset => 7,
            DccpPacketType::Sync => 8,
            DccpPacketType::SyncAck => 9,
        }
    }

    /// Decodes a wire code; codes 10–15 are reserved and yield `None`.
    pub fn from_code(code: u8) -> Option<DccpPacketType> {
        Some(match code {
            0 => DccpPacketType::Request,
            1 => DccpPacketType::Response,
            2 => DccpPacketType::Data,
            3 => DccpPacketType::Ack,
            4 => DccpPacketType::DataAck,
            5 => DccpPacketType::CloseReq,
            6 => DccpPacketType::Close,
            7 => DccpPacketType::Reset,
            8 => DccpPacketType::Sync,
            9 => DccpPacketType::SyncAck,
            _ => return None,
        })
    }

    /// All types in wire-code order (used by strategy generation).
    pub const fn all() -> &'static [DccpPacketType] {
        &[
            DccpPacketType::Request,
            DccpPacketType::Response,
            DccpPacketType::Data,
            DccpPacketType::Ack,
            DccpPacketType::DataAck,
            DccpPacketType::CloseReq,
            DccpPacketType::Close,
            DccpPacketType::Reset,
            DccpPacketType::Sync,
            DccpPacketType::SyncAck,
        ]
    }

    /// A stable label used in strategies and reports.
    pub const fn label(&self) -> &'static str {
        match self {
            DccpPacketType::Request => "REQUEST",
            DccpPacketType::Response => "RESPONSE",
            DccpPacketType::Data => "DATA",
            DccpPacketType::Ack => "ACK",
            DccpPacketType::DataAck => "DATAACK",
            DccpPacketType::CloseReq => "CLOSEREQ",
            DccpPacketType::Close => "CLOSE",
            DccpPacketType::Reset => "RESET",
            DccpPacketType::Sync => "SYNC",
            DccpPacketType::SyncAck => "SYNCACK",
        }
    }

    /// Whether packets of this type carry a meaningful acknowledgment number.
    pub fn carries_ack(&self) -> bool {
        !matches!(self, DccpPacketType::Request | DccpPacketType::Data)
    }
}

impl std::fmt::Display for DccpPacketType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Read-only typed view over a DCCP header buffer.
#[derive(Debug, Clone, Copy)]
pub struct DccpView<'a> {
    buf: &'a [u8; DCCP_HEADER_LEN],
}

impl<'a> DccpView<'a> {
    /// Wraps raw bytes as a DCCP header.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::BufferTooShort`] if `buf` is shorter than 24
    /// bytes.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Result<Self, PacketError> {
        match buf.first_chunk() {
            Some(buf) => Ok(DccpView { buf }),
            None => Err(PacketError::BufferTooShort {
                needed: DCCP_HEADER_LEN,
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

    /// 48-bit sequence number.
    #[inline]
    pub fn seq(&self) -> u64 {
        read_field(self.buf, layout::SEQ)
    }

    /// 48-bit acknowledgment number.
    #[inline]
    pub fn ack(&self) -> u64 {
        read_field(self.buf, layout::ACK)
    }

    /// Checksum field (`0` on every packet the simulation builds).
    #[inline]
    pub fn checksum(&self) -> u16 {
        read_field(self.buf, layout::CHECKSUM) as u16
    }

    /// The reserved bits alongside the acknowledgment number, which the
    /// simulated CCID repurposes as a loss-echo counter.
    #[inline]
    pub fn ack_reserved(&self) -> u16 {
        read_field(self.buf, layout::ACK_RESERVED) as u16
    }

    /// Packet type, or `None` for a reserved type code (such packets are
    /// ignored by receivers per RFC 4340 §5.1).
    #[inline]
    pub fn packet_type(&self) -> Option<DccpPacketType> {
        DccpPacketType::from_code(read_field(self.buf, layout::TYPE) as u8)
    }
}

/// Builder for DCCP headers.
#[derive(Debug, Clone)]
pub struct DccpBuilder {
    src_port: u16,
    dst_port: u16,
    packet_type: DccpPacketType,
    seq: u64,
    ack: u64,
    ack_reserved: u16,
}

impl DccpBuilder {
    /// Starts a builder for a packet of the given type between two ports.
    pub fn new(src_port: u16, dst_port: u16, packet_type: DccpPacketType) -> Self {
        DccpBuilder {
            src_port,
            dst_port,
            packet_type,
            seq: 0,
            ack: 0,
            ack_reserved: 0,
        }
    }

    /// Sets the 48-bit sequence number (masked to 48 bits).
    pub fn seq(mut self, seq: u64) -> Self {
        self.seq = seq & SEQ_MASK;
        self
    }

    /// Sets the 48-bit acknowledgment number (masked to 48 bits).
    pub fn ack(mut self, ack: u64) -> Self {
        self.ack = ack & SEQ_MASK;
        self
    }

    /// Sets the reserved bits alongside the acknowledgment number (the
    /// simulated CCID's loss-echo counter).
    pub fn ack_reserved(mut self, ack_reserved: u16) -> Self {
        self.ack_reserved = ack_reserved;
        self
    }

    /// Encodes the header into a stack array (same allocation-free hot
    /// path as `TcpBuilder::encode`).
    #[inline]
    pub fn encode(self) -> [u8; DCCP_HEADER_LEN] {
        let mut bytes = [0u8; DCCP_HEADER_LEN];
        write_field(&mut bytes, layout::SRC_PORT, self.src_port as u64);
        write_field(&mut bytes, layout::DST_PORT, self.dst_port as u64);
        write_field(
            &mut bytes,
            layout::DATA_OFFSET,
            (DCCP_HEADER_LEN / 4) as u64,
        );
        write_field(&mut bytes, layout::TYPE, self.packet_type.code() as u64);
        write_field(&mut bytes, layout::X, 1);
        write_field(&mut bytes, layout::SEQ, self.seq);
        write_field(&mut bytes, layout::ACK, self.ack);
        write_field(&mut bytes, layout::ACK_RESERVED, self.ack_reserved as u64);
        bytes
    }

    /// Builds the header as an owned, spec-bound [`Header`] for by-name
    /// access (tests and the mutation path; the engine uses
    /// [`encode`](Self::encode)).
    pub fn build(self) -> Header {
        dccp_spec()
            .parse(self.encode().to_vec())
            .expect("built to spec length")
    }
}

/// Mask for DCCP's 48-bit sequence number space.
pub const SEQ_MASK: u64 = (1 << 48) - 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_24_bytes_13_fields() {
        let spec = dccp_spec();
        assert_eq!(spec.byte_len(), 24);
        assert_eq!(spec.field_count(), 13);
    }

    #[test]
    fn builder_view_roundtrip() {
        let h = DccpBuilder::new(5001, 40_002, DccpPacketType::DataAck)
            .seq(0x0000_ABCD_1234_5678 & SEQ_MASK)
            .ack(42)
            .build();
        let v = DccpView::new(h.bytes()).unwrap();
        assert_eq!(v.src_port(), 5001);
        assert_eq!(v.dst_port(), 40_002);
        assert_eq!(v.seq(), 0x0000_ABCD_1234_5678 & SEQ_MASK);
        assert_eq!(v.ack(), 42);
        assert_eq!(v.packet_type(), Some(DccpPacketType::DataAck));
    }

    #[test]
    fn type_codes_roundtrip() {
        for &t in DccpPacketType::all() {
            assert_eq!(DccpPacketType::from_code(t.code()), Some(t));
        }
        assert_eq!(DccpPacketType::from_code(10), None);
        assert_eq!(DccpPacketType::from_code(15), None);
    }

    #[test]
    fn seq_masked_to_48_bits() {
        let h = DccpBuilder::new(1, 2, DccpPacketType::Data)
            .seq(u64::MAX)
            .build();
        let v = DccpView::new(h.bytes()).unwrap();
        assert_eq!(v.seq(), SEQ_MASK);
    }

    #[test]
    fn carries_ack_matches_rfc() {
        assert!(!DccpPacketType::Request.carries_ack());
        assert!(!DccpPacketType::Data.carries_ack());
        assert!(DccpPacketType::Response.carries_ack());
        assert!(DccpPacketType::Ack.carries_ack());
        assert!(DccpPacketType::Sync.carries_ack());
    }

    #[test]
    fn view_rejects_short_buffer() {
        assert!(DccpView::new(&[0u8; 23]).is_err());
    }
}

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::{FieldRef, FieldSpec, PacketError};

/// A complete packet header format: an ordered list of bit-width fields.
///
/// This is SNAKE's machine-readable equivalent of the header diagrams in a
/// protocol RFC. The attack proxy uses it to parse, rewrite, and fabricate
/// headers for any protocol without protocol-specific code.
///
/// Construct one with [`FormatSpec::new`], from the text description language
/// with [`parse_spec`](crate::parse_spec), or use the built-in
/// [`tcp_spec`](crate::tcp::tcp_spec) / [`dccp_spec`](crate::dccp::dccp_spec).
#[derive(Debug, Clone)]
pub struct FormatSpec {
    name: String,
    fields: Vec<FieldSpec>,
    refs: Vec<FieldRef>,
    by_name: HashMap<String, usize>,
    total_bits: u32,
}

impl FormatSpec {
    /// Builds a format spec from an ordered list of fields.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::FieldTooWide`] for fields over 64 bits and
    /// [`PacketError::InvalidFieldSpec`] for zero-width fields, empty names,
    /// or duplicate names.
    pub fn new(name: impl Into<String>, fields: Vec<FieldSpec>) -> Result<Self, PacketError> {
        let name = name.into();
        let mut by_name = HashMap::with_capacity(fields.len());
        let mut refs = Vec::with_capacity(fields.len());
        let mut offset = 0u32;
        for (index, f) in fields.iter().enumerate() {
            if f.bits() == 0 {
                return Err(PacketError::InvalidFieldSpec {
                    reason: format!("field `{}` has zero width", f.name()),
                });
            }
            if f.bits() > 64 {
                return Err(PacketError::FieldTooWide {
                    field: f.name().to_owned(),
                    bits: f.bits(),
                });
            }
            if f.name().is_empty() {
                return Err(PacketError::InvalidFieldSpec {
                    reason: format!("field #{index} has an empty name"),
                });
            }
            if by_name.insert(f.name().to_owned(), index).is_some() {
                return Err(PacketError::InvalidFieldSpec {
                    reason: format!("duplicate field name `{}`", f.name()),
                });
            }
            refs.push(FieldRef::new(index, offset, f.bits()));
            offset += f.bits();
        }
        Ok(FormatSpec {
            name,
            fields,
            refs,
            by_name,
            total_bits: offset,
        })
    }

    /// The protocol name this spec describes (for example `"tcp"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[FieldSpec] {
        &self.fields
    }

    /// Number of fields in the header.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Total header size in bits.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Header size in bytes, rounded up to a whole byte.
    pub fn byte_len(&self) -> usize {
        (self.total_bits as usize).div_ceil(8)
    }

    /// Looks up a field by name.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::UnknownField`] if no field has that name.
    pub fn field(&self, name: &str) -> Result<FieldRef, PacketError> {
        self.by_name
            .get(name)
            .map(|&i| self.refs[i])
            .ok_or_else(|| PacketError::UnknownField {
                name: name.to_owned(),
            })
    }

    /// Looks up a field by declaration index.
    pub fn field_at(&self, index: usize) -> Option<(&FieldSpec, FieldRef)> {
        self.fields.get(index).map(|f| (f, self.refs[index]))
    }

    /// Reads a field's value from a raw header buffer.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::BufferTooShort`] if the buffer does not hold a
    /// complete header.
    pub fn get(&self, buf: &[u8], field: FieldRef) -> Result<u64, PacketError> {
        self.check_len(buf.len())?;
        Ok(read_field(buf, field))
    }

    /// Writes a field's value into a raw header buffer.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::BufferTooShort`] if the buffer does not hold a
    /// complete header, or [`PacketError::ValueOutOfRange`] if `value` does
    /// not fit in the field.
    pub fn set(&self, buf: &mut [u8], field: FieldRef, value: u64) -> Result<(), PacketError> {
        self.check_len(buf.len())?;
        if value > field.max_value() {
            return Err(PacketError::ValueOutOfRange {
                field: self.fields[field.index].name().to_owned(),
                value,
                bits: field.bits,
            });
        }
        write_field(buf, field, value);
        Ok(())
    }

    /// Creates a zeroed header laid out according to this spec.
    pub fn new_header(self: &Arc<Self>) -> Header {
        Header {
            spec: Arc::clone(self),
            bytes: vec![0u8; self.byte_len()],
        }
    }

    /// Wraps existing header bytes for field access.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::BufferTooShort`] if `bytes` is shorter than the
    /// header this spec describes. Extra trailing bytes are preserved
    /// untouched (they model protocol options/padding).
    pub fn parse(self: &Arc<Self>, bytes: Vec<u8>) -> Result<Header, PacketError> {
        self.check_len(bytes.len())?;
        Ok(Header {
            spec: Arc::clone(self),
            bytes,
        })
    }

    fn check_len(&self, got: usize) -> Result<(), PacketError> {
        let needed = self.byte_len();
        if got < needed {
            Err(PacketError::BufferTooShort { needed, got })
        } else {
            Ok(())
        }
    }
}

/// An owned header buffer bound to its [`FormatSpec`], offering by-name field
/// access. This is the unit the attack proxy manipulates.
#[derive(Clone)]
pub struct Header {
    spec: Arc<FormatSpec>,
    bytes: Vec<u8>,
}

impl Header {
    /// The spec this header is laid out by.
    pub fn spec(&self) -> &Arc<FormatSpec> {
        &self.spec
    }

    /// Raw header bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the header, returning the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Reads a field by name.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::UnknownField`] for unknown names.
    pub fn get(&self, field: &str) -> Result<u64, PacketError> {
        let f = self.spec.field(field)?;
        self.spec.get(&self.bytes, f)
    }

    /// Writes a field by name.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::UnknownField`] for unknown names or
    /// [`PacketError::ValueOutOfRange`] if the value does not fit.
    pub fn set(&mut self, field: &str, value: u64) -> Result<(), PacketError> {
        let f = self.spec.field(field)?;
        self.spec.set(&mut self.bytes, f, value)
    }

    /// Reads a field by resolved reference (avoids the name lookup).
    pub fn get_ref(&self, field: FieldRef) -> Result<u64, PacketError> {
        self.spec.get(&self.bytes, field)
    }

    /// Writes a field by resolved reference (avoids the name lookup).
    pub fn set_ref(&mut self, field: FieldRef, value: u64) -> Result<(), PacketError> {
        self.spec.set(&mut self.bytes, field, value)
    }
}

impl fmt::Debug for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("Header");
        s.field("spec", &self.spec.name());
        for field in self.spec.fields() {
            if let Ok(v) = self.get(field.name()) {
                s.field(field.name(), &v);
            }
        }
        s.finish()
    }
}

impl PartialEq for Header {
    fn eq(&self, other: &Self) -> bool {
        self.spec.name() == other.spec.name() && self.bytes == other.bytes
    }
}

impl Eq for Header {}

/// Reads a field: one fixed-width big-endian load when the field is
/// byte-aligned and 8/16/32/48 bits wide (decided when the [`FieldRef`] was
/// created), the generic [`read_bits`] window otherwise.
///
/// The field I/O functions are force-inlined: the typed TCP/DCCP views call
/// them with compile-time `FieldRef`s, and only once inlined does the
/// dispatch fold down to the one load or store the field needs.
#[inline(always)]
pub(crate) fn read_field(buf: &[u8], field: FieldRef) -> u64 {
    if !field.aligned {
        return read_bits(buf, field.bit_offset, field.bits);
    }
    let at = (field.bit_offset / 8) as usize;
    match field.bits {
        8 => buf[at] as u64,
        16 => be16(buf, at),
        32 => be32(buf, at),
        _ => be16(buf, at) << 32 | be32(buf, at + 2),
    }
}

/// Writes a field; the store-side twin of [`read_field`]. `value` is
/// truncated to the field width, like [`write_bits`].
#[inline(always)]
pub(crate) fn write_field(buf: &mut [u8], field: FieldRef, value: u64) {
    if !field.aligned {
        return write_bits(buf, field.bit_offset, field.bits, value);
    }
    let at = (field.bit_offset / 8) as usize;
    match field.bits {
        8 => buf[at] = value as u8,
        16 => buf[at..at + 2].copy_from_slice(&(value as u16).to_be_bytes()),
        32 => buf[at..at + 4].copy_from_slice(&(value as u32).to_be_bytes()),
        _ => buf[at..at + 6].copy_from_slice(&value.to_be_bytes()[2..]),
    }
}

#[inline(always)]
fn be16(buf: &[u8], at: usize) -> u64 {
    u16::from_be_bytes([buf[at], buf[at + 1]]) as u64
}

#[inline(always)]
fn be32(buf: &[u8], at: usize) -> u64 {
    u32::from_be_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]) as u64
}

/// Reads `bits` bits starting `bit_offset` bits into `buf`, MSB first.
///
/// Hot path: field reads happen for every header field of every packet an
/// endpoint or the proxy handles, so this loads the byte window containing
/// the field as one big-endian word instead of looping per bit.
#[inline(always)]
pub(crate) fn read_bits(buf: &[u8], bit_offset: u32, bits: u32) -> u64 {
    debug_assert!((1..=64).contains(&bits));
    let first = (bit_offset / 8) as usize;
    let last = ((bit_offset + bits - 1) / 8) as usize;
    let span = last - first + 1;
    if span <= 8 {
        let mut window = [0u8; 8];
        window[8 - span..].copy_from_slice(&buf[first..=last]);
        let word = u64::from_be_bytes(window);
        let tail = 7 - ((bit_offset + bits - 1) % 8);
        (word >> tail) & mask(bits)
    } else {
        // A 64-bit field straddling 9 bytes: widen through u128.
        let mut window = [0u8; 16];
        window[16 - span..].copy_from_slice(&buf[first..=last]);
        let word = u128::from_be_bytes(window);
        let tail = 7 - ((bit_offset + bits - 1) % 8);
        ((word >> tail) & mask(bits) as u128) as u64
    }
}

/// Writes `bits` bits of `value` starting `bit_offset` bits into `buf`,
/// MSB first. Same word-window strategy as [`read_bits`].
#[inline(always)]
pub(crate) fn write_bits(buf: &mut [u8], bit_offset: u32, bits: u32, value: u64) {
    debug_assert!((1..=64).contains(&bits));
    let first = (bit_offset / 8) as usize;
    let last = ((bit_offset + bits - 1) / 8) as usize;
    let span = last - first + 1;
    let tail = 7 - ((bit_offset + bits - 1) % 8);
    if span <= 8 {
        let mut window = [0u8; 8];
        window[8 - span..].copy_from_slice(&buf[first..=last]);
        let mut word = u64::from_be_bytes(window);
        word &= !(mask(bits) << tail);
        word |= (value & mask(bits)) << tail;
        buf[first..=last].copy_from_slice(&word.to_be_bytes()[8 - span..]);
    } else {
        let mut window = [0u8; 16];
        window[16 - span..].copy_from_slice(&buf[first..=last]);
        let mut word = u128::from_be_bytes(window);
        word &= !((mask(bits) as u128) << tail);
        word |= ((value & mask(bits)) as u128) << tail;
        buf[first..=last].copy_from_slice(&word.to_be_bytes()[16 - span..]);
    }
}

/// All-ones mask for the low `bits` bits (`bits` in `1..=64`).
fn mask(bits: u32) -> u64 {
    u64::MAX >> (64 - bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_spec() -> Arc<FormatSpec> {
        Arc::new(
            FormatSpec::new(
                "simple",
                vec![
                    FieldSpec::new("a", 4),
                    FieldSpec::new("b", 12),
                    FieldSpec::new("c", 32),
                    FieldSpec::new("flag", 1),
                    FieldSpec::new("rest", 7),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn layout_is_sequential_msb_first() {
        let spec = simple_spec();
        assert_eq!(spec.total_bits(), 56);
        assert_eq!(spec.byte_len(), 7);
        let a = spec.field("a").unwrap();
        let b = spec.field("b").unwrap();
        let c = spec.field("c").unwrap();
        assert_eq!(a.bit_offset(), 0);
        assert_eq!(b.bit_offset(), 4);
        assert_eq!(c.bit_offset(), 16);
    }

    #[test]
    fn roundtrip_all_fields() {
        let spec = simple_spec();
        let mut h = spec.new_header();
        h.set("a", 0xF).unwrap();
        h.set("b", 0xABC).unwrap();
        h.set("c", 0xDEADBEEF).unwrap();
        h.set("flag", 1).unwrap();
        h.set("rest", 0x55).unwrap();
        assert_eq!(h.get("a").unwrap(), 0xF);
        assert_eq!(h.get("b").unwrap(), 0xABC);
        assert_eq!(h.get("c").unwrap(), 0xDEADBEEF);
        assert_eq!(h.get("flag").unwrap(), 1);
        assert_eq!(h.get("rest").unwrap(), 0x55);
    }

    #[test]
    fn neighbouring_fields_do_not_clobber() {
        let spec = simple_spec();
        let mut h = spec.new_header();
        h.set("a", 0xF).unwrap();
        h.set("b", 0).unwrap();
        assert_eq!(h.get("a").unwrap(), 0xF, "writing b must not clobber a");
        h.set("b", 0xFFF).unwrap();
        h.set("c", 0).unwrap();
        assert_eq!(h.get("b").unwrap(), 0xFFF, "writing c must not clobber b");
    }

    #[test]
    fn value_out_of_range_is_rejected() {
        let spec = simple_spec();
        let mut h = spec.new_header();
        let err = h.set("a", 16).unwrap_err();
        assert!(matches!(err, PacketError::ValueOutOfRange { .. }));
    }

    #[test]
    fn unknown_field_is_rejected() {
        let spec = simple_spec();
        let h = spec.new_header();
        assert!(matches!(
            h.get("nope"),
            Err(PacketError::UnknownField { .. })
        ));
    }

    #[test]
    fn duplicate_field_names_rejected() {
        let err = FormatSpec::new("dup", vec![FieldSpec::new("x", 8), FieldSpec::new("x", 8)])
            .unwrap_err();
        assert!(matches!(err, PacketError::InvalidFieldSpec { .. }));
    }

    #[test]
    fn zero_width_field_rejected() {
        let err = FormatSpec::new("zero", vec![FieldSpec::new("x", 0)]).unwrap_err();
        assert!(matches!(err, PacketError::InvalidFieldSpec { .. }));
    }

    #[test]
    fn too_wide_field_rejected() {
        let err = FormatSpec::new("wide", vec![FieldSpec::new("x", 65)]).unwrap_err();
        assert!(matches!(err, PacketError::FieldTooWide { .. }));
    }

    #[test]
    fn parse_rejects_short_buffer() {
        let spec = simple_spec();
        assert!(matches!(
            spec.parse(vec![0u8; 3]),
            Err(PacketError::BufferTooShort { .. })
        ));
    }

    #[test]
    fn parse_preserves_trailing_bytes() {
        let spec = simple_spec();
        let mut bytes = vec![0u8; 9];
        bytes[7] = 0xAA;
        bytes[8] = 0xBB;
        let h = spec.parse(bytes).unwrap();
        assert_eq!(&h.bytes()[7..], &[0xAA, 0xBB]);
    }

    #[test]
    fn full_width_64_bit_field() {
        let spec = Arc::new(FormatSpec::new("wide", vec![FieldSpec::new("x", 64)]).unwrap());
        let mut h = spec.new_header();
        h.set("x", u64::MAX).unwrap();
        assert_eq!(h.get("x").unwrap(), u64::MAX);
    }

    /// Per-bit reference for the field I/O: bit `i` of the buffer is bit
    /// `7 - i % 8` of byte `i / 8`, fields are MSB first.
    fn oracle_read(buf: &[u8], bit_offset: u32, bits: u32) -> u64 {
        (bit_offset..bit_offset + bits).fold(0, |acc, i| {
            acc << 1 | (buf[(i / 8) as usize] >> (7 - i % 8) & 1) as u64
        })
    }

    fn oracle_write(buf: &mut [u8], bit_offset: u32, bits: u32, value: u64) {
        for (k, i) in (bit_offset..bit_offset + bits).enumerate() {
            let bit = (value >> (bits as usize - 1 - k) & 1) as u8;
            let byte = &mut buf[(i / 8) as usize];
            *byte = *byte & !(1 << (7 - i % 8)) | bit << (7 - i % 8);
        }
    }

    /// Every field position inside a 32-byte buffer, through both the
    /// `FieldRef` path (fixed-width loads where the ref is `aligned`) and
    /// the generic window: reads agree with the per-bit oracle, writes
    /// produce the oracle's bytes — so neighbouring bits are untouched.
    #[test]
    fn field_io_matches_per_bit_oracle_everywhere() {
        const LEN: u32 = 32;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut aligned_seen = 0;
        for bits in 1..=64u32 {
            for bit_offset in 0..=LEN * 8 - bits {
                let field = FieldRef::new(0, bit_offset, bits);
                aligned_seen += field.aligned as u32;
                let mut background = [0u8; LEN as usize];
                for chunk in background.chunks_mut(8) {
                    chunk.copy_from_slice(&next().to_be_bytes());
                }
                let expect = oracle_read(&background, bit_offset, bits);
                assert_eq!(read_field(&background, field), expect, "{field:?}");
                assert_eq!(read_bits(&background, bit_offset, bits), expect);

                let value = next() & mask(bits);
                let mut want = background;
                oracle_write(&mut want, bit_offset, bits, value);
                let mut via_ref = background;
                write_field(&mut via_ref, field, value);
                assert_eq!(via_ref, want, "write_field {field:?}");
                let mut via_window = background;
                write_bits(&mut via_window, bit_offset, bits, value);
                assert_eq!(via_window, want, "write_bits {field:?}");
            }
        }
        // 8-, 16-, 32- and 48-bit fields at every byte offset that fits.
        assert_eq!(aligned_seen, 32 + 31 + 29 + 27);
    }

    #[test]
    fn header_debug_lists_fields() {
        let spec = simple_spec();
        let h = spec.new_header();
        let dbg = format!("{h:?}");
        assert!(dbg.contains("simple"));
        assert!(dbg.contains("flag"));
    }
}

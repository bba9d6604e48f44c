/// A single fixed-width field in a packet header description.
///
/// Fields are laid out back to back in declaration order, most significant
/// bit first, exactly like the classic RFC header diagrams. Widths of 1..=64
/// bits are supported, which covers every field in the TCP and DCCP headers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldSpec {
    name: String,
    bits: u32,
}

impl FieldSpec {
    /// Creates a field description.
    ///
    /// Width validation happens when the field is assembled into a
    /// [`FormatSpec`](crate::FormatSpec); this constructor is infallible so
    /// specs can be written as simple literals.
    pub fn new(name: impl Into<String>, bits: u32) -> Self {
        FieldSpec {
            name: name.into(),
            bits,
        }
    }

    /// The field's name, unique within its format spec.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The field's width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The largest value representable in this field.
    ///
    /// A 64-bit field saturates at `u64::MAX`.
    pub fn max_value(&self) -> u64 {
        if self.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }

    /// Whether this field is a single-bit flag.
    pub fn is_flag(&self) -> bool {
        self.bits == 1
    }
}

/// A resolved reference to a field inside a [`FormatSpec`](crate::FormatSpec):
/// its index, bit offset from the start of the header, and width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldRef {
    pub(crate) index: usize,
    pub(crate) bit_offset: u32,
    pub(crate) bits: u32,
    /// Whether the field starts on a byte boundary and is 8, 16, 32 or 48
    /// bits wide. Decided once here so every read and write of the field
    /// can take the fixed-width big-endian path without re-deriving it.
    pub(crate) aligned: bool,
}

impl FieldRef {
    pub(crate) const fn new(index: usize, bit_offset: u32, bits: u32) -> FieldRef {
        FieldRef {
            index,
            bit_offset,
            bits,
            aligned: bit_offset.is_multiple_of(8) && matches!(bits, 8 | 16 | 32 | 48),
        }
    }

    /// Position of the field in the spec's declaration order.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Offset of the field's most significant bit from the start of the
    /// header, in bits.
    pub fn bit_offset(&self) -> u32 {
        self.bit_offset
    }

    /// Width of the field in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The largest value representable in this field.
    pub fn max_value(&self) -> u64 {
        if self.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_value_small_fields() {
        assert_eq!(FieldSpec::new("flag", 1).max_value(), 1);
        assert_eq!(FieldSpec::new("nibble", 4).max_value(), 15);
        assert_eq!(FieldSpec::new("port", 16).max_value(), 65_535);
        assert_eq!(FieldSpec::new("seq", 32).max_value(), u32::MAX as u64);
    }

    #[test]
    fn max_value_full_width() {
        assert_eq!(FieldSpec::new("wide", 64).max_value(), u64::MAX);
    }

    #[test]
    fn flag_detection() {
        assert!(FieldSpec::new("syn", 1).is_flag());
        assert!(!FieldSpec::new("window", 16).is_flag());
    }
}

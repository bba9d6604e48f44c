//! Property-based tests for the header format machinery: the attack proxy
//! rewrites arbitrary fields with arbitrary values, so get/set roundtrips
//! and field isolation must hold for every layout, not just the built-in
//! TCP/DCCP specs.

use std::sync::Arc;

use proptest::prelude::*;
use snake_packet::dccp::{dccp_spec, DccpBuilder, DccpPacketType, DccpView, SEQ_MASK};
use snake_packet::tcp::{tcp_spec, TcpBuilder, TcpFlags, TcpView};
use snake_packet::{FieldMutation, FieldSpec, FormatSpec};

/// Strategy: a random valid spec of 1..12 fields with widths 1..=48 and
/// unique names.
fn arb_spec() -> impl Strategy<Value = Arc<FormatSpec>> {
    prop::collection::vec(1u32..=48, 1..12).prop_map(|widths| {
        let fields = widths
            .into_iter()
            .enumerate()
            .map(|(i, w)| FieldSpec::new(format!("f{i}"), w))
            .collect();
        Arc::new(FormatSpec::new("prop", fields).expect("valid spec"))
    })
}

proptest! {
    /// Writing any in-range value to any field reads back exactly.
    #[test]
    fn set_get_roundtrip(spec in arb_spec(), seed in any::<u64>()) {
        let mut header = spec.new_header();
        let mut s = seed;
        for field in spec.fields() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let value = s % (field.max_value().wrapping_add(1).max(1));
            header.set(field.name(), value).unwrap();
            prop_assert_eq!(header.get(field.name()).unwrap(), value);
        }
    }

    /// Writing one field never disturbs any other field.
    #[test]
    fn field_isolation(spec in arb_spec(), seed in any::<u64>()) {
        let mut header = spec.new_header();
        // Fill everything with a deterministic pattern.
        let mut s = seed;
        let mut expected = Vec::new();
        for field in spec.fields() {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let value = s % (field.max_value().wrapping_add(1).max(1));
            header.set(field.name(), value).unwrap();
            expected.push((field.name().to_owned(), value));
        }
        // Rewrite each field to max; all later reads of the others agree.
        for i in 0..spec.field_count() {
            let (spec_field, _) = spec.field_at(i).unwrap();
            let name = spec_field.name().to_owned();
            let max = spec_field.max_value();
            header.set(&name, max).unwrap();
            for (j, (other, val)) in expected.iter().enumerate() {
                if j != i {
                    prop_assert_eq!(header.get(other).unwrap(), *val, "field {} after writing {}", other, name);
                }
            }
            // Restore.
            header.set(&name, expected[i].1).unwrap();
        }
    }

    /// Every mutation leaves the field in range.
    #[test]
    fn mutations_stay_in_range(spec in arb_spec(), k in 0u64..1_000_000, seed in any::<u64>()) {
        let mut header = spec.new_header();
        let mut rng = rand::rngs::mock::StepRng::new(seed, 0x9E3779B97F4A7C15);
        let mutations = [
            FieldMutation::Min,
            FieldMutation::Max,
            FieldMutation::Random,
            FieldMutation::Add(k),
            FieldMutation::Sub(k),
            FieldMutation::Mul(k.max(1)),
            FieldMutation::Div(k.max(1)),
        ];
        for field in spec.fields() {
            for m in mutations {
                m.apply(&mut header, field.name(), &mut rng).unwrap();
                prop_assert!(header.get(field.name()).unwrap() <= field.max_value());
            }
        }
    }

    /// Serialization via raw bytes is stable: parsing the bytes back gives
    /// the same field values.
    #[test]
    fn parse_roundtrip(spec in arb_spec(), seed in any::<u64>()) {
        let mut header = spec.new_header();
        let mut s = seed;
        for field in spec.fields() {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            header.set(field.name(), s % (field.max_value().wrapping_add(1).max(1))).unwrap();
        }
        let bytes = header.bytes().to_vec();
        let reparsed = spec.parse(bytes).unwrap();
        for field in spec.fields() {
            prop_assert_eq!(reparsed.get(field.name()).unwrap(), header.get(field.name()).unwrap());
        }
    }
}

proptest! {
    /// The description-language parser accepts everything the printer of a
    /// generated spec produces.
    #[test]
    fn dsl_roundtrip(widths in prop::collection::vec(1u32..=48, 1..10)) {
        let mut text = String::from("header prop {\n");
        for (i, w) in widths.iter().enumerate() {
            text.push_str(&format!("  f{i} : {w}\n"));
        }
        text.push('}');
        let spec = snake_packet::parse_spec(&text).unwrap();
        prop_assert_eq!(spec.field_count(), widths.len());
        prop_assert_eq!(spec.total_bits(), widths.iter().sum::<u32>());
    }
}

/// A 48-bit value biased toward the wrap: half the draws sit within 2^16
/// of either end of the sequence space.
fn arb_seq48() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u8..4).prop_map(|(raw, region)| match region {
        0 => raw & 0xFFFF,
        1 => SEQ_MASK - (raw & 0xFFFF),
        _ => raw & SEQ_MASK,
    })
}

proptest! {
    /// The typed TCP codec is the description-driven one: `encode` writes
    /// the bytes a by-name `Header::set` of the same fields produces, and
    /// every `TcpView` getter reads what `Header::get` reads by name.
    #[test]
    fn tcp_codec_matches_by_name_access(
        ports in (any::<u16>(), any::<u16>()),
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u16>(),
        urgent_ptr in any::<u16>(),
        flag_bits in 0u8..64,
    ) {
        let flags = TcpFlags {
            urg: flag_bits & 32 != 0,
            ack: flag_bits & 16 != 0,
            psh: flag_bits & 8 != 0,
            rst: flag_bits & 4 != 0,
            syn: flag_bits & 2 != 0,
            fin: flag_bits & 1 != 0,
        };
        let encoded = TcpBuilder::new(ports.0, ports.1)
            .seq(seq)
            .ack(ack)
            .window(window)
            .urgent_ptr(urgent_ptr)
            .flags(flags)
            .encode();

        let mut by_name = tcp_spec().new_header();
        for (field, value) in [
            ("src_port", ports.0 as u64),
            ("dst_port", ports.1 as u64),
            ("seq", seq as u64),
            ("ack", ack as u64),
            ("data_offset", 5),
            ("urg", flags.urg as u64),
            ("ack_flag", flags.ack as u64),
            ("psh", flags.psh as u64),
            ("rst", flags.rst as u64),
            ("syn", flags.syn as u64),
            ("fin", flags.fin as u64),
            ("window", window as u64),
            ("urgent_ptr", urgent_ptr as u64),
        ] {
            by_name.set(field, value).unwrap();
        }
        prop_assert_eq!(&encoded[..], by_name.bytes());

        let view = TcpView::new(&encoded).unwrap();
        let get = |field| by_name.get(field).unwrap();
        prop_assert_eq!(view.src_port() as u64, get("src_port"));
        prop_assert_eq!(view.dst_port() as u64, get("dst_port"));
        prop_assert_eq!(view.seq() as u64, get("seq"));
        prop_assert_eq!(view.ack() as u64, get("ack"));
        prop_assert_eq!(view.data_offset() as u64, get("data_offset"));
        prop_assert_eq!(view.window() as u64, get("window"));
        prop_assert_eq!(view.checksum() as u64, get("checksum"));
        prop_assert_eq!(view.urgent_ptr() as u64, get("urgent_ptr"));
        prop_assert_eq!(view.flags(), flags);
    }

    /// The same for DCCP, with the 48-bit sequence and acknowledgment
    /// numbers drawn at the wrap.
    #[test]
    fn dccp_codec_matches_by_name_access(
        ports in (any::<u16>(), any::<u16>()),
        type_code in 0u8..10,
        seq in arb_seq48(),
        ack in arb_seq48(),
        ack_reserved in any::<u16>(),
    ) {
        let packet_type = DccpPacketType::from_code(type_code).unwrap();
        let encoded = DccpBuilder::new(ports.0, ports.1, packet_type)
            .seq(seq)
            .ack(ack)
            .ack_reserved(ack_reserved)
            .encode();

        let mut by_name = dccp_spec().new_header();
        for (field, value) in [
            ("src_port", ports.0 as u64),
            ("dst_port", ports.1 as u64),
            ("data_offset", 6),
            ("type", type_code as u64),
            ("x", 1),
            ("seq", seq),
            ("ack_reserved", ack_reserved as u64),
            ("ack", ack),
        ] {
            by_name.set(field, value).unwrap();
        }
        prop_assert_eq!(&encoded[..], by_name.bytes());

        let view = DccpView::new(&encoded).unwrap();
        let get = |field| by_name.get(field).unwrap();
        prop_assert_eq!(view.src_port() as u64, get("src_port"));
        prop_assert_eq!(view.dst_port() as u64, get("dst_port"));
        prop_assert_eq!(view.seq(), get("seq"));
        prop_assert_eq!(view.ack(), get("ack"));
        prop_assert_eq!(view.checksum() as u64, get("checksum"));
        prop_assert_eq!(view.ack_reserved() as u64, get("ack_reserved"));
        prop_assert_eq!(view.packet_type(), Some(packet_type));
    }
}

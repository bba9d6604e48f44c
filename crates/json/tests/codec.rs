//! Codec tests for `snake-json`: every journal line, segment line and
//! shard-wire frame goes through this parser, and the last two carry input
//! the process did not write itself. Round trips pin the writer and the
//! parser to each other, the rejection table pins what malformed input
//! reports, and the guards at the bottom pin the parser's cost to the
//! input's length.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use proptest::TestRng;
use snake_json::{parse, Value as Json};

/// Characters a generated string draws from: both delimiters, every kind
/// of escape the writer emits, raw control characters, and multi-byte
/// scalars of each UTF-8 length (so they land next to `"` and `\`).
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\0', '\u{1}', '\u{8}', '\u{c}',
    '\u{1f}', '\u{7f}', 'é', '€', '\u{fffd}', '😀',
];

fn arb_string(rng: &mut TestRng) -> String {
    (0..rng.next_u64() % 12)
        .map(|_| CHARS[(rng.next_u64() % CHARS.len() as u64) as usize])
        .collect()
}

/// A value that must read back exactly as written. That excludes what the
/// format cannot represent — non-finite floats (written as `null`),
/// non-negative `I64`s (read back as `U64`) and duplicate keys (rejected).
fn arb_value(rng: &mut TestRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 8 } else { 10 };
    match rng.next_u64() % kinds {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64() & 1 == 1),
        2 => Json::U64(rng.next_u64()),
        // 48-bit integers: DCCP sequence numbers must not lose bits.
        3 => Json::U64(rng.next_u64() >> 16),
        4 => Json::I64(-1 - (rng.next_u64() >> 1) as i64),
        5 => {
            let v = f64::from_bits(rng.next_u64());
            Json::F64(if v.is_finite() { v } else { 0.5 })
        }
        // Whole-valued floats keep their `.0` and stay floats.
        6 => Json::F64((rng.next_u64() % 1_000) as f64),
        7 => Json::Str(arb_string(rng)),
        8 => Json::Arr(
            (0..rng.next_u64() % 5)
                .map(|_| arb_value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.next_u64() % 20)
                .map(|i| (format!("{}{i}", arb_string(rng)), arb_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[derive(Debug)]
struct ArbValue;

impl Strategy for ArbValue {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        arb_value(rng, 4)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn values_roundtrip_through_text(value in ArbValue) {
        let text = value.to_string_compact();
        prop_assert!(
            !text.bytes().any(|b| b < 0x20),
            "lines must stay single-line and tab-free: {text}"
        );
        prop_assert_eq!(parse(&text).expect("own output parses"), value);
    }
}

#[test]
fn boundary_numbers_keep_their_variant() {
    for value in [
        Json::U64(0),
        Json::U64(u64::MAX),
        Json::U64((1 << 48) - 1),
        Json::U64(i64::MAX as u64 + 1),
        Json::I64(-1),
        Json::I64(i64::MIN),
        Json::F64(1.0),
        Json::F64(-0.5),
        Json::F64(1e21),
        Json::F64(u64::MAX as f64),
        Json::F64(f64::MIN_POSITIVE),
        Json::F64(f64::MAX),
    ] {
        let text = value.to_string_compact();
        assert_eq!(parse(&text).unwrap(), value, "{text}");
    }
    // Integers no 64-bit type holds are read as floats, not refused.
    assert_eq!(
        parse("18446744073709551616").unwrap(),
        Json::F64(18446744073709551616.0)
    );
    assert_eq!(
        parse("-9223372036854775809").unwrap(),
        Json::F64(-9223372036854775809.0)
    );
    assert_eq!(parse("-0").unwrap(), Json::I64(0));
    assert_eq!(parse("1e3").unwrap(), Json::F64(1000.0));
}

#[test]
fn escapes_decode() {
    for (text, expected) in [
        (r#""\u0041""#, "A"),
        (r#""\u00e9\u20AC""#, "é€"),
        (r#""a\u0041b""#, "aAb"),
        // Surrogates are not paired: each half decodes to U+FFFD.
        (r#""\ud83d""#, "\u{fffd}"),
        (r#""\ud83d\ude00""#, "\u{fffd}\u{fffd}"),
        (r#""\"\\\/\b\f\n\r\t""#, "\"\\/\u{8}\u{c}\n\r\t"),
        // Multi-byte scalars on both sides of each delimiter.
        (r#""é\"€\\😀""#, "é\"€\\😀"),
        (r#""😀""#, "😀"),
        (r#""""#, ""),
    ] {
        assert_eq!(
            parse(text).unwrap(),
            Json::Str(expected.to_owned()),
            "{text}"
        );
    }
}

#[test]
fn malformed_input_is_rejected_with_its_position() {
    for (text, message) in [
        (r#"{"a":1,"a":2}"#, "duplicate key `a` at byte 10"),
        (
            r#"{"k":{"x":1,"y":2,"x":3}}"#,
            "duplicate key `x` at byte 21",
        ),
        ("[1,]", "unexpected character at byte 3"),
        ("{", "expected `\"` at byte 1"),
        ("[", "unexpected end of input at byte 1"),
        ("", "unexpected end of input at byte 0"),
        ("1 2", "trailing characters at byte 2"),
        ("01x", "trailing characters at byte 2"),
        ("nope", "expected `null` at byte 0"),
        (r#"{"a" 1}"#, "expected `:` at byte 5"),
        (r#"{"a":1 "b":2}"#, "expected `,` or `}` at byte 7"),
        ("[1 2]", "expected `,` or `]` at byte 3"),
        ("\"unterminated", "unterminated string at byte 13"),
        (r#""tail\"#, "bad escape at byte 5"),
        (r#""bad\qescape""#, "bad escape at byte 4"),
        (r#""\u12""#, "bad \\u escape at byte 1"),
        (r#""\u12"#, "bad \\u escape at byte 1"),
        (r#""\u12zz""#, "bad \\u escape at byte 1"),
        ("-", "invalid number at byte 0"),
        ("[-]", "invalid number at byte 1"),
        ("1e", "invalid number at byte 0"),
    ] {
        let err = parse(text).expect_err(text);
        assert_eq!(err.to_string(), message, "{text}");
    }
}

/// `open` repeated `depth` times around a scalar, then closed again.
fn nested(depth: usize, open: &str, close: &str) -> String {
    format!("{}0{}", open.repeat(depth), close.repeat(depth))
}

#[test]
fn nesting_is_capped_at_128() {
    for (open, close) in [("[", "]"), (r#"{"k":"#, "}"), (r#"[{"k":"#, "}]")] {
        let levels = open.matches(['[', '{']).count();
        let deepest = nested(128 / levels, open, close);
        assert!(parse(&deepest).is_ok(), "128 levels of {open} must parse");
        // One more level of either kind, outside and inside.
        for too_deep in [
            format!("[{deepest}]"),
            format!(r#"{{"k":{deepest}}}"#),
            deepest.replace('0', "[]"),
            deepest.replace('0', "{}"),
        ] {
            let err = parse(&too_deep).expect_err("129 levels must be refused");
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
    }
    // What used to overflow the stack and abort the process.
    assert!(parse(&"[".repeat(2_000_000)).is_err());
    assert!(parse(&r#"{"k":"#.repeat(2_000_000)).is_err());
}

/// Parses `text` and checks it took nowhere near quadratic time. The
/// bound is absolute and generous (an unoptimised build needs well under
/// a second for each of these); the per-character rescans this guards
/// against need minutes to hours on the same inputs.
fn parse_in_linear_time(text: &str) -> Json {
    let started = Instant::now();
    let value = parse(text).expect("guard input parses");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "parsing {} bytes took {elapsed:?}",
        text.len()
    );
    value
}

#[test]
fn one_long_string_parses_in_linear_time() {
    let body = "é".repeat(2 << 20);
    let text = format!("\"{body}\"");
    assert!(text.len() >= 4 << 20);
    assert_eq!(parse_in_linear_time(&text), Json::Str(body));
}

#[test]
fn a_run_of_escapes_parses_in_linear_time() {
    let text = format!("\"{}\"", "\\n".repeat(1 << 19));
    assert_eq!(parse_in_linear_time(&text), Json::Str("\n".repeat(1 << 19)));
}

#[test]
fn a_wide_object_parses_in_linear_time() {
    let members: Vec<String> = (0..200_000).map(|i| format!("\"k{i}\":{i}")).collect();
    let text = format!("{{{}}}", members.join(","));
    let Json::Obj(pairs) = parse_in_linear_time(&text) else {
        panic!("not an object");
    };
    assert_eq!(pairs.len(), 200_000);
    assert_eq!(pairs[199_999], ("k199999".to_owned(), Json::U64(199_999)));
    // The duplicate check still bites past the small-object scan.
    let duplicated = format!("{{{},\"k7\":0}}", members.join(","));
    let err = parse(&duplicated).expect_err("duplicate key");
    assert!(err.to_string().contains("duplicate key `k7`"), "{err}");
}

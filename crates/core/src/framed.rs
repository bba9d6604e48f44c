//! The one line format the journal and the shard wire share: each line is
//! a compact JSON payload, a tab, the payload's FNV-1a 64 checksum as 16
//! lowercase hex digits, and a newline (`payload\t<checksum>\n`).
//!
//! [`write_frame`] and [`checksummed_line`] produce lines;
//! [`FrameReader`] reads them back. The reader skips blank lines and
//! returns every other line as either a parsed [`Value`] or [`Damage`].
//! It never decides what damage means. Each caller applies its own policy
//! (DESIGN §11): the journal skips and counts a damaged line, and its
//! strategy re-runs; on the wire a damaged frame kills the shard that
//! sent it.

use std::fmt::{self, Write as _};
use std::io::{self, BufRead, Write};

use snake_json::{JsonError, Value};

/// FNV-1a 64-bit hash of a line's payload: the per-line checksum. Small,
/// dependency-free, and enough to detect torn or bit-rotted lines (it
/// guards against accidents, not adversaries). A single changed byte
/// always changes it.
pub(crate) fn line_checksum(payload: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in payload {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Completes one line in place: the compact JSON payload gains a tab, its
/// checksum and the newline. The tab can never appear inside the payload
/// (the JSON writer escapes control characters), so the reader can split
/// unambiguously from the right.
pub(crate) fn checksummed_line(mut payload: String) -> String {
    debug_assert!(!payload.contains('\n'), "framed lines must be single-line");
    debug_assert!(
        !payload.contains('\t'),
        "payload tabs would break the checksum split"
    );
    let checksum = line_checksum(payload.as_bytes());
    writeln!(payload, "\t{checksum:016x}").expect("writing to a String cannot fail");
    payload
}

/// Writes `message` as one checksummed line, without flushing.
pub(crate) fn write_frame(writer: &mut impl Write, message: &Value) -> io::Result<()> {
    writer.write_all(checksummed_line(message.to_string_compact()).as_bytes())
}

/// Splits a line (without its line ending) into its payload, verifying
/// the checksum. Returns `None` for a damaged line: a checksum that does
/// not match, none at all (every writer appends one, so a bare line is a
/// torn one), digits that are not the writer's lowercase hex, or a
/// payload that is not UTF-8 — checked last, once the checksum holds.
fn verify_line(line: &[u8]) -> Option<&str> {
    let (payload, suffix) = line.split_at(line.len().checked_sub(17)?);
    let (b'\t', digits) = suffix.split_first()? else {
        return None;
    };
    let mut expected = 0u64;
    for &digit in digits {
        let nibble = match digit {
            b'0'..=b'9' => digit - b'0',
            b'a'..=b'f' => digit - b'a' + 10,
            _ => return None,
        };
        expected = expected << 4 | u64::from(nibble);
    }
    if line_checksum(payload) != expected {
        return None;
    }
    std::str::from_utf8(payload).ok()
}

/// Why a non-blank line could not be read as a frame.
#[derive(Debug)]
pub(crate) enum Damage {
    /// The checksum is missing or does not match, or the payload is not
    /// UTF-8.
    Checksum,
    /// The checksum holds, but the parser refuses the payload.
    NotJson(JsonError),
}

impl fmt::Display for Damage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Damage::Checksum => f.write_str("failed its checksum"),
            Damage::NotJson(err) => write!(f, "is not JSON: {err}"),
        }
    }
}

/// Verifies and parses one raw line (without its line ending). The
/// checksum gate comes first: a damaged line is never trusted, even if it
/// still happens to parse.
pub(crate) fn decode_line(line: &[u8]) -> Result<Value, Damage> {
    let payload = verify_line(line).ok_or(Damage::Checksum)?;
    snake_json::parse(payload).map_err(Damage::NotJson)
}

/// Reads framed lines from a byte stream. One buffer serves every line,
/// and a line is parsed where it was read, never copied. Bytes, not text:
/// a damaged line may no longer be UTF-8, and that is that line's damage,
/// not an I/O error for the stream.
#[derive(Debug)]
pub(crate) struct FrameReader<R> {
    reader: R,
    line: Vec<u8>,
    lines_read: usize,
}

impl<R: BufRead> FrameReader<R> {
    pub(crate) fn new(reader: R) -> FrameReader<R> {
        FrameReader {
            reader,
            line: Vec::new(),
            lines_read: 0,
        }
    }

    /// Raw lines consumed so far, blank ones included.
    pub(crate) fn lines_read(&self) -> usize {
        self.lines_read
    }

    /// The next non-blank raw line, without its line ending, for a caller
    /// that acts on the bytes before [`decode_line`]; `None` at end of
    /// input.
    pub(crate) fn next_line(&mut self) -> io::Result<Option<&mut Vec<u8>>> {
        loop {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                return Ok(None);
            }
            self.lines_read += 1;
            if self.line.last() == Some(&b'\n') {
                self.line.pop();
                if self.line.last() == Some(&b'\r') {
                    self.line.pop();
                }
            }
            if !self.line.trim_ascii().is_empty() {
                return Ok(Some(&mut self.line));
            }
        }
    }

    /// The next non-blank line, decoded; `None` at end of input. I/O
    /// errors are errors; a damaged line is an item.
    pub(crate) fn next_frame(&mut self) -> io::Result<Option<Result<Value, Damage>>> {
        Ok(self.next_line()?.map(|line| decode_line(line)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every frame `input` holds, in order.
    fn read_all(input: &[u8]) -> Vec<Result<Value, Damage>> {
        let mut reader = FrameReader::new(input);
        let mut frames = Vec::new();
        while let Some(frame) = reader.next_frame().expect("a byte slice cannot fail") {
            frames.push(frame);
        }
        frames
    }

    fn frame_bytes(value: &Value) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, value).unwrap();
        bytes
    }

    /// An object of up to six fields whose strings draw on every byte
    /// value read as a char: quotes, backslashes, tabs, newlines and
    /// other control characters all need escaping to stay on one line.
    fn message() -> impl Strategy<Value = Value> {
        prop::collection::vec(
            (
                any::<u64>(),
                prop::collection::vec(any::<u8>(), 0..12),
                any::<bool>(),
            ),
            0..6,
        )
        .prop_map(|fields| {
            Value::Obj(
                fields
                    .into_iter()
                    .enumerate()
                    .map(|(i, (n, text, nested))| {
                        let text: String = text.into_iter().map(char::from).collect();
                        let value = if nested {
                            Value::Arr(vec![Value::U64(n), Value::Str(text), Value::Null])
                        } else {
                            Value::Str(text)
                        };
                        (format!("k{i}"), value)
                    })
                    .collect(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes are read without a panic, and the reader's one
        /// buffer never grows past the input it was given.
        #[test]
        fn arbitrary_bytes_read_without_panic_or_overallocation(
            input in prop::collection::vec(any::<u8>(), 0..512),
            newlines in prop::collection::vec(0usize..512, 0..8),
        ) {
            let mut input = input;
            for at in newlines {
                if let Some(byte) = input.get_mut(at) {
                    *byte = b'\n';
                }
            }
            let mut reader = FrameReader::new(input.as_slice());
            while reader.next_frame().expect("a byte slice cannot fail").is_some() {}
            prop_assert!(
                reader.line.capacity() <= input.len().max(8),
                "buffer {} for {} input bytes",
                reader.line.capacity(),
                input.len()
            );
        }

        /// Garbage under a sound checksum reaches the parser, and comes
        /// back as a value or as damage, never as a panic.
        #[test]
        fn well_framed_garbage_reads_without_panic(
            text in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            const JSONISH: &[u8] = br#"{}[]":,.-+eE0123456789 truefalsn\u"#;
            let payload: Vec<u8> =
                text.iter().map(|&b| JSONISH[usize::from(b) % JSONISH.len()]).collect();
            let mut input = payload.clone();
            input.extend(format!("\t{:016x}\n", line_checksum(&payload)).bytes());
            let frames = read_all(&input);
            prop_assert_eq!(frames.len(), 1);
        }

        /// A well-formed frame reads back as the value written, blank
        /// lines around it or not.
        #[test]
        fn well_formed_frames_round_trip(value in message(), blank in any::<bool>()) {
            let mut input = if blank { b"\n \r\n".to_vec() } else { Vec::new() };
            input.extend(frame_bytes(&value));
            let frames = read_all(&input);
            prop_assert_eq!(frames.len(), 1);
            prop_assert_eq!(frames[0].as_ref().ok(), Some(&value));
        }

        /// Every single-byte change and every cut into a well-formed
        /// frame reads as damage only. (Cutting just the final newline
        /// leaves the frame whole: that is a complete last line.)
        #[test]
        fn every_flip_or_cut_of_a_frame_is_damage(value in message(), mask in 1u8..=255) {
            let frame = frame_bytes(&value);
            let all_damage = |input: &[u8]| {
                let frames = read_all(input);
                !frames.is_empty() && frames.iter().all(Result::is_err)
            };
            for at in 0..frame.len() - 1 {
                for mask in [mask, 0x20, 0x01] {
                    let mut flipped = frame.clone();
                    flipped[at] ^= mask;
                    prop_assert!(all_damage(&flipped), "byte {at} ^ {mask:#04x}");
                }
                if at > 0 {
                    prop_assert!(all_damage(&frame[..at]), "cut to {at} bytes");
                }
            }
        }
    }
}

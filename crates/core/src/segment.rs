//! Worker-side journal *segments*: the crash-tolerance layer under the
//! sharded controller/executor split.
//!
//! The campaign journal (`journal.rs`) records *admitted* outcomes, in
//! strategy-index order, on the controller. That protects against worker
//! crashes but not against the controller itself dying: every outcome a
//! worker had already evaluated but the controller had not yet admitted
//! was in flight on the wire and is lost, so a naive resume re-evaluates
//! whole ranges.
//!
//! Segments close that gap. When a sharded campaign has a journal, each
//! worker *also* appends every evaluated outcome — with its index and its
//! drained counter deltas — to a private segment file next to the
//! journal, flushed line by line. A controller crash then resumes by
//! merging the segments: any outcome present in a segment but absent
//! from the journal is *prefetched* and replayed through the normal
//! admission path (memo ledger, journal append, counter fold) in exact
//! strategy-index order, so the resumed run admits byte-identical
//! results without re-evaluating anything a worker already finished.
//!
//! The file format reuses the journal's FNV-1a framing
//! ([`checksummed_line`]/[`verify_line`]): one checksummed header line
//! identifying the campaign (scenario digest + memoize mode), then one
//! checksummed `eval` line per outcome. Reading is tolerant exactly like
//! the journal: a torn tail or a bit-rotted line is skipped and counted,
//! never fatal, and a segment whose header does not match the resuming
//! campaign is discarded wholesale.
//!
//! Segment files live in `<journal>.segments/` and are named
//! `shard-<nn>-p<pid>.seg`: one file per shard slot (a dead worker is
//! never replaced, so a slot never has a second writer), and the
//! controller pid keeps a resumed run's segments from overwriting the
//! crashed run's (which may still hold outcomes the resume has not yet
//! replayed and re-journaled). The directory is cleared when a fresh
//! (non-resume) campaign starts and removed once a campaign completes.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};

use snake_json::{obj, FromJson, ToJson, Value};

use crate::journal::{
    checksummed_line, counters_json, decode_counters, read_raw_line, verify_line,
};
use crate::result::StrategyOutcome;

/// Bumped when the segment line format changes incompatibly; a resuming
/// controller discards segments from another version.
pub(crate) const SEGMENT_VERSION: u64 = 1;

/// The directory holding a journal's segment files: the journal path with
/// a `.segments` suffix, mirroring how the header temp file is derived.
pub(crate) fn segment_dir(journal: &Path) -> PathBuf {
    let mut s = journal.as_os_str().to_owned();
    s.push(".segments");
    PathBuf::from(s)
}

/// The segment file a given shard's worker writes; the controller pid
/// isolates runs from each other (see the module docs).
pub(crate) fn segment_file(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!(
        "shard-{shard:02}-p{pid}.seg",
        pid = std::process::id()
    ))
}

/// Deletes every `*.seg` file in the directory (and the directory itself
/// when it ends up empty). A missing directory is fine; so is a file
/// vanishing mid-walk. Used both to clear stale segments when a fresh
/// campaign starts and to clean up after a completed one.
pub(crate) fn clear_dir(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "seg") {
            fs::remove_file(&path).ok();
        }
    }
    fs::remove_dir(dir).ok();
}

/// Appends evaluated outcomes to one worker's segment file, flushing per
/// line so a killed worker loses at most the line being written.
#[derive(Debug)]
pub(crate) struct SegmentWriter {
    file: File,
}

impl SegmentWriter {
    /// Creates (truncating) the segment file and writes its header line.
    pub(crate) fn create(
        path: &Path,
        shard: u64,
        digest: u64,
        memoize: bool,
    ) -> io::Result<SegmentWriter> {
        let mut file = File::create(path)?;
        let header = obj([
            ("type", Value::Str("segment".into())),
            ("version", Value::U64(SEGMENT_VERSION)),
            ("shard", Value::U64(shard)),
            ("digest", Value::Str(format!("{digest:016x}"))),
            ("memoize", Value::Bool(memoize)),
        ]);
        let line = checksummed_line(header.to_string_compact());
        file.write_all(line.as_bytes())?;
        file.flush()?;
        Ok(SegmentWriter { file })
    }

    /// Appends one evaluated outcome with its strategy index and the
    /// counter deltas its evaluation produced, then flushes.
    pub(crate) fn record(
        &mut self,
        index: u64,
        busy_nanos: u64,
        counters: &[(String, u64)],
        outcome: &StrategyOutcome,
    ) -> io::Result<()> {
        let entry = obj([
            ("type", Value::Str("eval".into())),
            ("index", Value::U64(index)),
            ("busy_nanos", Value::U64(busy_nanos)),
            ("counters", counters_json(counters)),
            ("outcome", outcome.to_json()),
        ]);
        let line = checksummed_line(entry.to_string_compact());
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }
}

/// One segment outcome accepted by [`merge`]: evaluated but never
/// admitted, waiting to be replayed through the controller's admission
/// path with the counter deltas its evaluation produced.
#[derive(Debug, Clone)]
pub(crate) struct SegmentEntry {
    pub(crate) outcome: StrategyOutcome,
    pub(crate) counters: Vec<(String, u64)>,
}

/// The result of merging a segment directory at resume time.
#[derive(Debug, Default)]
pub(crate) struct SegmentMerge {
    /// Accepted entries keyed by strategy id (the replay key: the round
    /// loop matches pending strategies against it exactly as it matches
    /// journal-reused outcomes).
    pub(crate) entries: BTreeMap<u64, SegmentEntry>,
    /// Entries accepted into `entries`.
    pub(crate) merged: u64,
    /// Lines rejected: already journaled, duplicated across segments,
    /// torn/corrupt, or inside a segment whose header mismatched.
    pub(crate) discarded: u64,
}

/// Merges every segment file in `dir`, keeping outcomes whose strategy id
/// is not `already_admitted` (journal wins: an id in both was admitted
/// before the crash, so its segment copy is pre-admission and stale).
/// Files are visited in sorted name order so duplicate coverage — a range
/// evaluated by a worker that died after writing, then re-dispatched and
/// evaluated again — resolves deterministically to the first file; the
/// copies are identical anyway (evaluation is deterministic), the tie
/// break just keeps the accounting stable. A missing directory is an
/// empty merge.
pub(crate) fn merge(
    dir: &Path,
    digest: u64,
    memoize: bool,
    already_admitted: impl Fn(u64) -> bool,
) -> io::Result<SegmentMerge> {
    let mut out = SegmentMerge::default();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    let mut files: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    files.sort();
    for path in files {
        merge_file(&path, digest, memoize, &already_admitted, &mut out)?;
    }
    Ok(out)
}

fn merge_file(
    path: &Path,
    digest: u64,
    memoize: bool,
    already_admitted: &impl Fn(u64) -> bool,
    out: &mut SegmentMerge,
) -> io::Result<()> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let mut file = BufReader::new(file);
    let mut line = Vec::new();
    // Header gate: a segment from another campaign (digest drift), another
    // memoize mode, or another format version must not leak outcomes into
    // this resume. Its remaining lines are counted as discarded without
    // being trusted. An empty file — a worker that died before its first
    // write — is simply skipped.
    if !read_raw_line(&mut file, &mut line)? {
        return Ok(());
    }
    let header_ok = header_matches(&line, digest, memoize);
    while read_raw_line(&mut file, &mut line)? {
        if line.trim_ascii().is_empty() {
            continue;
        }
        if !header_ok {
            out.discarded += 1;
            continue;
        }
        let Some(entry) = decode_entry(&line) else {
            out.discarded += 1;
            continue;
        };
        let id = entry.outcome.strategy.id;
        if already_admitted(id) || out.entries.contains_key(&id) {
            out.discarded += 1;
        } else {
            out.entries.insert(id, entry);
            out.merged += 1;
        }
    }
    // A header-only or torn-header file contributes nothing further; the
    // torn header itself counts as one discarded line.
    if !header_ok {
        out.discarded += 1;
    }
    Ok(())
}

fn header_matches(line: &[u8], digest: u64, memoize: bool) -> bool {
    let Some(payload) = verify_line(line) else {
        return false;
    };
    let Ok(parsed) = snake_json::parse(payload) else {
        return false;
    };
    parsed.get("type").and_then(Value::as_str) == Some("segment")
        && parsed.get("version").and_then(Value::as_u64) == Some(SEGMENT_VERSION)
        && parsed.get("digest").and_then(Value::as_str) == Some(format!("{digest:016x}").as_str())
        && parsed.get("memoize").and_then(Value::as_bool) == Some(memoize)
}

fn decode_entry(line: &[u8]) -> Option<SegmentEntry> {
    let payload = verify_line(line)?;
    let parsed = snake_json::parse(payload).ok()?;
    if parsed.get("type").and_then(Value::as_str) != Some("eval") {
        return None;
    }
    let outcome = StrategyOutcome::from_json(parsed.get("outcome")?).ok()?;
    let counters = decode_counters(parsed.get("counters"));
    Some(SegmentEntry { outcome, counters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::Verdict;
    use crate::result::OutcomeKind;
    use crate::scenario::TestMetrics;
    use snake_proxy::{BasicAttack, Endpoint, Strategy, StrategyKind};

    fn outcome(id: u64) -> StrategyOutcome {
        StrategyOutcome {
            strategy: Strategy {
                id,
                kind: StrategyKind::OnPacket {
                    endpoint: Endpoint::Client,
                    state: "ESTABLISHED".into(),
                    packet_type: "ACK".into(),
                    attack: BasicAttack::Drop { percent: 100 },
                },
            },
            verdict: Verdict::default(),
            metrics: TestMetrics {
                target_bytes: 123,
                ..TestMetrics::empty()
            },
            repeatable: true,
            on_path: false,
            false_positive: false,
            outcome_kind: OutcomeKind::Ok,
            error: None,
            memo: None,
        }
    }

    fn counters(n: u64) -> Vec<(String, u64)> {
        vec![
            ("exec.runs.from_scratch".into(), n),
            ("netsim.events".into(), 10 * n),
        ]
    }

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("snake-segment-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        clear_dir(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn write_segment(dir: &Path, shard: usize, ids: &[u64]) -> PathBuf {
        let path = segment_file(dir, shard);
        let mut w = SegmentWriter::create(&path, shard as u64, 0xd1e5, true).unwrap();
        for (i, &id) in ids.iter().enumerate() {
            w.record(i as u64, 1_000, &counters(id), &outcome(id))
                .unwrap();
        }
        path
    }

    #[test]
    fn write_then_merge_roundtrips_outcomes_and_counters() {
        let dir = temp_dir("roundtrip");
        write_segment(&dir, 0, &[3, 5]);
        let merge = merge(&dir, 0xd1e5, true, |_| false).unwrap();
        assert_eq!(merge.merged, 2);
        assert_eq!(merge.discarded, 0);
        assert_eq!(merge.entries[&3].outcome, outcome(3));
        assert_eq!(merge.entries[&5].counters, counters(5));
        clear_dir(&dir);
    }

    #[test]
    fn journal_covered_outcomes_are_discarded() {
        let dir = temp_dir("journal-wins");
        write_segment(&dir, 0, &[1, 2, 3]);
        let merge = merge(&dir, 0xd1e5, true, |id| id == 2).unwrap();
        assert_eq!(merge.merged, 2);
        assert_eq!(
            merge.discarded, 1,
            "the already-admitted id must be dropped"
        );
        assert!(!merge.entries.contains_key(&2));
        clear_dir(&dir);
    }

    #[test]
    fn torn_segment_tail_is_skipped_not_fatal() {
        let dir = temp_dir("torn");
        let path = write_segment(&dir, 0, &[7]);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"type\":\"eval\",\"index\":1,\"outco");
        std::fs::write(&path, text).unwrap();
        let merge = merge(&dir, 0xd1e5, true, |_| false).unwrap();
        assert_eq!(merge.merged, 1);
        assert_eq!(merge.discarded, 1);
        clear_dir(&dir);
    }

    #[test]
    fn checksum_corrupted_line_is_discarded_not_trusted() {
        let dir = temp_dir("corrupt");
        let path = write_segment(&dir, 0, &[7, 8]);
        // Damage the payload of the last line without touching its
        // checksum: only the checksum can reveal the corruption.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let last = lines.last_mut().unwrap();
        let damaged = last.replace("\"target_bytes\":123", "\"target_bytes\":999");
        assert_ne!(*last, damaged, "the replacement must hit");
        *last = damaged;
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let merge = merge(&dir, 0xd1e5, true, |_| false).unwrap();
        assert_eq!(merge.merged, 1);
        assert_eq!(merge.discarded, 1);
        assert!(merge.entries.contains_key(&7));
        clear_dir(&dir);
    }

    #[test]
    fn line_that_is_no_longer_utf8_is_discarded_not_fatal() {
        let dir = temp_dir("high-bit");
        let path = write_segment(&dir, 0, &[7, 8, 9]);
        // One flipped bit in the middle entry leaves a byte that is not
        // UTF-8 any more; reading the file as text would fail outright
        // and take the two intact entries down with it.
        let mut bytes = std::fs::read(&path).unwrap();
        let middle: usize = bytes
            .split_inclusive(|&b| b == b'\n')
            .take(2)
            .map(<[u8]>::len)
            .sum();
        bytes[middle + 40] |= 0x80;
        assert!(std::str::from_utf8(&bytes).is_err());
        std::fs::write(&path, bytes).unwrap();
        let merge = merge(&dir, 0xd1e5, true, |_| false).unwrap();
        assert_eq!(merge.merged, 2);
        assert_eq!(merge.discarded, 1);
        assert_eq!(merge.entries.keys().copied().collect::<Vec<_>>(), [7, 9]);
        clear_dir(&dir);
    }

    #[test]
    fn duplicate_range_across_two_segments_keeps_one_copy() {
        // A worker died after writing its range; the range was
        // re-dispatched and a survivor wrote it again. Both copies are
        // identical (evaluation is deterministic); exactly one merges.
        let dir = temp_dir("duplicate");
        write_segment(&dir, 0, &[4, 5]);
        write_segment(&dir, 1, &[5, 6]);
        let merge = merge(&dir, 0xd1e5, true, |_| false).unwrap();
        assert_eq!(merge.merged, 3);
        assert_eq!(merge.discarded, 1, "the duplicated id must be counted once");
        assert_eq!(
            merge.entries.keys().copied().collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        clear_dir(&dir);
    }

    #[test]
    fn empty_and_header_only_segments_merge_to_nothing() {
        // A worker that died before its first outcome leaves either a
        // zero-byte file (killed inside create) or a header-only one.
        let dir = temp_dir("empty");
        std::fs::write(segment_file(&dir, 0), "").unwrap();
        SegmentWriter::create(&segment_file(&dir, 1), 1, 0xd1e5, true).unwrap();
        let merge = merge(&dir, 0xd1e5, true, |_| false).unwrap();
        assert_eq!(merge.merged, 0);
        assert_eq!(merge.discarded, 0);
        clear_dir(&dir);
    }

    #[test]
    fn mismatched_header_discards_the_whole_file() {
        let dir = temp_dir("mismatch");
        write_segment(&dir, 0, &[1, 2]); // digest 0xd1e5
        let merge = merge(&dir, 0xbeef, true, |_| false).unwrap();
        assert_eq!(merge.merged, 0);
        assert_eq!(merge.discarded, 3, "both lines plus the rejected header");
        // Same digest, different memoize mode: provenance markers would
        // not line up, so the file is equally unusable.
        let remerge = super::merge(&dir, 0xd1e5, false, |_| false).unwrap();
        assert_eq!(remerge.merged, 0);
        clear_dir(&dir);
    }

    #[test]
    fn missing_directory_is_an_empty_merge() {
        let merge = merge(Path::new("/nonexistent/snake.segments"), 1, true, |_| false).unwrap();
        assert_eq!(merge.merged, 0);
        assert_eq!(merge.discarded, 0);
    }
}

//! Streaming JSONL campaign journal.
//!
//! One line per completed [`StrategyOutcome`], appended and flushed as the
//! executors finish, preceded by a header line identifying the campaign. A
//! campaign process that is killed (or crashes) mid-run leaves behind every
//! outcome that completed; `Campaign::run` with `resume: true` reloads
//! them, re-runs only what is missing, and reproduces the same final table.
//!
//! The format is deliberately line-oriented: a writer dying mid-append can
//! corrupt at most the final line, which the loader skips (and counts)
//! instead of rejecting the whole journal.
//!
//! Two hardening measures protect resumes against torn and silently
//! corrupted data:
//!
//! * every line the writer emits carries a trailing FNV-1a checksum
//!   (`<json>\t<16 hex digits>`), verified on load — a line whose payload
//!   was damaged in place (bit rot, a partially overwritten sector, an
//!   editor mishap) is counted as malformed and skipped instead of being
//!   trusted, and the affected strategy simply re-runs;
//! * the header is first written to a temporary sibling file and then
//!   renamed into place, so a crash during journal creation can never
//!   leave a half-written header behind.
//!
//! Checksums are mandatory on read: a line without one is damage (a tail
//! torn off mid-write), counted as malformed like any other. The file is
//! read as bytes, not text, so damage that leaves a line invalid UTF-8 is
//! that line's problem and not an I/O error for the whole journal.

use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use snake_json::{obj, FromJson, JsonError, ObjExt, ToJson, Value};
use snake_proxy::Strategy;

use crate::detect::Verdict;
use crate::result::{Memo, OutcomeKind, StrategyOutcome};
use crate::scenario::TestMetrics;
use crate::shard::intern_counter;

impl ToJson for Verdict {
    fn to_json(&self) -> Value {
        obj([
            (
                "establishment_prevented",
                Value::Bool(self.establishment_prevented),
            ),
            (
                "throughput_degradation",
                Value::Bool(self.throughput_degradation),
            ),
            ("throughput_gain", Value::Bool(self.throughput_gain)),
            (
                "competing_degradation",
                Value::Bool(self.competing_degradation),
            ),
            ("socket_leak", Value::Bool(self.socket_leak)),
            ("fairness_collapse", Value::Bool(self.fairness_collapse)),
            ("flow_starvation", Value::Bool(self.flow_starvation)),
            ("table_exhaustion", Value::Bool(self.table_exhaustion)),
        ])
    }
}

impl FromJson for Verdict {
    fn from_json(value: &Value) -> Result<Verdict, JsonError> {
        // The cross-flow flags postdate the journal format; journals
        // written before them decode with the flags clear, which is also
        // what their two-flow scenarios would have computed.
        let opt_bool = |key: &str| -> Result<bool, JsonError> {
            match value.get(key) {
                Some(_) => value.req_bool(key),
                None => Ok(false),
            }
        };
        Ok(Verdict {
            establishment_prevented: value.req_bool("establishment_prevented")?,
            throughput_degradation: value.req_bool("throughput_degradation")?,
            throughput_gain: value.req_bool("throughput_gain")?,
            competing_degradation: value.req_bool("competing_degradation")?,
            socket_leak: value.req_bool("socket_leak")?,
            fairness_collapse: opt_bool("fairness_collapse")?,
            flow_starvation: opt_bool("flow_starvation")?,
            table_exhaustion: opt_bool("table_exhaustion")?,
        })
    }
}

impl ToJson for OutcomeKind {
    fn to_json(&self) -> Value {
        Value::Str(self.label().to_owned())
    }
}

impl FromJson for OutcomeKind {
    fn from_json(value: &Value) -> Result<OutcomeKind, JsonError> {
        match value.as_str() {
            Some("ok") => Ok(OutcomeKind::Ok),
            Some("errored") => Ok(OutcomeKind::Errored),
            Some("truncated") => Ok(OutcomeKind::Truncated),
            _ => Err(JsonError::decode(
                "outcome kind must be ok/errored/truncated",
            )),
        }
    }
}

impl ToJson for StrategyOutcome {
    fn to_json(&self) -> Value {
        obj([
            ("type", Value::Str("outcome".into())),
            ("outcome", self.outcome_kind.to_json()),
            (
                "error",
                match &self.error {
                    Some(e) => Value::Str(e.clone()),
                    None => Value::Null,
                },
            ),
            ("strategy", self.strategy.to_json()),
            ("verdict", self.verdict.to_json()),
            ("metrics", self.metrics.to_json()),
            ("repeatable", Value::Bool(self.repeatable)),
            ("on_path", Value::Bool(self.on_path)),
            ("false_positive", Value::Bool(self.false_positive)),
            (
                "memo",
                match self.memo {
                    Some(m) => Value::Str(m.as_str().to_owned()),
                    None => Value::Null,
                },
            ),
        ])
    }
}

impl FromJson for StrategyOutcome {
    fn from_json(value: &Value) -> Result<StrategyOutcome, JsonError> {
        let error = match value.req("error")? {
            Value::Null => None,
            Value::Str(s) => Some(s.clone()),
            _ => return Err(JsonError::decode("field `error` must be a string or null")),
        };
        Ok(StrategyOutcome {
            strategy: Strategy::from_json(value.req("strategy")?)?,
            verdict: Verdict::from_json(value.req("verdict")?)?,
            metrics: TestMetrics::from_json(value.req("metrics")?)?,
            repeatable: value.req_bool("repeatable")?,
            on_path: value.req_bool("on_path")?,
            false_positive: value.req_bool("false_positive")?,
            outcome_kind: OutcomeKind::from_json(value.req("outcome")?)?,
            error,
            // Journals written before memoization lack the field; those
            // outcomes all ran for real. Older binaries also wrote `"fp"`
            // (a fingerprint label put on a completed run) and `"halt"`
            // (a run cut short with the outcome the full run gives): both
            // stand for a simulated outcome now.
            memo: match value.get("memo") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) => match s.as_str() {
                    "inert" => Some(Memo::Inert),
                    "class" => Some(Memo::Class),
                    "fp" | "halt" => None,
                    other => {
                        return Err(JsonError::decode(format!("unknown memo marker `{other}`")))
                    }
                },
                Some(_) => return Err(JsonError::decode("field `memo` must be a string or null")),
            },
        })
    }
}

/// The journal's first line: which campaign the outcomes belong to. Resume
/// refuses a journal whose header does not match the current config (see
/// [`JournalHeader::mismatch_against`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// Implementation under test.
    pub implementation: String,
    /// Scenario seed.
    pub seed: u64,
    /// Detection threshold.
    pub threshold: f64,
    /// Whether campaign-level memoization was live when the journal was
    /// written. Memoized and unmemoized campaigns produce the same
    /// verdicts but different provenance markers, so mixing them in one
    /// journal would corrupt the memo accounting on resume. `None` in
    /// journals written before this field existed (accepted as matching).
    pub memoize: Option<bool>,
    /// Bottleneck impairment spec (its round-trippable `Display` form,
    /// `"none"` when unimpaired). An impaired and an unimpaired campaign
    /// share implementation, seed and threshold yet produce incomparable
    /// outcomes; recording the spec closes that resume hole. `None` in
    /// journals written before this field existed (accepted as matching).
    pub impairment: Option<String>,
}

impl JournalHeader {
    /// Compares a header loaded from disk (`self`) against the header the
    /// current campaign would write, returning a human-readable list of
    /// the fields that differ — or `None` when resuming is safe. The
    /// optional fields (`memoize`, `impairment`) only mismatch when the
    /// loaded journal actually recorded them: a legacy journal predating
    /// those fields is accepted, exactly as before they existed.
    pub fn mismatch_against(&self, current: &JournalHeader) -> Option<String> {
        let mut diffs: Vec<String> = Vec::new();
        if self.implementation != current.implementation {
            diffs.push(format!(
                "implementation: journal has `{}`, campaign has `{}`",
                self.implementation, current.implementation
            ));
        }
        if self.seed != current.seed {
            diffs.push(format!(
                "seed: journal has {}, campaign has {}",
                self.seed, current.seed
            ));
        }
        if self.threshold != current.threshold {
            diffs.push(format!(
                "threshold: journal has {}, campaign has {}",
                self.threshold, current.threshold
            ));
        }
        if let (Some(a), Some(b)) = (self.memoize, current.memoize) {
            if a != b {
                diffs.push(format!(
                    "memoization: journal was written with memoize={a}, campaign has memoize={b}"
                ));
            }
        }
        if let (Some(a), Some(b)) = (&self.impairment, &current.impairment) {
            if a != b {
                diffs.push(format!("impairment: journal has `{a}`, campaign has `{b}`"));
            }
        }
        if diffs.is_empty() {
            None
        } else {
            Some(diffs.join("; "))
        }
    }
}

impl ToJson for JournalHeader {
    fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("type", Value::Str("campaign".into())),
            ("implementation", Value::Str(self.implementation.clone())),
            ("seed", Value::U64(self.seed)),
            ("threshold", Value::F64(self.threshold)),
        ];
        if let Some(memoize) = self.memoize {
            pairs.push(("memoize", Value::Bool(memoize)));
        }
        if let Some(impairment) = &self.impairment {
            pairs.push(("impairment", Value::Str(impairment.clone())));
        }
        obj(pairs)
    }
}

impl FromJson for JournalHeader {
    fn from_json(value: &Value) -> Result<JournalHeader, JsonError> {
        Ok(JournalHeader {
            implementation: value.req_str("implementation")?.to_owned(),
            seed: value.req_u64("seed")?,
            threshold: value.req_f64("threshold")?,
            // Absent in journals written before config-drift detection;
            // those headers match any setting, as they always did.
            memoize: match value.get("memoize") {
                None | Some(Value::Null) => None,
                Some(Value::Bool(b)) => Some(*b),
                Some(_) => return Err(JsonError::decode("field `memoize` must be a bool or null")),
            },
            impairment: match value.get("impairment") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) => Some(s.clone()),
                Some(_) => {
                    return Err(JsonError::decode(
                        "field `impairment` must be a string or null",
                    ))
                }
            },
        })
    }
}

/// Encodes worker counter deltas as a JSON object (`name -> count`), the
/// shape they travel in on the shard wire and in journal outcome lines.
pub(crate) fn counters_json<'a>(counters: impl IntoIterator<Item = (&'a str, u64)>) -> Value {
    Value::Obj(
        counters
            .into_iter()
            .map(|(k, v)| (k.to_owned(), Value::U64(v)))
            .collect(),
    )
}

/// Decodes a counters object back into interned pairs. Tolerant by
/// design: a missing or malformed field is an empty delta (journals
/// written before counters existed have no field at all), and non-numeric
/// entries and names outside the worker counter table (such as a retired
/// counter an older build wrote) are dropped rather than poisoning the
/// line.
pub(crate) fn decode_counters(value: Option<&Value>) -> Vec<(&'static str, u64)> {
    match value {
        Some(Value::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| Some((intern_counter(k)?, v.as_u64()?)))
            .collect(),
        _ => Vec::new(),
    }
}

/// FNV-1a 64-bit hash of a line's JSON payload — the per-line checksum.
/// Small, dependency-free, and plenty for detecting torn or bit-rotted
/// lines (this guards against accidents, not adversaries). Shared with the
/// shard wire, which uses the same framing.
pub(crate) fn line_checksum(payload: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in payload {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Completes one journal line in place: the compact JSON payload gains a
/// tab, its checksum as 16 lowercase hex digits, and the newline. The tab
/// can never appear inside the payload (the JSON writer escapes control
/// characters), so the loader can split unambiguously from the right.
pub(crate) fn checksummed_line(mut payload: String) -> String {
    debug_assert!(!payload.contains('\n'), "journal lines must be single-line");
    debug_assert!(
        !payload.contains('\t'),
        "payload tabs would break the checksum split"
    );
    let checksum = line_checksum(payload.as_bytes());
    writeln!(payload, "\t{checksum:016x}").expect("writing to a String cannot fail");
    payload
}

/// Reads the next raw line into `line` (cleared first) without its line
/// ending; `false` at end of input. Bytes, not text: a damaged line may no
/// longer be UTF-8, and that is for [`verify_line`] to reject, not for the
/// read to fail on.
pub(crate) fn read_raw_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<bool> {
    line.clear();
    if reader.read_until(b'\n', line)? == 0 {
        return Ok(false);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    }
    Ok(true)
}

/// Splits a loaded line into its JSON payload, verifying the checksum.
/// Returns `None` for a damaged line: a checksum that does not match, none
/// at all (every writer appends one, so a bare line is a torn one), or a
/// payload that is not UTF-8 — checked last and once, so the checksum
/// gate has already passed by then.
pub(crate) fn verify_line(line: &[u8]) -> Option<&str> {
    let (payload, suffix) = line.split_at(line.len().checked_sub(17)?);
    let (b'\t', digits) = suffix.split_first()? else {
        return None;
    };
    let mut expected = 0u64;
    for &digit in digits {
        expected = expected << 4 | u64::from(char::from(digit).to_digit(16)?);
    }
    if line_checksum(payload) != expected {
        return None;
    }
    std::str::from_utf8(payload).ok()
}

/// Appends outcomes to a journal file, flushing after every line so a
/// killed process loses at most the line being written.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Starts a fresh journal and writes the header line. The header is
    /// written to a temporary sibling file and renamed into place, so a
    /// crash here leaves either the old journal or a complete new header —
    /// never a torn one. The returned writer keeps appending through the
    /// same (renamed) file handle.
    pub fn create(path: &Path, header: &JournalHeader) -> io::Result<JournalWriter> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp_path = std::path::PathBuf::from(tmp);
        let mut file = File::create(&tmp_path)?;
        let line = checksummed_line(header.to_json().to_string_compact());
        file.write_all(line.as_bytes())?;
        file.flush()?;
        file.sync_all()?;
        // Renaming moves the inode the handle already points at, so the
        // writer needs no reopen — appends after this land in `path`.
        fs::rename(&tmp_path, path)?;
        Ok(JournalWriter { file })
    }

    /// Reopens an existing journal for appending (resume). If the previous
    /// writer was killed mid-line, the file may not end with a newline;
    /// one is added so the torn fragment cannot glue onto the next record.
    pub fn append(path: &Path) -> io::Result<JournalWriter> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let len = file.metadata()?.len();
        if len > 0 {
            file.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
                file.flush()?;
            }
        }
        Ok(JournalWriter { file })
    }

    /// Appends one outcome as a single checksummed JSONL line and flushes.
    pub fn record(&mut self, outcome: &StrategyOutcome) -> io::Result<()> {
        self.record_with_counters(outcome, &[])
    }

    /// Like [`record`](JournalWriter::record), additionally embedding the
    /// worker counter deltas the outcome's evaluation produced (sharded
    /// campaigns receive them over the wire). On resume the deltas are
    /// re-folded into the observer, so a resumed sharded run's manifest
    /// counters match the uninterrupted run's exactly instead of missing
    /// every reused outcome's contribution. An empty slice writes the
    /// classic line with no `counters` field; readers that predate the
    /// field ignore it ([`StrategyOutcome`]'s decoder skips unknown keys).
    pub fn record_with_counters(
        &mut self,
        outcome: &StrategyOutcome,
        counters: &[(&str, u64)],
    ) -> io::Result<()> {
        let mut json = outcome.to_json();
        if !counters.is_empty() {
            if let Value::Obj(pairs) = &mut json {
                pairs.push((
                    "counters".to_owned(),
                    counters_json(counters.iter().copied()),
                ));
            }
        }
        let line = checksummed_line(json.to_string_compact());
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }
}

/// One journal outcome line read back with its embedded worker counter
/// deltas (empty for lines written without any).
#[derive(Debug)]
pub struct JournalEntry {
    /// The recorded outcome.
    pub outcome: StrategyOutcome,
    /// Worker counter deltas embedded alongside it, if any; names outside
    /// the worker counter table are dropped when the line is read.
    pub counters: Vec<(&'static str, u64)>,
}

/// A journal read back from disk.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The header line, when present and well-formed.
    pub header: Option<JournalHeader>,
    /// Every well-formed outcome line, in file order.
    pub outcomes: Vec<StrategyOutcome>,
    /// Lines that failed to parse (typically one partial final line left
    /// by a killed writer).
    pub malformed_lines: usize,
}

/// Streams a journal's outcome lines one at a time, so resuming a huge
/// journal never holds the whole file in memory. The header line (raw
/// line 0) is classified eagerly at [`open`](JournalReader::open), so
/// [`header`](JournalReader::header) is meaningful before any outcome has
/// been pulled. Tolerance matches [`load`]: a missing file is an empty
/// journal, and a line that fails its checksum, fails to parse, or
/// carries an unexpected type is skipped and counted in
/// [`malformed_lines`](JournalReader::malformed_lines), never fatal.
#[derive(Debug)]
pub struct JournalReader {
    /// `None` for a missing file or once the file is exhausted.
    file: Option<BufReader<File>>,
    /// The raw line being classified; one buffer serves the whole file.
    line: Vec<u8>,
    /// Raw line index of the next line to be read (blank and malformed
    /// lines count, exactly as [`load`]'s enumeration did).
    line_index: usize,
    header: Option<JournalHeader>,
    /// An outcome sitting at raw line 0 (a headerless journal), decoded
    /// during `open` and handed out by the first `next_outcome` call.
    pending: Option<Box<JournalEntry>>,
    malformed_lines: usize,
}

impl JournalReader {
    /// Opens a journal for streaming, classifying its first line so the
    /// header is available immediately. A missing file is an empty
    /// journal, not an error.
    pub fn open(path: &Path) -> io::Result<JournalReader> {
        let file = match File::open(path) {
            Ok(f) => Some(BufReader::new(f)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let mut reader = JournalReader {
            file,
            line: Vec::new(),
            line_index: 0,
            header: None,
            pending: None,
            malformed_lines: 0,
        };
        // Classify raw line 0 eagerly: it is the only line a header may
        // legitimately occupy, and callers decide resume-vs-fresh from
        // `header()` before replaying anything.
        match reader.next_classified()? {
            Some(Classified::Header(header)) => reader.header = Some(header),
            Some(Classified::Outcome(outcome)) => reader.pending = Some(outcome),
            Some(Classified::Blank | Classified::Malformed) | None => {}
        }
        Ok(reader)
    }

    /// The header line, when raw line 0 carried a well-formed one.
    pub fn header(&self) -> Option<&JournalHeader> {
        self.header.as_ref()
    }

    /// Malformed lines encountered *so far*. Equals [`load`]'s total once
    /// [`next_outcome`](JournalReader::next_outcome) has returned `None`.
    pub fn malformed_lines(&self) -> usize {
        self.malformed_lines
    }

    /// Returns the next well-formed outcome, or `None` at end of file.
    /// I/O errors abort; damaged lines are skipped and counted.
    pub fn next_outcome(&mut self) -> io::Result<Option<StrategyOutcome>> {
        Ok(self.next_entry()?.map(|entry| entry.outcome))
    }

    /// Like [`next_outcome`](JournalReader::next_outcome), but keeps the
    /// worker counter deltas embedded in the line (empty for lines
    /// written without any), so resuming campaigns can re-fold them.
    pub fn next_entry(&mut self) -> io::Result<Option<JournalEntry>> {
        if let Some(pending) = self.pending.take() {
            return Ok(Some(*pending));
        }
        while let Some(classified) = self.next_classified()? {
            if let Classified::Outcome(entry) = classified {
                return Ok(Some(*entry));
            }
        }
        Ok(None)
    }

    /// Reads and classifies the next raw line, counting it when it is
    /// malformed; `None` at end of file.
    fn next_classified(&mut self) -> io::Result<Option<Classified>> {
        let Some(file) = &mut self.file else {
            return Ok(None);
        };
        if !read_raw_line(file, &mut self.line)? {
            self.file = None;
            return Ok(None);
        }
        let classified = classify(&self.line, self.line_index);
        self.line_index += 1;
        if matches!(classified, Classified::Malformed) {
            self.malformed_lines += 1;
        }
        Ok(Some(classified))
    }
}

enum Classified {
    Header(JournalHeader),
    Outcome(Box<JournalEntry>),
    /// An empty line: skipped without being counted.
    Blank,
    /// Failed its checksum, failed to parse, or carried an unexpected type.
    Malformed,
}

fn classify(line: &[u8], index: usize) -> Classified {
    if line.trim_ascii().is_empty() {
        return Classified::Blank;
    }
    // Checksum gate first: a damaged line must not be trusted even if
    // it still happens to parse as JSON.
    let Some(parsed) = verify_line(line).and_then(|payload| snake_json::parse(payload).ok()) else {
        return Classified::Malformed;
    };
    match parsed.req_str("type") {
        Ok("campaign") if index == 0 => {
            JournalHeader::from_json(&parsed).map_or(Classified::Malformed, Classified::Header)
        }
        Ok("outcome") => match StrategyOutcome::from_json(&parsed) {
            Ok(outcome) => Classified::Outcome(Box::new(JournalEntry {
                outcome,
                counters: decode_counters(parsed.get("counters")),
            })),
            Err(_) => Classified::Malformed,
        },
        _ => Classified::Malformed,
    }
}

/// Loads a whole journal into memory, tolerating a missing file (empty
/// journal) and malformed lines (skipped and counted, never fatal).
/// Implemented over the streaming [`JournalReader`]; prefer the reader
/// directly when the journal may be large.
pub fn load(path: &Path) -> io::Result<LoadedJournal> {
    let mut reader = JournalReader::open(path)?;
    let mut outcomes = Vec::new();
    while let Some(outcome) = reader.next_outcome()? {
        outcomes.push(outcome);
    }
    Ok(LoadedJournal {
        header: reader.header.take(),
        outcomes,
        malformed_lines: reader.malformed_lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_proxy::{BasicAttack, Endpoint, StrategyKind};

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
            verdict: Verdict {
                throughput_degradation: true,
                ..Verdict::default()
            },
            metrics: TestMetrics {
                target_bytes: 123,
                ..TestMetrics::empty()
            },
            repeatable: true,
            on_path: false,
            false_positive: false,
            outcome_kind: OutcomeKind::Ok,
            error: None,
            memo: Some(Memo::Inert),
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "snake-journal-test-{}-{name}.jsonl",
            std::process::id()
        ));
        p
    }

    fn header(implementation: &str, seed: u64) -> JournalHeader {
        JournalHeader {
            implementation: implementation.into(),
            seed,
            threshold: 0.5,
            memoize: Some(true),
            impairment: Some("none".into()),
        }
    }

    #[test]
    fn outcomes_roundtrip_through_json() {
        let mut o = outcome(7);
        o.outcome_kind = OutcomeKind::Errored;
        o.error = Some("engine panicked: index out of bounds".into());
        let text = o.to_json().to_string_compact();
        assert!(!text.contains('\n'));
        let back = StrategyOutcome::from_json(&snake_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn write_then_load_preserves_everything() {
        let path = temp_path("roundtrip");
        let header = header("Linux 3.13", 42);
        let mut w = JournalWriter::create(&path, &header).unwrap();
        w.record(&outcome(1)).unwrap();
        w.record(&outcome(2)).unwrap();
        drop(w);
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.header, Some(header));
        assert_eq!(loaded.outcomes.len(), 2);
        assert_eq!(loaded.outcomes[0], outcome(1));
        assert_eq!(loaded.malformed_lines, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_final_line_is_skipped_not_fatal() {
        let path = temp_path("partial");
        let header = header("x", 1);
        let mut w = JournalWriter::create(&path, &header).unwrap();
        w.record(&outcome(1)).unwrap();
        drop(w);
        // Simulate a writer killed mid-append: a truncated JSON fragment.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"type\":\"outcome\",\"outcome\":\"ok\",\"err");
        std::fs::write(&path, text).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.outcomes.len(), 1);
        assert_eq!(loaded.malformed_lines, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counters_roundtrip_through_the_journal() {
        let path = temp_path("counters");
        let header = header("x", 1);
        let mut w = JournalWriter::create(&path, &header).unwrap();
        w.record_with_counters(&outcome(1), &[("exec.runs.from_scratch", 3)])
            .unwrap();
        w.record(&outcome(2)).unwrap();
        drop(w);
        let mut r = JournalReader::open(&path).unwrap();
        let first = r.next_entry().unwrap().expect("first entry");
        assert_eq!(first.outcome, outcome(1));
        assert_eq!(first.counters, vec![("exec.runs.from_scratch", 3)]);
        let second = r.next_entry().unwrap().expect("second entry");
        assert_eq!(second.outcome, outcome(2));
        assert!(second.counters.is_empty(), "no field decodes as no deltas");
        assert!(r.next_entry().unwrap().is_none());
        assert_eq!(r.malformed_lines(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        let loaded = load(Path::new("/nonexistent/snake-journal.jsonl")).unwrap();
        assert!(loaded.header.is_none());
        assert!(loaded.outcomes.is_empty());
    }

    #[test]
    fn counter_names_outside_the_worker_table_are_dropped_at_decode() {
        // `campaign.stalls` is what an older sharded build journaled for
        // its since-retired watchdog; `not.a.counter` was never known.
        let path = temp_path("retired-counters");
        let mut w = JournalWriter::create(&path, &header("x", 1)).unwrap();
        let counters = [
            ("campaign.escalated", 1),
            ("campaign.stalls", 2),
            ("not.a.counter", 9),
            ("netsim.events", 5),
        ];
        w.record_with_counters(&outcome(1), &counters).unwrap();
        drop(w);
        let mut r = JournalReader::open(&path).unwrap();
        let entry = r.next_entry().unwrap().expect("the line itself is sound");
        assert_eq!(entry.outcome, outcome(1));
        assert_eq!(
            entry.counters,
            vec![("campaign.escalated", 1), ("netsim.events", 5)]
        );
        assert_eq!(r.malformed_lines(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_stalled_line_is_skipped_and_its_strategy_reruns() {
        use crate::campaign::Campaign;
        use crate::config::CampaignConfig;
        use crate::scenario::{ProtocolKind, ScenarioSpec};
        use snake_tcp::Profile;

        let path = temp_path("legacy-stalled");
        let config = |resume| {
            CampaignConfig::builder(ScenarioSpec::quick(
                ProtocolKind::Tcp(Profile::linux_3_13()),
            ))
            .cap(8)
            .parallelism(2)
            .feedback_rounds(1)
            .retest(false)
            .journal(&path)
            .resume(resume)
            .build()
            .expect("valid config")
        };
        std::fs::remove_file(&path).ok();
        let fresh = Campaign::run(config(false)).expect("valid baseline");

        // Rewrite outcome line 3 as an older build's watchdog would have
        // left it, checksum intact: only its kind is no longer known.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(|l| format!("{l}\n")).collect();
        let payload = verify_line(lines[3].trim_end().as_bytes())
            .unwrap()
            .to_owned();
        let stalled = payload.replace(r#""outcome":"ok""#, r#""outcome":"stalled""#);
        assert_ne!(stalled, payload, "line 3 is an ok outcome");
        lines[3] = checksummed_line(stalled);
        std::fs::write(&path, lines.concat()).unwrap();

        let resumed = Campaign::run(config(true)).expect("resume succeeds");
        assert_eq!(resumed.journal_lines_skipped, 1);
        assert_eq!(resumed.resumed, 7, "every other outcome is reused");
        assert_eq!(resumed.export_outcomes_tsv(), fresh.export_outcomes_tsv());
        let reloaded = load(&path).unwrap();
        assert_eq!(reloaded.malformed_lines, 1, "the stalled line stays put");
        assert_eq!(reloaded.outcomes.len(), 8, "its strategy was re-run");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_checksum_line_is_skipped_not_trusted() {
        let path = temp_path("corrupt");
        let header = header("x", 1);
        let mut w = JournalWriter::create(&path, &header).unwrap();
        w.record(&outcome(1)).unwrap();
        w.record(&outcome(2)).unwrap();
        drop(w);
        // Damage outcome 2's payload in place without touching its
        // checksum: the line still parses as JSON, so only the checksum
        // can reveal the corruption.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let last = lines.last_mut().unwrap();
        let damaged = last.replace("\"target_bytes\":123", "\"target_bytes\":999");
        assert_ne!(*last, damaged, "the replacement must hit");
        *last = damaged;
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.outcomes.len(), 1, "the damaged line must be dropped");
        assert_eq!(loaded.outcomes[0].strategy.id, 1);
        assert_eq!(loaded.malformed_lines, 1);
        std::fs::remove_file(&path).ok();
    }

    /// Three lines (payload, checksum) exactly as the commit before the
    /// linear-time codec wrote them: the header, a plain outcome, and an
    /// errored outcome whose message needs every kind of escape and which
    /// carries worker counters. Their reports still carry the effect
    /// fingerprint lanes older binaries wrote; journals written by older
    /// binaries must keep loading.
    const LEGACY_GOLDEN: [(&str, &str); 3] = [
        (
            r#"{"type":"campaign","implementation":"Linux 3.13","seed":42,"threshold":0.5,"memoize":true,"impairment":"none"}"#,
            "feec128309d079eb",
        ),
        (
            r#"{"type":"outcome","outcome":"ok","error":null,"strategy":{"id":1,"strategy":{"kind":"on_packet","endpoint":"client","state":"ESTABLISHED","packet_type":"ACK","basic":{"attack":"drop","percent":100}}},"verdict":{"establishment_prevented":false,"throughput_degradation":true,"throughput_gain":false,"competing_degradation":false,"socket_leak":false,"fairness_collapse":false,"flow_starvation":false,"table_exhaustion":false},"metrics":{"target_bytes":123,"competing_bytes":0,"leaked_sockets":0,"leaked_close_wait":0,"leaked_with_queue":0,"truncated":false,"sim_events":0,"flow_bytes":[],"server_sockets":0,"leaked_total":0,"proxy":{"packets_seen":0,"matched":0,"dropped":0,"duplicates":0,"delayed":0,"batched":0,"reflected":0,"lied":0,"injected":0,"effect_fp_a":0,"effect_fp_b":0,"rule_hits":[],"observed":[],"client_final_state":"","server_final_state":""}},"repeatable":true,"on_path":false,"false_positive":false,"memo":"inert"}"#,
            "51f12b2971ff80c7",
        ),
        (
            r#"{"type":"outcome","outcome":"errored","error":"engine panicked: \"index\" out of bounds\n\tat C:\\sim é\u0001","strategy":{"id":7,"strategy":{"kind":"on_packet","endpoint":"client","state":"ESTABLISHED","packet_type":"ACK","basic":{"attack":"drop","percent":100}}},"verdict":{"establishment_prevented":false,"throughput_degradation":true,"throughput_gain":false,"competing_degradation":false,"socket_leak":false,"fairness_collapse":false,"flow_starvation":false,"table_exhaustion":false},"metrics":{"target_bytes":123,"competing_bytes":0,"leaked_sockets":0,"leaked_close_wait":0,"leaked_with_queue":0,"truncated":false,"sim_events":0,"flow_bytes":[],"server_sockets":0,"leaked_total":0,"proxy":{"packets_seen":0,"matched":0,"dropped":0,"duplicates":0,"delayed":0,"batched":0,"reflected":0,"lied":0,"injected":0,"effect_fp_a":0,"effect_fp_b":0,"rule_hits":[],"observed":[],"client_final_state":"","server_final_state":""}},"repeatable":true,"on_path":false,"false_positive":false,"memo":"inert","counters":{"exec.runs.from_scratch":3,"netsim.events":106547}}"#,
            "3adc1fd2f5d0f731",
        ),
    ];

    /// The same three lines as the current writer emits them: the reports
    /// no longer carry fingerprint lanes. The format is otherwise frozen,
    /// so newer journals load in older binaries.
    const GOLDEN: [(&str, &str); 3] = [
        (
            r#"{"type":"campaign","implementation":"Linux 3.13","seed":42,"threshold":0.5,"memoize":true,"impairment":"none"}"#,
            "feec128309d079eb",
        ),
        (
            r#"{"type":"outcome","outcome":"ok","error":null,"strategy":{"id":1,"strategy":{"kind":"on_packet","endpoint":"client","state":"ESTABLISHED","packet_type":"ACK","basic":{"attack":"drop","percent":100}}},"verdict":{"establishment_prevented":false,"throughput_degradation":true,"throughput_gain":false,"competing_degradation":false,"socket_leak":false,"fairness_collapse":false,"flow_starvation":false,"table_exhaustion":false},"metrics":{"target_bytes":123,"competing_bytes":0,"leaked_sockets":0,"leaked_close_wait":0,"leaked_with_queue":0,"truncated":false,"sim_events":0,"flow_bytes":[],"server_sockets":0,"leaked_total":0,"proxy":{"packets_seen":0,"matched":0,"dropped":0,"duplicates":0,"delayed":0,"batched":0,"reflected":0,"lied":0,"injected":0,"rule_hits":[],"observed":[],"client_final_state":"","server_final_state":""}},"repeatable":true,"on_path":false,"false_positive":false,"memo":"inert"}"#,
            "bbee5c1207ce39d0",
        ),
        (
            r#"{"type":"outcome","outcome":"errored","error":"engine panicked: \"index\" out of bounds\n\tat C:\\sim é\u0001","strategy":{"id":7,"strategy":{"kind":"on_packet","endpoint":"client","state":"ESTABLISHED","packet_type":"ACK","basic":{"attack":"drop","percent":100}}},"verdict":{"establishment_prevented":false,"throughput_degradation":true,"throughput_gain":false,"competing_degradation":false,"socket_leak":false,"fairness_collapse":false,"flow_starvation":false,"table_exhaustion":false},"metrics":{"target_bytes":123,"competing_bytes":0,"leaked_sockets":0,"leaked_close_wait":0,"leaked_with_queue":0,"truncated":false,"sim_events":0,"flow_bytes":[],"server_sockets":0,"leaked_total":0,"proxy":{"packets_seen":0,"matched":0,"dropped":0,"duplicates":0,"delayed":0,"batched":0,"reflected":0,"lied":0,"injected":0,"rule_hits":[],"observed":[],"client_final_state":"","server_final_state":""}},"repeatable":true,"on_path":false,"false_positive":false,"memo":"inert","counters":{"exec.runs.from_scratch":3,"netsim.events":106547}}"#,
            "69a897609bbab018",
        ),
    ];

    fn golden_error_outcome() -> StrategyOutcome {
        let mut o = outcome(7);
        o.outcome_kind = OutcomeKind::Errored;
        o.error = Some("engine panicked: \"index\" out of bounds\n\tat C:\\sim é\u{1}".into());
        o
    }

    fn golden_counters() -> Vec<(&'static str, u64)> {
        vec![("exec.runs.from_scratch", 3), ("netsim.events", 106_547)]
    }

    fn golden_text(lines: &[(&str, &str)]) -> String {
        lines
            .iter()
            .map(|(payload, checksum)| format!("{payload}\t{checksum}\n"))
            .collect()
    }

    #[test]
    fn golden_lines_are_written_byte_for_byte() {
        let path = temp_path("golden-write");
        let mut w = JournalWriter::create(&path, &header("Linux 3.13", 42)).unwrap();
        w.record(&outcome(1)).unwrap();
        w.record_with_counters(&golden_error_outcome(), &golden_counters())
            .unwrap();
        drop(w);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            golden_text(&GOLDEN)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn golden_lines_load_back_exactly() {
        let path = temp_path("golden-load");
        std::fs::write(&path, golden_text(&LEGACY_GOLDEN)).unwrap();
        let mut r = JournalReader::open(&path).unwrap();
        assert_eq!(r.header(), Some(&header("Linux 3.13", 42)));
        let plain = r.next_entry().unwrap().expect("plain outcome");
        assert_eq!(plain.outcome, outcome(1));
        assert!(plain.counters.is_empty());
        let errored = r.next_entry().unwrap().expect("errored outcome");
        assert_eq!(errored.outcome, golden_error_outcome());
        assert_eq!(errored.counters, golden_counters());
        assert!(r.next_entry().unwrap().is_none());
        assert_eq!(r.malformed_lines(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_fp_and_halt_markers_load_as_simulated_outcomes() {
        let path = temp_path("legacy-markers");
        let mut text = checksummed_line(header("x", 1).to_json().to_string_compact());
        for (id, marker) in [(1, "fp"), (2, "halt")] {
            let payload = outcome(id)
                .to_json()
                .to_string_compact()
                .replace(
                    "\"injected\":0,",
                    "\"injected\":0,\"effect_fp_a\":81985529216486895,\"effect_fp_b\":17,",
                )
                .replace("\"memo\":\"inert\"", &format!("\"memo\":\"{marker}\""));
            assert!(payload.contains("effect_fp_b") && payload.contains(marker));
            text.push_str(&checksummed_line(payload));
        }
        std::fs::write(&path, text).unwrap();
        let loaded = load(&path).unwrap();
        let simulated = |id| StrategyOutcome {
            memo: None,
            ..outcome(id)
        };
        assert_eq!(loaded.outcomes, vec![simulated(1), simulated(2)]);
        assert_eq!(loaded.malformed_lines, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn line_that_is_no_longer_utf8_is_skipped_not_fatal() {
        let path = temp_path("high-bit");
        let mut w = JournalWriter::create(&path, &header("x", 1)).unwrap();
        for id in 1..=3 {
            w.record(&outcome(id)).unwrap();
        }
        drop(w);
        // One flipped bit in outcome 2's payload leaves a byte that is not
        // UTF-8 any more; reading the file as text would fail outright.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_outcome: usize = bytes
            .split_inclusive(|&b| b == b'\n')
            .take(2)
            .map(<[u8]>::len)
            .sum();
        bytes[second_outcome + 40] |= 0x80;
        assert!(std::str::from_utf8(&bytes).is_err());
        std::fs::write(&path, bytes).unwrap();
        let loaded = load(&path).unwrap();
        let ids: Vec<u64> = loaded.outcomes.iter().map(|o| o.strategy.id).collect();
        assert_eq!(ids, [1, 3], "only the damaged line is dropped");
        assert_eq!(loaded.malformed_lines, 1);
        assert!(loaded.header.is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lines_without_checksums_are_rejected_not_trusted() {
        let path = temp_path("bare");
        // Bare JSON lines, no tab suffix: what a pre-checksum writer
        // produced, and what a tail torn off before its checksum looks
        // like. Neither the header nor the outcome may be believed.
        let mut text = header("x", 1).to_json().to_string_compact();
        text.push('\n');
        text.push_str(&outcome(1).to_json().to_string_compact());
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.header, None);
        assert!(loaded.outcomes.is_empty());
        assert_eq!(loaded.malformed_lines, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatch_reports_every_drifted_field() {
        let ours = header("x", 1);
        assert_eq!(ours.mismatch_against(&ours), None);

        let mut other = header("x", 1);
        other.seed = 2;
        other.memoize = Some(false);
        other.impairment = Some("loss=0.02".into());
        let detail = other.mismatch_against(&ours).expect("must mismatch");
        assert!(detail.contains("seed"), "{detail}");
        assert!(detail.contains("memoize=false"), "{detail}");
        assert!(detail.contains("loss=0.02"), "{detail}");

        // A legacy header that never recorded memoize/impairment matches
        // any current setting — resuming old journals must keep working.
        let legacy = JournalHeader {
            memoize: None,
            impairment: None,
            ..header("x", 1)
        };
        assert_eq!(legacy.mismatch_against(&ours), None);
        let mut degraded = ours.clone();
        degraded.memoize = Some(false);
        assert!(legacy.mismatch_against(&degraded).is_none());
    }

    #[test]
    fn header_roundtrips_with_and_without_optional_fields() {
        let full = header("Linux 3.13", 9);
        let back = JournalHeader::from_json(
            &snake_json::parse(&full.to_json().to_string_compact()).unwrap(),
        )
        .unwrap();
        assert_eq!(back, full);
        let legacy = JournalHeader {
            memoize: None,
            impairment: None,
            ..header("Linux 3.13", 9)
        };
        let text = legacy.to_json().to_string_compact();
        assert!(!text.contains("memoize"), "absent fields are not written");
        let back = JournalHeader::from_json(&snake_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, legacy);
    }

    #[test]
    fn create_leaves_no_temporary_file_behind() {
        let path = temp_path("atomic");
        let header = header("x", 1);
        let mut w = JournalWriter::create(&path, &header).unwrap();
        w.record(&outcome(1)).unwrap();
        drop(w);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(
            !Path::new(&tmp).exists(),
            "header temp file must be renamed away"
        );
        // The writer kept appending through the renamed handle, so the
        // final file holds both the header and the outcome.
        let loaded = load(&path).unwrap();
        assert!(loaded.header.is_some());
        assert_eq!(loaded.outcomes.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}

//! Observability primitives for the SNAKE workspace.
//!
//! The campaign runtime grew layers of speedups (snapshot-fork,
//! memoization) with no way to see where time goes. This
//! crate supplies the measurement substrate:
//!
//! - [`Observer`] — a zero-dependency trait with nestable spans (stamped
//!   with both simulated time and wall time), monotonic counters and
//!   histograms. Every hook has a no-op default so an implementation can
//!   pick the primitives it cares about, and [`NullObserver`] (the
//!   default everywhere) compiles down to a virtual call returning a
//!   constant — instrumented hot paths cost nothing measurable when
//!   nobody is listening.
//! - [`Recorder`] — a sharded, lock-cheap implementation safe to call
//!   from campaign worker threads. Each thread is pinned round-robin to
//!   one of a fixed set of mutex-guarded shards, so concurrent workers
//!   almost never contend; [`Recorder::snapshot`] merges the shards into
//!   a [`RecorderSnapshot`] for reporting.
//! - [`RunManifest`] — an ordered, named-section JSON document (via
//!   `snake-json`) describing one campaign run. `snake-core` fills in
//!   the campaign-specific sections; this crate owns the envelope.
//!
//! The trait is deliberately minimal: names are `&'static str` so
//! recording a counter is a map bump, not an allocation, and spans carry
//! no payload beyond their timestamps. Anything richer belongs in the
//! manifest assembly, off the hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use snake_json::{obj, Value};

/// Opaque handle for an in-flight span, returned by
/// [`Observer::span_enter`] and consumed by [`Observer::span_exit`].
///
/// [`SpanId::NONE`] is the null handle: exiting it is a no-op, and no-op
/// observers return it from every enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The null span handle.
    pub const NONE: SpanId = SpanId(0);

    fn encode(shard: usize, slot: usize) -> SpanId {
        SpanId(((shard as u64) << 48) | (slot as u64 + 1))
    }

    fn decode(self) -> Option<(usize, usize)> {
        if self.0 == 0 {
            None
        } else {
            Some((
                (self.0 >> 48) as usize,
                (self.0 & 0xffff_ffff_ffff) as usize - 1,
            ))
        }
    }
}

/// Sink for spans, counters and histogram samples.
///
/// All hooks default to no-ops; [`NullObserver`] implements exactly the
/// defaults. Implementations must be `Send + Sync` — campaign workers
/// call them concurrently. Callers on hot paths should gate any work
/// needed to *compute* an observation (e.g. `Instant::now`) behind
/// [`Observer::enabled`].
pub trait Observer: Send + Sync {
    /// Whether this observer records anything. `false` lets callers skip
    /// the cost of producing values nobody will look at.
    fn enabled(&self) -> bool {
        false
    }

    /// Opens a span named `name`. `sim_nanos` is the simulated-time
    /// stamp (0 when no simulation clock is meaningful); the wall-time
    /// stamp is taken by the observer itself. Spans nest: a span entered
    /// while another is open on the same thread records that span as its
    /// parent.
    fn span_enter(&self, _name: &'static str, _sim_nanos: u64) -> SpanId {
        SpanId::NONE
    }

    /// Closes a span previously returned by [`Observer::span_enter`].
    fn span_exit(&self, _id: SpanId) {}

    /// Adds `delta` to the monotonic counter `name`.
    fn counter_add(&self, _name: &'static str, _delta: u64) {}

    /// Records one sample into the histogram `name`.
    fn record(&self, _name: &'static str, _value: u64) {}
}

/// The default observer: records nothing, returns [`SpanId::NONE`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// A shared no-op observer, the default for every config that takes one.
pub fn noop() -> Arc<dyn Observer> {
    Arc::new(NullObserver)
}

/// RAII guard that exits its span on drop. Built by [`span`].
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard<'a> {
    observer: &'a dyn Observer,
    id: SpanId,
}

impl fmt::Debug for SpanGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanGuard").field("id", &self.id).finish()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.observer.span_exit(self.id);
    }
}

/// Opens a span on `observer` and returns a guard that closes it when
/// dropped.
pub fn span<'a>(observer: &'a dyn Observer, name: &'static str, sim_nanos: u64) -> SpanGuard<'a> {
    SpanGuard {
        observer,
        id: observer.span_enter(name, sim_nanos),
    }
}

/// One observed histogram: count/sum/min/max plus power-of-two buckets
/// (`buckets[i]` counts samples whose bit length is `i`, saturating at
/// the last bucket).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Log2 buckets; index = bit length of the sample, capped.
    pub buckets: [u64; 32],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 32],
        }
    }
}

impl Histogram {
    fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bucket = (64 - value.leading_zeros() as usize).min(31);
        self.buckets[bucket] += 1;
    }

    fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Mean sample value, or 0 with no samples.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// JSON summary: count, sum, min, max, mean and the non-empty
    /// buckets as `[bit_length, count]` pairs.
    pub fn to_json(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| Value::Arr(vec![Value::U64(i as u64), Value::U64(*c)]))
            .collect();
        obj([
            ("count", Value::U64(self.count)),
            ("sum", Value::U64(self.sum)),
            (
                "min",
                Value::U64(if self.count == 0 { 0 } else { self.min }),
            ),
            ("max", Value::U64(self.max)),
            ("mean", Value::U64(self.mean())),
            ("log2_buckets", Value::Arr(buckets)),
        ])
    }
}

/// One recorded span, as exported by [`Recorder::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnap {
    /// Span name as passed to [`Observer::span_enter`].
    pub name: &'static str,
    /// Nesting depth at enter (0 = top level on its thread).
    pub depth: u32,
    /// Simulated-time stamp supplied at enter.
    pub sim_nanos: u64,
    /// Wall-clock offset of enter, nanoseconds since the recorder was
    /// created.
    pub wall_start_nanos: u64,
    /// Wall-clock duration; 0 if the span was never exited.
    pub wall_nanos: u64,
    /// Whether the span was exited before the snapshot.
    pub closed: bool,
}

#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    depth: u32,
    sim_nanos: u64,
    start_nanos: u64,
    end_nanos: Option<u64>,
}

#[derive(Debug, Default)]
struct ShardData {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    spans: Vec<SpanRec>,
}

/// Number of recorder shards. Threads are pinned round-robin, so up to
/// this many workers record without ever sharing a lock.
const SHARDS: usize = 16;

thread_local! {
    /// This thread's shard index (`usize::MAX` until assigned).
    static SHARD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Stack of open span ids on this thread, for nesting depth/parents.
    static SPAN_STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// Sharded [`Observer`] implementation.
///
/// Counters and histograms are keyed by their `&'static str` name inside
/// per-shard `BTreeMap`s; each thread records into the shard it was
/// pinned to on first use, so worker threads contend only when two of
/// them hash to the same shard (16 shards vs. the handful of campaign
/// workers makes that rare, and the critical section is a map bump).
/// [`Recorder::snapshot`] merges all shards.
pub struct Recorder {
    epoch: Instant,
    next_shard: AtomicUsize,
    shards: Vec<Mutex<ShardData>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh recorder; wall-time offsets are measured from this call.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_shard: AtomicUsize::new(0),
            shards: (0..SHARDS)
                .map(|_| Mutex::new(ShardData::default()))
                .collect(),
        }
    }

    fn shard_index(&self) -> usize {
        SHARD_SLOT.with(|slot| {
            let mut idx = slot.get();
            if idx == usize::MAX {
                idx = self.next_shard.fetch_add(1, Ordering::Relaxed) % SHARDS;
                slot.set(idx);
            }
            idx % SHARDS
        })
    }

    fn with_shard<R>(&self, f: impl FnOnce(&mut ShardData) -> R) -> R {
        let idx = self.shard_index();
        let mut guard = self.shards[idx].lock().unwrap_or_else(|e| e.into_inner());
        f(&mut guard)
    }

    fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Merges every shard into one snapshot. Counters with the same name
    /// are summed, histograms merged; spans are sorted by wall start.
    pub fn snapshot(&self) -> RecorderSnapshot {
        let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        let mut spans = Vec::new();
        for shard in &self.shards {
            let data = shard.lock().unwrap_or_else(|e| e.into_inner());
            for (name, v) in &data.counters {
                *counters.entry(name).or_insert(0) += v;
            }
            for (name, h) in &data.histograms {
                histograms.entry(name).or_default().merge(h);
            }
            for rec in &data.spans {
                spans.push(SpanSnap {
                    name: rec.name,
                    depth: rec.depth,
                    sim_nanos: rec.sim_nanos,
                    wall_start_nanos: rec.start_nanos,
                    wall_nanos: rec
                        .end_nanos
                        .map_or(0, |e| e.saturating_sub(rec.start_nanos)),
                    closed: rec.end_nanos.is_some(),
                });
            }
        }
        spans.sort_by(|a, b| (a.wall_start_nanos, a.name).cmp(&(b.wall_start_nanos, b.name)));
        RecorderSnapshot {
            counters,
            histograms,
            spans,
        }
    }
}

impl Observer for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_enter(&self, name: &'static str, sim_nanos: u64) -> SpanId {
        let start_nanos = self.now_nanos();
        let depth = SPAN_STACK.with(|s| s.borrow().len() as u32);
        let shard = self.shard_index();
        let slot = {
            let mut guard = self.shards[shard].lock().unwrap_or_else(|e| e.into_inner());
            guard.spans.push(SpanRec {
                name,
                depth,
                sim_nanos,
                start_nanos,
                end_nanos: None,
            });
            guard.spans.len() - 1
        };
        let id = SpanId::encode(shard, slot);
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        id
    }

    fn span_exit(&self, id: SpanId) {
        let Some((shard, slot)) = id.decode() else {
            return;
        };
        let end = self.now_nanos();
        if let Some(shard) = self.shards.get(shard) {
            let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(rec) = guard.spans.get_mut(slot) {
                rec.end_nanos = Some(end);
            }
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&id) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|open| *open == id) {
                stack.remove(pos);
            }
        });
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.with_shard(|data| *data.counters.entry(name).or_insert(0) += delta);
    }

    fn record(&self, name: &'static str, value: u64) {
        self.with_shard(|data| data.histograms.entry(name).or_default().record(value));
    }
}

/// Merged view of everything a [`Recorder`] saw.
#[derive(Debug, Clone, Default)]
pub struct RecorderSnapshot {
    /// Counter totals, summed across shards, keyed by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Merged histograms keyed by name.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Every recorded span, sorted by wall start time.
    pub spans: Vec<SpanSnap>,
}

impl RecorderSnapshot {
    /// Counter total by name (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Per-name span aggregation: `(count, total wall nanoseconds)`.
    pub fn span_totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let entry = totals.entry(span.name).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += span.wall_nanos;
        }
        totals
    }

    /// JSON dump: `{counters: {..}, histograms: {..}, spans: [..]}`.
    pub fn to_json(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), Value::U64(*v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.to_string(), h.to_json()))
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", Value::Str(s.name.to_string())),
                    ("depth", Value::U64(s.depth as u64)),
                    ("sim_nanos", Value::U64(s.sim_nanos)),
                    ("wall_start_nanos", Value::U64(s.wall_start_nanos)),
                    ("wall_nanos", Value::U64(s.wall_nanos)),
                    ("closed", Value::Bool(s.closed)),
                ])
            })
            .collect();
        obj([
            ("counters", Value::Obj(counters)),
            ("histograms", Value::Obj(histograms)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

/// One structured JSON document describing a run: a fixed envelope
/// (`tool`, `schema`) plus named sections in insertion order.
///
/// Section producers decide their own determinism contract; by
/// convention everything under a section named `timing` is wall-clock
/// derived (and thus varies run to run) while every other section must
/// be identical across same-seed runs.
#[derive(Debug, Clone)]
pub struct RunManifest {
    tool: String,
    schema: u32,
    sections: Vec<(String, Value)>,
}

impl RunManifest {
    /// Manifest schema version written into the envelope.
    pub const SCHEMA: u32 = 1;

    /// New manifest for the named tool (e.g. `"snake campaign"`).
    pub fn new(tool: impl Into<String>) -> RunManifest {
        RunManifest {
            tool: tool.into(),
            schema: RunManifest::SCHEMA,
            sections: Vec::new(),
        }
    }

    /// Appends (or replaces) a named section.
    pub fn set_section(&mut self, name: impl Into<String>, value: Value) {
        let name = name.into();
        if let Some(slot) = self.sections.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.sections.push((name, value));
        }
    }

    /// A section by name.
    pub fn section(&self, name: &str) -> Option<&Value> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// The whole manifest as one JSON object.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("tool".to_string(), Value::Str(self.tool.clone())),
            ("schema".to_string(), Value::U64(self.schema as u64)),
        ];
        pairs.extend(self.sections.iter().cloned());
        Value::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn null_observer_is_disabled_and_returns_none() {
        let obs = NullObserver;
        assert!(!obs.enabled());
        let id = obs.span_enter("x", 1);
        assert_eq!(id, SpanId::NONE);
        obs.span_exit(id);
        obs.counter_add("c", 1);
        obs.record("h", 1);
    }

    #[test]
    fn counters_sum_across_threads() {
        let rec = Arc::new(Recorder::new());
        thread::scope(|scope| {
            for _ in 0..8 {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        rec.counter_add("hits", 1);
                    }
                    rec.record("lat", 7);
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.counter("hits"), 8000);
        let h = &snap.histograms["lat"];
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 56);
        assert_eq!((h.min, h.max, h.mean()), (7, 7, 7));
    }

    #[test]
    fn spans_nest_and_stamp_both_clocks() {
        let rec = Recorder::new();
        let outer = rec.span_enter("outer", 100);
        let inner = rec.span_enter("inner", 200);
        rec.span_exit(inner);
        rec.span_exit(outer);
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.sim_nanos, 100);
        assert_eq!(inner.sim_nanos, 200);
        assert!(outer.closed && inner.closed);
        assert!(inner.wall_start_nanos >= outer.wall_start_nanos);
        let totals = snap.span_totals();
        assert_eq!(totals["outer"].0, 1);
    }

    #[test]
    fn span_guard_closes_on_drop() {
        let rec = Recorder::new();
        {
            let _g = span(&rec, "guarded", 0);
        }
        let snap = rec.snapshot();
        assert!(snap.spans[0].closed);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        h.record(0); // bit length 0
        h.record(1); // bit length 1
        h.record(1023); // bit length 10
        h.record(1024); // bit length 11
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.buckets[11], 1);
        assert_eq!(h.count, 4);
    }

    #[test]
    fn manifest_sections_are_ordered_and_replaceable() {
        let mut m = RunManifest::new("test");
        m.set_section("run", Value::U64(1));
        m.set_section("memo", Value::U64(2));
        m.set_section("run", Value::U64(3));
        let json = m.to_json();
        assert_eq!(json.get("tool").and_then(Value::as_str), Some("test"));
        assert_eq!(json.get("run").and_then(Value::as_u64), Some(3));
        let text = json.to_string_compact();
        let run = text.find("\"run\"").unwrap();
        let memo = text.find("\"memo\"").unwrap();
        assert!(run < memo, "sections keep insertion order");
    }
}

//! The benchmark's own span list: one span around every call it makes
//! into a layer of the program, kept in memory and written out when the
//! traced run ends. End-to-end runs use a disabled tracer, so they pay
//! nothing for it.

use std::cell::RefCell;
use std::time::Instant;

use snake_json::{obj, Value};

/// One closed span: a named interval on the bench's clock and the span it
/// was opened under (`None` at top level).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `campaign.run` or `scenario.run_forked`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the span list.
    pub parent: Option<usize>,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Single-threaded span recorder. Every span carries the workload id, so
/// trace files of different workloads can be concatenated and still be
/// told apart.
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    epoch: Instant,
    inner: Option<RefCell<Inner>>,
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    /// A tracer that records spans for `workload`.
    pub fn enabled(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_owned(),
            epoch: Instant::now(),
            inner: Some(RefCell::default()),
        }
    }

    /// A tracer that records nothing (end-to-end runs).
    pub fn disabled() -> Tracer {
        Tracer {
            workload: String::new(),
            epoch: Instant::now(),
            inner: None,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested under whichever span is currently open.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let index = self.inner.as_ref().map(|cell| {
            let start_ns = self.now_ns();
            let mut inner = cell.borrow_mut();
            let parent = inner.open.last().copied();
            inner.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            let index = inner.spans.len() - 1;
            inner.open.push(index);
            index
        });
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |cell| cell.borrow().spans.clone())
    }

    /// The span list as JSON: `[{name, start_ns, end_ns, parent, workload}]`.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans()
                .iter()
                .map(|s| {
                    obj([
                        ("name", Value::Str(s.name.to_owned())),
                        ("start_ns", Value::U64(s.start_ns)),
                        ("end_ns", Value::U64(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        ("workload", Value::Str(self.workload.clone())),
                    ])
                })
                .collect(),
        )
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let (Some(index), Some(cell)) = (self.index, self.tracer.inner.as_ref()) else {
            return;
        };
        let end_ns = self.tracer.now_ns();
        let mut inner = cell.borrow_mut();
        inner.spans[index].end_ns = end_ns;
        inner.open.retain(|open| *open != index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span() {
        let tracer = Tracer::enabled("w");
        {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
        }
        let _sibling = tracer.span("sibling");
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        drop(tracer.span("x"));
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.to_json(), Value::Arr(Vec::new()));
    }
}

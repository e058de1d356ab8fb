//! The outside-in trace: spans recorded by the harness around each call
//! into a layer's public functions.
//!
//! Nothing inside the program is instrumented. A span is `(name, start,
//! end, parent, batch)`; spans nest by the harness's own call structure
//! (`route.plan` is the parent of the `client.request`s the planner issues
//! through the timing transport). A span's *self time* is its duration
//! minus the time its children cover, so self times of all spans add up to
//! the time the root spans cover. Spans stay in memory until the round
//! ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::recorder::Samples;

/// Marks a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `cluster.execute`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Index of the batch the span belongs to (shared by all spans of
    /// one request).
    pub batch: u64,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// The span recorder. Disabled, every call is a plain function call.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    batch: u64,
}

impl Spans {
    /// A recorder that records nothing (the untraced rounds).
    #[must_use]
    pub fn disabled() -> Self {
        Spans::new(false)
    }

    /// A recorder that keeps every span (the traced round).
    #[must_use]
    pub fn recording() -> Self {
        Spans::new(true)
    }

    fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            batch: 0,
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (the traced round alternates, to
    /// price its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the batch index stamped on the spans that follow.
    pub fn set_batch(&mut self, batch: u64) {
        self.batch = batch;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`; spans `f` opens through the
    /// recorder it is handed become children.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            batch: self.batch,
        });
        self.stack.push(index);
        let result = f(self);
        self.stack.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        result
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the children's durations.
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let child = span.end_ns.saturating_sub(span.start_ns);
                let parent = &mut own[span.parent as usize];
                *parent = parent.saturating_sub(child);
            }
        }
        own
    }

    /// Count, total and self time per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.end_ns.saturating_sub(span.start_ns);
            entry.self_ns += own;
        }
        totals
    }

    /// Durations of every span called `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Samples {
        let mut samples = Samples::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            samples.push_ns(span.end_ns.saturating_sub(span.start_ns));
        }
        samples
    }

    /// The trace file: per-name totals over the whole round, and the
    /// individual spans of batches below `detail_batches` (a full round
    /// records a few hundred thousand spans; the first segment's are
    /// enough to read the nesting off).
    #[must_use]
    pub fn to_json(&self, workload: &str, traced_wall_ns: u64, detail_batches: u64) -> Json {
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("count", t.count.into()),
                    ("total_ns", t.total_ns.into()),
                    ("self_ns", t.self_ns.into()),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.batch < detail_batches)
            .map(|(index, s)| {
                Json::obj([
                    ("id", index.into()),
                    ("name", Json::str(s.name)),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Json::Null
                        } else {
                            u64::from(s.parent).into()
                        },
                    ),
                    ("batch", s.batch.into()),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("traced_wall_ns", traced_wall_ns.into()),
            ("span_count", self.spans.len().into()),
            ("totals", Json::Arr(totals)),
            ("detail_batches", detail_batches.into()),
            ("spans", Json::Arr(spans)),
        ])
    }
}

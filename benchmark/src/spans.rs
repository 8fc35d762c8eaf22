//! Spans recorded by the benchmark's own code around its calls into each
//! layer of the program. Kept in memory; written as a Chrome trace when
//! the run ends.

use std::time::Instant;

use crate::json::quote;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called (a layer boundary, e.g. `snapshot`).
    pub name: &'static str,
    /// Index of the span that caused this one, in the recorder.
    pub parent: Option<usize>,
    /// The request this span belongs to: spans of one job (or one
    /// repetition) share it.
    pub trace_id: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span store with its own clock epoch.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now and returns its index; it stays
    /// zero-length until [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, trace_id: u64) -> usize {
        let now = self.now_ns();
        self.push(name, parent, trace_id, now, now)
    }

    /// Ends span `index` now.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.now_ns();
    }

    /// Records a finished span with explicit bounds (for spans whose
    /// times come from the program's own recorder, re-based by the
    /// caller) and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        trace_id: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            trace_id,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a child of `parent` and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        trace_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.open(name, parent, trace_id);
        let out = f();
        self.close(index);
        out
    }

    /// Every span, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// The spans as a Chrome `trace_event` JSON document (loads in Perfetto
/// and `chrome://tracing`): one complete event per span, the span's
/// `trace_id` as its thread track so one request reads as one row.
#[must_use]
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {}}}}}",
            quote(span.name),
            span.trace_id,
            span.start_ns as f64 / 1e3,
            span.dur_ns() as f64 / 1e3,
            span.parent.map_or("null".to_owned(), |p| p.to_string()),
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            parent,
            trace_id: 7,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(None, 0, 100),     // job
            span(Some(0), 10, 30),  // child a
            span(Some(0), 20, 50),  // child b overlaps a: union is 10..50
            span(Some(0), 90, 120), // child c sticks out: clipped to 90..100
            span(Some(1), 12, 18),  // grandchild: only a's self time shrinks
        ];
        assert_eq!(self_times(&spans), [50, 14, 30, 30, 6]);
    }

    #[test]
    fn self_times_of_a_job_sum_to_its_duration() {
        let mut rec = Recorder::new();
        let job = rec.open("job", None, 1);
        for name in ["parse", "build", "simulate"] {
            rec.time(name, Some(job), 1, || std::hint::black_box(17u64.pow(3)));
        }
        rec.close(job);
        let own = self_times(rec.spans());
        assert_eq!(own.iter().sum::<u64>(), rec.spans()[job].dur_ns());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let doc = chrome_trace(&[span(None, 1_000, 3_500), span(Some(0), 1_500, 2_000)]);
        let parsed = json::parse(&doc).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(2.5));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }
}

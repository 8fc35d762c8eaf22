//! Hand-serialized Chrome/Perfetto `trace_event` JSON.
//!
//! The [trace event format] is the lingua franca of `ui.perfetto.dev`
//! and `chrome://tracing`: a JSON array of event objects, each with a
//! `name`, a phase `ph`, a timestamp `ts` (microseconds) and `pid`/`tid`
//! track coordinates. [`ChromeTraceBuilder`] writes that array with no
//! dependencies on top of [`crate::json`]'s escape and number routines;
//! events keep the format's conventional `name, ph, ts, …` key order, so
//! they are laid out here rather than by the sorted-key object builder.
//!
//! [trace event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::{json_escape, json_num};
use crate::series::TimeSeries;

/// An incremental writer for a `trace_event` JSON array.
///
/// Events are appended in call order; [`ChromeTraceBuilder::finish`]
/// closes the array. Timestamps are in microseconds, per the format —
/// callers exporting simulated time conventionally map one cycle to one
/// microsecond.
#[derive(Debug, Default)]
pub struct ChromeTraceBuilder {
    out: String,
    any: bool,
}

impl ChromeTraceBuilder {
    /// Starts an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self {
            out: String::from("[\n"),
            any: false,
        }
    }

    fn event(&mut self, body: &str) {
        if self.any {
            self.out.push_str(",\n");
        }
        self.any = true;
        self.out.push(' ');
        self.out.push_str(body);
    }

    /// A complete (`ph: "X"`) duration span.
    pub fn complete(&mut self, name: &str, pid: u64, tid: u64, ts_us: f64, dur_us: f64) {
        let body = format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": {pid}, \"tid\": {tid}}}",
            json_escape(name),
            json_num(ts_us, None),
            json_num(dur_us, None),
        );
        self.event(&body);
    }

    /// A thread-scoped instant (`ph: "i"`) event.
    pub fn instant(&mut self, name: &str, pid: u64, tid: u64, ts_us: f64) {
        let body = format!(
            "{{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {}, \"pid\": {pid}, \"tid\": {tid}}}",
            json_escape(name),
            json_num(ts_us, None),
        );
        self.event(&body);
    }

    /// A counter (`ph: "C"`) sample: one named track carrying one or
    /// more series values at `ts_us`.
    pub fn counter(&mut self, name: &str, pid: u64, ts_us: f64, series: &[(&str, f64)]) {
        let mut args = String::new();
        for (i, (key, value)) in series.iter().enumerate() {
            if i > 0 {
                args.push_str(", ");
            }
            args.push_str(&format!(
                "\"{}\": {}",
                json_escape(key),
                json_num(*value, None)
            ));
        }
        let body = format!(
            "{{\"name\": \"{}\", \"ph\": \"C\", \"ts\": {}, \"pid\": {pid}, \"tid\": 0, \"args\": {{{args}}}}}",
            json_escape(name),
            json_num(ts_us, None),
        );
        self.event(&body);
    }

    /// A recorded [`TimeSeries`] as two counter tracks of process `pid`:
    /// per window, one `window rates` sample of the counter deltas and
    /// one `gauges` sample, both at the window's end (1 cycle = 1 µs).
    pub fn series(&mut self, pid: u64, series: &TimeSeries) {
        let as_f64 = |fields: &[(&'static str, u64)]| -> Vec<(&str, f64)> {
            fields.iter().map(|&(k, v)| (k, v as f64)).collect()
        };
        for s in series.samples().iter() {
            let ts = (s.start + s.len) as f64;
            self.counter("window rates", pid, ts, &as_f64(&s.counters.fields()));
            self.counter("gauges", pid, ts, &as_f64(&s.gauges.fields()));
        }
    }

    /// Process-name metadata (`ph: "M"`), so Perfetto labels the track
    /// group.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        let body = format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"ts\": 0, \"pid\": {pid}, \"tid\": 0, \"args\": {{\"name\": \"{}\"}}}}",
            json_escape(name),
        );
        self.event(&body);
    }

    /// Thread-name metadata (`ph: "M"`) for one `(pid, tid)` track.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        let body = format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"ts\": 0, \"pid\": {pid}, \"tid\": {tid}, \"args\": {{\"name\": \"{}\"}}}}",
            json_escape(name),
        );
        self.event(&body);
    }

    /// Closes the array and returns the JSON text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out.push_str("\n]\n");
        self.out
    }

    /// Number of events appended so far.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !self.any
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t\r"), "x\\n\\t\\r");
        assert_eq!(json_escape("\u{01}"), "\\u0001");
    }

    #[test]
    fn events_form_a_json_array() {
        let mut b = ChromeTraceBuilder::new();
        assert!(b.is_empty());
        b.process_name(1, "machine");
        b.complete("reply", 1, 3, 10.0, 4.5);
        b.instant("issue", 1, 3, 10.0);
        b.counter("rates", 2, 0.0, &[("injected", 5.0), ("combines", 2.0)]);
        let text = b.finish();
        assert!(text.starts_with("[\n"));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\"ph\": \"X\""));
        assert!(text.contains("\"dur\": 4.5"));
        assert!(text.contains("\"combines\": 2"));
        // Exactly events-1 separators: no trailing comma.
        assert_eq!(text.matches(",\n").count(), 3);
    }

    #[test]
    fn non_finite_numbers_stay_valid_json() {
        let mut b = ChromeTraceBuilder::new();
        b.complete("x", 1, 1, f64::NAN, f64::INFINITY);
        let text = b.finish();
        assert!(!text.contains("NaN"));
        assert!(!text.contains("inf"));
    }
}

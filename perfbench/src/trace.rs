//! Spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and request id. Spans
//! stay in memory for the whole run and are written out once, at the end,
//! in the Chrome trace-event format (opens in Perfetto or
//! `chrome://tracing`). A layer's *self time* is its span's duration minus
//! the time its child spans cover; spans of one thread nest strictly, so
//! children never overlap each other.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `he-lite.multiply`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the merged span list.
    pub parent: Option<usize>,
    /// The request this call served.
    pub request: u64,
    /// Client thread that made the call.
    pub thread: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder. Disabled, [`Tracer::span`] only calls
/// through, so an untraced request pays one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A disabled recorder for client `thread`, timing from `epoch`.
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Tracer {
            enabled: false,
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether calls are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for `request`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request,
            thread: self.thread,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }
}

/// The spans of every thread in one list (parent indices rebased).
pub fn merge(tracers: Vec<Tracer>) -> Vec<Span> {
    let mut all = Vec::new();
    for t in tracers {
        let base = all.len();
        all.extend(t.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of every span, nanoseconds (same order as `spans`).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Summary of a span list: per-request self time by span name.
pub struct Summary {
    /// `name → request → self time (ms)` summed over the request's spans.
    by_name: BTreeMap<&'static str, BTreeMap<u64, f64>>,
    /// `name → request → wall duration (ms)` summed likewise.
    wall: BTreeMap<&'static str, BTreeMap<u64, f64>>,
}

impl Summary {
    /// Aggregate `spans`.
    pub fn new(spans: &[Span]) -> Self {
        let own = self_times(spans);
        let mut by_name: BTreeMap<_, BTreeMap<u64, f64>> = BTreeMap::new();
        let mut wall: BTreeMap<_, BTreeMap<u64, f64>> = BTreeMap::new();
        for (s, &o) in spans.iter().zip(&own) {
            *by_name
                .entry(s.name)
                .or_default()
                .entry(s.request)
                .or_default() += o as f64 / 1e6;
            *wall
                .entry(s.name)
                .or_default()
                .entry(s.request)
                .or_default() += s.dur_ns() as f64 / 1e6;
        }
        Summary { by_name, wall }
    }

    /// Per-request self time of `name` (ms), one value per request that
    /// made the call.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.by_name
            .get(name)
            .map(|m| m.values().copied().collect())
            .unwrap_or_default()
    }

    /// Per-request wall duration of `name` (ms).
    pub fn wall_ms(&self, name: &str) -> Vec<f64> {
        self.wall
            .get(name)
            .map(|m| m.values().copied().collect())
            .unwrap_or_default()
    }

    /// Total self time of `name` over the run (ms).
    pub fn total_self_ms(&self, name: &str) -> f64 {
        self.self_ms(name).iter().sum()
    }

    /// Total wall duration of `name` over the run (ms).
    pub fn total_wall_ms(&self, name: &str) -> f64 {
        self.wall_ms(name).iter().sum()
    }
}

/// Render `spans` as a Chrome trace-event JSON array.
pub fn chrome_json(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (s, o)) in spans.iter().zip(&own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
             \"request\":{},\"self_us\":{:.3}}}}}{}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.request,
            *o as f64 / 1e3,
            if i + 1 < spans.len() { "," } else { "" },
        );
    }
    out.push(']');
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "request",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: 0,
                thread: 0,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                request: 0,
                thread: 0,
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
                request: 0,
                thread: 0,
            },
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 40]);
        let sum = Summary::new(&spans);
        assert_eq!(sum.self_ms("request"), vec![30e-6]);
        assert_eq!(sum.wall_ms("request"), vec![100e-6]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 0);
        let v = t.span("x", 0, |t| t.span("y", 0, |_| 7));
        assert_eq!(v, 7);
        t.set_enabled(true);
        t.span("x", 1, |t| t.span("y", 1, |_| ()));
        let spans = merge(vec![t]);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
    }
}

//! In-memory spans recorded around calls into the workspace's public
//! functions, plus the statistics the report derives from them.
//!
//! A span has a name, a start, an end, an optional parent span, and a
//! request id (a job id, a trial index, a cell index) that ties the
//! spans of one request together. Nothing is written while the
//! benchmark runs: spans stay in memory and are serialised once at the
//! end. With tracing off, [`Tracer::span`] only calls its closure.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use vcfr_obs::Json;

/// Identifies a recorded span (the parent link of its children).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// This span's id.
    pub id: u32,
    /// The span that caused it, if any.
    pub parent: Option<u32>,
    /// Layer-qualified name (`rewriter.randomize`, `service.submit`, ...).
    pub name: &'static str,
    /// Request id shared by the spans of one request.
    pub req: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `on`, and otherwise does nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), next: AtomicU32::new(0), spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's
    /// id to pass on as the parent of nested spans (`None` when tracing
    /// is off, so nested calls cost nothing either).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        // Relaxed: the counter only hands out unique ids.
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let r = f(Some(SpanId(id)));
        self.push(id, name, parent, req, start, Instant::now());
        r
    }

    /// Records a span whose interval an observer reported after the fact
    /// (a matrix cell's run time arrives in its completion callback).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.push(id, name, parent, req, start, end);
        }
    }

    fn push(
        &self,
        id: u32,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent: parent.map(|p| p.0),
            name,
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
        };
        self.spans.lock().expect("a span recorder panicked").push(span);
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("a span recorder panicked").clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }
}

/// Each span's self time in nanoseconds: its duration minus the part of
/// its interval that its children cover (children are clipped to the
/// parent's interval, and overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<(u32, u64)> {
    let mut children: std::collections::BTreeMap<u32, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// The spans as a JSON array, each with its self time, followed by the
/// per-name totals (`count`, `total_ms`, `self_ms`).
pub fn to_json(spans: &[Span]) -> (Json, Json) {
    let selfs = self_times(spans);
    let mut by_name: std::collections::BTreeMap<&str, (u64, f64, f64)> = Default::default();
    let list = spans
        .iter()
        .zip(&selfs)
        .map(|(s, &(_, self_ns))| {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += self_ns as f64 / 1e6;
            let mut j = Json::obj();
            j.set("id", Json::U64(u64::from(s.id)));
            j.set("parent", s.parent.map_or(Json::Null, |p| Json::U64(u64::from(p))));
            j.set("name", Json::Str(s.name.to_string()));
            j.set("req", Json::U64(s.req));
            j.set("start_ns", Json::U64(s.start_ns));
            j.set("end_ns", Json::U64(s.end_ns));
            j.set("self_ns", Json::U64(self_ns));
            j
        })
        .collect();
    let mut totals = Json::obj();
    for (name, (count, total, own)) in by_name {
        let mut j = Json::obj();
        j.set("count", Json::U64(count));
        j.set("total_ms", Json::F64(total));
        j.set("self_ms", Json::F64(own));
        totals.set(name, j);
    }
    (Json::Arr(list), totals)
}

/// The `q` quantile (0..=1) of `v`, interpolating linearly between the
/// two nearest ranks; 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "t", req: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 40), // overlaps child 1: [10, 40) covered once
            span(3, Some(0), 90, 150), // clipped to [90, 100)
            span(4, Some(1), 12, 14),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], (0, 100 - 30 - 10));
        assert_eq!(selfs[1], (1, 20 - 2));
        assert_eq!(selfs[3], (3, 60));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_passes_no_parent() {
        let t = Tracer::new(false);
        let got = t.span("x", None, 0, |id| id);
        assert_eq!(got, None);
        t.record("y", None, 0, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::new(true);
        t.span("outer", None, 7, |p| t.span("inner", p, 7, |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }
}

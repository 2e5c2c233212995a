//! In-memory spans for the traced replay.
//!
//! The benchmark's own files time the calls into each layer's public
//! functions; nothing inside the program is instrumented. A span is
//! `(name, start, end, parent)`; all spans of one replay share its run
//! id. Spans stay in memory and are written out (Chrome trace JSON)
//! only when the benchmark ends.

use std::io::{self, Write};
use std::time::Instant;

/// What a span covers. Operation kinds are leaves; `Period` (one
/// load-check period of the closed loop) and `Replay` (the whole loop)
/// are their ancestors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Replay,
    Period,
    Attach,
    Move,
    Flush,
    LoadCheck,
    Join,
    Leave,
    Fail,
}

impl SpanKind {
    /// The leaf kinds: one per `ClashCluster` call the replay issues.
    pub const OPS: [SpanKind; 7] = [
        SpanKind::Attach,
        SpanKind::Move,
        SpanKind::Flush,
        SpanKind::LoadCheck,
        SpanKind::Join,
        SpanKind::Leave,
        SpanKind::Fail,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Replay => "replay",
            SpanKind::Period => "period",
            SpanKind::Attach => "core.attach_source",
            SpanKind::Move => "core.move_source_with_rate",
            SpanKind::Flush => "core.flush_batch",
            SpanKind::LoadCheck => "core.run_load_check",
            SpanKind::Join => "core.join_server",
            SpanKind::Leave => "core.leave_server",
            SpanKind::Fail => "core.fail_servers",
        }
    }
}

/// Index of a span in its recorder.
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records the spans of one replay. When disabled every call is a
/// branch and nothing else — the same loop then measures what tracing
/// itself costs.
pub struct Recorder {
    enabled: bool,
    run_id: u32,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(run_id: u32, enabled: bool) -> Self {
        Recorder {
            enabled,
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that will have children; close it with [`Recorder::close`].
    pub fn open(&mut self, kind: SpanKind, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            kind,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(&mut self, kind: SpanKind, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            kind,
            start_ns,
            end_ns,
            parent,
        });
        out
    }

    /// Durations of every span of `kind`, nanoseconds, in record order.
    pub fn durations_ns(&self, kind: SpanKind) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self time per kind: a span's duration minus the part its children
    /// cover, summed over the kind.
    pub fn self_time_ns(&self, kind: SpanKind) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.kind == kind)
            .map(|(s, &c)| s.duration_ns().saturating_sub(c))
            .sum()
    }
}

/// Writes a replay's spans as a Chrome trace (`chrome://tracing`,
/// Perfetto): the run id is the process, events are complete
/// (`"ph":"X"`) and in microseconds, and each carries its span id and
/// parent id in `args`.
pub fn write_chrome_trace(out: &mut impl Write, rec: &Recorder) -> io::Result<()> {
    writeln!(out, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
    for (id, s) in rec.spans.iter().enumerate() {
        if id > 0 {
            writeln!(out, ",")?;
        }
        // Parents and leaves sit on separate tracks so nesting reads at
        // a glance: tid 0 = loop, tid 1 = calls into the program.
        let tid = u8::from(!matches!(s.kind, SpanKind::Replay | SpanKind::Period));
        write!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": {}, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}}}}}",
            s.kind.name(),
            rec.run_id,
            tid,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            id,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
        )?;
    }
    writeln!(out, "\n]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            parent,
        }
    }

    fn fixture() -> Recorder {
        let mut r = Recorder::new(7, true);
        r.spans = vec![
            span(SpanKind::Replay, 0, 1000, None),
            span(SpanKind::Period, 10, 600, Some(0)),
            span(SpanKind::Move, 20, 120, Some(1)),
            span(SpanKind::Move, 130, 330, Some(1)),
            span(SpanKind::LoadCheck, 400, 590, Some(1)),
            span(SpanKind::Period, 600, 990, Some(0)),
            span(SpanKind::Flush, 610, 700, Some(5)),
        ];
        r
    }

    #[test]
    fn self_time_subtracts_children() {
        let r = fixture();
        assert_eq!(r.self_time_ns(SpanKind::Move), 300);
        assert_eq!(r.self_time_ns(SpanKind::LoadCheck), 190);
        // Periods: (590 - 100 - 200 - 190) + (390 - 90).
        assert_eq!(r.self_time_ns(SpanKind::Period), 100 + 300);
        // Replay: 1000 - 590 - 390.
        assert_eq!(r.self_time_ns(SpanKind::Replay), 20);
        assert_eq!(r.durations_ns(SpanKind::Move), vec![100.0, 200.0]);
        // Self times partition the root's duration.
        let total: u64 = [
            SpanKind::Replay,
            SpanKind::Period,
            SpanKind::Move,
            SpanKind::Flush,
            SpanKind::LoadCheck,
        ]
        .iter()
        .map(|&k| r.self_time_ns(k))
        .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(1, false);
        let root = r.open(SpanKind::Replay, None);
        assert_eq!(root, None);
        assert_eq!(r.leaf(SpanKind::Move, root, || 5), 5);
        r.close(root);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn live_recorder_nests_and_orders() {
        let mut r = Recorder::new(1, true);
        let root = r.open(SpanKind::Replay, None);
        let v = r.leaf(SpanKind::Attach, root, || 9);
        r.close(root);
        assert_eq!(v, 9);
        let [outer, inner] = r.spans() else {
            panic!("two spans expected")
        };
        assert_eq!(inner.parent, Some(0));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let r = fixture();
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &r).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.matches("\"ph\": \"X\"").count(), 7);
        assert!(text.contains(
            "{\"name\": \"core.run_load_check\", \"ph\": \"X\", \"pid\": 7, \"tid\": 1, \
             \"ts\": 0.400, \"dur\": 0.190, \"args\": {\"id\": 4, \"parent\": 1}}"
        ));
        assert!(text.contains("\"parent\": null"));
        assert!(text.trim_end().ends_with("]}"));
    }
}

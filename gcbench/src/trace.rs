//! Host-time spans around the calls the benchmark makes into each layer.
//!
//! Every call the benchmark times goes through [`Tracer::timed`] (work
//! that belongs to an op: its host time is the op's latency) or
//! [`Tracer::check`] (a correctness oracle: runs on every op, but
//! outside the timed spans). Timed calls are measured in every run;
//! spans are only kept — in memory, written out at the end — when the
//! tracer is on, so the untraced run pays two clock reads per call and
//! nothing else.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Building a round's inputs, before its first timed op.
    Setup,
    /// The round's ops.
    Timed,
    /// Probes run after the timed phase (traced run only).
    Probe,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Timed => "timed",
            Phase::Probe => "probe",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<call>`, or `round` / `op` for the enclosing spans.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The op this span belongs to (0 outside any op).
    pub op: u64,
    /// The run phase the span was recorded in.
    pub phase: Phase,
    /// Whether the span's host time counts toward op latency.
    pub timed: bool,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder and op clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open enclosing spans (round, op), innermost last.
    open: Vec<usize>,
    phase: Phase,
    op: u64,
    op_start: Option<Instant>,
    op_ns: u64,
    /// Host time of every timed call, summed (the throughput
    /// denominator).
    timed_ns: u64,
    /// Latency of every finished op.
    op_samples: Vec<u64>,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            phase: Phase::Setup,
            op: 0,
            op_start: None,
            op_ns: 0,
            timed_ns: 0,
            op_samples: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, timed: bool) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op: if self.op_start.is_some() { self.op } else { 0 },
            phase: self.phase,
            timed,
        });
        self.spans.len() - 1
    }

    /// Switches the phase later spans are recorded under.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Opens an enclosing span (a round); close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        if self.on {
            let t = self.now_ns();
            let idx = self.push(name, t, t, false);
            self.open.push(idx);
        }
    }

    /// Closes the innermost enclosing span.
    pub fn close(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Starts an op: timed calls until [`Tracer::end_op`] add to its
    /// latency.
    pub fn begin_op(&mut self) {
        self.op += 1;
        self.op_ns = 0;
        self.op_start = Some(Instant::now());
        self.open("op");
    }

    /// Ends the current op and records its latency (the sum of its
    /// timed calls; checks between them are excluded).
    pub fn end_op(&mut self) {
        self.close();
        self.op_start = None;
        self.op_samples.push(self.op_ns);
    }

    /// Runs `f` as a timed call into a layer.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.op_ns += ns;
        self.timed_ns += ns;
        if self.on {
            let s = start.duration_since(self.origin).as_nanos() as u64;
            self.push(name, s, s + ns, true);
        }
        r
    }

    /// Runs `f` as an untimed call (a correctness oracle, or set-up
    /// work); recorded as a span when tracing.
    pub fn check<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let s = self.now_ns();
        let r = f();
        let e = self.now_ns();
        self.push(name, s, e, false);
        r
    }

    /// Host nanoseconds of every timed call so far.
    pub fn timed_ns(&self) -> u64 {
        self.timed_ns
    }

    /// Latency of every finished op, in completion order.
    pub fn op_samples(&self) -> &[u64] {
        &self.op_samples
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total host seconds of the spans named `name` in `phase`.
    pub fn seconds(&self, name: &str, phase: Phase) -> f64 {
        self.totals(phase).get(name).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// Total nanoseconds per span name in `phase`.
    pub fn totals(&self, phase: Phase) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.phase == phase) {
            *out.entry(s.name).or_insert(0) += s.ns();
        }
        out
    }

    /// Share of the timed phase's host time that layer spans cover:
    /// layer spans (every span except `round` and `op`) recorded in
    /// the timed phase, over the duration of the timed-phase rounds.
    pub fn layer_coverage(&self) -> f64 {
        let mut rounds = 0u64;
        let mut layers = 0u64;
        for s in self.spans.iter().filter(|s| s.phase == Phase::Timed) {
            match s.name {
                "round" => rounds += s.ns(),
                "op" => {}
                _ => layers += s.ns(),
            }
        }
        layers as f64 / rounds.max(1) as f64
    }

    /// The spans in Chrome trace-event format (open in Perfetto or
    /// `chrome://tracing`): one complete event per span, with its
    /// parent index, op id and phase as arguments.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"phase\":\"{}\",\"timed\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.op,
                s.phase.name(),
                s.timed,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_latency_counts_timed_calls_only() {
        let mut t = Tracer::new(true);
        t.set_phase(Phase::Timed);
        t.open("round");
        t.begin_op();
        t.timed("traversal.mark", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.check("verify.oracle", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end_op();
        t.close();
        let ns = t.op_samples()[0];
        assert!((2_000_000..5_000_000).contains(&ns), "{ns}");
        assert_eq!(t.timed_ns(), ns);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1), "layer spans nest under their op");
        assert_eq!(spans[2].op, 1);
        assert!(t.layer_coverage() > 0.9);
    }

    #[test]
    fn untraced_tracer_keeps_no_spans_but_still_times_ops() {
        let mut t = Tracer::new(false);
        t.begin_op();
        t.timed("x.y", || std::hint::black_box(1 + 1));
        t.end_op();
        assert!(t.spans().is_empty());
        assert_eq!(t.op_samples().len(), 1);
    }
}

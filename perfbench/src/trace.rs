//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's calls into each layer: name, start, end,
//! the span that was open when it began, and the id of the operation it
//! belongs to (a pass, a request or a scenario; 0 marks set-up). They
//! stay in memory while the run measures and are written out as JSON
//! lines at the end. A tracer built with [`Tracer::off`], or one that is
//! paused, records nothing, so the untraced run executes the same code.

use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans, or nothing when off.
pub struct Tracer {
    on: bool,
    paused: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn on() -> Self {
        Self {
            on: true,
            paused: false,
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Self {
            on: false,
            paused: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// `true` while spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on && !self.paused
    }

    /// Stops or resumes recording; call it only while no span is open.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Opens a span named `name` for operation `request`; spans opened
    /// before the matching [`Tracer::end`] become its children.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        if !self.is_on() {
            return 0;
        }
        let id = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `begin` returned; spans close innermost first.
    pub fn end(&mut self, id: usize) {
        if !self.is_on() {
            return;
        }
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
    }

    /// Durations (seconds) of every span named `name`, in start order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Durations of the spans named `name` outside set-up (request > 0).
    pub fn op_seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.request > 0)
            .map(Span::seconds)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Memory held by the span buffer, MiB.
    pub fn buffer_mb(&self) -> f64 {
        (self.spans.capacity() * std::mem::size_of::<Span>()) as f64 / (1 << 20) as f64
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_their_request() {
        let mut tracer = Tracer::on();
        let outer = tracer.begin("outer", 7);
        for _ in 0..2 {
            let inner = tracer.begin("inner", 7);
            tracer.end(inner);
        }
        tracer.end(outer);
        let setup = tracer.begin("inner", 0);
        tracer.end(setup);
        let spans = &tracer.spans;
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(tracer.seconds("inner").len(), 3);
        assert_eq!(tracer.op_seconds("inner").len(), 2);
    }

    #[test]
    fn a_paused_tracer_skips_spans() {
        let mut tracer = Tracer::on();
        tracer.pause(true);
        let skipped = tracer.begin("skipped", 1);
        tracer.end(skipped);
        tracer.pause(false);
        let kept = tracer.begin("kept", 2);
        tracer.end(kept);
        assert_eq!(tracer.len(), 1);
        assert_eq!(tracer.seconds("skipped").len(), 0);
        assert!(tracer.buffer_mb() > 0.0);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        let id = tracer.begin("outer", 1);
        tracer.end(id);
        assert_eq!(tracer.len(), 0);
        assert!(!tracer.is_on());
    }
}

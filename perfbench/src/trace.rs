//! In-memory spans recorded around the library calls the benchmark makes.
//!
//! A span has a name, start and end (ns since the run's origin), the
//! index of the span that caused it, and the id of the job it belongs to.
//! Spans stay in memory while the run measures and are written out once
//! at the end. Tracing off records nothing and takes no timestamps beyond
//! the job boundaries.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u32,
}

/// The span recorder of one run.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index (`None` when off).
    pub fn record(
        &mut self,
        name: &'static str,
        job: u32,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            job,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose end is set later by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, job: u32, start: Instant) -> Option<usize> {
        self.record(name, job, None, start, start)
    }

    pub fn close(&mut self, span: Option<usize>, end: Instant) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.ns(end);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its children
    /// cover. Children of one span never overlap (each job runs its calls
    /// one after another), so the covered time is their summed duration.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"job\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.job,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }
}

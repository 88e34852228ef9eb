//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around the calls it makes into each
//! layer: a name, start and end (ns since the recorder was created), the
//! parent span, and the id of the top-level call they belong to. A span may
//! cover a batch of `count` identical calls, which is how per-call costs of
//! tens of nanoseconds are measured without the recorder dominating them.
//! Spans stay in memory and are written out once, at the end of the run.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (index into the recorder, plus one; 0 means "no span").
    pub id: u32,
    /// Parent span id, 0 for a top-level span.
    pub parent: u32,
    /// Id shared by every span of one top-level call.
    pub call: u32,
    /// Layer-qualified name, e.g. `core.predict`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Calls the span covers (1 for a single call).
    pub count: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    parent: u32,
    call: u32,
    name: &'static str,
    start_ns: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u32,
    next_call: u32,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
            next_call: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a top-level span: a new call id.
    pub fn root(&mut self, name: &'static str) -> Open {
        self.next_call += 1;
        let call = self.next_call;
        self.open(name, 0, call)
    }

    /// Opens a child of `parent` (same call id).
    pub fn child(&mut self, name: &'static str, parent: &Open) -> Open {
        self.open(name, parent.id, parent.call)
    }

    fn open(&mut self, name: &'static str, parent: u32, call: u32) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            call,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Closes a span that covered `count` calls; returns its duration, ns.
    pub fn close(&mut self, open: Open, count: u64) -> u64 {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            call: open.call,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            count,
        });
        end_ns.saturating_sub(open.start_ns)
    }

    /// Records an already-timed child span of `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: &Open,
        start: Instant,
        end: Instant,
        count: u64,
    ) {
        let since = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let (start_ns, end_ns) = (since(start), since(end));
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent: parent.id,
            call: parent.call,
            name,
            start_ns,
            end_ns,
            count,
        });
    }

    /// Times `f` as one child span of `parent` covering `count` calls.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: &Open,
        count: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.child(name, parent);
        let r = f();
        self.close(open, count);
        r
    }

    /// Mean ns per call over the closed spans named `name`.
    pub fn ns_per_call(&self, name: &str) -> f64 {
        let (ns, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + s.count));
        ns as f64 / n.max(1) as f64
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"call\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.id, s.parent, s.call, s.name, s.start_ns, s.end_ns, s.count
            );
        }
        out
    }
}

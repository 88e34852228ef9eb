//! The replay workloads' end-to-end path: trace input to final `Outcome`.

use std::time::Instant;

use via_core::replay::ReplaySim;
use via_core::Outcome;
use via_model::time::WindowLen;
use via_trace::stream::{FileSource, RecordSource, StreamError, TraceRecords};
use via_trace::CallRecord;

use crate::span::{Open, Tracer};
use crate::workload::{Inputs, Workload};

/// Control windows skipped at the start of a replay before window
/// turnarounds count: the engine's prefetch lets the source run up to three
/// windows ahead while the queue fills, so the first boundaries arrive at
/// decode pace, not at the engine's.
const FILL_WINDOWS: usize = 4;

/// A record source wrapper that notes when the first record of each new
/// control window is pulled. Once the prefetch queue is full the source is
/// pulled only as fast as the engine frees a slot, so the spacing between
/// successive marks is the engine's turnaround per window. When tracing, each
/// mark also closes one `engine.window` span and opens the next.
struct Clocked<'a, S> {
    inner: S,
    window: WindowLen,
    last: Option<u64>,
    marks: &'a mut Vec<Instant>,
    spans: Option<(&'a mut Tracer, Open, Option<Open>)>,
}

impl<S> Clocked<'_, S> {
    fn mark(&mut self) {
        self.marks.push(Instant::now());
        if let Some((tracer, root, open)) = &mut self.spans {
            if let Some(prev) = open.take() {
                tracer.close(prev, 1);
            }
            *open = Some(tracer.child("engine.window", root));
        }
    }
}

impl<S: RecordSource> RecordSource for Clocked<'_, S> {
    fn next_record(&mut self) -> Result<Option<CallRecord>, StreamError> {
        let r = self.inner.next_record()?;
        match &r {
            Some(rec) => {
                let w = self.window.window_of(rec.t).index;
                if self.last != Some(w) {
                    self.last = Some(w);
                    self.mark();
                }
            }
            None => {
                if let Some((tracer, _, open)) = &mut self.spans {
                    if let Some(last) = open.take() {
                        tracer.close(last, 1);
                    }
                }
            }
        }
        Ok(r)
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn days(&self) -> u64 {
        self.inner.days()
    }

    fn size_hint(&self) -> Option<u64> {
        self.inner.size_hint()
    }

    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }
}

/// One finished replay.
pub struct ReplayRun {
    /// Wall-clock from handing the source to the engine to the `Outcome`.
    pub wall_s: f64,
    /// The engine's outcome (aggregate, stats, optional obs snapshot).
    pub outcome: Outcome,
    /// Engine turnaround per control window, µs (after the prefetch fill).
    pub window_us: Vec<f64>,
}

/// Replays `workload` once over its inputs at `workers` (0 = usable
/// parallelism), with the engine's metric sink on when `metrics` is set and
/// window spans recorded into `tracer` when given.
pub fn replay_once(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    workers: usize,
    metrics: bool,
    mut tracer: Option<&mut Tracer>,
) -> Result<ReplayRun, String> {
    let mut cfg = workload.replay_config(seed, workers);
    cfg.metrics = metrics;
    let window = cfg.window;
    let sim = ReplaySim::streaming(&inputs.world, cfg);
    let mut marks = Vec::with_capacity(1024);
    let root = tracer.as_mut().map(|t| t.root("engine.replay"));
    let start = Instant::now();
    let outcome = match (&inputs.vbt, &inputs.trace) {
        (Some(path), _) => {
            let file = FileSource::open(path).map_err(|e| format!("open trace: {e}"))?;
            let source = Clocked {
                inner: file,
                window,
                last: None,
                marks: &mut marks,
                spans: tracer.as_deref_mut().zip(root).map(|(t, r)| (t, r, None)),
            };
            sim.run_stream(source, workload.strategy())
        }
        (None, Some(trace)) => {
            let source = Clocked {
                inner: TraceRecords::new(trace),
                window,
                last: None,
                marks: &mut marks,
                spans: tracer.as_deref_mut().zip(root).map(|(t, r)| (t, r, None)),
            };
            sim.run_stream(source, workload.strategy())
        }
        (None, None) => return Err("workload has no trace input".to_string()),
    }
    .map_err(|e| format!("replay stream failed: {e}"))?;
    let end = Instant::now();
    if let (Some(t), Some(r)) = (tracer, root) {
        t.close(r, outcome.aggregate.calls);
    }
    let wall_s = (end - start).as_secs_f64();
    // The last mark's window and the windows still queued behind it finish
    // together at `end`, so that final span is not one window's turnaround.
    let window_us = marks
        .windows(2)
        .skip(FILL_WINDOWS)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e6)
        .collect();
    Ok(ReplayRun {
        wall_s,
        outcome,
        window_us,
    })
}

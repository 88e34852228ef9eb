//! The traced run: per-layer metrics from spans the benchmark records around
//! its own calls into each layer's public API, on the workload's own inputs.
//!
//! Every workload runs the same suite, so every layer metric exists for
//! every workload; a layer the workload's end-to-end path does not exercise
//! (the wire codec under a replay, say) is still measured on that workload's
//! call mix, and README.md says which end-to-end metric it can move where.
//! Per-call costs of tens of nanoseconds are timed as one span over a batch
//! of identical calls (the span's `count`); per-call spans are kept only
//! where single calls matter (controller rollovers) or sampled by a fixed
//! rule (every 64th controller call).

use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use via_core::budget::BudgetGate;
use via_core::history::{CallHistory, KeyPair};
use via_core::predictor::{Predictor, PredictorConfig};
use via_core::replay::ReplaySim;
use via_core::strategy::StrategyKind;
use via_core::topk::{top_k_into, ScoredOption};
use via_core::UcbBandit;
use via_media::merge::{simulate_set, MergeConfig, MergeMode, MergeScratch, PathSpec};
use via_model::metrics::{Metric, PathMetrics};
use via_model::options::RelayOption;
use via_model::seed;
use via_model::time::Window;
use via_server::{Request, Response};
use via_trace::stream::{FileSource, WindowStream};
use via_trace::{CallRecord, RecordSource, Trace};

use crate::host::{self, quantile};
use crate::replay::replay_once;
use crate::server::{self, Load, Plan};
use crate::span::Tracer;
use crate::workload::{controller_parts, Inputs, Workload, SERVER_BUDGET};
use crate::Report;

/// Windows whose predictor fit is timed (evenly spaced over the trace).
const FIT_SAMPLES: usize = 12;
/// Calls per sampled window driven through the selection microbenchmarks.
const CALLS_PER_SAMPLE: usize = 3_000;
/// Calls whose wire messages are encoded and decoded.
const WIRE_CALLS: usize = 10_000;
/// Every this many controller calls, one per-call span is kept.
const CALL_SPAN_EVERY: usize = 64;
/// Phase-1 length of the served run on the replay workloads' call mix, s.
const TRACED_OPEN_S: f64 = 1.0;
/// Objective every selection stage optimizes (the replay default).
const OBJECTIVE: Metric = Metric::Rtt;
/// The replay engine's multipath merge settings (`MULTIPATH_MERGE` in
/// via-core's replay module): 16 frames, 6-packet bursts, AR(1) ρ 0.5, 1 %
/// mid-call path death.
const MERGE: MergeConfig = MergeConfig {
    frames: 16,
    burst_len: 6.0,
    delay_rho: 0.5,
    death_prob: 0.01,
};

/// What the traced run works on.
pub struct Context<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its inputs, as set-up built them.
    pub inputs: &'a Inputs,
    /// The run's seed.
    pub seed: u64,
    /// Open-loop offered rate, calls/s.
    pub rate: f64,
    /// Closed-loop depth.
    pub inflight: usize,
    /// The server workload's request plan and load.
    pub plan: Option<(&'a Plan, &'a Load)>,
    /// Where spans (and any scratch trace file) are written.
    pub work_dir: &'a Path,
}

/// Runs the layer suite and adds every per-layer metric to `report`.
pub fn run(ctx: &Context, report: &mut Report) -> Result<(), String> {
    let mut tr = Tracer::new();
    let owned;
    let trace: &Trace = match (&ctx.inputs.trace, &ctx.inputs.vbt) {
        (Some(t), _) => t,
        (None, Some(path)) => {
            owned = via_trace::binfmt::read_binary(path).map_err(|e| format!("read trace: {e}"))?;
            &owned
        }
        (None, None) => return Err("workload has no trace input".to_string()),
    };
    decode(ctx, trace, &mut tr, report)?;
    let reference = engine(ctx, trace, &mut tr, report)?;
    let history = history_of(ctx, trace, &reference, &mut tr, report);
    drop(reference);
    let fits = fit(ctx, &history, &mut tr, report);
    selection(ctx, trace, &fits, &mut tr, report);
    drop(fits);
    let ctrl = controller(ctx, trace, &mut tr, report);
    let select_codec_ns = wire(ctx, &ctrl, &mut tr, report)?;
    served(ctx, trace, &ctrl, select_codec_ns, &mut tr, report)?;

    let path = ctx
        .work_dir
        .join(format!("spans-{}-{}.jsonl", ctx.workload.name(), ctx.seed));
    std::fs::write(&path, tr.to_jsonl()).map_err(|e| format!("write spans: {e}"))?;
    println!("  {} spans written to {}", tr.len(), path.display());
    Ok(())
}

/// via-trace: drains the workload's trace as a `.vbt` file through
/// `FileSource` → `WindowStream`, with no replay behind it.
fn decode(
    ctx: &Context,
    trace: &Trace,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let scratch = ctx
        .work_dir
        .join(format!("{}-layers.vbt", ctx.workload.name()));
    let path = match &ctx.inputs.vbt {
        Some(p) => p.clone(),
        None => {
            via_trace::binfmt::write_binary(trace, &scratch)
                .map_err(|e| format!("write trace: {e}"))?;
            scratch.clone()
        }
    };
    let source = FileSource::open(&path).map_err(|e| format!("open trace: {e}"))?;
    let mut stream = WindowStream::new(source, ctx.workload.window());
    let root = tr.root("trace.decode");
    let mut records = 0u64;
    loop {
        let span = tr.child("trace.window", &root);
        let batch = stream.next_batch().map_err(|e| format!("decode: {e}"))?;
        let Some(batch) = batch else {
            tr.close(span, 0);
            break;
        };
        let n = batch.records.len() as u64;
        tr.close(span, n);
        records += n;
        stream.recycle(batch);
    }
    let ns = tr.close(root, records);
    let bytes = stream.source().bytes_read();
    let _ = std::fs::remove_file(&scratch);
    report.check(records == trace.records.len() as u64, || {
        format!("decoded {records} of {} records", trace.records.len())
    });
    report.metric(
        "trace.decode_ns_per_call",
        ns as f64 / records.max(1) as f64,
        "ns",
    );
    report.metric(
        "trace.decode_mib_per_s",
        bytes as f64 / (1024.0 * 1024.0) / (ns as f64 / 1e9),
        "MiB/s",
    );
    Ok(())
}

/// via-core engine and via-obs: the workload's replay untraced, traced and
/// with the engine's metric sink on; then 1-worker vs N-worker materialized
/// replays, the first of which is the digest reference. Returns that
/// reference, with its per-call outcomes.
fn engine(
    ctx: &Context,
    trace: &Trace,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<via_core::Outcome, String> {
    let workers = host::usable_parallelism();
    let records = ctx.inputs.records;
    let cpu0 = host::process_cpu_s();
    let off = replay_once(ctx.workload, ctx.inputs, ctx.seed, 0, false, None)?;
    let cpu = host::process_cpu_s() - cpu0;
    let on = replay_once(ctx.workload, ctx.inputs, ctx.seed, 0, false, Some(tr))?;
    let with_obs = replay_once(ctx.workload, ctx.inputs, ctx.seed, 0, true, None)?;
    for run in [&off, &on, &with_obs] {
        report.attempted += records;
        report.failed += records.saturating_sub(run.outcome.aggregate.calls);
    }
    let digest = off.outcome.aggregate.digest;
    report.check(
        on.outcome.aggregate.digest == digest && with_obs.outcome.aggregate.digest == digest,
        || "traced or metered replay changed the outcome digest".to_string(),
    );

    // Materialized reference at 1 worker, and the same at N workers.
    let materialized = |w: usize, tr: &mut Tracer, name: &'static str| {
        let mut cfg = ctx.workload.replay_config(ctx.seed, w);
        cfg.collect_calls = true;
        let root = tr.root(name);
        let t = Instant::now();
        let out = ReplaySim::new(&ctx.inputs.world, trace, cfg).run(ctx.workload.strategy());
        let wall = host::secs_since(t);
        tr.close(root, out.aggregate.calls);
        (wall, out)
    };
    let (wall_1, reference) = materialized(1, tr, "engine.materialized_1w");
    let (wall_n, parallel) = materialized(0, tr, "engine.materialized");
    drop(parallel);
    report.check(reference.aggregate.digest == digest, || {
        format!(
            "streamed digest {digest:#018x} differs from the 1-worker materialized {:#018x}",
            reference.aggregate.digest
        )
    });
    report.check(reference.aggregate.calls == records, || {
        format!(
            "reference replayed {} of {records} records",
            reference.aggregate.calls
        )
    });

    let s = &off.outcome.stats;
    report.metric("engine.gate_ms", s.gate_ms, "ms");
    report.metric("engine.shard_ms", s.shard_ms, "ms");
    report.metric("engine.merge_ms", s.merge_ms, "ms");
    report.metric("engine.refit_ms", s.predictor_fit_ms, "ms");
    report.metric("engine.windows", s.windows as f64, "count");
    report.metric(
        "engine.calls_per_window",
        off.outcome.aggregate.calls as f64 / s.windows.max(1) as f64,
        "count",
    );
    report.metric(
        "engine.cpu_util",
        cpu / (off.wall_s * s.workers.max(1) as f64),
        "fraction",
    );
    if workers > 1 {
        report.metric("engine.speedup", wall_1 / wall_n, "x");
    } else {
        println!("  engine.speedup suppressed: usable parallelism is 1");
    }
    let snap = with_obs
        .outcome
        .obs
        .as_ref()
        .ok_or("metered replay recorded no snapshot")?;
    for (name, counter) in [
        ("obs.bandit_pulls", "replay_bandit_pulls_total"),
        ("obs.explores", "replay_explore_epsilon_total"),
        ("obs.gate_admits", "replay_gate_admitted_total"),
        ("obs.extra_paths", "replay_multipath_extra_paths_total"),
        ("obs.dedup_drops", "replay_multipath_dedup_drops_total"),
        ("obs.failovers", "replay_multipath_failovers_total"),
    ] {
        report.metric(name, snap.counter(counter) as f64, "count");
    }
    report.metric(
        "obs.overhead_frac",
        with_obs.wall_s / off.wall_s - 1.0,
        "fraction",
    );
    if ctx.workload != Workload::ServerLoopback {
        report.metric(
            "bench.trace_overhead_frac",
            on.wall_s / off.wall_s - 1.0,
            "fraction",
        );
    }
    println!(
        "  engine: streamed {:.3} s (traced {:.3} s, metered {:.3} s); materialized 1 worker \
         {wall_1:.3} s, {workers} workers {wall_n:.3} s; digest {digest:#018x}",
        off.wall_s, on.wall_s, with_obs.wall_s
    );
    Ok(reference)
}

/// Rebuilds the per-window call history from the reference run's outcomes,
/// keyed the way the engine keys it (one spatial key per AS).
fn history_of(
    ctx: &Context,
    trace: &Trace,
    outcome: &via_core::Outcome,
    tr: &mut Tracer,
    report: &mut Report,
) -> CallHistory {
    report.check(outcome.calls.len() == trace.records.len(), || {
        "reference run collected the wrong number of calls".to_string()
    });
    let window = ctx.workload.window();
    let root = tr.root("core.history_rebuild");
    let mut history = CallHistory::new();
    for co in &outcome.calls {
        let r = &trace.records[co.call_index as usize];
        history.record(
            window.window_of(r.t),
            KeyPair::new(r.src_as.0, r.dst_as.0),
            co.option,
            &co.metrics,
        );
    }
    tr.close(root, outcome.calls.len() as u64);
    history
}

/// A sampled window's predictor.
struct Fitted {
    window: Window,
    predictor: Predictor,
}

fn predictor_config(workers: usize) -> PredictorConfig {
    let mut cfg = PredictorConfig {
        workers,
        ..PredictorConfig::default()
    };
    cfg.tomography.workers = workers;
    cfg
}

/// via-core predictor: `Predictor::fit` on evenly spaced windows at 1 worker
/// and at the usable parallelism.
fn fit(ctx: &Context, history: &CallHistory, tr: &mut Tracer, report: &mut Report) -> Vec<Fitted> {
    let parts = controller_parts(&ctx.inputs.world);
    let len = ctx.workload.window();
    let days = ctx.workload.trace_config().days;
    let n_windows = days * via_model::time::SECS_PER_DAY / len.secs();
    let stride = (n_windows as usize).div_ceil(FIT_SAMPLES).max(1) as u64;
    let workers = host::usable_parallelism();
    let root = tr.root("core.fit_windows");
    let (mut ms_1, mut ms_n) = (Vec::new(), Vec::new());
    let (mut cells, mut segments) = (0usize, 0usize);
    let mut fitted = Vec::new();
    let mut index = stride / 2;
    while index < n_windows.saturating_sub(1) {
        let window = Window { index, len };
        index += stride;
        if history.window_len(window) == 0 {
            continue;
        }
        let fit_at = |w: usize| {
            let bb = std::sync::Arc::clone(&parts.backbone);
            Predictor::fit(
                history,
                window,
                parts.prior.clone(),
                Box::new(move |a, b| bb(a, b)),
                predictor_config(w),
            )
        };
        let open = tr.child("core.fit_1w", &root);
        drop(fit_at(1));
        ms_1.push(tr.close(open, 1) as f64 / 1e6);
        let open = tr.child("core.fit", &root);
        let predictor = fit_at(workers);
        ms_n.push(tr.close(open, 1) as f64 / 1e6);
        cells += predictor.empirical_cells();
        segments += predictor.tomography_segments();
        fitted.push(Fitted { window, predictor });
    }
    tr.close(root, fitted.len() as u64);
    let n = fitted.len().max(1) as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.metric("core.fit_ms", mean(&ms_n), "ms");
    if workers > 1 {
        report.metric("core.fit_speedup", mean(&ms_1) / mean(&ms_n), "x");
    } else {
        println!("  core.fit_speedup suppressed: usable parallelism is 1");
    }
    report.metric("core.empirical_cells", cells as f64 / n, "count");
    report.metric("core.tomography_segments", segments as f64 / n, "count");
    println!(
        "  predictor: {} windows fitted (every {stride}th)",
        fitted.len()
    );
    fitted
}

/// Calls of `window` (the trace is chronological), at most `cap`.
fn calls_in(trace: &Trace, window: Window, cap: usize) -> &[CallRecord] {
    let start = trace.records.partition_point(|r| r.t < window.start());
    let end = trace.records.partition_point(|r| r.t < window.end());
    &trace.records[start..end.min(start + cap)]
}

/// via-netsim, via-core selection and via-media: each sampled window's
/// predictor decides the next window's calls, stage by stage, each stage one
/// span over the whole batch.
fn selection(ctx: &Context, trace: &Trace, fits: &[Fitted], tr: &mut Tracer, report: &mut Report) {
    let world = &ctx.inputs.world;
    let fixed =
        (ctx.workload == Workload::ServerLoopback).then(|| controller_parts(world).candidates);
    let (k, budget, cost) = match ctx.workload.strategy() {
        StrategyKind::Multipath { k, budget, .. } => (k.max(1), budget, k.max(1) as u64),
        StrategyKind::ViaBudgeted { budget } => (1, budget, 1),
        // The workload runs ungated; its mix is gated at the server's budget.
        _ => (1, SERVER_BUDGET, 1),
    };
    let mut calls_total = 0u64;
    let mut cands_total = 0u64;
    let mut kept_total = 0u64;
    let mut admitted = 0u64;
    let mut merged = 0u64;
    let mut sample = via_netsim::SampleScratch::new();
    let mut merge_scratch = MergeScratch::default();
    for f in fits {
        let next = Window {
            index: f.window.index + 1,
            len: f.window.len,
        };
        let calls = calls_in(trace, next, CALLS_PER_SAMPLE);
        if calls.is_empty() {
            continue;
        }
        let root = tr.root("core.selection");
        let n = calls.len() as u64;
        // Candidate sets (not timed as a layer: list building).
        let mut cand: Vec<RelayOption> = Vec::new();
        let mut off = vec![0usize];
        for c in calls {
            match &fixed {
                Some(list) => cand.extend_from_slice(list),
                None => cand.extend(world.candidate_options(c.src_as, c.dst_as)),
            }
            off.push(cand.len());
        }
        let m = cand.len() as u64;
        // netsim: realize every candidate under the call's own stream.
        let mut realized = Vec::with_capacity(cand.len());
        tr.time("netsim.sample", &root, m, || {
            for (i, c) in calls.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed::derive_indexed(
                    ctx.seed,
                    "perfbench.sample",
                    u64::from(c.id.0),
                ));
                for &o in &cand[off[i]..off[i + 1]] {
                    let p = world.perf().sample_option_scratch(
                        c.src_as,
                        c.dst_as,
                        o,
                        c.t,
                        &mut rng,
                        &mut sample,
                    );
                    realized.push(c.access_extra.apply(&p));
                }
            }
        });
        // Predict and score every candidate.
        let pred = &f.predictor;
        let mut scored = Vec::with_capacity(cand.len());
        tr.time("core.predict", &root, m, || {
            for (i, c) in calls.iter().enumerate() {
                let (ka, kb) = (c.src_as.0, c.dst_as.0);
                for &o in &cand[off[i]..off[i + 1]] {
                    scored.push(ScoredOption::from_prediction(
                        o,
                        &pred.predict(ka, kb, o),
                        OBJECTIVE,
                    ));
                }
            }
        });
        // Top-k pruning.
        let mut order = Vec::new();
        let mut selected = Vec::new();
        let mut kept: Vec<ScoredOption> = Vec::with_capacity(cand.len());
        let mut kept_off = vec![0usize];
        tr.time("core.topk", &root, n, || {
            for i in 0..calls.len() {
                top_k_into(&scored[off[i]..off[i + 1]], &mut order, &mut selected);
                kept.extend_from_slice(&selected);
                kept_off.push(kept.len());
            }
        });
        kept_total += kept.len() as u64;
        // Bandits warm-started from the kept predictions.
        let mut bandits: Vec<UcbBandit> = tr.time("core.bandit_build", &root, n, || {
            (0..calls.len())
                .map(|i| {
                    let sel = &kept[kept_off[i]..kept_off[i + 1]];
                    let w = sel.iter().map(|s| s.upper).sum::<f64>() / sel.len().max(1) as f64;
                    UcbBandit::with_priors(sel.iter().map(|s| (s.option, s.mean)), w, 3)
                })
                .collect()
        });
        let mut chosen: Vec<RelayOption> = Vec::with_capacity(calls.len());
        // The first two paths of each call's multipath set (one repeated
        // when the set holds one).
        let mut sets: Vec<[RelayOption; 2]> = Vec::with_capacity(calls.len());
        let mut set = Vec::new();
        tr.time("core.bandit_choose", &root, n, || {
            for b in &bandits {
                if k > 1 {
                    b.choose_set(k, &mut set);
                    let first = set.first().copied().unwrap_or(RelayOption::Direct);
                    chosen.push(first);
                    sets.push([first, set.get(1).copied().unwrap_or(first)]);
                } else {
                    chosen.push(b.choose().unwrap_or(RelayOption::Direct));
                }
            }
        });
        // The realized metrics of each call's chosen option.
        let metrics_of = |i: usize, o: RelayOption| {
            (off[i]..off[i + 1])
                .find(|&j| cand[j] == o)
                .map_or(realized[off[i]], |j| realized[j])
        };
        let outcome: Vec<PathMetrics> =
            (0..calls.len()).map(|i| metrics_of(i, chosen[i])).collect();
        tr.time("core.bandit_update", &root, n, || {
            for (b, (o, met)) in bandits.iter_mut().zip(chosen.iter().zip(&outcome)) {
                b.update(*o, met[OBJECTIVE]);
            }
        });
        // Budget gate over the predicted benefit, in trace order.
        let benefit: Vec<f64> = (0..calls.len())
            .map(|i| {
                let direct = scored[off[i]..off[i + 1]]
                    .iter()
                    .find(|s| s.option == RelayOption::Direct)
                    .map_or(f64::INFINITY, |s| s.mean);
                let best = kept[kept_off[i]..kept_off[i + 1]]
                    .first()
                    .map_or(direct, |s| s.mean);
                direct - best
            })
            .collect();
        let mut gate = BudgetGate::new(budget);
        tr.time("core.gate_admit", &root, n, || {
            for &b in &benefit {
                if gate.admit_cost(b, cost) {
                    admitted += 1;
                }
            }
        });
        // History recording of the realized outcomes.
        let mut history = CallHistory::new();
        tr.time("core.history_record", &root, n, || {
            for (c, (o, met)) in calls.iter().zip(chosen.iter().zip(&outcome)) {
                history.record(next, KeyPair::new(c.src_as.0, c.dst_as.0), *o, met);
            }
        });
        // Receiver-side merge of two paths per call: the multipath set, or
        // the two best-predicted kept options (direct as the second when
        // top-k kept one).
        let mut specs: Vec<[PathSpec; 2]> = Vec::with_capacity(calls.len());
        for i in 0..calls.len() {
            let pair = if k > 1 {
                sets[i]
            } else {
                let sel = &kept[kept_off[i]..kept_off[i + 1]];
                let first = sel.first().map_or(RelayOption::Direct, |s| s.option);
                let second = sel
                    .get(1)
                    .map(|s| s.option)
                    .filter(|&o| o != first)
                    .unwrap_or(RelayOption::Direct);
                [first, second]
            };
            if pair[0] != pair[1] {
                specs.push(pair.map(|o| PathSpec::alive(metrics_of(i, o), o.stable_code())));
            }
        }
        merged += specs.len() as u64;
        tr.time("media.merge", &root, specs.len() as u64, || {
            for (i, s) in specs.iter().enumerate() {
                let call_seed = seed::derive_indexed(ctx.seed, "perfbench.merge", i as u64);
                std::hint::black_box(simulate_set(
                    s,
                    MergeMode::Duplicate,
                    &MERGE,
                    call_seed,
                    &mut merge_scratch,
                ));
            }
        });
        std::hint::black_box(&history);
        tr.close(root, n);
        calls_total += n;
        cands_total += m;
    }
    report.metric("netsim.sample_ns", tr.ns_per_call("netsim.sample"), "ns");
    report.metric(
        "netsim.candidates_per_call",
        cands_total as f64 / calls_total.max(1) as f64,
        "count",
    );
    report.metric("core.predict_ns", tr.ns_per_call("core.predict"), "ns");
    report.metric("core.topk_ns", tr.ns_per_call("core.topk"), "ns");
    report.metric(
        "core.topk_kept",
        kept_total as f64 / calls_total.max(1) as f64,
        "count",
    );
    report.metric(
        "core.bandit_choose_ns",
        tr.ns_per_call("core.bandit_choose"),
        "ns",
    );
    report.metric(
        "core.bandit_update_ns",
        tr.ns_per_call("core.bandit_update"),
        "ns",
    );
    report.metric(
        "core.gate_admit_ns",
        tr.ns_per_call("core.gate_admit"),
        "ns",
    );
    report.metric(
        "core.gate_admit_frac",
        admitted as f64 / calls_total.max(1) as f64,
        "fraction",
    );
    report.metric(
        "core.history_record_ns",
        tr.ns_per_call("core.history_record"),
        "ns",
    );
    report.metric("media.merge_ns", tr.ns_per_call("media.merge"), "ns");
    println!("  selection: {calls_total} calls, {cands_total} candidates, {merged} merged pairs");
}

/// One in-process controller call's inputs and answer, kept for the wire
/// stage.
struct Decided {
    call: CallRecord,
    sel: via_server::Selection,
    metrics: PathMetrics,
    window: u64,
}

/// The in-process controller run: its decisions, and the served load shape.
struct CtrlRun {
    decided: Vec<Decided>,
    select_ns: f64,
    load: Load,
}

/// The load the traced run serves: the server workload's own, or a
/// `TRACED_OPEN_S` open loop on a replay workload's call mix.
fn traced_load(ctx: &Context, trace: &Trace) -> Load {
    match ctx.plan {
        Some((_, load)) => *load,
        None => Load::new(ctx.rate, ctx.inflight, TRACED_OPEN_S, trace.records.len()),
    }
}

/// via-server: `Controller::select` and `report` in process over the served
/// call mix; calls that bump the refit epoch are rollovers.
fn controller(ctx: &Context, trace: &Trace, tr: &mut Tracer, report: &mut Report) -> CtrlRun {
    let load = traced_load(ctx, trace);
    let parts = controller_parts(&ctx.inputs.world);
    let ctrl = server::controller(&parts, ctx.seed);
    let calls = &trace.records[..load.calls().min(trace.records.len())];
    let root = tr.root("server.calls");
    let (mut sel_ns, mut sel_n, mut rep_ns, mut rep_n) = (0u128, 0u64, 0u128, 0u64);
    let mut rollover_ns = Vec::new();
    let mut decided = Vec::with_capacity(WIRE_CALLS);
    for (i, c) in calls.iter().enumerate() {
        let (src, dst) = (c.src_as.0, c.dst_as.0);
        let e0 = ctrl.refit_epoch();
        let t0 = Instant::now();
        let sel = ctrl.select(u64::from(c.id.0), c.t, src, dst, &parts.candidates);
        let t1 = Instant::now();
        let e1 = ctrl.refit_epoch();
        let metrics = server::realize(&ctx.inputs.world, trace.seed, c, sel.option);
        let t2 = Instant::now();
        let window = ctrl.report(c.t, src, dst, sel.option, &metrics);
        let t3 = Instant::now();
        let e2 = ctrl.refit_epoch();
        for (bumped, start, end, ns, n, name) in [
            (e1 != e0, t0, t1, &mut sel_ns, &mut sel_n, "server.select"),
            (e2 != e1, t2, t3, &mut rep_ns, &mut rep_n, "server.report"),
        ] {
            if bumped {
                rollover_ns.push((end - start).as_nanos() as f64);
                tr.record("server.rollover", &root, start, end, 1);
            } else {
                *ns += (end - start).as_nanos();
                *n += 1;
                if i % CALL_SPAN_EVERY == 0 {
                    tr.record(name, &root, start, end, 1);
                }
            }
        }
        if decided.len() < WIRE_CALLS {
            decided.push(Decided {
                call: c.clone(),
                sel,
                metrics,
                window,
            });
        }
    }
    tr.close(root, calls.len() as u64);
    let select_ns = sel_ns as f64 / sel_n.max(1) as f64;
    report.metric("server.select_ns", select_ns, "ns");
    report.metric(
        "server.report_ns",
        rep_ns as f64 / rep_n.max(1) as f64,
        "ns",
    );
    let rollovers = rollover_ns.len();
    report.metric(
        "server.rollover_ms",
        rollover_ns.iter().sum::<f64>() / rollovers.max(1) as f64 / 1e6,
        "ms",
    );
    report.metric("server.rollovers", rollovers as f64, "count");
    report.check(rollovers > 0, || {
        "the in-process controller never rolled over".to_string()
    });
    CtrlRun {
        decided,
        select_ns,
        load,
    }
}

/// via-server wire messages through the serde_json shim: a call's select and
/// report requests and their two responses. Returns the server-side codec
/// time of the select path (decode the request, encode the response), ns.
fn wire(
    ctx: &Context,
    ctrl: &CtrlRun,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<f64, String> {
    let candidates = controller_parts(&ctx.inputs.world).candidates;
    let msgs: Vec<(Request, Request, Response, Response)> = ctrl
        .decided
        .iter()
        .map(|d| {
            (
                server::select_request(&d.call, &candidates),
                server::report_request(&d.call, d.sel.option, d.metrics),
                Response::Selected {
                    option: d.sel.option,
                    admitted: d.sel.admitted,
                    explored: d.sel.explored,
                    window: d.sel.window,
                },
                Response::Reported { window: d.window },
            )
        })
        .collect();
    let n = msgs.len() as u64;
    let root = tr.root("wire");
    let mut encoded: Vec<[Vec<u8>; 4]> = Vec::with_capacity(msgs.len());
    tr.time("wire.encode", &root, n, || -> Result<(), String> {
        for (a, b, c, d) in &msgs {
            encoded.push([enc(a)?, enc(b)?, enc(c)?, enc(d)?]);
        }
        Ok(())
    })?;
    let bytes: usize = encoded
        .iter()
        .map(|e| e.iter().map(Vec::len).sum::<usize>())
        .sum();
    let decoded = tr.time("wire.decode", &root, n, || {
        encoded
            .iter()
            .map(|[a, b, c, d]| Ok((dec(a)?, dec(b)?, dec(c)?, dec(d)?)))
            .collect::<Result<Vec<(Request, Request, Response, Response)>, String>>()
    })?;
    report.check(decoded == msgs, || {
        "wire round trip changed a message".to_string()
    });
    tr.time("wire.select_codec", &root, n, || -> Result<(), String> {
        for ((_, _, sel, _), [req, ..]) in msgs.iter().zip(&encoded) {
            std::hint::black_box(dec::<Request>(req)?);
            std::hint::black_box(enc(sel)?);
        }
        Ok(())
    })?;
    tr.close(root, n);
    report.metric("wire.encode_ns", tr.ns_per_call("wire.encode"), "ns");
    report.metric("wire.decode_ns", tr.ns_per_call("wire.decode"), "ns");
    report.metric(
        "wire.bytes_per_call",
        bytes as f64 / n.max(1) as f64,
        "bytes",
    );
    Ok(tr.ns_per_call("wire.select_codec"))
}

fn enc<T: serde::Serialize>(m: &T) -> Result<Vec<u8>, String> {
    serde_json::to_vec(m).map_err(|e| e.to_string())
}

fn dec<T: for<'de> serde::Deserialize<'de>>(b: &[u8]) -> Result<T, String> {
    serde_json::from_slice(b).map_err(|e| e.to_string())
}

/// The socket path and the load generator: the workload's call mix served
/// over loopback (untraced, then with response spans for the server
/// workload's tracing overhead).
fn served(
    ctx: &Context,
    trace: &Trace,
    ctrl: &CtrlRun,
    select_codec_ns: f64,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let owned;
    let plan = match ctx.plan {
        Some((plan, _)) => plan,
        None => {
            owned = server::plan(&ctx.inputs.world, trace, ctx.seed, &ctrl.load)?;
            &owned
        }
    };
    let off = server::serve_once(&ctx.inputs.world, ctx.seed, plan, &ctrl.load, None)?;
    let mut runs = vec![&off];
    let on;
    if ctx.workload == Workload::ServerLoopback {
        on = server::serve_once(&ctx.inputs.world, ctx.seed, plan, &ctrl.load, Some(tr))?;
        report.metric(
            "bench.trace_overhead_frac",
            off.capacity / on.capacity - 1.0,
            "fraction",
        );
        runs.push(&on);
    }
    for run in &runs {
        report.attempted += 2 * plan.calls as u64;
        report.failed += run.errors + run.mismatches + 2 * run.unanswered;
        report.check(run.mismatches == 0, || {
            format!(
                "{} served responses differ from the replica's",
                run.mismatches
            )
        });
        report.check(run.snapshot_hash == plan.snapshot_hash, || {
            "served selection snapshot differs from the replica's".to_string()
        });
        report.check(run.rollovers > 0, || {
            "the served controller never rolled over".to_string()
        });
    }
    let mut lat = off.select_us.clone();
    let p50 = quantile(&mut lat, 0.5);
    report.metric("socket.select_p99_us", quantile(&mut lat, 0.99), "us");
    let mut lag = off.lag_us.clone();
    report.metric(
        "socket.overhead_us",
        p50 - (ctrl.select_ns + select_codec_ns) / 1e3,
        "us",
    );
    report.metric("gen.lag_p99_us", quantile(&mut lag, 0.99), "us");
    report.metric("gen.inflight_max", off.inflight_max as f64, "count");
    println!(
        "  served {} calls: select p50 {p50:.1} us over {} samples, capacity {:.0} calls/s",
        plan.calls,
        lat.len(),
        off.capacity
    );
    Ok(())
}

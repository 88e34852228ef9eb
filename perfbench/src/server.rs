//! The server-loopback workload: a live `Controller` served over loopback to
//! a pipelined load generator on one connection (one writer, one reader).
//!
//! Set-up plays the whole request sequence through an in-process replica
//! controller first. One connection fixes the request order, and the
//! controller is deterministic in that order, so the replica's answers are
//! exactly what the server must send back: the plan holds every request
//! frame and every expected response frame, byte for byte. The writer then
//! only copies bytes onto the socket, and the reader checks each response
//! against the plan.
//!
//! Phase 1 is an open loop: call `i` is due at `start + i / rate`, and its
//! select latency is timed from that due time, so a stall delays every call
//! queued behind it. Phase 2 keeps a fixed number of calls in flight and
//! measures capacity.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use via_model::metrics::{PathMetrics, Thresholds};
use via_model::options::RelayOption;
use via_model::seed;
use via_netsim::World;
use via_server::{Controller, Request, Response, ServerConfig};
use via_testbed::protocol::write_frame;
use via_trace::{CallRecord, Trace};

use crate::host::quantile;
use crate::span::Tracer;
use crate::workload::{controller_parts, ControllerParts, Workload};

/// How long the reader waits for any one response before the remaining
/// calls count as unanswered.
const RESPONSE_DEADLINE: Duration = Duration::from_secs(5);

/// Session id a fresh controller issues to its first connection; the plan's
/// request frames carry it.
const FIRST_SESSION: u64 = 1;

/// The load shape: offered rate of phase 1, depth of phase 2, and how many
/// calls each phase carries.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Phase-1 offered rate, calls/s.
    pub rate: f64,
    /// Phase-2 calls kept in flight.
    pub inflight: usize,
    /// Calls in phase 1.
    pub open_calls: usize,
    /// Calls in phase 2.
    pub closed_calls: usize,
}

impl Load {
    /// Phase 1 lasts `open_s` seconds at `rate`; phase 2 carries twice as
    /// many calls (bounded by the trace).
    pub fn new(rate: f64, inflight: usize, open_s: f64, trace_calls: usize) -> Load {
        let open_calls = ((rate * open_s) as usize).min(trace_calls / 3).max(1);
        Load {
            rate,
            inflight: inflight.max(1),
            open_calls,
            closed_calls: (2 * open_calls).min(trace_calls.saturating_sub(open_calls)),
        }
    }

    /// Total calls.
    pub fn calls(&self) -> usize {
        self.open_calls + self.closed_calls
    }
}

/// One call's planned select request.
pub fn select_request(call: &CallRecord, cands: &[RelayOption]) -> Request {
    Request::Select {
        session: FIRST_SESSION,
        call_id: u64::from(call.id.0),
        t: call.t,
        src_key: call.src_as.0,
        dst_key: call.dst_as.0,
        candidates: cands.to_vec(),
    }
}

/// One call's planned report request.
pub fn report_request(call: &CallRecord, option: RelayOption, metrics: PathMetrics) -> Request {
    Request::Report {
        session: FIRST_SESSION,
        t: call.t,
        src_key: call.src_as.0,
        dst_key: call.dst_as.0,
        option,
        metrics,
    }
}

/// Realized metrics of `call` over `option`: the world's sample under the
/// call's own stream, plus its access extras — what the caller would report.
pub fn realize(
    world: &World,
    trace_seed: u64,
    call: &CallRecord,
    option: RelayOption,
) -> PathMetrics {
    let mut rng = StdRng::seed_from_u64(seed::derive_indexed(
        trace_seed,
        "perfbench.report",
        (u64::from(call.id.0) << 34) ^ option.stable_code(),
    ));
    let path = world
        .perf()
        .sample_option(call.src_as, call.dst_as, option, call.t, &mut rng);
    call.access_extra.apply(&path)
}

/// The server's configuration.
pub fn server_config(seed: u64) -> ServerConfig {
    ServerConfig {
        seed,
        window: Workload::ServerLoopback.window(),
        epsilon: crate::workload::SERVER_EPSILON,
        budget: Some(crate::workload::SERVER_BUDGET),
        shards: 8,
        ..ServerConfig::default()
    }
}

/// A fresh controller over `parts`.
pub fn controller(parts: &ControllerParts, seed: u64) -> Controller {
    Controller::new(
        server_config(seed),
        parts.prior.clone(),
        Arc::clone(&parts.backbone),
    )
}

/// The precomputed request/response sequence.
pub struct Plan {
    /// Request bytes (select frame then report frame) of every call.
    requests: Vec<u8>,
    /// `requests[req_off[i]..req_off[i + 1]]` is call `i`'s.
    req_off: Vec<usize>,
    /// Expected response frame bodies, two per call (selected, reported).
    responses: Vec<u8>,
    /// `responses[resp_off[f]..resp_off[f + 1]]` is frame `f`'s body.
    resp_off: Vec<usize>,
    /// Share of calls whose reported metrics have any poor metric.
    pub pnr_any: f64,
    /// FNV-1a hash of the replica's final selection snapshot JSON.
    pub snapshot_hash: u64,
    /// Calls in the plan.
    pub calls: usize,
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn frame_body<T: serde::Serialize>(msg: &T) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    write_frame(&mut buf, msg).map_err(|e| format!("encode: {e}"))?;
    Ok(buf.split_off(4))
}

/// Plays the first `load.calls()` calls of the trace through a replica
/// controller, recording every request and the response it must produce.
pub fn plan(world: &World, trace: &Trace, seed: u64, load: &Load) -> Result<Plan, String> {
    let parts = controller_parts(world);
    let replica = controller(&parts, seed);
    let thresholds = Thresholds::default();
    let calls = &trace.records[..load.calls().min(trace.records.len())];
    let mut requests = Vec::with_capacity(calls.len() * 400);
    let mut req_off = Vec::with_capacity(calls.len() + 1);
    let mut responses = Vec::with_capacity(calls.len() * 120);
    let mut resp_off = Vec::with_capacity(2 * calls.len() + 1);
    let mut poor = 0usize;
    for call in calls {
        let (src, dst) = (call.src_as.0, call.dst_as.0);
        let sel = replica.select(u64::from(call.id.0), call.t, src, dst, &parts.candidates);
        let metrics = realize(world, trace.seed, call, sel.option);
        if thresholds.any_poor(&metrics) {
            poor += 1;
        }
        let window = replica.report(call.t, src, dst, sel.option, &metrics);
        req_off.push(requests.len());
        write_frame(&mut requests, &select_request(call, &parts.candidates))
            .map_err(|e| format!("encode select: {e}"))?;
        write_frame(&mut requests, &report_request(call, sel.option, metrics))
            .map_err(|e| format!("encode report: {e}"))?;
        for resp in [
            Response::Selected {
                option: sel.option,
                admitted: sel.admitted,
                explored: sel.explored,
                window: sel.window,
            },
            Response::Reported { window },
        ] {
            resp_off.push(responses.len());
            responses.extend_from_slice(&frame_body(&resp)?);
        }
    }
    req_off.push(requests.len());
    resp_off.push(responses.len());
    Ok(Plan {
        requests,
        req_off,
        responses,
        resp_off,
        pnr_any: poor as f64 / calls.len().max(1) as f64,
        snapshot_hash: fnv1a(replica.selection_snapshot_json().as_bytes()),
        calls: calls.len(),
    })
}

/// One served repetition's readings.
#[derive(Debug, Clone, Default)]
pub struct Served {
    /// Phase-1 select latency from due time, µs, one per call.
    pub select_us: Vec<f64>,
    /// Phase-1 send lateness behind schedule, µs, one per call.
    pub lag_us: Vec<f64>,
    /// Largest number of calls in flight during phase 1.
    pub inflight_max: u64,
    /// Phase-2 completed calls per second.
    pub capacity: f64,
    /// Responses that were `Error`s.
    pub errors: u64,
    /// Responses that differed from the plan (other than errors).
    pub mismatches: u64,
    /// Calls with no (complete) response by the deadline.
    pub unanswered: u64,
    /// Hash of the served controller's final selection snapshot.
    pub snapshot_hash: u64,
    /// Predictor publishes the served controller saw.
    pub rollovers: u64,
}

/// What the reader thread hands back.
struct ReaderOut {
    /// Receive instant of each call's `Selected` frame, None if missing.
    selected_at: Vec<Option<Instant>>,
    /// Receive instant of each call's `Reported` frame, None if missing.
    reported_at: Vec<Option<Instant>>,
    errors: u64,
    mismatches: u64,
}

/// Reads frames in order and checks each against the plan. Every completed
/// call (its `Reported` frame read) bumps `done`; phase-2 completions also
/// send a credit to the writer.
fn read_responses(
    mut stream: TcpStream,
    plan: &Plan,
    load: &Load,
    done: &AtomicU64,
    credits: &mpsc::Sender<()>,
    mut tracer: Option<&mut Tracer>,
) -> ReaderOut {
    let n = plan.calls;
    let mut out = ReaderOut {
        selected_at: vec![None; n],
        reported_at: vec![None; n],
        errors: 0,
        mismatches: 0,
    };
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut start = 0usize;
    let mut chunk = vec![0u8; 1 << 16];
    let mut frame = 0usize;
    let mut last_progress = Instant::now();
    while frame < 2 * n {
        // Decode every complete frame already buffered.
        loop {
            if buf.len() - start < 4 {
                break;
            }
            let len =
                u32::from_be_bytes([buf[start], buf[start + 1], buf[start + 2], buf[start + 3]])
                    as usize;
            if buf.len() - start < 4 + len {
                break;
            }
            let now = Instant::now();
            let span = tracer.as_mut().map(|t| t.root("socket.response"));
            let body = &buf[start + 4..start + 4 + len];
            let want = &plan.responses[plan.resp_off[frame]..plan.resp_off[frame + 1]];
            if body != want {
                match serde_json::from_slice::<Response>(body) {
                    Ok(Response::Error { .. }) => out.errors += 1,
                    _ => out.mismatches += 1,
                }
            }
            let call = frame / 2;
            if frame.is_multiple_of(2) {
                out.selected_at[call] = Some(now);
            } else {
                out.reported_at[call] = Some(now);
                done.fetch_add(1, Ordering::Release);
                if call >= load.open_calls {
                    let _ = credits.send(());
                }
            }
            if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
                t.close(s, 1);
            }
            start += 4 + len;
            frame += 1;
            last_progress = now;
        }
        if frame >= 2 * n {
            break;
        }
        if start > 0 && start == buf.len() {
            buf.clear();
            start = 0;
        } else if start > (1 << 20) {
            buf.drain(..start);
            start = 0;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if last_progress.elapsed() > RESPONSE_DEADLINE {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    out
}

/// Performs the `Hello` handshake; the fresh controller must issue
/// [`FIRST_SESSION`].
fn handshake(stream: &mut TcpStream) -> Result<(), String> {
    write_frame(stream, &Request::Hello).map_err(|e| format!("hello: {e}"))?;
    stream
        .set_read_timeout(Some(RESPONSE_DEADLINE))
        .map_err(|e| format!("socket: {e}"))?;
    let resp: Response =
        via_testbed::protocol::read_frame(stream).map_err(|e| format!("welcome: {e}"))?;
    match resp {
        Response::Welcome { session } if session == FIRST_SESSION => Ok(()),
        other => Err(format!("unexpected handshake reply {other:?}")),
    }
}

/// Serves a fresh controller on loopback and drives one repetition of the
/// plan through it. The calling thread is the writer; one reader thread
/// reads the responses.
/// Response frames are recorded as `socket.response` spans into `tracer`
/// when given.
pub fn serve_once(
    world: &World,
    seed: u64,
    plan: &Plan,
    load: &Load,
    tracer: Option<&mut Tracer>,
) -> Result<Served, String> {
    let parts = controller_parts(world);
    let handle = via_server::serve(Arc::new(controller(&parts, seed)))
        .map_err(|e| format!("bind loopback: {e}"))?;
    let result = drive(handle.addr(), plan, load, tracer);
    let ctrl = Arc::clone(handle.controller());
    handle.stop();
    let mut served = result?;
    served.snapshot_hash = fnv1a(ctrl.selection_snapshot_json().as_bytes());
    served.rollovers = ctrl.refit_epoch();
    Ok(served)
}

fn drive(
    addr: std::net::SocketAddr,
    plan: &Plan,
    load: &Load,
    tracer: Option<&mut Tracer>,
) -> Result<Served, String> {
    let mut stream = TcpStream::connect_timeout(&addr, RESPONSE_DEADLINE)
        .map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("socket: {e}"))?;
    handshake(&mut stream)?;
    let reader_stream = stream.try_clone().map_err(|e| format!("socket: {e}"))?;
    let done = AtomicU64::new(0);
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    let n1 = load.open_calls;
    let n = plan.calls;
    let mut sent_at: Vec<Instant> = Vec::with_capacity(n);
    let mut due_at: Vec<Instant> = Vec::with_capacity(n1);
    let mut inflight_max = 0u64;
    let (reader, write_err) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let credits = credit_tx;
            read_responses(reader_stream, plan, load, &done, &credits, tracer)
        });
        let write_err = (|| -> Result<(), String> {
            // Phase 1: open loop. Every call whose due time has passed goes
            // out in one write; then sleep until the next one is due.
            let period = Duration::from_secs_f64(1.0 / load.rate);
            let t0 = Instant::now() + Duration::from_millis(2);
            due_at.extend((0..n1).map(|i| t0 + period * i as u32));
            let mut i = 0;
            while i < n1 {
                let now = Instant::now();
                if due_at[i] > now {
                    std::thread::sleep(due_at[i] - now);
                    continue;
                }
                let mut j = i;
                while j < n1 && due_at[j] <= now {
                    j += 1;
                }
                stream
                    .write_all(&plan.requests[plan.req_off[i]..plan.req_off[j]])
                    .map_err(|e| format!("send: {e}"))?;
                let sent = Instant::now();
                sent_at.extend(std::iter::repeat_n(sent, j - i));
                let inflight = j as u64 - done.load(Ordering::Acquire);
                inflight_max = inflight_max.max(inflight);
                i = j;
            }
            // Phase 2: closed loop with `inflight` calls outstanding. Each
            // wake-up refills every slot freed since the last one, in one
            // write.
            let mut i = n1;
            let mut free = load.inflight;
            while i < n {
                if free == 0 {
                    credit_rx
                        .recv_timeout(RESPONSE_DEADLINE)
                        .map_err(|_| "no phase-2 completion within the deadline".to_string())?;
                    free = 1 + credit_rx.try_iter().count();
                }
                let j = (i + free).min(n);
                stream
                    .write_all(&plan.requests[plan.req_off[i]..plan.req_off[j]])
                    .map_err(|e| format!("send: {e}"))?;
                let sent = Instant::now();
                sent_at.extend(std::iter::repeat_n(sent, j - i));
                free -= j - i;
                i = j;
            }
            stream.flush().map_err(|e| format!("send: {e}"))
        })();
        if write_err.is_err() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let reader = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string());
        (reader, write_err)
    });
    let reader = reader?;
    write_err?;
    let _ = stream.shutdown(std::net::Shutdown::Both);

    let mut served = Served {
        errors: reader.errors,
        mismatches: reader.mismatches,
        inflight_max,
        ..Served::default()
    };
    served.unanswered = reader.reported_at.iter().filter(|r| r.is_none()).count() as u64;
    for i in 0..n1 {
        served
            .lag_us
            .push((sent_at[i] - due_at[i]).as_secs_f64() * 1e6);
        if let Some(at) = reader.selected_at[i] {
            served.select_us.push((at - due_at[i]).as_secs_f64() * 1e6);
        }
    }
    if n > n1 {
        if let Some(Some(last)) = reader.reported_at.last() {
            let first = sent_at[n1];
            served.capacity = (n - n1) as f64 / (*last - first).as_secs_f64().max(1e-9);
        }
    }
    Ok(served)
}

/// Whether the open loop kept its schedule: sends went out within
/// `max_lag_us` of their due time at p99, and the backlog never exceeded
/// `max_backlog_s` of offered load.
pub fn open_loop_valid(served: &Served, load: &Load, max_lag_us: f64, max_backlog_s: f64) -> bool {
    let mut lag = served.lag_us.clone();
    quantile(&mut lag, 0.99) <= max_lag_us
        && (served.inflight_max as f64) <= (load.rate * max_backlog_s).max(load.inflight as f64)
}

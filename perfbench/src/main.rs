//! Repository benchmark for the VIA reproduction.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds the workload's inputs from the seed, times its end-to-end path
//! (`--trace 0`) or runs the traced per-layer suite on the same inputs
//! (`--trace 1`), checks the outputs, prints every metric by name with its
//! unit, and ends with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! It exits non-zero when any check failed. See `README.md` for the
//! workloads, the metrics and what each layer metric should move.

mod host;
mod layers;
mod replay;
mod server;
mod span;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use workload::{Inputs, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed repetitions per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Phase-1 length of one served repetition, seconds.
const OPEN_LOOP_S: f64 = 1.0;
/// Fewest valid served repetitions per run.
const MIN_SERVED_REPS: usize = 10;
/// An open-loop repetition is invalid when its p99 send lag exceeds this.
const MAX_LAG_US: f64 = 1_000.0;
/// ... or when the calls in flight ever exceed this much offered load.
const MAX_BACKLOG_S: f64 = 0.05;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rate: f64,
    inflight: usize,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = 25.0f64;
    let mut trace = false;
    let mut rate = 15_000.0f64;
    let mut inflight = 16usize;
    let mut work_dir = PathBuf::from(".perfbench");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().map_err(|_| bad(v))?;
            }
            "--trace" => {
                let v = value()?;
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--offered-rate" => {
                let v = value()?;
                rate = v.parse().map_err(|_| bad(v))?;
            }
            "--inflight" => {
                let v = value()?;
                inflight = v.parse().map_err(|_| bad(v))?;
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(seconds > 0.0 && rate > 0.0 && inflight > 0) {
        return Err("--seconds, --offered-rate and --inflight must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        rate,
        inflight,
        work_dir,
    })
}

/// A run's result: the checks and the named metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed checks, by description.
    pub problems: Vec<String>,
    /// (name, value, unit), in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a non-finite reading fails
                // the run (see `main`) and prints as null.
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Everything a run measures against.
struct Prepared {
    inputs: Inputs,
    /// The served request sequence and its load (server workload only).
    plan: Option<(server::Plan, server::Load)>,
}

/// Builds the workload's inputs (and, for the server, its request plan)
/// `reps` times, keeping the last, and returns them with the median set-up
/// time.
fn setup(args: &Args, reps: usize) -> Result<(Prepared, f64), String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("create {}: {e}", args.work_dir.display()))?;
    let mut times = Vec::with_capacity(reps);
    let mut prepared = None;
    for _ in 0..reps {
        // Drop the previous inputs first so set-ups do not overlap in memory.
        drop(prepared.take());
        let t = Instant::now();
        let inputs = workload::build_inputs(args.workload, args.seed, &args.work_dir)?;
        let plan = match (&inputs.trace, args.workload) {
            (Some(trace), Workload::ServerLoopback) => {
                let load =
                    server::Load::new(args.rate, args.inflight, OPEN_LOOP_S, trace.records.len());
                Some((server::plan(&inputs.world, trace, args.seed, &load)?, load))
            }
            _ => None,
        };
        times.push(host::secs_since(t));
        prepared = Some(Prepared { inputs, plan });
    }
    let prepared = prepared.ok_or("no set-up ran")?;
    Ok((prepared, host::median(&mut times)))
}

/// Times the replay workloads: back-to-back replays for `--seconds` (at
/// least `MIN_REPS`). Each replay's call count and digest are checked. Every
/// figure is the median over the replays of that replay's reading.
fn timed_replay(args: &Args, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let (mut rates, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    let mut digest = None;
    let mut pnr = f64::NAN;
    let start = Instant::now();
    while rates.len() < MIN_REPS || host::secs_since(start) < args.seconds {
        let mut run = replay::replay_once(args.workload, inputs, args.seed, 0, false, None)?;
        let agg = &run.outcome.aggregate;
        report.attempted += inputs.records;
        report.failed += inputs.records.saturating_sub(agg.calls);
        report.check(agg.calls == inputs.records, || {
            format!("replayed {} of {} records", agg.calls, inputs.records)
        });
        report.check(digest.is_none_or(|d| d == agg.digest), || {
            "aggregate digest differs between repetitions".to_string()
        });
        digest = Some(agg.digest);
        pnr = agg.pnr().any;
        let rate = agg.calls as f64 / run.wall_s;
        let (p50, p90) = (
            host::quantile(&mut run.window_us, 0.5),
            host::quantile(&mut run.window_us, 0.9),
        );
        println!(
            "  replay {}: {:.3} s, {rate:.0} calls/s, window turnaround p50 {p50:.0} us, \
             p90 {p90:.0} us over {} windows [{}]",
            rates.len() + 1,
            run.wall_s,
            run.window_us.len(),
            run.outcome.stats.summary()
        );
        rates.push(rate);
        p50s.push(p50);
        p90s.push(p90);
    }
    report.metric("calls_per_s", host::median(&mut rates), "calls/s");
    report.metric("latency_p50_us", host::median(&mut p50s), "us");
    report.metric("latency_p90_us", host::median(&mut p90s), "us");
    report.metric("pnr_any", pnr, "fraction");
    report.metric("peak_rss_mib", host::peak_rss_mib(), "MiB");
    Ok(())
}

/// Times the server workload: fresh served controllers, one after another,
/// for `--seconds` (at least `MIN_SERVED_REPS` valid repetitions). Invalid
/// open-loop repetitions are retried, not reported. Every figure is the
/// median over the valid repetitions of that repetition's reading.
fn timed_server(
    args: &Args,
    inputs: &Inputs,
    plan: &server::Plan,
    load: &server::Load,
    report: &mut Report,
) -> Result<(), String> {
    let (mut p50s, mut p90s, mut capacity) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = 0usize;
    let mut invalid = 0usize;
    let start = Instant::now();
    while (capacity.len() < MIN_SERVED_REPS || host::secs_since(start) < args.seconds)
        && invalid <= 2 * MIN_SERVED_REPS
    {
        let served = server::serve_once(&inputs.world, args.seed, plan, load, None)?;
        report.attempted += 2 * plan.calls as u64;
        report.failed += served.errors + served.mismatches + 2 * served.unanswered;
        report.check(served.mismatches == 0, || {
            format!("{} responses differ from the replica's", served.mismatches)
        });
        report.check(served.snapshot_hash == plan.snapshot_hash, || {
            "served selection snapshot differs from the replica's".to_string()
        });
        report.check(served.rollovers > 0, || {
            "no window rollover seen".to_string()
        });
        let mut lag = served.lag_us.clone();
        let lag_p99 = host::quantile(&mut lag, 0.99);
        let mut lat = served.select_us.clone();
        let (p50, p90, p99) = (
            host::quantile(&mut lat, 0.5),
            host::quantile(&mut lat, 0.9),
            host::quantile(&mut lat, 0.99),
        );
        let valid = server::open_loop_valid(&served, load, MAX_LAG_US, MAX_BACKLOG_S);
        println!(
            "  serve {}: p50 {p50:.1} us, p90 {p90:.1} us, p99 {p99:.1} us over {} selects; \
             capacity {:.0} calls/s; send lag p99 {lag_p99:.1} us, in flight max {}, \
             {} rollovers{}",
            capacity.len() + invalid + 1,
            lat.len(),
            served.capacity,
            served.inflight_max,
            served.rollovers,
            if valid {
                ""
            } else {
                " (invalid: the generator fell behind)"
            }
        );
        if !valid {
            invalid += 1;
            continue;
        }
        samples += lat.len();
        p50s.push(p50);
        p90s.push(p90);
        capacity.push(served.capacity);
    }
    report.check(!capacity.is_empty(), || {
        "every open-loop repetition fell behind its schedule".to_string()
    });
    println!(
        "  {} valid repetitions ({invalid} invalid), {samples} select latencies",
        capacity.len()
    );
    report.metric("calls_per_s", host::median(&mut capacity), "calls/s");
    report.metric("latency_p50_us", host::median(&mut p50s), "us");
    report.metric("latency_p90_us", host::median(&mut p90s), "us");
    report.metric("pnr_any", plan.pnr_any, "fraction");
    report.metric("peak_rss_mib", host::peak_rss_mib(), "MiB");
    Ok(())
}

fn run(args: &Args) -> Result<Report, String> {
    println!(
        "perfbench {} seed {} ({}): {} cpus online, usable parallelism {}",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "timed" },
        host::host_cpus(),
        host::usable_parallelism()
    );
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (prepared, setup_s) = setup(args, reps)?;
    let Prepared { inputs, plan } = &prepared;
    println!(
        "  set-up {setup_s:.3} s (median of {reps}), {} records{}",
        inputs.records,
        plan.as_ref().map_or(String::new(), |(p, _)| format!(
            ", {} planned calls",
            p.calls
        ))
    );
    let mut report = Report::default();
    if !host::reset_peak_rss() {
        println!("  note: peak RSS could not be reset; it includes the set-up");
    }
    if args.trace {
        let ctx = layers::Context {
            workload: args.workload,
            inputs,
            seed: args.seed,
            rate: args.rate,
            inflight: args.inflight,
            plan: plan.as_ref().map(|(p, l)| (p, l)),
            work_dir: &args.work_dir,
        };
        layers::run(&ctx, &mut report)?;
    } else {
        match plan {
            Some((plan, load)) => timed_server(args, inputs, plan, load, &mut report)?,
            None => timed_replay(args, inputs, &mut report)?,
        }
        report.metric("setup_s", setup_s, "s");
    }
    if let Some(vbt) = &inputs.vbt {
        let _ = std::fs::remove_file(vbt);
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        report
            .problems
            .push("a metric is not a finite number".to_string());
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name} = {value} {unit}");
    }
    for p in &report.problems {
        println!("  CHECK FAILED: {p}");
    }
    println!(
        "  attempted {}, failed {} (failed_frac {})",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

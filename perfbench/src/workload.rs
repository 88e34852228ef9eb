//! Workload definitions and their set-up.
//!
//! Every workload is a world (fixed per workload) plus a call trace generated
//! from the run's seed, and the configuration the system under test runs them
//! with. Set-up
//! builds the inputs and warms what a long-running deployment would already
//! have warm (first-touch world segments); the timed phase starts after it.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use via_core::replay::{ReplayConfig, SpatialGranularity};
use via_core::strategy::{MultipathMode, StrategyKind};
use via_core::{BackboneFn, GeoPrior};
use via_model::ids::{AsId, RelayId};
use via_model::options::RelayOption;
use via_model::time::WindowLen;
use via_netsim::{World, WorldConfig};
use via_trace::binfmt::BinWriter;
use via_trace::{Trace, TraceConfig, TraceGenerator};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale world and call density, daily windows, replayed from a
    /// `.vbt` file through the streaming engine.
    PaperStream,
    /// Small world, 1-hour windows, budgeted 2-path duplicate multipath,
    /// trace materialized in memory.
    SmallHourlyMp,
    /// A live controller served over loopback to an open-loop generator.
    ServerLoopback,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "replay-paper-stream" => Some(Workload::PaperStream),
            "replay-small-hourly-mp" => Some(Workload::SmallHourlyMp),
            "server-loopback" => Some(Workload::ServerLoopback),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperStream => "replay-paper-stream",
            Workload::SmallHourlyMp => "replay-small-hourly-mp",
            Workload::ServerLoopback => "server-loopback",
        }
    }

    /// World size.
    pub fn world_config(self) -> WorldConfig {
        match self {
            Workload::PaperStream => WorldConfig::paper_scale(),
            Workload::SmallHourlyMp | Workload::ServerLoopback => WorldConfig::small(),
        }
    }

    /// Call trace shape.
    pub fn trace_config(self) -> TraceConfig {
        match self {
            Workload::PaperStream => TraceConfig::paper_scale(),
            Workload::SmallHourlyMp | Workload::ServerLoopback => TraceConfig::small(),
        }
    }

    /// Control-window length.
    pub fn window(self) -> WindowLen {
        match self {
            Workload::PaperStream => WindowLen::DAY,
            Workload::SmallHourlyMp | Workload::ServerLoopback => WindowLen::hours(1),
        }
    }

    /// Selection strategy. The server workload's replay equivalent is the
    /// budgeted singlepath strategy its controller runs.
    pub fn strategy(self) -> StrategyKind {
        match self {
            Workload::PaperStream => StrategyKind::Via,
            Workload::SmallHourlyMp => StrategyKind::Multipath {
                k: 2,
                mode: MultipathMode::Duplicate,
                budget: 0.3,
            },
            Workload::ServerLoopback => StrategyKind::ViaBudgeted {
                budget: SERVER_BUDGET,
            },
        }
    }

    /// ε general exploration.
    pub fn epsilon(self) -> f64 {
        match self {
            Workload::ServerLoopback => SERVER_EPSILON,
            _ => ReplayConfig::default().epsilon,
        }
    }

    /// Replay configuration at `workers` (0 = usable parallelism).
    pub fn replay_config(self, seed: u64, workers: usize) -> ReplayConfig {
        ReplayConfig {
            window: self.window(),
            epsilon: self.epsilon(),
            workers,
            collect_calls: false,
            seed,
            ..ReplayConfig::default()
        }
    }
}

/// ε of the served controller.
pub const SERVER_EPSILON: f64 = 0.05;
/// Budget-gate fraction of the served controller.
pub const SERVER_BUDGET: f64 = 0.3;

/// The inputs one workload runs on.
pub struct Inputs {
    /// The simulated world (segments warmed).
    pub world: World,
    /// The materialized trace, for workloads that keep one in memory.
    pub trace: Option<Trace>,
    /// The `.vbt` file, for the workload that streams from disk.
    pub vbt: Option<PathBuf>,
    /// Records in the trace.
    pub records: u64,
}

/// Seed of every workload's world. The world (topology, relay sites, the
/// network performance model) is part of the workload's definition, like a
/// fixed measurement dataset; the run's seed drives the calls and every
/// selection and realization stream. Varying the world with the seed would
/// make each seed a different network, and the spread across seeds would
/// measure topologies rather than the program.
pub const WORLD_SEED: u64 = 7;

/// Builds `workload`'s inputs: the fixed world, and calls generated from
/// `seed`. The paper-scale trace is generated straight into
/// `dir/<workload>.vbt` without ever being materialized; the others are held
/// in memory.
pub fn build_inputs(workload: Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let world = World::generate(&workload.world_config(), WORLD_SEED);
    let generator = TraceGenerator::new(&world, workload.trace_config(), seed);
    let mut seen = HashSet::new();
    let mut pairs = Vec::new();
    let (trace, vbt, records) = if workload == Workload::PaperStream {
        let path = dir.join(format!("{}.vbt", workload.name()));
        let mut writer =
            BinWriter::create(&path, seed, generator.effective_days(), workload.window())
                .map_err(|e| format!("create {}: {e}", path.display()))?;
        for r in generator.stream() {
            if seen.insert((r.src_as, r.dst_as)) {
                pairs.push((r.src_as, r.dst_as));
            }
            writer.push(&r).map_err(|e| format!("write trace: {e}"))?;
        }
        let written = writer.finish().map_err(|e| format!("finish trace: {e}"))?;
        (None, Some(path), written)
    } else {
        let trace = generator.generate();
        for r in &trace.records {
            if seen.insert((r.src_as, r.dst_as)) {
                pairs.push((r.src_as, r.dst_as));
            }
        }
        let n = trace.records.len() as u64;
        (Some(trace), None, n)
    };
    drop(generator);
    warm(&world, &pairs);
    Ok(Inputs {
        world,
        trace,
        vbt,
        records,
    })
}

/// Materializes every world segment the trace's pairs can touch through any
/// candidate option, split across the usable cores — the first-touch cost a
/// long-running deployment has already paid.
fn warm(world: &World, pairs: &[(AsId, AsId)]) {
    let mut seen = HashSet::new();
    let mut segs = Vec::new();
    for &(src, dst) in pairs {
        for opt in world.candidate_options(src, dst) {
            for &seg in world.perf().segments_of(src, dst, opt).segments() {
                if seen.insert(seg) {
                    segs.push(seg);
                }
            }
        }
    }
    let workers = crate::host::usable_parallelism().max(1);
    let chunk = segs.len().div_ceil(workers).max(1);
    std::thread::scope(|scope| {
        for part in segs.chunks(chunk) {
            scope.spawn(move || world.perf().warm(part.iter().copied()));
        }
    });
}

/// The live controller's spatial keys, geographic prior, backbone legs and
/// the candidate set offered on every call: direct, a bounce through each of
/// the first 8 relays, and one transit pair — 10 candidates in the small
/// world.
pub struct ControllerParts {
    /// Prior the controller's predictor falls back to.
    pub prior: GeoPrior,
    /// Inter-relay backbone metrics.
    pub backbone: BackboneFn,
    /// Candidate options offered with every select.
    pub candidates: Vec<RelayOption>,
}

/// Builds the controller inputs from `world`, the way `via server` does.
pub fn controller_parts(world: &World) -> ControllerParts {
    let key_positions = SpatialGranularity::As.key_positions(world);
    let prior = GeoPrior::new(key_positions, world.relays.iter().map(|r| r.pos).collect());
    let n_relays = world.relays.len();
    let mut legs = Vec::with_capacity(n_relays * n_relays);
    for i in 0..n_relays {
        for j in 0..n_relays {
            legs.push(
                world
                    .perf()
                    .backbone_metrics(RelayId(i as u32), RelayId(j as u32)),
            );
        }
    }
    let backbone: BackboneFn =
        Arc::new(move |a: RelayId, b: RelayId| legs[a.0 as usize * n_relays + b.0 as usize]);
    let mut candidates = vec![RelayOption::Direct];
    candidates.extend((0..n_relays.min(8)).map(|r| RelayOption::Bounce(RelayId(r as u32))));
    if n_relays >= 2 {
        candidates.push(RelayOption::Transit(RelayId(0), RelayId(1)));
    }
    ControllerParts {
        prior,
        backbone,
        candidates,
    }
}

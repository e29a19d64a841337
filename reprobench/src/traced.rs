//! The traced run: the concrete engines driven by an outside loop that
//! mirrors the engines' own run loop, with the calls into each layer's
//! public functions counted from outside.
//!
//! The loop is `begin_measurement`, then per iteration `step`, stop once
//! the source is done and the engine drained, `try_skip`. It reproduces
//! `Engine::run`'s state digest, payload bytes and cycle count exactly;
//! only the report's stop reason differs, because the run loop sets it.

use packetnoc::PacketNocSim;
use patronoc::{NocSim, Topology};
use scenario::{EngineSpec, Scenario};
use simkit::snap::SnapError;
use simkit::{Cycle, SimReport, SlabStats};
use traffic::TrafficSource;

use crate::counting::{Counting, TrafficStats};
use crate::run::{build_source, stop_condition};
use crate::workloads::Point;

/// The concrete-engine calls the traced loop makes.
trait Stepper {
    /// Current simulation time.
    fn now(&self) -> Cycle;
    /// Arms the throughput meter at cycle `start`.
    fn begin_measurement(&mut self, start: Cycle);
    /// Advances one cycle.
    fn step(&mut self, source: &mut Counting<'_>);
    /// Jumps an idle gap; the new `now` when it skipped.
    fn try_skip(&mut self, source: &Counting<'_>, deadline: Cycle) -> Option<Cycle>;
    /// Whether the NoC is idle.
    fn is_drained(&self) -> bool;
    /// Cumulative scheduler work items.
    fn work_items(&self) -> u64;
    /// In-flight arena telemetry.
    fn allocation_stats(&self) -> SlabStats;
    /// The metrics at the current cycle.
    fn snapshot_report(&self) -> SimReport;
    /// The checkpoint byte string.
    fn snapshot(&self) -> Vec<u8>;
    /// Restores a checkpoint.
    ///
    /// # Errors
    ///
    /// The engine's [`SnapError`].
    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError>;
    /// Digest of the comparable state.
    fn state_digest(&self) -> u64;
    /// The busiest mesh link's data occupancy, where the engine reports it.
    fn peak_link_occupancy(&self) -> Option<f64>;
}

macro_rules! stepper {
    ($engine:ty, |$sim:ident| $occupancy:expr) => {
        impl Stepper for $engine {
            fn now(&self) -> Cycle {
                <$engine>::now(self)
            }
            fn begin_measurement(&mut self, start: Cycle) {
                <$engine>::begin_measurement(self, start);
            }
            fn step(&mut self, source: &mut Counting<'_>) {
                <$engine>::step(self, source);
            }
            fn try_skip(&mut self, source: &Counting<'_>, deadline: Cycle) -> Option<Cycle> {
                <$engine>::try_skip(self, source, deadline)
            }
            fn is_drained(&self) -> bool {
                <$engine>::is_drained(self)
            }
            fn work_items(&self) -> u64 {
                <$engine>::work_items(self)
            }
            fn allocation_stats(&self) -> SlabStats {
                <$engine>::allocation_stats(self)
            }
            fn snapshot_report(&self) -> SimReport {
                <$engine>::snapshot_report(self)
            }
            fn snapshot(&self) -> Vec<u8> {
                <$engine>::snapshot(self)
            }
            fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
                <$engine>::restore(self, bytes)
            }
            fn state_digest(&self) -> u64 {
                <$engine>::state_digest(self)
            }
            fn peak_link_occupancy(&self) -> Option<f64> {
                let $sim = self;
                $occupancy
            }
        }
    };
}

stepper!(NocSim, |sim| Some(sim.peak_link_occupancy()));
stepper!(PacketNocSim, |_sim| None);

/// What the traced loop counted in one engine layer, summed over points.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// `step` calls.
    pub steps: u64,
    /// Work items the steps did.
    pub work_items: u64,
    /// `try_skip` calls.
    pub skip_attempts: u64,
    /// `try_skip` calls that skipped.
    pub skips: u64,
    /// Cycles crossed by skipping.
    pub cycles_skipped: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Slab allocations.
    pub slab_allocs: u64,
    /// Largest per-point slab high-water mark.
    pub slab_high_water: u64,
    /// Largest per-point peak link occupancy.
    pub peak_link_occupancy: f64,
}

/// Everything one traced pass counted.
#[derive(Debug, Default)]
pub struct Trace {
    /// The PATRONoC engine layer.
    pub patronoc: EngineStats,
    /// The packet-baseline engine layer.
    pub packetnoc: EngineStats,
    /// Calls into the traffic sources.
    pub traffic: TrafficStats,
    /// End-of-point checkpoints taken.
    pub snaps: u64,
    /// Checkpoint bytes, summed.
    pub snap_bytes: u64,
    /// Per point, in grid order: the traced report, or why the point
    /// failed (a build error or a refused snapshot restore).
    pub reports: Vec<Result<SimReport, String>>,
}

impl Trace {
    /// Points that failed.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.reports.iter().filter(|r| r.is_err()).count()
    }
}

/// Runs every point traced; each finished engine's snapshot must restore
/// into a fresh engine with the same state digest.
#[must_use]
pub fn traced_pass(points: &[Point]) -> Trace {
    let mut trace = Trace::default();
    for p in points {
        let report = trace_point(p, &mut trace);
        trace.reports.push(report);
    }
    trace
}

fn trace_point(point: &Point, trace: &mut Trace) -> Result<SimReport, String> {
    let scenario = &point.scenario;
    let (report, traffic, snap_bytes) = match scenario.engine {
        EngineSpec::Patronoc => {
            let build = || scenario.build_noc_sim().map_err(|e| e.to_string());
            trace_engine(point, build, &mut trace.patronoc)
        }
        EngineSpec::Packet(profile) => {
            // `Scenario::build_engine`'s packet branch, minus the knobs
            // this benchmark leaves at their defaults.
            let build = || {
                let Topology::Mesh { cols, rows } = scenario.topology else {
                    return Err("the packet baseline needs a mesh".to_string());
                };
                let mut cfg = profile.base_config();
                cfg.cols = cols;
                cfg.rows = rows;
                Ok(PacketNocSim::new(cfg))
            };
            trace_engine(point, build, &mut trace.packetnoc)
        }
    }?;
    trace.traffic.add(&traffic);
    trace.snaps += 1;
    trace.snap_bytes += snap_bytes;
    Ok(report)
}

/// Runs one point traced; returns its report, the traffic calls and the
/// size of its end-of-point snapshot.
fn trace_engine<E: Stepper>(
    point: &Point,
    build: impl Fn() -> Result<E, String>,
    layer: &mut EngineStats,
) -> Result<(SimReport, TrafficStats, u64), String> {
    let mut engine = build()?;
    let (mut source, _) = build_source(point);
    let mut source = Counting::new(&mut *source);
    let report = drive(&mut engine, &mut source, &point.scenario, layer);

    let bytes = engine.snapshot();
    let mut fresh = build()?;
    fresh
        .restore(&bytes)
        .map_err(|e| format!("snapshot restore refused: {e}"))?;
    if fresh.state_digest() != report.state_digest {
        return Err("restored snapshot has another state digest".into());
    }
    Ok((report, source.stats(), bytes.len() as u64))
}

fn drive<E: Stepper>(
    engine: &mut E,
    source: &mut Counting<'_>,
    scenario: &Scenario,
    stats: &mut EngineStats,
) -> SimReport {
    let (max_cycles, _) = stop_condition(scenario);
    let first = engine.now();
    let deadline = first + max_cycles;
    let work_before = engine.work_items();
    engine.begin_measurement(first + scenario.warmup);
    while engine.now() < deadline {
        engine.step(source);
        stats.steps += 1;
        if source.is_done() && engine.is_drained() {
            break;
        }
        let before = engine.now();
        stats.skip_attempts += 1;
        if let Some(now) = engine.try_skip(source, deadline) {
            stats.skips += 1;
            stats.cycles_skipped += now - before;
        }
    }
    stats.work_items += engine.work_items() - work_before;
    stats.cycles += engine.now() - first;
    let slab = engine.allocation_stats();
    stats.slab_allocs += slab.allocs;
    stats.slab_high_water = stats.slab_high_water.max(slab.high_water);
    if let Some(occupancy) = engine.peak_link_occupancy() {
        stats.peak_link_occupancy = stats.peak_link_occupancy.max(occupancy);
    }
    engine.snapshot_report()
}

//! The untraced run: every point built and simulated the way the figure
//! binaries do it — `Scenario::build_engine`, then `build_source` or
//! `build_dnn_trace`, then `Engine::run` — and its outputs checked.
//!
//! This crate reads no clock: the repository's lint admits wall-clock
//! reads only in the engines' run-loop telemetry. Host time inside
//! `Engine::run` therefore comes from [`SimReport::cycles_per_sec`], and
//! `run.py` times whole processes.

use std::collections::BTreeMap;

use scenario::{Engine, EngineSpec, Scenario};
use simkit::{Cycle, SimReport, StopReason};
use traffic::TrafficSource;

use crate::workloads::{Kind, Point, Workload};

/// One point's untraced run.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The engine's report.
    pub report: SimReport,
    /// The figure bar the report gives ([`Point::bar`]).
    pub bar: f64,
    /// Host seconds inside `Engine::run`, from the engine's own telemetry.
    pub run_s: f64,
    /// Failed output checks, one message each.
    pub failures: Vec<String>,
}

/// Bytes and transfers a DNN trace offers; `None` for open-loop sources.
pub type Offered = Option<(u64, usize)>;

/// The stop condition `Scenario::run` applies: the cycle budget, and
/// whether the point is windowed (its budget is `warmup + window`).
#[must_use]
pub fn stop_condition(scenario: &Scenario) -> (Cycle, bool) {
    match scenario.budget {
        Some(budget) => (budget, false),
        None => (scenario.warmup + scenario.window, true),
    }
}

/// Builds the point's source as the figure binary does: the concrete
/// trace for Fig. 8 (whose size the checks need), `build_source`
/// otherwise.
///
/// # Panics
///
/// Panics when a DNN point's scenario has no DNN traffic.
#[must_use]
pub fn build_source(point: &Point) -> (Box<dyn TrafficSource>, Offered) {
    match point.kind {
        Kind::Dnn { .. } => {
            let trace = point
                .scenario
                .build_dnn_trace()
                .expect("a Fig. 8 point carries a DNN trace");
            let offered = (trace.total_bytes(), trace.len());
            (Box::new(trace), Some(offered))
        }
        Kind::Saturated { .. } | Kind::Uniform { .. } => (point.scenario.build_source(), None),
    }
}

/// What [`setup`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// `Scenario::build_engine` only.
    Engines,
    /// `build_source` / `build_dnn_trace` only.
    Sources,
    /// Both, as a run's set-up does.
    Both,
}

/// Builds `part` of every point `reps` times without simulating, so that
/// an outside timer can measure set-up.
///
/// # Errors
///
/// The first point whose engine fails to build.
pub fn setup(points: &[Point], part: Part, reps: usize) -> Result<(), String> {
    for _ in 0..reps {
        for p in points {
            if part != Part::Sources {
                drop(
                    p.scenario
                        .build_engine()
                        .map_err(|e| format!("{}: {e}", p.label))?,
                );
            }
            if part != Part::Engines {
                drop(build_source(p));
            }
        }
    }
    Ok(())
}

/// Runs one point untraced and checks its outputs against the figure's
/// invariants, against a snapshot restored into a fresh engine, and — at
/// the default seed — against the expected-results record.
///
/// # Errors
///
/// The scenario's build error; the point then counts as failed.
pub fn run_point(point: &Point, expected: Option<&Expected>) -> Result<PointRun, String> {
    let scenario = &point.scenario;
    let mut engine = scenario.build_engine().map_err(|e| e.to_string())?;
    let (mut source, offered) = build_source(point);
    let (max_cycles, windowed) = stop_condition(scenario);
    let mut report = engine.run(&mut *source, max_cycles, scenario.warmup);
    if windowed && report.stop_reason == StopReason::Budget {
        report.stop_reason = StopReason::WindowComplete;
    }

    let bar = point.bar(&report);
    let mut failures = check_outputs(point, &report, bar, offered, expected);
    let fresh = scenario.build_engine().map_err(|e| e.to_string())?;
    failures.extend(check_restore(&*engine, fresh));
    Ok(PointRun {
        // A fresh engine's run-loop telemetry covers exactly this run.
        run_s: report.cycles as f64 / report.cycles_per_sec,
        report,
        bar,
        failures,
    })
}

/// The figure-level invariants of one point's report, plus the expected
/// record when one is given.
#[must_use]
fn check_outputs(
    point: &Point,
    report: &SimReport,
    bar: f64,
    offered: Offered,
    expected: Option<&Expected>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    match (point.kind, offered) {
        (Kind::Dnn { .. }, Some((bytes, transfers))) => {
            check(
                report.stop_reason == StopReason::Drained,
                format!("trace stopped {:?}, not drained", report.stop_reason),
            );
            check(
                report.payload_bytes == bytes,
                format!("delivered {} of {bytes} trace bytes", report.payload_bytes),
            );
            check(
                report.transfers_completed == transfers as u64,
                format!(
                    "completed {} of {transfers} transfers",
                    report.transfers_completed
                ),
            );
        }
        _ => check(
            report.stop_reason == StopReason::WindowComplete,
            format!("window stopped {:?}", report.stop_reason),
        ),
    }
    if let Kind::Saturated { .. } = point.kind {
        check(bar <= 100.0, format!("utilization {bar} % above 100 %"));
    }
    if let Some(want) = expected {
        check(
            report.throughput_gib_s.to_bits() == want.gib_s.to_bits(),
            format!(
                "throughput {:?} GiB/s, recorded {:?}",
                report.throughput_gib_s, want.gib_s
            ),
        );
        check(
            report.state_digest == want.state_digest,
            format!(
                "state digest {:#x}, recorded {:#x}",
                report.state_digest, want.state_digest
            ),
        );
    }
    failures
}

/// Restores `engine`'s snapshot into `fresh`, which must then report the
/// same state digest.
#[must_use]
fn check_restore(engine: &dyn Engine, mut fresh: Box<dyn Engine>) -> Vec<String> {
    match fresh.restore(&engine.snapshot()) {
        Err(e) => vec![format!("snapshot restore refused: {e}")],
        Ok(()) if fresh.state_digest() != engine.state_digest() => {
            vec!["restored snapshot has another state digest".into()]
        }
        Ok(()) => Vec::new(),
    }
}

/// One pass over every point of a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per point, in grid order: its run, or why it could not run.
    pub runs: Vec<Result<PointRun, String>>,
}

impl Pass {
    /// Runs every point once, checking each against `expected` (keyed by
    /// point label) when given.
    #[must_use]
    pub fn run(points: &[Point], expected: Option<&BTreeMap<String, Expected>>) -> Self {
        let runs = points
            .iter()
            .map(|p| match expected.map(|record| record.get(&p.label)) {
                Some(None) => Err("no expected record for this point".into()),
                Some(want) => run_point(p, want),
                None => run_point(p, None),
            })
            .collect();
        Self { runs }
    }

    /// Points that failed to run or failed a check.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.as_ref().map_or(true, |r| !r.failures.is_empty()))
            .count()
    }

    /// Every failure, as `label: message` lines.
    #[must_use]
    pub fn failure_lines(&self, points: &[Point]) -> Vec<String> {
        let mut lines = Vec::new();
        for (p, r) in points.iter().zip(&self.runs) {
            match r {
                Err(e) => lines.push(format!("{}: {e}", p.label)),
                Ok(run) => lines.extend(run.failures.iter().map(|f| format!("{}: {f}", p.label))),
            }
        }
        lines
    }
}

/// The layer a point's engine belongs to.
#[must_use]
pub fn engine_layer(scenario: &Scenario) -> &'static str {
    match scenario.engine {
        EngineSpec::Patronoc => "patronoc",
        EngineSpec::Packet(_) => "packetnoc",
    }
}

/// A point's recorded default-seed results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    /// Throughput in GiB/s, compared bit for bit.
    pub gib_s: f64,
    /// The report's state digest.
    pub state_digest: u64,
}

/// The expected-results record, one tab-separated line per point:
/// workload, point label, GiB/s (shortest round-trip form) and state
/// digest (hex). Regenerate with `reprobench record`.
const RECORD: &str = include_str!("../expected_default_seed.tsv");

/// The recorded default-seed results of `workload`, keyed by point label.
///
/// # Panics
///
/// Panics on a malformed record line (the record is part of the source).
#[must_use]
pub fn expected_record(workload: Workload) -> BTreeMap<String, Expected> {
    RECORD
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|line| {
            let fields: Vec<&str> = line.split('\t').collect();
            let [w, label, gib_s, digest] = fields[..] else {
                panic!("record line needs four fields: {line:?}");
            };
            (w == workload.name()).then(|| {
                let gib_s = gib_s.parse().expect("record GiB/s is a float");
                let digest = digest.trim_start_matches("0x");
                let state_digest = u64::from_str_radix(digest, 16).expect("record digest is hex");
                (
                    label.to_string(),
                    Expected {
                        gib_s,
                        state_digest,
                    },
                )
            })
        })
        .collect()
}

/// The record line of one point.
#[must_use]
pub fn record_line(workload: Workload, point: &Point, report: &SimReport) -> String {
    format!(
        "{}\t{}\t{:?}\t{:#018x}",
        workload.name(),
        point.label,
        report.throughput_gib_s,
        report.state_digest
    )
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

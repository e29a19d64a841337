//! The traced run's instruments must not change what they measure.

use bench::{dnn_scenario, noxim_uniform_scenario, patronoc_uniform_scenario};
use reprobench::counting::Counting;
use reprobench::run::{stop_condition, Pass};
use reprobench::traced::traced_pass;
use reprobench::workloads::{Curve, Kind, Point};
use scenario::{PacketProfile, Scenario};
use simkit::SimReport;
use traffic::DnnWorkload;

const WINDOW: u64 = 20_000;
const WARMUP: u64 = 2_000;
const IDLE: f64 = 0.000_1;
const SATURATED: f64 = 1.0;

fn patronoc(load: f64) -> Scenario {
    patronoc_uniform_scenario(32, load, 1_000, WINDOW, WARMUP, 7)
}

fn packet(load: f64) -> Scenario {
    noxim_uniform_scenario(PacketProfile::Compact, load, 100, WINDOW, WARMUP, 7)
}

fn run(scenario: &Scenario, wrapped: bool) -> (SimReport, u64) {
    let mut engine = scenario.build_engine().unwrap();
    let mut source = scenario.build_source();
    let (max_cycles, _) = stop_condition(scenario);
    if wrapped {
        let mut counting = Counting::new(&mut *source);
        let report = engine.run(&mut counting, max_cycles, scenario.warmup);
        (report, counting.stats().next_arrival_calls)
    } else {
        (engine.run(&mut *source, max_cycles, scenario.warmup), 0)
    }
}

#[test]
fn counting_wrapper_changes_neither_results_nor_skipping() {
    for (scenario, idle) in [
        (patronoc(IDLE), true),
        (patronoc(SATURATED), false),
        (packet(IDLE), true),
        (packet(SATURATED), false),
    ] {
        let (plain, _) = run(&scenario, false);
        let (counted, next_arrival_calls) = run(&scenario, true);
        let what = format!("{:?} at load {:?}", scenario.engine, scenario.traffic);
        assert_eq!(counted, plain, "{what}");
        assert_eq!(counted.state_digest, plain.state_digest, "{what}");
        assert_eq!(counted.cycles_skipped, plain.cycles_skipped, "{what}");
        assert!(next_arrival_calls > 0, "{what}: next_arrival forwarded");
        if idle {
            // Skipping is what the wrapper must not disable.
            assert!(plain.cycles_skipped > WINDOW / 2, "{what}");
        }
    }
}

fn point(label: &str, kind: Kind, scenario: Scenario) -> Point {
    Point {
        label: label.into(),
        kind,
        scenario,
    }
}

#[test]
fn traced_pass_reproduces_the_untraced_runs() {
    let uniform = |curve, load| Kind::Uniform { curve, load };
    let points = vec![
        point(
            "patronoc-idle",
            uniform(Curve::Patronoc { cap: 1_000 }, IDLE),
            patronoc(IDLE),
        ),
        point(
            "patronoc-saturated",
            uniform(Curve::Patronoc { cap: 1_000 }, SATURATED),
            patronoc(SATURATED),
        ),
        point(
            "packet-saturated",
            uniform(
                Curve::Noxim {
                    index: 0,
                    profile: PacketProfile::Compact,
                },
                SATURATED,
            ),
            packet(SATURATED),
        ),
        point(
            "wide-pipe",
            Kind::Dnn {
                dw: 512,
                workload: DnnWorkload::PipelinedConv,
            },
            dnn_scenario(512, DnnWorkload::PipelinedConv, 1),
        ),
    ];
    let untraced = Pass::run(&points, None);
    assert_eq!(
        untraced.failed(),
        0,
        "{:?}",
        untraced.failure_lines(&points)
    );
    let trace = traced_pass(&points);
    assert_eq!(trace.failed(), 0, "{:?}", trace.reports);
    for ((p, traced), untraced) in points.iter().zip(&trace.reports).zip(&untraced.runs) {
        let (traced, untraced) = (traced.as_ref().unwrap(), &untraced.as_ref().unwrap().report);
        assert_eq!(traced.state_digest, untraced.state_digest, "{}", p.label);
        assert_eq!(traced.payload_bytes, untraced.payload_bytes, "{}", p.label);
        assert_eq!(traced.cycles, untraced.cycles, "{}", p.label);
    }
    assert!(trace.patronoc.steps > 0 && trace.packetnoc.steps > 0);
    assert!(trace.patronoc.cycles_skipped > 0, "the idle point skips");
    assert!(trace.traffic.on_complete_calls > 0 && trace.traffic.poll_hits > 0);
    assert_eq!(trace.snaps, points.len() as u64);
}

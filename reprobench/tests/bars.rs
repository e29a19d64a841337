//! At the default seed the benchmark's Fig. 8 and Fig. 6 bars are the
//! figure binaries' bars, and they match the expected-results record.

use bench::{dnn_point_for, utilization_point};
use reprobench::run::{expected_record, Pass};
use reprobench::workloads::{Kind, Workload, DEFAULT_SEED};

fn bars_match_the_binaries(workload: Workload) {
    let points = workload.points(DEFAULT_SEED);
    let record = expected_record(workload);
    assert_eq!(record.len(), points.len(), "one record line per point");
    let pass = Pass::run(&points, Some(&record));
    assert_eq!(pass.failed(), 0, "{:?}", pass.failure_lines(&points));
    for (p, run) in points.iter().zip(&pass.runs) {
        let bar = run.as_ref().unwrap().bar;
        let binary = match p.kind {
            Kind::Dnn { workload, .. } => dnn_point_for(&p.scenario, workload).gib_s,
            Kind::Saturated { cap, .. } => utilization_point(&p.scenario, cap).utilization_pct,
            Kind::Uniform { .. } => unreachable!("not a Fig. 8 or Fig. 6 point"),
        };
        assert_eq!(bar.to_bits(), binary.to_bits(), "{}", p.label);
    }
}

#[test]
fn fig8_bars_are_the_binarys() {
    bars_match_the_binaries(Workload::Fig8Dnn);
}

#[test]
fn fig6_bars_are_the_binarys() {
    bars_match_the_binaries(Workload::Fig6Saturated);
}

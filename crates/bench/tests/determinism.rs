//! Parallel-sweep determinism: the contract that `--jobs N` is purely a
//! wall-clock optimization. Every grid point is an independent simulation
//! whose seed derives only from its grid coordinates, and the pool returns
//! results in grid order, so a sweep must produce *bit-identical* results
//! for every worker count.

use bench::sweep;
use bench::{patronoc_uniform_curve_jobs, synthetic_point, synthetic_scenario};
use scenario::{PacketProfile, Scenario, TrafficSpec};
use traffic::{DnnWorkload, SyntheticPattern};

const QUICK_WINDOW: u64 = 8_000;
const QUICK_WARMUP: u64 = 2_000;

#[test]
fn fig4_sweep_bit_identical_across_jobs() {
    // A reduced-budget Fig. 4 curve: same loads, same burst cap, same
    // seeds — only the worker count differs.
    let loads = [0.001, 0.01, 0.1, 0.5, 1.0];
    let serial = patronoc_uniform_curve_jobs(32, 1_000, &loads, QUICK_WINDOW, QUICK_WARMUP, 1);
    let parallel = patronoc_uniform_curve_jobs(32, 1_000, &loads, QUICK_WINDOW, QUICK_WARMUP, 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.load.to_bits(), p.load.to_bits());
        assert_eq!(
            s.gib_s.to_bits(),
            p.gib_s.to_bits(),
            "load {}: serial {} vs parallel {}",
            s.load,
            s.gib_s,
            p.gib_s
        );
    }
}

#[test]
fn fig6_grid_bit_identical_across_jobs() {
    // A reduced-budget slice of the Fig. 6 grid through the generic
    // point-runner the binaries use.
    let cells = [
        (SyntheticPattern::AllGlobal, 100u64),
        (SyntheticPattern::MaxTwoHop, 1_000),
        (SyntheticPattern::MaxSingleHop, 10_000),
    ];
    let run = |jobs: usize| {
        sweep::run_points(jobs, &cells, |&(pattern, cap)| {
            synthetic_point(32, pattern, cap, QUICK_WINDOW, QUICK_WARMUP)
        })
    };
    let serial = run(1);
    let parallel = run(3);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.burst_cap, p.burst_cap);
        assert_eq!(s.gib_s.to_bits(), p.gib_s.to_bits());
        assert_eq!(s.utilization_pct.to_bits(), p.utilization_pct.to_bits());
    }
}

#[test]
fn scenario_grid_bit_identical_across_jobs() {
    // The redesign's contract restated at the builder level: a grid of
    // Scenario values — mixed engines, traffic classes and seeds — must
    // produce bit-identical reports for every worker count.
    let grid: Vec<Scenario> = vec![
        bench::patronoc_uniform_scenario(32, 1.0, 1_000, QUICK_WINDOW, QUICK_WARMUP, 41),
        bench::noxim_uniform_scenario(
            scenario::PacketProfile::Compact,
            1.0,
            100,
            QUICK_WINDOW,
            QUICK_WARMUP,
            42,
        ),
        synthetic_scenario(
            32,
            SyntheticPattern::MaxTwoHop,
            1_000,
            QUICK_WINDOW,
            QUICK_WARMUP,
        ),
        bench::dnn_scenario(512, traffic::DnnWorkload::PipelinedConv, 1),
    ];
    let run = |jobs: usize| sweep::run_points(jobs, &grid, |sc| sc.run().expect("valid scenario"));
    let serial = run(1);
    let parallel = run(4);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.cycles, p.cycles);
        assert_eq!(s.payload_bytes, p.payload_bytes);
        assert_eq!(s.stop_reason, p.stop_reason);
        assert_eq!(s.throughput_gib_s.to_bits(), p.throughput_gib_s.to_bits());
        assert_eq!(s.mean_latency.to_bits(), p.mean_latency.to_bits());
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Beyond serial-vs-parallel: two parallel runs with the same options
    // must agree with each other (no hidden global state in the engines).
    let loads = [0.01, 1.0];
    let a = patronoc_uniform_curve_jobs(32, 100, &loads, QUICK_WINDOW, QUICK_WARMUP, 4);
    let b = patronoc_uniform_curve_jobs(32, 100, &loads, QUICK_WINDOW, QUICK_WARMUP, 4);
    assert_eq!(a, b);
}

/// Idle / mid / saturated operating points.
const LOADS: [f64; 3] = [0.001, 0.3, 1.0];

/// Runs `grid` serially and on an oversubscribed pool (three workers on
/// any core count, so points land on workers unevenly), asserting every
/// report — including the canonical end-state digest — bit-identical.
fn assert_jobs_invariant(grid: &[Scenario], what: &str) {
    let run = |jobs: usize| sweep::run_points(jobs, grid, |sc| sc.run().expect("valid scenario"));
    let serial = run(1);
    let parallel = run(3);
    assert_eq!(serial.len(), grid.len());
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "{what} point {i}: report diverged");
        assert_eq!(
            s.state_digest, p.state_digest,
            "{what} point {i}: state digest diverged"
        );
    }
}

fn engines() -> [(&'static str, Scenario); 2] {
    [
        ("patronoc", Scenario::patronoc()),
        ("packet", Scenario::packet(PacketProfile::Compact)),
    ]
}

#[test]
fn uniform_loads_are_jobs_invariant() {
    for (name, base) in engines() {
        let grid: Vec<Scenario> = LOADS
            .iter()
            .enumerate()
            .map(|(i, &load)| {
                base.clone()
                    .traffic(TrafficSpec::uniform(load, 1_000))
                    .warmup(QUICK_WARMUP)
                    .window(QUICK_WINDOW)
                    .seed(bench::defaults::fig4_patronoc_seed(1_000, i))
            })
            .collect();
        assert_jobs_invariant(&grid, &format!("{name} uniform"));
    }
}

#[test]
fn synthetic_patterns_are_jobs_invariant() {
    // All-global at the three operating points, plus one address-mapped
    // pattern (transpose) at saturation.
    for (name, base) in engines() {
        let mut grid: Vec<Scenario> = LOADS
            .iter()
            .map(|&load| {
                base.clone()
                    .traffic(TrafficSpec::Synthetic {
                        pattern: SyntheticPattern::AllGlobal,
                        load,
                        max_transfer: 10_000,
                        read_fraction: 0.5,
                    })
                    .warmup(QUICK_WARMUP)
                    .window(QUICK_WINDOW)
                    .seed(bench::defaults::fig6_seed(10_000))
            })
            .collect();
        grid.push(
            base.clone()
                .traffic(TrafficSpec::synthetic(SyntheticPattern::Transpose, 10_000))
                .warmup(QUICK_WARMUP)
                .window(QUICK_WINDOW)
                .seed(bench::defaults::fig6_seed(10_000)),
        );
        assert_jobs_invariant(&grid, &format!("{name} synthetic"));
    }
}

#[test]
fn dnn_traces_are_jobs_invariant() {
    // Drained-trace runs: the stop condition is the trace itself, so the
    // cycle count is part of the determinism contract.
    let grid = [
        Scenario::patronoc()
            .data_width(512)
            .traffic(TrafficSpec::dnn(DnnWorkload::PipelinedConv, 1))
            .budget(500_000_000)
            .seed(1),
        Scenario::packet(PacketProfile::HighPerformance)
            .traffic(TrafficSpec::dnn(DnnWorkload::PipelinedConv, 1))
            .budget(300_000)
            .seed(1),
    ];
    assert_jobs_invariant(&grid, "dnn");
}

#[test]
fn larger_meshes_are_jobs_invariant() {
    // 8×8, beyond the paper's meshes: more in-flight records per engine,
    // same contract.
    let grid: Vec<Scenario> = [0.001, 1.0]
        .iter()
        .map(|&load| {
            Scenario::patronoc()
                .topology(patronoc::Topology::Mesh { cols: 8, rows: 8 })
                .traffic(TrafficSpec::uniform_copies(load, 4_096))
                .warmup(QUICK_WARMUP)
                .window(QUICK_WINDOW)
                .seed(21)
        })
        .collect();
    assert_jobs_invariant(&grid, "patronoc 8x8");
}

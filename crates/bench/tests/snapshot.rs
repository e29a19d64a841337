//! Checkpoint/restore pinning matrix: `Engine::snapshot` → `restore` →
//! run must be **bit-identical** to running straight through, for both
//! engines, every traffic class, every operating point and every stepping
//! mode — a snapshot is a complete capture of deterministic simulation
//! state. Each case checkpoints engine *and* traffic source at the
//! warm-up boundary, restores both into fresh instances, continues, and
//! compares against the straight run.
//!
//! The second half pins the safety contract: snapshots are self-
//! validating (`simkit::snap`), so a corrupt, truncated, oversized or
//! wrong-engine byte string is rejected **before any engine state is
//! constructed**, leaving the running engine untouched byte for byte.

use bench::perf::{StepMode, PERF_SEED};
use bench::{noxim_uniform_scenario, patronoc_uniform_scenario};
use scenario::{Engine, PacketProfile, Scenario, TrafficSpec};
use simkit::snap::{DecodeLimits, Decoder, SnapError};
use simkit::{SimReport, StopReason};
use traffic::{DnnWorkload, SyntheticPattern, TrafficSource};

const WINDOW: u64 = 4_000;
const WARMUP: u64 = 1_500;

/// Idle / mid / saturated operating points.
const LOADS: [f64; 3] = [0.001, 0.3, 1.0];

fn assert_bit_identical(cold: &SimReport, forked: &SimReport, what: &str) {
    assert_eq!(cold, forked, "{what}: report diverged");
    assert_eq!(
        cold.state_digest, forked.state_digest,
        "{what}: state digest diverged"
    );
    assert_eq!(
        cold.throughput_gib_s.to_bits(),
        forked.throughput_gib_s.to_bits(),
        "{what}: throughput bits diverged"
    );
    assert_eq!(
        cold.mean_latency.to_bits(),
        forked.mean_latency.to_bits(),
        "{what}: mean latency bits diverged"
    );
}

/// Runs `max_cycles` (measuring after `warmup`) twice: straight through,
/// and forked — engine and source checkpointed at the warm-up boundary,
/// restored into fresh instances built by `build`, then continued. Returns
/// `[straight, forked]` with the engine each run finished on.
fn straight_and_forked<E: Engine + ?Sized>(
    build: impl Fn() -> (Box<E>, Box<dyn TrafficSource>),
    max_cycles: u64,
    warmup: u64,
) -> [(SimReport, Box<E>); 2] {
    let (mut straight, mut src) = build();
    let straight_report = straight.run(&mut *src, max_cycles, warmup);

    let (mut warm, mut warm_src) = build();
    let boundary = warm.run(&mut *warm_src, warmup, warmup);
    assert_eq!(
        boundary.stop_reason,
        StopReason::Budget,
        "the source drained before the warm-up boundary"
    );
    let engine_bytes = warm.snapshot();
    let source_bytes = warm_src.snapshot_state().expect("source checkpoints");
    let (mut forked, mut forked_src) = build();
    forked
        .restore(&engine_bytes)
        .expect("pristine snapshot restores");
    assert!(forked_src.restore_state(&source_bytes), "source restores");
    // The engine already sits at the warm-up boundary: measure from its
    // current cycle, where the straight run's meter armed.
    let forked_report = forked.run(&mut *forked_src, max_cycles - warmup, 0);
    [(straight_report, straight), (forked_report, forked)]
}

/// Runs `sc` straight and forked and asserts the two bit-identical.
fn check(sc: &Scenario, what: &str) {
    let max_cycles = sc.budget.unwrap_or(sc.warmup + sc.window);
    let [(straight, _), (forked, _)] = straight_and_forked(
        || {
            let engine = sc.build_engine().expect("valid scenario");
            (engine, sc.build_source())
        },
        max_cycles,
        sc.warmup,
    );
    assert_bit_identical(&straight, &forked, what);
}

/// Checks one windowed traffic class at the three operating points.
fn check_windowed(base: Scenario, what: &str, traffic: fn(f64) -> TrafficSpec, seed: u64) {
    for &load in &LOADS {
        let sc = base
            .clone()
            .traffic(traffic(load))
            .warmup(WARMUP)
            .window(WINDOW)
            .seed(seed);
        check(&sc, &format!("{what} load {load}"));
    }
}

fn uniform(load: f64) -> TrafficSpec {
    TrafficSpec::uniform(load, 1_000)
}

fn synthetic(load: f64) -> TrafficSpec {
    TrafficSpec::Synthetic {
        pattern: SyntheticPattern::AllGlobal,
        load,
        max_transfer: 10_000,
        read_fraction: 0.5,
    }
}

/// One run-to-drain DNN trace on `base`, within `budget` cycles.
fn dnn(base: Scenario, budget: u64) -> Scenario {
    base.traffic(TrafficSpec::dnn(DnnWorkload::PipelinedConv, 1))
        .warmup(WARMUP)
        .budget(budget)
        .seed(1)
}

#[test]
fn patronoc_uniform_traffic_restores_bit_identically() {
    check_windowed(Scenario::patronoc(), "patronoc uniform", uniform, 31);
}

#[test]
fn patronoc_synthetic_traffic_restores_bit_identically() {
    check_windowed(Scenario::patronoc(), "patronoc synthetic", synthetic, 37);
}

#[test]
fn patronoc_dnn_trace_restores_bit_identically() {
    check(
        &dnn(Scenario::patronoc().data_width(512), 50_000_000),
        "patronoc dnn",
    );
}

#[test]
fn packet_uniform_traffic_restores_bit_identically() {
    let base = Scenario::packet(PacketProfile::Compact);
    check_windowed(base, "packet uniform", uniform, 31);
}

#[test]
fn packet_synthetic_traffic_restores_bit_identically() {
    let base = Scenario::packet(PacketProfile::Compact);
    check_windowed(base, "packet synthetic", synthetic, 37);
}

#[test]
fn packet_dnn_trace_restores_bit_identically() {
    check(
        &dnn(Scenario::packet(PacketProfile::HighPerformance), 300_000),
        "packet dnn",
    );
}

/// The stepping modes the perf micro-sweep compares.
fn modes() -> [StepMode; 3] {
    [
        StepMode::active(true),
        StepMode::active(false),
        StepMode::full(),
    ]
}

// The stepping strategy (activity-driven vs full sweep, with or without
// event-horizon time skipping) is excluded from the snapshot shape, and
// the deterministic scheduler work counter and the slab telemetry are
// part of the checkpoint: a restored run must match the straight run in
// all of them, not just in `SimReport::eq`. Uses the perf micro-sweep's
// points.

#[test]
fn restored_patronoc_runs_match_straight_runs_in_every_stepping_mode() {
    let max_cycles = WARMUP + WINDOW;
    for &load in &[0.001, 1.0] {
        for mode in modes() {
            let sc = patronoc_uniform_scenario(32, load, 1_000, WINDOW, WARMUP, PERF_SEED);
            let [(straight, a), (forked, b)] = straight_and_forked(
                || {
                    let mut cfg = sc.noc_config().expect("valid perf scenario");
                    cfg.full_sweep = mode.full_sweep;
                    cfg.time_skip = mode.time_skip;
                    let sim = patronoc::NocSim::new(cfg).expect("valid configuration");
                    (Box::new(sim), sc.build_source())
                },
                max_cycles,
                WARMUP,
            );
            let what = format!("patronoc load {load} mode {mode:?}");
            assert_same_run(&straight, &forked, a.work_items(), b.work_items(), &what);
        }
    }
}

#[test]
fn restored_packet_runs_match_straight_runs_in_every_stepping_mode() {
    let max_cycles = WARMUP + WINDOW;
    for &load in &[0.001, 1.0] {
        for mode in modes() {
            let sc = noxim_uniform_scenario(
                PacketProfile::Compact,
                load,
                100,
                WINDOW,
                WARMUP,
                PERF_SEED,
            );
            let [(straight, a), (forked, b)] = straight_and_forked(
                || {
                    let mut cfg = PacketProfile::Compact.base_config();
                    cfg.full_sweep = mode.full_sweep;
                    cfg.time_skip = mode.time_skip;
                    (
                        Box::new(packetnoc::PacketNocSim::new(cfg)),
                        sc.build_source(),
                    )
                },
                max_cycles,
                WARMUP,
            );
            let what = format!("packet load {load} mode {mode:?}");
            assert_same_run(&straight, &forked, a.work_items(), b.work_items(), &what);
        }
    }
}

/// [`assert_bit_identical`] plus the telemetry outside `SimReport::eq`
/// that is still deterministic: work items and slab counters.
fn assert_same_run(a: &SimReport, b: &SimReport, work_a: u64, work_b: u64, what: &str) {
    assert_bit_identical(a, b, what);
    assert_eq!(work_a, work_b, "{what}: work diverged");
    assert_eq!(
        a.slab_high_water, b.slab_high_water,
        "{what}: slab high water diverged"
    );
    assert_eq!(
        a.allocs_per_kilocycle.to_bits(),
        b.allocs_per_kilocycle.to_bits(),
        "{what}: allocation rate diverged"
    );
}

/// A warmed-up engine of each kind, plus its snapshot, for the safety
/// tests below.
type WarmedEngine = (&'static str, Scenario, Box<dyn Engine>, Vec<u8>);

fn warmed_engines() -> Vec<WarmedEngine> {
    [
        (
            "patronoc",
            Scenario::patronoc()
                .traffic(TrafficSpec::uniform_copies(1.0, 1_000))
                .warmup(WARMUP)
                .window(WINDOW)
                .seed(41),
        ),
        (
            "packet",
            Scenario::packet(PacketProfile::Compact)
                .traffic(TrafficSpec::uniform(1.0, 100))
                .warmup(WARMUP)
                .window(WINDOW)
                .seed(41),
        ),
    ]
    .into_iter()
    .map(|(name, sc)| {
        let mut engine = sc.build_engine().expect("valid scenario");
        let mut src = sc.build_source();
        engine.run(&mut *src, WARMUP, WARMUP);
        let bytes = engine.snapshot();
        (name, sc, engine, bytes)
    })
    .collect()
}

#[test]
fn snapshot_restore_snapshot_is_a_byte_fixpoint() {
    for (name, sc, engine, bytes) in warmed_engines() {
        let mut fresh = sc.build_engine().expect("valid scenario");
        fresh
            .restore(&bytes)
            .unwrap_or_else(|e| panic!("{name}: pristine snapshot refused: {e}"));
        assert_eq!(
            fresh.snapshot(),
            bytes,
            "{name}: restore → snapshot is not a byte fixpoint"
        );
        assert_eq!(fresh.state_digest(), engine.state_digest(), "{name}");
    }
}

#[test]
fn every_single_byte_corruption_is_rejected_and_the_engine_untouched() {
    for (name, _, mut engine, bytes) in warmed_engines() {
        let digest = engine.state_digest();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            assert!(
                engine.restore(&bad).is_err(),
                "{name}: corrupt byte {i} restored"
            );
            assert_eq!(
                engine.state_digest(),
                digest,
                "{name}: state mutated by a refused restore (byte {i})"
            );
        }
        // Still untouched byte for byte, and still functional.
        assert_eq!(engine.snapshot(), bytes, "{name}");
    }
}

#[test]
fn truncated_snapshots_are_rejected() {
    for (name, _, mut engine, bytes) in warmed_engines() {
        for n in (0..bytes.len()).step_by(7) {
            assert!(
                engine.restore(&bytes[..n]).is_err(),
                "{name}: {n}-byte prefix restored"
            );
        }
    }
}

#[test]
fn oversized_and_cross_engine_snapshots_are_rejected_up_front() {
    let engines = warmed_engines();
    // The decode limit bounds the byte string before anything is parsed:
    // a snapshot over `max_bytes` is refused without reading its header.
    let (_, _, _, patronoc_bytes) = &engines[0];
    let tight = DecodeLimits {
        max_bytes: 64,
        ..DecodeLimits::default()
    };
    assert_eq!(
        Decoder::new(patronoc_bytes, patronoc::NocSim::SNAP_KIND, 0, tight).unwrap_err(),
        SnapError::LimitExceeded("snapshot bytes")
    );
    // A snapshot of the *other* engine is a wrong-engine error, not a
    // garbled restore.
    let (_, _, _, packet_bytes) = &engines[1];
    let mut patronoc = engines[0].1.build_engine().expect("valid scenario");
    assert_eq!(
        patronoc.restore(packet_bytes).unwrap_err(),
        SnapError::WrongEngine {
            expected: patronoc::NocSim::SNAP_KIND,
            found: packetnoc::PacketNocSim::SNAP_KIND,
        }
    );
}

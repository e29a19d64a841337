//! The [`Engine`] trait: one interface over both NoC simulators.
//!
//! The paper's argument is a head-to-head comparison under identical
//! workloads, so everything above the engines — scenario runners, sweep
//! grids, the future trace-replay service — should be generic over *which*
//! engine simulates. `Engine` is that seam: cycle-stepping, drain
//! detection, measurement control and a unified [`SimReport`] snapshot,
//! implemented by [`patronoc::NocSim`] and [`packetnoc::PacketNocSim`].

use simkit::snap::SnapError;
use simkit::{Cycle, SimReport};
use traffic::TrafficSource;

/// A cycle-accurate NoC simulation engine.
///
/// Object-safe so scenarios and services can hold a `Box<dyn Engine>`
/// chosen at run time. The methods mirror the engines' inherent API; the
/// blanket contract is:
///
/// * [`step`](Self::step) advances exactly one cycle, pulling stimulus
///   from the source and reporting completions back to it;
/// * [`run`](Self::run) loops `step` until the budget elapses or the
///   source finishes *and* the engine drains, and returns the snapshot
///   report — identical to calling the engine's inherent `run`;
/// * [`begin_measurement`](Self::begin_measurement) re-arms the
///   throughput meter for callers driving `step` directly.
pub trait Engine {
    /// Advance one cycle, pulling stimulus from `source`.
    fn step(&mut self, source: &mut dyn TrafficSource);

    /// Current simulation time.
    fn now(&self) -> Cycle;

    /// Whether every endpoint, link and in-flight unit is idle.
    fn is_drained(&self) -> bool;

    /// Arm the throughput meter to start measuring at absolute cycle
    /// `start`.
    fn begin_measurement(&mut self, start: Cycle);

    /// Snapshot of the metrics at the current cycle.
    fn snapshot_report(&self) -> SimReport;

    /// Serializes the engine's complete deterministic state as a
    /// self-validating byte string (see the engines' inherent `snapshot`):
    /// restore → run is bit-identical to running straight through.
    fn snapshot(&self) -> Vec<u8>;

    /// Restores a snapshot taken from an engine built with an equivalent
    /// configuration (stepping knobs may differ), all or nothing: on error
    /// the current state is untouched.
    ///
    /// # Errors
    ///
    /// A [`SnapError`] naming the violated container or engine invariant.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError>;

    /// FNV-1a 64 digest of the canonical comparable state — what
    /// [`SimReport::state_digest`] reports.
    fn state_digest(&self) -> u64;

    /// Run for at most `max_cycles`, measuring after `warmup`, stopping
    /// early when the source is done and the engine drained.
    fn run(
        &mut self,
        source: &mut dyn TrafficSource,
        max_cycles: Cycle,
        warmup: Cycle,
    ) -> SimReport;
}

impl Engine for patronoc::NocSim {
    fn step(&mut self, source: &mut dyn TrafficSource) {
        patronoc::NocSim::step(self, source);
    }

    fn now(&self) -> Cycle {
        patronoc::NocSim::now(self)
    }

    fn is_drained(&self) -> bool {
        patronoc::NocSim::is_drained(self)
    }

    fn begin_measurement(&mut self, start: Cycle) {
        patronoc::NocSim::begin_measurement(self, start);
    }

    fn snapshot_report(&self) -> SimReport {
        patronoc::NocSim::snapshot_report(self)
    }

    fn snapshot(&self) -> Vec<u8> {
        patronoc::NocSim::snapshot(self)
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        patronoc::NocSim::restore(self, bytes)
    }

    fn state_digest(&self) -> u64 {
        patronoc::NocSim::state_digest(self)
    }

    fn run(
        &mut self,
        source: &mut dyn TrafficSource,
        max_cycles: Cycle,
        warmup: Cycle,
    ) -> SimReport {
        patronoc::NocSim::run(self, source, max_cycles, warmup)
    }
}

impl Engine for packetnoc::PacketNocSim {
    fn step(&mut self, source: &mut dyn TrafficSource) {
        packetnoc::PacketNocSim::step(self, source);
    }

    fn now(&self) -> Cycle {
        packetnoc::PacketNocSim::now(self)
    }

    fn is_drained(&self) -> bool {
        packetnoc::PacketNocSim::is_drained(self)
    }

    fn begin_measurement(&mut self, start: Cycle) {
        packetnoc::PacketNocSim::begin_measurement(self, start);
    }

    fn snapshot_report(&self) -> SimReport {
        packetnoc::PacketNocSim::snapshot_report(self)
    }

    fn snapshot(&self) -> Vec<u8> {
        packetnoc::PacketNocSim::snapshot(self)
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        packetnoc::PacketNocSim::restore(self, bytes)
    }

    fn state_digest(&self) -> u64 {
        packetnoc::PacketNocSim::state_digest(self)
    }

    fn run(
        &mut self,
        source: &mut dyn TrafficSource,
        max_cycles: Cycle,
        warmup: Cycle,
    ) -> SimReport {
        packetnoc::PacketNocSim::run(self, source, max_cycles, warmup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::{Transfer, TransferKind};

    /// One write per master, then done.
    #[derive(Clone)]
    struct OneEach {
        n: usize,
        issued: Vec<bool>,
        completed: usize,
    }

    impl TrafficSource for OneEach {
        fn poll(&mut self, master: usize, _now: Cycle) -> Option<Transfer> {
            if self.issued[master] {
                return None;
            }
            self.issued[master] = true;
            Some(Transfer {
                id: master as u64,
                dst: (master + 1) % self.n,
                offset: 0,
                bytes: 256,
                kind: TransferKind::Write,
            })
        }

        fn on_complete(&mut self, _m: usize, _id: u64, _now: Cycle) {
            self.completed += 1;
        }

        fn is_done(&self) -> bool {
            self.completed == self.n
        }
    }

    fn one_each(n: usize) -> OneEach {
        OneEach {
            n,
            issued: vec![false; n],
            completed: 0,
        }
    }

    #[test]
    fn both_engines_run_behind_the_trait() {
        let mut engines: Vec<Box<dyn Engine>> = vec![
            Box::new(patronoc::NocSim::new(patronoc::NocConfig::slim_4x4()).unwrap()),
            Box::new(packetnoc::PacketNocSim::new(
                packetnoc::PacketNocConfig::noxim_compact(),
            )),
        ];
        for engine in &mut engines {
            let mut src = one_each(16);
            let report = engine.run(&mut src, 1_000_000, 0);
            assert_eq!(report.transfers_completed, 16);
            assert_eq!(report.payload_bytes, 16 * 256);
            assert!(report.is_drained());
            assert!(engine.is_drained());
            assert_eq!(engine.now(), report.cycles);
        }
    }

    #[test]
    fn trait_run_matches_inherent_run() {
        let run_inherent = || {
            let mut sim = patronoc::NocSim::new(patronoc::NocConfig::slim_4x4()).unwrap();
            let mut src = one_each(16);
            sim.run(&mut src, 100_000, 1_000)
        };
        let run_trait = || {
            let mut sim: Box<dyn Engine> =
                Box::new(patronoc::NocSim::new(patronoc::NocConfig::slim_4x4()).unwrap());
            let mut src = one_each(16);
            sim.run(&mut src, 100_000, 1_000)
        };
        assert_eq!(run_inherent(), run_trait());
    }

    #[test]
    fn packet_trait_run_matches_inherent_run() {
        let cfg = packetnoc::PacketNocConfig::noxim_compact;
        let inherent = packetnoc::PacketNocSim::new(cfg()).run(&mut one_each(16), 100_000, 1_000);
        let mut boxed: Box<dyn Engine> = Box::new(packetnoc::PacketNocSim::new(cfg()));
        assert_eq!(inherent, boxed.run(&mut one_each(16), 100_000, 1_000));
    }

    fn fresh(packet: bool) -> Box<dyn Engine> {
        if packet {
            Box::new(packetnoc::PacketNocSim::new(
                packetnoc::PacketNocConfig::noxim_compact(),
            ))
        } else {
            Box::new(patronoc::NocSim::new(patronoc::NocConfig::slim_4x4()).unwrap())
        }
    }

    #[test]
    fn checkpoints_round_trip_behind_the_trait() {
        // Capture mid-flight through `dyn Engine`, restore into a fresh
        // boxed engine, and drain both: the continuations are identical.
        for packet in [false, true] {
            let mut a = fresh(packet);
            let mut src = one_each(16);
            a.run(&mut src, 40, 0);
            assert!(!a.is_drained(), "packet={packet}: capture is mid-flight");
            let mut b = fresh(packet);
            b.restore(&a.snapshot()).unwrap();
            assert_eq!(b.now(), a.now());
            assert_eq!(b.state_digest(), a.state_digest(), "packet={packet}");

            let mut src_b = src.clone();
            let ra = a.run(&mut src, 1_000_000, 0);
            let rb = b.run(&mut src_b, 1_000_000, 0);
            assert!(ra.is_drained(), "packet={packet}");
            assert_eq!(ra, rb, "packet={packet}");
        }
    }

    #[test]
    fn stepping_manually_matches_snapshot() {
        let mut sim: Box<dyn Engine> =
            Box::new(patronoc::NocSim::new(patronoc::NocConfig::slim_4x4()).unwrap());
        let mut src = one_each(16);
        sim.begin_measurement(0);
        while !(src.is_done() && sim.is_drained()) {
            sim.step(&mut src);
            assert!(sim.now() < 1_000_000, "runaway");
        }
        let report = sim.snapshot_report();
        assert_eq!(report.payload_bytes, 16 * 256);
    }
}

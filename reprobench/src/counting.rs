//! A forwarding [`TrafficSource`] that counts the calls an engine makes
//! into the `traffic` layer.
//!
//! Every trait method is forwarded. `next_arrival` matters most: the
//! trait's default answers `At(now)`, which would silently turn event-
//! horizon skipping off and change what the traced run measures.

use std::cell::Cell;

use simkit::{Cycle, Horizon};
use traffic::{TrafficSource, Transfer};

/// Calls into the wrapped source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// `poll` calls.
    pub poll_calls: u64,
    /// `poll` calls that returned a transfer.
    pub poll_hits: u64,
    /// `on_complete` calls.
    pub on_complete_calls: u64,
    /// `next_arrival` calls.
    pub next_arrival_calls: u64,
}

impl TrafficStats {
    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: &Self) {
        self.poll_calls += other.poll_calls;
        self.poll_hits += other.poll_hits;
        self.on_complete_calls += other.on_complete_calls;
        self.next_arrival_calls += other.next_arrival_calls;
    }
}

/// Wraps a source, forwarding every call and counting it.
pub struct Counting<'a> {
    inner: &'a mut dyn TrafficSource,
    stats: TrafficStats,
    // `next_arrival` takes `&self`.
    next_arrival_calls: Cell<u64>,
}

impl<'a> Counting<'a> {
    /// Wraps `inner` with zeroed counts.
    pub fn new(inner: &'a mut dyn TrafficSource) -> Self {
        Self {
            inner,
            stats: TrafficStats::default(),
            next_arrival_calls: Cell::new(0),
        }
    }

    /// The counts so far.
    #[must_use]
    pub fn stats(&self) -> TrafficStats {
        TrafficStats {
            next_arrival_calls: self.next_arrival_calls.get(),
            ..self.stats
        }
    }
}

impl TrafficSource for Counting<'_> {
    fn poll(&mut self, master: usize, now: Cycle) -> Option<Transfer> {
        let transfer = self.inner.poll(master, now);
        self.stats.poll_calls += 1;
        self.stats.poll_hits += u64::from(transfer.is_some());
        transfer
    }

    fn on_complete(&mut self, master: usize, id: u64, now: Cycle) {
        self.stats.on_complete_calls += 1;
        self.inner.on_complete(master, id, now);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn next_arrival(&self, now: Cycle) -> Horizon {
        self.next_arrival_calls
            .set(self.next_arrival_calls.get() + 1);
        self.inner.next_arrival(now)
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        self.inner.restore_state(bytes)
    }
}

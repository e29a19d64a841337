//! Input-buffered wormhole router with virtual channels.
//!
//! The classical NoC router: flits buffered per input VC, XY-routed at the
//! head flit, switch-allocated with round-robin arbitration, forwarded at
//! one flit per cycle per physical link with credit-accurate backpressure
//! (modelled by pushing directly into the downstream input buffer, whose
//! two-phase occupancy *is* the credit count).

use crate::snapcodec::corrupt;
use crate::txn::TxHandle;
use simkit::snap::{Decoder, Encoder, SnapError};
use simkit::{Fifo, RoundRobinArbiter};

/// Flit position within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitKind {
    /// First flit: carries routing info and the packet's payload accounting.
    Head,
    /// Intermediate flit.
    Body,
    /// Last flit: closes the wormhole.
    Tail,
}

/// One flit on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Position in the packet.
    pub kind: FlitKind,
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Handle of the slab-resident [`TxRecord`](crate::txn::TxRecord) this
    /// packet belongs to — the transaction flows through the mesh by
    /// handle, so tail delivery retires it with a direct arena access
    /// instead of a hash lookup.
    pub tx: TxHandle,
    /// Payload bytes accounted to this packet (head flit only; 0 otherwise).
    pub payload: u32,
    /// Cycle the packet was injected (head flit; latency statistics).
    pub injected_at: u64,
}

/// Router ports: N, E, S, W, Local — shared with the PATRONoC convention.
pub const PORTS: usize = 5;

/// Local (endpoint) port index.
pub const LOCAL: usize = 4;

/// Mesh directions in port order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Port {
    /// Row − 1.
    North,
    /// Column + 1.
    East,
    /// Row + 1.
    South,
    /// Column − 1.
    West,
    /// The endpoint.
    Local,
}

impl Port {
    /// Port index.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Port::North => 0,
            Port::East => 1,
            Port::South => 2,
            Port::West => 3,
            Port::Local => 4,
        }
    }

    /// The receiving port at the neighbour this port points to.
    #[must_use]
    pub fn opposite(self) -> Self {
        match self {
            Port::North => Port::South,
            Port::East => Port::West,
            Port::South => Port::North,
            Port::West => Port::East,
            Port::Local => Port::Local,
        }
    }
}

/// XY route computation: which output port does a packet at `node` take to
/// reach `dst` on a `cols`-wide mesh?
#[must_use]
pub fn xy_route(cols: usize, node: usize, dst: usize) -> Port {
    let (x, y) = (node % cols, node / cols);
    let (dx, dy) = (dst % cols, dst / cols);
    if dx > x {
        Port::East
    } else if dx < x {
        Port::West
    } else if dy > y {
        Port::South
    } else if dy < y {
        Port::North
    } else {
        Port::Local
    }
}

/// Per-router wormhole state. Input buffers live in the engine's flat
/// buffer array so neighbouring routers can push into them directly.
#[derive(Debug, Clone)]
pub struct Router {
    node: usize,
    cols: usize,
    vcs: usize,
    /// Lock per (output port, vc): the input port whose packet owns it.
    out_lock: Vec<Option<usize>>,
    /// Switch arbiter per output port over (input × vc) candidates.
    arb: Vec<RoundRobinArbiter>,
}

/// A flit delivered to the local endpoint this cycle.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    /// The delivered flit.
    pub flit: Flit,
}

impl Router {
    /// Creates the router for `node` on a `cols`-wide mesh with `vcs`
    /// virtual channels.
    #[must_use]
    pub fn new(node: usize, cols: usize, vcs: usize) -> Self {
        Self {
            node,
            cols,
            vcs,
            out_lock: vec![None; PORTS * vcs],
            arb: (0..PORTS)
                .map(|_| RoundRobinArbiter::new(PORTS * vcs))
                .collect(),
        }
    }

    /// The node this router serves.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// Index of this router's input buffer for (port, vc) in the engine's
    /// flat buffer array.
    #[must_use]
    pub fn buf_index(node: usize, port: usize, vc: usize, vcs: usize) -> usize {
        (node * PORTS + port) * vcs + vc
    }

    /// One switch-allocation cycle: for every output port, forward at most
    /// one flit from an input VC. `bufs` is the engine's flat buffer
    /// array; `neighbor` maps an output port to the neighbouring node. Flits switched to the local
    /// port are returned as deliveries; `on_push` is called with the
    /// downstream buffer index of every flit forwarded to a neighbour —
    /// the activity scheduler's precise wake signal (a credit-blocked
    /// router forwards nothing and wakes nobody).
    pub fn step(
        &mut self,
        bufs: &mut [Fifo<Flit>],
        neighbor: &dyn Fn(usize, Port) -> Option<usize>,
        on_push: &mut dyn FnMut(usize),
    ) -> Vec<Delivery> {
        let mut delivered = Vec::new();
        let vcs = self.vcs;
        for out in 0..PORTS {
            // Resolve the downstream buffer base for this output.
            let ports = [
                Port::North,
                Port::East,
                Port::South,
                Port::West,
                Port::Local,
            ];
            let out_port = ports[out];
            let down_node = if out == LOCAL {
                None
            } else {
                let Some(nb) = neighbor(self.node, out_port) else {
                    continue; // edge of the mesh: no output here
                };
                Some(nb)
            };
            // Candidate (input, vc) pairs.
            let mut elig = vec![false; PORTS * vcs];
            for i in 0..PORTS {
                if i == out && i != LOCAL {
                    continue; // no u-turns
                }
                for v in 0..vcs {
                    let bidx = Self::buf_index(self.node, i, v, vcs);
                    let Some(flit) = bufs[bidx].peek().copied() else {
                        continue;
                    };
                    // Route check at the head; locks carry body/tail flits.
                    let lock = self.out_lock[out * vcs + v];
                    let wants_out = match flit.kind {
                        FlitKind::Head => {
                            lock.is_none()
                                && xy_route(self.cols, self.node, flit.dst).index() == out
                        }
                        _ => lock == Some(i),
                    };
                    if !wants_out {
                        continue;
                    }
                    // Credit check: space in the downstream buffer.
                    let has_credit = match down_node {
                        None => true, // local delivery always accepted
                        Some(nb) => {
                            let didx = Self::buf_index(nb, out_port.opposite().index(), v, vcs);
                            bufs[didx].can_push()
                        }
                    };
                    if has_credit {
                        elig[i * vcs + v] = true;
                    }
                }
            }
            let Some(winner) = self.arb[out].grant(|c| elig[c]) else {
                continue;
            };
            let (i, v) = (winner / vcs, winner % vcs);
            let bidx = Self::buf_index(self.node, i, v, vcs);
            let flit = bufs[bidx].pop().expect("eligible flit exists");
            // Update the wormhole lock.
            match flit.kind {
                FlitKind::Head => self.out_lock[out * vcs + v] = Some(i),
                FlitKind::Body => {}
                FlitKind::Tail => self.out_lock[out * vcs + v] = None,
            }
            match down_node {
                None => delivered.push(Delivery { flit }),
                Some(nb) => {
                    let didx = Self::buf_index(nb, out_port.opposite().index(), v, vcs);
                    assert!(bufs[didx].push(flit).is_ok(), "push on full buffer"); // credit checked above
                    on_push(didx);
                }
            }
        }
        delivered
    }

    /// Serializes the router's mutable state: the wormhole locks per
    /// (output, vc), then the switch arbiter cursors per output port.
    pub(crate) fn encode_state(&self, e: &mut Encoder) {
        for lock in &self.out_lock {
            e.option(lock.as_ref(), |e, &input| e.usize(input));
        }
        for arb in &self.arb {
            e.usize(arb.cursor());
        }
    }

    /// Restores state written by [`encode_state`](Self::encode_state),
    /// bounding every lock holder and arbiter cursor before accepting it.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on a lock naming a non-existent input port or an
    /// out-of-range cursor.
    pub(crate) fn restore_state(&mut self, d: &mut Decoder<'_>) -> Result<(), SnapError> {
        for lock in &mut self.out_lock {
            let holder = d.option(|d| d.usize())?;
            if holder.is_some_and(|input| input >= PORTS) {
                return Err(corrupt("wormhole lock held by a non-existent port"));
            }
            *lock = holder;
        }
        for arb in &mut self.arb {
            arb.set_cursor(d.usize()?).map_err(corrupt)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxRecord;
    use simkit::{Fifo, Slab};
    use traffic::{Transfer, TransferKind};

    /// Allocates a one-packet transfer record so the test flits carry a
    /// live handle; distinct handles distinguish packets where the old
    /// tests compared raw transfer ids.
    fn new_tx(arena: &mut Slab<TxRecord>, dst: usize) -> TxHandle {
        arena.alloc(TxRecord::new(
            0,
            Transfer {
                id: 1,
                dst,
                offset: 0,
                bytes: 4,
                kind: TransferKind::Write,
            },
            1,
        ))
    }

    #[test]
    fn xy_route_reaches_destination() {
        // 4×4 mesh, from 0 to 10 = (2,2): East, East, South, South.
        let mut node = 0;
        let mut hops = Vec::new();
        loop {
            let p = xy_route(4, node, 10);
            if p == Port::Local {
                break;
            }
            hops.push(p);
            node = match p {
                Port::East => node + 1,
                Port::West => node - 1,
                Port::South => node + 4,
                Port::North => node - 4,
                Port::Local => unreachable!(),
            };
        }
        assert_eq!(node, 10);
        assert_eq!(hops.len(), 4);
        // X first:
        assert_eq!(hops[0], Port::East);
        assert_eq!(hops[1], Port::East);
        assert_eq!(hops[2], Port::South);
    }

    fn mk_bufs(nodes: usize, vcs: usize, depth: usize) -> Vec<Fifo<Flit>> {
        (0..nodes * PORTS * vcs).map(|_| Fifo::new(depth)).collect()
    }

    fn head(dst: usize, tx: TxHandle) -> Flit {
        Flit {
            kind: FlitKind::Head,
            src: 0,
            dst,
            tx,
            payload: 4,
            injected_at: 0,
        }
    }

    fn tail(dst: usize, tx: TxHandle) -> Flit {
        Flit {
            kind: FlitKind::Tail,
            ..head(dst, tx)
        }
    }

    /// 1×2 mesh: node 0 and node 1, East/West neighbours.
    fn two_node_neighbor(node: usize, p: Port) -> Option<usize> {
        match (node, p) {
            (0, Port::East) => Some(1),
            (1, Port::West) => Some(0),
            _ => None,
        }
    }

    #[test]
    fn flit_crosses_one_hop_per_cycle() {
        let vcs = 1;
        let mut arena = Slab::new();
        let mut bufs = mk_bufs(2, vcs, 4);
        let mut r0 = Router::new(0, 2, vcs);
        let mut r1 = Router::new(1, 2, vcs);
        // Inject a 2-flit packet at node 0's local port, destined to 1.
        for b in &mut bufs {
            b.begin_cycle();
        }
        let tx = new_tx(&mut arena, 1);
        let local0 = Router::buf_index(0, LOCAL, 0, vcs);
        bufs[local0].push(head(1, tx)).unwrap();
        bufs[local0].push(tail(1, tx)).unwrap();
        let mut delivered = Vec::new();
        for _cycle in 0..10 {
            for b in &mut bufs {
                b.begin_cycle();
            }
            delivered.extend(r0.step(bufs.as_mut_slice(), &two_node_neighbor, &mut |_| {}));
            delivered.extend(r1.step(bufs.as_mut_slice(), &two_node_neighbor, &mut |_| {}));
        }
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[0].flit.kind, FlitKind::Head);
        assert_eq!(delivered[1].flit.kind, FlitKind::Tail);
    }

    #[test]
    fn wormhole_does_not_interleave_packets() {
        let vcs = 1;
        let mut arena = Slab::new();
        let mut bufs = mk_bufs(2, vcs, 8);
        let mut r0 = Router::new(0, 2, vcs);
        let mut r1 = Router::new(1, 2, vcs);
        for b in &mut bufs {
            b.begin_cycle();
        }
        // Two packets from different inputs heading East: one from Local,
        // one from... Local only; instead inject one packet at local and one
        // at the North input buffer (as if it existed).
        let local0 = Router::buf_index(0, LOCAL, 0, vcs);
        let north0 = Router::buf_index(0, 0, 0, vcs);
        let tx_a = new_tx(&mut arena, 1);
        let tx_b = new_tx(&mut arena, 1);
        bufs[local0].push(head(1, tx_a)).unwrap();
        bufs[north0].push(head(1, tx_b)).unwrap();
        // Tails injected later, to try to force interleaving.
        let mut delivered = Vec::new();
        for cycle in 0..12 {
            for b in &mut bufs {
                b.begin_cycle();
            }
            if cycle == 2 {
                bufs[local0].push(tail(1, tx_a)).unwrap();
                bufs[north0].push(tail(1, tx_b)).unwrap();
            }
            delivered.extend(r0.step(bufs.as_mut_slice(), &two_node_neighbor, &mut |_| {}));
            delivered.extend(r1.step(bufs.as_mut_slice(), &two_node_neighbor, &mut |_| {}));
        }
        let order: Vec<TxHandle> = delivered.iter().map(|d| d.flit.tx).collect();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], order[1], "first packet contiguous: {order:?}");
        assert_eq!(order[2], order[3], "second packet contiguous: {order:?}");
    }

    #[test]
    fn backpressure_stalls_at_full_buffer() {
        let vcs = 1;
        let mut arena = Slab::new();
        // Downstream buffer of 2 flits and a receiver that never drains.
        let mut bufs = mk_bufs(2, vcs, 2);
        let mut r0 = Router::new(0, 2, vcs);
        for b in &mut bufs {
            b.begin_cycle();
        }
        let tx = new_tx(&mut arena, 1);
        let local0 = Router::buf_index(0, LOCAL, 0, vcs);
        bufs[local0].push(head(1, tx)).unwrap();
        bufs[local0]
            .push(Flit {
                kind: FlitKind::Body,
                ..head(1, tx)
            })
            .unwrap();
        for _ in 0..10 {
            for b in &mut bufs {
                b.begin_cycle();
            }
            let _ = r0.step(bufs.as_mut_slice(), &two_node_neighbor, &mut |_| {});
        }
        // Node 1 never runs: its West input buffer holds exactly 2 flits.
        let west1 = Router::buf_index(1, Port::West.index(), 0, vcs);
        assert_eq!(bufs[west1].len(), 2);
        assert!(bufs[local0].is_empty(), "both flits left node 0");
    }

    #[test]
    fn separate_vcs_can_interleave_on_link() {
        let vcs = 2;
        let mut arena = Slab::new();
        let mut bufs = mk_bufs(2, vcs, 8);
        let mut r0 = Router::new(0, 2, vcs);
        for b in &mut bufs {
            b.begin_cycle();
        }
        // One long packet per VC, both heading East.
        for v in 0..2 {
            let idx = Router::buf_index(0, LOCAL, v, vcs);
            let tx = new_tx(&mut arena, 1);
            bufs[idx].push(head(1, tx)).unwrap();
            bufs[idx].push(tail(1, tx)).unwrap();
        }
        let mut sent = Vec::new();
        for _ in 0..10 {
            for b in &mut bufs {
                b.begin_cycle();
            }
            let _ = r0.step(bufs.as_mut_slice(), &two_node_neighbor, &mut |_| {});
            for v in 0..2 {
                let widx = Router::buf_index(1, Port::West.index(), v, vcs);
                if let Some(f) = bufs[widx].pop() {
                    sent.push(f.tx);
                }
            }
        }
        // All four flits crossed the single physical link.
        assert_eq!(sent.len(), 4);
        // And both VCs made progress before either packet finished
        // (flit-level multiplexing): the sequence is not two contiguous
        // pairs of the same transfer.
        assert!(
            sent[0] != sent[1] || sent[1] != sent[2],
            "no multiplexing: {sent:?}"
        );
    }
}

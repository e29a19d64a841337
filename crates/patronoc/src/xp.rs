//! The AXI crosspoint (XP) — PATRONoC's routing element (paper §II, Fig. 1).
//!
//! An XP is "a configurable crossbar (XBAR) switch and ID remappers to
//! ensure isomorphic XP ports. It is fully AXI-compliant and supports
//! bursts, multiple outstanding transactions, and transaction ordering."
//!
//! The cycle-accurate model implements, per AXI channel:
//!
//! * **AW/AR** — address decode against the static routing table, the
//!   demux-side ordering rule (a same-ID transaction towards a *different*
//!   output stalls until the ID drains), per-output round-robin arbitration,
//!   and ID remapping through a `2^IW`-entry table per output port that
//!   back-pressures on exhaustion.
//! * **W** — write data follows AW grant order: each output port keeps the
//!   order in which AW requests won arbitration (`w_order`), each input
//!   keeps the order in which its AWs departed (`w_route`); a W beat moves
//!   only when both agree, exactly like the W-FIFO serialization in the
//!   pulp-platform `axi_mux`.
//! * **B** — routed back to the originating input port via the remap table,
//!   restoring the upstream ID.
//! * **R** — as B, but bursts are forwarded atomically (no beat interleave
//!   towards one upstream port, matching `axi_mux`'s locked R path).

use crate::link::{AxiLink, Channel, ReqBeat};
use crate::routing::{routing_table, RoutingAlgorithm};
#[cfg(test)]
use crate::routing::{xp_connectivity, Connectivity};
#[cfg(test)]
use crate::topology::{Dir, LOCAL};
use crate::topology::{Topology, PORTS};
use axi::id::{IdRemapper, OrderingGuard, SourceKey};
use simkit::RoundRobinArbiter;

/// A fixed-capacity FIFO of port indices: the heap-free replacement for
/// the old per-output `VecDeque<usize>` W-grant queues. At most one write
/// burst per *input* port is in flight through an XP (enforced by the
/// `w_route` stall in [`Xp::step_requests`]), so every queue holds at most
/// `PORTS` entries and the whole structure is a few bytes of fixed layout.
#[derive(Debug, Clone, Copy)]
struct PortFifo {
    slots: [u8; PORTS],
    head: u8,
    len: u8,
}

impl PortFifo {
    const fn new() -> Self {
        Self {
            slots: [0; PORTS],
            head: 0,
            len: 0,
        }
    }

    /// Serializes the queue canonically (logical order from the head, so
    /// equal queues encode identically regardless of ring rotation).
    fn encode(&self, e: &mut simkit::snap::Encoder) {
        e.byte(self.len);
        for k in 0..usize::from(self.len) {
            e.byte(self.slots[(usize::from(self.head) + k) % PORTS]);
        }
    }

    /// Decodes a queue written by [`encode`](Self::encode); entries must be
    /// valid port indices and the queue must fit its fixed capacity.
    fn decode(d: &mut simkit::snap::Decoder<'_>) -> Result<Self, simkit::snap::SnapError> {
        use crate::snapcodec::corrupt;
        let len = d.byte()?;
        if usize::from(len) > PORTS {
            return Err(corrupt("port fifo overfull"));
        }
        let mut slots = [0u8; PORTS];
        for slot in slots.iter_mut().take(usize::from(len)) {
            let p = d.byte()?;
            if usize::from(p) >= PORTS {
                return Err(corrupt("port fifo entry out of range"));
            }
            *slot = p;
        }
        Ok(Self {
            slots,
            head: 0,
            len,
        })
    }

    fn push_back(&mut self, port: usize) {
        debug_assert!((self.len as usize) < PORTS, "port fifo overflow");
        let tail = (self.head as usize + self.len as usize) % PORTS;
        self.slots[tail] = port as u8;
        self.len += 1;
    }

    fn front(&self) -> Option<usize> {
        (self.len > 0).then(|| usize::from(self.slots[self.head as usize]))
    }

    fn pop_front(&mut self) {
        debug_assert!(self.len > 0, "pop from empty port fifo");
        self.head = (self.head + 1) % PORTS as u8;
        self.len -= 1;
    }
}

/// One crosspoint of the NoC.
///
/// Constructed by the mesh builder ([`crate::NocSim`]); stepped once per
/// cycle with the global link array.
#[derive(Debug, Clone)]
pub struct Xp {
    node: usize,
    route: Vec<u8>,
    allowed: [[bool; PORTS]; PORTS],
    /// Links where this XP is the slave side (requests arrive), per port.
    in_links: [Option<usize>; PORTS],
    /// Links where this XP is the master side (requests leave), per port.
    out_links: [Option<usize>; PORTS],
    aw_arb: Vec<RoundRobinArbiter>,
    ar_arb: Vec<RoundRobinArbiter>,
    b_arb: Vec<RoundRobinArbiter>,
    r_arb: Vec<RoundRobinArbiter>,
    /// Per output port: the inputs whose AWs won arbitration, in grant
    /// order — the order their W streams must follow.
    w_order: [PortFifo; PORTS],
    /// Per input port: the output its current write burst was granted to
    /// (at most one in flight per input; see [`PortFifo`]).
    w_route: [Option<usize>; PORTS],
    wr_remap: Vec<IdRemapper>,
    rd_remap: Vec<IdRemapper>,
    aw_guard: Vec<OrderingGuard>,
    ar_guard: Vec<OrderingGuard>,
    r_lock: Vec<Option<usize>>,
    /// W data beats forwarded per output port (utilization probe).
    w_beats: [u64; PORTS],
    /// R data beats forwarded per *input* port, i.e. towards that upstream
    /// direction (utilization probe).
    r_beats: [u64; PORTS],
}

impl Xp {
    /// Builds the crosspoint for `node`, generating its routing table from
    /// the topology and routing algorithm. The connectivity matrix is
    /// passed in precomputed — when building a whole mesh, derive all of
    /// them in one route sweep with
    /// [`crate::routing::connectivity_tables`]; for a standalone XP,
    /// [`crate::routing::xp_connectivity`] computes a single node's
    /// matrix.
    #[must_use]
    pub fn new(
        topo: Topology,
        algo: RoutingAlgorithm,
        allowed: [[bool; PORTS]; PORTS],
        node: usize,
        id_width: u32,
        in_links: [Option<usize>; PORTS],
        out_links: [Option<usize>; PORTS],
    ) -> Self {
        Self {
            node,
            route: routing_table(topo, algo, node),
            allowed,
            in_links,
            out_links,
            aw_arb: (0..PORTS).map(|_| RoundRobinArbiter::new(PORTS)).collect(),
            ar_arb: (0..PORTS).map(|_| RoundRobinArbiter::new(PORTS)).collect(),
            b_arb: (0..PORTS).map(|_| RoundRobinArbiter::new(PORTS)).collect(),
            r_arb: (0..PORTS).map(|_| RoundRobinArbiter::new(PORTS)).collect(),
            w_order: [PortFifo::new(); PORTS],
            w_route: [None; PORTS],
            wr_remap: (0..PORTS).map(|_| IdRemapper::new(id_width)).collect(),
            rd_remap: (0..PORTS).map(|_| IdRemapper::new(id_width)).collect(),
            aw_guard: vec![OrderingGuard::new(); PORTS],
            ar_guard: vec![OrderingGuard::new(); PORTS],
            r_lock: vec![None; PORTS],
            w_beats: [0; PORTS],
            r_beats: [0; PORTS],
        }
    }

    /// W data beats forwarded so far through each output port
    /// (N, E, S, W, local), for link-utilization studies.
    #[must_use]
    pub fn w_beats(&self) -> &[u64; PORTS] {
        &self.w_beats
    }

    /// R data beats returned so far towards each input port.
    #[must_use]
    pub fn r_beats(&self) -> &[u64; PORTS] {
        &self.r_beats
    }

    /// The node index this XP serves.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// The XP's routing table (destination node → output port).
    #[must_use]
    pub fn routing_table(&self) -> &[u8] {
        &self.route
    }

    /// Whether the crossbar wires input port `i` to output port `o`.
    #[must_use]
    pub fn allows(&self, i: usize, o: usize) -> bool {
        self.allowed[i][o]
    }

    /// Total transactions currently remapped (in flight through this XP).
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.wr_remap.iter().map(IdRemapper::in_use).sum::<usize>()
            + self.rd_remap.iter().map(IdRemapper::in_use).sum::<usize>()
    }

    /// The indices of every link wired to this XP (inputs then outputs,
    /// each in port order) — the neighbourhood an activity-driven
    /// scheduler must mark live after the XP moved beats.
    pub fn links(&self) -> impl Iterator<Item = usize> + '_ {
        self.in_links
            .iter()
            .chain(self.out_links.iter())
            .filter_map(|l| *l)
    }

    /// Advances all five channels by one cycle. Returns whether the XP
    /// moved any beat — `false` means the step was a no-op (nothing to
    /// route) and none of its adjacent links were touched, so the
    /// scheduler may leave the neighbourhood asleep.
    pub fn step(&mut self, links: &mut [AxiLink]) -> bool {
        let mut moved = self.step_requests(links, true);
        moved |= self.step_requests(links, false);
        moved |= self.step_w(links);
        moved |= self.step_b(links);
        moved |= self.step_r(links);
        moved
    }

    /// AW (write = true) or AR (write = false) stage.
    ///
    /// Every input's head beat is read once up front; a pop re-reads only
    /// the popped input, since this stage pushes to output links only.
    fn step_requests(&mut self, links: &mut [AxiLink], write: bool) -> bool {
        let mut heads = [None; PORTS];
        for (head, in_link) in heads.iter_mut().zip(self.in_links) {
            if let Some(in_idx) = in_link {
                *head = req_channel(&mut links[in_idx], write).peek().copied();
            }
        }
        if heads.iter().all(Option::is_none) {
            return false;
        }
        let mut moved = false;
        for o in 0..PORTS {
            let Some(out_idx) = self.out_links[o] else {
                continue;
            };
            if !req_channel(&mut links[out_idx], write).can_push() {
                continue;
            }
            let mut elig = [false; PORTS];
            for (i, slot) in elig.iter_mut().enumerate() {
                let Some(beat) = heads[i] else { continue };
                if self.route[beat.dst] as usize != o || !self.allowed[i][o] {
                    continue;
                }
                let guard = if write {
                    &self.aw_guard[i]
                } else {
                    &self.ar_guard[i]
                };
                if !guard.may_issue(beat.id, o) {
                    continue;
                }
                // W-channel deadlock avoidance: at most one write burst per
                // input in flight through this XP, so every granted W stream
                // drains independently of other grants (the AW and its data
                // then traverse the mesh as one dimension-ordered wormhole;
                // with unrestricted AW run-ahead, the per-output grant-order
                // coupling of the W channel can form cyclic waits across
                // crosspoints and deadlock the write path).
                if write && self.w_route[i].is_some() {
                    continue;
                }
                let remap = if write {
                    &self.wr_remap[o]
                } else {
                    &self.rd_remap[o]
                };
                if !remap.can_acquire(SourceKey {
                    port: i as u8,
                    id: beat.id,
                }) {
                    continue;
                }
                *slot = true;
            }
            let arb = if write {
                &mut self.aw_arb[o]
            } else {
                &mut self.ar_arb[o]
            };
            let Some(i) = arb.grant(|i| elig[i]) else {
                continue;
            };
            let in_idx = self.in_links[i].expect("eligible input exists");
            let input = req_channel(&mut links[in_idx], write);
            let mut beat = input.pop().expect("eligible beat exists");
            heads[i] = input.peek().copied();
            let key = SourceKey {
                port: i as u8,
                id: beat.id,
            };
            if write {
                let rid = self.wr_remap[o].acquire(key).expect("eligibility checked");
                self.aw_guard[i].issue(beat.id, o);
                self.w_order[o].push_back(i);
                debug_assert!(self.w_route[i].is_none(), "one write per input");
                self.w_route[i] = Some(o);
                beat.id = rid;
                links[out_idx].aw.push(beat);
            } else {
                let rid = self.rd_remap[o].acquire(key).expect("eligibility checked");
                self.ar_guard[i].issue(beat.id, o);
                beat.id = rid;
                links[out_idx].ar.push(beat);
            }
            moved = true;
        }
        moved
    }

    /// W stage: forward write data in AW grant order.
    fn step_w(&mut self, links: &mut [AxiLink]) -> bool {
        let mut moved = false;
        for o in 0..PORTS {
            let Some(i) = self.w_order[o].front() else {
                continue;
            };
            let Some(out_idx) = self.out_links[o] else {
                continue;
            };
            if !links[out_idx].w.can_push() {
                continue;
            }
            // The input's current W stream must also be committed to us.
            if self.w_route[i] != Some(o) {
                continue;
            }
            let in_idx = self.in_links[i].expect("granted input exists");
            let Some(beat) = links[in_idx].w.pop() else {
                continue;
            };
            let last = beat.last;
            links[out_idx].w.push(beat);
            self.w_beats[o] += 1;
            moved = true;
            if last {
                self.w_order[o].pop_front();
                self.w_route[i] = None;
            }
        }
        moved
    }

    /// The head of output `o`'s B (write = true) or R channel as the
    /// response stages see it: `None` without a poppable beat, else the
    /// upstream source its remapped ID resolves to (`Some(None)` if the ID
    /// is unmapped). The stages read every output's head once up front and
    /// re-read only a popped output, since they push to input links only.
    fn resp_head(&self, links: &[AxiLink], o: usize, write: bool) -> Option<Option<SourceKey>> {
        let out_idx = self.out_links[o]?;
        if write {
            let beat = links[out_idx].b.peek()?;
            Some(self.wr_remap[o].source_of(beat.id))
        } else {
            let beat = links[out_idx].r.peek()?;
            Some(self.rd_remap[o].source_of(beat.id))
        }
    }

    /// B stage: route write responses back through the remap tables.
    fn step_b(&mut self, links: &mut [AxiLink]) -> bool {
        let mut heads: [_; PORTS] = std::array::from_fn(|o| self.resp_head(links, o, true));
        if heads.iter().all(Option::is_none) {
            return false;
        }
        let mut moved = false;
        for i in 0..PORTS {
            let Some(in_idx) = self.in_links[i] else {
                continue;
            };
            if !links[in_idx].b.can_push() {
                continue;
            }
            let Some(o) = self.b_arb[i]
                .grant(|o| heads[o].flatten().is_some_and(|key| key.port as usize == i))
            else {
                continue;
            };
            let key = heads[o].flatten().expect("response id is mapped");
            let out_idx = self.out_links[o].expect("eligible output exists");
            let mut beat = links[out_idx].b.pop().expect("eligible beat exists");
            self.wr_remap[o].release(beat.id);
            heads[o] = self.resp_head(links, o, true);
            self.aw_guard[i].complete(key.id);
            beat.id = key.id;
            links[in_idx].b.push(beat);
            moved = true;
        }
        moved
    }

    /// R stage: route read data back, keeping bursts atomic per upstream.
    fn step_r(&mut self, links: &mut [AxiLink]) -> bool {
        let mut heads: [_; PORTS] = std::array::from_fn(|o| self.resp_head(links, o, false));
        if heads.iter().all(Option::is_none) {
            return false;
        }
        let mut moved = false;
        for i in 0..PORTS {
            let Some(in_idx) = self.in_links[i] else {
                continue;
            };
            if !links[in_idx].r.can_push() {
                continue;
            }
            let source = match self.r_lock[i] {
                Some(o) => Some(o),
                None => self.r_arb[i]
                    .grant(|o| heads[o].flatten().is_some_and(|key| key.port as usize == i)),
            };
            let Some(o) = source else { continue };
            let Some(mapped) = heads[o] else { continue };
            let key = mapped.expect("response id is mapped");
            if key.port as usize != i {
                // Interleaved burst from upstream would be a protocol bug;
                // when locked we simply wait for our burst's next beat.
                debug_assert!(
                    self.r_lock[i].is_none(),
                    "xp {}: foreign beat inside locked R burst",
                    self.node
                );
                continue;
            }
            let out_idx = self.out_links[o].expect("locked output exists");
            let mut beat = links[out_idx].r.pop().expect("peeked beat exists");
            if beat.last {
                self.rd_remap[o].release(beat.id);
                self.ar_guard[i].complete(key.id);
                self.r_lock[i] = None;
            } else {
                self.r_lock[i] = Some(o);
            }
            heads[o] = self.resp_head(links, o, false);
            beat.id = key.id;
            links[in_idx].r.push(beat);
            self.r_beats[i] += 1;
            moved = true;
        }
        moved
    }

    /// Serializes the XP's dynamic state (arbitration cursors, W-grant
    /// bookkeeping, remap tables, ordering guards, R lock, beat counters).
    /// Static wiring (routing table, connectivity, link indices) is derived
    /// from configuration and not serialized.
    pub(crate) fn encode_state(&self, e: &mut simkit::snap::Encoder) {
        use crate::snapcodec::{encode_guard, encode_remapper};
        for arbs in [&self.aw_arb, &self.ar_arb, &self.b_arb, &self.r_arb] {
            for arb in arbs {
                e.usize(arb.cursor());
            }
        }
        for pf in &self.w_order {
            pf.encode(e);
        }
        for r in &self.w_route {
            e.option(r.as_ref(), |e, o| e.usize(*o));
        }
        for rm in self.wr_remap.iter().chain(&self.rd_remap) {
            encode_remapper(e, rm);
        }
        for g in self.aw_guard.iter().chain(&self.ar_guard) {
            encode_guard(e, g);
        }
        for l in &self.r_lock {
            e.option(l.as_ref(), |e, o| e.usize(*o));
        }
        for beats in [&self.w_beats, &self.r_beats] {
            for &b in beats {
                e.u64(b);
            }
        }
    }

    /// Restores the dynamic state written by
    /// [`encode_state`](Self::encode_state) into this (freshly built) XP,
    /// validating every index against the XP's actual wiring so a crafted
    /// snapshot cannot make a later [`step`](Self::step) panic.
    pub(crate) fn restore_state(
        &mut self,
        d: &mut simkit::snap::Decoder<'_>,
    ) -> Result<(), simkit::snap::SnapError> {
        use crate::snapcodec::{corrupt, decode_guard, decode_remapper};
        for arbs in [
            &mut self.aw_arb,
            &mut self.ar_arb,
            &mut self.b_arb,
            &mut self.r_arb,
        ] {
            for arb in arbs {
                arb.set_cursor(d.usize()?).map_err(corrupt)?;
            }
        }
        for o in 0..PORTS {
            let pf = PortFifo::decode(d)?;
            // Every granted input must actually be wired, or the W stage
            // would panic resolving its in-link.
            for k in 0..usize::from(pf.len) {
                if self.in_links[usize::from(pf.slots[k])].is_none() {
                    return Err(corrupt("w_order references an unwired input"));
                }
            }
            self.w_order[o] = pf;
        }
        for i in 0..PORTS {
            self.w_route[i] = d.option(|d| {
                let o = d.usize()?;
                if o >= PORTS || self.out_links[o].is_none() {
                    return Err(corrupt("w_route references an unwired output"));
                }
                Ok(o)
            })?;
        }
        let capacity = self.wr_remap[0].capacity();
        for table in [&mut self.wr_remap, &mut self.rd_remap] {
            for rm in table.iter_mut() {
                *rm = decode_remapper(d, capacity)?;
            }
        }
        for guards in [&mut self.aw_guard, &mut self.ar_guard] {
            for g in guards.iter_mut() {
                *g = decode_guard(d)?;
            }
        }
        for i in 0..PORTS {
            self.r_lock[i] = d.option(|d| {
                let o = d.usize()?;
                if o >= PORTS || self.out_links[o].is_none() {
                    return Err(corrupt("r_lock references an unwired output"));
                }
                Ok(o)
            })?;
        }
        for beats in [&mut self.w_beats, &mut self.r_beats] {
            for b in beats.iter_mut() {
                *b = d.u64()?;
            }
        }
        Ok(())
    }
}

/// The AW (write = true) or AR channel of `link`.
fn req_channel(link: &mut AxiLink, write: bool) -> &mut Channel<ReqBeat> {
    if write {
        &mut link.aw
    } else {
        &mut link.ar
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{AxiLink, DataBeat, ReqBeat, RespBeat};
    use axi::AxiId;

    /// Builds a standalone XP for node 5 of a 4×4 mesh wired with fresh
    /// links on every port, returning (xp, links).
    fn lone_xp() -> (Xp, Vec<AxiLink>) {
        let topo = Topology::mesh4x4();
        let mut links = Vec::new();
        let mut in_links = [None; PORTS];
        let mut out_links = [None; PORTS];
        for p in 0..PORTS {
            links.push(AxiLink::new(1));
            in_links[p] = Some(links.len() - 1);
            links.push(AxiLink::new(1));
            out_links[p] = Some(links.len() - 1);
        }
        let xp = Xp::new(
            topo,
            RoutingAlgorithm::YxDimensionOrder,
            xp_connectivity(
                topo,
                RoutingAlgorithm::YxDimensionOrder,
                5,
                Connectivity::Partial,
            ),
            5,
            4,
            in_links,
            out_links,
        );
        (xp, links)
    }

    fn req(id: u16, dst: usize, beats: u16) -> ReqBeat {
        ReqBeat {
            id: AxiId(id),
            dst,
            src: 0,
            beats,
            bytes: u32::from(beats) * 4,
            txn: 77,
            issued_at: 0,
        }
    }

    fn cycle(xp: &mut Xp, links: &mut [AxiLink]) {
        for l in links.iter_mut() {
            l.begin_cycle();
        }
        xp.step(links);
    }

    #[test]
    fn aw_routed_by_table() {
        let (mut xp, mut links) = lone_xp();
        // Node 5 = (1,1); dest 13 = (1,3) is straight South under YX.
        let local_in = 8; // in_links[LOCAL] == links[8]
        links[local_in].begin_cycle();
        links[local_in].aw.push(req(0, 13, 1));
        for _ in 0..3 {
            cycle(&mut xp, &mut links);
        }
        let south_out = xp.out_links[Dir::South.port()].unwrap();
        assert!(links[south_out].aw.can_pop());
        // Remapped ID may differ but metadata is preserved.
        let beat = links[south_out].aw.pop().unwrap();
        assert_eq!(beat.dst, 13);
        assert_eq!(beat.txn, 77);
    }

    #[test]
    fn w_follows_aw_grant_order() {
        let (mut xp, mut links) = lone_xp();
        let local_in = xp.in_links[LOCAL].unwrap();
        let north_in = xp.in_links[Dir::North.port()].unwrap();
        // Two writes to the same South output from different inputs.
        links[local_in].begin_cycle();
        links[north_in].begin_cycle();
        links[local_in].aw.push(req(0, 13, 2));
        links[north_in].aw.push(req(0, 13, 2));
        // Feed W data on both inputs.
        for l in [local_in, north_in] {
            links[l].w.push(DataBeat {
                bytes: 4,
                last: false,
                txn: l as u64,
            });
        }
        // Run some cycles, completing the data streams and draining the
        // South output as a downstream consumer would.
        let south_out = xp.out_links[Dir::South.port()].unwrap();
        let mut txns = Vec::new();
        for c in 0..16 {
            cycle(&mut xp, &mut links);
            if c == 2 {
                for l in [local_in, north_in] {
                    links[l].w.push(DataBeat {
                        bytes: 4,
                        last: true,
                        txn: l as u64,
                    });
                }
            }
            if let Some(b) = links[south_out].w.pop() {
                txns.push(b.txn);
            }
        }
        assert_eq!(txns.len(), 4);
        assert_eq!(txns[0], txns[1], "burst 1 contiguous");
        assert_eq!(txns[2], txns[3], "burst 2 contiguous");
        assert_ne!(txns[0], txns[2]);
    }

    #[test]
    fn b_response_restores_id_and_port() {
        let (mut xp, mut links) = lone_xp();
        let local_in = xp.in_links[LOCAL].unwrap();
        let south_out = xp.out_links[Dir::South.port()].unwrap();
        links[local_in].begin_cycle();
        links[local_in].aw.push(req(9, 13, 1));
        links[local_in].w.push(DataBeat {
            bytes: 4,
            last: true,
            txn: 1,
        });
        for _ in 0..4 {
            cycle(&mut xp, &mut links);
        }
        // Grab the forwarded (remapped) AW and answer it with a B.
        let fw = links[south_out].aw.pop().unwrap();
        links[south_out].w.pop().unwrap();
        links[south_out].b.push(RespBeat {
            id: fw.id,
            bytes: 0,
            last: true,
            txn: 1,
        });
        for _ in 0..3 {
            cycle(&mut xp, &mut links);
        }
        let back = links[local_in].b.pop().expect("B returned upstream");
        assert_eq!(back.id, AxiId(9), "original ID restored");
        assert_eq!(xp.inflight(), 0, "remap slot released");
    }

    #[test]
    fn r_bursts_not_interleaved_upstream() {
        let (mut xp, mut links) = lone_xp();
        let local_in = xp.in_links[LOCAL].unwrap();
        // Two reads to different outputs (dest 13 = South, dest 6 = East).
        links[local_in].begin_cycle();
        links[local_in].ar.push(req(1, 13, 2));
        links[local_in].ar.push(req(2, 6, 2));
        for _ in 0..6 {
            cycle(&mut xp, &mut links);
        }
        let south_out = xp.out_links[Dir::South.port()].unwrap();
        let east_out = xp.out_links[Dir::East.port()].unwrap();
        let fw_s = links[south_out].ar.pop().expect("south AR");
        let fw_e = links[east_out].ar.pop().expect("east AR");
        // Interleave response beats at the two outputs.
        links[south_out].r.push(RespBeat {
            id: fw_s.id,
            bytes: 4,
            last: false,
            txn: 10,
        });
        links[east_out].r.push(RespBeat {
            id: fw_e.id,
            bytes: 4,
            last: false,
            txn: 20,
        });
        cycle(&mut xp, &mut links);
        cycle(&mut xp, &mut links);
        links[south_out].r.push(RespBeat {
            id: fw_s.id,
            bytes: 4,
            last: true,
            txn: 10,
        });
        links[east_out].r.push(RespBeat {
            id: fw_e.id,
            bytes: 4,
            last: true,
            txn: 20,
        });
        let mut txns = Vec::new();
        for _ in 0..10 {
            cycle(&mut xp, &mut links);
            if let Some(b) = links[local_in].r.pop() {
                txns.push(b.txn);
            }
        }
        assert_eq!(txns.len(), 4);
        // Whichever burst started first must finish before the other starts.
        assert_eq!(txns[0], txns[1]);
        assert_eq!(txns[2], txns[3]);
    }

    #[test]
    fn same_id_different_destination_stalls() {
        let (mut xp, mut links) = lone_xp();
        let local_in = xp.in_links[LOCAL].unwrap();
        links[local_in].begin_cycle();
        // Same AXI ID towards two different outputs: second must wait.
        links[local_in].ar.push(req(3, 13, 1)); // South
        links[local_in].ar.push(req(3, 6, 1)); // East
        for _ in 0..5 {
            cycle(&mut xp, &mut links);
        }
        let south_out = xp.out_links[Dir::South.port()].unwrap();
        let east_out = xp.out_links[Dir::East.port()].unwrap();
        assert!(links[south_out].ar.can_pop(), "first AR forwarded");
        assert!(
            !links[east_out].ar.can_pop(),
            "same-ID AR to a different destination must stall"
        );
        // Answer the first read; the second must then proceed.
        let fw = links[south_out].ar.pop().unwrap();
        links[south_out].r.push(RespBeat {
            id: fw.id,
            bytes: 4,
            last: true,
            txn: 0,
        });
        for _ in 0..6 {
            cycle(&mut xp, &mut links);
        }
        assert!(links[east_out].ar.can_pop(), "unblocked after completion");
    }

    #[test]
    fn forbidden_turn_never_taken() {
        let (mut xp, mut links) = lone_xp();
        // East input turning South is an illegal X→Y turn under YX routing;
        // a beat entering East destined to 13 (straight South from node 5)
        // would require it. Partial connectivity must stall it forever
        // (such a beat cannot exist in a correctly routed mesh).
        let east_in = xp.in_links[Dir::East.port()].unwrap();
        links[east_in].begin_cycle();
        links[east_in].ar.push(req(0, 13, 1));
        for _ in 0..10 {
            cycle(&mut xp, &mut links);
        }
        let south_out = xp.out_links[Dir::South.port()].unwrap();
        assert!(!links[south_out].ar.can_pop());
    }

    #[test]
    fn id_exhaustion_backpressures() {
        let topo = Topology::mesh4x4();
        let mut links = Vec::new();
        let mut in_links = [None; PORTS];
        let mut out_links = [None; PORTS];
        for p in 0..PORTS {
            links.push(AxiLink::new(1));
            in_links[p] = Some(links.len() - 1);
            links.push(AxiLink::new(1));
            out_links[p] = Some(links.len() - 1);
        }
        // IW = 1 → only 2 remap slots per output.
        let mut xp = Xp::new(
            topo,
            RoutingAlgorithm::YxDimensionOrder,
            xp_connectivity(
                topo,
                RoutingAlgorithm::YxDimensionOrder,
                5,
                Connectivity::Partial,
            ),
            5,
            1,
            in_links,
            out_links,
        );
        let local_in = xp.in_links[LOCAL].unwrap();
        links[local_in].begin_cycle();
        for id in 0..2 {
            links[local_in].ar.push(req(id, 13, 1));
        }
        for _ in 0..8 {
            cycle(&mut xp, &mut links);
            // Keep offering more reads with fresh IDs.
            if links[local_in].ar.can_push() {
                links[local_in].ar.push(req(7, 13, 1));
            }
        }
        // Only two transactions can be in flight through the South port.
        assert_eq!(xp.inflight(), 2);
    }

    /// One link's snapshot bytes: its complete observable state.
    fn link_bytes(link: &AxiLink) -> Vec<u8> {
        let mut e = simkit::snap::Encoder::new(0, 0);
        link.encode(&mut e);
        e.finish()
    }

    #[test]
    fn two_snapshotted_ar_beats_leave_one_input_in_one_cycle() {
        // The stage re-reads an input's head after a pop, so a later output
        // in port order can take the beat behind the one an earlier output
        // took, in the same cycle. Real AXI completes at most one handshake
        // per channel per cycle; the simulated results depend on this
        // behaviour, so it stays pinned until a fidelity fix moves both.
        let (mut xp, mut links) = lone_xp();
        let local_in = xp.in_links[LOCAL].unwrap();
        let east_out = xp.out_links[Dir::East.port()].unwrap();
        let south_out = xp.out_links[Dir::South.port()].unwrap();
        links[local_in].begin_cycle();
        links[local_in].ar.push(req(1, 6, 1)); // East (port 1)
        links[local_in].ar.push(req(2, 13, 1)); // South (port 2)
        cycle(&mut xp, &mut links);
        assert!(links[local_in].ar.is_empty(), "both beats left the input");
        assert_eq!(links[east_out].ar.occupancy(), 1);
        assert_eq!(links[south_out].ar.occupancy(), 1);
    }

    #[test]
    fn two_snapshotted_r_beats_leave_one_output_in_one_cycle() {
        // The response-side twin of the AR case above.
        let (mut xp, mut links) = lone_xp();
        let north_in = xp.in_links[Dir::North.port()].unwrap();
        let local_in = xp.in_links[LOCAL].unwrap();
        let south_out = xp.out_links[Dir::South.port()].unwrap();
        // One read from each of two upstream ports, both towards South.
        for (l, txn) in [(north_in, 1), (local_in, 2)] {
            links[l].begin_cycle();
            links[l].ar.push(ReqBeat {
                txn,
                ..req(4, 13, 1)
            });
        }
        let mut forwarded = Vec::new();
        for _ in 0..6 {
            cycle(&mut xp, &mut links);
            forwarded.extend(links[south_out].ar.pop());
        }
        forwarded.sort_by_key(|b| b.txn);
        let [from_north, from_local] = forwarded[..] else {
            panic!("both reads forwarded: {forwarded:?}");
        };
        // Answer both in one cycle, the lower upstream port's beat first.
        for fw in [from_north, from_local] {
            links[south_out].r.push(RespBeat {
                id: fw.id,
                bytes: 4,
                last: true,
                txn: fw.txn,
            });
        }
        cycle(&mut xp, &mut links);
        assert!(links[south_out].r.is_empty(), "both beats left the output");
        for l in [north_in, local_in] {
            assert_eq!(links[l].r.occupancy(), 1);
        }
        assert_eq!(xp.r_beats()[Dir::North.port()], 1);
        assert_eq!(xp.r_beats()[LOCAL], 1);
    }

    #[test]
    fn step_without_head_beats_touches_nothing() {
        let (mut xp, mut links) = lone_xp();
        let local_in = xp.in_links[LOCAL].unwrap();
        let south_out = xp.out_links[Dir::South.port()].unwrap();
        for l in &mut links {
            l.begin_cycle();
        }
        // Beats pushed this cycle are held but not poppable until the next.
        links[local_in].aw.push(req(0, 13, 1));
        links[local_in].ar.push(req(1, 13, 1));
        links[local_in].w.push(DataBeat {
            bytes: 4,
            last: true,
            txn: 0,
        });
        let resp = RespBeat {
            id: AxiId(0),
            bytes: 0,
            last: true,
            txn: 0,
        };
        links[south_out].b.push(resp);
        links[south_out].r.push(resp);
        let before: Vec<_> = links.iter().map(link_bytes).collect();
        assert!(!xp.step(&mut links));
        let after: Vec<_> = links.iter().map(link_bytes).collect();
        assert_eq!(after, before);
    }
}

//! NoC endpoints: the DMA-engine master and the AXI memory slave.
//!
//! "Each master is a DMA engine, and the slaves are AXI-capable memories
//! that cater to the DMA requests. The configurable and workload-specific
//! maximum burst length is used by the RTL model of the DMA engine to
//! create AXI-compliant bursts (adhering to address boundaries and max
//! number of beats)" (paper §IV).
//!
//! ## Arena-resident in-flight state
//!
//! A transfer's whole in-flight record ([`InflightTransfer`]) lives in a
//! [`Slab`] arena owned by the engine: allocated once when the stimulus is
//! injected, queued at its DMA as a [`simkit::Handle`] through an
//! intrusive [`HandleQueue`], progressed in place while bursts fly, and
//! freed when the last response retires it. Burst lists are incremental
//! [`SplitCursor`]s (three words of state) instead of materialized
//! `Vec<Burst>`s, and the W-channel stream descriptors sit in a second
//! arena — the endpoint hot path performs no heap allocation at all.

use crate::link::{AxiLink, DataBeat, ReqBeat, RespBeat};
use crate::snapcodec::{
    corrupt, decode_guard, decode_resp, encode_guard, encode_resp, guard_inflight,
};
use axi::id::OrderingGuard;
use axi::split::SplitCursor;
use axi::{AxiId, AxiParams};
use simkit::snap::{Decoder, Encoder, SnapError};
use simkit::{Cycle, Handle, HandleQueue, Histogram, Slab, ThroughputMeter};
use std::collections::VecDeque;
use traffic::{Transfer, TransferKind};

/// A transfer whose destination address has been resolved by the engine.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedTransfer {
    /// The original descriptor.
    pub transfer: Transfer,
    /// Absolute destination start address (region base + offset).
    pub addr: u64,
    /// Absolute source address for copies (`None` for one-sided transfers).
    pub src_addr: Option<u64>,
}

/// The slab-resident record of one in-flight transfer: the resolved
/// descriptor plus all of its progress state. Allocated by the engine at
/// injection ([`crate::NocSim`] owns the arena), owned by exactly one
/// [`DmaEngine`] queue/active slot at a time, freed on retirement.
#[derive(Debug, Clone)]
pub struct InflightTransfer {
    resolved: ResolvedTransfer,
    issued_at: Cycle,
    /// AR bursts still to issue (reads and the read leg of copies).
    read_bursts: SplitCursor,
    /// AW bursts still to issue (writes and the write leg of copies).
    write_bursts: SplitCursor,
    /// Streaming buffer for copies: received bytes not yet emitted as W
    /// beats. `None` for one-sided writes (data is local, always ready).
    buffer_bytes: Option<u64>,
    /// Node the read leg targets (`dst` for reads, `src` for copies).
    read_dst: usize,
    /// Bursts still awaiting their B (write) or last R (read).
    resp_pending: u32,
}

impl InflightTransfer {
    /// Wraps a resolved descriptor; progress state is initialized when the
    /// DMA activates the transfer.
    #[must_use]
    pub fn new(resolved: ResolvedTransfer) -> Self {
        Self {
            resolved,
            issued_at: 0,
            read_bursts: SplitCursor::empty(),
            write_bursts: SplitCursor::empty(),
            buffer_bytes: None,
            read_dst: 0,
            resp_pending: 0,
        }
    }
}

/// One W-channel burst being streamed: slab-resident (the engine owns the
/// arena), queued per DMA through an intrusive [`HandleQueue`].
#[derive(Debug, Clone)]
pub struct WStream {
    beats_left: u16,
    bytes_left: u32,
    txn: u64,
}

/// The DMA-engine master endpoint.
///
/// Processes transfer descriptors serially (a real DMA is programmed per
/// transfer and raises a completion interrupt before the next one starts,
/// costing `setup_cycles`), but pipelines up to MOT AXI bursts *within* a
/// transfer — exactly the structure that makes large DMA bursts efficient
/// and tiny transfers latency-bound, which is the effect Fig. 4 measures.
///
/// [`TransferKind::Copy`] transfers stream: read bursts fetch from the
/// source while write bursts push received data to the destination, with
/// independent outstanding budgets on the read and write legs (AXI read and
/// write IDs are separate spaces, and sharing one budget could starve the
/// read leg that feeds the writes).
#[derive(Debug, Clone)]
pub struct DmaEngine {
    node: usize,
    link: usize,
    params: AxiParams,
    setup_cycles: u32,
    queue: HandleQueue<InflightTransfer>,
    active: Option<Handle<InflightTransfer>>,
    outstanding_rd: u32,
    outstanding_wr: u32,
    rd_guard: OrderingGuard,
    wr_guard: OrderingGuard,
    w_streams: HandleQueue<WStream>,
    next_id: u16,
    txn_serial: u64,
    issue_allowed_at: Cycle,
    finished: Vec<u64>,
    latency: Histogram,
    transfers_completed: u64,
}

impl DmaEngine {
    /// Creates a DMA engine at `node`, mastering link `link`.
    #[must_use]
    pub fn new(node: usize, link: usize, params: AxiParams, setup_cycles: u32) -> Self {
        Self {
            node,
            link,
            params,
            setup_cycles,
            queue: HandleQueue::new(),
            active: None,
            outstanding_rd: 0,
            outstanding_wr: 0,
            rd_guard: OrderingGuard::new(),
            wr_guard: OrderingGuard::new(),
            w_streams: HandleQueue::new(),
            next_id: 0,
            txn_serial: (node as u64) << 40,
            issue_allowed_at: 0,
            finished: Vec::new(),
            latency: Histogram::new(),
            transfers_completed: 0,
        }
    }

    /// The node this engine sits at.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// The index of the link this engine masters (its only neighbour).
    #[must_use]
    pub fn link(&self) -> usize {
        self.link
    }

    /// Queues a transfer record previously allocated in `txns`.
    pub fn enqueue(&mut self, txns: &mut Slab<InflightTransfer>, h: Handle<InflightTransfer>) {
        self.queue.push_back(txns, h);
    }

    /// Descriptors waiting (not counting the active one).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Whether the engine has nothing queued, active, or outstanding.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
            && self.active.is_none()
            && self.outstanding_rd == 0
            && self.outstanding_wr == 0
    }

    /// Transfers completed so far.
    #[must_use]
    pub fn transfers_completed(&self) -> u64 {
        self.transfers_completed
    }

    /// Transfer latency histogram (descriptor issue → last response).
    #[must_use]
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Drains the IDs of transfers that completed this cycle into `out`
    /// (cleared first), reusing the caller's buffer — no per-call `Vec`.
    pub fn drain_finished(&mut self, out: &mut Vec<u64>) {
        out.clear();
        out.append(&mut self.finished);
    }

    /// Advances one cycle. `link` is the engine's own link
    /// ([`Self::link`] in the global array — the only link it ever
    /// touches); `txns`/`wstreams` are the arenas holding this DMA's
    /// in-flight records; `meter` accumulates read payload delivered to
    /// this master (write payload is counted at the slave; a copy's read
    /// leg is *not* metered — its payload is counted once, at the
    /// destination). Returns whether the engine remains active — i.e. must
    /// be stepped again next cycle even if no new beat arrives on its link
    /// (queued descriptors, an active transfer, or outstanding responses).
    /// The caller should also mark [`link`](Self::link) live, since a step
    /// may have pushed request or data beats into it.
    pub fn step(
        &mut self,
        link: &mut AxiLink,
        now: Cycle,
        txns: &mut Slab<InflightTransfer>,
        wstreams: &mut Slab<WStream>,
        meter: &mut ThroughputMeter,
    ) -> bool {
        // Write responses.
        if let Some(beat) = link.b.pop() {
            self.wr_guard.complete(beat.id);
            self.outstanding_wr -= 1;
            let h = self.active.expect("B for active transfer");
            txns[h].resp_pending -= 1;
        }
        // Read data.
        if let Some(beat) = link.r.pop() {
            let h = self.active.expect("R for active transfer");
            let active = &mut txns[h];
            match active.buffer_bytes {
                // Copy: received data feeds the write leg; not metered.
                Some(ref mut buf) => *buf += u64::from(beat.bytes),
                None => meter.record(now, u64::from(beat.bytes)),
            }
            if beat.last {
                self.rd_guard.complete(beat.id);
                self.outstanding_rd -= 1;
                active.resp_pending -= 1;
            }
        }
        // Transfer completion: retirement frees the arena slot.
        if let Some(h) = self.active {
            let active = &txns[h];
            if active.read_bursts.is_done()
                && active.write_bursts.is_done()
                && active.resp_pending == 0
                && self.w_streams.is_empty()
            {
                let active = txns.free(h);
                self.active = None;
                self.latency.record(now.saturating_sub(active.issued_at));
                self.finished.push(active.resolved.transfer.id);
                self.transfers_completed += 1;
                self.issue_allowed_at = now + Cycle::from(self.setup_cycles);
            }
        }
        // Start the next descriptor once the setup window has elapsed.
        if self.active.is_none() && now >= self.issue_allowed_at {
            if let Some(h) = self.queue.pop_front(txns) {
                let beat_bytes = self.params.bytes_per_beat();
                let active = &mut txns[h];
                let r = active.resolved;
                let (read_bursts, write_bursts, buffer, read_dst) = match r.transfer.kind {
                    TransferKind::Read => (
                        SplitCursor::new(r.addr, r.transfer.bytes, beat_bytes),
                        SplitCursor::empty(),
                        None,
                        r.transfer.dst,
                    ),
                    TransferKind::Write => (
                        SplitCursor::empty(),
                        SplitCursor::new(r.addr, r.transfer.bytes, beat_bytes),
                        None,
                        r.transfer.dst,
                    ),
                    TransferKind::Copy { src, .. } => (
                        SplitCursor::new(
                            r.src_addr.expect("engine resolved the copy source"),
                            r.transfer.bytes,
                            beat_bytes,
                        ),
                        SplitCursor::new(r.addr, r.transfer.bytes, beat_bytes),
                        Some(0),
                        src,
                    ),
                };
                active.issued_at = now;
                active.read_bursts = read_bursts;
                active.write_bursts = write_bursts;
                active.buffer_bytes = buffer;
                active.read_dst = read_dst;
                active.resp_pending = 0;
                self.active = Some(h);
            }
        }
        // Issue burst requests: at most one AR and one AW per cycle
        // (independent channels, independent outstanding budgets).
        let mot = self.params.max_outstanding();
        let ids = self.params.unique_ids() as u16;
        if let Some(h) = self.active {
            let active = &mut txns[h];
            if self.outstanding_rd < mot && !active.read_bursts.is_done() && link.ar.can_push() {
                let id = AxiId(self.next_id % ids);
                if self.rd_guard.may_issue(id, active.read_dst) {
                    let burst = active.read_bursts.next().expect("non-empty");
                    self.next_id = self.next_id.wrapping_add(1);
                    self.txn_serial += 1;
                    self.rd_guard.issue(id, active.read_dst);
                    self.outstanding_rd += 1;
                    active.resp_pending += 1;
                    link.ar.push(ReqBeat {
                        id,
                        dst: active.read_dst,
                        src: self.node,
                        beats: burst.num_beats() as u16,
                        bytes: burst.payload_bytes() as u32,
                        txn: self.txn_serial,
                        issued_at: active.issued_at,
                    });
                }
            }
            if self.outstanding_wr < mot && !active.write_bursts.is_done() && link.aw.can_push() {
                let dst = active.resolved.transfer.dst;
                let id = AxiId(self.next_id % ids);
                if self.wr_guard.may_issue(id, dst) {
                    let burst = active.write_bursts.next().expect("non-empty");
                    self.next_id = self.next_id.wrapping_add(1);
                    self.txn_serial += 1;
                    self.wr_guard.issue(id, dst);
                    self.outstanding_wr += 1;
                    active.resp_pending += 1;
                    let beat = ReqBeat {
                        id,
                        dst,
                        src: self.node,
                        beats: burst.num_beats() as u16,
                        bytes: burst.payload_bytes() as u32,
                        txn: self.txn_serial,
                        issued_at: active.issued_at,
                    };
                    link.aw.push(beat);
                    let wh = wstreams.alloc(WStream {
                        beats_left: beat.beats,
                        bytes_left: beat.bytes,
                        txn: beat.txn,
                    });
                    self.w_streams.push_back(wstreams, wh);
                }
            }
        }
        // Stream write data, one beat per cycle; a copy's W beats wait for
        // the corresponding read data to have arrived.
        if let Some(wh) = self.w_streams.front(wstreams) {
            if link.w.can_push() {
                let ws = &wstreams[wh];
                let bytes = ws.bytes_left.div_ceil(u32::from(ws.beats_left));
                let data_ready = match self.active.and_then(|h| txns[h].buffer_bytes) {
                    Some(buf) => buf >= u64::from(bytes),
                    None => true,
                };
                if data_ready {
                    if let Some(h) = self.active {
                        if let Some(buf) = &mut txns[h].buffer_bytes {
                            *buf -= u64::from(bytes);
                        }
                    }
                    let ws = &mut wstreams[wh];
                    ws.bytes_left -= bytes;
                    ws.beats_left -= 1;
                    let last = ws.beats_left == 0;
                    let txn = ws.txn;
                    link.w.push(DataBeat { bytes, last, txn });
                    if last {
                        self.w_streams.pop_front(wstreams);
                        wstreams.free(wh);
                    }
                }
            }
        }
        !self.is_idle()
    }

    /// Serializes the engine's dynamic state. The intrusive queues are
    /// flattened to their records **inline, in queue order** — slab handle
    /// indices are allocation accidents, so writing records (not handles)
    /// makes the encoding canonical across differently-fragmented arenas.
    pub(crate) fn encode_state(
        &self,
        e: &mut Encoder,
        txns: &Slab<InflightTransfer>,
        wstreams: &Slab<WStream>,
    ) {
        e.usize(self.queue.len());
        for h in self.queue.iter(txns) {
            encode_inflight(e, &txns[h]);
        }
        e.option(self.active.as_ref(), |e, h| encode_inflight(e, &txns[*h]));
        e.u32(self.outstanding_rd);
        e.u32(self.outstanding_wr);
        encode_guard(e, &self.rd_guard);
        encode_guard(e, &self.wr_guard);
        e.usize(self.w_streams.len());
        for h in self.w_streams.iter(wstreams) {
            let ws = &wstreams[h];
            e.u16(ws.beats_left);
            e.u32(ws.bytes_left);
            e.u64(ws.txn);
        }
        e.u16(self.next_id);
        e.u64(self.txn_serial);
        e.u64(self.issue_allowed_at);
        e.usize(self.finished.len());
        for &id in &self.finished {
            e.u64(id);
        }
        self.latency.encode(e);
        e.u64(self.transfers_completed);
    }

    /// Restores the state written by [`encode_state`](Self::encode_state)
    /// into this (freshly built) engine, re-allocating every record in the
    /// caller's arenas. Counters are cross-checked against the structures
    /// that must agree with them (guards, the active transfer's pending
    /// responses), so a crafted snapshot cannot underflow them later.
    pub(crate) fn restore_state(
        &mut self,
        d: &mut Decoder<'_>,
        txns: &mut Slab<InflightTransfer>,
        wstreams: &mut Slab<WStream>,
        nodes: usize,
    ) -> Result<(), SnapError> {
        let n = d.count("queued DMA transfers")?;
        for _ in 0..n {
            let rec = decode_inflight(d, nodes)?;
            let h = txns.alloc(rec);
            self.queue.push_back(txns, h);
        }
        self.active = d.option(|d| Ok(txns.alloc(decode_inflight(d, nodes)?)))?;
        self.outstanding_rd = d.u32()?;
        self.outstanding_wr = d.u32()?;
        self.rd_guard = decode_guard(d)?;
        self.wr_guard = decode_guard(d)?;
        if guard_inflight(&self.rd_guard) != u64::from(self.outstanding_rd)
            || guard_inflight(&self.wr_guard) != u64::from(self.outstanding_wr)
        {
            return Err(corrupt("DMA outstanding counters disagree with guards"));
        }
        let s = d.count("DMA write streams")?;
        for _ in 0..s {
            let ws = WStream {
                beats_left: d.u16()?,
                bytes_left: d.u32()?,
                txn: d.u64()?,
            };
            if ws.beats_left == 0 {
                return Err(corrupt("write stream with zero beats left"));
            }
            let h = wstreams.alloc(ws);
            self.w_streams.push_back(wstreams, h);
        }
        match self.active {
            Some(h) => {
                let expected = u64::from(self.outstanding_rd) + u64::from(self.outstanding_wr);
                if u64::from(txns[h].resp_pending) != expected {
                    return Err(corrupt("active transfer disagrees with outstanding counts"));
                }
            }
            None => {
                if self.outstanding_rd != 0
                    || self.outstanding_wr != 0
                    || !self.w_streams.is_empty()
                {
                    return Err(corrupt("in-flight traffic without an active transfer"));
                }
            }
        }
        self.next_id = d.u16()?;
        self.txn_serial = d.u64()?;
        self.issue_allowed_at = d.u64()?;
        let f = d.count("finished transfer ids")?;
        self.finished.clear();
        for _ in 0..f {
            self.finished.push(d.u64()?);
        }
        self.latency = Histogram::decode(d)?;
        self.transfers_completed = d.u64()?;
        Ok(())
    }
}

fn encode_inflight(e: &mut Encoder, t: &InflightTransfer) {
    let tr = &t.resolved.transfer;
    e.u64(tr.id);
    e.usize(tr.dst);
    e.u64(tr.offset);
    e.u64(tr.bytes);
    match tr.kind {
        TransferKind::Read => e.byte(0),
        TransferKind::Write => e.byte(1),
        TransferKind::Copy { src, src_offset } => {
            e.byte(2);
            e.usize(src);
            e.u64(src_offset);
        }
    }
    e.u64(t.resolved.addr);
    e.option(t.resolved.src_addr.as_ref(), |e, a| e.u64(*a));
    e.u64(t.issued_at);
    for c in [&t.read_bursts, &t.write_bursts] {
        let (cur, remaining, beat_bytes) = c.parts();
        e.u64(cur);
        e.u64(remaining);
        e.u64(beat_bytes);
    }
    e.option(t.buffer_bytes.as_ref(), |e, b| e.u64(*b));
    e.usize(t.read_dst);
    e.u32(t.resp_pending);
}

fn decode_inflight(d: &mut Decoder<'_>, nodes: usize) -> Result<InflightTransfer, SnapError> {
    let id = d.u64()?;
    let dst = d.usize()?;
    let offset = d.u64()?;
    let bytes = d.u64()?;
    let kind = match d.byte()? {
        0 => TransferKind::Read,
        1 => TransferKind::Write,
        2 => {
            let src = d.usize()?;
            if src >= nodes {
                return Err(corrupt("copy source out of range"));
            }
            TransferKind::Copy {
                src,
                src_offset: d.u64()?,
            }
        }
        _ => return Err(corrupt("unknown transfer kind")),
    };
    if dst >= nodes {
        return Err(corrupt("transfer destination out of range"));
    }
    let addr = d.u64()?;
    let src_addr = d.option(|d| d.u64())?;
    if matches!(kind, TransferKind::Copy { .. }) && src_addr.is_none() {
        return Err(corrupt("copy transfer without a source address"));
    }
    let issued_at = d.u64()?;
    let mut cursors = [SplitCursor::empty(); 2];
    for c in &mut cursors {
        let (cur, remaining, beat_bytes) = (d.u64()?, d.u64()?, d.u64()?);
        *c = SplitCursor::from_parts(cur, remaining, beat_bytes).map_err(corrupt)?;
    }
    let buffer_bytes = d.option(|d| d.u64())?;
    let read_dst = d.usize()?;
    if read_dst >= nodes {
        return Err(corrupt("read leg destination out of range"));
    }
    let resp_pending = d.u32()?;
    Ok(InflightTransfer {
        resolved: ResolvedTransfer {
            transfer: Transfer {
                id,
                dst,
                offset,
                bytes,
                kind,
            },
            addr,
            src_addr,
        },
        issued_at,
        read_bursts: cursors[0],
        write_bursts: cursors[1],
        buffer_bytes,
        read_dst,
        resp_pending,
    })
}

#[derive(Debug, Clone)]
struct WriteJob {
    id: AxiId,
    txn: u64,
}

#[derive(Debug, Clone)]
struct ReadJob {
    ready_at: Cycle,
    id: AxiId,
    beats: u16,
    bytes: u32,
    txn: u64,
}

/// The AXI memory slave endpoint.
///
/// A pipelined memory: accepts one AW and one AR per cycle (each bounded by
/// its own outstanding cap — a read backlog must not block the independent
/// write port, and vice versa), absorbs one W beat per cycle, and streams
/// one R beat per cycle after `latency` cycles, as in a dual-ported memory
/// tile with separate read/write transaction queues.
#[derive(Debug, Clone)]
pub struct MemorySlave {
    node: usize,
    link: usize,
    latency: u32,
    cap: u32,
    outstanding_rd: u32,
    outstanding_wr: u32,
    pending_w: VecDeque<WriteJob>,
    b_queue: VecDeque<(Cycle, RespBeat)>,
    read_q: VecDeque<ReadJob>,
    r_stream: Option<ReadJob>,
    write_bytes: u64,
}

impl MemorySlave {
    /// Creates a memory slave at `node`, serving link `link`.
    #[must_use]
    pub fn new(node: usize, link: usize, latency: u32, outstanding_cap: u32) -> Self {
        Self {
            node,
            link,
            latency,
            cap: outstanding_cap.max(1),
            outstanding_rd: 0,
            outstanding_wr: 0,
            pending_w: VecDeque::new(),
            b_queue: VecDeque::new(),
            read_q: VecDeque::new(),
            r_stream: None,
            write_bytes: 0,
        }
    }

    /// The node this memory sits at.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// The index of the link this memory serves (its only neighbour).
    #[must_use]
    pub fn link(&self) -> usize {
        self.link
    }

    /// Total write payload accepted (all time, not windowed).
    #[must_use]
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes
    }

    /// Whether the memory has no transaction in progress.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.outstanding_rd == 0 && self.outstanding_wr == 0
    }

    /// Advances one cycle. `link` is the memory's own link ([`Self::link`]
    /// in the global array — its only neighbour); `meter` accumulates
    /// write payload accepted here. Returns whether the memory remains
    /// active (transactions in progress); the caller should also mark
    /// [`link`](Self::link) live, since a step may have pushed response
    /// beats into it.
    pub fn step(&mut self, link: &mut AxiLink, now: Cycle, meter: &mut ThroughputMeter) -> bool {
        // Accept one write request.
        if self.outstanding_wr < self.cap {
            if let Some(beat) = link.aw.pop() {
                self.outstanding_wr += 1;
                self.pending_w.push_back(WriteJob {
                    id: beat.id,
                    txn: beat.txn,
                });
            }
        }
        // Accept one read request.
        if self.outstanding_rd < self.cap {
            if let Some(beat) = link.ar.pop() {
                self.outstanding_rd += 1;
                self.read_q.push_back(ReadJob {
                    ready_at: now + Cycle::from(self.latency),
                    id: beat.id,
                    beats: beat.beats,
                    bytes: beat.bytes,
                    txn: beat.txn,
                });
            }
        }
        // Absorb one write-data beat for the oldest accepted write.
        if let Some(job) = self.pending_w.front() {
            if let Some(beat) = link.w.pop() {
                debug_assert_eq!(beat.txn, job.txn, "W beats must follow AW order");
                meter.record(now, u64::from(beat.bytes));
                self.write_bytes += u64::from(beat.bytes);
                if beat.last {
                    self.b_queue.push_back((
                        now + Cycle::from(self.latency),
                        RespBeat {
                            id: job.id,
                            bytes: 0,
                            last: true,
                            txn: job.txn,
                        },
                    ));
                    self.pending_w.pop_front();
                }
            }
        }
        // Send one write response.
        if let Some(&(ready, beat)) = self.b_queue.front() {
            if ready <= now && link.b.can_push() {
                link.b.push(beat);
                self.b_queue.pop_front();
                self.outstanding_wr -= 1;
            }
        }
        // Start the next read burst once its latency elapsed.
        if self.r_stream.is_none() {
            if let Some(job) = self.read_q.front() {
                if job.ready_at <= now {
                    self.r_stream = self.read_q.pop_front();
                }
            }
        }
        // Stream one read-data beat.
        if let Some(job) = &mut self.r_stream {
            if link.r.can_push() {
                let bytes = job.bytes.div_ceil(u32::from(job.beats));
                job.bytes -= bytes;
                job.beats -= 1;
                let last = job.beats == 0;
                link.r.push(RespBeat {
                    id: job.id,
                    bytes,
                    last,
                    txn: job.txn,
                });
                if last {
                    self.r_stream = None;
                    self.outstanding_rd -= 1;
                }
            }
        }
        !self.is_idle()
    }

    /// Serializes the memory's dynamic state (transaction queues, streaming
    /// read, counters). Geometry (`node`, `link`, `latency`, `cap`) comes
    /// from configuration and is not serialized.
    pub(crate) fn encode_state(&self, e: &mut Encoder) {
        e.u32(self.outstanding_rd);
        e.u32(self.outstanding_wr);
        e.usize(self.pending_w.len());
        for job in &self.pending_w {
            e.u16(job.id.0);
            e.u64(job.txn);
        }
        e.usize(self.b_queue.len());
        for (ready, beat) in &self.b_queue {
            e.u64(*ready);
            encode_resp(e, beat);
        }
        e.usize(self.read_q.len());
        for job in &self.read_q {
            encode_read_job(e, job);
        }
        e.option(self.r_stream.as_ref(), encode_read_job);
        e.u64(self.write_bytes);
    }

    /// Restores the state written by [`encode_state`](Self::encode_state),
    /// cross-checking the outstanding counters against the queues they
    /// summarize so a crafted snapshot cannot underflow them later.
    pub(crate) fn restore_state(&mut self, d: &mut Decoder<'_>) -> Result<(), SnapError> {
        self.outstanding_rd = d.u32()?;
        self.outstanding_wr = d.u32()?;
        if self.outstanding_rd > self.cap || self.outstanding_wr > self.cap {
            return Err(corrupt("memory outstanding counter exceeds its cap"));
        }
        let n = d.count("pending write jobs")?;
        for _ in 0..n {
            self.pending_w.push_back(WriteJob {
                id: AxiId(d.u16()?),
                txn: d.u64()?,
            });
        }
        let n = d.count("write response queue")?;
        for _ in 0..n {
            self.b_queue.push_back((d.u64()?, decode_resp(d)?));
        }
        let n = d.count("read queue")?;
        for _ in 0..n {
            self.read_q.push_back(decode_read_job(d)?);
        }
        self.r_stream = d.option(decode_read_job)?;
        if usize::try_from(self.outstanding_wr) != Ok(self.pending_w.len() + self.b_queue.len()) {
            return Err(corrupt("memory write-outstanding counter mismatch"));
        }
        let reads = self.read_q.len() + usize::from(self.r_stream.is_some());
        if usize::try_from(self.outstanding_rd) != Ok(reads) {
            return Err(corrupt("memory read-outstanding counter mismatch"));
        }
        self.write_bytes = d.u64()?;
        Ok(())
    }
}

fn encode_read_job(e: &mut Encoder, j: &ReadJob) {
    e.u64(j.ready_at);
    e.u16(j.id.0);
    e.u16(j.beats);
    e.u32(j.bytes);
    e.u64(j.txn);
}

fn decode_read_job(d: &mut Decoder<'_>) -> Result<ReadJob, SnapError> {
    let job = ReadJob {
        ready_at: d.u64()?,
        id: AxiId(d.u16()?),
        beats: d.u16()?,
        bytes: d.u32()?,
        txn: d.u64()?,
    };
    if job.beats == 0 {
        return Err(corrupt("read job with zero beats"));
    }
    Ok(job)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire() -> Vec<AxiLink> {
        vec![AxiLink::new(1)]
    }

    fn transfer(bytes: u64, kind: TransferKind) -> ResolvedTransfer {
        let src_addr = match kind {
            TransferKind::Copy { .. } => Some(0x9000_0000),
            _ => None,
        };
        ResolvedTransfer {
            transfer: Transfer {
                id: 1,
                dst: 2,
                offset: 0,
                bytes,
                kind,
            },
            addr: 0x8000_0000,
            src_addr,
        }
    }

    /// The arenas every endpoint test threads through the DMA.
    fn arenas() -> (Slab<InflightTransfer>, Slab<WStream>) {
        (Slab::new(), Slab::new())
    }

    fn enqueue(dma: &mut DmaEngine, txns: &mut Slab<InflightTransfer>, r: ResolvedTransfer) {
        let h = txns.alloc(InflightTransfer::new(r));
        dma.enqueue(txns, h);
    }

    /// Runs a DMA directly wired to a memory (no XPs) to completion.
    fn run_direct(bytes: u64, kind: TransferKind) -> (u64, u64, Cycle) {
        let mut links = wire();
        let (mut txns, mut wstreams) = arenas();
        let mut dma = DmaEngine::new(0, 0, AxiParams::slim(), 4);
        let mut mem = MemorySlave::new(2, 0, 5, 64);
        let mut meter = ThroughputMeter::new(0);
        enqueue(&mut dma, &mut txns, transfer(bytes, kind));
        let mut now = 0;
        while !dma.is_idle() {
            for l in &mut links {
                l.begin_cycle();
            }
            dma.step(&mut links[0], now, &mut txns, &mut wstreams, &mut meter);
            mem.step(&mut links[0], now, &mut meter);
            now += 1;
            assert!(now < 1_000_000, "no forward progress");
        }
        assert!(txns.is_empty(), "record freed on retirement");
        assert!(wstreams.is_empty(), "W streams freed on completion");
        (meter.bytes(), mem.write_bytes(), now)
    }

    #[test]
    fn write_moves_exact_bytes() {
        let (metered, at_slave, _) = run_direct(1000, TransferKind::Write);
        assert_eq!(metered, 1000);
        assert_eq!(at_slave, 1000);
    }

    #[test]
    fn read_moves_exact_bytes() {
        let (metered, at_slave, _) = run_direct(4096, TransferKind::Read);
        assert_eq!(metered, 4096);
        assert_eq!(at_slave, 0);
    }

    #[test]
    fn large_write_streams_near_line_rate() {
        // 64 KiB over a 4-byte bus = 16384 beats; with pipelined bursts the
        // total time must be close to one beat per cycle.
        let (_, _, cycles) = run_direct(65536, TransferKind::Write);
        let beats = 65536 / 4;
        assert!(
            cycles < beats + 500,
            "took {cycles} cycles for {beats} beats"
        );
    }

    #[test]
    fn tiny_transfer_is_latency_bound() {
        let (_, _, cycles) = run_direct(4, TransferKind::Write);
        // One beat but a full request/response round trip.
        assert!(cycles > 5, "unrealistically fast: {cycles}");
        assert!(cycles < 50, "unreasonably slow: {cycles}");
    }

    #[test]
    fn copy_streams_through_and_counts_once() {
        // A copy between two memories behind the same link (the slave
        // serves both regions here): payload crosses twice, counted once.
        let (metered, at_slave, cycles) = run_direct(
            2048,
            TransferKind::Copy {
                src: 2,
                src_offset: 0,
            },
        );
        assert_eq!(metered, 2048, "counted once, at the destination");
        assert_eq!(at_slave, 2048, "write leg delivered everything");
        // R and W channels are independent, so the legs overlap: the copy
        // takes about one beat-time (512 beats) plus pipeline fill, not two.
        assert!(cycles >= 512, "{cycles} cycles");
        assert!(
            cycles < 512 + 100,
            "{cycles} cycles — legs failed to overlap"
        );
    }

    #[test]
    fn copy_read_leg_not_double_counted() {
        let (metered, _, _) = run_direct(
            100,
            TransferKind::Copy {
                src: 2,
                src_offset: 4096,
            },
        );
        assert_eq!(metered, 100);
    }

    #[test]
    fn completion_reported_once() {
        let mut links = wire();
        let (mut txns, mut wstreams) = arenas();
        let mut dma = DmaEngine::new(0, 0, AxiParams::slim(), 2);
        let mut mem = MemorySlave::new(2, 0, 3, 16);
        let mut meter = ThroughputMeter::new(0);
        enqueue(&mut dma, &mut txns, transfer(64, TransferKind::Read));
        let mut finished: Vec<u64> = Vec::new();
        let mut scratch = Vec::new();
        for now in 0..200 {
            for l in &mut links {
                l.begin_cycle();
            }
            dma.step(&mut links[0], now, &mut txns, &mut wstreams, &mut meter);
            mem.step(&mut links[0], now, &mut meter);
            dma.drain_finished(&mut scratch);
            finished.extend(&scratch);
        }
        assert_eq!(finished, vec![1]);
        assert_eq!(dma.transfers_completed(), 1);
    }

    #[test]
    fn setup_cost_separates_descriptors() {
        let mut links = wire();
        let (mut txns, mut wstreams) = arenas();
        let mut dma = DmaEngine::new(0, 0, AxiParams::slim(), 20);
        let mut mem = MemorySlave::new(2, 0, 1, 16);
        let mut meter = ThroughputMeter::new(0);
        enqueue(&mut dma, &mut txns, transfer(4, TransferKind::Write));
        enqueue(&mut dma, &mut txns, transfer(4, TransferKind::Write));
        let mut completion_times = Vec::new();
        let mut scratch = Vec::new();
        for now in 0..500 {
            for l in &mut links {
                l.begin_cycle();
            }
            dma.step(&mut links[0], now, &mut txns, &mut wstreams, &mut meter);
            mem.step(&mut links[0], now, &mut meter);
            dma.drain_finished(&mut scratch);
            if !scratch.is_empty() {
                completion_times.push(now);
            }
        }
        assert_eq!(completion_times.len(), 2);
        // Second completion at least setup + round trip after the first.
        assert!(completion_times[1] - completion_times[0] >= 20);
    }

    #[test]
    fn mot_limits_outstanding_bursts() {
        let params = AxiParams::slim().with_max_outstanding(2).unwrap();
        let mut links = wire();
        let (mut txns, mut wstreams) = arenas();
        let mut dma = DmaEngine::new(0, 0, params, 0);
        // A slave that never answers: outstanding must stop at MOT.
        enqueue(&mut dma, &mut txns, transfer(64 * 1024, TransferKind::Read));
        let mut meter = ThroughputMeter::new(0);
        for now in 0..100 {
            for l in &mut links {
                l.begin_cycle();
            }
            dma.step(&mut links[0], now, &mut txns, &mut wstreams, &mut meter);
            // Drain AR so channel space is never the limit.
            if now % 2 == 0 {
                links[0].ar.pop();
            }
        }
        assert_eq!(dma.outstanding_rd, 2);
    }

    #[test]
    fn memory_cap_backpressures_requests() {
        let mut links = wire();
        let mut mem = MemorySlave::new(2, 0, 1000, 2);
        let mut meter = ThroughputMeter::new(0);
        for now in 0u64..20 {
            for l in &mut links {
                l.begin_cycle();
            }
            if links[0].ar.can_push() {
                links[0].ar.push(ReqBeat {
                    id: AxiId(now as u16 % 16),
                    dst: 2,
                    src: 0,
                    beats: 1,
                    bytes: 4,
                    txn: now,
                    issued_at: 0,
                });
            }
            mem.step(&mut links[0], now, &mut meter);
        }
        // Huge latency means nothing completes: exactly 2 accepted.
        assert_eq!(mem.outstanding_rd, 2);
    }

    #[test]
    fn read_latency_respected() {
        let mut links = wire();
        let mut mem = MemorySlave::new(2, 0, 25, 8);
        let mut meter = ThroughputMeter::new(0);
        links[0].begin_cycle();
        links[0].ar.push(ReqBeat {
            id: AxiId(0),
            dst: 2,
            src: 0,
            beats: 1,
            bytes: 4,
            txn: 0,
            issued_at: 0,
        });
        let mut first_r = None;
        for now in 0..100 {
            for l in &mut links {
                l.begin_cycle();
            }
            mem.step(&mut links[0], now, &mut meter);
            if first_r.is_none() && links[0].r.pop().is_some() {
                first_r = Some(now);
            }
        }
        assert!(first_r.expect("R arrived") >= 25);
    }

    #[test]
    fn slab_telemetry_counts_transfers() {
        let mut links = wire();
        let (mut txns, mut wstreams) = arenas();
        let mut dma = DmaEngine::new(0, 0, AxiParams::slim(), 0);
        let mut mem = MemorySlave::new(2, 0, 3, 16);
        let mut meter = ThroughputMeter::new(0);
        for _ in 0..3 {
            enqueue(&mut dma, &mut txns, transfer(64, TransferKind::Write));
        }
        assert_eq!(txns.high_water(), 3, "all three queued at once");
        let mut now = 0;
        while !dma.is_idle() {
            for l in &mut links {
                l.begin_cycle();
            }
            dma.step(&mut links[0], now, &mut txns, &mut wstreams, &mut meter);
            mem.step(&mut links[0], now, &mut meter);
            now += 1;
            assert!(now < 10_000);
        }
        assert_eq!(txns.allocs(), 3, "one allocation per transfer");
        assert!(txns.is_empty(), "all records retired");
    }
}

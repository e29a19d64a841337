//! AXI links: five independent channels with register-slice pipelining.
//!
//! One [`AxiLink`] is a full AXI interface between a master-side and a
//! slave-side component: AW, W and AR flow forward; B and R flow backward.
//! Each channel is a chain of registered stages ([`Channel`]); the default
//! of one stage models the paper's "register slice on every AXI channel"
//! used to close 1 GHz timing, and extra stages model additional cuts
//! inserted for long wires (the Table I "Register Slice" parameter).
//!
//! A stage is a depth-2 ring with [`simkit::Fifo`]'s two-phase discipline,
//! stored inline: the first stage lives inside the channel and only extra
//! cuts go on the heap, so the default link holds no heap storage at all.
//! Stages snapshot in `Fifo`'s byte format, so checkpoints are unchanged.

use axi::AxiId;
use simkit::Cycle;

/// A request beat (the content of one AW or AR transfer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqBeat {
    /// Wire transaction ID (remapped hop by hop).
    pub id: AxiId,
    /// Destination endpoint index (from address decode).
    pub dst: usize,
    /// Originating master endpoint (metadata for statistics only).
    pub src: usize,
    /// Number of data beats in the burst (`AxLEN + 1`).
    pub beats: u16,
    /// Payload bytes the burst carries.
    pub bytes: u32,
    /// Global transaction serial (metadata for tracking only).
    pub txn: u64,
    /// Cycle the original transfer was issued (for latency statistics).
    pub issued_at: Cycle,
}

/// A write-data beat (W channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataBeat {
    /// Valid payload bytes in this beat.
    pub bytes: u32,
    /// Last beat of the burst (`WLAST`).
    pub last: bool,
    /// Transaction serial (metadata).
    pub txn: u64,
}

/// A response beat (B channel: one per write burst; R channel: one per read
/// data beat).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RespBeat {
    /// Wire transaction ID (on the link where the beat currently travels).
    pub id: AxiId,
    /// Valid payload bytes (R beats only; 0 for B).
    pub bytes: u32,
    /// Last beat of the burst (`RLAST`; always true for B).
    pub last: bool,
    /// Transaction serial (metadata).
    pub txn: u64,
}

/// One register slice: a depth-2 two-phase ring stored inline.
///
/// It follows [`simkit::Fifo`]'s discipline exactly (a beat pushed in
/// cycle *t* is poppable from *t+1*; a slot freed by a pop is pushable
/// from *t+1*), specialised to the fixed depth of 2 that sustains one beat
/// per cycle, so a channel needs no heap storage of its own.
#[derive(Debug, Clone)]
struct Slice<T> {
    slots: [Option<T>; 2],
    /// Ring index of the head beat.
    head: u8,
    /// Beats held (raw view, including this cycle's pushes).
    len: u8,
    /// Beats that existed at the start of the cycle (poppable now).
    snap_len: u8,
    /// Slots that were free at the start of the cycle (pushable now).
    snap_free: u8,
}

impl<T> Slice<T> {
    const DEPTH: u8 = 2;

    /// An empty slice; like a fresh `Fifo`, nothing is pushable before its
    /// first [`begin_cycle`](Self::begin_cycle).
    const fn new() -> Self {
        Self {
            slots: [None, None],
            head: 0,
            len: 0,
            snap_len: 0,
            snap_free: 0,
        }
    }

    fn begin_cycle(&mut self) {
        self.snap_len = self.len;
        self.snap_free = Self::DEPTH - self.len;
    }

    fn can_push(&self) -> bool {
        self.snap_free > 0
    }

    fn push(&mut self, v: T) {
        assert!(self.snap_free > 0, "push on full channel");
        self.snap_free -= 1;
        self.slots[usize::from((self.head + self.len) % Self::DEPTH)] = Some(v);
        self.len += 1;
    }

    fn can_pop(&self) -> bool {
        self.snap_len > 0
    }

    fn peek(&self) -> Option<&T> {
        if self.snap_len > 0 {
            self.slots[usize::from(self.head)].as_ref()
        } else {
            None
        }
    }

    fn pop(&mut self) -> Option<T> {
        if self.snap_len == 0 {
            return None;
        }
        self.snap_len -= 1;
        self.len -= 1;
        let v = self.slots[usize::from(self.head)].take();
        self.head = (self.head + 1) % Self::DEPTH;
        v
    }

    fn is_idle(&self) -> bool {
        self.len == 0 && self.snap_len == 0 && self.snap_free == Self::DEPTH
    }

    /// Moves this slice's head beat into `next` if the two-phase
    /// handshake between them allows it this cycle.
    fn advance_into(&mut self, next: &mut Self) {
        if next.can_push() {
            if let Some(v) = self.pop() {
                next.push(v);
            }
        }
    }

    /// Writes the slice in `Fifo`'s snapshot format: capacity, the
    /// two-phase counters, the length and the beats head-first.
    fn encode_with(
        &self,
        e: &mut simkit::snap::Encoder,
        f: &mut impl FnMut(&mut simkit::snap::Encoder, &T),
    ) {
        e.usize(usize::from(Self::DEPTH));
        e.usize(usize::from(self.snap_len));
        e.usize(usize::from(self.snap_free));
        e.usize(usize::from(self.len));
        for k in 0..self.len {
            let slot = &self.slots[usize::from((self.head + k) % Self::DEPTH)];
            f(e, slot.as_ref().expect("occupied slot"));
        }
    }

    /// Reads a slice written by [`encode_with`](Self::encode_with) (or by
    /// `Fifo::encode_with` for a depth-2 FIFO), rejecting the same
    /// inconsistent counters `Fifo::decode_with` rejects.
    fn decode_with(
        d: &mut simkit::snap::Decoder<'_>,
        f: &mut impl FnMut(&mut simkit::snap::Decoder<'_>) -> Result<T, simkit::snap::SnapError>,
    ) -> Result<Self, simkit::snap::SnapError> {
        use simkit::snap::SnapError;
        if d.usize()? != usize::from(Self::DEPTH) {
            return Err(SnapError::Corrupt("fifo capacity mismatch"));
        }
        let snap_len = d.usize()?;
        let snap_free = d.usize()?;
        let len = d.count("fifo occupancy")?;
        if snap_len > len {
            return Err(SnapError::Corrupt("fifo snapshot out of bounds"));
        }
        if len
            .checked_add(snap_free)
            .is_none_or(|n| n > usize::from(Self::DEPTH))
        {
            return Err(SnapError::Corrupt("fifo occupancy out of bounds"));
        }
        let mut s = Self::new();
        for _ in 0..len {
            s.slots[usize::from(s.len)] = Some(f(d)?);
            s.len += 1;
        }
        s.snap_len = u8::try_from(snap_len).expect("snap_len <= len <= DEPTH");
        s.snap_free = u8::try_from(snap_free).expect("snap_free <= DEPTH");
        Ok(s)
    }
}

/// A registered channel: a chain of depth-2 register slices, each adding
/// one cycle of latency at full throughput. The producer-end slice is
/// stored inline; only extra cuts (`link_stages > 1`) live on the heap.
#[derive(Debug, Clone)]
pub struct Channel<T> {
    /// The producer-end slice (the consumer end too when it is the only
    /// one).
    first: Slice<T>,
    /// Further slices towards the consumer, in order.
    rest: Vec<Slice<T>>,
}

impl<T> Channel<T> {
    /// Creates a channel with `stages ≥ 1` register slices.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero (a combinational link cannot exist in the
    /// two-phase model; the paper's synthesized design also registers every
    /// channel).
    #[must_use]
    pub fn new(stages: usize) -> Self {
        assert!(stages >= 1, "need at least one register stage");
        Self {
            first: Slice::new(),
            rest: (1..stages).map(|_| Slice::new()).collect(),
        }
    }

    /// Starts a cycle: snapshots all stages and moves beats one stage
    /// forward (stage i → i+1). Returns whether the channel still holds
    /// beats — `false` means it is now quiescent ([`is_idle`](Self::is_idle)
    /// holds: the snapshot was just refreshed on empty stages), so the
    /// activity scheduler may skip it until a producer pushes again. The
    /// liveness falls out of the snapshot walk for free, which keeps the
    /// saturated hot path as fast as the unconditional sweep.
    pub fn begin_cycle(&mut self) -> bool {
        self.first.begin_cycle();
        let mut occupied = self.first.len > 0;
        for s in &mut self.rest {
            s.begin_cycle();
            occupied |= s.len > 0;
        }
        // Advance the internal pipeline back to front so a beat moves at
        // most one stage per cycle (total occupancy is unchanged).
        for i in (1..self.rest.len()).rev() {
            let (front, back) = self.rest.split_at_mut(i);
            front[i - 1].advance_into(&mut back[0]);
        }
        if let Some(next) = self.rest.first_mut() {
            self.first.advance_into(next);
        }
        occupied
    }

    /// The consumer-end slice.
    fn last(&self) -> &Slice<T> {
        self.rest.last().unwrap_or(&self.first)
    }

    /// Whether the producer can push this cycle.
    #[must_use]
    pub fn can_push(&self) -> bool {
        self.first.can_push()
    }

    /// Pushes a beat into the first stage.
    ///
    /// # Panics
    ///
    /// Panics if the channel is not ready; callers must check
    /// [`can_push`](Self::can_push).
    pub fn push(&mut self, v: T) {
        self.first.push(v);
    }

    /// Whether the consumer can pop this cycle.
    #[must_use]
    pub fn can_pop(&self) -> bool {
        self.last().can_pop()
    }

    /// The beat at the consumer end, if any.
    #[must_use]
    pub fn peek(&self) -> Option<&T> {
        self.last().peek()
    }

    /// Pops the beat at the consumer end.
    pub fn pop(&mut self) -> Option<T> {
        match self.rest.last_mut() {
            Some(s) => s.pop(),
            None => self.first.pop(),
        }
    }

    /// All slices, producer end first.
    fn slices(&self) -> impl Iterator<Item = &Slice<T>> {
        std::iter::once(&self.first).chain(&self.rest)
    }

    /// Total beats currently in flight inside the channel.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.slices().map(|s| usize::from(s.len)).sum()
    }

    /// Whether the channel holds no beats.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slices().all(|s| s.len == 0)
    }

    /// Whether the channel is *quiescent*: every stage is empty with a
    /// fully refreshed snapshot (as [`simkit::Fifo::is_idle`]), so the
    /// next [`begin_cycle`](Self::begin_cycle) — snapshot plus pipeline
    /// advance — would be a no-op. This is what lets the activity-driven
    /// engine skip the channel without changing any observable behaviour.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.slices().all(Slice::is_idle)
    }

    /// Serializes every stage (producer end first) into a snapshot,
    /// including the two-phase cycle counters — a mid-cycle channel
    /// restores to exactly the same push/pop affordances. Each stage is
    /// written byte for byte as a depth-2 `simkit::Fifo` would be.
    pub(crate) fn encode_with(
        &self,
        e: &mut simkit::snap::Encoder,
        mut f: impl FnMut(&mut simkit::snap::Encoder, &T),
    ) {
        for s in self.slices() {
            s.encode_with(e, &mut f);
        }
    }

    /// Decodes a channel written by [`encode_with`](Self::encode_with)
    /// with the target wiring's stage count (pinned by the snapshot shape
    /// fingerprint, revalidated per stage by the depth-2 capacity check).
    pub(crate) fn decode_with(
        d: &mut simkit::snap::Decoder<'_>,
        stages: usize,
        mut f: impl FnMut(&mut simkit::snap::Decoder<'_>) -> Result<T, simkit::snap::SnapError>,
    ) -> Result<Self, simkit::snap::SnapError> {
        debug_assert!(stages >= 1, "channels always have a register stage");
        let first = Slice::decode_with(d, &mut f)?;
        let rest = (1..stages)
            .map(|_| Slice::decode_with(d, &mut f))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { first, rest })
    }
}

/// One AXI interface: AW/W/AR forward, B/R backward.
///
/// "Forward" is the master→slave direction: the component on the master
/// side pushes AW/W/AR and pops B/R; the slave side does the opposite.
#[derive(Debug, Clone)]
pub struct AxiLink {
    /// Write-address channel (forward).
    pub aw: Channel<ReqBeat>,
    /// Write-data channel (forward).
    pub w: Channel<DataBeat>,
    /// Read-address channel (forward).
    pub ar: Channel<ReqBeat>,
    /// Write-response channel (backward).
    pub b: Channel<RespBeat>,
    /// Read-data channel (backward).
    pub r: Channel<RespBeat>,
}

impl AxiLink {
    /// Creates a link with `stages` register slices on every channel.
    #[must_use]
    pub fn new(stages: usize) -> Self {
        Self {
            aw: Channel::new(stages),
            w: Channel::new(stages),
            ar: Channel::new(stages),
            b: Channel::new(stages),
            r: Channel::new(stages),
        }
    }

    /// Starts a simulation cycle on all five channels. Returns whether any
    /// channel still holds beats (the link must stay hot); `false` means
    /// the link is now quiescent ([`is_quiescent`](Self::is_quiescent)).
    pub fn begin_cycle(&mut self) -> bool {
        let mut live = self.aw.begin_cycle();
        live |= self.w.begin_cycle();
        live |= self.ar.begin_cycle();
        live |= self.b.begin_cycle();
        live |= self.r.begin_cycle();
        live
    }

    /// Whether every channel is empty (used for drain detection).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.aw.is_empty()
            && self.w.is_empty()
            && self.ar.is_empty()
            && self.b.is_empty()
            && self.r.is_empty()
    }

    /// Whether every channel is quiescent ([`Channel::is_idle`]): stronger
    /// than [`is_idle`](Self::is_idle), because it also requires the cycle
    /// snapshots to be refreshed. A quiescent link can safely be skipped
    /// by [`begin_cycle`](Self::begin_cycle) with no observable effect.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.aw.is_idle()
            && self.w.is_idle()
            && self.ar.is_idle()
            && self.b.is_idle()
            && self.r.is_idle()
    }

    /// Serializes all five channels (AW, W, AR, B, R — fixed order) into a
    /// snapshot.
    pub(crate) fn encode(&self, e: &mut simkit::snap::Encoder) {
        use crate::snapcodec::{encode_data, encode_req, encode_resp};
        self.aw.encode_with(e, encode_req);
        self.w.encode_with(e, encode_data);
        self.ar.encode_with(e, encode_req);
        self.b.encode_with(e, encode_resp);
        self.r.encode_with(e, encode_resp);
    }

    /// Decodes a link written by [`encode`](Self::encode), validating every
    /// beat against the target topology (`nodes` endpoints).
    pub(crate) fn decode(
        d: &mut simkit::snap::Decoder<'_>,
        stages: usize,
        nodes: usize,
    ) -> Result<Self, simkit::snap::SnapError> {
        use crate::snapcodec::{decode_data, decode_req, decode_resp};
        Ok(Self {
            aw: Channel::decode_with(d, stages, |d| decode_req(d, nodes))?,
            w: Channel::decode_with(d, stages, decode_data)?,
            ar: Channel::decode_with(d, stages, |d| decode_req(d, nodes))?,
            b: Channel::decode_with(d, stages, decode_resp)?,
            r: Channel::decode_with(d, stages, decode_resp)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simkit::snap::{DecodeLimits, Decoder, Encoder, SnapError};
    use simkit::Fifo;

    fn beat(bytes: u32, last: bool) -> DataBeat {
        DataBeat {
            bytes,
            last,
            txn: 0,
        }
    }

    #[test]
    fn single_stage_one_cycle_latency() {
        let mut ch: Channel<DataBeat> = Channel::new(1);
        ch.begin_cycle();
        ch.push(beat(4, false));
        assert!(ch.pop().is_none());
        ch.begin_cycle();
        assert!(ch.pop().is_some());
    }

    #[test]
    fn n_stages_n_cycle_latency() {
        for stages in 1..5usize {
            let mut ch: Channel<DataBeat> = Channel::new(stages);
            ch.begin_cycle();
            ch.push(beat(1, true));
            let mut cycles = 0;
            loop {
                ch.begin_cycle();
                cycles += 1;
                if ch.pop().is_some() {
                    break;
                }
                assert!(cycles < 20);
            }
            assert_eq!(cycles, stages, "stages={stages}");
        }
    }

    #[test]
    fn full_throughput_through_multi_stage() {
        let mut ch: Channel<u64> = Channel::new(3);
        let mut sent = 0u64;
        let mut got = Vec::new();
        for _ in 0..200 {
            ch.begin_cycle();
            if let Some(v) = ch.pop() {
                got.push(v);
            }
            if ch.can_push() {
                ch.push(sent);
                sent += 1;
            }
        }
        // After the 3-cycle fill, one beat per cycle, in order.
        assert!(got.len() >= 195);
        assert!(got.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn backpressure_propagates_upstream() {
        let mut ch: Channel<u64> = Channel::new(2);
        // Fill without draining: capacity = 2 stages × depth 2 = 4.
        let mut pushed = 0;
        for _ in 0..10 {
            ch.begin_cycle();
            if ch.can_push() {
                ch.push(pushed);
                pushed += 1;
            }
        }
        assert_eq!(pushed, 4);
        assert_eq!(ch.occupancy(), 4);
    }

    #[test]
    fn link_idle_detection() {
        let mut l = AxiLink::new(1);
        assert!(l.is_idle());
        l.begin_cycle();
        l.w.push(beat(4, true));
        assert!(!l.is_idle());
        l.begin_cycle();
        l.w.pop();
        assert!(l.is_idle());
    }

    #[test]
    #[should_panic(expected = "at least one register stage")]
    fn zero_stages_rejected() {
        let _ = Channel::<u64>::new(0);
    }

    #[test]
    fn quiescence_is_stricter_than_emptiness() {
        let mut l = AxiLink::new(2);
        // Fresh link: empty, but snapshots are unrefreshed.
        assert!(l.is_idle());
        assert!(!l.is_quiescent());
        l.begin_cycle();
        assert!(l.is_quiescent());
        // Carrying a beat: neither.
        l.w.push(beat(4, true));
        assert!(!l.is_idle());
        assert!(!l.is_quiescent());
        // Drain it: empty again, but the stale snapshot still needs one
        // more begin_cycle before the link may be skipped.
        l.begin_cycle();
        l.begin_cycle();
        assert!(l.w.pop().is_some());
        assert!(l.is_idle());
        assert!(!l.is_quiescent());
        l.begin_cycle();
        assert!(l.is_quiescent());
    }

    /// The reference channel: a chain of depth-2 `simkit::Fifo`s, the
    /// representation the inline slices replace.
    struct FifoChain(Vec<Fifo<u64>>);

    impl FifoChain {
        fn new(stages: usize) -> Self {
            Self((0..stages).map(|_| Fifo::new(2)).collect())
        }

        fn begin_cycle(&mut self) -> bool {
            let mut occupied = false;
            for s in &mut self.0 {
                s.begin_cycle();
                occupied |= !s.is_empty();
            }
            for i in (0..self.0.len() - 1).rev() {
                if self.0[i + 1].can_push() && self.0[i].can_pop() {
                    let v = self.0[i].pop().unwrap();
                    self.0[i + 1].push(v).unwrap();
                }
            }
            occupied
        }

        fn last(&self) -> &Fifo<u64> {
            self.0.last().unwrap()
        }

        fn encode(&self, e: &mut Encoder) {
            for s in &self.0 {
                s.encode_with(e, |e, &v| e.u64(v));
            }
        }
    }

    fn encoded(ch: &Channel<u64>) -> Vec<u8> {
        let mut e = Encoder::new(0, 0);
        ch.encode_with(&mut e, |e, &v| e.u64(v));
        e.finish()
    }

    fn decode(bytes: &[u8], stages: usize) -> Result<Channel<u64>, SnapError> {
        let mut d = Decoder::new(bytes, 0, 0, DecodeLimits::default()).unwrap();
        let ch = Channel::decode_with(&mut d, stages, |d| d.u64())?;
        d.finish()?;
        Ok(ch)
    }

    /// One step of a channel schedule.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        BeginCycle,
        Push(u64),
        Pop,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::BeginCycle),
            any::<u64>().prop_map(Op::Push),
            Just(Op::Pop),
        ]
    }

    proptest! {
        /// The inline channel is observably the `Fifo` chain it replaces:
        /// same affordances, same beats, same snapshot bytes, after every
        /// operation of any schedule, and every state round-trips.
        #[test]
        fn inline_channel_matches_fifo_chain(
            stages in 1usize..5,
            schedule in prop::collection::vec(op(), 1..160),
        ) {
            let mut ch: Channel<u64> = Channel::new(stages);
            let mut reference = FifoChain::new(stages);
            for op in schedule {
                match op {
                    Op::BeginCycle => {
                        prop_assert_eq!(ch.begin_cycle(), reference.begin_cycle());
                    }
                    Op::Push(v) => {
                        if reference.0[0].can_push() {
                            ch.push(v);
                            reference.0[0].push(v).unwrap();
                        }
                    }
                    Op::Pop => {
                        prop_assert_eq!(ch.pop(), reference.0.last_mut().unwrap().pop());
                    }
                }
                prop_assert_eq!(ch.can_push(), reference.0[0].can_push());
                prop_assert_eq!(ch.can_pop(), reference.last().can_pop());
                prop_assert_eq!(ch.peek(), reference.last().peek());
                prop_assert_eq!(
                    ch.occupancy(),
                    reference.0.iter().map(Fifo::len).sum::<usize>()
                );
                prop_assert_eq!(ch.is_empty(), reference.0.iter().all(Fifo::is_empty));
                prop_assert_eq!(ch.is_idle(), reference.0.iter().all(Fifo::is_idle));
                let bytes = encoded(&ch);
                let mut e = Encoder::new(0, 0);
                reference.encode(&mut e);
                prop_assert_eq!(&bytes, &e.finish());
                let restored = decode(&bytes, stages).expect("valid encoding decodes");
                prop_assert_eq!(encoded(&restored), bytes);
            }
        }
    }

    #[test]
    fn corrupt_stage_counters_rejected_like_fifo() {
        // One stage as (capacity, snap_len, snap_free, len, beats...).
        let stage = |fields: [usize; 4], beats: &[u64]| {
            let mut e = Encoder::new(0, 0);
            for f in fields {
                e.usize(f);
            }
            for &b in beats {
                e.u64(b);
            }
            e.finish()
        };
        let cases = [
            (stage([4, 0, 0, 0], &[]), "fifo capacity mismatch"),
            (stage([2, 2, 0, 1], &[9]), "fifo snapshot out of bounds"),
            (stage([2, 0, 2, 1], &[9]), "fifo occupancy out of bounds"),
            (
                stage([2, 0, 0, 3], &[1, 2, 3]),
                "fifo occupancy out of bounds",
            ),
            (
                stage([2, 0, usize::MAX, 1], &[9]),
                "fifo occupancy out of bounds",
            ),
        ];
        for (bytes, why) in cases {
            let mut d = Decoder::new(&bytes, 0, 0, DecodeLimits::default()).unwrap();
            let fifo = Fifo::<u64>::decode_with(&mut d, 2, |d| d.u64()).map(|_| ());
            assert_eq!(fifo, Err(SnapError::Corrupt(why)));
            assert_eq!(decode(&bytes, 1).map(|_| ()), Err(SnapError::Corrupt(why)));
        }
        // A corrupt later stage fails the whole channel.
        let mut e = Encoder::new(0, 0);
        Channel::<u64>::new(1).encode_with(&mut e, |e, &v| e.u64(v));
        for f in [2, 1, 0, 0] {
            e.usize(f);
        }
        assert_eq!(
            decode(&e.finish(), 2).map(|_| ()),
            Err(SnapError::Corrupt("fifo snapshot out of bounds"))
        );
    }
}

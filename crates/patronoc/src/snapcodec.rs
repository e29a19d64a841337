//! Shared snapshot codecs for the AXI-native engine.
//!
//! Field-level encode/decode helpers used by the per-component snapshot
//! methods ([`crate::link`], [`crate::xp`], [`crate::endpoint`]) and
//! assembled into whole-engine snapshots by [`crate::engine`]. Everything
//! here follows the `simkit::snap` contract: decoding validates every
//! structural invariant before constructing a value, so a corrupt (but
//! digest-valid) snapshot is rejected instead of panicking later inside
//! the cycle loop.

use crate::link::{DataBeat, ReqBeat, RespBeat};
use crate::topology::PORTS;
use axi::id::{IdRemapper, OrderingGuard, SourceKey};
use axi::AxiId;
use simkit::snap::{Decoder, Encoder, SnapError};

/// Maps a component's `&'static str` invariant violation into the snapshot
/// error space.
pub(crate) fn corrupt(msg: &'static str) -> SnapError {
    SnapError::Corrupt(msg)
}

pub(crate) fn encode_req(e: &mut Encoder, b: &ReqBeat) {
    e.u16(b.id.0);
    e.usize(b.dst);
    e.usize(b.src);
    e.u16(b.beats);
    e.u32(b.bytes);
    e.u64(b.txn);
    e.u64(b.issued_at);
}

pub(crate) fn decode_req(d: &mut Decoder<'_>, nodes: usize) -> Result<ReqBeat, SnapError> {
    let beat = ReqBeat {
        id: AxiId(d.u16()?),
        dst: d.usize()?,
        src: d.usize()?,
        beats: d.u16()?,
        bytes: d.u32()?,
        txn: d.u64()?,
        issued_at: d.u64()?,
    };
    if beat.dst >= nodes || beat.src >= nodes {
        return Err(corrupt("request beat endpoint out of range"));
    }
    if beat.beats == 0 {
        return Err(corrupt("request beat with zero data beats"));
    }
    Ok(beat)
}

pub(crate) fn encode_data(e: &mut Encoder, b: &DataBeat) {
    e.u32(b.bytes);
    e.bool(b.last);
    e.u64(b.txn);
}

pub(crate) fn decode_data(d: &mut Decoder<'_>) -> Result<DataBeat, SnapError> {
    Ok(DataBeat {
        bytes: d.u32()?,
        last: d.bool()?,
        txn: d.u64()?,
    })
}

pub(crate) fn encode_resp(e: &mut Encoder, b: &RespBeat) {
    e.u16(b.id.0);
    e.u32(b.bytes);
    e.bool(b.last);
    e.u64(b.txn);
}

pub(crate) fn decode_resp(d: &mut Decoder<'_>) -> Result<RespBeat, SnapError> {
    Ok(RespBeat {
        id: AxiId(d.u16()?),
        bytes: d.u32()?,
        last: d.bool()?,
        txn: d.u64()?,
    })
}

/// Serializes an [`OrderingGuard`]'s in-flight entries (ascending-ID order,
/// as [`OrderingGuard::entries`] yields them — canonical, so equal guard
/// states encode to equal bytes).
pub(crate) fn encode_guard(e: &mut Encoder, g: &OrderingGuard) {
    let entries = g.entries();
    e.usize(entries.len());
    for (id, dst, count) in entries {
        e.u16(id.0);
        e.usize(dst);
        e.u32(count);
    }
}

pub(crate) fn decode_guard(d: &mut Decoder<'_>) -> Result<OrderingGuard, SnapError> {
    let n = d.count("ordering guard entries")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push((AxiId(d.u16()?), d.usize()?, d.u32()?));
    }
    OrderingGuard::from_entries(&entries).map_err(corrupt)
}

/// Total in-flight transactions a guard tracks — cross-checked against the
/// owner's outstanding counters on restore.
pub(crate) fn guard_inflight(g: &OrderingGuard) -> u64 {
    g.entries().iter().map(|&(_, _, c)| u64::from(c)).sum()
}

/// Serializes an [`IdRemapper`]: the slot table in index order plus the
/// free list **verbatim** (its LIFO order decides future ID assignment, so
/// it is behavioral state).
pub(crate) fn encode_remapper(e: &mut Encoder, r: &IdRemapper) {
    let (slots, free) = r.export();
    e.usize(slots.len());
    for slot in &slots {
        e.option(slot.as_ref(), |e, (key, inflight)| {
            e.byte(key.port);
            e.u16(key.id.0);
            e.u32(*inflight);
        });
    }
    e.usize(free.len());
    for idx in free {
        e.u16(idx);
    }
}

pub(crate) fn decode_remapper(
    d: &mut Decoder<'_>,
    expected_capacity: usize,
) -> Result<IdRemapper, SnapError> {
    let n = d.count("remapper slots")?;
    if n != expected_capacity {
        return Err(corrupt("remapper capacity mismatch"));
    }
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        let slot = d.option(|d| {
            let port = d.byte()?;
            if usize::from(port) >= PORTS {
                return Err(corrupt("remapper source port out of range"));
            }
            let id = AxiId(d.u16()?);
            let inflight = d.u32()?;
            Ok((SourceKey { port, id }, inflight))
        })?;
        slots.push(slot);
    }
    let f = d.count("remapper free list")?;
    let mut free = Vec::with_capacity(f);
    for _ in 0..f {
        free.push(d.u16()?);
    }
    IdRemapper::from_parts(slots, free).map_err(corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::snap::DecodeLimits;

    const KIND: u8 = 1;
    const SHAPE: u64 = 0x5EED;

    /// Frames whatever `write` encodes and hands a reader over it to `read`.
    fn round_trip<T>(
        write: impl FnOnce(&mut Encoder),
        read: impl FnOnce(&mut Decoder<'_>) -> Result<T, SnapError>,
    ) -> Result<T, SnapError> {
        let mut e = Encoder::new(KIND, SHAPE);
        write(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, KIND, SHAPE, DecodeLimits::default())?;
        let value = read(&mut d)?;
        d.finish()?;
        Ok(value)
    }

    fn req(dst: usize, src: usize, beats: u16) -> ReqBeat {
        ReqBeat {
            id: AxiId(7),
            dst,
            src,
            beats,
            bytes: 256,
            txn: 1 << 40,
            issued_at: 123_456,
        }
    }

    fn key(port: u8, id: u16) -> SourceKey {
        SourceKey {
            port,
            id: AxiId(id),
        }
    }

    #[test]
    fn beats_round_trip_field_for_field() {
        let r = req(15, 0, 4);
        assert_eq!(
            round_trip(|e| encode_req(e, &r), |d| decode_req(d, 16)),
            Ok(r)
        );
        let w = DataBeat {
            bytes: 64,
            last: true,
            txn: 9,
        };
        assert_eq!(round_trip(|e| encode_data(e, &w), decode_data), Ok(w));
        let b = RespBeat {
            id: AxiId(u16::MAX),
            bytes: 0,
            last: true,
            txn: u64::MAX,
        };
        assert_eq!(round_trip(|e| encode_resp(e, &b), decode_resp), Ok(b));
    }

    #[test]
    fn request_beats_off_the_mesh_or_without_data_are_rejected() {
        for (beat, why) in [
            (req(16, 0, 4), "request beat endpoint out of range"),
            (req(0, 16, 4), "request beat endpoint out of range"),
            (req(3, 2, 0), "request beat with zero data beats"),
        ] {
            assert_eq!(
                round_trip(|e| encode_req(e, &beat), |d| decode_req(d, 16)),
                Err(SnapError::Corrupt(why)),
                "{beat:?}"
            );
        }
    }

    #[test]
    fn a_request_beat_cut_short_is_truncated_not_padded() {
        let r = req(1, 2, 4);
        let write = |e: &mut Encoder| {
            e.u16(r.id.0);
            e.usize(r.dst);
            e.usize(r.src);
            e.u16(r.beats);
            e.u32(r.bytes);
            e.u64(r.txn);
        };
        assert_eq!(
            round_trip(write, |d| decode_req(d, 16)),
            Err(SnapError::Truncated)
        );
    }

    #[test]
    fn ordering_guard_round_trips_with_its_inflight_count() {
        let mut g = OrderingGuard::new();
        g.issue(AxiId(3), 5);
        g.issue(AxiId(3), 5);
        g.issue(AxiId(0), 1);
        let back = round_trip(|e| encode_guard(e, &g), decode_guard).unwrap();
        assert_eq!(back.entries(), g.entries());
        assert_eq!(guard_inflight(&back), 3);
        assert_eq!(guard_inflight(&OrderingGuard::new()), 0);
    }

    #[test]
    fn ordering_guard_with_a_zero_count_or_duplicate_id_is_rejected() {
        for entries in [
            vec![(AxiId(1), 2, 0u32)],
            vec![(AxiId(1), 2, 1), (AxiId(1), 3, 1)],
        ] {
            let write = |e: &mut Encoder| {
                e.usize(entries.len());
                for &(id, dst, count) in &entries {
                    e.u16(id.0);
                    e.usize(dst);
                    e.u32(count);
                }
            };
            assert!(
                matches!(round_trip(write, decode_guard), Err(SnapError::Corrupt(_))),
                "{entries:?}"
            );
        }
    }

    #[test]
    fn remapper_round_trip_keeps_the_free_list_order() {
        // The free list's LIFO order decides which downstream ID the next
        // new source gets, so it must survive a checkpoint verbatim.
        let mut r = IdRemapper::new(2);
        let a = r.acquire(key(0, 1)).unwrap();
        let b = r.acquire(key(4, 1)).unwrap();
        r.acquire(key(4, 1)).unwrap();
        r.release(a);
        let mut back = round_trip(|e| encode_remapper(e, &r), |d| decode_remapper(d, 4)).unwrap();
        assert_eq!(back.export(), r.export());
        assert_eq!(back.source_of(b), Some(key(4, 1)));
        assert_eq!(back.acquire(key(2, 9)), r.acquire(key(2, 9)));
    }

    #[test]
    fn remapper_with_the_wrong_capacity_or_a_bad_port_is_rejected() {
        let r = IdRemapper::new(2);
        assert_eq!(
            round_trip(|e| encode_remapper(e, &r), |d| decode_remapper(d, 8)).unwrap_err(),
            SnapError::Corrupt("remapper capacity mismatch")
        );
        let mut bad = IdRemapper::new(1);
        bad.acquire(key(0, 0)).unwrap();
        // Encode it as `encode_remapper` does, with the live slot's port
        // pushed past the last port.
        let (slots, free) = bad.export();
        let write = |e: &mut Encoder| {
            e.usize(slots.len());
            for slot in &slots {
                e.option(slot.as_ref(), |e, (k, inflight)| {
                    e.byte(PORTS as u8);
                    e.u16(k.id.0);
                    e.u32(*inflight);
                });
            }
            e.usize(free.len());
            for &idx in &free {
                e.u16(idx);
            }
        };
        assert_eq!(
            round_trip(write, |d| decode_remapper(d, 2)).unwrap_err(),
            SnapError::Corrupt("remapper source port out of range")
        );
    }
}

//! Encode/decode helpers shared by the baseline engine's snapshot codec.
//!
//! The interesting problem in this crate's snapshots is *handle
//! translation*: every in-flight [`Flit`](crate::router::Flit) carries a
//! [`TxHandle`](crate::txn::TxHandle) into the engine's slab arenas, and
//! slot indices are allocation accidents — they differ across thread
//! counts and across a restore. Snapshots therefore never serialize raw
//! handles; records are numbered by a canonical first-reference traversal
//! (see `PacketNocSim::canonical_txs`) and every reference is written as
//! that canonical number. This module holds the leaf codecs the engine,
//! NI and router state serializers share.

use simkit::snap::{Decoder, Encoder, SnapError};
use traffic::{Transfer, TransferKind};

/// Shorthand for the engine-invariant violation error.
pub(crate) fn corrupt(msg: &'static str) -> SnapError {
    SnapError::Corrupt(msg)
}

/// Serializes one transfer descriptor.
pub(crate) fn encode_transfer(e: &mut Encoder, t: &Transfer) {
    e.u64(t.id);
    e.usize(t.dst);
    e.u64(t.offset);
    e.u64(t.bytes);
    match t.kind {
        TransferKind::Read => e.byte(0),
        TransferKind::Write => e.byte(1),
        TransferKind::Copy { src, src_offset } => {
            e.byte(2);
            e.usize(src);
            e.u64(src_offset);
        }
    }
}

/// Decodes a transfer descriptor. The destination is deliberately *not*
/// bounded by the mesh: an off-mesh destination wedges in the fabric
/// (exactly as a live engine would evolve it — the watchdog tests pin
/// that) but never indexes anything, so rejecting it would refuse
/// legitimate snapshots.
pub(crate) fn decode_transfer(d: &mut Decoder<'_>) -> Result<Transfer, SnapError> {
    let id = d.u64()?;
    let dst = d.usize()?;
    let offset = d.u64()?;
    let bytes = d.u64()?;
    if bytes == 0 {
        return Err(corrupt("zero-length transfer"));
    }
    let kind = match d.byte()? {
        0 => TransferKind::Read,
        1 => TransferKind::Write,
        2 => TransferKind::Copy {
            src: d.usize()?,
            src_offset: d.u64()?,
        },
        _ => return Err(corrupt("unknown transfer kind")),
    };
    Ok(Transfer {
        id,
        dst,
        offset,
        bytes,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::snap::DecodeLimits;

    const KIND: u8 = 2;
    const SHAPE: u64 = 0x5EED;

    fn framed(write: impl FnOnce(&mut Encoder)) -> Vec<u8> {
        let mut e = Encoder::new(KIND, SHAPE);
        write(&mut e);
        e.finish()
    }

    fn decode(bytes: &[u8]) -> Result<Transfer, SnapError> {
        let mut d = Decoder::new(bytes, KIND, SHAPE, DecodeLimits::default())?;
        let t = decode_transfer(&mut d)?;
        d.finish()?;
        Ok(t)
    }

    fn transfer(dst: usize, bytes: u64, kind: TransferKind) -> Transfer {
        Transfer {
            id: 42,
            dst,
            offset: 0x10_0000,
            bytes,
            kind,
        }
    }

    #[test]
    fn every_transfer_kind_round_trips() {
        for kind in [
            TransferKind::Read,
            TransferKind::Write,
            TransferKind::Copy {
                src: 3,
                src_offset: 0xFF_FFFF,
            },
        ] {
            let t = transfer(5, 4_096, kind);
            assert_eq!(decode(&framed(|e| encode_transfer(e, &t))), Ok(t));
        }
    }

    #[test]
    fn off_mesh_destinations_are_kept_not_rejected() {
        // The decoder is mesh-agnostic on purpose (see `decode_transfer`).
        let t = transfer(usize::MAX, 1, TransferKind::Write);
        assert_eq!(decode(&framed(|e| encode_transfer(e, &t))), Ok(t));
    }

    #[test]
    fn zero_length_transfers_are_rejected() {
        let t = transfer(1, 0, TransferKind::Read);
        assert_eq!(
            decode(&framed(|e| encode_transfer(e, &t))),
            Err(SnapError::Corrupt("zero-length transfer"))
        );
    }

    #[test]
    fn unknown_kind_bytes_are_rejected() {
        let bytes = framed(|e| {
            e.u64(1);
            e.usize(0);
            e.u64(0);
            e.u64(64);
            e.byte(3);
        });
        assert_eq!(
            decode(&bytes),
            Err(SnapError::Corrupt("unknown transfer kind"))
        );
    }

    #[test]
    fn a_copy_descriptor_cut_before_its_source_is_truncated() {
        // The kind byte promises two more fields; the decoder must not
        // invent them.
        let bytes = framed(|e| {
            e.u64(1);
            e.usize(0);
            e.u64(0);
            e.u64(64);
            e.byte(2);
        });
        assert_eq!(decode(&bytes), Err(SnapError::Truncated));
    }
}

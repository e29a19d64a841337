//! Checkpoint support shared by the traffic sources.
//!
//! All sources serialize with the `simkit::snap` container under one
//! engine-kind discriminant ([`SNAP_KIND`]); the header's *shape* digest
//! carries a per-source type tag plus every configuration field, so bytes
//! from a different source type or a differently configured source are
//! rejected before any state is decoded. The stochastic generators
//! (`uniform`, `synthetic`) share the same per-master state triple — an
//! RNG stream, a fractional next-arrival clock and a transfer serial —
//! encoded by the helpers here.

use simkit::snap::{Decoder, Encoder, SnapError};
use simkit::Rng;

/// Traffic sources' discriminant in the snapshot header (the two NoC
/// engines use 1 and 2).
pub(crate) const SNAP_KIND: u8 = 3;

/// Shorthand for the source-invariant violation error.
pub(crate) fn corrupt(msg: &'static str) -> SnapError {
    SnapError::Corrupt(msg)
}

/// Serializes one master's Poisson state.
pub(crate) fn encode_master(e: &mut Encoder, rng: &Rng, next_arrival: f64, serial: u64) {
    for w in rng.state() {
        e.fixed_u64(w);
    }
    e.f64(next_arrival);
    e.u64(serial);
}

/// Decodes one master's Poisson state, rejecting the RNG's unreachable
/// all-zero state and non-finite arrival clocks (a NaN clock would make
/// the master inject unconditionally forever).
pub(crate) fn decode_master(d: &mut Decoder<'_>) -> Result<(Rng, f64, u64), SnapError> {
    let mut s = [0u64; 4];
    for w in &mut s {
        *w = d.fixed_u64()?;
    }
    let rng = Rng::from_state(s).ok_or(corrupt("degenerate rng state"))?;
    let next_arrival = d.f64()?;
    if !next_arrival.is_finite() || next_arrival < 0.0 {
        return Err(corrupt("arrival clock out of range"));
    }
    let serial = d.u64()?;
    Ok((rng, next_arrival, serial))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::snap::DecodeLimits;

    const SHAPE: u64 = 0x5EED;

    fn framed(write: impl FnOnce(&mut Encoder)) -> Vec<u8> {
        let mut e = Encoder::new(SNAP_KIND, SHAPE);
        write(&mut e);
        e.finish()
    }

    fn decode(bytes: &[u8]) -> Result<(Rng, f64, u64), SnapError> {
        let mut d = Decoder::new(bytes, SNAP_KIND, SHAPE, DecodeLimits::default())?;
        let master = decode_master(&mut d)?;
        d.finish()?;
        Ok(master)
    }

    /// `encode_master` with the RNG state and clock given raw.
    fn raw_master(state: [u64; 4], next_arrival: f64) -> Vec<u8> {
        framed(|e| {
            for w in state {
                e.fixed_u64(w);
            }
            e.f64(next_arrival);
            e.u64(7);
        })
    }

    #[test]
    fn master_state_round_trips_and_continues_the_stream() {
        let mut rng = Rng::new(99);
        rng.next_u64();
        let bytes = framed(|e| encode_master(e, &rng, 12.75, 1 << 33));
        let (mut back, next_arrival, serial) = decode(&bytes).unwrap();
        assert_eq!(back.state(), rng.state());
        assert_eq!(next_arrival.to_bits(), 12.75f64.to_bits());
        assert_eq!(serial, 1 << 33);
        assert_eq!(back.next_u64(), rng.next_u64());
    }

    #[test]
    fn the_unreachable_all_zero_rng_state_is_rejected() {
        assert_eq!(
            decode(&raw_master([0; 4], 0.0)).unwrap_err(),
            SnapError::Corrupt("degenerate rng state")
        );
    }

    #[test]
    fn non_finite_or_negative_arrival_clocks_are_rejected() {
        let state = Rng::new(1).state();
        for clock in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            assert_eq!(
                decode(&raw_master(state, clock)).unwrap_err(),
                SnapError::Corrupt("arrival clock out of range"),
                "{clock}"
            );
        }
        assert!(decode(&raw_master(state, 0.0)).is_ok());
    }
}

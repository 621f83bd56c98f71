//! Wire payloads: what a message can carry.
//!
//! The transport is in-process, so a message need not be a byte string —
//! ownership of any `Send` buffer can move through the channel. [`Payload`]
//! is the closed set of buffer types the fabric routes: raw bytes (what
//! every control-plane collective uses) and two *particle buffer* lanes
//! (no serialization, no per-particle copies — the staging bucket itself
//! crosses the channel): the column lane, a [`ParticleBatch`] — what the
//! rank step's exchange moves, so the drain's slice copies and the
//! arrival's per-field appends are the only copies a migrant sees — and
//! the record lane, an owned `Vec<Particle>`, kept for the benchmark's
//! wire probe.
//!
//! [`WirePayload`] is the static side of the same contract: the alltoallv
//! family is generic over it, so one protocol implementation serves every
//! lane.
//!
//! A receive must name the payload type it expects; a kind mismatch (a
//! typed message arriving where bytes were posted, or vice versa) is a
//! protocol bug and panics loudly rather than silently dropping or
//! re-interpreting the message.

use pic_core::particle::Particle;
use pic_core::soa::ParticleBatch;

/// Discriminant of a [`Payload`] — which lane a message travels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// Raw little-endian bytes (the collectives' ad-hoc encodings).
    Bytes,
    /// An owned `Vec<Particle>` (AoS records), moved through the channel
    /// as-is.
    Typed,
    /// An owned [`ParticleBatch`] (one array per field), moved through
    /// the channel as-is.
    Batch,
}

impl PayloadKind {
    pub fn name(self) -> &'static str {
        match self {
            PayloadKind::Bytes => "bytes",
            PayloadKind::Typed => "typed",
            PayloadKind::Batch => "batch",
        }
    }
}

/// An owned message body. See the module docs for the closed-set rationale;
/// an enum (rather than type erasure) keeps the transport allocation-free —
/// no box per message — and makes kind mismatches detectable.
///
/// The batch variant holds its eleven column headers inline (264 B): a
/// message moves by value into and out of a mailbox queue, and boxing the
/// batch would cost an allocation per message, which the steady-state
/// exchange must not pay.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Payload {
    Bytes(Vec<u8>),
    Typed(Vec<Particle>),
    Batch(ParticleBatch),
}

impl Payload {
    pub fn kind(&self) -> PayloadKind {
        match self {
            Payload::Bytes(_) => PayloadKind::Bytes,
            Payload::Typed(_) => PayloadKind::Typed,
            Payload::Batch(_) => PayloadKind::Batch,
        }
    }
}

/// A buffer type the fabric can route. Implemented by `Vec<u8>` (oracle
/// lane), `Vec<Particle>` (typed lane) and [`ParticleBatch`] (batch
/// lane); the protocol code is generic over this trait and never inspects
/// the contents.
pub trait WirePayload: Sized + Send + 'static {
    /// The [`Payload`] variant this type travels as.
    const KIND: PayloadKind;

    /// A fresh empty buffer (no allocation).
    fn empty() -> Self;

    /// Surrender this buffer to the transport.
    fn into_payload(self) -> Payload;

    /// Claim a buffer back from the transport. Panics (loudly, with both
    /// kinds named) if the message on the wire is not of this type — a
    /// lane mismatch must never be silently coerced.
    fn from_payload(p: Payload) -> Self;
}

impl WirePayload for Vec<u8> {
    const KIND: PayloadKind = PayloadKind::Bytes;

    fn empty() -> Self {
        Vec::new()
    }

    fn into_payload(self) -> Payload {
        Payload::Bytes(self)
    }

    fn from_payload(p: Payload) -> Self {
        match p {
            Payload::Bytes(b) => b,
            other => panic!(
                "payload kind mismatch: expected bytes, received {} message",
                other.kind().name()
            ),
        }
    }
}

impl WirePayload for Vec<Particle> {
    const KIND: PayloadKind = PayloadKind::Typed;

    fn empty() -> Self {
        Vec::new()
    }

    fn into_payload(self) -> Payload {
        Payload::Typed(self)
    }

    fn from_payload(p: Payload) -> Self {
        match p {
            Payload::Typed(t) => t,
            other => panic!(
                "payload kind mismatch: expected typed, received {} message",
                other.kind().name()
            ),
        }
    }
}

impl WirePayload for ParticleBatch {
    const KIND: PayloadKind = PayloadKind::Batch;

    fn empty() -> Self {
        ParticleBatch::new()
    }

    fn into_payload(self) -> Payload {
        Payload::Batch(self)
    }

    fn from_payload(p: Payload) -> Self {
        match p {
            Payload::Batch(b) => b,
            other => panic!(
                "payload kind mismatch: expected batch, received {} message",
                other.kind().name()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn particle(id: u64) -> Particle {
        Particle {
            id,
            x: 1.0,
            y: 2.0,
            vx: 3.0,
            vy: 4.0,
            q: 0.5,
            x0: 1.0,
            y0: 2.0,
            k: 1,
            m: -1,
            born_at: 0,
        }
    }

    #[test]
    fn roundtrip_through_payload() {
        let ps = vec![particle(7)];
        let back = <Vec<Particle>>::from_payload(ps.clone().into_payload());
        assert_eq!(back, ps);
        let bytes = vec![1u8, 2, 3];
        let back = <Vec<u8>>::from_payload(bytes.clone().into_payload());
        assert_eq!(back, bytes);
    }

    #[test]
    fn batch_roundtrips_through_payload() {
        let batch: ParticleBatch = (1..=20).map(particle).collect();
        let payload = batch.clone().into_payload();
        assert_eq!(payload.kind(), PayloadKind::Batch);
        assert_eq!(ParticleBatch::from_payload(payload), batch);
        let empty = ParticleBatch::empty();
        assert!(ParticleBatch::from_payload(empty.into_payload()).is_empty());
    }

    #[test]
    #[should_panic(expected = "payload kind mismatch: expected batch, received typed message")]
    fn typed_message_where_batch_expected_is_loud() {
        let _ = ParticleBatch::from_payload(vec![particle(1)].into_payload());
    }

    #[test]
    #[should_panic(expected = "payload kind mismatch: expected typed, received batch message")]
    fn batch_message_where_typed_expected_is_loud() {
        let batch: ParticleBatch = [particle(1)].into_iter().collect();
        let _ = <Vec<Particle>>::from_payload(batch.into_payload());
    }

    #[test]
    #[should_panic(expected = "payload kind mismatch: expected batch, received bytes message")]
    fn byte_message_where_batch_expected_is_loud() {
        let _ = ParticleBatch::from_payload(vec![1u8].into_payload());
    }

    #[test]
    #[should_panic(expected = "payload kind mismatch: expected bytes, received batch message")]
    fn batch_message_where_bytes_expected_is_loud() {
        let _ = <Vec<u8>>::from_payload(ParticleBatch::new().into_payload());
    }

    #[test]
    #[should_panic(expected = "payload kind mismatch: expected bytes")]
    fn typed_message_where_bytes_expected_is_loud() {
        let _ = <Vec<u8>>::from_payload(vec![particle(1)].into_payload());
    }

    #[test]
    #[should_panic(expected = "payload kind mismatch: expected typed")]
    fn byte_message_where_typed_expected_is_loud() {
        let _ = <Vec<Particle>>::from_payload(vec![1u8].into_payload());
    }
}

//! Wire payloads: what a message can carry.
//!
//! The transport is in-process, so a message need not be a byte string —
//! ownership of any `Send` buffer can move through the channel. [`Payload`]
//! is the closed set of buffer types the fabric routes: raw bytes (what
//! every control-plane collective uses) and
//! *typed particle buffers* (the zero-copy fast lane: no serialization, no
//! per-particle copies — the staging bucket itself crosses the channel).
//!
//! [`WirePayload`] is the static side of the same contract: the alltoallv
//! family and the point-to-point send/recv lanes are generic over it, so
//! one protocol implementation serves both encodings. Byte accounting
//! ([`WirePayload::len_bytes`]) is defined per type — a typed buffer
//! accounts as if it had been encoded — keeping the `collective_bytes` and
//! endpoint byte counters truthful across lanes.
//!
//! A receive must name the payload type it expects; a kind mismatch (a
//! typed message arriving where bytes were posted, or vice versa) is a
//! protocol bug and panics loudly rather than silently dropping or
//! re-interpreting the message.

use pic_core::particle::Particle;

/// Discriminant of a [`Payload`] — which lane a message travels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// Raw little-endian bytes (the collectives' ad-hoc encodings).
    Bytes,
    /// An owned particle buffer, moved through the channel as-is.
    Typed,
}

impl PayloadKind {
    pub fn name(self) -> &'static str {
        match self {
            PayloadKind::Bytes => "bytes",
            PayloadKind::Typed => "typed",
        }
    }
}

/// An owned message body. See the module docs for the closed-set rationale;
/// an enum (rather than type erasure) keeps the transport allocation-free —
/// no box per message — and makes kind mismatches detectable.
#[derive(Debug)]
pub enum Payload {
    Bytes(Vec<u8>),
    Typed(Vec<Particle>),
}

impl Payload {
    pub fn kind(&self) -> PayloadKind {
        match self {
            Payload::Bytes(_) => PayloadKind::Bytes,
            Payload::Typed(_) => PayloadKind::Typed,
        }
    }

    /// Wire-equivalent size: what this payload would occupy as bytes. The
    /// basis of all traffic accounting, identical across lanes so telemetry
    /// does not change when the lane does.
    pub fn len_bytes(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Typed(p) => p.len() * Particle::WIRE_SIZE,
        }
    }
}

/// A buffer type the fabric can route. Implemented by `Vec<u8>` (oracle
/// lane) and `Vec<Particle>` (typed lane); the protocol code is generic
/// over this trait and never inspects the contents.
pub trait WirePayload: Sized + Send + 'static {
    /// The [`Payload`] variant this type travels as.
    const KIND: PayloadKind;

    /// Wire-equivalent size in bytes (see [`Payload::len_bytes`]).
    fn len_bytes(&self) -> usize;

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

    fn len_bytes(&self) -> usize {
        self.len()
    }

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

    fn len_bytes(&self) -> usize {
        self.len() * Particle::WIRE_SIZE
    }

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
    fn byte_accounting_is_lane_invariant() {
        let ps = vec![particle(1), particle(2), particle(3)];
        let encoded = vec![0u8; ps.len() * Particle::WIRE_SIZE];
        assert_eq!(WirePayload::len_bytes(&ps), encoded.len());
        assert_eq!(ps.clone().into_payload().len_bytes(), encoded.len());
        assert_eq!(encoded.clone().into_payload().len_bytes(), encoded.len());
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

//! Wire payloads: what a message can carry.
//!
//! The transport is in-process, so a message need not be a byte string —
//! ownership of any `Send` buffer can move through the channel. [`Payload`]
//! is the closed set of buffer types the fabric routes: `u64` words (what
//! every control-plane collective sends, as the ranks hold them) and two
//! *particle buffer* lanes (no serialization, no per-particle copies — the
//! staging bucket itself crosses the channel): the column lane, a
//! [`ParticleBatch`] — what the rank step's exchange moves, so the drain's
//! slice copies and the arrival's per-field appends are the only copies a
//! migrant sees — and the record lane, an owned `Vec<Particle>`, kept for
//! the benchmark's wire probe.
//!
//! [`WirePayload`] is the static side of the same contract: the alltoallv
//! family is generic over it, so one protocol implementation serves every
//! lane.
//!
//! A receive must name the payload type it expects; a kind mismatch (a
//! particle message arriving where words were posted, or vice versa) is a
//! protocol bug and panics loudly rather than silently dropping or
//! re-interpreting the message.

use pic_core::particle::Particle;
use pic_core::soa::ParticleBatch;

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
    Words(Vec<u64>),
    Typed(Vec<Particle>),
    Batch(ParticleBatch),
}

impl Payload {
    /// The lane this message travels on, as the mismatch panic names it.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Payload::Words(_) => <Vec<u64>>::NAME,
            Payload::Typed(_) => <Vec<Particle>>::NAME,
            Payload::Batch(_) => ParticleBatch::NAME,
        }
    }
}

/// A buffer type the fabric can route. Implemented by `Vec<u64>` (the
/// collectives' lane), `Vec<Particle>` (typed lane) and [`ParticleBatch`]
/// (batch lane); the protocol code is generic over this trait and never
/// inspects the contents.
pub trait WirePayload: Sized + Send + 'static {
    /// The lane's name, as the mismatch panic names it.
    const NAME: &'static str;

    /// A fresh empty buffer (no allocation).
    fn empty() -> Self;

    /// Surrender this buffer to the transport.
    fn into_payload(self) -> Payload;

    /// Claim a buffer back from the transport. Panics (loudly, with both
    /// lanes named) if the message on the wire is not of this type — a
    /// lane mismatch must never be silently coerced.
    fn from_payload(p: Payload) -> Self;
}

/// The panic of a receive that expected lane `expected` and took `got`.
fn mismatch(expected: &str, got: &Payload) -> ! {
    panic!(
        "payload kind mismatch: expected {expected}, received {} message",
        got.name()
    )
}

impl WirePayload for Vec<u64> {
    const NAME: &'static str = "words";

    fn empty() -> Self {
        Vec::new()
    }

    fn into_payload(self) -> Payload {
        Payload::Words(self)
    }

    fn from_payload(p: Payload) -> Self {
        match p {
            Payload::Words(w) => w,
            other => mismatch(Self::NAME, &other),
        }
    }
}

impl WirePayload for Vec<Particle> {
    const NAME: &'static str = "typed";

    fn empty() -> Self {
        Vec::new()
    }

    fn into_payload(self) -> Payload {
        Payload::Typed(self)
    }

    fn from_payload(p: Payload) -> Self {
        match p {
            Payload::Typed(t) => t,
            other => mismatch(Self::NAME, &other),
        }
    }
}

impl WirePayload for ParticleBatch {
    const NAME: &'static str = "batch";

    fn empty() -> Self {
        ParticleBatch::new()
    }

    fn into_payload(self) -> Payload {
        Payload::Batch(self)
    }

    fn from_payload(p: Payload) -> Self {
        match p {
            Payload::Batch(b) => b,
            other => mismatch(Self::NAME, &other),
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
        let words = vec![1u64, 2, u64::MAX];
        let back = <Vec<u64>>::from_payload(words.clone().into_payload());
        assert_eq!(back, words);
    }

    #[test]
    fn batch_roundtrips_through_payload() {
        let batch: ParticleBatch = (1..=20).map(particle).collect();
        let payload = batch.clone().into_payload();
        assert_eq!(payload.name(), "batch");
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
    #[should_panic(expected = "payload kind mismatch: expected batch, received words message")]
    fn word_message_where_batch_expected_is_loud() {
        let _ = ParticleBatch::from_payload(vec![1u64].into_payload());
    }

    #[test]
    #[should_panic(expected = "payload kind mismatch: expected words, received batch message")]
    fn batch_message_where_words_expected_is_loud() {
        let _ = <Vec<u64>>::from_payload(ParticleBatch::new().into_payload());
    }

    #[test]
    #[should_panic(expected = "payload kind mismatch: expected words, received typed message")]
    fn typed_message_where_words_expected_is_loud() {
        let _ = <Vec<u64>>::from_payload(vec![particle(1)].into_payload());
    }

    #[test]
    #[should_panic(expected = "payload kind mismatch: expected typed, received words message")]
    fn word_message_where_typed_expected_is_loud() {
        let _ = <Vec<Particle>>::from_payload(vec![1u64].into_payload());
    }
}

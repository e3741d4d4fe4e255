//! Typed message payloads.
//!
//! HYMV's communication uses a handful of concrete value shapes: `f64`
//! vector fragments (ghost scatter/gather), `u64` index lists (map
//! construction), and `(row, col, value)` triples (the assembled baseline's
//! off-rank matrix contributions). A small enum keeps sends copy-free
//! (payloads are moved into the receiver's mailbox) while still letting the
//! ledger account bytes exactly.

/// A message body moved between ranks.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A vector fragment (ghost values, reduction partials, …).
    F64(Vec<f64>),
    /// An index list (global node ids, counts, …).
    U64(Vec<u64>),
    /// Sparse-matrix triples `(global row, global col, value)` — the traffic
    /// that makes the matrix-assembled baseline's setup expensive.
    Triples(Vec<(u64, u64, f64)>),
    /// Raw bytes for anything else.
    Bytes(Vec<u8>),
}

impl Payload {
    /// Wraps a `f64` vector.
    pub fn from_f64(v: Vec<f64>) -> Self {
        Payload::F64(v)
    }

    /// Wraps a `u64` vector.
    pub fn from_u64(v: Vec<u64>) -> Self {
        Payload::U64(v)
    }

    /// Wraps a triple list.
    pub fn from_triples(v: Vec<(u64, u64, f64)>) -> Self {
        Payload::Triples(v)
    }

    /// The on-wire size this payload would have, used by the α-β cost model.
    pub fn len_bytes(&self) -> usize {
        match self {
            Payload::F64(v) => v.len() * 8,
            Payload::U64(v) => v.len() * 8,
            Payload::Triples(v) => v.len() * 24,
            Payload::Bytes(v) => v.len(),
        }
    }

    /// Number of logical entries.
    pub fn len(&self) -> usize {
        match self {
            Payload::F64(v) => v.len(),
            Payload::U64(v) => v.len(),
            Payload::Triples(v) => v.len(),
            Payload::Bytes(v) => v.len(),
        }
    }

    /// True if the payload carries no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unwraps an `F64` payload.
    ///
    /// # Panics
    /// Panics if the payload has a different variant — a protocol error in
    /// SPMD code, never a data-dependent condition.
    pub fn into_f64(self) -> Vec<f64> {
        match self {
            Payload::F64(v) => v,
            other => panic!("expected F64 payload, got {}", other.variant_name()),
        }
    }

    /// Unwraps a `U64` payload. Panics on variant mismatch.
    pub fn into_u64(self) -> Vec<u64> {
        match self {
            Payload::U64(v) => v,
            other => panic!("expected U64 payload, got {}", other.variant_name()),
        }
    }

    /// Unwraps a `Triples` payload. Panics on variant mismatch.
    pub fn into_triples(self) -> Vec<(u64, u64, f64)> {
        match self {
            Payload::Triples(v) => v,
            other => panic!("expected Triples payload, got {}", other.variant_name()),
        }
    }

    /// Flip one bit of the payload, chosen by `bit` modulo the payload's
    /// bit count (the fault injector's in-flight corruption model). A
    /// no-op on empty payloads — there is nothing to damage.
    pub(crate) fn corrupt_bit(&mut self, bit: u64) {
        fn flip_u64(v: &mut [u64], bit: u64) {
            let i = (bit / 64) as usize % v.len();
            v[i] ^= 1u64 << (bit % 64);
        }
        match self {
            Payload::F64(v) if !v.is_empty() => {
                let i = (bit / 64) as usize % v.len();
                v[i] = f64::from_bits(v[i].to_bits() ^ (1u64 << (bit % 64)));
            }
            Payload::U64(v) if !v.is_empty() => flip_u64(v, bit),
            Payload::Triples(v) if !v.is_empty() => {
                let i = (bit / 192) as usize % v.len();
                let (r, c, x) = &mut v[i];
                match (bit / 64) % 3 {
                    0 => *r ^= 1u64 << (bit % 64),
                    1 => *c ^= 1u64 << (bit % 64),
                    _ => *x = f64::from_bits(x.to_bits() ^ (1u64 << (bit % 64))),
                }
            }
            Payload::Bytes(v) if !v.is_empty() => {
                let i = (bit / 8) as usize % v.len();
                v[i] ^= 1u8 << (bit % 8);
            }
            _ => {}
        }
    }

    fn variant_name(&self) -> &'static str {
        match self {
            Payload::F64(_) => "F64",
            Payload::U64(_) => "U64",
            Payload::Triples(_) => "Triples",
            Payload::Bytes(_) => "Bytes",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_accounting() {
        assert_eq!(Payload::from_f64(vec![0.0; 10]).len_bytes(), 80);
        assert_eq!(Payload::from_u64(vec![0; 3]).len_bytes(), 24);
        assert_eq!(Payload::from_triples(vec![(0, 1, 2.0); 2]).len_bytes(), 48);
        assert_eq!(Payload::Bytes(vec![0u8; 7]).len_bytes(), 7);
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(Payload::from_f64(vec![1.0, 2.0]).len(), 2);
        assert!(Payload::from_u64(vec![]).is_empty());
        assert!(!Payload::from_triples(vec![(1, 2, 3.0)]).is_empty());
    }

    #[test]
    fn round_trip() {
        let v = vec![1.5, -2.5];
        assert_eq!(Payload::from_f64(v.clone()).into_f64(), v);
        let u = vec![3u64, 9];
        assert_eq!(Payload::from_u64(u.clone()).into_u64(), u);
        let t = vec![(1u64, 2u64, 0.5)];
        assert_eq!(Payload::from_triples(t.clone()).into_triples(), t);
    }

    #[test]
    #[should_panic(expected = "expected F64 payload")]
    fn variant_mismatch_panics() {
        Payload::from_u64(vec![1]).into_f64();
    }

    #[test]
    fn corrupt_bit_flips_exactly_one_bit() {
        let mut p = Payload::from_f64(vec![1.0, 2.0, 3.0]);
        let orig = p.clone();
        p.corrupt_bit(77);
        assert_ne!(p, orig);
        let (a, b) = (p.into_f64(), orig.into_f64());
        let flipped: u32 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x.to_bits() ^ y.to_bits()).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        // Empty payloads are left alone.
        let mut e = Payload::from_f64(vec![]);
        e.corrupt_bit(5);
        assert_eq!(e, Payload::from_f64(vec![]));
    }
}

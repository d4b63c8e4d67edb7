//! FNV-1a 64: the one non-cryptographic content hash behind every
//! fingerprint, store namespace, shard selector and integrity checksum in
//! the stack.
//!
//! The values are persisted (checkpoint tags, cache namespaces and shard
//! placement, artifact envelopes), so the constants and folding order here
//! must never change.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a 64 accumulator.
///
/// [`Fnv1a::write`] folds bytes one at a time (standard FNV-1a);
/// [`Fnv1a::write_u64`] folds a whole 64-bit word in one step, the word-wise
/// variant the Hamiltonian, circuit and engine fingerprints use. The two are
/// different hashes: `write_u64(w)` is not `write(&w.to_le_bytes())`.
///
/// ```
/// use clapton_telemetry::{fnv1a64, Fnv1a};
/// assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(Fnv1a::new().write(b"a").finish(), Fnv1a::new().write_u64(0x61).finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh accumulator at the FNV offset basis.
    pub const fn new() -> Fnv1a {
        Fnv1a(OFFSET)
    }

    /// Folds `bytes`, one byte per step.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) -> &mut Fnv1a {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
        self
    }

    /// Folds one 64-bit word in a single step.
    #[inline]
    pub fn write_u64(&mut self, word: u64) -> &mut Fnv1a {
        self.0 = (self.0 ^ word).wrapping_mul(PRIME);
        self
    }

    /// The hash of everything folded so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// FNV-1a 64 of `bytes`.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    Fnv1a::new().write(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let mut split = Fnv1a::new();
        split.write(b"foo").write(b"bar");
        assert_eq!(split.finish(), fnv1a64(b"foobar"));
    }
}

//! Seeded, splittable random streams.
//!
//! Monte-Carlo validation of the generator statistics and the parallel
//! engine both need *reproducible* randomness that can be split into
//! independent substreams (one per thread / per envelope block) without any
//! coordination. [`RandomStream`] wraps a ChaCha20 generator keyed by a
//! 64-bit master seed plus a 64-bit stream index; distinct indices give
//! statistically independent, non-overlapping streams.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha20Rng;

/// A seeded, splittable uniform random stream.
#[derive(Debug, Clone)]
pub struct RandomStream {
    rng: ChaCha20Rng,
    seed: u64,
    stream: u64,
}

impl RandomStream {
    /// Creates stream `0` of the given master seed.
    pub fn new(seed: u64) -> Self {
        Self::substream(seed, 0)
    }

    /// Creates substream `stream` of the given master seed. Distinct
    /// `(seed, stream)` pairs produce independent sequences.
    pub fn substream(seed: u64, stream: u64) -> Self {
        // Key = seed repeated and mixed; the stream index goes into ChaCha's
        // dedicated 64-bit stream field so substreams never overlap.
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        key[8..16].copy_from_slice(
            &seed
                .rotate_left(17)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .to_le_bytes(),
        );
        key[16..24].copy_from_slice(
            &seed
                .rotate_left(31)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .to_le_bytes(),
        );
        key[24..32].copy_from_slice(
            &seed
                .rotate_left(47)
                .wrapping_mul(0x94D0_49BB_1331_11EB)
                .to_le_bytes(),
        );
        let mut rng = ChaCha20Rng::from_seed(key);
        rng.set_stream(stream);
        Self { rng, seed, stream }
    }

    /// The master seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The stream index this stream was created from.
    pub fn stream_index(&self) -> u64 {
        self.stream
    }

    /// Derives a child stream with the same master seed and a different
    /// stream index. Useful when a component needs to hand independent
    /// randomness to sub-components deterministically.
    pub fn child(&self, index: u64) -> Self {
        Self::substream(
            self.seed,
            self.stream.wrapping_mul(0x1_0000).wrapping_add(index + 1),
        )
    }
}

impl RngCore for RandomStream {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.rng.next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.rng.fill_bytes(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.rng.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = RandomStream::new(42);
        let mut b = RandomStream::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RandomStream::new(1);
        let mut b = RandomStream::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_are_independent() {
        let mut a = RandomStream::substream(7, 0);
        let mut b = RandomStream::substream(7, 1);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn child_streams_are_reproducible_and_distinct() {
        let parent = RandomStream::substream(9, 3);
        let mut c1 = parent.child(0);
        let mut c1_again = parent.child(0);
        let mut c2 = parent.child(1);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        let same = (0..32).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn accessors_report_identity() {
        let s = RandomStream::substream(11, 4);
        assert_eq!(s.seed(), 11);
        assert_eq!(s.stream_index(), 4);
    }

    #[test]
    fn uniform_samples_are_roughly_uniform() {
        let mut s = RandomStream::new(1234);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| s.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01);
    }

    #[test]
    fn fill_bytes_works() {
        let mut s = RandomStream::new(5);
        let mut buf = [0u8; 64];
        s.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        let mut buf2 = [0u8; 64];
        s.try_fill_bytes(&mut buf2).unwrap();
        assert_ne!(buf, buf2);
    }
}

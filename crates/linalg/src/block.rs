//! Planar, caller-owned sample buffers for streaming generation; their
//! design notes are on [`SampleBlock`].

use crate::complex::Complex64;
use crate::matrix::CMatrix;

/// A planar `N × M` block of complex Gaussian fading samples with a lazily
/// computed envelope view.
///
/// Every generator in the workspace produces blocks of `N` correlated
/// envelope processes observed over `M` time samples. Materializing each
/// block as a fresh `Vec<Vec<Complex64>>` (one heap allocation per envelope
/// per block, plus a redundant envelope copy) caps throughput and makes
/// serving many concurrent channel simulations impossible. [`SampleBlock`]
/// fixes the data layout instead:
///
/// * one contiguous `Vec<Complex64>` holding the `N × M` complex Gaussian
///   samples **planar** (envelope-major): sample `l` of envelope `j` lives at
///   index `j·M + l`, so each envelope path is a contiguous slice,
/// * a **lazy** envelope (modulus) view computed on demand and cached until
///   the complex data is mutably borrowed again,
/// * capacity-reusing [`SampleBlock::resize`] so a block pooled by a caller
///   (or a worker thread) performs **zero heap allocation** in steady state.
///
/// The streaming trait that fills these buffers (`ChannelStream`) lives in
/// the `corrfade` core crate; this type only owns the data layout.
///
/// The complex data is envelope-major: [`SampleBlock::path`]`(j)` is the
/// contiguous time series of envelope `j`, sample `l` of it at index
/// `j·M + l` of [`SampleBlock::as_slice`].
#[derive(Debug, Clone, Default)]
pub struct SampleBlock {
    envelopes: usize,
    samples: usize,
    data: Vec<Complex64>,
    /// Cached `|z|` values in the same planar layout; only meaningful while
    /// `env_valid` holds.
    env: Vec<f64>,
    env_valid: bool,
}

impl SampleBlock {
    /// Creates a zero-filled block of `envelopes × samples` complex samples.
    #[must_use]
    pub fn new(envelopes: usize, samples: usize) -> Self {
        Self {
            envelopes,
            samples,
            data: vec![Complex64::ZERO; envelopes * samples],
            env: Vec::new(),
            env_valid: false,
        }
    }

    /// Creates an empty `0 × 0` block — the natural starting state for a
    /// pooled buffer that a `ChannelStream` will size on first use.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of envelope processes `N`.
    #[must_use]
    pub fn envelopes(&self) -> usize {
        self.envelopes
    }

    /// Number of time samples `M` per envelope.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// `true` when the block holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total number of complex samples, `N·M`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Resizes the block to `envelopes × samples`, **reusing the existing
    /// allocation** whenever the new size fits the current capacity. The
    /// sample contents are unspecified after a shape change; the envelope
    /// cache is invalidated.
    pub fn resize(&mut self, envelopes: usize, samples: usize) {
        let new_len = envelopes * samples;
        if self.envelopes == envelopes && self.samples == samples {
            return;
        }
        self.data.resize(new_len, Complex64::ZERO);
        self.envelopes = envelopes;
        self.samples = samples;
        self.env_valid = false;
    }

    /// The contiguous time series of envelope `j`.
    ///
    /// # Panics
    /// Panics if `j >= self.envelopes()`.
    #[must_use]
    pub fn path(&self, j: usize) -> &[Complex64] {
        assert!(
            j < self.envelopes,
            "path: envelope index {j} out of range (N = {})",
            self.envelopes
        );
        &self.data[j * self.samples..(j + 1) * self.samples]
    }

    /// Mutable access to the time series of envelope `j`. Invalidates the
    /// envelope cache.
    ///
    /// # Panics
    /// Panics if `j >= self.envelopes()`.
    pub fn path_mut(&mut self, j: usize) -> &mut [Complex64] {
        assert!(
            j < self.envelopes,
            "path_mut: envelope index {j} out of range (N = {})",
            self.envelopes
        );
        self.env_valid = false;
        &mut self.data[j * self.samples..(j + 1) * self.samples]
    }

    /// The whole planar buffer (envelope-major): sample `l` of envelope `j`
    /// is at index `j·samples + l`.
    #[must_use]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable access to the whole planar buffer. Invalidates the envelope
    /// cache.
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        self.env_valid = false;
        &mut self.data
    }

    /// The Rayleigh envelope `|z|` series of envelope `j`, computing the
    /// cached envelope view on first use after a mutation.
    #[must_use]
    pub fn envelope_path(&mut self, j: usize) -> &[f64] {
        assert!(
            j < self.envelopes,
            "envelope_path: envelope index {j} out of range (N = {})",
            self.envelopes
        );
        self.ensure_envelopes();
        &self.env[j * self.samples..(j + 1) * self.samples]
    }

    /// The whole planar envelope view (`|z|` in the layout of
    /// [`SampleBlock::as_slice`]), computing it on first use after a
    /// mutation.
    #[must_use]
    pub fn envelope_slice(&mut self) -> &[f64] {
        self.ensure_envelopes();
        &self.env
    }

    fn ensure_envelopes(&mut self) {
        if self.env_valid {
            return;
        }
        self.env.resize(self.data.len(), 0.0);
        crate::kernel::envelope_into(&self.data, &mut self.env);
        self.env_valid = true;
    }

    /// Folds the outer products `Σ_l Z[l]·Z[l]ᴴ` of this block into `acc`
    /// (an `N × N` accumulator) without materializing any snapshot vector.
    /// Divide by the accumulated sample count to obtain the sample
    /// covariance.
    ///
    /// Dispatches through [`crate::kernel`]. On the scalar backend the
    /// summation runs sample-major (`l` outermost), matching a fold over
    /// materialized snapshots bit for bit; the
    /// vector backend reduces envelope pairs with multi-lane accumulators
    /// (within ≤ 1e-12 of scalar for unit-scale data) and mirrors the
    /// Hermitian image exactly.
    ///
    /// # Panics
    /// Panics if `acc` is not `N × N`.
    pub fn accumulate_covariance(&self, acc: &mut CMatrix) {
        let n = self.envelopes;
        let m = self.samples;
        assert_eq!(
            acc.shape(),
            (n, n),
            "accumulate_covariance: accumulator shape {:?} does not match N = {n}",
            acc.shape()
        );
        crate::kernel::accumulate_covariance(n, m, &self.data, acc.as_mut_slice());
    }

    /// Number of bytes the block occupies in the wire encoding of
    /// [`SampleBlock::encode_le_into`] (`N·M` complex samples × 16 bytes).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        self.data.len() * WIRE_BYTES_PER_SAMPLE
    }

    /// Appends the planar complex data to `out` in the wire encoding: the
    /// envelope-major sample order of [`SampleBlock::as_slice`], each sample
    /// as two little-endian IEEE-754 `f64` words (`re` then `im`), routed
    /// through [`f64::to_bits`] so the round trip with
    /// [`SampleBlock::decode_le_from`] is **bit-exact** — the foundation of
    /// the serving layer's wire-equivalence guarantee.
    ///
    /// Appends exactly [`SampleBlock::wire_len`] bytes; once `out` has the
    /// capacity (steady state of a pooled buffer), no heap allocation is
    /// performed. The lazy envelope view is derived data and never
    /// serialized.
    pub fn encode_le_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len());
        for z in &self.data {
            out.extend_from_slice(&z.re.to_bits().to_le_bytes());
            out.extend_from_slice(&z.im.to_bits().to_le_bytes());
        }
    }

    /// Rebuilds the block from the wire encoding of
    /// [`SampleBlock::encode_le_into`]: resizes to `envelopes × samples`
    /// (capacity-reusing) and fills the planar data from `bytes`,
    /// bit-exactly via [`f64::from_bits`]. Zero heap allocation once the
    /// block's capacity fits the shape.
    ///
    /// # Errors
    /// [`BlockWireError`] when `bytes` is not exactly
    /// `envelopes · samples · 16` bytes long — a typed error (never a
    /// panic), so adversarial frame payloads are rejected gracefully.
    pub fn decode_le_from(
        &mut self,
        envelopes: usize,
        samples: usize,
        bytes: &[u8],
    ) -> Result<(), BlockWireError> {
        let expected = envelopes
            .checked_mul(samples)
            .and_then(|n| n.checked_mul(WIRE_BYTES_PER_SAMPLE))
            .ok_or(BlockWireError {
                expected: usize::MAX,
                got: bytes.len(),
            })?;
        if bytes.len() != expected {
            return Err(BlockWireError {
                expected,
                got: bytes.len(),
            });
        }
        self.resize(envelopes, samples);
        self.env_valid = false;
        for (z, chunk) in self
            .data
            .iter_mut()
            .zip(bytes.chunks_exact(WIRE_BYTES_PER_SAMPLE))
        {
            let re = u64::from_le_bytes(chunk[..8].try_into().expect("chunk is 16 bytes"));
            let im = u64::from_le_bytes(chunk[8..].try_into().expect("chunk is 16 bytes"));
            z.re = f64::from_bits(re);
            z.im = f64::from_bits(im);
        }
        Ok(())
    }
}

/// Bytes one complex sample occupies in the [`SampleBlock::encode_le_into`]
/// wire encoding: two little-endian IEEE-754 `f64` words.
pub(crate) const WIRE_BYTES_PER_SAMPLE: usize = 16;

/// Typed rejection of a wire payload whose length does not match the block
/// shape it claims — returned by [`SampleBlock::decode_le_from`] so
/// truncated or padded network frames surface as errors, never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockWireError {
    /// Byte length the declared `envelopes × samples` shape requires
    /// (`usize::MAX` when the shape itself overflows).
    pub expected: usize,
    /// Byte length actually supplied.
    pub got: usize,
}

impl core::fmt::Display for BlockWireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "sample-block wire payload is {} byte(s) but the declared shape requires {}",
            self.got, self.expected
        )
    }
}

impl std::error::Error for BlockWireError {}

impl PartialEq for SampleBlock {
    /// Equality compares shape and complex contents; the lazily cached
    /// envelope view is ignored.
    fn eq(&self, other: &Self) -> bool {
        self.envelopes == other.envelopes
            && self.samples == other.samples
            && self.data == other.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn filled(n: usize, m: usize) -> SampleBlock {
        let mut b = SampleBlock::new(n, m);
        for j in 0..n {
            for (l, z) in b.path_mut(j).iter_mut().enumerate() {
                *z = c64(j as f64 + 1.0, l as f64);
            }
        }
        b
    }

    #[test]
    fn shape_and_layout() {
        let b = filled(3, 5);
        assert_eq!(b.envelopes(), 3);
        assert_eq!(b.samples(), 5);
        assert_eq!(b.len(), 15);
        assert!(!b.is_empty());
        assert_eq!(b.path(2)[4], c64(3.0, 4.0));
        // Planar: path j is data[j*m .. (j+1)*m].
        assert_eq!(b.as_slice()[2 * 5 + 4], c64(3.0, 4.0));
    }

    #[test]
    fn empty_block_is_empty() {
        let b = SampleBlock::empty();
        assert!(b.is_empty());
        assert_eq!(b.envelopes(), 0);
        assert_eq!(b.samples(), 0);
    }

    #[test]
    fn resize_reuses_capacity_and_is_idempotent() {
        let mut b = SampleBlock::new(4, 100);
        let cap = b.data.capacity();
        let ptr = b.data.as_ptr();
        b.resize(2, 50);
        b.resize(4, 100);
        assert_eq!(b.data.capacity(), cap);
        assert_eq!(b.data.as_ptr(), ptr);
        // Same-shape resize is a no-op.
        b.resize(4, 100);
        assert_eq!(b.len(), 400);
    }

    #[test]
    fn envelope_view_is_lazy_and_invalidated_by_mutation() {
        let mut b = filled(2, 3);
        let e = b.envelope_path(1).to_vec();
        for (l, &v) in e.iter().enumerate() {
            let expected = c64(2.0, l as f64).abs();
            assert!((v - expected).abs() < 1e-15);
        }
        // Mutate, then the view must be recomputed.
        b.path_mut(1)[0] = c64(30.0, 40.0);
        assert!((b.envelope_path(1)[0] - 50.0).abs() < 1e-12);
        // Full planar envelope view agrees with the per-path view.
        let full = b.envelope_slice().to_vec();
        assert!((full[3] - 50.0).abs() < 1e-12);
    }

    #[test]
    fn accumulate_covariance_matches_manual_outer_products() {
        let b = filled(2, 4);
        let mut acc = CMatrix::zeros(2, 2);
        b.accumulate_covariance(&mut acc);
        let mut expected = CMatrix::zeros(2, 2);
        for l in 0..4 {
            for a in 0..2 {
                for c in 0..2 {
                    expected[(a, c)] += b.path(a)[l] * b.path(c)[l].conj();
                }
            }
        }
        // The vector kernel backend may sum in a different order than the
        // manual sample-major fold, so compare with a tight tolerance
        // instead of bit equality (the scalar backend is bit-exact).
        assert!(acc.approx_eq(&expected, 1e-12));
        assert!(acc.is_hermitian(1e-12));
    }

    #[test]
    fn wire_round_trip_is_bit_exact_and_rejects_bad_lengths() {
        let mut src = filled(3, 5);
        // Include awkward bit patterns: negative zero, subnormal, NaN with
        // payload, infinity — the round trip must preserve the exact bits.
        src.path_mut(0)[0] = c64(-0.0, f64::MIN_POSITIVE / 4.0);
        src.path_mut(1)[2] = c64(f64::from_bits(0x7ff8_0000_dead_beef), f64::INFINITY);

        let mut wire = Vec::new();
        src.encode_le_into(&mut wire);
        assert_eq!(wire.len(), src.wire_len());
        assert_eq!(src.wire_len(), 3 * 5 * WIRE_BYTES_PER_SAMPLE);

        let mut dst = SampleBlock::empty();
        dst.decode_le_from(3, 5, &wire).unwrap();
        for (a, b) in src.as_slice().iter().zip(dst.as_slice()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }

        // Decoding into a warm same-shape block refreshes the stale
        // envelope cache.
        let mut warm = filled(3, 5);
        let _ = warm.envelope_path(0);
        warm.decode_le_from(3, 5, &wire).unwrap();
        assert!((warm.envelope_path(0)[0] - 0.0).abs() < f64::MIN_POSITIVE);

        // Truncated and padded payloads are typed errors, not panics.
        let err = dst
            .decode_le_from(3, 5, &wire[..wire.len() - 1])
            .unwrap_err();
        assert_eq!(err.expected, 240);
        assert_eq!(err.got, 239);
        assert!(err.to_string().contains("239"));
        assert!(dst.decode_le_from(3, 6, &wire).is_err());
        // Shape overflow is caught instead of wrapping.
        assert!(dst.decode_le_from(usize::MAX, usize::MAX, &wire).is_err());
    }

    #[test]
    fn equality_ignores_the_envelope_cache() {
        let mut a = filled(2, 3);
        let b = filled(2, 3);
        let _ = a.envelope_path(0);
        assert_eq!(a, b);
        let mut c = filled(2, 3);
        c.path_mut(0)[0] = c64(9.0, 9.0);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn path_bounds_checked() {
        let b = filled(2, 3);
        let _ = b.path(2);
    }
}

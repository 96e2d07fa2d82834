//! Doppler filter design and the Young–Beaulieu IDFT Rayleigh generator
//! (paper ref. \[7\], Fig. 2), the substrate of the real-time algorithm of
//! Sec. 5.
//!
//! The generator produces one baseband Rayleigh-fading sequence whose
//! normalized autocorrelation approximates the Clarke/Jakes target
//! `J₀(2π·f_m·d)` (`f_m` = maximum Doppler frequency normalized by the
//! sampling frequency, `d` = sample lag):
//!
//! 1. draw `M` i.i.d. complex Gaussians `A[k] − i·B[k]` with per-dimension
//!    variance `σ²_orig`,
//! 2. weight them by the real filter coefficients `F[k]` of Eq. (21),
//! 3. take an `M`-point IDFT.
//!
//! Crucially for the paper's contribution, the filter **changes the
//! variance** of the sequence: the output variance is
//! `σ_g² = 2·σ²_orig/M² · Σ_k F[k]²` (Eq. 19), *not* `σ²_orig`. The proposed
//! algorithm feeds this value into its coloring step; the Sorooshyari–Daut
//! baseline ignores it, which is exactly the flaw experiment E8 demonstrates.

use core::ops::Range;

use corrfade_linalg::kernel::{self, Backend};
use corrfade_linalg::{c64, Complex64};
use corrfade_randn::{polar_normals, polar_points_into};
use corrfade_specfun::bessel_j0;
use rand::Rng;

use crate::error::DspError;
use crate::fft::{ifft, ifft_in_place, ifft_in_place_with, ifft_vector_into};

/// Young's Doppler filter (paper Eq. 21): the square root of a discretized
/// Jakes power spectral density, with the band-edge bins adjusted so that the
/// filtered sequence reproduces `J₀(2π·f_m·d)` exactly in the limit.
#[derive(Debug, Clone)]
pub struct DopplerFilter {
    m: usize,
    fm: f64,
    km: usize,
    coeffs: Vec<f64>,
}

impl DopplerFilter {
    /// Designs the filter for an `m`-point IDFT and a normalized maximum
    /// Doppler frequency `fm = Fm / Fs`.
    ///
    /// # Errors
    /// * [`DspError::InvalidLength`] when `m < 8`,
    /// * [`DspError::InvalidDopplerFrequency`] when `fm` is outside
    ///   `(0, 0.5)` or `⌊fm·m⌋ < 1` (the filter would have no pass-band
    ///   bins).
    pub fn new(m: usize, fm: f64) -> Result<Self, DspError> {
        if m < 8 {
            return Err(DspError::InvalidLength {
                length: m,
                minimum: 8,
            });
        }
        if !(fm > 0.0 && fm < 0.5) {
            return Err(DspError::InvalidDopplerFrequency { fm });
        }
        let km = (fm * m as f64).floor() as usize;
        if km < 1 {
            return Err(DspError::InvalidDopplerFrequency { fm });
        }
        if 2 * km + 1 >= m {
            return Err(DspError::InvalidDopplerFrequency { fm });
        }

        let mut coeffs = vec![0.0f64; m];
        let mfm = m as f64 * fm;
        // Band-edge value (Eq. 21, k = km and k = M − km):
        // sqrt( km/2 · [π/2 − arctan((km−1)/√(2km−1))] ).
        let km_f = km as f64;
        let edge = (km_f / 2.0
            * (core::f64::consts::FRAC_PI_2 - ((km_f - 1.0) / (2.0 * km_f - 1.0).sqrt()).atan()))
        .sqrt();

        for (k, c) in coeffs.iter_mut().enumerate() {
            *c = if k == 0 {
                0.0
            } else if k < km {
                let r = k as f64 / mfm;
                (1.0 / (2.0 * (1.0 - r * r).sqrt())).sqrt()
            } else if k == km || k == m - km {
                edge
            } else if k > m - km {
                let r = (m - k) as f64 / mfm;
                (1.0 / (2.0 * (1.0 - r * r).sqrt())).sqrt()
            } else {
                0.0
            };
        }

        Ok(Self { m, fm, km, coeffs })
    }

    /// IDFT length `M`.
    pub fn len(&self) -> usize {
        self.m
    }

    /// `true` if the filter has no taps (never the case for a constructed
    /// filter, provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Normalized maximum Doppler frequency `fm = Fm / Fs`.
    pub fn fm(&self) -> f64 {
        self.fm
    }

    /// Index of the band edge, `km = ⌊fm·M⌋`.
    pub fn km(&self) -> usize {
        self.km
    }

    /// The filter coefficients `F[k]`, `k = 0 … M−1`.
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// `Σ_k F[k]²` — the energy term of Eq. (19).
    pub fn sum_squared(&self) -> f64 {
        self.coeffs.iter().map(|&f| f * f).sum()
    }

    /// Output variance `σ_g²` of the generated complex sequence for a given
    /// input per-dimension variance `σ²_orig` (paper Eq. 19):
    /// `σ_g² = 2·σ²_orig/M² · Σ_k F[k]²`.
    pub fn output_variance(&self, sigma_orig_sq: f64) -> f64 {
        assert!(sigma_orig_sq >= 0.0, "variance must be non-negative");
        2.0 * sigma_orig_sq / (self.m as f64 * self.m as f64) * self.sum_squared()
    }

    /// The sequence `g[d] = (1/M)·Σ_k F[k]²·e^{i2πkd/M}` of Eq. (17); the
    /// theoretical (non-normalized) autocorrelation of the generator output
    /// is `σ²_orig/M · Re{g[d]}` (Eq. 16).
    ///
    /// The spectrum `F[k]²` is real and even (`F[k] = F[M−k]`), so `g` is a
    /// real sequence: this takes the real part of one complex [`ifft`] of
    /// `F[k]²` and sets every imaginary part (round-off noise) to exactly
    /// zero. Unlike the generation paths, this analysis helper is not
    /// covered by the `CORRFADE_KERNEL=scalar` bit-exactness pin: values
    /// agree across backends and releases to ≤ 1e-12.
    pub fn autocorrelation_kernel(&self) -> Vec<Complex64> {
        // ifft applies the 1/M factor of Eq. 17.
        let spectrum: Vec<Complex64> = self.coeffs.iter().map(|&f| c64(f * f, 0.0)).collect();
        ifft(&spectrum)
            .into_iter()
            .map(|g| c64(g.re, 0.0))
            .collect()
    }

    /// Normalized autocorrelation `ρ[d] = Re{g[d]} / Re{g[0]}` of the
    /// generated fading process. By the filter's construction this
    /// approximates the Clarke/Jakes target `J₀(2π·f_m·d)` (paper Eq. 20).
    pub fn normalized_autocorrelation(&self, max_lag: usize) -> Vec<f64> {
        let g = self.autocorrelation_kernel();
        let g0 = g[0].re;
        (0..=max_lag.min(self.m - 1))
            .map(|d| g[d].re / g0)
            .collect()
    }

    /// The ideal target autocorrelation `J₀(2π·f_m·d)` for lags
    /// `0 … max_lag` — what [`Self::normalized_autocorrelation`] converges to
    /// as `M` grows.
    pub fn target_autocorrelation(&self, max_lag: usize) -> Vec<f64> {
        (0..=max_lag)
            .map(|d| bessel_j0(2.0 * core::f64::consts::PI * self.fm * d as f64))
            .collect()
    }
}

/// The Young–Beaulieu IDFT Rayleigh generator (paper Fig. 2): one instance
/// produces one independent baseband fading sequence of length `M` per call.
#[derive(Debug, Clone)]
pub struct IdftRayleighGenerator {
    filter: DopplerFilter,
    sigma_orig_sq: f64,
}

impl IdftRayleighGenerator {
    /// Creates a generator from a designed filter and the per-dimension input
    /// variance `σ²_orig` of the Gaussian sequences `{A[k]}`, `{B[k]}`.
    pub fn new(filter: DopplerFilter, sigma_orig_sq: f64) -> Result<Self, DspError> {
        if sigma_orig_sq <= 0.0 || sigma_orig_sq.is_nan() {
            return Err(DspError::InvalidVariance {
                value: sigma_orig_sq,
            });
        }
        Ok(Self {
            filter,
            sigma_orig_sq,
        })
    }

    /// The underlying Doppler filter.
    pub fn filter(&self) -> &DopplerFilter {
        &self.filter
    }

    /// Per-dimension variance of the Gaussian input sequences.
    pub fn sigma_orig_sq(&self) -> f64 {
        self.sigma_orig_sq
    }

    /// Output variance `σ_g²` of the generated sequence (Eq. 19). This is the
    /// value the paper's real-time algorithm must feed into its coloring step
    /// instead of assuming unit variance.
    pub fn output_variance(&self) -> f64 {
        self.filter.output_variance(self.sigma_orig_sq)
    }

    /// Generates one fading sequence `u[l]`, `l = 0 … M−1`:
    /// `u = IDFT{ F[k]·(A[k] − i·B[k]) }` — the Young–Beaulieu generator of
    /// ref. \[7\]: the spectrum of
    /// [`IdftRayleighGenerator::fill_spectrum_into`], transformed in place.
    ///
    /// The envelope `|u[l]|` is Rayleigh distributed and the sequence has the
    /// autocorrelation of Eq. (16).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; self.filter.len()];
        self.fill_spectrum_into(rng, &mut out);
        ifft_in_place(&mut out);
        out
    }

    /// Writes the Doppler-weighted spectrum `F[k]·(A[k] − i·B[k])` into
    /// `out` **without** transforming it — the first half of
    /// [`IdftRayleighGenerator::generate`], split out so the realtime
    /// path can transform and color `N` stacked spectra in one call
    /// ([`color_idft_block`], which on the vector backend colors only the
    /// bins this leaves nonzero, before the transform).
    /// Consumes exactly the same RNG draws in the same order as
    /// `generate`.
    ///
    /// Each bin takes one accepted Marsaglia-polar point `x + i·y`
    /// ([`corrfade_randn::polar_points_into`] draws them all
    /// first, into `out`). With `(x·g, y·g)` from
    /// [`corrfade_randn::polar_normals`],
    /// `A[k] = 0 + σ_orig·(x·g)` and `B[k] = 0 + σ_orig·(y·g)`: the
    /// arithmetic of two `NormalSampler::sample_with(rng, 0, σ_orig)` calls
    /// on a sampler whose pair cache starts empty. A bin with `F[k] = 0`
    /// skips the transform and writes `F[k]·x`, `−F[k]·y`: zero times a
    /// finite number keeps only the signs, and `A[k]` has the sign of `x`
    /// (`B[k]` of `y`), so the spectrum is bit-identical, signed zeros
    /// included. At the paper's `f_m = 0.05` that is 90 % of the bins.
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the filter length `M`.
    pub fn fill_spectrum_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [Complex64]) {
        let m = self.filter.len();
        assert_eq!(
            out.len(),
            m,
            "fill_spectrum_into: buffer length {} does not match IDFT size {m}",
            out.len()
        );
        // One accepted polar point per bin, in bin order, then the
        // transform where the Doppler weight needs it.
        polar_points_into(rng, out);
        let std = self.sigma_orig_sq.sqrt();
        // `0 · ±∞` is NaN, so the sign shortcut needs a finite σ_orig.
        let zero_bins_shortcut = std.is_finite();
        for (slot, &f) in out.iter_mut().zip(self.filter.coefficients()) {
            *slot = if f == 0.0 && zero_bins_shortcut {
                c64(f * slot.re, -f * slot.im)
            } else {
                let (xg, yg) = polar_normals(*slot);
                c64(f * (0.0 + std * xg), -f * (0.0 + std * yg))
            };
        }
    }

    /// Consumes exactly the RNG draws of one
    /// [`IdftRayleighGenerator::fill_spectrum_into`] call **without**
    /// producing a spectrum — the fast-forward primitive behind stream
    /// resume (`RealtimeGenerator::skip_blocks`): advancing a stream past
    /// blocks a reconnecting client already holds only needs the RNG state
    /// moved, not the transform or coloring work.
    ///
    /// `fill_spectrum_into` takes one accepted polar point per bin, in bin
    /// order; this draws the same points (into a stack buffer, a chunk at a
    /// time) and transforms none of them. How many words the accept test
    /// consumes depends only on the RNG output sequence, so skipping
    /// consumes exactly the words of a fill.
    pub fn skip_spectrum<R: Rng + ?Sized>(&self, rng: &mut R) {
        let mut points = [Complex64::ZERO; 256];
        let mut left = self.filter.len();
        while left > 0 {
            let n = left.min(points.len());
            polar_points_into(rng, &mut points[..n]);
            left -= n;
        }
    }
}

/// Inverse-transforms each of the `n` length-`m` rows of `raw` (including
/// the `1/m` factor) and colors the block into `out`, on the process-wide
/// kernel backend: `out[i·m + l] = scale · Σ_j a[i·n + j] · IDFT(raw_j)[l]`
/// — steps 6–8 of the Sec. 5 algorithm. **`raw` is destroyed.**
/// `w_scratch` and `scratch` are caller-pooled buffers, grown on first
/// use; with warm buffers the call performs no heap allocation.
///
/// The coloring acts on each time instant and the IDFT along each row, so
/// `A·IDFT(u) = IDFT(A·u)`, and the two backends use the two orders:
///
/// * scalar: `ifft_in_place` per row, then [`kernel::color_block_with`]
///   over all `m` samples — the bit-exact reference;
/// * vector: one pass over the rows finds the `K` bins that are nonzero in
///   some row, `color_block_with` colors those `K` columns only (gathered
///   into `w_scratch`) and puts them back, and each row is inverse-transformed
///   straight into `out`. A bin that is zero in every row stays zero after
///   coloring, so the coloring costs `N²·K` instead of `N²·M`: `K` is 408
///   of 4096 bins at the paper's `f_m = 0.05`. A value counts as zero when
///   both parts are `±0`; NaN and ∞ count as nonzero, so a NaN bin (from
///   `σ_orig = ∞`) still spreads NaN as the scalar order does.
///
/// The backends agree to `max|vector − scalar| ≤ 1e-12·max|scalar|`
/// (the `backend_drift` suite), not bit for bit.
///
/// # Panics
/// Panics on any dimension mismatch.
#[allow(clippy::too_many_arguments)]
pub fn color_idft_block(
    n: usize,
    m: usize,
    a: &[Complex64],
    scale: f64,
    raw: &mut [Complex64],
    out: &mut [Complex64],
    w_scratch: &mut Vec<Complex64>,
    scratch: &mut Vec<f64>,
) {
    color_idft_block_with(
        kernel::backend(),
        n,
        m,
        a,
        scale,
        raw,
        out,
        w_scratch,
        scratch,
    );
}

/// [`color_idft_block`] on an explicit kernel backend — the entry point the
/// scalar-vs-vector drift tests and the `kernel_dispatch` benchmark drive.
///
/// # Panics
/// Panics on any dimension mismatch.
#[allow(clippy::too_many_arguments)]
pub fn color_idft_block_with(
    b: Backend,
    n: usize,
    m: usize,
    a: &[Complex64],
    scale: f64,
    raw: &mut [Complex64],
    out: &mut [Complex64],
    w_scratch: &mut Vec<Complex64>,
    scratch: &mut Vec<f64>,
) {
    assert_eq!(a.len(), n * n, "color_idft_block: coloring matrix storage");
    assert_eq!(raw.len(), n * m, "color_idft_block: raw block length");
    assert_eq!(out.len(), n * m, "color_idft_block: output block length");
    if n == 0 || m == 0 {
        return;
    }
    if b == Backend::Scalar {
        for row in raw.chunks_exact_mut(m) {
            ifft_in_place_with(b, row);
        }
        return kernel::color_block_with(b, n, m, a, scale, raw, out, w_scratch, scratch);
    }
    BIN_RUNS.with(|runs| {
        let runs = &mut *runs.borrow_mut();
        nonzero_runs(m, raw, runs);
        let k: usize = runs.iter().map(Range::len).sum();
        if k == 0 {
            return;
        }
        w_scratch.resize(2 * n * k, Complex64::ZERO);
        let (gathered, colored) = w_scratch.split_at_mut(n * k);
        for (g, row) in gathered.chunks_exact_mut(k).zip(raw.chunks_exact(m)) {
            let mut at = 0;
            for bins in runs.iter() {
                g[at..at + bins.len()].copy_from_slice(&row[bins.clone()]);
                at += bins.len();
            }
        }
        // The vector coloring keeps its planes in `scratch` and has no use
        // for a gather buffer of its own.
        let mut unused = Vec::new();
        kernel::color_block_with(b, n, k, a, scale, gathered, colored, &mut unused, scratch);
        for (c, row) in colored.chunks_exact(k).zip(raw.chunks_exact_mut(m)) {
            let mut at = 0;
            for bins in runs.iter() {
                row[bins.clone()].copy_from_slice(&c[at..at + bins.len()]);
                at += bins.len();
            }
        }
    });
    for (src, dst) in raw.chunks_exact_mut(m).zip(out.chunks_exact_mut(m)) {
        ifft_vector_into(src, dst);
    }
}

std::thread_local! {
    /// Per-thread list of the nonzero bin runs of the vector
    /// [`color_idft_block_with`]. Its capacity covers the most runs a
    /// length can have, so warm calls allocate nothing.
    static BIN_RUNS: core::cell::RefCell<Vec<Range<usize>>> =
        const { core::cell::RefCell::new(Vec::new()) };
}

/// Bins per step of [`nonzero_runs`]: one `u64` mask's worth.
const SCAN_CHUNK: usize = 64;

/// Writes to `runs`, ascending and maximal, the ranges of bins `k < m`
/// that are nonzero in some length-`m` row of `raw`. A value counts as
/// zero when both parts are `±0`: `((re | im) << 1) != 0` on the bits
/// drops only the sign bits, so NaN and ∞ count as nonzero. Each chunk of
/// [`SCAN_CHUNK`] bins ORs the bits of every row into one word per bin, so
/// `raw` is read once and the words stay in L1.
fn nonzero_runs(m: usize, raw: &[Complex64], runs: &mut Vec<Range<usize>>) {
    runs.clear();
    runs.reserve(m.div_ceil(2));
    #[cfg(target_arch = "x86_64")]
    if kernel::vector_uses_fma() {
        // SAFETY: AVX2 detected.
        return unsafe { nonzero_runs_avx2(m, raw, runs) };
    }
    nonzero_runs_body(m, raw, runs);
}

/// [`nonzero_runs_body`] compiled for AVX2, where the word loop and the
/// mask build vectorize (the baseline SSE2 build takes about twice as long).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn nonzero_runs_avx2(m: usize, raw: &[Complex64], runs: &mut Vec<Range<usize>>) {
    nonzero_runs_body(m, raw, runs);
}

/// The scan of [`nonzero_runs`], for `runs` already cleared.
#[inline(always)]
fn nonzero_runs_body(m: usize, raw: &[Complex64], runs: &mut Vec<Range<usize>>) {
    for c0 in (0..m).step_by(SCAN_CHUNK) {
        let len = SCAN_CHUNK.min(m - c0);
        let mut words = [0u64; SCAN_CHUNK];
        for row in raw.chunks_exact(m) {
            for (w, z) in words.iter_mut().zip(&row[c0..c0 + len]) {
                *w |= z.re.to_bits() | z.im.to_bits();
            }
        }
        if words.iter().fold(0, |x, &w| x | w) << 1 == 0 {
            continue;
        }
        let mut mask = words
            .iter()
            .enumerate()
            .fold(0u64, |mask, (j, &w)| mask | u64::from(w << 1 != 0) << j);
        while mask != 0 {
            let first = mask.trailing_zeros() as usize;
            let end = first + (mask >> first).trailing_ones() as usize;
            let bins = c0 + first..c0 + end;
            match runs.last_mut() {
                Some(last) if last.end == bins.start => last.end = bins.end,
                _ => runs.push(bins),
            }
            mask &= u64::MAX.checked_shl(end as u32).unwrap_or(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_randn::RandomStream;

    /// Paper parameters: M = 4096, fm = 0.05 → km = 204.
    fn paper_filter() -> DopplerFilter {
        DopplerFilter::new(4096, 0.05).unwrap()
    }

    #[test]
    fn paper_km_value() {
        let f = paper_filter();
        assert_eq!(
            f.km(),
            204,
            "paper reports km = 204 for fm = 0.05, M = 4096"
        );
        assert_eq!(f.len(), 4096);
        assert!((f.fm() - 0.05).abs() < 1e-15);
        assert!(!f.is_empty());
    }

    #[test]
    fn filter_structure_matches_eq21() {
        let f = paper_filter();
        let c = f.coefficients();
        let m = f.len();
        let km = f.km();
        // k = 0 and the stop band are zero.
        assert_eq!(c[0], 0.0);
        for (k, &ck) in c.iter().enumerate().take(m - km).skip(km + 1) {
            assert_eq!(ck, 0.0, "stop band must be zero at k = {k}");
        }
        // Symmetry F[k] = F[M-k] for k in the pass band.
        for k in 1..=km {
            assert!(
                (c[k] - c[m - k]).abs() < 1e-12,
                "filter must be symmetric at k = {k}"
            );
        }
        // Pass-band values follow the closed form.
        let mfm = m as f64 * f.fm();
        for (k, &ck) in c.iter().enumerate().take(km).skip(1) {
            let expected = (1.0 / (2.0 * (1.0 - (k as f64 / mfm).powi(2)).sqrt())).sqrt();
            assert!((ck - expected).abs() < 1e-12);
        }
        // Band-edge value is finite and positive (the raw Jakes PSD diverges
        // there; Young's correction keeps it bounded).
        assert!(c[km] > 0.0 && c[km].is_finite());
    }

    #[test]
    fn output_variance_formula() {
        let f = paper_filter();
        let sum_sq = f.sum_squared();
        let sigma_orig_sq = 0.5;
        let expected = 2.0 * sigma_orig_sq / (4096.0 * 4096.0) * sum_sq;
        assert!((f.output_variance(sigma_orig_sq) - expected).abs() < 1e-15);
        // Doubling the input variance doubles the output variance.
        assert!((f.output_variance(1.0) - 2.0 * f.output_variance(0.5)).abs() < 1e-15);
    }

    #[test]
    fn normalized_autocorrelation_tracks_bessel_target() {
        let f = paper_filter();
        let max_lag = 100;
        let rho = f.normalized_autocorrelation(max_lag);
        let target = f.target_autocorrelation(max_lag);
        assert!((rho[0] - 1.0).abs() < 1e-12);
        // Young's design reproduces J0(2π fm d) closely for lags well inside
        // the observation window.
        for d in 0..=max_lag {
            assert!(
                (rho[d] - target[d]).abs() < 0.02,
                "lag {d}: rho = {}, J0 = {}",
                rho[d],
                target[d]
            );
        }
    }

    #[test]
    fn autocorrelation_kernel_matches_the_cosine_sum() {
        // Eq. (17) summed directly: F[k]² is real and even, so
        // g[d] = (1/M)·Σ_k F[k]²·cos(2πkd/M), with no imaginary part.
        for m in [64usize, 256, 1024] {
            let f = DopplerFilter::new(m, 0.05).unwrap();
            let g = f.autocorrelation_kernel();
            assert_eq!(g.len(), m);
            for (d, gd) in g.iter().enumerate() {
                let direct = f
                    .coefficients()
                    .iter()
                    .enumerate()
                    .map(|(k, &fk)| {
                        let phase = ((k * d) % m) as f64 / m as f64;
                        fk * fk * (2.0 * core::f64::consts::PI * phase).cos()
                    })
                    .sum::<f64>()
                    / m as f64;
                assert!(
                    (gd.re - direct).abs() <= 1e-12,
                    "m = {m}, lag {d}: {} vs {direct}",
                    gd.re
                );
                assert_eq!(gd.im.to_bits(), 0.0f64.to_bits(), "m = {m}, lag {d}");
            }
        }
    }

    #[test]
    fn generated_sequence_has_predicted_variance() {
        let f = DopplerFilter::new(2048, 0.05).unwrap();
        let gen = IdftRayleighGenerator::new(f, 0.5).unwrap();
        let predicted = gen.output_variance();
        let mut rng = RandomStream::new(42);
        // Average the empirical variance over several independent sequences.
        let runs = 20;
        let mut acc = 0.0;
        for _ in 0..runs {
            let u = gen.generate(&mut rng);
            acc += u.iter().map(|z| z.norm_sqr()).sum::<f64>() / u.len() as f64;
        }
        let empirical = acc / runs as f64;
        assert!(
            (empirical - predicted).abs() / predicted < 0.05,
            "empirical variance {empirical} vs predicted {predicted}"
        );
        // And it is definitely NOT the input variance σ²_orig — the
        // variance-changing effect the paper corrects for.
        assert!((empirical - 0.5).abs() / 0.5 > 0.5);
    }

    #[test]
    fn generated_sequence_is_zero_mean_and_circular() {
        let f = DopplerFilter::new(1024, 0.1).unwrap();
        let gen = IdftRayleighGenerator::new(f, 1.0).unwrap();
        let mut rng = RandomStream::new(7);
        let mut mean = Complex64::ZERO;
        let mut cross = 0.0;
        let mut count = 0usize;
        for _ in 0..30 {
            let u = gen.generate(&mut rng);
            for &z in &u {
                mean += z;
                cross += z.re * z.im;
                count += 1;
            }
        }
        let mean = mean / count as f64;
        let cross = cross / count as f64;
        let sigma = gen.output_variance().sqrt();
        assert!(mean.abs() < 0.05 * sigma, "mean {mean}");
        assert!(
            cross.abs() < 0.05 * sigma * sigma,
            "re/im correlation {cross}"
        );
    }

    #[test]
    fn empirical_autocorrelation_matches_kernel() {
        let f = DopplerFilter::new(1024, 0.08).unwrap();
        let gen = IdftRayleighGenerator::new(f.clone(), 0.5).unwrap();
        let mut rng = RandomStream::new(3);
        let runs = 200;
        let max_lag = 30;
        let mut acc = vec![0.0f64; max_lag + 1];
        for _ in 0..runs {
            let u = gen.generate(&mut rng);
            let m = u.len();
            for d in 0..=max_lag {
                let mut s = 0.0;
                for l in 0..m {
                    s += u[l].re * u[(l + d) % m].re;
                }
                acc[d] += s / m as f64;
            }
        }
        for v in acc.iter_mut() {
            *v /= runs as f64;
        }
        let rho_emp: Vec<f64> = acc.iter().map(|&v| v / acc[0]).collect();
        let rho_theory = f.normalized_autocorrelation(max_lag);
        for d in 0..=max_lag {
            assert!(
                (rho_emp[d] - rho_theory[d]).abs() < 0.06,
                "lag {d}: empirical {} vs theoretical {}",
                rho_emp[d],
                rho_theory[d]
            );
        }
    }

    #[test]
    fn generate_is_the_idft_of_fill_spectrum_into() {
        for m in [1024usize, 1000] {
            let f = DopplerFilter::new(m, 0.05).unwrap();
            let gen = IdftRayleighGenerator::new(f, 0.5).unwrap();
            let a = gen.generate(&mut RandomStream::new(11));
            let mut spectrum = vec![Complex64::ZERO; m];
            gen.fill_spectrum_into(&mut RandomStream::new(11), &mut spectrum);
            assert_eq!(a, ifft(&spectrum), "m = {m}");
        }
    }

    #[test]
    fn empty_dimensions_are_no_ops() {
        let (mut w, mut s) = (Vec::new(), Vec::new());
        color_idft_block(0, 0, &[], 1.0, &mut [], &mut [], &mut w, &mut s);
    }

    /// The runs of bins that are nonzero in some row, one bin at a time.
    fn reference_runs(m: usize, raw: &[Complex64]) -> Vec<Range<usize>> {
        let nonzero = |z: &Complex64| (z.re.to_bits() | z.im.to_bits()) << 1 != 0;
        let mut runs: Vec<Range<usize>> = Vec::new();
        for k in (0..m).filter(|&k| raw.chunks_exact(m).any(|row| nonzero(&row[k]))) {
            match runs.last_mut() {
                Some(last) if last.end == k => last.end = k + 1,
                _ => runs.push(k..k + 1),
            }
        }
        runs
    }

    #[test]
    fn every_scan_body_finds_the_per_bin_runs() {
        let values = [
            c64(0.0, 0.0),
            c64(-0.0, 0.0),
            c64(0.0, -0.0),
            c64(-0.0, -0.0),
            c64(f64::MIN_POSITIVE / 4.0, 0.0),
            c64(-0.0, 1.0),
            c64(f64::NAN, 0.0),
            c64(0.0, f64::NEG_INFINITY),
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for (n, m) in [
            (1usize, 1usize),
            (3, 7),
            (2, 64),
            (3, 65),
            (4, 1000),
            (64, 256),
        ] {
            for density in [0u64, 1, 8, 64] {
                // Mostly signed zeros, a `density`/64 share of other values.
                let raw: Vec<Complex64> = (0..n * m)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let pick = (state >> 33) as usize;
                        if (state >> 58) < density {
                            values[4 + pick % 4]
                        } else {
                            values[pick % 4]
                        }
                    })
                    .collect();
                let expected = reference_runs(m, &raw);
                let mut runs = Vec::new();
                nonzero_runs(m, &raw, &mut runs);
                assert_eq!(runs, expected, "dispatched, n = {n}, m = {m}");
                runs.clear();
                nonzero_runs_body(m, &raw, &mut runs);
                assert_eq!(runs, expected, "generic, n = {n}, m = {m}");
                #[cfg(target_arch = "x86_64")]
                if kernel::vector_uses_fma() {
                    runs.clear();
                    // SAFETY: AVX2 detected.
                    unsafe { nonzero_runs_avx2(m, &raw, &mut runs) };
                    assert_eq!(runs, expected, "avx2, n = {n}, m = {m}");
                }
            }
        }
    }

    #[test]
    fn skip_spectrum_consumes_exactly_one_fill_of_rng() {
        // Fast-forward contract: skipping then filling must land on the same
        // RNG state (and therefore the same bits) as filling twice.
        let f = DopplerFilter::new(1024, 0.05).unwrap();
        let gen = IdftRayleighGenerator::new(f, 0.5).unwrap();

        let mut reference_rng = RandomStream::new(33);
        let mut first = vec![Complex64::ZERO; 1024];
        let mut second = vec![Complex64::ZERO; 1024];
        gen.fill_spectrum_into(&mut reference_rng, &mut first);
        gen.fill_spectrum_into(&mut reference_rng, &mut second);

        let mut skipping_rng = RandomStream::new(33);
        gen.skip_spectrum(&mut skipping_rng);
        let mut resumed = vec![Complex64::ZERO; 1024];
        gen.fill_spectrum_into(&mut skipping_rng, &mut resumed);

        for (a, b) in second.iter().zip(resumed.iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        let bits = |v: &[Complex64]| -> Vec<u64> { v.iter().map(|z| z.re.to_bits()).collect() };
        assert_ne!(
            bits(&first),
            bits(&second),
            "consecutive spectra must differ for the test to mean anything"
        );
    }

    #[test]
    #[should_panic(expected = "does not match IDFT size")]
    fn fill_spectrum_into_checks_buffer_length() {
        let f = DopplerFilter::new(1024, 0.05).unwrap();
        let gen = IdftRayleighGenerator::new(f, 0.5).unwrap();
        let mut short = vec![Complex64::ZERO; 512];
        gen.fill_spectrum_into(&mut RandomStream::new(1), &mut short);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(matches!(
            DopplerFilter::new(4, 0.05),
            Err(DspError::InvalidLength { .. })
        ));
        assert!(matches!(
            DopplerFilter::new(1024, 0.0),
            Err(DspError::InvalidDopplerFrequency { .. })
        ));
        assert!(matches!(
            DopplerFilter::new(1024, 0.6),
            Err(DspError::InvalidDopplerFrequency { .. })
        ));
        // fm so small that km = 0.
        assert!(matches!(
            DopplerFilter::new(64, 0.001),
            Err(DspError::InvalidDopplerFrequency { .. })
        ));
        let f = DopplerFilter::new(1024, 0.05).unwrap();
        assert!(matches!(
            IdftRayleighGenerator::new(f, 0.0),
            Err(DspError::InvalidVariance { .. })
        ));
    }
}

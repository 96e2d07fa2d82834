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

use corrfade_linalg::{c64, Complex64};
use corrfade_specfun::bessel_j0;
use rand::Rng;

use crate::error::DspError;
use crate::fft::{ifft_in_place, irfft, rfft_len};

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
    /// real sequence and the inverse transform runs through [`irfft`] — one
    /// half-size complex FFT instead of a full `M`-point one — on **every**
    /// kernel backend. Unlike the generation paths, this analysis helper is
    /// therefore not covered by the `CORRFADE_KERNEL=scalar` bit-exactness
    /// pin: values agree with pre-kernel releases to ≤ 1e-12, and the
    /// imaginary parts (previously round-off noise) are now exactly zero.
    pub fn autocorrelation_kernel(&self) -> Vec<Complex64> {
        // The non-redundant half of the conjugate-symmetric spectrum
        // (irfft applies the 1/M factor of Eq. 17).
        let half: Vec<Complex64> = self.coeffs[..rfft_len(self.m)]
            .iter()
            .map(|&f| c64(f * f, 0.0))
            .collect();
        irfft(&half, self.m)
            .into_iter()
            .map(|g| c64(g, 0.0))
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
    /// `u = IDFT{ F[k]·(A[k] − i·B[k]) }`.
    ///
    /// The envelope `|u[l]|` is Rayleigh distributed and the sequence has the
    /// autocorrelation of Eq. (16).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; self.filter.len()];
        self.generate_into(rng, &mut out);
        out
    }

    /// Generates one fading sequence directly into a caller-owned buffer:
    /// the Doppler-weighted spectrum is written into `out` and transformed
    /// in place, so for power-of-two `M` the call performs **no
    /// steady-state heap allocation** (on the vector kernel backend the
    /// first transform of a given `M` builds the shared twiddle tables —
    /// see [`crate::fft::ifft_in_place`]). Numerically (and RNG-stream)
    /// identical to [`IdftRayleighGenerator::generate`], and bit-identical
    /// across releases under `CORRFADE_KERNEL=scalar`.
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the filter length `M`.
    pub fn generate_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [Complex64]) {
        self.fill_spectrum_into(rng, out);
        ifft_in_place(out);
    }

    /// Writes the Doppler-weighted spectrum `F[k]·(A[k] − i·B[k])` into
    /// `out` **without** transforming it — the first half of
    /// [`IdftRayleighGenerator::generate_into`], split out so the fused
    /// coloring+IDFT kernel ([`crate::fused`]) can own the transform.
    /// Consumes exactly the same RNG draws in the same order as
    /// `generate_into` (two per bin).
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the filter length `M`.
    pub fn fill_spectrum_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [Complex64]) {
        let m = self.filter.len();
        assert_eq!(
            out.len(),
            m,
            "generate_into: buffer length {} does not match IDFT size {m}",
            out.len()
        );
        let std = self.sigma_orig_sq.sqrt();
        // Draw A[k], B[k] ~ N(0, σ²_orig) i.i.d. and weight by F[k].
        let mut sampler = corrfade_randn::NormalSampler::default();
        for (slot, &f) in out.iter_mut().zip(self.filter.coefficients()) {
            let a = sampler.sample_with(rng, 0.0, std);
            let b = sampler.sample_with(rng, 0.0, std);
            *slot = c64(f * a, -f * b);
        }
    }

    /// Consumes exactly the RNG draws of one
    /// [`IdftRayleighGenerator::fill_spectrum_into`] call **without**
    /// producing a spectrum — the fast-forward primitive behind stream
    /// resume (`RealtimeGenerator::skip_blocks`): advancing a stream past
    /// blocks a reconnecting client already holds only needs the RNG state
    /// moved, not the transform or coloring work.
    ///
    /// The draw pattern must stay bit-for-bit identical to
    /// `fill_spectrum_into`: a fresh [`corrfade_randn::NormalSampler`] per
    /// call (the pair cache never crosses spectra) and two `N(0, σ_orig)`
    /// samples per bin, in bin order. The polar method's rejection count
    /// depends only on the RNG output sequence, so replaying the draws
    /// replays the consumption exactly.
    pub fn skip_spectrum<R: Rng + ?Sized>(&self, rng: &mut R) {
        let std = self.sigma_orig_sq.sqrt();
        let mut sampler = corrfade_randn::NormalSampler::default();
        for _ in 0..self.filter.len() {
            let _ = sampler.sample_with(rng, 0.0, std);
            let _ = sampler.sample_with(rng, 0.0, std);
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
    fn generate_into_is_bit_identical_to_generate() {
        for m in [1024usize, 1000] {
            let f = DopplerFilter::new(m, 0.05).unwrap();
            let gen = IdftRayleighGenerator::new(f, 0.5).unwrap();
            let a = gen.generate(&mut RandomStream::new(11));
            let mut b = vec![Complex64::ZERO; m];
            gen.generate_into(&mut RandomStream::new(11), &mut b);
            assert_eq!(a, b, "m = {m}");
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
    fn generate_into_checks_buffer_length() {
        let f = DopplerFilter::new(1024, 0.05).unwrap();
        let gen = IdftRayleighGenerator::new(f, 0.5).unwrap();
        let mut short = vec![Complex64::ZERO; 512];
        gen.generate_into(&mut RandomStream::new(1), &mut short);
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

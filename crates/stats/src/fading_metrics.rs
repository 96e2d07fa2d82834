//! Second-order fading statistics: level-crossing rate (LCR) and average
//! fade duration (AFD).
//!
//! These are the standard figures of merit used to judge whether a fading
//! simulator reproduces realistic temporal behaviour (Rappaport, ref. \[9\] of
//! the paper). For a Rayleigh process with maximum Doppler frequency `f_m`
//! and normalized threshold `ρ = R/R_rms`:
//!
//! ```text
//! LCR(ρ) = √(2π)·f_m·ρ·e^{−ρ²}            (crossings per second, or per
//!                                           sample when f_m is normalized)
//! AFD(ρ) = (e^{ρ²} − 1) / (ρ·f_m·√(2π))
//! ```
//!
//! The experiment harness uses the empirical estimators to verify the
//! real-time generator produces sequences consistent with the theory.
//!
//! All three empirical estimators read one [`FadeCounts`], which
//! [`fade_counts`] gathers in a single branch-free pass over the envelope:
//! samples below the threshold, fades and upward crossings. A caller that
//! needs all three figures for one envelope (the `corrfade-network` layer's
//! per-link metrics, once per link per epoch) calls [`fade_counts`] once
//! instead of scanning the envelope three times.
//!
//! The `_block` variants ([`empirical_lcr_block`], [`empirical_afd_block`],
//! [`outage_count_block`]) evaluate the same estimators directly on a
//! [`SampleBlock`]'s cached envelope view — no per-envelope copy, so a warm
//! block is measured with **zero heap allocation**.

use corrfade_linalg::SampleBlock;

/// Theoretical level-crossing rate of a Rayleigh process at normalized
/// threshold `rho = R / R_rms`, per unit of whatever `fm` is expressed in
/// (crossings per sample when `fm` is the normalized Doppler frequency).
pub fn theoretical_lcr(rho: f64, fm: f64) -> f64 {
    assert!(rho >= 0.0, "threshold must be non-negative");
    assert!(fm >= 0.0, "Doppler frequency must be non-negative");
    (2.0 * core::f64::consts::PI).sqrt() * fm * rho * (-rho * rho).exp()
}

/// Theoretical average fade duration of a Rayleigh process at normalized
/// threshold `rho = R / R_rms` (same time unit as [`theoretical_lcr`]).
pub fn theoretical_afd(rho: f64, fm: f64) -> f64 {
    assert!(rho > 0.0, "threshold must be positive");
    assert!(fm > 0.0, "Doppler frequency must be positive");
    ((rho * rho).exp() - 1.0) / (rho * fm * (2.0 * core::f64::consts::PI).sqrt())
}

/// Threshold statistics of one envelope, counted by [`fade_counts`] in a
/// single pass: everything the outage, LCR and AFD estimators read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FadeCounts {
    /// Samples strictly below the threshold (`r < t`).
    pub below: usize,
    /// Fades: maximal runs of consecutive below-threshold samples.
    pub fades: usize,
    /// Upward crossings: adjacent pairs with `r[l−1] < t` and `r[l] ≥ t`.
    pub up_crossings: usize,
}

impl FadeCounts {
    /// Mean fade length in samples, `below / fades` — `0.0` when the
    /// envelope never fades.
    #[must_use]
    pub fn mean_fade_len(&self) -> f64 {
        if self.fades == 0 {
            0.0
        } else {
            self.below as f64 / self.fades as f64
        }
    }
}

/// Counts the samples below `threshold`, the fades and the upward crossings
/// of `envelope` in one branch-free pass with two predicates, `r < t` and
/// `r ≥ t`. A NaN sample satisfies neither: it is not below, ends a fade
/// and completes no crossing.
#[must_use]
pub fn fade_counts(envelope: &[f64], threshold: f64) -> FadeCounts {
    let mut counts = FadeCounts::default();
    let mut was_below = false;
    for &r in envelope {
        let is_below = r < threshold;
        counts.below += usize::from(is_below);
        counts.fades += usize::from(is_below & !was_below);
        counts.up_crossings += usize::from(was_below & (r >= threshold));
        was_below = is_below;
    }
    counts
}

/// Empirical level-crossing rate: number of upward crossings of `threshold`
/// divided by the number of samples (crossings per sample).
///
/// # Panics
/// Panics if `envelope` has fewer than two samples.
pub fn empirical_lcr(envelope: &[f64], threshold: f64) -> f64 {
    assert!(
        envelope.len() >= 2,
        "empirical_lcr: need at least two samples"
    );
    fade_counts(envelope, threshold).up_crossings as f64 / envelope.len() as f64
}

/// Empirical average fade duration: mean number of consecutive samples spent
/// below `threshold`, in samples. Returns `0.0` when the envelope never
/// fades below the threshold.
///
/// # Panics
/// Panics if `envelope` is empty.
pub fn empirical_afd(envelope: &[f64], threshold: f64) -> f64 {
    assert!(!envelope.is_empty(), "empirical_afd: empty envelope");
    fade_counts(envelope, threshold).mean_fade_len()
}

/// Number of samples of `envelope` strictly below `threshold` — the outage
/// count, with `outage_count / len` the empirical outage probability
/// `Pr[r < R_th]`.
#[must_use]
pub(crate) fn outage_count(envelope: &[f64], threshold: f64) -> usize {
    fade_counts(envelope, threshold).below
}

/// [`empirical_lcr`] evaluated on envelope `j` of a [`SampleBlock`] through
/// its cached envelope view — no copy of the envelope series is made, so a
/// warm block is measured without any heap allocation.
///
/// # Panics
/// Panics if `j` is out of range or the block has fewer than two samples.
pub fn empirical_lcr_block(block: &mut SampleBlock, j: usize, threshold: f64) -> f64 {
    empirical_lcr(block.envelope_path(j), threshold)
}

/// [`empirical_afd`] evaluated on envelope `j` of a [`SampleBlock`] through
/// its cached envelope view (zero-copy, zero-allocation when warm).
///
/// # Panics
/// Panics if `j` is out of range or the block is empty.
pub fn empirical_afd_block(block: &mut SampleBlock, j: usize, threshold: f64) -> f64 {
    empirical_afd(block.envelope_path(j), threshold)
}

/// The outage count (samples strictly below `threshold`, the `below` field
/// of [`fade_counts`]) of envelope `j` of a [`SampleBlock`], read through
/// its cached envelope view (zero-copy, zero-allocation when warm).
///
/// # Panics
/// Panics if `j` is out of range.
pub fn outage_count_block(block: &mut SampleBlock, j: usize, threshold: f64) -> usize {
    outage_count(block.envelope_path(j), threshold)
}

/// Root-mean-square value of an envelope — the reference level for the
/// normalized threshold `ρ`.
///
/// # Panics
/// Panics if `envelope` is empty.
pub fn envelope_rms(envelope: &[f64]) -> f64 {
    assert!(!envelope.is_empty(), "envelope_rms: empty envelope");
    crate::descriptive::rms(envelope)
}

/// Converts an envelope to decibels around its RMS value — exactly the y-axis
/// of the paper's Fig. 4 ("dB around rms value").
///
/// # Panics
/// Panics if `envelope` is empty or its RMS vanishes.
pub fn envelope_db_around_rms(envelope: &[f64]) -> Vec<f64> {
    let rms = envelope_rms(envelope);
    assert!(rms > 0.0, "envelope_db_around_rms: zero RMS");
    envelope
        .iter()
        .map(|&r| 20.0 * (r.max(1e-300) / rms).log10())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theoretical_lcr_peaks_near_rho_of_one_over_sqrt2() {
        let fm = 0.05;
        let peak_rho = core::f64::consts::FRAC_1_SQRT_2;
        let at_peak = theoretical_lcr(peak_rho, fm);
        assert!(at_peak > theoretical_lcr(0.3, fm));
        assert!(at_peak > theoretical_lcr(1.5, fm));
        assert_eq!(theoretical_lcr(0.0, fm), 0.0);
    }

    #[test]
    fn theoretical_lcr_scales_linearly_with_fm() {
        assert!((theoretical_lcr(1.0, 0.1) - 2.0 * theoretical_lcr(1.0, 0.05)).abs() < 1e-15);
    }

    #[test]
    fn lcr_times_afd_equals_outage_probability() {
        // Identity: LCR(ρ)·AFD(ρ) = Pr[r < ρ·R_rms] = 1 − e^{−ρ²}.
        for &rho in &[0.1, 0.5, 1.0, 2.0] {
            for &fm in &[0.01, 0.05, 0.2] {
                let product = theoretical_lcr(rho, fm) * theoretical_afd(rho, fm);
                let outage = 1.0 - (-rho * rho).exp();
                assert!(
                    (product - outage).abs() < 1e-12,
                    "identity failed at rho={rho}, fm={fm}"
                );
            }
        }
    }

    #[test]
    fn empirical_lcr_counts_upward_crossings() {
        let env = [0.5, 1.5, 0.5, 1.5, 0.5, 1.5];
        // Threshold 1.0: upward crossings at indices 0->1, 2->3, 4->5.
        assert!((empirical_lcr(&env, 1.0) - 3.0 / 6.0).abs() < 1e-12);
        // Threshold above everything: no crossings.
        assert_eq!(empirical_lcr(&env, 10.0), 0.0);
    }

    #[test]
    fn empirical_afd_measures_fade_lengths() {
        //            below  below        below
        let env = [0.1, 0.2, 5.0, 5.0, 0.3, 5.0];
        // Fades below 1.0: [0.1, 0.2] (length 2) and [0.3] (length 1) → mean 1.5.
        assert!((empirical_afd(&env, 1.0) - 1.5).abs() < 1e-12);
        // Never below a tiny threshold.
        assert_eq!(empirical_afd(&env, 0.01), 0.0);
    }

    #[test]
    fn db_conversion_is_zero_at_rms() {
        let env = vec![2.0; 10];
        let db = envelope_db_around_rms(&env);
        for &d in &db {
            assert!(d.abs() < 1e-12);
        }
        // A value at half the RMS is about −6.02 dB.
        let env2 = [2.0, 2.0, 2.0, 2.0, 1.0];
        let db2 = envelope_db_around_rms(&env2);
        let rms = envelope_rms(&env2);
        assert!((db2[4] - 20.0 * (1.0f64 / rms).log10()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn lcr_needs_two_samples() {
        let _ = empirical_lcr(&[1.0], 0.5);
    }

    #[test]
    #[should_panic(expected = "empty envelope")]
    fn afd_needs_a_sample() {
        let _ = empirical_afd(&[], 0.5);
    }

    /// The three single-purpose loops the estimators ran before
    /// [`fade_counts`]: `(outage count, LCR, AFD)`.
    fn three_pass_reference(envelope: &[f64], threshold: f64) -> (usize, f64, f64) {
        let below = envelope.iter().filter(|&&r| r < threshold).count();
        let crossings = envelope
            .windows(2)
            .filter(|w| w[0] < threshold && w[1] >= threshold)
            .count();
        let lcr = crossings as f64 / envelope.len() as f64;
        let mut fades = 0usize;
        let mut total_below = 0usize;
        let mut in_fade = false;
        for &r in envelope {
            if r < threshold {
                total_below += 1;
                if !in_fade {
                    fades += 1;
                    in_fade = true;
                }
            } else {
                in_fade = false;
            }
        }
        let afd = if fades == 0 {
            0.0
        } else {
            total_below as f64 / fades as f64
        };
        (below, lcr, afd)
    }

    /// Asserts `fade_counts` and the three estimators equal the reference
    /// loops exactly on `envelope` at `threshold`.
    fn assert_matches_reference(envelope: &[f64], threshold: f64) {
        let (below, lcr, afd) = three_pass_reference(envelope, threshold);
        let counts = fade_counts(envelope, threshold);
        let context = format!("len {}, threshold {threshold}", envelope.len());
        assert_eq!(counts.below, below, "below, {context}");
        assert_eq!(
            outage_count(envelope, threshold),
            below,
            "outage, {context}"
        );
        assert_eq!(
            counts.up_crossings as f64 / envelope.len() as f64,
            lcr,
            "crossings, {context}"
        );
        assert_eq!(counts.mean_fade_len().to_bits(), afd.to_bits(), "{context}");
        if envelope.len() >= 2 {
            assert_eq!(empirical_lcr(envelope, threshold).to_bits(), lcr.to_bits());
        }
        if !envelope.is_empty() {
            assert_eq!(empirical_afd(envelope, threshold).to_bits(), afd.to_bits());
        }
    }

    #[test]
    fn fade_counts_match_the_three_loops_on_random_envelopes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFADE);
        for len in [1usize, 2, 63, 64, 65, 256] {
            for _ in 0..50 {
                // A slowly varying envelope, so fades span several samples.
                let mut level: f64 = rng.gen_range(0.0..2.0);
                let envelope: Vec<f64> = (0..len)
                    .map(|_| {
                        level = (level + rng.gen_range(-0.4..0.4)).abs();
                        level
                    })
                    .collect();
                for threshold in [0.0, 0.3, 1.0, 1.7, 3.0] {
                    assert_matches_reference(&envelope, threshold);
                }
            }
        }
    }

    #[test]
    fn fade_counts_match_the_three_loops_on_edge_cases() {
        for len in [1usize, 2, 63, 64, 65, 256] {
            // All below, all above, and every sample exactly at the
            // threshold (`r >= t` holds, so nothing is below).
            assert_matches_reference(&vec![0.5; len], 1.0);
            assert_matches_reference(&vec![2.0; len], 1.0);
            assert_matches_reference(&vec![1.0; len], 1.0);
            // Alternating below / at the threshold: a fade and a crossing at
            // every other sample, across the 64-sample boundaries.
            let alternating: Vec<f64> = (0..len).map(|l| [0.5, 1.0][l % 2]).collect();
            assert_matches_reference(&alternating, 1.0);
            let counts = fade_counts(&alternating, 1.0);
            assert_eq!(counts.fades, len.div_ceil(2));
            assert_eq!(counts.up_crossings, len / 2);
        }
        // NaN satisfies neither predicate: it is not below, ends a fade and
        // completes no crossing. ±∞ compare as ordinary values.
        let special = [
            0.5,
            f64::NAN,
            0.5,
            2.0,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NAN,
            f64::NAN,
            0.5,
            0.5,
            f64::INFINITY,
            f64::NAN,
        ];
        for threshold in [1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            for len in 1..=special.len() {
                assert_matches_reference(&special[..len], threshold);
            }
        }
        let counts = fade_counts(&special, 1.0);
        assert_eq!(
            counts,
            FadeCounts {
                below: 5,
                fades: 4,
                up_crossings: 3,
            }
        );
        assert_eq!(fade_counts(&[], 1.0), FadeCounts::default());
    }

    #[test]
    fn afd_is_zero_when_envelope_never_fades() {
        // All-above edge case: no fade is ever entered, so the average fade
        // duration is 0.0 — never NaN or infinity.
        let env = [2.0, 3.0, 2.5, 4.0];
        let afd = empirical_afd(&env, 1.0);
        assert!(afd.is_finite());
        assert_eq!(afd, 0.0);
    }

    #[test]
    fn afd_covers_the_whole_block_when_envelope_never_recovers() {
        // All-below edge case: one fade spanning every sample.
        let env = [0.1, 0.2, 0.05, 0.3, 0.15];
        let afd = empirical_afd(&env, 1.0);
        assert!(afd.is_finite());
        assert_eq!(afd, env.len() as f64);
        // LCR sees no upward crossing in either degenerate regime.
        assert_eq!(empirical_lcr(&env, 1.0), 0.0);
        assert_eq!(empirical_lcr(&[2.0, 3.0], 1.0), 0.0);
    }

    #[test]
    fn outage_count_counts_samples_below_threshold() {
        let env = [0.1, 0.2, 5.0, 5.0, 0.3, 5.0];
        assert_eq!(outage_count(&env, 1.0), 3);
        assert_eq!(outage_count(&env, 0.01), 0);
        assert_eq!(outage_count(&env, 10.0), env.len());
    }

    #[test]
    fn block_variants_match_the_slice_estimators() {
        use corrfade_linalg::c64;

        // Two envelopes with known moduli: 3-4-5 triangles scaled.
        let mut block = SampleBlock::new(2, 4);
        let moduli = [[0.5, 2.0, 0.25, 3.0], [2.0, 2.0, 2.0, 2.0]];
        for (j, row) in moduli.iter().enumerate() {
            for (l, &r) in row.iter().enumerate() {
                block.path_mut(j)[l] = c64(0.6 * r, 0.8 * r);
            }
        }
        for (j, row) in moduli.iter().enumerate() {
            let env: Vec<f64> = row.to_vec();
            assert!(
                (empirical_lcr_block(&mut block, j, 1.0) - empirical_lcr(&env, 1.0)).abs() < 1e-12
            );
            assert!(
                (empirical_afd_block(&mut block, j, 1.0) - empirical_afd(&env, 1.0)).abs() < 1e-12
            );
            assert_eq!(
                outage_count_block(&mut block, j, 1.0),
                outage_count(&env, 1.0)
            );
        }
        // The all-above envelope reports the degenerate-case contracts.
        assert_eq!(empirical_afd_block(&mut block, 1, 1.0), 0.0);
        assert_eq!(outage_count_block(&mut block, 1, 1.0), 0);
    }
}

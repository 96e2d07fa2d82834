//! # corrfade-dsp
//!
//! Signal-processing substrate of the `corrfade` workspace:
//!
//! * [`fn@fft`], [`ifft`], [`ifft_in_place_with`] — power-of-two and
//!   Bluestein forward/inverse DFTs (the
//!   paper's real-time generator is built around an `M = 4096`-point IDFT);
//!   every transform dispatches through the `corrfade_linalg::kernel`
//!   backend selection (scalar radix-2 reference vs. a radix-4 Stockham
//!   transform with AVX2+FMA stages),
//! * [`DopplerFilter`] — Young's Doppler filter (paper Eq. 21) and its
//!   output-variance formula (Eq. 19); [`IdftRayleighGenerator`] — the
//!   Young–Beaulieu IDFT Rayleigh generator
//!   (paper ref. \[7\], Fig. 2) that the proposed algorithm stacks `N` of in
//!   its real-time mode (Fig. 3), and [`color_idft_block`], the realtime
//!   hot path that inverts the `N` stacked spectra and colors the block.

#![warn(missing_docs)]

mod doppler;
mod error;
mod fft;

pub use doppler::{color_idft_block, color_idft_block_with, DopplerFilter, IdftRayleighGenerator};
pub use error::DspError;
pub use fft::{dft_naive, fft, ifft, ifft_in_place_with};

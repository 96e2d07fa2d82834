//! # corrfade-dsp
//!
//! Signal-processing substrate of the `corrfade` workspace:
//!
//! * [`mod@fft`] — radix-2 and Bluestein forward/inverse DFTs (the paper's
//!   real-time generator is built around an `M = 4096`-point IDFT) plus the
//!   real-signal [`rfft`]/[`irfft`] pair that halves the work of the
//!   conjugate-symmetric transforms; every transform dispatches through the
//!   `corrfade_linalg::kernel` backend selection (scalar reference vs.
//!   table-driven vectorized butterflies),
//! * [`fused`] — the fused coloring+IDFT kernel: the realtime hot path's
//!   final butterfly stage and coloring matvec run in one output pass,
//!   bit-identical to the two-pass path per backend,
//! * [`doppler`] — Young's Doppler filter (paper Eq. 21), its output-variance
//!   formula (Eq. 19) and the Young–Beaulieu IDFT Rayleigh generator
//!   (paper ref. \[7\], Fig. 2) that the proposed algorithm stacks `N` of in
//!   its real-time mode (Fig. 3).

#![warn(missing_docs)]

pub mod doppler;
pub mod error;
pub mod fft;
pub mod fused;

pub use doppler::{DopplerFilter, IdftRayleighGenerator};
pub use error::DspError;
pub use fft::{
    dft_naive, fft, ifft, ifft_in_place, ifft_in_place_with, irfft, is_power_of_two, rfft, rfft_len,
};
pub use fused::{color_idft_block, color_idft_block_with};

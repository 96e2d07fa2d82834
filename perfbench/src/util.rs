//! Small shared pieces: RNG adaptors for stage attribution, order
//! statistics, the metric list and the correctness-check ledger.

use std::time::{Duration, Instant};

use corrfade::linalg::Complex64;
use corrfade::randn::RandomStream;
use rand::RngCore;

/// Wraps the real keystream and records every word it hands out, so the
/// same words can be replayed with the keystream cost removed.
pub struct Recording<'a> {
    pub inner: &'a mut RandomStream,
    pub words: &'a mut Vec<u64>,
}

impl RngCore for Recording<'_> {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    fn next_u64(&mut self) -> u64 {
        let w = self.inner.next_u64();
        self.words.push(w);
        w
    }

    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        unreachable!("the generators draw words, never bytes");
    }
}

/// Hands out a recorded word sequence; `pos` tells how many words the
/// consumer took.
pub struct Replay<'a> {
    pub words: &'a [u64],
    pub pos: usize,
}

impl<'a> Replay<'a> {
    pub fn new(words: &'a [u64]) -> Self {
        Self { words, pos: 0 }
    }

    /// `true` when the consumer took exactly the recorded words.
    pub fn exhausted_exactly(&self) -> bool {
        self.pos == self.words.len()
    }
}

impl RngCore for Replay<'_> {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    fn next_u64(&mut self) -> u64 {
        let w = self.words.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        w
    }

    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        unreachable!("the generators draw words, never bytes");
    }
}

/// SplitMix64 finalizer: derives per-session seeds from the run seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive 64-bit digest of the exact bits of a sample buffer.
pub fn digest(data: &[Complex64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for z in data {
        for w in [z.re.to_bits(), z.im.to_bits()] {
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29);
        }
    }
    h
}

/// `true` when both buffers hold exactly the same bits.
pub fn same_bits(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The metrics as the JSON object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite value as JSON; non-finite values (a bug) become `null` so the
/// line stays parseable and the harness rejects it.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Ledger of correctness checks. Every check runs outside the timed
/// region; a failed check counts as a failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub passed: u64,
    pub failed: u64,
    pub lines: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, name: &str, ok: bool, detail: String) {
        if ok {
            self.passed += 1;
        } else {
            self.failed += 1;
        }
        self.lines.push(format!(
            "check {name}: {} ({detail})",
            if ok { "ok" } else { "FAILED" }
        ));
    }
}

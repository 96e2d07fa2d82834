//! Stage attribution: the work of one workload block split into the
//! crates that do it, each timed by calling that crate's public functions
//! from outside.
//!
//! A realtime block (paper Sec. 5) is replayed stage by stage:
//!
//! 1. `rand_chacha` — the keystream words the block consumes, counted with
//!    a recording adaptor and re-drawn from a second `RandomStream`;
//! 2. `dsp` spectrum fill — `fill_spectrum_into` over the recorded words
//!    (polar transform + Doppler weighting, keystream excluded);
//! 3. `dsp` fused IDFT + coloring — `color_idft_block` on the same spectra;
//! 4. `linalg` envelope — `envelope_into` on the colored block.
//!
//! The replay must reproduce the generator's own block bit for bit (a
//! check), and the stage times must add up to the generator's measured
//! block time within [`STAGE_TOLERANCE`]; the remainder is `core.self_us`.
//! A single-instant block (Sec. 4.4) is split the same way with the
//! complex-Gaussian draw and the per-snapshot `matvec_into` in place of the
//! spectrum fill and the fused kernel.

use std::hint::black_box;
use std::time::{Duration, Instant};

use corrfade::dsp::{color_idft_block, IdftRayleighGenerator};
use corrfade::linalg::{kernel, CMatrix, Complex64};
use corrfade::randn::{ComplexGaussian, NormalSampler, RandomStream};
use corrfade::{ChannelStream, CorrelatedRayleighGenerator, RealtimeGenerator, SampleBlock};
use rand::RngCore;

use crate::trace::Tracer;
use crate::util::{median, same_bits, us, Checks, Recording, Replay};

/// Largest share of the measured block time the stage sum may miss (in
/// either direction) before the attribution check fails.
pub const STAGE_TOLERANCE: f64 = 0.25;

/// Per-block stage times (µs) and counts, summed over the streams of one
/// workload block.
#[derive(Debug, Default, Clone)]
pub struct StageRep {
    pub words: f64,
    pub normals: f64,
    pub keystream: f64,
    pub polar: f64,
    pub fill: f64,
    pub skip_spectrum: f64,
    pub fused: f64,
    pub matvec: f64,
    pub envelope: f64,
    pub encode: f64,
    pub decode: f64,
    pub block: f64,
    pub skip_block: f64,
    pub flops: f64,
}

impl StageRep {
    fn add(&mut self, o: &StageRep) {
        self.words += o.words;
        self.normals += o.normals;
        self.keystream += o.keystream;
        self.polar += o.polar;
        self.fill += o.fill;
        self.skip_spectrum += o.skip_spectrum;
        self.fused += o.fused;
        self.matvec += o.matvec;
        self.envelope += o.envelope;
        self.encode += o.encode;
        self.decode += o.decode;
        self.block += o.block;
        self.skip_block += o.skip_block;
        self.flops += o.flops;
    }
}

/// Medians over the repetitions of a stage probe.
#[derive(Debug, Default, Clone)]
pub struct StageSummary {
    pub reps: usize,
    pub words: f64,
    pub normals: f64,
    pub keystream: f64,
    pub polar: f64,
    pub fill: f64,
    pub skip_spectrum: f64,
    pub fused: f64,
    pub matvec: f64,
    pub envelope: f64,
    pub encode: f64,
    pub decode: f64,
    pub block: f64,
    pub skip_block: f64,
    pub flops: f64,
    /// Σ of the stages on the block's critical path.
    pub stage_sum: f64,
}

fn summarize(reps: &[StageRep], single_instant: bool) -> StageSummary {
    let med = |f: fn(&StageRep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut s = StageSummary {
        reps: reps.len(),
        words: med(|r| r.words),
        normals: med(|r| r.normals),
        keystream: med(|r| r.keystream),
        polar: med(|r| r.polar),
        fill: med(|r| r.fill),
        skip_spectrum: med(|r| r.skip_spectrum),
        fused: med(|r| r.fused),
        matvec: med(|r| r.matvec),
        envelope: med(|r| r.envelope),
        encode: med(|r| r.encode),
        decode: med(|r| r.decode),
        block: med(|r| r.block),
        skip_block: med(|r| r.skip_block),
        flops: med(|r| r.flops),
        stage_sum: 0.0,
    };
    s.stage_sum = if single_instant {
        s.keystream + s.polar + s.matvec + s.envelope
    } else {
        s.keystream + s.fill + s.fused + s.envelope
    };
    s
}

fn time_keystream(ks: &mut RandomStream, words: usize) -> Duration {
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..words {
        acc = acc.wrapping_add(ks.next_u64());
    }
    black_box(acc);
    t.elapsed()
}

/// Scratch shared by both probes for the wire and matvec stages.
#[derive(Default)]
struct Scratch {
    wire: Vec<u8>,
    probe_block: SampleBlock,
    decoded: SampleBlock,
    env: Vec<f64>,
    snap: Vec<Complex64>,
    y: Vec<Complex64>,
}

impl Scratch {
    /// Envelope, wire and matvec stages over a planar `n × m` block.
    fn block_stages(
        &mut self,
        tr: &mut Tracer,
        n: usize,
        m: usize,
        coloring: &CMatrix,
        out: &[Complex64],
        rep: &mut StageRep,
    ) {
        self.env.resize(out.len(), 0.0);
        let s = tr.begin("linalg.envelope");
        let t = Instant::now();
        kernel::envelope_into(out, &mut self.env);
        rep.envelope = us(t.elapsed());
        tr.end(s);

        self.probe_block.resize(n, m);
        self.probe_block.as_mut_slice().copy_from_slice(out);
        self.wire.clear();
        let s = tr.begin("linalg.encode");
        let t = Instant::now();
        self.probe_block.encode_le_into(&mut self.wire);
        rep.encode = us(t.elapsed());
        tr.end(s);
        let s = tr.begin("linalg.decode");
        let t = Instant::now();
        let decoded = self.decoded.decode_le_from(n, m, &self.wire);
        rep.decode = us(t.elapsed());
        tr.end(s);
        black_box(decoded.is_ok());

        // One unbatched coloring matvec per sample over the block's
        // snapshot vectors (the single-instant hot loop's shape).
        self.snap.resize(n * m, Complex64::ZERO);
        for l in 0..m {
            for j in 0..n {
                self.snap[l * n + j] = out[j * m + l];
            }
        }
        self.y.resize(n, Complex64::ZERO);
        let s = tr.begin("linalg.matvec");
        let t = Instant::now();
        for l in 0..m {
            coloring.matvec_into(&self.snap[l * n..(l + 1) * n], &mut self.y);
            black_box(&self.y);
        }
        rep.matvec = us(t.elapsed());
        tr.end(s);
    }
}

/// One realtime stream of a workload block, with the parts needed to replay
/// its stages.
pub struct RealtimeProbe {
    gen: RealtimeGenerator,
    skipper: RealtimeGenerator,
    idft: IdftRayleighGenerator,
    std: f64,
    rng: RandomStream,
    ks: RandomStream,
    coloring: CMatrix,
    scale: f64,
    n: usize,
    m: usize,
    words: Vec<u64>,
    raw: Vec<Complex64>,
    work: Vec<Complex64>,
    out: Vec<Complex64>,
    normals: Vec<f64>,
    w: Vec<Complex64>,
    planes: Vec<f64>,
    block: SampleBlock,
    scratch: Scratch,
}

impl RealtimeProbe {
    /// `gen` must be freshly built from `seed` with Doppler input variance
    /// `sigma_orig_sq`, so the probe's own keystream replays its draws.
    pub fn new(gen: RealtimeGenerator, seed: u64, sigma_orig_sq: f64) -> Result<Self, String> {
        let idft = IdftRayleighGenerator::new(gen.filter().clone(), sigma_orig_sq)
            .map_err(|e| e.to_string())?;
        let n = gen.dimension();
        let m = gen.block_len();
        Ok(Self {
            skipper: gen.clone(),
            idft,
            std: sigma_orig_sq.sqrt(),
            rng: RandomStream::new(seed),
            ks: RandomStream::new(seed ^ 0x5EED),
            coloring: gen.coloring().matrix.clone(),
            scale: 1.0 / gen.doppler_output_variance().sqrt(),
            n,
            m,
            words: Vec::new(),
            raw: vec![Complex64::ZERO; n * m],
            work: vec![Complex64::ZERO; n * m],
            out: vec![Complex64::ZERO; n * m],
            normals: vec![0.0; 2 * m],
            w: Vec::new(),
            planes: Vec::new(),
            block: SampleBlock::empty(),
            scratch: Scratch::default(),
            gen,
        })
    }

    /// Share of the Doppler bins with a non-zero filter tap.
    pub fn nonzero_bin_frac(&self) -> f64 {
        let c = self.gen.filter().coefficients();
        c.iter().filter(|&&f| f != 0.0).count() as f64 / c.len() as f64
    }

    pub fn dimension(&self) -> usize {
        self.n
    }

    /// Replays one block stage by stage, then generates it for real.
    fn rep(&mut self, tr: &mut Tracer, checks: &mut Checks) -> StageRep {
        let (n, m) = (self.n, self.m);
        let mut rep = StageRep::default();

        self.words.clear();
        {
            let mut rec = Recording {
                inner: &mut self.rng,
                words: &mut self.words,
            };
            for j in 0..n {
                self.idft
                    .fill_spectrum_into(&mut rec, &mut self.raw[j * m..(j + 1) * m]);
            }
        }
        rep.words = self.words.len() as f64;
        rep.normals = (2 * n * m) as f64;

        let s = tr.begin("rand_chacha.keystream");
        rep.keystream = us(time_keystream(&mut self.ks, self.words.len()));
        tr.end(s);

        let mut replay = Replay::new(&self.words);
        let s = tr.begin("randn.polar");
        let t = Instant::now();
        for _ in 0..n {
            let mut sampler = NormalSampler::default();
            sampler.fill(&mut replay, &mut self.normals, 0.0, self.std);
        }
        rep.polar = us(t.elapsed());
        tr.end(s);
        let polar_ok = replay.exhausted_exactly();

        let mut replay = Replay::new(&self.words);
        let s = tr.begin("dsp.fill_spectrum");
        let t = Instant::now();
        for j in 0..n {
            self.idft
                .fill_spectrum_into(&mut replay, &mut self.work[j * m..(j + 1) * m]);
        }
        rep.fill = us(t.elapsed());
        tr.end(s);
        let fill_ok = replay.exhausted_exactly() && same_bits(&self.work, &self.raw);

        let mut replay = Replay::new(&self.words);
        let s = tr.begin("dsp.skip_spectrum");
        let t = Instant::now();
        for _ in 0..n {
            self.idft.skip_spectrum(&mut replay);
        }
        rep.skip_spectrum = us(t.elapsed());
        tr.end(s);
        let skip_ok = replay.exhausted_exactly();

        self.work.copy_from_slice(&self.raw);
        let s = tr.begin("dsp.color_idft");
        let t = Instant::now();
        color_idft_block(
            n,
            m,
            self.coloring.as_slice(),
            self.scale,
            &mut self.work,
            &mut self.out,
            &mut self.w,
            &mut self.planes,
        );
        rep.fused = us(t.elapsed());
        tr.end(s);
        let log2m = (m as f64).log2();
        rep.flops = n as f64 * 5.0 * m as f64 * log2m + 8.0 * (n * n * m) as f64;

        self.scratch
            .block_stages(tr, n, m, &self.coloring, &self.out, &mut rep);

        let s = tr.begin("core.next_block_into");
        let t = Instant::now();
        let generated = self.gen.next_block_into(&mut self.block);
        black_box(self.block.envelope_slice());
        rep.block = us(t.elapsed());
        tr.end(s);

        let s = tr.begin("core.skip_blocks");
        let t = Instant::now();
        self.skipper.skip_blocks(1);
        rep.skip_block = us(t.elapsed());
        tr.end(s);

        let replay_ok = generated.is_ok() && same_bits(self.block.as_slice(), &self.out);
        if !(polar_ok && fill_ok && skip_ok && replay_ok) {
            checks.record(
                "stage-replay",
                false,
                format!("polar {polar_ok}, fill {fill_ok}, skip {skip_ok}, block bits {replay_ok}"),
            );
        }
        rep
    }

    /// Words one `skip_spectrum` pass draws from the real keystream, against
    /// the words the matching `fill_spectrum_into` drew.
    pub fn skip_draws_match_fill(&self, seed: u64) -> bool {
        let (mut a, mut b) = (RandomStream::new(seed), RandomStream::new(seed));
        let (mut filled, mut skipped) = (Vec::new(), Vec::new());
        let mut spectrum = vec![Complex64::ZERO; self.m];
        self.idft.fill_spectrum_into(
            &mut Recording {
                inner: &mut a,
                words: &mut filled,
            },
            &mut spectrum,
        );
        self.idft.skip_spectrum(&mut Recording {
            inner: &mut b,
            words: &mut skipped,
        });
        filled == skipped
    }
}

/// Runs the realtime stage probe over the streams of one workload block for
/// about `budget`, returning the per-block medians.
pub fn realtime_stages(
    probes: &mut [RealtimeProbe],
    budget: Duration,
    max_reps: usize,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> StageSummary {
    let failed_before = checks.failed;
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 3 || (start.elapsed() < budget && reps.len() < max_reps) {
        let root = tr.begin("probe.realtime_block");
        let mut total = StageRep::default();
        for p in probes.iter_mut() {
            total.add(&p.rep(tr, checks));
        }
        tr.end(root);
        reps.push(total);
    }
    if checks.failed == failed_before {
        checks.record(
            "stage-replay",
            true,
            format!(
                "{} replayed blocks bit-identical to the generator",
                reps.len()
            ),
        );
    }
    // The first repetition warms plans and caches; leave it out.
    summarize(&reps[1..], false)
}

/// Single-instant (Sec. 4.4) stage probe: keystream, complex-Gaussian draw,
/// per-snapshot coloring matvec, envelope.
pub struct SnapshotProbe {
    gen: CorrelatedRayleighGenerator,
    rng: RandomStream,
    ks: RandomStream,
    draw: ComplexGaussian,
    replay_draw: ComplexGaussian,
    coloring: CMatrix,
    variance: f64,
    n: usize,
    m: usize,
    words: Vec<u64>,
    w: Vec<Complex64>,
    w2: Vec<Complex64>,
    z: Vec<Complex64>,
    out: Vec<Complex64>,
    block: SampleBlock,
    scratch: Scratch,
}

impl SnapshotProbe {
    /// `gen` must be freshly built from `seed`.
    pub fn new(gen: CorrelatedRayleighGenerator, seed: u64) -> Self {
        let n = gen.dimension();
        let m = gen.stream_block_len();
        Self {
            rng: RandomStream::new(seed),
            ks: RandomStream::new(seed ^ 0x5EED),
            draw: ComplexGaussian::default(),
            replay_draw: ComplexGaussian::default(),
            coloring: gen.coloring().matrix.clone(),
            variance: gen.driving_variance(),
            n,
            m,
            words: Vec::new(),
            w: vec![Complex64::ZERO; n * m],
            w2: vec![Complex64::ZERO; n * m],
            z: vec![Complex64::ZERO; n * m],
            out: vec![Complex64::ZERO; n * m],
            block: SampleBlock::empty(),
            scratch: Scratch::default(),
            gen,
        }
    }

    fn rep(&mut self, tr: &mut Tracer, checks: &mut Checks) -> StageRep {
        let (n, m) = (self.n, self.m);
        let mut rep = StageRep::default();
        self.words.clear();
        {
            let mut rec = Recording {
                inner: &mut self.rng,
                words: &mut self.words,
            };
            for l in 0..m {
                self.draw
                    .fill(&mut rec, &mut self.w[l * n..(l + 1) * n], self.variance);
            }
        }
        rep.words = self.words.len() as f64;
        rep.normals = (2 * n * m) as f64;

        let s = tr.begin("rand_chacha.keystream");
        rep.keystream = us(time_keystream(&mut self.ks, self.words.len()));
        tr.end(s);

        let mut replay = Replay::new(&self.words);
        let s = tr.begin("randn.complex_gaussian");
        let t = Instant::now();
        for l in 0..m {
            self.replay_draw
                .fill(&mut replay, &mut self.w2[l * n..(l + 1) * n], self.variance);
        }
        rep.polar = us(t.elapsed());
        tr.end(s);
        let draw_ok = replay.exhausted_exactly() && same_bits(&self.w, &self.w2);

        let s = tr.begin("linalg.matvec");
        let t = Instant::now();
        for l in 0..m {
            self.coloring
                .matvec_into(&self.w[l * n..(l + 1) * n], &mut self.z[l * n..(l + 1) * n]);
        }
        rep.matvec = us(t.elapsed());
        tr.end(s);
        let scale = 1.0 / self.variance.sqrt();
        for l in 0..m {
            for j in 0..n {
                self.out[j * m + l] = self.z[l * n + j].scale(scale);
            }
        }

        // The scratch helper times its own matvec over the colored block;
        // keep the one measured on the real white vectors above.
        let matvec = rep.matvec;
        self.scratch
            .block_stages(tr, n, m, &self.coloring, &self.out, &mut rep);
        rep.matvec = matvec;

        let s = tr.begin("core.next_block_into");
        let t = Instant::now();
        let generated = self.gen.next_block_into(&mut self.block);
        black_box(self.block.envelope_slice());
        rep.block = us(t.elapsed());
        tr.end(s);

        let replay_ok = generated.is_ok() && same_bits(self.block.as_slice(), &self.out);
        if !(draw_ok && replay_ok) {
            checks.record(
                "stage-replay",
                false,
                format!("draw {draw_ok}, block bits {replay_ok}"),
            );
        }
        rep
    }
}

/// Runs the single-instant stage probe for about `budget`.
pub fn snapshot_stages(
    probe: &mut SnapshotProbe,
    budget: Duration,
    max_reps: usize,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> StageSummary {
    let failed_before = checks.failed;
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 3 || (start.elapsed() < budget && reps.len() < max_reps) {
        let root = tr.begin("probe.snapshot_block");
        reps.push(probe.rep(tr, checks));
        tr.end(root);
    }
    if checks.failed == failed_before {
        checks.record(
            "stage-replay",
            true,
            format!(
                "{} replayed snapshot blocks bit-identical to the generator",
                reps.len()
            ),
        );
    }
    summarize(&reps[1..], true)
}

/// Records the stage-sum check: the timed stages must account for the
/// measured block time within [`STAGE_TOLERANCE`].
pub fn check_stage_sum(label: &str, s: &StageSummary, checks: &mut Checks) {
    let residual = (s.block - s.stage_sum) / s.block;
    checks.record(
        &format!("stage-sum {label}"),
        residual.abs() <= STAGE_TOLERANCE,
        format!(
            "median of {} blocks: stages {:.1} us vs block {:.1} us, self {:+.1}% (tolerance ±{:.0}%)",
            s.reps,
            s.stage_sum,
            s.block,
            residual * 100.0,
            STAGE_TOLERANCE * 100.0
        ),
    );
}

//! The three closed-loop workloads and their layer probes.
//!
//! | workload       | one operation                                   |
//! |----------------|-------------------------------------------------|
//! | `fig4-stream`  | `fig4a-spectral` realtime block + envelope      |
//! | `snapshot-n16` | 4096-snapshot single-instant block (N = 16)     |
//! | `wsn-epoch`    | 1012-link `NetworkSim` epoch + all link metrics |
//!
//! The serve layer is probed in every traced run: 16-block socket sessions
//! of the workload's scenario, every second one a v2 resume at cursor 64.

use std::hint::black_box;
use std::time::{Duration, Instant};

use corrfade::linalg::CMatrix;
use corrfade::models::paper_covariance_matrix_22;
use corrfade::stats::{
    empirical_afd_block, empirical_lcr_block, normalized_autocorrelation, outage_count_block,
    relative_frobenius_error,
};
use corrfade::{
    cached_eigen_coloring, clear_coloring_caches, ChannelStream, Coloring, Precision,
    RealtimeConfig, RealtimeGenerator, SampleBlock,
};
use corrfade_models::wsn::link_field_covariance;
use corrfade_models::wsn::LinkCorrelationModel;
use corrfade_network::{shard_seed, NetworkSim, NetworkSimConfig, Topology};
use corrfade_parallel::{Runtime, StreamFleet};
use corrfade_scenarios::{lookup, DopplerSettings};

use crate::serving::{ServeRun, SessionPlan};
use crate::stages::{
    check_stage_sum, realtime_stages, snapshot_stages, RealtimeProbe, SnapshotProbe, StageSummary,
};
use crate::trace::Tracer;
use crate::util::{median, ms, timed, Checks, Metrics};

pub const NAMES: [&str; 3] = ["fig4-stream", "snapshot-n16", "wsn-epoch"];

const FIG4: &str = "fig4a-spectral";
const SNAPSHOT: &str = "scaling-exp-rho07";
const SNAPSHOT_BLOCK: usize = 4096;
const GRID16: &str = "network/grid16";
/// Lags compared against `J0(2π f_m d)` on `fig4-stream`.
const MAX_LAG: usize = 40;
const AUTOCORR_TOLERANCE: f64 = 0.05;
const FIG4_FROBENIUS_TOLERANCE: f64 = 0.03;
const SNAPSHOT_FROBENIUS_TOLERANCE: f64 = 0.005;

/// Per-probe time budgets of the traced run.
const STAGE_BUDGET: Duration = Duration::from_millis(2000);
const FLEET_BUDGET: Duration = Duration::from_millis(800);

/// A workload after its set-up: the first output has been produced.
pub trait Workload {
    /// One closed-loop operation; pushes its latency (ms) and returns the
    /// complex samples it delivered.
    fn op(&mut self, tr: &mut Tracer, lat: &mut Vec<f64>) -> Result<u64, String>;

    /// Checks that need the state right after set-up (outside timing).
    fn after_setup(&mut self) {}

    /// Sampled bookkeeping for the correctness gate after operation
    /// `index`; the main loop keeps it out of the timed region.
    fn observe(&mut self, _index: u64) {}

    /// The workload's correctness checks.
    fn checks(&mut self, checks: &mut Checks);

    /// Per-layer probes of the traced run.
    fn layers(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Result<LayerParts, String>;

    /// Releases sockets and threads.
    fn close(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Opens workload `name` and produces its first output.
pub fn open(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "fig4-stream" => {
            let gen = lookup(FIG4)
                .and_then(|s| s.build_realtime(seed))
                .map_err(|e| e.to_string())?;
            let target = gen.filter().target_autocorrelation(MAX_LAG);
            Blocks::open(gen, seed, FIG4, paper_covariance_matrix_22(), Some(target))
        }
        "snapshot-n16" => {
            let gen = lookup(SNAPSHOT)
                .and_then(|s| s.build(seed))
                .map_err(|e| e.to_string())?
                .with_stream_block_len(SNAPSHOT_BLOCK);
            let desired = gen.desired_covariance().clone();
            Blocks::open(gen, seed, SNAPSHOT, desired, None)
        }
        "wsn-epoch" => Ok(Box::new(Wsn::open(seed)?)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

// ---------------------------------------------------------------------------
// fig4-stream and snapshot-n16: one library stream, block after block
// ---------------------------------------------------------------------------

struct Blocks<S: ChannelStream> {
    gen: S,
    seed: u64,
    scenario: &'static str,
    block: SampleBlock,
    desired: CMatrix,
    acc: CMatrix,
    acc_samples: usize,
    /// `J0` targets when the autocorrelation is checked (realtime mode).
    target: Option<Vec<f64>>,
    autocorr: Vec<f64>,
    autocorr_paths: usize,
}

impl<S: ChannelStream + 'static> Blocks<S> {
    fn open(
        mut gen: S,
        seed: u64,
        scenario: &'static str,
        desired: CMatrix,
        target: Option<Vec<f64>>,
    ) -> Result<Box<dyn Workload>, String> {
        let mut block = SampleBlock::empty();
        gen.next_block_into(&mut block).map_err(|e| e.to_string())?;
        black_box(block.envelope_slice());
        let n = gen.dimension();
        Ok(Box::new(Self {
            gen,
            seed,
            scenario,
            block,
            desired,
            acc: CMatrix::zeros(n, n),
            acc_samples: 0,
            target,
            autocorr: vec![0.0; MAX_LAG + 1],
            autocorr_paths: 0,
        }))
    }
}

impl<S: ChannelStream + 'static> Workload for Blocks<S> {
    fn op(&mut self, tr: &mut Tracer, lat: &mut Vec<f64>) -> Result<u64, String> {
        let root = tr.begin("block");
        let t = Instant::now();
        let s = tr.begin("core.next_block_into");
        self.gen
            .next_block_into(&mut self.block)
            .map_err(|e| e.to_string())?;
        tr.end(s);
        let s = tr.begin("linalg.envelope");
        black_box(self.block.envelope_slice());
        tr.end(s);
        lat.push(ms(t.elapsed()));
        tr.end(root);
        Ok(self.block.len() as u64)
    }

    fn observe(&mut self, index: u64) {
        if index.is_multiple_of(4) {
            self.block.accumulate_covariance(&mut self.acc);
            self.acc_samples += self.block.samples();
        }
        if self.target.is_some() && index.is_multiple_of(8) && self.autocorr_paths < 96 {
            for j in 0..self.block.envelopes() {
                let rho = normalized_autocorrelation(self.block.path(j), MAX_LAG);
                for (a, r) in self.autocorr.iter_mut().zip(rho) {
                    *a += r;
                }
                self.autocorr_paths += 1;
            }
        }
    }

    fn checks(&mut self, checks: &mut Checks) {
        let (tolerance, what) = if self.target.is_some() {
            (FIG4_FROBENIUS_TOLERANCE, "Eq. 22")
        } else {
            (SNAPSHOT_FROBENIUS_TOLERANCE, "K")
        };
        let khat = self.acc.scale_real(1.0 / self.acc_samples.max(1) as f64);
        let err = relative_frobenius_error(&khat, &self.desired);
        checks.record(
            "covariance",
            self.acc_samples > 0 && err <= tolerance,
            format!(
                "relative Frobenius error {err:.5} vs {what} over {} samples (limit {tolerance})",
                self.acc_samples
            ),
        );
        if let Some(target) = &self.target {
            let paths = self.autocorr_paths.max(1) as f64;
            let worst = self
                .autocorr
                .iter()
                .zip(target)
                .map(|(a, t)| (a / paths - t).abs())
                .fold(0.0, f64::max);
            checks.record(
                "autocorrelation",
                self.autocorr_paths > 0 && worst <= AUTOCORR_TOLERANCE,
                format!(
                    "max |rho - J0| {worst:.4} over lags 0..={MAX_LAG}, {} paths (limit {AUTOCORR_TOLERANCE})",
                    self.autocorr_paths
                ),
            );
        }
    }

    fn layers(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Result<LayerParts, String> {
        registry_layers(tr, checks, self.scenario, self.seed, self.target.is_none())
    }
}

// ---------------------------------------------------------------------------
// wsn-epoch: a 1012-link network, one pooled epoch at a time
// ---------------------------------------------------------------------------

/// The settings of the `network_advance` bench: 23×23 grid, M = 256,
/// groups of at most 64 links.
fn wsn_config() -> NetworkSimConfig {
    NetworkSimConfig {
        correlation: LinkCorrelationModel::distance_only(0.4),
        correlation_threshold: 0.1,
        max_group_size: 64,
        doppler: DopplerSettings {
            idft_size: 256,
            normalized_doppler: 0.05,
            sigma_orig_sq: 0.5,
        },
        ..NetworkSimConfig::default()
    }
}

fn wsn_topology() -> Result<Topology, String> {
    Topology::grid(23, 23, 1.0).map_err(|e| e.to_string())
}

struct Wsn {
    sim: NetworkSim,
    seed: u64,
    advance_ms: Vec<f64>,
    metrics_ms: Vec<f64>,
    bad_metrics: u64,
    twin: Option<(bool, String)>,
}

impl Wsn {
    fn open(seed: u64) -> Result<Self, String> {
        let mut sim =
            NetworkSim::open(wsn_topology()?, &wsn_config(), seed).map_err(|e| e.to_string())?;
        sim.advance().map_err(|e| e.to_string())?;
        let mut wsn = Self {
            sim,
            seed,
            advance_ms: Vec::new(),
            metrics_ms: Vec::new(),
            bad_metrics: 0,
            twin: None,
        };
        wsn.link_metrics()?;
        Ok(wsn)
    }

    fn link_metrics(&mut self) -> Result<(), String> {
        let mut outage = 0.0;
        for link in 0..self.sim.link_count() {
            let m = self.sim.link_metrics(link).map_err(|e| e.to_string())?;
            if !(m.outage_probability.is_finite() && m.lcr.is_finite() && m.afd.is_finite()) {
                self.bad_metrics += 1;
            }
            outage += m.outage_probability;
        }
        black_box(outage);
        Ok(())
    }
}

impl Workload for Wsn {
    fn op(&mut self, tr: &mut Tracer, lat: &mut Vec<f64>) -> Result<u64, String> {
        let root = tr.begin("epoch");
        let t = Instant::now();
        let s = tr.begin("parallel.advance");
        self.sim.advance().map_err(|e| e.to_string())?;
        tr.end(s);
        let advanced = Instant::now();
        let s = tr.begin("network.link_metrics");
        self.link_metrics()?;
        tr.end(s);
        self.advance_ms.push(ms(advanced - t));
        self.metrics_ms.push(ms(advanced.elapsed()));
        lat.push(ms(t.elapsed()));
        tr.end(root);
        Ok(self.sim.samples_per_advance() as u64)
    }

    /// The first pooled epoch against `advance_sequential` of a twin sim.
    fn after_setup(&mut self) {
        let result = (|| -> Result<(bool, String), String> {
            let mut twin = NetworkSim::open(wsn_topology()?, &wsn_config(), self.seed)
                .map_err(|e| e.to_string())?;
            twin.advance_sequential().map_err(|e| e.to_string())?;
            let links = self.sim.link_count();
            let mut same = 0;
            for link in 0..links {
                let a: Vec<u64> = self
                    .sim
                    .link_envelope(link)
                    .map_err(|e| e.to_string())?
                    .iter()
                    .map(|x| x.to_bits())
                    .collect();
                let b = twin.link_envelope(link).map_err(|e| e.to_string())?;
                same += usize::from(a.iter().zip(b).all(|(x, y)| *x == y.to_bits()));
            }
            Ok((
                same == links,
                format!("{same}/{links} link envelopes of the first pooled epoch bit-identical to a sequential twin"),
            ))
        })();
        self.twin = Some(result.unwrap_or_else(|e| (false, e)));
    }

    fn checks(&mut self, checks: &mut Checks) {
        let (ok, detail) = self
            .twin
            .clone()
            .unwrap_or((false, "twin check did not run".to_string()));
        checks.record("pooled-vs-sequential", ok, detail);
        checks.record(
            "link-metrics",
            self.bad_metrics == 0,
            format!("{} non-finite link metric records", self.bad_metrics),
        );
    }

    fn layers(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Result<LayerParts, String> {
        let config = wsn_config();
        let topology = self.sim.topology().clone();
        let groups = self.sim.groups().clone();

        // One probe per correlated group, rebuilt exactly as the sim builds
        // its generators, so a workload block is one whole epoch.
        let pairs = topology.link_pairs();
        let mut probes = Vec::new();
        for (g, links) in groups.groups().iter().enumerate() {
            let group_pairs: Vec<(usize, usize)> = links.iter().map(|&l| pairs[l]).collect();
            let covariance = link_field_covariance(
                topology.positions(),
                &group_pairs,
                &config.correlation,
                &config.path_loss,
            )
            .map_err(|e| e.to_string())?;
            let coloring = cached_eigen_coloring(&covariance).map_err(|e| e.to_string())?;
            let seed = shard_seed(self.seed, groups.leader(g) as u64);
            let gen = RealtimeGenerator::from_coloring(
                Coloring::clone(&coloring),
                RealtimeConfig {
                    covariance,
                    idft_size: config.doppler.idft_size,
                    normalized_doppler: config.doppler.normalized_doppler,
                    sigma_orig_sq: config.doppler.sigma_orig_sq,
                    seed,
                    precision: Precision::F64,
                },
            )
            .map_err(|e| e.to_string())?;
            probes.push(RealtimeProbe::new(gen, seed, config.doppler.sigma_orig_sq)?);
        }
        checks.record(
            "skip-draws",
            probes[0].skip_draws_match_fill(self.seed),
            "skip_spectrum draws exactly the words of fill_spectrum_into".to_string(),
        );
        let stages = realtime_stages(&mut probes, STAGE_BUDGET, 200, tr, checks);
        check_stage_sum("epoch", &stages, checks);

        let (mut cold, mut warm) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            clear_coloring_caches();
            let (sim, d) = timed(|| NetworkSim::open(topology.clone(), &config, self.seed));
            sim.map_err(|e| e.to_string())?;
            cold.push(ms(d));
            let (sim, d) = timed(|| NetworkSim::open(topology.clone(), &config, self.seed));
            sim.map_err(|e| e.to_string())?;
            warm.push(ms(d));
        }

        let mut twin =
            NetworkSim::open(topology.clone(), &config, self.seed).map_err(|e| e.to_string())?;
        twin.advance_sequential().map_err(|e| e.to_string())?;
        let mut sequential = Vec::new();
        let start = Instant::now();
        while sequential.len() < 5 || (start.elapsed() < FLEET_BUDGET * 2 && sequential.len() < 100)
        {
            let s = tr.begin("parallel.advance_sequential");
            let (r, d) = timed(|| twin.advance_sequential());
            tr.end(s);
            r.map_err(|e| e.to_string())?;
            sequential.push(ms(d));
        }

        let sizes: Vec<f64> = groups.groups().iter().map(|g| g.len() as f64).collect();
        Ok(LayerParts {
            nonzero_bin_frac: probes[0].nonzero_bin_frac(),
            dsp: stages.clone(),
            stages,
            build_cold_ms: median(&cold),
            build_warm_ms: median(&warm),
            advance_ms: median(&self.advance_ms),
            sequential_ms: median(&sequential),
            groups: sizes.len() as f64,
            sum_g2: sizes.iter().map(|g| g * g).sum(),
            metrics_ms: median(&self.metrics_ms),
            serve: serve_probe(tr, checks, GRID16, self.seed)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Layer probes shared by the workloads
// ---------------------------------------------------------------------------

/// Serve-layer figures: request → header, resume skip, socket share of the
/// block latency, and the server's counters.
#[derive(Debug, Clone, Default)]
pub struct ServeLayer {
    pub subscribe_ms: f64,
    pub skip_ms: f64,
    pub wire_ms: f64,
    pub session_ms_p50: f64,
    pub resume_ms_p50: f64,
    pub blocks_sent: f64,
    pub resumed_sessions: f64,
    pub error_frames: f64,
}

/// Everything the traced run reports per layer, measured at the
/// workload's own block shape.
#[derive(Debug, Clone)]
pub struct LayerParts {
    /// The workload block's stage split.
    pub stages: StageSummary,
    /// Realtime stage split behind the `dsp.*` and `core.skip_block_us`
    /// figures (the same as `stages` except on `snapshot-n16`, where it is
    /// the scenario's realtime mode).
    pub dsp: StageSummary,
    pub nonzero_bin_frac: f64,
    pub build_cold_ms: f64,
    pub build_warm_ms: f64,
    pub advance_ms: f64,
    pub sequential_ms: f64,
    pub groups: f64,
    pub sum_g2: f64,
    pub metrics_ms: f64,
    pub serve: ServeLayer,
}

impl LayerParts {
    /// The per-layer metrics in `BENCHMARK.json` order (the `trace.*`,
    /// `calib.*` and cache figures are added in `main.rs`).
    pub fn push_metrics(&self, m: &mut Metrics) {
        let s = &self.stages;
        let d = &self.dsp;
        let workers = Runtime::global().workers() as f64;
        let speedup = self.sequential_ms / self.advance_ms;
        m.push("chacha.words_per_block", s.words, "count");
        m.push("chacha.us_per_block", s.keystream, "us");
        m.push("randn.polar_accept_ratio", s.normals / s.words, "ratio");
        m.push("randn.us_per_block", s.polar, "us");
        m.push("dsp.nonzero_bin_frac", self.nonzero_bin_frac, "ratio");
        m.push("dsp.fill_spectrum_us", d.fill, "us");
        m.push("dsp.skip_spectrum_us", d.skip_spectrum, "us");
        m.push("dsp.color_idft_us", d.fused, "us");
        m.push("dsp.color_idft_gflops", d.flops / d.fused / 1e3, "GFLOP/s");
        m.push("linalg.matvec_us_per_block", s.matvec, "us");
        m.push("linalg.envelope_us", s.envelope, "us");
        m.push("linalg.encode_us", s.encode, "us");
        m.push("linalg.decode_us", s.decode, "us");
        m.push("core.block_us", s.block, "us");
        m.push("core.stage_sum_us", s.stage_sum, "us");
        m.push("core.self_us", s.block - s.stage_sum, "us");
        m.push("core.skip_block_us", d.skip_block, "us");
        m.push("scenarios.build_cold_ms", self.build_cold_ms, "ms");
        m.push("scenarios.build_warm_ms", self.build_warm_ms, "ms");
        m.push("parallel.advance_ms", self.advance_ms, "ms");
        m.push("parallel.sequential_ms", self.sequential_ms, "ms");
        m.push("parallel.speedup", speedup, "x");
        m.push("parallel.efficiency", speedup / workers, "ratio");
        m.push("parallel.workers", workers, "count");
        m.push("network.groups", self.groups, "count");
        m.push("network.sum_g2", self.sum_g2, "count");
        m.push("network.metrics_ms", self.metrics_ms, "ms");
        let v = &self.serve;
        m.push("serve.subscribe_ms", v.subscribe_ms, "ms");
        m.push("serve.skip_ms", v.skip_ms, "ms");
        m.push("serve.wire_ms", v.wire_ms, "ms");
        m.push("serve.session_ms_p50", v.session_ms_p50, "ms");
        m.push("serve.resume_ms_p50", v.resume_ms_p50, "ms");
        m.push("serve.blocks_sent", v.blocks_sent, "count");
        m.push("serve.resumed_sessions", v.resumed_sessions, "count");
        m.push("serve.error_frames", v.error_frames, "count");
    }
}

/// Layer probes of a workload built from one registry scenario.
fn registry_layers(
    tr: &mut Tracer,
    checks: &mut Checks,
    name: &'static str,
    seed: u64,
    single_instant: bool,
) -> Result<LayerParts, String> {
    let scenario = lookup(name).map_err(|e| e.to_string())?;
    let sigma = scenario.doppler.sigma_orig_sq;
    let gen = scenario.build_realtime(seed).map_err(|e| e.to_string())?;
    let mut probes = vec![RealtimeProbe::new(gen, seed, sigma)?];
    checks.record(
        "skip-draws",
        probes[0].skip_draws_match_fill(seed),
        "skip_spectrum draws exactly the words of fill_spectrum_into".to_string(),
    );
    let (dsp, stages) = if single_instant {
        let dsp = realtime_stages(&mut probes, STAGE_BUDGET / 2, 100, tr, checks);
        let gen = scenario
            .build(seed)
            .map_err(|e| e.to_string())?
            .with_stream_block_len(SNAPSHOT_BLOCK);
        let stages = snapshot_stages(
            &mut SnapshotProbe::new(gen, seed),
            STAGE_BUDGET,
            400,
            tr,
            checks,
        );
        (dsp, stages)
    } else {
        let dsp = realtime_stages(&mut probes, STAGE_BUDGET, 400, tr, checks);
        (dsp.clone(), dsp)
    };
    check_stage_sum(name, &stages, checks);

    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        clear_coloring_caches();
        let build = || lookup(name).and_then(|s| s.build_realtime_cached(seed));
        let (r, d) = timed(build);
        r.map_err(|e| e.to_string())?;
        cold.push(ms(d));
        let (r, d) = timed(build);
        r.map_err(|e| e.to_string())?;
        warm.push(ms(d));
    }

    let (advance_ms, sequential_ms) = fleet_probe(tr, name, seed)?;
    let n = probes[0].dimension();
    let metrics_ms = metrics_probe(
        tr,
        scenario.build_realtime(seed).map_err(|e| e.to_string())?,
    );

    let serve = serve_probe(tr, checks, name, seed)?;
    Ok(LayerParts {
        nonzero_bin_frac: probes[0].nonzero_bin_frac(),
        stages,
        dsp,
        build_cold_ms: median(&cold),
        build_warm_ms: median(&warm),
        advance_ms,
        sequential_ms,
        groups: 1.0,
        sum_g2: (n * n) as f64,
        metrics_ms,
        serve,
    })
}

/// Pooled vs sequential advance of a fleet of `2 × workers` streams of the
/// scenario.
fn fleet_probe(tr: &mut Tracer, name: &str, seed: u64) -> Result<(f64, f64), String> {
    let streams = 2 * Runtime::global().workers();
    let names = vec![name; streams];
    let mut fleet = StreamFleet::open(&names, seed).map_err(|e| e.to_string())?;
    fleet.advance().map_err(|e| e.to_string())?;
    let (mut pooled, mut sequential) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while pooled.len() < 5 || (start.elapsed() < FLEET_BUDGET && pooled.len() < 200) {
        let s = tr.begin("parallel.advance");
        let (r, d) = timed(|| fleet.advance());
        tr.end(s);
        r.map_err(|e| e.to_string())?;
        pooled.push(ms(d));
        let s = tr.begin("parallel.advance_sequential");
        let (r, d) = timed(|| fleet.advance_sequential());
        tr.end(s);
        r.map_err(|e| e.to_string())?;
        sequential.push(ms(d));
    }
    Ok((median(&pooled), median(&sequential)))
}

/// Outage / LCR / AFD over every envelope of a fresh block — the network
/// layer's per-link trace extraction at this stream's shape (a single
/// stream is a one-group network).
fn metrics_probe(tr: &mut Tracer, mut gen: RealtimeGenerator) -> f64 {
    let threshold = 10f64.powf(NetworkSimConfig::default().outage_snr_db / 20.0);
    let mut block = SampleBlock::empty();
    let mut times = Vec::new();
    for _ in 0..20 {
        if gen.next_block_into(&mut block).is_err() {
            break;
        }
        let s = tr.begin("network.link_metrics");
        let t = Instant::now();
        let mut acc = 0.0;
        for j in 0..block.envelopes() {
            acc += outage_count_block(&mut block, j, threshold) as f64;
            acc += empirical_lcr_block(&mut block, j, threshold);
            acc += empirical_afd_block(&mut block, j, threshold);
        }
        black_box(acc);
        times.push(ms(t.elapsed()));
        tr.end(s);
    }
    median(&times)
}

/// Sessions of the serve probe, every second one a v2 resume.
const SERVE_SESSIONS: usize = 8;

/// A closed-loop serve run of the scenario: 16-block sessions from an
/// in-process server on a Unix socket, every second one a v2 resume at
/// cursor 64. `wire_ms` is the client's median block latency minus a
/// standalone generate + encode + decode of the same block: socket time
/// plus waiting (negative when the server generates the next block while
/// the client decodes the last one).
fn serve_probe(
    tr: &mut Tracer,
    checks: &mut Checks,
    name: &'static str,
    seed: u64,
) -> Result<ServeLayer, String> {
    let plan = SessionPlan {
        scenario: name,
        blocks: 16,
        resume_cursor: 64,
    };
    let mut run = ServeRun::start(plan, seed)?;
    for _ in 0..SERVE_SESSIONS {
        run.session(tr)?;
    }
    run.verify(checks);
    let summary = run.summary();
    let (blocks_sent, resumed, errors) = run.stats();
    run.shutdown()?;

    let scenario = lookup(name).map_err(|e| e.to_string())?;
    let mut gen = scenario.build_realtime(seed).map_err(|e| e.to_string())?;
    let (mut block, mut decoded, mut wire) =
        (SampleBlock::empty(), SampleBlock::empty(), Vec::new());
    let mut cost = Vec::new();
    for _ in 0..6 {
        let t = Instant::now();
        gen.next_block_into(&mut block).map_err(|e| e.to_string())?;
        wire.clear();
        block.encode_le_into(&mut wire);
        decoded
            .decode_le_from(block.envelopes(), block.samples(), &wire)
            .map_err(|e| e.to_string())?;
        cost.push(ms(t.elapsed()));
    }
    Ok(ServeLayer {
        subscribe_ms: summary.subscribe,
        skip_ms: summary.skip,
        wire_ms: summary.block - median(&cost[1..]),
        session_ms_p50: summary.session,
        resume_ms_p50: summary.resume,
        blocks_sent: blocks_sent as f64,
        resumed_sessions: resumed as f64,
        error_frames: errors as f64,
    })
}

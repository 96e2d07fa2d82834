//! Closed-loop sessions against an in-process `corrfade-serve` server on a
//! Unix socket: one client connection at a time, each session waits for
//! every block before reading the next, every second session is a v2
//! resume at a block cursor, and every session streams a distinct seed.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use corrfade::{ChannelStream, SampleBlock};
use corrfade_scenarios::lookup;
use corrfade_serve::{Client, ServeAddr, Server, ServerConfig};

use crate::trace::Tracer;
use crate::util::{digest, median, mix, ms, Checks};

/// What one session asks for.
#[derive(Debug, Clone, Copy)]
pub struct SessionPlan {
    pub scenario: &'static str,
    pub blocks: u32,
    /// Block cursor of the v2 resume sessions (every odd session).
    pub resume_cursor: u64,
}

/// Sessions `0` (fresh) and `1` (resumed) are digested block by block and
/// re-checked against a standalone generator after the run.
const SAMPLED_SESSIONS: u64 = 2;

/// Medians of a finished run, in ms.
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    /// v1 request → stream header.
    pub subscribe: f64,
    /// v2 request → header, minus the v1 figure: the resume skip.
    pub skip: f64,
    /// Whole fresh sessions.
    pub session: f64,
    /// v2 request → first block.
    pub resume: f64,
    /// One block as the client waits for it.
    pub block: f64,
}

struct SampledSession {
    seed: u64,
    cursor: u64,
    digests: Vec<u64>,
}

/// A server plus the client-side ledger of everything it delivered.
pub struct ServeRun {
    server: Option<Server>,
    addr: ServeAddr,
    plan: SessionPlan,
    seed: u64,
    sessions: u64,
    resumed: u64,
    received: u64,
    block_ms: Vec<f64>,
    session_ms: Vec<f64>,
    resume_ms: Vec<f64>,
    subscribe_ms: Vec<f64>,
    resume_subscribe_ms: Vec<f64>,
    sampled: Vec<SampledSession>,
    block: SampleBlock,
}

impl ServeRun {
    /// Binds a server on a fresh Unix socket under `.bench_build/perfbench`
    /// (relative to the checkout, so the path stays short).
    pub fn start(plan: SessionPlan, seed: u64) -> Result<Self, String> {
        let dir = PathBuf::from(".bench_build").join("perfbench");
        std::fs::create_dir_all(&dir).map_err(|e| format!("socket dir: {e}"))?;
        let path = dir.join(format!("serve-{}.sock", std::process::id()));
        let server = Server::bind(ServeAddr::Unix(path), ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().clone();
        Ok(Self {
            server: Some(server),
            addr,
            plan,
            seed,
            sessions: 0,
            resumed: 0,
            received: 0,
            block_ms: Vec::new(),
            session_ms: Vec::new(),
            resume_ms: Vec::new(),
            subscribe_ms: Vec::new(),
            resume_subscribe_ms: Vec::new(),
            sampled: Vec::new(),
            block: SampleBlock::empty(),
        })
    }

    /// One session, timed from connect to the end frame.
    pub fn session(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let index = self.sessions;
        self.sessions += 1;
        let seed = mix(self.seed, index);
        let resumed = index % 2 == 1;
        let cursor = if resumed { self.plan.resume_cursor } else { 0 };
        let sampled = index < SAMPLED_SESSIONS;
        let mut digests = Vec::new();
        let mut untimed = Duration::ZERO;

        let root = tr.begin("serve.session");
        let start = Instant::now();
        let s = tr.begin("serve.connect");
        let mut client = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        tr.end(s);
        let s = tr.begin(if resumed {
            "serve.resume_subscribe"
        } else {
            "serve.subscribe"
        });
        let request = Instant::now();
        let header = client
            .subscribe_at(self.plan.scenario, seed, self.plan.blocks, cursor)
            .map_err(|e| format!("subscribe: {e}"))?;
        let subscribe = ms(request.elapsed());
        tr.end(s);
        if resumed {
            self.resumed += 1;
            self.resume_subscribe_ms.push(subscribe);
        } else {
            self.subscribe_ms.push(subscribe);
        }
        if header.blocks != self.plan.blocks {
            return Err(format!("header announced {} blocks", header.blocks));
        }

        let mut got = 0u64;
        loop {
            let s = tr.begin("serve.block");
            let t = Instant::now();
            let frame = client
                .next_block_into(&mut self.block)
                .map_err(|e| format!("block: {e}"))?;
            let latency = t.elapsed();
            tr.end(s);
            let Some(wire_index) = frame else { break };
            self.block_ms.push(ms(latency));
            if got == 0 && resumed {
                self.resume_ms.push(ms(request.elapsed()));
            }
            if u64::from(wire_index) != cursor + got {
                return Err(format!(
                    "block index {wire_index}, expected {}",
                    cursor + got
                ));
            }
            got += 1;
            self.received += 1;
            if sampled {
                let t = Instant::now();
                digests.push(digest(self.block.as_slice()));
                untimed += t.elapsed();
            }
        }
        let session = start.elapsed().saturating_sub(untimed);
        tr.end(root);
        if got != u64::from(self.plan.blocks) {
            return Err(format!("session ended after {got} blocks"));
        }
        if !resumed {
            self.session_ms.push(ms(session));
        }
        if sampled {
            self.sampled.push(SampledSession {
                seed,
                cursor,
                digests,
            });
        }
        Ok(())
    }

    /// Server counters against the client ledger, and sampled sessions
    /// against a standalone `build_realtime(seed)` at absolute block
    /// indices (the resumed one included).
    pub fn verify(&mut self, checks: &mut Checks) {
        let stats = self.stats();
        checks.record(
            "serve-stats",
            stats.0 == self.received && stats.1 == self.resumed && stats.2 == 0,
            format!(
                "server sent {} blocks / {} resumes / {} error frames; client saw {} / {}",
                stats.0, stats.1, stats.2, self.received, self.resumed
            ),
        );
        let scenario = match lookup(self.plan.scenario) {
            Ok(s) => s,
            Err(e) => {
                checks.record("serve-bits", false, e.to_string());
                return;
            }
        };
        let mut matched = 0usize;
        let mut block = SampleBlock::empty();
        for s in &self.sampled {
            let ok = scenario.build_realtime(s.seed).is_ok_and(|mut gen| {
                let mut ok = true;
                for b in 0..s.cursor + s.digests.len() as u64 {
                    ok &= gen.next_block_into(&mut block).is_ok();
                    if b >= s.cursor {
                        ok &= digest(block.as_slice()) == s.digests[(b - s.cursor) as usize];
                    }
                }
                ok
            });
            matched += usize::from(ok);
        }
        checks.record(
            "serve-bits",
            !self.sampled.is_empty() && matched == self.sampled.len(),
            format!(
                "{matched}/{} sampled sessions bit-identical to standalone streams",
                self.sampled.len()
            ),
        );
    }

    /// `(blocks_sent, resumed_sessions, error_frames)` from `Server::stats`.
    pub fn stats(&self) -> (u64, u64, u64) {
        self.server.as_ref().map_or((0, 0, 0), |s| {
            let st = s.stats();
            (st.blocks_sent, st.resumed_sessions, st.error_frames)
        })
    }

    pub fn summary(&self) -> ServeSummary {
        let subscribe = median(&self.subscribe_ms);
        ServeSummary {
            subscribe,
            skip: median(&self.resume_subscribe_ms) - subscribe,
            session: median(&self.session_ms),
            resume: median(&self.resume_ms),
            block: median(&self.block_ms),
        }
    }

    /// Stops the server and joins its threads.
    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.server.take() {
            Some(server) => server.shutdown().map_err(|e| format!("shutdown: {e}")),
            None => Ok(()),
        }
    }
}

impl Drop for ServeRun {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

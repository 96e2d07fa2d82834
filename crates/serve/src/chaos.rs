//! Deterministic fault injection for the serving path; its design notes are
//! on [`ChaosProxy`].

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::error::ServeError;
use crate::net::{is_timeout, Conn, Listener, ServeAddr};
use crate::retry::splitmix64;

/// Poll interval of the forwarding loops: reads time out this often to
/// check the shutdown flag, so proxy teardown is bounded.
const POLL: Duration = Duration::from_millis(25);

/// The seeded fault plan of a [`ChaosProxy`].
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    /// Root seed; every per-connection decision derives from it.
    pub seed: u64,
    /// Number of connections to fault before passing the rest through
    /// cleanly (so a resuming client always finishes).
    pub max_faults: u32,
    /// Earliest server→client byte offset at which a faulted connection is
    /// cut.
    pub min_bytes_before_cut: u64,
    /// Latest such offset; the actual cut lands uniformly in
    /// `min..=max` (per-connection, seed-derived).
    pub max_bytes_before_cut: u64,
    /// Forward the server→client bytes in seed-sized fragments of 1..=7
    /// bytes, exercising every partial-read path in the client decoder.
    pub fragment: bool,
    /// Injected stall right before the cut (models a hung server; pair
    /// with a client read timeout to exercise the timeout-resume path).
    pub stall: Option<Duration>,
}

impl Default for ChaosSchedule {
    fn default() -> Self {
        Self {
            seed: 0xC4A0_5EED,
            max_faults: 3,
            min_bytes_before_cut: 1,
            max_bytes_before_cut: 4096,
            fragment: true,
            stall: None,
        }
    }
}

/// One connection's resolved fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ConnPlan {
    /// Cut (truncate + abruptly disconnect) after this many server→client
    /// bytes; `None` passes the connection through.
    cut_after: Option<u64>,
    fragment: bool,
    stall_nanos: Option<u64>,
    /// Seed of this connection's fragment-size PRNG.
    seed: u64,
}

impl ChaosSchedule {
    /// The deterministic plan of connection `index` given how many
    /// connections were already faulted.
    fn plan(&self, index: u32, already_faulted: u32) -> ConnPlan {
        let mut s = self
            .seed
            .wrapping_add(u64::from(index).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let seed = splitmix64(&mut s);
        if already_faulted >= self.max_faults {
            return ConnPlan {
                cut_after: None,
                fragment: self.fragment,
                stall_nanos: None,
                seed,
            };
        }
        let lo = self.min_bytes_before_cut.min(self.max_bytes_before_cut);
        let hi = self.min_bytes_before_cut.max(self.max_bytes_before_cut);
        let span = hi - lo;
        let cut = lo
            + if span == 0 {
                0
            } else {
                splitmix64(&mut s) % (span + 1)
            };
        ConnPlan {
            cut_after: Some(cut),
            fragment: self.fragment,
            stall_nanos: self
                .stall
                .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
            seed,
        }
    }
}

/// A deterministic fault-injecting proxy in front of a real server.
///
/// [`ChaosProxy`] sits between a client and a real server, forwarding
/// bytes while injecting transport faults from a **seeded schedule**: the
/// server→client direction can be fragmented into tiny partial
/// writes/short reads, stalled, and **cut** (truncated + abruptly
/// disconnected) at a schedule-chosen byte offset. Every fault decision is
/// a pure function of `(schedule seed, connection index)`, so a failing
/// chaos test replays byte-for-byte identically from its seed.
///
/// The proxy faults at most [`ChaosSchedule::max_faults`] connections and
/// passes the rest through untouched — a resuming client is therefore
/// guaranteed to finish eventually, and the test asserts the *output* is
/// bit-identical to the fault-free stream.
///
/// It lives in the crate (not the test tree) so the chaos-smoke CI job,
/// integration tests, and future soak binaries all drive one
/// implementation.
pub struct ChaosProxy {
    local_addr: ServeAddr,
    shutting_down: Arc<AtomicBool>,
    faulted: Arc<AtomicU32>,
    accept: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("local_addr", &self.local_addr)
            .field("faulted", &self.faulted.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ChaosProxy {
    /// Binds `listen` and forwards every accepted connection to
    /// `upstream`, injecting faults per `schedule`.
    ///
    /// # Errors
    /// [`ServeError::Io`] when `listen` cannot be bound.
    pub fn spawn(
        listen: ServeAddr,
        upstream: ServeAddr,
        schedule: ChaosSchedule,
    ) -> Result<Self, ServeError> {
        let (listener, local_addr) = Listener::bind(&listen)?;
        let shutting_down = Arc::new(AtomicBool::new(false));
        let faulted = Arc::new(AtomicU32::new(0));
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shutting_down = Arc::clone(&shutting_down);
            let faulted = Arc::clone(&faulted);
            let workers = Arc::clone(&workers);
            std::thread::Builder::new()
                .name("corrfade-chaos-accept".into())
                .spawn(move || {
                    accept_loop(
                        &listener,
                        &upstream,
                        &schedule,
                        &shutting_down,
                        &faulted,
                        &workers,
                    );
                })
                .map_err(ServeError::Io)?
        };
        Ok(Self {
            local_addr,
            shutting_down,
            faulted,
            accept: Some(accept),
            workers,
        })
    }

    /// The address clients should connect to (TCP port resolved).
    #[must_use]
    pub fn local_addr(&self) -> &ServeAddr {
        &self.local_addr
    }

    /// Connections cut so far (saturates at the schedule's `max_faults`).
    #[must_use]
    pub fn faulted_connections(&self) -> u32 {
        self.faulted.load(Ordering::Relaxed)
    }

    /// Stops accepting, winds down every forwarding thread (bounded by the
    /// poll interval), and removes the Unix socket file.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shutting_down.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = Conn::connect(&self.local_addr, Duration::from_millis(250));
        let _ = accept.join();
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
        drop(workers);
        #[cfg(unix)]
        if let ServeAddr::Unix(path) = &self.local_addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn accept_loop(
    listener: &Listener,
    upstream: &ServeAddr,
    schedule: &ChaosSchedule,
    shutting_down: &Arc<AtomicBool>,
    faulted: &Arc<AtomicU32>,
    workers: &Mutex<Vec<JoinHandle<()>>>,
) {
    let mut index = 0u32;
    loop {
        let client = match listener.accept() {
            Ok(conn) => conn,
            Err(_) if shutting_down.load(Ordering::SeqCst) => return,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        if shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let plan = schedule.plan(index, faulted.load(Ordering::Relaxed));
        index = index.wrapping_add(1);
        if plan.cut_after.is_some() {
            faulted.fetch_add(1, Ordering::Relaxed);
        }
        let Ok(server) = Conn::connect(upstream, Duration::from_secs(5)) else {
            // Upstream gone (e.g. killed by a kill-server test): dropping
            // the client conn gives the client a clean reset to retry on.
            continue;
        };
        let (Ok(client_w), Ok(server_w)) = (client.try_clone(), server.try_clone()) else {
            continue;
        };
        let up = spawn_forward("corrfade-chaos-up", client, server_w, None, shutting_down);
        let down = spawn_forward(
            "corrfade-chaos-down",
            server,
            client_w,
            Some(plan),
            shutting_down,
        );
        let mut entries = workers.lock().unwrap_or_else(PoisonError::into_inner);
        entries.retain(|h| !h.is_finished());
        entries.extend(up.into_iter().chain(down));
    }
}

fn spawn_forward(
    name: &str,
    from: Conn,
    to: Conn,
    plan: Option<ConnPlan>,
    shutting_down: &Arc<AtomicBool>,
) -> Option<JoinHandle<()>> {
    let shutting_down = Arc::clone(shutting_down);
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || forward(from, to, plan, &shutting_down))
        .ok()
}

/// Pumps `from` into `to`. With a plan, applies fragmentation and the cut:
/// after `cut_after` forwarded bytes the remainder is discarded, the
/// optional stall is injected, and both sockets are shut down — the client
/// sees a truncated stream ending in an abrupt disconnect.
fn forward(mut from: Conn, mut to: Conn, plan: Option<ConnPlan>, shutting_down: &AtomicBool) {
    let _ = from.set_timeouts(Some(POLL), Some(Duration::from_secs(5)));
    let _ = to.set_timeouts(Some(POLL), Some(Duration::from_secs(5)));
    let mut rng = plan.map_or(0, |p| p.seed);
    let mut forwarded = 0u64;
    let mut buf = [0u8; 4096];
    loop {
        if shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if is_timeout(&e) => continue,
            Err(_) => break,
        };
        let mut rest = &buf[..n];
        while !rest.is_empty() {
            let take = match plan {
                Some(p) if p.fragment => {
                    // 1..=7-byte fragments: every frame boundary in the
                    // peer's decoder sees partial reads.
                    (1 + usize::try_from(splitmix64(&mut rng) % 7).expect("< 7")).min(rest.len())
                }
                _ => rest.len(),
            };
            if let Some(ConnPlan {
                cut_after: Some(cut),
                stall_nanos,
                ..
            }) = plan
            {
                if forwarded + take as u64 > cut {
                    let allowed = usize::try_from(cut.saturating_sub(forwarded)).unwrap_or(0);
                    let _ = to.write_all(&rest[..allowed.min(rest.len())]);
                    if let Some(nanos) = stall_nanos {
                        std::thread::sleep(Duration::from_nanos(nanos));
                    }
                    to.shutdown_both();
                    from.shutdown_both();
                    return;
                }
            }
            if to.write_all(&rest[..take]).is_err() {
                from.shutdown_both();
                return;
            }
            forwarded += take as u64;
            rest = &rest[take..];
        }
    }
    // Clean EOF (or shutdown): propagate end-of-stream to the reader.
    to.shutdown_write();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_seed_and_index() {
        let schedule = ChaosSchedule::default();
        for index in 0..8 {
            assert_eq!(schedule.plan(index, 0), schedule.plan(index, 0));
        }
        // Different connections get different cut offsets (with this
        // schedule's 4 KiB span, a collision across 4 indices would be a
        // seeding bug, not chance).
        let cuts: Vec<_> = (0..4).map(|i| schedule.plan(i, 0).cut_after).collect();
        let mut unique = cuts.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), cuts.len(), "cut offsets collide: {cuts:?}");
        // A different seed reshuffles the schedule.
        let other = ChaosSchedule {
            seed: 1,
            ..ChaosSchedule::default()
        };
        assert_ne!(
            schedule.plan(0, 0).cut_after,
            other.plan(0, 0).cut_after,
            "seed must drive the schedule"
        );
    }

    #[test]
    fn faulted_budget_turns_plans_clean() {
        let schedule = ChaosSchedule {
            max_faults: 2,
            ..ChaosSchedule::default()
        };
        assert!(schedule.plan(0, 0).cut_after.is_some());
        assert!(schedule.plan(5, 1).cut_after.is_some());
        assert!(schedule.plan(9, 2).cut_after.is_none(), "budget spent");
        let plan = schedule.plan(3, 7);
        assert_eq!(plan.cut_after, None);
        assert_eq!(plan.stall_nanos, None);
    }

    #[test]
    fn cut_offsets_respect_the_configured_window() {
        let schedule = ChaosSchedule {
            min_bytes_before_cut: 100,
            max_bytes_before_cut: 200,
            ..ChaosSchedule::default()
        };
        for index in 0..64 {
            let cut = schedule.plan(index, 0).cut_after.expect("faulted");
            assert!((100..=200).contains(&cut), "cut {cut} outside window");
        }
    }
}

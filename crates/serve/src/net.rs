//! Transport abstraction: one address/listener/stream surface over TCP and
//! Unix-domain sockets, std-only.
//!
//! The protocol and server logic are transport-agnostic; this module is the
//! only place that knows whether bytes ride on `TcpStream` or `UnixStream`.
//! Unix sockets are the low-overhead local transport (the CI smoke job and
//! the allocation-regression test use them); TCP is the cross-host one.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::time::Duration;

/// Whether an I/O error is a socket **read/write timeout**. Which kind a
/// timed-out socket operation yields is platform-dependent — Unix sockets
/// report `WouldBlock`, TCP on some platforms reports `TimedOut` — so every
/// retry/idle decision in the client and server goes through this one
/// predicate instead of matching either kind directly.
#[must_use]
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Where a server listens (or a client connects): a TCP socket address or a
/// Unix-domain socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// TCP transport. Port `0` asks the OS for an ephemeral port; the bound
    /// server reports the real one via `Server::local_addr`.
    Tcp(SocketAddr),
    /// Unix-domain socket path. The server unlinks a stale file at bind and
    /// removes the live one on shutdown.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl std::fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeAddr::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            ServeAddr::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// A bound listener on either transport.
#[derive(Debug)]
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Binds `addr`, replacing a stale Unix socket file if one exists.
    pub(crate) fn bind(addr: &ServeAddr) -> std::io::Result<(Self, ServeAddr)> {
        match addr {
            ServeAddr::Tcp(tcp) => {
                let listener = TcpListener::bind(tcp)?;
                let local = ServeAddr::Tcp(listener.local_addr()?);
                Ok((Listener::Tcp(listener), local))
            }
            #[cfg(unix)]
            ServeAddr::Unix(path) => {
                // A previous unclean shutdown leaves the socket file behind;
                // binding over it requires removing it first.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                Ok((Listener::Unix(listener), ServeAddr::Unix(path.clone())))
            }
        }
    }

    /// Blocks until the next inbound connection.
    pub(crate) fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(listener) => listener.accept().map(|(s, _)| {
                // Frames are small and written in one `write_all`; Nagle
                // batching only adds latency on the block boundary.
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }),
            #[cfg(unix)]
            Listener::Unix(listener) => listener.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// One accepted or dialed connection on either transport.
#[derive(Debug)]
pub enum Conn {
    /// TCP connection (`TCP_NODELAY` enabled).
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Dials `addr`, waiting at most `timeout` for TCP connection setup.
    /// (Unix-domain connects either succeed immediately or fail; the
    /// timeout applies to the subsequent reads/writes for both transports.)
    pub fn connect(addr: &ServeAddr, timeout: Duration) -> std::io::Result<Self> {
        let conn = match addr {
            ServeAddr::Tcp(tcp) => {
                let stream = TcpStream::connect_timeout(tcp, timeout)?;
                let _ = stream.set_nodelay(true);
                Conn::Tcp(stream)
            }
            #[cfg(unix)]
            ServeAddr::Unix(path) => Conn::Unix(UnixStream::connect(path)?),
        };
        conn.set_timeouts(Some(timeout), Some(timeout))?;
        Ok(conn)
    }

    /// Applies read/write timeouts (`None` blocks forever).
    pub(crate) fn set_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => {
                s.set_read_timeout(read)?;
                s.set_write_timeout(write)
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.set_read_timeout(read)?;
                s.set_write_timeout(write)
            }
        }
    }

    /// A second handle to the same socket (used by the server to force
    /// blocked connection threads off their reads during shutdown).
    pub(crate) fn try_clone(&self) -> std::io::Result<Self> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Shuts the write direction down, signalling end-of-stream to the
    /// peer while leaving the read side open for draining.
    pub(crate) fn shutdown_write(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Write);
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Write);
            }
        }
    }

    /// Shuts both directions down, waking any thread blocked on this
    /// socket with an immediate end-of-stream/error.
    pub(crate) fn shutdown_both(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shows_the_transport() {
        let tcp = ServeAddr::Tcp("127.0.0.1:9000".parse().unwrap());
        assert_eq!(tcp.to_string(), "tcp://127.0.0.1:9000");
        #[cfg(unix)]
        {
            let unix = ServeAddr::Unix(PathBuf::from("/tmp/corrfade.sock"));
            assert_eq!(unix.to_string(), "unix:///tmp/corrfade.sock");
        }
    }
}

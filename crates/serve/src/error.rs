//! Error type of the serving layer.

use core::fmt;

use crate::protocol::ProtocolError;

/// Everything that can go wrong while serving or consuming a channel
/// stream over a socket.
#[derive(Debug)]
pub enum ServeError {
    /// A socket operation failed (connect, read, write, timeout, …).
    Io(std::io::Error),
    /// Bytes on the wire violated the protocol (see [`ProtocolError`]).
    Protocol(ProtocolError),
    /// The server reported a typed error frame; `code` is one of
    /// [`crate::protocol::code`]'s values.
    Server {
        /// Stable wire code of the server-side error.
        code: u16,
        /// The server's rendered error message.
        message: String,
    },
    /// The peer sent a well-formed frame of the wrong type for the current
    /// protocol state (e.g. a block before the header).
    UnexpectedFrame {
        /// What the state machine was waiting for.
        expected: &'static str,
        /// The tag byte actually received.
        got: u8,
    },
    /// The connection closed cleanly where more data was required.
    ConnectionClosed {
        /// Which protocol step the close interrupted.
        during: &'static str,
    },
    /// A retrying operation (connect-with-retry, resuming stream) exhausted
    /// its attempt budget; `last` is the error of the final attempt.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// The error the final attempt failed with.
        last: Box<ServeError>,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket error: {e}"),
            ServeError::Protocol(e) => write!(f, "protocol error: {e}"),
            ServeError::Server { code, message } => {
                write!(f, "server error (code {code}): {message}")
            }
            ServeError::UnexpectedFrame { expected, got } => write!(
                f,
                "unexpected frame: waiting for {expected}, received tag {got}"
            ),
            ServeError::ConnectionClosed { during } => {
                write!(f, "connection closed during {during}")
            }
            ServeError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s); last error: {last}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Protocol(e) => Some(e),
            ServeError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            ServeError::Server { .. }
            | ServeError::UnexpectedFrame { .. }
            | ServeError::ConnectionClosed { .. } => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> Self {
        ServeError::Protocol(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source() {
        let e = ServeError::from(ProtocolError::ServerShutdown);
        assert!(e.to_string().contains("shutting down"));
        assert!(e.source().is_some());

        let e = ServeError::Server {
            code: 7,
            message: "unknown scenario".into(),
        };
        assert!(e.to_string().contains("code 7"));
        assert!(e.source().is_none());

        let e = ServeError::ConnectionClosed { during: "header" };
        assert!(e.to_string().contains("header"));

        let e = ServeError::from(std::io::Error::new(std::io::ErrorKind::TimedOut, "slow"));
        assert!(e.to_string().contains("socket error"));
        assert!(e.source().is_some());
    }
}

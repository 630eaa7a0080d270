//! Error types of the sampling service.

use std::error::Error;
use std::fmt;

/// Errors surfaced by the service layer — wire codec, snapshot codec,
/// server and client alike.
#[derive(Debug)]
pub enum ServiceError {
    /// An underlying socket or file operation failed.
    Io(std::io::Error),
    /// A frame or payload violated the wire protocol.
    Protocol(String),
    /// A snapshot blob could not be decoded.
    Snapshot(String),
    /// The server rejected the request because the target shard's queue is
    /// full — retry later (backpressure, never buffering).
    Busy,
    /// The server answered with an application-level error.
    Remote(String),
    /// A stream name was not found on the server.
    UnknownStream(String),
    /// A stream with that name already exists.
    StreamExists(String),
    /// Invalid stream configuration (dimensions, capacity, estimator kind).
    InvalidConfig(String),
    /// The stream's write-ahead log rejected the op before it was applied.
    /// When this reaches a client the op's outcome is *unknown* (the
    /// server may have recovered and replayed it) — resync by position.
    Durability(String),
    /// The node holds the stream only as a replica: the op was rejected
    /// before anything was applied. Unambiguous by construction — clients
    /// fail over to another endpoint and retry without a position resync.
    NotPrimary(String),
    /// The connection exceeded its admission rate: the op was rejected
    /// before anything was applied. Unlike [`ServiceError::Busy`] (a
    /// transient full queue, retry immediately) this is the server
    /// policing one abusive connection — back off before retrying.
    RateLimited(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(err) => write!(f, "transport error: {err}"),
            ServiceError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServiceError::Snapshot(msg) => write!(f, "snapshot decode failed: {msg}"),
            ServiceError::Busy => write!(f, "server busy: shard queue full, retry later"),
            ServiceError::Remote(msg) => write!(f, "server error: {msg}"),
            ServiceError::UnknownStream(name) => write!(f, "unknown stream {name:?}"),
            ServiceError::StreamExists(name) => write!(f, "stream {name:?} already exists"),
            ServiceError::InvalidConfig(msg) => write!(f, "invalid stream configuration: {msg}"),
            ServiceError::Durability(msg) => write!(f, "durability failure: {msg}"),
            ServiceError::NotPrimary(name) => {
                write!(f, "node is not the primary for stream {name:?}")
            }
            ServiceError::RateLimited(msg) => {
                write!(f, "connection rate-limited: {msg}")
            }
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(err: std::io::Error) -> Self {
        ServiceError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_source_wires_io() {
        let io = ServiceError::from(std::io::Error::other("boom"));
        assert!(io.source().is_some());
        for err in [
            io,
            ServiceError::Protocol("bad opcode".into()),
            ServiceError::Snapshot("short".into()),
            ServiceError::Busy,
            ServiceError::Remote("nope".into()),
            ServiceError::UnknownStream("s".into()),
            ServiceError::StreamExists("s".into()),
            ServiceError::InvalidConfig("zero width".into()),
            ServiceError::Durability("wal append failed".into()),
            ServiceError::NotPrimary("s".into()),
            ServiceError::RateLimited("flooding".into()),
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}

//! Framework error type.

use std::fmt;
use std::io;

/// Errors surfaced by the framework or its engines.
#[derive(Debug)]
pub enum Error {
    /// An engine-level failure.
    Engine(String),
    /// An IO failure in the framework's own files (transaction log).
    Io(io::Error),
    /// The requested operation is unsupported by the engine (e.g. batch
    /// writes on WiredTiger).
    Unsupported(&'static str),
    /// Invalid store configuration detected at `open` (e.g. a custom
    /// partitioner whose `partitions()` does not match the shard count).
    Config(String),
    /// A backup or restore failed: the backup directory is incomplete,
    /// corrupt, or the snapshot machinery could not run to completion.
    Backup(String),
    /// The store has been closed.
    Closed,
}

/// Result alias for framework operations.
pub type Result<T> = std::result::Result<T, Error>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Engine(msg) => write!(f, "engine error: {msg}"),
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            Error::Config(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Backup(msg) => write!(f, "invalid backup: {msg}"),
            Error::Closed => write!(f, "store is closed"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<lsmkv::Error> for Error {
    fn from(e: lsmkv::Error) -> Self {
        Error::Engine(e.to_string())
    }
}

impl Clone for Error {
    fn clone(&self) -> Self {
        match self {
            Error::Engine(m) => Error::Engine(m.clone()),
            Error::Io(e) => Error::Engine(format!("io error: {e}")),
            Error::Unsupported(w) => Error::Unsupported(w),
            Error::Config(m) => Error::Config(m.clone()),
            Error::Backup(m) => Error::Backup(m.clone()),
            Error::Closed => Error::Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_clone() {
        let e = Error::Engine("boom".into());
        assert_eq!(e.to_string(), "engine error: boom");
        let io_err: Error = io::Error::other("disk").into();
        let cloned = io_err.clone();
        assert!(cloned.to_string().contains("disk"));
        assert_eq!(Error::Closed.to_string(), "store is closed");
        assert!(Error::Unsupported("batch").to_string().contains("batch"));
        let cfg = Error::Config("partitions mismatch".into());
        assert!(cfg.to_string().contains("invalid configuration"));
        assert!(cfg.clone().to_string().contains("partitions mismatch"));
    }
}

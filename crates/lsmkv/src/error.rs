//! Error type shared across the engine.

use std::fmt;
use std::io;

/// Errors returned by the engine.
#[derive(Debug)]
pub enum Error {
    /// An IO error from the underlying `Env`.
    Io(io::Error),
    /// On-disk data failed validation (bad checksum, truncated structure).
    Corruption(String),
    /// The database is in a state that forbids the operation.
    InvalidState(String),
    /// The database is shutting down.
    ShuttingDown,
}

/// Result alias used across the engine.
pub type Result<T> = std::result::Result<T, Error>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Corruption(msg) => write!(f, "corruption: {msg}"),
            Error::InvalidState(msg) => write!(f, "invalid state: {msg}"),
            Error::ShuttingDown => write!(f, "database is shutting down"),
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

impl Error {
    /// Shorthand for a corruption error.
    pub fn corruption(msg: impl Into<String>) -> Error {
        Error::Corruption(msg.into())
    }

    /// A value-preserving copy. `io::Error` is not `Clone`, so the IO
    /// variant keeps the kind and message but drops the source chain —
    /// enough for iterators that must hold an error and report it again
    /// from `status()`.
    pub fn clone_shallow(&self) -> Error {
        match self {
            Error::Io(e) => Error::Io(io::Error::new(e.kind(), e.to_string())),
            Error::Corruption(m) => Error::Corruption(m.clone()),
            Error::InvalidState(m) => Error::InvalidState(m.clone()),
            Error::ShuttingDown => Error::ShuttingDown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = Error::corruption("bad block");
        assert_eq!(e.to_string(), "corruption: bad block");
        let e: Error = io::Error::other("disk on fire").into();
        assert!(e.to_string().contains("disk on fire"));
    }

    #[test]
    fn io_source_is_preserved() {
        use std::error::Error as _;
        let e: Error = io::Error::new(io::ErrorKind::NotFound, "nope").into();
        assert!(e.source().is_some());
        assert!(Error::ShuttingDown.source().is_none());
    }
}

//! The daemon's typed error: everything the server, shards and client can
//! fail with, kept coarse on purpose — callers either retry, surface the
//! message to the operator, or map it onto a wire `Response::Error`.

/// Any failure inside the `leased` daemon or its client.
#[derive(Debug)]
pub enum LeasedError {
    /// Socket or snapshot-file I/O failed.
    Io(std::io::Error),
    /// A wire frame or snapshot payload did not parse as expected.
    Protocol(String),
    /// A shard no longer serves: it was shut down, or its engine
    /// panicked while serving an operation (a poisoned lock counts as a
    /// panic).
    ShardDown(usize),
    /// The remote daemon answered an operation with an error message.
    Remote(String),
}

impl std::fmt::Display for LeasedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeasedError::Io(e) => write!(f, "i/o error: {e}"),
            LeasedError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            LeasedError::ShardDown(index) => write!(f, "shard {index} is down"),
            LeasedError::Remote(msg) => write!(f, "daemon error: {msg}"),
        }
    }
}

impl std::error::Error for LeasedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LeasedError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LeasedError {
    fn from(e: std::io::Error) -> Self {
        LeasedError::Io(e)
    }
}

impl From<serde::de::Error> for LeasedError {
    fn from(e: serde::de::Error) -> Self {
        LeasedError::Protocol(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert!(LeasedError::ShardDown(3).to_string().contains("shard 3"));
        assert!(LeasedError::Remote("boom".into())
            .to_string()
            .contains("boom"));
        let io: LeasedError = std::io::Error::other("sock").into();
        assert!(io.to_string().contains("sock"));
    }
}

//! Structured errors for the serving stack.
//!
//! Every fallible seam of the service — wire parsing, snapshot
//! encode/decode, stream reading — returns a [`ServeError`] instead of
//! panicking or stringly-typed errors. The variants matter
//! operationally: a frontend surfaces `Parse` as a per-line diagnostic
//! (the lossy reader turns it into a [`crate::ServeEvent::Malformed`]
//! event instead), and treats `Snapshot`/`Config` as "do not start from
//! this state".

use std::fmt;

/// What went wrong in the serving stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A wire line did not parse as an event. `line` is the 1-based
    /// line number when the error came from a stream reader.
    Parse {
        /// 1-based line number in the input stream, when known.
        line: Option<u64>,
        /// What was wrong with the line.
        msg: String,
    },
    /// A snapshot could not be encoded or decoded (bad magic, truncated
    /// body, checksum mismatch, malformed state lines).
    Snapshot(String),
    /// The snapshot or request does not match the service configuration
    /// (fingerprint mismatch).
    Config(String),
    /// An underlying I/O error while reading a stream (the readers in
    /// [`crate::source`] prefix the 1-based line number: `line N: …`).
    Io(String),
}

impl ServeError {
    /// Builds a parse error with no line attribution.
    pub fn parse(msg: impl Into<String>) -> Self {
        ServeError::Parse {
            line: None,
            msg: msg.into(),
        }
    }

    /// Attaches a 1-based stream line number to a parse error; other
    /// variants pass through unchanged.
    pub fn at_line(self, line: u64) -> Self {
        match self {
            ServeError::Parse { msg, .. } => ServeError::Parse {
                line: Some(line),
                msg,
            },
            other => other,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Parse { line: Some(n), msg } => write!(f, "line {n}: {msg}"),
            ServeError::Parse { line: None, msg } => write!(f, "{msg}"),
            ServeError::Snapshot(msg) => write!(f, "snapshot: {msg}"),
            ServeError::Config(msg) => write!(f, "config: {msg}"),
            ServeError::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ServeError> for String {
    fn from(e: ServeError) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_line_numbers() {
        let e = ServeError::parse("missing \"type\"").at_line(7);
        assert_eq!(e.to_string(), "line 7: missing \"type\"");
        assert_eq!(
            ServeError::Snapshot("checksum mismatch".into()).to_string(),
            "snapshot: checksum mismatch"
        );
        // Non-parse variants ignore line attribution.
        let io = ServeError::Io("broken pipe".into());
        assert_eq!(io.clone().at_line(3), io);
        let s: String = io.into();
        assert_eq!(s, "io: broken pipe");
    }
}

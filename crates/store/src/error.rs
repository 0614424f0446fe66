//! Storage-layer errors and the failure taxonomy.
//!
//! Every failure the chunked storage layer can produce is classified
//! along one axis the resilience machinery cares about: **retryable**
//! (worth trying again, now or after a cool-down) versus **fatal**
//! (retrying cannot help; the statement must fail). The
//! classification drives three layers:
//!
//! * the per-source retry loop ([`crate::ResilientSource`]) retries
//!   only [`FaultClass::Retryable`] errors;
//! * the circuit breaker counts both classes of *source* failure
//!   toward tripping but fast-fails with the retryable
//!   [`StoreError::Unavailable`];
//! * the evaluator maps each variant onto its own `EvalError`
//!   (storage failure, resource exhaustion, deadline, cancellation)
//!   so a session can report — and survive — any of them.

use std::fmt;

pub use aql_journal::ErrorClass;

/// The retry classification of a storage failure (DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// A retry (possibly after a cool-down) may succeed.
    Retryable,
    /// Retrying cannot help; the operation must fail.
    Fatal,
}

/// A cooperative interrupt observed while waiting on a chunk load.
///
/// The evaluator installs its deadline/cancellation flags via
/// [`crate::interrupt::install`]; the storage layer polls them before
/// loads and during retry/latency waits so a hung or slow source
/// cannot outlive the statement's `Limits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The statement's wall-clock deadline expired.
    Deadline,
    /// The statement was cancelled via the cancellation flag.
    Cancelled,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Deadline => write!(f, "deadline exceeded"),
            Interrupt::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A failure in the chunked storage layer.
///
/// The `transient` flag on [`StoreError::Io`] preserves the retry
/// classification of the underlying driver (a timed-out read is worth
/// retrying, a corrupt header is not); [`StoreError::class`] is the
/// retry decision, which only [`crate::ResilientSource`] acts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O failure reported by the chunk source.
    Io {
        /// Human-readable context from the source.
        message: String,
        /// Whether the failure is worth retrying.
        transient: bool,
    },
    /// The source produced bytes that contradict its own metadata
    /// (wrong chunk length, wrong element kind, corrupt framing, or a
    /// checksum mismatch that retries could not clear).
    Corrupt(String),
    /// A payload whose checksum (`got`) is not the one its source
    /// advertises (`want`). Retryable: the read path may be flaky; one
    /// that outlasts its retries surfaces as [`StoreError::Corrupt`].
    #[allow(missing_docs)]
    ChecksumMismatch { got: u64, want: u64 },
    /// A request whose shape does not fit the layout (rank mismatch,
    /// out-of-bounds slab, zero chunk extent).
    Shape(String),
    /// Admitting the bytes would exceed the process-wide
    /// [`ResourceGovernor`](crate::governor) budget even after
    /// shedding cache residency.
    Budget {
        /// Bytes the operation needed to admit.
        requested: u64,
        /// The configured process-wide byte budget.
        budget: u64,
    },
    /// The source's circuit breaker is open: the call failed fast
    /// without touching the source. Retrying after `retry_after_ms`
    /// will probe the source again.
    Unavailable {
        /// The breaker's source label (e.g. `netcdf:temp`).
        source: String,
        /// Milliseconds until the breaker will admit a probe.
        retry_after_ms: u64,
    },
    /// A cooperative interrupt (deadline or cancellation) observed
    /// during a chunk-load wait.
    Interrupted(Interrupt),
}

impl StoreError {
    /// The retryable/fatal classification of this failure
    /// (DESIGN.md §12). Every variant maps to exactly one class:
    ///
    /// | variant         | class      | rationale                         |
    /// |-----------------|------------|-----------------------------------|
    /// | `Io` transient  | retryable  | timeout/disconnect may clear      |
    /// | `Io` persistent | fatal      | the driver already classified it  |
    /// | `Corrupt`       | fatal      | surfaced only after retries       |
    /// | `ChecksumMismatch` | retryable | the read path may be flaky       |
    /// | `Shape`         | fatal      | the request itself is wrong       |
    /// | `Budget`        | fatal      | for this statement; session lives |
    /// | `Unavailable`   | retryable  | after the breaker cool-down       |
    /// | `Interrupted`   | fatal      | the statement's limits fired      |
    pub fn class(&self) -> FaultClass {
        match self {
            StoreError::Io { transient: true, .. }
            | StoreError::ChecksumMismatch { .. }
            | StoreError::Unavailable { .. } => FaultClass::Retryable,
            StoreError::Io { transient: false, .. }
            | StoreError::Corrupt(_)
            | StoreError::Shape(_)
            | StoreError::Budget { .. }
            | StoreError::Interrupted(_) => FaultClass::Fatal,
        }
    }

    /// What the journal, an incident and `\doctor` call this failure
    /// (DESIGN.md §12) — not the retry decision, which is [`Self::class`].
    pub fn error_class(&self) -> ErrorClass {
        match self {
            StoreError::Io { transient: true, .. } => ErrorClass::TransientIo,
            // A read that will not succeed on retry and an open breaker
            // are the same thing to the statement: no bytes to be had.
            StoreError::Io { transient: false, .. } | StoreError::Unavailable { .. } => {
                ErrorClass::Unavailable
            }
            StoreError::Corrupt(_) | StoreError::ChecksumMismatch { .. } => ErrorClass::Corruption,
            StoreError::Shape(_) => ErrorClass::Error,
            StoreError::Budget { .. } => ErrorClass::ResourceExhausted,
            StoreError::Interrupted(Interrupt::Deadline) => ErrorClass::Deadline,
            StoreError::Interrupted(Interrupt::Cancelled) => ErrorClass::Cancelled,
        }
    }

    /// Shorthand for a non-transient I/O error.
    pub fn io(message: impl Into<String>) -> StoreError {
        StoreError::Io { message: message.into(), transient: false }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { message, transient } => {
                write!(f, "storage I/O error{}: {message}", if *transient { " (transient)" } else { "" })
            }
            StoreError::Corrupt(m) => write!(f, "corrupt chunk data: {m}"),
            StoreError::ChecksumMismatch { got, want } => write!(
                f,
                "chunk checksum mismatch: payload {got:#018x}, source says {want:#018x}"
            ),
            StoreError::Shape(m) => write!(f, "storage shape error: {m}"),
            StoreError::Budget { requested, budget } => write!(
                f,
                "storage byte budget exhausted: {requested} bytes requested, \
                 process budget {budget} (cache already shed)"
            ),
            StoreError::Unavailable { source, retry_after_ms } => write!(
                f,
                "chunk source `{source}` unavailable: circuit breaker open, \
                 retry in {retry_after_ms}ms"
            ),
            StoreError::Interrupted(i) => write!(f, "chunk load interrupted: {i}"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_is_total_and_stable() {
        use ErrorClass::*;
        use FaultClass::{Fatal, Retryable};
        let transient = StoreError::Io { message: "t".into(), transient: true };
        let open = StoreError::Unavailable { source: "x".into(), retry_after_ms: 5 };
        let cases = [
            (transient, Retryable, TransientIo),
            (StoreError::io("p"), Fatal, Unavailable),
            (StoreError::Corrupt("c".into()), Fatal, Corruption),
            (StoreError::ChecksumMismatch { got: 1, want: 2 }, Retryable, Corruption),
            (StoreError::Shape("s".into()), Fatal, Error),
            (StoreError::Budget { requested: 8, budget: 4 }, Fatal, ResourceExhausted),
            (open, Retryable, Unavailable),
            (StoreError::Interrupted(Interrupt::Deadline), Fatal, Deadline),
            (StoreError::Interrupted(Interrupt::Cancelled), Fatal, Cancelled),
        ];
        for (e, retry, class) in cases {
            assert_eq!(e.class(), retry, "retry decision for {e}");
            assert_eq!(e.error_class(), class, "class of {e}");
            assert!(!e.to_string().is_empty());
        }
    }
}

//! Error type of the parallel Monte-Carlo engine.

use core::fmt;

use corrfade::CorrfadeError;
use corrfade_scenarios::ScenarioError;

/// Errors produced while configuring or running the parallel engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ParallelError {
    /// [`crate::ParallelConfig::chunk_size`] was zero — the work could never
    /// be partitioned. Reported as a typed error instead of the silent
    /// hang/panic a zero-sized chunking would otherwise cause.
    InvalidChunkSize,
    /// An error bubbled up from the core generator stack (covariance
    /// validation, Doppler filter design, …).
    Core(CorrfadeError),
    /// A [`crate::StreamFleet`] member failed to resolve or build from the
    /// scenario registry (unknown name, invalid resize, …).
    Scenario(ScenarioError),
    /// One or more worker executions of a submitted job panicked. The pool
    /// itself survives — subsequent submissions run normally — but the
    /// failed job's output must not be trusted. Reported as a typed error
    /// by [`crate::Runtime::try_run`] (and surfaced through fallible
    /// callers such as [`crate::StreamFleet::advance`]) instead of the
    /// poisoned-mutex cascade panics an unhandled worker panic used to
    /// cause.
    JobPanicked {
        /// Number of worker executions that panicked.
        panicked: usize,
    },
}

impl fmt::Display for ParallelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParallelError::InvalidChunkSize => {
                write!(f, "chunk_size must be positive (got 0)")
            }
            ParallelError::Core(e) => write!(f, "generator error: {e}"),
            ParallelError::Scenario(e) => write!(f, "fleet scenario error: {e}"),
            ParallelError::JobPanicked { panicked } => write!(
                f,
                "{panicked} pool worker(s) panicked while executing the job \
                 (see stderr for the worker panic message); the pool \
                 survives and later submissions run normally"
            ),
        }
    }
}

impl std::error::Error for ParallelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParallelError::Core(e) => Some(e),
            ParallelError::Scenario(e) => Some(e),
            ParallelError::InvalidChunkSize | ParallelError::JobPanicked { .. } => None,
        }
    }
}

impl From<CorrfadeError> for ParallelError {
    fn from(e: CorrfadeError) -> Self {
        ParallelError::Core(e)
    }
}

impl From<ScenarioError> for ParallelError {
    fn from(e: ScenarioError) -> Self {
        ParallelError::Scenario(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = ParallelError::InvalidChunkSize;
        assert!(e.to_string().contains("chunk_size"));
        assert!(e.source().is_none());
        let e: ParallelError = CorrfadeError::EmptyCovariance.into();
        assert!(e.to_string().contains("generator error"));
        assert!(e.source().is_some());
        let e: ParallelError = ScenarioError::UnknownScenario {
            name: "nope".into(),
            suggestion: None,
        }
        .into();
        assert!(e.to_string().contains("fleet scenario error"));
        assert!(e.source().is_some());
    }
}

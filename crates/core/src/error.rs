//! The workspace-level error type.
//!
//! Each layer keeps its own error — [`ConfigError`] for shapes,
//! [`MemError`] for the allocation stack, [`CmtError`] for the mapping
//! hardware, [`TraceIoError`] for trace files — and the pipeline's
//! entry points (`try_run`, `try_compare`, `try_run_corun`) fold them
//! all into [`SdamError`], so a caller embedding the evaluation
//! pipeline handles one type. The figure binaries, which want fail-fast
//! behaviour, route every error through one `exit_on_err`.

use sdam_mapping::CmtError;
use sdam_mem::MemError;
use sdam_sys::ConfigError;
use sdam_trace::io::TraceIoError;
use sdam_trace::VariableId;

/// Anything the evaluation pipeline can fail with.
#[derive(Debug)]
pub enum SdamError {
    /// An invalid experiment, machine, cache, system, or training
    /// configuration.
    Config(ConfigError),
    /// A failure in the allocation stack (out of memory, bad address,
    /// unknown mapping or process, exhausted mapping ids).
    Mem(MemError),
    /// A failure registering or driving the chunk mapping table.
    Cmt(CmtError),
    /// A failure reading or writing a trace file.
    TraceIo(TraceIoError),
    /// Profiling found no major variables, but the configuration needs
    /// a per-variable profile to select mappings from.
    EmptyProfile,
    /// A co-run was requested with an empty workload list.
    NoWorkloads,
    /// A co-run workload emitted a variable id at or above the stride
    /// the co-run renumbers workloads by, so it would share a variable
    /// (and a mapping) with the next workload's.
    CorunVariableOutOfRange {
        /// Position of the workload in the co-run list.
        workload: usize,
        /// The offending variable id.
        variable: VariableId,
        /// The exclusive bound on a co-run workload's variable ids.
        limit: u32,
    },
}

impl std::fmt::Display for SdamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SdamError::Config(e) => write!(f, "{e}"),
            SdamError::Mem(e) => write!(f, "{e}"),
            SdamError::Cmt(e) => write!(f, "{e}"),
            SdamError::TraceIo(e) => write!(f, "{e}"),
            SdamError::EmptyProfile => {
                write!(
                    f,
                    "profiling found no major variables to select mappings for"
                )
            }
            SdamError::NoWorkloads => write!(f, "need at least one workload"),
            SdamError::CorunVariableOutOfRange {
                workload,
                variable,
                limit,
            } => write!(
                f,
                "co-run workload {workload} emits variable id {}, but co-run needs ids below {limit}",
                variable.0
            ),
        }
    }
}

impl std::error::Error for SdamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SdamError::Config(e) => Some(e),
            SdamError::Mem(e) => Some(e),
            SdamError::Cmt(e) => Some(e),
            SdamError::TraceIo(e) => Some(e),
            SdamError::EmptyProfile
            | SdamError::NoWorkloads
            | SdamError::CorunVariableOutOfRange { .. } => None,
        }
    }
}

impl From<ConfigError> for SdamError {
    fn from(e: ConfigError) -> Self {
        SdamError::Config(e)
    }
}

impl From<MemError> for SdamError {
    fn from(e: MemError) -> Self {
        SdamError::Mem(e)
    }
}

impl From<CmtError> for SdamError {
    fn from(e: CmtError) -> Self {
        SdamError::Cmt(e)
    }
}

impl From<TraceIoError> for SdamError {
    fn from(e: TraceIoError) -> Self {
        SdamError::TraceIo(e)
    }
}

impl From<sdam_ml::TrainingError> for SdamError {
    fn from(e: sdam_ml::TrainingError) -> Self {
        SdamError::Config(ConfigError::Training { what: e.what })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_every_layer() {
        let e: SdamError = MemError::OutOfPhysicalMemory.into();
        assert!(matches!(e, SdamError::Mem(_)));
        assert!(e.to_string().contains("physical memory"));
        let e: SdamError = ConfigError::Machine { what: "no cores" }.into();
        assert!(e.to_string().contains("no cores"));
        let e: SdamError = sdam_ml::TrainingError {
            what: "steps must be positive",
        }
        .into();
        assert!(matches!(e, SdamError::Config(ConfigError::Training { .. })));
        assert!(SdamError::EmptyProfile.to_string().contains("major"));
        use std::error::Error;
        assert!(SdamError::Mem(MemError::MappingIdsExhausted)
            .source()
            .is_some());
    }
}

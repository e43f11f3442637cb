use std::fmt;

use tacoma_security::SecurityError;
use tacoma_taxscript::analysis::AnalysisFailure;
use tacoma_taxscript::{RuntimeError, ScriptError, VerifyError};

/// Errors from virtual-machine execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VmError {
    /// The briefcase carries no `CODE` folder.
    NoCode,
    /// The briefcase's `CODE-TYPE` is not one this VM executes.
    UnsupportedCodeType {
        /// The VM that refused.
        vm: &'static str,
        /// The code type found.
        code_type: String,
    },
    /// The agent's code failed to compile (vm_c pipeline).
    Compile(ScriptError),
    /// The agent faulted at run time (contained by the sandbox).
    Runtime(RuntimeError),
    /// Arriving bytecode decoded but failed the bytecode verifier, so it
    /// is refused before a single instruction runs.
    Unverifiable(VerifyError),
    /// The binary is not signed by a trusted principal (§3.3's vm_bin
    /// precondition).
    Untrusted(SecurityError),
    /// The artifact bundle has no payload for this host's architecture.
    NoMatchingArchitecture {
        /// This host's architecture.
        host: String,
        /// Architectures the bundle does carry.
        available: Vec<String>,
    },
    /// A native payload references a program not in this host's registry.
    UnknownNativeProgram {
        /// The referenced program name.
        name: String,
    },
    /// The artifact bundle bytes are malformed.
    BadArtifact {
        /// What was wrong.
        detail: &'static str,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::NoCode => write!(f, "briefcase carries no CODE folder"),
            VmError::UnsupportedCodeType { vm, code_type } => {
                write!(f, "{vm} cannot execute code of type {code_type:?}")
            }
            VmError::Compile(e) => write!(f, "compilation failed: {e}"),
            VmError::Runtime(e) => write!(f, "agent faulted: {e}"),
            VmError::Unverifiable(e) => write!(f, "bytecode failed verification: {e}"),
            VmError::Untrusted(e) => write!(f, "binary rejected: {e}"),
            VmError::NoMatchingArchitecture { host, available } => {
                write!(
                    f,
                    "no binary for architecture {host} (bundle has {available:?})"
                )
            }
            VmError::UnknownNativeProgram { name } => {
                write!(f, "native program {name:?} not installed on this host")
            }
            VmError::BadArtifact { detail } => write!(f, "malformed artifact bundle: {detail}"),
        }
    }
}

impl std::error::Error for VmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VmError::Compile(e) => Some(e),
            VmError::Runtime(e) => Some(e),
            VmError::Unverifiable(e) => Some(e),
            VmError::Untrusted(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScriptError> for VmError {
    fn from(e: ScriptError) -> Self {
        VmError::Compile(e)
    }
}

impl From<RuntimeError> for VmError {
    fn from(e: RuntimeError) -> Self {
        VmError::Runtime(e)
    }
}

impl From<VerifyError> for VmError {
    fn from(e: VerifyError) -> Self {
        VmError::Unverifiable(e)
    }
}

impl From<AnalysisFailure> for VmError {
    fn from(e: AnalysisFailure) -> Self {
        match e {
            AnalysisFailure::Decode(e) => VmError::Runtime(e),
            AnalysisFailure::Compile(e) => VmError::Compile(e),
            AnalysisFailure::Verify(e) => VmError::Unverifiable(e),
        }
    }
}

impl From<SecurityError> for VmError {
    fn from(e: SecurityError) -> Self {
        VmError::Untrusted(e)
    }
}

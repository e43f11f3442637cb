//! TAX **virtual machines** (§3.3).
//!
//! > "In TAX it is the responsibility of the various virtual machines to
//! > execute code in a safe and secure manner. […] The method in which
//! > this is achieved is left to the virtual machine, the firewall simply
//! > trusts it to execute agent code safely and correctly."
//!
//! Three VMs are provided, mirroring the paper's:
//!
//! * [`VmBin`] — "executes binaries directly on top of the operating
//!   system, provided the binary is signed by a trusted principal." Here a
//!   *binary* is a signed [`ArtifactBundle`]: per-architecture payloads
//!   that are either compiled TaxScript bytecode (our machine code) or a
//!   reference into the host's [`NativeRegistry`] of Rust-implemented
//!   programs — the documented stand-in for loading machine code, which
//!   safe Rust cannot do.
//! * [`VmScript`] — interprets TaxScript source or bytecode directly; the
//!   stand-in for scripting-language VMs (`vm_perl`, `vm_tcl`).
//! * [`VmC`] — the Figure 3 pipeline: an agent arrives carrying *source*;
//!   `ag_cc` extracts it, `ag_exec` runs the compiler, the binary goes
//!   back into the briefcase, and `vm_bin` executes it. [`VmC`] records
//!   each numbered step in its execution trace so the pipeline experiment
//!   can print the figure.
//!
//! Every VM consumes and produces only briefcases and reaches the outside
//! world only through [`HostHooks`] — the minimal-interface property that
//! makes wrappers possible (§4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod error;
mod pool;
mod registry;
mod vm_bin;
mod vm_c;
mod vm_script;
mod vmtrait;

pub use artifact::{Architecture, ArtifactBundle, BinaryArtifact, ARTIFACT_MAGIC};
pub use error::VmError;
pub use pool::{ProgramCache, VmPool, PROGRAM_CACHE_CAPACITY, VM_POOL_CAPACITY};
pub use registry::{NativeProgram, NativeRegistry};
pub use vm_bin::VmBin;
pub use vm_c::VmC;
pub use vm_script::VmScript;
pub use vmtrait::{code_types, ExecContext, Execution, VirtualMachine};

// Re-exported so downstream crates need not depend on tacoma-taxscript for
// the common agent-outcome types.
pub use tacoma_taxscript::{GoDecision, HostHooks, Outcome};

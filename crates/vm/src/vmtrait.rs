//! The [`VirtualMachine`] trait and execution context.

use tacoma_briefcase::{Briefcase, Bytes};
use tacoma_security::TrustStore;
use tacoma_taxscript::{HostHooks, Outcome, DEFAULT_FUEL};

use crate::{Architecture, NativeRegistry, Run, VmError};

/// The `CODE-TYPE` folder values the standard VMs understand.
pub mod code_types {
    /// TaxScript source text (the stand-in for C source, Figure 3/4).
    pub const TAXSCRIPT_SOURCE: &str = "taxscript-source";
    /// Encoded TaxScript bytecode (a compiled program).
    pub const TAXSCRIPT_BYTECODE: &str = "taxscript-bytecode";
    /// An encoded [`crate::ArtifactBundle`] of signed binaries.
    pub const BINARY_ARTIFACT: &str = "binary-artifact";
}

/// Host-side resources a VM executes against.
pub struct ExecContext<'a> {
    /// The host's trust store, consulted by `vm_bin` before executing a
    /// binary ("provided the binary is signed by a trusted principal").
    pub trust: &'a TrustStore,
    /// Installed native programs.
    pub natives: &'a NativeRegistry,
    /// This host's architecture tag, for artifact selection.
    pub host_arch: Architecture,
    /// Instruction budget per execution (the VM-managed CPU resource of
    /// §3.3).
    pub fuel: u64,
    /// Whether unsigned binaries may run (the trusting single-domain
    /// deployment of §2). Signed binaries are always verified.
    pub allow_unsigned: bool,
}

impl<'a> ExecContext<'a> {
    /// A context with default fuel, requiring signatures.
    pub fn new(trust: &'a TrustStore, natives: &'a NativeRegistry) -> Self {
        ExecContext {
            trust,
            natives,
            host_arch: Architecture::simulated(),
            fuel: DEFAULT_FUEL,
            allow_unsigned: false,
        }
    }

    /// Permits unsigned binaries.
    pub fn allow_unsigned(mut self) -> Self {
        self.allow_unsigned = true;
        self
    }

    /// Overrides the fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Overrides the host architecture.
    pub fn with_arch(mut self, arch: Architecture) -> Self {
        self.host_arch = arch;
        self
    }
}

/// The result of executing an agent on a VM.
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// How the agent ended.
    pub outcome: Outcome,
    /// Human-readable trace of the execution steps (the numbered arrows of
    /// Figure 3 for `vm_c`; shorter for the other VMs).
    pub trace: Vec<String>,
}

/// A TAX virtual machine: executes one agent's briefcase safely.
///
/// "The only other requirements placed on the virtual machines is that
/// they issue briefcases for communication […] Furthermore, VMs must
/// respond to commands issued by the firewall" (§3.3) — command handling
/// lives in the kernel; this trait is the execution engine it drives.
/// A VM refuses a `CODE-TYPE` it does not run in its `launch`, the one
/// place that states what it runs.
pub trait VirtualMachine: Send + Sync {
    /// The VM's name, as addressed by agent URIs (`vm_bin`, `vm_c`, …).
    fn name(&self) -> &str;

    /// Runs the agent whose code and state are in `briefcase`. An agent
    /// whose `go`, `spawn` or `await_bc` the hooks answer pending
    /// ([`HostHooks::poll_go`], [`HostHooks::poll_await`]) stops there,
    /// and the [`Suspension`] carries it on once the answer is in.
    ///
    /// # Errors
    ///
    /// [`VmError`] if the code cannot be extracted, verified, compiled, or
    /// run, or is of a type this VM does not run. Faults never escape as
    /// panics — that is the VM's §3.3 safety obligation.
    ///
    /// [`Suspension`]: crate::Suspension
    fn launch(
        &self,
        briefcase: &mut Briefcase,
        hooks: &mut dyn HostHooks,
        ctx: &ExecContext<'_>,
    ) -> Result<Run, VmError>;

    /// [`VirtualMachine::launch`] to the end, for hooks that answer
    /// `go`/`spawn`/`await_bc` at once.
    ///
    /// # Errors
    ///
    /// As [`VirtualMachine::launch`].
    ///
    /// # Panics
    ///
    /// If the run suspends: hooks that can answer pending must launch.
    fn execute(
        &self,
        briefcase: &mut Briefcase,
        hooks: &mut dyn HostHooks,
        ctx: &ExecContext<'_>,
    ) -> Result<Execution, VmError> {
        self.launch(briefcase, hooks, ctx).map(Run::into_execution)
    }
}

/// Reads the briefcase's `CODE-TYPE` (defaulting to source for bare-code
/// briefcases).
pub(crate) fn code_type_of(briefcase: &Briefcase) -> String {
    briefcase
        .single_str(tacoma_briefcase::folders::CODE_TYPE)
        .unwrap_or(code_types::TAXSCRIPT_SOURCE)
        .to_owned()
}

/// The raw `CODE` bytes (a shared handle, not a copy).
pub(crate) fn code_bytes(briefcase: &Briefcase) -> Result<Bytes, VmError> {
    Ok(briefcase
        .element(tacoma_briefcase::folders::CODE, 0)
        .map_err(|_| VmError::NoCode)?
        .bytes()
        .clone())
}

//! `vm_bin`: "executes binaries directly on top of the operating system,
//! provided the binary is signed by a trusted principal" (§3.3).

use std::sync::Arc;

use tacoma_briefcase::{folders, Briefcase};
use tacoma_security::{Digest, Principal, SecurityError, Signature};

use crate::launch::Run;
use crate::vmtrait::{code_bytes, code_type_of, code_types};
use crate::{
    ArtifactBundle, ExecContext, Execution, HostHooks, LaunchCaches, VirtualMachine, VmError,
};

/// The binary VM. Safety mechanism: code signing — efficient execution
/// "once sufficient trust has been established".
#[derive(Debug, Default)]
pub struct VmBin {
    pub(crate) caches: Arc<LaunchCaches>,
}

/// The conventional name of the binary VM.
pub const VM_BIN_NAME: &str = "vm_bin";

impl VmBin {
    /// A new binary VM with its own fresh launch caches.
    pub fn new() -> Self {
        VmBin::default()
    }

    /// A binary VM that launches through `caches` — its host's set,
    /// shared with the firewall and the host's other VMs.
    pub fn sharing(caches: Arc<LaunchCaches>) -> Self {
        VmBin { caches }
    }

    /// Verifies the briefcase's signature over its `CODE` element.
    ///
    /// # Errors
    ///
    /// [`SecurityError`] when the `PRINCIPAL`/`SIG` folders are missing or
    /// the signature does not verify against a trusted key.
    fn verify_signature(briefcase: &Briefcase, ctx: &ExecContext<'_>) -> Result<(), SecurityError> {
        let principal_name =
            briefcase
                .single_str(folders::PRINCIPAL)
                .map_err(|_| SecurityError::BadPrincipal {
                    name: "<missing>".into(),
                })?;
        let principal = Principal::new(principal_name)?;
        let sig_hex =
            briefcase
                .single_str(folders::SIGNATURE)
                .map_err(|_| SecurityError::BadSignature {
                    principal: principal.to_string(),
                })?;
        let digest = Digest::from_hex(sig_hex).map_err(|_| SecurityError::BadSignature {
            principal: principal.to_string(),
        })?;
        let code =
            briefcase
                .element(folders::CODE, 0)
                .map_err(|_| SecurityError::BadSignature {
                    principal: principal.to_string(),
                })?;
        ctx.trust
            .verify(&principal, code.data(), &Signature::from_digest(digest))
    }
}

impl VirtualMachine for VmBin {
    fn name(&self) -> &str {
        VM_BIN_NAME
    }

    fn launch(
        &self,
        briefcase: &mut Briefcase,
        hooks: &mut dyn HostHooks,
        ctx: &ExecContext<'_>,
    ) -> Result<Run, VmError> {
        self.run(briefcase, hooks, ctx, Vec::new())
    }
}

impl VmBin {
    /// Launches the signed binary in `briefcase`, its trace lines
    /// appended to `trace` (what a VM that hands it on has recorded).
    pub(crate) fn run(
        &self,
        briefcase: &mut Briefcase,
        hooks: &mut dyn HostHooks,
        ctx: &ExecContext<'_>,
        mut trace: Vec<String>,
    ) -> Result<Run, VmError> {
        // Trust first: vm_bin's whole safety story is the signature.
        match Self::verify_signature(briefcase, ctx) {
            Ok(()) => trace.push("vm_bin: signature verified against trusted principal".to_owned()),
            Err(e) if ctx.allow_unsigned => {
                trace.push(format!(
                    "vm_bin: unsigned binary accepted by trusting policy ({e})"
                ));
            }
            Err(e) => return Err(e.into()),
        }

        let code_type = code_type_of(briefcase);
        let code = code_bytes(briefcase)?;
        match code_type.as_str() {
            // A raw compiled program (the vm_c pipeline's output).
            code_types::TAXSCRIPT_BYTECODE => {
                self.run_bytecode(&code, briefcase, hooks, ctx.fuel, trace)
            }
            code_types::BINARY_ARTIFACT => self.run_artifact(&code, briefcase, hooks, ctx, trace),
            other => Err(VmError::UnsupportedCodeType {
                vm: VM_BIN_NAME,
                code_type: other.to_owned(),
            }),
        }
    }

    /// Runs the binary for `ctx.host_arch` out of an encoded
    /// [`ArtifactBundle`] against `briefcase`: the one artifact runner,
    /// behind `vm_bin`'s `binary-artifact` code and `ag_exec`, which
    /// "extracts the binary matching the architecture of the local
    /// machine" (§5). A native payload runs from `ctx.natives`, a
    /// bytecode payload through the host's program cache and pool.
    /// Checks no signature: the caller has established trust.
    ///
    /// # Errors
    ///
    /// [`VmError::BadArtifact`], [`VmError::NoMatchingArchitecture`],
    /// [`VmError::UnknownNativeProgram`], or the program's own failure.
    pub fn run_artifact(
        &self,
        bundle: &[u8],
        briefcase: &mut Briefcase,
        hooks: &mut dyn HostHooks,
        ctx: &ExecContext<'_>,
        mut trace: Vec<String>,
    ) -> Result<Run, VmError> {
        let bundle = ArtifactBundle::decode(bundle)?;
        let artifact =
            bundle
                .select(&ctx.host_arch)
                .ok_or_else(|| VmError::NoMatchingArchitecture {
                    host: ctx.host_arch.to_string(),
                    available: bundle.architectures(),
                })?;
        trace.push(format!(
            "vm_bin: selected binary {:?} for architecture {}",
            artifact.name, artifact.arch
        ));
        let Some(key) = artifact.native_key() else {
            return self.run_bytecode(&artifact.payload, briefcase, hooks, ctx.fuel, trace);
        };
        let program = ctx.natives.get(key)?;
        trace.push(format!("vm_bin: exec native program {key:?}"));
        let outcome = program.run(briefcase, hooks)?;
        trace.push(format!("vm_bin: agent ended with {outcome:?}"));
        Ok(Run::Done(Execution { outcome, trace }))
    }

    /// Runs trusted bytecode. The decode and lowering are memoized by
    /// content hash, so a repeat visitor launches from the warm program.
    fn run_bytecode(
        &self,
        wire: &[u8],
        briefcase: &mut Briefcase,
        hooks: &mut dyn HostHooks,
        fuel: u64,
        mut trace: Vec<String>,
    ) -> Result<Run, VmError> {
        let (program, _) = self.caches.programs().decode(wire)?;
        trace.push(format!(
            "vm_bin: executing {} bytecode instructions",
            program.instruction_count(),
        ));
        let vm = VM_BIN_NAME;
        self.caches.run(vm, &program, briefcase, hooks, fuel, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacoma_security::{Keyring, TrustStore};
    use tacoma_taxscript::{compile_source, NullHooks, Outcome};

    use crate::{Architecture, BinaryArtifact, NativeRegistry};

    fn signed_briefcase(code: Vec<u8>, code_type: &str, keys: &Keyring) -> Briefcase {
        let mut bc = Briefcase::new();
        bc.set_single(folders::PRINCIPAL, keys.principal().as_str());
        bc.set_single(folders::SIGNATURE, keys.sign(&code).digest().to_hex());
        bc.append(folders::CODE, code);
        bc.set_single(folders::CODE_TYPE, code_type);
        bc
    }

    fn unsigned_bytecode(source: &str) -> Briefcase {
        let mut bc = Briefcase::new();
        bc.append(folders::CODE, compile_source(source).unwrap().encode());
        bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_BYTECODE);
        bc
    }

    fn trusting(keys: &Keyring) -> TrustStore {
        let mut t = TrustStore::new();
        t.trust(keys.public());
        t
    }

    /// Runs `bc` on a fresh `vm_bin` trusting `trust`, with `natives`
    /// installed; unsigned binaries run only when `unsigned` is set.
    fn execute(
        bc: &mut Briefcase,
        trust: &TrustStore,
        natives: &NativeRegistry,
        unsigned: bool,
    ) -> Result<Execution, VmError> {
        let mut ctx = ExecContext::new(trust, natives);
        ctx.allow_unsigned = unsigned;
        VmBin::new().execute(bc, &mut NullHooks::default(), &ctx)
    }

    fn webbot_bundle(arch: Architecture, key: &str) -> ArtifactBundle {
        ArtifactBundle::new().with(BinaryArtifact::native("webbot", arch, key, 1000))
    }

    #[test]
    fn signed_bytecode_executes() {
        let keys = Keyring::generate(&Principal::new("alice").unwrap(), 1);
        let program = compile_source("fn main() { exit(5); }").unwrap();
        let mut bc = signed_briefcase(program.encode(), code_types::TAXSCRIPT_BYTECODE, &keys);
        let exec = execute(&mut bc, &trusting(&keys), &NativeRegistry::new(), false).unwrap();
        assert_eq!(exec.outcome, Outcome::Exit(5));
        assert!(exec.trace[0].contains("signature verified"));
    }

    #[test]
    fn unsigned_binary_rejected_by_default() {
        let mut bc = unsigned_bytecode("fn main() { }");
        assert!(matches!(
            execute(&mut bc, &TrustStore::new(), &NativeRegistry::new(), false),
            Err(VmError::Untrusted(_))
        ));
    }

    #[test]
    fn unsigned_binary_allowed_when_policy_permits() {
        let mut bc = unsigned_bytecode("fn main() { exit(3); }");
        let exec = execute(&mut bc, &TrustStore::new(), &NativeRegistry::new(), true).unwrap();
        assert_eq!(exec.outcome, Outcome::Exit(3));
    }

    #[test]
    fn tampered_code_rejected_even_if_signed() {
        let keys = Keyring::generate(&Principal::new("alice").unwrap(), 1);
        let program = compile_source("fn main() { }").unwrap();
        let mut bc = signed_briefcase(program.encode(), code_types::TAXSCRIPT_BYTECODE, &keys);
        // Tamper after signing.
        let tampered = compile_source("fn main() { exit(666); }").unwrap();
        bc.remove_folder(folders::CODE);
        bc.append(folders::CODE, tampered.encode());
        assert!(matches!(
            execute(&mut bc, &trusting(&keys), &NativeRegistry::new(), false),
            Err(VmError::Untrusted(SecurityError::BadSignature { .. }))
        ));
    }

    #[test]
    fn artifact_bundle_selects_architecture_and_runs_native() {
        let keys = Keyring::generate(&Principal::new("w3c").unwrap(), 2);
        let bundle = webbot_bundle(Architecture::i386_linux(), "webbot").with(
            BinaryArtifact::native("webbot", Architecture::simulated(), "webbot", 1000),
        );
        let mut bc = signed_briefcase(bundle.encode(), code_types::BINARY_ARTIFACT, &keys);
        let mut natives = NativeRegistry::new();
        natives.install_fn("webbot", |bc, _| {
            bc.set_single("SCANNED", 917i64);
            Ok(Outcome::Finished)
        });
        let exec = execute(&mut bc, &trusting(&keys), &natives, false).unwrap();
        assert_eq!(exec.outcome, Outcome::Finished);
        assert_eq!(bc.single_i64("SCANNED").unwrap(), 917);
        assert!(exec.trace.iter().any(|l| l.contains("taxvm-sim")));
    }

    #[test]
    fn missing_architecture_is_reported_with_alternatives() {
        let keys = Keyring::generate(&Principal::new("w3c").unwrap(), 2);
        let bundle = webbot_bundle(Architecture::sparc_solaris(), "webbot");
        let mut bc = signed_briefcase(bundle.encode(), code_types::BINARY_ARTIFACT, &keys);
        match execute(&mut bc, &trusting(&keys), &NativeRegistry::new(), false) {
            Err(VmError::NoMatchingArchitecture { available, .. }) => {
                assert_eq!(available, vec!["sparc-solaris".to_owned()]);
            }
            other => panic!("expected architecture mismatch, got {other:?}"),
        }
    }

    #[test]
    fn missing_native_program_is_reported() {
        let keys = Keyring::generate(&Principal::new("w3c").unwrap(), 2);
        let bundle = webbot_bundle(Architecture::simulated(), "not-installed");
        let mut bc = signed_briefcase(bundle.encode(), code_types::BINARY_ARTIFACT, &keys);
        assert!(matches!(
            execute(&mut bc, &trusting(&keys), &NativeRegistry::new(), false),
            Err(VmError::UnknownNativeProgram { .. })
        ));
    }

    #[test]
    fn source_is_not_a_binary() {
        let keys = Keyring::generate(&Principal::new("alice").unwrap(), 1);
        let source = b"fn main() { }".to_vec();
        let mut bc = signed_briefcase(source, code_types::TAXSCRIPT_SOURCE, &keys);
        assert!(matches!(
            execute(&mut bc, &trusting(&keys), &NativeRegistry::new(), false),
            Err(VmError::UnsupportedCodeType { .. })
        ));
    }
}

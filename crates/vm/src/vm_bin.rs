//! `vm_bin`: "executes binaries directly on top of the operating system,
//! provided the binary is signed by a trusted principal" (§3.3).

use tacoma_briefcase::{folders, Briefcase};
use tacoma_security::{Digest, Principal, SecurityError, Signature};
use tacoma_taxscript::{Program, Vm};

use crate::vm_script::HooksProxy;
use crate::vmtrait::{code_bytes, code_type_of, code_types};
use crate::{
    ArtifactBundle, ExecContext, Execution, HostHooks, ProgramCache, VirtualMachine, VmError,
    VmPool,
};

/// Runs a decoded program with a pooled scratch, returning the pool's
/// scratch afterwards even on a fault.
fn launch(
    program: &Program,
    briefcase: &mut Briefcase,
    hooks: &mut dyn HostHooks,
    fuel: u64,
) -> Result<tacoma_taxscript::Outcome, VmError> {
    let mut scratch = VmPool::shared().checkout();
    let mut vm = Vm::new(program, HooksProxy(hooks)).with_fuel(fuel);
    let outcome = vm.run_with_scratch(briefcase, &mut scratch);
    VmPool::shared().checkin(scratch);
    Ok(outcome?)
}

/// The binary VM. Safety mechanism: code signing — efficient execution
/// "once sufficient trust has been established".
#[derive(Debug, Default)]
pub struct VmBin;

/// The conventional name of the binary VM.
pub const VM_BIN_NAME: &str = "vm_bin";

impl VmBin {
    /// A new binary VM.
    pub fn new() -> Self {
        VmBin
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

    fn accepts(&self, code_type: &str) -> bool {
        code_type == code_types::BINARY_ARTIFACT || code_type == code_types::TAXSCRIPT_BYTECODE
    }

    fn execute(
        &self,
        briefcase: &mut Briefcase,
        hooks: &mut dyn HostHooks,
        ctx: &ExecContext<'_>,
    ) -> Result<Execution, VmError> {
        let mut trace = Vec::new();

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
            code_types::TAXSCRIPT_BYTECODE => {
                // A raw compiled program (the vm_c pipeline's output).
                // The decode + lowering are memoized by content hash, so
                // a repeat visitor launches from the warm program.
                let (program, _) = ProgramCache::shared().decode(&code)?;
                trace.push(format!(
                    "vm_bin: executing {} bytecode instructions",
                    program.instruction_count(),
                ));
                let outcome = launch(&program, briefcase, hooks, ctx.fuel)?;
                trace.push(format!("vm_bin: agent ended with {outcome:?}"));
                Ok(Execution { outcome, trace })
            }
            code_types::BINARY_ARTIFACT => {
                let bundle = ArtifactBundle::decode(&code)?;
                let artifact = bundle.select(&ctx.host_arch).ok_or_else(|| {
                    VmError::NoMatchingArchitecture {
                        host: ctx.host_arch.to_string(),
                        available: bundle.architectures(),
                    }
                })?;
                trace.push(format!(
                    "vm_bin: selected binary {:?} for architecture {}",
                    artifact.name, artifact.arch
                ));
                if let Some(key) = artifact.native_key() {
                    let program = ctx.natives.get(key)?;
                    trace.push(format!("vm_bin: exec native program {key:?}"));
                    let outcome = program.run(briefcase, hooks)?;
                    trace.push(format!("vm_bin: agent ended with {outcome:?}"));
                    Ok(Execution { outcome, trace })
                } else {
                    let (program, _) = ProgramCache::shared().decode(&artifact.payload)?;
                    trace.push(format!(
                        "vm_bin: executing {} bytecode instructions",
                        program.instruction_count(),
                    ));
                    let outcome = launch(&program, briefcase, hooks, ctx.fuel)?;
                    trace.push(format!("vm_bin: agent ended with {outcome:?}"));
                    Ok(Execution { outcome, trace })
                }
            }
            other => Err(VmError::UnsupportedCodeType {
                vm: VM_BIN_NAME,
                code_type: other.to_owned(),
            }),
        }
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

    fn trusting(keys: &Keyring) -> TrustStore {
        let mut t = TrustStore::new();
        t.trust(keys.public());
        t
    }

    #[test]
    fn signed_bytecode_executes() {
        let keys = Keyring::generate(&Principal::new("alice").unwrap(), 1);
        let program = compile_source("fn main() { exit(5); }").unwrap();
        let mut bc = signed_briefcase(program.encode(), code_types::TAXSCRIPT_BYTECODE, &keys);
        let trust = trusting(&keys);
        let natives = NativeRegistry::new();
        let ctx = ExecContext::new(&trust, &natives);
        let mut hooks = NullHooks::default();
        let exec = VmBin::new().execute(&mut bc, &mut hooks, &ctx).unwrap();
        assert_eq!(exec.outcome, Outcome::Exit(5));
        assert!(exec.trace[0].contains("signature verified"));
    }

    #[test]
    fn unsigned_binary_rejected_by_default() {
        let program = compile_source("fn main() { }").unwrap();
        let mut bc = Briefcase::new();
        bc.append(folders::CODE, program.encode());
        bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_BYTECODE);
        let trust = TrustStore::new();
        let natives = NativeRegistry::new();
        let ctx = ExecContext::new(&trust, &natives);
        let mut hooks = NullHooks::default();
        assert!(matches!(
            VmBin::new().execute(&mut bc, &mut hooks, &ctx),
            Err(VmError::Untrusted(_))
        ));
    }

    #[test]
    fn unsigned_binary_allowed_when_policy_permits() {
        let program = compile_source("fn main() { exit(3); }").unwrap();
        let mut bc = Briefcase::new();
        bc.append(folders::CODE, program.encode());
        bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_BYTECODE);
        let trust = TrustStore::new();
        let natives = NativeRegistry::new();
        let ctx = ExecContext::new(&trust, &natives).allow_unsigned();
        let mut hooks = NullHooks::default();
        let exec = VmBin::new().execute(&mut bc, &mut hooks, &ctx).unwrap();
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
        let trust = trusting(&keys);
        let natives = NativeRegistry::new();
        let ctx = ExecContext::new(&trust, &natives);
        let mut hooks = NullHooks::default();
        assert!(matches!(
            VmBin::new().execute(&mut bc, &mut hooks, &ctx),
            Err(VmError::Untrusted(SecurityError::BadSignature { .. }))
        ));
    }

    #[test]
    fn artifact_bundle_selects_architecture_and_runs_native() {
        let keys = Keyring::generate(&Principal::new("w3c").unwrap(), 2);
        let bundle = ArtifactBundle::new()
            .with(BinaryArtifact::native(
                "webbot",
                Architecture::i386_linux(),
                "webbot",
                1000,
            ))
            .with(BinaryArtifact::native(
                "webbot",
                Architecture::simulated(),
                "webbot",
                1000,
            ));
        let mut bc = signed_briefcase(bundle.encode(), code_types::BINARY_ARTIFACT, &keys);

        let trust = trusting(&keys);
        let mut natives = NativeRegistry::new();
        natives.install_fn("webbot", |bc, _| {
            bc.set_single("SCANNED", 917i64);
            Ok(Outcome::Finished)
        });
        let ctx = ExecContext::new(&trust, &natives);
        let mut hooks = NullHooks::default();
        let exec = VmBin::new().execute(&mut bc, &mut hooks, &ctx).unwrap();
        assert_eq!(exec.outcome, Outcome::Finished);
        assert_eq!(bc.single_i64("SCANNED").unwrap(), 917);
        assert!(exec.trace.iter().any(|l| l.contains("taxvm-sim")));
    }

    #[test]
    fn missing_architecture_is_reported_with_alternatives() {
        let keys = Keyring::generate(&Principal::new("w3c").unwrap(), 2);
        let bundle = ArtifactBundle::new().with(BinaryArtifact::native(
            "webbot",
            Architecture::sparc_solaris(),
            "webbot",
            10,
        ));
        let mut bc = signed_briefcase(bundle.encode(), code_types::BINARY_ARTIFACT, &keys);
        let trust = trusting(&keys);
        let natives = NativeRegistry::new();
        let ctx = ExecContext::new(&trust, &natives);
        let mut hooks = NullHooks::default();
        match VmBin::new().execute(&mut bc, &mut hooks, &ctx) {
            Err(VmError::NoMatchingArchitecture { available, .. }) => {
                assert_eq!(available, vec!["sparc-solaris".to_owned()]);
            }
            other => panic!("expected architecture mismatch, got {other:?}"),
        }
    }

    #[test]
    fn missing_native_program_is_reported() {
        let keys = Keyring::generate(&Principal::new("w3c").unwrap(), 2);
        let bundle = ArtifactBundle::new().with(BinaryArtifact::native(
            "webbot",
            Architecture::simulated(),
            "not-installed",
            10,
        ));
        let mut bc = signed_briefcase(bundle.encode(), code_types::BINARY_ARTIFACT, &keys);
        let trust = trusting(&keys);
        let natives = NativeRegistry::new();
        let ctx = ExecContext::new(&trust, &natives);
        let mut hooks = NullHooks::default();
        assert!(matches!(
            VmBin::new().execute(&mut bc, &mut hooks, &ctx),
            Err(VmError::UnknownNativeProgram { .. })
        ));
    }

    #[test]
    fn source_is_not_a_binary() {
        let keys = Keyring::generate(&Principal::new("alice").unwrap(), 1);
        let mut bc = signed_briefcase(
            b"fn main() { }".to_vec(),
            code_types::TAXSCRIPT_SOURCE,
            &keys,
        );
        let trust = trusting(&keys);
        let natives = NativeRegistry::new();
        let ctx = ExecContext::new(&trust, &natives);
        let mut hooks = NullHooks::default();
        assert!(matches!(
            VmBin::new().execute(&mut bc, &mut hooks, &ctx),
            Err(VmError::UnsupportedCodeType { .. })
        ));
    }
}

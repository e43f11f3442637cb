//! `vm_script`: interprets TaxScript source or bytecode directly — the
//! stand-in for the scripting-language VMs (`vm_perl`, `vm_tcl`) of the
//! original system.

use std::sync::Arc;

use tacoma_briefcase::Briefcase;
use tacoma_taxscript::HostHooks;

use crate::launch::Run;
use crate::vmtrait::{code_bytes, code_type_of, code_types};
use crate::{ExecContext, LaunchCaches, VirtualMachine, VmError};

/// The scripting VM. Safety mechanism: the TaxScript sandbox (fuel,
/// bounded stacks, contained faults) — the "sand-boxing" option of §3.3.
///
/// The paper's conclusion promises "additional virtual machines"; since
/// every scripting language in this reproduction executes TaxScript,
/// additional language VMs are aliases: [`VmScript::named`] exposes the
/// same engine under another landing-pad name (`vm_perl`, `vm_tcl`, …)
/// so agents addressed at those VMs land and run.
#[derive(Debug)]
pub struct VmScript {
    name: String,
    caches: Arc<LaunchCaches>,
}

impl VmScript {
    /// A new scripting VM under the conventional name, with its own fresh
    /// launch caches.
    pub fn new() -> Self {
        VmScript::named(VM_SCRIPT_NAME)
    }

    /// A scripting VM exposed under a different landing-pad name, with
    /// its own fresh launch caches.
    pub fn named(name: impl Into<String>) -> Self {
        VmScript::sharing(name, Arc::default())
    }

    /// A scripting VM named `name` that launches through `caches` — its
    /// host's set, shared with the firewall and the host's other VMs.
    pub fn sharing(name: impl Into<String>, caches: Arc<LaunchCaches>) -> Self {
        VmScript {
            name: name.into(),
            caches,
        }
    }
}

impl Default for VmScript {
    fn default() -> Self {
        VmScript::new()
    }
}

/// The conventional name of the scripting VM.
pub const VM_SCRIPT_NAME: &str = "vm_script";

impl VirtualMachine for VmScript {
    fn name(&self) -> &str {
        &self.name
    }

    fn launch(
        &self,
        briefcase: &mut Briefcase,
        hooks: &mut dyn HostHooks,
        ctx: &ExecContext<'_>,
    ) -> Result<Run, VmError> {
        let code_type = code_type_of(briefcase);
        let code = code_bytes(briefcase)?;
        // Whether the cache was warm is telemetry (the `cache-*` stats
        // keys), never trace: the trace must not depend on what else ran
        // in this process first.
        let (script, trace) = match code_type.as_str() {
            code_types::TAXSCRIPT_SOURCE => {
                let source = std::str::from_utf8(&code).map_err(|_| VmError::BadArtifact {
                    detail: "source code is not UTF-8",
                })?;
                // An itinerant agent carrying source pays compilation
                // (and superinstruction lowering) once per host, not per
                // hop.
                let script = self.caches.compile(source)?;
                let line = format!("vm_script: running {} bytes of source", source.len());
                (script, line)
            }
            code_types::TAXSCRIPT_BYTECODE => {
                // Arriving bytecode is untrusted: prove it cannot fault
                // the VM before running it (verify-before-execute), once
                // per host — firewall admission shares the entry.
                let script = self.caches.verify(&code)?;
                let line = format!(
                    "vm_script: running {} bytes of bytecode (verified {} functions, max stack {})",
                    code.len(),
                    script.program.functions().len(),
                    script.report.verified.max_stack()
                );
                (script, line)
            }
            other => {
                return Err(VmError::UnsupportedCodeType {
                    vm: VM_SCRIPT_NAME,
                    code_type: other.to_owned(),
                })
            }
        };

        let (program, fuel) = (&script.program, ctx.fuel);
        let vm = VM_SCRIPT_NAME;
        self.caches
            .run(vm, program, briefcase, hooks, fuel, vec![trace])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacoma_briefcase::folders;
    use tacoma_security::TrustStore;
    use tacoma_taxscript::{compile_source, NullHooks, Outcome};

    use crate::{Execution, NativeRegistry};

    fn briefcase(code: impl Into<Vec<u8>>, code_type: &str) -> Briefcase {
        let mut bc = Briefcase::new();
        bc.append(folders::CODE, code.into());
        bc.set_single(folders::CODE_TYPE, code_type);
        bc
    }

    fn run_on(vm: &VmScript, bc: &mut Briefcase) -> Result<Execution, VmError> {
        let trust = TrustStore::new();
        let natives = NativeRegistry::new();
        let ctx = ExecContext::new(&trust, &natives);
        vm.execute(bc, &mut NullHooks::default(), &ctx)
    }

    fn run(bc: &mut Briefcase) -> Result<Execution, VmError> {
        run_on(&VmScript::new(), bc)
    }

    #[test]
    fn executes_source() {
        let source = r#"fn main() { bc_set("OUT", 42); exit(0); }"#;
        let mut bc = briefcase(source, code_types::TAXSCRIPT_SOURCE);
        let exec = run(&mut bc).unwrap();
        assert_eq!(exec.outcome, Outcome::Exit(0));
        assert_eq!(bc.single_i64("OUT").unwrap(), 42);
    }

    #[test]
    fn executes_bytecode() {
        let program = compile_source("fn main() { exit(9); }").unwrap();
        let mut bc = briefcase(program.encode(), code_types::TAXSCRIPT_BYTECODE);
        assert_eq!(run(&mut bc).unwrap().outcome, Outcome::Exit(9));
    }

    #[test]
    fn bytecode_cache_hit_on_second_run() {
        let program = compile_source("fn main() { exit(3); }").unwrap();
        let caches = Arc::new(LaunchCaches::new());
        let vm = VmScript::sharing(VM_SCRIPT_NAME, Arc::clone(&caches));
        let load = || {
            let mut bc = briefcase(program.encode(), code_types::TAXSCRIPT_BYTECODE);
            run_on(&vm, &mut bc)
        };
        let counts = |s: tacoma_taxscript::analysis::CacheStats| (s.hits, s.misses);
        let cold = load().unwrap();
        assert_eq!(cold.outcome, Outcome::Exit(3));
        assert_eq!(counts(caches.analysis().stats()), (0, 1));
        assert_eq!(counts(caches.pool().stats()), (0, 1));
        // The caches are this VM's own, so the second load is exactly one
        // more hit on each.
        let warm = load().unwrap();
        assert_eq!(counts(caches.analysis().stats()), (1, 1));
        assert_eq!(counts(caches.pool().stats()), (1, 1));
        assert_eq!(
            warm, cold,
            "a warm launch is indistinguishable in the trace"
        );
    }

    #[test]
    fn a_cached_failure_is_the_cold_error() {
        let vm = VmScript::new();
        for (code, code_type) in [
            ("fn main() { let = ; }", code_types::TAXSCRIPT_SOURCE),
            ("not bytecode", code_types::TAXSCRIPT_BYTECODE),
        ] {
            let cold = run_on(&vm, &mut briefcase(code, code_type)).unwrap_err();
            let cached = run_on(&vm, &mut briefcase(code, code_type)).unwrap_err();
            assert!(matches!(cold, VmError::Compile(_) | VmError::Runtime(_)));
            assert_eq!(cached, cold, "{code_type}");
        }
        assert_eq!(vm.caches.analysis().stats().hits, 2);
    }

    #[test]
    fn refuses_unverifiable_bytecode() {
        // A jump to code_len decodes fine (Program::validate tolerates
        // it) but the verifier proves it would run off the end.
        use tacoma_taxscript::Op;
        let mut program = compile_source("fn main() { exit(9); }").unwrap();
        let main = program.main_index();
        let end = program.functions()[main].code.len() as u32;
        program.functions_mut()[main].code[0] = Op::Jump(end);
        let mut bc = briefcase(program.encode(), code_types::TAXSCRIPT_BYTECODE);
        assert!(matches!(run(&mut bc), Err(VmError::Unverifiable(_))));
    }

    #[test]
    fn defaults_to_source_without_code_type() {
        let mut bc = Briefcase::new();
        bc.append(folders::CODE, "fn main() { exit(1); }");
        assert_eq!(run(&mut bc).unwrap().outcome, Outcome::Exit(1));
    }

    #[test]
    fn missing_code_is_an_error() {
        let mut bc = Briefcase::new();
        assert_eq!(run(&mut bc).unwrap_err(), VmError::NoCode);
    }

    #[test]
    fn rejects_binary_artifacts() {
        let mut bc = briefcase(vec![1u8, 2, 3], code_types::BINARY_ARTIFACT);
        assert!(matches!(
            run(&mut bc),
            Err(VmError::UnsupportedCodeType {
                vm: "vm_script",
                ..
            })
        ));
    }

    #[test]
    fn compile_errors_are_contained() {
        let mut bc = Briefcase::new();
        bc.append(folders::CODE, "fn main() { let = ; }");
        assert!(matches!(run(&mut bc), Err(VmError::Compile(_))));
    }

    #[test]
    fn runtime_faults_are_contained() {
        let mut bc = Briefcase::new();
        bc.append(folders::CODE, "fn main() { let x = 1 / 0; }");
        assert!(matches!(run(&mut bc), Err(VmError::Runtime(_))));
    }
}

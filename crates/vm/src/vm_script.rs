//! `vm_script`: interprets TaxScript source or bytecode directly — the
//! stand-in for the scripting-language VMs (`vm_perl`, `vm_tcl`) of the
//! original system.

use tacoma_briefcase::Briefcase;
use tacoma_taxscript::analysis::{AnalysisCache, AnalysisFailure};
use tacoma_taxscript::{compile_source, HostHooks, Program, Vm};

use crate::vmtrait::{code_bytes, code_type_of, code_types};
use crate::{ExecContext, Execution, VirtualMachine, VmError, VmPool};

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
}

impl VmScript {
    /// A new scripting VM under the conventional name.
    pub fn new() -> Self {
        VmScript {
            name: VM_SCRIPT_NAME.to_owned(),
        }
    }

    /// A scripting VM exposed under a different landing-pad name.
    pub fn named(name: impl Into<String>) -> Self {
        VmScript { name: name.into() }
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

    fn accepts(&self, code_type: &str) -> bool {
        code_type == code_types::TAXSCRIPT_SOURCE || code_type == code_types::TAXSCRIPT_BYTECODE
    }

    fn execute(
        &self,
        briefcase: &mut Briefcase,
        hooks: &mut dyn HostHooks,
        ctx: &ExecContext<'_>,
    ) -> Result<Execution, VmError> {
        let code_type = code_type_of(briefcase);
        let code = code_bytes(briefcase)?;
        let mut trace = Vec::new();

        let cached;
        let program: &Program = match code_type.as_str() {
            code_types::TAXSCRIPT_SOURCE => {
                let source = String::from_utf8(code).map_err(|_| VmError::BadArtifact {
                    detail: "source code is not UTF-8",
                })?;
                // Source rides the same content-hash cache as bytecode:
                // an itinerant agent carrying source pays compilation
                // (and superinstruction lowering) once, not per hop.
                let (result, _) = AnalysisCache::shared().analyze_source(&source);
                cached = match result {
                    Ok(verified) => verified,
                    Err(AnalysisFailure::Compile(_)) => {
                        // Recompile for the structured error; failures
                        // are rare and the compiler fails fast.
                        compile_source(&source)?;
                        return Err(VmError::BadArtifact {
                            detail: "source failed to compile",
                        });
                    }
                    Err(AnalysisFailure::Verify(e)) => return Err(VmError::Unverifiable(e)),
                    Err(AnalysisFailure::Decode(_)) => {
                        return Err(VmError::BadArtifact {
                            detail: "source keyed a decode failure",
                        })
                    }
                };
                // Whether the cache was warm is telemetry (the `cache-*`
                // stats keys), never trace: the trace must not depend on
                // what else ran in this process first.
                trace.push(format!(
                    "vm_script: running {} bytes of source",
                    source.len()
                ));
                &cached.program
            }
            code_types::TAXSCRIPT_BYTECODE => {
                // Arriving bytecode is untrusted: prove it cannot fault
                // the VM before running it (verify-before-execute). The
                // decode + analysis pipeline is memoized by content hash
                // in the cache shared with firewall admission, so a
                // known-good script skips both on every hop after the
                // first.
                let (result, _) = AnalysisCache::shared().analyze_bytes(&code);
                cached = match result {
                    Ok(verified) => verified,
                    Err(AnalysisFailure::Verify(e)) => return Err(VmError::Unverifiable(e)),
                    Err(_) => {
                        // Re-decode for the precise error; failures are
                        // rare and decode fails fast.
                        Program::decode(&code)?;
                        return Err(VmError::BadArtifact {
                            detail: "bytecode failed to decode",
                        });
                    }
                };
                trace.push(format!(
                    "vm_script: running {} bytes of bytecode (verified {} functions, max stack {})",
                    code.len(),
                    cached.program.functions().len(),
                    cached.report.verified.max_stack()
                ));
                &cached.program
            }
            other => {
                return Err(VmError::UnsupportedCodeType {
                    vm: VM_SCRIPT_NAME,
                    code_type: other.to_owned(),
                })
            }
        };

        let mut scratch = VmPool::shared().checkout();
        let mut vm = Vm::new(program, HooksProxy(hooks)).with_fuel(ctx.fuel);
        let outcome = vm.run_with_scratch(briefcase, &mut scratch);
        VmPool::shared().checkin(scratch);
        let outcome = outcome?;
        trace.push(format!("vm_script: agent ended with {outcome:?}"));
        Ok(Execution { outcome, trace })
    }
}

/// Adapts `&mut dyn HostHooks` to the by-value hooks parameter of
/// [`Vm::new`].
pub(crate) struct HooksProxy<'a>(pub &'a mut dyn HostHooks);

impl HostHooks for HooksProxy<'_> {
    fn display(&mut self, text: &str) {
        self.0.display(text);
    }
    fn go(&mut self, uri: &str, briefcase: &Briefcase) -> tacoma_taxscript::GoDecision {
        self.0.go(uri, briefcase)
    }
    fn spawn(&mut self, uri: &str, briefcase: &Briefcase) -> Option<String> {
        self.0.spawn(uri, briefcase)
    }
    fn activate(&mut self, uri: &str, briefcase: &Briefcase) -> bool {
        self.0.activate(uri, briefcase)
    }
    fn meet(&mut self, uri: &str, briefcase: &Briefcase) -> Option<Briefcase> {
        self.0.meet(uri, briefcase)
    }
    fn await_bc(&mut self, timeout_ms: i64) -> Option<Briefcase> {
        self.0.await_bc(timeout_ms)
    }
    fn now_ms(&mut self) -> i64 {
        self.0.now_ms()
    }
    fn host_name(&mut self) -> String {
        self.0.host_name()
    }
    fn work_ns(&mut self, nanos: u64) {
        self.0.work_ns(nanos);
    }
}

impl std::fmt::Debug for HooksProxy<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HooksProxy")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacoma_briefcase::folders;
    use tacoma_security::TrustStore;
    use tacoma_taxscript::{NullHooks, Outcome};

    use crate::NativeRegistry;

    fn run(bc: &mut Briefcase) -> Result<Execution, VmError> {
        let trust = TrustStore::new();
        let natives = NativeRegistry::new();
        let ctx = ExecContext::new(&trust, &natives);
        let mut hooks = NullHooks::default();
        VmScript::new().execute(bc, &mut hooks, &ctx)
    }

    #[test]
    fn executes_source() {
        let mut bc = Briefcase::new();
        bc.append(
            folders::CODE,
            r#"fn main() { bc_set("OUT", 42); exit(0); }"#,
        );
        bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_SOURCE);
        let exec = run(&mut bc).unwrap();
        assert_eq!(exec.outcome, Outcome::Exit(0));
        assert_eq!(bc.single_i64("OUT").unwrap(), 42);
    }

    #[test]
    fn executes_bytecode() {
        let program = compile_source("fn main() { exit(9); }").unwrap();
        let mut bc = Briefcase::new();
        bc.append(folders::CODE, program.encode());
        bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_BYTECODE);
        assert_eq!(run(&mut bc).unwrap().outcome, Outcome::Exit(9));
    }

    #[test]
    fn bytecode_cache_hit_on_second_run() {
        let program = compile_source("fn main() { exit(3); }").unwrap();
        let load = || {
            let mut bc = Briefcase::new();
            bc.append(folders::CODE, program.encode());
            bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_BYTECODE);
            run(&mut bc)
        };
        let cold = load().unwrap();
        assert_eq!(cold.outcome, Outcome::Exit(3));
        // The shared cache is process-global, so other tests may add hits
        // of their own; this load must add at least one.
        let hits_before = AnalysisCache::shared().stats().hits;
        let warm = load().unwrap();
        assert!(AnalysisCache::shared().stats().hits > hits_before);
        assert_eq!(
            warm, cold,
            "a warm launch is indistinguishable in the trace"
        );
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
        let mut bc = Briefcase::new();
        bc.append(folders::CODE, program.encode());
        bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_BYTECODE);
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
        let mut bc = Briefcase::new();
        bc.append(folders::CODE, vec![1u8, 2, 3]);
        bc.set_single(folders::CODE_TYPE, code_types::BINARY_ARTIFACT);
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

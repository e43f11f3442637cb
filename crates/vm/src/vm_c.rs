//! `vm_c`: the Figure 3 execution pipeline.
//!
//! > "First, the briefcase containing the agent will be delivered to vm_c
//! > (step 1). vm_c activates ag_cc which extracts the code (step 2) and
//! > then activates ag_exec (3) with the code and the compiler as
//! > arguments. Ag_exec runs the compiler (4) and stores the binary in the
//! > briefcase received from ag_cc, and returns it to ag_cc (5). Ag_cc
//! > then returns the binary to vm_c (6) which uses vm_bin (7) to activate
//! > the agent."
//!
//! The "C source" is TaxScript source (see the crate docs for the
//! substitution) and "gcc" is the TaxScript compiler, but the seven steps
//! — and where the code and the binary live at each one — are reproduced
//! exactly, and recorded in the execution trace.

use std::sync::Arc;

use tacoma_briefcase::{folders, Briefcase};

use crate::launch::Run;
use crate::vmtrait::{code_bytes, code_type_of, code_types};
use crate::{ExecContext, HostHooks, LaunchCaches, VirtualMachine, VmBin, VmError};

/// The compiling VM.
#[derive(Debug, Default)]
pub struct VmC {
    bin: VmBin,
}

/// The conventional name of the compiling VM.
pub const VM_C_NAME: &str = "vm_c";

impl VmC {
    /// A new compiling VM with its own fresh launch caches.
    pub fn new() -> Self {
        VmC::default()
    }

    /// A compiling VM whose step-7 `vm_bin` launches through `caches` —
    /// its host's set.
    pub fn sharing(caches: Arc<LaunchCaches>) -> Self {
        VmC {
            bin: VmBin::sharing(caches),
        }
    }
}

impl VirtualMachine for VmC {
    fn name(&self) -> &str {
        VM_C_NAME
    }

    fn launch(
        &self,
        briefcase: &mut Briefcase,
        hooks: &mut dyn HostHooks,
        ctx: &ExecContext<'_>,
    ) -> Result<Run, VmError> {
        let code_type = code_type_of(briefcase);
        if code_type != code_types::TAXSCRIPT_SOURCE {
            return Err(VmError::UnsupportedCodeType {
                vm: VM_C_NAME,
                code_type,
            });
        }

        let mut trace = vec!["1: briefcase delivered to vm_c".to_owned()];

        // Steps 2–3: ag_cc extracts the code and hands it to ag_exec
        // together with the compiler.
        let code = code_bytes(briefcase)?;
        let source = std::str::from_utf8(&code).map_err(|_| VmError::BadArtifact {
            detail: "source code is not UTF-8",
        })?;
        trace.push(format!(
            "2: ag_cc extracted {} bytes of source",
            source.len()
        ));
        trace.push("3: ag_cc activated ag_exec with code and compiler".to_owned());

        // Step 4: ag_exec runs the compiler (`gcc *.c -o res`), once per
        // host for a given source; the step reads the same warm or cold.
        let script = self.bin.caches.compile(source)?;
        let program = &script.program;
        trace.push(format!(
            "4: ag_exec ran compiler: {} fns, {} instructions",
            program.functions().len(),
            program.instruction_count()
        ));

        // Steps 5–6: the binary is stored in the briefcase and handed back
        // up the chain to vm_c.
        let binary = program.encode();
        briefcase.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_BYTECODE);
        let code_folder = briefcase.ensure_folder(folders::CODE);
        code_folder.clear();
        code_folder.append(binary);
        trace.push("5: ag_exec stored binary in briefcase, returned to ag_cc".to_owned());
        trace.push("6: ag_cc returned binary to vm_c".to_owned());

        // Step 7: vm_bin activates the agent. The binary was produced by
        // this host's own trusted toolchain from source whose signature
        // (if any) the firewall checked on arrival, so it runs unsigned.
        trace.push("7: vm_c activated agent on vm_bin".to_owned());
        let bin_ctx = ExecContext {
            allow_unsigned: true,
            host_arch: ctx.host_arch.clone(),
            ..*ctx
        };
        self.bin.run(briefcase, hooks, &bin_ctx, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacoma_security::TrustStore;
    use tacoma_taxscript::{NullHooks, Outcome};

    use crate::{Execution, NativeRegistry};

    fn run(bc: &mut Briefcase) -> Result<(Execution, Vec<String>), VmError> {
        run_on(&VmC::new(), bc)
    }

    fn run_on(vm: &VmC, bc: &mut Briefcase) -> Result<(Execution, Vec<String>), VmError> {
        let trust = TrustStore::new();
        let natives = NativeRegistry::new();
        let ctx = ExecContext::new(&trust, &natives);
        let mut hooks = NullHooks::default();
        let exec = vm.execute(bc, &mut hooks, &ctx)?;
        Ok((exec.clone(), hooks.displayed))
    }

    #[test]
    fn pipeline_compiles_and_runs_figure3_style() {
        let mut bc = Briefcase::new();
        bc.append(
            folders::CODE,
            r#"fn main() { display("Hello world"); exit(0); }"#,
        );
        bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_SOURCE);
        let (exec, displayed) = run(&mut bc).unwrap();
        assert_eq!(exec.outcome, Outcome::Exit(0));
        assert_eq!(displayed, vec!["Hello world"]);
        // All seven numbered steps appear, in order.
        for step in 1..=7 {
            assert!(
                exec.trace
                    .iter()
                    .any(|l| l.starts_with(&format!("{step}:"))),
                "missing step {step} in {:?}",
                exec.trace
            );
        }
    }

    #[test]
    fn second_launch_on_a_host_compiles_from_its_cache() {
        let caches = Arc::new(LaunchCaches::new());
        let vm = VmC::sharing(Arc::clone(&caches));
        let launch = || {
            let mut bc = Briefcase::new();
            bc.append(folders::CODE, "fn main() { exit(4); }");
            run_on(&vm, &mut bc).unwrap().0
        };
        let (cold, warm) = (launch(), launch());
        let s = caches.analysis().stats();
        assert_eq!((s.misses, s.hits), (1, 1), "the second compile is a hit");
        assert_eq!(cold.outcome, Outcome::Exit(4));
        assert_eq!(warm, cold, "Figure 3 reads the same warm or cold");
    }

    #[test]
    fn briefcase_carries_binary_after_execution() {
        let mut bc = Briefcase::new();
        bc.append(folders::CODE, "fn main() { }");
        bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_SOURCE);
        run(&mut bc).unwrap();
        // The source was replaced by the compiled binary — the agent
        // would not be recompiled at its next hop.
        assert_eq!(
            bc.single_str(folders::CODE_TYPE).unwrap(),
            code_types::TAXSCRIPT_BYTECODE
        );
        let code = bc.element(folders::CODE, 0).unwrap();
        assert!(code.data().starts_with(&tacoma_taxscript::PROGRAM_MAGIC));
    }

    #[test]
    fn compile_error_surfaces_from_step4() {
        let mut bc = Briefcase::new();
        bc.append(folders::CODE, "fn main( { }");
        bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_SOURCE);
        assert!(matches!(run(&mut bc), Err(VmError::Compile(_))));
    }

    #[test]
    fn bytecode_is_not_accepted_directly() {
        let mut bc = Briefcase::new();
        bc.append(folders::CODE, vec![0u8; 4]);
        bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_BYTECODE);
        assert!(matches!(
            run(&mut bc),
            Err(VmError::UnsupportedCodeType { vm: "vm_c", .. })
        ));
    }
}

//! `ag_cc`: the compiler service of the Figure 3 pipeline.

use tacoma_briefcase::{folders, Briefcase};
use tacoma_vm::VmError;

use crate::service::{command_of, error_reply, ServiceAgent, ServiceEnv};

/// Request folder carrying source text.
pub const SOURCE_FOLDER: &str = "SOURCE";
/// Reply folder carrying the compiled binary (TaxScript bytecode).
pub const BINARY_FOLDER: &str = "BINARY";

/// The compiler service.
///
/// Request: `CMD = "compile"`, `SOURCE` = source text. Reply: `BINARY` =
/// encoded bytecode, plus `FN-COUNT`/`INSTR-COUNT` metadata.
#[derive(Debug, Default)]
pub struct AgCc;

impl AgCc {
    /// A new compiler service.
    pub fn new() -> Self {
        AgCc
    }
}

impl ServiceAgent for AgCc {
    fn name(&self) -> &str {
        "ag_cc"
    }

    fn handle(&self, request: &mut Briefcase, env: &mut ServiceEnv<'_>) -> Briefcase {
        match command_of(request) {
            "compile" => {
                let Ok(source) = request.single_str(SOURCE_FOLDER) else {
                    return error_reply("compile: missing SOURCE folder");
                };
                // The host's one source path: a source compiled before on
                // this host (by this service or a VM) is a cache hit.
                match env.caches.compile(source) {
                    Ok(script) => {
                        let program = &script.program;
                        let mut reply = Briefcase::new();
                        reply.set_single(folders::STATUS, "ok");
                        reply.set_single(BINARY_FOLDER, program.encode());
                        reply.set_single("FN-COUNT", program.functions().len() as i64);
                        reply.set_single("INSTR-COUNT", program.instruction_count() as i64);
                        reply
                    }
                    // The compiler's own message, as the reply always had.
                    Err(VmError::Compile(e)) => error_reply(e),
                    Err(e) => error_reply(e),
                }
            }
            other => error_reply(format!("ag_cc: unknown command {other:?}")),
        }
    }
}

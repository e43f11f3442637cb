//! `ag_exec`: executes binaries on behalf of agents.
//!
//! §5: "Ag_exec extracts the binary matching the architecture of the
//! local machine (an agent may submit a list of binaries matching
//! different architectures to ag_exec), and executes it with the arguments
//! called by mwWebbot."

use std::sync::Arc;

use tacoma_briefcase::{folders, Briefcase};
use tacoma_security::{Rights, TrustStore};
use tacoma_vm::{ExecContext, Run, VmBin};

use crate::service::{arg, command_of, error_reply, ok_reply, ServiceAgent, ServiceEnv};

/// The folder carrying the encoded [`ArtifactBundle`] to execute.
pub const EXEC_BIN_FOLDER: &str = "EXEC-BIN";
/// The reply folder carrying the executed program's exit code.
pub const EXIT_CODE_FOLDER: &str = "EXIT-CODE";

/// The execution service.
///
/// Request: `CMD = "exec"`, `EXEC-BIN` = encoded artifact bundle, `ARGS` =
/// program arguments. The program runs *against the request briefcase*, so
/// its results come back in the reply — which is the whole point of the
/// §5 wrapper: Webbot's logs land in the briefcase that travels home.
///
/// Authorization: the firewall authenticated the requester before the
/// request reached this host; `ag_exec` additionally requires the
/// [`Rights::EXECUTE`] right.
#[derive(Debug, Default)]
pub struct AgExec;

impl AgExec {
    /// A new execution service.
    pub fn new() -> Self {
        AgExec
    }
}

impl ServiceAgent for AgExec {
    fn name(&self) -> &str {
        "ag_exec"
    }

    fn handle(&self, request: &mut Briefcase, env: &mut ServiceEnv<'_>) -> Briefcase {
        match command_of(request) {
            "exec" => {
                if let Err(e) = env.rights.require(Rights::EXECUTE, &env.requester) {
                    return error_reply(e);
                }
                let Ok(bundle) = request.element(EXEC_BIN_FOLDER, 0) else {
                    return error_reply("exec: missing EXEC-BIN folder");
                };
                let bundle = bundle.bytes().clone();
                // ag_exec checks no signature: the firewall authenticated
                // the requester, and EXECUTE was required above.
                let trust = TrustStore::new();
                let ctx = ExecContext::new(&trust, env.natives)
                    .with_arch(env.host_arch.clone())
                    .with_fuel(env.fuel);
                // The program's briefcase is the request itself: ARGS in,
                // results out. It runs as vm_bin runs an artifact, through
                // the host's program cache and pool.
                let run = VmBin::sharing(Arc::clone(env.caches)).run_artifact(
                    &bundle,
                    request,
                    &mut HooksRef(env.hooks),
                    &ctx,
                    Vec::new(),
                );

                match run.map(Run::into_execution) {
                    Ok(execution) => {
                        let mut reply = request.clone();
                        reply.set_single(folders::STATUS, "ok");
                        let code = match execution.outcome {
                            tacoma_taxscript::Outcome::Exit(c) => c,
                            _ => 0,
                        };
                        reply.set_single(EXIT_CODE_FOLDER, code);
                        // Framing folders do not belong in the reply.
                        reply.remove_folder(EXEC_BIN_FOLDER);
                        reply.remove_folder(folders::COMMAND);
                        reply
                    }
                    Err(e) => error_reply(e),
                }
            }
            "which" => {
                // Report whether a native program is installed (used by
                // launchers to pick capable hosts).
                let Some(key) = arg(request, 0) else {
                    return error_reply("which: missing program name");
                };
                let mut reply = ok_reply();
                reply.set_single("INSTALLED", i64::from(env.natives.contains(key)));
                reply
            }
            other => error_reply(format!("ag_exec: unknown command {other:?}")),
        }
    }
}

/// The caller's hooks, minus suspension. It forwards every method except
/// the `poll_*` ones, which keep their answer-at-once defaults: a program
/// `ag_exec` runs inside a service call cannot suspend, so it must never
/// see the caller's hooks answer pending.
struct HooksRef<'a>(&'a mut dyn tacoma_vm::HostHooks);

impl tacoma_vm::HostHooks for HooksRef<'_> {
    fn display(&mut self, text: &str) {
        self.0.display(text);
    }
    fn go(&mut self, uri: &str, bc: &Briefcase) -> tacoma_taxscript::GoDecision {
        self.0.go(uri, bc)
    }
    fn spawn(&mut self, uri: &str, bc: &Briefcase) -> Option<String> {
        self.0.spawn(uri, bc)
    }
    fn activate(&mut self, uri: &str, bc: &Briefcase) -> bool {
        self.0.activate(uri, bc)
    }
    fn meet(&mut self, uri: &str, bc: &Briefcase) -> Option<Briefcase> {
        self.0.meet(uri, bc)
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

//! Service agents: a host's resources behind briefcase RPC.
//!
//! "In order to manage arbitrary resources properly, resources other than
//! memory and CPU time are handled by service agents. This allows resource
//! allocation mechanisms to handle requests regardless of which VM the
//! requesting agent is running on" (§3.3).
//!
//! A service agent is a resident agent with a well-known name (`ag_exec`,
//! `ag_fs`, …) that answers `meet()` requests synchronously. Requests and
//! replies are briefcases: the `CMD` folder carries the verb, `ARGS` the
//! positional arguments, and the reply sets `STATUS` to `"ok"` or an
//! error text.

use std::sync::Arc;

use tacoma_briefcase::{folders, Briefcase};
use tacoma_security::{Principal, Rights};
use tacoma_simnet::SimTime;
use tacoma_vm::{Architecture, HostHooks, LaunchCaches, NativeRegistry};

/// What a service agent knows about the request it is serving, and the
/// host context it serves it in: the native programs, the launch caches
/// and the hooks a program it runs may use.
pub struct ServiceEnv<'a> {
    /// The host the service runs on.
    pub host: &'a str,
    /// This host's architecture (for `ag_exec` binary selection).
    pub host_arch: Architecture,
    /// The requesting principal.
    pub requester: Principal,
    /// The rights the firewall granted the requester.
    pub rights: Rights,
    /// Virtual time.
    pub now: SimTime,
    /// The host's native programs (for `ag_exec`).
    pub natives: &'a NativeRegistry,
    /// The host's launch caches, shared with its firewall and VMs:
    /// `ag_cc` compiles and `ag_exec` runs through them, so a service
    /// request is a cache hit wherever a launch would be.
    pub caches: &'a Arc<LaunchCaches>,
    /// Host hooks the service may hand to programs it executes (`ag_exec`
    /// running the Webbot needs `meet` to reach the web server).
    pub hooks: &'a mut dyn HostHooks,
    /// Instruction budget for programs the service executes.
    pub fuel: u64,
}

/// A resident service agent.
pub trait ServiceAgent: Send + Sync {
    /// The agent's well-known name (`ag_exec`, `ag_fs`, …).
    fn name(&self) -> &str;

    /// Serves one request, returning the reply briefcase. Never panics;
    /// failures are reported in the reply's `STATUS` folder so remote
    /// callers get an answer rather than a hang.
    fn handle(&self, request: &mut Briefcase, env: &mut ServiceEnv<'_>) -> Briefcase;
}

/// Builds an `ok` reply.
pub fn ok_reply() -> Briefcase {
    let mut reply = Briefcase::new();
    reply.set_single(folders::STATUS, "ok");
    reply
}

/// Builds an error reply with a human-readable reason.
pub fn error_reply(reason: impl std::fmt::Display) -> Briefcase {
    let mut reply = Briefcase::new();
    reply.set_single(folders::STATUS, format!("error: {reason}"));
    reply
}

/// Whether a reply reports success.
pub fn reply_ok(reply: &Briefcase) -> bool {
    reply.single_str(folders::STATUS).is_ok_and(|s| s == "ok")
}

/// The command verb of a request, or empty.
pub fn command_of(request: &Briefcase) -> &str {
    request.single_str(folders::COMMAND).unwrap_or("")
}

/// The `i`-th `ARGS` element as text, if present.
pub fn arg(request: &Briefcase, i: usize) -> Option<&str> {
    request.folder(folders::ARGS)?.get(i)?.as_str().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_helpers() {
        assert!(reply_ok(&ok_reply()));
        let err = error_reply("nope");
        assert!(!reply_ok(&err));
        assert_eq!(err.single_str(folders::STATUS).unwrap(), "error: nope");
        assert!(!reply_ok(&Briefcase::new()));
    }

    #[test]
    fn request_helpers() {
        let mut req = Briefcase::new();
        req.set_single(folders::COMMAND, "read");
        req.append(folders::ARGS, "/etc/motd");
        req.append(folders::ARGS, "second");
        assert_eq!(command_of(&req), "read");
        assert_eq!(arg(&req, 0), Some("/etc/motd"));
        assert_eq!(arg(&req, 1), Some("second"));
        assert_eq!(arg(&req, 2), None);
        assert_eq!(command_of(&Briefcase::new()), "");
    }
}

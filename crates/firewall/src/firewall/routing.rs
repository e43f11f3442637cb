//! Routing: where a message goes, and the admission of arriving agents.

use tacoma_briefcase::{folders, Briefcase};
use tacoma_security::Rights;
use tacoma_simnet::SimTime;
use tacoma_uri::{AgentAddress, AgentUri, Instance};

use super::{ControlAction, ControlKind, Decision, Firewall, FIREWALL_AGENT_NAME};
use crate::registry::AgentStatus;
use crate::{AdmissionVerdict, FirewallError, Message, MessageKind};

impl Firewall {
    /// Routes a message sent by a *local* agent or tool.
    ///
    /// # Errors
    ///
    /// [`FirewallError::Denied`] if the sender lacks the send right for
    /// the destination's scope; admin errors for firewall-addressed
    /// messages.
    pub fn route_outbound(
        &mut self,
        message: Message,
        now: SimTime,
    ) -> Result<Decision, FirewallError> {
        let rights = self.rights_of(&message.from_principal, true);
        let is_remote = message.to.host().is_some_and(|h| h != self.host);
        if is_remote {
            if let Err(e) = rights.require(Rights::SEND_REMOTE, &message.from_principal) {
                self.stats.denied += 1;
                return Err(e.into());
            }
            let host = message.to.host().expect("checked is_remote").to_owned();
            let port = message
                .to
                .location()
                .expect("checked is_remote")
                .effective_port();
            self.stats.forwarded_remote += 1;
            return Ok(Decision::ForwardRemote {
                host,
                port,
                message,
            });
        }
        if let MessageKind::AgentTransfer { spawned } = message.kind {
            // A local `go`/`spawn`: the agent hops to another VM on this
            // host (Figure 3's intra-host moves).
            return self.install(message, spawned, now);
        }
        if let Err(e) = rights.require(Rights::SEND_LOCAL, &message.from_principal) {
            self.stats.denied += 1;
            return Err(e.into());
        }
        self.resolve_local(message, rights, now)
    }

    /// Decodes wire bytes from a peer firewall and routes the message,
    /// counting received traffic. Zero-copy: the decoded message's
    /// briefcase elements are slices of `payload`'s shared allocation, so
    /// inbound page bodies and agent binaries are routed to their VM
    /// without a byte ever being copied off the receive buffer.
    ///
    /// # Errors
    ///
    /// [`FirewallError::BadWire`] on a malformed payload, plus everything
    /// [`Firewall::route_inbound`] raises.
    pub fn route_inbound_wire_bytes(
        &mut self,
        payload: &bytes::Bytes,
        now: SimTime,
    ) -> Result<Decision, FirewallError> {
        self.stats.frames_received += 1;
        self.stats.bytes_received += payload.len() as u64;
        let message = Message::decode_bytes(payload)?;
        self.route_inbound(message, now)
    }

    /// Routes a message that arrived from the network.
    ///
    /// # Errors
    ///
    /// Authentication and authorization failures; [`FirewallError::BadWire`]
    /// never occurs here (decode happens in the transport layer).
    pub fn route_inbound(
        &mut self,
        message: Message,
        now: SimTime,
    ) -> Result<Decision, FirewallError> {
        match message.kind {
            MessageKind::AgentTransfer { spawned } => self.install(message, spawned, now),
            MessageKind::Deliver => {
                let authenticated = self.is_sender_trusted(&message.from_host);
                let rights = self.rights_of(&message.from_principal, authenticated);
                if let Err(e) = rights.require(Rights::SEND_LOCAL, &message.from_principal) {
                    self.stats.denied += 1;
                    return Err(e.into());
                }
                self.resolve_local(message, rights, now)
            }
        }
    }

    fn install(
        &mut self,
        message: Message,
        spawned: bool,
        now: SimTime,
    ) -> Result<Decision, FirewallError> {
        // First-level authentication of the agent core.
        let principal = match self.authenticate_transfer(&message.briefcase) {
            Ok(p) => p,
            // A local hop (agent moving between this host's own VMs) is
            // already authenticated: the agent is running here.
            Err(_) if message.from_host == self.host => message.from_principal.clone(),
            Err(e) => {
                // An unsigned agent may still land if policy grants
                // unauthenticated principals EXECUTE (the single-domain
                // "trusting" deployment of §2).
                let claimed = message.from_principal.clone();
                let rights = self.rights_of(&claimed, false);
                if rights.contains(Rights::EXECUTE) {
                    claimed
                } else {
                    self.stats.denied += 1;
                    return Err(e.into());
                }
            }
        };
        let rights = self.rights_of(&principal, true);
        if let Err(e) = rights.require(Rights::EXECUTE, &principal) {
            self.stats.denied += 1;
            return Err(e.into());
        }

        // Second-level check: the code itself. Bytecode is verified and
        // its capability manifest compared against the principal's grant
        // before any VM sees it.
        match self.admission.check(&message.briefcase, rights) {
            Ok(AdmissionVerdict::Verified { cache_hit, .. }) => {
                self.stats.code_verified += 1;
                if cache_hit {
                    self.stats.analysis_cache_hits += 1;
                } else {
                    self.stats.analysis_cache_misses += 1;
                }
            }
            Ok(AdmissionVerdict::Skipped) => {}
            Err(e) => {
                self.stats.code_rejected += 1;
                self.stats.denied += 1;
                return Err(FirewallError::CodeRejected(e));
            }
        }

        // The target URI's name part picks the VM (Figure 4's agent moves
        // "to the VM specified by the URI").
        let vm = message
            .to
            .name()
            .ok_or(FirewallError::MissingAgentName)?
            .to_owned();
        if !self.vms.contains(&vm) {
            self.stats.denied += 1;
            return Err(FirewallError::NoSuchVm { vm });
        }

        let agent_name = message
            .briefcase
            .single_str(folders::AGENT_NAME)
            .map_err(|_| FirewallError::MissingAgentName)?
            .to_owned();
        // `spawn` pre-allocates the instance at the origin so it can be
        // "reported back to the calling agent" (§3.1) synchronously; the
        // briefcase carries it in SYS:INSTANCE.
        let instance = message
            .briefcase
            .single_str("SYS:INSTANCE")
            .ok()
            .and_then(|s| s.parse::<Instance>().ok())
            .unwrap_or_else(|| self.allocate_instance());
        let address = AgentAddress::new(principal.as_str(), agent_name, instance);
        self.stats.agents_installed += 1;
        let _ = now;
        Ok(Decision::InstallAgent {
            vm,
            address,
            briefcase: message.briefcase,
            spawned,
            hop: message.hop,
        })
    }

    fn resolve_local(
        &mut self,
        message: Message,
        rights: Rights,
        now: SimTime,
    ) -> Result<Decision, FirewallError> {
        // Messages addressed to the firewall itself: admin operations.
        if message.to.name() == Some(FIREWALL_AGENT_NAME) {
            return self.admin(&message, rights);
        }

        let sender = message.from_principal.as_str().to_owned();
        let found = self
            .registry
            .matches(&message.to, self.local_system.as_str(), &sender)
            .next()
            .map(|r| (r.vm.clone(), r.address.clone(), r.status));

        match found {
            Some((vm, agent, AgentStatus::Running)) => {
                self.stats.delivered_local += 1;
                Ok(Decision::DeliverLocal { vm, agent, message })
            }
            // "…queued with a timeout value if the receiving agent is not
            // ready to receive, or has not yet arrived at the site."
            Some((_, _, AgentStatus::Stopped)) | None => {
                self.park(message, now, None);
                Ok(Decision::Queued)
            }
        }
    }

    fn admin(&mut self, message: &Message, rights: Rights) -> Result<Decision, FirewallError> {
        if let Err(e) = rights.require(Rights::ADMIN, &message.from_principal) {
            self.stats.denied += 1;
            return Err(e.into());
        }
        let command = message
            .briefcase
            .single_str(folders::COMMAND)
            .map_err(|e| FirewallError::BadWire {
                detail: e.to_string(),
            })?
            .to_owned();
        self.stats.admin_ops += 1;

        let mut reply = Briefcase::new();
        match command.as_str() {
            "list" => {
                reply.set_single(folders::STATUS, "ok");
                for reg in self.registry.iter() {
                    let status = match reg.status {
                        AgentStatus::Running => "running",
                        AgentStatus::Stopped => "stopped",
                    };
                    reply.append(
                        "AGENTS",
                        format!(
                            "{} vm={} status={} since={}",
                            reg.address, reg.vm, status, reg.registered_at
                        ),
                    );
                }
                Ok(Decision::Admin {
                    reply,
                    control: None,
                })
            }
            "stats" => {
                reply.set_single(folders::STATUS, "ok");
                reply.set_single("STATS", self.stats.to_string());
                Ok(Decision::Admin {
                    reply,
                    control: None,
                })
            }
            "runtime" => {
                let target = self.admin_target(message)?;
                let reg = self
                    .registry
                    .get(&target)
                    .expect("admin_target checked presence");
                reply.set_single(folders::STATUS, "ok");
                let now: SimTime =
                    message
                        .briefcase
                        .single_i64("NOW-NS")
                        .map_or(
                            reg.registered_at,
                            |ns| SimTime::from_nanos(ns.max(0) as u64),
                        );
                let runtime = now.saturating_since(reg.registered_at);
                reply.set_single("RUNTIME-MS", runtime.as_millis() as i64);
                Ok(Decision::Admin {
                    reply,
                    control: None,
                })
            }
            "kill" | "stop" | "resume" => {
                let target = self.admin_target(message)?;
                let kind = match command.as_str() {
                    "kill" => ControlKind::Kill,
                    "stop" => ControlKind::Stop,
                    _ => ControlKind::Resume,
                };
                let vm = {
                    let reg = self
                        .registry
                        .get_mut(&target)
                        .expect("admin_target checked presence");
                    match kind {
                        ControlKind::Stop => reg.status = AgentStatus::Stopped,
                        ControlKind::Resume => reg.status = AgentStatus::Running,
                        ControlKind::Kill => {}
                    }
                    reg.vm.clone()
                };
                if kind == ControlKind::Kill {
                    self.registry.unregister(&target);
                }
                reply.set_single(folders::STATUS, "ok");
                Ok(Decision::Admin {
                    reply,
                    control: Some(ControlAction {
                        vm,
                        agent: target,
                        kind,
                    }),
                })
            }
            other => {
                reply.set_single(folders::STATUS, format!("error: unknown command {other}"));
                Err(FirewallError::UnknownCommand {
                    command: other.to_owned(),
                })
            }
        }
    }

    /// Resolves the admin command's target (first `ARGS` element, an agent
    /// URI) to a uniquely registered agent.
    fn admin_target(&self, message: &Message) -> Result<AgentAddress, FirewallError> {
        let text =
            message
                .briefcase
                .single_str(folders::ARGS)
                .map_err(|e| FirewallError::BadWire {
                    detail: e.to_string(),
                })?;
        let target: AgentUri =
            text.parse()
                .map_err(|e: tacoma_uri::ParseUriError| FirewallError::BadWire {
                    detail: e.to_string(),
                })?;
        match self.registry.unique_match(
            &target,
            self.local_system.as_str(),
            message.from_principal.as_str(),
        ) {
            Ok(Some(reg)) => Ok(reg.address.clone()),
            Ok(None) => Err(FirewallError::UnknownAgent { target }),
            Err(matches) => Err(FirewallError::Ambiguous { target, matches }),
        }
    }
}

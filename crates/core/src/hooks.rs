//! [`KernelHooks`]: the TAX library (§3.1) as seen by running agents, and
//! the shared [`Kernel`] machinery behind it and the scheduler.
//!
//! Every primitive is firewall-mediated (Figure 1) and charged to the
//! virtual network:
//!
//! * `go`/`spawn` — agent transfers; the briefcase ships whole.
//! * `activate` — asynchronous briefcase send.
//! * `meet` — RPC; synchronous against *service agents* (local or
//!   remote). A `meet` addressed to another mobile agent degrades to a
//!   delivery (the reply would require preemptive scheduling, which the
//!   deterministic scheduler deliberately avoids); the caller gets `None`.
//! * `await` — waits for mail in the agent's mailbox, filled by
//!   `activate`s, until a deadline on the kernel clock.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::task::Poll;
use std::time::Duration;

use parking_lot::RwLock;
use tacoma_briefcase::Briefcase;
use tacoma_firewall::{AgentStatus, ControlKind, Decision, Message};
use tacoma_security::{Principal, Rights};
use tacoma_simnet::{HostId, Network, SimTime};
use tacoma_taxscript::{GoDecision, Outcome};
use tacoma_uri::{AgentAddress, AgentUri};
use tacoma_vm::{ExecContext, Execution, HostHooks, Run, VirtualMachine};

use crate::event::EventKind;
use crate::host::{AgentTask, Parked, Settled, TaxHost, Wait};
use crate::sched::{charge_transfer, TaskScope};
use crate::service::{error_reply, ServiceAgent, ServiceEnv};
use crate::TaxError;

/// The folder a requester sets to receive a service's reply
/// asynchronously (used with `activate`; `meet` replies synchronously).
pub const REPLY_TO_FOLDER: &str = "REPLY-TO";

/// Service-call recursion limit (an exec'd program meeting a service that
/// execs a program …).
const MAX_SERVICE_DEPTH: u32 = 8;

pub(crate) type Directory = Arc<RwLock<BTreeMap<String, TaxHost>>>;

/// Shared kernel context: host directory, transport, network.
#[derive(Clone)]
pub(crate) struct Kernel {
    pub directory: Directory,
    pub net: Arc<Network>,
    /// The wire every outbound firewall decision ships over — the simnet
    /// bus by default, real TCP under `taxd`.
    pub transport: Arc<dyn tacoma_transport::Transport>,
}

impl Kernel {
    pub fn host(&self, name: &str) -> Option<TaxHost> {
        self.directory.read().get(name).cloned()
    }

    /// The current virtual time: the executing batch's forked clock when
    /// a [`TaskScope`] is installed on this thread, the global clock
    /// otherwise.
    pub fn now(&self) -> SimTime {
        TaskScope::with_current(|scope| match scope {
            Some(scope) => scope.clock.now(),
            None => self.net.clock().now(),
        })
    }

    /// Advances virtual time on whichever clock [`Kernel::now`] reads.
    pub fn advance(&self, by: Duration) {
        TaskScope::with_current(|scope| match scope {
            Some(scope) => scope.clock.advance(by),
            None => self.net.clock().advance(by),
        });
    }

    /// Routes one wire-encoded message on `host` — the one landing path
    /// for simnet envelopes and frames a [`TransportListener`] received
    /// over TCP. Zero-copy: the firewall decodes briefcase contents
    /// straight out of the payload's shared buffer.
    ///
    /// [`TransportListener`]: tacoma_transport::TransportListener
    pub fn process_wire_bytes(&self, host: &TaxHost, payload: &bytes::Bytes) {
        let now = self.now();
        match host.with_firewall(|fw| fw.route_inbound_wire_bytes(payload, now)) {
            Ok(decision) => {
                if let Err(e) = self.execute_deliver_decision(host, decision, 0) {
                    host.record(now, None, EventKind::Rejected(e.to_string()));
                }
            }
            Err(e) => host.record(now, None, EventKind::Rejected(e.to_string())),
        }
    }

    /// Drains every envelope waiting on `host`; returns how many were
    /// processed.
    pub fn pump_inbox(&self, host: &TaxHost) -> usize {
        let mut n = 0;
        while let Some(envelope) = host.try_recv_envelope() {
            self.process_wire_bytes(host, &envelope.payload);
            n += 1;
        }
        n
    }

    /// Installs an agent on a host: builds its wrapper stack, registers it
    /// with the firewall, delivers any queued mail, and schedules its run.
    /// `hop` is the journal dedup key of the migration that delivered the
    /// agent (None for launches and hosts without a journal); it is
    /// committed when the scheduled task reaches a terminal outcome.
    pub fn install(
        &self,
        host: &TaxHost,
        vm: String,
        address: AgentAddress,
        briefcase: Briefcase,
        hop: Option<String>,
    ) -> Result<(), TaxError> {
        let stack = host.core.factory.read().build_stack(&briefcase)?;
        host.core.wrappers.lock().insert(address.clone(), stack);

        let pending = host.with_firewall(|fw| fw.register_agent(&address, vm.clone(), self.now()));
        host.record(
            self.now(),
            Some(address.clone()),
            EventKind::Installed { vm: vm.clone() },
        );
        for message in pending {
            self.deliver_mail(host, &address, message.briefcase);
        }
        host.push_task(AgentTask {
            vm,
            address,
            briefcase,
            hop,
            resume: None,
        });
        Ok(())
    }

    /// Queues every task whose in-flight transfer `host`'s firewall has
    /// settled, its verdict attached, behind the tasks already waiting.
    /// Returns how many were queued.
    pub fn resume_settled(&self, host: &TaxHost) -> usize {
        let verdicts = host.with_firewall(tacoma_firewall::Firewall::take_verdicts);
        let mut queued = 0;
        for (token, verdict) in verdicts {
            // A task killed while in flight is gone; its verdict only
            // closed the books on the frame.
            let Some(mut parked) = host.unpark(&Wait::Transfer(token)) else {
                continue;
            };
            let spawned = parked.spawned.take();
            host.wake(parked, Settled::Transfer(verdict, spawned));
            queued += 1;
        }
        queued
    }

    /// Delivers a briefcase to a local mobile agent's mailbox, running its
    /// inbound wrapper chain first ("any briefcase addressed to the agent
    /// is sent to the wrapper first").
    pub fn deliver_mail(&self, host: &TaxHost, agent: &AgentAddress, mut briefcase: Briefcase) {
        let now = self.now();
        let effects = {
            let mut wrappers = host.core.wrappers.lock();
            match wrappers.get_mut(agent) {
                Some(stack) => stack.apply_inbound(&mut briefcase, agent, host.name(), now),
                None => Default::default(),
            }
        };
        for note in &effects.notes {
            host.record(
                now,
                Some(agent.clone()),
                EventKind::Wrapper {
                    wrapper: "inbound".into(),
                    note: note.clone(),
                },
            );
        }
        let absorbed = effects.absorbed;
        self.send_emissions(host, agent, effects.emit);
        if absorbed {
            return;
        }
        // A run parked in `await_bc` takes the mail as its answer.
        match host.unpark(&Wait::Mail(agent.clone())) {
            Some(parked) => host.wake(parked, Settled::Mail(Some(briefcase))),
            None => host.push_mail(agent, briefcase),
        }
    }

    /// Sends wrapper side-emissions as plain messages (no wrapper
    /// re-entry).
    pub fn send_emissions(
        &self,
        host: &TaxHost,
        from: &AgentAddress,
        emissions: Vec<(String, Briefcase)>,
    ) {
        for (to, bc) in emissions {
            let Ok(principal) = Principal::new(from.principal()) else {
                continue;
            };
            if let Err(e) = self.send_plain(host, principal, Some(from.clone()), &to, bc, 0) {
                host.record(
                    self.now(),
                    Some(from.clone()),
                    EventKind::Rejected(e.to_string()),
                );
            }
        }
    }

    /// Routes and executes a plain (wrapper-free) deliver message from a
    /// local sender.
    pub fn send_plain(
        &self,
        host: &TaxHost,
        from_principal: Principal,
        from_agent: Option<AgentAddress>,
        to: &str,
        briefcase: Briefcase,
        depth: u32,
    ) -> Result<(), TaxError> {
        let target: AgentUri = to.parse()?;
        let message = Message::deliver(host.name(), from_principal, from_agent, target, briefcase);
        let decision =
            host.with_firewall(|fw| fw.dispatch_outbound(message, self.now(), &*self.transport))?;
        self.execute_deliver_decision(host, decision, depth)
    }

    /// Carries out a routing decision for a deliver-kind message.
    pub fn execute_deliver_decision(
        &self,
        host: &TaxHost,
        decision: Decision,
        depth: u32,
    ) -> Result<(), TaxError> {
        match decision {
            Decision::DeliverLocal { vm, agent, message } if vm == "service" => {
                let _reply = self.call_service_on(host, &agent, message, depth)?;
                Ok(())
            }
            Decision::DeliverLocal { agent, message, .. } => {
                self.deliver_mail(host, &agent, message.briefcase);
                Ok(())
            }
            Decision::Forwarded { .. } | Decision::InFlight { .. } | Decision::Queued => Ok(()),
            Decision::InstallAgent {
                vm,
                address,
                briefcase,
                hop,
                ..
            } => self.install(host, vm, address, briefcase, hop),
            Decision::Admin { control, .. } => {
                self.apply_admin(host, control);
                Ok(())
            }
            // Every caller passes a dispatched or inbound decision, which
            // is never a bare forward.
            other => Err(TaxError::BadAgentSpec {
                detail: format!("unexpected deliver decision {other:?}"),
            }),
        }
    }

    /// Invokes a *local* service agent and returns its reply; also honours
    /// the request's `REPLY-TO` folder.
    fn call_service_on(
        &self,
        host: &TaxHost,
        service_addr: &AgentAddress,
        message: Message,
        depth: u32,
    ) -> Result<Briefcase, TaxError> {
        let name = service_addr.name().to_owned();
        let Some(service) = host.service(&name) else {
            return Ok(error_reply(format!("service {name} not installed")));
        };
        let mut request = message.briefcase;
        let reply_to = request.single_str(REPLY_TO_FOLDER).ok().map(str::to_owned);
        let requester = message.from_principal.clone();
        let authenticated = message.from_host == host.name()
            || host.with_firewall_read(|fw| fw.is_sender_trusted(&message.from_host));
        let rights = host.with_firewall_read(|fw| fw.rights_of(&requester, authenticated));

        let reply = self.run_service(
            host,
            service.as_ref(),
            &mut request,
            requester.clone(),
            rights,
            depth,
        );
        host.record(
            self.now(),
            Some(service_addr.clone()),
            EventKind::Service {
                service: name,
                command: crate::service::command_of(&request).to_owned(),
            },
        );

        if let Some(reply_to) = reply_to {
            let _ = self.send_plain(host, requester, None, &reply_to, reply.clone(), depth + 1);
        }
        Ok(reply)
    }

    /// Runs a service handler with a fresh set of hooks scoped to the
    /// service's host.
    pub(crate) fn run_service(
        &self,
        host: &TaxHost,
        service: &dyn ServiceAgent,
        request: &mut Briefcase,
        requester: Principal,
        rights: Rights,
        depth: u32,
    ) -> Briefcase {
        if depth >= MAX_SERVICE_DEPTH {
            return error_reply("service call recursion limit reached");
        }
        let natives = host.core.natives.read().clone();
        let caches = host.with_firewall_read(|fw| Arc::clone(fw.launch_caches()));
        let exec_address = AgentAddress::new(
            requester.as_str(),
            service.name(),
            tacoma_uri::Instance::from_u64(depth as u64),
        );
        let mut hooks = KernelHooks {
            kernel: self.clone(),
            host: host.clone(),
            agent: exec_address,
            principal: requester.clone(),
            depth: depth + 1,
            hop: None,
            waiting: None,
            settled: None,
        };
        let mut env = ServiceEnv {
            host: host.name(),
            host_arch: host.arch().clone(),
            requester,
            rights,
            now: self.now(),
            natives: &natives,
            caches: &caches,
            hooks: &mut hooks,
            fuel: host.core.fuel,
        };
        service.handle(request, &mut env)
    }

    /// Executes one queued agent task on `host`: status check, VM lookup,
    /// hook wiring, execution, and completion bookkeeping, on the tick
    /// batch's forked clock. A run that suspends is parked on what it
    /// waits for — a ship token until [`Kernel::resume_settled`], or its
    /// mailbox until [`Kernel::deliver_mail`] or the deadline — and a
    /// resumed task carries its run on instead of starting one.
    pub(crate) fn run_task(&self, host: &TaxHost, mut task: AgentTask) {
        let now = self.now();

        // Respect kill/stop decided while the task was queued (or while
        // its transfer was in flight).
        let status =
            host.with_firewall_read(|fw| fw.registry().get(&task.address).map(|r| r.status));
        match status {
            None => {
                // Killed by admin: the hop must never be replayed — the
                // kill was a deliberate decision about this agent.
                abort_hop(host, task.hop.as_deref());
                return;
            }
            Some(AgentStatus::Stopped) => {
                // The hop stays open; the parked task still owns it.
                host.core.parked.lock().push(task);
                return;
            }
            Some(AgentStatus::Running) => {}
        }

        // A resumed run carries its program in its continuation.
        let vm = if task.resume.is_some() {
            None
        } else {
            let vm: Option<Arc<dyn VirtualMachine>> = host.core.vms.read().get(&task.vm).cloned();
            let Some(vm) = vm else {
                host.record(
                    now,
                    Some(task.address.clone()),
                    EventKind::Rejected(format!("no VM named {:?}", task.vm)),
                );
                abort_hop(host, task.hop.as_deref());
                host.with_firewall(|fw| fw.unregister_agent(&task.address));
                return;
            };
            Some(vm)
        };

        let principal = match Principal::new(task.address.principal()) {
            Ok(p) => p,
            Err(e) => {
                host.record(
                    now,
                    Some(task.address.clone()),
                    EventKind::Rejected(e.to_string()),
                );
                abort_hop(host, task.hop.as_deref());
                return;
            }
        };

        let mut hooks = KernelHooks {
            kernel: self.clone(),
            host: host.clone(),
            agent: task.address.clone(),
            principal,
            depth: 0,
            hop: task.hop.clone(),
            waiting: None,
            settled: None,
        };
        let result = match (task.resume.take(), vm) {
            (Some((suspension, settled)), _) => {
                hooks.settled = Some(settled);
                suspension.resume(&mut task.briefcase, &mut hooks)
            }
            (None, Some(vm)) => {
                // Snapshots: no lock is held while the agent runs.
                let trust = host.with_firewall_read(|fw| fw.trust().clone());
                let natives = host.core.natives.read().clone();
                let ctx = ExecContext {
                    allow_unsigned: host.core.allow_unsigned,
                    ..ExecContext::new(&trust, &natives)
                        .with_arch(host.arch().clone())
                        .with_fuel(host.core.fuel)
                };
                vm.launch(&mut task.briefcase, &mut hooks, &ctx)
            }
            (None, None) => return, // Looked up above: a fresh run has a VM.
        };
        let after = self.now();

        let execution: Result<Execution, String> = match result {
            Ok(Run::Suspended(suspension)) => match hooks.waiting.take() {
                Some((wait, spawned, deadline)) => {
                    let parked = Parked {
                        task,
                        suspension,
                        spawned,
                        deadline,
                    };
                    host.core.waiting.lock().insert(wait, parked);
                    return;
                }
                None => Err("agent suspended with nothing to wait for".to_owned()),
            },
            Ok(Run::Done(execution)) => Ok(execution),
            Err(e) => Err(e.to_string()),
        };
        match execution {
            Ok(execution) => {
                if execution.trace.len() > 1 {
                    host.record(
                        after,
                        Some(task.address.clone()),
                        EventKind::ExecutionTrace(execution.trace.clone()),
                    );
                }
                match execution.outcome {
                    // Departure was recorded by the go() hook; this
                    // instance is terminated. A finished run is never
                    // suspended.
                    Outcome::Moved { .. } | Outcome::Suspended => {}
                    outcome @ (Outcome::Finished | Outcome::Exit(_)) => {
                        host.record(
                            after,
                            Some(task.address.clone()),
                            EventKind::Completed(outcome),
                        );
                    }
                }
            }
            Err(e) => {
                host.record(after, Some(task.address.clone()), EventKind::Faulted(e));
            }
        }
        // Every execution path above is terminal for this instance
        // (Moved, Finished, Exit, Faulted): the hop's effects happened, so
        // a crash-replay must never run it again. A departed agent's next
        // hop already subsumed this key via its journaled parent link;
        // committing again is a harmless no-op.
        commit_hop(host, task.hop.as_deref());
        host.with_firewall(|fw| fw.unregister_agent(&task.address));
        host.drop_agent_state(&task.address);
    }

    /// Ends a task whose run panicked as a fault: a `Faulted` event, its
    /// hop aborted (a replay must not run the panic again), the agent
    /// unregistered and its mailbox and wrappers dropped.
    pub(crate) fn end_panicked(
        &self,
        host: &TaxHost,
        agent: &AgentAddress,
        hop: Option<&str>,
        panic: &(dyn std::any::Any + Send),
    ) {
        let why = (panic.downcast_ref::<&str>().copied())
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string payload");
        host.record(
            self.now(),
            Some(agent.clone()),
            EventKind::Faulted(format!("panicked: {why}")),
        );
        abort_hop(host, hop);
        host.with_firewall(|fw| fw.unregister_agent(agent));
        host.drop_agent_state(agent);
    }

    /// Enforces an admin decision's control action.
    pub fn apply_admin(&self, host: &TaxHost, control: Option<tacoma_firewall::ControlAction>) {
        if let Some(action) = control {
            match action.kind {
                ControlKind::Kill => {
                    // Remove any queued or parked execution and per-agent
                    // state; the registry entry was already dropped by the
                    // firewall. As in `run_task`, a killed agent's inbound
                    // hop must never be replayed.
                    let mut hops = Vec::new();
                    let mut keep = |t: &AgentTask| {
                        let killed = t.address == action.agent;
                        if killed {
                            hops.push(t.hop.clone());
                        }
                        !killed
                    };
                    host.core.tasks.lock().retain(&mut keep);
                    host.core.parked.lock().retain(&mut keep);
                    // A run parked in `await_bc` goes the same way, and so
                    // does one suspended on an in-flight transfer — but its
                    // inbound hop is already closed: the transfer's begin
                    // named it as parent. The frame's verdict settles the
                    // outbound hop.
                    host.core.waiting.lock().retain(|wait, p| match wait {
                        Wait::Mail(_) => keep(&p.task),
                        Wait::Transfer(_) => p.task.address != action.agent,
                    });
                    for hop in &hops {
                        abort_hop(host, hop.as_deref());
                    }
                    host.drop_agent_state(&action.agent);
                    host.record(
                        self.now(),
                        Some(action.agent),
                        EventKind::Rejected("killed by admin".into()),
                    );
                }
                ControlKind::Stop => {
                    // Status lives in the firewall registry; the scheduler
                    // parks queued tasks for stopped agents.
                }
                ControlKind::Resume => {
                    // Re-queue any executions parked while stopped.
                    let mut parked = host.core.parked.lock();
                    let mut tasks = host.core.tasks.lock();
                    let mut keep = Vec::new();
                    for task in parked.drain(..) {
                        if task.address == action.agent {
                            tasks.push_back(task);
                        } else {
                            keep.push(task);
                        }
                    }
                    *parked = keep;
                }
            }
        }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernel({} hosts)", self.directory.read().len())
    }
}

/// The host-side implementation of [`HostHooks`] handed to every running
/// agent: the TAX library of §3.1.
pub struct KernelHooks {
    pub(crate) kernel: Kernel,
    pub(crate) host: TaxHost,
    pub(crate) agent: AgentAddress,
    pub(crate) principal: Principal,
    pub(crate) depth: u32,
    /// The journal key of the hop that delivered this agent here, if any;
    /// chained as the parent of the keys minted for its outgoing
    /// transfers, so a journaled begin for the next hop proves this one
    /// progressed past its send.
    pub(crate) hop: Option<String>,
    /// What a `poll_*` that answered pending left the run waiting for,
    /// with the instance a pending `spawn` pre-allocated and an
    /// `await_bc`'s deadline.
    pub(crate) waiting: Option<(Wait, Option<String>, Option<SimTime>)>,
    /// The answer a resumed run's pending call is given.
    pub(crate) settled: Option<Settled>,
}

impl KernelHooks {
    fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Runs the agent's wrapper chain for an outbound/move event. Returns
    /// `(possibly rewritten target, absorbed?)`.
    fn run_wrappers(
        &mut self,
        kind: WrapKind,
        to: &str,
        briefcase: &mut Briefcase,
    ) -> (String, bool) {
        let mut target = to.to_owned();
        let now = self.now();
        let effects = {
            let mut wrappers = self.host.core.wrappers.lock();
            match wrappers.get_mut(&self.agent) {
                Some(stack) => match kind {
                    WrapKind::Send => stack.apply_outbound(
                        &mut target,
                        briefcase,
                        &self.agent,
                        self.host.name(),
                        now,
                    ),
                    WrapKind::Move => {
                        stack.apply_move(&mut target, briefcase, &self.agent, self.host.name(), now)
                    }
                },
                None => Default::default(),
            }
        };
        for note in &effects.notes {
            self.host.record(
                now,
                Some(self.agent.clone()),
                EventKind::Wrapper {
                    wrapper: "outbound".into(),
                    note: note.clone(),
                },
            );
        }
        let absorbed = effects.absorbed;
        self.kernel
            .send_emissions(&self.host, &self.agent, effects.emit);
        (target, absorbed)
    }

    /// The shared transfer path behind `go` and `spawn`. Returns the ship
    /// token when a `suspendable` transfer is left in flight, `None` when
    /// it settled at once (the agent moved or landed locally).
    fn transfer(
        &mut self,
        uri: &str,
        briefcase: &Briefcase,
        spawned: bool,
        suspendable: bool,
    ) -> Result<Option<u64>, TaxError> {
        let mut travelling = briefcase.clone();
        let (target_text, absorbed) = self.run_wrappers(WrapKind::Move, uri, &mut travelling);
        if absorbed {
            return Err(TaxError::BadAgentSpec {
                detail: "move vetoed by wrapper".into(),
            });
        }
        let target: AgentUri = target_text.parse()?;
        let mut message = Message::transfer(
            self.host.name(),
            self.principal.clone(),
            target,
            travelling,
            spawned,
        );
        if let Some(&boot) = self.host.core.boot_nonce.get() {
            let key = hop_key(&message, self.hop.as_deref(), &self.agent, boot);
            message = message.with_hop(key, self.hop.clone());
        }
        let now = self.now();
        let transport = Arc::clone(&self.kernel.transport);
        let decision = self.host.with_firewall(|fw| {
            if suspendable {
                fw.dispatch_transfer(message, now, &*transport)
            } else {
                fw.dispatch_outbound(message, now, &*transport)
            }
        })?;
        match decision {
            Decision::Forwarded { .. } => Ok(None),
            Decision::InFlight { token } => Ok(Some(token)),
            Decision::InstallAgent {
                vm,
                address,
                briefcase,
                hop,
                ..
            } => self
                .kernel
                .install(&self.host, vm, address, briefcase, hop)
                .map(|()| None),
            other => Err(TaxError::BadAgentSpec {
                detail: format!("unexpected transfer decision {other:?}"),
            }),
        }
    }

    /// Reports a `go`'s settled verdict as an event and to the script.
    fn finish_go(&mut self, uri: &str, result: Result<(), TaxError>) -> GoDecision {
        let (kind, decision) = match result {
            Ok(()) => (
                EventKind::Departed { to: uri.to_owned() },
                GoDecision::Moved,
            ),
            Err(e) => (EventKind::Rejected(e.to_string()), GoDecision::Unreachable),
        };
        self.host.record(self.now(), Some(self.agent.clone()), kind);
        decision
    }

    /// Reports a `spawn`'s settled verdict: the child's instance, or a
    /// rejection event and none.
    fn finish_spawn(&mut self, instance: String, result: Result<(), TaxError>) -> Option<String> {
        match result {
            Ok(()) => Some(instance),
            Err(e) => {
                self.host.record(
                    self.now(),
                    Some(self.agent.clone()),
                    EventKind::Rejected(e.to_string()),
                );
                None
            }
        }
    }

    /// Pre-allocates a `spawn`'s child instance so it can be reported
    /// back (§3.1: "which is then reported back to the calling agent"),
    /// and stamps it into the child's briefcase.
    fn spawn_child(&mut self, briefcase: &Briefcase) -> (String, Briefcase) {
        let instance = self
            .host
            .with_firewall(tacoma_firewall::Firewall::allocate_instance);
        let mut child = briefcase.clone();
        child.set_single("SYS:INSTANCE", instance.as_str());
        (instance.as_str().to_owned(), child)
    }
}

#[derive(Clone, Copy)]
enum WrapKind {
    Send,
    Move,
}

/// Dedup key for a migration. Stable across a crash-redo of the sending
/// task (VM execution is deterministic, so a replayed run rebuilds the
/// identical message) yet distinct across genuinely different sends: the
/// parent key chains every hop to its predecessor, so even a `go` back to
/// a previously visited host under the same briefcase hashes differently.
/// A root hop has no parent; it mixes in the launch identity instead —
/// the host's boot nonce and the agent's `name:instance` (Figure 2's
/// URI) — so two independent launches of a byte-identical agent get
/// distinct keys, in one boot or across reboots.
fn hop_key(message: &Message, parent: Option<&str>, agent: &AgentAddress, boot: u64) -> String {
    let mut hasher = tacoma_security::Hasher::new();
    let launch;
    let origin = match parent {
        Some(parent) => parent,
        None => {
            launch = format!(
                "launch:{boot:016x}:{}:{}",
                agent.name(),
                agent.instance().as_str()
            );
            &launch
        }
    };
    let to = message.to.to_string();
    for field in [origin, &message.from_host, &to] {
        hasher.update(&(field.len() as u64).to_le_bytes());
        hasher.update(field.as_bytes());
    }
    let payload = message.briefcase.wire_bytes();
    hasher.update(&(payload.len() as u64).to_le_bytes());
    hasher.update(&payload);
    hasher.finalize().short()
}

/// Journals a hop-committed record for a task's terminal outcome. The
/// record is batched; losing it only risks a deduped replay, never a
/// duplicate execution, so failures are swallowed.
fn commit_hop(host: &TaxHost, hop: Option<&str>) {
    if let (Some(journal), Some(key)) = (host.journal(), hop) {
        let _ = journal.hop_committed(key);
    }
}

/// Journals a hop-aborted record when a delivered agent is deliberately
/// not run (killed, unrunnable); replaying such a hop would resurrect an
/// agent the host already decided against.
fn abort_hop(host: &TaxHost, hop: Option<&str>) {
    if let (Some(journal), Some(key)) = (host.journal(), hop) {
        let _ = journal.hop_aborted(key);
    }
}

impl HostHooks for KernelHooks {
    fn display(&mut self, text: &str) {
        self.host.record(
            self.now(),
            Some(self.agent.clone()),
            EventKind::Display(text.to_owned()),
        );
    }

    fn go(&mut self, uri: &str, briefcase: &Briefcase) -> GoDecision {
        let result = self.transfer(uri, briefcase, false, false).map(drop);
        self.finish_go(uri, result)
    }

    fn spawn(&mut self, uri: &str, briefcase: &Briefcase) -> Option<String> {
        let (instance, child) = self.spawn_child(briefcase);
        let result = self.transfer(uri, &child, true, false).map(drop);
        self.finish_spawn(instance, result)
    }

    fn poll_go(&mut self, uri: &str, briefcase: &Briefcase) -> Poll<GoDecision> {
        if let Some(Settled::Transfer(verdict, _)) = self.settled.take() {
            return Poll::Ready(self.finish_go(uri, verdict.map_err(TaxError::from)));
        }
        match self.transfer(uri, briefcase, false, true) {
            Ok(Some(token)) => {
                self.waiting = Some((Wait::Transfer(token), None, None));
                Poll::Pending
            }
            Ok(None) => Poll::Ready(self.finish_go(uri, Ok(()))),
            Err(e) => Poll::Ready(self.finish_go(uri, Err(e))),
        }
    }

    fn poll_spawn(&mut self, uri: &str, briefcase: &Briefcase) -> Poll<Option<String>> {
        if let Some(Settled::Transfer(verdict, spawned)) = self.settled.take() {
            let instance = spawned.unwrap_or_default();
            return Poll::Ready(self.finish_spawn(instance, verdict.map_err(TaxError::from)));
        }
        let (instance, child) = self.spawn_child(briefcase);
        match self.transfer(uri, &child, true, true) {
            Ok(Some(token)) => {
                self.waiting = Some((Wait::Transfer(token), Some(instance), None));
                Poll::Pending
            }
            Ok(None) => Poll::Ready(self.finish_spawn(instance, Ok(()))),
            Err(e) => Poll::Ready(self.finish_spawn(instance, Err(e))),
        }
    }

    fn activate(&mut self, uri: &str, briefcase: &Briefcase) -> bool {
        let mut outgoing = briefcase.clone();
        let (target, absorbed) = self.run_wrappers(WrapKind::Send, uri, &mut outgoing);
        if absorbed {
            return true; // The wrapper handled it.
        }
        match self.kernel.send_plain(
            &self.host,
            self.principal.clone(),
            Some(self.agent.clone()),
            &target,
            outgoing,
            self.depth,
        ) {
            Ok(()) => true,
            Err(e) => {
                self.host.record(
                    self.now(),
                    Some(self.agent.clone()),
                    EventKind::Rejected(e.to_string()),
                );
                false
            }
        }
    }

    fn meet(&mut self, uri: &str, briefcase: &Briefcase) -> Option<Briefcase> {
        let mut request = briefcase.clone();
        let (target_text, absorbed) = self.run_wrappers(WrapKind::Send, uri, &mut request);
        if absorbed {
            return None;
        }
        let target: AgentUri = match target_text.parse() {
            Ok(t) => t,
            Err(_) => return None,
        };
        let message = Message::deliver(
            self.host.name(),
            self.principal.clone(),
            Some(self.agent.clone()),
            target,
            request,
        );
        let request_len = message.encoded_len() as u64;
        let decision = match self
            .host
            .with_firewall(|fw| fw.route_outbound(message, self.now()))
        {
            Ok(d) => d,
            Err(e) => {
                self.host.record(
                    self.now(),
                    Some(self.agent.clone()),
                    EventKind::Rejected(e.to_string()),
                );
                return None;
            }
        };

        match decision {
            // Local service: loopback-cost RPC.
            Decision::DeliverLocal { vm, agent, message } if vm == "service" => {
                let self_id = self.host.host_id().clone();
                let net = &self.kernel.net;
                let _ = charge_transfer(net, &self_id, &self_id, request_len);
                let reply = self
                    .kernel
                    .call_service_on(&self.host, &agent, message, self.depth)
                    .ok()?;
                let _ = charge_transfer(net, &self_id, &self_id, reply.encoded_len() as u64);
                Some(reply)
            }
            // Remote target: ship the request; if it lands on a service,
            // RPC synchronously and ship the reply back.
            Decision::ForwardRemote {
                host: remote,
                port,
                message,
            } => {
                let Some(remote_host) = self.kernel.host(&remote) else {
                    // The host lives in another process: ship the request
                    // over the transport (parking on failure) and degrade
                    // to a delivery — the reply, if any, arrives via the
                    // caller's mailbox.
                    let now = self.now();
                    let transport = Arc::clone(&self.kernel.transport);
                    if let Err(e) = self
                        .host
                        .with_firewall(|fw| fw.ship(message, &remote, port, now, &*transport))
                    {
                        self.host.record(
                            now,
                            Some(self.agent.clone()),
                            EventKind::Rejected(e.to_string()),
                        );
                    }
                    return None;
                };
                let remote_id = HostId::new(&remote).ok()?;
                let net = &self.kernel.net;
                charge_transfer(net, self.host.host_id(), &remote_id, request_len).ok()?;
                let inbound =
                    remote_host.with_firewall(|fw| fw.route_inbound(message, self.kernel.now()));
                match inbound {
                    Ok(Decision::DeliverLocal { vm, agent, message }) if vm == "service" => {
                        let reply = self
                            .kernel
                            .call_service_on(&remote_host, &agent, message, self.depth)
                            .ok()?;
                        let reply_len = reply.encoded_len() as u64;
                        charge_transfer(net, &remote_id, self.host.host_id(), reply_len).ok()?;
                        Some(reply)
                    }
                    Ok(other) => {
                        // Not a service: degrade to a delivery.
                        let _ =
                            self.kernel
                                .execute_deliver_decision(&remote_host, other, self.depth);
                        None
                    }
                    Err(e) => {
                        self.host.record(
                            self.now(),
                            Some(self.agent.clone()),
                            EventKind::Rejected(e.to_string()),
                        );
                        None
                    }
                }
            }
            // A local mobile agent: deliver, no synchronous reply.
            Decision::DeliverLocal { agent, message, .. } => {
                self.kernel
                    .deliver_mail(&self.host, &agent, message.briefcase);
                None
            }
            Decision::Admin { reply, control } => {
                self.kernel.apply_admin(&self.host, control);
                Some(reply)
            }
            Decision::Queued => None,
            // route_outbound never produces these (only dispatch does).
            Decision::Forwarded { .. }
            | Decision::InFlight { .. }
            | Decision::InstallAgent { .. } => None,
        }
    }

    /// The wait of runs that cannot suspend (native programs, the legacy
    /// tier): only mail already here, or delivered here within the wait.
    fn await_bc(&mut self, timeout_ms: i64) -> Option<Briefcase> {
        if let Some(mail) = self.host.pop_mail(&self.agent) {
            return Some(mail);
        }
        // Model the blocking wait: virtual time passes, then one last
        // delivery check.
        if timeout_ms > 0 {
            self.kernel
                .advance(Duration::from_millis(timeout_ms as u64));
        }
        self.host.pop_mail(&self.agent)
    }

    fn poll_await(&mut self, timeout_ms: i64) -> Poll<Option<Briefcase>> {
        if let Some(Settled::Mail(mail)) = self.settled.take() {
            return Poll::Ready(mail);
        }
        if let Some(mail) = self.host.pop_mail(&self.agent) {
            return Poll::Ready(Some(mail));
        }
        // Parked: `deliver_mail` or the deadline wakes the run.
        let deadline = self.now() + Duration::from_millis(u64::try_from(timeout_ms).unwrap_or(0));
        self.waiting = Some((Wait::Mail(self.agent.clone()), None, Some(deadline)));
        Poll::Pending
    }

    fn now_ms(&mut self) -> i64 {
        (self.now().as_nanos() / 1_000_000) as i64
    }

    fn host_name(&mut self) -> String {
        self.host.name().to_owned()
    }

    fn work_ns(&mut self, nanos: u64) {
        self.kernel.advance(Duration::from_nanos(nanos));
    }
}

impl std::fmt::Debug for KernelHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KernelHooks({} on {})", self.agent, self.host.name())
    }
}

//! [`TaxSystem`]: a whole simulated deployment, with a deterministic
//! scheduler.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use tacoma_briefcase::{folders, Briefcase};
use tacoma_firewall::Message;
use tacoma_security::{Keyring, Principal};
use tacoma_simnet::{LinkSpec, MessageBus, Network, SimClock, SimTime, Topology};
use tacoma_transport::Doorbell;
use tacoma_uri::AgentAddress;

use crate::agent::AgentSpec;
use crate::event::{EventKind, HostEvent};
use crate::hooks::Kernel;
use crate::host::{AgentTask, HostBuilder, Settled, TaxHost, Wait};
use crate::sched::{batch_seed, RunOutcome, SimTransport, TaskScope};
use crate::TaxError;

/// Hard cap on scheduler steps per [`TaxSystem::run_until_quiet`] call —
/// a backstop against agent ping-pong loops.
const MAX_STEPS: usize = 1_000_000;

/// A callback run at the top of every scheduler step, before messages are
/// pumped, with the shared network and the current global virtual time.
///
/// This is the attachment point for scenario event tracks: a hook applies
/// every due topology mutation (churn, partitions, link degradation)
/// between ticks, so within a tick all hosts see one consistent topology
/// and the same seed replays the same trace.
pub type StepHook = Box<dyn FnMut(&Network, SimTime) + Send>;

/// Builds a [`TaxSystem`].
pub struct SystemBuilder {
    hosts: Vec<HostBuilder>,
    default_link: LinkSpec,
    links: Vec<(String, String, LinkSpec)>,
    seed: u64,
    trust_all: bool,
    transport: Option<Arc<dyn tacoma_transport::Transport>>,
}

impl std::fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("hosts", &self.hosts)
            .field("seed", &self.seed)
            .field("trust_all", &self.trust_all)
            .field("transport", &self.transport.as_ref().map(|t| t.kind()))
            .finish_non_exhaustive()
    }
}

impl SystemBuilder {
    /// An empty deployment with the paper's 100 Mbit LAN as the default
    /// link.
    pub fn new() -> Self {
        SystemBuilder {
            hosts: Vec::new(),
            default_link: LinkSpec::lan_100mbit(),
            links: Vec::new(),
            seed: 1,
            trust_all: false,
            transport: None,
        }
    }

    /// Adds a host with default configuration.
    ///
    /// # Errors
    ///
    /// [`TaxError::Net`] on an invalid host name.
    pub fn host(mut self, name: &str) -> Result<Self, TaxError> {
        self.hosts.push(HostBuilder::new(name)?);
        Ok(self)
    }

    /// Adds a fully configured host.
    pub fn host_with(mut self, builder: HostBuilder) -> Self {
        self.hosts.push(builder);
        self
    }

    /// Sets the link used by host pairs without an explicit one.
    pub fn default_link(mut self, link: LinkSpec) -> Self {
        self.default_link = link;
        self
    }

    /// Sets a specific link between two hosts.
    pub fn link(mut self, a: &str, b: &str, link: LinkSpec) -> Self {
        self.links.push((a.to_owned(), b.to_owned(), link));
        self
    }

    /// Seeds the network's loss randomness (and the system keyrings).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates a system keyring per host and cross-installs all
    /// verification keys: every host trusts every other host's system
    /// principal (one administrative domain, the paper's deployment).
    pub fn trust_all(mut self) -> Self {
        self.trust_all = true;
        self
    }

    /// Overrides the outbound transport. Defaults to the in-process
    /// simnet bus; `taxd` installs a [`ReactorTransport`] here so the same
    /// kernel ships messages over real sockets.
    ///
    /// [`ReactorTransport`]: tacoma_transport::ReactorTransport
    pub fn transport(mut self, transport: Arc<dyn tacoma_transport::Transport>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Builds the system.
    pub fn build(self) -> TaxSystem {
        let mut topology = Topology::new(self.default_link);
        for hb in &self.hosts {
            topology.add_host(hb.name().clone());
        }
        for (a, b, link) in &self.links {
            if let (Ok(a), Ok(b)) = (
                tacoma_simnet::HostId::new(a.clone()),
                tacoma_simnet::HostId::new(b.clone()),
            ) {
                topology.set_link(&a, &b, *link);
            }
        }
        let net = Arc::new(Network::new(topology, self.seed));
        let bus = MessageBus::new();

        let mut hosts = BTreeMap::new();
        let mut keyrings = BTreeMap::new();

        let built: Vec<TaxHost> = self.hosts.into_iter().map(HostBuilder::build).collect();

        if self.trust_all {
            for (i, host) in built.iter().enumerate() {
                let system = Principal::local_system(host.name());
                let keyring = Keyring::generate(&system, self.seed.wrapping_add(i as u64));
                keyrings.insert(host.name().to_owned(), keyring);
            }
            for host in &built {
                host.with_firewall(|fw| {
                    for keyring in keyrings.values() {
                        fw.trust_mut().trust(keyring.public());
                    }
                });
            }
        }

        for host in built {
            let inbox = bus.register(host.host_id().clone());
            host.set_inbox(inbox);
            hosts.insert(host.name().to_owned(), host);
        }

        let directory = Arc::new(RwLock::new(hosts));
        let transport = self
            .transport
            .unwrap_or_else(|| Arc::new(SimTransport::new(bus, Arc::clone(&net))));
        TaxSystem {
            kernel: Kernel {
                directory,
                net,
                transport,
            },
            keyrings,
            seed: self.seed,
            tick: 0,
            step_hooks: Vec::new(),
        }
    }
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder::new()
    }
}

/// What a boot-time journal recovery restored (see
/// [`TaxSystem::recover_journal`] and `docs/journal.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Intact journal records scanned.
    pub records_scanned: u64,
    /// Whether a torn segment tail was truncated away.
    pub torn_tail: bool,
    /// Parked messages restored into the pending queue.
    pub reparked: usize,
    /// Inbound open hops whose agent was re-installed.
    pub resumed_inbound: usize,
    /// Outbound open hops whose frame was handed to the transport again
    /// (an ack commits the hop later; a loss leaves it open).
    pub resumed_outbound: usize,
    /// Entries that could not be restored this boot (undecodable park,
    /// a re-ship a blocking transport failed, failed checkpoint); they
    /// remain in the journal for the next attempt.
    pub failed: usize,
}

/// A running deployment: hosts, network, and the deterministic scheduler.
pub struct TaxSystem {
    kernel: Kernel,
    keyrings: BTreeMap<String, Keyring>,
    seed: u64,
    tick: u64,
    step_hooks: Vec<StepHook>,
}

impl TaxSystem {
    /// The host with the given name.
    pub fn host(&self, name: &str) -> Option<TaxHost> {
        self.kernel.host(name)
    }

    /// All host names, sorted.
    pub fn host_names(&self) -> Vec<String> {
        self.kernel.directory.read().keys().cloned().collect()
    }

    /// The simulated network (stats, fault injection, clock).
    pub fn network(&self) -> Arc<Network> {
        Arc::clone(&self.kernel.net)
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> SimClock {
        self.kernel.net.clock().clone()
    }

    /// The system keyring generated for a host by
    /// [`SystemBuilder::trust_all`], if any.
    pub fn keyring(&self, host: &str) -> Option<&Keyring> {
        self.keyrings.get(host)
    }

    /// The transport outbound messages ship over.
    pub fn transport(&self) -> Arc<dyn tacoma_transport::Transport> {
        Arc::clone(&self.kernel.transport)
    }

    /// Routes a wire-encoded message that arrived from outside the
    /// process (a frame a [`TransportListener`] accepted over TCP) into
    /// `host_name`'s firewall, exactly as a simnet envelope would be. The
    /// payload is a shared buffer routed zero-copy: the firewall decodes
    /// briefcase contents straight out of it.
    ///
    /// # Errors
    ///
    /// [`TaxError::UnknownHost`] when the host is not in this process.
    ///
    /// [`TransportListener`]: tacoma_transport::TransportListener
    pub fn inject_wire_bytes(
        &mut self,
        host_name: &str,
        payload: &bytes::Bytes,
    ) -> Result<(), TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        self.kernel.process_wire_bytes(&host, payload);
        Ok(())
    }

    /// Copies `payload` into a shared buffer and routes it with
    /// [`TaxSystem::inject_wire_bytes`]. It exists only for hopbench
    /// (`benchmark/`), which injects frames it holds as `Vec<u8>`.
    ///
    /// # Errors
    ///
    /// As [`TaxSystem::inject_wire_bytes`].
    pub fn inject_wire(&mut self, host_name: &str, payload: &[u8]) -> Result<(), TaxError> {
        self.inject_wire_bytes(host_name, &bytes::Bytes::copy_from_slice(payload))
    }

    /// Hands the messages parked in `host_name`'s pending queue for
    /// remote hosts back to the transport without waiting for the peers
    /// ([`TaxSystem::pump_transport`] settles them). Returns how many.
    ///
    /// # Errors
    ///
    /// [`TaxError::UnknownHost`] when the host is not in this process.
    pub fn redeliver_remote_pending(&mut self, host_name: &str) -> Result<usize, TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        let now = self.kernel.now();
        let transport = Arc::clone(&self.kernel.transport);
        Ok(host.with_firewall(|fw| fw.redeliver_remote_pending(now, &*transport)))
    }

    /// Settles completions from a nonblocking transport into `host_name`'s
    /// firewall: acked ships are counted and their hops committed, failed
    /// mail is parked for the redelivery sweep, and every agent suspended
    /// on a settled transfer is queued to resume with its verdict (the
    /// next [`TaxSystem::run_until_quiet`] runs it). Returns the number of
    /// completions settled. A no-op (returns 0) on blocking transports.
    ///
    /// # Errors
    ///
    /// [`TaxError::UnknownHost`] when the host is not in this process.
    pub fn pump_transport(&mut self, host_name: &str) -> Result<usize, TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        let now = self.kernel.now();
        let transport = Arc::clone(&self.kernel.transport);
        let settled = host.with_firewall(|fw| fw.pump_transport(now, &*transport));
        self.kernel.resume_settled(&host);
        Ok(settled)
    }

    /// Frames `host_name` handed to a nonblocking transport whose
    /// completion has not been pumped yet, not counting the redelivery
    /// sweep's. Daemons drain this to zero (or a deadline) before exiting
    /// so in-flight sends are settled.
    ///
    /// # Errors
    ///
    /// [`TaxError::UnknownHost`] when the host is not in this process.
    pub fn transport_inflight(&self, host_name: &str) -> Result<usize, TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        Ok(host.with_firewall_read(tacoma_firewall::Firewall::transport_inflight))
    }

    /// Launches an agent on a host; returns its address.
    ///
    /// # Errors
    ///
    /// [`TaxError::UnknownHost`] or spec/install failures.
    #[allow(clippy::needless_pass_by_value)] // a spec describes exactly one launch; taking it keeps call sites builder-shaped
    pub fn launch(&mut self, host_name: &str, spec: AgentSpec) -> Result<AgentAddress, TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        let local_system = host.with_firewall_read(|fw| fw.local_system().clone());
        let principal = spec.resolve_principal(&local_system);
        let briefcase = spec.build_briefcase(&principal)?;
        let instance = host.with_firewall(tacoma_firewall::Firewall::allocate_instance);
        let address = AgentAddress::new(principal.as_str(), spec.name(), instance);
        self.kernel
            .install(&host, spec.target_vm(), address.clone(), briefcase, None)?;
        Ok(address)
    }

    /// Attaches a durable journal to `host_name` and replays its
    /// recovered state: parked mail re-enters the pending queue with
    /// deadlines recomputed against the current clock, inbound open hops
    /// re-install their agent, and outbound open hops hand their frame
    /// to the transport again without waiting for it. Finishes with a
    /// checkpoint so the next boot replays only what this one could not
    /// finish.
    ///
    /// Call once at daemon boot, after services are installed and before
    /// the scheduler starts.
    ///
    /// # Errors
    ///
    /// [`TaxError::UnknownHost`] when the host is not in this process.
    /// Individual hop/park failures are counted in the summary, not
    /// returned: an unreachable peer must not stop the boot.
    pub fn recover_journal(
        &mut self,
        host_name: &str,
        journal: &Arc<tacoma_journal::Journal>,
        replay: &tacoma_journal::Replay,
    ) -> Result<RecoverySummary, TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        host.attach_journal(Arc::clone(journal));
        let now = self.kernel.now();
        let mut summary = RecoverySummary {
            records_scanned: replay.records_scanned,
            torn_tail: replay.torn_tail,
            ..RecoverySummary::default()
        };

        host.with_firewall(|fw| {
            fw.stats_mut().journal_replayed = replay.records_scanned;
            for parked in &replay.parked {
                match Message::decode_bytes(&parked.wire) {
                    Ok(message) => {
                        fw.replay_park(
                            message,
                            now,
                            Duration::from_nanos(parked.timeout_nanos),
                            parked.key,
                        );
                        summary.reparked += 1;
                    }
                    Err(_) => summary.failed += 1,
                }
            }
        });

        let transport = Arc::clone(&self.kernel.transport);
        for hop in &replay.open_hops {
            if hop.inbound {
                // The agent arrived and was acked but never finished its
                // work here: decode and route the preserved frame as if it
                // had just landed. `process_wire_bytes` records any
                // rejection as a host event rather than failing the boot.
                self.kernel.process_wire_bytes(&host, &hop.wire);
                summary.resumed_inbound += 1;
            } else {
                match host.with_firewall(|fw| fw.replay_ship_hop(hop, now, &*transport)) {
                    // Handed over: the frame settles in a later pump.
                    Ok(()) => summary.resumed_outbound += 1,
                    // The hop stays open in the journal; the next boot
                    // retries. Nothing is lost.
                    Err(_) => summary.failed += 1,
                }
            }
        }

        if journal.checkpoint().is_err() {
            // Replay next boot is merely longer, not incorrect.
            summary.failed += 1;
        }
        Ok(summary)
    }

    /// Sends an admin command (`list`, `runtime`, `stop`, `resume`,
    /// `kill`) to a host's firewall on behalf of `principal`, returning
    /// the reply.
    ///
    /// # Errors
    ///
    /// Firewall denials and admin errors.
    pub fn admin(
        &mut self,
        host_name: &str,
        principal: &Principal,
        command: &str,
        args: &[&str],
    ) -> Result<Briefcase, TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        let mut request = Briefcase::new();
        request.set_single(folders::COMMAND, command);
        for a in args {
            request.append(folders::ARGS, *a);
        }
        let message = Message::deliver(
            host.name(),
            principal.clone(),
            None,
            tacoma_firewall::FIREWALL_AGENT_NAME.parse()?,
            request,
        );
        let now = self.kernel.now();
        let decision = host.with_firewall(|fw| fw.route_outbound(message, now))?;
        match decision {
            tacoma_firewall::Decision::Admin { reply, control } => {
                self.kernel.apply_admin(&host, control);
                Ok(reply)
            }
            other => Err(TaxError::BadAgentSpec {
                detail: format!("admin produced unexpected decision {other:?}"),
            }),
        }
    }

    /// Calls a service agent on a host directly (tooling path — e.g. an
    /// operator fetching a parked report from `ag_cabinet`). The call is
    /// authorized as `principal` with its authenticated rights.
    ///
    /// # Errors
    ///
    /// [`TaxError::UnknownHost`] / [`TaxError::BadAgentSpec`] when the
    /// host or service does not exist.
    pub fn call_service(
        &mut self,
        host_name: &str,
        service_name: &str,
        principal: &Principal,
        mut request: Briefcase,
    ) -> Result<Briefcase, TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        let service = host
            .service(service_name)
            .ok_or_else(|| TaxError::BadAgentSpec {
                detail: format!("no service {service_name:?} on {host_name}"),
            })?;
        let rights = host.with_firewall_read(|fw| fw.rights_of(principal, true));
        Ok(self.kernel.run_service(
            &host,
            service.as_ref(),
            &mut request,
            principal.clone(),
            rights,
            0,
        ))
    }

    /// Registers a [`StepHook`] run at the top of every subsequent step.
    ///
    /// Hooks fire before the message pump, in registration order —
    /// mutations they make depend only on the global clock sequence, so
    /// the same seed still replays the same trace.
    pub fn add_step_hook(&mut self, hook: StepHook) {
        self.step_hooks.push(hook);
    }

    fn run_step_hooks(&mut self) {
        if self.step_hooks.is_empty() {
            return;
        }
        let now = self.kernel.net.clock().now();
        for hook in &mut self.step_hooks {
            hook(&self.kernel.net, now);
        }
    }

    /// Performs one unit of scheduler work — one bulk-synchronous tick —
    /// and returns whether anything happened: pump every inbox, execute
    /// *every* ready host's task batch in host order, each on its own
    /// clock forked from the tick's start, then advance the global clock
    /// to the tick's makespan.
    pub fn step(&mut self) -> bool {
        self.run_step_hooks();
        let hosts: Vec<TaxHost> = self.kernel.directory.read().values().cloned().collect();

        // Phase 1: message delivery, every host, deterministic order, on
        // the global clock.
        let mut worked = false;
        for host in &hosts {
            if self.kernel.pump_inbox(host) > 0 {
                worked = true;
            }
        }

        // Phase 2: snapshot one task batch per host before any runs (a
        // task a batch queues elsewhere waits for the next tick), then run
        // the batches in host order. The host is the unit of overlap: its
        // tasks run FIFO on a clock forked from `now`, with an RNG seeded
        // from (seed, host, tick).
        let now = self.kernel.net.clock().now();
        let tick = self.tick;
        self.tick += 1;
        let batches: Vec<(u64, &TaxHost, Vec<AgentTask>)> = (0u64..)
            .zip(&hosts)
            .map(|(idx, host)| (idx, host, host.drain_tasks()))
            .filter(|(_, _, tasks)| !tasks.is_empty())
            .collect();
        let mut makespan = None;
        for (idx, host, tasks) in batches {
            let scope = TaskScope::new(now, batch_seed(self.seed, idx, tick));
            run_batch(&self.kernel, host, tasks, &scope);
            makespan = makespan.max(Some(scope.clock.now()));
        }

        // Phase 3 (barrier): the hosts' batches overlap in virtual time,
        // so the tick costs its slowest batch, not the sum of them.
        match makespan {
            Some(makespan) => {
                self.kernel.net.clock().advance_to(makespan);
                true
            }
            None => worked,
        }
    }

    /// Runs the scheduler until no work remains (or a million steps, as a
    /// livelock backstop). On exhaustion a warning event is recorded —
    /// check [`RunOutcome::quiesced`] rather than assuming silence means
    /// completion.
    ///
    /// Agents whose `go`/`spawn` rides a nonblocking transport suspend
    /// instead of waiting, so "quiet" means no task can run now; those
    /// agents resume after [`TaxSystem::pump_transport`] brings their
    /// verdicts. When the scheduler goes quiet it releases every transfer
    /// frame the turn held back, after one journal fsync covers all their
    /// hop begins (the write-ahead barrier). With nothing else to do, it
    /// resumes the agent parked in `await_bc` with the earliest deadline.
    pub fn run_until_quiet(&mut self) -> RunOutcome {
        self.run_for(MAX_STEPS)
    }

    /// Runs the scheduler until quiet or until `budget` steps have
    /// executed, whichever comes first.
    pub fn run_for(&mut self, budget: usize) -> RunOutcome {
        let mut steps = 0;
        while steps < budget {
            if self.step() {
                steps += 1;
            } else if self.release_held() == 0 && !self.expire_first_await() {
                return RunOutcome::Quiesced { steps };
            }
        }
        self.release_held();
        if self.is_quiet() {
            return RunOutcome::Quiesced { steps };
        }
        // Make the truncation visible in the event log: callers that
        // ignore the outcome still see the warning in traces.
        if let Some(host) = self.host_names().first().and_then(|name| self.host(name)) {
            host.record(
                self.kernel.now(),
                None,
                EventKind::Scheduler(format!(
                    "step budget exhausted after {steps} steps; system is not quiet"
                )),
            );
        }
        RunOutcome::StepBudgetExhausted { steps }
    }

    /// The write-ahead barrier on every host: one fsync per journal makes
    /// the turn's hop begins durable, then the held transfer frames go to
    /// the transport. A frame the transport refused on the nowait path (a
    /// full peer queue, or no such path) settled on the blocking send;
    /// its sender is queued to resume. Returns how many tasks that
    /// queued.
    fn release_held(&mut self) -> usize {
        let transport = Arc::clone(&self.kernel.transport);
        let hosts: Vec<TaxHost> = self.kernel.directory.read().values().cloned().collect();
        let now = self.kernel.now();
        let mut resumed = 0;
        for host in &hosts {
            if host.with_firewall(|fw| fw.release_held(now, &*transport)) > 0 {
                resumed += self.kernel.resume_settled(host);
            }
        }
        resumed
    }

    /// Moves the global clock up to the earliest `await_bc` deadline and
    /// resumes that awaiter with no mail; ties go by host order, then
    /// agent address. Returns whether an awaiter was parked.
    fn expire_first_await(&mut self) -> bool {
        // `min_by_key` keeps the first of equal deadlines: host order.
        let first = (self.kernel.directory.read().values())
            .filter_map(|host| Some((host.first_deadline()?, host.clone())))
            .min_by_key(|((deadline, _), _)| *deadline);
        let Some(((deadline, agent), host)) = first else {
            return false;
        };
        self.kernel.net.clock().advance_to(deadline);
        if let Some(parked) = host.unpark(&Wait::Mail(agent)) {
            host.wake(parked, Settled::Mail(None));
        }
        true
    }

    /// Settles the sends this system has in flight, waiting at most until
    /// `deadline`: the held transfer frames are released first (the
    /// write-ahead barrier), then every host's completions are pumped
    /// until none is in flight. The agents the verdicts resume are
    /// queued, not run. Between pumps that settle nothing it waits on
    /// `doorbell` when given (one the transport rings on every
    /// completion), and otherwise parks for 200 µs. Returns how many sends
    /// are still in flight.
    pub fn settle(&mut self, deadline: Instant, doorbell: Option<&Doorbell>) -> usize {
        let transport = Arc::clone(&self.kernel.transport);
        self.release_held();
        let hosts: Vec<TaxHost> = self.kernel.directory.read().values().cloned().collect();
        let now = self.kernel.now();
        loop {
            let (mut settled, mut in_flight) = (0, 0);
            for host in &hosts {
                let (pumped, left) = host.with_firewall(|fw| {
                    (fw.pump_transport(now, &*transport), fw.transport_inflight())
                });
                if pumped > 0 {
                    self.kernel.resume_settled(host);
                }
                settled += pumped;
                in_flight += left;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if in_flight == 0 || left.is_zero() {
                return in_flight;
            }
            if settled == 0 {
                match doorbell {
                    Some(doorbell) => {
                        doorbell.wait(left);
                    }
                    None => std::thread::sleep(SETTLE_POLL.min(left)),
                }
            }
        }
    }

    /// Whether no messages, tasks or `await_bc` deadlines are
    /// outstanding (a transfer in flight waits only for its verdict).
    pub fn is_quiet(&self) -> bool {
        self.kernel
            .directory
            .read()
            .values()
            .all(|h| h.inbox_is_empty() && h.queued_tasks() == 0 && h.first_deadline().is_none())
    }

    /// All events across hosts, ordered by virtual time (see
    /// [`TaxSystem::merge_logs`]).
    pub fn events(&self) -> Vec<(String, HostEvent)> {
        self.merge_logs(TaxHost::events)
    }

    /// Takes every event recorded so far, in [`TaxSystem::events`] order,
    /// and forgets them: every host's log is left empty. A long-running
    /// daemon prints what it drains instead of keeping (and re-cloning) an
    /// ever-growing history.
    pub fn drain_events(&mut self) -> Vec<(String, HostEvent)> {
        self.merge_logs(|host| std::mem::take(&mut *host.core.events.lock()))
    }

    /// Every `display` line across all hosts, in [`TaxSystem::events`]
    /// order.
    pub fn agent_outputs(&self) -> Vec<String> {
        (self.events().into_iter())
            .filter_map(|(_, event)| match event.kind {
                EventKind::Display(text) => Some(text),
                _ => None,
            })
            .collect()
    }

    /// The system-wide event order: each host's log, taken by `log`,
    /// concatenated in directory order, then stable-sorted by virtual
    /// time. Equal times read back in host order, and a host's own
    /// entries keep their recording order.
    fn merge_logs(&self, log: impl Fn(&TaxHost) -> Vec<HostEvent>) -> Vec<(String, HostEvent)> {
        let directory = self.kernel.directory.read();
        let mut merged: Vec<(String, HostEvent)> = (directory.values())
            .flat_map(|host| log(host).into_iter().map(|e| (host.name().to_owned(), e)))
            .collect();
        merged.sort_by_key(|(_, event)| event.at);
        merged
    }
}

/// Executes one host's task batch inside its scope. A task that panics
/// ends as a fault ([`Kernel::end_panicked`]), and the tasks the batch
/// never started go back to the front of the host's queue for the next
/// tick: a panic never takes down the tick or the caller.
fn run_batch(kernel: &Kernel, host: &TaxHost, tasks: Vec<AgentTask>, scope: &Rc<TaskScope>) {
    let _guard = TaskScope::enter(Rc::clone(scope));
    let mut tasks = tasks.into_iter();
    while let Some(task) = tasks.next() {
        let (agent, hop) = (task.address.clone(), task.hop.clone());
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| kernel.run_task(host, task)));
        if let Err(panic) = run {
            kernel.end_panicked(host, &agent, hop.as_deref(), panic.as_ref());
            host.record(
                scope.clock.now(),
                None,
                EventKind::Scheduler(format!(
                    "host batch panicked; {} unstarted task(s) run next tick",
                    tasks.len()
                )),
            );
            host.requeue_front(tasks);
            return;
        }
    }
}

/// How long [`TaxSystem::settle`] parks between pumps when it has no
/// doorbell to wait on.
const SETTLE_POLL: Duration = Duration::from_micros(200);

/// How long a dropped system waits for the sends it left in flight. A
/// backstop only: [`TaxSystem::settle`] returns as soon as none is left.
const SETTLE_ON_DROP: Duration = Duration::from_secs(1);

impl Drop for TaxSystem {
    /// Settles what the system left in flight before it goes: the
    /// transport can outlive the system (it is
    /// shared), and a frame acked after the firewall is gone would never
    /// have its hop committed or be counted. The agents suspended on
    /// those frames are not resumed.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.settle(Instant::now() + SETTLE_ON_DROP, None);
        }
    }
}

impl std::fmt::Debug for TaxSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TaxSystem({:?})", self.host_names())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interleaved recording, including a late entry at an earlier time:
    /// the merge sorts by time alone, equal times keep host order, and a
    /// drain hands back exactly that order and empties every host's log.
    #[test]
    fn events_merge_like_the_classic_merge() {
        let builder = SystemBuilder::new()
            .host("alpha")
            .and_then(|b| b.host("beta"));
        let mut system = builder.unwrap().build();
        for (host, at) in [("beta", 10), ("alpha", 10), ("alpha", 20), ("beta", 5)] {
            let kind = EventKind::Display(format!("{host}@{at}"));
            let host = system.host(host).unwrap();
            host.record(SimTime::from_nanos(at), None, kind);
        }

        let events = system.events();
        let hosts: Vec<&str> = events.iter().map(|(host, _)| host.as_str()).collect();
        assert_eq!(hosts, ["beta", "alpha", "beta", "alpha"]);
        let order = ["beta@5", "alpha@10", "beta@10", "alpha@20"];
        assert_eq!(system.agent_outputs(), order);

        assert_eq!(system.drain_events(), events);
        assert!(system.events().is_empty());
        for host in system.host_names() {
            assert!(system.host(&host).unwrap().events().is_empty());
        }
    }
}

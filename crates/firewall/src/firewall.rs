//! The firewall proper: policy decisions for every mediated message.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use tacoma_briefcase::{folders, Briefcase};
use tacoma_journal::{Journal, OpenHop};
use tacoma_security::Digest;
use tacoma_security::{Policy, Principal, Rights, SecurityError, Signature, TrustStore};
use tacoma_simnet::SimTime;
use tacoma_uri::{AgentAddress, AgentUri, Instance};
use tacoma_vm::LaunchCaches;

use crate::registry::AgentStatus;
use crate::{
    AdmissionPolicy, AdmissionVerdict, FirewallError, FirewallStats, Message, MessageKind,
    PendingQueue, Registry, DEFAULT_QUEUE_TIMEOUT,
};

/// The reserved agent name that addresses the firewall itself ("all this
/// is achieved by addressing messages directly to the firewall", §3.2).
pub const FIREWALL_AGENT_NAME: &str = "firewall";

/// What the kernel must do with a routed message.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Hand the message to a local VM for a specific agent.
    DeliverLocal {
        /// VM executing the receiver.
        vm: String,
        /// The receiver's concrete address.
        agent: AgentAddress,
        /// The message.
        message: Message,
    },
    /// Ship the message to the firewall at `host:port`.
    ForwardRemote {
        /// Destination host name.
        host: String,
        /// Destination firewall port.
        port: u16,
        /// The message.
        message: Message,
    },
    /// The message was handed to the transport and acknowledged; nothing
    /// more to do. Only [`Firewall::dispatch_outbound`] produces this.
    Forwarded {
        /// Destination host name.
        host: String,
        /// Encoded size that went over the wire.
        bytes: usize,
    },
    /// The agent transfer was handed over and its verdict comes back
    /// later: [`Firewall::take_verdicts`] reports it under `token` once
    /// [`Firewall::pump_transport`] (or [`Firewall::release_held`]) has
    /// settled it. Only [`Firewall::dispatch_transfer`] produces this.
    InFlight {
        /// The ship token the verdict will carry.
        token: u64,
    },
    /// The receiver is absent or not ready; the message was queued with a
    /// timeout.
    Queued,
    /// Install an arriving agent on a VM (the landing half of `go`/`spawn`).
    InstallAgent {
        /// VM chosen by the target URI's name part.
        vm: String,
        /// The address allocated to the new arrival.
        address: AgentAddress,
        /// The agent's briefcase (code + state).
        briefcase: Briefcase,
        /// Whether this was a `spawn`.
        spawned: bool,
        /// The hop dedup key the transfer travelled under, if the sender
        /// journals migrations; the kernel commits it to the journal when
        /// the installed task finishes.
        hop: Option<String>,
    },
    /// The firewall handled an admin operation itself; deliver `reply` to
    /// the requester, and apply `control` to a VM if present.
    Admin {
        /// The reply briefcase (status, listings, …).
        reply: Briefcase,
        /// A control action for the kernel to apply, if the command
        /// demanded one.
        control: Option<ControlAction>,
    },
}

/// A control action the firewall orders a VM to carry out. "Agents with
/// sufficient privileges need support for operations such as listing
/// running agents, determining their run time, and killing or stopping
/// agents" (§3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlAction {
    /// The VM running the target agent.
    pub vm: String,
    /// The target agent.
    pub agent: AgentAddress,
    /// What to do.
    pub kind: ControlKind,
}

/// The kinds of admin control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlKind {
    /// Terminate the agent.
    Kill,
    /// Suspend the agent (it stops receiving messages; they queue).
    Stop,
    /// Resume a stopped agent.
    Resume,
}

/// A message handed to a nonblocking transport (or held for it) whose
/// completion has not come back yet: everything needed to finish the
/// bookkeeping when [`Firewall::pump_transport`] drains the completion.
// Unboxed: a ticket lives in the in-flight map for one round trip, and
// boxing the mail would cost an allocation per send.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum ShipTicket {
    /// A plain delivery: counted on ack, parked on failure.
    Mail { message: Message, bytes: usize },
    /// An agent transfer whose sender is suspended on the verdict: its
    /// hop commits on ack and aborts on failure, and the verdict goes to
    /// [`Firewall::take_verdicts`].
    Transfer { hop: Option<String>, bytes: usize },
}

/// An outbound transfer frame held back until the journal record that
/// begins its hop is durable (see [`Firewall::release_held`]).
#[derive(Debug)]
struct HeldFrame {
    token: u64,
    host: String,
    port: u16,
    wire: Bytes,
}

/// A settled in-flight transfer: its ship token, and `Ok` when the peer
/// acknowledged the frame (the agent moved) or the error that lost it
/// (the agent is told its destination was unreachable).
pub type TransferVerdict = (u64, Result<(), FirewallError>);

/// The per-host firewall.
#[derive(Debug)]
pub struct Firewall {
    host: String,
    port: u16,
    local_system: Principal,
    policy: Policy,
    trust: TrustStore,
    registry: Registry,
    pending: PendingQueue,
    vms: BTreeSet<String>,
    admission: AdmissionPolicy,
    stats: FirewallStats,
    queue_timeout: Duration,
    next_instance: u64,
    journal: Option<Arc<Journal>>,
    inflight: HashMap<u64, ShipTicket>,
    next_ship_token: u64,
    held: Vec<HeldFrame>,
    /// The LSN the next [`Firewall::release_held`] must make durable.
    held_lsn: u64,
    verdicts: Vec<TransferVerdict>,
}

impl Firewall {
    /// A firewall for `host`, listening on `port`, with the given policy
    /// and trust store.
    pub fn new(host: impl Into<String>, port: u16, policy: Policy, trust: TrustStore) -> Self {
        let host = host.into();
        Firewall {
            local_system: Principal::local_system(&host),
            host,
            port,
            policy,
            trust,
            registry: Registry::new(),
            pending: PendingQueue::new(),
            vms: BTreeSet::new(),
            admission: AdmissionPolicy::default(),
            stats: FirewallStats::default(),
            queue_timeout: DEFAULT_QUEUE_TIMEOUT,
            next_instance: 1,
            journal: None,
            inflight: HashMap::new(),
            next_ship_token: 1,
            held: Vec::new(),
            held_lsn: 0,
            verdicts: Vec::new(),
        }
    }

    /// Attaches a durable journal: from here on, parked mail and
    /// migrations are journaled write-ahead, and delivery/completion
    /// records follow fsync-batched.
    pub fn set_journal(&mut self, journal: Arc<Journal>) {
        self.journal = Some(journal);
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// The host this firewall guards.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The firewall's port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The local system principal (`system@<host>`).
    pub fn local_system(&self) -> &Principal {
        &self.local_system
    }

    /// Mediation counters. The host's launch caches are absorbed as
    /// gauges so one stats line tells the whole story.
    pub fn stats(&self) -> FirewallStats {
        let mut stats = self.stats;
        let caches = self.admission.caches();
        stats.analysis_cache_evictions = caches.analysis().stats().evictions;
        stats.absorb_vm(&caches.programs().stats(), &caches.pool().stats());
        if let Some(journal) = &self.journal {
            stats.absorb_journal(&journal.stats());
        }
        stats
    }

    /// The agent registry (read-only view).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The trust store, for installing keys.
    pub fn trust_mut(&mut self) -> &mut TrustStore {
        &mut self.trust
    }

    /// Read access to the trust store (e.g. to clone it into a VM
    /// execution context).
    pub fn trust(&self) -> &TrustStore {
        &self.trust
    }

    /// Overrides the pending-queue timeout.
    pub fn set_queue_timeout(&mut self, timeout: Duration) {
        self.queue_timeout = timeout;
    }

    /// The host's launch caches: the set admission analyzes through, for
    /// the host's VMs to share.
    pub fn launch_caches(&self) -> &Arc<LaunchCaches> {
        self.admission.caches()
    }

    /// Declares a virtual machine; each VM thread announces itself here so
    /// agent transfers can target it by name.
    pub fn add_vm(&mut self, name: impl Into<String>) {
        self.vms.insert(name.into());
    }

    /// The declared VM names.
    pub fn vms(&self) -> impl Iterator<Item = &str> {
        self.vms.iter().map(String::as_str)
    }

    /// Allocates a fresh instance number (monotonic per firewall).
    pub fn allocate_instance(&mut self) -> Instance {
        let i = self.next_instance;
        self.next_instance += 1;
        // Mix the host name in so instances allocated by different hosts
        // differ, like timestamps did in the original (933821661).
        let mixed = i
            .wrapping_mul(0x100)
            .wrapping_add(self.host.len() as u64 & 0xff);
        Instance::from_u64(mixed)
    }

    /// Registers an agent on behalf of a VM; returns any queued messages
    /// that were waiting for it (now deliverable).
    pub fn register_agent(
        &mut self,
        address: &AgentAddress,
        vm: impl Into<String>,
        now: SimTime,
    ) -> Vec<Message> {
        let vm = vm.into();
        self.registry.register(address.clone(), vm, now);
        let (mail, expired) = self
            .pending
            .take_matching(address, self.local_system.as_str(), now);
        self.stats.expired += expired.count as u64;
        self.stats.delivered_local += mail.len() as u64;
        if let Some(journal) = &self.journal {
            // Delivery records are fsync-batched; losing one to an I/O
            // error only risks a deduplicated redelivery after a crash,
            // so failures are not surfaced to the (unrelated) caller.
            for key in expired
                .journal_keys
                .iter()
                .chain(mail.iter().filter_map(|m| m.journal_key.as_ref()))
            {
                let _ = journal.mail_delivered(*key);
            }
        }
        mail.into_iter().map(|m| m.message).collect()
    }

    /// Unregisters an agent (it finished, moved away, or was killed).
    pub fn unregister_agent(&mut self, address: &AgentAddress) -> bool {
        self.registry.unregister(address)
    }

    /// Drops expired queued messages; to be called periodically.
    pub fn expire_pending(&mut self, now: SimTime) -> usize {
        let expired = self.pending.expire(now);
        self.stats.expired += expired.count as u64;
        if let Some(journal) = &self.journal {
            // An expired park is as terminal as a delivery: replay must
            // not resurrect mail whose timeout already fired.
            for key in &expired.journal_keys {
                let _ = journal.mail_delivered(*key);
            }
        }
        expired.count
    }

    /// Number of messages currently queued.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The rights `principal` holds on this host, given whether it has
    /// been authenticated.
    pub fn rights_of(&self, principal: &Principal, authenticated: bool) -> Rights {
        self.policy.rights_for(principal, authenticated)
    }

    /// Whether the sending *host* is trusted ("the presence of an
    /// authenticated and trusted sender", §3.2): its system principal has
    /// a key in our trust store.
    pub fn is_sender_trusted(&self, from_host: &str) -> bool {
        self.trust.is_trusted(&Principal::local_system(from_host))
    }

    /// First-level authentication of an arriving agent: the briefcase must
    /// carry `PRINCIPAL` and `SIG` folders, and the signature must verify
    /// over the `CODE` element with that principal's trusted key.
    ///
    /// # Errors
    ///
    /// [`SecurityError`] describing the failure (unknown principal, bad
    /// signature, missing folders map to `BadSignature`).
    pub fn authenticate_transfer(&self, briefcase: &Briefcase) -> Result<Principal, SecurityError> {
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
        self.trust
            .verify(&principal, code.data(), &Signature::from_digest(digest))?;
        Ok(principal)
    }

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

    /// Routes an outbound message *and* carries out any remote forward on
    /// `transport`, so callers never see [`Decision::ForwardRemote`].
    ///
    /// Undeliverable messages are never silently lost: a failed `Deliver`
    /// is parked in the pending queue with the usual timeout (a later
    /// [`Firewall::redeliver_remote_pending`] sweep retries it); a failed
    /// agent transfer is reported to the caller so the agent's
    /// unreachable branch can run.
    ///
    /// # Errors
    ///
    /// Everything [`Firewall::route_outbound`] raises, plus
    /// [`FirewallError::Transport`] when an agent transfer exhausts the
    /// transport's retry budget.
    pub fn dispatch_outbound(
        &mut self,
        message: Message,
        now: SimTime,
        transport: &dyn tacoma_transport::Transport,
    ) -> Result<Decision, FirewallError> {
        match self.route_outbound(message, now)? {
            Decision::ForwardRemote {
                host,
                port,
                message,
            } => self.ship(message, &host, port, now, transport),
            other => Ok(other),
        }
    }

    /// Routes an agent transfer like [`Firewall::dispatch_outbound`], but
    /// a remote hop on a nonblocking transport does not wait for its
    /// verdict: it returns [`Decision::InFlight`], and the verdict comes
    /// back through [`Firewall::take_verdicts`]. With a journal, the
    /// hop's begin record is appended unsynced and the frame is held
    /// until [`Firewall::release_held`] makes the records durable — one
    /// fsync for every transfer of a scheduler turn. Without a journal, a
    /// transport that refuses the nonblocking path (the simnet) takes the
    /// blocking send, and the verdict is synchronous.
    ///
    /// # Errors
    ///
    /// As [`Firewall::dispatch_outbound`].
    pub fn dispatch_transfer(
        &mut self,
        message: Message,
        now: SimTime,
        transport: &dyn tacoma_transport::Transport,
    ) -> Result<Decision, FirewallError> {
        if matches!(message.kind, MessageKind::Deliver) {
            return self.dispatch_outbound(message, now, transport);
        }
        match self.route_outbound(message, now)? {
            Decision::ForwardRemote {
                host,
                port,
                message,
            } => self.ship_in_flight(message, &host, port, now, transport),
            other => Ok(other),
        }
    }

    /// Hands one already-routed message to the transport, parking or
    /// reporting failures per message kind (the second half of
    /// [`Firewall::dispatch_outbound`], exposed for callers that routed
    /// separately).
    ///
    /// # Errors
    ///
    /// [`FirewallError::Transport`] when an agent transfer exhausts the
    /// transport's retry budget; failed `Deliver` messages are parked
    /// instead.
    pub fn ship(
        &mut self,
        message: Message,
        host: &str,
        port: u16,
        now: SimTime,
        transport: &dyn tacoma_transport::Transport,
    ) -> Result<Decision, FirewallError> {
        let wire = encode_frame(&message);
        // Write-ahead: a migration must be durable *before* the first
        // transmission attempt, so a crash between send and ack resumes
        // the hop instead of losing the agent. The journaled wire is the
        // ready-to-send frame (payload bytes from the encode-once cache),
        // so this is one buffer append, not a re-encode.
        let hop_key = match (&self.journal, &message.kind, &message.hop) {
            (Some(journal), MessageKind::AgentTransfer { .. }, Some(key)) => {
                journal.hop_begin(key, message.hop_parent.as_deref(), false, host, &wire)?;
                Some(key.clone())
            }
            _ => None,
        };
        // Fast path: plain deliveries on a nonblocking transport enter its
        // bounded per-peer queue and complete later; the send is reported
        // `Forwarded` optimistically and [`Firewall::pump_transport`]
        // settles the books when the cumulative ack (or the retry-budget
        // failure) comes back. A transfer reaching this method wants its
        // verdict now (a native program's `go`), so it takes the blocking
        // send; a suspendable agent's transfer goes through
        // [`Firewall::dispatch_transfer`] instead. A blocking send still
        // rides the reactor's pipelined window — it just waits for its own
        // completion.
        if matches!(message.kind, MessageKind::Deliver) {
            let token = self.next_token();
            if transport
                .send_nowait(&self.host, host, port, wire.clone(), token)
                .is_ok()
            {
                let bytes = wire.len();
                self.inflight
                    .insert(token, ShipTicket::Mail { message, bytes });
                return Ok(Decision::Forwarded {
                    host: host.to_owned(),
                    bytes,
                });
            }
            // Backpressure: the peer's queue is full, or the transport has
            // no fast path. Fall through to the blocking send, which waits
            // for queue space inside its retry budget instead of dropping
            // the frame.
        }
        self.send_blocking(
            message,
            &wire,
            hop_key.as_deref(),
            (host, port),
            now,
            transport,
        )
    }

    /// The in-flight half of [`Firewall::dispatch_transfer`].
    fn ship_in_flight(
        &mut self,
        message: Message,
        host: &str,
        port: u16,
        now: SimTime,
        transport: &dyn tacoma_transport::Transport,
    ) -> Result<Decision, FirewallError> {
        let wire = encode_frame(&message);
        let bytes = wire.len();
        let token = self.next_token();
        let hop = match (&self.journal, &message.hop) {
            (Some(journal), Some(key)) => {
                // Write-ahead, batched: append now, send only once
                // `release_held`'s fsync covers the record.
                let parent = message.hop_parent.as_deref();
                let lsn = journal.append_hop_begin(key, parent, false, host, &wire)?;
                self.held_lsn = self.held_lsn.max(lsn);
                self.held.push(HeldFrame {
                    token,
                    host: host.to_owned(),
                    port,
                    wire,
                });
                Some(key.clone())
            }
            // Nothing to make durable first: straight into the peer's
            // queue — or, when it is full, the blocking send, as for mail.
            _ if transport
                .send_nowait(&self.host, host, port, wire.clone(), token)
                .is_ok() =>
            {
                None
            }
            _ => return self.send_blocking(message, &wire, None, (host, port), now, transport),
        };
        self.inflight
            .insert(token, ShipTicket::Transfer { hop, bytes });
        Ok(Decision::InFlight { token })
    }

    /// The write-ahead barrier: one fsync makes every hop begin that
    /// [`Firewall::dispatch_transfer`] appended since the last call
    /// durable, and only then are the held frames handed to the
    /// transport — no transfer frame reaches the wire before its record
    /// is on disk. A frame the transport refuses (a full peer queue, or
    /// no nonblocking path) takes the blocking send, settled at once; if the fsync fails, every held transfer
    /// fails unsent. Returns the number of frames released. Daemons call
    /// this when the scheduler goes quiet.
    pub fn release_held(&mut self, transport: &dyn tacoma_transport::Transport) -> usize {
        if self.held.is_empty() {
            return 0;
        }
        let held = std::mem::take(&mut self.held);
        let released = held.len();
        let durable = match &self.journal {
            Some(journal) => journal
                .ensure_synced(self.held_lsn)
                .map_err(FirewallError::from),
            None => Ok(()),
        };
        for frame in held {
            let result = match &durable {
                Err(e) => Err(e.clone()),
                Ok(()) => {
                    let wire = frame.wire.clone();
                    if transport
                        .send_nowait(&self.host, &frame.host, frame.port, wire, frame.token)
                        .is_ok()
                    {
                        continue;
                    }
                    transport
                        .send(&self.host, &frame.host, frame.port, &frame.wire)
                        .map_err(FirewallError::Transport)
                }
            };
            if let Some(ShipTicket::Transfer { hop, bytes }) = self.inflight.remove(&frame.token) {
                self.close_transfer(frame.token, hop.as_deref(), bytes, result);
            }
        }
        released
    }

    /// Every transfer verdict settled since the last call, in settling
    /// order. The kernel resumes each suspended sender with its verdict.
    pub fn take_verdicts(&mut self) -> Vec<TransferVerdict> {
        std::mem::take(&mut self.verdicts)
    }

    /// Closes the books on one in-flight transfer and queues its verdict
    /// for the suspended sender.
    fn close_transfer(
        &mut self,
        token: u64,
        hop: Option<&str>,
        bytes: usize,
        result: Result<(), FirewallError>,
    ) {
        self.book(hop, bytes, result.is_ok());
        self.verdicts.push((token, result));
    }

    /// Counts one settled send; for a journaled transfer, also closes its
    /// hop — committed when the receiver acked it (it now owns the hop;
    /// batched, since losing the record only re-ships a frame the
    /// receiver's dedup set suppresses), aborted when it was lost (the
    /// sender learns of the failure, so replay must not retry it).
    fn book(&mut self, hop: Option<&str>, bytes: usize, delivered: bool) {
        let journal = self.journal.as_ref().zip(hop);
        if delivered {
            self.stats.frames_sent += 1;
            self.stats.bytes_sent += bytes as u64;
            if let Some((journal, key)) = journal {
                let _ = journal.hop_committed(key);
            }
        } else {
            self.stats.retry_timeouts += 1;
            if let Some((journal, key)) = journal {
                let _ = journal.hop_aborted(key);
            }
        }
    }

    fn next_token(&mut self) -> u64 {
        let token = self.next_ship_token;
        self.next_ship_token += 1;
        token
    }

    /// A blocking send and its bookkeeping: on ack the hop (if any)
    /// commits; a lost transfer aborts its hop and surfaces, a lost
    /// delivery parks.
    fn send_blocking(
        &mut self,
        message: Message,
        wire: &Bytes,
        hop_key: Option<&str>,
        (host, port): (&str, u16),
        now: SimTime,
        transport: &dyn tacoma_transport::Transport,
    ) -> Result<Decision, FirewallError> {
        let sent = transport.send(&self.host, host, port, &wire[..]);
        self.book(hop_key, wire.len(), sent.is_ok());
        match (sent, message.kind) {
            (Ok(()), _) => Ok(Decision::Forwarded {
                host: host.to_owned(),
                bytes: wire.len(),
            }),
            // A lost `go`/`spawn` must surface: the sending agent is
            // waiting to learn whether it moved.
            (Err(e), MessageKind::AgentTransfer { .. }) => Err(FirewallError::Transport(e)),
            // A plain delivery is parked with a timeout, exactly like
            // mail for a not-yet-arrived local agent.
            (Err(_), MessageKind::Deliver) => {
                self.park(message, now, Some(wire));
                Ok(Decision::Queued)
            }
        }
    }

    /// Drains the nonblocking transport's completion queue and settles
    /// each in-flight ship: an acked frame is counted; a failed frame
    /// (retry budget exhausted, peer gone) is parked in the pending queue
    /// so the redelivery sweep retries it — the optimistic `Forwarded`
    /// already returned, so nothing can be surfaced to the sender, and
    /// nothing may be lost.
    ///
    /// Returns the number of completions settled. Call this from the
    /// daemon loop whenever the transport may have made progress.
    pub fn pump_transport(
        &mut self,
        now: SimTime,
        transport: &dyn tacoma_transport::Transport,
    ) -> usize {
        let completions = transport.drain_completions();
        let mut settled = 0;
        for completion in completions {
            let Some(ticket) = self.inflight.remove(&completion.token) else {
                continue; // Not ours (or already settled).
            };
            settled += 1;
            match ticket {
                ShipTicket::Transfer { hop, bytes } => {
                    let result = completion.result.map_err(FirewallError::Transport);
                    self.close_transfer(completion.token, hop.as_deref(), bytes, result);
                }
                ShipTicket::Mail { message, bytes } => {
                    let delivered = completion.result.is_ok();
                    self.book(None, bytes, delivered);
                    if !delivered {
                        self.park(message, now, None);
                    }
                }
            }
        }
        settled
    }

    /// Frames handed to a nonblocking transport (or held for it) whose
    /// completion has not been pumped yet. Daemons drain this to zero (or
    /// a deadline) before reporting final stats.
    pub fn transport_inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Parks a remote-bound message whose send failed, for the
    /// redelivery sweep: journaled, with the usual timeout.
    fn park(&mut self, message: Message, now: SimTime, wire: Option<&Bytes>) {
        let key = self.journal_park(&message, wire);
        self.pending
            .enqueue_keyed(message, now, self.queue_timeout, key);
        self.stats.queued += 1;
    }

    /// Journals a `MailParked` record for a message about to enter the
    /// pending queue, reusing an already-encoded frame when the caller
    /// has one. Returns the journal key, or `None` when there is no
    /// journal or the append failed (the park then simply loses
    /// durability, not the message).
    fn journal_park(&self, message: &Message, wire: Option<&Bytes>) -> Option<u64> {
        let journal = self.journal.as_ref()?;
        let bytes = match wire {
            Some(w) => w.clone(),
            None => Bytes::from(message.encode()),
        };
        journal.mail_parked(self.queue_timeout, &bytes).ok()
    }

    /// Retries every parked remote-bound message on `transport`,
    /// preserving each message's original deadline. Returns
    /// `(delivered, still_parked)`.
    pub fn redeliver_remote_pending(
        &mut self,
        now: SimTime,
        transport: &dyn tacoma_transport::Transport,
    ) -> (usize, usize) {
        let parked = self.pending.take_remote(&self.host, now);
        let mut delivered = 0;
        let mut reparked = 0;
        let mut wire = Vec::new();
        for entry in parked {
            let message = entry.message;
            let (host, port) = match (message.to.host(), message.to.location()) {
                (Some(h), Some(loc)) => (h.to_owned(), loc.effective_port()),
                _ => continue, // Cannot happen: take_remote selected on host.
            };
            // One buffer across the sweep; the payload bytes are reused
            // from each message's encode-once cache, populated the first
            // time the message was shipped.
            wire.clear();
            wire.reserve(message.encoded_len());
            message.encode_into(&mut wire);
            if transport.send(&self.host, &host, port, &wire).is_ok() {
                self.stats.frames_sent += 1;
                self.stats.bytes_sent += wire.len() as u64;
                if let (Some(journal), Some(key)) = (&self.journal, entry.journal_key) {
                    let _ = journal.mail_delivered(key);
                }
                delivered += 1;
            } else {
                self.stats.retry_timeouts += 1;
                // Re-park under the same journal key: the original
                // MailParked record still covers the message.
                self.pending
                    .enqueue_until_keyed(message, entry.deadline, entry.journal_key);
                reparked += 1;
            }
        }
        (delivered, reparked)
    }

    /// Re-parks a message recovered from the journal at boot, *without*
    /// writing a new record (the replayed `MailParked` already covers
    /// it). The deadline is recomputed from the journal's relative
    /// timeout against the current clock — absolute deadlines from the
    /// previous boot's clock would be meaningless here.
    pub fn replay_park(
        &mut self,
        message: Message,
        now: SimTime,
        timeout: Duration,
        journal_key: u64,
    ) {
        self.pending
            .enqueue_keyed(message, now, timeout, Some(journal_key));
        self.stats.queued += 1;
        self.stats.journal_reparked += 1;
    }

    /// Re-ships an open outbound hop recovered from the journal at boot:
    /// the journaled frame goes out verbatim (the receiver's dedup set
    /// suppresses it if the original send actually arrived). On success
    /// the hop is committed; on failure it stays open so a later restart
    /// retries — unlike a live send, there is no agent waiting to hear
    /// about the failure, so aborting would lose the agent.
    ///
    /// # Errors
    ///
    /// [`FirewallError::Transport`] when the send fails (hop left open),
    /// [`FirewallError::BadWire`] if the journaled frame does not decode.
    pub fn replay_ship_hop(
        &mut self,
        hop: &OpenHop,
        transport: &dyn tacoma_transport::Transport,
    ) -> Result<(), FirewallError> {
        let message = Message::decode_bytes(&hop.wire)?;
        let (host, port) = match (message.to.host(), message.to.location()) {
            (Some(h), Some(loc)) => (h.to_owned(), loc.effective_port()),
            _ => {
                return Err(FirewallError::BadWire {
                    detail: format!("journaled hop {} has no remote target", hop.key),
                })
            }
        };
        match transport.send(&self.host, &host, port, &hop.wire) {
            Ok(()) => {
                self.stats.frames_sent += 1;
                self.stats.bytes_sent += hop.wire.len() as u64;
                self.stats.journal_resumed += 1;
                if let Some(journal) = &self.journal {
                    let _ = journal.hop_committed(&hop.key);
                }
                Ok(())
            }
            Err(e) => {
                self.stats.retry_timeouts += 1;
                Err(FirewallError::Transport(e))
            }
        }
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

    /// Mutable access to the mediation counters, for absorbing transport
    /// gauges before reporting.
    pub fn stats_mut(&mut self) -> &mut FirewallStats {
        &mut self.stats
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
                let key = self.journal_park(&message, None);
                self.pending
                    .enqueue_keyed(message, now, self.queue_timeout, key);
                self.stats.queued += 1;
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

/// Encodes `message` as one shared frame buffer. `encoded_len` is
/// O(folders) arithmetic, so the buffer is sized exactly once; the
/// payload bytes inside come from the briefcase's encode-once cache, not
/// a fresh serialization. The journal record, the transport queue, and
/// any park all reference the same heap allocation.
fn encode_frame(message: &Message) -> Bytes {
    let mut buf = Vec::with_capacity(message.encoded_len());
    message.encode_into(&mut buf);
    Bytes::from(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fw() -> Firewall {
        let mut fw = Firewall::new("h1", 27017, Policy::new(), TrustStore::new());
        fw.add_vm("vm_script");
        fw
    }

    fn msg(from: &str, to: &str) -> Message {
        Message::deliver(
            "h1",
            Principal::new(from).unwrap(),
            None,
            to.parse().unwrap(),
            Briefcase::new(),
        )
    }

    fn register(fw: &mut Firewall, principal: &str, name: &str, inst: u64) -> AgentAddress {
        let addr = AgentAddress::new(principal, name, Instance::from_u64(inst));
        fw.register_agent(&addr, "vm_script", SimTime::ZERO);
        addr
    }

    #[test]
    fn local_delivery_to_running_agent() {
        let mut fw = fw();
        let addr = register(&mut fw, "alice", "webbot", 1);
        let d = fw
            .route_outbound(msg("alice", "alice/webbot:1"), SimTime::ZERO)
            .unwrap();
        assert!(matches!(d, Decision::DeliverLocal { agent, .. } if agent == addr));
        assert_eq!(fw.stats().delivered_local, 1);
    }

    #[test]
    fn absent_receiver_queues_then_flushes_on_registration() {
        let mut fw = fw();
        let d = fw
            .route_outbound(msg("alice", "alice/webbot"), SimTime::ZERO)
            .unwrap();
        assert_eq!(d, Decision::Queued);
        assert_eq!(fw.pending_len(), 1);

        let mail = fw.register_agent(
            &AgentAddress::new("alice", "webbot", Instance::from_u64(5)),
            "vm_script",
            SimTime::from_nanos(1000),
        );
        assert_eq!(mail.len(), 1);
        assert_eq!(fw.pending_len(), 0);
    }

    #[test]
    fn remote_target_forwards_with_effective_port() {
        let mut fw = fw();
        let d = fw
            .route_outbound(msg("alice", "tacoma://h2/ag_fs"), SimTime::ZERO)
            .unwrap();
        assert!(matches!(d, Decision::ForwardRemote { ref host, port: 27017, .. } if host == "h2"));
    }

    #[test]
    fn own_host_in_target_is_local() {
        let mut fw = fw();
        register(&mut fw, "alice", "webbot", 1);
        let d = fw
            .route_outbound(msg("alice", "tacoma://h1/alice/webbot"), SimTime::ZERO)
            .unwrap();
        assert!(matches!(d, Decision::DeliverLocal { .. }));
    }

    #[test]
    fn stopped_agent_queues_mail() {
        let mut fw = fw();
        let addr = register(&mut fw, "alice", "webbot", 1);
        fw.registry.get_mut(&addr).unwrap().status = AgentStatus::Stopped;
        let d = fw
            .route_outbound(msg("alice", "alice/webbot"), SimTime::ZERO)
            .unwrap();
        assert_eq!(d, Decision::Queued);
    }

    #[test]
    fn unauthenticated_remote_sender_is_denied() {
        let mut fw = fw();
        register(&mut fw, "alice", "webbot", 1);
        let mut m = msg("mallory@evil", "alice/webbot:1");
        m.from_host = "evil.example".into();
        let err = fw.route_inbound(m, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FirewallError::Denied(_)));
        assert_eq!(fw.stats().denied, 1);
    }

    #[test]
    fn trusted_remote_sender_delivers() {
        use tacoma_security::Keyring;
        let mut fw = fw();
        register(&mut fw, "alice", "webbot", 1);
        // Trust the sending host's system principal.
        let sender_sys = Principal::local_system("h2");
        fw.trust_mut()
            .trust(Keyring::generate(&sender_sys, 3).public());
        let mut m = msg("alice", "alice/webbot:1");
        m.from_host = "h2".into();
        let d = fw.route_inbound(m, SimTime::ZERO).unwrap();
        assert!(matches!(d, Decision::DeliverLocal { .. }));
    }

    #[test]
    fn signed_transfer_installs_on_named_vm() {
        use tacoma_security::Keyring;
        let mut fw = fw();
        let alice = Principal::new("alice").unwrap();
        let keys = Keyring::generate(&alice, 9);
        fw.trust_mut().trust(keys.public());

        let code = b"compiled agent bytes".to_vec();
        let mut bc = Briefcase::new();
        bc.set_single(folders::AGENT_NAME, "webbot");
        bc.set_single(folders::PRINCIPAL, "alice");
        bc.append(folders::CODE, code.clone());
        bc.set_single(folders::SIGNATURE, keys.sign(&code).digest().to_hex());

        let m = Message::transfer(
            "h2",
            alice,
            "tacoma://h1/vm_script".parse().unwrap(),
            bc,
            false,
        );
        let d = fw.route_inbound(m, SimTime::ZERO).unwrap();
        let Decision::InstallAgent {
            vm,
            address,
            spawned,
            ..
        } = d
        else {
            panic!("expected install, got {d:?}")
        };
        assert_eq!(vm, "vm_script");
        assert_eq!(address.name(), "webbot");
        assert_eq!(address.principal(), "alice");
        assert!(!spawned);
        assert_eq!(fw.stats().agents_installed, 1);
    }

    #[test]
    fn tampered_transfer_is_denied() {
        use tacoma_security::Keyring;
        let mut fw = fw();
        let alice = Principal::new("alice").unwrap();
        let keys = Keyring::generate(&alice, 9);
        fw.trust_mut().trust(keys.public());

        let mut bc = Briefcase::new();
        bc.set_single(folders::AGENT_NAME, "webbot");
        bc.set_single(folders::PRINCIPAL, "alice");
        bc.append(folders::CODE, b"tampered code".to_vec());
        bc.set_single(
            folders::SIGNATURE,
            keys.sign(b"original code").digest().to_hex(),
        );

        let m = Message::transfer(
            "h2",
            alice,
            "tacoma://h1/vm_script".parse().unwrap(),
            bc,
            false,
        );
        assert!(matches!(
            fw.route_inbound(m, SimTime::ZERO),
            Err(FirewallError::Denied(_))
        ));
    }

    #[test]
    fn unsigned_transfer_lands_only_under_trusting_policy() {
        let alice = Principal::new("alice").unwrap();
        let mut bc = Briefcase::new();
        bc.set_single(folders::AGENT_NAME, "webbot");
        let make = |bc: Briefcase| {
            Message::transfer(
                "h2",
                alice.clone(),
                "tacoma://h1/vm_script".parse().unwrap(),
                bc,
                true,
            )
        };

        // Default policy: denied.
        let mut strict = fw();
        assert!(strict
            .route_inbound(make(bc.clone()), SimTime::ZERO)
            .is_err());

        // Trusting policy (§2's single administrative domain): installed.
        let mut open = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
        open.add_vm("vm_script");
        let d = open.route_inbound(make(bc), SimTime::ZERO).unwrap();
        assert!(matches!(d, Decision::InstallAgent { spawned: true, .. }));
    }

    #[test]
    fn transfer_to_unknown_vm_is_rejected() {
        let mut open = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
        open.add_vm("vm_script");
        let mut bc = Briefcase::new();
        bc.set_single(folders::AGENT_NAME, "x");
        let m = Message::transfer(
            "h2",
            Principal::new("p").unwrap(),
            "tacoma://h1/vm_java".parse().unwrap(),
            bc,
            false,
        );
        assert!(matches!(
            open.route_inbound(m, SimTime::ZERO),
            Err(FirewallError::NoSuchVm { vm }) if vm == "vm_java"
        ));
    }

    #[test]
    fn admin_list_requires_admin_right() {
        let mut fw = fw();
        register(&mut fw, "alice", "webbot", 1);
        let mut m = msg("alice", "firewall");
        m.briefcase.set_single(folders::COMMAND, "list");
        assert!(matches!(
            fw.route_outbound(m, SimTime::ZERO),
            Err(FirewallError::Denied(_))
        ));
    }

    #[test]
    fn admin_list_and_kill_flow() {
        let mut fw = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
        fw.add_vm("vm_script");
        let addr = AgentAddress::new("alice", "webbot", Instance::from_u64(1));
        fw.register_agent(&addr, "vm_script", SimTime::ZERO);

        let mut list = msg("admin@h1", "firewall");
        list.briefcase.set_single(folders::COMMAND, "list");
        let Decision::Admin {
            reply,
            control: None,
        } = fw.route_outbound(list, SimTime::ZERO).unwrap()
        else {
            panic!()
        };
        assert_eq!(reply.folder("AGENTS").unwrap().len(), 1);

        let mut kill = msg("admin@h1", "firewall");
        kill.briefcase.set_single(folders::COMMAND, "kill");
        kill.briefcase.set_single(folders::ARGS, "alice/webbot:1");
        let Decision::Admin {
            control: Some(action),
            ..
        } = fw.route_outbound(kill, SimTime::ZERO).unwrap()
        else {
            panic!()
        };
        assert_eq!(action.kind, ControlKind::Kill);
        assert_eq!(action.agent, addr);
        assert!(fw.registry().is_empty());
    }

    #[test]
    fn admin_stop_makes_agent_queue_mail_then_resume_flushes() {
        let mut fw = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
        fw.add_vm("vm_script");
        let addr = AgentAddress::new("alice", "webbot", Instance::from_u64(1));
        fw.register_agent(&addr, "vm_script", SimTime::ZERO);

        let mut stop = msg("admin@h1", "firewall");
        stop.briefcase.set_single(folders::COMMAND, "stop");
        stop.briefcase.set_single(folders::ARGS, "alice/webbot:1");
        fw.route_outbound(stop, SimTime::ZERO).unwrap();

        let d = fw
            .route_outbound(msg("alice", "alice/webbot:1"), SimTime::ZERO)
            .unwrap();
        assert_eq!(d, Decision::Queued);

        let mut resume = msg("admin@h1", "firewall");
        resume.briefcase.set_single(folders::COMMAND, "resume");
        resume.briefcase.set_single(folders::ARGS, "alice/webbot:1");
        fw.route_outbound(resume, SimTime::ZERO).unwrap();

        let d = fw
            .route_outbound(msg("alice", "alice/webbot:1"), SimTime::ZERO)
            .unwrap();
        assert!(matches!(d, Decision::DeliverLocal { .. }));
    }

    #[test]
    fn admin_unknown_command_and_target_errors() {
        let mut fw = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
        fw.add_vm("vm_script");
        let mut bad = msg("admin@h1", "firewall");
        bad.briefcase.set_single(folders::COMMAND, "explode");
        assert!(matches!(
            fw.route_outbound(bad, SimTime::ZERO),
            Err(FirewallError::UnknownCommand { .. })
        ));

        let mut kill = msg("admin@h1", "firewall");
        kill.briefcase.set_single(folders::COMMAND, "kill");
        kill.briefcase.set_single(folders::ARGS, "alice/ghost");
        assert!(matches!(
            fw.route_outbound(kill, SimTime::ZERO),
            Err(FirewallError::UnknownAgent { .. })
        ));
    }

    #[test]
    fn instances_are_unique_and_monotone() {
        let mut fw = fw();
        let a = fw.allocate_instance();
        let b = fw.allocate_instance();
        assert_ne!(a, b);
    }

    /// A transport that can be flipped between failing and delivering,
    /// recording what it shipped.
    #[derive(Debug, Default)]
    struct FlakyTransport {
        up: std::sync::atomic::AtomicBool,
        sent: parking_lot::Mutex<Vec<(String, u16, usize)>>,
    }

    impl FlakyTransport {
        fn up() -> Self {
            let t = FlakyTransport::default();
            t.up.store(true, std::sync::atomic::Ordering::SeqCst);
            t
        }

        fn down() -> Self {
            FlakyTransport::default()
        }

        fn restore(&self) {
            self.up.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl tacoma_transport::Transport for FlakyTransport {
        fn send(
            &self,
            _from: &str,
            to_host: &str,
            to_port: u16,
            payload: &[u8],
        ) -> Result<(), tacoma_transport::TransportError> {
            if self.up.load(std::sync::atomic::Ordering::SeqCst) {
                self.sent
                    .lock()
                    .push((to_host.to_owned(), to_port, payload.len()));
                Ok(())
            } else {
                Err(tacoma_transport::TransportError::Unreachable {
                    host: to_host.to_owned(),
                    detail: "link down".into(),
                })
            }
        }

        fn stats(&self) -> tacoma_transport::TransportStats {
            tacoma_transport::TransportStats::default()
        }

        fn kind(&self) -> &'static str {
            "flaky"
        }
    }

    #[test]
    fn dispatch_ships_remote_deliver_over_transport() {
        let mut fw = fw();
        let t = FlakyTransport::up();
        let d = fw
            .dispatch_outbound(msg("alice", "tacoma://h2/ag_fs"), SimTime::ZERO, &t)
            .unwrap();
        assert!(matches!(d, Decision::Forwarded { ref host, .. } if host == "h2"));
        let sent = t.sent.lock();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, "h2");
        assert_eq!(sent[0].1, 27017);
        let stats = fw.stats();
        assert_eq!(stats.frames_sent, 1);
        assert_eq!(stats.bytes_sent, sent[0].2 as u64);
    }

    #[test]
    fn undeliverable_deliver_is_parked_not_lost() {
        let mut fw = fw();
        let t = FlakyTransport::down();
        let d = fw
            .dispatch_outbound(msg("alice", "tacoma://h2/ag_fs"), SimTime::ZERO, &t)
            .unwrap();
        assert_eq!(d, Decision::Queued);
        assert_eq!(fw.pending_len(), 1);
        let stats = fw.stats();
        assert_eq!(stats.retry_timeouts, 1);
        assert_eq!(stats.queued, 1);
        assert_eq!(stats.frames_sent, 0);
    }

    #[test]
    fn undeliverable_transfer_surfaces_to_the_agent() {
        let mut fw = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
        fw.add_vm("vm_script");
        let mut bc = Briefcase::new();
        bc.set_single(folders::AGENT_NAME, "webbot");
        let m = Message::transfer(
            "h1",
            Principal::new("alice").unwrap(),
            "tacoma://h2/vm_script".parse().unwrap(),
            bc,
            false,
        );
        let t = FlakyTransport::down();
        let err = fw.dispatch_outbound(m, SimTime::ZERO, &t).unwrap_err();
        assert!(matches!(err, FirewallError::Transport(_)));
        assert_eq!(fw.pending_len(), 0, "transfers are not parked");
        assert_eq!(fw.stats().retry_timeouts, 1);
    }

    #[test]
    fn parked_remote_mail_redelivers_when_link_returns() {
        let mut fw = fw();
        let t = FlakyTransport::down();
        fw.dispatch_outbound(msg("alice", "tacoma://h2/ag_fs"), SimTime::ZERO, &t)
            .unwrap();
        assert_eq!(fw.pending_len(), 1);

        // Link still down: the sweep re-parks, preserving the message.
        let (delivered, reparked) = fw.redeliver_remote_pending(SimTime::ZERO, &t);
        assert_eq!((delivered, reparked), (0, 1));
        assert_eq!(fw.pending_len(), 1);

        // Link back: the sweep delivers.
        t.restore();
        let (delivered, reparked) = fw.redeliver_remote_pending(SimTime::ZERO, &t);
        assert_eq!((delivered, reparked), (1, 0));
        assert_eq!(fw.pending_len(), 0);
        assert_eq!(t.sent.lock().len(), 1);
        assert_eq!(fw.stats().frames_sent, 1);
    }

    #[test]
    fn parked_remote_mail_expires_by_its_deadline() {
        let mut fw = fw();
        fw.set_queue_timeout(Duration::from_millis(50));
        let t = FlakyTransport::down();
        fw.dispatch_outbound(msg("alice", "tacoma://h2/ag_fs"), SimTime::ZERO, &t)
            .unwrap();
        // Past the deadline the sweep leaves it for expire() to count.
        let late = SimTime::ZERO + Duration::from_secs(1);
        let (delivered, reparked) = fw.redeliver_remote_pending(late, &t);
        assert_eq!((delivered, reparked), (0, 0));
        assert_eq!(fw.expire_pending(late), 1);
        assert_eq!(fw.stats().expired, 1);
    }

    #[test]
    fn wire_roundtrip_through_inbound_counts_bytes() {
        let mut fw = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
        fw.add_vm("vm_script");
        let addr = AgentAddress::new("alice", "webbot", Instance::from_u64(1));
        fw.register_agent(&addr, "vm_script", SimTime::ZERO);
        let mut m = msg("alice", "alice/webbot:1");
        m.from_host = "h2".into();
        let wire = bytes::Bytes::from(m.encode());
        let d = fw.route_inbound_wire_bytes(&wire, SimTime::ZERO).unwrap();
        assert!(matches!(d, Decision::DeliverLocal { .. }));
        let stats = fw.stats();
        assert_eq!(stats.frames_received, 1);
        assert_eq!(stats.bytes_received, wire.len() as u64);
    }

    #[test]
    fn admin_stats_reports_counter_line() {
        let mut fw = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
        fw.add_vm("vm_script");
        let mut m = msg("admin@h1", "firewall");
        m.briefcase.set_single(folders::COMMAND, "stats");
        let Decision::Admin { reply, .. } = fw.route_outbound(m, SimTime::ZERO).unwrap() else {
            panic!()
        };
        let line = reply.single_str("STATS").unwrap();
        assert!(line.contains("tx-frames=0"), "{line}");
        assert!(line.contains("retry-timeouts=0"), "{line}");
    }

    #[test]
    fn journal_records_park_ship_and_hop_lifecycle() {
        use tacoma_journal::JournalConfig;
        let dir = std::env::temp_dir().join(format!("taxfw-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
        let journal = Arc::new(journal);

        let mut fw = fw();
        fw.set_journal(Arc::clone(&journal));

        // A park caused by an unreachable peer is journaled write-ahead…
        let t = FlakyTransport::down();
        fw.dispatch_outbound(msg("alice", "tacoma://h2/ag_fs"), SimTime::ZERO, &t)
            .unwrap();
        assert_eq!(journal.stats().parked, 1);

        // …and marked delivered when the redelivery sweep ships it.
        t.restore();
        let (delivered, _) = fw.redeliver_remote_pending(SimTime::ZERO, &t);
        assert_eq!(delivered, 1);
        assert_eq!(journal.stats().parked, 0);

        // A keyed transfer is begun write-ahead and committed on ack.
        let transfer = |hop: &str| {
            let mut bc = Briefcase::new();
            bc.set_single(folders::AGENT_NAME, "webbot");
            Message::transfer(
                "h1",
                Principal::new("alice").unwrap(),
                "tacoma://h2/vm_script".parse().unwrap(),
                bc,
                false,
            )
            .with_hop(hop, None)
        };
        fw.dispatch_outbound(transfer("k1"), SimTime::ZERO, &t)
            .unwrap();
        let js = journal.stats();
        assert_eq!((js.open_hops, js.committed_hops), (0, 1));

        // An undeliverable transfer's hop is aborted — terminal, so a
        // replay will never re-run a hop the agent already saw fail.
        let down = FlakyTransport::down();
        assert!(fw
            .dispatch_outbound(transfer("k2"), SimTime::ZERO, &down)
            .is_err());
        let js = journal.stats();
        assert_eq!((js.open_hops, js.committed_hops), (0, 2));

        // Local parks (absent receiver) and expiry are journaled too.
        fw.set_queue_timeout(Duration::from_millis(10));
        fw.route_outbound(msg("alice", "alice/nobody"), SimTime::ZERO)
            .unwrap();
        assert_eq!(journal.stats().parked, 1);
        fw.expire_pending(SimTime::ZERO + Duration::from_secs(1));
        assert_eq!(journal.stats().parked, 0);

        // The stats line mirrors the journal gauges.
        let stats = fw.stats();
        assert!(stats.journal_records > 0);
        assert!(stats.journal_fsyncs > 0);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A nonblocking transport stub: enqueues everything, then completes
    /// each token with a scripted result when pumped. Blocking sends
    /// succeed immediately and are counted.
    #[derive(Debug, Default)]
    struct NowaitTransport {
        fail: std::sync::atomic::AtomicBool,
        /// Refuse the nonblocking path, as a full peer queue does.
        refuse: std::sync::atomic::AtomicBool,
        queued: parking_lot::Mutex<Vec<u64>>,
        blocking_sends: parking_lot::Mutex<usize>,
        /// When set, the journal's `(records, fsyncs)` at each
        /// nonblocking send.
        watch: Option<Arc<Journal>>,
        seen: parking_lot::Mutex<Vec<(u64, u64)>>,
    }

    impl tacoma_transport::Transport for NowaitTransport {
        fn send(
            &self,
            _from: &str,
            _to_host: &str,
            _to_port: u16,
            _payload: &[u8],
        ) -> Result<(), tacoma_transport::TransportError> {
            *self.blocking_sends.lock() += 1;
            Ok(())
        }

        fn stats(&self) -> tacoma_transport::TransportStats {
            tacoma_transport::TransportStats::default()
        }

        fn kind(&self) -> &'static str {
            "nowait-stub"
        }

        fn send_nowait(
            &self,
            _from: &str,
            _to_host: &str,
            _to_port: u16,
            _payload: bytes::Bytes,
            token: u64,
        ) -> Result<(), tacoma_transport::TransportError> {
            if self.refuse.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(tacoma_transport::TransportError::QueueFull {
                    host: "h2".into(),
                    capacity: 0,
                });
            }
            if let Some(journal) = &self.watch {
                let js = journal.stats();
                self.seen.lock().push((js.records, js.fsyncs));
            }
            self.queued.lock().push(token);
            Ok(())
        }

        fn drain_completions(&self) -> Vec<tacoma_transport::Completion> {
            let fail = self.fail.load(std::sync::atomic::Ordering::SeqCst);
            self.queued
                .lock()
                .drain(..)
                .map(|token| tacoma_transport::Completion {
                    token,
                    result: if fail {
                        Err(tacoma_transport::TransportError::RetriesExhausted {
                            host: "h2".into(),
                            attempts: 1,
                            last: "scripted failure".into(),
                        })
                    } else {
                        Ok(())
                    },
                })
                .collect()
        }
    }

    #[test]
    fn nowait_ship_settles_on_pump() {
        let mut fw = fw();
        let t = NowaitTransport::default();
        let d = fw
            .dispatch_outbound(msg("alice", "tacoma://h2/ag_fs"), SimTime::ZERO, &t)
            .unwrap();
        assert!(matches!(d, Decision::Forwarded { ref host, .. } if host == "h2"));
        assert_eq!(fw.transport_inflight(), 1);
        // Books are settled only when the completion comes back.
        assert_eq!(fw.stats().frames_sent, 0);
        assert_eq!(fw.pump_transport(SimTime::ZERO, &t), 1);
        assert_eq!(fw.transport_inflight(), 0);
        let stats = fw.stats();
        assert_eq!(stats.frames_sent, 1);
        assert!(stats.bytes_sent > 0);
    }

    #[test]
    fn failed_nowait_completion_parks_for_redelivery() {
        let mut fw = fw();
        let t = NowaitTransport::default();
        fw.dispatch_outbound(msg("alice", "tacoma://h2/ag_fs"), SimTime::ZERO, &t)
            .unwrap();
        t.fail.store(true, std::sync::atomic::Ordering::SeqCst);
        assert_eq!(fw.pump_transport(SimTime::ZERO, &t), 1);
        let stats = fw.stats();
        assert_eq!(stats.frames_sent, 0);
        assert_eq!(stats.retry_timeouts, 1);
        assert_eq!(stats.queued, 1);
        assert_eq!(fw.pending_len(), 1, "failed ship parked, not lost");

        // The redelivery sweep picks it up over a (blocking) transport.
        let up = FlakyTransport::up();
        let (delivered, reparked) = fw.redeliver_remote_pending(SimTime::ZERO, &up);
        assert_eq!((delivered, reparked), (1, 0));
        assert_eq!(fw.pending_len(), 0);
    }

    #[test]
    fn transfers_take_the_blocking_path_even_on_nowait_transports() {
        use tacoma_journal::JournalConfig;
        let dir = std::env::temp_dir().join(format!("taxfw-nowait-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
        let journal = Arc::new(journal);

        let mut fw = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
        fw.add_vm("vm_script");
        fw.set_journal(Arc::clone(&journal));

        let mut bc = Briefcase::new();
        bc.set_single(folders::AGENT_NAME, "webbot");
        let transfer = Message::transfer(
            "h1",
            Principal::new("alice").unwrap(),
            "tacoma://h2/vm_script".parse().unwrap(),
            bc,
            false,
        )
        .with_hop("aa11", None);

        // A `go` that wants its verdict now (a native program's) learns
        // its fate synchronously — the hop is begun, sent blocking, and
        // committed before dispatch returns. Suspendable agents use
        // `dispatch_transfer` instead.
        let t = NowaitTransport::default();
        let d = fw.dispatch_outbound(transfer, SimTime::ZERO, &t).unwrap();
        assert!(matches!(d, Decision::Forwarded { .. }));
        assert_eq!(fw.transport_inflight(), 0, "transfers never ride nowait");
        assert_eq!(*t.blocking_sends.lock(), 1);
        let js = journal.stats();
        assert_eq!((js.open_hops, js.committed_hops), (0, 1));
        assert_eq!(fw.stats().frames_sent, 1);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn journaled_fw(tag: &str) -> (Firewall, Arc<Journal>, std::path::PathBuf) {
        use tacoma_journal::JournalConfig;
        let dir = std::env::temp_dir().join(format!("taxfw-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
        let journal = Arc::new(journal);
        let mut fw = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
        fw.add_vm("vm_script");
        fw.set_journal(Arc::clone(&journal));
        (fw, journal, dir)
    }

    fn keyed_transfer(key: &str) -> Message {
        let mut bc = Briefcase::new();
        bc.set_single(folders::AGENT_NAME, "webbot");
        bc.set_single("TAG", key);
        Message::transfer(
            "h1",
            Principal::new("alice").unwrap(),
            "tacoma://h2/vm_script".parse().unwrap(),
            bc,
            false,
        )
        .with_hop(key, None)
    }

    #[test]
    fn transfers_ride_nowait_and_settle_by_verdict() {
        let (mut fw, journal, dir) = journaled_fw("inflight");
        let t = NowaitTransport::default();
        let Decision::InFlight { token } = fw
            .dispatch_transfer(keyed_transfer("aa11"), SimTime::ZERO, &t)
            .unwrap()
        else {
            panic!("a transfer on a nowait transport is left in flight");
        };
        assert_eq!(fw.transport_inflight(), 1);
        assert_eq!(*t.blocking_sends.lock(), 0);
        assert_eq!(journal.stats().open_hops, 1, "begun before it ships");

        assert_eq!(fw.release_held(&t), 1);
        assert_eq!(fw.pump_transport(SimTime::ZERO, &t), 1);
        assert_eq!(fw.take_verdicts(), vec![(token, Ok(()))]);
        assert_eq!(fw.transport_inflight(), 0);
        let js = journal.stats();
        assert_eq!((js.open_hops, js.committed_hops), (0, 1));
        assert_eq!(fw.stats().frames_sent, 1);

        // A lost frame aborts its hop and reports the failure.
        let Decision::InFlight { token } = fw
            .dispatch_transfer(keyed_transfer("bb22"), SimTime::ZERO, &t)
            .unwrap()
        else {
            panic!("in flight");
        };
        fw.release_held(&t);
        t.fail.store(true, std::sync::atomic::Ordering::SeqCst);
        fw.pump_transport(SimTime::ZERO, &t);
        let verdicts = fw.take_verdicts();
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].0, token);
        assert!(matches!(verdicts[0].1, Err(FirewallError::Transport(_))));
        // Aborted is terminal: the journal closes the hop either way.
        let js = journal.stats();
        assert_eq!((js.open_hops, js.committed_hops), (0, 2));
        assert_eq!(fw.stats().retry_timeouts, 1);
        assert_eq!(fw.pending_len(), 0, "a lost transfer is not parked");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_transfer_frame_reaches_the_transport_before_its_hop_begin_is_durable() {
        let (mut fw, journal, dir) = journaled_fw("barrier");
        let t = NowaitTransport {
            watch: Some(Arc::clone(&journal)),
            ..NowaitTransport::default()
        };
        let before = journal.stats();
        for key in ["k1", "k2", "k3"] {
            let d = fw
                .dispatch_transfer(keyed_transfer(key), SimTime::ZERO, &t)
                .unwrap();
            assert!(matches!(d, Decision::InFlight { .. }));
        }
        // Three begins appended, none synced, and nothing sent.
        let appended = journal.stats();
        assert_eq!(appended.records, before.records + 3);
        assert_eq!(appended.fsyncs, before.fsyncs);
        assert!(t.seen.lock().is_empty(), "no frame before the barrier");

        assert_eq!(fw.release_held(&t), 3);
        // Every frame went out after exactly one fsync that covered all
        // three begins.
        let seen = t.seen.lock().clone();
        assert_eq!(seen.len(), 3);
        for (records, fsyncs) in seen {
            assert_eq!(records, before.records + 3);
            assert_eq!(fsyncs, before.fsyncs + 1);
        }
        assert_eq!(fw.release_held(&t), 0, "nothing held twice");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_full_queue_sends_a_held_transfer_blocking() {
        let (mut fw, journal, dir) = journaled_fw("queuefull");
        let t = NowaitTransport::default();
        t.refuse.store(true, std::sync::atomic::Ordering::SeqCst);
        let Decision::InFlight { token } = fw
            .dispatch_transfer(keyed_transfer("cc33"), SimTime::ZERO, &t)
            .unwrap()
        else {
            panic!("in flight");
        };
        fw.release_held(&t);
        assert_eq!(*t.blocking_sends.lock(), 1);
        // Settled by the blocking send, without a pump.
        assert_eq!(fw.take_verdicts(), vec![(token, Ok(()))]);
        assert_eq!(fw.transport_inflight(), 0);
        assert_eq!(journal.stats().committed_hops, 1);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn expire_pending_counts() {
        let mut fw = fw();
        fw.set_queue_timeout(Duration::from_millis(10));
        fw.route_outbound(msg("alice", "alice/nobody"), SimTime::ZERO)
            .unwrap();
        assert_eq!(fw.expire_pending(SimTime::ZERO + Duration::from_secs(1)), 1);
        assert_eq!(fw.stats().expired, 1);
    }
}

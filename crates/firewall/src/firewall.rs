//! The firewall proper: policy decisions for every mediated message.
//! Its submodules route messages, ship and park them, and replay the
//! journal at boot.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use tacoma_briefcase::{folders, Briefcase};
use tacoma_journal::Journal;
use tacoma_security::Digest;
use tacoma_security::{Policy, Principal, Rights, SecurityError, Signature, TrustStore};
use tacoma_simnet::SimTime;
use tacoma_uri::{AgentAddress, Instance};
use tacoma_vm::LaunchCaches;

use crate::{
    AdmissionPolicy, FirewallError, FirewallStats, Message, PendingQueue, Registry,
    DEFAULT_QUEUE_TIMEOUT,
};
use shipping::{HeldFrame, ShipTicket};

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
    inflight: HashMap<u64, (Bytes, ShipTicket)>,
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

    /// Mutable access to the mediation counters, for absorbing transport
    /// gauges before reporting.
    pub fn stats_mut(&mut self) -> &mut FirewallStats {
        &mut self.stats
    }
}

mod replay;
mod routing;
mod shipping;

#[cfg(test)]
mod tests;

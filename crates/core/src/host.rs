//! [`TaxHost`]: one machine of Figure 1 — firewall, virtual machines,
//! service agents, native programs, and the local scheduler state.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::BuildHasher;
use std::sync::Arc;

use crossbeam::channel::Receiver;
use parking_lot::{Mutex, RwLock};
use tacoma_briefcase::Briefcase;
use tacoma_firewall::{Firewall, FirewallError};
use tacoma_security::{Policy, TrustStore};
use tacoma_simnet::Envelope;
use tacoma_simnet::{HostId, SimTime};
use tacoma_uri::{AgentAddress, DEFAULT_PORT};
use tacoma_vm::{Architecture, NativeRegistry, Suspension, VirtualMachine, VmBin, VmC, VmScript};

use crate::event::{EventKind, HostEvent};
use crate::service::ServiceAgent;
use crate::services::{AgCabinet, AgCc, AgExec, AgFs, AgLog};
use crate::wrapper::{WrapperFactory, WrapperStack};
use crate::{wrappers, TaxError};

/// One agent execution scheduled on a host: run `address`'s briefcase on
/// VM `vm`. `hop` carries the journal dedup key of the migration that
/// delivered the agent, if any; the kernel commits it when the task
/// reaches a terminal outcome. A task with `resume` carries on a run
/// that suspended at a `go`/`spawn`/`await_bc` instead of starting one:
/// the continuation, and the answer its pending call is given.
#[derive(Debug)]
pub(crate) struct AgentTask {
    pub vm: String,
    pub address: AgentAddress,
    pub briefcase: Briefcase,
    pub hop: Option<String>,
    pub resume: Option<(Suspension, Settled)>,
}

/// The answer a woken run's pending call is given, as its hooks report
/// it.
#[derive(Debug)]
pub(crate) enum Settled {
    /// A `go`/`spawn`'s transfer verdict (`Ok` when the peer acknowledged
    /// the frame), with the child instance a pending `spawn` allocated.
    Transfer(Result<(), FirewallError>, Option<String>),
    /// An `await_bc`'s mail, or none once its deadline passed.
    Mail(Option<Briefcase>),
}

/// What a suspended task is parked on, in [`HostCore::waiting`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Wait {
    /// The verdict on the transfer with this ship token.
    Transfer(u64),
    /// Mail for this agent.
    Mail(AgentAddress),
}

/// A task parked on a [`Wait`], with its continuation.
pub(crate) struct Parked {
    pub task: AgentTask,
    pub suspension: Suspension,
    /// The child instance a pending `spawn` pre-allocated.
    pub spawned: Option<String>,
    /// When a parked `await_bc` gives up.
    pub deadline: Option<SimTime>,
}

pub(crate) struct HostCore {
    pub name: HostId,
    pub arch: Architecture,
    pub firewall: RwLock<Firewall>,
    pub services: RwLock<BTreeMap<String, Arc<dyn ServiceAgent>>>,
    pub natives: RwLock<NativeRegistry>,
    pub vms: RwLock<BTreeMap<String, Arc<dyn VirtualMachine>>>,
    pub tasks: Mutex<VecDeque<AgentTask>>,
    pub parked: Mutex<Vec<AgentTask>>,
    /// Tasks suspended on an in-flight transfer or in `await_bc`.
    pub waiting: Mutex<HashMap<Wait, Parked>>,
    pub mailboxes: Mutex<HashMap<AgentAddress, VecDeque<Briefcase>>>,
    pub wrappers: Mutex<HashMap<AgentAddress, WrapperStack>>,
    pub events: Mutex<Vec<HostEvent>>,
    pub inbox: Mutex<Option<Receiver<Envelope>>>,
    pub factory: RwLock<WrapperFactory>,
    pub allow_unsigned: bool,
    pub fuel: u64,
    /// The host's durable journal, attached once at daemon boot (hosts in
    /// pure simulations have none). Shared with the firewall; the kernel
    /// uses this handle to commit hops when installed tasks finish.
    pub journal: std::sync::OnceLock<Arc<tacoma_journal::Journal>>,
    /// Drawn when the journal is attached, and mixed into root hop keys:
    /// a rebooted daemon's instance counter starts over, and its keys
    /// must not repeat the ones an earlier boot committed.
    pub boot_nonce: std::sync::OnceLock<u64>,
}

/// A handle to one simulated machine. Cloning shares the host.
#[derive(Clone)]
pub struct TaxHost {
    pub(crate) core: Arc<HostCore>,
}

impl TaxHost {
    /// The host's name.
    pub fn name(&self) -> &str {
        self.core.name.as_str()
    }

    /// The host's [`HostId`].
    pub fn host_id(&self) -> &HostId {
        &self.core.name
    }

    /// The host's architecture tag.
    pub fn arch(&self) -> &Architecture {
        &self.core.arch
    }

    /// Runs `f` with the host's firewall locked for writing.
    pub fn with_firewall<R>(&self, f: impl FnOnce(&mut Firewall) -> R) -> R {
        f(&mut self.core.firewall.write())
    }

    /// Runs `f` with the host's firewall locked for reading, for status
    /// checks and rights lookups that change nothing.
    pub fn with_firewall_read<R>(&self, f: impl FnOnce(&Firewall) -> R) -> R {
        f(&self.core.firewall.read())
    }

    /// Installs a native program (e.g. the Webbot binary) under `key`.
    pub fn install_native<F>(&self, key: impl Into<String>, program: F)
    where
        F: Fn(
                &mut Briefcase,
                &mut dyn tacoma_vm::HostHooks,
            ) -> Result<tacoma_vm::Outcome, tacoma_vm::VmError>
            + Send
            + Sync
            + 'static,
    {
        self.core.natives.write().install_fn(key, program);
    }

    /// Registers an additional service agent, addressable by its name.
    pub fn add_service(&self, service: Arc<dyn ServiceAgent>) {
        let name = service.name().to_owned();
        {
            let mut firewall = self.core.firewall.write();
            let system = firewall.local_system().clone();
            let instance = firewall.allocate_instance();
            let address = AgentAddress::new(system.as_str(), &name, instance);
            firewall.register_agent(&address, "service", SimTime::ZERO);
        }
        self.core.services.write().insert(name, service);
    }

    /// Looks up a service agent by name.
    pub fn service(&self, name: &str) -> Option<Arc<dyn ServiceAgent>> {
        self.core.services.read().get(name).cloned()
    }

    /// A snapshot of this host's event log.
    pub fn events(&self) -> Vec<HostEvent> {
        self.core.events.lock().clone()
    }

    /// Clears the event log (between experiment repetitions).
    pub fn clear_events(&self) {
        self.core.events.lock().clear();
    }

    /// All `display` output recorded on this host, in order.
    pub fn displayed(&self) -> Vec<String> {
        self.core
            .events
            .lock()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Display(text) => Some(text.clone()),
                _ => None,
            })
            .collect()
    }

    /// Number of agent executions waiting on this host.
    pub fn queued_tasks(&self) -> usize {
        self.core.tasks.lock().len()
    }

    /// The briefcase of the next queued agent execution, if any — an
    /// inspection helper for tests and tooling (the queue is unchanged).
    pub fn peek_task_briefcase(&self) -> Option<Briefcase> {
        self.core.tasks.lock().front().map(|t| t.briefcase.clone())
    }

    pub(crate) fn record(&self, at: SimTime, agent: Option<AgentAddress>, kind: EventKind) {
        self.core.events.lock().push(HostEvent { at, agent, kind });
    }

    pub(crate) fn push_task(&self, task: AgentTask) {
        self.core.tasks.lock().push_back(task);
    }

    /// Takes every queued task at once — a tick's batch snapshot. Tasks
    /// queued afterwards (e.g. agents arriving mid-tick) wait for the
    /// next tick.
    pub(crate) fn drain_tasks(&self) -> Vec<AgentTask> {
        self.core.tasks.lock().drain(..).collect()
    }

    /// Puts tasks a batch never started back at the front of the queue,
    /// in their order, ahead of any queued since.
    pub(crate) fn requeue_front(&self, tasks: impl DoubleEndedIterator<Item = AgentTask>) {
        let mut queue = self.core.tasks.lock();
        for task in tasks.rev() {
            queue.push_front(task);
        }
    }

    /// Takes the task parked on `wait`, if any.
    pub(crate) fn unpark(&self, wait: &Wait) -> Option<Parked> {
        self.core.waiting.lock().remove(wait)
    }

    /// Queues an unparked task to resume, its pending call answered with
    /// `settled`.
    pub(crate) fn wake(&self, mut parked: Parked, settled: Settled) {
        parked.task.resume = Some((parked.suspension, settled));
        self.push_task(parked.task);
    }

    /// The earliest deadline among this host's parked `await_bc`s, with
    /// its agent; ties go by agent address.
    pub(crate) fn first_deadline(&self) -> Option<(SimTime, AgentAddress)> {
        self.core
            .waiting
            .lock()
            .values()
            .filter_map(|p| Some((p.deadline?, &p.task.address)))
            .min()
            .map(|(at, agent)| (at, agent.clone()))
    }

    pub(crate) fn push_mail(&self, to: &AgentAddress, briefcase: Briefcase) {
        self.core
            .mailboxes
            .lock()
            .entry(to.clone())
            .or_default()
            .push_back(briefcase);
    }

    pub(crate) fn pop_mail(&self, of: &AgentAddress) -> Option<Briefcase> {
        self.core
            .mailboxes
            .lock()
            .get_mut(of)
            .and_then(VecDeque::pop_front)
    }

    pub(crate) fn set_inbox(&self, inbox: Receiver<Envelope>) {
        *self.core.inbox.lock() = Some(inbox);
    }

    pub(crate) fn try_recv_envelope(&self) -> Option<Envelope> {
        self.core
            .inbox
            .lock()
            .as_ref()
            .and_then(|rx| rx.try_recv().ok())
    }

    pub(crate) fn inbox_is_empty(&self) -> bool {
        self.core
            .inbox
            .lock()
            .as_ref()
            .is_none_or(crossbeam::channel::Receiver::is_empty)
    }

    pub(crate) fn drop_agent_state(&self, address: &AgentAddress) {
        self.core.mailboxes.lock().remove(address);
        self.core.wrappers.lock().remove(address);
    }

    /// Attaches the host's durable journal (at most once, at daemon
    /// boot): both the firewall (parking, shipping) and the kernel (hop
    /// completion) journal through the same handle.
    pub fn attach_journal(&self, journal: Arc<tacoma_journal::Journal>) {
        // The wall clock under this process's random hash keys.
        let nonce = RandomState::new().hash_one(std::time::SystemTime::now());
        let _ = self.core.boot_nonce.set(nonce);
        self.with_firewall(|fw| fw.set_journal(Arc::clone(&journal)));
        let _ = self.core.journal.set(journal);
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Arc<tacoma_journal::Journal>> {
        self.core.journal.get()
    }
}

impl std::fmt::Debug for TaxHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaxHost")
            .field("name", &self.core.name)
            .field("arch", &self.core.arch)
            .field("tasks", &self.core.tasks.lock().len())
            .finish()
    }
}

/// Configures and builds one [`TaxHost`].
#[derive(Debug)]
pub struct HostBuilder {
    name: HostId,
    port: u16,
    policy: Policy,
    trust: TrustStore,
    arch: Architecture,
    fuel: u64,
    allow_unsigned: bool,
    extra_vms: Vec<String>,
}

impl HostBuilder {
    /// A builder for a host with the given name.
    ///
    /// # Errors
    ///
    /// [`TaxError::Net`] if the name is not a valid host name.
    pub fn new(name: &str) -> Result<Self, TaxError> {
        Ok(HostBuilder {
            name: HostId::new(name)?,
            port: DEFAULT_PORT,
            policy: Policy::trusting(),
            trust: TrustStore::new(),
            arch: Architecture::simulated(),
            fuel: tacoma_taxscript::DEFAULT_FUEL,
            allow_unsigned: true,
            extra_vms: Vec::new(),
        })
    }

    /// Sets the firewall's authorization policy. Setting a policy also
    /// turns off the unsigned-binary allowance; grant it back explicitly
    /// with [`HostBuilder::allow_unsigned`] if wanted.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self.allow_unsigned = false;
        self
    }

    /// Installs a trusted verification key.
    pub fn trust_key(mut self, key: tacoma_security::PublicKey) -> Self {
        self.trust.trust(key);
        self
    }

    /// Whether unsigned binaries may execute (default: yes, the
    /// single-domain deployment of §2).
    pub fn allow_unsigned(mut self, allow: bool) -> Self {
        self.allow_unsigned = allow;
        self
    }

    /// Overrides the firewall port.
    pub fn port(mut self, port: u16) -> Self {
        self.port = port;
        self
    }

    /// Overrides the architecture tag.
    pub fn arch(mut self, arch: Architecture) -> Self {
        self.arch = arch;
        self
    }

    /// Overrides the per-execution instruction budget.
    pub fn fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// The host's name.
    pub fn name(&self) -> &HostId {
        &self.name
    }

    /// Additional script-VM names to expose ("additional virtual
    /// machines" from the paper's future work): each becomes a landing
    /// pad running the TaxScript engine, e.g. `vm_perl`.
    pub fn extra_script_vms<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.extra_vms.extend(names.into_iter().map(Into::into));
        self
    }

    /// Builds the host with the standard VMs (`vm_script`, `vm_bin`,
    /// `vm_c`), standard services (`ag_exec`, `ag_cc`, `ag_fs`,
    /// `ag_cabinet`, `ag_log`), and the standard wrapper factory.
    pub fn build(self) -> TaxHost {
        // The host's own system principal always has full capabilities —
        // its service agents are the resource managers (§3.3).
        let mut policy = self.policy;
        policy.grant(
            tacoma_security::Principal::local_system(self.name.as_str()),
            tacoma_security::Rights::ALL,
        );
        let mut firewall = Firewall::new(self.name.as_str(), self.port, policy, self.trust);

        // One set of launch caches per host: the firewall's admission
        // analysis and every VM here share it, so an agent admitted at the
        // door is a warm hit in the VM, and no other host sees it.
        let caches = Arc::clone(firewall.launch_caches());
        let mut vms: BTreeMap<String, Arc<dyn VirtualMachine>> = BTreeMap::new();
        let mut standard: Vec<Arc<dyn VirtualMachine>> = vec![
            Arc::new(VmBin::sharing(Arc::clone(&caches))),
            Arc::new(VmC::sharing(Arc::clone(&caches))),
        ];
        for name in std::iter::once("vm_script").chain(self.extra_vms.iter().map(String::as_str)) {
            standard.push(Arc::new(VmScript::sharing(name, Arc::clone(&caches))));
        }
        for vm in standard {
            firewall.add_vm(vm.name());
            vms.insert(vm.name().to_owned(), vm);
        }

        let host = TaxHost {
            core: Arc::new(HostCore {
                name: self.name,
                arch: self.arch,
                firewall: RwLock::new(firewall),
                services: RwLock::new(BTreeMap::new()),
                natives: RwLock::new(NativeRegistry::new()),
                vms: RwLock::new(vms),
                tasks: Mutex::new(VecDeque::new()),
                parked: Mutex::new(Vec::new()),
                waiting: Mutex::new(HashMap::new()),
                mailboxes: Mutex::new(HashMap::new()),
                wrappers: Mutex::new(HashMap::new()),
                events: Mutex::new(Vec::new()),
                inbox: Mutex::new(None),
                factory: RwLock::new(wrappers::standard_factory()),
                allow_unsigned: self.allow_unsigned,
                fuel: self.fuel,
                journal: std::sync::OnceLock::new(),
                boot_nonce: std::sync::OnceLock::new(),
            }),
        };

        host.add_service(Arc::new(AgExec::new()));
        host.add_service(Arc::new(AgCc::new()));
        host.add_service(Arc::new(AgFs::new()));
        host.add_service(Arc::new(AgCabinet::new()));
        host.add_service(Arc::new(AgLog::new()));
        host
    }
}

//! The parallel tick scheduler's machinery: per-batch execution scopes,
//! the merged system event log, the worker pool, and the deferred simnet
//! transport.
//!
//! # The tick model
//!
//! [`TaxSystem::step`](crate::TaxSystem::step) in tick mode (enabled with
//! [`SystemBuilder::threads`](crate::SystemBuilder::threads)) is a
//! bulk-synchronous step:
//!
//! 1. **Pump** — every host's inbox drains in host order, exactly as the
//!    classic scheduler does (message delivery and the synchronous
//!    service work it triggers run on the global clock).
//! 2. **Execute** — each host's queued agent tasks are snapshotted into
//!    one *batch* per host. Batches run concurrently on the worker pool;
//!    tasks within a batch run in FIFO order (one CPU per machine).
//!    Every batch executes inside a [`TaskScope`]: a private virtual
//!    clock forked from the global clock at tick start, a loss RNG seeded
//!    from `(system seed, host, tick)`, and a buffer of deferred sends.
//! 3. **Barrier** — deferred envelopes flush to the message bus in host
//!    order, and the global clock advances to the *maximum* of the
//!    batches' final clocks (parallel work overlaps in virtual time, so
//!    the tick's virtual cost is its makespan, not its sum).
//!
//! Because a batch's clock, RNG, and send buffer are all derived from
//! per-tick state that does not depend on how many worker threads drain
//! the batch queue, a run with one worker and a run with N workers
//! produce identical event traces. See `docs/scheduler.md` for the exact
//! determinism contract.

use std::cell::RefCell;
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tacoma_simnet::{Envelope, HostId, MessageBus, NetError, Network, SimClock, SimTime};
use tacoma_transport::{Transport, TransportCounters, TransportError, TransportStats};

use crate::event::{EventKind, HostEvent};

// ---------------------------------------------------------------------------
// Task scopes
// ---------------------------------------------------------------------------

/// The execution context of one host batch during a parallel tick: a
/// forked clock, a deterministic loss RNG, and the tick's deferred sends.
///
/// Installed thread-locally while the batch runs; every kernel primitive
/// that touches virtual time, loss randomness, or the simnet bus checks
/// [`TaskScope::current`] first.
pub(crate) struct TaskScope {
    /// Private virtual clock, forked from the global clock at tick start.
    pub clock: SimClock,
    /// Loss RNG seeded from `(system seed, host index, tick)`.
    pub rng: Mutex<StdRng>,
    /// Envelopes charged during the batch, delivered at the barrier.
    pub sends: Mutex<Vec<Envelope>>,
}

thread_local! {
    static CURRENT_SCOPE: RefCell<Option<Arc<TaskScope>>> = const { RefCell::new(None) };
}

impl TaskScope {
    /// A scope starting at `start` with the given RNG seed.
    pub fn new(start: SimTime, rng_seed: u64) -> Arc<TaskScope> {
        Arc::new(TaskScope {
            clock: SimClock::starting_at(start),
            rng: Mutex::new(StdRng::seed_from_u64(rng_seed)),
            sends: Mutex::new(Vec::new()),
        })
    }

    /// Re-arms an already allocated scope for a new batch: clock forked
    /// from `start`, RNG reseeded, sends cleared (capacity kept).
    ///
    /// A reset scope is indistinguishable from a fresh [`TaskScope::new`],
    /// so the scheduler reuses scope allocations (and their send-buffer
    /// capacity) across ticks without affecting the deterministic trace.
    pub fn reset(&self, start: SimTime, rng_seed: u64) {
        self.clock.reset();
        self.clock.advance_to(start);
        *self.rng.lock() = StdRng::seed_from_u64(rng_seed);
        self.sends.lock().clear();
    }

    /// The scope installed on this thread, if a batch is executing.
    pub fn current() -> Option<Arc<TaskScope>> {
        CURRENT_SCOPE.with(|c| c.borrow().clone())
    }

    /// Installs `scope` on this thread until the guard drops.
    pub fn enter(scope: Arc<TaskScope>) -> ScopeGuard {
        CURRENT_SCOPE.with(|c| *c.borrow_mut() = Some(scope));
        ScopeGuard
    }
}

/// Clears the thread's scope on drop (including on unwind, so a panicking
/// batch cannot leak its scope into the next job on the worker).
pub(crate) struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT_SCOPE.with(|c| *c.borrow_mut() = None);
    }
}

/// Mixes the system seed, a host index, and a tick counter into one RNG
/// seed (splitmix64 finalizer), so every batch draws losses from its own
/// deterministic stream.
pub(crate) fn batch_seed(seed: u64, host_idx: u64, tick: u64) -> u64 {
    let mut x = seed
        ^ host_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ tick.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// The merged system log
// ---------------------------------------------------------------------------

/// One entry in the merged log: where it happened plus the event.
struct LogEntry {
    at: SimTime,
    host_idx: u32,
    host: String,
    event: HostEvent,
}

struct LogInner {
    entries: Vec<LogEntry>,
    sorted: bool,
}

/// The system-wide event log, maintained incrementally as hosts record.
///
/// Entries are appended in recording order and lazily stable-sorted by
/// `(virtual time, host index)` — which reproduces exactly the order the
/// classic `events()` produced by concatenating per-host logs in host
/// order and stable-sorting by time, without re-cloning and re-sorting
/// every log on every call.
pub(crate) struct SystemLog {
    inner: Mutex<LogInner>,
}

impl SystemLog {
    pub fn new() -> SystemLog {
        SystemLog {
            inner: Mutex::new(LogInner {
                entries: Vec::new(),
                sorted: true,
            }),
        }
    }

    /// Appends one event recorded on the host with index `host_idx`.
    pub fn record(&self, host_idx: u32, host: &str, event: HostEvent) {
        let mut inner = self.inner.lock();
        // Appending in timestamp order (the overwhelmingly common case)
        // keeps the log sorted without paying for a sort later.
        let in_order = inner
            .entries
            .last()
            .is_none_or(|last| (last.at, last.host_idx) <= (event.at, host_idx));
        inner.sorted = inner.sorted && in_order;
        inner.entries.push(LogEntry {
            at: event.at,
            host_idx,
            host: host.to_owned(),
            event,
        });
    }

    /// Drops every entry recorded on the host with index `host_idx`
    /// (mirrors [`TaxHost::clear_events`](crate::TaxHost::clear_events)).
    pub fn clear_host(&self, host_idx: u32) {
        self.inner.lock().entries.retain(|e| e.host_idx != host_idx);
    }

    fn ensure_sorted(inner: &mut LogInner) {
        if !inner.sorted {
            // Stable: entries with equal (time, host) keep recording
            // order, which is each host's per-event sequence.
            inner.entries.sort_by_key(|e| (e.at, e.host_idx));
            inner.sorted = true;
        }
    }

    /// The whole log in `(time, host index, per-host sequence)` order.
    pub fn snapshot(&self) -> Vec<(String, HostEvent)> {
        let mut inner = self.inner.lock();
        SystemLog::ensure_sorted(&mut inner);
        inner
            .entries
            .iter()
            .map(|e| (e.host.clone(), e.event.clone()))
            .collect()
    }

    /// Takes the whole log, in [`SystemLog::snapshot`] order, leaving it
    /// empty.
    pub fn drain(&self) -> Vec<(String, HostEvent)> {
        let mut inner = self.inner.lock();
        SystemLog::ensure_sorted(&mut inner);
        inner.entries.drain(..).map(|e| (e.host, e.event)).collect()
    }

    /// Every `display` line, in log order, without cloning other events.
    pub fn displays(&self) -> Vec<String> {
        let mut inner = self.inner.lock();
        SystemLog::ensure_sorted(&mut inner);
        inner
            .entries
            .iter()
            .filter_map(|e| match &e.event.kind {
                EventKind::Display(text) => Some(text.clone()),
                _ => None,
            })
            .collect()
    }
}

/// A host's handle into the merged log: the log plus the host's index in
/// directory (host-name) order.
#[derive(Clone)]
pub(crate) struct SystemLogHandle {
    pub log: Arc<SystemLog>,
    pub host_idx: u32,
}

// ---------------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent pool of scheduler workers draining a shared injector
/// channel — whichever worker is free steals the next host batch, so a
/// tick's wall time tracks its largest batch rather than its batch count.
pub(crate) struct WorkerPool {
    injector: Option<crossbeam::channel::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Persistent completion channel, reused across ticks instead of
    /// allocating a fresh channel per tick. Exactly `n` completions are
    /// consumed per `n` submissions, so the channel is empty between
    /// ticks.
    done_tx: crossbeam::channel::Sender<()>,
    done_rx: crossbeam::channel::Receiver<()>,
}

impl WorkerPool {
    /// Spawns `size` workers.
    pub fn new(size: usize) -> WorkerPool {
        let (tx, rx) = crossbeam::channel::unbounded::<Job>();
        let (done_tx, done_rx) = crossbeam::channel::unbounded::<()>();
        let workers = (0..size)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("tax-sched-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("spawn scheduler worker")
            })
            .collect();
        WorkerPool {
            injector: Some(tx),
            workers,
            done_tx,
            done_rx,
        }
    }

    /// Queues one batch job.
    pub fn submit(&self, job: Job) {
        if let Some(tx) = &self.injector {
            let _ = tx.send(job);
        }
    }

    /// A sender jobs use to signal completion to [`WorkerPool::wait`].
    pub fn done_sender(&self) -> crossbeam::channel::Sender<()> {
        self.done_tx.clone()
    }

    /// Blocks until `n` completion signals have arrived.
    pub fn wait(&self, n: usize) {
        for _ in 0..n {
            let _ = self.done_rx.recv();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the injector ends every worker's recv loop.
        self.injector = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Run outcome
// ---------------------------------------------------------------------------

/// How a [`run_until_quiet`](crate::TaxSystem::run_until_quiet) call
/// ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// No messages or tasks remained: the system genuinely went quiet.
    Quiesced {
        /// Scheduler steps executed before quiescence.
        steps: usize,
    },
    /// The step budget ran out with work still outstanding — almost
    /// always an agent ping-pong loop. A warning event is recorded.
    StepBudgetExhausted {
        /// Scheduler steps executed (the budget).
        steps: usize,
    },
}

impl RunOutcome {
    /// Scheduler steps executed.
    pub fn steps(&self) -> usize {
        match self {
            RunOutcome::Quiesced { steps } | RunOutcome::StepBudgetExhausted { steps } => *steps,
        }
    }

    /// Whether the system went quiet (as opposed to hitting the budget).
    pub fn quiesced(&self) -> bool {
        matches!(self, RunOutcome::Quiesced { .. })
    }
}

// ---------------------------------------------------------------------------
// Deferred simnet transport
// ---------------------------------------------------------------------------

/// The default outbound transport: the simnet bus, with sends deferred to
/// the tick barrier while a [`TaskScope`] is active.
///
/// Outside a scope it charges the transfer to the global clock and
/// delivers immediately. Inside a scope the transfer is charged to the
/// batch's clock and loss RNG, and the resulting envelope is buffered so
/// the barrier can hand envelopes to the bus in deterministic host order.
pub(crate) struct DeferredSimTransport {
    bus: MessageBus,
    net: Arc<Network>,
    counters: TransportCounters,
}

impl DeferredSimTransport {
    /// A transport over the given bus and network.
    pub fn new(bus: MessageBus, net: Arc<Network>) -> DeferredSimTransport {
        DeferredSimTransport {
            bus,
            net,
            counters: TransportCounters::new(),
        }
    }

    fn send_deferred(
        &self,
        scope: &TaskScope,
        from: &HostId,
        to: &HostId,
        payload: &[u8],
    ) -> Result<(), NetError> {
        // Mirror MessageBus::send: a missing destination must not consume
        // virtual time.
        if !self.bus.has_endpoint(to) {
            return Err(NetError::NoEndpoint { host: to.clone() });
        }
        // Single copy into the refcounted envelope buffer; `to_vec().into()`
        // would copy twice (Vec, then Arc storage).
        let payload = Bytes::copy_from_slice(payload);
        let outcome = self.net.transfer_with(
            from,
            to,
            payload.len() as u64,
            &scope.clock,
            &mut scope.rng.lock(),
        )?;
        scope.sends.lock().push(Envelope {
            from: from.clone(),
            to: to.clone(),
            payload,
            departed: outcome.departed,
            arrived: outcome.arrived,
            cost: outcome.cost,
        });
        Ok(())
    }
}

impl std::fmt::Debug for DeferredSimTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DeferredSimTransport")
    }
}

fn host_id(name: &str) -> Result<HostId, TransportError> {
    HostId::new(name).map_err(|e| TransportError::Unreachable {
        host: name.to_owned(),
        detail: e.to_string(),
    })
}

impl Transport for DeferredSimTransport {
    fn send(
        &self,
        from: &str,
        to_host: &str,
        _to_port: u16,
        payload: &[u8],
    ) -> Result<(), TransportError> {
        let from = host_id(from)?;
        let to = host_id(to_host)?;
        let result = match TaskScope::current() {
            Some(scope) => self.send_deferred(&scope, &from, &to, payload),
            None => self.bus.send(&from, &to, Bytes::copy_from_slice(payload)),
        };
        match result {
            Ok(()) => {
                self.counters.add_sent(payload.len() as u64);
                Ok(())
            }
            Err(e) => {
                self.counters.add_retry_timeout();
                Err(e.into())
            }
        }
    }

    fn stats(&self) -> TransportStats {
        self.counters.snapshot()
    }

    fn kind(&self) -> &'static str {
        "simnet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_is_thread_local_and_guard_clears() {
        assert!(TaskScope::current().is_none());
        let scope = TaskScope::new(SimTime::ZERO, 7);
        {
            let _guard = TaskScope::enter(Arc::clone(&scope));
            assert!(TaskScope::current().is_some());
            // Another thread sees no scope.
            std::thread::spawn(|| assert!(TaskScope::current().is_none()))
                .join()
                .unwrap();
        }
        assert!(TaskScope::current().is_none());
    }

    #[test]
    fn batch_seed_distinguishes_host_and_tick() {
        let base = batch_seed(1, 0, 1);
        assert_ne!(base, batch_seed(1, 1, 1));
        assert_ne!(base, batch_seed(1, 0, 2));
        assert_ne!(base, batch_seed(2, 0, 1));
        assert_eq!(base, batch_seed(1, 0, 1));
    }

    #[test]
    fn system_log_orders_like_the_classic_merge() {
        let log = SystemLog::new();
        let ev = |at: u64| HostEvent {
            at: SimTime::from_nanos(at),
            agent: None,
            kind: EventKind::Display(format!("t{at}")),
        };
        // Interleaved recording, including a late out-of-order entry.
        log.record(1, "beta", ev(10));
        log.record(0, "alpha", ev(10));
        log.record(0, "alpha", ev(20));
        log.record(1, "beta", ev(5));
        let order: Vec<(String, u64)> = log
            .snapshot()
            .into_iter()
            .map(|(h, e)| (h, e.at.as_nanos()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("beta".to_owned(), 5),
                ("alpha".to_owned(), 10),
                ("beta".to_owned(), 10),
                ("alpha".to_owned(), 20),
            ]
        );
        log.clear_host(1);
        assert_eq!(log.snapshot().len(), 2);
        assert_eq!(log.displays(), vec!["t10", "t20"]);
        // Draining hands back exactly the snapshot and leaves nothing.
        let snapshot = log.snapshot();
        assert_eq!(log.drain(), snapshot);
        assert!(log.snapshot().is_empty());
    }

    fn sim_transport() -> (DeferredSimTransport, MessageBus) {
        let mut topology = tacoma_simnet::Topology::new(tacoma_simnet::LinkSpec::lan_100mbit());
        topology.add_hosts([HostId::new("a").unwrap(), HostId::new("b").unwrap()]);
        let net = Arc::new(Network::new(topology, 3));
        let bus = MessageBus::new(Arc::clone(&net));
        (DeferredSimTransport::new(bus.clone(), net), bus)
    }

    #[test]
    fn sim_transport_delivers_and_counts() {
        let (transport, bus) = sim_transport();
        let rx = bus.register(HostId::new("b").unwrap());
        transport.send("a", "b", 4711, &[1, 2, 3]).unwrap();
        assert_eq!(rx.try_recv().unwrap().payload, vec![1, 2, 3]);
        let stats = transport.stats();
        assert_eq!((stats.frames_sent, stats.bytes_sent), (1, 3));
    }

    #[test]
    fn sim_transport_reports_a_missing_endpoint_as_unreachable() {
        let (transport, _bus) = sim_transport();
        let err = transport.send("a", "b", 4711, &[0; 8]).unwrap_err();
        assert!(matches!(err, TransportError::Unreachable { .. }));
        assert_eq!(transport.stats().retry_timeouts, 1);
    }

    #[test]
    fn worker_pool_runs_jobs_and_drains_on_drop() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = crossbeam::channel::unbounded();
        for i in 0..8u32 {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                let _ = tx.send(i);
            }));
        }
        drop(tx);
        let mut got: Vec<u32> = (0..8).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        drop(pool);
    }
}

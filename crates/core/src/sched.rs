//! The tick scheduler's machinery: per-batch execution scopes, the one
//! transfer charge, and the simnet transport.
//!
//! # The tick model
//!
//! [`TaxSystem::step`](crate::TaxSystem::step) is a bulk-synchronous
//! step on the calling thread:
//!
//! 1. **Pump** — every host's inbox drains in host order (message
//!    delivery and the synchronous service work it triggers run on the
//!    global clock).
//! 2. **Execute** — each host's queued agent tasks are snapshotted into
//!    one *batch* per host, and the batches run one after another in
//!    host order; tasks within a batch run in FIFO order (one CPU per
//!    machine). Every batch executes inside a [`TaskScope`]: a private
//!    virtual clock forked from the global clock at tick start and a loss
//!    RNG seeded from `(system seed, host, tick)`. Its sends land in the
//!    receivers' inboxes, which nothing reads before the next tick's
//!    pump, so no batch sees another batch's tick.
//! 3. **Barrier** — the global clock advances to the *maximum* of the
//!    batches' final clocks (the hosts are separate machines, so their
//!    batches overlap in virtual time and the tick costs its makespan,
//!    not its sum).
//!
//! A batch's clock and RNG depend only on per-tick state, never on the
//! batches run before it, so the same seed always produces the same event
//! trace. See `docs/scheduler.md` for the exact determinism contract.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tacoma_simnet::{
    Envelope, HostId, MessageBus, NetError, Network, SimClock, SimTime, TransferOutcome,
};
use tacoma_transport::{Transport, TransportCounters, TransportError, TransportStats};

// ---------------------------------------------------------------------------
// Task scopes
// ---------------------------------------------------------------------------

/// The execution context of one host batch during a tick: a forked
/// clock and a deterministic loss RNG.
///
/// Installed thread-locally while the batch runs; every kernel primitive
/// that touches virtual time, loss randomness, or the simnet bus borrows
/// it through [`TaskScope::with_current`] first.
pub(crate) struct TaskScope {
    /// Private virtual clock, forked from the global clock at tick start.
    pub clock: SimClock,
    /// Loss RNG seeded from `(system seed, host index, tick)`.
    pub rng: RefCell<StdRng>,
}

thread_local! {
    static CURRENT_SCOPE: RefCell<Option<Rc<TaskScope>>> = const { RefCell::new(None) };
}

impl TaskScope {
    /// A scope starting at `start` with the given RNG seed.
    pub fn new(start: SimTime, rng_seed: u64) -> Rc<TaskScope> {
        Rc::new(TaskScope {
            clock: SimClock::starting_at(start),
            rng: RefCell::new(StdRng::seed_from_u64(rng_seed)),
        })
    }

    /// Runs `f` on the scope installed on this thread (`None` outside a
    /// batch), borrowed in place.
    pub fn with_current<R>(f: impl FnOnce(Option<&TaskScope>) -> R) -> R {
        CURRENT_SCOPE.with_borrow(|scope| f(scope.as_deref()))
    }

    /// Installs `scope` on this thread until the guard drops.
    pub fn enter(scope: Rc<TaskScope>) -> ScopeGuard {
        CURRENT_SCOPE.set(Some(scope));
        ScopeGuard
    }
}

/// Clears the thread's scope on drop (including on unwind, so a panicking
/// batch cannot leak its scope into the next batch).
pub(crate) struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT_SCOPE.set(None);
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
// Simnet transport
// ---------------------------------------------------------------------------

/// Charges a transfer of `bytes` between two hosts to the executing
/// batch's clock and loss RNG while a [`TaskScope`] is installed, and to
/// the global clock and the network's own RNG otherwise.
pub(crate) fn charge_transfer(
    net: &Network,
    from: &HostId,
    to: &HostId,
    bytes: u64,
) -> Result<TransferOutcome, NetError> {
    TaskScope::with_current(|scope| match scope {
        Some(scope) => {
            net.transfer_with(from, to, bytes, &scope.clock, &mut scope.rng.borrow_mut())
        }
        None => net.transfer(from, to, bytes),
    })
}

/// The default outbound transport: the simnet bus, each send charged by
/// [`charge_transfer`].
///
/// The envelope goes straight into the receiver's inbox: inboxes are
/// read only by the next tick's pump, and batches run in host order, so
/// every inbox fills in host order and no batch sees another batch's
/// sends within its tick. It has no pipelined path, so the firewall
/// ships over it with the blocking `send`.
#[derive(Debug)]
pub(crate) struct SimTransport {
    bus: MessageBus,
    net: Arc<Network>,
    counters: TransportCounters,
}

impl SimTransport {
    /// A transport over the given bus and network.
    pub fn new(bus: MessageBus, net: Arc<Network>) -> SimTransport {
        SimTransport {
            bus,
            net,
            counters: TransportCounters::new(),
        }
    }

    fn send_envelope(&self, from: HostId, to: HostId, payload: &[u8]) -> Result<(), NetError> {
        // A missing destination must not consume virtual time.
        if !self.bus.has_endpoint(&to) {
            return Err(NetError::NoEndpoint { host: to });
        }
        let outcome = charge_transfer(&self.net, &from, &to, payload.len() as u64)?;
        self.bus.deliver(Envelope {
            from,
            to,
            // One copy into the refcounted envelope buffer.
            payload: Bytes::copy_from_slice(payload),
            departed: outcome.departed,
            arrived: outcome.arrived,
            cost: outcome.cost,
        })
    }
}

fn host_id(name: &str) -> Result<HostId, TransportError> {
    HostId::new(name).map_err(|e| TransportError::Unreachable {
        host: name.to_owned(),
        detail: e.to_string(),
    })
}

impl Transport for SimTransport {
    fn send(
        &self,
        from: &str,
        to_host: &str,
        _to_port: u16,
        payload: &[u8],
    ) -> Result<(), TransportError> {
        match self.send_envelope(host_id(from)?, host_id(to_host)?, payload) {
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
        let installed = || TaskScope::with_current(|scope| scope.is_some());
        assert!(!installed());
        {
            let _guard = TaskScope::enter(TaskScope::new(SimTime::ZERO, 7));
            assert!(installed());
            // Another thread sees no scope.
            std::thread::spawn(move || assert!(!installed()))
                .join()
                .unwrap();
        }
        assert!(!installed());
    }

    #[test]
    fn batch_seed_distinguishes_host_and_tick() {
        let base = batch_seed(1, 0, 1);
        assert_ne!(base, batch_seed(1, 1, 1));
        assert_ne!(base, batch_seed(1, 0, 2));
        assert_ne!(base, batch_seed(2, 0, 1));
        assert_eq!(base, batch_seed(1, 0, 1));
    }

    fn sim_transport() -> (SimTransport, MessageBus, Arc<Network>) {
        let mut topology = tacoma_simnet::Topology::new(tacoma_simnet::LinkSpec::lan_100mbit());
        topology.add_hosts([HostId::new("a").unwrap(), HostId::new("b").unwrap()]);
        let net = Arc::new(Network::new(topology, 3));
        let bus = MessageBus::new();
        (SimTransport::new(bus.clone(), Arc::clone(&net)), bus, net)
    }

    #[test]
    fn sim_transport_delivers_and_counts() {
        let (transport, bus, net) = sim_transport();
        let (a, b) = (HostId::new("a").unwrap(), HostId::new("b").unwrap());
        let rx = bus.register(b.clone());
        transport.send("a", "b", 4711, &[7; 1234]).unwrap();
        let envelope = rx.try_recv().unwrap();
        assert_eq!((envelope.from, envelope.payload.len()), (a.clone(), 1234));
        // Outside a batch the transfer is charged to the global clock.
        assert!(envelope.arrived > envelope.departed);
        assert_eq!(net.clock().now(), envelope.arrived);
        assert_eq!(net.stats().pair(&a, &b).bytes, 1234);
        let stats = transport.stats();
        assert_eq!((stats.frames_sent, stats.bytes_sent), (1, 1234));
        // The simnet has no pipelined path: the trait default refuses.
        let refused = transport.send_nowait("a", "b", 4711, bytes::Bytes::new(), 1);
        assert_eq!(refused, Err(TransportError::NoNowaitPath));
    }

    #[test]
    fn sim_transport_reports_a_missing_endpoint_as_unreachable() {
        let (transport, _bus, net) = sim_transport();
        let err = transport.send("a", "b", 4711, &[0; 8]).unwrap_err();
        assert!(matches!(err, TransportError::Unreachable { .. }));
        assert_eq!(transport.stats().retry_timeouts, 1);
        // A missing endpoint charges no virtual time.
        assert_eq!(net.stats().total_messages(), 0);
        assert_eq!(net.clock().now(), SimTime::ZERO);
    }
}

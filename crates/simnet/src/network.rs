use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{HostId, NetError, SimClock, SimTime, Topology, TrafficStats};

/// The outcome of a successful simulated transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferOutcome {
    /// Virtual time the transfer started.
    pub departed: SimTime,
    /// Virtual time the last byte arrived.
    pub arrived: SimTime,
    /// `arrived - departed`.
    pub cost: Duration,
}

/// A network: a [`Topology`] plus a virtual clock, deterministic loss
/// randomness, and traffic accounting.
///
/// Transfers advance the shared clock — modelling the serial execution of
/// one logical activity, which is the execution shape of every §5
/// experiment (one robot scanning one site).
#[derive(Debug)]
pub struct Network {
    topology: Mutex<Topology>,
    clock: SimClock,
    stats: Mutex<TrafficStats>,
    rng: Mutex<StdRng>,
}

impl Network {
    /// Creates a network over the topology; `seed` fixes loss randomness.
    pub fn new(topology: Topology, seed: u64) -> Self {
        Network {
            topology: Mutex::new(topology),
            clock: SimClock::new(),
            stats: Mutex::new(TrafficStats::new()),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Runs `f` with mutable access to the topology (fault injection,
    /// adding hosts mid-run).
    pub fn with_topology<R>(&self, f: impl FnOnce(&mut Topology) -> R) -> R {
        f(&mut self.topology.lock())
    }

    /// Sets the one-way latency of the `a`↔`b` link at runtime.
    ///
    /// Part of the scenario event API: a scenario event track mutates
    /// links between scheduler ticks to model degrading routes.
    pub fn set_latency(&self, a: &HostId, b: &HostId, latency: Duration) {
        self.topology.lock().set_latency(a, b, latency);
    }

    /// Sets the loss probability of the `a`↔`b` link at runtime.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= loss < 1.0` (same contract as
    /// [`crate::LinkSpec::with_loss`]).
    pub fn set_loss(&self, a: &HostId, b: &HostId, loss: f64) {
        self.topology.lock().set_loss(a, b, loss);
    }

    /// Severs the `a`↔`b` link (both directions) at runtime.
    pub fn partition(&self, a: &HostId, b: &HostId) {
        self.topology.lock().partition(a, b);
    }

    /// Heals a severed `a`↔`b` link at runtime.
    pub fn heal(&self, a: &HostId, b: &HostId) {
        self.topology.lock().heal(a, b);
    }

    /// Marks a host as crashed at runtime (scheduled churn: host down).
    pub fn crash_host(&self, host: &HostId) {
        self.topology.lock().crash_host(host);
    }

    /// Restores a crashed host at runtime (scheduled churn: host up).
    pub fn restore_host(&self, host: &HostId) {
        self.topology.lock().restore_host(host);
    }

    /// Whether the topology knows this host.
    pub fn contains(&self, host: &HostId) -> bool {
        self.topology.lock().contains(host)
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> TrafficStats {
        self.stats.lock().clone()
    }

    /// The transfer cost `bytes` would incur from `from` to `to` right now,
    /// without performing the transfer.
    ///
    /// # Errors
    ///
    /// Routing errors from [`Topology::route`].
    pub fn probe(&self, from: &HostId, to: &HostId, bytes: u64) -> Result<Duration, NetError> {
        Ok(self.topology.lock().route(from, to)?.transfer_time(bytes))
    }

    /// Moves `bytes` from `from` to `to`: advances the virtual clock by the
    /// link's transfer time and records the traffic.
    ///
    /// # Errors
    ///
    /// Routing errors from [`Topology::route`], or
    /// [`NetError::MessageLost`] if the link's loss probability fires (the
    /// clock still advances by the latency spent discovering the loss).
    pub fn transfer(
        &self,
        from: &HostId,
        to: &HostId,
        bytes: u64,
    ) -> Result<TransferOutcome, NetError> {
        self.transfer_with(from, to, bytes, &self.clock, &mut self.rng.lock())
    }

    /// [`Network::transfer`] against a caller-supplied clock and loss RNG.
    ///
    /// The tick scheduler charges each host batch's transfers to a clock
    /// forked at tick start and an RNG seeded per batch, so transfer costs
    /// and loss draws do not depend on the batches run before it. Routing
    /// and traffic accounting still go through the shared topology and
    /// stats.
    ///
    /// # Errors
    ///
    /// Exactly as [`Network::transfer`].
    pub fn transfer_with(
        &self,
        from: &HostId,
        to: &HostId,
        bytes: u64,
        clock: &SimClock,
        rng: &mut StdRng,
    ) -> Result<TransferOutcome, NetError> {
        let link = match self.topology.lock().route(from, to) {
            Ok(link) => link,
            Err(err) => {
                // Churn drops (crashed host, severed link) are counted
                // apart from random loss so scenarios can tell them apart.
                if matches!(
                    err,
                    NetError::HostDown { .. } | NetError::Partitioned { .. }
                ) {
                    self.stats.lock().record_unreachable(from, to);
                }
                return Err(err);
            }
        };
        let departed = clock.now();

        if link.loss > 0.0 && rng.random::<f64>() < link.loss {
            clock.advance(link.latency);
            self.stats.lock().record_loss(from, to);
            return Err(NetError::MessageLost {
                from: from.clone(),
                to: to.clone(),
            });
        }

        let cost = link.transfer_time(bytes);
        let arrived = clock.advance(cost);
        self.stats.lock().record_delivery(from, to, bytes, cost);
        Ok(TransferOutcome {
            departed,
            arrived,
            cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkSpec;

    fn h(name: &str) -> HostId {
        HostId::new(name).unwrap()
    }

    fn net() -> Network {
        let mut t = Topology::new(LinkSpec::lan_100mbit());
        t.add_hosts([h("a"), h("b")]);
        Network::new(t, 42)
    }

    #[test]
    fn transfer_advances_clock_and_counts_bytes() {
        let net = net();
        let out = net.transfer(&h("a"), &h("b"), 1_000_000).unwrap();
        assert_eq!(out.departed, SimTime::ZERO);
        assert_eq!(net.clock().now(), out.arrived);
        assert_eq!(net.stats().pair(&h("a"), &h("b")).bytes, 1_000_000);
        // 1 MB over 100 Mbit ≈ 80 ms.
        assert!(out.cost >= Duration::from_millis(80));
    }

    #[test]
    fn probe_does_not_advance_or_count() {
        let net = net();
        let cost = net.probe(&h("a"), &h("b"), 1_000_000).unwrap();
        assert!(cost > Duration::ZERO);
        assert_eq!(net.clock().now(), SimTime::ZERO);
        assert_eq!(net.stats().total_messages(), 0);
    }

    #[test]
    fn sequential_transfers_accumulate_time() {
        let net = net();
        let first = net.transfer(&h("a"), &h("b"), 500_000).unwrap();
        let second = net.transfer(&h("b"), &h("a"), 500_000).unwrap();
        assert_eq!(second.departed, first.arrived);
        assert_eq!(
            second.arrived.saturating_since(SimTime::ZERO),
            first.cost + second.cost
        );
    }

    #[test]
    fn lossy_link_is_deterministic_under_seed() {
        let run = |seed| {
            let mut t = Topology::new(LinkSpec::lan_100mbit().with_loss(0.5));
            t.add_hosts([h("a"), h("b")]);
            let net = Network::new(t, seed);
            (0..32)
                .map(|_| net.transfer(&h("a"), &h("b"), 10).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        let outcomes = run(7);
        assert!(outcomes.iter().any(|ok| *ok) && outcomes.iter().any(|ok| !*ok));
    }

    #[test]
    fn crash_mid_run_blocks_transfer() {
        let net = net();
        net.transfer(&h("a"), &h("b"), 1).unwrap();
        net.with_topology(|t| {
            t.crash_host(&h("b"));
        });
        assert!(matches!(
            net.transfer(&h("a"), &h("b"), 1),
            Err(NetError::HostDown { .. })
        ));
    }

    #[test]
    fn churn_drops_counted_as_unreachable_not_loss() {
        let net = net();
        net.crash_host(&h("b"));
        assert!(net.transfer(&h("a"), &h("b"), 1).is_err());
        net.restore_host(&h("b"));
        net.partition(&h("a"), &h("b"));
        assert!(net.transfer(&h("a"), &h("b"), 1).is_err());
        net.heal(&h("a"), &h("b"));
        assert!(net.transfer(&h("a"), &h("b"), 1).is_ok());
        let stats = net.stats();
        assert_eq!(stats.total_unreachable(), 2);
        assert_eq!(stats.total_lost(), 0);
        // Route refusals must not advance the virtual clock.
        assert_eq!(stats.total_messages(), 1);
    }

    #[test]
    fn runtime_link_mutation_changes_costs() {
        let net = net();
        let before = net.probe(&h("a"), &h("b"), 0).unwrap();
        net.set_latency(&h("a"), &h("b"), Duration::from_millis(80));
        let after = net.probe(&h("a"), &h("b"), 0).unwrap();
        assert!(after > before);
        assert_eq!(after, Duration::from_millis(80));

        net.set_loss(&h("a"), &h("b"), 0.999_999);
        assert!(matches!(
            net.transfer(&h("a"), &h("b"), 1),
            Err(NetError::MessageLost { .. })
        ));
        assert_eq!(net.stats().total_lost(), 1);
    }

    #[test]
    fn loss_records_loss_stat() {
        let mut t = Topology::new(LinkSpec::lan_100mbit().with_loss(0.999_999));
        t.add_hosts([h("a"), h("b")]);
        let net = Network::new(t, 1);
        assert!(matches!(
            net.transfer(&h("a"), &h("b"), 1),
            Err(NetError::MessageLost { .. })
        ));
        assert_eq!(net.stats().total_lost(), 1);
    }
}

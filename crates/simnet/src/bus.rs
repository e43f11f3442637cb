use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::{HostId, NetError, SimTime};

/// A message in flight between hosts, stamped with virtual-time metadata.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending host.
    pub from: HostId,
    /// Destination host.
    pub to: HostId,
    /// Opaque payload (typically an encoded briefcase). A shared buffer,
    /// so the receive path can decode briefcase elements as zero-copy
    /// slices of this allocation.
    pub payload: Bytes,
    /// Virtual time the message left `from`.
    pub departed: SimTime,
    /// Virtual time the last byte reached `to`.
    pub arrived: SimTime,
    /// Transfer cost charged on the link.
    pub cost: Duration,
}

/// A real delivery fabric: each registered host gets a crossbeam channel,
/// and [`MessageBus::deliver`] hands an envelope the sender already
/// charged to the [`Network`](crate::Network) to its destination's
/// mailbox.
///
/// This is the layer the per-host firewalls plug into — they exchange
/// encoded briefcases without knowing they share a process.
#[derive(Debug, Clone, Default)]
pub struct MessageBus {
    endpoints: Arc<Mutex<HashMap<HostId, Sender<Envelope>>>>,
}

impl MessageBus {
    /// A bus with no endpoints.
    pub fn new() -> Self {
        MessageBus::default()
    }

    /// Registers `host` as a deliverable endpoint, returning the receiving
    /// side of its mailbox. Re-registering replaces the previous mailbox.
    pub fn register(&self, host: HostId) -> Receiver<Envelope> {
        let (tx, rx) = unbounded();
        self.endpoints.lock().insert(host, tx);
        rx
    }

    /// Whether `host` currently has a registered mailbox.
    pub fn has_endpoint(&self, host: &HostId) -> bool {
        self.endpoints.lock().contains_key(host)
    }

    /// Delivers a pre-charged envelope to its destination's mailbox
    /// without touching the network's clock or counters.
    ///
    /// # Errors
    ///
    /// [`NetError::NoEndpoint`] / [`NetError::EndpointClosed`] if the
    /// destination mailbox is gone.
    pub fn deliver(&self, envelope: Envelope) -> Result<(), NetError> {
        let to = envelope.to.clone();
        let tx = self
            .endpoints
            .lock()
            .get(&to)
            .cloned()
            .ok_or_else(|| NetError::NoEndpoint { host: to.clone() })?;
        tx.send(envelope)
            .map_err(|_| NetError::EndpointClosed { host: to })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkSpec, Network, Topology};

    fn h(name: &str) -> HostId {
        HostId::new(name).unwrap()
    }

    fn envelope(to: &str, payload: Vec<u8>) -> Envelope {
        Envelope {
            from: h("a"),
            to: h(to),
            payload: payload.into(),
            departed: SimTime::from_nanos(10),
            arrived: SimTime::from_nanos(25),
            cost: Duration::from_nanos(15),
        }
    }

    #[test]
    fn deliver_hands_over_the_envelope_as_charged() {
        let bus = MessageBus::new();
        let rx = bus.register(h("b"));
        bus.deliver(envelope("b", vec![1, 2, 3])).unwrap();
        let env = rx.try_recv().unwrap();
        assert_eq!(env.payload, vec![1, 2, 3]);
        assert_eq!(env.from, h("a"));
        assert_eq!(
            (env.departed, env.arrived),
            (SimTime::from_nanos(10), SimTime::from_nanos(25))
        );
    }

    #[test]
    fn missing_endpoint_is_refused() {
        let bus = MessageBus::new();
        assert!(!bus.has_endpoint(&h("b")));
        assert!(matches!(
            bus.deliver(envelope("b", vec![0; 100])),
            Err(NetError::NoEndpoint { .. })
        ));
    }

    #[test]
    fn dropped_receiver_reports_closed() {
        let bus = MessageBus::new();
        let rx = bus.register(h("b"));
        drop(rx);
        assert!(matches!(
            bus.deliver(envelope("b", vec![])),
            Err(NetError::EndpointClosed { .. })
        ));
    }

    #[test]
    fn traffic_is_counted_per_payload_byte() {
        // The sender charges the network, then the bus hands over the
        // envelope; the pair's traffic is the payload's byte count.
        let mut t = Topology::new(LinkSpec::lan_100mbit());
        t.add_hosts([h("a"), h("b")]);
        let net = Network::new(t, 3);
        let bus = MessageBus::new();
        let rx = bus.register(h("b"));
        let payload = vec![0; 1234];
        let out = net
            .transfer(&h("a"), &h("b"), payload.len() as u64)
            .unwrap();
        bus.deliver(Envelope {
            departed: out.departed,
            arrived: out.arrived,
            cost: out.cost,
            ..envelope("b", payload)
        })
        .unwrap();
        assert_eq!(rx.try_recv().unwrap().payload.len(), 1234);
        assert_eq!(net.stats().pair(&h("a"), &h("b")).bytes, 1234);
    }

    #[test]
    fn clone_shares_endpoints() {
        let bus = MessageBus::new();
        let rx = bus.register(h("b"));
        let bus2 = bus.clone();
        bus2.deliver(envelope("b", vec![9])).unwrap();
        assert_eq!(rx.try_recv().unwrap().payload, vec![9]);
    }
}

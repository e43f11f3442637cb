//! Runtime event track: replays a scenario's scheduled mutations against
//! a live [`Network`] as virtual time advances.
//!
//! A [`ScenarioTrack`] is a cursor over the (time-sorted) event list.
//! [`ScenarioTrack::apply_due`] applies every event whose time has
//! arrived; hooked into the scheduler via a step hook (see
//! [`crate::system::install_track`]) it fires at the top of every BSP
//! step, before the message pump, so event application depends only on
//! the virtual clock: within a tick every host sees one topology.

use std::sync::Arc;

use parking_lot::Mutex;
use tacoma_simnet::{HostId, Network, SimTime};

use crate::model::{EventKind, Scenario, ScenarioEvent};

/// A replay cursor over a scenario's event list.
#[derive(Debug)]
pub struct ScenarioTrack {
    events: Vec<ScenarioEvent>,
    next: usize,
}

impl ScenarioTrack {
    /// Builds a track over the scenario's events (assumed time-sorted, as
    /// the generator and decoder guarantee).
    pub fn new(scenario: &Scenario) -> Self {
        ScenarioTrack {
            events: scenario.events.clone(),
            next: 0,
        }
    }

    /// How many events have been applied so far.
    pub fn applied(&self) -> usize {
        self.next
    }

    /// Total events on the track.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the track has no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Applies every not-yet-applied event with `at_ms <= now`, in track
    /// order. Returns how many fired. Events naming hosts absent from
    /// the network are skipped (counted as applied) rather than panicking
    /// — a track may legitimately outlive a pruned topology.
    pub fn apply_due(&mut self, net: &Network, now: SimTime) -> usize {
        let now_ms = now.as_nanos() / 1_000_000;
        let mut fired = 0;
        while let Some(event) = self.events.get(self.next) {
            if event.at_ms > now_ms {
                break;
            }
            apply_event(net, &event.kind);
            self.next += 1;
            fired += 1;
        }
        fired
    }
}

fn host(name: &str) -> Option<HostId> {
    HostId::new(name.to_owned()).ok()
}

fn apply_event(net: &Network, kind: &EventKind) {
    match kind {
        EventKind::HostDown { host: h } => {
            if let Some(h) = host(h) {
                if net.contains(&h) {
                    net.crash_host(&h);
                }
            }
        }
        EventKind::HostUp { host: h } => {
            if let Some(h) = host(h) {
                if net.contains(&h) {
                    net.restore_host(&h);
                }
            }
        }
        EventKind::Partition { a, b } => {
            if let (Some(a), Some(b)) = (host(a), host(b)) {
                net.partition(&a, &b);
            }
        }
        EventKind::Heal { a, b } => {
            if let (Some(a), Some(b)) = (host(a), host(b)) {
                net.heal(&a, &b);
            }
        }
        EventKind::SetLatency { a, b, latency_ms } => {
            if let (Some(a), Some(b)) = (host(a), host(b)) {
                net.set_latency(&a, &b, std::time::Duration::from_millis(*latency_ms));
            }
        }
        EventKind::SetLoss { a, b, loss } => {
            if let (Some(a), Some(b)) = (host(a), host(b)) {
                net.set_loss(&a, &b, *loss);
            }
        }
    }
}

/// Shared handle to a track installed behind a step hook: lets the
/// experiment read progress while the scheduler owns the hook closure.
#[derive(Debug, Clone)]
pub struct TrackHandle {
    inner: Arc<Mutex<ScenarioTrack>>,
}

impl TrackHandle {
    /// Wraps a track for sharing with a step hook.
    pub fn new(track: ScenarioTrack) -> Self {
        TrackHandle {
            inner: Arc::new(Mutex::new(track)),
        }
    }

    /// Applies due events through the shared track.
    pub fn apply_due(&self, net: &Network, now: SimTime) -> usize {
        self.inner.lock().apply_due(net, now)
    }

    /// Events applied so far.
    pub fn applied(&self) -> usize {
        self.inner.lock().applied()
    }

    /// Total events on the track.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the track is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinkTier, Scenario, ScenarioEvent};
    use tacoma_simnet::{LinkSpec, Topology};

    fn net3() -> Network {
        let mut topo = Topology::new(LinkSpec::lan_100mbit());
        for n in ["a", "b", "c"] {
            topo.add_host(HostId::new(n).unwrap());
        }
        Network::new(topo, 1)
    }

    fn scenario_with(events: Vec<ScenarioEvent>) -> Scenario {
        Scenario {
            name: "t".into(),
            seed: 0,
            default_tier: LinkTier::Lan100,
            hosts: vec!["a".into(), "b".into(), "c".into()],
            links: vec![],
            events,
        }
    }

    #[test]
    fn applies_events_in_time_order() {
        let net = net3();
        let scenario = scenario_with(vec![
            ScenarioEvent {
                at_ms: 5,
                kind: EventKind::HostDown { host: "b".into() },
            },
            ScenarioEvent {
                at_ms: 20,
                kind: EventKind::HostUp { host: "b".into() },
            },
        ]);
        let mut track = ScenarioTrack::new(&scenario);
        let b = HostId::new("b").unwrap();

        assert_eq!(track.apply_due(&net, SimTime::from_nanos(1_000_000)), 0);
        assert!(!net.with_topology(|t| t.is_down(&b)));

        assert_eq!(track.apply_due(&net, SimTime::from_nanos(5_000_000)), 1);
        assert!(net.with_topology(|t| t.is_down(&b)));

        // Idempotent between deadlines.
        assert_eq!(track.apply_due(&net, SimTime::from_nanos(6_000_000)), 0);

        assert_eq!(track.apply_due(&net, SimTime::from_nanos(25_000_000)), 1);
        assert!(!net.with_topology(|t| t.is_down(&b)));
        assert_eq!(track.applied(), 2);
    }

    #[test]
    fn partition_and_link_mutations_apply() {
        let net = net3();
        let scenario = scenario_with(vec![
            ScenarioEvent {
                at_ms: 1,
                kind: EventKind::Partition {
                    a: "a".into(),
                    b: "c".into(),
                },
            },
            ScenarioEvent {
                at_ms: 1,
                kind: EventKind::SetLatency {
                    a: "a".into(),
                    b: "b".into(),
                    latency_ms: 300,
                },
            },
        ]);
        let mut track = ScenarioTrack::new(&scenario);
        assert_eq!(track.apply_due(&net, SimTime::from_nanos(2_000_000)), 2);
        let (a, b, c) = (
            HostId::new("a").unwrap(),
            HostId::new("b").unwrap(),
            HostId::new("c").unwrap(),
        );
        assert!(net.probe(&a, &c, 10).is_err());
        let latency = net.with_topology(|t| t.effective_link(&a, &b).latency);
        assert_eq!(latency, std::time::Duration::from_millis(300));
    }

    #[test]
    fn unknown_hosts_are_skipped_not_fatal() {
        let net = net3();
        let scenario = scenario_with(vec![ScenarioEvent {
            at_ms: 1,
            kind: EventKind::HostDown {
                host: "ghost".into(),
            },
        }]);
        let mut track = ScenarioTrack::new(&scenario);
        assert_eq!(track.apply_due(&net, SimTime::from_nanos(2_000_000)), 1);
    }
}

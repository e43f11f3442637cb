//! Instantiating a scenario as a running TAX system.
//!
//! [`build_system`] turns a [`Scenario`] into a [`TaxSystem`] whose
//! topology matches the scenario's time-zero state; [`install_track`]
//! hooks the scenario's event track into the scheduler so crashes,
//! partitions, and link degradations fire at their scheduled virtual
//! times — at the top of each BSP step, before the message pump, so the
//! same scenario always replays the same trace.

use tacoma_core::{StepHook, SystemBuilder, TaxSystem};

use crate::model::Scenario;
use crate::track::{ScenarioTrack, TrackHandle};

/// Builds a TAX system from the scenario: its hosts, its link matrix, its
/// seed, and trust-everyone security (the scenario layer studies
/// networks, not policy).
pub fn build_system(scenario: &Scenario) -> TaxSystem {
    let mut builder = SystemBuilder::new()
        .default_link(scenario.default_tier.spec())
        .seed(scenario.seed)
        .trust_all();
    for host in &scenario.hosts {
        builder = builder
            .host(host)
            .expect("generator emits valid host names");
    }
    for link in &scenario.links {
        builder = builder.link(&link.a, &link.b, link.spec());
    }
    builder.build()
}

/// Installs the scenario's event track as a scheduler step hook and
/// returns a handle the caller can poll for replay progress.
pub fn install_track(system: &mut TaxSystem, scenario: &Scenario) -> TrackHandle {
    let handle = TrackHandle::new(ScenarioTrack::new(scenario));
    let hook_handle = handle.clone();
    let hook: StepHook = Box::new(move |net, now| {
        hook_handle.apply_due(net, now);
    });
    system.add_step_hook(hook);
    handle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::ScenarioSpec;
    use crate::model::{EventKind, LinkTier, ScenarioEvent};
    use tacoma_simnet::HostId;

    #[test]
    fn build_system_materializes_generated_topology() {
        let scenario = crate::gen::generate(&ScenarioSpec::new(3, 16));
        let system = build_system(&scenario);
        assert_eq!(system.host_names().len(), 16);
        let net = system.network();
        for link in &scenario.links {
            let a = HostId::new(link.a.clone()).unwrap();
            let b = HostId::new(link.b.clone()).unwrap();
            let spec = net.with_topology(|t| t.effective_link(&a, &b));
            assert_eq!(spec.bandwidth_bps, link.tier.spec().bandwidth_bps);
        }
    }

    #[test]
    fn installed_track_fires_with_virtual_time() {
        let mut scenario = crate::gen::generate(&ScenarioSpec::new(4, 4));
        scenario.events = vec![ScenarioEvent {
            at_ms: 0,
            kind: EventKind::HostDown {
                host: scenario.hosts[3].clone(),
            },
        }];
        scenario.default_tier = LinkTier::Lan100;
        let mut system = build_system(&scenario);
        let handle = install_track(&mut system, &scenario);
        assert_eq!(handle.applied(), 0);
        system.step();
        assert_eq!(handle.applied(), 1);
        let down = HostId::new(scenario.hosts[3].clone()).unwrap();
        assert!(system.network().with_topology(|t| t.is_down(&down)));
    }
}

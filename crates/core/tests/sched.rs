//! The tick scheduler: a run is a pure function of its seed, a host's
//! batch never sees another batch's tick, a panicking batch is contained,
//! plus run outcomes and step-budget exhaustion.

use std::sync::Arc;

use proptest::prelude::*;
use tacoma_core::{
    AgentSpec, Briefcase, EventKind, HostEvent, LinkSpec, RunOutcome, ServiceAgent, ServiceEnv,
    SystemBuilder, TaxSystem,
};

const PAIRS: usize = 4;

/// Disjoint client/server pairs `pairs` — the shape the tick scheduler
/// overlaps in virtual time: every pair's agent works its own two hosts.
fn pairs_system(pairs: impl IntoIterator<Item = usize>, seed: u64, loss: f64) -> TaxSystem {
    let mut b = SystemBuilder::new()
        .seed(seed)
        .default_link(LinkSpec::lan_100mbit().with_loss(loss));
    for i in pairs {
        b = b.host(&format!("client{i}")).unwrap();
        b = b.host(&format!("server{i}")).unwrap();
    }
    b.trust_all().build()
}

/// All `PAIRS` pairs on one system.
fn fleet(seed: u64, loss: f64) -> TaxSystem {
    pairs_system(0..PAIRS, seed, loss)
}

/// Launches pair `i`'s walker: client → server → client → server →
/// client.
fn launch_walker(system: &mut TaxSystem, i: usize) {
    let spec = AgentSpec::script(
        "walker",
        r#"
        fn main() {
            display("visiting " + host_name());
            bc_append("SEEN", host_name());
            let next = bc_remove("HOSTS", 0);
            if (next == nil) {
                display("done " + str(bc_len("SEEN")));
                exit(0);
            }
            go(next);
        }
        "#,
    )
    .itinerary([
        format!("tacoma://server{i}/vm_script"),
        format!("tacoma://client{i}/vm_script"),
        format!("tacoma://server{i}/vm_script"),
        format!("tacoma://client{i}/vm_script"),
    ]);
    system.launch(&format!("client{i}"), spec).unwrap();
}

fn launch_walkers(system: &mut TaxSystem) {
    for i in 0..PAIRS {
        launch_walker(system, i);
    }
}

/// Waits instead of walks: every client asks the compiler service on its
/// own server for a reply to its `REPLY-TO` address and awaits it, and an
/// idler beside it awaits mail nobody sends. The request/reply completes
/// inside one `await`; the idlers' equal deadlines fire one at a time,
/// in host order.
fn launch_requesters(system: &mut TaxSystem) {
    for i in 0..PAIRS {
        let asker = AgentSpec::script(
            "asker",
            format!(
                r#"
                fn main() {{
                    bc_set("CMD", "compile");
                    bc_set("SOURCE", "fn main() {{ }}");
                    bc_set("REPLY-TO", "tacoma://client{i}/asker");
                    activate("tacoma://server{i}/ag_cc");
                    if (await_bc(2000)) {{
                        display("reply " + bc_get("STATUS", 0) + " at " + now_ms());
                    }} else {{
                        display("no reply at " + now_ms());
                    }}
                    exit(0);
                }}
                "#
            ),
        );
        let idler = AgentSpec::script(
            "idler",
            r#"
            fn main() {
                if (await_bc(250)) { display("idler got mail"); }
                else { display("idler timed out at " + now_ms()); }
                exit(0);
            }
            "#,
        );
        system.launch(&format!("client{i}"), asker).unwrap();
        system.launch(&format!("client{i}"), idler).unwrap();
    }
}

fn trace(seed: u64, loss: f64, launch: fn(&mut TaxSystem)) -> Vec<(String, HostEvent)> {
    let mut system = fleet(seed, loss);
    launch(&mut system);
    assert!(system.run_until_quiet().quiesced());
    system.events()
}

#[test]
fn tick_mode_completes_disjoint_fleets() {
    let mut system = fleet(7, 0.0);
    launch_walkers(&mut system);
    let outcome = system.run_until_quiet();
    assert!(outcome.quiesced());
    let done: Vec<String> = system
        .agent_outputs()
        .into_iter()
        .filter(|l| l.starts_with("done"))
        .collect();
    assert_eq!(done.len(), PAIRS);
    assert!(done.iter().all(|l| l == "done 5"), "{done:?}");
}

/// The determinism contract: the same seed, run twice, produces
/// byte-identical event traces.
#[test]
fn one_and_four_workers_produce_identical_traces() {
    let first = trace(42, 0.0, launch_walkers);
    assert!(!first.is_empty());
    assert_eq!(first, trace(42, 0.0, launch_walkers));
}

/// No batch sees another batch's tick: in a lossless fleet, the events on
/// pair `i`'s two hosts are exactly those of pair `i` run alone. A send
/// charged to the global clock instead of its batch's forked clock, or a
/// batch started from a clock another batch advanced, would shift them.
#[test]
fn pair_in_fleet_matches_pair_alone() {
    let events = trace(42, 0.0, launch_walkers);
    for i in 0..PAIRS {
        let hosts = [format!("client{i}"), format!("server{i}")];
        let in_fleet: Vec<_> = (events.iter())
            .filter(|(host, _)| hosts.contains(host))
            .cloned()
            .collect();
        let mut alone = pairs_system([i], 42, 0.0);
        launch_walker(&mut alone, i);
        assert!(alone.run_until_quiet().quiesced());
        assert!(!in_fleet.is_empty());
        assert_eq!(in_fleet, alone.events(), "pair {i}");
    }
}

/// The same contract for agents that wait: a request/reply inside one
/// `await` and `await` deadlines trace identically on a second run, and
/// every wait ends the way it should.
#[test]
fn waits_trace_identically_across_worker_counts() {
    let mut system = fleet(42, 0.0);
    launch_requesters(&mut system);
    assert!(system.run_until_quiet().quiesced());
    let outputs = system.agent_outputs();
    let replies = outputs.iter().filter(|l| l.starts_with("reply ok")).count();
    let timeouts = outputs
        .iter()
        .filter(|l| *l == "idler timed out at 250")
        .count();
    assert_eq!((replies, timeouts), (PAIRS, PAIRS), "{outputs:?}");
    assert_eq!(system.events(), trace(42, 0.0, launch_requesters));
}

/// Determinism holds on lossy links too — every batch's loss randomness
/// comes from its (seed, host, tick) stream, so two runs with the same
/// seed lose the same messages.
#[test]
fn lossy_links_stay_deterministic_across_worker_counts() {
    for launch in [launch_walkers, launch_requesters] {
        assert_eq!(trace(9, 0.25, launch), trace(9, 0.25, launch));
    }
}

/// A service whose handler panics — a bug the batch must contain.
struct Panicky;

impl ServiceAgent for Panicky {
    fn name(&self) -> &str {
        "ag_panicky"
    }

    fn handle(&self, _request: &mut Briefcase, _env: &mut ServiceEnv<'_>) -> Briefcase {
        panic!("ag_panicky always panics");
    }
}

/// A panic in one host's batch stays in that batch: the tick runs the
/// other hosts' batches, the system still quiesces, and the host runs
/// later launches normally.
#[test]
fn panicking_batch_is_contained_to_its_host() {
    let mut system = SystemBuilder::new()
        .host("alpha")
        .unwrap()
        .host("beta")
        .unwrap()
        .host("gamma")
        .unwrap()
        .trust_all()
        .build();
    system.host("alpha").unwrap().add_service(Arc::new(Panicky));
    let meets = AgentSpec::script(
        "meets",
        r#"
        fn main() {
            meet("ag_panicky");
            display("survived the meet");
            exit(0);
        }
        "#,
    );
    let walker = AgentSpec::script(
        "walker",
        r#"
        fn main() {
            let next = bc_remove("HOSTS", 0);
            if (next == nil) {
                display("walker done on " + host_name());
                exit(0);
            }
            go(next);
        }
        "#,
    )
    .itinerary(["tacoma://gamma/vm_script", "tacoma://beta/vm_script"]);
    system.launch("alpha", meets).unwrap();
    system.launch("beta", walker).unwrap();
    // Both launches are queued, so the first step runs alpha's batch and
    // then beta's in one tick.
    assert!(system.step());

    assert!(system.run_until_quiet().quiesced());
    let panicked: Vec<_> = (system.events().into_iter())
        .filter(|(_, e)| {
            matches!(&e.kind, EventKind::Scheduler(note) if note.contains("host batch panicked"))
        })
        .map(|(host, _)| host)
        .collect();
    assert_eq!(panicked, vec!["alpha".to_owned()]);
    assert_eq!(system.agent_outputs(), vec!["walker done on beta"]);

    let after = AgentSpec::script("after", r#"fn main() { display("alpha runs"); exit(0); }"#);
    system.launch("alpha", after).unwrap();
    assert!(system.run_until_quiet().quiesced());
    let outputs = system.agent_outputs();
    assert_eq!(outputs.len(), 2, "{outputs:?}");
    assert!(outputs.contains(&"alpha runs".to_owned()), "{outputs:?}");
}

/// The task that panics ends as a fault and leaves nothing registered,
/// and the task its batch never started runs on the next tick.
#[test]
fn a_panicking_task_faults_and_its_batch_mates_run_next_tick() {
    let mut system = SystemBuilder::new().host("alpha").unwrap().build();
    system.host("alpha").unwrap().add_service(Arc::new(Panicky));
    let meets = AgentSpec::script("meets", r#"fn main() { meet("ag_panicky"); }"#);
    let second = AgentSpec::script("second", r#"fn main() { display("second ran"); }"#);
    let meets = system.launch("alpha", meets).unwrap();
    let second = system.launch("alpha", second).unwrap();
    assert!(system.run_until_quiet().quiesced());

    assert_eq!(system.agent_outputs(), ["second ran"]);
    let admin = tacoma_core::Principal::local_system("alpha");
    let list = system.admin("alpha", &admin, "list", &[]).unwrap();
    let agents: Vec<String> = (list.folder("AGENTS").into_iter().flat_map(|f| f.iter()))
        .map(|e| e.as_str().unwrap().to_owned())
        .collect();
    for agent in [&meets, &second] {
        let name = agent.to_string();
        assert!(agents.iter().all(|a| !a.contains(&name)), "{agents:?}");
    }
    let faults: Vec<_> = (system.events().into_iter())
        .filter(|(_, e)| matches!(e.kind, EventKind::Faulted(_)))
        .map(|(_, e)| e.agent)
        .collect();
    assert_eq!(faults, [Some(meets)]);
}

#[test]
fn run_until_quiet_reports_quiescence() {
    let mut system = fleet(1, 0.0);
    launch_walkers(&mut system);
    let outcome = system.run_until_quiet();
    assert!(outcome.quiesced());
    assert!(outcome.steps() > 0);
    assert!(matches!(outcome, RunOutcome::Quiesced { .. }));
}

/// An agent ping-pong loop never quiesces: `run_for` must say so
/// honestly and leave a scheduler warning in the event log.
#[test]
fn step_budget_exhaustion_is_distinguished_and_logged() {
    let mut system = SystemBuilder::new()
        .host("alpha")
        .unwrap()
        .host("beta")
        .unwrap()
        .trust_all()
        .build();
    let spec = AgentSpec::script(
        "pingpong",
        r#"
        fn main() {
            if (host_name() == "alpha") {
                go("tacoma://beta/vm_script");
            } else {
                go("tacoma://alpha/vm_script");
            }
        }
        "#,
    );
    system.launch("alpha", spec).unwrap();

    let outcome = system.run_for(40);
    assert!(!outcome.quiesced());
    assert_eq!(outcome.steps(), 40);
    assert!(matches!(
        outcome,
        RunOutcome::StepBudgetExhausted { steps: 40 }
    ));
    assert!(!system.is_quiet());

    let warned = system.events().iter().any(|(_, e)| {
        matches!(&e.kind, EventKind::Scheduler(note) if note.contains("step budget exhausted"))
    });
    assert!(warned, "exhaustion must leave a scheduler event");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary seeds and loss rates, the tick scheduler's trace is
    /// a pure function of the seed: a second run replays it exactly.
    #[test]
    fn traces_are_worker_count_invariant(seed in any::<u64>(), loss_pct in 0u32..30) {
        let loss = f64::from(loss_pct) / 100.0;
        for launch in [launch_walkers, launch_requesters] {
            prop_assert_eq!(trace(seed, loss, launch), trace(seed, loss, launch));
        }
    }
}

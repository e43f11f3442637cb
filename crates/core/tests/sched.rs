//! The tick scheduler: identical event traces across worker counts, run
//! outcomes, and step-budget exhaustion.

use proptest::prelude::*;
use tacoma_core::{
    AgentSpec, EventKind, HostEvent, LinkSpec, RunOutcome, SystemBuilder, TaxSystem,
};

const PAIRS: usize = 4;

/// A fleet of disjoint client/server pairs — the shape the parallel
/// scheduler exists for: every pair's agent works its own two hosts.
fn fleet(threads: usize, seed: u64, loss: f64) -> TaxSystem {
    let mut b = SystemBuilder::new()
        .seed(seed)
        .threads(threads)
        .default_link(LinkSpec::lan_100mbit().with_loss(loss));
    for i in 0..PAIRS {
        b = b.host(&format!("client{i}")).unwrap();
        b = b.host(&format!("server{i}")).unwrap();
    }
    b.trust_all().build()
}

fn launch_walkers(system: &mut TaxSystem) {
    for i in 0..PAIRS {
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
}

fn trace(threads: usize, seed: u64, loss: f64) -> Vec<(String, HostEvent)> {
    let mut system = fleet(threads, seed, loss);
    launch_walkers(&mut system);
    assert!(system.run_until_quiet().quiesced());
    system.events()
}

#[test]
fn tick_mode_completes_disjoint_fleets() {
    let mut system = fleet(4, 7, 0.0);
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

/// The determinism contract: with the tick scheduler, one worker and
/// many workers produce byte-identical event traces for the same seed.
#[test]
fn one_and_four_workers_produce_identical_traces() {
    let single = trace(1, 42, 0.0);
    let multi = trace(4, 42, 0.0);
    assert!(!single.is_empty());
    assert_eq!(single, multi);
}

/// Worker-count independence holds on lossy links too — every batch's
/// loss randomness comes from its (seed, host, tick) stream, not from
/// which thread happened to run it.
#[test]
fn lossy_links_stay_deterministic_across_worker_counts() {
    let single = trace(1, 9, 0.25);
    let multi = trace(4, 9, 0.25);
    assert_eq!(single, multi);
}

#[test]
fn run_until_quiet_reports_quiescence() {
    let mut system = fleet(0, 1, 0.0);
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
    /// a pure function of the seed — never of the worker count.
    #[test]
    fn traces_are_worker_count_invariant(seed in any::<u64>(), loss_pct in 0u32..30) {
        let loss = f64::from(loss_pct) / 100.0;
        let single = trace(1, seed, loss);
        let multi = trace(4, seed, loss);
        prop_assert_eq!(single, multi);
    }
}

//! Tours over generated scenarios, replayed under 1- and 4-worker
//! schedulers.
//!
//! The smoke case is 16 hosts with one scheduled partition that severs
//! the tour's home from its first stop at virtual time zero, so the tour
//! must account that hop as *unreachable* (distinct from random link
//! loss) and carry on. Because the event track fires from a BSP step
//! hook, the full event trace must be identical whatever the worker
//! count.
//!
//! The paper-scale cases pin the E11 claims at their exact virtual
//! values: the 120-host churn run's determinism row, the planner's real
//! makespans at 100 and 300 hosts, and the §5 local-vs-remote advantage
//! per link tier. Every one is deterministic in virtual time.

use tacoma_core::{HostEvent, HostId};
use tacoma_scenario::{
    build_system, generate, install_track, plan, predicted_makespan, EventKind, LinkTier, Scenario,
    ScenarioEvent, ScenarioSpec,
};
use tacoma_webbot::experiment::{run_mobile, run_stationary, CaseStudyParams};
use tacoma_webbot::fleet::{install_fleet_sites, FleetParams, FleetPlan};
use tacoma_webbot::mobile;
use tacoma_webbot::tour::{fetch_tour, tour_spec, TourStamps};

const HOME: &str = "h000";
const CUT_STOP: &str = "h009";

/// What one tour left behind.
struct TourRun {
    stamps: TourStamps,
    track_applied: usize,
    net_unreachable: u64,
    trace: Vec<(String, HostEvent)>,
}

/// Deploys sites and webbot programs over a scenario system with
/// `threads` scheduler workers, runs one tour from `home` through
/// `order` (reporting to `replicas` too), and collects its outcome.
fn run_tour(
    scenario: &Scenario,
    threads: usize,
    home: &str,
    order: &[String],
    replicas: &[String],
    (pages, total_bytes): (usize, u64),
) -> TourRun {
    let mut system = build_system(scenario, threads);
    let track = install_track(&mut system, scenario);

    let params = FleetParams {
        plan: FleetPlan::from_pairs(order.iter().map(|stop| (home.to_owned(), stop.clone()))),
        pages,
        total_bytes,
        seed: scenario.seed,
        ..FleetParams::default()
    };
    install_fleet_sites(&system, &params);
    let mut program_hosts = params.plan.hosts();
    for replica in replicas {
        if !program_hosts.contains(replica) {
            program_hosts.push(replica.clone());
        }
    }
    for name in &program_hosts {
        mobile::install_programs(&system.host(name).expect("scenario host"));
    }

    system
        .launch(home, tour_spec(home, order, replicas))
        .expect("launch tour");
    let outcome = system.run_until_quiet();
    assert!(outcome.quiesced(), "tour system did not quiesce");

    let (_, stamps) = fetch_tour(&mut system, home, home).expect("tour reported home");
    TourRun {
        stamps,
        track_applied: track.applied(),
        net_unreachable: system.network().stats().total_unreachable(),
        trace: system.events(),
    }
}

/// 16 hosts, no random churn or degradation — exactly one event: a
/// never-healed partition between the tour's home and its first stop.
fn smoke_scenario() -> Scenario {
    let mut spec = ScenarioSpec::new(16_161, 16);
    spec.churn = 0;
    spec.partitions = 0;
    spec.degradations = 0;
    let mut scenario = generate(&spec);
    scenario.events = vec![ScenarioEvent {
        at_ms: 0,
        kind: EventKind::Partition {
            a: HOME.to_owned(),
            b: CUT_STOP.to_owned(),
        },
    }];
    scenario
}

/// The smoke tour with `threads` scheduler workers.
fn run(threads: usize) -> TourRun {
    let order = [CUT_STOP.to_owned(), "h003".to_owned(), "h005".to_owned()];
    let run = run_tour(&smoke_scenario(), threads, HOME, &order, &[], (4, 20_000));
    assert_eq!(run.track_applied, 1, "the single partition event must fire");
    run
}

#[test]
fn partitioned_stop_is_unreachable_not_lost() {
    let TourRun {
        stamps,
        net_unreachable,
        ..
    } = run(1);
    assert_eq!(stamps.unreachable, vec![CUT_STOP.to_owned()]);
    assert_eq!(stamps.visited.len(), 2, "the two reachable stops scan");
    assert!(
        net_unreachable > 0,
        "the severed hop must hit the unreachable counter"
    );
    assert!(stamps.makespan_ms() >= 0);
}

#[test]
fn trace_is_identical_across_worker_counts() {
    let one = run(1);
    let four = run(4);
    assert_eq!(one.trace, four.trace, "1- vs 4-worker traces diverged");
    assert_eq!(one.stamps.visited, four.stamps.visited);
    assert_eq!(one.stamps.unreachable, four.stamps.unreachable);
    assert_eq!(one.net_unreachable, four.net_unreachable);
}

/// Picks `k` tour stops spread across the host rank order (so the tour
/// crosses every link tier), avoiding `home`.
fn spread_stops(scenario: &Scenario, home: &str, k: usize) -> Vec<String> {
    let candidates: Vec<&String> = scenario.hosts.iter().filter(|h| *h != home).collect();
    let k = k.min(candidates.len());
    (0..k)
        .map(|i| candidates[i * (candidates.len() - 1) / k.max(1)].clone())
        .collect()
}

/// E11's determinism row: a generated 120-host churn/partition scenario
/// with one mid-ranked stop down from t = 0, toured (reporting to two
/// replicas through the §4 group wrapper) under 1 and 4 workers.
#[test]
fn churn_tour_at_120_hosts_is_worker_count_invariant_and_counts_the_dead_stop() {
    let hosts = 120;
    let mut scenario = generate(&ScenarioSpec::new(811, hosts));
    let dead = scenario.hosts[hosts / 2].clone();
    scenario.events.insert(
        0,
        ScenarioEvent {
            at_ms: 0,
            kind: EventKind::HostDown { host: dead.clone() },
        },
    );
    let home = scenario.hosts[0].clone();
    let mut order = spread_stops(&scenario, &home, 5);
    order.push(dead.clone());
    let replicas = [scenario.hosts[1].clone(), scenario.hosts[2].clone()];

    let one = run_tour(&scenario, 1, &home, &order, &replicas, (20, 120_000));
    let four = run_tour(&scenario, 4, &home, &order, &replicas, (20, 120_000));

    assert_eq!(scenario.events.len(), 24);
    assert_eq!(one.track_applied, 3);
    assert_eq!(
        one.stamps.unreachable,
        vec![dead],
        "the crashed stop is skipped"
    );
    assert_eq!(
        one.net_unreachable, 1,
        "churn counts as unreachable, not loss"
    );
    assert!(one.trace == four.trace, "1- vs 4-worker traces diverged");
}

/// Naive (request order) vs planned (nearest neighbour + 2-opt) visit
/// order for an 8-stop tour over a quiet `hosts`-host topology: the
/// predicted and the real virtual makespans, in ms.
fn naive_vs_planned(hosts: usize) -> ((f64, f64), (i64, i64)) {
    let mut spec = ScenarioSpec::new(811, hosts);
    spec.churn = 0;
    spec.partitions = 0;
    spec.degradations = 0;
    let mut scenario = generate(&spec);
    for link in &mut scenario.links {
        link.loss = 0.0;
    }
    let home = scenario.hosts[0].clone();
    let naive = spread_stops(&scenario, &home, 8);
    let home_id = HostId::new(home.clone()).expect("valid host");
    let stop_ids: Vec<HostId> = naive
        .iter()
        .map(|s| HostId::new(s.clone()).expect("valid host"))
        .collect();
    // What a tour agent weighs on the wire: the Webbot bundle it carries
    // plus its own wrapper binary.
    let payload = (mobile::webbot_bundle().encode().len() + mobile::MW_BINARY_SIZE) as u64;
    let topology = scenario.topology();
    let naive_predicted = predicted_makespan(&topology, &home_id, &stop_ids, payload);
    let itinerary = plan(&topology, &home_id, &stop_ids, payload);
    let planned: Vec<String> = itinerary
        .order
        .iter()
        .map(|h| h.as_str().to_owned())
        .collect();

    let tour = |order: &[String]| {
        let run = run_tour(&scenario, 4, &home, order, &[], (20, 120_000));
        assert_eq!(run.stamps.visited.len(), 8, "every stop scans");
        run.stamps.makespan_ms()
    };
    (
        (
            naive_predicted.as_secs_f64() * 1e3,
            itinerary.predicted.as_secs_f64() * 1e3,
        ),
        (tour(&naive), tour(&planned)),
    )
}

#[test]
fn planned_tour_beats_request_order_at_100_and_300_hosts() {
    for (hosts, real) in [(100, (24_554, 13_114)), (300, (26_796, 16_832))] {
        let ((naive_predicted, planned_predicted), measured) = naive_vs_planned(hosts);
        assert!(planned_predicted <= naive_predicted, "{hosts} hosts");
        assert_eq!(
            measured, real,
            "{hosts} hosts: real makespan naive -> planned"
        );
    }
}

/// §5 measured a 16 % local-scan advantage on its LAN and conjectured
/// more on slower links: the same 400-page scan at the server vs pulled
/// across each link tier, as the advantage in hundredths of a percent.
#[test]
fn local_scan_advantage_widens_across_link_tiers() {
    let advantages: Vec<i64> = LinkTier::ALL
        .into_iter()
        .map(|tier| {
            let params = CaseStudyParams {
                pages: 400,
                total_bytes: 1_500_000,
                seed: 811,
                ..CaseStudyParams::default()
            }
            .with_link(tier.spec());
            let local = run_mobile(&params).scan_time.as_secs_f64();
            let remote = run_stationary(&params).scan_time.as_secs_f64();
            #[allow(clippy::cast_possible_truncation)]
            let advantage = ((remote - local) / remote * 1e4).round() as i64;
            advantage
        })
        .collect();
    assert_eq!(
        advantages,
        [1658, 6114, 9693, 9963],
        "lan100, lan10, wan, modem"
    );
    assert!(advantages.windows(2).all(|w| w[0] < w[1]), "monotone");
}

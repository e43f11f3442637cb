//! A fleet of §5 case studies side by side: `K` disjoint client/server
//! pairs, each running its own mobilized Webbot scan — the workload the
//! tick scheduler's overlap in virtual time exists for.
//!
//! Run one after another, the pairs' scans would take the *sum* of their
//! makespans. Under the tick scheduler each pair's work runs in its own
//! batch with a forked clock, the barrier advances the global clock to the
//! slowest batch, and the fleet's makespan collapses towards the *longest
//! single scan* — the overlap [`run_fleet`] measures against each pair run
//! alone ([`FleetParams::pair_alone`]).

use std::sync::Arc;
use std::time::Duration;

use tacoma_briefcase::{folders, Briefcase};
use tacoma_core::{HostEvent, LinkSpec, Principal, SystemBuilder, TaxSystem};
use tacoma_web::{Site, SiteSpec, WebServer, DEFAULT_SERVER_WORK_NS};

use crate::mobile::{self, REPORT_DRAWER};
use crate::{WebbotConfig, WebbotReport};

/// One client/server pair of a fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetPair {
    /// The home host the webbot launches from and reports back to.
    pub client: String,
    /// The host serving the site to scan.
    pub server: String,
}

/// The host sets a fleet run deploys over. Historically the harness
/// hard-coded `client{i}`/`server{i}` names; scenario-driven tours (the
/// E11 tests in `tacoma-scenario`) hand it arbitrary generated host sets
/// instead, so they and `exp_layers`' E9 fleet share this one harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetPlan {
    pairs: Vec<FleetPair>,
}

impl FleetPlan {
    /// The classic synthetic plan: `k` disjoint `client{i}`/`server{i}`
    /// pairs.
    pub fn numbered(k: usize) -> Self {
        FleetPlan {
            pairs: (0..k)
                .map(|i| FleetPair {
                    client: client_name(i),
                    server: server_name(i),
                })
                .collect(),
        }
    }

    /// A plan over explicit `(client, server)` host names — e.g. hosts
    /// drawn from a generated scenario topology.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (String, String)>,
    {
        FleetPlan {
            pairs: pairs
                .into_iter()
                .map(|(client, server)| FleetPair { client, server })
                .collect(),
        }
    }

    /// The pairs, in deployment order.
    pub fn pairs(&self) -> &[FleetPair] {
        &self.pairs
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the plan has no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Every host in the plan exactly once, in first-mention order.
    pub fn hosts(&self) -> Vec<String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut hosts = Vec::new();
        for pair in &self.pairs {
            for h in [&pair.client, &pair.server] {
                if seen.insert(h.clone()) {
                    hosts.push(h.clone());
                }
            }
        }
        hosts
    }
}

/// Parameters of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetParams {
    /// The client/server host sets to deploy.
    pub plan: FleetPlan,
    /// HTML pages on each server.
    pub pages: usize,
    /// Total site bytes on each server.
    pub total_bytes: u64,
    /// Site/topology seed.
    pub seed: u64,
    /// Link between every host pair.
    pub link: LinkSpec,
    /// Server CPU per request.
    pub server_work_ns: u64,
    /// Webbot depth limit.
    pub max_depth: usize,
}

impl Default for FleetParams {
    fn default() -> Self {
        FleetParams {
            plan: FleetPlan::numbered(4),
            pages: 40,
            total_bytes: 400_000,
            seed: 1900,
            link: LinkSpec::lan_100mbit(),
            server_work_ns: DEFAULT_SERVER_WORK_NS,
            max_depth: 4,
        }
    }
}

impl FleetParams {
    /// The same run with only pair `i` of the plan deployed, on the very
    /// site it scans in the full fleet: the baseline a fleet's makespan
    /// overlaps.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no pair `i`.
    pub fn pair_alone(&self, i: usize) -> FleetParams {
        let pair = &self.plan.pairs()[i];
        FleetParams {
            plan: FleetPlan::from_pairs([(pair.client.clone(), pair.server.clone())]),
            // Sites are seeded by plan index: pair `i`'s site is seeded
            // `seed + i` in the fleet and `seed + 0` alone.
            seed: self.seed.wrapping_add(i as u64),
            ..self.clone()
        }
    }
}

/// What a fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Global virtual time at quiescence — the fleet's makespan.
    pub virtual_makespan: Duration,
    /// Each pair's combined report, indexed by pair.
    pub reports: Vec<WebbotReport>,
    /// Scheduler steps executed.
    pub steps: usize,
    /// The full event trace, for determinism comparisons.
    pub trace: Vec<(String, HostEvent)>,
}

/// The `i`-th pair's client host name.
pub fn client_name(i: usize) -> String {
    format!("client{i}")
}

/// The `i`-th pair's server host name.
pub fn server_name(i: usize) -> String {
    format!("server{i}")
}

/// Builds the fleet deployment: `pairs` clients, `pairs` servers (each
/// with its own generated site), Webbot programs installed everywhere.
pub fn build_fleet(params: &FleetParams) -> TaxSystem {
    let mut builder = SystemBuilder::new()
        .default_link(params.link)
        .seed(params.seed)
        .trust_all();
    for host in params.plan.hosts() {
        builder = builder.host(&host).expect("valid host name");
    }
    let system = builder.build();
    install_fleet_sites(&system, params);
    for name in system.host_names() {
        mobile::install_programs(&system.host(&name).expect("listed host"));
    }
    system
}

/// Installs each plan server's generated site (and the webbot programs'
/// prerequisite, the web server service) on an already-built system. Used
/// by [`build_fleet`] and by the scenario harness, which builds its system
/// from a generated topology instead.
///
/// # Panics
///
/// Panics if a plan server is not a host of `system`.
pub fn install_fleet_sites(system: &TaxSystem, params: &FleetParams) {
    let mut installed = std::collections::BTreeSet::new();
    for (i, pair) in params.plan.pairs().iter().enumerate() {
        if !installed.insert(pair.server.clone()) {
            continue;
        }
        let spec = SiteSpec {
            host: pair.server.clone(),
            pages: params.pages,
            total_bytes: params.total_bytes,
            // Distinct sites per pair, deterministically.
            seed: params.seed.wrapping_add(i as u64),
            max_depth: params.max_depth,
            ..SiteSpec::paper_site(&pair.server)
        };
        let site = Site::generate(&spec);
        let host = system.host(&pair.server).expect("server host");
        host.add_service(Arc::new(
            WebServer::new(site).with_work_ns(params.server_work_ns),
        ));
    }
}

/// Launches one mobile Webbot per pair, runs the system to quiescence,
/// and collects every pair's report.
///
/// # Panics
///
/// Panics if any launch fails or a pair's report never comes home —
/// both indicate a broken deployment, not a measurable outcome.
pub fn run_fleet(params: &FleetParams) -> FleetOutcome {
    let mut system = build_fleet(params);
    for pair in params.plan.pairs() {
        let mut config = WebbotConfig::scan_site(&pair.server);
        config.max_depth = params.max_depth;
        let spec = mobile::mw_webbot_spec(&pair.server, &pair.client, &config, false, None);
        system
            .launch(&pair.client, spec)
            .expect("launch fleet webbot");
    }
    let outcome = system.run_until_quiet();
    assert!(outcome.quiesced(), "fleet did not quiesce");

    let reports = params
        .plan
        .pairs()
        .iter()
        .map(|pair| fetch_report(&mut system, &pair.client))
        .collect();
    FleetOutcome {
        virtual_makespan: system.clock().now().since_epoch(),
        reports,
        steps: outcome.steps(),
        trace: system.events(),
    }
}

/// Fetches a briefcase parked in `host`'s cabinet under `drawer`, or
/// `None` if the drawer is empty or the cabinet unreachable. Cabinet
/// drawers are scoped by owning principal, so `owner` must be the
/// principal the parking agent ran as — for an agent launched from host
/// `h`, that is `Principal::local_system(h)`.
pub fn fetch_parked(
    system: &mut TaxSystem,
    host: &str,
    owner: &Principal,
    drawer: &str,
) -> Option<Briefcase> {
    let mut request = Briefcase::new();
    request.set_single(folders::COMMAND, "fetch");
    request.append(folders::ARGS, drawer);
    let reply = system
        .call_service(host, "ag_cabinet", owner, request)
        .ok()?;
    let data = reply.element("CABINET-DATA", 0).ok()?;
    Briefcase::decode_bytes(data.bytes()).ok()
}

/// Fetches the parked report from `home`'s cabinet.
///
/// # Panics
///
/// Panics if the cabinet is unreachable or holds no report — the agent
/// never came home.
pub fn fetch_report(system: &mut TaxSystem, home: &str) -> WebbotReport {
    let owner = Principal::local_system(home);
    let parked = fetch_parked(system, home, &owner, REPORT_DRAWER)
        .unwrap_or_else(|| panic!("no parked report on {home}; agent never came home?"));
    WebbotReport::read_from(&parked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetParams {
        FleetParams {
            plan: FleetPlan::numbered(4),
            pages: 20,
            total_bytes: 200_000,
            seed: 77,
            ..FleetParams::default()
        }
    }

    /// The headline claim: the tick scheduler overlaps a 4-pair fleet's
    /// scans, so its virtual makespan is at most half the sum of its
    /// pairs' makespans, each run alone — and every scan finds exactly
    /// what it finds alone.
    #[test]
    fn parallel_fleet_halves_virtual_makespan() {
        let params = small();
        let parallel = run_fleet(&params);
        let alone: Vec<FleetOutcome> = (0..params.plan.len())
            .map(|i| run_fleet(&params.pair_alone(i)))
            .collect();

        assert_eq!(parallel.reports.len(), 4);
        let alone_reports: Vec<WebbotReport> =
            alone.iter().flat_map(|run| run.reports.clone()).collect();
        assert_eq!(alone_reports, parallel.reports);
        for report in &parallel.reports {
            assert!(report.pages_scanned > 0);
        }
        let sum: Duration = alone.iter().map(|run| run.virtual_makespan).sum();
        assert!(
            parallel.virtual_makespan * 2 <= sum,
            "parallel {:?} not 2x better than its pairs alone ({sum:?} summed)",
            parallel.virtual_makespan,
        );
    }

    /// The harness is name-agnostic: an explicit plan over scenario-style
    /// generated host names behaves exactly like the numbered plan.
    #[test]
    fn explicit_plan_runs_like_numbered() {
        let plan = FleetPlan::from_pairs([
            ("h000.gen".to_owned(), "h001.gen".to_owned()),
            ("h002.gen".to_owned(), "h003.gen".to_owned()),
        ]);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.hosts().len(), 4);
        let params = FleetParams {
            plan,
            pages: 10,
            total_bytes: 100_000,
            seed: 5,
            ..FleetParams::default()
        };
        let outcome = run_fleet(&params);
        assert_eq!(outcome.reports.len(), 2);
        for report in &outcome.reports {
            assert!(report.pages_scanned > 0);
        }
    }

    /// The determinism contract on the real workload: two runs of the
    /// same fleet produce identical traces (and therefore identical
    /// makespans and reports).
    #[test]
    fn fleet_traces_are_worker_count_invariant() {
        let params = small();
        let first = run_fleet(&params);
        let second = run_fleet(&params);
        assert_eq!(first.virtual_makespan, second.virtual_makespan);
        assert_eq!(first.reports, second.reports);
        assert_eq!(first.trace, second.trace);
    }
}

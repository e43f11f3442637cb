//! The §4 data-mining scenario:
//!
//! > "A mobile agent in this application domain can be launched from a
//! > client host on an itinerant path visiting a set of server hosts
//! > containing voluminous data. […] The mobile agent will, at each host,
//! > filter necessary data, and only bring back the reduced set of data
//! > that is valuable for the application."
//!
//! Two designs over the same record stores:
//!
//! * **client pull** — fetch every record from every server to the
//!   client, filter there (the "fixed clients pulling data from remote
//!   servers" of the paper's introduction);
//! * **mobile agent** — visit each server, filter at the source, carry
//!   only the matches.
//!
//! The interesting output is *who moves fewer bytes and finishes sooner*
//! as the selectivity (match fraction) varies — the crossover is the
//! paper's argument made quantitative.

use std::sync::Arc;
use std::time::Duration;

use tacoma_core::{
    command_of, error_reply, folders, ok_reply, AgentSpec, Architecture, ArtifactBundle,
    BinaryArtifact, Briefcase, Folder, HostHooks, LinkSpec, Principal, ServiceAgent, ServiceEnv,
    SystemBuilder, TaxSystem,
};

/// Parameters of one mining comparison.
#[derive(Debug, Clone)]
pub struct MiningParams {
    /// Number of data servers on the itinerary.
    pub servers: usize,
    /// Records per server.
    pub records_per_server: usize,
    /// Bytes per record.
    pub record_bytes: usize,
    /// Fraction of records that match the query, in `[0, 1]`.
    pub selectivity: f64,
    /// Link between all hosts.
    pub link: LinkSpec,
    /// Seed for record matching.
    pub seed: u64,
    /// CPU cost of filtering one record.
    pub filter_work_ns: u64,
}

impl Default for MiningParams {
    fn default() -> Self {
        MiningParams {
            servers: 4,
            records_per_server: 200,
            record_bytes: 4_096,
            selectivity: 0.05,
            link: LinkSpec::lan_100mbit(),
            seed: 7,
            filter_work_ns: 50_000,
        }
    }
}

/// The measured outcome of one design.
#[derive(Debug, Clone)]
pub struct MiningOutcome {
    /// Matching records brought home.
    pub matches: u64,
    /// Virtual completion time.
    pub elapsed: Duration,
    /// Bytes moved across the network (loopback excluded).
    pub network_bytes: u64,
}

/// Whether record `i` on server `s` matches the query — deterministic in
/// the seed, so both designs find the identical answer set.
fn record_matches(seed: u64, server: usize, i: usize, selectivity: f64) -> bool {
    let x = (seed ^ (server as u64).wrapping_mul(0x9e3779b97f4a7c15))
        .wrapping_add(i as u64)
        .wrapping_mul(0x2545f4914f6cdd1d);
    ((x >> 16) % 10_000) as f64 / 10_000.0 < selectivity
}

/// The record-store service: `fetch-all` replies with every record, each
/// a `RECORDS` element whose first byte flags whether it matches.
struct RecordStore {
    server_index: usize,
    params: MiningParams,
}

impl ServiceAgent for RecordStore {
    fn name(&self) -> &str {
        "ag_records"
    }

    fn handle(&self, request: &mut Briefcase, env: &mut ServiceEnv<'_>) -> Briefcase {
        match command_of(request) {
            "fetch-all" => {
                // Serving costs CPU proportional to the records scanned.
                env.hooks
                    .work_ns(self.params.records_per_server as u64 * 2_000);
                let mut reply = ok_reply();
                let records = reply.ensure_folder("RECORDS");
                for i in 0..self.params.records_per_server {
                    let matches = record_matches(
                        self.params.seed,
                        self.server_index,
                        i,
                        self.params.selectivity,
                    );
                    let mut data = vec![0u8; self.params.record_bytes.max(1)];
                    data[0] = matches as u8;
                    records.append(data);
                }
                reply
            }
            "count" => {
                let mut reply = ok_reply();
                reply.set_single("COUNT", self.params.records_per_server as i64);
                reply
            }
            other => error_reply(format!("ag_records: unknown command {other:?}")),
        }
    }
}

/// Filters a `fetch-all` reply, charging filter work; returns the
/// matching records.
fn filter_records(
    reply: &Briefcase,
    filter_work_ns: u64,
    hooks: &mut dyn HostHooks,
) -> Vec<tacoma_core::Element> {
    let mut matches = Vec::new();
    if let Some(records) = reply.folder("RECORDS") {
        for record in records {
            hooks.work_ns(filter_work_ns);
            if record.data().first() == Some(&1) {
                matches.push(record.clone());
            }
        }
    }
    matches
}

const MINER_KEY: &str = "miner";
const PULLER_KEY: &str = "puller";
/// The miner agent's "binary" size on the wire.
const MINER_BINARY_SIZE: usize = 40_000;
const RESULT_DRAWER: &str = "mining-report";

fn install_programs(host: &tacoma_core::TaxHost, params: &MiningParams) {
    let filter_work = params.filter_work_ns;

    // The itinerant miner: visit HOSTS one by one, filter at each source,
    // accumulate matches in RESULTS, come home, park the results.
    host.install_native(MINER_KEY, move |bc, hooks| {
        let here = hooks.host_name();
        let home = bc.single_str("MINE:HOME").unwrap_or_default().to_owned();

        if here != home {
            // At a data server: mine it.
            let mut request = Briefcase::new();
            request.set_single(folders::COMMAND, "fetch-all");
            if let Some(reply) = hooks.meet("ag_records", &request) {
                for record in filter_records(&reply, filter_work, hooks) {
                    bc.append("RESULTS", record);
                }
            }
        }

        // Next hop, or home.
        let next = bc.folder_mut("HOSTS").and_then(Folder::remove_front);
        let dest = match next {
            Some(e) => e.as_str().unwrap_or_default().to_owned(),
            None if here == home => {
                // Home with the goods: park them.
                bc.set_single("MINE:T-DONE-MS", hooks.now_ms());
                let mut store = Briefcase::new();
                store.set_single(folders::COMMAND, "store");
                store.append(folders::ARGS, RESULT_DRAWER);
                store.set_single("CABINET-DATA", bc.encode());
                hooks.meet("ag_cabinet", &store);
                return Ok(tacoma_core::Outcome::Exit(0));
            }
            None => format!("tacoma://{home}/vm_bin"),
        };
        match hooks.go(&dest, bc) {
            tacoma_core::GoDecision::Moved => Ok(tacoma_core::Outcome::Moved { to: dest }),
            tacoma_core::GoDecision::Unreachable => Ok(tacoma_core::Outcome::Exit(1)),
        }
    });

    // The stationary puller: fetch everything from every server across
    // the network, filter locally.
    host.install_native(PULLER_KEY, move |bc, hooks| {
        let servers: Vec<String> = bc
            .folder("MINE:SERVERS")
            .map(|f| {
                f.iter()
                    .filter_map(|e| e.as_str().ok().map(str::to_owned))
                    .collect()
            })
            .unwrap_or_default();
        for server in servers {
            let mut request = Briefcase::new();
            request.set_single(folders::COMMAND, "fetch-all");
            if let Some(reply) = hooks.meet(&format!("tacoma://{server}/ag_records"), &request) {
                for record in filter_records(&reply, filter_work, hooks) {
                    bc.append("RESULTS", record);
                }
            }
        }
        bc.set_single("MINE:T-DONE-MS", hooks.now_ms());
        let mut store = Briefcase::new();
        store.set_single(folders::COMMAND, "store");
        store.append(folders::ARGS, RESULT_DRAWER);
        store.set_single("CABINET-DATA", bc.encode());
        hooks.meet("ag_cabinet", &store);
        Ok(tacoma_core::Outcome::Exit(0))
    });
}

fn server_names(params: &MiningParams) -> Vec<String> {
    (0..params.servers).map(|i| format!("srv{i}")).collect()
}

fn build_system(params: &MiningParams) -> TaxSystem {
    let mut builder = SystemBuilder::new()
        .default_link(params.link)
        .seed(params.seed)
        .trust_all()
        .host("client")
        .expect("host name");
    for s in server_names(params) {
        builder = builder.host(&s).expect("host name");
    }
    let system = builder.build();
    for (i, name) in server_names(params).iter().enumerate() {
        let host = system.host(name).expect("server");
        host.add_service(Arc::new(RecordStore {
            server_index: i,
            params: params.clone(),
        }));
        install_programs(&host, params);
    }
    install_programs(&system.host("client").expect("client"), params);
    system
}

fn collect(system: &mut TaxSystem) -> MiningOutcome {
    let principal = Principal::local_system("client");
    let mut fetch = Briefcase::new();
    fetch.set_single(folders::COMMAND, "fetch");
    fetch.append(folders::ARGS, RESULT_DRAWER);
    let reply = system
        .call_service("client", "ag_cabinet", &principal, fetch)
        .expect("cabinet reachable");
    let parked = Briefcase::decode_bytes(
        reply
            .element("CABINET-DATA", 0)
            .expect("report parked")
            .bytes(),
    )
    .expect("parked briefcase decodes");
    let matches = parked.folder("RESULTS").map_or(0, Folder::len) as u64;
    let done_ms = parked.single_i64("MINE:T-DONE-MS").unwrap_or(0).max(0) as u64;
    MiningOutcome {
        matches,
        elapsed: Duration::from_millis(done_ms),
        network_bytes: system.network().stats().network_bytes(),
    }
}

/// Runs the client-pull design.
pub fn run_client_pull(params: &MiningParams) -> MiningOutcome {
    let system = build_system(params);
    let bundle = ArtifactBundle::new().with(BinaryArtifact::native(
        PULLER_KEY,
        Architecture::simulated(),
        PULLER_KEY,
        MINER_BINARY_SIZE,
    ));
    let spec = AgentSpec::bundle("puller", bundle).folder("MINE:SERVERS", server_names(params));
    let mut system_ref = system;
    system_ref.launch("client", spec).expect("launch puller");
    system_ref.run_until_quiet();
    collect(&mut system_ref)
}

/// Runs the itinerant mobile-agent design.
pub fn run_mobile_agent(params: &MiningParams) -> MiningOutcome {
    let mut system = build_system(params);
    let bundle = ArtifactBundle::new().with(BinaryArtifact::native(
        MINER_KEY,
        Architecture::simulated(),
        MINER_KEY,
        MINER_BINARY_SIZE,
    ));
    let itinerary: Vec<String> = server_names(params)
        .iter()
        .map(|s| format!("tacoma://{s}/vm_bin"))
        .collect();
    let spec = AgentSpec::bundle("miner", bundle)
        .folder("MINE:HOME", ["client"])
        .itinerary(itinerary);
    system.launch("client", spec).expect("launch miner");
    system.run_until_quiet();
    collect(&mut system)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MiningParams {
        MiningParams {
            servers: 3,
            records_per_server: 40,
            record_bytes: 512,
            selectivity: 0.1,
            ..MiningParams::default()
        }
    }

    #[test]
    fn both_designs_find_the_same_matches() {
        let params = small();
        let pull = run_client_pull(&params);
        let mobile = run_mobile_agent(&params);
        assert_eq!(pull.matches, mobile.matches);
        assert!(
            pull.matches > 0,
            "selectivity 0.1 over 120 records should match some"
        );
    }

    #[test]
    fn low_selectivity_favours_the_agent() {
        // Voluminous data (2.4 MB) dwarfing the 40 KB agent binary —
        // the paper's "huge data sets" premise. (With data smaller than
        // the agent, pulling wins, as the crossover sweep shows.)
        let params = MiningParams {
            selectivity: 0.02,
            records_per_server: 200,
            record_bytes: 4_096,
            ..small()
        };
        let pull = run_client_pull(&params);
        let mobile = run_mobile_agent(&params);
        assert!(
            mobile.network_bytes < pull.network_bytes,
            "mobile {} !< pull {}",
            mobile.network_bytes,
            pull.network_bytes
        );
    }

    #[test]
    fn high_selectivity_favours_the_client_pull() {
        // Near-1 selectivity: the agent drags almost all data across
        // every remaining hop; pulling once is cheaper.
        let params = MiningParams {
            selectivity: 0.95,
            servers: 4,
            ..small()
        };
        let pull = run_client_pull(&params);
        let mobile = run_mobile_agent(&params);
        assert!(
            mobile.network_bytes > pull.network_bytes,
            "mobile {} !> pull {}",
            mobile.network_bytes,
            pull.network_bytes
        );
    }
}

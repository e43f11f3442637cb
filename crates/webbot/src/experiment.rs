//! The §5 measurement, packaged: build the department deployment, run the
//! same scan stationary and mobile, and compare virtual elapsed time and
//! network bytes.
//!
//! "In a test, the Webbot scanned 917 html pages containing 3 MBytes on
//! our web-server. […] We found that executing a Webbot scan for invalid
//! links on our CS department server locally is 16 % faster than doing it
//! over a 100MBit network."

use std::sync::Arc;
use std::time::Duration;

use tacoma_briefcase::{folders, Briefcase};
use tacoma_core::{LinkSpec, Principal, SystemBuilder, TaxSystem};
use tacoma_web::{Site, SiteSpec, WebServer, DEFAULT_SERVER_WORK_NS};

use crate::mobile::{self, RunStamps, REPORT_DRAWER};
use crate::{WebbotConfig, WebbotReport};

/// Host names used by the case study.
pub const CLIENT: &str = "client";
/// The web server host.
pub const SERVER: &str = "server";

/// Parameters of one case-study run.
#[derive(Debug, Clone)]
pub struct CaseStudyParams {
    /// HTML pages on the server (paper: 917).
    pub pages: usize,
    /// Total site bytes (paper: 3 MB).
    pub total_bytes: u64,
    /// Site/topology seed.
    pub seed: u64,
    /// Link between client and server (paper: 100 Mbit LAN).
    pub link: LinkSpec,
    /// Number of external hosts the site links out to.
    pub external_hosts: usize,
    /// Whether the run performs the §5 second step (external checks).
    pub check_externals: bool,
    /// Server CPU per request.
    pub server_work_ns: u64,
    /// Webbot depth limit (paper: 4).
    pub max_depth: usize,
}

impl Default for CaseStudyParams {
    fn default() -> Self {
        CaseStudyParams {
            pages: 917,
            total_bytes: 3_000_000,
            seed: 1900,
            link: LinkSpec::lan_100mbit(),
            external_hosts: 2,
            check_externals: false,
            server_work_ns: DEFAULT_SERVER_WORK_NS,
            max_depth: 4,
        }
    }
}

impl CaseStudyParams {
    /// The exact §5 configuration.
    pub fn paper() -> Self {
        CaseStudyParams::default()
    }

    /// Scales the data volume (the WAN-conjecture sweep).
    pub fn with_volume(mut self, total_bytes: u64) -> Self {
        self.total_bytes = total_bytes;
        self
    }

    /// Changes the client–server link.
    pub fn with_link(mut self, link: LinkSpec) -> Self {
        self.link = link;
        self
    }

    /// Enables the §5 second step.
    pub fn with_external_checks(mut self) -> Self {
        self.check_externals = true;
        self
    }

    fn external_host_names(&self) -> Vec<String> {
        (0..self.external_hosts)
            .map(|i| format!("ext{i}"))
            .collect()
    }
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct CaseStudyOutcome {
    /// The combined report that came home.
    pub report: WebbotReport,
    /// Scan-phase virtual time — the paper's measured quantity.
    pub scan_time: Duration,
    /// Whole-journey virtual time (travel + scan + external checks +
    /// report).
    pub total_time: Duration,
    /// Bytes that crossed the client–server link (both directions).
    pub link_bytes: u64,
    /// Bytes that crossed any network link.
    pub network_bytes: u64,
}

/// Builds the deployment: client, server (with the generated site), and
/// external hosts (each serving a small site so external links can be
/// validated). Returns the system; hosts are [`CLIENT`], [`SERVER`],
/// `ext0..`.
pub fn build_system(params: &CaseStudyParams) -> TaxSystem {
    let externals = params.external_host_names();
    let mut builder = SystemBuilder::new()
        .default_link(params.link)
        .seed(params.seed)
        .trust_all()
        .host(CLIENT)
        .expect("valid host name")
        .host(SERVER)
        .expect("valid host name");
    for ext in &externals {
        builder = builder.host(ext).expect("valid host name");
    }
    let system = builder.build();

    // The department site.
    let spec = SiteSpec {
        host: SERVER.to_owned(),
        pages: params.pages,
        total_bytes: params.total_bytes,
        seed: params.seed,
        max_depth: params.max_depth,
        ..SiteSpec::paper_site(SERVER)
    }
    .with_external_hosts(externals.clone());
    let site = Site::generate(&spec);
    let server = system.host(SERVER).expect("server host");
    server.add_service(Arc::new(
        WebServer::new(site).with_work_ns(params.server_work_ns),
    ));

    // Each external host serves a one-page site: `/index.html` exists,
    // everything else 404s — exactly what the generator's external links
    // need to be partly valid, partly dead.
    for ext in &externals {
        let mut ext_site = Site::empty(ext.clone());
        ext_site.add(tacoma_web::Document::html("/index.html", 2_048));
        let host = system.host(ext).expect("external host");
        host.add_service(Arc::new(
            WebServer::new(ext_site).with_work_ns(params.server_work_ns),
        ));
    }

    // The Webbot binary (and drivers) are installable everywhere.
    for name in system.host_names() {
        mobile::install_programs(&system.host(&name).expect("listed host"));
    }
    system
}

/// Runs the stationary baseline: the robot executes at [`CLIENT`],
/// pulling every page across the link.
pub fn run_stationary(params: &CaseStudyParams) -> CaseStudyOutcome {
    let mut system = build_system(params);
    let config = webbot_config(params);
    let spec = mobile::stationary_spec(&config, params.check_externals);
    system
        .launch(CLIENT, spec)
        .expect("launch stationary webbot");
    system.run_until_quiet();
    collect(&mut system, CLIENT)
}

/// Runs the mobile version: `rwWebbot(mwWebbot(Webbot))` travels to
/// [`SERVER`], scans over loopback, and ships the report home.
pub fn run_mobile(params: &CaseStudyParams) -> CaseStudyOutcome {
    let mut system = build_system(params);
    let config = webbot_config(params);
    let monitor = format!("tacoma://{CLIENT}/ag_log");
    let spec = mobile::mw_webbot_spec(
        SERVER,
        CLIENT,
        &config,
        params.check_externals,
        Some(&monitor),
    );
    system.launch(CLIENT, spec).expect("launch mwWebbot");
    system.run_until_quiet();
    collect(&mut system, CLIENT)
}

fn webbot_config(params: &CaseStudyParams) -> WebbotConfig {
    let mut config = WebbotConfig::scan_site(SERVER);
    config.max_depth = params.max_depth;
    config
}

/// Fetches the parked report from `home`'s cabinet and assembles the
/// outcome.
fn collect(system: &mut TaxSystem, home: &str) -> CaseStudyOutcome {
    let principal = Principal::local_system(home);
    let mut request = Briefcase::new();
    request.set_single(folders::COMMAND, "fetch");
    request.append(folders::ARGS, REPORT_DRAWER);
    let reply = system
        .call_service(home, "ag_cabinet", &principal, request)
        .expect("cabinet reachable");
    let data = reply
        .element("CABINET-DATA", 0)
        .unwrap_or_else(|_| panic!("no parked report; agent never came home? reply: {reply:?}"));
    let parked = Briefcase::decode_bytes(data.bytes()).expect("parked briefcase decodes");

    let report = WebbotReport::read_from(&parked);
    let stamps = RunStamps::read_from(&parked);
    debug_assert!(stamps.is_monotone(), "stamps out of order: {stamps:?}");

    let stats = system.network().stats();
    let client: tacoma_core::HostId = CLIENT.parse().expect("client id");
    let server: tacoma_core::HostId = SERVER.parse().expect("server id");
    let link_bytes = stats.pair(&client, &server).bytes + stats.pair(&server, &client).bytes;

    CaseStudyOutcome {
        report,
        scan_time: Duration::from_millis(stamps.scan_ms().max(0) as u64),
        total_time: Duration::from_millis(stamps.total_ms().max(0) as u64),
        link_bytes,
        network_bytes: stats.network_bytes(),
    }
}

/// Speedup of `local` over `remote` as the paper states it: how much
/// faster the local scan is, as a fraction of the remote time.
pub fn speedup(remote: Duration, local: Duration) -> f64 {
    if remote.is_zero() {
        return 0.0;
    }
    (remote.as_secs_f64() - local.as_secs_f64()) / remote.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A site comfortably larger than the travelling agent (~0.6 MB of
    /// binaries), so the §5 trade-off points the paper's way; the
    /// crossover below it is exercised by `e2_wan_and_volume_sweep` and
    /// `e8_mining_crossover` in `tests/paper_reproduction.rs`.
    fn small_params() -> CaseStudyParams {
        CaseStudyParams {
            pages: 60,
            total_bytes: 2_000_000,
            seed: 11,
            ..CaseStudyParams::default()
        }
    }

    #[test]
    fn stationary_scan_pulls_site_over_the_link() {
        let out = run_stationary(&small_params());
        assert_eq!(
            out.report.pages_scanned as usize,
            60 + out.report.non_html as usize
        );
        assert!(
            !out.report.invalid.is_empty(),
            "generated site has dead links"
        );
        // Pages crossed the network.
        assert!(
            out.link_bytes >= 2_000_000,
            "link bytes {} < site bytes",
            out.link_bytes
        );
        assert!(out.scan_time > Duration::ZERO);
    }

    #[test]
    fn mobile_scan_keeps_pages_off_the_link() {
        let params = small_params();
        let stationary = run_stationary(&params);
        let mobile = run_mobile(&params);

        // Same findings either way: the robot is the same binary.
        assert_eq!(stationary.report.pages_scanned, mobile.report.pages_scanned);
        assert_eq!(stationary.report.invalid, mobile.report.invalid);
        assert_eq!(stationary.report.bytes_fetched, mobile.report.bytes_fetched);

        // The mobile run moves the agent + binary + report (~0.5 MB), not
        // the site; the stationary run moves the site + requests.
        assert!(
            mobile.link_bytes < stationary.link_bytes,
            "mobile {} !< stationary {}",
            mobile.link_bytes,
            stationary.link_bytes
        );

        // And the local scan phase is faster.
        assert!(
            mobile.scan_time < stationary.scan_time,
            "mobile {:?} !< stationary {:?}",
            mobile.scan_time,
            stationary.scan_time
        );
    }

    #[test]
    fn external_checks_add_findings() {
        let params = small_params().with_external_checks();
        let out = run_mobile(&params);
        // Dead external links (missing paths on ext hosts) are reported
        // with their referrers.
        let external_invalid: Vec<_> = out
            .report
            .invalid
            .iter()
            .filter(|i| i.url.contains("/missing/"))
            .collect();
        assert!(
            !external_invalid.is_empty(),
            "expected dead externals: {:?}",
            out.report.summary()
        );
    }

    #[test]
    fn speedup_definition() {
        assert!((speedup(Duration::from_secs(100), Duration::from_secs(84)) - 0.16).abs() < 1e-9);
        assert_eq!(speedup(Duration::ZERO, Duration::ZERO), 0.0);
    }
}
